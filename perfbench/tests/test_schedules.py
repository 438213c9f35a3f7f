"""The seeded inputs are a pure function of the seed."""

from perfbench import families as fam

DOMAINS = fam.Domains(
    parts=(("BRASS", 15, "Brand#23", "6 PACK"), ("STEEL", 7, "Brand#11", "JUMBO"),
           ("TIN", 3, "Brand#42", "CASE")),
    nations=("FRANCE", "BRAZIL", "JAPAN"),
)


def as_tuples(ops):
    return [(op.family, sorted(op.literals.items()), op.strategy, op.due, op.seq)
            for op in ops]


def test_grid_round_is_the_18_cells_in_a_seeded_order():
    ops = fam.grid_round(7, 0)
    assert sorted(op.cell for op in ops) == sorted(fam.PAPER_CELLS)
    assert len(ops) == 18
    assert ("q3", "kim") not in {op.cell for op in ops}
    assert as_tuples(fam.grid_round(7, 0)) == as_tuples(ops)
    orders = {tuple(op.cell for op in fam.grid_round(s, 0)) for s in range(5)}
    assert len(orders) > 1


def test_frontend_round_is_a_function_of_seed_and_round():
    a = fam.frontend_round(3, 4, DOMAINS)
    assert as_tuples(a) == as_tuples(fam.frontend_round(3, 4, DOMAINS))
    assert as_tuples(a) != as_tuples(fam.frontend_round(4, 4, DOMAINS))
    assert as_tuples(a) != as_tuples(fam.frontend_round(3, 5, DOMAINS))
    # Every literal set runs under every front-end strategy.
    groups = {}
    for op in a:
        key = (op.family, tuple(sorted(op.literals.items())))
        groups.setdefault(key, set()).add(op.strategy)
    assert all(s == set(fam.FRONTEND_STRATEGIES) for s in groups.values())
    assert len(a) == (len(fam.FAMILIES) * fam.FRONTEND_DRAWS
                      * len(fam.FRONTEND_STRATEGIES))


def test_serve_schedule_is_a_function_of_seed_rate_and_length():
    a = fam.serve_schedule(11, 40.0, 6, DOMAINS)
    assert as_tuples(a) == as_tuples(fam.serve_schedule(11, 40.0, 6, DOMAINS))
    assert as_tuples(a) != as_tuples(fam.serve_schedule(12, 40.0, 6, DOMAINS))
    # A longer schedule starts with the shorter one.
    longer = fam.serve_schedule(11, 40.0, 9, DOMAINS)
    assert as_tuples(longer[: len(a)]) == as_tuples(a)
    assert len(a) == 6 * fam.serve_round_size()
    dues = [op.due for op in a]
    assert dues == sorted(dues) and dues[0] > 0
    writes = [op for op in a if op.is_write]
    assert len(writes) == 6 * fam.SERVE_WRITES
    assert {op.strategy for op in a if not op.is_write} == set(fam.SERVE_STRATEGIES)
    # Mean gap near 1/rate.
    assert 0.5 / 40 < dues[-1] / len(a) < 2 / 40


def test_literals_come_from_the_domains():
    import random

    rng = random.Random(0)
    for _ in range(50):
        q1 = fam.draw(rng, "q1", DOMAINS)
        assert (q1["ptype"], q1["size"]) in {(p[0], p[1]) for p in DOMAINS.parts}
        assert q1["nation"] in DOMAINS.nations
        q3 = fam.draw(rng, "q3", DOMAINS)
        assert q3["region"] in fam.REGIONS
        budget = fam.draw(rng, "emp_dept", DOMAINS)["budget"]
        assert fam.BUDGET_RANGE[0] <= budget <= fam.BUDGET_RANGE[1]
        low = fam.draw(rng, "emp_dept", DOMAINS, 0, 2)["budget"]
        high = fam.draw(rng, "emp_dept", DOMAINS, 1, 2)["budget"]
        assert low < sum(fam.BUDGET_RANGE) / 2 <= high


def test_write_sql_has_unique_keys():
    ops = fam.serve_schedule(1, 40.0, 3, DOMAINS)
    keys = [op.sql() for op in ops if op.is_write]
    assert len(set(keys)) == len(keys)
    assert all(k.startswith("INSERT INTO bench_log") for k in keys)


def test_paper_grid_runs_the_paper_query_texts():
    from repro.tpcd import queries

    texts = {"q1": queries.QUERY_1, "q1_variant": queries.QUERY_1_VARIANT,
             "q2": queries.QUERY_2, "q3": queries.QUERY_3}
    for op in fam.grid_round(1, 0):
        assert op.sql() == texts[op.family]
        # The evaluator answers the literals the text carries.
        for value in fam.PAPER_LITERALS[op.family].values():
            for literal in value if isinstance(value, tuple) else (value,):
                assert str(literal) in op.sql()


def test_closed_loop_passes():
    from perfbench import workloads as wl

    # paper-grid: the same 18 cells in every pass, in a seeded order.
    grids = [wl.closed_loop_pass("paper-grid", 7, p, None) for p in range(3)]
    assert all(len(g) == 1 for g in grids)
    assert all(sorted(op.cell for op in g[0]) == sorted(fam.PAPER_CELLS)
               for g in grids)
    assert len({tuple(op.cell for op in g[0]) for g in grids}) > 1
    # frontend-mix: each pass its own seeded rounds, the next ones in order.
    front = [wl.closed_loop_pass("frontend-mix", 7, p, DOMAINS) for p in range(2)]
    assert as_tuples(front[1][0]) == as_tuples(
        fam.frontend_round(7, wl.FRONTEND_ROUNDS, DOMAINS))
    assert [as_tuples(r) for r in front[1]] == [
        as_tuples(r) for r in wl.closed_loop_pass("frontend-mix", 7, 1, DOMAINS)]
    assert sum(len(r) for r in front[0]) >= 1000


def test_grid_repeats_follow_the_work_of_a_cell():
    from perfbench import workloads as wl

    assert wl.grid_repeats(1_690_576) == 1  # NI on Q1-variant
    assert wl.grid_repeats(150_674) == 1
    assert wl.grid_repeats(120_611) == 2
    assert wl.grid_repeats(17_807) == wl.GRID_MAX_REPEATS
    assert wl.grid_repeats(0) == wl.GRID_MAX_REPEATS
