"""The evaluator against answers worked out by hand on a tiny catalog."""

import pytest

from perfbench.oracle import Oracle, same_multiset

PARTS = (
    ["p_partkey", "p_name", "p_brand", "p_type", "p_size", "p_container",
     "p_retailprice"],
    [
        (1, "P1", "Brand#23", "BRASS", 15, "6 PACK", 900.0),
        (2, "P2", "Brand#23", "BRASS", 15, "6 PACK", 901.0),
        (3, "P3", "Brand#11", "STEEL", 7, "JUMBO", 902.0),
    ],
)
SUPPLIERS = (
    ["s_suppkey", "s_name", "s_address", "s_nation", "s_region", "s_phone",
     "s_acctbal", "s_comment"],
    [
        (1, "S1", "a1", "FRANCE", "EUROPE", "p1", 100.0, "c1"),
        (2, "S2", "a2", "FRANCE", "EUROPE", "p2", 200.0, "c2"),
        (3, "S3", "a3", "BRAZIL", "AMERICA", "p3", 300.0, "c3"),
        (4, "S4", "a4", "GERMANY", "EUROPE", "p4", 400.0, "c4"),
    ],
)
PARTSUPP = (
    ["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"],
    [
        # Part 1: the cheapest offer is Brazilian; among French ones S2 wins.
        (1, 1, 5, 10.0), (1, 2, 5, 5.0), (1, 3, 5, 1.0),
        # Part 2: two French offers tie.
        (2, 1, 5, 7.0), (2, 2, 5, 7.0),
        (3, 3, 5, 2.0),
    ],
)
LINEITEM = (
    ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey", "l_quantity",
     "l_extendedprice", "l_discount"],
    [
        # Part 1: average quantity 15, threshold 3 -> only the first line.
        (1, 1, 1, 1, 1.0, 100.0, 0.0),
        (1, 2, 1, 1, 10.0, 110.0, 0.0),
        (1, 3, 1, 2, 20.0, 120.0, 0.0),
        (1, 4, 1, 2, 29.0, 130.0, 0.0),
        # Part 2: average 10, threshold 2 -> no line qualifies.
        (2, 1, 2, 1, 10.0, 140.0, 0.0),
        (2, 2, 2, 1, 10.0, 150.0, 0.0),
    ],
)
CUSTOMERS = (
    ["c_custkey", "c_name", "c_nation", "c_region", "c_acctbal",
     "c_mktsegment"],
    [
        (1, "C1", "FRANCE", "EUROPE", 10.0, "BUILDING"),
        (2, "C2", "FRANCE", "EUROPE", 5.5, "AUTOMOBILE"),
        (3, "C3", "FRANCE", "EUROPE", 1000.0, "MACHINERY"),
        (4, "C4", "BRAZIL", "AMERICA", 7.0, "BUILDING"),
    ],
)
# Section 2's example: 'tiny' sits in building B9, where nobody works.
DEPT = (
    ["name", "budget", "num_emps", "building"],
    [
        ("sales", 5000.0, 4, "B1"),
        ("tiny", 500.0, 1, "B9"),
        ("full", 3000.0, 2, "B1"),
        ("rich", 50000.0, 9, "B1"),
    ],
)
EMP = (
    ["empno", "name", "building", "salary"],
    [(1, "alice", "B1", 100.0), (2, "bob", "B1", 120.0)],
)
TABLES = {
    "parts": PARTS, "suppliers": SUPPLIERS, "partsupp": PARTSUPP,
    "lineitem": LINEITEM, "customers": CUSTOMERS, "dept": DEPT, "emp": EMP,
}


def supplier_row(key):
    s = SUPPLIERS[1][key - 1]
    return (s[1], s[6], s[2], s[5], s[7])


@pytest.fixture
def oracle():
    return Oracle(TABLES)


def test_q1_takes_the_minimum_over_the_nations_own_offers(oracle):
    got = oracle.q1(nation="FRANCE", size=15, ptype="BRASS")
    want = [supplier_row(2), supplier_row(1), supplier_row(2)]
    assert same_multiset(got, want)
    assert oracle.q1(nation="BRAZIL", size=7, ptype="BRASS") == []


def test_q1_variant_over_two_regions(oracle):
    got = oracle.q1_variant(regions=("AMERICA", "EUROPE"), ptype="BRASS")
    assert same_multiset(got, [supplier_row(3), supplier_row(1), supplier_row(2)])


def test_q2_sum_and_null_when_nothing_qualifies(oracle):
    assert oracle.q2(brand="Brand#23", container="6 PACK") == [(20.0,)]
    assert oracle.q2(brand="Brand#11", container="JUMBO") == [(None,)]


def test_q3_sums_both_segments_and_null_for_an_empty_union(oracle):
    got = oracle.q3(region="EUROPE", seg_a="BUILDING", seg_b="AUTOMOBILE")
    assert same_multiset(got, [
        ("S1", "FRANCE", 15.5), ("S2", "FRANCE", 15.5), ("S4", "GERMANY", None),
    ])
    assert oracle.q3(region="ASIA") == []


def test_emp_dept_keeps_the_count_bug_department(oracle):
    # 'tiny': num_emps 1 > count(*) 0 over its empty building.
    assert same_multiset(oracle.emp_dept(budget=10000), [("sales",), ("tiny",)])
    assert oracle.emp_dept(budget=100) == []


def test_answer_dispatches_and_memoizes(oracle):
    first = oracle.answer("emp_dept", {"budget": 10000})
    assert oracle.answer("emp_dept", {"budget": 10000}) is first


def test_same_multiset_semantics():
    assert same_multiset([(1, None)], [(1, None)])
    assert not same_multiset([(1, None)], [(1, 0)])
    assert same_multiset([(0.1 + 0.2,)], [(0.3,)])
    assert not same_multiset([(1.0,)], [(1.001,)])
    assert not same_multiset([(1,), (1,)], [(1,)])
    assert same_multiset([(2,), (1,)], [(1,), (2,)])


def test_engine_agrees_with_the_hand_answers():
    """The same tiny catalog loaded into the engine: NI and magic
    decorrelation return the hand-worked answers."""
    from repro import Database, Strategy
    from repro.storage import Catalog
    from repro.tpcd import create_tpcd_schema
    from repro.tpcd.empdept import create_empdept_schema

    from perfbench.families import render

    catalog = Catalog()
    create_tpcd_schema(catalog)
    create_empdept_schema(catalog)
    for name, (_, rows) in TABLES.items():
        for row in rows:
            catalog.table(name).insert(row)
    db = Database(catalog, validate=False)
    oracle = Oracle(TABLES)
    cases = [
        ("q1", {"nation": "FRANCE", "size": 15, "ptype": "BRASS"}),
        ("q2", {"brand": "Brand#11", "container": "JUMBO"}),
        ("q2", {"brand": "Brand#23", "container": "6 PACK"}),
        ("q3", {"region": "EUROPE", "seg_a": "BUILDING",
                "seg_b": "AUTOMOBILE"}),
        ("emp_dept", {"budget": 10000}),
    ]
    for family, literals in cases:
        for strategy in (Strategy.NESTED_ITERATION, Strategy.MAGIC):
            rows = db.execute(render(family, literals), strategy=strategy).rows
            assert same_multiset(rows, oracle.answer(family, literals)), (
                family, strategy
            )
