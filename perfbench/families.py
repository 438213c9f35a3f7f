"""Query families, their literal domains and the seeded input schedules.

Everything here is a pure function of its arguments: the same seed gives
the same rounds and the same open-loop schedule. The paper grid runs the
paper's query texts from ``repro.tpcd.queries``; the families of the other
workloads are templates of the same SQL with the literals left open.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.tpcd import queries

#: The literal-varied families of frontend-mix and serve-mixed: the paper's
#: Query 1, 2 and 3 and the section-2 EMP/DEPT example, with their literals
#: as ``str.format`` fields.
TEMPLATES = {
    "q1": """
        Select s.s_name, s.s_acctbal, s.s_address, s.s_phone, s.s_comment
        From Parts p, Suppliers s, Partsupp ps
        Where s.s_nation = '{nation}' and p.p_size = {size}
          and p.p_type = '{ptype}'
          and p.p_partkey = ps.ps_partkey and s.s_suppkey = ps.ps_suppkey
          and ps.ps_supplycost =
            (Select min(ps1.ps_supplycost)
             From Partsupp ps1, Suppliers s1
             Where p.p_partkey = ps1.ps_partkey
               and s1.s_suppkey = ps1.ps_suppkey
               and s1.s_nation = '{nation}')
    """,
    "q2": """
        Select sum(l.l_extendedprice * l.l_quantity) / 5
        From Lineitem l, Parts p
        Where p.p_partkey = l.l_partkey and p.p_brand = '{brand}'
          and p.p_container = '{container}' and l.l_quantity <
            (Select 0.2 * avg(l1.l_quantity)
             From Lineitem l1 Where l1.l_partkey = p.p_partkey)
    """,
    "q3": """
        Select s.s_name, s.s_nation, dt.sumbal
        From Suppliers s, DT(sumbal) AS
          (Select sum(bal) From DDT(bal) AS
            ((Select a.c_acctbal From Customers a
              Where a.c_mktsegment = '{seg_a}' and a.c_nation = s.s_nation)
             Union All
             (Select b.c_acctbal From Customers b
              Where b.c_mktsegment = '{seg_b}' and b.c_nation = s.s_nation)))
        Where s.s_region = '{region}'
    """,
    "emp_dept": """
        Select D.name From Dept D
        Where D.budget < {budget} and D.num_emps >
          (Select Count(*) From Emp E Where D.building = E.building)
    """,
}

#: The paper's own queries (section 5, Figures 5-9), as the paper grid runs
#: them, and their literals, as the evaluator answers them.
PAPER_SQL = {
    "q1": queries.QUERY_1,
    "q1_variant": queries.QUERY_1_VARIANT,
    "q2": queries.QUERY_2,
    "q3": queries.QUERY_3,
}
PAPER_LITERALS = {
    "q1": {"nation": "FRANCE", "size": 15, "ptype": "BRASS"},
    "q1_variant": {"regions": ("AMERICA", "EUROPE"), "ptype": "BRASS"},
    "q2": {"brand": "Brand#23", "container": "6 PACK"},
    "q3": {"region": "EUROPE", "seg_a": "BUILDING", "seg_b": "AUTOMOBILE"},
}

#: The section-5 figure grid: query x strategy. Kim's and Dayal's methods
#: do not apply to Query 3 (it is not linear: a UNION sits inside the
#: correlated table expression), so those two cells are reported as not
#: applicable and never run.
PAPER_QUERIES = ("q1", "q1_variant", "q2", "q3")
PAPER_STRATEGIES = ("ni", "kim", "dayal", "magic", "magic_opt")
NOT_APPLICABLE = (("q3", "kim"), ("q3", "dayal"))
PAPER_CELLS = tuple(
    (q, s) for q in PAPER_QUERIES for s in PAPER_STRATEGIES
    if (q, s) not in NOT_APPLICABLE
)

#: The short correlated families of the front-end and serving workloads.
FAMILIES = ("q1", "q2", "q3", "emp_dept")
FRONTEND_STRATEGIES = ("ni", "magic", "magic_opt")
SERVE_STRATEGIES = ("magic", "magic_opt")
#: Strategies that remove the correlation: their plans must invoke no
#: subquery per outer row.
DECORRELATED = ("kim", "dayal", "magic", "magic_opt")

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
BUDGET_RANGE = (100, 20000)

#: Literal draws per family per round, and the INSERTs per serving round.
FRONTEND_DRAWS = 2
SERVE_DRAWS = 6
SERVE_WRITES = 1


def render(family: str, literals: dict) -> str:
    """The SQL text of one family member."""
    return TEMPLATES[family].format(**literals)


@dataclass(frozen=True)
class Domains:
    """Where literals come from: rows of the generated data, so a drawn
    literal names a part, supplier nation or brand that exists.

    ``parts`` holds ``(p_type, p_size, p_brand, p_container)`` per part
    and ``nations`` the supplier nations, both in table order."""

    parts: tuple
    nations: tuple


def draw(
    rng: random.Random, family: str, domains: Domains,
    stratum: int = 0, strata: int = 1,
) -> dict:
    """One family member's literals. The EMP/DEPT budget, which sets most
    of that family's work, is drawn from the ``stratum``-th of ``strata``
    equal slices of its range, so a round's draws spread over the range."""
    if family == "q1":
        ptype, size, _, _ = rng.choice(domains.parts)
        return {"nation": rng.choice(domains.nations), "size": size,
                "ptype": ptype}
    if family == "q2":
        _, _, brand, container = rng.choice(domains.parts)
        return {"brand": brand, "container": container}
    if family == "q3":
        return {"region": rng.choice(REGIONS), "seg_a": "BUILDING",
                "seg_b": "AUTOMOBILE"}
    if family == "emp_dept":
        lo, hi = BUDGET_RANGE
        width = (hi - lo) / strata
        return {"budget": int(lo + width * (stratum + rng.random()))}
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class Op:
    """One operation of a workload: a read (family member under a
    strategy) or, with ``family is None``, an INSERT into the write-only
    table. ``due`` is the open-loop send time in seconds from the start;
    ``text`` is a fixed query text (the paper grid's), else the family's
    template is rendered with ``literals``."""

    family: Optional[str]
    literals: dict
    strategy: str
    due: float = 0.0
    seq: int = 0
    text: Optional[str] = None

    @property
    def is_write(self) -> bool:
        return self.family is None

    @property
    def cell(self) -> tuple[str, str]:
        return (self.family or "insert", self.strategy)

    def sql(self) -> str:
        if self.text is not None:
            return self.text
        if self.family is None:
            return (
                f"INSERT INTO bench_log VALUES ({self.seq}, "
                f"'w{self.seq:06d}')"
            )
        return render(self.family, self.literals)


def _rng(seed: int, workload: str, round_no: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{round_no}")


def grid_round(seed: int, round_no: int) -> list[Op]:
    """One pass over the 18 applicable paper cells, in a seeded order."""
    ops = [
        Op(q, PAPER_LITERALS[q], s, text=PAPER_SQL[q]) for q, s in PAPER_CELLS
    ]
    _rng(seed, "paper-grid", round_no).shuffle(ops)
    return ops


def frontend_round(seed: int, round_no: int, domains: Domains) -> list[Op]:
    """``FRONTEND_DRAWS`` fresh literal sets per family, each run under
    every front-end strategy (so strategy agreement is checked on the same
    literals), in a seeded order."""
    rng = _rng(seed, "frontend-mix", round_no)
    ops = [
        Op(family, literals, strategy)
        for family in FAMILIES
        for literals in [draw(rng, family, domains, i, FRONTEND_DRAWS)
                         for i in range(FRONTEND_DRAWS)]
        for strategy in FRONTEND_STRATEGIES
    ]
    rng.shuffle(ops)
    return ops


def serve_schedule(
    seed: int, rate: float, n_rounds: int, domains: Domains
) -> list[Op]:
    """The open-loop schedule: ``n_rounds`` rounds, each of
    ``SERVE_DRAWS`` literal sets per family under every serving strategy
    plus ``SERVE_WRITES`` INSERTs, shuffled, with exponential gaps of mean
    ``1/rate`` seconds (a Poisson arrival process).

    A round's n gaps are stratified: the exponential quantiles of one
    uniform draw from each of n equal slices of (0, 1), in a seeded order.
    Every round then holds its share of short gaps, the bunched arrivals
    that set the tail, so the tail varies less from seed to seed (a third
    less in a queue simulation of this schedule)."""
    ops: list[Op] = []
    due = 0.0
    seq = 0
    for round_no in range(n_rounds):
        rng = _rng(seed, "serve-mixed", round_no)
        batch = [
            (family, literals, strategy)
            for family in FAMILIES
            for literals in [draw(rng, family, domains, i, SERVE_DRAWS)
                             for i in range(SERVE_DRAWS)]
            for strategy in SERVE_STRATEGIES
        ] + [(None, {}, "ni")] * SERVE_WRITES
        rng.shuffle(batch)
        n = len(batch)
        gaps = [-math.log(1 - (i + rng.random()) / n) / rate for i in range(n)]
        rng.shuffle(gaps)
        for (family, literals, strategy), gap in zip(batch, gaps):
            due += gap
            ops.append(Op(family, literals, strategy, due=due, seq=seq))
            seq += 1
    return ops


def serve_round_size() -> int:
    return len(FAMILIES) * SERVE_DRAWS * len(SERVE_STRATEGIES) + SERVE_WRITES


def domains_from_rows(
    part_rows: Sequence[tuple], part_columns: Sequence[str],
    supplier_rows: Sequence[tuple], supplier_columns: Sequence[str],
) -> Domains:
    """Literal domains read from the generated parts and suppliers."""
    pc = {c: i for i, c in enumerate(part_columns)}
    sc = {c: i for i, c in enumerate(supplier_columns)}
    parts = tuple(
        (r[pc["p_type"]], r[pc["p_size"]], r[pc["p_brand"]],
         r[pc["p_container"]])
        for r in part_rows
    )
    nations = tuple(r[sc["s_nation"]] for r in supplier_rows)
    return Domains(parts=parts, nations=nations)
