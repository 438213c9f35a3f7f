"""Independent answers for the benchmark's query families.

A plain-Python evaluator: it reads the generated table rows (column names
plus row tuples) and computes each family's answer for any literals with
ordinary loops and dicts. It imports nothing from the engine, so a wrong
rewrite, plan or executor cannot make it agree by accident.

SQL semantics the checks rely on:

* ``min``/``avg``/``sum`` over no rows is NULL (``None``), and a comparison
  with NULL is not true -- so Query 2's total over no qualifying line items
  is ``None`` and Query 3's sum for a nation without matching customers is
  ``None``;
* ``count(*)`` over no rows is 0 -- the department of the section-2 example
  whose building has no employees still qualifies when ``num_emps > 0``
  (the COUNT bug: Kim's method loses exactly these rows).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Iterable, Sequence

Row = tuple

#: Relative and absolute tolerance for float columns: the engine and this
#: evaluator may add the same values in a different order.
FLOAT_TOLERANCE = 1e-9


class Table:
    """Rows of one table with access by column name."""

    def __init__(self, columns: Sequence[str], rows: Iterable[Row]):
        self.pos = {name.lower(): i for i, name in enumerate(columns)}
        self.rows = list(rows)

    def col(self, row: Row, name: str) -> Any:
        return row[self.pos[name]]


class Oracle:
    """Answers for the Q1 / Q1-variant / Q2 / Q3 / EMP-DEPT families.

    ``tables`` maps a table name to ``(column_names, rows)``; only the
    tables a family reads need to be present."""

    def __init__(self, tables: dict[str, tuple[Sequence[str], Iterable[Row]]]):
        self.t = {name: Table(cols, rows) for name, (cols, rows) in tables.items()}
        self._memo: dict[tuple, list[Row]] = {}
        self._by_part: dict[Any, list[Row]] | None = None

    def answer(self, family: str, literals: dict) -> list[Row]:
        """The family's answer (a list of rows) for ``literals``."""
        key = (family, tuple(sorted(literals.items())))
        rows = self._memo.get(key)
        if rows is None:
            rows = getattr(self, family)(**literals)
            self._memo[key] = rows
        return rows

    # -- Query 1 and its variant --------------------------------------------

    def _min_cost_suppliers(self, part_ok, supplier_ok) -> list[Row]:
        parts, sup, ps = self.t["parts"], self.t["suppliers"], self.t["partsupp"]
        keep_parts = {parts.col(p, "p_partkey") for p in parts.rows if part_ok(p)}
        suppliers = {
            sup.col(s, "s_suppkey"): s for s in sup.rows if supplier_ok(s)
        }
        offers: dict[Any, list[Row]] = defaultdict(list)
        for row in ps.rows:
            if (
                ps.col(row, "ps_partkey") in keep_parts
                and ps.col(row, "ps_suppkey") in suppliers
            ):
                offers[ps.col(row, "ps_partkey")].append(row)
        out = []
        for rows in offers.values():
            cheapest = min(ps.col(r, "ps_supplycost") for r in rows)
            for r in rows:
                if ps.col(r, "ps_supplycost") == cheapest:
                    s = suppliers[ps.col(r, "ps_suppkey")]
                    out.append(tuple(
                        sup.col(s, c) for c in (
                            "s_name", "s_acctbal", "s_address", "s_phone",
                            "s_comment",
                        )
                    ))
        return out

    def q1(self, nation: str, size: int, ptype: str) -> list[Row]:
        parts, sup = self.t["parts"], self.t["suppliers"]
        return self._min_cost_suppliers(
            lambda p: parts.col(p, "p_size") == size
            and parts.col(p, "p_type") == ptype,
            lambda s: sup.col(s, "s_nation") == nation,
        )

    def q1_variant(self, regions: tuple, ptype: str) -> list[Row]:
        parts, sup = self.t["parts"], self.t["suppliers"]
        return self._min_cost_suppliers(
            lambda p: parts.col(p, "p_type") == ptype,
            lambda s: sup.col(s, "s_region") in regions,
        )

    # -- Query 2 --------------------------------------------------------------

    def _lines_by_part(self) -> dict[Any, list[Row]]:
        if self._by_part is None:
            li = self.t["lineitem"]
            self._by_part = defaultdict(list)
            for row in li.rows:
                self._by_part[li.col(row, "l_partkey")].append(row)
        return self._by_part

    def q2(self, brand: str, container: str) -> list[Row]:
        parts, li = self.t["parts"], self.t["lineitem"]
        by_part = self._lines_by_part()
        total = None
        for p in parts.rows:
            if (
                parts.col(p, "p_brand") != brand
                or parts.col(p, "p_container") != container
            ):
                continue
            lines = by_part.get(parts.col(p, "p_partkey"), [])
            quantities = [li.col(r, "l_quantity") for r in lines]
            if not quantities:
                continue
            threshold = 0.2 * (sum(quantities) / len(quantities))
            for r in lines:
                if li.col(r, "l_quantity") < threshold:
                    value = li.col(r, "l_extendedprice") * li.col(r, "l_quantity")
                    total = value if total is None else total + value
        return [(None if total is None else total / 5,)]

    # -- Query 3 --------------------------------------------------------------

    def q3(
        self, region: str, seg_a: str = "BUILDING", seg_b: str = "AUTOMOBILE"
    ) -> list[Row]:
        sup, cust = self.t["suppliers"], self.t["customers"]
        out = []
        for s in sup.rows:
            if sup.col(s, "s_region") != region:
                continue
            nation = sup.col(s, "s_nation")
            balances = [
                cust.col(c, "c_acctbal")
                for seg in (seg_a, seg_b)
                for c in cust.rows
                if cust.col(c, "c_mktsegment") == seg
                and cust.col(c, "c_nation") == nation
            ]
            out.append((
                sup.col(s, "s_name"), nation,
                sum(balances) if balances else None,
            ))
        return out

    # -- section 2: EMP / DEPT --------------------------------------------------

    def emp_dept(self, budget: int) -> list[Row]:
        dept, emp = self.t["dept"], self.t["emp"]
        staff: dict[Any, int] = defaultdict(int)
        for e in emp.rows:
            staff[emp.col(e, "building")] += 1
        return [
            (dept.col(d, "name"),)
            for d in dept.rows
            if dept.col(d, "budget") < budget
            and dept.col(d, "num_emps") > staff.get(dept.col(d, "building"), 0)
        ]


# -- comparison ---------------------------------------------------------------


def _sort_key(row: Row) -> tuple:
    return tuple((0, 0) if v is None else (1, v) for v in row)


def _same_value(a: Any, b: Any) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(
            a, b, rel_tol=FLOAT_TOLERANCE, abs_tol=FLOAT_TOLERANCE
        )
    return a == b


def same_multiset(got: Iterable[Row], want: Iterable[Row]) -> bool:
    """Equal as multisets of rows; NULL equals only NULL, floats compare
    within :data:`FLOAT_TOLERANCE`."""
    got_rows = sorted((tuple(r) for r in got), key=_sort_key)
    want_rows = sorted((tuple(r) for r in want), key=_sort_key)
    if len(got_rows) != len(want_rows):
        return False
    return all(
        len(g) == len(w) and all(_same_value(x, y) for x, y in zip(g, w))
        for g, w in zip(got_rows, want_rows)
    )
