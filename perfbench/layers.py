"""Layer-by-layer execution with spans recorded by the benchmark itself.

The traced run drives one query through the engine's public functions in
order -- ``parse_statement`` (sql), ``build_qgm`` (qgm),
``RewriteEngine.rewrite`` (rewrite), ``plan_select_box`` over every
``SelectBox`` (plan), then ``execute_graph`` with those plans seeded into
an ``ExecutionContext`` (exec) -- and records one span around each call.
``Database.execute`` plans lazily inside ``execute_graph``; planning up
front the way ``PlanCache.fill`` does splits that cost out without
touching the program. :func:`run_cached` takes the path of a service with
a plan cache the same way: ``PlanCache.prepare``, then on a hit only
``execute_graph`` over the cached graph, on a miss the layered run and
``PlanCache.fill``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.exec import ExecutionContext, Metrics, execute_graph
from repro.plan.cache import PlanCache
from repro.plan.planner import plan_select_box
from repro.qgm import build_qgm, iter_boxes
from repro.qgm.model import SelectBox
from repro.rewrite import RewriteEngine
from repro.sql.parser import parse_statement


@dataclass
class Span:
    """One timed call: ``request`` groups the spans of one query and
    ``parent`` names the span that caused it (``None`` for the root)."""

    request: int
    name: str
    start: float
    end: float
    parent: Optional[str] = None


@dataclass
class LayeredRun:
    """What one layered execution produced."""

    rows: list
    metrics: Metrics
    spans: list[Span]
    rewrite_steps: int
    boxes_planned: int


@dataclass
class SpanLog:
    """Spans kept in memory and written out when the run ends."""

    spans: list[Span] = field(default_factory=list)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "request": s.request, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end,
                }) + "\n")


def run_layered(
    catalog, engine: RewriteEngine, sql: str, strategy: str, request: int
) -> LayeredRun:
    """Run ``sql`` under ``strategy`` one layer at a time."""
    clock = time.perf_counter
    t0 = clock()
    statement = parse_statement(sql)
    t1 = clock()
    graph = build_qgm(statement, catalog)
    t2 = clock()
    graph = engine.rewrite(graph, strategy)
    t3 = clock()
    plans = {
        box.id: plan_select_box(catalog, box)
        for box in iter_boxes(graph.root)
        if isinstance(box, SelectBox)
    }
    t4 = clock()
    ctx = ExecutionContext(catalog, graph.root, "recompute")
    ctx.seed_plans(plans)
    rows, metrics = execute_graph(graph, catalog, ctx=ctx)
    t5 = clock()
    root = "query"
    spans = [
        Span(request, root, t0, t5),
        Span(request, "sql.parse", t0, t1, root),
        Span(request, "qgm.build", t1, t2, root),
        Span(request, f"rewrite.{strategy}", t2, t3, root),
        Span(request, "plan.plan", t3, t4, root),
        Span(request, f"exec.{strategy}", t4, t5, root),
    ]
    return LayeredRun(rows, metrics, spans, len(engine.steps), len(plans))


def run_cached(
    catalog, engine: RewriteEngine, cache: PlanCache, sql: str,
    strategy: str, request: int,
) -> LayeredRun:
    """Run ``sql`` under ``strategy`` through ``cache`` one layer at a time,
    as ``Database.execute`` does when it has a plan cache."""
    clock = time.perf_counter
    t0 = clock()
    prepared = cache.prepare(
        sql, strategy=strategy, cse_mode="recompute",
        decorrelate_existential=True, generation=catalog.generation(),
    )
    t1 = clock()
    root = "query"
    lookup = Span(request, "plan_cache.lookup", t0, t1, root)
    if prepared is not None and prepared.entry is not None:
        entry = prepared.entry
        ctx = ExecutionContext(
            catalog, entry.graph.root, "recompute", params=prepared.values
        )
        ctx.seed_plans(entry.plans)
        rows, metrics = execute_graph(entry.graph, catalog, ctx=ctx)
        t2 = clock()
        spans = [
            Span(request, root, t0, t2), lookup,
            Span(request, f"exec.{strategy}", t1, t2, root),
        ]
        return LayeredRun(rows, metrics, spans, 0, 0)
    run = run_layered(catalog, engine, sql, strategy, request)
    t2 = clock()
    if prepared is not None and prepared.fillable:
        cache.fill(prepared, catalog)
    t3 = clock()
    run.spans = [
        Span(request, root, t0, t3), lookup,
        *(span for span in run.spans if span.parent is not None),
        Span(request, "plan_cache.fill", t2, t3, root),
    ]
    return run
