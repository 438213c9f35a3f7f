"""The benchmark's three workloads and the metrics they report.

``paper-grid``
    The section-5 figure grid at SF 0.01: Q1, Q1-variant, Q2, Q3 under
    NI / Kim / Dayal / Mag / OptMag (18 applicable cells), one client in a
    closed loop through ``Database.execute``.
``frontend-mix``
    Short correlated queries at SF 0.001 from the Q1 / Q2 / Q3 / EMP-DEPT
    families with fresh seeded literals, under NI / Mag / OptMag, one
    client in a closed loop through ``Database.execute``, no plan cache.
``serve-mixed``
    The same families under Mag / OptMag through a ``QueryService`` with a
    plan cache, fed by one seeded open-loop Poisson generator, with a
    steady share of INSERTs into a table no query reads.

Every workload is a grid of cells (family x strategy); every answer is
checked against the independent evaluator in :mod:`perfbench.oracle`.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro import Database, QueryService, Strategy
from repro.errors import ReproError
from repro.plan.cache import PlanCache
from repro.rewrite import RewriteEngine
from repro.tpcd import load_empdept, load_tpcd

from . import families as fam
from .layers import SpanLog, run_cached, run_layered
from .oracle import Oracle, same_multiset
from .speed import NEAREST, Sampler, SpeedLog

# -- configuration ----------------------------------------------------------

PAPER_SF = 0.01
SMALL_SF = 0.001
#: The TPC-D generator's own default seed: every workload runs on one fixed
#: database per scale factor, and ``--seed`` draws the operations. At SF
#: 0.01 there are only 100 suppliers, so re-drawing the data per seed moves
#: the dominant NI Q1-variant cell by a third (its invocation count ranges
#: 297..540 over generator seeds 1..10).
DATA_SEED = 19960226
EMPDEPT = {"n_depts": 50, "n_emps": 500, "n_buildings": 10, "seed": 2}
#: Set-up runs per benchmark run; ``setup_s`` is their median. The small
#: catalogs take a tenth of a second, so they repeat more.
SETUP_REPEATS = {"paper-grid": 3, "frontend-mix": 9, "serve-mixed": 9}
#: Latency limit per workload (ms): a read slower than this, failed or
#: refused does not count towards ``within_limit_qps``.
LIMIT_MS = {"paper-grid": 2000.0, "frontend-mix": 50.0, "serve-mixed": 100.0}
#: Every timing is read at the speed probe's reference speed (see
#: :mod:`perfbench.speed`). A closed-loop run executes its operations in
#: passes: paper-grid the same cells in every pass, and a cell's latency
#: is the median of its effective times over the run; frontend-mix fresh
#: rounds in every pass. A run makes at least ``MIN_PASSES`` passes and
#: starts another only if it would end within ``--seconds``, so the run
#: lasts about that long.
MIN_PASSES = 2
#: On paper-grid a cell runs ``GRID_WORK_BUDGET // work`` times in a row
#: in each pass (at least once, at most ``GRID_MAX_REPEATS``), where
#: ``work`` is the ``Metrics.total_work()`` of its first execution: cheap
#: cells get enough samples for a steady median, while NI on Q1-variant
#: (1.7 M work units, seconds per run) runs once a pass.
GRID_WORK_BUDGET = 300_000
GRID_MAX_REPEATS = 6
#: Rounds in a frontend-mix pass: 1 008 queries (24 a round), so a run of
#: at least two passes gives p95 a hundred samples beyond it.
FRONTEND_ROUNDS = 42
#: Offered rate of the serving workload (requests per second): a third of
#: the highest rate that met the 100 ms limit on p95 without a growing
#: backlog in the README's rate sweep, and at least 1000 reads in a 35 s
#: run.
SERVE_RATE = 30.0
#: One worker: the engine is pure Python, so under the interpreter lock a
#: second worker thread adds no capacity, only contention. Measured on a
#: shared 2-vCPU container at the same offered load, two workers raised p99
#: from about 47 to 61 ms and made it less steady from run to run.
SERVE_WORKERS = 1
#: Serving rounds sent through a throwaway service before the schedule.
WARM_ROUNDS = 4
#: Seconds to wait for the serving backlog after the last send.
DRAIN_TIMEOUT_S = 60.0
#: The serving generator runs speed probes, one after another, while the
#: service is idle and the next send is at least ``IDLE_PROBE_S`` away.
#: That keeps the CPU busy between requests, as a closed loop does: with a
#: probe every 10 ms and sleeps between them, the worker's effective run
#: time still moved by 30% between runs of the same seed.
IDLE_PROBE_S = 0.004
#: The generator spins through the last ``SPIN_S`` before an idle send
#: and sleeps at most ``BUSY_SLEEP_S`` at a time.
SPIN_S = 0.001
BUSY_SLEEP_S = 0.001

WORKLOADS = ("paper-grid", "frontend-mix", "serve-mixed")
STRATEGIES = fam.PAPER_STRATEGIES
COUNTERS = (
    "subquery_invocations", "rows_scanned", "index_lookups", "index_rows",
    "rows_joined", "rows_grouped", "boxes_recomputed",
)

#: (name, unit) of every metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("grid_s", "s"),
    ("cell_geomean_ms", "ms"),
    ("grid_work", "count"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("within_limit_qps", "1/s"),
)
PER_LAYER = (
    ("storage.load_s", "s"),
    ("storage.stats_s", "s"),
    ("sql.parse_ms", "ms"),
    ("qgm.build_ms", "ms"),
    *((f"rewrite.{s}_ms", "ms") for s in STRATEGIES),
    ("rewrite.steps", "count"),
    ("plan.plan_ms", "ms"),
    ("plan.boxes", "count"),
    *((f"exec.{s}_ms", "ms") for s in STRATEGIES),
    *((f"exec.{c}", "count") for c in COUNTERS),
    ("exec.rows_examined_per_row_out", "ratio"),
    ("exec.rows_materialized", "count"),
    ("exec.peak_rows_materialized", "count"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.misses", "count"),
    ("plan_cache.invalidations", "count"),
    ("plan_cache.lookup_ms", "ms"),
    ("plan_cache.fill_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.generator_lag_ms", "ms"),
    ("trace.layer_sum_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.gap_pct", "%"),
)


# -- small statistics helpers ------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Process high-water resident memory (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment() -> dict:
    """The facts a run's figures depend on."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not on Linux
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


# -- set-up ------------------------------------------------------------------


@dataclass
class Setup:
    """The workload's catalog plus the set-up timings (medians)."""

    catalog: object
    setup_s: float
    load_s: float
    stats_s: float


def pinned_database(catalog, plan_cache: Optional[PlanCache] = None) -> Database:
    """A facade with validation off, no fault injection and the plan cache
    set explicitly (``run.py`` clears ``REPRO_*`` before importing)."""
    db = Database(catalog, validate=False, plan_cache=plan_cache)
    if db.faults is not None or db.engine.validate:
        raise RuntimeError("benchmark database is not pinned")
    return db


def _build_catalog(workload: str):
    """Build the workload's catalog; return it with the start, the end of
    generation and the end of the statistics warm-up."""
    t0 = time.perf_counter()
    if workload == "paper-grid":
        catalog = load_tpcd(scale_factor=PAPER_SF, seed=DATA_SEED)
    else:
        catalog = load_tpcd(scale_factor=SMALL_SF, seed=DATA_SEED)
        load_empdept(catalog=catalog, **EMPDEPT)
    if workload == "serve-mixed":
        pinned_database(catalog).execute(
            "CREATE TABLE bench_log (id INT PRIMARY KEY, note VARCHAR(20))"
        )
    t1 = time.perf_counter()
    for table in catalog.tables():
        catalog.stats(table.name)
    t2 = time.perf_counter()
    return catalog, (t0, t1, t2)


def setup(workload: str, log: SpeedLog) -> Setup:
    """Generate the catalog and warm its statistics ``SETUP_REPEATS``
    times, with the speed sampler on; keep the last catalog."""
    marks = []
    catalog = None
    with Sampler(log):
        for _ in range(SETUP_REPEATS[workload]):
            catalog = None  # each set-up starts from a collected heap
            gc.collect()
            catalog, times = _build_catalog(workload)
            marks.append(times)
    loads = [log.effective_ms(t0, t1) / 1000 for t0, t1, _ in marks]
    stats = [log.effective_ms(t1, t2) / 1000 for _, t1, t2 in marks]
    totals = [log.effective_ms(t0, t2) / 1000 for t0, _, t2 in marks]
    return Setup(
        catalog, statistics.median(totals), statistics.median(loads),
        statistics.median(stats),
    )


def freeze_heap() -> None:
    """Move everything alive after set-up and warm-up -- the catalog, its
    statistics, the loaded code -- into the collector's permanent
    generation. A full collection then scans only what the workload
    allocates. Unfrozen, each of the ten or so full collections of a
    serve-mixed run rescanned the catalog and paused whichever thread
    triggered it for up to 47 ms; frozen, for at most 14 ms."""
    gc.collect()
    gc.freeze()


def oracle_for(catalog) -> Oracle:
    names = ("parts", "suppliers", "partsupp", "lineitem", "customers",
             "emp", "dept")
    return Oracle({
        name: (catalog.table(name).schema.names(), catalog.table(name).rows)
        for name in names if catalog.has_table(name)
    })


def domains_for(catalog) -> fam.Domains:
    parts, sup = catalog.table("parts"), catalog.table("suppliers")
    return fam.domains_from_rows(
        parts.rows, parts.schema.names(), sup.rows, sup.schema.names()
    )


# -- answer checks -----------------------------------------------------------


class Checker:
    """Checks every answer against the evaluator, plus two properties of
    the method: each strategy returns the same multiset as the others on
    the same literals (NI's where NI ran), and a decorrelated plan invokes
    no subquery."""

    MAX_REPORTED = 10

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self.errors: list[str] = []
        self._groups: dict[tuple, dict[str, list]] = {}

    def fail(self, message: str) -> None:
        if len(self.errors) < self.MAX_REPORTED:
            self.errors.append(message)
        else:
            self.errors[-1] = f"... and more ({message})"

    @property
    def ok(self) -> bool:
        return not self.errors

    def read(self, op: fam.Op, rows: list, metrics) -> None:
        want = self.oracle.answer(op.family, op.literals)
        if not same_multiset(rows, want):
            self.fail(
                f"{op.family}/{op.strategy} {op.literals}: "
                f"{len(rows)} rows, evaluator says {len(want)}"
            )
        if op.strategy in fam.DECORRELATED and metrics.subquery_invocations:
            self.fail(
                f"{op.family}/{op.strategy} {op.literals}: "
                f"{metrics.subquery_invocations} subquery invocations"
            )
        key = (op.family, tuple(sorted(op.literals.items())))
        self._groups.setdefault(key, {})[op.strategy] = rows

    def end_round(self) -> None:
        for (family, literals), by_strategy in self._groups.items():
            reference = by_strategy.get("ni") or next(iter(by_strategy.values()))
            for strategy, rows in by_strategy.items():
                if not same_multiset(rows, reference):
                    self.fail(
                        f"{family}/{strategy} {dict(literals)}: differs "
                        "from the other strategies on the same literals"
                    )
        self._groups.clear()


# -- per-run bookkeeping -----------------------------------------------------


@dataclass
class RunData:
    """What a run measured, keyed by cell (family, strategy)."""

    limit_ms: float
    attempted: int = 0
    failed: int = 0
    #: End-to-end latency samples per read cell, in ms (in a closed loop,
    #: one per operation: the median of its effective times over the run).
    latency: dict = field(default_factory=dict)
    #: Seconds the reads were measured over (the sum of the samples in a
    #: closed loop, the schedule span in the open loop).
    span_s: float = 0.0
    #: Completed reads per second (see each workload).
    rate: float = 0.0
    #: Executor counters summed over the first pass of a closed loop (the
    #: whole schedule in the open loop).
    work: dict = field(default_factory=dict)
    peak_materialized: int = 0
    rows_out: int = 0
    #: Traced runs only: per-cell engine layer samples ({layer: ms} per
    #: query), per-cell sums of the traced split (ms) and the untraced
    #: times they are compared with, and counts.
    layers: dict = field(default_factory=dict)
    layer_sums: dict = field(default_factory=dict)
    untraced: dict = field(default_factory=dict)
    #: How a cell's traced samples are summarised: the median in a closed
    #: loop, the mean in the open loop, where plan-cache hits and misses
    #: take different paths and both belong in the figure.
    layer_stat: Callable = statistics.median
    steps: int = 0
    boxes: int = 0
    serve: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    spans: SpanLog = field(default_factory=SpanLog)
    #: Closed loop only: how many passes the run made.
    passes: int = 0
    #: Open loop only: mean queue wait (ms) of the first and the last
    #: quarter of the reads -- a growing backlog shows as last >> first.
    backlog: tuple = ()
    #: Open loop only: the CPU the run was pinned to.
    cpu: Optional[int] = None

    def add_latency(self, cell: tuple, ms: float) -> None:
        self.latency.setdefault(cell, []).append(ms)

    def add_work(self, metrics) -> None:
        for name in COUNTERS + ("rows_materialized",):
            self.work[name] = self.work.get(name, 0) + getattr(metrics, name)
        self.work["total_work"] = (
            self.work.get("total_work", 0) + metrics.total_work()
        )
        self.peak_materialized = max(
            self.peak_materialized, metrics.peak_rows_materialized
        )
        self.rows_out += metrics.rows_output

    def add_layers(self, cell: tuple, sample: dict) -> None:
        self.layers.setdefault(cell, []).append(sample)


def _cell_medians(samples: dict) -> dict:
    return {cell: statistics.median(v) for cell, v in samples.items()}


def end_to_end_metrics(data: RunData, setup_: Setup) -> dict:
    medians = _cell_medians(data.latency)
    everything = [ms for v in data.latency.values() for ms in v]
    within = sum(ms <= data.limit_ms for ms in everything)
    return {
        "setup_s": setup_.setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "grid_s": sum(medians.values()) / 1000,
        "cell_geomean_ms": geomean(list(medians.values())),
        "grid_work": data.work.get("total_work", 0),
        "queries_per_s": data.rate,
        "latency_p50_ms": percentile(everything, 0.50),
        "latency_p95_ms": percentile(everything, 0.95),
        "within_limit_qps": within / data.span_s,
    }


def per_layer_metrics(data: RunData, setup_: Setup) -> tuple[dict, list]:
    """The per-layer metrics plus the per-cell table of a traced run.

    Layer times are sums over cells of the per-cell ``layer_stat``; in a
    closed loop that is the median, the same aggregation as ``grid_s``."""
    stat = data.layer_stat
    out: dict = {
        "storage.load_s": setup_.load_s,
        "storage.stats_s": setup_.stats_s,
    }
    layer_names = [
        "sql.parse", "qgm.build", "plan.plan", "plan_cache.lookup",
        "plan_cache.fill",
    ] + [f"{kind}.{s}" for kind in ("rewrite", "exec") for s in STRATEGIES]
    totals = dict.fromkeys(layer_names, 0.0)
    cell_layers: dict = {}
    for cell, samples in data.layers.items():
        # A layer a query skipped (the front end on a plan-cache hit)
        # counts as 0 ms for it.
        names = {name for sample in samples for name in sample}
        figures = {
            name: stat([s.get(name, 0.0) for s in samples])
            for name in names
        }
        cell_layers[cell] = figures
        for name, value in figures.items():
            totals[name] += value
    e2e = {cell: stat(v) for cell, v in data.untraced.items()}
    table = []
    layer_sum_total = untraced_total = 0.0
    for cell, sums in sorted(data.layer_sums.items()):
        layer_sum = stat(sums)
        untraced = e2e[cell]
        layer_sum_total += layer_sum
        untraced_total += untraced
        table.append({
            "cell": "/".join(cell), "samples": len(sums),
            "untraced_ms": untraced, "layer_sum_ms": layer_sum,
            "gap_pct": 100 * (layer_sum - untraced) / untraced,
            **{f"{k}_ms": v for k, v in cell_layers.get(cell, {}).items()},
        })
    for name in layer_names:
        out[f"{name}_ms"] = totals[name]
    out["rewrite.steps"] = data.steps
    out["plan.boxes"] = data.boxes
    for name in COUNTERS + ("rows_materialized",):
        out[f"exec.{name}"] = data.work.get(name, 0)
    out["exec.peak_rows_materialized"] = data.peak_materialized
    out["exec.rows_examined_per_row_out"] = (
        data.work.get("total_work", 0) / max(1, data.rows_out)
    )
    out["plan_cache.hit_ratio"] = data.cache.get("hit_ratio", 0.0)
    out["plan_cache.misses"] = data.cache.get("misses", 0)
    out["plan_cache.invalidations"] = data.cache.get("invalidations", 0)
    for name in ("submit", "queue_wait", "run", "generator_lag"):
        out[f"serve.{name}_ms"] = data.serve.get(name, 0.0)
    out["trace.layer_sum_ms"] = layer_sum_total
    out["trace.untraced_ms"] = untraced_total
    out["trace.gap_pct"] = (
        100 * (layer_sum_total - untraced_total) / untraced_total
    )
    return out, table


# -- closed loop (paper-grid, frontend-mix) ----------------------------------


def _warm_up(workload: str, setup_: Setup, seed: int) -> None:
    """Run each cell once, untimed, so one-off first-call costs do not land
    in the first measured round. The paper grid warms up on a small
    catalog: its NI Q1-variant cell alone takes seconds at SF 0.01."""
    if workload == "paper-grid":
        catalog = load_tpcd(scale_factor=SMALL_SF, seed=DATA_SEED)
        ops = fam.grid_round(seed, -1)
    else:
        catalog = setup_.catalog
        ops = fam.frontend_round(seed, -1, domains_for(catalog))
    db = pinned_database(catalog)
    engine = RewriteEngine(catalog, validate=False)
    for op in ops:
        db.execute(op.sql(), strategy=Strategy(op.strategy))
        run_layered(catalog, engine, op.sql(), op.strategy, request=-1)


def closed_loop_pass(
    workload: str, seed: int, pass_no: int, domains: Optional[fam.Domains]
) -> list[list[fam.Op]]:
    """The rounds of one pass of a closed-loop run: on paper-grid the 18
    cells, one round in an order drawn for the pass; on frontend-mix the
    pass's own ``FRONTEND_ROUNDS`` seeded rounds, so every query of a run
    has fresh literals."""
    if workload == "paper-grid":
        return [fam.grid_round(seed, pass_no)]
    first = pass_no * FRONTEND_ROUNDS
    return [fam.frontend_round(seed, first + r, domains)
            for r in range(FRONTEND_ROUNDS)]


def grid_repeats(work: int) -> int:
    """How many times in a row a paper-grid cell runs in a pass."""
    return max(1, min(GRID_MAX_REPEATS, GRID_WORK_BUDGET // max(1, work)))


def closed_loop(
    workload: str, setup_: Setup, seed: int, seconds: float, traced: bool,
    log: SpeedLog,
) -> tuple[RunData, Checker]:
    catalog = setup_.catalog
    oracle = oracle_for(catalog)
    checker = Checker(oracle)
    domains = None if workload == "paper-grid" else domains_for(catalog)
    _warm_up(workload, setup_, seed)
    freeze_heap()
    db = pinned_database(catalog)
    engine = RewriteEngine(catalog, validate=False)
    data = RunData(LIMIT_MS[workload])
    clock = time.perf_counter
    # Per operation (a paper cell, or a frontend query): its
    # cell, its repeats per pass, its untraced (start, end) intervals and
    # its traced spans. They are read at the reference speed once the run
    # is over, so that every interval has probes on both sides.
    cells: dict = {}
    repeats: dict = {}
    timed: dict = {}
    traced_spans: list = []
    start = clock()
    pass_no = 0
    with Sampler(log):
        while True:
            pass_start = clock()
            for round_no, ops in enumerate(
                closed_loop_pass(workload, seed, pass_no, domains)
            ):
                for i, op in enumerate(ops):
                    key = (op.cell if workload == "paper-grid"
                           else (pass_no, round_no, i))
                    cells[key] = op.cell
                    sql = op.sql()
                    rep = 0
                    while rep < repeats.get(key, 1):
                        data.attempted += 1
                        t0 = clock()
                        try:
                            result = db.execute(
                                sql, strategy=Strategy(op.strategy)
                            )
                        except ReproError as exc:
                            data.failed += 1
                            checker.fail(
                                f"{op.cell}: {type(exc).__name__}: {exc}"
                            )
                            break
                        t1 = clock()
                        timed.setdefault(key, []).append((t0, t1))
                        checker.read(op, result.rows, result.metrics)
                        if pass_no == 0 and rep == 0:
                            data.add_work(result.metrics)
                            if workload == "paper-grid":
                                repeats[key] = grid_repeats(
                                    result.metrics.total_work()
                                )
                        rep += 1
                    if traced:
                        layered = run_layered(
                            catalog, engine, sql, op.strategy,
                            request=data.attempted,
                        )
                        data.spans.spans.extend(layered.spans)
                        traced_spans.append((op.cell, layered.spans))
                        checker.read(op, layered.rows, layered.metrics)
                        if pass_no == 0:
                            data.steps += layered.rewrite_steps
                            data.boxes += layered.boxes_planned
                checker.end_round()
            pass_no += 1
            now = clock()
            # Start another pass only if one more as long would end in time.
            if (pass_no >= MIN_PASSES
                    and (now - start) + (now - pass_start) > seconds):
                break
    data.passes = pass_no
    data.untraced = data.latency
    for key, intervals in timed.items():
        data.add_latency(cells[key], statistics.median(
            log.effective_ms(t0, t1) for t0, t1 in intervals
        ))
    for cell, spans in traced_spans:
        layer_ms = _effective_layers(log, spans)
        data.add_layers(cell, layer_ms)
        data.layer_sums.setdefault(cell, []).append(sum(layer_ms.values()))
    data.span_s = sum(ms for v in data.latency.values() for ms in v) / 1000
    data.rate = sum(len(v) for v in data.latency.values()) / data.span_s
    return data, checker


def _effective_layers(log: SpeedLog, spans) -> dict:
    """Effective ms per layer span (the root span excluded)."""
    return {
        s.name: log.effective_ms(s.start, s.end)
        for s in spans if s.parent is not None
    }


# -- open loop through the query service (serve-mixed) ------------------------


@dataclass
class _Sent:
    """The generator's record of one send."""

    due: float
    sent: float = 0.0
    returned: float = 0.0
    ticket: object = None
    error: Optional[BaseException] = None


def _generate(
    svc: QueryService, schedule: list[fam.Op], records: list[_Sent],
    clock: Callable[[], float], log: SpeedLog,
) -> None:
    """Send each operation at its due time (the open-loop generator).

    While the service is idle -- everything sent has finished, and with one
    worker nothing else runs Python -- wait by running speed probes, then
    sleep to ``SPIN_S`` before the send and spin through the rest, so the
    send is not late by a sleep's wake-up. While the worker is busy, sleep in short steps: a late send
    then only waits less in the queue."""
    last: Optional[_Sent] = None
    for op, record in zip(schedule, records):
        while True:
            delay = record.due - clock()
            if delay <= 0:
                break
            if last is not None and last.ticket is not None \
                    and not last.ticket.done:
                time.sleep(min(delay, BUSY_SLEEP_S))
                continue
            if delay > IDLE_PROBE_S:
                log.probe()
            elif delay > SPIN_S:
                time.sleep(min(delay - SPIN_S, BUSY_SLEEP_S))
        record.sent = clock()
        try:
            record.ticket = svc.submit(op.sql(), strategy=op.strategy)
        except ReproError as exc:  # admission refused: counts as failed
            record.error = exc
        record.returned = clock()
        last = record


def _warm_up_service(catalog, seed: int, domains: fam.Domains) -> None:
    """Send the reads of a few rounds from another seed through a
    throwaway service and plan cache, one at a time and untimed, so the
    measured schedule does not pay a fresh process's first fills and
    hits."""
    with QueryService(
        pinned_database(catalog), workers=SERVE_WORKERS,
        plan_cache=PlanCache(capacity=256), phases=False,
    ) as warm:
        for op in fam.serve_schedule(-1 - seed, SERVE_RATE, WARM_ROUNDS, domains):
            if not op.is_write:
                warm.submit(op.sql(), strategy=op.strategy).result()


def pin_to_current_cpu() -> Optional[int]:
    """Pin this thread, and the threads it starts from now on, to the CPU
    it is running on. The generator's probes then time the CPU the worker
    runs on; the interpreter lock lets only one of them run Python at a
    time anyway. Returns the CPU, or ``None`` where Linux's per-thread
    ``stat`` file is missing."""
    try:
        with open("/proc/thread-self/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    cpu = int(fields[36])  # field 39, "processor"
    os.sched_setaffinity(0, {cpu})
    return cpu


def open_loop(
    setup_: Setup, seed: int, seconds: float, traced: bool,
    rate: float = SERVE_RATE,
) -> tuple[RunData, Checker, SpeedLog]:
    """Run the serving schedule. Returns the run's figures, its checks and
    the generator's speed probes (on the service's clock)."""
    data = RunData(LIMIT_MS["serve-mixed"])
    data.cpu = pin_to_current_cpu()
    catalog = setup_.catalog
    oracle = oracle_for(catalog)
    checker = Checker(oracle)
    domains = domains_for(catalog)
    round_size = fam.serve_round_size()
    n_rounds = max(1, math.ceil(rate * seconds / round_size))
    schedule = fam.serve_schedule(seed, rate, n_rounds, domains)
    _warm_up_service(catalog, seed, domains)
    freeze_heap()
    cache = PlanCache(capacity=256)
    svc = QueryService(
        pinned_database(catalog), workers=SERVE_WORKERS,
        max_queue=len(schedule), plan_cache=cache, phases=False,
    )
    clock = time.monotonic  # the service's own clock
    log = SpeedLog(clock)
    log.probe()
    start = clock() + 0.05
    records = [_Sent(due=start + op.due) for op in schedule]
    generator = threading.Thread(
        target=_generate, args=(svc, schedule, records, clock, log),
        name="perfbench-generator",
    )
    generator.start()
    generator.join(seconds + DRAIN_TIMEOUT_S)
    deadline = clock() + DRAIN_TIMEOUT_S
    for record in records:
        if record.ticket is not None:
            record.ticket.wait(max(0.0, deadline - clock()))
    svc.close(drain=False, timeout=DRAIN_TIMEOUT_S)
    log.probe()
    snapshot = cache.snapshot()

    lags, submits, waits, runs = [], [], [], []
    finished_last = start
    reads = 0
    writes = 0
    for op, record in zip(schedule, records):
        data.attempted += 1
        ticket = record.ticket
        error = record.error
        if error is None and ticket is None:
            error = RuntimeError("never sent")
        if error is None and not ticket.done:
            error = TimeoutError("no answer before the drain timeout")
        if error is None:
            error = ticket.error()
        if error is not None:
            data.failed += 1
            checker.fail(f"{op.cell}: {type(error).__name__}: {error}")
            continue
        result = ticket.result()
        finished = ticket.submitted_at + ticket.latency
        finished_last = max(finished_last, finished)
        lag = record.sent - record.due
        lags.append(lag)
        submits.append(log.effective_ms(record.sent, record.returned))
        if op.is_write:
            writes += 1
            if result.metrics.rows_output != 1:
                checker.fail(f"INSERT #{op.seq} wrote {result.metrics.rows_output} rows")
            continue
        reads += 1
        data.add_latency(op.cell, log.effective_ms(record.due, finished))
        waits.append(log.effective_ms(ticket.submitted_at, ticket.started_at))
        run = log.effective_ms(ticket.started_at, finished)
        runs.append(run)
        data.untraced.setdefault(op.cell, []).append(run)
        checker.read(op, result.rows, result.metrics)
        data.add_work(result.metrics)
    checker.end_round()
    if len(catalog.table("bench_log")) != writes:
        checker.fail(
            f"bench_log holds {len(catalog.table('bench_log'))} rows "
            f"after {writes} acknowledged INSERTs"
        )
    data.span_s = schedule[-1].due
    quarter = max(1, len(waits) // 4)
    data.backlog = (
        statistics.mean(waits[:quarter]), statistics.mean(waits[-quarter:]),
    )
    data.rate = reads / max(1e-9, finished_last - start)
    lookups = snapshot["hits"] + snapshot["misses"]
    data.cache = {
        "hit_ratio": snapshot["hits"] / lookups if lookups else 0.0,
        "misses": snapshot["misses"],
        "invalidations": snapshot["invalidations"],
    }
    if traced:
        data.serve = {
            "submit": statistics.median(submits),
            "queue_wait": statistics.median(waits),
            "run": statistics.median(runs),
            "generator_lag": statistics.mean(lags) * 1000,
        }
        _replay_layers(data, checker, catalog, schedule, snapshot)
    return data, checker, log


def _replay_layers(
    data: RunData, checker: Checker, catalog, schedule: list[fam.Op],
    served: dict,
) -> None:
    """Replay the schedule one layer at a time, after the serving run and
    in this thread, through a fresh plan cache of its own, writes included:
    with one worker the service ran the operations in schedule order from
    an empty cache, so the replay takes the served path read for read
    (checked: the same hits, misses and invalidations). Each read's layer
    sum is compared with the time the worker ran it. Both are read at the
    reference speed, against probes run back to back between requests as
    the generator runs them: a probe that interrupts engine work, as the
    timer's do, reads about a quarter slower than one run right after
    another."""
    data.layer_stat = statistics.mean
    engine = RewriteEngine(catalog, validate=False)
    cache = PlanCache(capacity=256)
    db = pinned_database(catalog)
    log = SpeedLog()
    replayed_reads = []
    for i, op in enumerate(schedule):
        if op.is_write:
            # Fresh keys: the served run's rows are already in bench_log.
            db.execute(replace(op, seq=op.seq + len(schedule)).sql())
            continue
        for _ in range(NEAREST):
            log.probe()
        layered = run_cached(
            catalog, engine, cache, op.sql(), op.strategy, request=i
        )
        data.spans.spans.extend(layered.spans)
        replayed_reads.append((op, layered.spans))
        checker.read(op, layered.rows, layered.metrics)
        data.steps += layered.rewrite_steps
        data.boxes += layered.boxes_planned
    log.probe()
    checker.end_round()
    for op, spans in replayed_reads:
        layer_ms = _effective_layers(log, spans)
        data.add_layers(op.cell, layer_ms)
        data.layer_sums.setdefault(op.cell, []).append(sum(layer_ms.values()))
    replayed = cache.snapshot()
    keys = ("hits", "misses", "invalidations")
    if any(replayed[k] != served[k] for k in keys):
        checker.fail(
            "the layered replay took another plan-cache path than the "
            f"service: {[replayed[k] for k in keys]} hits/misses/"
            f"invalidations against {[served[k] for k in keys]}"
        )
