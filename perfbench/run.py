"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every time is read at the speed probe's reference speed (see
perfbench/speed.py). A line starting ``# env`` before the result records
the machine facts (``nproc``, Python version), the run's settings and the
probe timings. A traced run also writes its spans
and its per-cell table under ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Settings the program reads from the environment; the benchmark pins
#: them in code instead, so an exported variable cannot change a run.
PINNED_ENV = ("REPRO_VALIDATE", "REPRO_FAULTS", "REPRO_BENCH_SF")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-grid", "frontend-mix", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rate", type=float, default=None,
        help="serve-mixed only: offered rate in requests/s (for rate sweeps)",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import workloads as wl
    from perfbench.speed import REFERENCE_MS, SpeedLog

    traced = bool(args.trace)
    log = SpeedLog()
    setup = wl.setup(args.workload, log)
    setup_probes = log.summary()
    if args.workload == "serve-mixed":
        rate = args.rate if args.rate is not None else wl.SERVE_RATE
        data, checker, run_log = wl.open_loop(
            setup, args.seed, args.seconds, traced, rate=rate
        )
    else:
        data, checker = wl.closed_loop(
            args.workload, setup, args.seed, args.seconds, traced, log
        )
        run_log = log

    env = {**wl.environment(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "reference_probe_ms": REFERENCE_MS,
           "speed_probes": {"setup": setup_probes, "run": run_log.summary()}}
    if args.workload == "serve-mixed":
        env.update(rate=rate, workers=wl.SERVE_WORKERS, cpu=data.cpu)
    else:
        env.update(passes=data.passes)
    print("# env " + json.dumps(env, sort_keys=True))
    if data.backlog:
        first, last = data.backlog
        print(f"# backlog mean queue wait: first quarter {first:.3f} ms, "
              f"last quarter {last:.3f} ms")
    if traced:
        values, table = wl.per_layer_metrics(data, setup)
        spec = wl.PER_LAYER
        stem = f"{args.workload}-seed{args.seed}"
        out_dir = HERE / "out"
        data.spans.write(out_dir / f"spans-{stem}.jsonl")
        (out_dir / f"cells-{stem}.json").write_text(
            json.dumps({"env": env, "cells": table}, indent=1) + "\n"
        )
        for row in table:
            print(
                f"# cell {row['cell']:<22} n={row['samples']:<4} "
                f"untraced {row['untraced_ms']:10.3f} ms  "
                f"layers {row['layer_sum_ms']:10.3f} ms  "
                f"gap {row['gap_pct']:+7.2f}%"
            )
    else:
        values = wl.end_to_end_metrics(data, setup)
        spec = wl.END_TO_END
    for message in checker.errors:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    report = {
        "correct": checker.ok,
        "attempted": data.attempted,
        "failed": data.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in spec
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
