"""What the command prints matches BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads as wl

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def spec_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def run(workload, trace, cwd=ROOT, seconds="0.2"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_lists_what_the_code_reports():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert spec_units("end_to_end") == dict(wl.END_TO_END)
    assert spec_units("per_layer") == dict(wl.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_the_spec(trace, section):
    out = run("frontend-mix", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert any(line.startswith("# env ") and '"nproc"' in line for line in lines)
    report = json.loads(lines[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert report["failed"] == 0 and report["attempted"] >= 1
    units = {name: m["unit"] for name, m in report["metrics"].items()}
    assert units == spec_units(section)


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run("frontend-mix", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
