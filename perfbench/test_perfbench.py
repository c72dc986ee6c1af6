"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

pt = bench.import_package()
SPEC = json.loads(bench.SPEC.read_text(encoding="utf-8"))
TIMED_UNITS = {"s", "ms", "ns"}


def few_cycles(name: str):
    return replace(WORKLOADS[name], cycles=1 if WORKLOADS[name].full else 4, trace_reps=2)


def test_tracing_leaves_csv_byte_identical():
    workload = few_cycles("scramble_desk")
    seed = bench.scenario_seed(7, 0)
    plain = bench.run_rep(pt, workload, seed)
    with Tracer(pt) as tracer:
        traced = bench.run_rep(pt, workload, seed, tracer.phase)
    assert any(s[0] == "feedback.MonteCarloContext.evaluate" for s in tracer.spans)
    assert traced.csv.encode() == plain.csv.encode()
    assert pt.poincare.apply_rotation.__module__ == "poltrack.poincare"  # patches undone


def test_traced_counts_repeat_exactly():
    workload = few_cycles("drift_desk")
    counted = [
        m["name"]
        for m in SPEC["per_layer"]
        if m["unit"] not in TIMED_UNITS and m["name"] != "trace_overhead_frac"
    ]

    def counts():
        metrics, _, failures = bench.run_traced(pt, workload, 3)
        assert not failures
        return {name: metrics[name] for name in counted}

    first = counts()
    assert first["feedback.control_cycle.calls"] > 0
    assert counts() == first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_unit(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, name, few_cycles(name))
    code = bench.main(["--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        assert any(
            line.startswith(m["name"] + " = ") and line.endswith(" " + m["unit"])
            for line in lines
        ), m["name"]


def test_fails_without_sources(tmp_path):
    shutil.copy(bench.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drift_desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
