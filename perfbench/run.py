"""poltrack benchmark: one workload per process, metrics printed with units.

    python3 perfbench/run.py --workload drift_desk --seed 1 --seconds 35 --trace 0

Run from a source checkout; the package is imported from ``src/`` next to
this directory.  With ``--trace 0`` the run repeats the workload's cycle
prefix for ``--seconds`` and reports the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it runs each of the workload's first
``trace_reps`` reps once without and once with span tracing, checks that
both give byte-identical CSV, and reports the per-layer metrics from the
traced reps only.  Either way the last line of standard output is one JSON object;
the exit code is 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import layer_metrics
from tracer import PulseCounter, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SPAN_DIR = ROOT / ".perfbench-out"

SETUP_SAMPLES = 9

# Printed beside the end-to-end metrics but not declared in BENCHMARK.json:
# both are 0 on most runs, and a bounded metric must never be 0.
# converged_frac carries the first; starved cycles are the run's failed count.
PRINTED_ONLY = ("nonconverged_frac", "starved_frac")

# Timed in a fresh interpreter: import the package (numpy included), build the
# workload's config and round-trip it through the INI text the CLI writes to
# config.resolved.
_SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from workloads import WORKLOADS
workload = WORKLOADS[sys.argv[3]]
t0 = time.perf_counter()
import poltrack
cfg = workload.config(poltrack, 0)
poltrack.parse_config(poltrack.config_to_ini(cfg))
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Rep:
    """Outcome of one scenario run of a workload's cycle prefix."""

    cycles: int
    wall_s: float  # run_scenario plus emission of series, summary and config
    csv: str
    qbers: list[float]
    nonconverged: int
    starved: int
    pulses: int = 0
    failures: list[str] = field(default_factory=list)


def scenario_seed(seed: int, rep: int) -> int:
    """Scenario seed of rep ``rep`` of a run started with ``--seed seed``."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def check_rep(pt, workload, cfg, series, summary, csv: str, ini: str) -> list[str]:
    failures = []
    if pt.series_to_csv(pt.series_from_csv(csv)) != csv:
        failures.append("series.csv does not round-trip through series_from_csv")
    if pt.parse_config(ini) != cfg:
        failures.append("config.resolved does not parse back to the run's config")
    if series.column("cycle") != list(range(1, workload.cycles + 1)):
        failures.append(f"expected cycles 1..{workload.cycles}")
    if any(math.isinf(q) for q in series.column("qber_est")):
        failures.append("infinite QBER estimate")
    nonconverged = sum(1 for c in series.column("converged") if not c)
    if summary.cycles != len(series) or summary.nonconverged_cycles != nonconverged:
        failures.append("summary counts disagree with the series")
    if not workload.control:
        voltages = set(series.column("voltages"))
        if len(voltages) != 1 or any(series.column("recenter")):
            failures.append("voltages moved with control disabled")
    return failures


def run_rep(pt, workload, seed: int, phase=lambda name: nullcontext()) -> Rep:
    cfg = workload.config(pt, seed)
    t0 = time.perf_counter()
    with phase("bench.run"):
        series, summary = pt.run_scenario(cfg)
    with phase("bench.emit"):
        csv = pt.series_to_csv(series)
        pt.harness.summary_to_text(summary)
        ini = pt.config_to_ini(cfg)
    wall = time.perf_counter() - t0
    with phase("bench.check"):
        failures = check_rep(pt, workload, cfg, series, summary, csv, ini)
    qbers = series.column("qber_est")
    return Rep(
        cycles=len(series),
        wall_s=wall,
        csv=csv,
        qbers=[q for q in qbers if math.isfinite(q)],
        nonconverged=summary.nonconverged_cycles,
        starved=sum(1 for q in qbers if math.isnan(q)),
        failures=failures,
    )


def measure_setup(workload) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR), workload.name],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def quality(workload, reps: list[Rep]) -> tuple[dict, list[str]]:
    """Pooled tracking quality of a run's reps, and the QBER gate."""
    cycles = sum(r.cycles for r in reps)
    qbers = [q for r in reps for q in r.qbers]
    mean_qber = statistics.fmean(qbers) if qbers else math.nan
    failures = [f for r in reps for f in r.failures]
    if not mean_qber <= workload.qber_gate:
        failures.append(
            f"mean QBER {mean_qber:.5f} over gate {workload.qber_gate} ({workload.gate_reason})"
        )
    nonconverged = sum(r.nonconverged for r in reps)
    return {
        "mean_qber": mean_qber,
        "converged_frac": 1.0 - nonconverged / cycles,
        "nonconverged_frac": nonconverged / cycles,
        "starved_frac": sum(r.starved for r in reps) / cycles,
    }, failures


def run_untraced(pt, workload, seed: int, seconds: float) -> tuple[dict, list[Rep], list[str]]:
    reps = []
    deadline = time.perf_counter() + seconds
    with PulseCounter(pt) as counter:
        while not reps or time.perf_counter() < deadline:
            before = counter.pulses
            rep = run_rep(pt, workload, scenario_seed(seed, len(reps)))
            rep.pulses = counter.pulses - before
            reps.append(rep)
    wall = sum(r.wall_s for r in reps)
    metrics, failures = quality(workload, reps)
    metrics.update(
        cycles_per_s=sum(r.cycles for r in reps) / wall,
        pulses_per_s=sum(r.pulses for r in reps) / wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return metrics, reps, failures


def run_traced(pt, workload, seed: int) -> tuple[dict, list[Rep], list[str]]:
    tracer = Tracer(pt)
    plain, traced = [], []
    # alternate, so that both passes see the same machine load
    for k in range(workload.trace_reps):
        plain.append(run_rep(pt, workload, scenario_seed(seed, k)))
        with tracer:
            traced.append(run_rep(pt, workload, scenario_seed(seed, k), tracer.phase))
    failures = [f for r in plain + traced for f in r.failures]
    if any(a.csv != b.csv for a, b in zip(plain, traced)):
        failures.append("tracing changed series.csv")
    metrics = layer_metrics(pt, tracer)
    metrics["harness.csv_bytes"] = sum(len(r.csv.encode()) for r in traced)
    metrics["trace_overhead_frac"] = (
        sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain) - 1.0
    )
    write_spans(tracer, workload, seed)
    return metrics, traced, failures


def write_spans(tracer, workload, seed: int) -> None:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload.name}-seed{seed}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_ns,end_ns,parent,cycle\n")
        for i, (name, start, end, parent, cycle, _) in enumerate(tracer.spans):
            fh.write(f"{i},{name},{start},{end},{parent},{cycle}\n")


def import_package():
    """Import poltrack from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "poltrack" / "__init__.py").is_file():
        raise SystemExit(f"error: no poltrack package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import poltrack

    if Path(poltrack.__file__).resolve().parent != SRC / "poltrack":
        raise SystemExit(f"error: imported poltrack from {poltrack.__file__}, not {SRC}")
    return poltrack


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SPEC.is_file():
        raise SystemExit(f"error: {SPEC} not found")
    workload = WORKLOADS[args.workload]
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    pt = import_package()
    if args.trace:
        metrics, reps, failures = run_traced(pt, workload, args.seed)
        extra = {}
    else:
        setup_s = measure_setup(workload)
        metrics, reps, failures = run_untraced(pt, workload, args.seed, args.seconds)
        metrics["setup_s"] = setup_s
        extra = {name: metrics.pop(name) for name in PRINTED_ONLY}
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match {SPEC.name}")

    attempted = sum(r.cycles for r in reps)
    failed = sum(r.starved for r in reps)
    print(f"workload {workload.name} seed {args.seed}: {len(reps)} reps of {workload.cycles} cycles")
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    for name, value in extra.items():
        print(f"{name} = {value!r} fraction")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
