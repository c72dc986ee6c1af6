"""Per-layer metrics computed from a finished trace.

A span's self time is its duration minus the time its child spans cover; a
layer's self time sums its spans' self times.  Counts come straight from the
spans, so they repeat exactly at a fixed seed.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from tracer import END, NAME, NOTE, PARENT, START


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def layer_metrics(pt, tracer) -> dict[str, float]:
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    calls: Counter[str] = Counter()
    total_ns: defaultdict[str, int] = defaultdict(int)
    self_ns: defaultdict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        name, duration = s[NAME], s[END] - s[START]
        calls[name] += 1
        total_ns[name] += duration
        self_ns[name] += duration - child_ns[i]
        self_ns[name.split(".", 1)[0]] += duration - child_ns[i]

    def seconds(ns: int) -> float:
        return ns / 1e9

    def parent_name(s) -> str | None:
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None

    batches = [s for s in spans if s[NAME] == "photon_sim.simulate_batch"]
    pulses = sum(s[NOTE][0] for s in batches)
    sifted = sum(s[NOTE][1] for s in batches)
    control_pulses = sum(
        s[NOTE][0] for s in batches if parent_name(s) == "feedback.MonteCarloContext.evaluate"
    )
    reveals = [s[NOTE] for s in spans if s[NAME] == "photon_sim.reveal_sample"]
    starved = sum(
        1
        for s in spans
        if s[NAME].startswith("photon_sim.")
        and isinstance(s[NOTE], type)
        and issubclass(s[NOTE], pt.InsufficientDataError)
    )

    correcting = {s[PARENT] for s in spans if s[NAME] == "feedback.adjust_squeezer"}
    corrections = [spans[i] for i in correcting]
    evaluations = calls["feedback.MonteCarloContext.evaluate"]

    # channel_step opens every cycle, so the gap between two successive calls
    # under one track span is one cycle's wall time.
    steps = [s for s in spans if s[NAME] == "optics.channel_step"]
    gaps_ms = [
        (b[START] - a[START]) / 1e6 for a, b in zip(steps, steps[1:]) if a[PARENT] == b[PARENT]
    ]
    cycles = len(steps)

    return {
        "photon_sim.simulate_batch.calls": len(batches),
        "photon_sim.pulses": pulses,
        "photon_sim.simulate_batch.self_s": seconds(self_ns["photon_sim.simulate_batch"]),
        "photon_sim.ns_per_pulse": _ratio(self_ns["photon_sim.simulate_batch"], pulses, 0.0),
        "photon_sim.reveal_sample.self_s": seconds(self_ns["photon_sim.reveal_sample"]),
        "photon_sim.measurement_matrix.self_s": seconds(self_ns["photon_sim.measurement_matrix"]),
        "photon_sim.sift_yield": _ratio(sifted, pulses, 0.0),
        "photon_sim.revealed_per_eval": _ratio(sum(reveals), len(reveals), 0.0),
        "photon_sim.starved": starved,
        "photon_sim.self_s": seconds(self_ns["photon_sim"]),
        "feedback.evaluations": evaluations,
        "feedback.evals_per_cycle": _ratio(evaluations, cycles, 0.0),
        "feedback.control_cycle.calls": calls["feedback.control_cycle"],
        "feedback.corrections": len(corrections),
        "feedback.sweeps": calls["feedback.adjust_squeezer"] / 4,
        # with no correction there is none that failed to converge
        "feedback.converged_ratio": _ratio(sum(1 for s in corrections if s[NOTE]), len(corrections), 1.0),
        "feedback.control_pulse_ratio": _ratio(control_pulses, pulses - control_pulses, 0.0),
        "feedback.self_s": seconds(self_ns["feedback"]),
        "feedback.cycle_ms_p50": _percentile(gaps_ms, 50),
        "feedback.cycle_ms_p95": _percentile(gaps_ms, 95),
        "optics.epc_rotation.calls": calls["optics.epc_rotation"],
        "optics.epc_rotation.self_s": seconds(self_ns["optics.epc_rotation"]),
        "optics.channel_step.self_s": seconds(self_ns["optics.channel_step"]),
        "optics.drift_axes.self_s": seconds(self_ns["optics.drift_axes"]),
        "optics.self_s": seconds(self_ns["optics"]),
        "poincare.apply_rotation.calls": calls["poincare.apply_rotation"],
        "poincare.compose.calls": calls["poincare.compose"],
        "poincare.rotation_from_axis_angle.calls": calls["poincare.rotation_from_axis_angle"],
        "poincare.objects": tracer.objects,
        "poincare.self_s": seconds(self_ns["poincare"]),
        "harness.run_scenario.s": seconds(total_ns["harness.run_scenario"]),
        "harness.emit_s": seconds(total_ns["bench.emit"]),
        "harness.series_from_csv_s": seconds(total_ns["harness.series_from_csv"]),
        "harness.summarize_s": seconds(total_ns["harness.summarize"]),
        "harness.self_s": seconds(self_ns["harness"]),
    }
