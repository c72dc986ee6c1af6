"""Benchmark workloads: which scenario each one runs, and its output gates.

A workload is a preset run over a fixed prefix of cycles.  One benchmark run
repeats that prefix with a fresh scenario seed per repetition ("rep"), so a
run averages over many channel trajectories and EPC draws; rep ``k`` of
``--seed s`` always gets the same scenario seed.  Controller work per cycle is
heavy-tailed (a correction that hits its cap costs 225 evaluations), so many
short reps give steadier throughput than one long run.  All workloads are
closed-loop and single-process.

This module imports neither ``poltrack`` nor ``numpy``: the set-up timing
imports them inside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    full: bool
    cycles: int  # fixed prefix of feedback cycles per rep
    trace_reps: int  # reps replayed with and without tracing in a traced run
    qber_gate: float  # the run's mean estimated QBER must stay at or under this
    gate_reason: str
    control: bool = True
    ideal_gains: bool = False  # zero squeezer-gain jitter: the EPC starts aligned

    def config(self, pt, scenario_seed: int):
        """Resolved scenario config of one rep, built through the public API."""
        cfg = pt.preset_config(self.preset, full=self.full)
        cfg = replace(cfg, duration=self.cycles, seed=scenario_seed, control_enabled=self.control)
        if self.ideal_gains:
            cfg = replace(cfg, epc=replace(cfg.epc, gain_jitter=0.0))
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline drift scenario.  Hold and correct cycles mix,
        # so the fixed per-cycle cost (optics drift, CSV emission) shows.
        Workload(
            name="drift_desk",
            preset="drift24h",
            full=False,
            cycles=50,
            trace_reps=4,
            qber_gate=0.035,
            gate_reason="acceptance criterion 5 holds the controlled drift24h mean QBER to 0.035",
        ),
        # A saturated controller: about 28 evaluations per cycle and 44 % of the
        # cycles end at the sweep cap, so per-evaluation overhead dominates.
        Workload(
            name="scramble_desk",
            preset="scramble04",
            full=False,
            cycles=50,
            trace_reps=4,
            qber_gate=0.24,
            gate_reason=(
                "acceptance criterion 6 keeps controlled scrambling under half the uncontrolled "
                "mean QBER, 0.479 for scramble04 at seed 12345 over 3000 cycles"
            ),
        ),
        # Hardware scale, 30 M pulses per batch.  A controlled --full run is
        # unusable here: one correction capped at 25 sweeps is 225 batches of
        # about 2 s.  Monitoring alone runs exactly one batch per cycle, and
        # an EPC without gain jitter starts aligned, so per-pulse sampling is
        # nearly all of the time and the QBER is not ruled by the initial
        # misalignment of each seed.
        Workload(
            name="drift_full",
            preset="drift24h",
            full=True,
            cycles=2,
            trace_reps=3,
            qber_gate=0.035,
            gate_reason=(
                "criterion 5's drift gate; an aligned EPC left alone drifts far less than that "
                "in a few cycles"
            ),
            control=False,
            ideal_gains=True,
        ),
    )
}
