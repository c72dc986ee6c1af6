"""Best-of-N wall time of each poltrack layer, in microseconds per call.

    PYTHONPATH=src python3 tools/timeit_layers.py

Times, on fixed inputs from the desk ``drift24h`` preset (seed 12345):
the construction of a validated ``Rotation`` (``rotation_new``) and of a
``DetectionTally`` (``tally_new``); quaternion ``compose``; the Z arm's
``analyzer_element`` behind a jittered-gain EPC at random voltages and the
preset's first channel rotation, and that EPC's ``EpcState.with_voltages``
and ``drift_axes``; one random-walk step of the preset's channel
(``channel_step_drift``);
``simulate_batch`` of one desk batch (the draw alone, from precomputed
sifted cells); one ``feedback_error`` of that desk tally's Z basis; one
``MonteCarloContext.evaluate`` at desk scale and one at the ``--full``
preset (``evaluate_full``: link, source, batch and reveal fraction 0.1 of
``--full``); one ``adjust_squeezer`` step of a
long-lived ``AnalyzerSweep``, on whichever squeezer the sweep is at,
against a seeded ``MonteCarloContext`` (``adjust_squeezer_mc``: two
evaluations, at the working voltage and at the probe) and against a
noiseless context (``adjust_squeezer``); one ``control_cycle`` from a fixed
30 degree misalignment against the noiseless context (``control_cycle``)
and, per evaluation, against a ``MonteCarloContext``
(``control_cycle_mc_per_eval``, the saturated controller's hot path: one
correction for each seed of ``MC_SEEDS``, timed together and divided by the
evaluations they make, since how many a correction makes depends on its
random stream); one ``track`` cycle, averaged over a 50-cycle run from the
preset's starting EPCs; ``series_to_csv`` of that 50-cycle series; the
construction of one keyed random stream, ``Generator(Philox(SeedSequence(seed,
spawn_key=...)))`` (``stream_new``); and one whole ``run_scenario`` of the
``drift_full`` benchmark's config (``run_scenario_drift_full``: the ``--full``
``drift24h`` preset for 2 cycles, control off, no gain jitter), the per-run
layer that set-up costs such as ``stream_new`` land in.  Two keys time that
run's once-per-run output work on its own: ``summarize`` of its series
(``summarize_drift_full``, a part of ``run_scenario_drift_full``), and
``series_to_csv``, ``summary_to_text`` and ``config_to_ini`` together
(``emit_drift_full``), the text of its three output files.  The noiseless
context is defined here: E = 4 ((1 - m) / 2)^2 of the arm's analyzer
element ``m``.
Each figure is the fastest of ``REPEAT`` timeit repeats, with the loop count
per repeat chosen by ``Timer.autorange``.  Prints one JSON object.  Uses the
standard library and poltrack (with numpy, its one dependency) only, so the
same script times any checkout that has these public names.
"""

from __future__ import annotations

import json
import math
import os
import platform
import timeit
from dataclasses import astuple, replace

import numpy as np

import poltrack as pt
from poltrack.harness import build_channel, summary_to_text

SEED = 12345
TRACK_CYCLES = 50
MC_SEEDS = range(10)
REPEAT = 7


class NoiselessContext:
    """The feedback signal of a frozen channel without detector noise."""

    def __init__(self, channel_rot):
        self.channel_rot = channel_rot

    def evaluate(self, m, basis):
        j = 0.5 * (1.0 - m)
        return 4.0 * j * j


def best_us(stmt, per_call: int = 1) -> float:
    timer = timeit.Timer(stmt)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=REPEAT, number=number)) / number / per_call * 1e6


def main() -> None:
    cfg = replace(pt.preset_config("drift24h"), seed=SEED)
    rng = np.random.default_rng(SEED)
    start_z, start_x = (
        pt.default_epc(rng, gain=cfg.epc.gain_rad_per_volt, gain_jitter=cfg.epc.gain_jitter)
        for _ in range(2)
    )
    epc = start_z.with_voltages(
        [float(rng.uniform(cfg.epc.v_min, cfg.epc.v_max)) for _ in range(4)]
    )
    r1 = pt.rotation_from_axis_angle(pt.StokesVector.unit(1.0, 2.0, 3.0), 0.7)
    r2 = pt.rotation_from_axis_angle(pt.StokesVector.unit(-2.0, 0.5, 1.0), 1.9)

    world = pt.World(
        channel=build_channel(cfg),
        source=cfg.source,
        eta=pt.transmittance(cfg.link),
        axis_drift_sigma=cfg.epc.axis_drift_sigma_rad,
        max_axis_wander=cfg.epc.max_axis_wander_rad,
    )
    _, ch_rot = pt.channel_step(world.channel, np.random.default_rng(SEED))
    mc = pt.MonteCarloContext(ch_rot, world.source, world.eta, cfg.controller, rng)

    m_z = pt.analyzer_element(ch_rot, epc, "Z")
    m_x = pt.analyzer_element(ch_rot, epc, "X")
    desk_cells = pt.sifted_cell_probs(m_z, m_x, world.source, world.eta)
    desk_tally = pt.simulate_batch(cfg.controller.batch_pulses, desk_cells, rng)
    tally_fields = astuple(desk_tally)
    full = pt.preset_config("drift24h", full=True)
    mc_full = pt.MonteCarloContext(
        ch_rot, full.source, pt.transmittance(full.link), full.controller, rng
    )

    diagonal = pt.StokesVector(0.0, 1.0, 0.0)
    misaligned = NoiselessContext(pt.rotation_from_axis_angle(diagonal, math.radians(30.0)))
    ctrl = pt.ControllerConfig(max_cycles_per_correction=200)
    centered = pt.default_epc()
    e_misaligned = misaligned.evaluate(
        pt.analyzer_element(misaligned.channel_rot, centered, "Z"), "Z"
    )

    # long-lived sweeps; each step adjusts whichever squeezer its sweep is at
    sweep_mc = pt.AnalyzerSweep(ch_rot, epc, "Z")
    sweep_exact = pt.AnalyzerSweep(misaligned.channel_rot, epc, "Z")

    evaluations = 0

    class CountingContext(pt.MonteCarloContext):
        def evaluate(self, m, basis):
            nonlocal evaluations
            evaluations += 1
            return super().evaluate(m, basis)

    def correct_mc(context=pt.MonteCarloContext):
        for seed in MC_SEEDS:
            rng_mc = np.random.Generator(np.random.Philox(seed))
            ctx = context(misaligned.channel_rot, world.source, world.eta, ctrl, rng_mc)
            pt.control_cycle(centered, e_misaligned, "Z", ctx, ctrl)

    correct_mc(CountingContext)  # the seeds fix how many evaluations the corrections make

    def track():
        return pt.track(
            start_z,
            start_x,
            cfg.controller,
            world,
            TRACK_CYCLES,
            seed=SEED,
        )

    series = track()
    full_run = replace(
        full, duration=2, seed=SEED, control_enabled=False, epc=replace(full.epc, gain_jitter=0.0)
    )
    full_series, full_summary = pt.run_scenario(full_run)

    def emit_full():
        return (
            pt.series_to_csv(full_series),
            summary_to_text(full_summary),
            pt.config_to_ini(full_run),
        )

    timings = {
        "rotation_new": lambda: pt.Rotation(r1.w, r1.x, r1.y, r1.z),
        "tally_new": lambda: pt.DetectionTally(*tally_fields),
        "compose": lambda: pt.compose(r1, r2),
        "analyzer_element": lambda: pt.analyzer_element(ch_rot, epc, "Z"),
        "with_voltages": lambda: epc.with_voltages((75.0, 75.0, 80.0, 75.0)),
        "drift_axes": lambda: pt.drift_axes(
            epc, rng, sigma=cfg.epc.axis_drift_sigma_rad, max_wander=cfg.epc.max_axis_wander_rad
        ),
        "channel_step_drift": lambda: pt.channel_step(world.channel, rng),
        "simulate_batch": lambda: pt.simulate_batch(cfg.controller.batch_pulses, desk_cells, rng),
        "feedback_error": lambda: pt.feedback_error(desk_tally, "Z"),
        "MonteCarloContext.evaluate": lambda: mc.evaluate(m_z, "Z"),
        "evaluate_full": lambda: mc_full.evaluate(m_z, "Z"),
        "adjust_squeezer_mc": lambda: pt.adjust_squeezer(sweep_mc, mc, cfg.controller),
        "adjust_squeezer": lambda: pt.adjust_squeezer(sweep_exact, misaligned, ctrl),
        "control_cycle": lambda: pt.control_cycle(centered, e_misaligned, "Z", misaligned, ctrl),
        "control_cycle_mc_per_eval": correct_mc,
        "track_cycle": track,
        "series_to_csv_50": lambda: pt.series_to_csv(series),
        "stream_new": lambda: np.random.Generator(
            np.random.Philox(np.random.SeedSequence(SEED, spawn_key=(2, 0)))
        ),
        "run_scenario_drift_full": lambda: pt.run_scenario(full_run),
        "summarize_drift_full": lambda: pt.summarize(full_series),
        "emit_drift_full": emit_full,
    }
    per_call = {"track_cycle": TRACK_CYCLES, "control_cycle_mc_per_eval": evaluations}
    result = {name: best_us(stmt, per_call.get(name, 1)) for name, stmt in timings.items()}
    result["_meta"] = {
        "unit": "us per call (per cycle or evaluation where the key says so), best of repeats",
        "repeat": REPEAT,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
