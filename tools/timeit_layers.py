"""Best-of-N wall time of each poltrack layer, in microseconds per call.

    PYTHONPATH=src python3 tools/timeit_layers.py

Times, on fixed inputs from the desk ``drift24h`` preset (seed 12345):
quaternion ``compose``; ``epc_rotation``, ``EpcState.with_voltage`` and
``drift_axes`` of a jittered-gain EPC; one ``MonteCarloContext.evaluate``;
one ``adjust_squeezer`` and one ``control_cycle`` against an ``ExactContext``
(measuring E, then a full correction from a fixed 30 degree misalignment);
one ``track``
cycle, averaged over a 50-cycle run from the preset's starting EPCs; and
``series_to_csv`` of that 50-cycle series.
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
from dataclasses import replace

import numpy as np

import poltrack as pt
from poltrack.harness import build_channel

SEED = 12345
TRACK_CYCLES = 50
REPEAT = 7


def best_us(stmt, per_call: int = 1) -> float:
    timer = timeit.Timer(stmt)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=REPEAT, number=number)) / number / per_call * 1e6


def main() -> None:
    cfg = replace(pt.preset_config("drift24h"), seed=SEED)
    rng = np.random.default_rng(SEED)
    start_z, start_x = (
        pt.default_epc(rng, gain=cfg.epc.gain, gain_jitter=cfg.epc.gain_jitter) for _ in range(2)
    )
    epc = start_z
    for i in range(4):
        epc = epc.with_voltage(i, float(rng.uniform(cfg.epc.v_min, cfg.epc.v_max)))
    r1 = pt.rotation_from_axis_angle(pt.StokesVector.unit(1.0, 2.0, 3.0), 0.7)
    r2 = pt.rotation_from_axis_angle(pt.StokesVector.unit(-2.0, 0.5, 1.0), 1.9)
    epc_rot = pt.epc_rotation(epc)

    world = pt.World(
        channel=build_channel(cfg),
        source=cfg.source,
        eta=pt.transmittance(cfg.link),
        axis_drift_sigma=cfg.epc.axis_drift_sigma,
        max_axis_wander=cfg.epc.max_axis_wander,
    )
    _, ch_rot = pt.channel_step(world.channel, 1, np.random.default_rng(SEED))
    mc = pt.MonteCarloContext(ch_rot, world.source, world.eta, cfg.controller_z, rng)

    misaligned = pt.ExactContext(pt.rotation_from_axis_angle(pt.DIAG, math.radians(30.0)))
    ctrl = pt.ControllerConfig(max_cycles_per_correction=200)
    state = pt.ControllerState(epc=pt.default_epc())

    def track():
        return pt.track(
            pt.ControllerState(epc=start_z),
            pt.ControllerState(epc=start_x),
            cfg.controller_z,
            cfg.controller_x,
            world,
            TRACK_CYCLES,
            fc_seconds=cfg.fc_seconds,
            seed=SEED,
        )

    series = track()

    timings = {
        "compose": lambda: pt.compose(r1, r2),
        "epc_rotation": lambda: pt.epc_rotation(epc),
        "with_voltage": lambda: epc.with_voltage(2, 80.0),
        "drift_axes": lambda: pt.drift_axes(
            epc, 1, rng, sigma=cfg.epc.axis_drift_sigma, max_wander=cfg.epc.max_axis_wander
        ),
        "MonteCarloContext.evaluate": lambda: mc.evaluate(epc_rot, "Z"),
        "adjust_squeezer": lambda: pt.adjust_squeezer(state, 1, "Z", misaligned, ctrl),
        "control_cycle": lambda: pt.control_cycle(
            state, misaligned.evaluate(pt.epc_rotation(state.epc), "Z"), "Z", misaligned, ctrl
        ),
        "track_cycle": track,
        "series_to_csv_50": lambda: pt.series_to_csv(series),
    }
    result = {
        name: best_us(stmt, TRACK_CYCLES if name == "track_cycle" else 1)
        for name, stmt in timings.items()
    }
    result["_meta"] = {
        "unit": "us per call, best of repeats",
        "repeat": REPEAT,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
