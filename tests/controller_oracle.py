"""Reference controller on composed EPC rotations, and the noiseless context.

``adjust_squeezer`` and ``control_cycle`` are the dither-gradient controller
as the package ran it before ``feedback`` moved each correction onto
``optics.AnalyzerSweep``: every evaluation composes the EPC's rotation with
``epc_rotation`` and reads its analyzer element with ``analyzer_element``,
and every step builds its ``EpcState``.  The dither
probe rotates the EPC with squeezer i at v + D, which the package's former
``probe_rotation`` matched bit for bit.  The decisions are the package's:
hold, dither, step, recenter and the sweep cap, on E alone.
``tests/test_feedback.py`` requires the package's controller to return the
same voltages, recenters and converged flag as this one.

``ExactContext`` is the noiseless feedback signal of one frozen channel.
With no detector noise both rows of the measurement matrix have the same
wrong-port probability j = (1 - m) / 2, so E = 4 j^2.  It is the reference
the controller is checked against, not the mean of the noisy plant.
"""

from __future__ import annotations

from poltrack.feedback import ControllerConfig, ControlResult
from poltrack.optics import EpcState, epc_rotation
from poltrack.photon_sim import analyzer_element
from poltrack.poincare import Rotation

from conftest import with_voltage


class ExactContext:
    """Noiseless closed-form feedback signal, ``evaluate(m, basis) = 4 ((1 - m) / 2)^2``."""

    def __init__(self, channel_rot: Rotation):
        self.channel_rot = channel_rot

    def evaluate(self, m: float, basis: str) -> float:
        j = 0.5 * (1.0 - m)
        return 4.0 * j * j


def evaluate_rotation(ctx, epc_rot: Rotation, basis: str) -> float:
    """E of the context's plant with the measured arm's EPC rotated by ``epc_rot``."""
    return ctx.evaluate(analyzer_element(ctx.channel_rot, epc_rot, basis), basis)


def adjust_squeezer(
    epc: EpcState, i: int, basis: str, sim_context, config: ControllerConfig
) -> tuple[EpcState, int]:
    """One dither-gradient step on squeezer ``i`` (0-based): the EPC it leaves, its recenters."""
    if not 0 <= i <= 3:
        raise ValueError("squeezer index must be 0..3")
    recenters = 0
    v = epc.voltages[i]
    if v + config.dither_volts > epc.v_max:
        v = epc.center
        recenters += 1
        epc = with_voltage(epc, i, v)
    e1 = evaluate_rotation(sim_context, epc_rotation(epc), basis)
    probed = with_voltage(epc, i, v + config.dither_volts)
    e2 = evaluate_rotation(sim_context, epc_rotation(probed), basis)
    v_new = v + config.tau * (e2 - e1) / config.dither_volts
    if not (epc.v_min <= v_new <= epc.v_max):
        v_new = epc.center
        recenters += 1
    return with_voltage(epc, i, v_new), recenters


def control_cycle(
    epc: EpcState, e: float, basis: str, sim_context, config: ControllerConfig
) -> ControlResult:
    """Hold below threshold, else sweep squeezers 1..4 until E < threshold or the cap."""
    if e < config.e_threshold:
        return ControlResult(epc, 0, converged=True)
    recenters = 0
    for _ in range(config.max_cycles_per_correction):
        for i in range(4):
            epc, step_recenters = adjust_squeezer(epc, i, basis, sim_context, config)
            recenters += step_recenters
        if evaluate_rotation(sim_context, epc_rotation(epc), basis) < config.e_threshold:
            return ControlResult(epc, recenters, converged=True)
    return ControlResult(epc, recenters, converged=False)
