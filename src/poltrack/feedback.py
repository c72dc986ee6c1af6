"""Dither-gradient feedback control of the polarization basis.

The controller minimizes a feedback signal E, the squared distance between
the measured sent-vs-detected matrix and the identity,

    E = 2 * (j2^2 + j3^2),

computed from revealed sifted bits alone.  One squeezer adjustment probes the
local slope by applying a small dither voltage D, re-measuring, and stepping
the voltage by tau * (E2 - E1) / D with tau negative; a correction sweeps the
four squeezers in order and repeats until E drops below a hold threshold.
Voltages that would leave their drive range reset to the range center, the
standard endless-control trick.  While E stays below threshold the voltages
are held.

Each measurement basis has its own controller and EPC; within one feedback
cycle the Z controller runs first, then the X controller.  A controller state
is owned by a single execution context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import ChannelModel, EpcState, channel_step, drift_axes, epc_rotation
from .photon_sim import (
    InsufficientDataError,
    MeasurementMatrix,
    SourceParams,
    analyzer_element,
    measurement_matrix,
    qber_from_tally,
    reveal_sample,
    simulate_batch,
)
from .poincare import IDENTITY, Rotation
from .timeseries import TimeSeries, TimeSeriesRow


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning of one basis controller.

    Defaults are sized for desk-scale runs: a 1 V dither is about a 2.4 degree
    probe at the default squeezer gain, and tau = -150 V^2 turns a feedback
    change of 0.01 into a step of 1.5 V.  The step size matters mostly near
    alignment, where the feedback signal goes quartic in the residual angle
    and too small a tau stalls the descent.  ``batch_pulses`` with
    ``sample_fraction`` set the revealed sample per evaluation (about 2500
    sifted bits per basis at the desk-scale link settings).
    """

    dither: float = 1.0  # volts
    tau: float = -150.0  # volts^2 per unit feedback change; negative
    e_threshold: float = 0.002
    sample_fraction: float = 1.0
    max_cycles_per_correction: int = 25
    batch_pulses: int = 25_000

    def __post_init__(self) -> None:
        if not (self.dither > 0.0):
            raise ValueError("dither must be positive")
        if self.tau > 0.0:
            raise ValueError("tau must be non-positive (negative to minimize E)")
        if not (0.0 < self.e_threshold < 2.0):
            raise ValueError("e_threshold must be in (0, 2)")
        if not (0.0 < self.sample_fraction <= 1.0):
            raise ValueError("sample_fraction must be in (0, 1]")
        if self.max_cycles_per_correction < 1:
            raise ValueError("max_cycles_per_correction must be at least 1")
        if self.batch_pulses < 1:
            raise ValueError("batch_pulses must be at least 1")


@dataclass(frozen=True)
class ControllerState:
    """Loop state of one basis controller driving its EPC."""

    epc: EpcState
    recenter_count: int = 0
    converged: bool = True


def feedback_error(mm: MeasurementMatrix) -> float:
    """Squared distance between the measurement matrix and the identity.

    Under row normalization the full sum over (U - I)^2 collapses to
    2 * (j2^2 + j3^2); zero exactly when both wrong-port rates vanish.
    """
    return 2.0 * (mm.j2 * mm.j2 + mm.j3 * mm.j3)


class MonteCarloContext:
    """Evaluates the feedback signal from fresh simulated detection batches.

    The channel rotation is frozen for the lifetime of the context, matching
    the controller's assumption that the plant is constant within one
    correction.  Each evaluation consumes generator state, so repeated calls
    scatter around the underlying value.
    """

    def __init__(
        self,
        channel_rot: Rotation,
        source: SourceParams,
        eta: float,
        config: ControllerConfig,
        rng: np.random.Generator,
    ):
        self.channel_rot = channel_rot
        self.source = source
        self.eta = eta
        self.config = config
        self.rng = rng

    def evaluate(self, epc_rot: Rotation, basis: str) -> float:
        # The two receiver arms are independent, so the arm not being
        # measured is simulated with an identity EPC.
        rot_z = epc_rot if basis == "Z" else IDENTITY
        rot_x = epc_rot if basis == "X" else IDENTITY
        tally = simulate_batch(
            self.config.batch_pulses,
            self.channel_rot,
            rot_z,
            rot_x,
            self.source,
            self.eta,
            self.rng,
        )
        revealed = reveal_sample(tally, self.config.sample_fraction, self.rng)
        return feedback_error(measurement_matrix(revealed, basis))


class ExactContext:
    """Noiseless closed-form feedback signal, for oracle-driven control.

    With no detector noise both rows of the measurement matrix have the same
    wrong-port probability j = (1 - m) / 2, where m is the plant's
    ``analyzer_element`` of the basis, so E = 4 j^2.  This is the reference
    the controller is checked against, not the mean of the noisy plant.
    """

    def __init__(self, channel_rot: Rotation):
        self.channel_rot = channel_rot

    def evaluate(self, epc_rot: Rotation, basis: str) -> float:
        j = 0.5 * (1.0 - analyzer_element(self.channel_rot, epc_rot, basis))
        return 4.0 * j * j


def adjust_squeezer(
    state: ControllerState, i: int, basis: str, sim_context, config: ControllerConfig
) -> ControllerState:
    """One dither-gradient step on squeezer ``i`` (0-based).

    Measures E at the working voltage, probes at voltage + D, and lands on
    voltage + tau * (E2 - E1) / D.  Any move that would leave the drive range
    resets the squeezer to its range center and bumps the recenter counter.
    """
    if not 0 <= i <= 3:
        raise ValueError("squeezer index must be 0..3")
    epc = state.epc
    sq = epc.squeezers[i]
    recenters = 0
    v = sq.voltage
    if v + config.dither > sq.v_max:
        # no headroom to probe upward; restart this squeezer from the center
        v = sq.center
        recenters += 1
        epc = epc.with_voltage(i, v)
    e1 = sim_context.evaluate(epc_rotation(epc), basis)
    e2 = sim_context.evaluate(epc_rotation(epc.with_voltage(i, v + config.dither)), basis)
    v_new = v + config.tau * (e2 - e1) / config.dither
    if not (sq.v_min <= v_new <= sq.v_max):
        v_new = sq.center
        recenters += 1
    return ControllerState(
        epc.with_voltage(i, v_new), state.recenter_count + recenters, state.converged
    )


def control_cycle(
    state: ControllerState, e: float, basis: str, sim_context, config: ControllerConfig
) -> ControllerState:
    """One feedback cycle on the measured feedback signal ``e``.

    Holds if ``e`` is below threshold, else corrects: a correction sweeps
    squeezers 1..4 and re-measures E after each sweep, repeating until
    E < e_threshold or ``max_cycles_per_correction`` sweeps have run, in which
    case the state comes back flagged as not converged.
    """
    if e < config.e_threshold:
        return ControllerState(state.epc, state.recenter_count, converged=True)

    for _ in range(config.max_cycles_per_correction):
        for i in range(4):
            state = adjust_squeezer(state, i, basis, sim_context, config)
        if sim_context.evaluate(epc_rotation(state.epc), basis) < config.e_threshold:
            return ControllerState(state.epc, state.recenter_count, converged=True)
    return ControllerState(state.epc, state.recenter_count, converged=False)


@dataclass(frozen=True)
class World:
    """Everything outside the controllers: channel, source, link, axis drift."""

    channel: ChannelModel
    source: SourceParams
    eta: float
    axis_drift_sigma: float = 0.0
    max_axis_wander: float = math.radians(10.0)


def track(
    z_state: ControllerState,
    x_state: ControllerState,
    z_config: ControllerConfig,
    x_config: ControllerConfig,
    world: World,
    duration: int,
    *,
    fc_seconds: float = 12.0,
    control_enabled: bool = True,
    seed: int | np.random.SeedSequence = 0,
) -> TimeSeries:
    """Run ``duration`` feedback cycles against an evolving world.

    Per cycle: advance the channel and squeezer-axis drift, simulate one
    monitoring batch, estimate the error rate and per-basis feedback signals
    from the revealed subset, then (when control is enabled) run one control
    cycle per basis, Z first.  Uses separate seed streams for the channel,
    the monitoring batches, and each controller, so paired-seed runs with
    control on and off see the same channel trajectory.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    kids = ss.spawn(6)
    rng_channel = np.random.Generator(np.random.Philox(kids[0]))
    rng_drift = np.random.Generator(np.random.Philox(kids[1]))
    rng_monitor = np.random.Generator(np.random.Philox(kids[2]))
    rng_reveal = np.random.Generator(np.random.Philox(kids[3]))
    rng_ctrl_z = np.random.Generator(np.random.Philox(kids[4]))
    rng_ctrl_x = np.random.Generator(np.random.Philox(kids[5]))

    def drifted(state: ControllerState) -> ControllerState:
        epc = drift_axes(
            state.epc, 1, rng_drift,
            sigma=world.axis_drift_sigma, max_wander=world.max_axis_wander,
        )
        return ControllerState(epc, state.recenter_count, state.converged)

    channel = world.channel
    rows = []
    for cycle in range(1, duration + 1):
        channel, ch_rot = channel_step(channel, 1, rng_channel)
        z_state = drifted(z_state)
        x_state = drifted(x_state)

        tally = simulate_batch(
            z_config.batch_pulses,
            ch_rot,
            epc_rotation(z_state.epc),
            epc_rotation(x_state.epc),
            world.source,
            world.eta,
            rng_monitor,
        )
        revealed = reveal_sample(tally, z_config.sample_fraction, rng_reveal)

        recenters_before = z_state.recenter_count + x_state.recenter_count
        data_ok = True
        try:
            qber_est = qber_from_tally(revealed)
            e_z = feedback_error(measurement_matrix(revealed, "Z"))
            e_x = feedback_error(measurement_matrix(revealed, "X"))
        except InsufficientDataError:
            qber_est = e_z = e_x = math.nan
            data_ok = False

        if control_enabled and data_ok:
            ctx_z = MonteCarloContext(ch_rot, world.source, world.eta, z_config, rng_ctrl_z)
            ctx_x = MonteCarloContext(ch_rot, world.source, world.eta, x_config, rng_ctrl_x)
            try:
                z_state = control_cycle(z_state, e_z, "Z", ctx_z, z_config)
                x_state = control_cycle(x_state, e_x, "X", ctx_x, x_config)
            except InsufficientDataError:
                data_ok = False

        rows.append(
            TimeSeriesRow(
                cycle=cycle,
                t_seconds=cycle * fc_seconds,
                qber_est=qber_est,
                e_z=e_z,
                e_x=e_x,
                voltages=z_state.epc.voltages + x_state.epc.voltages,
                recenter=z_state.recenter_count + x_state.recenter_count - recenters_before,
                converged=data_ok and z_state.converged and x_state.converged,
            )
        )
    return TimeSeries(tuple(rows))
