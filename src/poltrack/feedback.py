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

Each measurement basis has its own EPC and random stream, and one config
tunes both; within one feedback cycle the Z controller runs first, then the
X controller.  A controller carries nothing from one cycle to the next but
its EPC: ``control_cycle`` returns that cycle's ``ControlResult``, the EPC it
leaves, its recenters and whether it converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import Checked, tagged
from .optics import (
    DEFAULT_MAX_AXIS_WANDER,
    AnalyzerSweep,
    ChannelModel,
    EpcState,
    analyzer_element,
    channel_step,
    drift_axes,
)
from .photon_sim import (
    DetectionTally,
    EmptyRowError,
    InsufficientDataError,
    SourceParams,
    arm_cell_probs,
    qber_from_tally,
    sifted_cell_probs,
    simulate_batch,
)
from .poincare import Rotation
from .timeseries import TimeSeries, TimeSeriesRow

# Wall time of one feedback cycle; it only labels the ``t_seconds`` column.
CYCLE_SECONDS = 12.0

_ROW_LABELS = {"Z": ("H", "V"), "X": ("D", "A")}


@dataclass(frozen=True)
class ControllerConfig(Checked):
    """Tuning of the basis controllers; one config drives both bases.

    Each basis keeps its own EPC and random stream; only the tuning is
    shared.  ``batch_pulses`` and ``sample_fraction`` also size
    ``track``'s per-cycle monitoring batch.
    """

    dither_volts: float = tagged(
        1.0, "assumed",
        "a probe of a few degrees at the default gain: large against the noise in E, "
        "small against a turn")
    tau: float = tagged(  # volts^2 per unit feedback change; negative
        -150.0, "assumed",
        "large enough that the descent does not stall near alignment, where E goes quartic "
        "in the residual angle")
    e_threshold: float = tagged(
        0.002, "assumed",
        "above E at the misalignment floor, so that an aligned receiver holds")
    sample_fraction: float = tagged(
        1.0, "desk", "every sifted bit revealed, so that a small batch reveals enough bits")
    max_cycles_per_correction: int = tagged(
        25, "assumed", "a cap on one correction's sweeps, so that a cycle ends while E stays high")
    batch_pulses: int = tagged(
        25_000, "desk",
        "a small batch per evaluation for speed; it reveals about 2500 sifted bits per basis "
        "on the desk link")

    _RANGES = (
        ("dither_volts", lambda v: v > 0.0, "must be positive"),
        ("tau", lambda v: v <= 0.0, "must be non-positive (negative to minimize E)"),
        ("e_threshold", lambda v: 0.0 < v < 2.0, "must be in (0, 2)"),
        ("sample_fraction", lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
        ("max_cycles_per_correction", lambda v: v >= 1, "must be at least 1"),
        ("batch_pulses", lambda v: v >= 1, "must be at least 1"),
        ("batch_pulses", lambda v: v < 2**63, "must be below 2**63"),  # numpy draws C longs
    )


@dataclass(frozen=True)
class ControlResult:
    """What one control cycle of one basis did: the EPC it leaves, its recenters, convergence."""

    epc: EpcState
    recenters: int
    converged: bool


def _revealed_cells(cells: list[float], fraction: float) -> list[float]:
    """Cells of the revealed tally: each sifted event is revealed with probability ``fraction``."""
    return cells if fraction == 1.0 else [fraction * c for c in cells]


def feedback_error(tally: DetectionTally, basis: str) -> float:
    """E of one basis, straight from its revealed counts.

    E is the squared distance between the basis's row-normalized
    sent-vs-detected matrix ``[[j1, j2], [j3, j4]]`` and the identity.  Each
    row sums to 1, so the full sum over (J - I)^2 collapses to
    2 * (j2^2 + j3^2), zero exactly when both wrong-port rates vanish; only
    the two wrong-port rates are computed.  Raises ``EmptyRowError``, naming
    the row, when a sent state of the basis has no counts.
    """
    c00, c01, c10, c11 = tally.counts(basis)
    row0, row1 = c00 + c01, c10 + c11
    if row0 == 0:
        raise EmptyRowError(basis, _ROW_LABELS[basis][0])
    if row1 == 0:
        raise EmptyRowError(basis, _ROW_LABELS[basis][1])
    j2, j3 = c01 / row0, c10 / row1
    return 2.0 * (j2 * j2 + j3 * j3)


@dataclass(eq=False)
class MonteCarloContext:
    """Evaluates the feedback signal from fresh simulated detection batches.

    The channel rotation is frozen for the lifetime of the context, matching
    the controller's assumption that the plant is constant within one
    correction.  ``evaluate(m, basis)`` gives E of one batch whose measured
    arm has analyzer element ``m``.  The two receiver arms are independent,
    so the arm not being measured is simulated behind no EPC, through the
    channel alone; its four revealed cells are constant too and are computed
    once, on first use.  Each evaluation computes only the measured arm's
    revealed cells and draws the revealed tally in one batch, so repeated
    calls scatter around the underlying value; E is read straight from the
    revealed counts.
    """

    channel_rot: Rotation
    source: SourceParams
    eta: float
    config: ControllerConfig
    rng: np.random.Generator
    _idle: dict = field(default_factory=dict, init=False)  # measured basis -> idle arm's cells

    def evaluate(self, m: float, basis: str) -> float:
        fraction = self.config.sample_fraction
        arm = _revealed_cells(arm_cell_probs(m, self.source, self.eta), fraction)
        idle = self._idle.get(basis)
        if idle is None:
            m_idle = analyzer_element(self.channel_rot, None, "X" if basis == "Z" else "Z")
            idle = arm_cell_probs(m_idle, self.source, self.eta)
            idle = self._idle[basis] = _revealed_cells(idle, fraction)
        cells = arm + idle if basis == "Z" else idle + arm
        return feedback_error(simulate_batch(self.config.batch_pulses, cells, self.rng), basis)


def adjust_squeezer(sweep: AnalyzerSweep, sim_context, config: ControllerConfig) -> int:
    """One dither-gradient step on the squeezer ``sweep`` is at.

    Measures E at the working voltage, probes at voltage + D, and lands the
    sweep on voltage + tau * (E2 - E1) / D.  Any move that would leave the
    drive range resets the squeezer to its range center instead.  Returns the
    number of such recenters, 0 to 2.
    """
    epc = sweep.epc
    recenters = 0
    v = sweep.voltages[sweep.at]
    if v + config.dither_volts > epc.v_max:
        # no headroom to probe upward; restart this squeezer from the center
        v = epc.center
        recenters += 1
    e1 = sim_context.evaluate(sweep.element(v), sweep.basis)
    e2 = sim_context.evaluate(sweep.element(v + config.dither_volts), sweep.basis)
    v_new = v + config.tau * (e2 - e1) / config.dither_volts
    if not (epc.v_min <= v_new <= epc.v_max):
        v_new = epc.center
        recenters += 1
    sweep.land(v_new)
    return recenters


def control_cycle(
    epc: EpcState, e: float, basis: str, sim_context, config: ControllerConfig
) -> ControlResult:
    """One feedback cycle of one basis on the measured feedback signal ``e``.

    Holds if ``e`` is below threshold, returning ``ControlResult(epc, 0,
    True)``, else corrects: a correction sweeps squeezers 1..4 and
    re-measures E after each sweep, repeating until E < e_threshold or
    ``max_cycles_per_correction`` sweeps have run, in which case the result
    is flagged as not converged.  The result counts this cycle's recenters
    only.  ``e``, like every E the correction measures, is estimated from a
    revealed sample (about 375 sifted events per row at ``--full``, about
    1230 at desk scale), so ``e_threshold`` is a soft boundary that noise
    alone can cross either way.

    ``sim_context`` is the correction's plant: a frozen ``channel_rot`` and
    ``evaluate(m, basis)``, E for the arm's analyzer element ``m``.  The
    controller decides on E alone; an ``AnalyzerSweep`` gives each ``m``, so
    a correction builds one EPC, at its end.
    """
    if e < config.e_threshold:
        return ControlResult(epc, 0, True)

    sweep = AnalyzerSweep(sim_context.channel_rot, epc, basis)
    recenters = 0
    for _ in range(config.max_cycles_per_correction):
        for _ in range(4):
            recenters += adjust_squeezer(sweep, sim_context, config)
        if sim_context.evaluate(sweep.swept, basis) < config.e_threshold:
            return ControlResult(epc.with_voltages(sweep.voltages), recenters, True)
    return ControlResult(epc.with_voltages(sweep.voltages), recenters, False)


@dataclass(frozen=True)
class World:
    """Everything outside the controllers: channel, source, link, axis drift."""

    channel: ChannelModel
    source: SourceParams
    eta: float
    axis_drift_sigma: float = 0.0
    max_axis_wander: float = DEFAULT_MAX_AXIS_WANDER


# Keys of ``track``'s seed streams.  Stream k equals the k-th child that
# ``spawn`` of the seed's ``SeedSequence`` would give, but ``_stream`` builds it directly.
_CHANNEL, _DRIFT, _MONITOR, _CTRL_Z, _CTRL_X = range(5)


def _stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """The package's one way to build a random stream: Philox keyed by ``seed`` and ``key``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def track(
    z_epc: EpcState,
    x_epc: EpcState,
    config: ControllerConfig,
    world: World,
    duration: int,
    *,
    control_enabled: bool = True,
    seed: int = 0,
    spawn_key: tuple[int, ...] = (),
) -> TimeSeries:
    """Run ``duration`` feedback cycles against an evolving world.

    Per cycle: advance the channel and squeezer-axis drift, draw the revealed
    tally of one monitoring batch, estimate the error rate and per-basis
    feedback signals from it, then (when control is enabled) run one control
    cycle per basis, Z first; the row holds that cycle's recenters and
    convergence.  ``config`` tunes both controllers and sizes the monitoring
    batch.  Uses separate keyed seed streams for the channel, the axis drift,
    the monitoring batches, and each controller, so paired-seed runs with
    control on and off see the same channel trajectory, and the same seed
    gives the same series every time.  ``seed`` is an int; stream k is
    ``_stream(seed, (*spawn_key, k))``, so ``spawn_key`` prefixes every
    stream's key.  The channel, drift and monitor streams are built up
    front; a controller's stream is built at its basis's first correction
    and kept for the rest of the run, so a run that never corrects never
    builds it.  Its key fixes its draws, so when it is built changes no
    output.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")

    rng_channel, rng_drift, rng_monitor = (
        _stream(seed, (*spawn_key, key)) for key in (_CHANNEL, _DRIFT, _MONITOR))
    rng_ctrl = {}  # basis -> its controller's stream, built at that basis's first correction

    def drifted(epc: EpcState) -> EpcState:
        return drift_axes(
            epc, rng_drift, sigma=world.axis_drift_sigma, max_wander=world.max_axis_wander
        )

    def controlled(epc, e, basis, ch_rot) -> ControlResult:
        # A hold (e below threshold) makes no evaluation, so only a
        # correction gets a context, and only a correction needs a stream.
        ctx = None
        if not e < config.e_threshold:
            if basis not in rng_ctrl:
                key = (*spawn_key, _CTRL_Z if basis == "Z" else _CTRL_X)
                rng_ctrl[basis] = _stream(seed, key)
            ctx = MonteCarloContext(ch_rot, world.source, world.eta, config, rng_ctrl[basis])
        return control_cycle(epc, e, basis, ctx, config)

    channel = world.channel
    rows = []
    for cycle in range(1, duration + 1):
        channel, ch_rot = channel_step(channel, rng_channel)
        z_epc = drifted(z_epc)
        x_epc = drifted(x_epc)

        cells = sifted_cell_probs(
            analyzer_element(ch_rot, z_epc, "Z"),
            analyzer_element(ch_rot, x_epc, "X"),
            world.source,
            world.eta,
        )
        revealed = simulate_batch(
            config.batch_pulses, _revealed_cells(cells, config.sample_fraction), rng_monitor
        )

        data_ok = True
        try:
            qber_est = qber_from_tally(revealed)
            e_z = feedback_error(revealed, "Z")
            e_x = feedback_error(revealed, "X")
        except InsufficientDataError:
            qber_est = e_z = e_x = math.nan
            data_ok = False

        recenters, converged = 0, data_ok
        if control_enabled and data_ok:
            try:
                z = controlled(z_epc, e_z, "Z", ch_rot)
                z_epc, recenters = z.epc, z.recenters
                x = controlled(x_epc, e_x, "X", ch_rot)
                x_epc, recenters = x.epc, recenters + x.recenters
                converged = z.converged and x.converged
            except InsufficientDataError:  # a starved X correction keeps what Z did
                converged = False

        rows.append(TimeSeriesRow(
            cycle, cycle * CYCLE_SECONDS, qber_est, e_z, e_x,
            z_epc.voltages + x_epc.voltages, recenters, converged,
        ))
    return TimeSeries(tuple(rows))
