"""BB84 pulse simulation producing sifted detection tallies.

Each pulse is a weak coherent state: the sender draws one of the four signal
states uniformly, the state is rotated by the channel and by the receiver
EPC of the (uniformly chosen) measurement arm, and each of the two detectors
behind the polarizing beam splitter clicks with probability
``1 - exp(-eta * mu * A)`` where ``A`` is the fraction of light reaching it.
Dark counts add an independent click probability per detector per gate.
Double clicks are squashed to a uniformly random outcome, and a
misalignment floor sends a detection to the wrong detector.  Only pulses
where the bases matched and a detection occurred enter the tally.

The plant reduces to two numbers, one analyzer element ``m = e_b . R e_b``
per arm (``e_b`` the arm's analyzer axis, R the channel then the arm's EPC),
which this module takes as input: it is computed one way, in ``optics``, the
one home of the plant geometry.  Alice's states of that basis are ``+e_b``
and ``-e_b``, so the fraction of light reaching the detector of the state
she sent is ``(1 + m) / 2`` and the wrong detector gets ``(1 - m) / 2``.
``arm_cell_probs`` turns one element into the probabilities of its arm's
four sifted cells, and ``sifted_cell_probs`` joins the two arms into the
eight cells of a batch.

Within one batch every pulse sees the same rotations, so every pulse falls
independently into one of eight sifted cells (sent state, detected state)
or into "no sifted detection" with fixed probabilities.  A batch is
therefore sampled at the count level, as a single multinomial draw over
those nine outcomes, at a cost independent of the number of pulses.

Batches are pure functions of their random generator.

A controller evaluates the feedback signal many times per correction, each
from one fresh batch, so that path is kept lean: ``optics.AnalyzerSweep``
gives the measured arm's ``m`` in closed form, ``feedback.MonteCarloContext``
computes the other arm's cells once, and every batch is drawn through the
module-level name ``simulate_batch``, which pulse accounting may rebind; it
takes the eight cells and does nothing but the draw.
``DetectionTally`` is built like ``poincare``'s values: its own
``__init__`` validates the counts in one chain of comparisons, names a
field only when one fails, and fills ``__dict__`` directly.

Only revealed bits are read.  A sifted cell of probability q, each event
revealed with probability f, is a cell of probability f q, so ``feedback``
draws the revealed tally in one batch over the scaled cells (unscaled at
f = 1); ``tests/per_pulse_oracle.py`` keeps the draw-then-thin reveal as the
reference.  ``feedback.feedback_error`` reads E from the revealed counts; the
paper's measurement matrix is its reference in ``tests/matrix_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import Checked


class InsufficientDataError(RuntimeError):
    """A tally holds too few counts for the requested statistic."""


class EmptyRowError(InsufficientDataError):
    """One sent state of a basis has no revealed counts; accumulate more pulses."""

    def __init__(self, basis: str, row: str):
        super().__init__(f"no counts in basis {basis}, row {row}")
        self.basis = basis
        self.row = row


@dataclass(frozen=True)
class SourceParams(Checked):
    """Transmitter and detector imperfection parameters.

    ``dark_count_prob`` is per detector per gated pulse.
    ``misalignment_floor`` is the probability that a detection lands in the
    wrong detector regardless of alignment (modulator errors and the like);
    together with dark counts it sets the intrinsic error-rate floor.
    """

    mean_photons: float = 0.1  # per pulse
    dark_count_prob: float = 1.5e-6
    misalignment_floor: float = 0.012

    _RANGES = (
        ("mean_photons", lambda v: v > 0.0, "must be positive"),
        ("dark_count_prob", lambda v: 0.0 <= v < 1.0, "must be in [0, 1)"),
        ("misalignment_floor", lambda v: 0.0 <= v < 0.5, "must be in [0, 0.5)"),
    )


_COUNT_FIELDS = ("n_hh", "n_hv", "n_vh", "n_vv", "n_dd", "n_da", "n_ad", "n_aa")
_TALLY_FIELDS = _COUNT_FIELDS + ("pulses_sent",)


@dataclass(frozen=True, init=False)
class DetectionTally:
    """Sifted counts indexed by sent and detected state, per basis.

    Z-basis counts ``n_hh .. n_vv`` and X-basis counts ``n_dd .. n_aa``; the
    first letter is the sent state, the second the detected one.  Every
    count defaults to 0.
    """

    n_hh: int
    n_hv: int
    n_vh: int
    n_vv: int
    n_dd: int
    n_da: int
    n_ad: int
    n_aa: int
    pulses_sent: int

    def __init__(
        self,
        n_hh: int = 0, n_hv: int = 0, n_vh: int = 0, n_vv: int = 0,
        n_dd: int = 0, n_da: int = 0, n_ad: int = 0, n_aa: int = 0,
        pulses_sent: int = 0,
    ) -> None:
        # One chain of comparisons for the common case; the field is named
        # only on failure.  ``>=`` is False for nan, so a nan count fails
        # like a negative one.
        if not (
            n_hh >= 0 and n_hv >= 0 and n_vh >= 0 and n_vv >= 0 and n_dd >= 0
            and n_da >= 0 and n_ad >= 0 and n_aa >= 0 and pulses_sent >= 0
        ):
            values = (n_hh, n_hv, n_vh, n_vv, n_dd, n_da, n_ad, n_aa, pulses_sent)
            for name, value in zip(_TALLY_FIELDS, values):
                if not value >= 0:
                    raise ValueError(f"{name} must be non-negative")
        self.__dict__.update(
            n_hh=n_hh, n_hv=n_hv, n_vh=n_vh, n_vv=n_vv,
            n_dd=n_dd, n_da=n_da, n_ad=n_ad, n_aa=n_aa,
            pulses_sent=pulses_sent,
        )

    @property
    def sifted_total(self) -> int:
        return (
            self.n_hh + self.n_hv + self.n_vh + self.n_vv
            + self.n_dd + self.n_da + self.n_ad + self.n_aa
        )

    def counts(self, basis: str) -> tuple[int, int, int, int]:
        """Counts of one basis as (bit0->bit0, bit0->bit1, bit1->bit0, bit1->bit1)."""
        if basis == "Z":
            return (self.n_hh, self.n_hv, self.n_vh, self.n_vv)
        if basis == "X":
            return (self.n_dd, self.n_da, self.n_ad, self.n_aa)
        raise ValueError(f"unknown basis {basis!r}")


def arm_cell_probs(m: float, src: SourceParams, eta: float) -> list[float]:
    """Per-pulse probabilities of one arm's four sifted cells, in tally order.

    ``m`` is the arm's analyzer element.  Each (sent state, arm) combo has
    probability 1/8; within a matched combo the sent state's own
    detector gets the light fraction ``(1 + m) / 2``, the other one the
    rest.  A double click lands on either detector with probability 1/2,
    and the misalignment floor then moves a detection to the other detector.
    """
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must be in (0, 1]")
    mu_eta = eta * src.mean_photons
    no_dark = 1.0 - src.dark_count_prob
    f = src.misalignment_floor
    a_right = min(1.0, max(0.0, 0.5 * (1.0 + m)))
    p_right = 1.0 - math.exp(-mu_eta * a_right) * no_dark
    p_wrong = 1.0 - math.exp(-mu_eta * (1.0 - a_right)) * no_dark
    half_both = 0.5 * p_right * p_wrong
    r_right = p_right - half_both
    r_wrong = p_wrong - half_both
    right = ((1.0 - f) * r_right + f * r_wrong) / 8.0
    wrong = ((1.0 - f) * r_wrong + f * r_right) / 8.0
    # sent bit 0: (right, wrong); sent bit 1: (wrong, right)
    return [right, wrong, wrong, right]


def sifted_cell_probs(m_z: float, m_x: float, src: SourceParams, eta: float) -> list[float]:
    """Per-pulse probabilities of the eight sifted cells, in tally order.

    ``m_z`` and ``m_x`` are the arms' analyzer elements; the Z arm's four
    cells come first, then the X arm's (``arm_cell_probs``).
    """
    return arm_cell_probs(m_z, src, eta) + arm_cell_probs(m_x, src, eta)


def simulate_batch(
    n_pulses: int, cells: list[float], rng: np.random.Generator
) -> DetectionTally:
    """Tally ``n_pulses`` BB84 pulses that fall into the eight sifted ``cells``.

    ``cells`` are the per-pulse probabilities in tally order, as
    ``sifted_cell_probs`` gives them or scaled by a reveal fraction; the rest
    of the probability is "no count".  Draws the whole tally at once from its
    exact multinomial distribution, so the cost does not grow with
    ``n_pulses``.  Deterministic given the generator state.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be non-negative")
    if len(cells) != 8:
        raise ValueError(f"expected 8 sifted-cell probabilities, got {len(cells)}")
    counts = rng.multinomial(n_pulses, [*cells, 1.0 - sum(cells)])
    return DetectionTally(*counts[:8].tolist(), pulses_sent=n_pulses)


def qber_from_tally(tally: DetectionTally) -> float:
    """Fraction of wrong-detector events among all sifted events."""
    total = tally.sifted_total
    if total == 0:
        raise InsufficientDataError("tally has no sifted events")
    wrong = tally.n_hv + tally.n_vh + tally.n_da + tally.n_ad
    return wrong / total
