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

The plant reduces to two numbers.  Let M be the rotation matrix of the
composed channel-then-EPC rotation of one arm, and ``m = M[b, b]`` its
diagonal element on that arm's analyzer axis ``e_b`` (``b`` = 0 for Z, 1 for
X).  Alice's states of that basis are ``+e_b`` and ``-e_b``, so the fraction
of light reaching the detector of the state she sent is ``(1 + m) / 2`` and
the wrong detector gets ``(1 - m) / 2``.  ``analyzer_element`` computes ``m``
from one quaternion product, and ``sifted_cell_probs`` turns the two
elements into the probabilities of the eight sifted cells.

Within one batch every pulse sees the same rotations, so every pulse falls
independently into one of eight sifted cells (sent state, detected state)
or into "no sifted detection" with fixed probabilities.  A batch is
therefore sampled at the count level, as a single multinomial draw over
those nine outcomes, at a cost independent of the number of pulses.

Batches are pure functions of their random generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poincare import Rotation, _qprod

BASES = ("Z", "X")
_ROW_LABELS = {"Z": ("H", "V"), "X": ("D", "A")}


class InsufficientDataError(RuntimeError):
    """A tally holds too few counts for the requested statistic."""


class EmptyRowError(InsufficientDataError):
    """A measurement-matrix row has no counts; accumulate more pulses."""

    def __init__(self, basis: str, row: str):
        super().__init__(f"no counts in basis {basis}, row {row}")
        self.basis = basis
        self.row = row


@dataclass(frozen=True)
class SourceParams:
    """Transmitter and detector imperfection parameters.

    ``dark_count_prob`` is per detector per gated pulse.
    ``misalignment_floor`` is the probability that a detection lands in the
    wrong detector regardless of alignment (modulator errors and the like);
    together with dark counts it sets the intrinsic error-rate floor.
    """

    mu: float = 0.1  # mean photons per pulse
    dark_count_prob: float = 1.5e-6
    misalignment_floor: float = 0.012

    def __post_init__(self) -> None:
        if not (self.mu > 0.0):
            raise ValueError("mu must be positive")
        if not (0.0 <= self.dark_count_prob < 1.0):
            raise ValueError("dark_count_prob must be in [0, 1)")
        if not (0.0 <= self.misalignment_floor < 0.5):
            raise ValueError("misalignment_floor must be in [0, 0.5)")


_COUNT_FIELDS = ("n_hh", "n_hv", "n_vh", "n_vv", "n_dd", "n_da", "n_ad", "n_aa")
_TALLY_FIELDS = _COUNT_FIELDS + ("pulses_sent",)


@dataclass(frozen=True)
class DetectionTally:
    """Sifted counts indexed by sent and detected state, per basis.

    Z-basis counts ``n_hh .. n_vv`` and X-basis counts ``n_dd .. n_aa``; the
    first letter is the sent state, the second the detected one.
    """

    n_hh: int = 0
    n_hv: int = 0
    n_vh: int = 0
    n_vv: int = 0
    n_dd: int = 0
    n_da: int = 0
    n_ad: int = 0
    n_aa: int = 0
    pulses_sent: int = 0

    def __post_init__(self) -> None:
        for name in _TALLY_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

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


@dataclass(frozen=True)
class MeasurementMatrix:
    """Row-normalized sent-vs-detected frequencies of one basis."""

    j1: float
    j2: float
    j3: float
    j4: float

    def __post_init__(self) -> None:
        if abs(self.j1 + self.j2 - 1.0) > 1e-12 or abs(self.j3 + self.j4 - 1.0) > 1e-12:
            raise ValueError("measurement matrix rows must sum to 1")
        for j in (self.j1, self.j2, self.j3, self.j4):
            if not (-1e-12 <= j <= 1.0 + 1e-12):
                raise ValueError("matrix entries must be probabilities")


def analyzer_element(channel_rot: Rotation, epc_rot: Rotation, basis: str) -> float:
    """Diagonal element M[b, b] of the channel-then-EPC rotation on basis ``b``.

    ``b`` is the analyzer axis of the arm: H (s1) for Z, diagonal (s2) for X.
    For the composed quaternion ``w + x i + y j + z k`` it is
    ``1 - 2 (y^2 + z^2)`` in Z and ``1 - 2 (x^2 + z^2)`` in X, normalized by
    the product's norm as ``poincare.compose`` does.
    """
    a, c = epc_rot, channel_rot
    w, x, y, z = _qprod((a.w, a.x, a.y, a.z), (c.w, c.x, c.y, c.z))
    n2 = w * w + x * x + y * y + z * z
    if basis == "Z":
        return 1.0 - 2.0 * (y * y + z * z) / n2
    if basis == "X":
        return 1.0 - 2.0 * (x * x + z * z) / n2
    raise ValueError(f"unknown basis {basis!r}")


def sifted_cell_probs(m_z: float, m_x: float, src: SourceParams, eta: float) -> list[float]:
    """Per-pulse probabilities of the eight sifted cells, in tally order.

    ``m_z`` and ``m_x`` are the arms' ``analyzer_element`` values.  Each
    (sent state, arm) combo has probability 1/8; within a matched combo the
    sent state's own detector gets the light fraction ``(1 + m) / 2``, the
    other one the rest.  A double click lands on either detector with
    probability 1/2, and the misalignment floor then moves a detection to
    the other detector.
    """
    mu_eta = eta * src.mu
    no_dark = 1.0 - src.dark_count_prob
    f = src.misalignment_floor
    q = []
    for m in (m_z, m_x):
        a_right = min(1.0, max(0.0, 0.5 * (1.0 + m)))
        p_right = 1.0 - math.exp(-mu_eta * a_right) * no_dark
        p_wrong = 1.0 - math.exp(-mu_eta * (1.0 - a_right)) * no_dark
        half_both = 0.5 * p_right * p_wrong
        r_right = p_right - half_both
        r_wrong = p_wrong - half_both
        right = ((1.0 - f) * r_right + f * r_wrong) / 8.0
        wrong = ((1.0 - f) * r_wrong + f * r_right) / 8.0
        # sent bit 0: (right, wrong); sent bit 1: (wrong, right)
        q += (right, wrong, wrong, right)
    return q


def simulate_batch(
    n_pulses: int,
    channel_rot: Rotation,
    epc_rot_z: Rotation,
    epc_rot_x: Rotation,
    src: SourceParams,
    eta: float,
    rng: np.random.Generator,
) -> DetectionTally:
    """Simulate ``n_pulses`` BB84 pulses and tally matched-basis detections.

    Draws the whole tally at once from its exact multinomial distribution,
    so the cost does not grow with ``n_pulses``.  Deterministic given the
    generator state.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be non-negative")
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must be in (0, 1]")
    q = sifted_cell_probs(
        analyzer_element(channel_rot, epc_rot_z, "Z"),
        analyzer_element(channel_rot, epc_rot_x, "X"),
        src,
        eta,
    )
    q.append(1.0 - sum(q))  # no sifted detection
    counts = rng.multinomial(n_pulses, q)
    return DetectionTally(*counts[:8].tolist(), pulses_sent=n_pulses)


def measurement_matrix(tally: DetectionTally, basis: str) -> MeasurementMatrix:
    """Row-normalize one basis of a tally into a measurement matrix."""
    c00, c01, c10, c11 = tally.counts(basis)
    row0, row1 = c00 + c01, c10 + c11
    labels = _ROW_LABELS[basis]
    if row0 == 0:
        raise EmptyRowError(basis, labels[0])
    if row1 == 0:
        raise EmptyRowError(basis, labels[1])
    return MeasurementMatrix(c00 / row0, c01 / row0, c10 / row1, c11 / row1)


def qber_from_tally(tally: DetectionTally) -> float:
    """Fraction of wrong-detector events among all sifted events."""
    total = tally.sifted_total
    if total == 0:
        raise InsufficientDataError("tally has no sifted events")
    wrong = tally.n_hv + tally.n_vh + tally.n_da + tally.n_ad
    return wrong / total


def reveal_sample(
    tally: DetectionTally, fraction: float, rng: np.random.Generator
) -> DetectionTally:
    """Publicly revealed subset: each sifted event kept with prob ``fraction``.

    The remainder is conceptually retained as key material and not modeled
    further; ``pulses_sent`` is carried over unchanged as provenance.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must be in (0, 1]")
    kept = (int(rng.binomial(getattr(tally, f), fraction)) for f in _COUNT_FIELDS)
    return DetectionTally(*kept, pulses_sent=tally.pulses_sent)
