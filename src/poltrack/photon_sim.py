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

Within one batch every pulse sees the same rotations, so every pulse falls
independently into one of eight sifted cells (sent state, detected state)
or into "no sifted detection" with fixed probabilities.  A batch is
therefore sampled at the count level, as a single multinomial draw over
those nine outcomes, at a cost independent of the number of pulses.

Batches are pure functions of their random generator; tallies from disjoint
generator streams merge by component-wise addition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .poincare import ANTIDIAG, DIAG, H, Rotation, V, apply_rotation, projection_probability

# Alice's states in index order: H, V, diagonal, anti-diagonal.
# Index // 2 is the basis (0 = Z, 1 = X), index & 1 the bit.
_ALICE_STATES = (H, V, DIAG, ANTIDIAG)
_ANALYZERS = (H, DIAG)  # bit-0 detector axis per basis arm
# Click-table rows (alice_state * 2 + bob_basis) where the bases match, in
# tally order: H and V sent to the Z arm, D and A sent to the X arm.
_MATCHED_COMBOS = [0, 2, 5, 7]

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
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")

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

    def __add__(self, other: "DetectionTally") -> "DetectionTally":
        return DetectionTally(
            *(getattr(self, f) + getattr(other, f) for f in _COUNT_FIELDS),
            pulses_sent=self.pulses_sent + other.pulses_sent,
        )


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


def _click_prob_table(
    channel_rot: Rotation,
    epc_rot_z: Rotation,
    epc_rot_x: Rotation,
    src: SourceParams,
    eta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-detector click probabilities for each (alice state, bob arm) combo.

    Row index is ``alice_state * 2 + bob_basis``; columns are the bit-0 and
    bit-1 detectors of the chosen arm.
    """
    arm_rots = (epc_rot_z, epc_rot_x)
    p0 = np.empty(8)
    p1 = np.empty(8)
    for a, state in enumerate(_ALICE_STATES):
        s_ch = apply_rotation(channel_rot, state)
        for b in range(2):
            s = apply_rotation(arm_rots[b], s_ch)
            a0 = min(1.0, max(0.0, projection_probability(s, _ANALYZERS[b])))
            a1 = 1.0 - a0
            sig0 = 1.0 - math.exp(-eta * src.mu * a0)
            sig1 = 1.0 - math.exp(-eta * src.mu * a1)
            d = src.dark_count_prob
            p0[a * 2 + b] = 1.0 - (1.0 - sig0) * (1.0 - d)
            p1[a * 2 + b] = 1.0 - (1.0 - sig1) * (1.0 - d)
    return p0, p1


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
    p0, p1 = _click_prob_table(channel_rot, epc_rot_z, epc_rot_x, src, eta)
    p0, p1 = p0[_MATCHED_COMBOS], p1[_MATCHED_COMBOS]
    # a double click lands on either detector with probability 1/2
    r0 = p0 - 0.5 * p0 * p1
    r1 = p1 - 0.5 * p0 * p1
    f = src.misalignment_floor
    # cells in _COUNT_FIELDS order, then "no sifted detection"; each
    # (alice state, bob arm) combo has probability 1/8
    q = np.empty(9)
    q[0:8:2] = ((1.0 - f) * r0 + f * r1) / 8.0
    q[1:8:2] = ((1.0 - f) * r1 + f * r0) / 8.0
    q[8] = 1.0 - q[:8].sum()
    counts = rng.multinomial(n_pulses, q)
    return DetectionTally(*(int(c) for c in counts[:8]), pulses_sent=n_pulses)


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
