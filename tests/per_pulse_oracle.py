"""Independent reference plant and per-pulse sampler for ``photon_sim``.

``click_prob_table`` builds the per-detector click probabilities of all eight
(alice state, bob arm) combos the long way: each signal state is rotated
through the channel and the arm's EPC with the public ``apply_rotation`` and
projected onto the arm's analyzer with ``projection_probability``.  It shares
no code with the plant under test.  ``projection_probability`` and the named
signal states ``H``, ``V``, ``DIAG`` and ``ANTIDIAG`` live here because only
this oracle and the tests use them.  ``sifted_cells`` folds its matched rows
into the eight sifted-cell probabilities in closed form, and
``simulate_batch_per_pulse`` draws every pulse on its own: the combo, one
uniform per detector, a fair race for double clicks and a coin for the
misalignment floor; below a reveal ``fraction`` of 1 it also tosses one coin
per sifted event for the reveal.  Comparing the count-level sampler with the
per-pulse one checks the plant's probability math and the sampler together,
in distribution.  Memory grows with ``n_pulses``; keep batches small.

``reveal_sample`` is the reveal as the package drew it before it folded the
reveal fraction into the batch's cells: a sifted tally thinned with one
binomial draw per cell.  It is the reference the folded draw is checked
against.
"""

from __future__ import annotations

import math

import numpy as np

from poltrack.photon_sim import _COUNT_FIELDS, DetectionTally
from poltrack.poincare import StokesVector, apply_rotation

# The four BB84 signal states.
H = StokesVector(1.0, 0.0, 0.0)
V = StokesVector(-1.0, 0.0, 0.0)
DIAG = StokesVector(0.0, 1.0, 0.0)
ANTIDIAG = StokesVector(0.0, -1.0, 0.0)

# Alice's states in index order: H, V, diagonal, anti-diagonal.
# Index // 2 is the basis (0 = Z, 1 = X), index & 1 the bit.
ALICE_STATES = (H, V, DIAG, ANTIDIAG)
ANALYZERS = (H, DIAG)  # bit-0 detector axis per basis arm
# Table rows (alice_state * 2 + bob_basis) where the bases match, in tally
# order: H and V sent to the Z arm, D and A sent to the X arm.
MATCHED_COMBOS = [0, 2, 5, 7]


def projection_probability(s: StokesVector, analyzer_axis: StokesVector) -> float:
    """Probability that state ``s`` exits the analyzer port at ``analyzer_axis``.

    Equals cos^2 of half the angle between state and analyzer, i.e.
    ``(1 + s . a) / 2``.  The complement port gets exactly ``1 -`` this value:
    projection_probability(s, a) + projection_probability(s, -a) == 1 holds
    exactly in floating point.
    """
    return 0.5 * (1.0 + s.dot(analyzer_axis))


def click_prob_table(channel_rot, epc_rot_z, epc_rot_x, src, eta):
    """Per-detector click probabilities for each (alice state, bob arm) combo.

    Row index is ``alice_state * 2 + bob_basis``; columns are the bit-0 and
    bit-1 detectors of the chosen arm.
    """
    arm_rots = (epc_rot_z, epc_rot_x)
    p0 = np.empty(8)
    p1 = np.empty(8)
    for a, state in enumerate(ALICE_STATES):
        s_ch = apply_rotation(channel_rot, state)
        for b in range(2):
            s = apply_rotation(arm_rots[b], s_ch)
            a0 = min(1.0, max(0.0, projection_probability(s, ANALYZERS[b])))
            a1 = 1.0 - a0
            sig0 = 1.0 - math.exp(-eta * src.mean_photons * a0)
            sig1 = 1.0 - math.exp(-eta * src.mean_photons * a1)
            d = src.dark_count_prob
            p0[a * 2 + b] = 1.0 - (1.0 - sig0) * (1.0 - d)
            p1[a * 2 + b] = 1.0 - (1.0 - sig1) * (1.0 - d)
    return p0, p1


def sifted_cells(channel_rot, epc_rot_z, epc_rot_x, src, eta) -> np.ndarray:
    """The eight sifted-cell probabilities, in tally order, from the table."""
    p0, p1 = click_prob_table(channel_rot, epc_rot_z, epc_rot_x, src, eta)
    p0, p1 = p0[MATCHED_COMBOS], p1[MATCHED_COMBOS]
    # a double click lands on either detector with probability 1/2
    r0 = p0 - 0.5 * p0 * p1
    r1 = p1 - 0.5 * p0 * p1
    f = src.misalignment_floor
    q = np.empty(8)
    q[0::2] = ((1.0 - f) * r0 + f * r1) / 8.0
    q[1::2] = ((1.0 - f) * r1 + f * r0) / 8.0
    return q


def simulate_batch_per_pulse(
    n_pulses, channel_rot, epc_rot_z, epc_rot_x, src, eta, rng, fraction=1.0
) -> DetectionTally:
    p0, p1 = click_prob_table(channel_rot, epc_rot_z, epc_rot_x, src, eta)
    # packed draw: bits are (alice state << 1) | bob basis
    ab = rng.integers(0, 8, size=n_pulses)
    # mismatched-basis pulses never reach the tally, so detector
    # randomness is only drawn for the matched subset
    sub = ab[(ab >> 2) == (ab & 1)]
    k = sub.size
    u0 = rng.random(k)
    u1 = rng.random(k)
    swap = rng.random(k)

    g0 = p0[sub]
    g1 = p1[sub]
    click0 = u0 < g0
    click1 = u1 < g1
    # double clicks: u0/g0 and u1/g1 are iid uniform given both clicked,
    # so the race below is a fair coin
    race = np.where(u0 * g1 < u1 * g0, 0, 1)
    det = np.where(click0 & click1, race, np.where(click0, 0, np.where(click1, 1, -1)))
    flip = (det >= 0) & (swap < src.misalignment_floor)
    det = np.where(flip, 1 - det, det)

    cell = (sub >> 2) * 4 + ((sub >> 1) & 1) * 2 + det
    counted = det >= 0
    if fraction < 1.0:
        counted &= rng.random(k) < fraction  # each sifted event's reveal coin
    counts = np.bincount(cell[counted], minlength=8)
    return DetectionTally(*(int(c) for c in counts), pulses_sent=n_pulses)


def reveal_sample(
    tally: DetectionTally, fraction: float, rng: np.random.Generator
) -> DetectionTally:
    """Publicly revealed subset: each sifted event kept with prob ``fraction``.

    ``pulses_sent`` is carried over unchanged as provenance.  With
    ``fraction`` 1 every event is revealed: the tally itself is returned and
    the generator is not touched.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return tally
    kept = (int(rng.binomial(getattr(tally, f), fraction)) for f in _COUNT_FIELDS)
    return DetectionTally(*kept, pulses_sent=tally.pulses_sent)
