"""Per-pulse reference sampler for ``photon_sim.simulate_batch``.

Draws every pulse on its own: the (alice state, bob arm) combo, one uniform
per detector, a fair race for double clicks and a coin for the misalignment
floor.  It shares the click-probability table with the module under test
and is an independent implementation of everything after it, so comparing
the two checks the count-level sampler in distribution.  Memory grows with
``n_pulses``; keep batches small.
"""

from __future__ import annotations

import numpy as np

from poltrack.photon_sim import DetectionTally, _click_prob_table


def simulate_batch_per_pulse(
    n_pulses, channel_rot, epc_rot_z, epc_rot_x, src, eta, rng
) -> DetectionTally:
    p0, p1 = _click_prob_table(channel_rot, epc_rot_z, epc_rot_x, src, eta)
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
    counts = np.bincount(cell[det >= 0], minlength=8)
    return DetectionTally(*(int(c) for c in counts), pulses_sent=n_pulses)
