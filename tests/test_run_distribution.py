"""Run-level distribution equivalence, checked with the KS kit of ``conftest``.

Each sample is ``RUNS`` seeded runs of ``CYCLES`` cycles of the ``scramble04``
preset, whose saturated controller makes about 15 plant evaluations per
cycle.  Every comparison uses disjoint seed sets.  The kit must pass two
seed sets of unchanged code and flag a misalignment floor of 0.015 against
the preset's 0.012.  It then shows two changed random streams equal in
distribution to the streams they replaced: at desk scale, the squeezer axes
tipped from one block of draws against the former per-axis draws
(``optics_oracle.drift_axes``); at ``--full``, where a tenth of the sifted
bits is revealed, the revealed tally drawn in one batch against a sifted
draw followed by the thinning reference (``per_pulse_oracle.reveal_sample``).
At this size the critical KS distance is about 0.22.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import pytest

import optics_oracle
from poltrack import feedback
from poltrack.harness import preset_config
from poltrack.photon_sim import simulate_batch

from conftest import compare_runs, ks_critical, ks_distance, scenario_run_metrics
from per_pulse_oracle import reveal_sample

RUNS = 150
CYCLES = 30
SCRAMBLE = replace(preset_config("scramble04"), duration=CYCLES)
SCRAMBLE_FULL = replace(preset_config("scramble04", full=True), duration=CYCLES)


def seed_set(k: int) -> range:
    return range(10_000 * (k + 1), 10_000 * (k + 1) + RUNS)


# cached: the comparisons below share the samples of unchanged code
@functools.cache
def scramble_run(seed: int) -> dict[str, float]:
    return scenario_run_metrics(replace(SCRAMBLE, seed=seed))


def scramble_full_run(seed: int) -> dict[str, float]:
    return scenario_run_metrics(replace(SCRAMBLE_FULL, seed=seed))


def differing(gaps) -> dict[str, tuple[float, float]]:
    return {name: gap for name, gap in gaps.items() if gap[0] > gap[1]}


def test_two_seed_sets_of_unchanged_code_agree():
    gaps = compare_runs(scramble_run, scramble_run, seed_set(0), seed_set(1))
    assert differing(gaps) == {}, gaps


def test_block_drift_matches_the_former_drift(monkeypatch):
    def former(seed):
        with monkeypatch.context() as patch:
            patch.setattr(
                feedback, "drift_axes",
                lambda epc, rng, **kw: optics_oracle.drift_axes(epc, 1, rng, **kw),
            )
            return scramble_run.__wrapped__(seed)

    gaps = compare_runs(former, scramble_run, seed_set(2), seed_set(0))
    assert differing(gaps) == {}, gaps


def test_folded_reveal_matches_a_sifted_draw_then_thinning(monkeypatch):
    fraction = SCRAMBLE_FULL.controller.sample_fraction
    assert fraction < 1.0

    def draw_then_thin(n_pulses, cells, rng):
        return reveal_sample(simulate_batch(n_pulses, cells, rng), fraction, rng)

    def former(seed):
        # the sifted cells go unscaled into the draw, and the thinning follows it
        with monkeypatch.context() as patch:
            patch.setattr(feedback, "_revealed_cells", lambda cells, fraction: cells)
            patch.setattr(feedback, "simulate_batch", draw_then_thin)
            return scramble_full_run(seed)

    gaps = compare_runs(former, scramble_full_run, seed_set(4), seed_set(5))
    assert differing(gaps) == {}, gaps


def test_flags_a_higher_misalignment_floor():
    source = replace(SCRAMBLE.source, misalignment_floor=0.015)

    def raised_floor(seed):
        return scenario_run_metrics(replace(SCRAMBLE, source=source, seed=seed))

    gaps = compare_runs(raised_floor, scramble_run, seed_set(3), seed_set(1))
    assert {"mean_qber", "evaluations"} <= set(differing(gaps)), gaps


def test_ks_distance_is_the_largest_cdf_gap():
    a = [0.0, 1.0, 2.0, 3.0]
    assert ks_distance(a, a) == 0.0
    assert ks_distance(a, [10.0, 11.0]) == 1.0
    assert ks_distance(a, [x + 1e-9 for x in a]) == ks_distance([x + 1e-9 for x in a], a) == 0.25
    # ties: the CDFs are compared after every copy of a value
    assert ks_distance([1.0, 1.0, 2.0, 2.0], [1.0, 2.0, 2.0, 2.0]) == 0.25


def test_ks_critical_is_the_kolmogorov_bound():
    # the textbook large-sample constant: 1.358 at a 5 % false-alarm rate
    assert ks_critical(1000, 1000, 0.05) * math.sqrt(500) == pytest.approx(1.358, abs=1e-3)
    assert ks_critical(RUNS, RUNS, 0.01 / 7) == pytest.approx(0.22, abs=0.005)
