"""Shared independent oracles and readers for the test suite.

The rotation-matrix oracle is built directly from the axis-angle parameters
via Rodrigues' formula, never from the quaternion code under test.
``table_from_csv`` reads back the estimator-error table that the package
only writes.  ``qber_true`` and ``monte_carlo_sigma`` are the binomial
oracle for the closed-form estimator bound in ``poltrack.stats``.
``squeezer_rotation`` is one EPC stage as a ``Rotation``, which the package
itself never builds, and ``with_voltage`` drives one stage of an EPC, which
the package only ever drives all at once.  ``numpy_streams_as_golden`` skips
a test that pins a ``Generator`` stream under another numpy release.

The run-level distribution kit tells whether two ways of running a scenario
are equal in distribution, where a changed random stream rules out a
bitwise comparison.  ``scenario_run_metrics`` reduces one run to its
per-run metrics, ``compare_runs`` draws them over two seed sets from two
seed -> run functions and returns, per metric, the two-sample
Kolmogorov-Smirnov distance ``ks_distance`` and the critical distance
``ks_critical`` at the false-alarm rate ``KS_FALSE_ALARM``, which the metrics
share (each is tested at the rate divided by their number).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from poltrack import feedback
from poltrack.harness import ScenarioConfig, run_scenario
from poltrack.optics import EpcState
from poltrack.poincare import Rotation, StokesVector, rotation_from_axis_angle
from poltrack.stats import EstimatorScenario


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def _major_minor(version: str) -> tuple[str, ...]:
    return tuple(version.split(".")[:2])


# numpy's Generator streams are not guaranteed stable across releases (NEP 19),
# so a test that pins one runs only under the numpy major.minor that made the
# golden files, and is skipped rather than failed under any other.
numpy_streams_as_golden = pytest.mark.skipif(
    _major_minor(np.__version__) != _major_minor(GOLDEN_MANIFEST["numpy"]),
    reason=(
        f"golden files were made with numpy {GOLDEN_MANIFEST['numpy']}; numpy "
        f"{np.__version__} may draw different Generator streams (NEP 19)"
    ),
)


def qber_true(theta: float) -> float:
    """True error rate of a state projected at angle ``theta``: sin^2(theta)."""
    if not (0.0 <= theta <= math.pi / 2.0):
        raise ValueError("theta must be in [0, pi/2]")
    return math.sin(theta) ** 2


def monte_carlo_sigma(
    scn: EstimatorScenario, trials: int, rng: np.random.Generator
) -> float:
    """Empirical standard deviation of the estimated error rate.

    Draws ``trials`` revealed samples of ``sample_b`` sifted events, each
    event wrong with probability sin^2(theta) (binomial proportion model),
    and returns the standard deviation of the per-sample error fraction.
    Serves as the independent oracle for the closed-form bound.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    q = qber_true(scn.theta)
    wrong = rng.binomial(scn.sample_b, q, size=trials)
    return float(np.std(wrong / scn.sample_b))


def rodrigues_matrix(axis, angle: float) -> np.ndarray:
    """3x3 rotation matrix about ``axis`` (unit 3-sequence) by ``angle``."""
    ux, uy, uz = axis
    c = math.cos(angle)
    s = math.sin(angle)
    k = 1.0 - c
    return np.array(
        [
            [c + ux * ux * k, ux * uy * k - uz * s, ux * uz * k + uy * s],
            [uy * ux * k + uz * s, c + uy * uy * k, uy * uz * k - ux * s],
            [uz * ux * k - uy * s, uz * uy * k + ux * s, c + uz * uz * k],
        ]
    )


def squeezer_rotation(epc: EpcState, i: int) -> Rotation:
    """Rotation applied by squeezer ``i``, angle = gain * voltage about its axis."""
    return rotation_from_axis_angle(StokesVector(*epc.axes[i]), epc.gains[i] * epc.voltages[i])


def with_voltage(epc: EpcState, i: int, voltage: float) -> EpcState:
    """Copy of ``epc`` with squeezer ``i`` driven at ``voltage``."""
    return epc.with_voltages(epc.voltages[:i] + (voltage,) + epc.voltages[i + 1:])


def random_unit(rng: np.random.Generator) -> tuple[float, float, float]:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return (float(v[0]), float(v[1]), float(v[2]))


def random_axis_angle(rng: np.random.Generator, max_angle: float = 2.0 * math.pi):
    return random_unit(rng), float(rng.uniform(0.0, max_angle))


def random_rotation(rng: np.random.Generator) -> Rotation:
    axis, angle = random_axis_angle(rng)
    return rotation_from_axis_angle(StokesVector(*axis), angle)


def stokes_from_projection_angle(theta: float, retardation: float = 0.0) -> StokesVector:
    """Stokes vector of the analyzed state for a given projection angle.

    With amplitudes (cos(theta) e^{i phi}, sin(theta)) on (H, V) the Stokes
    components are (cos 2theta, sin 2theta cos phi, sin 2theta sin phi).
    """
    return StokesVector(
        math.cos(2.0 * theta),
        math.sin(2.0 * theta) * math.cos(retardation),
        math.sin(2.0 * theta) * math.sin(retardation),
    )


def table_from_csv(text: str):
    """Parse a table CSV back into (qber_values, b_values, cells)."""
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    if header[0] != "B":
        raise ValueError("bad table header")
    qber_values = tuple(float(q) for q in header[1:])
    b_values = []
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        b_values.append(int(parts[0]))
        rows.append([float(x) for x in parts[1:]])
    return qber_values, tuple(b_values), np.array(rows)


# Chance that ``compare_runs`` flags at least one metric of two run functions
# that are equal in distribution (a bound; discrete metrics flag less often).
KS_FALSE_ALARM = 0.01


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the samples' CDFs."""
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical(n: int, m: int, alpha: float) -> float:
    """KS distance that samples of sizes ``n`` and ``m`` of one distribution pass with
    probability at least ``1 - alpha``, from the asymptotic Kolmogorov bound
    P(sqrt(n m / (n + m)) D > c) <= 2 exp(-2 c^2)."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0) * (n + m) / (n * m))


def scenario_run_metrics(cfg: ScenarioConfig) -> dict[str, float]:
    """Per-run metrics of one scenario run.

    QBER mean and std over the run and at its last cycle; the corrections
    (basis-cycles whose measured E reached ``e_threshold``), the control
    evaluations (batches beyond one monitoring batch per cycle), the
    recenters and the non-converged cycles.
    """
    draws = 0
    draw = feedback.simulate_batch

    def counted(*args):
        nonlocal draws
        draws += 1
        return draw(*args)

    feedback.simulate_batch = counted
    try:
        series, summary = run_scenario(cfg)
    finally:
        feedback.simulate_batch = draw
    threshold = cfg.controller.e_threshold
    return {
        "mean_qber": summary.mean_qber,
        "std_qber": summary.std_qber,
        "last_qber": series.rows[-1].qber_est,
        "corrections": sum((row.e_z >= threshold) + (row.e_x >= threshold) for row in series),
        "evaluations": draws - len(series),
        "recenters": summary.recenter_events,
        "nonconverged": summary.nonconverged_cycles,
    }


def compare_runs(run_a, run_b, seeds_a, seeds_b, false_alarm: float = KS_FALSE_ALARM):
    """Per metric, ``(D, critical D)`` between ``run_a`` over ``seeds_a`` and ``run_b``
    over ``seeds_b``.

    Each run function maps a seed to a dict of per-run metrics, as
    ``scenario_run_metrics`` gives them.  Use disjoint seed sets: the test
    assumes independent samples.  A metric whose D exceeds its critical D
    differs; if the two run functions are equal in distribution, any metric
    does so with probability at most ``false_alarm``.
    """
    a = [run_a(seed) for seed in seeds_a]
    b = [run_b(seed) for seed in seeds_b]
    critical = ks_critical(len(a), len(b), false_alarm / len(a[0]))
    return {
        name: (ks_distance([r[name] for r in a], [r[name] for r in b]), critical)
        for name in a[0]
    }
