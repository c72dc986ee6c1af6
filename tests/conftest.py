"""Shared independent oracles and readers for the test suite.

The rotation-matrix oracle is built directly from the axis-angle parameters
via Rodrigues' formula, never from the quaternion code under test.
``table_from_csv`` reads back the estimator-error table that the package
only writes.  ``qber_true`` and ``monte_carlo_sigma`` are the binomial
oracle for the closed-form estimator bound in ``poltrack.stats``.
``squeezer_rotation`` is one EPC stage as a ``Rotation``, which the package
itself only composes on floats.  ``plant_cells`` and ``plant_batch`` give the
eight sifted cells, and one batch drawn from them, of a channel and two arm
EPC rotations, in the per-pulse oracle's argument order.  ``numpy_streams_as_golden`` skips a test
that pins a ``Generator`` stream under another numpy release.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from poltrack.optics import SqueezerState
from poltrack.photon_sim import analyzer_element, sifted_cell_probs, simulate_batch
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


def squeezer_rotation(sq: SqueezerState) -> Rotation:
    """Rotation applied by one squeezer, angle = gain * voltage about its axis."""
    return rotation_from_axis_angle(sq.axis, sq.gain * sq.voltage)


def plant_cells(channel_rot, epc_rot_z, epc_rot_x, src, eta) -> list[float]:
    """The eight sifted-cell probabilities of the whole plant, in tally order."""
    return sifted_cell_probs(
        analyzer_element(channel_rot, epc_rot_z, "Z"),
        analyzer_element(channel_rot, epc_rot_x, "X"),
        src,
        eta,
    )


def plant_batch(n_pulses, channel_rot, epc_rot_z, epc_rot_x, src, eta, rng):
    """``simulate_batch`` of ``n_pulses`` through the whole plant."""
    return simulate_batch(n_pulses, plant_cells(channel_rot, epc_rot_z, epc_rot_x, src, eta), rng)


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
