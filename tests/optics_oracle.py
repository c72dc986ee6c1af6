"""Reference EPC and random-walk channel models on validated ``poincare`` objects.

This is the object-based EPC composition, axis drift and random-walk channel
step that the package ran before ``poltrack.optics`` moved them onto plain
floats, kept as it was apart from reading the EPC's tuples (the channel step
includes the random axis of numpy scalars it drew).  Every step goes through
the public quaternion API (``rotation_from_axis_angle``, ``compose``,
``apply_rotation``), which ``tests/test_poincare.py`` checks against an
independent rotation-matrix oracle.  The float channel step in
``poltrack.optics`` performs the same operations in the same order, so
``tests/test_optics.py`` requires bitwise equality with this module, not
closeness.  The package's own float EPC rotation equalled ``epc_rotation``
here bit for bit until it left the package.

``analyzer_element_of_rotation`` is the quaternion analyzer element the
package read before ``optics.analyzer_element`` turned vectors instead: the
diagonal element on the arm's analyzer axis of the composed channel-then-EPC
rotation, read from one quaternion product.  ``tests/test_optics.py``
requires the package's element to stay within 4e-15 of it.
``plant_cells`` and ``plant_batch`` give the eight sifted cells, and one
batch drawn from them, of a channel and two arm EPC rotations, in the
per-pulse oracle's argument order.

``drift_axes`` here keeps the former draws, a normal and a uniform per axis
in turn, and tips each axis with a quaternion (``tip``).  The package draws
one block per call and tips in closed form, so ``tests/test_optics.py``
requires its tip to equal ``tip`` to rounding, and
``tests/test_run_distribution.py`` requires runs on the two drifts to agree
in distribution.  The EPC holds its axes as unit float triples; ``tip``,
``_clamp_to_cone`` and ``drift_axes`` take and return triples and build
``StokesVector`` objects inside.

``stokes_tip``, ``stokes_clamp_to_cone`` and ``stokes_drift_axes`` are the
package's closed-form drift as it ran on ``StokesVector`` axes, one block
of draws per call, before the EPC held float triples.  The float drift
performs the same operations in the same order, so ``tests/test_optics.py``
requires its walks to equal these bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np

from poltrack.optics import (
    DEFAULT_AXIS_DRIFT_SIGMA,
    DEFAULT_MAX_AXIS_WANDER,
    NOMINAL_AXES,
    EpcState,
    RandomWalkChannel,
)
from poltrack.photon_sim import sifted_cell_probs, simulate_batch
from poltrack.poincare import (
    Rotation,
    StokesVector,
    _qprod,
    apply_rotation,
    compose,
    rotation_from_axis_angle,
)

from conftest import squeezer_rotation


def epc_rotation(epc: EpcState) -> Rotation:
    """Composite rotation of the whole EPC; light traverses squeezer 1 first."""
    r = squeezer_rotation(epc, 0)
    for i in (1, 2, 3):
        r = compose(squeezer_rotation(epc, i), r)
    return r


def analyzer_element_of_rotation(channel_rot: Rotation, epc_rot: Rotation, basis: str) -> float:
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


def plant_cells(channel_rot, epc_rot_z, epc_rot_x, src, eta) -> list[float]:
    """The eight sifted-cell probabilities of the whole plant, in tally order."""
    return sifted_cell_probs(
        analyzer_element_of_rotation(channel_rot, epc_rot_z, "Z"),
        analyzer_element_of_rotation(channel_rot, epc_rot_x, "X"),
        src,
        eta,
    )


def plant_batch(n_pulses, channel_rot, epc_rot_z, epc_rot_x, src, eta, rng):
    """``simulate_batch`` of ``n_pulses`` through the whole plant."""
    return simulate_batch(n_pulses, plant_cells(channel_rot, epc_rot_z, epc_rot_x, src, eta), rng)


def _tangent_basis(v: StokesVector) -> tuple[StokesVector, StokesVector]:
    """Two orthonormal directions perpendicular to ``v``."""
    ref = (0.0, 0.0, 1.0) if abs(v.s3) < 0.9 else (1.0, 0.0, 0.0)
    cx = v.s2 * ref[2] - v.s3 * ref[1]
    cy = v.s3 * ref[0] - v.s1 * ref[2]
    cz = v.s1 * ref[1] - v.s2 * ref[0]
    e1 = StokesVector.unit(cx, cy, cz)
    e2 = StokesVector.unit(
        v.s2 * e1.s3 - v.s3 * e1.s2,
        v.s3 * e1.s1 - v.s1 * e1.s3,
        v.s1 * e1.s2 - v.s2 * e1.s1,
    )
    return e1, e2


def _clamp_to_cone(axis, nominal, max_wander: float) -> tuple[float, float, float]:
    """Pull the unit triple ``axis`` back onto the wander cone around ``nominal`` if outside."""
    triple, axis, nominal = axis, StokesVector(*axis), StokesVector(*nominal)
    c = axis.dot(nominal)
    if c >= math.cos(max_wander):
        return triple
    t1 = axis.s1 - c * nominal.s1
    t2 = axis.s2 - c * nominal.s2
    t3 = axis.s3 - c * nominal.s3
    tn = math.sqrt(t1 * t1 + t2 * t2 + t3 * t3)
    if tn < 1e-12:
        # antipodal corner case; fall back to an arbitrary tangent direction
        t, _ = _tangent_basis(nominal)
        t1, t2, t3, tn = t.s1, t.s2, t.s3, 1.0
    cw, sw = math.cos(max_wander), math.sin(max_wander)
    return StokesVector.unit(
        cw * nominal.s1 + sw * t1 / tn,
        cw * nominal.s2 + sw * t2 / tn,
        cw * nominal.s3 + sw * t3 / tn,
    ).as_tuple()


def drift_axes(
    epc: EpcState,
    dt: float,
    rng: np.random.Generator,
    *,
    sigma: float = DEFAULT_AXIS_DRIFT_SIGMA,
    max_wander: float = DEFAULT_MAX_AXIS_WANDER,
) -> EpcState:
    """Random mechanical wander of the squeezer axes over ``dt`` feedback cycles.

    Each axis is tipped in a uniformly random tangent direction by an angle
    drawn from N(0, sigma*sqrt(dt)), then clamped to stay within
    ``max_wander`` of its nominal orientation.  Deterministic given the rng.
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if dt == 0 or sigma == 0.0:
        return epc
    scale = sigma * math.sqrt(dt)
    axes = []
    for axis, nominal in zip(epc.axes, NOMINAL_AXES):
        angle = rng.normal(0.0, scale)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        axes.append(_clamp_to_cone(tip(axis, angle, psi), nominal, max_wander))
    return replace(epc, axes=tuple(axes))


def tip(axis, angle: float, psi: float) -> tuple[float, float, float]:
    """The unit triple ``axis`` rotated by ``angle`` about its tangent cos(psi) e1 + sin(psi) e2."""
    axis = StokesVector(*axis)
    e1, e2 = _tangent_basis(axis)
    tip_axis = StokesVector.unit(
        math.cos(psi) * e1.s1 + math.sin(psi) * e2.s1,
        math.cos(psi) * e1.s2 + math.sin(psi) * e2.s2,
        math.cos(psi) * e1.s3 + math.sin(psi) * e2.s3,
    )
    return apply_rotation(rotation_from_axis_angle(tip_axis, angle), axis).as_tuple()


def stokes_clamp_to_cone(
    axis: StokesVector, nominal: StokesVector, cw: float, sw: float
) -> StokesVector:
    """Pull ``axis`` back onto the wander cone around ``nominal`` if outside.

    ``cw`` and ``sw`` are the cosine and sine of the cone's half-angle.
    """
    c = axis.dot(nominal)
    if c >= cw:
        return axis
    t1 = axis.s1 - c * nominal.s1
    t2 = axis.s2 - c * nominal.s2
    t3 = axis.s3 - c * nominal.s3
    tn = math.sqrt(t1 * t1 + t2 * t2 + t3 * t3)
    if tn < 1e-12:
        # antipodal corner case; fall back to an arbitrary tangent direction
        t1, t2, t3 = _tangent_basis(nominal)[0].as_tuple()
        tn = 1.0
    return StokesVector.unit(
        cw * nominal.s1 + sw * t1 / tn,
        cw * nominal.s2 + sw * t2 / tn,
        cw * nominal.s3 + sw * t3 / tn,
    )


def stokes_tip(axis: StokesVector, angle: float, psi: float) -> StokesVector:
    """``axis`` turned by ``angle`` about its tangent t = cos(psi) e1 + sin(psi) e2.

    ``e1, e2`` are ``_tangent_basis(axis)``, a right-handed frame with
    the axis s, so t x s = sin(psi) e1 - cos(psi) e2 and, t being
    perpendicular to s, the turn is cos(angle) s + sin(angle) (t x s),
    renormalized.
    """
    s1, s2, s3 = axis.s1, axis.s2, axis.s3
    (a1, a2, a3), (b1, b2, b3) = (e.as_tuple() for e in _tangent_basis(axis))
    c, s = math.cos(angle), math.sin(angle)
    u, v = s * math.sin(psi), -s * math.cos(psi)
    return StokesVector.unit(
        c * s1 + u * a1 + v * b1, c * s2 + u * a2 + v * b2, c * s3 + u * a3 + v * b3
    )


def stokes_drift_axes(
    axes: tuple[StokesVector, ...],
    rng: np.random.Generator,
    *,
    sigma: float,
    max_wander: float,
    branches: Counter | None = None,
) -> tuple[StokesVector, ...]:
    """One cycle's drift of four ``StokesVector`` axes about ``NOMINAL_AXES``.

    One block of draws: four standard normals (the angles, squeezers in
    order), then four uniforms (the directions).  ``branches``, if given,
    counts the steps that took each branch: ``clamped`` (the tip left the
    cone), ``polar`` (the tip's tangent frame for ``|s3| >= 0.9``) and
    ``antipodal`` (the clamp's fallback tangent).
    """
    if sigma == 0.0:
        return axes
    cw, sw = math.cos(max_wander), math.sin(max_wander)
    normals = rng.standard_normal(4).tolist()
    uniforms = rng.random(4).tolist()
    out = []
    for axis, nominal, z, u in zip(axes, NOMINAL_AXES, normals, uniforms):
        nominal = StokesVector(*nominal)
        tipped = stokes_tip(axis, sigma * z, 2.0 * math.pi * u)
        out.append(stokes_clamp_to_cone(tipped, nominal, cw, sw))
        if branches is not None:
            c = tipped.dot(nominal)
            t = (tipped.s1 - c * nominal.s1, tipped.s2 - c * nominal.s2, tipped.s3 - c * nominal.s3)
            branches["clamped"] += out[-1] is not tipped
            branches["polar"] += abs(axis.s3) >= 0.9
            branches["antipodal"] += c < cw and math.sqrt(sum(x * x for x in t)) < 1e-12
    return tuple(out)


def random_unit_vector(rng: np.random.Generator) -> StokesVector:
    """Isotropically random point on the sphere; its components are numpy scalars."""
    while True:
        x, y, z = rng.normal(size=3)
        n = math.sqrt(x * x + y * y + z * z)
        if n > 1e-12:
            return StokesVector(x / n, y / n, z / n)


def random_walk_step(
    ch: RandomWalkChannel, dt: float, rng: np.random.Generator
) -> tuple[RandomWalkChannel, Rotation]:
    """``optics.channel_step`` of a random-walk channel, one validated object per operation."""
    current = ch.current
    for _ in range(int(dt)):
        axis = random_unit_vector(rng)
        angle = rng.normal(0.0, ch.step_sigma)
        current = compose(rotation_from_axis_angle(axis, angle), current)
    return RandomWalkChannel(ch.step_sigma, current), current
