"""Poincare-sphere geometry: Stokes vectors and axis-angle rotations.

Fully polarized states are unit 3-vectors (normalized Stokes vectors) on the
Poincare sphere, and lossless polarization transformations are rotations of
that sphere.  Rotations are represented as unit quaternions

    q = cos(angle/2) + sin(angle/2) * axis

acting on a state ``s`` by conjugation, ``s' = q s q*``.

Conventions used throughout the package:

* horizontal linear polarization at ``(1, 0, 0)``, vertical at ``(-1, 0, 0)``,
* the 45-degree diagonal at ``(0, 1, 0)``, anti-diagonal at ``(0, -1, 0)``,
* circular states on the ``s3`` poles,
* rotations follow the right-hand rule about their axis.

All types are immutable values and all operations are pure functions, so they
are safe to use concurrently without coordination.

Every feedback cycle builds several of these values, so the frozen value
types on the hot path (here, and ``DetectionTally`` and ``TimeSeriesRow``
elsewhere in the package) write their own ``__init__``: it validates the
arguments as local values and fills the instance ``__dict__`` in one call,
where a dataclass-generated ``__init__`` calls ``object.__setattr__`` once
per field.  They stay frozen dataclasses, so assignment still raises
``FrozenInstanceError``, ``==``, ``hash`` and ``repr`` are generated from
the fields, and ``dataclasses.replace`` re-validates through the same
``__init__``.
``StokesVector`` and ``Rotation`` end their ``__init__`` by calling an empty
``__post_init__``: patching that method on the class is how ``perfbench``'s
tracer counts every construction.

The arithmetic of ``rotation_from_axis_angle``, ``compose`` and
``apply_rotation`` lives in private kernels on plain float tuples
(``_axis_angle_q``, ``_qmul``, ``_rotate``); the public functions wrap them,
and ``optics`` calls them directly on its hot path.  ``_qmul`` renormalizes
the unnormalized product ``_qprod``, so the whole package shares one product
convention, operation order and renormalization.  ``_unit`` is the one
normalize-or-raise rule for a direction, of ``StokesVector.unit`` and of
every axis ``optics`` normalizes.  The acceptance suite checks these
kernels, not only the public functions, against rotation matrices built
from Rodrigues' formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

UNIT_TOL = 1e-9  # norm drift tolerated after arithmetic
AXIS_TOL = 1e-6  # norm slack tolerated for user-supplied axes

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, init=False)
class StokesVector:
    """Unit 3-vector on the Poincare sphere."""

    s1: float
    s2: float
    s3: float

    def __init__(self, s1: float, s2: float, s3: float) -> None:
        n = math.sqrt(s1 * s1 + s2 * s2 + s3 * s3)
        if not math.isfinite(n) or abs(n - 1.0) > UNIT_TOL:
            raise ValueError(f"Stokes vector must have unit norm, got |s| = {n!r}")
        self.__dict__.update(s1=s1, s2=s2, s3=s3)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Runs once per new vector, after validation; a class-level patch counts them."""

    @classmethod
    def unit(cls, s1: float, s2: float, s3: float) -> "StokesVector":
        """Build a StokesVector from an unnormalized direction, by ``_unit``."""
        return cls(*_unit(s1, s2, s3))

    def dot(self, other: "StokesVector") -> float:
        return self.s1 * other.s1 + self.s2 * other.s2 + self.s3 * other.s3

    def __neg__(self) -> "StokesVector":
        return StokesVector(-self.s1, -self.s2, -self.s3)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.s1, self.s2, self.s3)


@dataclass(frozen=True, init=False)
class Rotation:
    """Unit quaternion ``w + x i + y j + z k`` acting on Stokes vectors."""

    w: float
    x: float
    y: float
    z: float

    def __init__(self, w: float, x: float, y: float, z: float) -> None:
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if not math.isfinite(n) or abs(n - 1.0) > UNIT_TOL:
            raise ValueError(f"rotation quaternion must have unit norm, got |q| = {n!r}")
        self.__dict__.update(w=w, x=x, y=y, z=z)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Runs once per new rotation, after validation; a class-level patch counts them."""

    @property
    def angle(self) -> float:
        """Rotation angle in [0, 2*pi)."""
        a = 2.0 * math.acos(min(1.0, max(-1.0, self.w)))
        return math.fmod(a, _TWO_PI)

    @property
    def axis(self) -> StokesVector:
        """Rotation axis; (1, 0, 0) by convention for a (near-)identity rotation."""
        n = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if n < 1e-12:
            return StokesVector(1.0, 0.0, 0.0)
        return StokesVector(self.x / n, self.y / n, self.z / n)


IDENTITY = Rotation(1.0, 0.0, 0.0, 0.0)


def _unit(x: float, y: float, z: float) -> tuple[float, float, float]:
    """``(x, y, z)`` divided by its norm; ValueError if the norm is zero or not finite."""
    n = math.sqrt(x * x + y * y + z * z)
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("cannot normalize a zero or non-finite direction")
    return x / n, y / n, z / n


def _axis_angle_q(
    a1: float, a2: float, a3: float, angle: float
) -> tuple[float, float, float, float]:
    """Quaternion ``(w, x, y, z)`` of ``angle`` about the axis ``(a1, a2, a3)``."""
    n = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    if abs(n - 1.0) > AXIS_TOL:
        raise ValueError(f"rotation axis must be unit length, got |a| = {n!r}")
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    half = 0.5 * angle
    s = math.sin(half) / n
    return math.cos(half), s * a1, s * a2, s * a3


def _qprod(
    outer: tuple[float, float, float, float], inner: tuple[float, float, float, float]
) -> tuple[float, float, float, float]:
    """Quaternion product ``outer * inner`` of two ``(w, x, y, z)``, unnormalized."""
    ow, ox, oy, oz = outer
    iw, ix, iy, iz = inner
    return (
        ow * iw - ox * ix - oy * iy - oz * iz,
        ow * ix + ox * iw + oy * iz - oz * iy,
        ow * iy - ox * iz + oy * iw + oz * ix,
        ow * iz + ox * iy - oy * ix + oz * iw,
    )


def _qmul(
    outer: tuple[float, float, float, float], inner: tuple[float, float, float, float]
) -> tuple[float, float, float, float]:
    """Renormalized quaternion product ``outer * inner`` of two ``(w, x, y, z)``."""
    w, x, y, z = _qprod(outer, inner)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return w / n, x / n, y / n, z / n


def _rotate(
    q: tuple[float, float, float, float], s: tuple[float, float, float]
) -> tuple[float, float, float]:
    """``q s q*`` for a quaternion ``(w, x, y, z)`` and a 3-vector; renormalized."""
    # v' = v + 2w (u x v) + 2 u x (u x v), with u the quaternion vector part.
    w, ux, uy, uz = q
    s1, s2, s3 = s
    cx = uy * s3 - uz * s2
    cy = uz * s1 - ux * s3
    cz = ux * s2 - uy * s1
    dx = uy * cz - uz * cy
    dy = uz * cx - ux * cz
    dz = ux * cy - uy * cx
    v1 = s1 + 2.0 * (w * cx + dx)
    v2 = s2 + 2.0 * (w * cy + dy)
    v3 = s3 + 2.0 * (w * cz + dz)
    n = math.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    return v1 / n, v2 / n, v3 / n


def rotation_from_axis_angle(axis: StokesVector, angle: float) -> Rotation:
    """Quaternion with scalar part cos(angle/2) and vector part sin(angle/2)*axis.

    The axis must be unit length within ``AXIS_TOL``; it is renormalized
    exactly before use so the result satisfies the quaternion norm invariant.
    """
    return Rotation(*_axis_angle_q(axis.s1, axis.s2, axis.s3, angle))


def apply_rotation(r: Rotation, s: StokesVector) -> StokesVector:
    """Rotate a Stokes vector, ``s' = r s r*``; the output is renormalized."""
    return StokesVector(*_rotate((r.w, r.x, r.y, r.z), (s.s1, s.s2, s.s3)))


def compose(outer: Rotation, inner: Rotation) -> Rotation:
    """Quaternion product: apply ``inner`` first, then ``outer``.

    Satisfies apply(compose(b, a), s) == apply(b, apply(a, s)); the result is
    renormalized.
    """
    q = _qmul((outer.w, outer.x, outer.y, outer.z), (inner.w, inner.x, inner.y, inner.z))
    return Rotation(*q)


def inverse(r: Rotation) -> Rotation:
    """Conjugate quaternion, undoing the rotation."""
    return Rotation(r.w, -r.x, -r.y, -r.z)
