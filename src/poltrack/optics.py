"""Physical models of the polarization controller and the fiber channel.

The controllable plant is an electronic polarization controller (EPC) built
from four fiber squeezers.  Each squeezer rotates the state of polarization
about its stress axis by an angle proportional to the applied voltage; the
squeezer axes alternate between two orthogonal equatorial directions, and the
axes themselves wander slowly over time.

The channel between transmitter and receiver is one of three models: a static
misalignment, an isotropic random walk standing in for slow drift of installed
fiber, or a deterministic scrambler that rotates the state about a fixed axis
at a constant rate.

States are immutable values evolved by pure step functions taking explicit
random generators; independent simulation instances may run concurrently.
Every step advances one feedback cycle: ``channel_step`` moves the channel
and ``drift_axes`` the squeezer axes by one cycle's change.

The random-walk step of ``channel_step`` composes quaternions on plain
floats and validates only the rotation it returns.  It calls the float
kernels that the public ``poincare`` quaternion API wraps, so it agrees with
that checked reference bit for bit; ``tests/optics_oracle.py`` keeps the
object-based form.  ``drift_axes`` tips each axis in closed form (``_tip``),
which agrees with the oracle's quaternion tip to rounding, and with the
oracle's ``StokesVector`` form of the same drift bit for bit.

Each random stream is drawn once per step, as one numpy block: four normals
for a random-walk step (``normal(size=3)`` then ``normal(0, sigma)`` give the
same values), four normals then four uniforms for ``drift_axes``.  Blocks
enter the package as Python floats (``.tolist()``).  The IEEE values are the
same, but arithmetic on ``numpy.float64`` scalars is several times slower,
and every value computed from one inherits its type.

Each receiver arm's plant is one number, its analyzer element ``m = e_b .
R e_b`` (``e_b`` the arm's analyzer axis, R the channel then the arm's EPC),
computed one way, by turning vectors: ``analyzer_element`` pushes ``e_b``
through the channel, then turns it through the squeezers in light-path
order.  Along one squeezer's voltage it is a sinusoid, which a correction
reads in closed form from ``AnalyzerSweep``.  ``tests/optics_oracle.py``
keeps the quaternion element of the composed rotation as the reference.  A
squeezer whose angle gain * voltage overflows can be built; reading its
element raises ``ValueError``, and a sweep refuses it up front.

``EpcState`` holds its squeezers as 4-tuples of gains, voltages and current
axes, unit float triples, with one drive range; the nominal axes are the
constant ``NOMINAL_AXES``.  Every EPC, the copies that ``with_voltages`` and
``drift_axes`` return included, is built and checked by its constructor,
each axis by ``StokesVector``'s rule.  Every axis this module normalizes
goes through ``poincare._unit``, the rule ``StokesVector.unit`` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import Checked, tagged
from .poincare import (
    IDENTITY,
    UNIT_TOL,
    Rotation,
    StokesVector,
    _axis_angle_q,
    _qmul,
    _rotate,
    _unit,
    rotation_from_axis_angle,
)

# Voltage-to-angle map is linear, angle = gain * voltage.
DEFAULT_GAIN = math.pi / 75.0  # rad per volt
DEFAULT_V_MIN = 0.0
DEFAULT_V_MAX = 150.0
DEFAULT_GAIN_JITTER = 0.1  # relative squeezer-to-squeezer spread

DEFAULT_AXIS_DRIFT_SIGMA = 0.002  # rad per feedback cycle
DEFAULT_MAX_AXIS_WANDER = math.radians(10.0)  # cone half-angle around nominal

_TWO_PI = 2.0 * math.pi

NOMINAL_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def _out_of_range(voltage: float, v_min: float, v_max: float) -> ValueError:
    return ValueError(f"voltage {voltage!r} outside [{v_min!r}, {v_max!r}]")


@dataclass(frozen=True)
class EpcState:
    """Four fiber squeezers in light-path order, sharing one drive range.

    Squeezer i rotates about its current axis ``axes[i]`` by the angle
    ``gains[i] * voltages[i]``; the axis wanders about ``NOMINAL_AXES[i]``.
    """

    gains: tuple[float, float, float, float]
    voltages: tuple[float, float, float, float]
    axes: tuple[tuple[float, float, float], ...] = NOMINAL_AXES
    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX

    def __post_init__(self) -> None:
        for name in ("gains", "voltages", "axes"):
            if not isinstance(getattr(self, name), tuple):
                raise TypeError(f"{name} must be a tuple")
        if not len(self.gains) == len(self.voltages) == len(self.axes) == 4:
            raise ValueError("an EPC has exactly 4 squeezers")
        v_min, v_max = self.v_min, self.v_max
        if not (v_min < v_max):
            raise ValueError("squeezer voltage range is empty")
        for gain in self.gains:
            if not (gain > 0.0 and math.isfinite(gain)):
                raise ValueError("squeezer gain must be positive and finite")
        for voltage in self.voltages:
            if not (v_min <= voltage <= v_max):
                raise _out_of_range(voltage, v_min, v_max)
        for axis in self.axes:  # StokesVector's rule, on a triple
            try:
                a1, a2, a3 = axis if type(axis) is tuple and len(axis) == 3 else None
                n = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
            except TypeError:
                raise TypeError("axes must be tuples of 3 numbers") from None
            if not math.isfinite(n) or abs(n - 1.0) > UNIT_TOL:
                raise ValueError(f"axes must have unit norm, got |a| = {n!r}")

    @property
    def center(self) -> float:
        """Center of the drive range, the reset target for endless control."""
        return 0.5 * (self.v_min + self.v_max)

    def with_voltages(self, voltages) -> "EpcState":
        """Copy with the squeezers driven at ``voltages``, in light-path order."""
        return EpcState(self.gains, tuple(voltages), self.axes, self.v_min, self.v_max)


def default_epc(
    rng: np.random.Generator | None = None,
    *,
    gain: float = DEFAULT_GAIN,
    gain_jitter: float = 0.0,
    v_min: float = DEFAULT_V_MIN,
    v_max: float = DEFAULT_V_MAX,
) -> EpcState:
    """EPC with nominal axes, all voltages at the range center.

    ``gain_jitter`` models squeezer-to-squeezer inconsistency: each stage's
    gain is drawn uniformly within ``gain * (1 +/- gain_jitter)``.
    """
    if gain_jitter > 0.0 and rng is None:
        raise ValueError("gain_jitter requires an rng")
    gains = (gain,) * 4
    if gain_jitter > 0.0:
        gains = tuple(gain * (1.0 + gain_jitter * rng.uniform(-1.0, 1.0)) for _ in range(4))
    center = 0.5 * (v_min + v_max)
    return EpcState(gains, (center,) * 4, NOMINAL_AXES, v_min, v_max)


_ANALYZER_INDEX = {"Z": 0, "X": 1}  # arm -> its analyzer axis: s1 (H) or s2 (diagonal)
_ANALYZER_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def _sent_through(channel_rot: Rotation, basis: str) -> tuple[int, tuple[float, float, float]]:
    """The arm's analyzer index b, and its sent state ``e_b`` after the channel."""
    if basis not in _ANALYZER_INDEX:
        raise ValueError(f"unknown basis {basis!r}")
    b, q = _ANALYZER_INDEX[basis], channel_rot
    return b, _rotate((q.w, q.x, q.y, q.z), _ANALYZER_AXES[b])


def _turn(a, c: float, s: float, v) -> tuple[float, float, float]:
    """``v`` turned about the unit axis ``a`` by the angle of cosine ``c``, sine ``s``."""
    a1, a2, a3 = a
    v1, v2, v3 = v
    k = (1.0 - c) * (a1 * v1 + a2 * v2 + a3 * v3)
    return (
        c * v1 + s * (a2 * v3 - a3 * v2) + k * a1,
        c * v2 + s * (a3 * v1 - a1 * v3) + k * a2,
        c * v3 + s * (a1 * v2 - a2 * v1) + k * a3,
    )


class AnalyzerSweep:
    """One arm's analyzer element along each squeezer of its EPC, in closed form.

    The element is ``analyzer_element``'s ``m = e_b . R e_b``.  Let
    ``a`` be squeezer i's unit axis and theta = gain * v its angle, ``w`` the
    analyzer axis ``e_b`` pushed forward through the channel and the stages
    before i, and ``u`` the axis ``e_b`` pulled back through the stages after i:

        m(theta) = (u.a)(a.w) + cos(theta) [u.w - (u.a)(a.w)] + sin(theta) u.(a x w).

    Sweeps visit squeezers 0..3 in order, as the controller does, and the
    sweep owns its position ``at``.  A sweep begins by pulling the ``u``'s
    back through the current stages; ``element(v)`` reads the sinusoid of the
    squeezer the sweep is at, and ``land(v)`` drives that squeezer at ``v``,
    turns ``w`` on through it and moves to the next.  The fourth landing sets
    ``swept``, ``w`` on ``e_b``, and begins the next sweep.  The channel
    is frozen and the sweep owns its arm's ``voltages`` for one correction.
    Each voltage read is range-checked as ``EpcState`` checks its voltages,
    and a drive range that could overflow the angle is refused up front.
    """

    def __init__(self, channel_rot: Rotation, epc: EpcState, basis: str):
        self._b, self._w0 = _sent_through(channel_rot, basis)
        self.basis, self.epc, self.voltages = basis, epc, list(epc.voltages)
        self._e = _ANALYZER_AXES[self._b]
        reach = max(abs(epc.v_min), abs(epc.v_max))
        if not all(math.isfinite(gain * reach) for gain in epc.gains):
            raise ValueError("rotation angle must be finite")
        self._axes = [_unit(*a) for a in epc.axes]  # unit to UNIT_TOL, so renormalized
        self.swept = None  # the element after the last complete sweep
        self._begin()

    def _begin(self) -> None:
        u = self._e
        self._u = [u, u, u, u]
        for i in (3, 2, 1):
            theta = self.epc.gains[i] * self.voltages[i]
            u = self._u[i - 1] = _turn(self._axes[i], math.cos(theta), -math.sin(theta), u)
        self._w = self._w0
        self._move_to(0)

    def _move_to(self, i: int) -> None:
        self.at = i  # the squeezer the sweep is at
        (u1, u2, u3), (a1, a2, a3), (w1, w2, w3) = self._u[i], self._axes[i], self._w
        fixed = (u1 * a1 + u2 * a2 + u3 * a3) * (a1 * w1 + a2 * w2 + a3 * w3)
        self._line = (
            fixed,
            u1 * w1 + u2 * w2 + u3 * w3 - fixed,
            u1 * (a2 * w3 - a3 * w2) + u2 * (a3 * w1 - a1 * w3) + u3 * (a1 * w2 - a2 * w1),
        )

    def element(self, voltage: float) -> float:
        """Analyzer element with the squeezer the sweep is at driven at ``voltage``."""
        epc = self.epc
        if not (epc.v_min <= voltage <= epc.v_max):
            raise _out_of_range(voltage, epc.v_min, epc.v_max)
        fixed, cos_part, sin_part = self._line
        theta = epc.gains[self.at] * voltage
        return fixed + cos_part * math.cos(theta) + sin_part * math.sin(theta)

    def land(self, voltage: float) -> None:
        """Drive the current squeezer at ``voltage`` and move the sweep on to the next."""
        i = self.at
        self.voltages[i] = voltage
        theta = self.epc.gains[i] * voltage
        self._w = _turn(self._axes[i], math.cos(theta), math.sin(theta), self._w)
        if i < 3:
            self._move_to(i + 1)
        else:
            self.swept = self._w[self._b]
            self._begin()


def analyzer_element(channel_rot: Rotation, epc: EpcState | None, basis: str) -> float:
    """The analyzer element ``m = e_b . R e_b`` of one arm, R the channel then ``epc``.

    ``e_b`` is turned through the squeezers as ``AnalyzerSweep`` lands them,
    each about its axis divided by its norm; ``m`` is component b of the
    result.  ``epc=None`` reads the arm behind no EPC, the channel alone.
    """
    b, w = _sent_through(channel_rot, basis)
    if epc is not None:
        for a, gain, voltage in zip(epc.axes, epc.gains, epc.voltages):
            theta = gain * voltage
            w = _turn(_unit(*a), math.cos(theta), math.sin(theta), w)
    return w[b]


def _tangent_basis(
    v1: float, v2: float, v3: float
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Two orthonormal directions perpendicular to the unit vector ``v``."""
    r1, r2, r3 = (0.0, 0.0, 1.0) if abs(v3) < 0.9 else (1.0, 0.0, 0.0)
    cx = v2 * r3 - v3 * r2
    cy = v3 * r1 - v1 * r3
    cz = v1 * r2 - v2 * r1
    n = math.sqrt(cx * cx + cy * cy + cz * cz)
    e1 = (cx / n, cy / n, cz / n)
    dx = v2 * e1[2] - v3 * e1[1]
    dy = v3 * e1[0] - v1 * e1[2]
    dz = v1 * e1[1] - v2 * e1[0]
    n = math.sqrt(dx * dx + dy * dy + dz * dz)
    return e1, (dx / n, dy / n, dz / n)


def _clamp_to_cone(axis, nominal, cw: float, sw: float) -> tuple[float, float, float]:
    """Pull ``axis`` back onto the wander cone around ``nominal`` if outside.

    ``cw`` and ``sw`` are the cosine and sine of the cone's half-angle.
    """
    (s1, s2, s3), (n1, n2, n3) = axis, nominal
    c = s1 * n1 + s2 * n2 + s3 * n3
    if c >= cw:
        return axis
    t1, t2, t3 = s1 - c * n1, s2 - c * n2, s3 - c * n3
    tn = math.sqrt(t1 * t1 + t2 * t2 + t3 * t3)
    if tn < 1e-12:
        # antipodal corner case; fall back to an arbitrary tangent direction
        (t1, t2, t3), _ = _tangent_basis(n1, n2, n3)
        tn = 1.0
    return _unit(cw * n1 + sw * t1 / tn, cw * n2 + sw * t2 / tn, cw * n3 + sw * t3 / tn)


def _tip(axis, angle: float, psi: float) -> tuple[float, float, float]:
    """``axis`` turned by ``angle`` about its tangent t = cos(psi) e1 + sin(psi) e2.

    ``e1, e2`` are ``_tangent_basis(axis)``, a right-handed frame with the
    axis s, so t x s = sin(psi) e1 - cos(psi) e2 and, t being perpendicular
    to s, the turn is cos(angle) s + sin(angle) (t x s), renormalized.
    """
    s1, s2, s3 = axis
    (a1, a2, a3), (b1, b2, b3) = _tangent_basis(s1, s2, s3)
    c, s = math.cos(angle), math.sin(angle)
    u, v = s * math.sin(psi), -s * math.cos(psi)
    return _unit(c * s1 + u * a1 + v * b1, c * s2 + u * a2 + v * b2, c * s3 + u * a3 + v * b3)


def drift_axes(
    epc: EpcState,
    rng: np.random.Generator,
    *,
    sigma: float = DEFAULT_AXIS_DRIFT_SIGMA,
    max_wander: float = DEFAULT_MAX_AXIS_WANDER,
) -> EpcState:
    """Random mechanical wander of the squeezer axes over one feedback cycle.

    Each axis is tipped in a uniformly random tangent direction by an angle
    drawn from N(0, sigma), then clamped to stay within ``max_wander`` of its
    nominal orientation.  One call draws one block: four standard normals
    (the angles, squeezers in order), then four uniforms (the directions).
    Deterministic given the rng.
    """
    if sigma == 0.0:
        return epc
    cw, sw = math.cos(max_wander), math.sin(max_wander)
    normals = rng.standard_normal(4).tolist()
    uniforms = rng.random(4).tolist()
    axes = tuple([
        _clamp_to_cone(_tip(axis, sigma * z, _TWO_PI * u), nominal, cw, sw)
        for axis, nominal, z, u in zip(epc.axes, NOMINAL_AXES, normals, uniforms)
    ])
    return EpcState(epc.gains, epc.voltages, axes, epc.v_min, epc.v_max)


@dataclass(frozen=True)
class StaticChannel:
    """Fixed misalignment between transmitter and receiver frames."""

    rotation: Rotation


@dataclass(frozen=True)
class ScramblerChannel:
    """Deterministic rotation about a fixed axis at a constant angular rate."""

    axis: StokesVector
    rate: float  # degrees per feedback cycle
    accumulated: float = 0.0  # degrees, wraps modulo 360


@dataclass(frozen=True)
class RandomWalkChannel:
    """Isotropic small-step rotation diffusion, a stand-in for slow fiber drift.

    Each cycle adds one step of N(0, step_sigma) radians about a fresh,
    isotropically random axis.
    """

    step_sigma: float  # radians per feedback cycle
    current: Rotation = IDENTITY


ChannelModel = StaticChannel | ScramblerChannel | RandomWalkChannel


def channel_step(ch: ChannelModel, rng: np.random.Generator) -> tuple[ChannelModel, Rotation]:
    """Advance the channel by one feedback cycle.

    Returns the updated model and the rotation the channel currently applies.
    """
    if isinstance(ch, StaticChannel):
        return ch, ch.rotation
    if isinstance(ch, ScramblerChannel):
        accumulated = (ch.accumulated + ch.rate) % 360.0
        rot = rotation_from_axis_angle(ch.axis, math.radians(accumulated))
        return ScramblerChannel(ch.axis, ch.rate, accumulated), rot
    if isinstance(ch, RandomWalkChannel):
        # an isotropic axis from three normals, then the angle's normal
        x, y, z, g = rng.standard_normal(4).tolist()
        n = math.sqrt(x * x + y * y + z * z)
        while not n > 1e-12:  # a null axis: redraw it as a rejection loop would
            x, y, z, g = g, *rng.standard_normal(3).tolist()
            n = math.sqrt(x * x + y * y + z * z)
        c = ch.current
        q = _qmul(_axis_angle_q(x / n, y / n, z / n, ch.step_sigma * g), (c.w, c.x, c.y, c.z))
        current = Rotation(*q)
        return RandomWalkChannel(ch.step_sigma, current), current
    raise TypeError(f"unknown channel model {type(ch).__name__}")


@dataclass(frozen=True)
class LinkBudget(Checked):
    """Fiber loss plus receiver detection efficiency."""

    alpha_db_per_km: float = tagged(
        0.2, "literature",
        "standard single-mode fiber at 1550 nm; Gisin et al., Rev. Mod. Phys. 74, 145 (2002)")
    length_km: float = tagged(0.0, "desk", "no fiber, so that a small batch reveals enough bits")
    eta_bob: float = tagged(  # receiver detection efficiency
        1.0, "desk", "an ideal detector, so that a small batch reveals enough bits")

    _RANGES = (
        ("alpha_db_per_km", lambda v: v >= 0.0, "must be non-negative"),
        ("length_km", lambda v: v >= 0.0, "must be non-negative"),
        ("eta_bob", lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    )


def transmittance(lb: LinkBudget) -> float:
    """Overall transmission and detection efficiency, 10^(-alpha*l/10) * eta_bob."""
    return 10.0 ** (-lb.alpha_db_per_km * lb.length_km / 10.0) * lb.eta_bob
