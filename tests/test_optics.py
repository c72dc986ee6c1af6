import math
from dataclasses import replace

import numpy as np
import pytest

import optics_oracle
from poltrack import optics, poincare
from poltrack.optics import (
    AnalyzerSweep,
    EpcState,
    NOMINAL_AXES,
    LinkBudget,
    RandomWalkChannel,
    ScramblerChannel,
    StaticChannel,
    channel_step,
    default_epc,
    drift_axes,
    epc_rotation,
    transmittance,
)
from poltrack.photon_sim import analyzer_element
from poltrack.poincare import (
    IDENTITY,
    StokesVector,
    apply_rotation,
    compose,
    inverse,
    rotation_from_axis_angle,
)

from conftest import (
    numpy_streams_as_golden,
    random_unit,
    rodrigues_matrix,
    squeezer_rotation,
    with_voltage,
)

S1 = StokesVector(1.0, 0.0, 0.0)
S2 = StokesVector(0.0, 1.0, 0.0)
S3 = StokesVector(0.0, 0.0, 1.0)


def one_stage(voltage=75.0, gain=math.pi / 75, axis=S1, v_max=150.0):
    """EPC whose first squeezer alone is driven; the other three sit at 0 V."""
    return EpcState((gain,) * 4, (voltage, 0.0, 0.0, 0.0), (axis, S2, S1, S2), v_max=v_max)


class TestSqueezer:
    def test_zero_voltage_is_identity(self):
        epc = one_stage(voltage=0.0, gain=0.1)
        assert squeezer_rotation(epc, 0).angle == 0.0
        assert epc_rotation(epc).angle == 0.0

    def test_linear_voltage_map(self):
        epc = one_stage(voltage=5.0, gain=math.pi / 10, v_max=10.0)
        for r in (squeezer_rotation(epc, 0), epc_rotation(epc)):
            assert r.angle == pytest.approx(math.pi / 2, abs=1e-12)
            assert r.axis.as_tuple() == pytest.approx(S1.as_tuple())

    def test_coaxial_voltages_add(self):
        a = squeezer_rotation(one_stage(voltage=30.0), 0)
        b = squeezer_rotation(one_stage(voltage=45.0), 0)
        combined = compose(b, a)
        assert combined.angle == pytest.approx(math.pi / 75 * 75.0, abs=1e-9)

    def test_voltage_range_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            one_stage(voltage=200.0)
        with pytest.raises(ValueError, match="outside"):
            one_stage(voltage=-1.0)

    def test_center(self):
        assert one_stage().center == 75.0


class TestEpc:
    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(gains=(0.04,) * 3), "exactly 4 squeezers"),
            (dict(axes=NOMINAL_AXES[:3]), "exactly 4 squeezers"),
            (dict(v_min=150.0), "range is empty"),
            (dict(v_max=math.nan), "range is empty"),
            (dict(gains=(0.04, 0.0, 0.04, 0.04)), "gain must be positive and finite"),
            (dict(gains=(0.04, 0.04, math.inf, 0.04)), "gain must be positive and finite"),
            (dict(gains=(0.04, 0.04, 0.04, math.nan)), "gain must be positive and finite"),
            (dict(voltages=(75.0, 150.5, 75.0, 75.0)), "outside"),
            (dict(voltages=(75.0, 75.0, math.nan, 75.0)), "outside"),
        ],
    )
    def test_constructor_checks_each_field(self, change, message):
        fields = dict(gains=(0.04,) * 4, voltages=(75.0,) * 4, axes=NOMINAL_AXES)
        with pytest.raises(ValueError, match=message):
            EpcState(**{**fields, **change})

    def test_all_zero_voltages_is_identity(self):
        epc = default_epc(v_min=-10.0, v_max=10.0).with_voltages((0.0,) * 4)
        assert epc_rotation(epc).angle == 0.0

    def test_single_energized_stage(self):
        base = default_epc(v_min=-10.0, v_max=10.0).with_voltages((0.0,) * 4)
        driven = with_voltage(base, 0, 5.0)
        want = squeezer_rotation(driven, 0)
        got = epc_rotation(driven)
        assert (got.w, got.x, got.y, got.z) == pytest.approx((want.w, want.x, want.y, want.z))

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            epc = default_epc(rng, gain_jitter=0.1)
            for i in range(4):
                epc = with_voltage(epc, i, rng.uniform(0.0, 150.0))
            m = np.eye(3)
            for axis, gain, v in zip(epc.axes, epc.gains, epc.voltages):
                m = rodrigues_matrix(axis.as_tuple(), gain * v) @ m
            s = StokesVector(*random_unit(rng))
            got = apply_rotation(epc_rotation(epc), s)
            assert np.allclose(got.as_tuple(), m @ np.array(s.as_tuple()), atol=1e-9)

    def test_always_a_proper_rotation(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            epc = default_epc(rng, gain_jitter=0.1)
            for i in range(4):
                epc = with_voltage(epc, i, rng.uniform(0.0, 150.0))
            r = epc_rotation(epc)
            assert abs(math.sqrt(r.w**2 + r.x**2 + r.y**2 + r.z**2) - 1.0) <= 1e-9

    def test_voltage_perturbation_bounds_rotation_change(self):
        # changing one squeezer by delta volts changes the composite map by a
        # relative rotation of exactly gain * delta
        rng = np.random.default_rng(23)
        for _ in range(100):
            epc = default_epc(rng, gain_jitter=0.1)
            for i in range(4):
                epc = with_voltage(epc, i, rng.uniform(10.0, 140.0))
            i = int(rng.integers(0, 4))
            delta = float(rng.uniform(0.0, 5.0))
            before = epc_rotation(epc)
            after = epc_rotation(with_voltage(epc, i, epc.voltages[i] + delta))
            rel = compose(after, inverse(before))
            expected = epc.gains[i] * delta
            angle = rel.angle if rel.angle <= math.pi else 2 * math.pi - rel.angle
            assert angle <= expected + 1e-9


class TestDriftAxes:
    def test_zero_sigma_keeps_axes(self):
        rng = np.random.default_rng(31)
        epc = default_epc()
        assert drift_axes(epc, rng, sigma=0.0) is epc

    def test_step_displacement_statistics(self):
        # per-step angular displacement is |N(0, sigma)|, so its rms is sigma
        rng = np.random.default_rng(33)
        epc = default_epc()
        sigma = 0.01
        sq_disp = []
        for _ in range(10_000):
            moved = drift_axes(epc, rng, sigma=sigma, max_wander=math.pi)
            for a, b in zip(epc.axes, moved.axes):
                d = max(-1.0, min(1.0, a.dot(b)))
                sq_disp.append(math.acos(d) ** 2)
            epc = moved
        rms = math.sqrt(sum(sq_disp) / len(sq_disp))
        assert rms == pytest.approx(sigma, rel=0.10)

    def test_wander_cap_respected(self):
        rng = np.random.default_rng(34)
        epc = default_epc()
        cap = math.radians(10.0)
        for _ in range(2000):
            epc = drift_axes(epc, rng, sigma=0.05, max_wander=cap)
            for axis, nominal in zip(epc.axes, NOMINAL_AXES):
                assert axis.dot(nominal) >= math.cos(cap) - 1e-12

    def test_deterministic_given_seed(self):
        def drifted(rng):
            epc = default_epc()
            for _ in range(3):
                epc = drift_axes(epc, rng, sigma=0.01)
            return epc

        assert drifted(np.random.default_rng(99)) == drifted(np.random.default_rng(99))

    @numpy_streams_as_golden
    def test_scaled_draws_equal_normal_and_uniform(self):
        # drift_axes and the random-walk step scale standard normals by
        # sigma and uniforms by 2 pi; numpy computes normal(0, scale) and
        # uniform(0, 2 pi) from the same draws as 0 + scale * z and
        # 0 + 2 pi * u, so these are the values those calls would give.
        setup = np.random.default_rng(35)
        for _ in range(200):
            seed = int(setup.integers(2**63))
            scale = float(setup.uniform(1e-4, 3.0))
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(50):
                assert (scale * new.standard_normal()).hex() == old.normal(0.0, scale).hex()
                assert (2.0 * math.pi * new.random()).hex() == old.uniform(0.0, 2.0 * math.pi).hex()
            assert new.bit_generator.state == old.bit_generator.state


def _random_epc(rng, wander_steps=0, sigma=0.5):
    """Jittered-gain EPC at random voltages, its axes tipped off nominal."""
    epc = default_epc(rng, gain_jitter=0.1)
    for i in range(4):
        epc = with_voltage(epc, i, float(rng.uniform(0.0, 150.0)))
    for _ in range(wander_steps):
        epc = optics_oracle.drift_axes(epc, 1, rng, sigma=sigma, max_wander=math.pi)
    return epc


class FixedNormals:
    """Generator stand-in that serves fixed standard normals to every normal draw."""

    def __init__(self, values):
        self.values = list(values)

    def standard_normal(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return loc + scale * self.standard_normal(size)


def _hex(r):
    """The bits of a rotation's components, whatever their float type."""
    return tuple(float(v).hex() for v in (r.w, r.x, r.y, r.z))


class TestFloatPathMatchesOracle:
    """The float EPC path equals the object-based reference bit for bit."""

    def test_epc_rotation_bitwise(self):
        rng = np.random.default_rng(51)
        for k in range(400):
            epc = _random_epc(rng, wander_steps=k % 3)
            assert epc_rotation(epc) == optics_oracle.epc_rotation(epc)

    def test_keeps_rotation_from_axis_angle_checks(self):
        with pytest.raises(ValueError, match="unit length"):
            poincare._axis_angle_q(0.0, 1.1, 0.0, 0.1)
        with pytest.raises(ValueError, match="finite"):
            poincare._axis_angle_q(0.0, 1.0, 0.0, math.nan)
        # a finite gain can still overflow the angle gain * voltage
        epc = with_voltage(default_epc(), 2, 150.0)
        huge = replace(epc, gains=epc.gains[:2] + (1e308,) + epc.gains[3:])
        for path in (epc_rotation, optics_oracle.epc_rotation):
            with pytest.raises(ValueError, match="finite"):
                path(huge)

    @pytest.mark.parametrize("v", [-0.5, 150.5, math.nan])
    def test_probe_voltage_range_checked(self, v):
        epc = _random_epc(np.random.default_rng(56))
        sweep = AnalyzerSweep(IDENTITY, epc, "Z")
        sweep.land(epc.voltages[0])
        with pytest.raises(ValueError, match="outside"):
            sweep.element(v)
        with pytest.raises(ValueError, match="outside"):
            with_voltage(epc, 1, v)

    def test_probe_keeps_rotation_from_axis_angle_checks(self):
        # gain * voltage can overflow within squeezer 2's drive range, so a
        # sweep of this EPC, which would probe it, is refused up front
        epc = default_epc()
        huge = replace(epc, gains=epc.gains[:2] + (1e308,) + epc.gains[3:])
        for basis in ("Z", "X"):
            with pytest.raises(ValueError, match="finite"):
                AnalyzerSweep(IDENTITY, huge, basis)

    def test_with_voltage_matches_replace(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            epc = _random_epc(rng, wander_steps=1)
            i = int(rng.integers(0, 4))
            v = float(rng.uniform(0.0, 150.0))
            volts = list(epc.voltages)
            volts[i] = v
            assert with_voltage(epc, i, v) == replace(epc, voltages=tuple(volts))
        with pytest.raises(ValueError, match="outside"):
            with_voltage(epc, 0, 151.0)

    def test_drift_tip_matches_the_quaternion_tip(self):
        # for the same (angle, psi), the closed-form tip and clamp against the
        # oracle's quaternion tip and clamp: equal to rounding, not bit for bit.
        # Each axis starts inside its wander cone, as drift_axes keeps it.  Cones
        # up to 1.6 rad reach the |s3| >= 0.9 branch; with steps of at most
        # about 1 rad no axis nears the antipode of its nominal, where the
        # clamp's short tangent would magnify any rounding.
        setup = np.random.default_rng(53)
        worst = 0.0
        clamped = polar = 0
        for k in range(20_000):
            nominal = NOMINAL_AXES[k % 4]
            max_wander = float(setup.uniform(0.05, 1.6))
            start = (float(setup.uniform(0.0, max_wander)), float(setup.uniform(0.0, 6.3)))
            axis = optics_oracle.tip(nominal, *start)
            angle = float(setup.normal(0.0, setup.uniform(0.001, 0.3)))
            psi = float(setup.uniform(0.0, 2.0 * math.pi))
            tipped, tipped_ref = optics._tip(axis, angle, psi), optics_oracle.tip(axis, angle, psi)
            got = optics._clamp_to_cone(tipped, nominal, math.cos(max_wander), math.sin(max_wander))
            want = optics_oracle._clamp_to_cone(tipped_ref, nominal, max_wander)
            for a, b in ((tipped, tipped_ref), (got, want)):
                worst = max(worst, *(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple())))
            clamped += got is not tipped
            polar += abs(axis.s3) >= 0.9
        assert worst <= 4e-15, worst
        assert clamped > 1000, "too few steps left the wander cone"
        assert polar > 100, "too few axes took the |s3| >= 0.9 tangent branch"

    def test_drift_draws_four_normals_then_four_uniforms(self):
        # one block per call, squeezers in order: the four tip angles
        # scale * z, then the four tip directions 2 pi * u
        setup = np.random.default_rng(54)
        for _ in range(300):
            epc = _random_epc(setup, wander_steps=1)
            sigma = float(setup.uniform(0.001, 2.0))
            max_wander = float(setup.uniform(0.05, 3.0))
            seed = int(setup.integers(2**32))
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = drift_axes(epc, rng, sigma=sigma, max_wander=max_wander)
            normals, uniforms = ref.standard_normal(4).tolist(), ref.random(4).tolist()
            cw, sw = math.cos(max_wander), math.sin(max_wander)
            want = tuple(
                optics._clamp_to_cone(optics._tip(axis, sigma * z, 2.0 * math.pi * u), n, cw, sw)
                for axis, n, z, u in zip(epc.axes, NOMINAL_AXES, normals, uniforms)
            )
            assert got == replace(epc, axes=want)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_random_walk_step_bitwise(self):
        setup = np.random.default_rng(62)
        for _ in range(200):
            sigma = float(setup.uniform(0.0, 2.0))
            seed = int(setup.integers(2**32))
            rng_float, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            axis = StokesVector(*random_unit(setup))
            got_ch = want_ch = RandomWalkChannel(
                sigma, rotation_from_axis_angle(axis, setup.uniform(0.0, 6.3))
            )
            for _ in range(10):
                got_ch, got = channel_step(got_ch, rng_float)
                want_ch, want = optics_oracle.random_walk_step(want_ch, 1, rng_oracle)
                assert _hex(got) == _hex(want)
                assert got_ch.step_sigma == sigma and _hex(got_ch.current) == _hex(got)
                assert rng_float.bit_generator.state == rng_oracle.bit_generator.state

    def test_random_walk_step_redraws_a_null_axis_as_the_oracle(self):
        # a null axis is redrawn from the next three normals and the angle
        # takes the normal after them, as the oracle's rejection loop does
        normals = [0.0, 0.0, 0.0, 0.3, -0.2, 0.5, 0.7, 1.1]
        ch = RandomWalkChannel(0.1)
        got_rng, want_rng = FixedNormals(normals), FixedNormals(normals)
        _, got = channel_step(ch, got_rng)
        _, want = optics_oracle.random_walk_step(ch, 1, want_rng)
        assert _hex(got) == _hex(want)
        assert got_rng.values == want_rng.values == [1.1]

    @pytest.mark.parametrize("nominal", [S1, S2, S3])
    def test_antipodal_clamp_bitwise(self, nominal):
        got = optics._clamp_to_cone(-nominal, nominal, math.cos(0.3), math.sin(0.3))
        assert got == optics_oracle._clamp_to_cone(-nominal, nominal, 0.3)
        assert got.dot(nominal) == pytest.approx(math.cos(0.3))


class TestAnalyzerSweep:
    """The closed-form analyzer element equals the composed rotation's."""

    def test_element_matches_the_composed_rotation(self):
        rng = np.random.default_rng(58)
        worst = 0.0
        for k in range(150):
            epc = _random_epc(rng, wander_steps=1 + k % 3)
            channel = rotation_from_axis_angle(StokesVector(*random_unit(rng)), rng.uniform(0, 6.3))
            for basis in ("Z", "X"):
                sweep = AnalyzerSweep(channel, epc, basis)
                landed = epc
                for _ in range(2):  # the second sweep starts from the first's landings
                    for i in range(4):
                        assert sweep.at == i
                        lo, hi = epc.v_min, epc.v_max
                        for v in (lo, hi, *rng.uniform(lo, hi, size=3)):
                            want = analyzer_element(
                                channel, epc_rotation(with_voltage(landed, i, float(v))), basis
                            )
                            worst = max(worst, abs(sweep.element(float(v)) - want))
                        v_land = float(rng.uniform(lo, hi))
                        sweep.land(v_land)
                        landed = with_voltage(landed, i, v_land)
                    assert sweep.voltages == list(landed.voltages)
                    want = analyzer_element(channel, epc_rotation(landed), basis)
                    worst = max(worst, abs(sweep.swept - want))
        assert worst <= 1e-12, worst

    def test_squeezers_are_visited_in_order(self):
        sweep = AnalyzerSweep(IDENTITY, default_epc(), "Z")
        assert sweep.swept is None
        for i in range(4):
            assert sweep.at == i
            sweep.land(75.0)
        assert sweep.swept == pytest.approx(1.0, abs=1e-15)
        assert sweep.at == 0  # the next sweep has begun

    def test_unknown_basis(self):
        with pytest.raises(ValueError, match="unknown basis"):
            AnalyzerSweep(IDENTITY, default_epc(), "Y")

    def test_with_voltages_matches_with_voltage(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            epc = _random_epc(rng, wander_steps=1)
            volts = [float(v) for v in rng.uniform(0.0, 150.0, size=4)]
            one_by_one = epc
            for i, v in enumerate(volts):
                one_by_one = with_voltage(one_by_one, i, v)
            driven = epc.with_voltages(volts)
            assert driven == one_by_one and driven.voltages == tuple(volts)
            assert driven == replace(epc, voltages=tuple(volts))
        with pytest.raises(ValueError, match="outside"):
            epc.with_voltages([75.0, 75.0, 151.0, 75.0])


def walk(ch, cycles, rng):
    """``ch`` after ``cycles`` one-cycle steps, and the rotation it then applies."""
    for _ in range(cycles):
        ch, rot = channel_step(ch, rng)
    return ch, rot


class TestChannels:
    def test_static_returns_same_rotation(self):
        rng = np.random.default_rng(41)
        rot = rotation_from_axis_angle(S2, 0.3)
        ch = StaticChannel(rot)
        for _ in range(5):
            ch, out = channel_step(ch, rng)
            assert out is rot

    def test_scrambler_accumulates(self):
        rng = np.random.default_rng(42)
        ch = ScramblerChannel(axis=S3, rate=0.2)
        for _ in range(900):
            ch, rot = channel_step(ch, rng)
        assert ch.accumulated == pytest.approx(180.0, abs=1e-9)
        assert rot.angle == pytest.approx(math.pi, abs=1e-9)

    def test_scrambler_full_period_wall_clock(self):
        # 0.2 deg per cycle completes 360 deg in 1800 cycles; at 12 s per
        # cycle that is a 6 h wall-clock equivalent
        cycles = 360.0 / 0.2
        assert cycles * 12.0 == pytest.approx(6 * 3600.0)

    def test_scrambler_periodicity(self):
        rng = np.random.default_rng(43)
        ch = ScramblerChannel(axis=S3, rate=0.2)
        for _ in range(1800):
            ch, _ = channel_step(ch, rng)
        circular = min(ch.accumulated, 360.0 - ch.accumulated)
        assert circular <= 1e-9

    def test_scrambler_wraps_modulo_360(self):
        rng = np.random.default_rng(44)
        ch = ScramblerChannel(axis=S3, rate=100.0)
        for _ in range(10):
            ch, _ = channel_step(ch, rng)
            assert 0.0 <= ch.accumulated < 360.0

    def test_random_walk_step_scale(self):
        rng = np.random.default_rng(45)
        ch, rot = walk(RandomWalkChannel(step_sigma=0.0), 10, rng)
        assert rot.angle == pytest.approx(0.0, abs=1e-12)

    def test_random_walk_deterministic(self):
        ch = RandomWalkChannel(step_sigma=0.01)
        a_ch, a_rot = walk(ch, 50, np.random.default_rng(7))
        b_ch, b_rot = walk(ch, 50, np.random.default_rng(7))
        assert a_rot == b_rot
        assert a_ch == b_ch

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize(
        "model",
        [
            StaticChannel(rotation_from_axis_angle(S2, 0.3)),
            ScramblerChannel(axis=S3, rate=0.2),
            RandomWalkChannel(step_sigma=0.012),
        ],
        ids=["static", "scramble", "random_walk"],
    )
    def test_rotations_hold_python_floats(self, model, steps):
        # numpy scalar arithmetic is several times slower than float arithmetic
        rng = np.random.default_rng(47)
        ch = model
        for _ in range(5):
            ch, rot = walk(ch, steps, rng)
            held = [rot, ch.current] if isinstance(ch, RandomWalkChannel) else [rot]
            for r in held:
                assert [type(v) for v in (r.w, r.x, r.y, r.z)] == [float] * 4

    def test_random_walk_analyzer_elements_are_python_floats(self):
        rng = np.random.default_rng(48)
        _, ch_rot = channel_step(RandomWalkChannel(step_sigma=0.012), rng)
        epc = _random_epc(rng)
        for basis in ("Z", "X"):
            assert type(analyzer_element(ch_rot, epc_rotation(epc), basis)) is float
            sweep = AnalyzerSweep(ch_rot, epc, basis)
            for _ in range(4):
                assert type(sweep.element(75.0)) is float
                sweep.land(75.0)
            assert type(sweep.swept) is float

    def test_random_walk_diffuses(self):
        rng = np.random.default_rng(46)
        ch, rot = walk(RandomWalkChannel(step_sigma=0.02), 400, rng)
        assert rot.angle > 0.0


class TestLinkBudget:
    def test_reference_value(self):
        assert transmittance(LinkBudget(0.2, 50.0, 0.1)) == pytest.approx(0.01)

    def test_zero_length(self):
        assert transmittance(LinkBudget(0.2, 0.0, 0.37)) == 0.37

    def test_long_fiber(self):
        assert transmittance(LinkBudget(0.2, 100.0, 1.0)) == pytest.approx(0.01)

    def test_monotone_in_length_and_alpha(self):
        lengths = np.linspace(0.0, 200.0, 21)
        ts = [transmittance(LinkBudget(0.2, l, 0.5)) for l in lengths]
        assert all(b < a for a, b in zip(ts, ts[1:]))
        alphas = np.linspace(0.0, 1.0, 11)
        ts = [transmittance(LinkBudget(a, 50.0, 0.5)) for a in alphas]
        assert all(b < a for a, b in zip(ts, ts[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(-0.1, 50.0, 0.1)
        with pytest.raises(ValueError):
            LinkBudget(0.2, 50.0, 0.0)
        with pytest.raises(ValueError):
            LinkBudget(0.2, 50.0, 1.5)
