import math

import numpy as np
import pytest

from poltrack.poincare import (
    IDENTITY,
    Rotation,
    StokesVector,
    apply_rotation,
    compose,
    inverse,
    rotation_from_axis_angle,
)

from conftest import random_axis_angle, random_unit, rodrigues_matrix
from per_pulse_oracle import ANTIDIAG, DIAG, H, V, projection_probability

S3 = StokesVector(0.0, 0.0, 1.0)


class TestStokesVector:
    def test_unit_invariant_enforced(self):
        with pytest.raises(ValueError):
            StokesVector(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            StokesVector(0.0, 0.0, 0.0)

    def test_unit_constructor_normalizes(self):
        s = StokesVector.unit(3.0, 4.0, 0.0)
        assert s.as_tuple() == pytest.approx((0.6, 0.8, 0.0))

    def test_negation_and_dot(self):
        assert (-H).as_tuple() == V.as_tuple()
        assert H.dot(V) == -1.0
        assert H.dot(DIAG) == 0.0


class TestRotationConstruction:
    def test_half_turn_about_s3(self):
        r = rotation_from_axis_angle(S3, math.pi)
        assert (r.w, r.x, r.y, r.z) == pytest.approx((0.0, 0.0, 0.0, 1.0), abs=1e-15)

    def test_zero_angle_is_identity(self):
        r = rotation_from_axis_angle(H, 0.0)
        assert (r.w, r.x, r.y, r.z) == (1.0, 0.0, 0.0, 0.0)

    def test_quarter_turn_about_s2(self):
        r = rotation_from_axis_angle(DIAG, math.pi / 2)
        root_half = math.sqrt(2.0) / 2.0
        assert (r.w, r.x, r.y, r.z) == pytest.approx((root_half, 0.0, root_half, 0.0))

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            rotation_from_axis_angle(StokesVector.unit(1, 1, 1), math.nan)
        bad = StokesVector.__new__(StokesVector)
        object.__setattr__(bad, "s1", 2.0)
        object.__setattr__(bad, "s2", 0.0)
        object.__setattr__(bad, "s3", 0.0)
        with pytest.raises(ValueError):
            rotation_from_axis_angle(bad, 1.0)

    def test_angle_in_range(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            axis, angle = random_axis_angle(rng)
            r = rotation_from_axis_angle(StokesVector(*axis), angle)
            assert 0.0 <= r.angle < 2.0 * math.pi
            assert r.angle == pytest.approx(angle, abs=1e-9)

    def test_quaternion_norm_invariant(self):
        with pytest.raises(ValueError):
            Rotation(1.0, 1.0, 0.0, 0.0)


class TestApplyRotation:
    def test_half_turn_maps_h_to_v(self):
        r = rotation_from_axis_angle(S3, math.pi)
        assert apply_rotation(r, H).as_tuple() == pytest.approx(V.as_tuple(), abs=1e-15)

    def test_quarter_turn_right_hand_rule(self):
        r = rotation_from_axis_angle(S3, math.pi / 2)
        assert apply_rotation(r, H).as_tuple() == pytest.approx(DIAG.as_tuple(), abs=1e-15)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            axis, angle = random_axis_angle(rng)
            s = random_unit(rng)
            got = apply_rotation(
                rotation_from_axis_angle(StokesVector(*axis), angle), StokesVector(*s)
            )
            want = rodrigues_matrix(axis, angle) @ np.array(s)
            assert np.allclose(got.as_tuple(), want, atol=1e-9)

    def test_norm_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            axis, angle = random_axis_angle(rng)
            s = apply_rotation(
                rotation_from_axis_angle(StokesVector(*axis), angle),
                StokesVector(*random_unit(rng)),
            )
            assert abs(math.sqrt(s.dot(s)) - 1.0) <= 1e-9

    def test_dot_product_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            axis, angle = random_axis_angle(rng)
            r = rotation_from_axis_angle(StokesVector(*axis), angle)
            a = StokesVector(*random_unit(rng))
            b = StokesVector(*random_unit(rng))
            assert apply_rotation(r, a).dot(apply_rotation(r, b)) == pytest.approx(
                a.dot(b), abs=1e-9
            )


class TestCompose:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(10)
        axis, angle = random_axis_angle(rng)
        r = rotation_from_axis_angle(StokesVector(*axis), angle)
        c = compose(IDENTITY, r)
        assert (c.w, c.x, c.y, c.z) == pytest.approx((r.w, r.x, r.y, r.z))

    def test_coaxial_angles_add(self):
        quarter = rotation_from_axis_angle(S3, math.pi / 2)
        half = compose(quarter, quarter)
        want = rotation_from_axis_angle(S3, math.pi)
        assert (half.w, half.x, half.y, half.z) == pytest.approx(
            (want.w, want.x, want.y, want.z), abs=1e-12
        )

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            ax_a, ang_a = random_axis_angle(rng)
            ax_b, ang_b = random_axis_angle(rng)
            s = random_unit(rng)
            ra = rotation_from_axis_angle(StokesVector(*ax_a), ang_a)
            rb = rotation_from_axis_angle(StokesVector(*ax_b), ang_b)
            got = apply_rotation(compose(rb, ra), StokesVector(*s))
            want = rodrigues_matrix(ax_b, ang_b) @ rodrigues_matrix(ax_a, ang_a) @ np.array(s)
            assert np.allclose(got.as_tuple(), want, atol=1e-9)

    def test_apply_respects_composition(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            ax_a, ang_a = random_axis_angle(rng)
            ax_b, ang_b = random_axis_angle(rng)
            s = StokesVector(*random_unit(rng))
            ra = rotation_from_axis_angle(StokesVector(*ax_a), ang_a)
            rb = rotation_from_axis_angle(StokesVector(*ax_b), ang_b)
            lhs = apply_rotation(compose(rb, ra), s)
            rhs = apply_rotation(rb, apply_rotation(ra, s))
            assert np.allclose(lhs.as_tuple(), rhs.as_tuple(), atol=1e-9)

    def test_associative(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            rs = [
                rotation_from_axis_angle(StokesVector(*ax), ang)
                for ax, ang in (random_axis_angle(rng) for _ in range(3))
            ]
            a, b, c = rs
            lhs = compose(compose(a, b), c)
            rhs = compose(a, compose(b, c))
            assert np.allclose(
                (lhs.w, lhs.x, lhs.y, lhs.z), (rhs.w, rhs.x, rhs.y, rhs.z), atol=1e-9
            )

    def test_inverse_cancels(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            axis, angle = random_axis_angle(rng)
            r = rotation_from_axis_angle(StokesVector(*axis), angle)
            c = compose(r, inverse(r))
            assert np.allclose((c.w, c.x, c.y, c.z), (1.0, 0.0, 0.0, 0.0), atol=1e-9)


class TestProjectionProbability:
    @pytest.mark.parametrize(
        "state,analyzer,expected",
        [(H, H, 1.0), (DIAG, H, 0.5), (V, H, 0.0), (ANTIDIAG, DIAG, 0.0)],
    )
    def test_reference_states(self, state, analyzer, expected):
        assert projection_probability(state, analyzer) == pytest.approx(expected, abs=1e-15)

    def test_complement_port_sums_to_one_exactly(self):
        rng = np.random.default_rng(16)
        for _ in range(5000):
            s = StokesVector(*random_unit(rng))
            a = StokesVector(*random_unit(rng))
            assert projection_probability(s, a) + projection_probability(s, -a) == 1.0

    def test_range(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            p = projection_probability(
                StokesVector(*random_unit(rng)), StokesVector(*random_unit(rng))
            )
            assert -1e-12 <= p <= 1.0 + 1e-12
