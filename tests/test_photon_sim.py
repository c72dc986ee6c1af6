import math

import numpy as np
import pytest

from poltrack.feedback import ExactContext
from poltrack.photon_sim import (
    _COUNT_FIELDS as FIELDS,
    DetectionTally,
    EmptyRowError,
    InsufficientDataError,
    MeasurementMatrix,
    SourceParams,
    analyzer_element,
    measurement_matrix,
    qber_from_tally,
    reveal_sample,
    sifted_cell_probs,
    simulate_batch,
)
from poltrack.poincare import (
    DIAG,
    H,
    IDENTITY,
    StokesVector,
    apply_rotation,
    compose,
    rotation_from_axis_angle,
)

from conftest import random_axis_angle, rodrigues_matrix
from per_pulse_oracle import sifted_cells, simulate_batch_per_pulse

S2 = StokesVector(0.0, 1.0, 0.0)
S3 = StokesVector(0.0, 0.0, 1.0)

NOISELESS = SourceParams(mu=0.1, dark_count_prob=0.0, misalignment_floor=0.0)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestSimulateBatch:
    def test_aligned_noiseless_has_zero_qber(self):
        tally = simulate_batch(200_000, IDENTITY, IDENTITY, IDENTITY, NOISELESS, 1.0, rng_for(1))
        assert tally.sifted_total > 0
        assert qber_from_tally(tally) == 0.0

    def test_poisson_detection_rate(self):
        # mu 0.1 at eta 0.01: roughly n * (1 - e^-0.001) * 0.25 sifted events
        # per basis, checked within 4 sigma
        src = SourceParams(mu=0.1, dark_count_prob=0.0, misalignment_floor=0.0)
        tally = simulate_batch(1_000_000, IDENTITY, IDENTITY, IDENTITY, src, 0.01, rng_for(2))
        expected = 1_000_000 * (1.0 - math.exp(-0.001)) * 0.25
        sigma = math.sqrt(expected)
        z_total = tally.n_hh + tally.n_hv + tally.n_vh + tally.n_vv
        x_total = tally.n_dd + tally.n_da + tally.n_ad + tally.n_aa
        assert abs(z_total - expected) <= 4 * sigma
        assert abs(x_total - expected) <= 4 * sigma

    def test_quarter_turn_gives_half_qber_in_z(self):
        channel = rotation_from_axis_angle(S3, math.pi / 2)
        tally = simulate_batch(400_000, channel, IDENTITY, IDENTITY, NOISELESS, 1.0, rng_for(3))
        c = tally.counts("Z")
        n = sum(c)
        qber_z = (c[1] + c[2]) / n
        assert abs(qber_z - 0.5) <= 4 * math.sqrt(0.25 / n)

    def test_sixty_degree_misalignment_qber(self):
        channel = rotation_from_axis_angle(S2, math.radians(60.0))
        tally = simulate_batch(400_000, channel, IDENTITY, IDENTITY, NOISELESS, 1.0, rng_for(4))
        c = tally.counts("Z")
        n = sum(c)
        qber_z = (c[1] + c[2]) / n
        expected = math.sin(math.radians(30.0)) ** 2
        assert abs(qber_z - expected) <= 4 * math.sqrt(expected * (1 - expected) / n)

    def test_qber_matches_projection_oracle_for_random_rotations(self):
        rng = np.random.default_rng(5)
        for case in range(10):
            axis, angle = random_axis_angle(rng)
            channel = rotation_from_axis_angle(StokesVector(*axis), angle)
            h_image = rodrigues_matrix(axis, angle) @ np.array([1.0, 0.0, 0.0])
            expected = 0.5 * (1.0 - h_image[0])
            tally = simulate_batch(
                300_000, channel, IDENTITY, IDENTITY, NOISELESS, 1.0, rng_for(100 + case)
            )
            c = tally.counts("Z")
            n = sum(c)
            qber_z = (c[1] + c[2]) / n
            sigma = math.sqrt(max(expected * (1 - expected), 1e-9) / n)
            assert abs(qber_z - expected) <= 4 * sigma

    def test_deterministic_given_seed(self):
        src = SourceParams(mu=0.2)
        a = simulate_batch(50_000, IDENTITY, IDENTITY, IDENTITY, src, 0.5, rng_for(6))
        b = simulate_batch(50_000, IDENTITY, IDENTITY, IDENTITY, src, 0.5, rng_for(6))
        assert a == b

    def test_dark_counts_never_decrease_qber(self):
        channel = rotation_from_axis_angle(S2, 0.2)
        qbers = []
        for dark in (0.0, 1e-4, 1e-3, 1e-2):
            src = SourceParams(mu=0.1, dark_count_prob=dark, misalignment_floor=0.0)
            tally = simulate_batch(400_000, channel, IDENTITY, IDENTITY, src, 0.1, rng_for(11))
            qbers.append(qber_from_tally(tally))
        assert all(b >= a for a, b in zip(qbers, qbers[1:])), qbers

    def test_misalignment_floor_sets_qber(self):
        src = SourceParams(mu=0.2, dark_count_prob=0.0, misalignment_floor=0.05)
        tally = simulate_batch(400_000, IDENTITY, IDENTITY, IDENTITY, src, 1.0, rng_for(12))
        q = qber_from_tally(tally)
        n = tally.sifted_total
        assert abs(q - 0.05) <= 4 * math.sqrt(0.05 * 0.95 / n)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_batch(-1, IDENTITY, IDENTITY, IDENTITY, NOISELESS, 1.0, rng_for(0))
        with pytest.raises(ValueError):
            simulate_batch(10, IDENTITY, IDENTITY, IDENTITY, NOISELESS, 0.0, rng_for(0))


def random_rotation(rng):
    axis, angle = random_axis_angle(rng)
    return rotation_from_axis_angle(StokesVector(*axis), angle)


PLANT_SOURCES = (
    SourceParams(mu=0.5),
    SourceParams(mu=0.1, dark_count_prob=1e-3, misalignment_floor=0.02),
    SourceParams(mu=0.9, dark_count_prob=1e-2, misalignment_floor=0.05),
    NOISELESS,
)


def plant_cells(channel, epc_z, epc_x, src, eta):
    m_z = analyzer_element(channel, epc_z, "Z")
    m_x = analyzer_element(channel, epc_x, "X")
    return np.array(sifted_cell_probs(m_z, m_x, src, eta))


class TestPlant:
    """The analyzer-element plant equals the per-pulse oracle's click table."""

    def test_cells_match_click_table_for_random_rotations(self):
        rng = np.random.default_rng(31)
        for case in range(240):
            rots = [random_rotation(rng) for _ in range(3)]
            src = PLANT_SOURCES[case % len(PLANT_SOURCES)]
            eta = float(rng.uniform(0.01, 1.0))
            got = plant_cells(*rots, src, eta)
            want = sifted_cells(*rots, src, eta)
            assert np.max(np.abs(got - want)) <= 1e-12, (case, got, want)

    @pytest.mark.parametrize("src", PLANT_SOURCES)
    def test_clamp_edges_match_click_table(self, src):
        # identity: each state lands on its own detector, a0 = 1 exactly;
        # a half turn about s3 sends H to V and D to A, a0 = 0 exactly
        half_turn = rotation_from_axis_angle(S3, math.pi)
        for channel, m in ((IDENTITY, 1.0), (half_turn, -1.0)):
            assert analyzer_element(channel, IDENTITY, "Z") == m
            assert analyzer_element(channel, IDENTITY, "X") == m
            got = plant_cells(channel, IDENTITY, IDENTITY, src, 1.0)
            want = sifted_cells(channel, IDENTITY, IDENTITY, src, 1.0)
            assert np.max(np.abs(got - want)) <= 1e-12, (got, want)
            if src is NOISELESS:
                wrong = got[[1, 2, 5, 6]] if m == 1.0 else got[[0, 3, 4, 7]]
                assert np.all(wrong == 0.0)

    def test_exact_context_matches_rotated_analyzer(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            channel, epc = random_rotation(rng), random_rotation(rng)
            ctx = ExactContext(channel)
            for basis, axis in (("Z", H), ("X", DIAG)):
                image = apply_rotation(compose(epc, channel), axis)
                j = 0.5 * (1.0 - image.dot(axis))
                assert abs(ctx.evaluate(epc, basis) - 4.0 * j * j) <= 1e-12

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            analyzer_element(IDENTITY, IDENTITY, "Y")


def _cell_moments(counts: np.ndarray):
    """Per-cell mean and variance over repeats, and the sampling variance of each."""
    n = counts.shape[0]
    mean = counts.mean(axis=0)
    var = counts.var(axis=0, ddof=1)
    m4 = ((counts - mean) ** 4).mean(axis=0)
    var_of_var = np.maximum(m4 - var * var * (n - 3) / (n - 1), 0.0) / n
    return mean, var, var / n, var_of_var


# (channel, Z-arm EPC, X-arm EPC, source, eta) per case
EQUIVALENCE_CASES = {
    "aligned": (IDENTITY, IDENTITY, IDENTITY, SourceParams(mu=0.5), 1.0),
    "thirty_degree_channel_with_epcs": (
        rotation_from_axis_angle(S2, math.radians(30.0)),
        rotation_from_axis_angle(S3, 0.3),
        rotation_from_axis_angle(StokesVector.unit(1.0, 1.0, 0.0), -0.4),
        SourceParams(mu=0.5),
        1.0,
    ),
    # eta * mu = 0.9 and a 45 degree tilt on the sphere light both
    # detectors, so double clicks are common and the floor is large
    "double_clicks_and_floor": (
        rotation_from_axis_angle(S3, math.radians(45.0)),
        IDENTITY,
        IDENTITY,
        SourceParams(mu=0.9, dark_count_prob=1e-2, misalignment_floor=0.05),
        1.0,
    ),
}


class TestPerPulseEquivalence:
    """The count-level plant and sampler match the per-pulse oracle in distribution.

    The oracle builds its click table from ``apply_rotation`` and
    ``projection_probability``, so this checks the plant's probability math
    as well as the multinomial draw.
    """

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_cell_mean_and_variance_match(self, case):
        args = EQUIVALENCE_CASES[case]

        def repeats(sample, seed, n_repeats=400, n_pulses=20_000):
            rng = rng_for(seed)
            tallies = [sample(n_pulses, *args, rng) for _ in range(n_repeats)]
            return np.array([[getattr(t, f) for f in FIELDS] for t in tallies], dtype=float)

        mean_a, var_a, se2_a, vv_a = _cell_moments(repeats(simulate_batch, 21))
        mean_b, var_b, se2_b, vv_b = _cell_moments(repeats(simulate_batch_per_pulse, 22))
        assert np.all(mean_b > 2.0), mean_b  # every cell is populated
        z_mean = (mean_a - mean_b) / np.sqrt(se2_a + se2_b)
        z_var = (var_a - var_b) / np.sqrt(vv_a + vv_b)
        assert np.all(np.abs(z_mean) <= 4.0), z_mean
        assert np.all(np.abs(z_var) <= 4.0), z_var


class TestDetectionTally:
    @pytest.mark.parametrize("name", FIELDS + ("pulses_sent",))
    def test_negative_count_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            DetectionTally(**{name: -1})


class TestMeasurementMatrix:
    def test_row_normalization(self):
        t = DetectionTally(n_hh=98, n_hv=2, n_vh=3, n_vv=97)
        mm = measurement_matrix(t, "Z")
        assert (mm.j1, mm.j2, mm.j3, mm.j4) == (0.98, 0.02, 0.03, 0.97)

    def test_identity_rows(self):
        t = DetectionTally(n_dd=50, n_aa=50)
        mm = measurement_matrix(t, "X")
        assert (mm.j1, mm.j2, mm.j3, mm.j4) == (1.0, 0.0, 0.0, 1.0)

    def test_empty_row_raises_named_error(self):
        t = DetectionTally(n_vh=3, n_vv=97)
        with pytest.raises(EmptyRowError) as err:
            measurement_matrix(t, "Z")
        assert err.value.basis == "Z"
        assert err.value.row == "H"
        assert isinstance(err.value, InsufficientDataError)

    def test_rows_sum_to_one_within_tolerance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            c = rng.integers(1, 1000, size=4)
            t = DetectionTally(n_hh=int(c[0]), n_hv=int(c[1]), n_vh=int(c[2]), n_vv=int(c[3]))
            mm = measurement_matrix(t, "Z")
            assert abs(mm.j1 + mm.j2 - 1.0) <= 1e-12
            assert abs(mm.j3 + mm.j4 - 1.0) <= 1e-12

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            MeasurementMatrix(0.9, 0.2, 0.1, 0.9)


class TestQber:
    def test_all_correct_is_zero(self):
        t = DetectionTally(n_hh=100, n_vv=100, n_dd=100, n_aa=100)
        assert qber_from_tally(t) == 0.0

    def test_direct_ratio(self):
        t = DetectionTally(n_hh=98, n_hv=2, n_vh=3, n_vv=97, n_dd=99, n_da=1, n_ad=0, n_aa=100)
        assert qber_from_tally(t) == pytest.approx(6 / 400)

    def test_empty_tally_raises(self):
        with pytest.raises(InsufficientDataError):
            qber_from_tally(DetectionTally())


class TestRevealSample:
    def test_full_fraction_is_identity(self):
        t = DetectionTally(n_hh=100, n_hv=5, n_vh=7, n_vv=90, pulses_sent=1000)
        assert reveal_sample(t, 1.0, rng_for(14)) == t

    def test_expected_size(self):
        t = DetectionTally(n_hh=12_500, n_vv=12_500)
        r = reveal_sample(t, 0.1, rng_for(15))
        expected = 2500.0
        sigma = math.sqrt(25_000 * 0.1 * 0.9)
        assert abs(r.sifted_total - expected) <= 4 * sigma

    def test_empty_tally_stays_empty(self):
        assert reveal_sample(DetectionTally(), 0.1, rng_for(16)).sifted_total == 0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            reveal_sample(DetectionTally(), 0.0, rng_for(17))
        with pytest.raises(ValueError):
            reveal_sample(DetectionTally(), 1.5, rng_for(17))

    def test_unbiased_estimator(self):
        # mean revealed-sample error rate over many seeds matches the parent
        # tally's rate within 3 standard errors
        t = DetectionTally(n_hh=1800, n_hv=200, n_vh=180, n_vv=1820)
        q_parent = qber_from_tally(t)
        estimates = []
        for seed in range(120):
            r = reveal_sample(t, 0.1, rng_for(1000 + seed))
            estimates.append(qber_from_tally(r))
        mean = float(np.mean(estimates))
        se = float(np.std(estimates)) / math.sqrt(len(estimates))
        assert abs(mean - q_parent) <= 3 * se
