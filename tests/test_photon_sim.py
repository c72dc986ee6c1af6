import math

import numpy as np
import pytest

from poltrack.feedback import _revealed_cells
from poltrack.optics import analyzer_element, default_epc
from poltrack.photon_sim import (
    _COUNT_FIELDS as FIELDS,
    DetectionTally,
    EmptyRowError,
    InsufficientDataError,
    SourceParams,
    qber_from_tally,
    arm_cell_probs,
    sifted_cell_probs,
    simulate_batch,
)
from poltrack.poincare import (
    IDENTITY,
    StokesVector,
    apply_rotation,
    compose,
    rotation_from_axis_angle,
)

from conftest import (
    random_axis_angle,
    random_rotation,
    rodrigues_matrix,
)
from controller_oracle import ExactContext, evaluate_rotation
from matrix_oracle import MeasurementMatrix, measurement_matrix
from optics_oracle import analyzer_element_of_rotation, epc_rotation, plant_batch, plant_cells
from per_pulse_oracle import DIAG, H, reveal_sample, sifted_cells, simulate_batch_per_pulse

S2 = StokesVector(0.0, 1.0, 0.0)
S3 = StokesVector(0.0, 0.0, 1.0)

NOISELESS = SourceParams(mean_photons=0.1, dark_count_prob=0.0, misalignment_floor=0.0)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestSimulateBatch:
    def test_aligned_noiseless_has_zero_qber(self):
        tally = plant_batch(200_000, IDENTITY, IDENTITY, IDENTITY, NOISELESS, 1.0, rng_for(1))
        assert tally.sifted_total > 0
        assert qber_from_tally(tally) == 0.0

    def test_poisson_detection_rate(self):
        # mu 0.1 at eta 0.01: roughly n * (1 - e^-0.001) * 0.25 sifted events
        # per basis, checked within 4 sigma
        src = SourceParams(mean_photons=0.1, dark_count_prob=0.0, misalignment_floor=0.0)
        tally = plant_batch(1_000_000, IDENTITY, IDENTITY, IDENTITY, src, 0.01, rng_for(2))
        expected = 1_000_000 * (1.0 - math.exp(-0.001)) * 0.25
        sigma = math.sqrt(expected)
        z_total = tally.n_hh + tally.n_hv + tally.n_vh + tally.n_vv
        x_total = tally.n_dd + tally.n_da + tally.n_ad + tally.n_aa
        assert abs(z_total - expected) <= 4 * sigma
        assert abs(x_total - expected) <= 4 * sigma

    def test_quarter_turn_gives_half_qber_in_z(self):
        channel = rotation_from_axis_angle(S3, math.pi / 2)
        tally = plant_batch(400_000, channel, IDENTITY, IDENTITY, NOISELESS, 1.0, rng_for(3))
        c = tally.counts("Z")
        n = sum(c)
        qber_z = (c[1] + c[2]) / n
        assert abs(qber_z - 0.5) <= 4 * math.sqrt(0.25 / n)

    def test_sixty_degree_misalignment_qber(self):
        channel = rotation_from_axis_angle(S2, math.radians(60.0))
        tally = plant_batch(400_000, channel, IDENTITY, IDENTITY, NOISELESS, 1.0, rng_for(4))
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
            tally = plant_batch(
                300_000, channel, IDENTITY, IDENTITY, NOISELESS, 1.0, rng_for(100 + case)
            )
            c = tally.counts("Z")
            n = sum(c)
            qber_z = (c[1] + c[2]) / n
            sigma = math.sqrt(max(expected * (1 - expected), 1e-9) / n)
            assert abs(qber_z - expected) <= 4 * sigma

    def test_deterministic_given_seed(self):
        src = SourceParams(mean_photons=0.2)
        a = plant_batch(50_000, IDENTITY, IDENTITY, IDENTITY, src, 0.5, rng_for(6))
        b = plant_batch(50_000, IDENTITY, IDENTITY, IDENTITY, src, 0.5, rng_for(6))
        assert a == b

    def test_dark_counts_never_decrease_qber(self):
        channel = rotation_from_axis_angle(S2, 0.2)
        qbers = []
        for dark in (0.0, 1e-4, 1e-3, 1e-2):
            src = SourceParams(mean_photons=0.1, dark_count_prob=dark, misalignment_floor=0.0)
            tally = plant_batch(400_000, channel, IDENTITY, IDENTITY, src, 0.1, rng_for(11))
            qbers.append(qber_from_tally(tally))
        assert all(b >= a for a, b in zip(qbers, qbers[1:])), qbers

    def test_misalignment_floor_sets_qber(self):
        src = SourceParams(mean_photons=0.2, dark_count_prob=0.0, misalignment_floor=0.05)
        tally = plant_batch(400_000, IDENTITY, IDENTITY, IDENTITY, src, 1.0, rng_for(12))
        q = qber_from_tally(tally)
        n = tally.sifted_total
        assert abs(q - 0.05) <= 4 * math.sqrt(0.05 * 0.95 / n)

    def test_validation(self):
        cells = plant_cells(IDENTITY, IDENTITY, IDENTITY, NOISELESS, 1.0)
        with pytest.raises(ValueError, match="n_pulses"):
            simulate_batch(-1, cells, rng_for(0))
        with pytest.raises(ValueError, match="expected 8"):
            simulate_batch(10, cells[:4], rng_for(0))
        with pytest.raises(ValueError, match="eta"):
            arm_cell_probs(1.0, NOISELESS, 0.0)


PLANT_SOURCES = (
    SourceParams(mean_photons=0.5),
    SourceParams(mean_photons=0.1, dark_count_prob=1e-3, misalignment_floor=0.02),
    SourceParams(mean_photons=0.9, dark_count_prob=1e-2, misalignment_floor=0.05),
    NOISELESS,
)


class TestPlant:
    """The analyzer-element plant equals the per-pulse oracle's click table."""

    def test_cells_match_click_table_for_random_rotations(self):
        rng = np.random.default_rng(31)
        for case in range(240):
            rots = [random_rotation(rng) for _ in range(3)]
            src = PLANT_SOURCES[case % len(PLANT_SOURCES)]
            eta = float(rng.uniform(0.01, 1.0))
            got = np.array(plant_cells(*rots, src, eta))
            want = sifted_cells(*rots, src, eta)
            assert np.max(np.abs(got - want)) <= 1e-12, (case, got, want)

    def test_package_elements_match_click_table_for_random_epcs(self):
        # the package's elements of real EPCs, against the click table of
        # their composed rotations
        rng = np.random.default_rng(33)
        for case in range(120):
            channel = random_rotation(rng)
            epcs = []
            for _ in range(2):
                epc = default_epc(rng, gain_jitter=0.1)
                epcs.append(epc.with_voltages(rng.uniform(epc.v_min, epc.v_max, 4).tolist()))
            src = PLANT_SOURCES[case % len(PLANT_SOURCES)]
            eta = float(rng.uniform(0.01, 1.0))
            m_z, m_x = (analyzer_element(channel, e, b) for e, b in zip(epcs, "ZX"))
            got = np.array(sifted_cell_probs(m_z, m_x, src, eta))
            want = sifted_cells(channel, *map(epc_rotation, epcs), src, eta)
            assert np.max(np.abs(got - want)) <= 1e-12, (case, got, want)

    @pytest.mark.parametrize("src", PLANT_SOURCES)
    def test_clamp_edges_match_click_table(self, src):
        # identity: each state lands on its own detector, a0 = 1 exactly;
        # a half turn about s3 sends H to V and D to A, a0 = 0 exactly
        half_turn = rotation_from_axis_angle(S3, math.pi)
        for channel, m in ((IDENTITY, 1.0), (half_turn, -1.0)):
            for basis in ("Z", "X"):
                assert analyzer_element(channel, None, basis) == m
                assert analyzer_element_of_rotation(channel, IDENTITY, basis) == m
            got = np.array(plant_cells(channel, IDENTITY, IDENTITY, src, 1.0))
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
                assert abs(evaluate_rotation(ctx, epc, basis) - 4.0 * j * j) <= 1e-12


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
    "aligned": (IDENTITY, IDENTITY, IDENTITY, SourceParams(mean_photons=0.5), 1.0),
    "thirty_degree_channel_with_epcs": (
        rotation_from_axis_angle(S2, math.radians(30.0)),
        rotation_from_axis_angle(S3, 0.3),
        rotation_from_axis_angle(StokesVector.unit(1.0, 1.0, 0.0), -0.4),
        SourceParams(mean_photons=0.5),
        1.0,
    ),
    # eta * mu = 0.9 and a 45 degree tilt on the sphere light both
    # detectors, so double clicks are common and the floor is large
    "double_clicks_and_floor": (
        rotation_from_axis_angle(S3, math.radians(45.0)),
        IDENTITY,
        IDENTITY,
        SourceParams(mean_photons=0.9, dark_count_prob=1e-2, misalignment_floor=0.05),
        1.0,
    ),
}


def _repeats(sample, seed, n_pulses, n_repeats=400) -> np.ndarray:
    """Counts of ``n_repeats`` tallies ``sample(n_pulses, rng)``, one row per tally."""
    rng = rng_for(seed)
    tallies = [sample(n_pulses, rng) for _ in range(n_repeats)]
    return np.array([[getattr(t, f) for f in FIELDS] for t in tallies], dtype=float)


def _assert_cell_moments_match(counts_a, counts_b) -> None:
    """Per-cell mean and variance of two samples agree within z = 4."""
    mean_a, var_a, se2_a, vv_a = _cell_moments(counts_a)
    mean_b, var_b, se2_b, vv_b = _cell_moments(counts_b)
    assert np.all(mean_b > 2.0), mean_b  # every cell is populated
    z_mean = (mean_a - mean_b) / np.sqrt(se2_a + se2_b)
    z_var = (var_a - var_b) / np.sqrt(vv_a + vv_b)
    assert np.all(np.abs(z_mean) <= 4.0), z_mean
    assert np.all(np.abs(z_var) <= 4.0), z_var


class TestPerPulseEquivalence:
    """The count-level plant and sampler match the per-pulse oracle in distribution.

    The oracle builds its click table from ``apply_rotation`` and
    ``projection_probability``, so this checks the plant's probability math
    as well as the multinomial draw.
    """

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_cell_mean_and_variance_match(self, case):
        args = EQUIVALENCE_CASES[case]
        _assert_cell_moments_match(
            _repeats(lambda n, rng: plant_batch(n, *args, rng), 21, 20_000),
            _repeats(lambda n, rng: simulate_batch_per_pulse(n, *args, rng), 22, 20_000),
        )

    # the aligned case leaves its wrong cells nearly empty at fraction 0.1
    @pytest.mark.parametrize("case", ["thirty_degree_channel_with_epcs", "double_clicks_and_floor"])
    def test_folded_reveal_matches_a_reveal_coin_per_event(self, case):
        # one batch over the cells scaled by the fraction, as ``feedback``
        # draws the revealed tally, against per-pulse detection followed by
        # an independent reveal coin per sifted event
        args, fraction = EQUIVALENCE_CASES[case], 0.1
        cells = _revealed_cells(plant_cells(*args), fraction)
        _assert_cell_moments_match(
            _repeats(lambda n, rng: simulate_batch(n, cells, rng), 23, 40_000),
            _repeats(lambda n, rng: simulate_batch_per_pulse(n, *args, rng, fraction), 24, 40_000),
        )


class TestDetectionTally:
    @pytest.mark.parametrize("name", FIELDS + ("pulses_sent",))
    def test_negative_count_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            DetectionTally(**{name: -1})
        others = {f: 7 for f in FIELDS + ("pulses_sent",)}
        with pytest.raises(ValueError, match=name):
            DetectionTally(**{**others, name: -1})


class TestMeasurementMatrix:
    """The tests-side paper-form matrix that ``feedback_error`` is checked against."""

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
        bad_rows = [(0.9, 0.2, 0.1, 0.9), (0.5, 0.5, 1.5, -0.5), (0.5, 0.5, 0.5, math.nan)]
        for row in bad_rows:
            with pytest.raises(ValueError):
                MeasurementMatrix(*row)


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
    """The tests-side draw-then-thin reveal that the folded draw is checked against."""

    def test_full_fraction_is_identity(self):
        # the generator is left as it was, so an evaluation at fraction 1
        # makes one draw, the batch's
        full = DetectionTally(n_hh=100, n_hv=5, n_vh=7, n_vv=90, pulses_sent=1000)
        for t in (DetectionTally(), full):
            rng = rng_for(14)
            assert reveal_sample(t, 1.0, rng) is t
            assert rng.random(4).tolist() == rng_for(14).random(4).tolist()

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
