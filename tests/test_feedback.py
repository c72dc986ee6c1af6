import math
from dataclasses import replace

import numpy as np
import pytest

from poltrack import feedback
import controller_oracle as oracle
import matrix_oracle
from matrix_oracle import feedback_error as matrix_e
from controller_oracle import ExactContext, evaluate_rotation
from poltrack.feedback import (
    ControllerConfig,
    ControlResult,
    MonteCarloContext,
    World,
    adjust_squeezer,
    control_cycle,
    feedback_error,
    track,
)
from poltrack.harness import preset_config, run_scenario
from poltrack.optics import (
    AnalyzerSweep,
    RandomWalkChannel,
    ScramblerChannel,
    StaticChannel,
    analyzer_element,
    default_epc,
    drift_axes,
)
from poltrack.photon_sim import (
    DetectionTally,
    EmptyRowError,
    InsufficientDataError,
    SourceParams,
    arm_cell_probs,
    sifted_cell_probs,
)
from poltrack.poincare import IDENTITY, StokesVector, rotation_from_axis_angle

from conftest import numpy_streams_as_golden, random_rotation, random_unit, with_voltage
from optics_oracle import analyzer_element_of_rotation, epc_rotation

S2 = StokesVector(0.0, 1.0, 0.0)
S3 = StokesVector(0.0, 0.0, 1.0)

NOISELESS = SourceParams(mean_photons=1.0, dark_count_prob=0.0, misalignment_floor=0.0)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def mm_from_wrong_rates(j2, j3):
    return matrix_oracle.MeasurementMatrix(1.0 - j2, j2, j3, 1.0 - j3)


def paper_e(tally, basis):
    """E of one basis through the paper-form measurement matrix."""
    return matrix_e(matrix_oracle.measurement_matrix(tally, basis))


def mc_context(channel_rot, seed, batch=16_000, source=NOISELESS, eta=1.0):
    cfg = ControllerConfig(batch_pulses=batch, sample_fraction=1.0)
    return MonteCarloContext(channel_rot, source, eta, cfg, rng_for(seed)), cfg


def measure_e(epc, basis, ctx):
    """One fresh evaluation of E at the EPC's current voltages."""
    return evaluate_rotation(ctx, epc_rotation(epc), basis)


def adjust_one(epc, i, basis, ctx, cfg):
    """``adjust_squeezer`` on squeezer ``i`` of a sweep started from ``epc``.

    The sweep lands the squeezers before ``i`` where they are, so the step
    sees ``epc``; returns the EPC the step leaves and its recenters.
    """
    sweep = AnalyzerSweep(ctx.channel_rot, epc, basis)
    for k in range(i):
        sweep.land(sweep.voltages[k])
    recenters = adjust_squeezer(sweep, ctx, cfg)
    return epc.with_voltages(sweep.voltages), recenters


class CountingContext(ExactContext):
    """ExactContext that counts its evaluations."""

    calls = 0

    def evaluate(self, m, basis):
        self.calls += 1
        return super().evaluate(m, basis)


class TestFeedbackError:
    """The paper-form E of a measurement matrix, the reference of ``feedback_error``."""

    def test_identity_matrix_gives_zero(self):
        assert matrix_e(mm_from_wrong_rates(0.0, 0.0)) == 0.0

    def test_half_half(self):
        assert matrix_e(mm_from_wrong_rates(0.5, 0.5)) == 1.0

    def test_sixty_degree_misalignment(self):
        # a 60 degree rotation about s2 puts a quarter of each row in the
        # wrong port: E = 2 * (0.0625 + 0.0625)
        assert matrix_e(mm_from_wrong_rates(0.25, 0.25)) == pytest.approx(0.25)

    def test_matches_full_frobenius_form(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            j2, j3 = rng.uniform(0.0, 1.0, size=2)
            mm = mm_from_wrong_rates(float(j2), float(j3))
            full = (mm.j1 - 1.0) ** 2 + mm.j2**2 + mm.j3**2 + (mm.j4 - 1.0) ** 2
            assert matrix_e(mm) == pytest.approx(full, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            j2, j3 = rng.uniform(0.0, 1.0, size=2)
            e = matrix_e(mm_from_wrong_rates(float(j2), float(j3)))
            assert 0.0 <= e <= 4.0
        assert matrix_e(mm_from_wrong_rates(1.0, 1.0)) == 4.0

    def test_zero_iff_both_wrong_rates_zero(self):
        assert matrix_e(mm_from_wrong_rates(0.0, 0.0)) == 0.0
        assert matrix_e(mm_from_wrong_rates(1e-6, 0.0)) > 0.0
        assert matrix_e(mm_from_wrong_rates(0.0, 1e-6)) > 0.0


class TestFeedbackErrorFromCounts:
    """``feedback_error`` reads E from the counts exactly as the paper form does."""

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_equals_the_matrix_form_bit_for_bit(self, basis):
        rng = np.random.default_rng(53)
        for _ in range(2000):
            # counts from 1 to 10^5, with some cells empty (never a whole row)
            counts = rng.integers(1, 10**int(rng.integers(1, 6)), size=8, endpoint=True)
            counts[rng.random(8) < 0.2] = 0
            counts[[0, 2, 4, 6]] += (counts[[0, 2, 4, 6]] + counts[[1, 3, 5, 7]]) == 0
            tally = DetectionTally(*counts.tolist())
            assert feedback_error(tally, basis).hex() == paper_e(tally, basis).hex(), tally

    @pytest.mark.parametrize(
        "basis, empty, row",
        [("Z", ("n_hh", "n_hv"), "H"), ("Z", ("n_vh", "n_vv"), "V"),
         ("X", ("n_dd", "n_da"), "D"), ("X", ("n_ad", "n_aa"), "A")],
    )
    def test_empty_row_raises_the_same_named_error(self, basis, empty, row):
        full = dict(n_hh=5, n_hv=1, n_vh=2, n_vv=6, n_dd=7, n_da=3, n_ad=4, n_aa=8)
        tally = DetectionTally(**{**full, **dict.fromkeys(empty, 0)})
        for e_of in (feedback_error, paper_e):
            with pytest.raises(EmptyRowError) as err:
                e_of(tally, basis)
            assert (err.value.basis, err.value.row) == (basis, row)
            assert str(err.value) == f"no counts in basis {basis}, row {row}"
        # the other basis is unaffected
        other = "X" if basis == "Z" else "Z"
        assert feedback_error(tally, other) == paper_e(tally, other)


class TestBasisAlignmentFixedPoint:
    def test_rotation_fixing_both_axes_is_identity(self):
        # zero exact feedback in both bases forces the composed map to fix
        # the s1 and s2 axes simultaneously, which only the identity does
        rng = np.random.default_rng(54)
        for _ in range(200):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            angle = rng.uniform(0.05, 2 * math.pi - 0.05)
            channel = rotation_from_axis_angle(StokesVector(*v), float(angle))
            ctx = ExactContext(channel)
            e_z = evaluate_rotation(ctx, IDENTITY, "Z")
            e_x = evaluate_rotation(ctx, IDENTITY, "X")
            if e_z <= 1e-15 and e_x <= 1e-15:
                # both bases aligned: the rotation must act as the identity
                # on the whole sphere (angle 0 or a full turn)
                a = channel.angle
                assert min(a, 2 * math.pi - a) <= 1e-6

    def test_axis_aligned_rotation_only_hides_from_its_own_basis(self):
        # rotating about the s1 axis fixes H, so the Z-basis signal is blind
        # to it, but the X basis sees it
        r = rotation_from_axis_angle(StokesVector(1.0, 0.0, 0.0), 0.7)
        ctx = ExactContext(r)
        assert evaluate_rotation(ctx, IDENTITY, "Z") == pytest.approx(0.0, abs=1e-15)
        assert evaluate_rotation(ctx, IDENTITY, "X") > 1e-3

    def test_zero_feedback_in_both_bases_means_zero_qber(self):
        ctx = ExactContext(IDENTITY)
        assert evaluate_rotation(ctx, IDENTITY, "Z") == 0.0
        assert evaluate_rotation(ctx, IDENTITY, "X") == 0.0
        # wrong-port rate (1 - m) / 2 of each arm
        assert analyzer_element(IDENTITY, default_epc(), "Z") == 1.0
        assert analyzer_element(IDENTITY, default_epc(), "X") == 1.0


class TestMeasureE:
    def test_aligned_noiseless_plant_is_exact_zero(self):
        ctx, _ = mc_context(IDENTITY, 1)
        assert measure_e(default_epc(), "Z", ctx) == 0.0

    def test_sample_mean_converges_to_analytic_value(self):
        channel = rotation_from_axis_angle(S2, math.radians(60.0))
        src = SourceParams(mean_photons=0.1, dark_count_prob=0.0, misalignment_floor=0.0)
        ctx, _ = mc_context(channel, 2, batch=40_000, source=src)
        epc = default_epc()
        values = [measure_e(epc, "Z", ctx) for _ in range(100)]
        analytic = evaluate_rotation(ExactContext(channel), epc_rotation(epc), "Z")
        assert analytic == pytest.approx(0.25, abs=1e-12)
        se = float(np.std(values)) / math.sqrt(len(values))
        assert abs(float(np.mean(values)) - analytic) <= 3 * se

    def test_consumes_generator_state(self):
        channel = rotation_from_axis_angle(S2, 0.4)
        ctx, _ = mc_context(channel, 3)
        epc = default_epc()
        assert measure_e(epc, "Z", ctx) != measure_e(epc, "Z", ctx)

    def test_starved_batch_raises_insufficient_data(self):
        # one pulse through a nearly opaque link leaves the tally empty
        ctx, _ = mc_context(IDENTITY, 4, batch=1, eta=1e-9)
        with pytest.raises(InsufficientDataError):
            measure_e(default_epc(), "Z", ctx)


class TestAdjustSqueezer:
    def test_flat_response_leaves_voltage(self):
        # aligned plant: E is exactly zero on both sides of the dither
        ctx = ExactContext(IDENTITY)
        epc = default_epc()
        out, recenters = adjust_one(epc, 0, "Z", ctx, ControllerConfig())
        assert out.voltages == epc.voltages
        assert recenters == 0

    def test_update_direction_opposes_gradient(self):
        rng = np.random.default_rng(53)
        cfg = ControllerConfig()
        checked = 0
        for case in range(40):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            channel = rotation_from_axis_angle(StokesVector(*v), rng.uniform(0.1, 1.2))
            ctx = ExactContext(channel)
            epc = default_epc(rng, gain_jitter=0.1)
            i = int(rng.integers(0, 4))
            v = epc.voltages[i]
            # independent central-difference slope with step D/10
            h = cfg.dither_volts / 10.0
            e_plus = evaluate_rotation(ctx, epc_rotation(with_voltage(epc, i, v + h)), "Z")
            e_minus = evaluate_rotation(ctx, epc_rotation(with_voltage(epc, i, v - h)), "Z")
            slope = (e_plus - e_minus) / (2.0 * h)
            if abs(slope) < 1e-4:
                continue
            out, _ = adjust_one(epc, i, "Z", ctx, cfg)
            dv = out.voltages[i] - v
            assert math.copysign(1.0, dv) == -math.copysign(1.0, slope)
            checked += 1
        assert checked >= 20

    def test_out_of_range_update_recenters(self):
        # an enormous tau drives the update far outside the drive range;
        # squeezer 2 (axis on s2) sees a non-degenerate response here
        channel = rotation_from_axis_angle(S3, 0.8)
        ctx = ExactContext(channel)
        cfg = ControllerConfig(tau=-1e9)
        out, recenters = adjust_one(default_epc(), 1, "Z", ctx, cfg)
        assert out.voltages[1] == out.center
        assert recenters == 1

    def test_no_probe_headroom_recenters_first(self):
        ctx = ExactContext(IDENTITY)
        cfg = ControllerConfig()
        out, recenters = adjust_one(with_voltage(default_epc(), 2, 149.5), 2, "Z", ctx, cfg)
        assert recenters == 1
        assert out.voltages[2] == out.center

    def test_gradient_error_shrinks_linearly_with_dither(self):
        # forward-difference slope error is first order in the dither size
        channel = rotation_from_axis_angle(S3, 0.9)
        ctx = ExactContext(channel)
        epc = default_epc()
        i, v = 0, 75.0
        h = 1e-4

        def fd_slope(d):
            e1 = evaluate_rotation(ctx, epc_rotation(epc), "Z")
            e2 = evaluate_rotation(ctx, epc_rotation(with_voltage(epc, i, v + d)), "Z")
            return (e2 - e1) / d

        truth = (
            evaluate_rotation(ctx, epc_rotation(with_voltage(epc, i, v + h)), "Z")
            - evaluate_rotation(ctx, epc_rotation(with_voltage(epc, i, v - h)), "Z")
        ) / (2.0 * h)
        err_d = abs(fd_slope(1.0) - truth)
        err_half = abs(fd_slope(0.5) - truth)
        assert err_half <= 0.6 * err_d + 1e-12


class TestControlCycle:
    def test_below_threshold_holds_voltages(self):
        ctx = ExactContext(IDENTITY)
        epc = default_epc()
        out = control_cycle(epc, 0.0001, "Z", ctx, ControllerConfig())
        assert out == ControlResult(epc, 0, True)
        assert out.epc is epc  # a hold builds no new EPC

    def test_hold_persists_across_cycles(self):
        ctx = ExactContext(IDENTITY)
        epc = default_epc()
        cfg = ControllerConfig()
        for _ in range(5):
            out = control_cycle(epc, measure_e(epc, "Z", ctx), "Z", ctx, cfg)
            epc = out.epc
            assert out.converged
        assert epc.voltages == default_epc().voltages

    def test_converges_from_thirty_degree_misalignment(self):
        channel = rotation_from_axis_angle(S2, math.radians(30.0))
        ctx = ExactContext(channel)
        cfg = ControllerConfig(max_cycles_per_correction=200)
        epc = default_epc()
        out = control_cycle(epc, measure_e(epc, "Z", ctx), "Z", ctx, cfg)
        assert out.converged
        assert measure_e(out.epc, "Z", ctx) < cfg.e_threshold
        # wrong-port rate is bounded by sqrt(E/2) via Cauchy-Schwarz
        qber_b = 0.5 * (1.0 - analyzer_element(channel, out.epc, "Z"))
        assert qber_b < math.sqrt(cfg.e_threshold / 2.0)

    def test_degenerate_zero_tau_never_moves(self):
        channel = rotation_from_axis_angle(S2, math.radians(30.0))
        ctx = ExactContext(channel)
        cfg = ControllerConfig(tau=-0.0, max_cycles_per_correction=3)
        epc = default_epc()
        out = control_cycle(epc, measure_e(epc, "Z", ctx), "Z", ctx, cfg)
        assert out.epc.voltages == epc.voltages
        assert not out.converged

    def test_hold_makes_no_evaluation(self):
        # the cycle decides on the E it is given, even on a misaligned plant
        ctx = CountingContext(rotation_from_axis_angle(S2, math.radians(30.0)))
        epc = default_epc()
        out = control_cycle(epc, 0.0, "Z", ctx, ControllerConfig())
        assert ctx.calls == 0
        assert out == ControlResult(epc, 0, True)

    def test_correction_costs_nine_evaluations_per_sweep(self):
        # each sweep is four two-point probes plus one re-measurement
        channel = rotation_from_axis_angle(S2, math.radians(30.0))
        start = default_epc()
        e0 = evaluate_rotation(ExactContext(channel), epc_rotation(start), "Z")

        def run(cap):
            ctx = CountingContext(channel)
            cfg = ControllerConfig(max_cycles_per_correction=cap)
            return control_cycle(start, e0, "Z", ctx, cfg), ctx.calls

        out, calls = run(200)
        assert out.converged
        sweeps, rest = divmod(calls, 9)
        assert rest == 0 and sweeps >= 2
        # one sweep fewer does not converge: it took exactly ``sweeps``
        out, calls = run(sweeps - 1)
        assert not out.converged
        assert calls == 9 * (sweeps - 1)

    def test_capped_correction_budget_includes_recentered_probe(self):
        # squeezer 2 has no headroom to probe, so its first adjustment
        # recenters before probing; zero tau keeps the correction capped
        ctx = CountingContext(rotation_from_axis_angle(S2, math.radians(30.0)))
        cfg = ControllerConfig(tau=-0.0, max_cycles_per_correction=3)
        epc = with_voltage(default_epc(), 2, 149.5)
        out = control_cycle(epc, measure_e(epc, "Z", ctx), "Z", ctx, cfg)
        assert not out.converged
        assert out.recenters == 1
        assert ctx.calls == 1 + 9 * 3  # the first is this test's own reading

    def test_positive_tau_rejected(self):
        with pytest.raises(ValueError):
            ControllerConfig(tau=1.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="batch_pulses"):
            ControllerConfig(batch_pulses=0)


def random_correction_start(rng):
    """A drifted jittered-gain EPC at random voltages behind a random misalignment."""
    epc = default_epc(rng, gain_jitter=0.1)
    for i in range(4):
        epc = with_voltage(epc, i, float(rng.uniform(0.0, 150.0)))
    epc = drift_axes(epc, rng, sigma=0.05, max_wander=math.radians(10.0))
    axis = StokesVector(*random_unit(rng))
    channel = rotation_from_axis_angle(axis, float(rng.uniform(0.0, math.pi / 2)))
    return epc, channel


class TestMatchesOracleController:
    """The controller equals ``controller_oracle``, which composes EPC rotations.

    Both decide on E alone; the package reads each analyzer element from
    ``AnalyzerSweep``'s closed form, the oracle from ``epc_rotation`` and
    ``analyzer_element_of_rotation``.
    """

    @numpy_streams_as_golden
    @pytest.mark.parametrize("fraction", [1.0, 0.1])
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_monte_carlo_corrections_equal_the_oracle_bit_for_bit(self, basis, fraction):
        src = SourceParams(mean_photons=0.5, dark_count_prob=1e-4, misalignment_floor=0.012)
        cfg = ControllerConfig(batch_pulses=25_000, sample_fraction=fraction)
        rng = np.random.default_rng(81 if basis == "Z" else 82)
        outcomes = set()
        for k in range(200):
            start, channel = random_correction_start(rng)
            ctx, ref = (
                MonteCarloContext(channel, src, 0.9, cfg, rng_for(1000 + k)) for _ in range(2)
            )
            out = control_cycle(start, 1.0, basis, ctx, cfg)
            want = oracle.control_cycle(start, 1.0, basis, ref, cfg)
            assert out.epc.voltages == want.epc.voltages, k
            assert out.recenters == want.recenters, k
            assert out.converged == want.converged, k
            assert ctx.rng.random(4).tolist() == ref.rng.random(4).tolist(), k  # same stream
            outcomes.add((out.converged, out.recenters > 0))
        # converged and capped corrections, with and without recenters, all occur
        assert outcomes == {(True, False), (True, True), (False, False), (False, True)}

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_exact_corrections_match_the_oracle(self, basis):
        cfg = ControllerConfig()
        rng = np.random.default_rng(83 if basis == "Z" else 84)
        agreed = diverged = 0
        for k in range(200):
            start, channel = random_correction_start(rng)
            ctx, ref = CountingContext(channel), CountingContext(channel)
            out = control_cycle(start, 1.0, basis, ctx, cfg)
            want = oracle.control_cycle(start, 1.0, basis, ref, cfg)
            same_decisions = (
                ctx.calls == ref.calls
                and out.converged == want.converged
                and out.recenters == want.recenters
            )
            if not same_decisions:
                diverged += 1
                continue
            agreed += 1
            gap = max(abs(a - b) for a, b in zip(out.epc.voltages, want.epc.voltages))
            assert gap <= 1e-9, (k, gap)
        # a flip needs E within rounding of a threshold or a range edge
        print(f"{basis}: {agreed} corrections agree within 1e-9 V, {diverged} decided otherwise")
        assert diverged <= 2


class TestTrack:
    def test_zero_duration_gives_empty_series(self):
        world = World(channel=StaticChannel(IDENTITY), source=NOISELESS, eta=1.0)
        series = track(
            default_epc(),
            default_epc(),
            ControllerConfig(),
            world,
            0,
            seed=1,
        )
        assert len(series) == 0

    def test_aligned_noise_floor_only(self):
        # static aligned world: the mean estimate matches the device floor
        src = SourceParams(mean_photons=0.5, dark_count_prob=0.0, misalignment_floor=0.01)
        world = World(channel=StaticChannel(IDENTITY), source=src, eta=1.0)
        cfg = ControllerConfig()
        series = track(
            default_epc(),
            default_epc(),
            cfg,
            world,
            60,
            control_enabled=False,
            seed=2,
        )
        q = np.array(series.column("qber_est"))
        se = float(np.std(q)) / math.sqrt(len(q))
        assert abs(float(np.mean(q)) - 0.01) <= max(3 * se, 5e-4)

    def test_row_bookkeeping(self):
        world = World(channel=StaticChannel(IDENTITY), source=NOISELESS, eta=1.0)
        cfg = ControllerConfig()
        series = track(
            default_epc(),
            default_epc(),
            cfg,
            world,
            3,
            seed=3,
        )
        assert [r.cycle for r in series] == [1, 2, 3]
        assert [r.t_seconds for r in series] == [12.0, 24.0, 36.0]
        assert all(len(r.voltages) == 8 for r in series)

    def test_scramble_controlled_beats_uncontrolled(self):
        # paired seed: identical channel trajectory with and without control
        src = SourceParams(mean_photons=0.5, dark_count_prob=0.0, misalignment_floor=0.01)
        cfg = ControllerConfig(batch_pulses=15_000, max_cycles_per_correction=3)

        def run(control):
            world = World(
                channel=ScramblerChannel(axis=S3, rate=0.4), source=src, eta=1.0
            )
            series = track(
                default_epc(),
                default_epc(),
                cfg,
                world,
                400,
                control_enabled=control,
                seed=4,
            )
            return float(np.mean(series.column("qber_est")))

        controlled, uncontrolled = run(True), run(False)
        assert controlled < uncontrolled

    def test_deterministic(self):
        src = SourceParams(mean_photons=0.5)
        world = World(channel=ScramblerChannel(axis=S3, rate=0.4), source=src, eta=1.0)
        cfg = ControllerConfig(batch_pulses=10_000)

        def run():
            return track(
                default_epc(),
                default_epc(),
                cfg,
                World(channel=ScramblerChannel(axis=S3, rate=0.4), source=src, eta=1.0),
                30,
                seed=5,
            )

        assert run() == run()

    def test_one_seed_sequence_gives_the_same_series_twice(self):
        # each stream is a keyed child of the sequence, which spawning would advance
        src = SourceParams(mean_photons=0.5)
        cfg = ControllerConfig(batch_pulses=10_000)
        world = World(channel=RandomWalkChannel(0.05), source=src, eta=1.0, axis_drift_sigma=0.01)
        ss = np.random.SeedSequence(7)

        def run(seed):
            return track(default_epc(), default_epc(), cfg, world, 20, seed=seed)

        first = run(ss)
        assert run(ss) == first
        assert run(7) == first

    def test_a_seed_and_key_give_the_series_of_their_seed_sequence(self):
        # run_scenario hands track its seed and key; the streams are keyed the same
        src = SourceParams(mean_photons=0.5)
        cfg = ControllerConfig(batch_pulses=10_000)
        world = World(channel=RandomWalkChannel(0.05), source=src, eta=1.0, axis_drift_sigma=0.01)

        def run(seed, spawn_key=()):
            return track(default_epc(), default_epc(), cfg, world, 20, seed=seed,
                         spawn_key=spawn_key)

        keyed = run(np.random.SeedSequence(7, spawn_key=(2, 5)))
        assert run(7, (2, 5)) == keyed
        assert run(np.random.SeedSequence(7, spawn_key=(2,)), (5,)) == keyed  # the key extends
        assert run(7, (2,)) != keyed

    def test_control_on_and_off_see_the_same_channel_rotations(self, monkeypatch):
        step, rotations = feedback.channel_step, []

        def recorded(ch, rng):
            ch, rot = step(ch, rng)
            rotations[-1].append(rot)
            return ch, rot

        monkeypatch.setattr(feedback, "channel_step", recorded)
        src = SourceParams(mean_photons=0.5, dark_count_prob=0.0, misalignment_floor=0.01)
        world = World(channel=RandomWalkChannel(0.05), source=src, eta=1.0, axis_drift_sigma=0.01)
        cfg = ControllerConfig(batch_pulses=10_000, max_cycles_per_correction=3)
        runs = {}
        for control in (True, False):
            rotations.append([])
            runs[control] = track(
                default_epc(), default_epc(), cfg, world, 40, control_enabled=control, seed=8
            )
        assert len(rotations[0]) == 40
        assert rotations[0] == rotations[1]
        # the channel stream is its key's alone, so a new consumer cannot move it
        key = np.random.SeedSequence(8, spawn_key=(feedback._CHANNEL,))
        rng, ch = np.random.Generator(np.random.Philox(key)), world.channel
        for want in rotations[0]:
            ch, rot = step(ch, rng)
            assert rot == want
        assert runs[True].column("voltages") != runs[False].column("voltages")  # control acted

    def test_a_starved_x_correction_keeps_what_z_did(self, monkeypatch):
        # Z corrects, then X's first evaluation is starved: the row holds Z's
        # new voltages and recenters, X's old voltages, and no convergence
        starved = []

        class StarvedX(MonteCarloContext):
            def evaluate(self, m, basis):
                if basis == "X":
                    starved.append(basis)
                    raise InsufficientDataError("no revealed bits")
                return super().evaluate(m, basis)

        results, cycle = [], feedback.control_cycle

        def recorded(*args):
            results.append(cycle(*args))
            return results[-1]

        monkeypatch.setattr(feedback, "MonteCarloContext", StarvedX)
        monkeypatch.setattr(feedback, "control_cycle", recorded)
        channel = StaticChannel(rotation_from_axis_angle(StokesVector.unit(1.0, 1.0, 1.0), 1.0))
        world = World(channel=channel, source=NOISELESS, eta=1.0)
        cfg = ControllerConfig(tau=-1e9, max_cycles_per_correction=1)  # every move recenters
        start = default_epc().with_voltages((10.0, 20.0, 30.0, 40.0))
        (row,) = track(start, start, cfg, world, 1, seed=9)
        (z,) = results
        assert starved == ["X"] and min(row.e_z, row.e_x) >= cfg.e_threshold
        assert z.epc.voltages != start.voltages and z.recenters > 0
        assert row.voltages == z.epc.voltages + start.voltages
        assert row.recenter == z.recenters
        assert not row.converged


class TestSimulateBatchHook:
    """Every batch of a run is drawn through the name ``feedback.simulate_batch``.

    Pulse accounting that rebinds that module-level name, as the benchmark's
    pulse counter does, would silently miss a batch drawn any other way.
    """

    def test_one_call_per_monitor_batch_and_evaluation(self, monkeypatch):
        batches, evaluations = [], []
        draw, evaluate = feedback.simulate_batch, MonteCarloContext.evaluate

        def counted_draw(n_pulses, *args):
            batches.append(n_pulses)
            return draw(n_pulses, *args)

        def counted_evaluate(self, m, basis):
            evaluations.append(basis)
            return evaluate(self, m, basis)

        monkeypatch.setattr(feedback, "simulate_batch", counted_draw)
        monkeypatch.setattr(MonteCarloContext, "evaluate", counted_evaluate)
        series, _ = run_scenario(replace(preset_config("scramble04"), duration=20, seed=7))
        assert len(series) == 20
        assert len(evaluations) > len(series)  # the controller corrected
        assert len(batches) == len(series) + len(evaluations)


def cells_before_split(m_z, m_x, src, eta):
    """The eight sifted cells as the plant computed them before the per-arm split."""
    mu_eta = eta * src.mean_photons
    no_dark = 1.0 - src.dark_count_prob
    f = src.misalignment_floor
    q = []
    for m in (m_z, m_x):
        a_right = min(1.0, max(0.0, 0.5 * (1.0 + m)))
        p_right = 1.0 - math.exp(-mu_eta * a_right) * no_dark
        p_wrong = 1.0 - math.exp(-mu_eta * (1.0 - a_right)) * no_dark
        half_both = 0.5 * p_right * p_wrong
        r_right = p_right - half_both
        r_wrong = p_wrong - half_both
        right = ((1.0 - f) * r_right + f * r_wrong) / 8.0
        wrong = ((1.0 - f) * r_wrong + f * r_right) / 8.0
        q += (right, wrong, wrong, right)
    return q


def idle_elements(channel_rot, m, basis):
    """``(m_z, m_x)`` with the measured arm at ``m`` and the other arm behind no EPC."""
    if basis == "Z":
        return m, analyzer_element(channel_rot, None, "X")
    return analyzer_element(channel_rot, None, "Z"), m


def full_plant_evaluate(ctx, m, basis):
    """``MonteCarloContext.evaluate`` drawn from all eight cells computed afresh.

    The arm not being measured is read behind no EPC, as the context reads
    it, but its cells are recomputed on every call, as they were before the
    context kept the idle arm.  Below fraction 1 each cell is scaled by the
    fraction, so the one draw gives the revealed tally.  E comes from the
    paper-form measurement matrix.
    """
    q = cells_before_split(*idle_elements(ctx.channel_rot, m, basis), ctx.source, ctx.eta)
    fraction = ctx.config.sample_fraction
    if fraction < 1.0:
        q = [fraction * c for c in q]
    q.append(1.0 - sum(q))
    n = ctx.config.batch_pulses
    revealed = DetectionTally(*ctx.rng.multinomial(n, q)[:8].tolist(), pulses_sent=n)
    return paper_e(revealed, basis)


class TestIdleArm:
    """The context keeps the unmeasured arm's cells; evaluations equal the full plant."""

    def test_cells_equal_the_full_plant_bit_for_bit(self, monkeypatch):
        drawn = []

        def capture(n_pulses, cells, rng):
            drawn.append(cells)
            return DetectionTally(n_hh=1, n_vv=1, n_dd=1, n_aa=1, pulses_sent=n_pulses)

        monkeypatch.setattr(feedback, "simulate_batch", capture)
        rng = np.random.default_rng(71)
        sources = (SourceParams(mean_photons=0.5), SourceParams(0.9, 1e-2, 0.05), NOISELESS)
        for case in range(400):
            channel, epc_rot = random_rotation(rng), random_rotation(rng)
            src, eta = sources[case % 3], float(rng.uniform(0.01, 1.0))
            ctx = MonteCarloContext(channel, src, eta, ControllerConfig(), rng)
            for basis in ("Z", "X"):
                m = analyzer_element_of_rotation(channel, epc_rot, basis)
                ctx.evaluate(m, basis)
                m_z, m_x = idle_elements(channel, m, basis)
                got = [c.hex() for c in drawn.pop()]
                assert got == [c.hex() for c in sifted_cell_probs(m_z, m_x, src, eta)]
                assert got == [c.hex() for c in cells_before_split(m_z, m_x, src, eta)]

    def test_only_the_read_idle_arm_is_computed(self, monkeypatch):
        # track measures one basis per context, so the other idle arm is never read
        calls = []

        def counting(m, src, eta):
            calls.append(m)
            return arm_cell_probs(m, src, eta)

        monkeypatch.setattr(feedback, "arm_cell_probs", counting)
        channel = rotation_from_axis_angle(StokesVector.unit(1.0, 2.0, -1.0), 0.8)
        src = SourceParams(mean_photons=0.5)
        ctx = MonteCarloContext(channel, src, 0.9, ControllerConfig(), rng_for(74))
        assert calls == []
        for n in range(1, 6):
            epc_rot = random_rotation(np.random.default_rng(n))
            ctx.evaluate(analyzer_element_of_rotation(channel, epc_rot, "X"), "X")
            assert len(calls) == n + 1

    @numpy_streams_as_golden
    @pytest.mark.parametrize("fraction", [1.0, 0.1])
    def test_evaluations_equal_a_full_plant_reference(self, fraction):
        channel = rotation_from_axis_angle(StokesVector.unit(1.0, 2.0, -1.0), 0.8)
        src = SourceParams(mean_photons=0.5, dark_count_prob=1e-4, misalignment_floor=0.012)
        cfg = ControllerConfig(batch_pulses=20_000, sample_fraction=fraction)
        ctx = MonteCarloContext(channel, src, 0.9, cfg, rng_for(72))
        ref = MonteCarloContext(channel, src, 0.9, cfg, rng_for(72))
        setup = np.random.default_rng(73)
        for k in range(300):
            epc_rot, basis = random_rotation(setup), "ZX"[k % 2]
            m = analyzer_element_of_rotation(channel, epc_rot, basis)
            assert ctx.evaluate(m, basis) == full_plant_evaluate(ref, m, basis), k
        # the generators end in the same state
        assert ctx.rng.random(4).tolist() == ref.rng.random(4).tolist()
