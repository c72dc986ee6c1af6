import math
from dataclasses import replace

import numpy as np
import pytest

from poltrack import feedback
from poltrack.feedback import (
    ControllerConfig,
    ControllerState,
    ExactContext,
    MonteCarloContext,
    World,
    adjust_squeezer,
    control_cycle,
    feedback_error,
    track,
)
from poltrack.harness import preset_config, run_scenario
from poltrack.optics import StaticChannel, ScramblerChannel, default_epc, epc_rotation
from poltrack.photon_sim import (
    InsufficientDataError,
    MeasurementMatrix,
    SourceParams,
    analyzer_element,
)
from poltrack.poincare import IDENTITY, StokesVector, rotation_from_axis_angle

S2 = StokesVector(0.0, 1.0, 0.0)
S3 = StokesVector(0.0, 0.0, 1.0)

NOISELESS = SourceParams(mu=1.0, dark_count_prob=0.0, misalignment_floor=0.0)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def mm_from_wrong_rates(j2, j3):
    return MeasurementMatrix(1.0 - j2, j2, j3, 1.0 - j3)


def mc_context(channel_rot, seed, batch=16_000, source=NOISELESS, eta=1.0):
    cfg = ControllerConfig(batch_pulses=batch, sample_fraction=1.0)
    return MonteCarloContext(channel_rot, source, eta, cfg, rng_for(seed)), cfg


def measure_e(state, basis, ctx):
    """One fresh evaluation of E at the state's current voltages."""
    return ctx.evaluate(epc_rotation(state.epc), basis)


class CountingContext(ExactContext):
    """ExactContext that counts its evaluations."""

    calls = 0

    def evaluate(self, epc_rot, basis):
        self.calls += 1
        return super().evaluate(epc_rot, basis)


class TestFeedbackError:
    def test_identity_matrix_gives_zero(self):
        assert feedback_error(mm_from_wrong_rates(0.0, 0.0)) == 0.0

    def test_half_half(self):
        assert feedback_error(mm_from_wrong_rates(0.5, 0.5)) == 1.0

    def test_sixty_degree_misalignment(self):
        # a 60 degree rotation about s2 puts a quarter of each row in the
        # wrong port: E = 2 * (0.0625 + 0.0625)
        assert feedback_error(mm_from_wrong_rates(0.25, 0.25)) == pytest.approx(0.25)

    def test_matches_full_frobenius_form(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            j2, j3 = rng.uniform(0.0, 1.0, size=2)
            mm = mm_from_wrong_rates(float(j2), float(j3))
            full = (mm.j1 - 1.0) ** 2 + mm.j2**2 + mm.j3**2 + (mm.j4 - 1.0) ** 2
            assert feedback_error(mm) == pytest.approx(full, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            j2, j3 = rng.uniform(0.0, 1.0, size=2)
            e = feedback_error(mm_from_wrong_rates(float(j2), float(j3)))
            assert 0.0 <= e <= 4.0
        assert feedback_error(mm_from_wrong_rates(1.0, 1.0)) == 4.0

    def test_zero_iff_both_wrong_rates_zero(self):
        assert feedback_error(mm_from_wrong_rates(0.0, 0.0)) == 0.0
        assert feedback_error(mm_from_wrong_rates(1e-6, 0.0)) > 0.0
        assert feedback_error(mm_from_wrong_rates(0.0, 1e-6)) > 0.0


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
            e_z = ctx.evaluate(IDENTITY, "Z")
            e_x = ctx.evaluate(IDENTITY, "X")
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
        assert ctx.evaluate(IDENTITY, "Z") == pytest.approx(0.0, abs=1e-15)
        assert ctx.evaluate(IDENTITY, "X") > 1e-3

    def test_zero_feedback_in_both_bases_means_zero_qber(self):
        ctx = ExactContext(IDENTITY)
        assert ctx.evaluate(IDENTITY, "Z") == 0.0
        assert ctx.evaluate(IDENTITY, "X") == 0.0
        # wrong-port rate (1 - m) / 2 of each arm
        assert analyzer_element(IDENTITY, IDENTITY, "Z") == 1.0
        assert analyzer_element(IDENTITY, IDENTITY, "X") == 1.0


class TestMeasureE:
    def test_aligned_noiseless_plant_is_exact_zero(self):
        ctx, _ = mc_context(IDENTITY, 1)
        state = ControllerState(epc=default_epc())
        assert measure_e(state, "Z", ctx) == 0.0

    def test_sample_mean_converges_to_analytic_value(self):
        channel = rotation_from_axis_angle(S2, math.radians(60.0))
        src = SourceParams(mu=0.1, dark_count_prob=0.0, misalignment_floor=0.0)
        ctx, _ = mc_context(channel, 2, batch=40_000, source=src)
        state = ControllerState(epc=default_epc())
        values = [measure_e(state, "Z", ctx) for _ in range(100)]
        analytic = ExactContext(channel).evaluate(epc_rotation(state.epc), "Z")
        assert analytic == pytest.approx(0.25, abs=1e-12)
        se = float(np.std(values)) / math.sqrt(len(values))
        assert abs(float(np.mean(values)) - analytic) <= 3 * se

    def test_consumes_generator_state(self):
        channel = rotation_from_axis_angle(S2, 0.4)
        ctx, _ = mc_context(channel, 3)
        state = ControllerState(epc=default_epc())
        assert measure_e(state, "Z", ctx) != measure_e(state, "Z", ctx)

    def test_starved_batch_raises_insufficient_data(self):
        # one pulse through a nearly opaque link leaves the tally empty
        ctx, _ = mc_context(IDENTITY, 4, batch=1, eta=1e-9)
        state = ControllerState(epc=default_epc())
        with pytest.raises(InsufficientDataError):
            measure_e(state, "Z", ctx)


class TestAdjustSqueezer:
    def test_flat_response_leaves_voltage(self):
        # aligned plant: E is exactly zero on both sides of the dither
        ctx = ExactContext(IDENTITY)
        state = ControllerState(epc=default_epc())
        voltages = state.epc.voltages
        out = adjust_squeezer(state, 0, "Z", ctx, ControllerConfig())
        assert out.epc.voltages == voltages
        assert out.recenter_count == 0

    def test_update_direction_opposes_gradient(self):
        rng = np.random.default_rng(53)
        cfg = ControllerConfig()
        checked = 0
        for case in range(40):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            channel = rotation_from_axis_angle(StokesVector(*v), rng.uniform(0.1, 1.2))
            ctx = ExactContext(channel)
            state = ControllerState(epc=default_epc(rng, gain_jitter=0.1))
            i = int(rng.integers(0, 4))
            sq = state.epc.squeezers[i]
            # independent central-difference slope with step D/10
            h = cfg.dither / 10.0
            e_plus = ctx.evaluate(epc_rotation(state.epc.with_voltage(i, sq.voltage + h)), "Z")
            e_minus = ctx.evaluate(epc_rotation(state.epc.with_voltage(i, sq.voltage - h)), "Z")
            slope = (e_plus - e_minus) / (2.0 * h)
            if abs(slope) < 1e-4:
                continue
            out = adjust_squeezer(state, i, "Z", ctx, cfg)
            dv = out.epc.squeezers[i].voltage - sq.voltage
            assert math.copysign(1.0, dv) == -math.copysign(1.0, slope)
            checked += 1
        assert checked >= 20

    def test_out_of_range_update_recenters(self):
        # an enormous tau drives the update far outside the drive range;
        # squeezer 2 (axis on s2) sees a non-degenerate response here
        channel = rotation_from_axis_angle(S3, 0.8)
        ctx = ExactContext(channel)
        cfg = ControllerConfig(tau=-1e9)
        state = ControllerState(epc=default_epc())
        out = adjust_squeezer(state, 1, "Z", ctx, cfg)
        sq = out.epc.squeezers[1]
        assert sq.voltage == sq.center
        assert out.recenter_count == 1

    def test_no_probe_headroom_recenters_first(self):
        ctx = ExactContext(IDENTITY)
        cfg = ControllerConfig()
        state = ControllerState(epc=default_epc().with_voltage(2, 149.5))
        out = adjust_squeezer(state, 2, "Z", ctx, cfg)
        assert out.recenter_count == 1
        assert out.epc.squeezers[2].voltage == out.epc.squeezers[2].center

    def test_gradient_error_shrinks_linearly_with_dither(self):
        # forward-difference slope error is first order in the dither size
        channel = rotation_from_axis_angle(S3, 0.9)
        ctx = ExactContext(channel)
        epc = default_epc()
        i, v = 0, 75.0
        h = 1e-4

        def fd_slope(d):
            e1 = ctx.evaluate(epc_rotation(epc), "Z")
            e2 = ctx.evaluate(epc_rotation(epc.with_voltage(i, v + d)), "Z")
            return (e2 - e1) / d

        truth = (
            ctx.evaluate(epc_rotation(epc.with_voltage(i, v + h)), "Z")
            - ctx.evaluate(epc_rotation(epc.with_voltage(i, v - h)), "Z")
        ) / (2.0 * h)
        err_d = abs(fd_slope(1.0) - truth)
        err_half = abs(fd_slope(0.5) - truth)
        assert err_half <= 0.6 * err_d + 1e-12

    def test_index_validation(self):
        ctx = ExactContext(IDENTITY)
        state = ControllerState(epc=default_epc())
        with pytest.raises(ValueError):
            adjust_squeezer(state, 4, "Z", ctx, ControllerConfig())


class TestControlCycle:
    def test_below_threshold_holds_voltages(self):
        ctx = ExactContext(IDENTITY)
        state = ControllerState(epc=default_epc())
        out = control_cycle(state, 0.0001, "Z", ctx, ControllerConfig())
        assert out.epc.voltages == state.epc.voltages
        assert out.converged

    def test_hold_persists_across_cycles(self):
        ctx = ExactContext(IDENTITY)
        state = ControllerState(epc=default_epc())
        cfg = ControllerConfig()
        for _ in range(5):
            state = control_cycle(state, measure_e(state, "Z", ctx), "Z", ctx, cfg)
        assert state.epc.voltages == default_epc().voltages
        assert state.converged

    def test_converges_from_thirty_degree_misalignment(self):
        channel = rotation_from_axis_angle(S2, math.radians(30.0))
        ctx = ExactContext(channel)
        cfg = ControllerConfig(max_cycles_per_correction=200)
        state = ControllerState(epc=default_epc())
        state = control_cycle(state, measure_e(state, "Z", ctx), "Z", ctx, cfg)
        assert state.converged
        assert measure_e(state, "Z", ctx) < cfg.e_threshold
        # wrong-port rate is bounded by sqrt(E/2) via Cauchy-Schwarz
        qber_b = 0.5 * (1.0 - analyzer_element(channel, epc_rotation(state.epc), "Z"))
        assert qber_b < math.sqrt(cfg.e_threshold / 2.0)

    def test_degenerate_zero_tau_never_moves(self):
        channel = rotation_from_axis_angle(S2, math.radians(30.0))
        ctx = ExactContext(channel)
        cfg = ControllerConfig(tau=-0.0, max_cycles_per_correction=3)
        state = ControllerState(epc=default_epc())
        out = control_cycle(state, measure_e(state, "Z", ctx), "Z", ctx, cfg)
        assert out.epc.voltages == state.epc.voltages
        assert not out.converged

    def test_hold_makes_no_evaluation(self):
        # the cycle decides on the E it is given, even on a misaligned plant
        ctx = CountingContext(rotation_from_axis_angle(S2, math.radians(30.0)))
        state = ControllerState(epc=default_epc())
        out = control_cycle(state, 0.0, "Z", ctx, ControllerConfig())
        assert ctx.calls == 0
        assert out.epc == state.epc
        assert out.converged

    def test_correction_costs_nine_evaluations_per_sweep(self):
        # each sweep is four two-point probes plus one re-measurement
        channel = rotation_from_axis_angle(S2, math.radians(30.0))
        start = ControllerState(epc=default_epc())
        e0 = ExactContext(channel).evaluate(epc_rotation(start.epc), "Z")

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
        state = ControllerState(epc=default_epc().with_voltage(2, 149.5))
        out = control_cycle(state, measure_e(state, "Z", ctx), "Z", ctx, cfg)
        assert not out.converged
        assert out.recenter_count == 1
        assert ctx.calls == 1 + 9 * 3  # the first is this test's own reading

    def test_positive_tau_rejected(self):
        with pytest.raises(ValueError):
            ControllerConfig(tau=1.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="batch_pulses"):
            ControllerConfig(batch_pulses=0)


class TestTrack:
    def test_zero_duration_gives_empty_series(self):
        world = World(channel=StaticChannel(IDENTITY), source=NOISELESS, eta=1.0)
        series = track(
            ControllerState(epc=default_epc()),
            ControllerState(epc=default_epc()),
            ControllerConfig(),
            ControllerConfig(),
            world,
            0,
            seed=1,
        )
        assert len(series) == 0

    def test_aligned_noise_floor_only(self):
        # static aligned world: the mean estimate matches the device floor
        src = SourceParams(mu=0.5, dark_count_prob=0.0, misalignment_floor=0.01)
        world = World(channel=StaticChannel(IDENTITY), source=src, eta=1.0)
        cfg = ControllerConfig()
        series = track(
            ControllerState(epc=default_epc()),
            ControllerState(epc=default_epc()),
            cfg,
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
            ControllerState(epc=default_epc()),
            ControllerState(epc=default_epc()),
            cfg,
            cfg,
            world,
            3,
            fc_seconds=12.0,
            seed=3,
        )
        assert [r.cycle for r in series] == [1, 2, 3]
        assert [r.t_seconds for r in series] == [12.0, 24.0, 36.0]
        assert all(len(r.voltages) == 8 for r in series)

    def test_scramble_controlled_beats_uncontrolled(self):
        # paired seed: identical channel trajectory with and without control
        src = SourceParams(mu=0.5, dark_count_prob=0.0, misalignment_floor=0.01)
        cfg = ControllerConfig(batch_pulses=15_000, max_cycles_per_correction=3)

        def run(control):
            world = World(
                channel=ScramblerChannel(axis=S3, rate=0.4), source=src, eta=1.0
            )
            series = track(
                ControllerState(epc=default_epc()),
                ControllerState(epc=default_epc()),
                cfg,
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
        src = SourceParams(mu=0.5)
        world = World(channel=ScramblerChannel(axis=S3, rate=0.4), source=src, eta=1.0)
        cfg = ControllerConfig(batch_pulses=10_000)

        def run():
            return track(
                ControllerState(epc=default_epc()),
                ControllerState(epc=default_epc()),
                cfg,
                cfg,
                World(channel=ScramblerChannel(axis=S3, rate=0.4), source=src, eta=1.0),
                30,
                seed=5,
            )

        assert run() == run()


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

        def counted_evaluate(self, epc_rot, basis):
            evaluations.append(basis)
            return evaluate(self, epc_rot, basis)

        monkeypatch.setattr(feedback, "simulate_batch", counted_draw)
        monkeypatch.setattr(MonteCarloContext, "evaluate", counted_evaluate)
        series, _ = run_scenario(replace(preset_config("scramble04"), duration=20, seed=7))
        assert len(series) == 20
        assert len(evaluations) > len(series)  # the controller corrected
        assert len(batches) == len(series) + len(evaluations)
