"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS line (visible with ``pytest -v -s``); a failed assert
marks the criterion red.  The hardware reference figures (2.32% mean / 0.87%
std over a day of drift; 2.65/2.74/3.29% under scrambling) depend on
unmodeled device details and serve as qualitative targets; the quantitative
gates below are self-contained.
"""

import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from controller_oracle import ExactContext, evaluate_rotation
from poltrack.feedback import (
    ControllerConfig,
    MonteCarloContext,
    control_cycle,
)
from poltrack.harness import (
    preset_config,
    run_scenario,
    series_from_csv,
    series_to_csv,
)
from poltrack.optics import default_epc, epc_rotation
from poltrack.photon_sim import SourceParams
from poltrack.poincare import (
    IDENTITY,
    StokesVector,
    _axis_angle_q,
    _qmul,
    _qprod,
    _rotate,
    apply_rotation,
    compose,
    inverse,
    rotation_from_axis_angle,
)
from poltrack.stats import delta_qber, scenario_for_qber

from conftest import (
    monte_carlo_sigma,
    plant_batch,
    random_axis_angle,
    random_unit,
    rodrigues_matrix,
)


def report(n, name, elapsed, detail=""):
    print(f"\nACCEPTANCE {n} ({name}): PASS in {elapsed:.1f}s {detail}")


def criterion(n, name):
    """Print the FAIL line before letting pytest record the failure."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException as exc:
                print(f"\nACCEPTANCE {n} ({name}): FAIL - {exc}")
                raise

        return run

    return wrap


@criterion(1, "sphere-math oracle equivalence")
def test_criterion_1_sphere_math_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        ax_a, ang_a = random_axis_angle(rng)
        ax_b, ang_b = random_axis_angle(rng)
        s = random_unit(rng)
        ra = rotation_from_axis_angle(StokesVector(*ax_a), ang_a)
        rb = rotation_from_axis_angle(StokesVector(*ax_b), ang_b)
        sv = StokesVector(*s)

        ma = rodrigues_matrix(ax_a, ang_a)
        mb = rodrigues_matrix(ax_b, ang_b)
        assert np.allclose(apply_rotation(ra, sv).as_tuple(), ma @ np.array(s), atol=1e-9)
        assert np.allclose(
            apply_rotation(compose(rb, ra), sv).as_tuple(), mb @ ma @ np.array(s), atol=1e-9
        )
        # group laws: inverse cancels, composition matches sequential apply
        ident = compose(ra, inverse(ra))
        assert np.allclose((ident.w, ident.x, ident.y, ident.z), (1, 0, 0, 0), atol=1e-9)
        lhs = apply_rotation(compose(rb, ra), sv)
        rhs = apply_rotation(rb, apply_rotation(ra, sv))
        assert np.allclose(lhs.as_tuple(), rhs.as_tuple(), atol=1e-9)
        # the float kernels that optics and photon_sim run directly; _qprod
        # is the unnormalized product, whose norm stays 1 for unit factors
        qa, qb = _axis_angle_q(*ax_a, ang_a), _axis_angle_q(*ax_b, ang_b)
        assert np.allclose(_rotate(qa, s), ma @ np.array(s), atol=1e-9)
        assert np.allclose(_rotate(_qmul(qb, qa), s), mb @ ma @ np.array(s), atol=1e-9)
        product = _qprod(qb, qa)
        assert abs(math.fsum(c * c for c in product) - 1.0) <= 1e-9
        assert np.allclose(_rotate(product, s), mb @ ma @ np.array(s), atol=1e-9)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(
        1, "sphere-math oracle equivalence", elapsed, "1000 random pairs, API and kernels, to 1e-9"
    )


@criterion(2, "analytic QBER equivalence")
def test_criterion_2_analytic_qber_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    src = SourceParams(mean_photons=0.1, dark_count_prob=0.0, misalignment_floor=0.0)
    n_pulses = 2_200_000  # ~1e5 sifted events per case at eta*mu = 0.1
    axes = {"Z": np.array([1.0, 0.0, 0.0]), "X": np.array([0.0, 1.0, 0.0])}
    for case in range(20):
        axis, angle = random_axis_angle(rng)
        channel = rotation_from_axis_angle(StokesVector(*axis), angle)
        m = rodrigues_matrix(axis, angle)
        tally = plant_batch(
            n_pulses, channel, IDENTITY, IDENTITY, src, 1.0,
            np.random.Generator(np.random.Philox(5000 + case)),
        )
        assert tally.sifted_total >= 100_000
        for basis, a in axes.items():
            expected = 0.5 * (1.0 - float(a @ (m @ a)))
            c = tally.counts(basis)
            n = sum(c)
            observed = (c[1] + c[2]) / n
            sigma = math.sqrt(max(expected * (1.0 - expected), 1e-12) / n)
            assert abs(observed - expected) <= 4.0 * sigma, (case, basis)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, "analytic QBER equivalence", elapsed, "20 misalignments x 2 bases at 4 sigma")


@criterion(3, "estimator bound vs Monte Carlo")
def test_criterion_3_delta_bound_vs_monte_carlo():
    t0 = time.time()
    for qi, q in enumerate((0.01, 0.02, 0.03)):
        for bi, b in enumerate((625, 2500, 10_000)):
            scn = scenario_for_qber(q, 0.1, 0.1, b)
            sigma = monte_carlo_sigma(
                scn, 100_000, np.random.Generator(np.random.Philox(7000 + qi * 10 + bi))
            )
            assert 3.0 * sigma == pytest.approx(delta_qber(scn), rel=0.03), (q, b)
    cell = delta_qber(scenario_for_qber(0.01, 0.1, 0.1, 2500))
    assert cell == pytest.approx(0.0060, rel=0.03)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(3, "estimator bound vs Monte Carlo", elapsed, f"(1%, 2500) cell = {cell:.4f}")


@criterion(4, "controller convergence")
def test_criterion_4_convergence():
    t0 = time.time()
    e_thr = 0.002

    # noiseless oracle plant
    rng = np.random.default_rng(404)
    cfg = ControllerConfig(e_threshold=e_thr, max_cycles_per_correction=200)
    ok = 0
    for _ in range(50):
        axis, _ = random_axis_angle(rng)
        angle = float(rng.uniform(0.0, math.pi / 2))
        ctx = ExactContext(rotation_from_axis_angle(StokesVector(*axis), angle))
        epc = default_epc(rng, gain_jitter=0.1)
        e = evaluate_rotation(ctx, epc_rotation(epc), "Z")
        out = control_cycle(epc, e, "Z", ctx, cfg)
        if out.converged and evaluate_rotation(ctx, epc_rotation(out.epc), "Z") < e_thr:
            ok += 1
    assert ok >= 48, f"noiseless convergence {ok}/50"

    # Monte Carlo plant at ~2500 revealed bits per evaluation
    src = SourceParams(mean_photons=1.0, dark_count_prob=0.0, misalignment_floor=0.0)
    batch = int(2500 / ((1.0 - math.exp(-1.0)) * 0.25))
    mc_cfg = ControllerConfig(
        e_threshold=e_thr, max_cycles_per_correction=200,
        batch_pulses=batch, sample_fraction=1.0,
    )
    # allowed slack: 3 sigma of the measured feedback signal at threshold
    j_thr = math.sqrt(e_thr) / 2.0
    sigma_e = 4.0 * j_thr * math.sqrt(j_thr * (1.0 - j_thr) / 1250.0) * math.sqrt(2.0)
    slack = 3.0 * sigma_e

    rng = np.random.default_rng(405)
    ok_mc = 0
    for case in range(50):
        axis, _ = random_axis_angle(rng)
        angle = float(rng.uniform(0.0, math.pi / 2))
        channel = rotation_from_axis_angle(StokesVector(*axis), angle)
        ctx = MonteCarloContext(
            channel, src, 1.0, mc_cfg, np.random.Generator(np.random.Philox(9000 + case))
        )
        epc = default_epc(rng, gain_jitter=0.1)
        e = evaluate_rotation(ctx, epc_rotation(epc), "Z")
        out = control_cycle(epc, e, "Z", ctx, mc_cfg)
        e_true = evaluate_rotation(ExactContext(channel), epc_rotation(out.epc), "Z")
        if e_true < e_thr + slack:
            ok_mc += 1
    assert ok_mc >= 45, f"noisy convergence {ok_mc}/50"

    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(4, "controller convergence", elapsed, f"noiseless {ok}/50, noisy {ok_mc}/50")


@criterion(5, "drift tracking")
def test_criterion_5_drift_tracking():
    t0 = time.time()
    cfg = preset_config("drift24h")
    assert cfg.duration == 7200
    _, controlled = run_scenario(cfg)
    _, uncontrolled = run_scenario(replace(cfg, control_enabled=False))
    assert controlled.mean_qber <= 0.035, controlled
    assert controlled.std_qber <= 0.015, controlled
    assert uncontrolled.mean_qber >= 3.0 * controlled.mean_qber, (controlled, uncontrolled)
    elapsed = time.time() - t0
    assert elapsed < 180.0
    report(
        5, "drift tracking", elapsed,
        f"mean {controlled.mean_qber:.4f} std {controlled.std_qber:.4f} "
        f"vs uncontrolled {uncontrolled.mean_qber:.4f}",
    )


@criterion(6, "scramble tracking")
def test_criterion_6_scramble_tracking():
    t0 = time.time()
    noise_floor = 0.012
    means = {}
    for name in ("scramble02", "scramble04", "scramble06"):
        cfg = preset_config(name)
        assert cfg.duration == 3000
        _, s = run_scenario(cfg)
        means[name] = s.mean_qber
    _, unc06 = run_scenario(replace(preset_config("scramble06"), control_enabled=False))

    assert means["scramble02"] <= noise_floor + 0.02, means
    assert means["scramble06"] <= 0.5 * unc06.mean_qber, (means, unc06.mean_qber)
    assert means["scramble02"] < means["scramble04"] < means["scramble06"], means
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(
        6, "scramble tracking", elapsed,
        "controlled means " + " < ".join(f"{means[k]:.4f}" for k in sorted(means)),
    )


@criterion(7, "determinism and CSV round trip")
def test_criterion_7_determinism_and_round_trip():
    t0 = time.time()
    cfg = preset_config("static")
    ctrl = replace(cfg.controller, batch_pulses=10_000)
    cfg = replace(cfg, duration=25, controller=ctrl)
    series_a, _ = run_scenario(cfg)
    series_b, _ = run_scenario(cfg)
    csv_a = series_to_csv(series_a)
    assert csv_a.encode() == series_to_csv(series_b).encode()
    assert series_to_csv(series_from_csv(csv_a)) == csv_a
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(7, "determinism and CSV round trip", elapsed)


@criterion(8, "hardware-scale drift tracking")
def test_criterion_8_hardware_scale_drift_tracking():
    t0 = time.time()
    cfg = preset_config("drift24h", full=True)
    assert cfg.duration == 7200 and cfg.seed == 12345 and cfg.control_enabled
    assert cfg.controller.batch_pulses == 30_000_000
    _, controlled = run_scenario(cfg)
    assert controlled.mean_qber <= 0.035, controlled
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(
        8, "hardware-scale drift tracking", elapsed,
        f"mean {controlled.mean_qber:.4f} std {controlled.std_qber:.4f} at 30 M pulses per batch",
    )
