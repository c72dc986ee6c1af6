import csv
import io
import math
import statistics
from dataclasses import fields, is_dataclass, replace

import pytest

from poltrack.harness import (
    CSV_HEADER,
    PRESET_NAMES,
    ConfigError,
    ScenarioConfig,
    Summary,
    config_to_ini,
    emit_sample_size_table,
    parse_config,
    preset_config,
    run_scenario,
    series_from_csv,
    series_to_csv,
    summarize,
    summary_to_text,
    table_to_csv,
)
from poltrack.stats import delta_table
from poltrack.timeseries import TimeSeries, TimeSeriesRow

from conftest import table_from_csv


def short_cfg(**overrides):
    cfg = preset_config("static")
    ctrl = replace(cfg.controller_z, batch_pulses=10_000)
    cfg = replace(cfg, duration=5, controller_z=ctrl, controller_x=ctrl)
    return replace(cfg, **overrides) if overrides else cfg


def make_row(cycle, q=0.02, conv=True):
    return TimeSeriesRow(
        cycle=cycle,
        t_seconds=cycle * 12.0,
        qber_est=q,
        e_z=0.001,
        e_x=0.002,
        voltages=(75.0, 75.0, 75.0, 75.0, 75.0, 75.0, 75.0, 75.0),
        recenter=0,
        converged=conv,
    )


class TestConfigRoundTrip:
    def test_defaults_parse_to_defaults(self):
        cfg = ScenarioConfig()
        assert parse_config(config_to_ini(cfg)) == cfg

    def test_presets_round_trip(self):
        for name in ("static", "drift24h", "scramble02", "table"):
            cfg = preset_config(name)
            assert parse_config(config_to_ini(cfg)) == cfg

    def test_full_scale_preset_round_trips(self):
        cfg = preset_config("drift24h", full=True)
        assert cfg.controller_z.batch_pulses == 30_000_000
        assert parse_config(config_to_ini(cfg)) == cfg

    def test_override_single_keys(self):
        cfg = parse_config(
            "[scenario]\nkind = scramble\nseed = 99\n"
            "[channel]\nmodel = scrambler\nrate_deg_per_cycle = 0.4\n"
        )
        assert cfg.kind == "scramble"
        assert cfg.seed == 99
        assert cfg.channel.rate_deg_per_cycle == 0.4
        assert cfg.duration == ScenarioConfig().duration

    def test_shared_controller_section_applies_to_both(self):
        cfg = parse_config("[controller]\nbatch_pulses = 7777\n")
        assert cfg.controller_z.batch_pulses == 7777
        assert cfg.controller_x.batch_pulses == 7777

    def test_per_basis_controller_override(self):
        cfg = parse_config(
            "[controller]\nbatch_pulses = 7777\n[controller_x]\nbatch_pulses = 8888\n"
        )
        assert cfg.controller_z.batch_pulses == 7777
        assert cfg.controller_x.batch_pulses == 8888


# A valid alternative for each string default.
OTHER_NAMES = {"drift": "scramble", "random_walk": "scrambler"}


def bumped(value, times=1):
    """A value of the same type and shape that differs from ``value``.

    Dataclasses are bumped field by field; ``controller_x`` is bumped twice
    so that a mix-up of the two controller sections shows.
    """
    if is_dataclass(value):
        return replace(value, **{
            f.name: bumped(getattr(value, f.name), 2 if f.name == "controller_x" else times)
            for f in fields(value)
        })
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + times
    if isinstance(value, float):
        return value / 2**times if value else 0.25 * times
    if isinstance(value, tuple):
        return tuple(bumped(v, times) for v in value)
    return OTHER_NAMES[value]


def leaves(obj, path=""):
    """(dotted path, value) of every non-dataclass field, depth first."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from leaves(value, f"{path}{f.name}.")
        else:
            yield f"{path}{f.name}", value


class TestConfigSchema:
    def test_every_field_round_trips(self):
        # a field left out of the schema would parse back to its default
        default = ScenarioConfig()
        cfg = bumped(default)
        changed = dict(leaves(cfg))
        assert all(changed[path] != value for path, value in leaves(default))
        assert cfg.controller_z != cfg.controller_x
        assert parse_config(config_to_ini(cfg)) == cfg

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_round_trips(self, name, full):
        cfg = preset_config(name, full=full)
        assert parse_config(config_to_ini(cfg)) == cfg

    def test_default_ini_text(self):
        # key names and order are the config file format; keep them stable
        assert config_to_ini(ScenarioConfig()) == (
            "[scenario]\nkind = drift\nduration = 7200\nfc_seconds = 12.0\nseed = 12345\n"
            "control_enabled = true\n\n"
            "[link]\nalpha_db_per_km = 0.2\nlength_km = 0.0\neta_bob = 1.0\n\n"
            "[source]\nmean_photons = 0.5\ndark_count_prob = 1.5e-06\n"
            "misalignment_floor = 0.012\n\n"
            "[epc]\ngain_rad_per_volt = 0.041887902047863905\ngain_jitter = 0.1\nv_min = 0.0\n"
            "v_max = 150.0\naxis_drift_sigma_rad = 0.002\n"
            "max_axis_wander_rad = 0.17453292519943295\n\n"
            "[channel]\nmodel = random_walk\naxis = 0.0,0.0,1.0\nangle_deg = 30.0\n"
            "step_sigma_rad = 0.012\naxis_resample_period = 1\nrate_deg_per_cycle = 0.2\n\n"
            + "".join(
                f"[controller_{b}]\ndither_volts = 1.0\ntau = -150.0\ne_threshold = 0.002\n"
                "sample_fraction = 1.0\nmax_cycles_per_correction = 25\nbatch_pulses = 25000\n\n"
                for b in "zx"
            )
            + "[table]\nmu = 0.1\neta = 0.1\nqber_values = 0.01,0.02,0.03\n"
            "b_values = 250,500,1000,2500,5000,10000,25000,50000,100000\n"
        )

    def test_removed_rep_rate_key_is_unknown(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[source]\nrep_rate_hz = 2500000.0\n")
        assert str(err.value) == "source.rep_rate_hz: unknown key"

    def test_bad_boolean_reported_with_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\ncontrol_enabled = maybe\n")
        assert str(err.value) == "scenario.control_enabled: expected a boolean, got 'maybe'"

    def test_bad_tuple_item_reported_with_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[table]\nb_values = 100,lots\n")
        assert str(err.value).startswith("table.b_values: ")

    def test_renamed_key_labels_validation_message(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[epc]\ngain_rad_per_volt = -1.0\naxis_drift_sigma_rad = -0.5\n")
        assert str(err.value) == (
            "epc.gain_rad_per_volt: must be positive\n"
            "epc.axis_drift_sigma_rad: must be non-negative"
        )


class TestConfigValidation:
    def test_unknown_section_and_key_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scenariooo]\nkind = drift\n")
        assert "scenariooo" in str(err.value)
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nknd = drift\n")
        assert "scenario.knd" in str(err.value)

    def test_bad_values_reported_with_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nduration = soon\n")
        assert "scenario.duration" in str(err.value)

    def test_bad_kind(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nkind = warp\n")
        assert "scenario.kind" in str(err.value)

    def test_bad_channel_model(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[channel]\nmodel = teleport\n")
        assert "channel.model" in str(err.value)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("channel", "step_sigma_rad", "-0.01"),
            ("epc", "max_axis_wander_rad", "-0.1"),
            ("table", "mu", "0"),
            ("table", "eta", "0"),
            ("table", "eta", "1.5"),
            ("table", "qber_values", "0.01,-0.1"),
            ("table", "b_values", "250,0"),
        ],
    )
    def test_out_of_range_value_reported_with_field(self, section, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[{section}]\n{key} = {value}\n")
        assert str(err.value).startswith(f"{section}.{key}: ")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("epc", "gain_rad_per_volt", "inf"),
            ("link", "length_km", "inf"),
            ("channel", "angle_deg", "inf"),
            ("scenario", "fc_seconds", "inf"),
            ("source", "mean_photons", "nan"),
            ("channel", "axis", "0,nan,1"),
        ],
    )
    def test_non_finite_value_reported_with_field(self, section, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[{section}]\n{key} = {value}\n")
        assert str(err.value) == f"{section}.{key}: must be finite"

    def test_zero_batch_pulses_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[controller]\nbatch_pulses = 0\n")
        assert str(err.value) == (
            "controller_z: batch_pulses must be at least 1\n"
            "controller_x: batch_pulses must be at least 1"
        )

    def test_controller_invariant_enforced(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[controller_z]\ntau = 5.0\n")
        assert "controller_z" in str(err.value)

    def test_link_invariant_enforced(self):
        with pytest.raises(ConfigError):
            parse_config("[link]\neta_bob = 2.0\n")


class TestRunScenario:
    def test_single_cycle_aligned_static(self):
        cfg = short_cfg(duration=1, channel=replace(short_cfg().channel, angle_deg=0.0))
        series, summary = run_scenario(cfg)
        assert len(series) == 1
        # the one-row estimate sits near the intrinsic floor
        floor = 0.012
        n = 600  # roughly the sifted sample behind the estimate
        assert abs(series.rows[0].qber_est - floor) <= 6 * math.sqrt(floor / n)

    def test_deterministic_csv(self):
        cfg = short_cfg()
        a, _ = run_scenario(cfg)
        b, _ = run_scenario(cfg)
        assert series_to_csv(a) == series_to_csv(b)

    def test_control_reduces_qber_on_misaligned_static(self):
        cfg = short_cfg(duration=12)
        _, with_control = run_scenario(cfg)
        _, without = run_scenario(replace(cfg, control_enabled=False))
        assert with_control.mean_qber < without.mean_qber

    def test_table_kind_is_not_a_time_series(self):
        with pytest.raises(ConfigError):
            run_scenario(preset_config("table"))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("drift48h")


class TestSummarize:
    def test_constant_column(self):
        s = summarize(TimeSeries(tuple(make_row(i) for i in range(1, 6))))
        assert s == Summary(5, pytest.approx(0.02), pytest.approx(0.0), pytest.approx(0.02), 0, 0)

    def test_two_row_mean_std(self):
        rows = (make_row(1, q=0.01), make_row(2, q=0.03))
        s = summarize(TimeSeries(rows))
        assert s.mean_qber == pytest.approx(0.02)
        assert s.std_qber == pytest.approx(0.01)

    def test_flag_counts(self):
        rows = (make_row(1, conv=False), make_row(2), make_row(3, conv=False))
        s = summarize(TimeSeries(rows))
        assert s.nonconverged_cycles == 2

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            summarize(TimeSeries(()))

    def test_matches_independent_recomputation_from_csv(self):
        cfg = short_cfg(duration=8)
        series, summary = run_scenario(cfg)
        reader = csv.DictReader(io.StringIO(series_to_csv(series)))
        col = [float(r["qber_est"]) for r in reader]
        assert summary.mean_qber == pytest.approx(statistics.fmean(col), abs=1e-9)
        assert summary.std_qber == pytest.approx(statistics.pstdev(col), abs=1e-9)

    def test_starved_cycle_does_not_poison_stats(self):
        rows = (make_row(1, q=0.01), make_row(2, q=math.nan, conv=False), make_row(3, q=0.03))
        s = summarize(TimeSeries(rows))
        assert s.mean_qber == pytest.approx(0.02)
        assert s.std_qber == pytest.approx(0.01)
        assert s.max_qber == pytest.approx(0.03)
        assert (s.cycles, s.nonconverged_cycles) == (3, 1)

    def test_all_starved_gives_nan_stats(self):
        s = summarize(TimeSeries((make_row(1, q=math.nan, conv=False),)))
        assert math.isnan(s.mean_qber) and math.isnan(s.std_qber) and math.isnan(s.max_qber)
        assert (s.cycles, s.nonconverged_cycles) == (1, 1)

    def test_summary_text_shape(self):
        text = summary_to_text(summarize(TimeSeries((make_row(1),))))
        assert text.startswith("cycles = 1\n")
        assert "mean_qber = " in text


class TestSeriesCsv:
    def test_header_exact(self):
        assert series_to_csv(TimeSeries(())).splitlines()[0] == CSV_HEADER
        assert CSV_HEADER.split(",")[:5] == ["cycle", "t_seconds", "qber_est", "e_z", "e_x"]

    def test_round_trip_bytes(self):
        cfg = short_cfg(duration=6)
        series, _ = run_scenario(cfg)
        text = series_to_csv(series)
        assert series_to_csv(series_from_csv(text)) == text

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            series_from_csv("cycle,qber\n1,0.5\n")

    def test_rejects_short_row(self):
        with pytest.raises(ValueError):
            series_from_csv(CSV_HEADER + "\n1,2,3\n")

    def test_nine_significant_digits(self):
        row = make_row(1, q=0.0123456789123)
        line = series_to_csv(TimeSeries((row,))).splitlines()[1]
        assert line.split(",")[2] == "0.0123456789"


class TestSampleSizeTable:
    def test_reference_cell_through_file(self, tmp_path):
        path = tmp_path / "table.csv"
        cells = emit_sample_size_table(0.1, 0.1, (0.01, 0.02, 0.03), (250, 2500, 25_000), path)
        qs, bs, parsed = table_from_csv(path.read_text())
        assert qs == (0.01, 0.02, 0.03)
        assert bs == (250, 2500, 25_000)
        assert parsed[1, 0] == pytest.approx(0.0060, rel=0.03)

    def test_round_trip_exact(self):
        qs = (0.01, 0.03)
        bs = (100, 1000)
        cells = delta_table(qs, bs, 0.1, 0.1)
        text = table_to_csv(qs, bs, cells)
        qs2, bs2, cells2 = table_from_csv(text)
        assert qs2 == qs and bs2 == bs
        assert (cells2 == cells).all()

    def test_b_column_as_configured(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_sample_size_table(0.1, 0.1, (0.01,), (100, 200, 400), path)
        _, bs, _ = table_from_csv(path.read_text())
        assert bs == (100, 200, 400)


class TestFullScalePreset:
    def test_one_hardware_scale_cycle(self):
        # 30 M pulses through the 50 km link with 10% of sifted bits
        # revealed; control off keeps this to a single batch
        cfg = preset_config("drift24h", full=True)
        assert cfg.controller_z.batch_pulses == 30_000_000
        assert cfg.controller_z.sample_fraction == 0.1
        cfg = replace(cfg, duration=1, control_enabled=False)
        series, summary = run_scenario(cfg)
        row = series.rows[0]
        # the walk starts aligned, so the estimate is the device floor plus
        # whatever misalignment the center-voltage gain jitter leaves
        assert 0.0 <= row.qber_est <= 0.2
        assert math.isfinite(row.e_z) and math.isfinite(row.e_x)
        assert summary.cycles == 1


class TestFullScaleScramblePreset:
    def test_keeps_hardware_batch(self):
        cfg = preset_config("scramble04", full=True)
        assert cfg.controller_z.batch_pulses == 30_000_000
        assert cfg.controller_x.batch_pulses == 30_000_000
        assert cfg.controller_z.max_cycles_per_correction == 3
        assert parse_config(config_to_ini(cfg)) == cfg

    def test_one_hardware_scale_cycle_is_not_starved(self):
        cfg = replace(preset_config("scramble04", full=True), duration=1, control_enabled=False)
        series, summary = run_scenario(cfg)
        assert math.isfinite(series.rows[0].qber_est)
        assert math.isfinite(summary.mean_qber)


class TestUncontrolledScrambleTrace:
    def test_estimates_follow_analytic_sweep(self):
        # with control off, zero EPC jitter, and no axis drift, the per-cycle
        # estimate must follow the closed-form error of the accumulated
        # scrambler rotation, sweeping through 50% toward full anticorrelation
        cfg = preset_config("scramble02")
        cfg = replace(
            cfg,
            duration=900,
            control_enabled=False,
            epc=replace(cfg.epc, gain_jitter=0.0, axis_drift_sigma=0.0),
        )
        series, summary = run_scenario(cfg)

        m = 0.5  # eta * mu of the desk link
        f = cfg.source.misalignment_floor
        rate = math.radians(cfg.channel.rate_deg_per_cycle)
        n_row = cfg.controller_z.batch_pulses * (1.0 - math.exp(-m)) * 0.5

        for r in series:
            # scrambling about s3 misaligns both bases by the same angle
            wrong_frac = 0.5 * (1.0 - math.cos(rate * r.cycle))
            p1 = 1.0 - math.exp(-m * wrong_frac)
            p2 = 1.0 - math.exp(-m * (1.0 - wrong_frac))
            q_click = (p1 - 0.5 * p1 * p2) / (p1 + p2 - p1 * p2)
            expected = q_click * (1.0 - f) + (1.0 - q_click) * f
            sigma = math.sqrt(max(expected * (1.0 - expected), 1e-9) / n_row)
            assert abs(r.qber_est - expected) <= 6.0 * sigma + 1e-3, r.cycle
        assert summary.max_qber > 0.9  # sweeps through 0.5 up to anticorrelation


class TestPairedSeedCausality:
    @pytest.mark.parametrize("name", ["static", "drift24h", "scramble04"])
    def test_control_never_hurts(self, name):
        cfg = preset_config(name)
        ctrl = replace(cfg.controller_z, batch_pulses=10_000)
        duration = 60
        if name == "drift24h":
            # give the walk enough motion to matter over the short window
            cfg = replace(cfg, channel=replace(cfg.channel, step_sigma=0.04))
            duration = 200
        cfg = replace(cfg, duration=duration, controller_z=ctrl, controller_x=ctrl)
        _, on = run_scenario(cfg)
        _, off = run_scenario(replace(cfg, control_enabled=False))
        assert on.mean_qber <= off.mean_qber
