import csv
import io
import math
import re
import statistics
import struct
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from poltrack import feedback
from poltrack.feedback import ControllerConfig
from poltrack.harness import (
    CSV_HEADER,
    PRESET_NAMES,
    SCENARIO_KINDS,
    ChannelParams,
    ConfigError,
    EpcParams,
    ScenarioConfig,
    Summary,
    build_channel,
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
from poltrack.harness import _EPC_X, _EPC_Z, _TRACK
from poltrack.optics import RandomWalkChannel, ScramblerChannel, StaticChannel
from poltrack.stats import delta_table
from poltrack.timeseries import TimeSeries, TimeSeriesRow

import preset_oracle
import summary_oracle
from conftest import table_from_csv


def short_cfg(**overrides):
    cfg = preset_config("static")
    ctrl = replace(cfg.controller, batch_pulses=10_000)
    cfg = replace(cfg, duration=5, controller=ctrl)
    return replace(cfg, **overrides) if overrides else cfg


STEP_TOO_WIDE = (
    "controller.tau: the step |tau| * e_threshold / dither_volts exceeds the epc voltage range"
)


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
        for name in ("static", "drift24h", "scramble02"):
            cfg = preset_config(name)
            assert parse_config(config_to_ini(cfg)) == cfg

    def test_full_scale_preset_round_trips(self):
        cfg = preset_config("drift24h", full=True)
        assert cfg.controller.batch_pulses == 30_000_000
        assert parse_config(config_to_ini(cfg)) == cfg

    def test_override_single_keys(self):
        cfg = parse_config(
            "[scenario]\nkind = scramble\nseed = 99\n"
            "[channel]\nrate_deg_per_cycle = 0.4\n"
        )
        assert cfg.kind == "scramble"
        assert cfg.seed == 99
        assert cfg.channel.rate_deg_per_cycle == 0.4
        assert cfg.duration == ScenarioConfig().duration

    def test_shared_controller_section_applies_to_both(self):
        # one [controller] tunes both basis controllers and the monitoring batch
        cfg = parse_config("[controller]\nbatch_pulses = 7777\n")
        assert cfg.controller.batch_pulses == 7777


# A valid alternative for each string default.
OTHER_NAMES = {"drift": "scramble"}


def bumped(value, times=1):
    """A value of the same type and shape that differs from ``value``.

    Dataclasses are bumped field by field.
    """
    if is_dataclass(value):
        return replace(
            value, **{f.name: bumped(getattr(value, f.name), times) for f in fields(value)}
        )
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + times
    if isinstance(value, float):
        return value / 2**times if value else 0.25 * times
    if isinstance(value, tuple):
        return tuple(bumped(v, times) for v in value)
    return OTHER_NAMES[value]


# The [channel] keys each kind's channel model reads.
CHANNEL_KEYS = {
    "static": ("axis", "angle_deg"),
    "drift": ("step_sigma_rad",),
    "scramble": ("axis", "rate_deg_per_cycle"),
}


def with_kind(cfg, kind):
    """``cfg`` with ``kind``; the channel fields that kind does not read are defaults."""
    read = {key: getattr(cfg.channel, key) for key in CHANNEL_KEYS[kind]}
    return replace(cfg, kind=kind, channel=ChannelParams(**read))


def written_channel_keys(kind):
    """The [channel] keys that ``config_to_ini`` writes for ``kind``, in order."""
    text = config_to_ini(replace(ScenarioConfig(), kind=kind))
    block = text.split("[channel]\n", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"^(\w+) = ", block, re.M)


def leaves(obj, path=""):
    """(dotted path, value) of every non-dataclass field, depth first."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from leaves(value, f"{path}{f.name}.")
        else:
            yield f"{path}{f.name}", value


DEFAULT_INI = (
    "[scenario]\nkind = drift\nduration = 7200\nseed = 12345\n"
    "control_enabled = true\n\n"
    "[link]\nalpha_db_per_km = 0.2\nlength_km = 0.0\neta_bob = 1.0\n\n"
    "[source]\nmean_photons = 0.5\ndark_count_prob = 1.5e-06\n"
    "misalignment_floor = 0.012\n\n"
    "[epc]\ngain_rad_per_volt = 0.041887902047863905\ngain_jitter = 0.1\nv_min = 0.0\n"
    "v_max = 150.0\naxis_drift_sigma_rad = 0.002\n"
    "max_axis_wander_rad = 0.17453292519943295\n\n"
    "[channel]\nstep_sigma_rad = 0.012\n\n"
    "[controller]\ndither_volts = 1.0\ntau = -150.0\ne_threshold = 0.002\n"
    "sample_fraction = 1.0\nmax_cycles_per_correction = 25\nbatch_pulses = 25000\n"
)


class TestConfigSchema:
    @pytest.mark.parametrize("kind", CHANNEL_KEYS)
    def test_every_field_round_trips(self, kind):
        # a field left out of the schema would parse back to its default
        default = ScenarioConfig()
        cfg = with_kind(bumped(default), kind)
        changed = dict(leaves(cfg))
        unchanged = {path for path, value in leaves(default) if changed[path] == value}
        unread = {f"channel.{f.name}" for f in fields(ChannelParams)} - {
            f"channel.{key}" for key in CHANNEL_KEYS[kind]
        }
        assert unchanged - {"kind"} == unread
        assert parse_config(config_to_ini(cfg)) == cfg

    @pytest.mark.parametrize("kind, count", [("static", 24), ("drift", 23), ("scramble", 24)])
    def test_kind_writes_only_the_channel_keys_it_reads(self, kind, count):
        text = config_to_ini(replace(ScenarioConfig(), kind=kind))
        assert len(re.findall(r"^\w+ = ", text, re.M)) == count
        assert written_channel_keys(kind) == list(CHANNEL_KEYS[kind])

    @pytest.mark.parametrize("kind", CHANNEL_KEYS)
    def test_resolved_config_reproduces_the_run(self, kind):
        # fields the kind does not read are dropped on emission, unchanged in effect
        cfg = replace(short_cfg(), kind=kind, channel=bumped(ChannelParams()))
        resolved = parse_config(config_to_ini(cfg))
        assert resolved == with_kind(cfg, kind) != cfg
        assert series_to_csv(run_scenario(resolved)[0]) == series_to_csv(run_scenario(cfg)[0])

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("static", "step_sigma_rad", "0.02"),
            ("static", "rate_deg_per_cycle", "0.4"),
            ("drift", "axis", "1,0,0"),
            ("drift", "angle_deg", "45"),
            ("drift", "rate_deg_per_cycle", "9"),
            ("scramble", "angle_deg", "45"),
            ("scramble", "step_sigma_rad", "0.02"),
        ],
    )
    def test_unread_channel_key_rejected(self, kind, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[scenario]\nkind = {kind}\n[channel]\n{key} = {value}\n")
        assert str(err.value) == f"channel.{key}: not read by kind = {kind}"

    def test_earlier_default_text_names_its_three_unread_keys(self):
        # config.resolved and --print-defaults once listed every [channel] key
        earlier = DEFAULT_INI.replace(
            "[channel]\nstep_sigma_rad = 0.012\n",
            "[channel]\naxis = 0.0,0.0,1.0\nangle_deg = 30.0\nstep_sigma_rad = 0.012\n"
            "rate_deg_per_cycle = 0.2\n",
        )
        with pytest.raises(ConfigError) as err:
            parse_config(earlier)
        assert str(err.value) == (
            "channel.axis: not read by kind = drift\n"
            "channel.angle_deg: not read by kind = drift\n"
            "channel.rate_deg_per_cycle: not read by kind = drift"
        )

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_round_trips(self, name, full):
        cfg = preset_config(name, full=full)
        assert parse_config(config_to_ini(cfg)) == cfg

    def test_default_ini_text(self):
        # key names and order are the config file format; keep them stable
        assert config_to_ini(ScenarioConfig()) == DEFAULT_INI

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
            parse_config("[scenario]\nkind = static\n[channel]\naxis = 0,lots,1\n")
        assert str(err.value).startswith("channel.axis: ")

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
        # a bad kind reads no [channel] key, so only the kind is reported
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nkind = warp\n[channel]\nangle_deg = 45\n")
        assert str(err.value) == "scenario.kind: must be one of static, drift, scramble"

    def test_bad_channel_model(self):
        # [scenario] kind picks the channel; there is no model key
        with pytest.raises(ConfigError) as err:
            parse_config("[channel]\nmodel = teleport\n")
        assert str(err.value) == "channel.model: unknown key"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[controller_z]\ntau = -100.0\n", "controller_z: unknown section"),
            ("[controller_x]\ntau = -100.0\n", "controller_x: unknown section"),
            ("[channel]\naxis_resample_period = 1\n", "channel.axis_resample_period: unknown key"),
            ("[table]\nmu = 0.1\n", "table: unknown section"),
            (
                "[scenario]\nkind = sample-size-table\n",
                "scenario.kind: must be one of static, drift, scramble",
            ),
            ("[scenario]\nfc_seconds = 12.0\n", "scenario.fc_seconds: unknown key"),
        ],
    )
    def test_removed_name_rejected(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("scenario", "seed", "-1"),
            ("channel", "step_sigma_rad", "-0.01"),
            ("epc", "max_axis_wander_rad", "-0.1"),
        ],
    )
    def test_out_of_range_value_reported_with_field(self, section, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[{section}]\n{key} = {value}\n")
        assert str(err.value).startswith(f"{section}.{key}: ")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("gain_rad_per_volt", -1.0, "must be positive"),
            ("gain_jitter", 1.0, "must be in [0, 1)"),
            ("axis_drift_sigma_rad", -0.1, "must be non-negative"),
            ("max_axis_wander_rad", -0.1, "must be non-negative"),
        ],
    )
    def test_epc_params_check_their_own_fields(self, key, value, message):
        with pytest.raises(ValueError) as err:
            EpcParams(**{key: value})
        assert str(err.value) == f"{key}: {message}"
        with pytest.raises(ConfigError) as err:
            parse_config(f"[epc]\n{key} = {value}\n")
        assert str(err.value) == f"epc.{key}: {message}"

    @pytest.mark.parametrize(
        "section, key, message",
        [
            ("controller", "tau", "must be finite"),
            ("epc", "axis_drift_sigma_rad", "must be finite"),
            ("link", "alpha_db_per_km", "must be finite"),
            ("link", "length_km", "must be finite"),
        ],
    )
    def test_nan_fails_the_constructor_check(self, section, key, message):
        # nan compares False both ways; the type check rejects it before any range check
        with pytest.raises(ValueError) as err:
            replace(getattr(ScenarioConfig(), section), **{key: math.nan})
        assert str(err.value) == f"{key}: {message}"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("epc", "gain_rad_per_volt", "inf"),
            ("link", "length_km", "inf"),
            ("channel", "angle_deg", "inf"),
            ("controller", "tau", "-inf"),
            ("source", "mean_photons", "nan"),
            ("channel", "axis", "0,nan,1"),
        ],
    )
    def test_non_finite_value_reported_with_field(self, section, key, value):
        # kind = static reads both [channel] keys below
        with pytest.raises(ConfigError) as err:
            parse_config(f"[scenario]\nkind = static\n[{section}]\n{key} = {value}\n")
        assert str(err.value) == f"{section}.{key}: must be finite"

    @pytest.mark.parametrize(
        "kind, section, key, value, text, message",
        [
            ("static", "scenario", "seed", -1, "-1", "scenario.seed: must be non-negative"),
            ("static", "controller", "tau", -math.inf, "-inf", "controller.tau: must be finite"),
            ("static", "source", "mean_photons", math.nan, "nan",
             "source.mean_photons: must be finite"),
            ("static", "channel", "angle_deg", math.inf, "inf",
             "channel.angle_deg: must be finite"),
            # each of the rest failed inside the model before it was checked by name
            ("static", "link", "length_km", 1e300, "1e300",
             "link.length_km: the transmittance underflows to 0 at this alpha_db_per_km"),
            ("static", "channel", "axis", (1e300,) * 3, "1e300,1e300,1e300",
             "channel.axis: too large or too small to normalize"),
            ("scramble", "channel", "axis", (1e300,) * 3, "1e300,1e300,1e300",
             "channel.axis: too large or too small to normalize"),
            ("static", "controller", "batch_pulses", 10**30, str(10**30),
             "controller.batch_pulses: must be below 2**63"),
            # the squared norm is subnormal, so the quotient misses unit norm
            ("static", "channel", "axis", (1e-160, 0.0, 0.0), "1e-160,0,0",
             "channel.axis: too large or too small to normalize"),
            ("scramble", "channel", "axis", (1e-160, 0.0, 0.0), "1e-160,0,0",
             "channel.axis: too large or too small to normalize"),
            # a step wider than the epc range recenters on every move
            ("static", "controller", "tau", -1e300, "-1e300", STEP_TOO_WIDE),
            ("static", "controller", "dither_volts", 1e-300, "1e-300", STEP_TOO_WIDE),
        ],
    )
    def test_code_and_ini_give_the_same_message(self, kind, section, key, value, text, message):
        line = f"{key} = {text}\n" if section == "scenario" else f"[{section}]\n{key} = {text}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(f"[scenario]\nkind = {kind}\n" + line)
        assert str(err.value) == message
        cfg = replace(ScenarioConfig(), kind=kind)
        with pytest.raises(ValueError) as err:
            if section == "scenario":
                replace(cfg, **{key: value})
            else:
                replace(cfg, **{section: replace(getattr(cfg, section), **{key: value})})
        # a section's own check names its key; ScenarioConfig names section.key
        assert message in (str(err.value), f"{section}.{err.value}")

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            # each ran or failed mid-run before its type was checked
            ("scenario", "duration", 2.5, "scenario.duration: must be an integer"),
            ("scenario", "seed", 1.5, "scenario.seed: must be an integer"),
            ("scenario", "control_enabled", "no",
             "scenario.control_enabled: must be true or false"),
            ("scenario", "kind", 2, "scenario.kind: must be a string"),
            ("scenario", "link", None, "scenario.link: must be a LinkBudget"),
            ("controller", "batch_pulses", 2.5, "batch_pulses: must be an integer"),
            ("controller", "max_cycles_per_correction", True, "max_cycles_per_correction: "
             "must be an integer"),
            ("epc", "gain_jitter", False, "gain_jitter: must be a number"),
            ("channel", "axis", [0.0, 0.0, 1.0], "axis: must be a tuple"),
            ("channel", "axis", (0.0, "1", 0.0), "axis: must be a number"),
        ],
    )
    def test_wrong_type_built_in_code_rejected(self, section, key, value, message):
        cfg = ScenarioConfig()
        with pytest.raises(ValueError) as err:
            if section == "scenario":
                replace(cfg, **{key: value})
            else:
                replace(getattr(cfg, section), **{key: value})
        assert str(err.value) == message

    def test_dither_wider_than_half_the_epc_range_rejected(self):
        # the first correction would probe the range center plus dither
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nkind = static\nduration = 3\n"
                         "[epc]\nv_min = 0\nv_max = 1\n")
        assert str(err.value) == (
            "controller.dither_volts: must be at most half the epc voltage range"
        )
        # exactly half fits: the probe lands on v_max
        assert parse_config("[epc]\nv_min = 0\nv_max = 2\n").epc.v_max == 2.0

    def test_controller_step_wider_than_the_epc_range_rejected(self):
        # a step over the whole range recenters on every E change the controller acts on
        ini = "[controller]\ne_threshold = 0.5\ntau = {}\n"
        assert parse_config(ini.format(-300.0)).controller.tau == -300.0  # a 150 V step fits
        with pytest.raises(ConfigError) as err:
            parse_config(ini.format(-300.001))
        assert str(err.value) == STEP_TOO_WIDE
        # the defaults step 0.3 V in 150 V; every preset builds at both scales
        for name in PRESET_NAMES:
            for full in (False, True):
                ctl, epc = (cfg := preset_config(name, full=full)).controller, cfg.epc
                assert abs(ctl.tau) * ctl.e_threshold / ctl.dither_volts <= epc.v_max - epc.v_min

    def test_zero_batch_pulses_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[controller]\nbatch_pulses = 0\n")
        assert str(err.value) == "controller.batch_pulses: must be at least 1"

    def test_controller_invariant_enforced(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[controller]\ntau = 5.0\n")
        assert str(err.value) == "controller.tau: must be non-positive (negative to minimize E)"

    def test_link_invariant_enforced(self):
        with pytest.raises(ConfigError):
            parse_config("[link]\neta_bob = 2.0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "[controller]\ndither_volts = -1\ntau = 5\n",
                "controller.dither_volts: must be positive\n"
                "controller.tau: must be non-positive (negative to minimize E)",
            ),
            (
                "[source]\nmean_photons = 0\nmisalignment_floor = 0.5\n",
                "source.mean_photons: must be positive\n"
                "source.misalignment_floor: must be in [0, 0.5)",
            ),
            (
                "[link]\nalpha_db_per_km = -0.2\nlength_km = -1\neta_bob = 0\n",
                "link.alpha_db_per_km: must be non-negative\n"
                "link.length_km: must be non-negative\n"
                "link.eta_bob: must be in (0, 1]",
            ),
        ],
    )
    def test_section_check_reports_every_failing_key(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == message

    def test_section_and_cross_field_errors_reported_in_one_pass(self):
        text = "[controller]\ntau = 5\n[epc]\ngain_rad_per_volt = -1\n[scenario]\nseed = -1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value).splitlines() == [
            "epc.gain_rad_per_volt: must be positive",
            "controller.tau: must be non-positive (negative to minimize E)",
            "scenario.seed: must be non-negative",
        ]

    def test_keys_beside_a_failing_key_are_still_cross_checked(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[controller]\ntau = 5\ndither_volts = 100\n")
        assert str(err.value).splitlines() == [
            "controller.tau: must be non-positive (negative to minimize E)",
            "controller.dither_volts: must be at most half the epc voltage range",
        ]

    @pytest.mark.parametrize("kind", ["static", "drift"])
    def test_epc_angle_that_overflows_rejected(self, kind):
        # gain * v_max is 1e310: a squeezer could not be rotated
        cfg = ScenarioConfig(kind=kind, duration=3)
        with pytest.raises(ConfigError) as err:
            replace(cfg, epc=replace(cfg.epc, gain_rad_per_volt=1e300, v_max=1e10))
        assert str(err.value) == (
            "epc.gain_rad_per_volt: the rotation angle"
            " gain * (1 + gain_jitter) * max(|v_min|, |v_max|) overflows"
        )
        # the huge gain alone keeps every angle finite, and runs
        series, _ = run_scenario(replace(cfg, epc=replace(cfg.epc, gain_rad_per_volt=1e300)))
        assert len(series) == 3

    def test_unread_channel_field_is_not_checked(self):
        # a config built in code may hold any value in a field its kind never reads
        zero_axis = replace(ChannelParams(), axis=(0.0, 0.0, 0.0))
        drift = short_cfg(kind="drift", channel=ChannelParams())
        run = series_to_csv(run_scenario(replace(drift, channel=zero_axis))[0])
        assert run == series_to_csv(run_scenario(drift)[0])
        static = short_cfg(duration=2)
        run_scenario(replace(static, channel=replace(static.channel, step_sigma_rad=-1.0)))
        with pytest.raises(ConfigError) as err:
            run_scenario(replace(static, channel=replace(static.channel, axis=(0.0, 0.0, 0.0))))
        assert str(err.value) == "channel.axis: need a non-zero 3-vector"


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
        # the table comes from ``poltrack table`` alone
        with pytest.raises(ConfigError) as err:
            run_scenario(replace(short_cfg(), kind="sample-size-table"))
        assert str(err.value) == "scenario.kind: must be one of static, drift, scramble"

    def test_unknown_preset(self):
        messages = []
        for build in (preset_config, preset_oracle.preset_config):
            with pytest.raises(ConfigError) as err:
                build("drift48h")
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestPresets:
    """Each preset is one checked construction and equals the reference presets."""

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_equals_the_reference(self, name, full):
        assert preset_config(name, full=full) == preset_oracle.preset_config(name, full=full)

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_one_scenario_config_per_call(self, name, full, monkeypatch):
        built = {ScenarioConfig: 0, ControllerConfig: 0}
        for cls in built:
            check = cls.__post_init__

            def counted(obj, cls=cls, check=check):
                built[cls] += 1
                check(obj)

            monkeypatch.setattr(cls, "__post_init__", counted)
        preset_config(name, full=full)
        assert built[ScenarioConfig] == 1
        assert built[ControllerConfig] <= 1


class TestStreamsBuilt:
    """A run builds only the random streams it draws from, each under its key."""

    EAGER = [(_TRACK, feedback._CHANNEL), (_TRACK, feedback._DRIFT), (_TRACK, feedback._MONITOR)]

    @staticmethod
    def run(monkeypatch, cfg):
        """The spawn key of each Philox stream ``run_scenario(cfg)`` builds, in
        order, and each correcting basis's contexts, in order of first correction.

        Also checks that the ``SeedSequence``s the run builds are exactly those
        streams' seeds: none is hashed that no stream draws from.
        """
        philox, control_cycle = np.random.Philox, feedback.control_cycle
        keys, contexts, seeds = [], {}, []

        class CountingSeedSequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seeds.append(self.spawn_key)

        def counting(seed):
            keys.append(seed.spawn_key)
            return philox(seed)

        def recorded(epc, e, basis, ctx, config):
            if ctx is not None:
                contexts.setdefault(basis, []).append(ctx)
            return control_cycle(epc, e, basis, ctx, config)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        monkeypatch.setattr(np.random, "Philox", counting)
        monkeypatch.setattr(feedback, "control_cycle", recorded)
        run_scenario(cfg)
        assert seeds == keys, "a SeedSequence was built that seeds no stream"
        return keys, contexts

    def test_a_monitoring_run_builds_channel_drift_and_monitor(self, monkeypatch):
        # the drift_full benchmark's shape: --full drift24h, control off, no jitter;
        # run() also checks that no (_TRACK,) root SeedSequence is hashed for track
        cfg = preset_config("drift24h", full=True)
        cfg = replace(cfg, duration=2, control_enabled=False, epc=replace(cfg.epc, gain_jitter=0.0))
        assert self.run(monkeypatch, cfg)[0] == self.EAGER

    def test_gain_jitter_adds_the_two_epc_streams(self, monkeypatch):
        cfg = replace(preset_config("drift24h", full=True), duration=2, control_enabled=False)
        assert cfg.epc.gain_jitter > 0.0
        assert self.run(monkeypatch, cfg)[0] == [(_EPC_Z,), (_EPC_X,), *self.EAGER]

    @pytest.mark.parametrize(
        "name, jitter, seed, bases",
        [
            ("scramble04", 0.1, 2, "ZX"),  # both bases correct 5 or more times
            ("scramble04", 0.1, 3, "Z"),  # Z corrects 9 times, X never
            ("static", 0.0, 2, "ZX"),  # Z corrects from cycle 1, X first in cycle 6
        ],
    )
    def test_a_controller_stream_is_built_once_at_its_first_correction(
        self, monkeypatch, name, jitter, seed, bases
    ):
        cfg = preset_config(name)
        cfg = replace(
            cfg, duration=10, seed=seed, epc=replace(cfg.epc, gain_jitter=jitter),
            controller=replace(cfg.controller, batch_pulses=10_000),
        )
        keys, contexts = self.run(monkeypatch, cfg)
        assert "".join(contexts) == bases
        assert max(len(c) for c in contexts.values()) > 1
        ctrl = {"Z": feedback._CTRL_Z, "X": feedback._CTRL_X}
        epcs = [(_EPC_Z,), (_EPC_X,)] if jitter > 0.0 else []
        assert keys == [*epcs, *self.EAGER, *((_TRACK, ctrl[b]) for b in bases)]
        # every correction of a basis draws on the one stream that basis built
        streams = [{id(ctx.rng) for ctx in c} for c in contexts.values()]
        assert all(len(ids) == 1 for ids in streams)
        assert len(set.union(*streams)) == len(bases)

    def test_a_run_that_never_corrects_builds_no_controller_stream(self, monkeypatch):
        # an aligned EPC under a still channel holds every cycle
        cfg = preset_config("static")
        cfg = replace(
            cfg, duration=10, channel=replace(cfg.channel, angle_deg=0.0),
            epc=replace(cfg.epc, gain_jitter=0.0),
        )
        assert self.run(monkeypatch, cfg) == (self.EAGER, {})

    def test_a_late_controller_stream_starts_at_its_key(self, monkeypatch):
        # an aligned start under slow drift: each basis first corrects many
        # cycles in, after the other streams have drawn all along
        cfg = preset_config("drift24h")
        cfg = replace(
            cfg, duration=40, seed=3, epc=replace(cfg.epc, gain_jitter=0.0),
            channel=replace(cfg.channel, step_sigma_rad=0.04),
        )
        control_cycle, calls, first = feedback.control_cycle, [], {}

        def recorded(epc, e, basis, ctx, config):
            calls.append(basis)
            if ctx is not None and basis not in first:
                first[basis] = (calls.count("Z"), ctx.rng.bit_generator.state)
            return control_cycle(epc, e, basis, ctx, config)

        monkeypatch.setattr(feedback, "control_cycle", recorded)
        run_scenario(cfg)
        assert set(first) == {"Z", "X"}
        for basis, key in (("Z", feedback._CTRL_Z), ("X", feedback._CTRL_X)):
            cycle, state = first[basis]
            assert cycle > 10
            fresh = np.random.Philox(np.random.SeedSequence(3, spawn_key=(_TRACK, key)))
            np.testing.assert_equal(state, fresh.state)


class TestAxisCheck:
    """``channel.axis`` is accepted exactly when ``build_channel`` can build the channel."""

    @pytest.mark.parametrize("kind", ["static", "scramble"])
    def test_accepted_exactly_when_the_channel_builds(self, kind):
        # component magnitudes 1e-170 to 1e160 in quarter decades, across both
        # ends: squares that underflow, subnormal squared norms, overflow
        base, seen = ScenarioConfig(kind=kind), set()
        for quarter in range(-680, 641):
            x = 10.0 ** (quarter / 4)
            for axis in ((x, 0.0, 0.0), (x, x, x), (3.0 * x, -4.0 * x, 0.0)):
                channel = replace(base.channel, axis=axis)
                try:
                    replace(base, channel=channel)
                    accepted = True
                except ConfigError as err:
                    assert str(err).startswith("channel.axis: ")
                    accepted = False
                try:
                    build_channel(SimpleNamespace(kind=kind, channel=channel))
                    builds = True
                except ValueError:
                    builds = False
                assert accepted == builds, (axis, accepted)
                seen.add(accepted)
        assert seen == {True, False}


class TestBuildChannel:
    @pytest.mark.parametrize(
        "kind, model",
        [("static", StaticChannel), ("drift", RandomWalkChannel), ("scramble", ScramblerChannel)],
    )
    def test_kind_picks_the_channel(self, kind, model):
        assert type(build_channel(parse_config(f"[scenario]\nkind = {kind}\n"))) is model

    def test_table_kind_has_no_channel(self):
        with pytest.raises(ConfigError):
            build_channel(replace(short_cfg(), kind="sample-size-table"))


def assert_same_summary(got: Summary, want: Summary) -> None:
    """Field by field: equal ints, and floats with the same bits or both NaN."""
    for f in fields(Summary):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert type(g) is type(w), f.name
        if not isinstance(w, float):
            assert g == w, (f.name, g, w)
        elif math.isnan(w):
            assert math.isnan(g), (f.name, g)
        else:
            assert struct.pack("<d", g) == struct.pack("<d", w), (f.name, g, w)


class TestSummarize:
    def test_constant_column(self):
        s = summarize(TimeSeries(tuple(make_row(i) for i in range(1, 6))))
        assert s == Summary(
            5, pytest.approx(0.02), pytest.approx(0.0), pytest.approx(0.02), 0, 0, 0
        )

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
        assert (s.cycles, s.nonconverged_cycles, s.starved_cycles) == (3, 1, 1)

    def test_all_starved_gives_nan_stats(self):
        s = summarize(TimeSeries((make_row(1, q=math.nan, conv=False),)))
        assert math.isnan(s.mean_qber) and math.isnan(s.std_qber) and math.isnan(s.max_qber)
        assert (s.cycles, s.nonconverged_cycles, s.starved_cycles) == (1, 1, 1)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 3000])
    @pytest.mark.parametrize("starved", [0.0, 0.1, 0.5])
    def test_equals_the_numpy_oracle_bit_for_bit(self, n, starved):
        # lengths on and beside numpy's pairwise-sum block edges (8 and 128)
        rng = np.random.default_rng([n, int(starved * 10)])
        for scale in (0.03, 0.5):
            q = rng.uniform(0.0, scale, n)
            q[rng.random(n) < starved] = math.nan
            rows = tuple(
                TimeSeriesRow(i + 1, 12.0 * (i + 1), float(q[i]), 0.001, 0.002, (75.0,) * 8,
                              int(rng.integers(0, 4)), bool(rng.random() < 0.7))
                for i in range(n)
            )
            series = TimeSeries(rows)
            assert_same_summary(summarize(series), summary_oracle.summarize(series))

    @pytest.mark.parametrize("n", [1, 9, 129])
    def test_an_all_starved_series_matches_the_oracle(self, n):
        rows = tuple(make_row(i, q=math.nan, conv=i % 2 == 0) for i in range(1, n + 1))
        got = summarize(TimeSeries(rows))
        assert_same_summary(got, summary_oracle.summarize(TimeSeries(rows)))
        assert math.isnan(got.mean_qber) and got.starved_cycles == n

    def test_summary_text_writes_each_field_in_order(self):
        s = Summary(cycles=3, mean_qber=0.0123456789012, std_qber=math.nan, max_qber=1.0,
                    recenter_events=4, nonconverged_cycles=1, starved_cycles=0)
        assert summary_to_text(s) == (
            "cycles = 3\nmean_qber = 0.0123456789\nstd_qber = nan\nmax_qber = 1\n"
            "recenter_events = 4\nnonconverged_cycles = 1\nstarved_cycles = 0\n"
        )

    def test_summary_text_shape(self):
        text = summary_to_text(summarize(TimeSeries((make_row(1),))))
        assert text.startswith("cycles = 1\n")
        assert "mean_qber = " in text
        assert text.endswith("\nstarved_cycles = 0\n")


ROUND_TRIP = "line 3: does not round-trip; it would be written as {emitted!r}"


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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (13, "-4", "line 3: recenter must be non-negative, got -4"),
            (14, "yes", "line 3: converged must be 0 or 1, got 'yes'"),
            (0, "02", ROUND_TRIP),
            (1, "24.0", ROUND_TRIP),
            (2, "0.0200", ROUND_TRIP),
            (3, "1e-3", ROUND_TRIP),
            (5, "075", ROUND_TRIP),
            (12, " 75", ROUND_TRIP),
            (13, "+0", ROUND_TRIP),
            # values track never writes
            (2, "inf", "line 3: qber_est must be in [0, 1] or nan, got inf"),
            (2, "-0.5", "line 3: qber_est must be in [0, 1] or nan, got -0.5"),
            (2, "1.5", "line 3: qber_est must be in [0, 1] or nan, got 1.5"),
            (3, "4.5", "line 3: e_z must be in [0, 4] or nan, got 4.5"),
            (4, "-inf", "line 3: e_x must be in [0, 4] or nan, got -inf"),
            (1, "nan", "line 3: t_seconds and the voltages must be finite"),
            (7, "nan", "line 3: t_seconds and the voltages must be finite"),
            (12, "inf", "line 3: t_seconds and the voltages must be finite"),
            (0, "1", "line 3: cycle must be above the previous row's 1"),
        ],
    )
    def test_rejects_field_that_would_not_round_trip(self, field, value, message):
        lines = series_to_csv(TimeSeries((make_row(1), make_row(2)))).splitlines()
        emitted = lines[2]
        parts = emitted.split(",")
        parts[field] = value
        lines[2] = ",".join(parts)
        with pytest.raises(ValueError) as err:
            series_from_csv("\n".join(lines) + "\n")
        assert str(err.value) == message.format(emitted=emitted)

    def test_starved_row_round_trips(self):
        row = TimeSeriesRow(2, 24.0, math.nan, math.nan, math.nan, (75.0,) * 8, 0, False)
        text = series_to_csv(TimeSeries((make_row(1), row)))
        assert series_to_csv(series_from_csv(text)) == text

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
        assert cfg.controller.batch_pulses == 30_000_000
        assert cfg.controller.sample_fraction == 0.1
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
        assert cfg.controller.batch_pulses == 30_000_000
        assert cfg.controller.max_cycles_per_correction == 3
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
            epc=replace(cfg.epc, gain_jitter=0.0, axis_drift_sigma_rad=0.0),
        )
        series, summary = run_scenario(cfg)

        m = 0.5  # eta * mu of the desk link
        f = cfg.source.misalignment_floor
        rate = math.radians(cfg.channel.rate_deg_per_cycle)
        n_row = cfg.controller.batch_pulses * (1.0 - math.exp(-m)) * 0.5

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
        ctrl = replace(cfg.controller, batch_pulses=10_000)
        duration = 60
        if name == "drift24h":
            # give the walk enough motion to matter over the short window
            cfg = replace(cfg, channel=replace(cfg.channel, step_sigma_rad=0.04))
            duration = 200
        cfg = replace(cfg, duration=duration, controller=ctrl)
        _, on = run_scenario(cfg)
        _, off = run_scenario(replace(cfg, control_enabled=False))
        assert on.mean_qber <= off.mean_qber


README = Path(__file__).resolve().parent.parent / "README.md"

# Config names that are gone; parsing any of them is an error.
REMOVED_NAMES = (
    "controller_z", "controller_x", "channel.model", "axis_resample_period", "rep_rate_hz",
    "[table]", "sample-size-table", "fc_seconds",
)


class TestReadmeConfigFormat:
    """README's "Config format" section keeps up with the schema."""

    @staticmethod
    def section():
        text = README.read_text(encoding="utf-8")
        body = text.split("## Config format\n", 1)[1].split("\n## ", 1)[0]
        live, removed = body.split("Removed keys", 1)
        return live, removed

    def test_names_every_section(self):
        live, _ = self.section()
        sections = re.findall(r"^\[(\w+)\]$", config_to_ini(ScenarioConfig()), re.M)
        assert sections, "no sections found"
        assert [s for s in sections if f"`[{s}]`" not in live] == []

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_names_each_kind_with_its_channel_keys(self, kind):
        live, _ = self.section()
        item = re.search(rf"^  \* `{kind}`: (.*?)(?=\n  \* |\n\S|\n\n)", live, re.M | re.S)
        assert item, f"no item for kind {kind}"
        named = set(re.findall(r"`(\w+)`", item.group(1)))
        every = set().union(*(written_channel_keys(k) for k in SCENARIO_KINDS))
        assert named & every == set(written_channel_keys(kind))

    def test_removed_names_only_in_their_note(self):
        live, removed = self.section()
        assert [name for name in REMOVED_NAMES if name in live] == []
        assert [name for name in REMOVED_NAMES if name not in removed] == []
