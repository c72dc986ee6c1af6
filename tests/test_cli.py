import hashlib
import math
from dataclasses import replace

import pytest

from poltrack import cli
from poltrack.cli import main
from poltrack.harness import (
    CSV_HEADER,
    config_to_ini,
    preset_config,
    run_scenario,
    series_from_csv,
    series_to_csv,
)

from conftest import table_from_csv


# sha256 of ``poltrack table`` on its default grid: the bytes the removed
# ``table`` preset wrote, pinned so the grid defaults cannot drift.
DEFAULT_TABLE_SHA256 = "98c493bd46ddc255c14d8d14938395dba788205195e1ea5b2f472f4b6f9390c9"


def short_static_ini():
    cfg = preset_config("static")
    ctrl = replace(cfg.controller, batch_pulses=10_000)
    return config_to_ini(replace(cfg, duration=4, controller=ctrl))


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.ini"
        cfg_path.write_text(short_static_ini())
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "series.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "config.resolved").exists()
        series = series_from_csv((out / "series.csv").read_text())
        assert len(series) == 4
        assert "mean_qber" in capsys.readouterr().out

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = tmp_path / "scenario.ini"
        cfg_path.write_text(short_static_ini())
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        main(["run", str(cfg_path), "--out", str(out1), "--seed", "1"])
        main(["run", str(cfg_path), "--out", str(out2), "--seed", "1"])
        main(["run", str(cfg_path), "--out", str(out3), "--seed", "2"])
        a = (out1 / "series.csv").read_bytes()
        assert a == (out2 / "series.csv").read_bytes()
        assert a != (out3 / "series.csv").read_bytes()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini")]) == 2

    def test_bad_config_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text("[scenario]\nkind = warp\n")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    def test_out_of_range_value_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text("[channel]\nstep_sigma_rad = -1\n")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "channel.step_sigma_rad" in capsys.readouterr().err

    def test_dither_wider_than_half_the_epc_range_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "narrow.ini"
        cfg_path.write_text("[scenario]\nkind = static\nduration = 3\n"
                            "[epc]\nv_min = 0\nv_max = 1\n")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "controller.dither_volts: " in capsys.readouterr().err
        assert not list(tmp_path.rglob("series.csv"))

    def test_epc_angle_that_overflows_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "huge.ini"
        cfg_path.write_text("[scenario]\nkind = static\nduration = 3\n"
                            "[epc]\ngain_rad_per_volt = 1e300\nv_max = 1e10\n")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "epc.gain_rad_per_volt: " in capsys.readouterr().err
        assert not list(tmp_path.rglob("series.csv"))

    def test_unread_channel_key_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "drift.ini"
        cfg_path.write_text("[scenario]\nkind = drift\nduration = 3\n[channel]\nangle_deg = 45\n")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error:\nchannel.angle_deg: not read by kind = drift\n"
        )
        assert not list(tmp_path.rglob("series.csv"))

    def test_no_control_flag(self, tmp_path):
        cfg_path = tmp_path / "scenario.ini"
        cfg_path.write_text(short_static_ini())
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out), "--no-control"]) == 0
        resolved = (out / "config.resolved").read_text()
        assert "control_enabled = false" in resolved

    def test_replicas(self, tmp_path):
        cfg_path = tmp_path / "scenario.ini"
        cfg_path.write_text(short_static_ini())
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out), "--replicas", "2"]) == 0
        assert (out / "replica_00" / "series.csv").exists()
        assert (out / "replica_01" / "series.csv").exists()
        assert (out / "aggregate.txt").exists()
        a = (out / "replica_00" / "series.csv").read_bytes()
        b = (out / "replica_01" / "series.csv").read_bytes()
        assert a != b  # seed-varied
        # replica i is the single-process run at the config seed plus i
        seed = preset_config("static").seed
        for i, replica in enumerate((a, b)):
            single = tmp_path / f"single_{i}"
            assert main(["run", str(cfg_path), "--out", str(single), "--seed", str(seed + i)]) == 0
            assert replica == (single / "series.csv").read_bytes()

    def test_replica_pool_sized_from_affinity(self, tmp_path, monkeypatch):
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        # two usable CPUs on a host that reports many more
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        cfg_path = tmp_path / "scenario.ini"
        cfg_path.write_text(short_static_ini())
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out), "--replicas", "3"]) == 0
        assert workers == [2]
        assert (out / "replica_02" / "series.csv").exists()


class TestPreset:
    @pytest.mark.parametrize("replicas", ["1", "2"])
    def test_negative_seed_is_config_error(self, replicas, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["preset", "static", "--seed", "-3", "--replicas", replicas, "--out", str(out)])
        assert code == 2
        assert "--seed: must be non-negative" in capsys.readouterr().err
        assert not list(tmp_path.rglob("series.csv"))

    @pytest.mark.parametrize("replicas", ["0", "-2"])
    def test_replicas_below_one_is_config_error(self, replicas, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["preset", "static", "--replicas", replicas, "--out", str(out)]) == 2
        assert "--replicas: must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.rglob("series.csv"))

    def test_unknown_preset_rejected_by_argparse(self):
        # "table" was a preset; the table command replaces it
        for name in ("warp", "table"):
            with pytest.raises(SystemExit) as err:
                main(["preset", name])
            assert err.value.code == 2


class TestTable:
    def test_table_command(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["table", "--qber", "0.01,0.02", "--b", "100,1000", "--out", str(out)])
        assert code == 0
        qs, bs, cells = table_from_csv(out.read_text())
        assert qs == (0.01, 0.02)
        assert bs == (100, 1000)

    def test_default_grid_is_three_qber_by_nine_b(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "--out", str(out)]) == 0
        qs, bs, cells = table_from_csv(out.read_text())
        assert qs == (0.01, 0.02, 0.03)
        assert bs == (250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000)
        assert cells.shape == (9, 3)

    def test_default_grid_writes_the_reference_table(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_TABLE_SHA256

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--mu", "-1"),
            ("--mu", "0"),
            ("--mu", "inf"),
            ("--eta", "0"),
            ("--eta", "1.5"),
            ("--qber", "0.01,1.5"),
            ("--qber", "0.01,-0.1"),
            ("--b", "100,0"),
            ("--b", "250,0"),
            ("--qber", "a,b"),
            ("--b", "1.5"),
        ],
    )
    def test_out_of_range_flag_is_config_error(self, flag, value, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["table", flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error:\n{flag}: ")
        assert not out.exists()


class TestSummary:
    def test_summary_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.ini"
        cfg_path.write_text(short_static_ini())
        out = tmp_path / "out"
        main(["run", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        assert main(["summary", str(out / "series.csv")]) == 0
        text = capsys.readouterr().out
        assert text == (out / "summary.txt").read_text()

    def test_summary_counts_starved_cycles(self, tmp_path, capsys):
        # 40-pulse batches leave some cycles with an empty row of revealed bits
        cfg = preset_config("static")
        cfg = replace(cfg, duration=20, controller=replace(cfg.controller, batch_pulses=40))
        series, summary = run_scenario(cfg)
        starved = sum(math.isnan(row.qber_est) for row in series)
        assert 0 < starved < len(series)
        assert summary.starved_cycles == starved
        csv = tmp_path / "series.csv"
        csv.write_text(series_to_csv(series))
        assert main(["summary", str(csv)]) == 0
        assert capsys.readouterr().out.endswith(f"\nstarved_cycles = {starved}\n")

    def test_malformed_csv_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("cycle,qber\n1,0.5\n")
        assert main(["summary", str(bad)]) == 3

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (13, "-4", "line 2: recenter must be non-negative, got -4"),
            (14, "yes", "line 2: converged must be 0 or 1, got 'yes'"),
            (13, "x", "line 2: invalid literal for int() with base 10: 'x'"),
            (2, "abc", "line 2: could not convert string to float: 'abc'"),
            (
                0,
                "01",
                "line 2: does not round-trip; it would be written as "
                "'1,12,0.02,0.001,0.002,75,75,75,75,75,75,75,75,0,1'",
            ),
        ],
    )
    def test_bad_row_field_is_runtime_error(self, field, value, message, tmp_path, capsys):
        parts = "1,12,0.02,0.001,0.002,75,75,75,75,75,75,75,75,0,1".split(",")
        parts[field] = value
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\n" + ",".join(parts) + "\n")
        assert main(["summary", str(bad)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


class TestConfigCommand:
    def test_print_defaults_parses_back(self, capsys):
        # each key sits under a "# source: note" comment line, which the parser skips
        assert main(["config", "--print-defaults"]) == 0
        text = capsys.readouterr().out
        from poltrack.harness import ScenarioConfig, defaults_to_ini, parse_config

        assert text == defaults_to_ini()
        assert sum(line.startswith("# ") for line in text.splitlines()) == 23
        assert parse_config(text) == ScenarioConfig()

    def test_config_without_a_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["config"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: poltrack config" in captured.err
        assert "--print-defaults" in captured.err
