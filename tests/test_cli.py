from dataclasses import replace

import pytest

from poltrack.cli import main
from poltrack.harness import (
    config_to_ini,
    preset_config,
    series_from_csv,
    table_from_csv,
)


def short_static_ini():
    cfg = preset_config("static")
    ctrl = replace(cfg.controller_z, batch_pulses=10_000)
    return config_to_ini(replace(cfg, duration=4, controller_z=ctrl, controller_x=ctrl))


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


class TestPreset:
    def test_preset_table_writes_table(self, tmp_path):
        out = tmp_path / "t"
        assert main(["preset", "table", "--out", str(out)]) == 0
        qs, bs, cells = table_from_csv((out / "table.csv").read_text())
        assert qs == (0.01, 0.02, 0.03)
        assert cells.shape == (len(bs), 3)

    def test_unknown_preset_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as err:
            main(["preset", "warp"])
        assert err.value.code == 2


class TestTable:
    def test_table_command(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["table", "--qber", "0.01,0.02", "--b", "100,1000", "--out", str(out)])
        assert code == 0
        qs, bs, cells = table_from_csv(out.read_text())
        assert qs == (0.01, 0.02)
        assert bs == (100, 1000)

    def test_default_grid_matches_table_preset(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "--out", str(out)]) == 0
        assert main(["preset", "table", "--out", str(tmp_path / "preset")]) == 0
        assert out.read_bytes() == (tmp_path / "preset" / "table.csv").read_bytes()

    def test_bad_grid(self, tmp_path):
        assert main(["table", "--qber", "a,b", "--out", str(tmp_path / "t.csv")]) == 2


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

    def test_malformed_csv_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("cycle,qber\n1,0.5\n")
        assert main(["summary", str(bad)]) == 3


class TestConfigCommand:
    def test_print_defaults_parses_back(self, capsys):
        assert main(["config", "--print-defaults"]) == 0
        text = capsys.readouterr().out
        from poltrack.harness import ScenarioConfig, parse_config

        assert parse_config(text) == ScenarioConfig()
