"""Smoke test of the scripts under ``tools/``, which sit outside ``testpaths``."""

import importlib.util
import json
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timeit_layers_times_every_layer(monkeypatch, capsys):
    tool = load("timeit_layers")

    def one_call_us(stmt, per_call=1):
        t0 = time.perf_counter()
        stmt()
        return (time.perf_counter() - t0) / per_call * 1e6

    monkeypatch.setattr(tool, "best_us", one_call_us)
    tool.main()
    result = json.loads(capsys.readouterr().out)
    assert result.pop("_meta")["repeat"] == tool.REPEAT
    assert set(result) == {
        "rotation_new",
        "tally_new",
        "compose",
        "analyzer_element",
        "with_voltages",
        "drift_axes",
        "channel_step_drift",
        "simulate_batch",
        "feedback_error",
        "MonteCarloContext.evaluate",
        "evaluate_full",
        "adjust_squeezer_mc",
        "adjust_squeezer",
        "control_cycle",
        "control_cycle_mc_per_eval",
        "track_cycle",
        "series_to_csv_50",
        "stream_new",
        "run_scenario_drift_full",
        "summarize_drift_full",
        "emit_drift_full",
    }
    assert all(us > 0.0 for us in result.values()), result
