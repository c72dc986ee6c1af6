"""Smoke test of the scripts under ``tools/``, which sit outside ``testpaths``,
and the shape of the mutant table that ``tools/run_mutants.py`` applies."""

import ast
import importlib.util
import json
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))


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


def defined_tests(path: Path) -> set[str]:
    """``name`` and ``Class::name`` of each test function a test file defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            found.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            found.update(f"{node.name}::{f.name}" for f in node.body
                         if isinstance(f, ast.FunctionDef) and f.name.startswith("test"))
    return found


def test_mutant_names_are_unique():
    names = [row["name"] for row in MUTANTS]
    assert len(names) == len(set(names)) > 0


@pytest.mark.parametrize("row", MUTANTS, ids=[row["name"] for row in MUTANTS])
def test_mutant_row_applies_once_and_names_existing_tests(row):
    assert set(row) == {"name", "file", "old", "new", "tests"}
    text = (ROOT / row["file"]).read_text(encoding="utf-8")
    assert text.count(row["old"]) == 1
    assert row["new"] != row["old"]
    assert row["tests"]
    for test_id in row["tests"]:
        path, _, name = test_id.partition("::")
        assert path.startswith("tests/") and name in defined_tests(ROOT / path), test_id
