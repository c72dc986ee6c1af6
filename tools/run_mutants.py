"""Apply each mutant of ``tests/mutants.json`` in a temporary copy and run its tests.

Usage::

    python3 tools/run_mutants.py            # every mutant
    python3 tools/run_mutants.py NAME ...   # the named mutants only

Each row of the table names a mutant, a file, a text that occurs exactly
once in that file, the text that replaces it, and the ids of the tests that
must fail once it is replaced.  For each row the repository is copied into
a temporary directory, the file is mutated there (never in the checkout),
and pytest runs that row's tests alone against the copy's ``src/``.  A
listed id that is parametrized counts as failed when any of its cases
fails.  The mutant is killed when every listed id fails; it survives when
one passes or is not collected.  The exit code is 1 if a mutant survives,
else 0.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "mutants.json"
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench-out", "runs")
_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.M)


def outcomes(ids: list[str], cwd: Path) -> dict[str, set[str]]:
    """Listed id -> outcomes of its collected cases, from one pytest run in ``cwd``."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *ids],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    found = {test_id: set() for test_id in ids}
    for outcome, node in _OUTCOME.findall(run.stdout):
        base = node.split("[", 1)[0]
        if base in found:
            found[base].add(outcome)
    return found


def run_mutant(row: dict) -> list[str]:
    """The listed ids that did not fail under ``row``'s mutant; empty when it is killed."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        target = copy / row["file"]
        text = target.read_text(encoding="utf-8")
        if text.count(row["old"]) != 1:
            raise SystemExit(f"{row['name']}: old text does not occur exactly once in {row['file']}")
        target.write_text(text.replace(row["old"], row["new"]), encoding="utf-8")
        found = outcomes(row["tests"], copy)
    return [test_id for test_id, seen in found.items() if not seen & {"FAILED", "ERROR"}]


def main(argv: list[str]) -> int:
    rows = json.loads(TABLE.read_text(encoding="utf-8"))
    unknown = set(argv) - {row["name"] for row in rows}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    survived = 0
    for row in rows:
        if argv and row["name"] not in argv:
            continue
        missed = run_mutant(row)
        survived += bool(missed)
        print(f"{'SURVIVED' if missed else 'killed'}  {row['name']}", flush=True)
        for test_id in missed:
            print(f"    did not fail: {test_id}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
