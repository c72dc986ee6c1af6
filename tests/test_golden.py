"""Seeded preset output pinned byte for byte against committed golden files.

The files under ``tests/golden/`` were written by an earlier version of the
package; ``manifest.json`` names the preset, scale and cycle count of each,
and the numpy release they were made with.  numpy's ``Generator`` streams are
not guaranteed stable across releases (NEP 19), so under a different numpy
``major.minor`` the comparison is skipped rather than failed.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from poltrack.harness import preset_config, run_scenario, series_to_csv

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def _major_minor(version: str) -> tuple[str, ...]:
    return tuple(version.split(".")[:2])


@pytest.mark.skipif(
    _major_minor(np.__version__) != _major_minor(MANIFEST["numpy"]),
    reason=(
        f"golden files were made with numpy {MANIFEST['numpy']}; numpy {np.__version__} "
        "may draw different Generator streams (NEP 19)"
    ),
)
@pytest.mark.parametrize("filename", sorted(MANIFEST["files"]))
def test_seeded_series_matches_golden(filename):
    spec = MANIFEST["files"][filename]
    cfg = replace(
        preset_config(spec["preset"], full=spec["full"]),
        duration=spec["cycles"],
        seed=MANIFEST["seed"],
    )
    series, _ = run_scenario(cfg)
    got = series_to_csv(series).encode("utf-8")
    assert got == (GOLDEN / filename).read_bytes()
