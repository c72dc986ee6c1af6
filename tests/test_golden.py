"""Seeded preset output pinned byte for byte against committed golden files.

The files under ``tests/golden/`` were written by an earlier version of the
package; ``manifest.json`` names the preset, scale and cycle count of each,
and the numpy release they were made with.  numpy's ``Generator`` streams are
not guaranteed stable across releases (NEP 19), so under a different numpy
``major.minor`` the comparison is skipped rather than failed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from poltrack.harness import preset_config, run_scenario, series_to_csv

from conftest import GOLDEN, GOLDEN_MANIFEST, numpy_streams_as_golden


@numpy_streams_as_golden
@pytest.mark.parametrize("filename", sorted(GOLDEN_MANIFEST["files"]))
def test_seeded_series_matches_golden(filename):
    spec = GOLDEN_MANIFEST["files"][filename]
    cfg = replace(
        preset_config(spec["preset"], full=spec["full"]),
        duration=spec["cycles"],
        seed=GOLDEN_MANIFEST["seed"],
    )
    series, _ = run_scenario(cfg)
    got = series_to_csv(series).encode("utf-8")
    assert got == (GOLDEN / filename).read_bytes()
