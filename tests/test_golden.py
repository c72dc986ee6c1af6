"""Seeded preset output pinned byte for byte against committed golden files.

The files under ``tests/golden/`` were written by an earlier version of the
package; ``manifest.json`` names the preset, scale and cycle count of each,
and the numpy release they were made with.  numpy's ``Generator`` streams are
not guaranteed stable across releases (NEP 19), so under a different numpy
``major.minor`` the comparison is skipped rather than failed.

``hashes.json`` pins every run output file (``series.csv``, ``summary.txt``
and ``config.resolved``, as ``poltrack run`` writes them) of 150 cycles at
seed 12345 over 40 configs: every preset at desk and ``--full`` scale, with
control on and off, at the preset's gain jitter and at zero jitter.  Like
the golden files it is regenerated only when a change moves a random stream
on purpose, after the kernel tests and the distribution kit pass, with
``manifest.json`` saying what moved: ``PYTHONPATH=src python
tests/test_golden.py`` rewrites it from the code in ``src``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from poltrack.harness import (
    PRESET_NAMES,
    config_to_ini,
    preset_config,
    run_scenario,
    series_to_csv,
    summary_to_text,
)

from conftest import GOLDEN, GOLDEN_MANIFEST, numpy_streams_as_golden

HASHES = GOLDEN / "hashes.json"
HASH_CYCLES = 150
HASH_SEED = 12345


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


def hash_configs():
    """Name -> config of each run ``hashes.json`` pins, in a fixed order."""
    configs = {}
    for name in PRESET_NAMES:
        for full in (False, True):
            preset = preset_config(name, full=full)
            for control in (True, False):
                for jitter in (preset.epc.gain_jitter, 0.0):
                    key = (
                        f"{name}-{'full' if full else 'desk'}-control_{'on' if control else 'off'}"
                        f"-jitter_{'preset' if jitter else 'zero'}"
                    )
                    configs[key] = replace(
                        preset,
                        duration=HASH_CYCLES,
                        seed=HASH_SEED,
                        control_enabled=control,
                        epc=replace(preset.epc, gain_jitter=jitter),
                    )
    return configs


def output_hashes(cfg) -> dict[str, str]:
    """sha256 of each file ``poltrack run`` writes for ``cfg``."""
    series, summary = run_scenario(cfg)
    files = {
        "series.csv": series_to_csv(series),
        "summary.txt": summary_to_text(summary),
        "config.resolved": config_to_ini(cfg),
    }
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in files.items()}


def test_hash_manifest_covers_forty_configs():
    configs = hash_configs()
    assert len(configs) == 40
    assert sorted(json.loads(HASHES.read_text(encoding="utf-8"))) == sorted(configs)


@numpy_streams_as_golden
@pytest.mark.parametrize("key", sorted(hash_configs()))
def test_seeded_outputs_match_hash_manifest(key):
    want = json.loads(HASHES.read_text(encoding="utf-8"))[key]
    assert output_hashes(hash_configs()[key]) == want


if __name__ == "__main__":
    manifest = {key: output_hashes(cfg) for key, cfg in hash_configs().items()}
    HASHES.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} entries to {HASHES}")
