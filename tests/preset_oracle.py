"""Experiment presets as the package built them before one construction per call.

This is ``harness.preset_config`` as it was, with its hardware-scale
sections copied as literals: it builds the default ``ScenarioConfig``,
replaces its sections at ``--full``, then replaces the preset's own fields,
so each call builds two or three checked configs, and a desk scrambler
preset two ``ControllerConfig``s.  ``tests/test_harness.py`` requires
``poltrack.harness.preset_config`` to equal it for every preset at both
scales.
"""

from __future__ import annotations

from dataclasses import replace

from poltrack.feedback import ControllerConfig
from poltrack.harness import PRESET_NAMES, ChannelParams, ConfigError, ScenarioConfig
from poltrack.optics import LinkBudget
from poltrack.photon_sim import SourceParams

_FULL_LINK = LinkBudget(0.2, 50.0, 0.1)
_FULL_SOURCE = SourceParams(mean_photons=0.1)
_FULL_CONTROLLER = ControllerConfig(sample_fraction=0.1, batch_pulses=30_000_000)


def preset_config(name: str, *, full: bool = False) -> ScenarioConfig:
    """Named experiment presets reproducing the reference scenarios at desk scale."""
    base = ScenarioConfig()
    if full:
        base = replace(base, link=_FULL_LINK, source=_FULL_SOURCE, controller=_FULL_CONTROLLER)
    if name == "static":
        return replace(
            base,
            kind="static",
            duration=300,
            channel=ChannelParams(axis=(0.0, 1.0, 0.0), angle_deg=30.0),
        )
    if name == "drift24h":
        return replace(
            base,
            kind="drift",
            duration=7200,
            channel=ChannelParams(step_sigma_rad=0.012),
        )
    if name.startswith("scramble") and name in PRESET_NAMES:
        rate = {"scramble02": 0.2, "scramble04": 0.4, "scramble06": 0.6}[name]
        # scrambling keeps the controller busy nearly every cycle; a sweep cap
        # bounds each correction, and desk runs also take a smaller batch
        ctrl = replace(base.controller, max_cycles_per_correction=3)
        if not full:
            ctrl = replace(ctrl, batch_pulses=15_000)
        return replace(
            base,
            kind="scramble",
            duration=3000,
            channel=ChannelParams(axis=(0.0, 0.0, 1.0), rate_deg_per_cycle=rate),
            controller=ctrl,
        )
    raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
