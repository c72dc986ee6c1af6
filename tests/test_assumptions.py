"""Where every default comes from: each config key and each preset value is tagged.

Every INI key's field carries a ``_checks.tagged`` source and note, and every
other value a preset, module constant or ``poltrack table`` flag sets is a
row of ``harness.CONSTANTS``.  The README's assumption table is the
``poltrack config --print-defaults`` output plus that table.
"""

from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from poltrack.harness import (
    _CHANNEL_KEYS,
    _SCHEMA,
    CONSTANTS,
    PRESET_NAMES,
    ScenarioConfig,
    _fmt,
    config_to_ini,
    defaults_to_ini,
    parse_config,
    preset_config,
)
from poltrack.optics import LinkBudget
from poltrack.photon_sim import SourceParams

SOURCES = ("paper", "literature", "assumed", "desk")  # those ``_checks.tagged`` names
ROOT = Path(__file__).resolve().parent.parent
PAPER = (ROOT / "PAPER.md").read_text(encoding="utf-8")
KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]
# rows of CONSTANTS that no preset sets
NOT_PRESETS = ("poltrack.feedback", "poltrack table")


def value_at(cfg: ScenarioConfig, path: str):
    """The value of INI key ``section.key`` in ``cfg``."""
    section, key = path.split(".")
    return getattr(cfg if section == "scenario" else getattr(cfg, section), key)


def preset_values(name: str, full: bool) -> dict:
    """INI key -> value of each key preset ``name`` reads other than its kind and the defaults."""
    cfg, base = preset_config(name, full=full), ScenarioConfig()
    paths = [f"{section}.{key}" for section, key in KEYS
             if section != "channel" or key in _CHANNEL_KEYS[cfg.kind]]
    return {path: value_at(cfg, path) for path in paths
            if path != "scenario.kind" and value_at(cfg, path) != value_at(base, path)}


def scopes(name: str, full: bool) -> set[str]:
    """The ``where`` of each CONSTANTS row that can set a value of preset ``name``."""
    kind = preset_config(name).kind
    return {name, f"kind = {kind}", "--full" if full else f"kind = {kind}, desk"}


def constants_markdown() -> str:
    """The README's table of ``CONSTANTS``, one row each in table order."""
    lines = ["| where | name | value | source | note |", "|---|---|---|---|---|"]
    for (where, name), (value, source, note) in CONSTANTS.items():
        lines.append(f"| `{where}` | `{name}` | `{_fmt(value)}` | {source} | {note} |")
    return "\n".join(lines) + "\n"


class TestEveryKeyIsTagged:
    @pytest.mark.parametrize("section, key", KEYS)
    def test_key_has_a_source_and_a_note(self, section, key):
        tag = _SCHEMA[section][key]
        assert tag.source in SOURCES, f"{section}.{key} has no tag"
        assert isinstance(tag.note, str) and tag.note.strip(), f"{section}.{key} has no note"

    def test_paper_notes_quote_the_abstract(self):
        quotes = [tag.note for keys in _SCHEMA.values() for tag in keys.values()
                  if tag.source == "paper"]
        quotes += [note for _, source, note in CONSTANTS.values() if source == "paper"]
        assert quotes
        for quote in quotes:
            assert quote in PAPER

    def test_desk_keys_are_the_keys_full_changes(self):
        changed = {
            f"{section}.{key}"
            for name in PRESET_NAMES
            for section, keys in _SCHEMA.items() for key in keys
            if value_at(preset_config(name), f"{section}.{key}")
            != value_at(preset_config(name, full=True), f"{section}.{key}")
        }
        desk = {f"{section}.{key}" for section, key in KEYS if _SCHEMA[section][key].source == "desk"}
        assert desk == changed == {
            "link.length_km", "link.eta_bob", "source.mean_photons",
            "controller.sample_fraction", "controller.batch_pulses",
        }

    def test_constants_rows_are_tagged(self):
        for row, (value, source, note) in CONSTANTS.items():
            assert source in SOURCES, row
            assert isinstance(note, str) and note.strip(), row


class TestPresetValuesAreTagged:
    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_value_a_preset_sets_has_a_row(self, name, full):
        for path, value in preset_values(name, full).items():
            rows = [CONSTANTS[where, path][0] for where in scopes(name, full)
                    if (where, path) in CONSTANTS]
            assert rows == [value], f"{name} (full={full}) sets {path} = {value!r}"

    def test_every_preset_row_sets_a_value(self):
        used = set()
        for name in PRESET_NAMES:
            for full in (False, True):
                values = preset_values(name, full)
                used |= {(where, path) for where in scopes(name, full) for path in values}
        rows = {row for row in CONSTANTS if row[0] not in NOT_PRESETS}
        assert rows <= used

    def test_printed_defaults_are_the_desk_drift24h_preset(self):
        assert preset_config("drift24h") == ScenarioConfig()

    def test_each_section_defaults_to_its_bare_class(self):
        cfg = ScenarioConfig()
        assert cfg.source == SourceParams()
        assert cfg.link == LinkBudget()
        sections = [f.default for f in fields(ScenarioConfig) if is_dataclass(f.default)]
        assert len(sections) == len(_SCHEMA) - 1
        for default in sections:
            assert default == type(default)()


class TestPrintedDefaults:
    def test_each_key_has_its_tag_above_it(self):
        lines = defaults_to_ini().splitlines()
        section = None
        for above, line in zip([""] + lines, lines):
            if line.startswith("["):
                section = line[1:-1]
            elif line and not line.startswith("#"):
                tag = _SCHEMA[section][line.split(" = ")[0]]
                assert above == f"# {tag.source}: {tag.note}"

    def test_without_comments_it_is_the_default_config(self):
        text = "".join(line for line in defaults_to_ini().splitlines(keepends=True)
                       if not line.startswith("#"))
        assert text == config_to_ini(ScenarioConfig())
        assert parse_config(defaults_to_ini()) == ScenarioConfig()

    def test_readme_table_is_the_printed_defaults_and_the_constants(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert f"```ini\n{defaults_to_ini()}```\n" in readme, defaults_to_ini()
        assert constants_markdown() in readme, constants_markdown()
