"""Scenario configuration, experiment presets, CSV emission, and summaries.

A scenario is described by a flat INI-style config file (``key = value`` under
named sections); every key has an embedded default and the fully resolved
config is written next to each run's outputs, so a run is reproducible from
its output directory alone.  Runs are pure functions of their config: the
same seed gives byte-identical CSV output.

The config dataclasses are the file format: ``ScenarioConfig``'s scalar
fields are the ``[scenario]`` keys, each of its dataclass-typed fields is a
section of the same name, and every field name is its INI key.  Each one
checks its fields when built, in code or by the parser, which only converts
text; parsing, emission and those checks' messages all use the INI names.

Output layout per run: ``series.csv``, ``summary.txt``, ``config.resolved``.
"""

from __future__ import annotations

import configparser
import math
import typing
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from ._checks import Checked, field_errors
from .feedback import ControllerConfig, World, track
from .optics import (
    DEFAULT_AXIS_DRIFT_SIGMA,
    DEFAULT_GAIN,
    DEFAULT_GAIN_JITTER,
    DEFAULT_MAX_AXIS_WANDER,
    DEFAULT_V_MAX,
    DEFAULT_V_MIN,
    LinkBudget,
    RandomWalkChannel,
    ScramblerChannel,
    StaticChannel,
    default_epc,
    transmittance,
)
from .photon_sim import SourceParams
from .poincare import StokesVector, rotation_from_axis_angle
from .stats import delta_table
from .timeseries import TimeSeries, TimeSeriesRow

# Scenario kind -> the [channel] keys its model reads; no other is parsed or written.
_CHANNEL_KEYS = {
    "static": ("axis", "angle_deg"),
    "drift": ("step_sigma_rad",),
    "scramble": ("axis", "rate_deg_per_cycle"),
}
SCENARIO_KINDS = tuple(_CHANNEL_KEYS)

CSV_HEADER = "cycle,t_seconds,qber_est,e_z,e_x,v1,v2,v3,v4,v5,v6,v7,v8,recenter,converged"


class ConfigError(ValueError):
    """Invalid scenario configuration; messages carry section.key context."""


@dataclass(frozen=True)
class EpcParams(Checked):
    """Construction parameters of one EPC (both arms use the same)."""

    gain_rad_per_volt: float = DEFAULT_GAIN
    gain_jitter: float = DEFAULT_GAIN_JITTER
    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX
    axis_drift_sigma_rad: float = DEFAULT_AXIS_DRIFT_SIGMA
    max_axis_wander_rad: float = DEFAULT_MAX_AXIS_WANDER

    # v_min/v_max is checked as a pair, in ScenarioConfig
    _RANGES = (
        ("gain_rad_per_volt", lambda v: v > 0.0, "must be positive"),
        ("gain_jitter", lambda v: 0.0 <= v < 1.0, "must be in [0, 1)"),
        ("axis_drift_sigma_rad", lambda v: v >= 0.0, "must be non-negative"),
        ("max_axis_wander_rad", lambda v: v >= 0.0, "must be non-negative"),
    )


@dataclass(frozen=True)
class ChannelParams(Checked):
    """Channel-model parameters; ``[scenario] kind`` picks which are read and range-checked."""

    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    angle_deg: float = 30.0
    step_sigma_rad: float = 0.012  # per cycle
    rate_deg_per_cycle: float = 0.2


@dataclass(frozen=True)
class ScenarioConfig(Checked):
    kind: str = "drift"
    duration: int = 7200
    seed: int = 12345
    control_enabled: bool = True
    link: LinkBudget = LinkBudget(0.2, 0.0, 1.0)  # sections are frozen: configs share defaults
    source: SourceParams = SourceParams(mean_photons=0.5)
    epc: EpcParams = EpcParams()
    channel: ChannelParams = ChannelParams()
    controller: ControllerConfig = ControllerConfig()

    _RANGES = (
        ("kind", lambda v: v in SCENARIO_KINDS, f"must be one of {', '.join(SCENARIO_KINDS)}"),
        ("duration", lambda v: v >= 1, "must be at least 1"),
        ("seed", lambda v: v >= 0, "must be non-negative"),
    )

    def __post_init__(self) -> None:
        failed = field_errors(self)
        errors = {f"scenario.{key}": text for key, text in failed.items()}
        if failed.keys().isdisjoint(_SCHEMA):  # every section is well typed: check across
            ch, epc = self.channel, self.epc
            read = () if "kind" in failed else _CHANNEL_KEYS[self.kind]
            checks = (
                ("channel.axis",  # squared and summed as StokesVector.unit does
                 "axis" not in read or 0.0 < math.sqrt(sum(a * a for a in ch.axis)) < math.inf,
                 "too large or too small to normalize"),
                ("channel.axis", "axis" not in read or (len(ch.axis) == 3 and any(ch.axis)),
                 "need a non-zero 3-vector"),
                ("channel.step_sigma_rad", "step_sigma_rad" not in read or ch.step_sigma_rad >= 0.0,
                 "must be non-negative"),
                ("link.length_km", transmittance(self.link) > 0.0,
                 "the transmittance underflows to 0 at this alpha_db_per_km"),
                ("epc.v_min/v_max", epc.v_min < epc.v_max, "empty voltage range"),
                ("epc.gain_rad_per_volt",  # the largest angle a drawn gain reaches in range
                 math.isfinite(epc.gain_rad_per_volt * (1.0 + epc.gain_jitter)
                               * max(abs(epc.v_min), abs(epc.v_max))),
                 "the rotation angle gain * (1 + gain_jitter) * max(|v_min|, |v_max|) overflows"),
                # the first probe of a squeezer at its range center goes up by dither
                ("controller.dither_volts",
                 0.5 * (epc.v_min + epc.v_max) + self.controller.dither_volts <= epc.v_max,
                 "must be at most half the epc voltage range"),
            )
            errors.update((path, text) for path, ok, text in checks if not ok)  # a later one wins
        if errors:
            raise ConfigError("\n".join(f"{path}: {text}" for path, text in errors.items()))


@dataclass(frozen=True)
class Summary:
    """Run-level statistics of a time series."""

    cycles: int
    mean_qber: float
    std_qber: float
    max_qber: float
    recenter_events: int
    nonconverged_cycles: int
    starved_cycles: int  # cycles with too few revealed bits for an estimate


# ---------------------------------------------------------------------------
# config file parsing and emission

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_VALUES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _converter(tp):
    """Text-to-value conversion for a field's declared type."""
    if typing.get_origin(tp) is tuple:
        item = _converter(typing.get_args(tp)[0])
        return lambda text: tuple(item(x) for x in text.split(","))
    return _parse_bool if tp is bool else tp  # str, int and float convert as themselves


def _schema() -> dict[str, dict]:
    """INI section -> {key: converter}, from ``ScenarioConfig``'s field tree.

    Sections and keys keep declaration order, which is the emission order.
    """
    schema = {"scenario": {}}
    for name, tp in typing.get_type_hints(ScenarioConfig).items():
        if is_dataclass(tp):
            schema[name] = {key: _converter(t) for key, t in typing.get_type_hints(tp).items()}
        else:
            schema["scenario"][name] = _converter(tp)
    return schema


_SCHEMA = _schema()


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def config_to_ini(cfg: ScenarioConfig) -> str:
    """Canonical INI rendering of the keys the run reads; key order is fixed."""
    blocks = []
    for section, keys in _SCHEMA.items():
        obj = cfg if section == "scenario" else getattr(cfg, section)
        if section == "channel":
            keys = _CHANNEL_KEYS[cfg.kind]
        lines = [f"{key} = {_fmt(getattr(obj, key))}" for key in keys]
        blocks.append("\n".join([f"[{section}]", *lines]))
    return "\n\n".join(blocks) + "\n"


def parse_config(text: str) -> ScenarioConfig:
    """Parse an INI config, overlaying the built-in defaults.

    Raises ConfigError with one line per offending field.
    """
    base = ScenarioConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    errors = [f"{name}: unknown section" for name in parser.sections() if name not in _SCHEMA]

    def read(section: str, kind: str) -> dict:
        """Typed values of the keys one section sets; bad keys go to errors."""
        values = {}
        for key, value in (parser[section] if parser.has_section(section) else {}).items():
            if key not in _SCHEMA[section]:
                errors.append(f"{section}.{key}: unknown key")
                continue
            if section == "channel" and kind in _CHANNEL_KEYS and key not in _CHANNEL_KEYS[kind]:
                errors.append(f"{section}.{key}: not read by kind = {kind}")
                continue
            try:
                values[key] = _SCHEMA[section][key](value)
            except (ValueError, TypeError) as exc:
                errors.append(f"{section}.{key}: {exc}")
        return values

    changes = {}
    for section in _SCHEMA:
        values = read(section, changes.get("kind", base.kind))  # [scenario] is read first
        if section == "scenario":
            changes.update(values)
            continue
        try:
            changes[section] = replace(getattr(base, section), **values)
        except ValueError as exc:  # a section's own checks, one "key: text" line each
            for line in str(exc).splitlines():  # each reads one key; the others still build
                errors.append(f"{section}.{line}")
                values.pop(line.split(":", 1)[0], None)
            changes[section] = replace(getattr(base, section), **values)

    try:
        cfg = replace(base, **changes)
    except ConfigError as exc:  # the [scenario] keys and the checks across sections
        errors.extend(str(exc).splitlines())
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


# ---------------------------------------------------------------------------
# presets

# Preset -> its scenario kind, duration and channel; the name order is the CLI's.
_PRESETS = {
    "static": ("static", 300, ChannelParams(axis=(0.0, 1.0, 0.0), angle_deg=30.0)),
    "drift24h": ("drift", 7200, ChannelParams(step_sigma_rad=0.012)),
    "scramble02": ("scramble", 3000, ChannelParams(axis=(0.0, 0.0, 1.0), rate_deg_per_cycle=0.2)),
    "scramble04": ("scramble", 3000, ChannelParams(axis=(0.0, 0.0, 1.0), rate_deg_per_cycle=0.4)),
    "scramble06": ("scramble", 3000, ChannelParams(axis=(0.0, 0.0, 1.0), rate_deg_per_cycle=0.6)),
}
PRESET_NAMES = tuple(_PRESETS)

# Hardware-scale settings: 50 km of fiber at 0.2 dB/km into 10% detectors,
# 0.1 photons per pulse, and one full 12 s pulse train per evaluation with
# 10% of the sifted bits revealed.  Desk-scale presets compress the batch.
_FULL_LINK = LinkBudget(0.2, 50.0, 0.1)
_FULL_SOURCE = SourceParams(mean_photons=0.1)
_FULL_CONTROLLER = ControllerConfig(sample_fraction=0.1, batch_pulses=30_000_000)


def preset_config(name: str, *, full: bool = False) -> ScenarioConfig:
    """Named experiment presets reproducing the reference scenarios at desk scale.

    Each call builds and checks one ``ScenarioConfig``, and a scrambler
    preset one ``ControllerConfig``.
    """
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    kind, duration, channel = _PRESETS[name]
    sections = {}
    if full:
        sections = dict(link=_FULL_LINK, source=_FULL_SOURCE, controller=_FULL_CONTROLLER)
    if kind == "scramble":
        # scrambling keeps the controller busy nearly every cycle; a sweep cap
        # bounds each correction, and desk runs also take a smaller batch
        sections["controller"] = (
            replace(_FULL_CONTROLLER, max_cycles_per_correction=3) if full
            else ControllerConfig(max_cycles_per_correction=3, batch_pulses=15_000)
        )
    return ScenarioConfig(kind=kind, duration=duration, channel=channel, **sections)


# ---------------------------------------------------------------------------
# running

def build_channel(cfg: ScenarioConfig):
    """The channel model that ``cfg.kind`` selects, built from ``cfg.channel``."""
    ch = cfg.channel
    if cfg.kind == "static":
        axis = StokesVector.unit(*ch.axis)
        return StaticChannel(rotation_from_axis_angle(axis, math.radians(ch.angle_deg)))
    if cfg.kind == "scramble":
        return ScramblerChannel(axis=StokesVector.unit(*ch.axis), rate=ch.rate_deg_per_cycle)
    return RandomWalkChannel(step_sigma=ch.step_sigma_rad)  # kind = drift


# Keys of ``run_scenario``'s seed streams: stream k is ``SeedSequence(seed).spawn``'s child k.
_EPC_Z, _EPC_X, _TRACK = range(3)


def run_scenario(cfg: ScenarioConfig) -> tuple[TimeSeries, Summary]:
    """Execute a simulation scenario; pure function of the config.

    Each EPC's gain stream is built only when ``cfg.epc.gain_jitter > 0``,
    the one case that draws from it, as ``track`` builds each controller's
    stream only at that basis's first correction.  Every stream keeps its
    key, so a stream left unbuilt moves no draw of the others and the output
    is the same either way.  ``track`` gets the seed and its key, not a
    ``SeedSequence`` of them, whose hashed pool nothing would read.
    """
    def make_epc(key: int):
        jitter = cfg.epc.gain_jitter
        rng = None
        if jitter > 0.0:
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(cfg.seed, spawn_key=(key,))))
        return default_epc(
            rng,
            gain=cfg.epc.gain_rad_per_volt,
            gain_jitter=jitter,
            v_min=cfg.epc.v_min,
            v_max=cfg.epc.v_max,
        )

    world = World(
        channel=build_channel(cfg),
        source=cfg.source,
        eta=transmittance(cfg.link),
        axis_drift_sigma=cfg.epc.axis_drift_sigma_rad,
        max_axis_wander=cfg.epc.max_axis_wander_rad,
    )
    series = track(
        make_epc(_EPC_Z),
        make_epc(_EPC_X),
        cfg.controller,
        world,
        cfg.duration,
        control_enabled=cfg.control_enabled,
        seed=cfg.seed,
        spawn_key=(_TRACK,),
    )
    return series, summarize(series)


def summarize(series: TimeSeries) -> Summary:
    """QBER statistics and flag counts of a series, in one pass over its rows.

    The statistics are numpy's population mean, population standard
    deviation and max over the finite estimates, computed with the
    reductions ``np.mean`` and ``np.std`` use (``np.add.reduce`` of the
    values, then of the squared deviations from their mean, each over n), so
    they equal those functions' results bit for bit.  Data-starved (NaN)
    cycles are skipped and counted; if every cycle starved the statistics
    are NaN.
    """
    if len(series) == 0:
        raise ValueError("cannot summarize an empty series")
    finite, recenters, nonconverged = [], 0, 0
    for r in series:
        if math.isfinite(r.qber_est):
            finite.append(r.qber_est)
        recenters += r.recenter
        nonconverged += not r.converged
    mean = std = peak = math.nan
    if n := len(finite):
        q = np.array(finite)
        mean = float(np.add.reduce(q) / n)
        d = q - mean
        std = math.sqrt(np.add.reduce(d * d) / n)
        peak = max(finite)
    return Summary(
        cycles=len(series),
        mean_qber=mean,
        std_qber=std,
        max_qber=peak,
        recenter_events=recenters,
        nonconverged_cycles=nonconverged,
        starved_cycles=len(series) - n,
    )


_SUMMARY_FIELDS = tuple(f.name for f in fields(Summary))


def summary_to_text(summary: Summary) -> str:
    """A ``name = value`` line per ``Summary`` field in order; floats to 9 significant digits."""
    return "".join(  # by value type: typing.get_type_hints re-evaluates annotations per call
        f"{name} = {v:.9g}\n" if isinstance(v := getattr(summary, name), float)
        else f"{name} = {v}\n"
        for name in _SUMMARY_FIELDS
    )


# ---------------------------------------------------------------------------
# CSV emission

# cycle, t_seconds, qber_est, e_z, e_x, eight voltages, recenter, converged
_ROW_FORMAT = ",".join(["%d"] + ["%.9g"] * 12 + ["%d", "%d"])


def _row_text(r: TimeSeriesRow) -> str:
    """One CSV line of a row, without its newline."""
    return _ROW_FORMAT % (
        r.cycle, r.t_seconds, r.qber_est, r.e_z, r.e_x, *r.voltages, r.recenter, bool(r.converged)
    )


def series_to_csv(series: TimeSeries) -> str:
    """Render a series with the fixed header and 9-significant-digit floats."""
    return "\n".join([CSV_HEADER, *map(_row_text, series)]) + "\n"


def series_from_csv(text: str) -> TimeSeries:
    """Parse a series CSV; emit(parse(text)) reproduces each row byte for byte.

    A row that would re-emit as different text, such as ``01`` for a cycle or
    ``0.0200`` for a float, is rejected.  So are a field that does not parse
    and values ``track`` never writes, which give no true summary: a negative
    ``recenter``, a ``converged`` not 0 or 1, a ``qber_est`` outside [0, 1],
    an ``e_z``/``e_x`` outside [0, 4] (each may be nan, a starved cycle) and
    a non-finite time or voltage.  Every message starts with the line number.
    """
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad or missing CSV header; expected {CSV_HEADER!r}")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        try:
            parts = line.split(",")
            if len(parts) != 15:
                raise ValueError(f"expected 15 fields, got {len(parts)}")
            recenter = int(parts[13])
            if recenter < 0:
                raise ValueError(f"recenter must be non-negative, got {recenter}")
            if parts[14] not in ("0", "1"):
                raise ValueError(f"converged must be 0 or 1, got {parts[14]!r}")
            row = TimeSeriesRow(
                cycle=int(parts[0]),
                t_seconds=float(parts[1]),
                qber_est=float(parts[2]),
                e_z=float(parts[3]),
                e_x=float(parts[4]),
                voltages=tuple(float(p) for p in parts[5:13]),
                recenter=recenter,
                converged=parts[14] == "1",
            )
            for name, top in (("qber_est", 1.0), ("e_z", 4.0), ("e_x", 4.0)):
                if not (0.0 <= (value := getattr(row, name)) <= top or math.isnan(value)):
                    raise ValueError(f"{name} must be in [0, {top:g}] or nan, got {value!r}")
            if not all(map(math.isfinite, (row.t_seconds, *row.voltages))):
                raise ValueError("t_seconds and the voltages must be finite")
            if rows and row.cycle <= rows[-1].cycle:
                raise ValueError(f"cycle must be above the previous row's {rows[-1].cycle}")
            emitted = _row_text(row)
            if emitted != line:
                raise ValueError(f"does not round-trip; it would be written as {emitted!r}")
        except ValueError as err:
            raise ValueError(f"line {n}: {err}") from None
        rows.append(row)
    return TimeSeries(tuple(rows))


# ---------------------------------------------------------------------------
# estimator-error table emission

def table_to_csv(qber_values, b_values, cells: np.ndarray) -> str:
    """Table CSV with a ``B,<qber>...`` header; full-precision floats."""
    lines = ["B," + ",".join(repr(float(q)) for q in qber_values)]
    for i, b in enumerate(b_values):
        lines.append(str(int(b)) + "," + ",".join(repr(float(x)) for x in cells[i]))
    return "\n".join(lines) + "\n"


def emit_sample_size_table(mu, eta, qber_values, b_values, output_path) -> np.ndarray:
    """Compute the estimator-error table and write it as CSV."""
    cells = delta_table(qber_values, b_values, mu, eta)
    with open(output_path, "w", encoding="utf-8") as fh:
        fh.write(table_to_csv(qber_values, b_values, cells))
    return cells
