"""Scenario configuration, experiment presets, CSV emission, and summaries.

A scenario is described by a flat INI-style config file (``key = value`` under
named sections); every key has an embedded default and the fully resolved
config is written next to each run's outputs, so a run is reproducible from
its output directory alone.  Runs are pure functions of their config: the
same seed gives byte-identical CSV output.

Output layout per run: ``series.csv``, ``summary.txt``, ``config.resolved``.
"""

from __future__ import annotations

import configparser
import io
import math
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from .feedback import ControllerConfig, ControllerState, World, track
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

SCENARIO_KINDS = ("static", "drift", "scramble", "sample-size-table")

CSV_HEADER = "cycle,t_seconds,qber_est,e_z,e_x,v1,v2,v3,v4,v5,v6,v7,v8,recenter,converged"


class ConfigError(ValueError):
    """Invalid scenario configuration; messages carry section.key context."""


@dataclass(frozen=True)
class EpcParams:
    """Construction parameters of one EPC (both arms use the same)."""

    gain: float = DEFAULT_GAIN
    gain_jitter: float = DEFAULT_GAIN_JITTER
    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX
    axis_drift_sigma: float = DEFAULT_AXIS_DRIFT_SIGMA
    max_axis_wander: float = DEFAULT_MAX_AXIS_WANDER


@dataclass(frozen=True)
class ChannelParams:
    """Flat bag of channel-model parameters; ``model`` picks which apply."""

    model: str = "random_walk"  # static | random_walk | scrambler
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    angle_deg: float = 30.0  # static model
    step_sigma: float = 0.012  # random walk, rad per cycle
    axis_resample_period: int = 1  # random walk
    rate_deg_per_cycle: float = 0.2  # scrambler


@dataclass(frozen=True)
class TableParams:
    """Grid of the estimator-error table."""

    mu: float = 0.1
    eta: float = 0.1
    qber_values: tuple[float, ...] = (0.01, 0.02, 0.03)
    b_values: tuple[int, ...] = (250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000)


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str = "drift"
    duration: int = 7200
    fc_seconds: float = 12.0
    seed: int = 12345
    control_enabled: bool = True
    link: LinkBudget = field(default_factory=lambda: LinkBudget(0.2, 0.0, 1.0))
    source: SourceParams = field(default_factory=lambda: SourceParams(mu=0.5))
    epc: EpcParams = field(default_factory=EpcParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    controller_z: ControllerConfig = field(default_factory=ControllerConfig)
    controller_x: ControllerConfig = field(default_factory=ControllerConfig)
    table: TableParams = field(default_factory=TableParams)


@dataclass(frozen=True)
class Summary:
    """Run-level statistics of a time series."""

    cycles: int
    mean_qber: float
    std_qber: float
    max_qber: float
    recenter_events: int
    nonconverged_cycles: int


# ---------------------------------------------------------------------------
# config file parsing and emission

_CONTROLLER_KEYS = {
    "dither_volts": "dither",
    "tau": "tau",
    "e_threshold": "e_threshold",
    "sample_fraction": "sample_fraction",
    "max_cycles_per_correction": "max_cycles_per_correction",
    "batch_pulses": "batch_pulses",
}

# INI section -> (ScenarioConfig attribute, {INI key: dataclass field}); the
# attribute None stands for ScenarioConfig's own fields.  Sections and keys
# are emitted in this order.
_SCHEMA = {
    "scenario": (None, {
        "kind": "kind",
        "duration": "duration",
        "fc_seconds": "fc_seconds",
        "seed": "seed",
        "control_enabled": "control_enabled",
    }),
    "link": ("link", {"alpha_db_per_km": "alpha", "length_km": "length", "eta_bob": "eta_bob"}),
    "source": ("source", {
        "mean_photons": "mu",
        "dark_count_prob": "dark_count_prob",
        "misalignment_floor": "misalignment_floor",
    }),
    "epc": ("epc", {
        "gain_rad_per_volt": "gain",
        "gain_jitter": "gain_jitter",
        "v_min": "v_min",
        "v_max": "v_max",
        "axis_drift_sigma_rad": "axis_drift_sigma",
        "max_axis_wander_rad": "max_axis_wander",
    }),
    "channel": ("channel", {
        "model": "model",
        "axis": "axis",
        "angle_deg": "angle_deg",
        "step_sigma_rad": "step_sigma",
        "axis_resample_period": "axis_resample_period",
        "rate_deg_per_cycle": "rate_deg_per_cycle",
    }),
    "controller_z": ("controller_z", _CONTROLLER_KEYS),
    "controller_x": ("controller_x", _CONTROLLER_KEYS),
    "table": ("table", {
        "mu": "mu",
        "eta": "eta",
        "qber_values": "qber_values",
        "b_values": "b_values",
    }),
}

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_VALUES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


_PARSERS = {bool: _parse_bool, float: _parse_float}


def _converter(tp):
    """Text-to-value conversion for a field's declared type."""
    if typing.get_origin(tp) is tuple:
        item = _converter(typing.get_args(tp)[0])
        return lambda text: tuple(item(x) for x in text.split(","))
    return _PARSERS.get(tp, tp)  # str and int convert as themselves


_SCENARIO_TYPES = typing.get_type_hints(ScenarioConfig)


def _resolve(attr, keys: dict[str, str]) -> dict[str, tuple]:
    hints = _SCENARIO_TYPES if attr is None else typing.get_type_hints(_SCENARIO_TYPES[attr])
    return {key: (name, _converter(hints[name])) for key, name in keys.items()}


# INI section -> {INI key: (dataclass field, converter)}, resolved once.
_FIELDS = {section: _resolve(attr, keys) for section, (attr, keys) in _SCHEMA.items()}
_FIELDS["controller"] = _FIELDS["controller_z"]  # parse-only: sets both arms

# Message labels: attribute path -> "section.key"; other paths print as they are.
_LABELS = {
    f"{attr}.{name}" if attr else name: f"{section}.{key}"
    for section, (attr, keys) in _SCHEMA.items()
    for key, name in keys.items()
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def config_to_ini(cfg: ScenarioConfig) -> str:
    """Canonical INI rendering; section and key order is fixed."""
    blocks = []
    for section, (attr, keys) in _SCHEMA.items():
        obj = cfg if attr is None else getattr(cfg, attr)
        lines = [f"{key} = {_fmt(getattr(obj, name))}" for key, name in keys.items()]
        blocks.append("\n".join([f"[{section}]", *lines]))
    return "\n\n".join(blocks) + "\n"


def parse_config(text: str, defaults: ScenarioConfig | None = None) -> ScenarioConfig:
    """Parse an INI config, overlaying the given (or built-in) defaults.

    Raises ConfigError with one line per offending field.
    """
    base = defaults if defaults is not None else ScenarioConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    errors = [f"{name}: unknown section" for name in parser.sections() if name not in _FIELDS]

    def read(section: str) -> dict:
        """Typed values of the keys one section sets; bad keys go to errors."""
        values = {}
        for key, value in (parser[section] if parser.has_section(section) else {}).items():
            if key not in _FIELDS[section]:
                errors.append(f"{section}.{key}: unknown key")
                continue
            name, conv = _FIELDS[section][key]
            try:
                values[name] = conv(value)
            except (ValueError, TypeError) as exc:
                errors.append(f"{section}.{key}: {exc}")
        return values

    # [controller] sets both arms; [controller_z] / [controller_x] override it.
    shared = read("controller")
    changes = {}
    for section, (attr, keys) in _SCHEMA.items():
        values = read(section)
        if attr is None:
            changes.update(values)
            continue
        if keys is _CONTROLLER_KEYS:
            values = {**shared, **values}
        try:
            changes[attr] = replace(getattr(base, attr), **values)
        except ValueError as exc:
            errors.append(f"{section}: {exc}")

    if errors:
        raise ConfigError("\n".join(errors))
    cfg = replace(base, **changes)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ScenarioConfig, labels: dict[str, str] | None = None) -> None:
    """Cross-field checks with field-level messages.

    A message names its field by ``section.key``, or by ``labels[path]`` for
    an attribute path such as ``table.mu`` that ``labels`` maps.
    """
    labels = {**_LABELS, **(labels or {})}
    ch, epc, table = cfg.channel, cfg.epc, cfg.table
    checks = (
        ("kind", cfg.kind in SCENARIO_KINDS, f"must be one of {', '.join(SCENARIO_KINDS)}"),
        ("duration", cfg.kind == "sample-size-table" or cfg.duration >= 1, "must be at least 1"),
        ("fc_seconds", cfg.fc_seconds > 0.0, "must be positive"),
        ("channel.model", ch.model in ("static", "random_walk", "scrambler"),
         "must be static, random_walk, or scrambler"),
        ("channel.axis", len(ch.axis) == 3 and any(a != 0.0 for a in ch.axis),
         "need a non-zero 3-vector"),
        ("channel.step_sigma", ch.step_sigma >= 0.0, "must be non-negative"),
        ("channel.axis_resample_period", ch.axis_resample_period >= 1, "must be at least 1"),
        ("epc.gain_jitter", 0.0 <= epc.gain_jitter < 1.0, "must be in [0, 1)"),
        ("epc.gain", epc.gain > 0.0, "must be positive"),
        ("epc.v_min/v_max", epc.v_min < epc.v_max, "empty voltage range"),
        ("epc.axis_drift_sigma", not epc.axis_drift_sigma < 0.0, "must be non-negative"),
        ("epc.max_axis_wander", epc.max_axis_wander >= 0.0, "must be non-negative"),
        ("table.mu", table.mu > 0.0, "must be positive"),
        ("table.eta", 0.0 < table.eta <= 1.0, "must be in (0, 1]"),
        ("table.qber_values", all(0.0 <= q <= 1.0 for q in table.qber_values),
         "every entry must be in [0, 1]"),
        ("table.b_values", all(b >= 1 for b in table.b_values), "every entry must be at least 1"),
    )
    errors = [f"{labels.get(path, path)}: {message}" for path, ok, message in checks if not ok]
    if errors:
        raise ConfigError("\n".join(errors))


# ---------------------------------------------------------------------------
# presets

PRESET_NAMES = ("static", "drift24h", "scramble02", "scramble04", "scramble06", "table")

# Hardware-scale settings: 50 km of fiber at 0.2 dB/km into 10% detectors,
# 0.1 photons per pulse, and one full 12 s pulse train per evaluation with
# 10% of the sifted bits revealed.  Desk-scale presets compress the batch.
_FULL_LINK = LinkBudget(0.2, 50.0, 0.1)
_FULL_SOURCE = SourceParams(mu=0.1)
_FULL_CONTROLLER = ControllerConfig(sample_fraction=0.1, batch_pulses=30_000_000)


def preset_config(name: str, *, full: bool = False) -> ScenarioConfig:
    """Named experiment presets reproducing the reference scenarios at desk scale."""
    base = ScenarioConfig()
    if full:
        base = replace(
            base,
            link=_FULL_LINK,
            source=_FULL_SOURCE,
            controller_z=_FULL_CONTROLLER,
            controller_x=_FULL_CONTROLLER,
        )
    if name == "static":
        return replace(
            base,
            kind="static",
            duration=300,
            channel=ChannelParams(model="static", axis=(0.0, 1.0, 0.0), angle_deg=30.0),
        )
    if name == "drift24h":
        return replace(
            base,
            kind="drift",
            duration=7200,
            channel=ChannelParams(model="random_walk", step_sigma=0.012, axis_resample_period=1),
        )
    if name.startswith("scramble") and name in PRESET_NAMES:
        rate = {"scramble02": 0.2, "scramble04": 0.4, "scramble06": 0.6}[name]
        # scrambling keeps the controller busy nearly every cycle; a sweep cap
        # bounds each correction, and desk runs also take a smaller batch
        ctrl = replace(base.controller_z, max_cycles_per_correction=3)
        if not full:
            ctrl = replace(ctrl, batch_pulses=15_000)
        return replace(
            base,
            kind="scramble",
            duration=3000,
            channel=ChannelParams(model="scrambler", axis=(0.0, 0.0, 1.0), rate_deg_per_cycle=rate),
            controller_z=ctrl,
            controller_x=ctrl,
        )
    if name == "table":
        return replace(base, kind="sample-size-table")
    raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")


# ---------------------------------------------------------------------------
# running

def build_channel(cfg: ScenarioConfig):
    axis = StokesVector.unit(*cfg.channel.axis)
    if cfg.channel.model == "static":
        return StaticChannel(rotation_from_axis_angle(axis, math.radians(cfg.channel.angle_deg)))
    if cfg.channel.model == "scrambler":
        return ScramblerChannel(axis=axis, rate=cfg.channel.rate_deg_per_cycle)
    return RandomWalkChannel(
        step_sigma=cfg.channel.step_sigma,
        axis_resample_period=cfg.channel.axis_resample_period,
    )


def run_scenario(cfg: ScenarioConfig) -> tuple[TimeSeries, Summary]:
    """Execute a simulation scenario; pure function of the config."""
    validate_config(cfg)
    if cfg.kind == "sample-size-table":
        raise ConfigError(
            "scenario.kind: sample-size-table emits a table, not a time series; "
            "use the table command"
        )
    ss = np.random.SeedSequence(cfg.seed)
    ss_epc_z, ss_epc_x, ss_track = ss.spawn(3)

    def make_epc(child: np.random.SeedSequence):
        return default_epc(
            np.random.Generator(np.random.Philox(child)),
            gain=cfg.epc.gain,
            gain_jitter=cfg.epc.gain_jitter,
            v_min=cfg.epc.v_min,
            v_max=cfg.epc.v_max,
        )

    world = World(
        channel=build_channel(cfg),
        source=cfg.source,
        eta=transmittance(cfg.link),
        axis_drift_sigma=cfg.epc.axis_drift_sigma,
        max_axis_wander=cfg.epc.max_axis_wander,
    )
    series = track(
        ControllerState(epc=make_epc(ss_epc_z)),
        ControllerState(epc=make_epc(ss_epc_x)),
        cfg.controller_z,
        cfg.controller_x,
        world,
        cfg.duration,
        fc_seconds=cfg.fc_seconds,
        control_enabled=cfg.control_enabled,
        seed=ss_track,
    )
    return series, summarize(series)


def summarize(series: TimeSeries) -> Summary:
    """Mean, population standard deviation, and flag counts of a series."""
    if len(series) == 0:
        raise ValueError("cannot summarize an empty series")
    q = np.array(series.column("qber_est"))
    q = q[np.isfinite(q)]  # skip data-starved cycles; NaN stats if all starved
    return Summary(
        cycles=len(series),
        mean_qber=float(np.mean(q)) if q.size else math.nan,
        std_qber=float(np.std(q)) if q.size else math.nan,
        max_qber=float(np.max(q)) if q.size else math.nan,
        recenter_events=int(sum(series.column("recenter"))),
        nonconverged_cycles=sum(1 for c in series.column("converged") if not c),
    )


def summary_to_text(summary: Summary) -> str:
    return (
        f"cycles = {summary.cycles}\n"
        f"mean_qber = {summary.mean_qber:.9g}\n"
        f"std_qber = {summary.std_qber:.9g}\n"
        f"max_qber = {summary.max_qber:.9g}\n"
        f"recenter_events = {summary.recenter_events}\n"
        f"nonconverged_cycles = {summary.nonconverged_cycles}\n"
    )


# ---------------------------------------------------------------------------
# CSV emission

def series_to_csv(series: TimeSeries) -> str:
    """Render a series with the fixed header and 9-significant-digit floats."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in series:
        fields = [
            str(r.cycle),
            f"{r.t_seconds:.9g}",
            f"{r.qber_est:.9g}",
            f"{r.e_z:.9g}",
            f"{r.e_x:.9g}",
            *(f"{v:.9g}" for v in r.voltages),
            str(r.recenter),
            "1" if r.converged else "0",
        ]
        out.write(",".join(fields) + "\n")
    return out.getvalue()


def series_from_csv(text: str) -> TimeSeries:
    """Parse a series CSV; emit(parse(text)) reproduces the text byte for byte."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad or missing CSV header; expected {CSV_HEADER!r}")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 15:
            raise ValueError(f"line {n}: expected 15 fields, got {len(parts)}")
        rows.append(
            TimeSeriesRow(
                cycle=int(parts[0]),
                t_seconds=float(parts[1]),
                qber_est=float(parts[2]),
                e_z=float(parts[3]),
                e_x=float(parts[4]),
                voltages=tuple(float(p) for p in parts[5:13]),
                recenter=int(parts[13]),
                converged=parts[14] == "1",
            )
        )
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
