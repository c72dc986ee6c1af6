"""A walk over every config key and every series CSV field with edge values.

Each key of each section takes each of nan, inf, -inf, 0, -1, a huge value
and a value of the wrong type.  A config built in code and the same config
parsed from INI text must agree: both rejected or both accepted.  Every
accepted config must run 3 cycles of each kind it can hold and give finite
or starved output.  The series CSV parser gets the same values in each
field, and every row it accepts must summarize to finite or starved output.
"""

import math
import typing
from dataclasses import replace

import pytest

from poltrack.harness import (
    _CHANNEL_KEYS,
    _SCHEMA,
    SCENARIO_KINDS,
    ScenarioConfig,
    parse_config,
    run_scenario,
    series_from_csv,
    series_to_csv,
    summarize,
)
from poltrack.timeseries import TimeSeries, TimeSeriesRow

NAN, INF = math.nan, math.inf
HUGE_INT = 10**30

# Field type -> (label, value given to the constructor, INI text).  The
# wrong-type case differs by path: the constructor gets a value of another
# Python type, the INI text is text that does not parse ("no" is a valid
# boolean in INI, so the bool field gets "maybe").
WALK = {
    float: [
        ("nan", NAN, "nan"), ("inf", INF, "inf"), ("-inf", -INF, "-inf"), ("0", 0.0, "0"),
        ("-1", -1.0, "-1"), ("huge", 1e300, "1e300"), ("wrong type", "no", "no"),
    ],
    int: [
        ("nan", NAN, "nan"), ("inf", INF, "inf"), ("-inf", -INF, "-inf"), ("0", 0, "0"),
        ("-1", -1, "-1"), ("huge", HUGE_INT, str(HUGE_INT)), ("wrong type", 2.5, "2.5"),
    ],
    bool: [
        ("nan", NAN, "nan"), ("inf", INF, "inf"), ("-inf", -INF, "-inf"), ("0", False, "0"),
        ("-1", -1, "-1"), ("huge", HUGE_INT, str(HUGE_INT)), ("wrong type", "no", "maybe"),
    ],
    # any text is a string, so the INI path's wrong type is text that names no kind
    str: [
        ("nan", NAN, "nan"), ("inf", INF, "inf"), ("-inf", -INF, "-inf"), ("0", 0, "0"),
        ("-1", -1, "-1"), ("huge", HUGE_INT, str(HUGE_INT)), ("wrong type", 2.5, "2.5"),
    ],
    tuple: [
        ("nan", (NAN,) * 3, "nan,nan,nan"), ("inf", (INF,) * 3, "inf,inf,inf"),
        ("-inf", (-INF,) * 3, "-inf,-inf,-inf"), ("0", (0.0,) * 3, "0,0,0"),
        ("-1", (-1.0,) * 3, "-1,-1,-1"), ("huge", (1e300,) * 3, "1e300,1e300,1e300"),
        ("wrong type", [0.0, 0.0, 1.0], "0,0,one"),
    ],
}


def _field_type(section: str, key: str):
    owner = ScenarioConfig if section == "scenario" else type(getattr(ScenarioConfig(), section))
    tp = typing.get_type_hints(owner)[key]
    return tuple if typing.get_origin(tp) is tuple else tp


def _cases():
    for section, keys in _SCHEMA.items():
        for key in keys:
            # a [channel] key is walked under each kind that reads it, any other under every kind
            kinds = [k for k in SCENARIO_KINDS if section != "channel" or key in _CHANNEL_KEYS[k]]
            for label, value, text in WALK[_field_type(section, key)]:
                for kind in kinds:
                    yield section, key, kind, label, value, text


CASES = list(_cases())


def _built(section, key, kind, value):
    """The config built in code, or None if a constructor rejects it."""
    cfg = ScenarioConfig(kind=kind, duration=3)
    try:
        if section == "scenario":
            return replace(cfg, **{key: value})
        return replace(cfg, **{section: replace(getattr(cfg, section), **{key: value})})
    except ValueError:
        return None


def _parsed(section, key, kind, text):
    """The config parsed from INI text, or None if ``parse_config`` rejects it."""
    values = {"scenario": {"kind": kind, "duration": "3"}}
    values.setdefault(section, {})[key] = text
    ini = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in values.items()
    )
    try:
        return parse_config(ini)
    except ValueError:
        return None


def _assert_finite_or_starved(series: TimeSeries):
    summary = summarize(series)
    for row in series:
        assert all(map(math.isfinite, (row.t_seconds, *row.voltages)))
        assert 0.0 <= row.qber_est <= 1.0 or math.isnan(row.qber_est)
    starved = sum(1 for q in series.column("qber_est") if math.isnan(q))
    assert summary.starved_cycles == starved
    assert math.isfinite(summary.mean_qber) or starved == summary.cycles


def test_walk_covers_every_key_and_value():
    keys = {(section, key) for section, keys in _SCHEMA.items() for key in keys}
    assert {(c[0], c[1]) for c in CASES} == keys
    assert {c[3] for c in CASES} == {"nan", "inf", "-inf", "0", "-1", "huge", "wrong type"}


@pytest.mark.parametrize("section", list(_SCHEMA))
def test_code_and_ini_agree_and_accepted_configs_run(section):
    disagree, accepted = [], 0
    for _, key, kind, label, value, text in (c for c in CASES if c[0] == section):
        built, parsed = _built(section, key, kind, value), _parsed(section, key, kind, text)
        if (built is None) != (parsed is None):
            disagree.append(f"{section}.{key} = {label} under {kind}: "
                            f"code {'rejects' if built is None else 'accepts'}, "
                            f"INI {'rejects' if parsed is None else 'accepts'}")
            continue
        if built is None:
            continue
        assert built == parsed
        accepted += 1
        series, _ = run_scenario(replace(built, duration=3))  # a huge duration too runs 3
        assert len(series) == 3
        _assert_finite_or_starved(series)
    assert disagree == []
    assert accepted > 0


def _row_line(cycle: int) -> str:
    row = TimeSeriesRow(cycle, 12.0 * cycle, 0.02, 0.001, 0.002, (75.0,) * 8, 0, True)
    return series_to_csv(TimeSeries((row,))).splitlines()[1]


CSV_TEXTS = {
    "nan": "nan", "inf": "inf", "-inf": "-inf", "0": "0", "-1": "-1", "huge": "1e+300",
    "wrong type": "no",
}


@pytest.mark.parametrize("field", range(15))
def test_series_rows_parse_to_finite_or_starved_summaries(field):
    header, first, second = series_to_csv(TimeSeries(())).rstrip("\n"), _row_line(1), _row_line(2)
    for label, text in CSV_TEXTS.items():
        parts = second.split(",")
        parts[field] = text
        try:
            series = series_from_csv("\n".join([header, first, ",".join(parts)]) + "\n")
        except ValueError as err:
            assert str(err).startswith("line 3: ")
            continue
        row = series.rows[1]
        assert 0.0 <= row.e_z <= 4.0 or math.isnan(row.e_z)
        assert 0.0 <= row.e_x <= 4.0 or math.isnan(row.e_x)
        assert row.recenter >= 0
        _assert_finite_or_starved(series)
