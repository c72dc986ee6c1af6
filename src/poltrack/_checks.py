"""Construction checks of the config dataclasses: one path for code and INI text.

Each field of a ``Checked`` dataclass passes the check its declared type
implies (an int field takes no bool, a float field finite numbers only),
then the class's ``_RANGES``, ``(field, ok, text)`` triples.
"""

from __future__ import annotations

import sys
import typing
from dataclasses import fields

_TEXTS = {int: "must be an integer", bool: "must be true or false", str: "must be a string"}
_CHECKS: dict[type, tuple] = {}  # class -> ((field, type check), ...), built on first use


def _number(value) -> str | None:
    if type(value) is float or isinstance(value, (int, float)) and not isinstance(value, bool):
        return None if abs(value) <= sys.float_info.max else "must be finite"  # nan fails too
    return "must be a number"


def _type_check(tp):
    """Value -> failure text, or None if it passes, for a field's declared type."""
    if tp is float:
        return _number
    if typing.get_origin(tp) is tuple:
        item = _type_check(typing.get_args(tp)[0])
        return lambda v: (next(filter(None, map(item, v)), None) if isinstance(v, tuple)
                          else "must be a tuple")
    text = _TEXTS.get(tp) or f"must be a {tp.__name__}"
    if tp is int:  # exactly int: bool is an int subclass
        return lambda v: None if type(v) is int else text
    return lambda v: None if isinstance(v, tp) else text


def field_errors(obj) -> dict[str, str]:
    """Field -> text of the first check it fails, for each failing field of ``obj``."""
    cls = type(obj)  # getattr, not obj.__dict__: reading that slows every later attribute read
    if cls not in _CHECKS:
        hints = typing.get_type_hints(cls)
        _CHECKS[cls] = tuple((f.name, _type_check(hints[f.name])) for f in fields(cls))
    failed = {name: text for name, check in _CHECKS[cls] if (text := check(getattr(obj, name)))}
    for name, ok, text in getattr(cls, "_RANGES", ()):  # ok runs on well-typed values only
        if name not in failed and not ok(getattr(obj, name)):
            failed[name] = text
    return failed


class Checked:
    """Base of the config dataclasses: raises ValueError, one ``field: text`` line each."""

    def __post_init__(self) -> None:
        if failed := field_errors(self):
            raise ValueError("\n".join(f"{name}: {text}" for name, text in failed.items()))
