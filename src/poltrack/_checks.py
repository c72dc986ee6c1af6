"""Construction checks of the config dataclasses: one path for code and INI text.

Each field of a ``Checked`` dataclass passes the check its declared type
implies (an int field takes no bool, a float field finite numbers only),
then the class's ``_RANGES``, ``(field, ok, text)`` triples.  One recursion
over the declared type gives a field's check and its INI text converter;
``_field_table`` keeps both, with the ``tagged`` source and note that
declare the field's one default, in one table per class.
"""

from __future__ import annotations

import collections
import functools
import sys
import typing
from dataclasses import field, fields, is_dataclass

_TEXTS = {int: "must be an integer", bool: "must be true or false", str: "must be a string"}
_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# One field: its type check (value -> failure text, or None if it passes), its
# INI text converter (None for a section) and its ``tagged`` source and note.
_Field = collections.namedtuple("_Field", "check convert source note")


class _FieldErrors(ValueError):
    """A config dataclass's failed checks, one ``field: text`` line each, and as ``failed``."""

    def __init__(self, failed: dict[str, str]):
        super().__init__("\n".join(f"{name}: {text}" for name, text in failed.items()))
        self.failed = failed


def _number(value) -> str | None:
    if type(value) is float or isinstance(value, (int, float)) and not isinstance(value, bool):
        return None if abs(value) <= sys.float_info.max else "must be finite"  # nan fails too
    return "must be a number"


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_VALUES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _derive(tp) -> tuple[typing.Callable, typing.Callable | None]:
    """The type check and the INI text converter of a field's declared type."""
    if typing.get_origin(tp) is tuple:
        check, convert = _derive(typing.get_args(tp)[0])
        return (lambda v: next(filter(None, map(check, v)), None) if isinstance(v, tuple)
                else "must be a tuple",
                lambda text: tuple(convert(x) for x in text.split(",")))
    if tp is float:
        return _number, float
    text = _TEXTS.get(tp) or f"must be a {tp.__name__}"
    if tp is int:  # exactly int: bool is an int subclass
        return (lambda v: None if type(v) is int else text), int
    convert = None if is_dataclass(tp) else _parse_bool if tp is bool else tp  # str converts as str
    return (lambda v: None if isinstance(v, tp) else text), convert


@functools.cache  # one table per class, built on first use
def _field_table(cls) -> dict[str, _Field]:
    """Field name -> ``_Field`` of each field of ``cls``, in declaration order."""
    hints = typing.get_type_hints(cls)
    return {f.name: _Field(*_derive(hints[f.name]), f.metadata.get("source"),
                           f.metadata.get("note")) for f in fields(cls)}


def field_errors(obj) -> dict[str, str]:
    """Field -> text of the first check it fails, for each failing field of ``obj``."""
    cls = type(obj)  # getattr, not obj.__dict__: reading that slows every later attribute read
    failed = {name: text for name, f in _field_table(cls).items()
              if (text := f.check(getattr(obj, name)))}
    for name, ok, text in getattr(cls, "_RANGES", ()):  # ok runs on well-typed values only
        if name not in failed and not ok(getattr(obj, name)):
            failed[name] = text
    return failed


class Checked:
    """Base of the config dataclasses: raises ``_FieldErrors`` when a field fails."""

    def __post_init__(self) -> None:
        if failed := field_errors(self):
            raise _FieldErrors(failed)


def tagged(default, source: str, note: str):
    """A dataclass field with its default and where that value comes from.

    ``source`` is ``paper`` (``note`` quotes PAPER.md verbatim),
    ``literature`` (it cites the source), ``assumed`` (it says why) or
    ``desk`` (a compression for speed, which ``--full`` undoes).
    """
    return field(default=default, metadata={"source": source, "note": note})
