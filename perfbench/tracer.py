"""Span tracing of poltrack's layers from outside the package.

``Tracer`` wraps every public function of the traced modules, and
``MonteCarloContext.evaluate``, under the name each module binds it to.
``from .poincare import apply_rotation`` binds a second name in ``optics``,
``photon_sim`` and ``feedback``, so patching only the defining module would
miss those calls.  Spans stay in memory until the run ends.  A span is
``[name, start_ns, end_ns, parent_index, cycle, note]``: ``cycle`` counts
``channel_step`` calls, which open each feedback cycle, and ``note`` holds
either a value taken from the call's result or the class of the exception
it raised.

``PulseCounter`` is the untraced runs' only hook: it sums pulses handed to
``simulate_batch`` and records no time.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

# Modules measured as layers.  Left out: ``stats`` is off every tracking path
# (``delta_table`` on the default grid takes well under a millisecond);
# ``timeseries`` row construction is counted in ``feedback`` self time; ``cli``
# only parses arguments and writes files around ``run_scenario``.
LAYERS = ("poincare", "optics", "photon_sim", "feedback", "harness")

_METHODS = (("feedback", "MonteCarloContext", "evaluate"),)

# Classes whose constructions are counted; each validates its norm.
_COUNTED = (("poincare", "StokesVector"), ("poincare", "Rotation"))

NAME, START, END, PARENT, CYCLE, NOTE = range(6)

# A value kept from a call's result, for ratios that spans alone do not give.
_NOTES = {
    "photon_sim.simulate_batch": lambda tally: (tally.pulses_sent, tally.sifted_total),
    "photon_sim.reveal_sample": lambda tally: tally.sifted_total,
    "feedback.control_cycle": lambda state: state.converged,
}


def _package_modules(package) -> list:
    prefix = package.__name__ + "."
    return [package] + [m for name, m in sys.modules.items() if name.startswith(prefix)]


class _Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, modules, original, value) -> None:
        """Point every module-level name bound to ``original`` at ``value``."""
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self.set(mod, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Records a span around each call into a traced layer while active.

    It may be entered again; spans and counts accumulate across entries.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.objects = 0
        self.cycle = 0
        self._stack: list[int] = []
        self._patcher = _Patcher()

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.cycle, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)
        opens_cycle = name == "optics.channel_step"

        def traced(*args, **kwargs):
            if opens_cycle:
                self.cycle += 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[NOTE] = type(exc)
                raise
            finally:
                self._close(span)
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced

    @contextmanager
    def phase(self, name: str):
        """A span around a step of the benchmark itself, such as output emission."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _count(self, init):
        def counted(obj):
            self.objects += 1
            init(obj)

        return counted

    def __enter__(self) -> "Tracer":
        modules = _package_modules(self.package)
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                self._patcher.rebind(modules, fn, self._wrap(f"{layer}.{attr}", fn))
        for layer, cls_name, method in _METHODS:
            cls = getattr(getattr(self.package, layer), cls_name)
            wrapped = self._wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method))
            self._patcher.set(cls, method, wrapped)
        for layer, cls_name in _COUNTED:
            cls = getattr(getattr(self.package, layer), cls_name)
            self._patcher.set(cls, "__post_init__", self._count(cls.__post_init__))
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()


class PulseCounter:
    """Sums ``n_pulses`` over every ``simulate_batch`` call while active."""

    def __init__(self, package):
        self.package = package
        self.pulses = 0
        self._patcher = _Patcher()

    def __enter__(self) -> "PulseCounter":
        original = self.package.photon_sim.simulate_batch

        def counted(n_pulses, *args, **kwargs):
            self.pulses += n_pulses
            return original(n_pulses, *args, **kwargs)

        self._patcher.rebind(_package_modules(self.package), original, counted)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()
