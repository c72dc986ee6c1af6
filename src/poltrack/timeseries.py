"""Per-cycle records emitted by tracking runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, init=False)
class TimeSeriesRow:
    """One feedback cycle: estimator outputs, drive voltages, event flags.

    ``voltages`` holds the four Z-arm squeezer voltages followed by the four
    X-arm ones.  ``recenter`` counts voltage-range resets during the cycle;
    ``converged`` is False when a triggered correction hit its sweep limit or
    the cycle's sample was too small to evaluate.  Every cycle builds one, so
    it is built like ``poincare``'s hot values: its own ``__init__`` checks
    the arguments and fills ``__dict__`` in one call.
    """

    cycle: int
    t_seconds: float
    qber_est: float
    e_z: float
    e_x: float
    voltages: tuple[float, ...]
    recenter: int
    converged: bool

    def __init__(
        self, cycle: int, t_seconds: float, qber_est: float, e_z: float, e_x: float,
        voltages: tuple[float, ...], recenter: int, converged: bool,
    ) -> None:
        if not isinstance(voltages, tuple):
            raise TypeError("voltages must be a tuple")
        if len(voltages) != 8:
            raise ValueError("expected 8 voltages (4 per basis arm)")
        self.__dict__.update(
            cycle=cycle, t_seconds=t_seconds, qber_est=qber_est, e_z=e_z, e_x=e_x,
            voltages=voltages, recenter=recenter, converged=converged,
        )


@dataclass(frozen=True)
class TimeSeries:
    """Ordered per-cycle rows of one tracking run."""

    rows: tuple[TimeSeriesRow, ...]

    def __post_init__(self) -> None:
        cycles = [r.cycle for r in self.rows]
        if any(b <= a for a, b in zip(cycles, cycles[1:])):
            raise ValueError("cycle indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[TimeSeriesRow]:
        return iter(self.rows)

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.rows]
