"""Run statistics the numpy way: the reference for ``harness.summarize``.

This is ``summarize`` as the package computed it before it walked the rows
once: the finite estimates masked out of a numpy array, then ``np.mean``,
``np.std`` and ``np.max`` of them, and the flag counts from columns.
``tests/test_harness.py`` requires ``poltrack.harness.summarize`` to equal
it field by field, float bits included, on seeded series of lengths that sit
on the block edges of numpy's pairwise sum.
"""

from __future__ import annotations

import math

import numpy as np

from poltrack.harness import Summary
from poltrack.timeseries import TimeSeries


def summarize(series: TimeSeries) -> Summary:
    """Mean, population standard deviation, and flag counts of a series."""
    if len(series) == 0:
        raise ValueError("cannot summarize an empty series")
    q = np.array(series.column("qber_est"))
    q = q[np.isfinite(q)]  # skip data-starved cycles, and count them; NaN stats if all starved
    return Summary(
        cycles=len(series),
        mean_qber=float(np.mean(q)) if q.size else math.nan,
        std_qber=float(np.std(q)) if q.size else math.nan,
        max_qber=float(np.max(q)) if q.size else math.nan,
        recenter_events=int(sum(series.column("recenter"))),
        nonconverged_cycles=sum(1 for c in series.column("converged") if not c),
        starved_cycles=len(series) - q.size,
    )
