"""Error-rate estimator statistics for finite revealed samples.

A state reaching the receiver's polarizing beam splitter can be written as

    sin(theta) |V>  +  cos(theta) e^{i phi} |H>

so the wrong-port fraction is A1 = sin^2(theta), the right-port fraction
A2 = cos^2(theta), and the true error rate is q = sin^2(theta).  With mean
photon number ``mu`` and overall efficiency ``eta``, the two detectors click
with probabilities P_i = 1 - exp(-eta * mu * A_i), and the error rate
estimated from a revealed sample of B sifted events, M / (M + N), deviates
from q with standard deviation obtained by the ratio-estimator (delta-method)
expansion of Var(M / (M + N)).  The 3-sigma bound implemented here is

    delta = 3 * sqrt( P1 P2 (P1 + P2 - 2 P1 P2) / (B (P1 + P2)^3) )

which reduces to 3 * sqrt(q (1 - q) / B) when eta * mu is small.  The
retardation phi never enters the detector fractions and is ignored in all
probability computations.

``B`` is interpreted as the revealed sifted sample size (detection events),
not pulses sent; the binomial Monte Carlo oracle in the tests
(``monte_carlo_sigma`` in ``tests/conftest.py``) uses the same interpretation
and validates the closed form against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class EstimatorScenario:
    """Inputs of the estimator-error analysis."""

    theta: float  # polarization projection angle, radians
    mu: float  # mean photons per pulse
    eta: float  # overall transmission and detection efficiency
    sample_b: int  # revealed sifted sample size

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= math.pi / 2.0):
            raise ValueError("theta must be in [0, pi/2]")
        if not (0.0 < self.mu < math.inf):
            raise ValueError("mu must be positive and finite")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must be in (0, 1]")
        if self.sample_b < 1:
            raise ValueError("sample_b must be at least 1")


def scenario_for_qber(qber: float, mu: float, eta: float, sample_b: int) -> EstimatorScenario:
    """Scenario whose true error rate equals ``qber``."""
    if not (0.0 <= qber <= 1.0):
        raise ValueError("qber must be in [0, 1]")
    return EstimatorScenario(math.asin(math.sqrt(qber)), mu, eta, sample_b)


def detection_probs(scn: EstimatorScenario) -> tuple[float, float]:
    """Click probabilities (wrong port, right port) per analyzed pulse."""
    a1 = math.sin(scn.theta) ** 2
    a2 = math.cos(scn.theta) ** 2
    p1 = 1.0 - math.exp(-scn.eta * scn.mu * a1)
    p2 = 1.0 - math.exp(-scn.eta * scn.mu * a2)
    return p1, p2


def delta_qber(scn: EstimatorScenario) -> float:
    """3-sigma bound on the deviation of the estimated from the true error rate."""
    p1, p2 = detection_probs(scn)
    total = p1 + p2
    if total <= 0.0:
        raise ValueError("degenerate scenario: no detection probability")
    var_term = p1 * p2 * (total - 2.0 * p1 * p2) / total**3
    return 3.0 * math.sqrt(var_term / scn.sample_b)


def required_sample_size(target_delta: float, theta: float, mu: float, eta: float) -> int:
    """Smallest sample size B whose 3-sigma bound is at most ``target_delta``.

    Exact by the 1/sqrt(B) form of the bound; returns 1 when even a single
    event suffices.
    """
    if not (target_delta > 0.0):
        raise ValueError("target_delta must be positive")
    ref = EstimatorScenario(theta, mu, eta, 1)
    d1 = delta_qber(ref)  # bound at B = 1
    if d1 <= target_delta:
        return 1
    b = max(1, math.floor((d1 / target_delta) ** 2) - 2)
    while delta_qber(replace(ref, sample_b=b)) > target_delta:
        b += 1
    return b


def delta_table(
    qber_values: list[float] | tuple[float, ...],
    b_values: list[int] | tuple[int, ...],
    mu: float,
    eta: float,
) -> np.ndarray:
    """Matrix of 3-sigma bounds, rows indexed by B and columns by error rate."""
    if not qber_values or not b_values:
        raise ValueError("qber_values and b_values must be non-empty")
    out = np.empty((len(b_values), len(qber_values)))
    for i, b in enumerate(b_values):
        for j, q in enumerate(qber_values):
            out[i, j] = delta_qber(scenario_for_qber(q, mu, eta, b))
    return out
