"""The paper's feedback signal in matrix form: the reference for ``feedback_error``.

The paper builds, per basis, the 2x2 row-normalized matrix of sent against
detected states from the revealed sifted bits,

    J = [[j1, j2], [j3, j4]],   j1 + j2 = j3 + j4 = 1,

and feeds back its squared distance from the identity.  Under row
normalization ||J - I||^2 collapses to 2 (j2^2 + j3^2).  The package computes
that E straight from the revealed counts; ``tests/test_feedback.py`` requires
``poltrack.feedback.feedback_error(tally, basis)`` to equal
``feedback_error(measurement_matrix(tally, basis))`` here bit for bit, and to
raise the same ``EmptyRowError``.
"""

from __future__ import annotations

from dataclasses import dataclass

from poltrack.photon_sim import DetectionTally, EmptyRowError

ROW_LABELS = {"Z": ("H", "V"), "X": ("D", "A")}


@dataclass(frozen=True)
class MeasurementMatrix:
    """Row-normalized sent-vs-detected frequencies of one basis."""

    j1: float
    j2: float
    j3: float
    j4: float

    def __post_init__(self) -> None:
        if abs(self.j1 + self.j2 - 1.0) > 1e-12 or abs(self.j3 + self.j4 - 1.0) > 1e-12:
            raise ValueError("measurement matrix rows must sum to 1")
        for j in (self.j1, self.j2, self.j3, self.j4):
            if not (-1e-12 <= j <= 1.0 + 1e-12):
                raise ValueError("matrix entries must be probabilities")


def measurement_matrix(tally: DetectionTally, basis: str) -> MeasurementMatrix:
    """Row-normalize one basis of a tally into a measurement matrix."""
    c00, c01, c10, c11 = tally.counts(basis)
    row0, row1 = c00 + c01, c10 + c11
    if row0 == 0:
        raise EmptyRowError(basis, ROW_LABELS[basis][0])
    if row1 == 0:
        raise EmptyRowError(basis, ROW_LABELS[basis][1])
    return MeasurementMatrix(c00 / row0, c01 / row0, c10 / row1, c11 / row1)


def feedback_error(mm: MeasurementMatrix) -> float:
    """Squared distance between the measurement matrix and the identity, 2 (j2^2 + j3^2)."""
    return 2.0 * (mm.j2 * mm.j2 + mm.j3 * mm.j3)
