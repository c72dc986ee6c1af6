"""Frozen-value semantics of the types that build themselves on the hot path.

``Rotation``, ``StokesVector``, ``DetectionTally`` and ``TimeSeriesRow``
write their own ``__init__``; each must still behave as the frozen dataclass
it is declared as.  ``EpcState``, ``ControlResult`` and the tests-side
``MeasurementMatrix`` reference are plain frozen dataclasses, held to the
same semantics.
"""

import dataclasses
import math

import pytest

from poltrack.feedback import ControlResult
from poltrack.optics import NOMINAL_AXES, EpcState, default_epc
from poltrack.photon_sim import _TALLY_FIELDS, DetectionTally
from poltrack.poincare import (
    Rotation,
    StokesVector,
    apply_rotation,
    compose,
    inverse,
    rotation_from_axis_angle,
)
from poltrack.timeseries import TimeSeriesRow

from matrix_oracle import MeasurementMatrix

HALF = math.sqrt(0.5)
EPC = default_epc()

# type -> (field values, a valid change, a change that fails validation, its message)
CASES = {
    Rotation: (dict(w=HALF, x=0.0, y=HALF, z=0.0), dict(x=HALF, y=0.0), dict(w=2.0), "unit norm"),
    StokesVector: (dict(s1=0.6, s2=0.0, s3=0.8), dict(s1=0.0, s2=0.6), dict(s3=0.0), "unit norm"),
    DetectionTally: (
        dict(n_hh=9, n_hv=1, n_vh=2, n_vv=8, n_dd=7, n_da=3, n_ad=0, n_aa=10, pulses_sent=400),
        dict(n_ad=1),
        dict(n_hh=-1),
        "n_hh must be non-negative",
    ),
    MeasurementMatrix: (
        dict(j1=0.75, j2=0.25, j3=0.5, j4=0.5), dict(j3=0.25, j4=0.75), dict(j2=0.5), "sum to 1"
    ),
    EpcState: (
        dict(gains=(0.04,) * 4, voltages=(75.0,) * 4, axes=NOMINAL_AXES, v_min=0.0, v_max=150.0),
        dict(voltages=(75.0, 80.0, 75.0, 75.0)),
        dict(voltages=(75.0, 75.0, 151.0, 75.0)),
        "outside",
    ),
    ControlResult: (dict(epc=EPC, recenters=3, converged=False), dict(recenters=4), None, None),
    TimeSeriesRow: (
        dict(
            cycle=3, t_seconds=36.0, qber_est=0.02, e_z=0.001, e_x=0.002,
            voltages=(75.0,) * 8, recenter=0, converged=True,
        ),
        dict(recenter=1),
        dict(voltages=(75.0,) * 7),
        "expected 8 voltages",
    ),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
class TestFrozenValue:
    def test_fields_are_frozen(self, cls):
        values = CASES[cls][0]
        obj = cls(**values)
        for name, value in values.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.extra = 1

    def test_eq_hash_repr_follow_the_values(self, cls):
        values, good, _, _ = CASES[cls]
        a, b = cls(**values), cls(*values.values())
        assert [f.name for f in dataclasses.fields(cls)] == list(values)
        assert all(getattr(a, name) is value for name, value in values.items())
        assert a == b and hash(a) == hash(b)
        body = ", ".join(f"{name}={value!r}" for name, value in values.items())
        assert repr(a) == f"{cls.__name__}({body})"
        changed = dataclasses.replace(a, **good)
        assert changed == cls(**{**values, **good}) and changed != a


VALIDATED = [cls for cls, case in CASES.items() if case[2] is not None]


@pytest.mark.parametrize("cls", VALIDATED, ids=lambda cls: cls.__name__)
def test_replace_revalidates(cls):
    values, _, bad, message = CASES[cls]
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(cls(**values), **bad)
    with pytest.raises(ValueError, match=message):
        cls(**{**values, **bad})


@pytest.mark.parametrize("name", _TALLY_FIELDS)
def test_tally_rejects_a_nan_count(name):
    # nan compares False both ways, so it must fail the check, not pass it,
    # whether it stands alone or among valid counts
    with pytest.raises(ValueError, match=f"{name} must be non-negative"):
        DetectionTally(**{name: math.nan})
    valid = CASES[DetectionTally][0]
    with pytest.raises(ValueError, match=f"{name} must be non-negative"):
        DetectionTally(**{**valid, name: math.nan})


@pytest.mark.parametrize("cls", [Rotation, StokesVector], ids=lambda cls: cls.__name__)
def test_class_level_post_init_patch_sees_every_construction(cls, monkeypatch):
    seen = []
    hook = cls.__post_init__

    def counted(obj):
        seen.append(obj)
        hook(obj)

    monkeypatch.setattr(cls, "__post_init__", counted)
    axis = StokesVector(0.0, 0.0, 1.0)
    rot = rotation_from_axis_angle(axis, 0.3)
    made = [
        axis,
        rot,
        Rotation(1.0, 0.0, 0.0, 0.0),
        compose(rot, rot),
        dataclasses.replace(rot, z=-rot.z),
        inverse(rot),
        StokesVector.unit(3.0, 4.0, 0.0),
        apply_rotation(rot, axis),
        -axis,
    ]
    want = [v for v in made if type(v) is cls]
    assert len(want) == (5 if cls is Rotation else 4)
    # the hook runs on the finished object, once per construction
    assert len(seen) == len(want)
    assert all(s is w for s, w in zip(seen, want))


# type -> the fields declared as tuples, checked by type; a list compares
# unequal to its tuple twin and cannot be hashed
TUPLE_FIELDS = {EpcState: ("gains", "voltages", "axes"), TimeSeriesRow: ("voltages",)}


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls, names in TUPLE_FIELDS.items() for name in names],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_tuple_fields_reject_a_list(cls, name):
    values = CASES[cls][0]
    with pytest.raises(TypeError, match=f"{name} must be a tuple"):
        cls(**{**values, name: list(values[name])})
    with pytest.raises(TypeError, match=f"{name} must be a tuple"):
        dataclasses.replace(cls(**values), **{name: list(values[name])})


def test_with_voltages_takes_any_sequence():
    driven = EPC.with_voltages([75.0, 80.0, 75.0, 75.0])
    assert driven.voltages == (75.0, 80.0, 75.0, 75.0)
    assert hash(driven) == hash(EPC.with_voltages((75.0, 80.0, 75.0, 75.0)))
