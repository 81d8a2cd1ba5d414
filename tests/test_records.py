"""The package's value records: immutability, equality, hashing, repr, copy and pickle."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from orbheat.classify import ClassKind, CollisionPair, OrbifoldClass, PillowSeparation
from orbheat.flat import FitResult, TraceSamples
from orbheat.heat import HeatExpansion, MetricData
from orbheat.signature import OrbifoldSignature


def _sig():
    return OrbifoldSignature(0, 0, (5, 3, 2), ((3, 2), ()))


def _coefficients():
    return {
        Fraction(-1): 1.5,
        Fraction(-1, 2): 0.25,
        Fraction(0): Fraction(271, 360),
        Fraction(1, 2): 0.125,
        Fraction(1): Fraction(1, 7),
    }


_SIG_REPR = "OrbifoldSignature(handles=0, crosscaps=0, cone_points=(2, 3, 5), mirror_boundaries=((), (2, 3)))"

# (factory, a field name, the exact repr, hashable).  Each factory builds a
# new record with the same values on every call.
RECORDS = {
    "OrbifoldSignature": (_sig, "handles", _SIG_REPR, True),
    "MetricData": (
        lambda: MetricData(Fraction(1, 2), 3.0, mirror_length=0.5),
        "area",
        "MetricData(curvature=Fraction(1, 2), area=3.0, mirror_length=0.5)",
        True,
    ),
    "HeatExpansion": (
        lambda: HeatExpansion(_coefficients()),
        "coefficients",
        "HeatExpansion(coefficients={Fraction(-1, 1): 1.5, Fraction(-1, 2): 0.25, "
        "Fraction(0, 1): Fraction(271, 360), Fraction(1, 2): 0.125, "
        "Fraction(1, 1): Fraction(1, 7)})",
        False,
    ),
    "OrbifoldClass": (
        lambda: OrbifoldClass(ClassKind.TRIANGULAR_PILLOWS, 60),
        "bound",
        "OrbifoldClass(kind=<ClassKind.TRIANGULAR_PILLOWS: 'pillows'>, bound=60)",
        True,
    ),
    "CollisionPair": (
        lambda: CollisionPair(_sig(), OrbifoldSignature(cone_points=(2, 2)), Fraction(67, 4)),
        "c",
        f"CollisionPair(sig_a={_SIG_REPR}, sig_b=OrbifoldSignature(handles=0, crosscaps=0, "
        "cone_points=(2, 2), mirror_boundaries=()), c=Fraction(67, 4))",
        True,
    ),
    "PillowSeparation": (
        lambda: PillowSeparation(False, _sig(), None),
        "distinguished",
        f"PillowSeparation(distinguished=False, negative_member={_SIG_REPR}, positive_member=None)",
        True,
    ),
    "TraceSamples": (
        lambda: TraceSamples(((0.1, 2), (0.05, 3.5))),
        "points",
        "TraceSamples(points=((0.1, 2.0), (0.05, 3.5)))",
        True,
    ),
    "FitResult": (
        lambda: FitResult({Fraction(-1): 1.0, Fraction(0): 0.5}, 1e-9, 12.5),
        "residual",
        "FitResult(coefficients={Fraction(-1, 1): 1.0, Fraction(0, 1): 0.5}, "
        "residual=1e-09, condition=12.5)",
        False,
    ),
}

params = pytest.mark.parametrize(
    "make, field, text, hashable", list(RECORDS.values()), ids=list(RECORDS)
)


@params
def test_repr_text(make, field, text, hashable):
    assert repr(make()) == text


@params
def test_copy_deepcopy_and_pickle_round_trip(make, field, text, hashable):
    record = make()
    for clone in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == text


@params
def test_fields_are_read_only(make, field, text, hashable):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@params
def test_equal_values_hash_equal(make, field, text, hashable):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != repr(a)
    # Equal field values in another class, here a plain tuple, are unequal.
    assert a != tuple(getattr(a, name) for name in a.__slots__)
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_fields_take_part_in_equality():
    assert OrbifoldClass(ClassKind.TRIANGULAR_PILLOWS, 60) != OrbifoldClass(
        ClassKind.TRIANGULAR_PILLOWS, 61
    )
    assert MetricData(1, 3.0) != MetricData(1, 3.0, 0.5)
    assert PillowSeparation(True, None, None) != PillowSeparation(False, None, None)
