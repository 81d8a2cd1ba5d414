"""Euler characteristics, geometry classes, and signature normalization."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from orbheat.signature import (
    GeometryType,
    OrbifoldSignature,
    SignatureError,
    euler_characteristic,
    geometry_type,
    is_bad,
    rational_to_json,
    signature_to_json,
)

from test_cli import run_python


def sig(handles=0, crosscaps=0, cones=(), boundaries=()):
    return OrbifoldSignature(
        handles=handles,
        crosscaps=crosscaps,
        cone_points=tuple(cones),
        mirror_boundaries=tuple(tuple(b) for b in boundaries),
    )


# === Euler characteristic goldens ===

CHI_GOLDENS = [
    (sig(), Fraction(2)),                                   # sphere
    (sig(handles=1), Fraction(0)),                          # torus
    (sig(handles=2), Fraction(-2)),
    (sig(crosscaps=1), Fraction(1)),                        # projective plane
    (sig(crosscaps=2), Fraction(0)),                        # klein bottle
    (sig(cones=(2, 3, 5)), Fraction(1, 30)),
    (sig(cones=(2, 3, 7)), Fraction(-1, 42)),
    (sig(cones=(2, 3, 6)), Fraction(0)),
    (sig(cones=(2, 2, 2, 2)), Fraction(0)),
    (sig(boundaries=((),)), Fraction(1)),                   # disk
    (sig(boundaries=((), ())), Fraction(0)),                # annulus
    (sig(boundaries=((2, 3, 6),)), Fraction(0)),
    (sig(boundaries=((2, 2, 2, 2),)), Fraction(0)),
    (sig(cones=(2,), boundaries=((2, 2),)), Fraction(0)),   # 2*22
    (sig(cones=(2, 2), boundaries=((),)), Fraction(0)),     # 22*
    (sig(cones=(2, 2), crosscaps=1), Fraction(0)),          # 22x
    (sig(cones=(4,), boundaries=((2,),)), Fraction(0)),     # 4*2
    (sig(cones=(3,), boundaries=((2,),)), Fraction(1, 12)), # 3*2
    (sig(cones=(4,), boundaries=((),)), Fraction(1, 4)),    # 4*
    (sig(boundaries=((5, 5),)), Fraction(1, 5)),
    (sig(cones=(7,)), Fraction(8, 7)),                      # teardrop
    (sig(cones=(2, 2, 3, 3)), Fraction(-1, 3)),
    (sig(handles=1, cones=(2,)), Fraction(-1, 2)),
    (sig(handles=1, boundaries=((),)), Fraction(-1)),
]


@pytest.mark.parametrize("signature,expected", CHI_GOLDENS)
def test_euler_characteristic_goldens(signature, expected):
    value = euler_characteristic(signature)
    assert isinstance(value, Fraction)
    assert value == expected


def test_chi_feature_costs_are_additive():
    # Each feature subtracts its fixed cost from chi of the sphere.
    base = euler_characteristic(sig())
    assert base - euler_characteristic(sig(handles=1)) == 2
    assert base - euler_characteristic(sig(crosscaps=1)) == 1
    assert base - euler_characteristic(sig(boundaries=((),))) == 1
    for m in range(2, 30):
        assert base - euler_characteristic(sig(cones=(m,))) == Fraction(m - 1, m)
        with_corner = sig(boundaries=((m,),))
        no_corner = sig(boundaries=((),))
        cost = euler_characteristic(no_corner) - euler_characteristic(with_corner)
        assert cost == Fraction(m - 1, 2 * m)


def test_corner_cost_is_half_cone_cost():
    # A corner reflector of order n costs exactly half of a cone of order n.
    for n in range(2, 50):
        cone_cost = Fraction(2) - euler_characteristic(sig(cones=(n,)))
        plain = euler_characteristic(sig(boundaries=((),)))
        corner_cost = plain - euler_characteristic(sig(boundaries=((n,),)))
        assert cone_cost == 2 * corner_cost


# === Double covers ===

@pytest.mark.parametrize("m", range(2, 101))
def test_mirrored_families_halve_the_double_cover_chi(m):
    # Each mirrored or crosscapped quotient has half the chi of its
    # orientable double cover.
    cover_mm = euler_characteristic(sig(cones=(m, m)))
    assert euler_characteristic(sig(boundaries=((m, m),))) == cover_mm / 2
    assert euler_characteristic(sig(cones=(m,), crosscaps=1)) == cover_mm / 2
    assert euler_characteristic(sig(cones=(m,), boundaries=((),))) == cover_mm / 2
    cover_22m = euler_characteristic(sig(cones=(2, 2, m)))
    assert euler_characteristic(sig(boundaries=((2, 2, m),))) == cover_22m / 2
    assert euler_characteristic(sig(cones=(2,), boundaries=((m,),))) == cover_22m / 2


def test_klein_bottle_covers():
    torus = sig(handles=1)
    klein = sig(crosscaps=2)
    assert euler_characteristic(klein) == euler_characteristic(torus) == 0


# === Bad orbifolds ===

BAD_CASES = [
    sig(cones=(3,)),                      # teardrop
    sig(cones=(50,)),
    sig(cones=(2, 3)),                    # unequal football
    sig(cones=(4, 5)),
    sig(boundaries=((3,),)),              # mirrored teardrop half
    sig(boundaries=((2, 3),)),            # mirrored football half
    sig(boundaries=((49, 50),)),
]

GOOD_CASES = [
    sig(),
    sig(cones=(5, 5)),
    sig(cones=(2, 2, 2)),
    sig(boundaries=((4, 4),)),
    sig(boundaries=((),)),                # disk, mirror quotient of the sphere
    sig(cones=(7,), crosscaps=1),         # covered by the football (7, 7)
    sig(cones=(7,), boundaries=((),)),    # likewise spherical, not bad
    sig(cones=(3,), boundaries=((3,),)),  # flat
    sig(handles=1, cones=(2,)),
    sig(cones=(2, 3, 5)),
]


@pytest.mark.parametrize("signature", BAD_CASES)
def test_bad_orbifolds(signature):
    assert is_bad(signature)
    assert euler_characteristic(signature) > 0
    assert geometry_type(signature) is GeometryType.BAD_POSITIVE


@pytest.mark.parametrize("signature", GOOD_CASES)
def test_good_orbifolds(signature):
    assert not is_bad(signature)


def test_bad_requires_positive_chi_exhaustively():
    # Everything flagged bad must sit in positive chi territory: scan all
    # one- and two-feature candidates with orders up to 100.
    for m in range(2, 101):
        for candidate in (
            sig(cones=(m,)),
            sig(boundaries=((m,),)),
            sig(cones=(m,), boundaries=((),)),
        ):
            if is_bad(candidate):
                assert euler_characteristic(candidate) > 0
        for n in range(m + 1, 101):
            for candidate in (sig(cones=(m, n)), sig(boundaries=((m, n),))):
                assert is_bad(candidate)
                assert euler_characteristic(candidate) > 0


# === Geometry classes ===

# The seventeen flat orbifolds, as feature tuples.
FLAT_SIGNATURES = [
    sig(handles=1),
    sig(cones=(2, 2, 2, 2)),
    sig(cones=(3, 3, 3)),
    sig(cones=(2, 4, 4)),
    sig(cones=(2, 3, 6)),
    sig(boundaries=((2, 2, 2, 2),)),
    sig(cones=(2,), boundaries=((2, 2),)),
    sig(cones=(2, 2), boundaries=((),)),
    sig(cones=(2, 2), crosscaps=1),
    sig(boundaries=((3, 3, 3),)),
    sig(cones=(3,), boundaries=((3,),)),
    sig(boundaries=((2, 4, 4),)),
    sig(cones=(4,), boundaries=((2,),)),
    sig(boundaries=((2, 3, 6),)),
    sig(crosscaps=2),
    sig(crosscaps=1, boundaries=((),)),
    sig(boundaries=((), ())),
]


def test_seventeen_flat_orbifolds():
    assert len(set(FLAT_SIGNATURES)) == 17
    for signature in FLAT_SIGNATURES:
        assert euler_characteristic(signature) == 0
        assert geometry_type(signature) is GeometryType.EUCLIDEAN


def test_geometry_by_chi_sign():
    assert geometry_type(sig()) is GeometryType.SPHERICAL
    assert geometry_type(sig(cones=(2, 3, 5))) is GeometryType.SPHERICAL
    assert geometry_type(sig(boundaries=((2, 3, 5),))) is GeometryType.SPHERICAL
    assert geometry_type(sig(cones=(2, 3, 7))) is GeometryType.HYPERBOLIC
    assert geometry_type(sig(handles=2)) is GeometryType.HYPERBOLIC
    assert geometry_type(sig(cones=(2,), boundaries=((3, 3),))) is GeometryType.HYPERBOLIC
    assert geometry_type(sig(cones=(3,))) is GeometryType.BAD_POSITIVE


# === Normalization and validation ===

def test_handles_convert_when_crosscaps_present():
    mixed = OrbifoldSignature(handles=1, crosscaps=1)
    assert mixed.handles == 0
    assert mixed.crosscaps == 3
    assert euler_characteristic(mixed) == -1
    mixed2 = OrbifoldSignature(handles=2, crosscaps=1, cone_points=(3,))
    assert (mixed2.handles, mixed2.crosscaps) == (0, 5)


def test_feature_sorting():
    s = OrbifoldSignature(
        cone_points=(5, 2, 3),
        mirror_boundaries=((4, 2), (3,), (2, 2)),
    )
    assert s.cone_points == (2, 3, 5)
    assert s.mirror_boundaries == ((2, 2), (2, 4), (3,))


def test_equality_ignores_input_order():
    a = OrbifoldSignature(cone_points=(3, 2), mirror_boundaries=((2,), (5, 3)))
    b = OrbifoldSignature(cone_points=(2, 3), mirror_boundaries=((3, 5), (2,)))
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(handles=-1),
        dict(crosscaps=-2),
        dict(handles=True),
        dict(handles=1.5),
        dict(crosscaps=0.5),
        dict(handles="1"),
        dict(cone_points=(1,)),
        dict(cone_points=(0,)),
        dict(cone_points=(2.5,)),
        dict(mirror_boundaries=((1,),)),
        dict(mirror_boundaries=((2, -3),)),
    ],
)
def test_invalid_signatures_rejected(kwargs):
    with pytest.raises(SignatureError):
        OrbifoldSignature(**kwargs)


def test_corner_orders_flattened():
    s = sig(boundaries=((2, 4), (3,)))
    assert tuple(sorted(s.corner_orders)) == (2, 3, 4)
    assert s.has_mirrors
    assert not sig(cones=(2, 3)).has_mirrors


# === JSON round trips ===

def test_rational_json_round_trip():
    for value, num, den in (
        (Fraction(0), "0", "1"),
        (Fraction(-7, 3), "-7", "3"),
        (Fraction(271, 360), "271", "360"),
        (Fraction(10**30, 7), "1" + "0" * 30, "7"),
    ):
        blob = rational_to_json(value)
        assert blob == {"num": num, "den": den}
        assert json.loads(json.dumps(blob)) == blob


@pytest.mark.parametrize(
    "signature",
    [
        sig(),
        sig(handles=2, cones=(2, 3, 5)),
        sig(crosscaps=3, boundaries=((2, 2), ())),
        sig(cones=(6,), boundaries=((2, 4, 6),)),
    ],
)
def test_signature_json_round_trip(signature):
    # Through JSON text and back into the constructor, which checks every count and order.
    blob = json.loads(json.dumps(signature_to_json(signature)))
    assert set(blob) == {"handles", "crosscaps", "cone_points", "mirror_boundaries"}
    rebuilt = OrbifoldSignature(
        blob["handles"],
        blob["crosscaps"],
        tuple(blob["cone_points"]),
        tuple(tuple(corners) for corners in blob["mirror_boundaries"]),
    )
    assert rebuilt == signature


def test_heat_binds_the_same_c_ratio_and_spectral_c():
    # c_ratio and spectral_c live in signature; heat reads neither, so it
    # binds neither.
    import orbheat.heat

    assert not hasattr(orbheat.heat, "c_ratio")
    assert not hasattr(orbheat.heat, "spectral_c")


def test_degree_zero_term_lives_in_signature():
    # heat binds the same object, and signature defines it without loading heat.
    import orbheat.heat
    import orbheat.signature

    assert orbheat.heat.degree_zero_term is orbheat.signature.degree_zero_term
    code = (
        "import sys, orbheat.signature; orbheat.signature.degree_zero_term; "
        "print(*sorted(m for m in sys.modules if m.startswith('orbheat')))"
    )
    result = run_python("-c", code)
    assert (result.returncode, result.stdout) == (
        0,
        "orbheat orbheat._record orbheat.signature\n",
    ), result.stderr
