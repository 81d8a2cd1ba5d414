"""Parsing and rendering of the orbifold naming notation."""

from __future__ import annotations

import itertools

import pytest

from orbheat.notation import (
    NotationError,
    NotationErrorKind,
    parse,
    render,
)
from orbheat.signature import OrbifoldSignature


def sig(handles=0, crosscaps=0, cones=(), boundaries=()):
    return OrbifoldSignature(
        handles=handles,
        crosscaps=crosscaps,
        cone_points=tuple(cones),
        mirror_boundaries=tuple(tuple(b) for b in boundaries),
    )


# === Parse goldens ===

PARSE_CASES = [
    ("", sig()),
    ("o", sig(handles=1)),
    ("oo", sig(handles=2)),
    ("2,3,5", sig(cones=(2, 3, 5))),
    ("5,3,2", sig(cones=(2, 3, 5))),
    ("*2,3,6", sig(boundaries=((2, 3, 6),))),
    ("2,*2,2", sig(cones=(2,), boundaries=((2, 2),))),
    ("2,2,*", sig(cones=(2, 2), boundaries=((),))),
    ("*", sig(boundaries=((),))),
    ("**", sig(boundaries=((), ()))),
    ("*,*", sig(boundaries=((), ()))),
    ("x", sig(crosscaps=1)),
    ("xx", sig(crosscaps=2)),
    ("××", sig(crosscaps=2)),
    ("2,2×", sig(cones=(2, 2), crosscaps=1)),
    ("4*2", sig(cones=(4,), boundaries=((2,),))),
    ("3*3", sig(cones=(3,), boundaries=((3,),))),
    ("*x", sig(crosscaps=1, boundaries=((),))),
    ("*2,2,3*", sig(boundaries=((2, 2, 3), ()))),
    ("o2,3", sig(handles=1, cones=(2, 3))),
    ("12,34", sig(cones=(12, 34))),
    ("  2 , 3\t, 5 ", sig(cones=(2, 3, 5))),
]


@pytest.mark.parametrize("text,expected", PARSE_CASES)
def test_parse_goldens(text, expected):
    assert parse(text) == expected


def test_parse_wrapper_forms():
    assert parse("O(2,3,5)") == sig(cones=(2, 3, 5))
    assert parse("o(*2,2)") == sig(boundaries=((2, 2),))
    assert parse("(2,3,7)") == sig(cones=(2, 3, 7))
    assert parse("O()") == sig()
    # A bare leading o with no parentheses is a handle, not a wrapper.
    assert parse("o2") == sig(handles=1, cones=(2,))


def test_parse_aliases():
    assert parse("sphere") == sig()
    assert parse("torus") == sig(handles=1)
    assert parse("klein") == sig(crosscaps=2)
    assert parse("*torus") == sig(boundaries=((), ()))
    assert parse("*klein") == sig(crosscaps=1, boundaries=((),))
    assert parse("projective") == sig(crosscaps=1)
    assert parse("rp2") == sig(crosscaps=1)
    assert parse("disk") == sig(boundaries=((),))
    assert parse("O(torus)") == sig(handles=1)
    assert parse("Klein") == sig(crosscaps=2)


def test_multiple_boundaries_with_corners():
    got = parse("*2,2*3,3")
    assert got == sig(boundaries=((2, 2), (3, 3)))
    assert parse("2*3*4") == sig(cones=(2,), boundaries=((3,), (4,)))


def test_cross_closes_boundary():
    # After x the trailing region is closed: orders may not follow.
    assert parse("*2,2×") == sig(crosscaps=1, boundaries=((2, 2),))
    assert parse("××*") == sig(crosscaps=2, boundaries=((),))


# === Errors ===

ERROR_CASES = [
    ("1", NotationErrorKind.ORDER_TOO_SMALL, 0),
    ("2,1", NotationErrorKind.ORDER_TOO_SMALL, 2),
    ("*2,0", NotationErrorKind.ORDER_TOO_SMALL, 3),
    ("2,o", NotationErrorKind.OUT_OF_ORDER_TOKEN, 2),
    ("*o", NotationErrorKind.OUT_OF_ORDER_TOKEN, 1),
    ("×2", NotationErrorKind.OUT_OF_ORDER_TOKEN, 1),
    ("××3", NotationErrorKind.OUT_OF_ORDER_TOKEN, 2),
    ("2,3,5!", NotationErrorKind.UNKNOWN_CHARACTER, 5),
    ("2;3", NotationErrorKind.UNKNOWN_CHARACTER, 1),
    ("abc", NotationErrorKind.UNKNOWN_CHARACTER, 0),
    ("2,²", NotationErrorKind.UNKNOWN_CHARACTER, 2),
    ("2,٣", NotationErrorKind.UNKNOWN_CHARACTER, 2),
]


@pytest.mark.parametrize("text,kind,position", ERROR_CASES)
def test_parse_errors(text, kind, position):
    with pytest.raises(NotationError) as info:
        parse(text)
    assert info.value.kind is kind
    assert info.value.position == position
    assert f"position {position}" in str(info.value)


def test_error_position_counts_characters_not_bytes():
    # The multiplication sign is multi-byte in UTF-8 but one character.
    with pytest.raises(NotationError) as info:
        parse("××?")
    assert info.value.kind is NotationErrorKind.UNKNOWN_CHARACTER
    assert info.value.position == 2


def test_error_position_inside_wrapper():
    with pytest.raises(NotationError) as info:
        parse("O(2,1)")
    assert info.value.kind is NotationErrorKind.ORDER_TOO_SMALL
    assert info.value.position == 4


def test_notation_error_is_value_error():
    with pytest.raises(ValueError):
        parse("1")


# === Render goldens ===

RENDER_CASES = [
    (sig(), ""),
    (sig(handles=2), "o,o"),
    (sig(cones=(2, 3, 5)), "2,3,5"),
    (sig(boundaries=((2, 3, 6),)), "*2,3,6"),
    (sig(cones=(2,), boundaries=((2, 2),)), "2,*2,2"),
    (sig(cones=(2, 2), boundaries=((),)), "2,2,*"),
    (sig(crosscaps=2), "××"),
    (sig(cones=(2, 2), crosscaps=1), "2,2×"),
    (sig(crosscaps=1, boundaries=((),)), "*×"),
    (sig(boundaries=((), ())), "*,*"),
    (sig(handles=1, cones=(3,), boundaries=((2,), ())), "o,3,*,*2"),
    (sig(crosscaps=3, boundaries=((4, 4),)), "*4,4×××"),
]


@pytest.mark.parametrize("signature,expected", RENDER_CASES)
def test_render_goldens(signature, expected):
    assert render(signature) == expected


def test_render_sorts_canonically():
    assert render(parse("5,2,3")) == "2,3,5"
    assert render(parse("*3,2*2,2")) == "*2,2,*2,3"


# === Round-trip property ===

def small_signatures(orders=(2, 3, 7, 50)):
    """All signatures with at most four features drawn from small parts.

    A feature is a handle, a crosscap, a cone point, a boundary, or a
    corner order on some boundary.
    """
    out = []
    for handles, crosscaps in itertools.product(range(3), range(3)):
        for n_cones in range(3):
            for cones in itertools.combinations_with_replacement(orders, n_cones):
                for boundary_shapes in (
                    (),
                    ((),),
                    ((), ()),
                    ((0,),),
                    ((0, 1),),
                    ((0,), ()),
                ):
                    feature_count = (
                        handles
                        + crosscaps
                        + n_cones
                        + len(boundary_shapes)
                        + sum(len(b) for b in boundary_shapes)
                    )
                    if feature_count > 4:
                        continue
                    corner_slots = [idx for b in boundary_shapes for idx in b]
                    for corner_orders in itertools.product(orders, repeat=len(corner_slots)):
                        filled = []
                        pos = 0
                        for shape in boundary_shapes:
                            filled.append(corner_orders[pos : pos + len(shape)])
                            pos += len(shape)
                        out.append(
                            sig(
                                handles=handles,
                                crosscaps=crosscaps,
                                cones=cones,
                                boundaries=filled,
                            )
                        )
    return sorted(set(out), key=repr)


def test_round_trip_identity_small_signatures():
    population = small_signatures()
    assert len(population) > 300
    for signature in population:
        text = render(signature)
        assert parse(text) == signature, text


def test_render_is_idempotent_under_reparse():
    for signature in small_signatures(orders=(2, 9)):
        once = render(signature)
        assert render(parse(once)) == once


def test_noncanonical_inputs_normalize():
    for messy, clean in [
        ("5,2 , 3", "2,3,5"),
        ("O(2,2,*)", "2,2,*"),
        ("x2x", None),  # cone after cross is an error, checked below
    ]:
        if clean is None:
            with pytest.raises(NotationError):
                parse(messy)
        else:
            assert render(parse(messy)) == clean
