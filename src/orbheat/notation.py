"""Text notation for 2-orbifold signatures.

The notation is the usual compact one: "o" per handle, an integer per cone
point, "*" opening a mirror boundary whose corner orders follow it, and
"x" (or the multiplication sign U+00D7) per crosscap, with commas or
whitespace allowed as separators.  Corner integers bind to the most
recently opened mirror boundary; a boundary's corner list is closed by the
next "*" or cross, or by the end of the string.  So "2,*2,2" is a cone
point of order 2 plus one boundary with corners (2, 2), while "2,2,*" has
two cone points and a cornerless boundary.

parse() accepts a few conveniences on top of the canonical grammar: an
optional "O(...)" wrapper, named aliases (sphere, torus, klein, *torus,
*klein, projective/rp2, disk), case-insensitive "x", and mirrors/crosses
in either order at the tail.  render() always emits the canonical form:
handles, cones, mirror boundaries, crosscaps, comma-separated except that
corner orders attach directly after their "*" and crosses attach directly
to whatever precedes them.

Errors carry a machine-readable kind and the character offset of the
offending token in the input string.
"""

from __future__ import annotations

import re
import sys
from enum import Enum

from .signature import OrbifoldSignature


class NotationErrorKind(Enum):
    ORDER_TOO_SMALL = "OrderTooSmall"
    ORDER_TOO_LARGE = "OrderTooLarge"
    OUT_OF_ORDER_TOKEN = "OutOfOrderToken"
    UNKNOWN_CHARACTER = "UnknownCharacter"


class NotationError(ValueError):
    """Parse failure with an error kind and a character offset."""

    def __init__(self, kind: NotationErrorKind, position: int, message: str):
        super().__init__(f"{message} (at position {position})")
        self.kind = kind
        self.position = position
        self.message = message


# Whole-string aliases, matched case-insensitively after trimming.  The empty
# string already denotes the smooth sphere; "sphere" is kept for symmetry.
ALIASES = {
    "sphere": "",
    "torus": "o",
    "klein": "xx",
    "*torus": "*,*",
    "*klein": "*x",
    "projective": "x",
    "rp2": "x",
    "disk": "*",
}

_SEPARATORS = " \t\r\n,"
_CROSSES = "xX×"
_DIGITS = "0123456789"  # ASCII only: str.isdigit() also accepts "²" and "٣"
_WRAPPER = re.compile(r"^[Oo]?\s*\((.*)\)\s*$", re.S)


def parse(text: str) -> OrbifoldSignature:
    """Parse notation text into a normalized OrbifoldSignature.

    The empty string (after trimming) is the smooth sphere.  Raises
    NotationError with kind ORDER_TOO_SMALL, ORDER_TOO_LARGE (more digits
    than Python's int conversion limit), OUT_OF_ORDER_TOKEN or
    UNKNOWN_CHARACTER; the position is a character offset into the
    original string (offsets point into the replacement text when an
    alias was substituted).  Every character fault outranks every
    misplaced token: the text is read to its end before the first
    misplaced handle or order is reported.
    """
    if not isinstance(text, str):
        raise TypeError("notation must be a string")
    body = text.strip()
    offset = len(text) - len(text.lstrip())
    if "(" in body or ")" in body:
        match = _WRAPPER.match(body)
        if match is None:
            bad = body.index("(") if "(" in body else body.index(")")
            raise NotationError(
                NotationErrorKind.UNKNOWN_CHARACTER,
                offset + bad,
                "unbalanced wrapper parentheses",
            )
        body, offset = match.group(1), offset + match.start(1)
    alias = ALIASES.get(body.strip().lower())
    if alias is not None:
        body, offset = alias, 0

    handles = crosscaps = 0
    cones, boundaries = [], []
    corners = None  # corner list of the still-open mirror boundary
    misplaced = None  # (position, message) of the first out-of-order token
    i = 0
    while i < len(body):
        start, ch = i, body[i]
        i += 1
        if ch in _SEPARATORS:
            continue
        if ch in "oO":
            if cones or boundaries or crosscaps:
                misplaced = misplaced or (
                    offset + start, "handle marker 'o' must precede cone points and mirrors"
                )
            handles += 1
        elif ch == "*":
            corners = []
            boundaries.append(corners)
        elif ch in _CROSSES:
            corners = None
            crosscaps += 1
        elif ch in _DIGITS:
            while i < len(body) and body[i] in _DIGITS:
                i += 1
            try:
                value = int(body[start:i])
            except ValueError:  # more digits than int() converts
                raise NotationError(
                    NotationErrorKind.ORDER_TOO_LARGE,
                    offset + start,
                    f"order has {i - start} digits, more than the limit of "
                    f"{sys.get_int_max_str_digits()}",
                ) from None
            if value < 2:
                raise NotationError(
                    NotationErrorKind.ORDER_TOO_SMALL,
                    offset + start,
                    f"order {value} is below the minimum of 2",
                )
            if corners is not None:
                corners.append(value)
            elif boundaries or crosscaps:
                misplaced = misplaced or (
                    offset + start, "corner order appears with no open mirror boundary"
                )
            else:
                cones.append(value)
        else:
            raise NotationError(
                NotationErrorKind.UNKNOWN_CHARACTER,
                offset + start,
                f"unexpected character {ch!r}",
            )
    if misplaced:
        raise NotationError(NotationErrorKind.OUT_OF_ORDER_TOKEN, *misplaced)

    return OrbifoldSignature(
        handles=handles,
        crosscaps=crosscaps,
        cone_points=tuple(cones),
        mirror_boundaries=tuple(map(tuple, boundaries)),
    )


def render(sig: OrbifoldSignature) -> str:
    """Canonical notation text for a signature.

    render(parse(s)) is idempotent and parse(render(sig)) == sig.
    """
    atoms = ["o"] * sig.handles + [str(m) for m in sig.cone_points]
    atoms += ["*" + ",".join(map(str, corners)) for corners in sig.mirror_boundaries]
    return ",".join(atoms) + "×" * sig.crosscaps
