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
from dataclasses import dataclass
from enum import Enum

from .signature import OrbifoldSignature


class NotationErrorKind(Enum):
    ORDER_TOO_SMALL = "OrderTooSmall"
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
_CROSSES = "x×"
_DIGITS = "0123456789"  # ASCII only: str.isdigit() also accepts "²" and "٣"
_WRAPPER = re.compile(r"^[Oo]?\s*\((.*)\)\s*$", re.S)


def _tokenize(text: str, offset: int):
    """Yield (kind, value, position) triples; kinds: handle, order, mirror, cross."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in _SEPARATORS:
            i += 1
        elif ch in ("o", "O"):
            tokens.append(("handle", 0, offset + i))
            i += 1
        elif ch == "*":
            tokens.append(("mirror", 0, offset + i))
            i += 1
        elif ch in _CROSSES or ch == "X":
            tokens.append(("cross", 0, offset + i))
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            value = int(text[i:j])
            if value < 2:
                raise NotationError(
                    NotationErrorKind.ORDER_TOO_SMALL,
                    offset + i,
                    f"order {value} is below the minimum of 2",
                )
            tokens.append(("order", value, offset + i))
            i = j
        else:
            raise NotationError(
                NotationErrorKind.UNKNOWN_CHARACTER,
                offset + i,
                f"unexpected character {ch!r}",
            )
    return tokens


def parse(text: str) -> OrbifoldSignature:
    """Parse notation text into a normalized OrbifoldSignature.

    The empty string (after trimming) is the smooth sphere.  Raises
    NotationError with kind ORDER_TOO_SMALL, OUT_OF_ORDER_TOKEN or
    UNKNOWN_CHARACTER; the position is a character offset into the
    original string (offsets point into the replacement text when an
    alias was substituted).
    """
    if not isinstance(text, str):
        raise TypeError("notation must be a string")
    stripped = text.strip()
    offset = len(text) - len(text.lstrip())
    lowered = stripped.lower()
    if lowered in ALIASES:
        stripped, offset = ALIASES[lowered], 0
    elif "(" in stripped or ")" in stripped:
        match = _WRAPPER.match(stripped)
        if match is None:
            bad = stripped.index("(") if "(" in stripped else stripped.index(")")
            raise NotationError(
                NotationErrorKind.UNKNOWN_CHARACTER,
                offset + bad,
                "unbalanced wrapper parentheses",
            )
        inner = match.group(1)
        if inner.strip().lower() in ALIASES:
            stripped, offset = ALIASES[inner.strip().lower()], 0
        else:
            offset += match.start(1)
            stripped = inner

    tokens = _tokenize(stripped, offset)

    handles = 0
    crosscaps = 0
    cones = []
    boundaries = []
    open_corners = None  # corner list of the still-open mirror boundary
    in_tail = False  # a "*" or cross has been seen

    for kind, value, pos in tokens:
        if kind == "handle":
            if in_tail or cones:
                raise NotationError(
                    NotationErrorKind.OUT_OF_ORDER_TOKEN,
                    pos,
                    "handle marker 'o' must precede cone points and mirrors",
                )
            handles += 1
        elif kind == "order":
            if not in_tail:
                cones.append(value)
            elif open_corners is not None:
                open_corners.append(value)
            else:
                raise NotationError(
                    NotationErrorKind.OUT_OF_ORDER_TOKEN,
                    pos,
                    "corner order appears with no open mirror boundary",
                )
        elif kind == "mirror":
            in_tail = True
            if open_corners is not None:
                boundaries.append(tuple(open_corners))
            open_corners = []
        else:  # cross
            in_tail = True
            if open_corners is not None:
                boundaries.append(tuple(open_corners))
                open_corners = None
            crosscaps += 1
    if open_corners is not None:
        boundaries.append(tuple(open_corners))

    return OrbifoldSignature(
        handles=handles,
        crosscaps=crosscaps,
        cone_points=tuple(cones),
        mirror_boundaries=tuple(boundaries),
    )


def render(sig: OrbifoldSignature) -> str:
    """Canonical notation text for a signature.

    render(parse(s)) is idempotent and parse(render(sig)) == sig.
    """
    atoms = []
    atoms.extend("o" for _ in range(sig.handles))
    atoms.extend(str(m) for m in sig.cone_points)
    for component in sig.mirror_boundaries:
        atoms.append("*")
        atoms.extend(str(n) for n in component)
    atoms.extend("×" for _ in range(sig.crosscaps))

    out = []
    for i, atom in enumerate(atoms):
        if i > 0:
            glued = atom == "×" or (atoms[i - 1] == "*" and atom[0].isdigit())
            if not glued:
                out.append(",")
        out.append(atom)
    return "".join(out)
