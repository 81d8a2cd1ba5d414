"""Reference answers for every benchmark operation.

Nothing here imports orbheat: each value is recomputed from the paper's
formulas with plain ints, the standard library and mpmath, so a faster
but wrong program shows up as failed operations.

A signature is the tuple (handles, crosscaps, cones, boundaries) with
cones a tuple of ints and boundaries a tuple of corner tuples.

    c   = 4 - 4h - 2x - 2b + sum_cones (m-1)^2/m + sum_corners (n-1)^2/(2n)
    chi = 2 - 2h - x - b - sum_cones (m-1)/m - sum_corners (n-1)/(2n)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# Working precision of every mpmath reference, in decimal digits.
DIGITS = 40

SPHERE = (0, 0, (), ())


def sig(cones=(), boundaries=(), handles=0, crosscaps=0):
    return (handles, crosscaps, tuple(cones), tuple(tuple(b) for b in boundaries))


def parse(text: str):
    """Signature of a valid notation such as "2,*3,3", "2,2×" or "*,*"."""
    h = x = 0
    cones, bounds = [], []
    for token in re.findall(r"\d+|[*×o]", text):
        if token == "o":
            h += 1
        elif token == "×":
            x += 1
        elif token == "*":
            bounds.append([])
        elif bounds:
            bounds[-1].append(int(token))
        else:
            cones.append(int(token))
    return sig(cones, bounds, h, x)


def normalize(s):
    """Canonical form: sorted orders, and handles traded for crosscaps."""
    h, x, cones, bounds = s
    if h and x:
        h, x = 0, x + 2 * h
    return (h, x, tuple(sorted(cones)), tuple(sorted(tuple(sorted(b)) for b in bounds)))


def _reduce(num, den):
    g = math.gcd(num, den)
    return num // g, den // g


def c_value(s):
    """Spectral constant c as a reduced (num, den) pair of plain ints."""
    h, x, cones, bounds = s
    num, den = 4 - 4 * h - 2 * x - 2 * len(bounds), 1
    for m in cones:
        num, den = _reduce(num * m + den * (m - 1) ** 2, den * m)
    for b in bounds:
        for n in b:
            num, den = _reduce(num * 2 * n + den * (n - 1) ** 2, den * 2 * n)
    return num, den


def chi_value(s):
    """Euler characteristic as a reduced (num, den) pair of plain ints."""
    h, x, cones, bounds = s
    num, den = 2 - 2 * h - x - len(bounds), 1
    for m in cones:
        num, den = _reduce(num * m - den * (m - 1), den * m)
    for b in bounds:
        for n in b:
            num, den = _reduce(num * 2 * n - den * (n - 1), den * 2 * n)
    return num, den


def frac(pair) -> Fraction:
    return Fraction(*pair)


def render(s) -> str:
    """Canonical notation: handles, cones, mirror boundaries, crosscaps."""
    h, x, cones, bounds = normalize(s)
    atoms = ["o"] * h + [str(m) for m in cones]
    for b in bounds:
        atoms.append("*")
        atoms.extend(str(n) for n in b)
    out = ""
    for i, atom in enumerate(atoms):
        if i and not (atoms[i - 1] == "*" and atom.isdigit()):
            out += ","
        out += atom
    return out + "×" * x


def to_json(s) -> dict:
    h, x, cones, bounds = normalize(s)
    return {
        "handles": h,
        "crosscaps": x,
        "cone_points": list(cones),
        "mirror_boundaries": [list(b) for b in bounds],
    }


def rational_json(pair) -> dict:
    return {"num": str(pair[0]), "den": str(pair[1])}


# ---------------------------------------------------------------- rosters


def _cone(*orders):
    return (0, 0, tuple(sorted(orders)), ())


def _mirror(cones, corners):
    return (0, 0, tuple(sorted(cones)), (tuple(sorted(corners)),))


def roster(kind: str, bound: int) -> list:
    """Duplicate-free members of a named class with every order <= bound."""
    B = bound
    teardrops = [_cone(m) for m in range(2, B + 1)]
    footballs = [_cone(r, s) for r in range(2, B + 1) for s in range(r, B + 1)]
    if kind == "teardrops-footballs":
        return teardrops + footballs
    if kind == "pillows":
        return [
            _cone(p, q, r)
            for p in range(2, B + 1)
            for q in range(p, B + 1)
            for r in range(q, B + 1)
        ]
    if kind == "class-c":
        # chi >= 0 pillows: 1/p + 1/q + 1/r >= 1.
        pillows = [
            _cone(p, q, r)
            for p in (2, 3)
            for q in range(p, B + 1)
            for r in range(q, B + 1)
            if q * r + p * r + p * q >= p * q * r
        ]
        return [SPHERE, (1, 0, (), ())] + teardrops + footballs + pillows + [_cone(2, 2, 2, 2)]
    if kind == "spherical":
        out = []
        for m in range(2, B + 1):
            out += [
                _cone(m, m),
                _cone(2, 2, m),
                _mirror((), (m, m)),
                (0, 1, (m,), ()),
                (0, 0, (m,), ((),)),
                _mirror((), (2, 2, m)),
                _mirror((2,), (m,)),
            ]
        fixed = [
            _cone(2, 3, 3), _cone(2, 3, 4), _cone(2, 3, 5),
            _mirror((), (2, 3, 3)), _mirror((3,), (2,)),
            _mirror((), (2, 3, 4)), _mirror((), (2, 3, 5)),
        ]
        out += [s for s in fixed if max(s[2] + sum(s[3], ())) <= B]
        return out
    raise ValueError(f"unknown class {kind!r}")


def collision_groups(members) -> dict:
    """c -> members, for every c attained by two or more members."""
    groups = {}
    for s in members:
        groups.setdefault(c_value(s), []).append(s)
    return {c: g for c, g in groups.items() if len(g) > 1}


def collision_pairs(members) -> list:
    """Sorted (render_a, render_b, c) for every unordered equal-c pair."""
    out = []
    for c, group in collision_groups(members).items():
        names = sorted(render(s) for s in group)
        out += [(a, b, c) for i, a in enumerate(names) for b in names[i + 1:]]
    return sorted(out)


# ---------------------------------------------------- classification rules


def _spherical_triangle_perimeter(A, B, C):
    def side(opp, u, v):
        return math.acos((math.cos(opp) + math.cos(u) * math.cos(v)) / (math.sin(u) * math.sin(v)))

    return side(A, B, C) + side(B, A, C) + side(C, A, B)


def unit_mirror_length(s):
    """Mirror-locus length of a mirrored spherical orbifold on the unit sphere.

    Triangle groups are measured as geodesic triangles; the lune *m,m has
    two half great circles; m* keeps an equatorial arc of 2 pi / m. None
    for families the program does not support either.
    """
    h, x, cones, bounds = normalize(s)
    if h or x or len(bounds) != 1:
        return None
    (corners,) = bounds
    if not cones:
        if len(corners) == 2 and corners[0] == corners[1]:
            return 2 * math.pi
        if len(corners) == 3 and corners[:2] == (2, 2) or corners == (2, 3, 3):
            return _spherical_triangle_perimeter(*(math.pi / n for n in corners))
        return None
    if len(cones) == 1 and not corners:
        return 2 * math.pi / cones[0]
    if cones == (2,) and len(corners) == 1:
        return math.pi
    if cones == (3,) and corners == (2,):
        return math.pi / 2
    return None


def has_mirrors(s) -> bool:
    return bool(s[3])


def spherical_verdict(a, b):
    if c_value(a) != c_value(b):
        return "ByC"
    if has_mirrors(a) != has_mirrors(b):
        return "ByMirrorPresence"
    if has_mirrors(a):
        la, lb = unit_mirror_length(a), unit_mirror_length(b)
        if la is None or lb is None:
            return None  # outside the program's length table
        if abs(la - lb) > 1e-9:
            return "ByMirrorLength"
    return "NotDistinguished"


def positive_zero_verdict(a, b):
    if c_value(a) != c_value(b):
        return "ByC"
    if has_mirrors(a) != has_mirrors(b):
        return "ByMirrorPresence"
    return "NotDistinguished"


def pillows_with_c(c: Fraction) -> list:
    """Every triangular pillow (any chi, any orders) whose c equals c.

    A pillow (p, q, r) has c = p + q + r - 2 + h with h = 1/p + 1/q + 1/r in
    (0, 3/2], so only order sums S in [c + 1/2, c + 2) can attain c.
    """
    out = []
    for S in range(max(6, math.ceil(c + Fraction(1, 2))), math.floor(c + 2) + 1):
        for p in range(2, S // 3 + 1):
            for q in range(p, (S - p) // 2 + 1):
                s = _cone(p, q, S - p - q)
                if frac(c_value(s)) == c:
                    out.append(s)
    return out


def pillow_negative_sides(c: Fraction):
    """(chi<0 pillows, chi>0 teardrops and pillows) attaining c.

    A teardrop (m) has c = m + 2 + 1/m, so m = floor(c) - 2 is the only candidate.
    """
    pillows = pillows_with_c(c)
    negative = [s for s in pillows if frac(chi_value(s)) < 0]
    positive = [s for s in pillows if frac(chi_value(s)) > 0]
    m = math.floor(c) - 2
    if m >= 2 and frac(c_value(_cone(m))) == c:
        positive.append(_cone(m))
    return negative, positive


# ------------------------------------------------------ heat coefficients


def expansion(s, K: int, area: float, mirror_length: float) -> dict:
    """The five leading heat coefficients, keyed as the CLI's JSON keys."""
    _, _, cones, bounds = normalize(s)
    chi = frac(chi_value(s))
    corners = [n for b in bounds for n in b]
    sing = sum(Fraction(m**4 + 10 * m * m - 11, 360 * m) for m in cones)
    sing += sum(Fraction(n**4 + 10 * n * n - 11, 720 * n) for n in corners)
    L = mirror_length
    return {
        "deg_-1": area / (4 * math.pi),
        "deg_-0.5": L / (8 * math.sqrt(math.pi)),
        "deg_0": rational_json(deg0(s)),
        "deg_0.5": 2 * K * L / (64 * math.sqrt(math.pi)),
        "deg_1": float(K * (chi / 30 + sing)) if K else 0.0,
    }


def deg0(s):
    num, den = c_value(s)
    return _reduce(num, den * 12)


# ------------------------------------------------------------ flat models

MODELS = ("torus", "klein", "pillowcase", "square", "mirror-torus")

# (area, mirror length, signature) of each flat model.
MODEL_DATA = {
    "torus": (1.0, 0.0, (1, 0, (), ())),
    "klein": (0.5, 0.0, (0, 2, (), ())),
    "pillowcase": (0.5, 0.0, (0, 0, (2, 2, 2, 2), ())),
    "square": (0.25, 2.0, (0, 0, (), ((2, 2, 2, 2),))),
    "mirror-torus": (0.5, 2.0, (0, 0, (), ((), ()))),
}


# mpmath is imported inside the functions that use it: the spectra library
# process shares the input generators and should not pay for loading it.


def theta_ref(t):
    """sum_k exp(-4 pi^2 k^2 t) via its Jacobi dual (4 pi t)^-1/2 sum_k exp(-k^2/(4t))."""
    import mpmath

    with mpmath.workdps(DIGITS):
        t = mpmath.mpf(t)
        total, k = mpmath.mpf(1), 1
        while True:
            term = 2 * mpmath.exp(-k * k / (4 * t))
            total += term
            if term < mpmath.mpf(10) ** (-DIGITS - 5) * total:
                return total / mpmath.sqrt(4 * mpmath.pi * t)
            k += 1


def trace_ref(model: str, t):
    """Closed-form heat trace of a flat model at DIGITS digits."""
    import mpmath

    with mpmath.workdps(DIGITS):
        th = theta_ref(t)
        if model == "torus":
            return th * th
        if model == "klein":
            return theta_ref(4 * mpmath.mpf(t)) + (th * th - th) / 2
        if model == "pillowcase":
            return (th * th + 1) / 2
        if model == "square":
            return ((th + 1) / 2) ** 2
        if model == "mirror-torus":
            return (th * th + th) / 2
    raise ValueError(f"unknown model {model!r}")


def rel_err(value: float, ref) -> float:
    import mpmath

    with mpmath.workdps(DIGITS):
        return float(abs((mpmath.mpf(value) - ref) / ref))


FIT_DEGREES = (-1.0, -0.5, 0.0)


def grid(start: float, ratio: float = 0.7, count: int = 12) -> tuple:
    return tuple(start * ratio**i for i in range(count))


def fit_ref(model: str, times) -> tuple:
    """Least-squares (t^-1, t^-1/2, t^0) coefficients of the reference trace."""
    import mpmath

    with mpmath.workdps(DIGITS):
        A = mpmath.matrix([[mpmath.mpf(t) ** d for d in FIT_DEGREES] for t in times])
        y = mpmath.matrix([trace_ref(model, t) for t in times])
        solution, _ = mpmath.qr_solve(A, y)
        return tuple(float(v) for v in solution)


def predicted(model: str) -> tuple:
    """Predicted (deg -1, deg -1/2, deg 0) coefficients of a flat model."""
    area, L, s = MODEL_DATA[model]
    num, den = deg0(s)
    return (area / (4 * math.pi), L / (8 * math.sqrt(math.pi)), num / den)
