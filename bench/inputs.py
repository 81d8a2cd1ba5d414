"""Seeded operation generators for the three workloads.

Each workload runs in rounds. A round is a multiset of operation kinds
that depends on the round's number only, in a seeded order with seeded
arguments, so a run's mix of kinds does not depend on the seed and its
medians stay comparable between runs. The same random.Random(seed)
yields the same rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import oracle

# ------------------------------------------------------------------ scan


@dataclass(frozen=True)
class ScanSizes:
    rosters: tuple  # (class, bound) per `orbheat scan` op in a round
    invert: tuple  # (class, bound) of the c_preimage inversions
    inversions: int  # per round; half hits, half misses


SCAN_FULL = ScanSizes(
    rosters=(("teardrops-footballs", 500), ("class-c", 500), ("pillows", 100), ("spherical", 500)),
    invert=("pillows", 60),
    inversions=8,
)
SCAN_SMOKE = ScanSizes(
    rosters=(("teardrops-footballs", 20), ("class-c", 20), ("pillows", 8), ("spherical", 20)),
    invert=("pillows", 6),
    inversions=2,
)


def _random_pillow(rng, bound):
    return tuple(sorted(rng.randint(2, bound) for _ in range(3)))


def scan_round(rng, sizes: ScanSizes = SCAN_FULL) -> list:
    ops = [
        {"kind": "scan", "class": kind, "bound": bound,
         "argv": ["scan", "--class", kind, "--bound", str(bound), "--format", "json"]}
        for kind, bound in sizes.rosters
    ]
    kind, bound = sizes.invert
    for i in range(sizes.inversions):
        if i % 2 == 0:
            target = oracle.frac(oracle.c_value(oracle.sig(_random_pillow(rng, bound))))
        else:
            # A rational inside the roster's c range that no member attains.
            while True:
                den = rng.randint(2, 4 * bound)
                target = Fraction(rng.randint(6 * den, (3 * bound) * den), den)
                if not any(max(s[2]) <= bound for s in oracle.pillows_with_c(target)):
                    break
        ops.append({"kind": "invert", "class": kind, "bound": bound, "target": str(target),
                    "argv": [kind, str(bound), str(target)]})
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------- spectra

# Trace times are drawn log-uniformly over [1e-8, 1e-1], one per half-decade
# bin, so every round covers the whole range: theta1's cost grows as t^-1/2,
# and an unstratified draw would let the few smallest t set the throughput.
TRACE_BINS = tuple(-8 + 0.5 * i for i in range(14))
# Every other argument is drawn per op too, so no op in the one library
# process repeats another's arguments, and caching results by argument
# gains nothing. Each draw lies within a factor 10^JITTER_DECADES of a
# fixed point: the oracle times of acceptance criterion 5, and the starts
# of the default verify grid and of the 1e-3 grid that criterion 4 holds to
# 1e-9. The oracle cutoffs lie at or above criterion 5's 80 pi^2 (shells
# n <= 20), where the truncated tail stays below 1e-13 of the trace.
JITTER_DECADES = 0.1
ORACLE_TIMES = (0.05, 0.1, 0.2)
SMALL_CUTOFFS = (80 * math.pi**2, 120 * math.pi**2)  # shells n <= 20 .. n <= 30
LARGE_CUTOFFS = (4 * math.pi**2 * 5e3, 4 * math.pi**2 * 1e4)  # shells n <= 5e3 .. n <= 1e4
GRIDS = {"default": 1e-2, "1e-3": 1e-3}


def _near(rng, x: float) -> float:
    return x * 10 ** rng.uniform(-JITTER_DECADES, JITTER_DECADES)


def spectra_round(rng) -> list:
    ops = [{"kind": "trace", "t": 10 ** rng.uniform(lo, lo + 0.5)} for lo in TRACE_BINS]
    ops += [{"kind": "verify", "model": m, "grid": g, "start": _near(rng, start)}
            for m in oracle.MODELS for g, start in GRIDS.items()]
    ops += [
        {"kind": "oracle", "model": m, "t": _near(rng, t), "cutoff": rng.uniform(*SMALL_CUTOFFS)}
        for m in oracle.MODELS
        for t in ORACLE_TIMES
    ]
    ops.append({"kind": "oracle", "model": rng.choice(oracle.MODELS),
                "t": 10 ** rng.uniform(-2, math.log10(0.2)), "cutoff": rng.uniform(*LARGE_CUTOFFS)})
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------- queries

# Each subcommand the queries workload covers gets the same weight,
# QUERY_REPEATS ops a round. No usage data says which subcommands users run
# more, so the mix is an assumption, not measured traffic. The classify
# slots rotate through its three subjects, and one malformed notation per
# round makes 1/21 (~5%) of the ops malformed.
QUERY_KINDS = ("parse", "chi", "c", "expansion", "classify", "trace", "fit", "verify", "tables", "scan")
QUERY_REPEATS = 2
CLASSIFY_SUBJECTS = ("classify-spherical", "classify-positive-zero", "classify-pillow-negative")
CLASSES = ("teardrops-footballs", "class-c", "pillows", "spherical")
# Query scans rotate through CLASSES, with seeded bounds up to
# QUERY_SCAN_BOUND. Pillows grow as bound^3, so theirs is fixed at the lower
# QUERY_PILLOW_BOUND: every run of two or more rounds then has the same
# memory-heaviest op, and its peak RSS does not depend on the seed.
QUERY_SCAN_BOUND = 60
QUERY_PILLOW_BOUND = 40


def _order(rng) -> int:
    return rng.randint(2, 12) if rng.random() < 0.7 else int(10 ** rng.uniform(1, 4))


def random_signature(rng):
    h = rng.choice((0, 0, 1, 2))
    x = rng.choice((0, 0, 0, 1, 2))
    cones = [_order(rng) for _ in range(rng.randint(0, 4))]
    bounds = [[_order(rng) for _ in range(rng.randint(0, 3))] for _ in range(rng.choice((0, 0, 1, 2)))]
    return oracle.sig(cones, bounds, h, x)


def notation_text(rng, s) -> str:
    """Non-canonical but valid text for s: input order, mixed separators."""
    h, x, cones, bounds = s
    atoms = ["o"] * h + [str(m) for m in cones]
    for b in bounds:
        atoms += ["*"] + [str(n) for n in b]
    atoms += ["x"] * x
    return "".join(a + rng.choice((",", ", ", " ")) for a in atoms).rstrip(", ")


def malformed_text(rng, s):
    """(text, position) of a notation with one injected fault."""
    text = notation_text(rng, s)
    choice = rng.randrange(3)
    if choice == 0:
        # Never split a digit run: "1#2" would fail at the "1", not the "#".
        cuts = [i for i in range(len(text) + 1)
                if not (0 < i < len(text) and text[i - 1].isdigit() and text[i].isdigit())]
        pos = rng.choice(cuts)
        return text[:pos] + rng.choice("#@!?%$;") + text[pos:], pos
    if choice == 1 or not (s[1] or s[2] or s[3]):
        # An order below 2.
        return ("1," + text, 0) if rng.random() < 0.5 else (text + ",1", len(text) + 1)
    # A handle after a cone point or mirror.
    return text + ",o", len(text) + 1


@lru_cache(maxsize=None)
def _pool_and_groups(name: str):
    pool = oracle.roster("spherical", 30) if name == "spherical" else nonnegative_pool()
    return pool, list(oracle.collision_groups(pool).values())


def _spherical_pair(rng):
    pool, groups = _pool_and_groups("spherical")
    while True:
        if rng.random() < 0.5:
            a, b = rng.sample(rng.choice(groups), 2)
        else:
            a, b = rng.choice(pool), rng.choice(pool)
        if oracle.spherical_verdict(a, b) is not None:
            return a, b


def nonnegative_pool() -> list:
    """chi >= 0 signatures: class C plus the mirrored Table 1 shapes."""
    pool = oracle.roster("class-c", 20)
    for m in range(2, 21):
        pool += [oracle.sig((), [[m]]), oracle.sig((m,), (), 0, 1), oracle.sig((m,), [[]]),
                 oracle.sig((), [[2, 2, m]]), oracle.sig((2,), [[m]])]
        pool += [oracle.sig((), [[m, n]]) for n in range(m, 21)]
    for text in ("*2,3,3", "3,*2", "*2,3,4", "*2,3,5", "*2,2,2,2", "2,*2,2", "*2,4,4", "4,*2",
                 "*3,3,3", "3,*3", "*2,3,6"):
        cones, corners = text.split("*")
        pool.append(oracle.sig([int(v) for v in cones.split(",") if v], [[int(v) for v in corners.split(",") if v]]))
    pool += [oracle.sig((), (), 0, 2), oracle.sig((), [[], []]), oracle.sig((), [[]], 0, 1),
             oracle.sig((2, 2), [[]]), oracle.sig((2, 2), (), 0, 1)]
    return pool


def _positive_zero_pair(rng):
    pool, groups = _pool_and_groups("nonnegative")
    if rng.random() < 0.5:
        return tuple(rng.sample(rng.choice(groups), 2))
    return rng.choice(pool), rng.choice(pool)


def _pillow_negative_c(rng) -> Fraction:
    source = rng.randrange(3)
    if source == 0:
        while True:
            s = oracle.sig(_random_pillow(rng, 60))
            if oracle.frac(oracle.chi_value(s)) < 0:
                return oracle.frac(oracle.c_value(s))
    if source == 1:
        m = rng.randint(2, 60)
        return oracle.frac(oracle.c_value(oracle.sig((m,) if rng.random() < 0.5 else (2, 2, m))))
    den = rng.randint(2, 50)
    return Fraction(rng.randint(6 * den, 180 * den), den)


def query(kind: str, rng, slot: int = 0) -> dict:
    """One query op of the given kind; slot counts the kind's earlier ops."""
    if kind == "classify":
        kind = CLASSIFY_SUBJECTS[slot % len(CLASSIFY_SUBJECTS)]
    op = {"kind": kind}
    fmt = ["--format", "json"]
    if kind in ("parse", "chi", "c"):
        s = random_signature(rng)
        op.update(sig=s, argv=[kind, notation_text(rng, s)] + fmt)
    elif kind == "expansion":
        s = random_signature(rng)
        chi = oracle.frac(oracle.chi_value(s))
        K = (chi > 0) - (chi < 0)
        argv = ["expansion", notation_text(rng, s), f"--curvature={K}"]
        area = 2 * math.pi * float(chi) / K if K else rng.uniform(0.5, 2.0)
        if not K:
            argv += ["--area", repr(area)]
        L = rng.uniform(0.5, 3.0) if s[3] else 0.0
        if L:
            argv += ["--mirror-length", repr(L)]
        op.update(sig=s, K=K, area=area, L=L, argv=argv + fmt)
    elif kind == "classify-spherical":
        a, b = _spherical_pair(rng)
        op.update(pair=(a, b), argv=["classify", "--class", "spherical", "--pair",
                                     oracle.render(a), oracle.render(b)] + fmt)
    elif kind == "classify-positive-zero":
        a, b = _positive_zero_pair(rng)
        op.update(pair=(a, b), argv=["classify", "--class", "positive-zero", "--pair",
                                     oracle.render(a), oracle.render(b)] + fmt)
    elif kind == "classify-pillow-negative":
        c = _pillow_negative_c(rng)
        op.update(c=str(c), argv=["classify", "--class", "pillow-negative", "--c-value", str(c)] + fmt)
    elif kind == "trace":
        model, t = rng.choice(oracle.MODELS), 10 ** rng.uniform(-3, 0)
        op.update(model=model, t=t, argv=["trace", "--model", model, "--t", repr(t)] + fmt)
    elif kind in ("fit", "verify"):
        model = rng.choice(oracle.MODELS)
        op.update(model=model, argv=[kind, "--model", model] + fmt)
    elif kind == "tables":
        which = rng.choice((1, 2))
        op.update(which=which, argv=["tables", "--which", str(which)] + fmt)
    elif kind == "scan":
        cls = CLASSES[slot % len(CLASSES)]
        bound = QUERY_PILLOW_BOUND if cls == "pillows" else rng.randint(20, QUERY_SCAN_BOUND)
        op.update({"class": cls, "bound": bound,
                   "argv": ["scan", "--class", cls, "--bound", str(bound)] + fmt})
    elif kind == "malformed":
        text, pos = malformed_text(rng, random_signature(rng))
        op.update(position=pos, argv=[rng.choice(("parse", "chi", "c")), text] + fmt)
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    return op


def queries_round(rng, index: int) -> list:
    ops = [query(kind, rng, QUERY_REPEATS * index + j) for kind in QUERY_KINDS for j in range(QUERY_REPEATS)]
    ops.append(query("malformed", rng))
    rng.shuffle(ops)
    return ops
