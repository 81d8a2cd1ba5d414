"""Acceptance suite: the nine headline checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with its wall time.
Criterion 4 checks the t -> 0 asymptotic coefficients of the flat
models.  Closed geodesics add exp(-l^2/(4t)) terms to the heat trace
that lie outside that expansion; the Klein bottle's glide geodesic
(l = 1/2) adds 5.4e-3 at t = 0.01.  The test therefore removes this
exponentially small remainder from every sample, computed here from
Jacobi's dual theta sum, before fitting, and reports the uncorrected
Klein miss on its [PASS] line.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import pytest

from orbheat.classify import (
    ClassKind,
    OrbifoldClass,
    Verdict,
    collision_groups,
    curvature_sign,
    CurvatureSign,
    injectivity_scan,
    spherical_distinguish,
    unit_sphere_mirror_length,
)
from orbheat.flat import (
    FlatModel,
    TraceSamples,
    brute_force_trace,
    fit_expansion,
    heat_trace,
    predicted_expansion,
    sample_trace,
)
from orbheat.heat import (
    MetricData,
    coefficient_one,
    full_expansion,
    has_half_integer_terms,
)
from orbheat.notation import parse, render
from orbheat.signature import OrbifoldSignature, euler_characteristic, spectral_c
from orbheat.tables import TABLE2_FIXED, verify_table1, verify_table2
from test_trigsums import cosecant_sum_numeric

FIT_DEGREES = (Fraction(-1), Fraction(-1, 2), Fraction(0))


def report(number, description, ok, elapsed, extra=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {description} ({elapsed:.2f} s)"
    if extra:
        line += f" -- {extra}"
    print(line)


def gauss_bonnet_metric(sig, curvature, mirror_length=0.0):
    area = 2.0 * math.pi * float(euler_characteristic(sig)) / float(curvature)
    return MetricData(curvature, area, mirror_length=mirror_length)


def test_criterion_01_pillow_table_reproduction():
    started = time.monotonic()
    mismatches = verify_table2()
    spot_ok = True
    table = {n: (chi, c) for n, chi, c in TABLE2_FIXED}
    spot_ok &= table["2,3,5"] == (Fraction(1, 30), Fraction(271, 30))
    spot_ok &= table["3,3,4"] == (Fraction(-1, 12), Fraction(107, 12))
    spot_ok &= spectral_c(parse("2,3,5")) == Fraction(271, 30)
    elapsed = time.monotonic() - started
    ok = mismatches == [] and spot_ok and elapsed < 1.0
    report(1, "triangular-pillow (chi, c) table reproduced exactly", ok, elapsed)
    assert mismatches == []
    assert spot_ok
    assert elapsed < 1.0


def test_criterion_02_degree_zero_table_reproduction():
    started = time.monotonic()
    mismatches = verify_table1()
    spot = {
        "2,3,5": Fraction(271, 360),
        "*2,3,4": Fraction(97, 288),
        "2,2,2,2": Fraction(1, 2),
        "2,2×": Fraction(1, 4),
        "o": Fraction(0),
        "××": Fraction(0),
    }
    from orbheat.heat import degree_zero_term

    spot_ok = all(degree_zero_term(parse(n)) == v for n, v in spot.items())
    elapsed = time.monotonic() - started
    ok = mismatches == [] and spot_ok and elapsed < 1.0
    report(2, "degree-0 constants table reproduced exactly", ok, elapsed)
    assert mismatches == []
    assert spot_ok
    assert elapsed < 1.0


def singular_stratum_sums(m):
    """(csc^2 sum, csc^4 sum) of order m >= 2 as the program's cone and corner terms give them.

    A cone of order m adds (m^2-1)/m to c - 2 chi and K (m^4+10m^2-11)/(360m)
    to the degree-1 coefficient; a corner adds half of each.
    """
    sphere = OrbifoldSignature()
    unit = MetricData(1, 4 * math.pi)
    out = []
    for sig, weight in (
        (OrbifoldSignature(cone_points=(m,)), m),
        (OrbifoldSignature(mirror_boundaries=((m,),)), 2 * m),
    ):
        csc2 = weight * (spectral_c(sig) - 2 * euler_characteristic(sig)) / 3
        csc4 = 8 * weight * (coefficient_one(sig, unit) - coefficient_one(sphere, unit))
        out += [(csc2, 2), (csc4, 4)]
    return out


def test_criterion_03_trig_identities():
    started = time.monotonic()
    worst = 0.0
    # the numeric sums are empty at m = 1, which has no cone or corner
    assert cosecant_sum_numeric(1, 2) == cosecant_sum_numeric(1, 4) == 0.0
    for m in range(2, 501):
        for closed, power in singular_stratum_sums(m):
            numeric = cosecant_sum_numeric(m, power)
            rel = abs(numeric - float(closed)) / float(closed)
            worst = max(worst, rel)
            assert rel <= 1e-9, f"m={m} power={power} rel={rel:.3e}"
    elapsed = time.monotonic() - started
    ok = elapsed < 5.0
    report(3, "cosecant power sums match the cone and corner terms of c and degree 1 to 1e-9",
           ok, elapsed, extra=f"worst rel err {worst:.2e}")
    assert elapsed < 5.0


def dual_theta(t, with_geodesics=True):
    """theta1(t) by Jacobi's dual sum (4 pi t)^(-1/2) sum_k exp(-k^2/(4t)).

    The k = 0 term is the part the t -> 0 expansion sees; the k != 0
    terms are the closed geodesics of length |k| on the unit circle and
    are left out when with_geodesics is false.
    """
    total = 1.0
    # terms below 1e-17 vanish against the k = 0 term in double precision
    if with_geodesics:
        k = 1
        while (term := 2.0 * math.exp(-k * k / (4.0 * t))) > 1e-17:
            total += term
            k += 1
    return total / math.sqrt(4.0 * math.pi * t)


# Each flat model's trace as a function of theta1(t) and theta1(4t),
# restated from the table in orbheat.flat.
TRACE_FORMS = {
    FlatModel.TORUS: lambda th, th4: th * th,
    FlatModel.KLEIN_BOTTLE: lambda th, th4: th4 + (th * th - th) / 2.0,
    FlatModel.PILLOWCASE: lambda th, th4: (th * th + 1.0) / 2.0,
    FlatModel.SQUARE: lambda th, th4: ((th + 1.0) / 2.0) ** 2,
    FlatModel.MIRROR_TORUS: lambda th, th4: (th * th + th) / 2.0,
}


def geodesic_remainder(model, t):
    """The exponentially small part of the trace outside its t -> 0 expansion."""
    form = TRACE_FORMS[model]
    full = form(dual_theta(t), dual_theta(4.0 * t))
    asymptotic = form(dual_theta(t, False), dual_theta(4.0 * t, False))
    return full - asymptotic


def test_criterion_04_flat_spectrum_fits():
    started = time.monotonic()
    grid = tuple(0.01 * 0.7**i for i in range(12))
    violations = []
    for model in FlatModel:
        predicted = predicted_expansion(model)
        samples = sample_trace(model, grid)
        asymptotic = TraceSamples(tuple(
            (t, value - geodesic_remainder(model, t)) for t, value in samples.points
        ))
        fit = fit_expansion(asymptotic)
        for degree in FIT_DEGREES:
            target = predicted.as_float(degree)
            got = fit.coefficients[degree]
            err = abs(got - target)
            bound = 1e-6 * abs(target) if target != 0 else 1e-6
            if err > bound:
                violations.append(
                    f"{model.value} deg {float(degree):g}: fitted {got!r}, "
                    f"predicted {target!r}, err {err:.3e} > {bound:.1e}"
                )
    klein = FlatModel.KLEIN_BOTTLE
    raw = fit_expansion(sample_trace(klein, grid))
    glide_miss = abs(raw.coefficients[Fraction(0)] - predicted_expansion(klein).as_float(0))
    elapsed = time.monotonic() - started
    ok = not violations and elapsed < 10.0
    report(4, "flat-model fits on the 1e-2 * 0.7^i grid recover coefficients to 1e-6",
           ok, elapsed,
           extra=f"uncorrected Klein deg-0 miss {glide_miss:.2e} (glide geodesic)")
    if violations:
        pytest.fail(
            "fit with the closed-geodesic remainder removed misses the "
            "predicted coefficients:\n  " + "\n  ".join(violations)
        )
    assert elapsed < 10.0


def test_criterion_05_oracle_equivalence():
    started = time.monotonic()
    cutoff = 80 * math.pi**2
    worst = 0.0
    for model in FlatModel:
        for t in (0.05, 0.1, 0.2):
            closed = heat_trace(model, t)
            brute = brute_force_trace(model, t, cutoff)
            worst = max(worst, abs(closed - brute))
            assert abs(closed - brute) < 1e-10, (model, t)
    elapsed = time.monotonic() - started
    ok = elapsed < 30.0
    report(5, "closed-form trace equals group-averaged eigenfunction sum",
           ok, elapsed, extra=f"worst abs diff {worst:.2e}")
    assert elapsed < 30.0


def test_criterion_06_injectivity_scans_at_full_bound():
    started = time.monotonic()
    tf = OrbifoldClass(ClassKind.TEARDROPS_AND_FOOTBALLS, 500)
    cc = OrbifoldClass(ClassKind.CLASS_C_ORIENTABLE, 500)
    tf_pairs = injectivity_scan(tf)
    cc_pairs = injectivity_scan(cc)
    elapsed = time.monotonic() - started
    ok = tf_pairs == () and cc_pairs == () and elapsed < 60.0
    report(6, "c is collision-free on teardrops+footballs and class C to order 500",
           ok, elapsed)
    assert tf_pairs == ()
    assert cc_pairs == ()
    assert elapsed < 60.0


def test_criterion_07_spherical_roster_scan():
    started = time.monotonic()
    cls = OrbifoldClass(ClassKind.SPHERICAL_CONSTANT_CURVATURE, 50)
    groups = collision_groups(cls)
    found = {frozenset(render(s) for s in sigs) for sigs in groups.values()}
    expected = set()
    for m in range(2, 51):
        expected.add(frozenset({f"*{m},{m}", f"{m}×", f"{m},*"}))
        if m == 15:
            # (2,3,5) shares the constant 271/30 with the m = 15 cover pair
            expected.add(frozenset({"*2,2,15", "2,*15", "2,3,5"}))
        else:
            expected.add(frozenset({f"*2,2,{m}", f"2,*{m}"}))
    expected.add(frozenset({"*2,3,3", "3,*2"}))
    structure_ok = found == expected

    pairs = injectivity_scan(cls)
    resolved = all(
        spherical_distinguish(p.sig_a, p.sig_b) != Verdict.NOT_DISTINGUISHED
        for p in pairs
    )
    lengths_ok = True
    pi = math.pi
    for m in range(2, 51):
        lengths_ok &= unit_sphere_mirror_length(parse(f"*2,2,{m}")) > pi
        lengths_ok &= 2 * pi > unit_sphere_mirror_length(parse(f"{m},*"))
    lengths_ok &= unit_sphere_mirror_length(parse("*2,3,3")) > unit_sphere_mirror_length(parse("3,*2"))
    elapsed = time.monotonic() - started
    ok = structure_ok and resolved and lengths_ok and elapsed < 10.0
    report(7, "order-50 spherical scan: cover-collision groups found and all resolved",
           ok, elapsed, extra=f"{len(pairs)} collision pairs in {len(groups)} groups")
    assert structure_ok
    assert resolved
    assert lengths_ok
    assert elapsed < 10.0


SPHERICAL_SIGNATURES = (
    "", "2,2", "3,3", "4,4", "5,5", "6,6",
    "2,2,2", "2,2,3", "2,2,4", "2,2,5",
    "2,3,3", "2,3,4", "2,3,5",
    "*2,2", "*3,3", "*4,4",
    "2*", "3*", "2×", "3×",
)

HYPERBOLIC_SIGNATURES = (
    "o,o", "o,o,o", "o,o,o,o", "o,o,o,o,o",
    "×××", "××××", "×××××",
    "2,3,7", "2,3,8", "2,4,5", "3,3,4", "3,4,4", "3,3,5",
    "2,2,2,3", "2,3,3,4", "2,2,3,3",
    "*2,3,7", "2,2,*2", "o,2", "o,*",
)


def test_criterion_08_curvature_sign_recovery():
    started = time.monotonic()
    assert len(SPHERICAL_SIGNATURES) == 20
    assert len(HYPERBOLIC_SIGNATURES) == 20
    failures = []
    for notation in SPHERICAL_SIGNATURES:
        sig = parse(notation)
        mirror_length = 1.0 if sig.has_mirrors else 0.0
        expansion = full_expansion(sig, gauss_bonnet_metric(sig, Fraction(1), mirror_length))
        if curvature_sign(expansion, 1.0, sig) != CurvatureSign.POSITIVE:
            failures.append(notation or "<sphere>")
    for notation in HYPERBOLIC_SIGNATURES:
        sig = parse(notation)
        mirror_length = 1.0 if sig.has_mirrors else 0.0
        expansion = full_expansion(sig, gauss_bonnet_metric(sig, Fraction(-1), mirror_length))
        if curvature_sign(expansion, 1.0, sig) != CurvatureSign.NEGATIVE:
            failures.append(notation)
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 1.0
    report(8, "curvature sign recovered for 20 spherical and 20 hyperbolic cases",
           ok, elapsed)
    assert failures == []
    assert elapsed < 1.0


def enumerate_signatures():
    """10584 signatures mixing handles, crosscaps, cones, and boundaries."""
    cone_choices = [
        tuple(c)
        for size in range(0, 4)
        for c in itertools.combinations_with_replacement((2, 3, 4, 5, 6), size)
    ]
    corner_options = ((), (2,), (3,), (2, 2), (2, 4))
    boundary_choices = [
        tuple(b)
        for size in range(0, 3)
        for b in itertools.combinations_with_replacement(corner_options, size)
    ]
    for handles in range(3):
        for crosscaps in range(3):
            for cones in cone_choices:
                for boundaries in boundary_choices:
                    yield OrbifoldSignature(
                        handles=handles,
                        crosscaps=crosscaps,
                        cone_points=cones,
                        mirror_boundaries=boundaries,
                    )


def test_criterion_09_half_integer_term_predicate():
    started = time.monotonic()
    count = 0
    for sig in enumerate_signatures():
        assert has_half_integer_terms(sig) == sig.has_mirrors
        assert has_half_integer_terms(sig) == ("*" in render(sig))
        count += 1
    assert count >= 10_000

    # fitted t^{-1/2} coefficients split the models the same way; the grid
    # starts at 1e-3 so the Klein glide term (exp(-1/(16t)) scale) is dead
    grid = tuple(1e-3 * 0.7**i for i in range(12))
    half = Fraction(-1, 2)
    fitted = {
        model: fit_expansion(sample_trace(model, grid)).coefficients[half]
        for model in FlatModel
    }
    mirrored_ok = fitted[FlatModel.SQUARE] > 0.1 and fitted[FlatModel.MIRROR_TORUS] > 0.1
    unmirrored_ok = all(
        abs(fitted[m]) < 1e-6
        for m in (FlatModel.TORUS, FlatModel.KLEIN_BOTTLE, FlatModel.PILLOWCASE)
    )
    elapsed = time.monotonic() - started
    ok = mirrored_ok and unmirrored_ok
    report(9, f"half-integer terms appear exactly for mirrored signatures ({count} enumerated)",
           ok, elapsed)
    assert mirrored_ok
    assert unmirrored_ok
