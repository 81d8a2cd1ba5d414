"""Heat-trace expansion coefficients and spectral invariants of closed 2-orbifolds.

The package computes the five leading heat-trace asymptotic coefficients
of closed 2-dimensional Riemannian orbifolds of constant curvature,
parses and prints the compact orbifold notation, verifies the
coefficients numerically against the exact spectra of the five flat
square-torus quotients, and implements the classification procedures
that decide when the spectral invariants distinguish two orbifolds.
"""

from .classify import (
    AmbiguousZero,
    ClassKind,
    CollisionPair,
    CurvatureSign,
    OrbifoldClass,
    PillowSeparation,
    UnsupportedFamily,
    Verdict,
    c_preimage,
    collision_groups,
    curvature_sign,
    enumerate_class,
    injectivity_scan,
    pillow_negative_vs_rest,
    positive_vs_zero_chi,
    roster_size,
    spherical_distinguish,
    unit_sphere_mirror_length,
)
from .flat import (
    FitResult,
    FlatModel,
    IllConditioned,
    InsufficientSamples,
    TraceSamples,
    brute_force_trace,
    default_grid,
    eigenvalue_multiplicities,
    fit_expansion,
    heat_trace,
    predicted_expansion,
    sample_trace,
    theta1,
    verify_model,
)
from .heat import (
    DEGREES,
    GaussBonnetViolation,
    HeatExpansion,
    MetricData,
    c_ratio,
    coefficient_half,
    coefficient_minus_half,
    coefficient_minus_one,
    coefficient_one,
    degree_zero_term,
    full_expansion,
    has_half_integer_terms,
    spectral_c,
)
from .notation import ALIASES, NotationError, NotationErrorKind, parse, render
from .signature import (
    GeometryType,
    OrbifoldSignature,
    SignatureError,
    euler_characteristic,
    geometry_type,
    is_bad,
    is_orientable,
    rational_from_json,
    rational_to_json,
    signature_from_json,
    signature_to_json,
)
from .tables import verify_table1, verify_table2

__version__ = "0.1.0"
