"""Heat-trace expansion coefficients and spectral invariants of closed 2-orbifolds.

The package computes the five leading heat-trace asymptotic coefficients
of closed 2-dimensional Riemannian orbifolds of constant curvature,
parses and prints the compact orbifold notation, verifies the
coefficients numerically against the exact spectra of the five flat
square-torus quotients, and implements the classification procedures
that decide when the spectral invariants distinguish two orbifolds.
"""

from importlib import import_module

# Public name -> the submodule that defines it.  Names are imported on first
# use (PEP 562), so `import orbheat.classify`, or a command-line run, loads
# only the submodules it needs.
_EXPORTS = {
    "classify": (
        "AmbiguousZero",
        "ClassKind",
        "CollisionPair",
        "CurvatureSign",
        "OrbifoldClass",
        "PillowSeparation",
        "UnsupportedFamily",
        "Verdict",
        "c_preimage",
        "collision_groups",
        "curvature_sign",
        "enumerate_class",
        "injectivity_scan",
        "pillow_negative_vs_rest",
        "positive_vs_zero_chi",
        "roster_size",
        "spherical_distinguish",
        "unit_sphere_mirror_length",
    ),
    "flat": (
        "FitResult",
        "FlatModel",
        "IllConditioned",
        "InsufficientSamples",
        "TraceSamples",
        "brute_force_trace",
        "default_grid",
        "eigenvalue_multiplicities",
        "fit_expansion",
        "heat_trace",
        "predicted_expansion",
        "sample_trace",
        "theta1",
        "verify_model",
    ),
    "heat": (
        "DEGREES",
        "GaussBonnetViolation",
        "HeatExpansion",
        "MetricData",
        "coefficient_half",
        "coefficient_minus_half",
        "coefficient_minus_one",
        "coefficient_one",
        "full_expansion",
        "has_half_integer_terms",
    ),
    "notation": ("ALIASES", "NotationError", "NotationErrorKind", "parse", "render"),
    "signature": (
        "GeometryType",
        "OrbifoldSignature",
        "SignatureError",
        "c_ratio",
        "degree_zero_term",
        "euler_characteristic",
        "geometry_type",
        "is_bad",
        "rational_to_json",
        "signature_to_json",
        "spectral_c",
    ),
    "tables": ("verify_table1", "verify_table2"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
