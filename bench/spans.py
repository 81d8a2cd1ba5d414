"""Stage tracing from outside the program.

The traced run replaces the names that orbheat's modules and the
benchmark's own drivers call orbheat through (orbheat.classify.spectral_c,
orbheat.flat.theta1, invert.c_preimage, ...) with timing wrappers for the
duration of the run, and restores them afterwards. No file under src/
changes; every span is recorded by this file.

Each stage keeps its call count, inclusive busy time and self time (busy
time minus the time of the traced stages it called). Per-call spans would
number in the millions on the scan workload, so calls are aggregated per
operation: each op is one root span carrying its stages' totals. The spans
stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import importlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, stage). A module that no longer has the attribute is
# skipped, and its stage then reports no calls.
STAGES = (
    ("invert", "c_preimage", "classify.c_preimage"),
    ("orbheat.classify", "collision_groups", "classify.group"),
    ("orbheat.classify", "enumerate_class", "classify.enumerate"),
    ("orbheat.cli", "enumerate_class", "classify.enumerate"),
    ("orbheat.cli", "pillow_negative_vs_rest", "classify.pillow_negative"),
    ("orbheat.classify", "OrbifoldSignature", "signature.construct"),
    ("orbheat.notation", "OrbifoldSignature", "signature.construct"),
    ("orbheat.heat", "euler_characteristic", "signature.chi"),
    ("orbheat.classify", "euler_characteristic", "signature.chi"),
    ("orbheat.cli", "euler_characteristic", "signature.chi"),
    ("orbheat.tables", "euler_characteristic", "signature.chi"),
    ("orbheat.classify", "spectral_c", "heat.spectral_c"),
    ("orbheat.cli", "spectral_c", "heat.spectral_c"),
    ("orbheat.tables", "spectral_c", "heat.spectral_c"),
    ("orbheat.cli", "full_expansion", "heat.full_expansion"),
    ("orbheat.flat", "full_expansion", "heat.full_expansion"),
    ("orbheat.cli", "parse", "notation.parse"),
    ("orbheat.tables", "parse", "notation.parse"),
    ("orbheat.cli", "render", "notation.render"),
    ("orbheat.classify", "render", "notation.render"),
    ("orbheat.cli", "verify_table1", "tables.verify"),
    ("orbheat.cli", "verify_table2", "tables.verify"),
    ("orbheat.flat", "theta1", "flat.theta1"),
    ("orbheat.flat", "heat_trace", "flat.heat_trace"),
    ("orbheat.cli", "heat_trace", "flat.heat_trace"),
    ("spectra_child", "heat_trace", "flat.heat_trace"),
    ("orbheat.flat", "eigenvalue_multiplicities", "flat.multiplicities"),
    ("orbheat.flat", "fit_expansion", "flat.fit"),
    ("orbheat.cli", "fit_expansion", "flat.fit"),
    ("orbheat.cli", "verify_model", "flat.verify"),
    ("spectra_child", "verify_model", "flat.verify"),
    ("spectra_child", "brute_force_trace", "flat.brute_force"),
)

SMALL_T = 1e-4
FOUR_PI_SQ = 4 * math.pi**2


@dataclass
class Stage:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    count: int = 0  # work items: members enumerated, lattice points, ...
    small_t_s: float = 0.0  # theta1 busy time at t < SMALL_T
    condition: float = 0.0  # largest fit condition number seen
    residual: float = 0.0  # largest fit residual seen


def _observe(stage: str, st: Stage, args, result, elapsed: float) -> None:
    if stage in ("classify.enumerate", "classify.group"):
        st.count += len(result)
    elif stage == "flat.theta1" and args[0] < SMALL_T:
        st.small_t_s += elapsed
    elif stage == "flat.multiplicities":
        # Lattice points the (k, l) double loop visits, computed from the cutoff.
        kmax = math.isqrt(int(args[1] / FOUR_PI_SQ))
        st.count += (2 * kmax + 1) ** 2
    elif stage == "flat.fit":
        st.condition = max(st.condition, result.condition)
        st.residual = max(st.residual, result.residual)


@dataclass
class Span:
    op: int
    kind: str
    start: float
    end: float = 0.0
    stages: dict = field(default_factory=dict)  # stage -> Stage, this op only


class Tracer:
    def __init__(self):
        self._stack = []  # child-time accumulator of every open stage
        self.spans = []
        self.origin = time.perf_counter()

    def wrap(self, stage: str, fn):
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._stack.pop()
                self._stack[-1][0] += elapsed
                st = self.spans[-1].stages.setdefault(stage, Stage())
                st.calls += 1
                st.busy_s += elapsed
                st.self_s += elapsed - frame[0]
            _observe(stage, st, args, result, elapsed)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every STAGES name by its wrapper; restore them on exit."""
        saved = []
        # Import every module before patching any: a module imported midway
        # would bind an already-patched name and keep it after the restore.
        modules = {name: importlib.import_module(name) for name, _, _ in STAGES}
        try:
            for module_name, attr, stage in STAGES:
                module = modules[module_name]
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(stage, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def op(self, kind: str):
        """Root span of one operation; the stages it reaches aggregate under it."""
        span = Span(op=len(self.spans), kind=kind, start=time.perf_counter() - self.origin)
        self.spans.append(span)
        root = [0.0]
        self._stack.append(root)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter() - self.origin
            span.stages["op"] = Stage(calls=1, busy_s=span.end - span.start,
                                      self_s=span.end - span.start - root[0])

    def totals(self, kinds=None) -> dict:
        """Stage -> Stage summed over the spans of the given op kinds (all if None)."""
        out = {}
        for span in self.spans:
            if kinds is not None and span.kind not in kinds:
                continue
            for name, st in span.stages.items():
                acc = out.setdefault(name, Stage())
                acc.calls += st.calls
                acc.busy_s += st.busy_s
                acc.self_s += st.self_s
                acc.count += st.count
                acc.small_t_s += st.small_t_s
                acc.condition = max(acc.condition, st.condition)
                acc.residual = max(acc.residual, st.residual)
        return out

    def wall(self) -> float:
        return sum(span.end - span.start for span in self.spans)

    def to_json(self) -> list:
        return [
            {"op": s.op, "kind": s.kind, "start_s": s.start, "end_s": s.end,
             "stages": {name: vars(st) for name, st in s.stages.items()}}
            for s in self.spans
        ]
