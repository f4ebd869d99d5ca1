"""Span recorder for the traced run, wrapped around malab's public functions.

Tracing is done from outside the package: `Recorder.installed()` rebinds
each listed function to a timing wrapper in its defining module and in
every malab module that imported it by name, and restores the originals
on exit. A wrapper records a span only while an op is open, so set-up,
untimed input generation and output checks leave no spans. Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
import weakref
from dataclasses import dataclass, field

from stats import median, ratio


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _newton_attrs(rec, sol) -> dict:
    # log rows are (iter, residual, damping, min_eig); row 0 is the initial
    # guess, and each accepted step's damping is 2^-(backtracks)
    steps = sol.log[1:]
    return {"iters": len(steps),
            "backtracks": sum(round(-math.log2(row[2])) for row in steps)}


def _stencil_attrs(rec, ops) -> dict:
    # a hit is the very object returned before; weak values so the
    # recorder keeps nothing alive that the program let go
    hit = rec.returned.get(id(ops)) is ops
    rec.returned[id(ops)] = ops
    return {"hit": hit}


def _bundle_attrs(rec, bundle) -> dict:
    return {"k_effective": bundle.K_effective}


# (module, function, span name, attribute hook on the result)
TARGETS = (
    ("malab.grid", "build_disk", "grid.build", None),
    ("malab.grid", "build_ellipse", "grid.build", None),
    ("malab.grid", "normal_derivative", "grid.normal_derivative", None),
    ("malab.grid", "boundary_restrict", "grid.boundary_restrict", None),
    ("malab.maforward", "build_stencil_ops", "maforward.build_stencil_ops",
     _stencil_attrs),
    ("malab.maforward", "poisson_init", "maforward.poisson_init", None),
    ("malab.maforward", "solve_ma", "maforward.solve_ma", _newton_attrs),
    ("malab.maforward", "solve_ma_zero", "maforward.solve_ma_zero", None),
    ("malab.linearize", "nondiv_solve", "linearize.nondiv_solve", None),
    ("malab.linearize", "metric_from_solution",
     "linearize.metric_from_solution", None),
    ("malab.linearize", "drift_field", "linearize.drift_field", None),
    ("malab.dnmap", "dn_lin", "dnmap.dn_lin", None),
    ("malab.dnmap", "dn_lin_matrix", "dnmap.dn_lin_matrix", None),
    ("malab.complexcalc", "oscillatory_dbar_inv",
     "complexcalc.oscillatory_dbar_inv", None),
    ("malab.complexcalc", "cauchy_inverse", "complexcalc.cauchy_inverse", None),
    ("malab.complexcalc", "spectral_deriv", "complexcalc.spectral_deriv", None),
    ("malab.cgo", "build_cgo_holo", "cgo.build_cgo_holo", _bundle_attrs),
    ("malab.cgo", "neumann_T", "cgo.neumann_T", None),
    ("malab.cgo", "drift_residual", "cgo.drift_residual", None),
    ("malab.geomkit", "isothermal", "geomkit.isothermal", None),
    ("malab.geomkit", "invert_diffeo", "geomkit.invert_diffeo", None),
    ("malab.geomkit", "pullback_metric", "geomkit.pullback_metric", None),
)


class Recorder:
    """Keeps spans of one process; single caller, so one span stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self.returned = weakref.WeakValueDictionary()

    def wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, out)     # keeps the stencil-hit memory whole
                return out
            span = Span(len(self.spans), name, time.perf_counter(), math.nan,
                        self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if hook is not None:
                span.attrs.update(hook(self, out))
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target, wherever malab holds it by name."""
        saved = []
        try:
            for modname, attr, name, hook in TARGETS:
                orig = getattr(sys.modules[modname], attr)
                wrapper = self.wrap(orig, name, hook)
                for mod in [m for k, m in sys.modules.items()
                            if k == "malab" or k.startswith("malab.")]:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            saved.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, orig in reversed(saved):
                setattr(mod, key, orig)

    @contextlib.contextmanager
    def op_scope(self, op: int):
        self.op = op
        try:
            yield
        finally:
            self.op = None

    def to_json(self) -> list:
        return [[s.id, s.name, s.start, s.end, s.parent, s.op, s.attrs]
                for s in self.spans]


def self_time(span: Span, children: list) -> float:
    """span's duration minus the part of it that its children cover."""
    covered, reach = 0.0, span.start
    for lo, hi in sorted((c.start, min(c.end, span.end)) for c in children):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


# per-layer metrics: name -> (unit, better)
LAYER_METRICS = {
    "grid.build_s": ("s", "lower"),
    "grid.normal_derivative_s": ("s", "lower"),
    "grid.boundary_restrict_s": ("s", "lower"),
    "maforward.build_stencil_ops_miss_s": ("s", "lower"),
    "maforward.stencil_hit_ratio": ("ratio", "higher"),
    "maforward.poisson_init_s": ("s", "lower"),
    "maforward.solve_ma_s": ("s", "lower"),
    "maforward.solve_ma_zero_s": ("s", "lower"),
    "maforward.newton_iters": ("count", "lower"),
    "maforward.backtracks": ("count", "lower"),
    "maforward.newton_step_s": ("s", "lower"),
    "linearize.nondiv_solve_s": ("s", "lower"),
    "linearize.nondiv_calls": ("count", "lower"),
    "linearize.metric_from_solution_s": ("s", "lower"),
    "linearize.drift_field_s": ("s", "lower"),
    "dnmap.dn_lin_s": ("s", "lower"),
    "dnmap.dn_lin_matrix_s": ("s", "lower"),
    "complexcalc.oscillatory_dbar_inv_s": ("s", "lower"),
    "complexcalc.osc_calls": ("count", "lower"),
    "complexcalc.osc_self_s": ("s", "lower"),
    "complexcalc.cauchy_inverse_s": ("s", "lower"),
    "complexcalc.cauchy_calls": ("count", "lower"),
    "complexcalc.spectral_deriv_s": ("s", "lower"),
    "complexcalc.spectral_deriv_calls": ("count", "lower"),
    "cgo.build_cgo_holo_s": ("s", "lower"),
    "cgo.neumann_T_s": ("s", "lower"),
    "cgo.neumann_T_calls": ("count", "lower"),
    "cgo.drift_residual_s": ("s", "lower"),
    "cgo.k_effective": ("count", "higher"),
    "cgo.psi_reuse_ratio": ("ratio", "higher"),
    "geomkit.isothermal_s": ("s", "lower"),
    "geomkit.invert_diffeo_s": ("s", "lower"),
    "geomkit.pullback_metric_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}

# "<calls>" metrics: calls of the span of that name per traced op
_CALLS_OF = {
    "linearize.nondiv_calls": "linearize.nondiv_solve",
    "complexcalc.osc_calls": "complexcalc.oscillatory_dbar_inv",
    "complexcalc.cauchy_calls": "complexcalc.cauchy_inverse",
    "complexcalc.spectral_deriv_calls": "complexcalc.spectral_deriv",
    "cgo.neumann_T_calls": "cgo.neumann_T",
}


def layer_metrics(spans: list, n_ops: int) -> dict:
    """Per-layer values from the spans of n_ops traced ops.

    A layer the workload never calls reads 0: no calls, no time.
    """
    by_name: dict = {}
    children: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    # "<span>_s" is the median seconds per call of that span
    out = {f"{name}_s": median(s.duration for s in by_name.get(name, []))
           for _, _, name, _ in TARGETS if f"{name}_s" in LAYER_METRICS}
    out.update({m: ratio(len(by_name.get(name, [])), n_ops)
                for m, name in _CALLS_OF.items()})

    # a call that raised has no attributes: not a hit, and not a timed miss
    stencil = [s for s in by_name.get("maforward.build_stencil_ops", [])
               if s.attrs]
    out["maforward.build_stencil_ops_miss_s"] = median(
        s.duration for s in stencil if not s.attrs["hit"])
    out["maforward.stencil_hit_ratio"] = ratio(
        sum(s.attrs["hit"] for s in stencil), len(stencil))

    solves = [s for s in by_name.get("maforward.solve_ma", []) if s.attrs]
    out["maforward.newton_iters"] = ratio(
        sum(s.attrs["iters"] for s in solves), n_ops)
    out["maforward.backtracks"] = ratio(
        sum(s.attrs["backtracks"] for s in solves), n_ops)
    steps = []
    for s in solves:
        if s.attrs["iters"]:
            init = sum(c.duration for c in children.get(s.id, [])
                       if c.name == "maforward.poisson_init")
            steps.append((s.duration - init) / s.attrs["iters"])
    out["maforward.newton_step_s"] = median(steps)

    out["complexcalc.osc_self_s"] = median(
        [self_time(s, children.get(s.id, []))
         for s in by_name.get("complexcalc.oscillatory_dbar_inv", [])])
    bundles = [s for s in by_name.get("cgo.build_cgo_holo", []) if s.attrs]
    out["cgo.k_effective"] = ratio(
        sum(s.attrs["k_effective"] for s in bundles), n_ops)
    return out
