"""Linearizations of the Monge-Ampere equation around a convex base solution.

The base solution u0 induces a geometry: the covariant metric is the
Hessian D^2 u0, whose volume weight sqrt|g| equals sqrt F, and the stored
MetricField holds the inverse Hessian, which is both the contravariant
metric and the coefficient matrix of the linearized operator. The first
linearization solves g^{ab} d_ab v = 0 with the perturbation's boundary
data; the second linearization solves g^{ab} d_ab w = tr(G V1 G V2) with
zero data, where V_k are the Hessians of first-order solutions and G the
coefficient matrix. F times the linearized operator is cof(D^2 u0) : D^2,
which is formally self-adjoint in L^2(dx) (the cofactor matrix of a
Hessian is divergence-free), so the adjoint of step 7's pairing needs no
system of its own (dnmap.pairing_gap). Every system is assembled by
`maforward.StencilOps.system`, the sum of the operators that the Newton
Jacobian applies term by term, and goes through the sparse-LU layer of
`maforward`, split per metric: the system is assembled and factored
once, and every right side of that metric is solved against the one
factorization (nondiv_solve_many takes a block of boundary data as one
block). Every column must meet the residual bound ||A v - b|| <=
SOLVE_RTOL ||b||, or the solve raises LinearSolveFailure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexcalc import deriv
from .grid import (BoundaryTrace, DomainGrid, GridError, MetricField,
                   ScalarField, VectorField, _erode, _require_finite,
                   _require_grid, _require_metric, _require_positive,
                   _require_same_grid, lattice_values)
from .maforward import (LinearSolveFailure, MASolution, SparseLU,
                        build_stencil_ops, ring_values, solve_ma,
                        solve_ma_zero, source_grid, stencil_hessian)


ANISOTROPY_LIMIT = 20.0

# the residual bound ||A v - b|| <= SOLVE_RTOL ||b|| of every solve here
SOLVE_RTOL = 1e-10

# eps_consistency's boundary data steps: s EPS1 phi1 + s EPS2 phi2 per scale s
EPS1 = 0.1
EPS2 = 0.1


# ---------------------------------------------------------------------------
# geometry from the base solution


def solution_hessian(sol: MASolution):
    """Discrete Hessian entries of a base solution on the interior numbering.

    Uses the same stencil operators the Newton solver used, closed by the
    solution's data sol.phi, the rim rows included: their quadratic ghosts
    read the Hessian to first order there. For data given as a
    BoundaryTrace these are exactly the entries whose determinant met the
    residual target on every row. For other data sol.phi keeps only the
    ring trace, whose interpolant at the crossings differs from the data
    by rounding, so an entry differs from the solve's by that rounding
    times the row's weight, up to 2/(a (1 + a) dx^2) for a cut a (3.7e-9
    on the heaviest rim rows of the n = 168 ellipse (1.03, 0.92)).
    """
    grid = sol.u.grid
    ops = build_stencil_ops(grid)
    h11, h22, h12 = stencil_hessian(ops, sol.u.values[grid.mask],
                                    ops.crossing_values(sol.phi))
    return h11, h12, h22, ops


def metric_from_solution(sol: MASolution) -> MetricField:
    """Inverse Hessian of the base solution as the linearization coefficients.

    The returned MetricField stores the contravariant metric of the
    Hessian geometry; its matrix inverse is D^2 u0 and the covariant
    volume weight is sqrt det D^2 u0.
    """
    if not sol.convex:
        raise GridError("base solution carries no convexity certificate")
    h11, h12, h22, ops = solution_hessian(sol)
    det = h11 * h22 - h12 ** 2
    if np.min(det) <= 0.0 or np.min(h11) <= 0.0:
        raise GridError("base Hessian is not positive definite")
    m11 = ops.scatter(h22 / det)
    m12 = ops.scatter(-h12 / det)
    m22 = ops.scatter(h11 / det)
    return MetricField(m11, m12, m22, sol.u.grid)


def _volume_weight(g: MetricField, where) -> np.ndarray:
    """sqrt|g| of the covariant metric, 1 / sqrt(det of the stored matrix),
    on where (1 elsewhere), for a metric finite and positive definite there."""
    d = _require_metric(g, where)
    w = np.ones_like(g.g11)
    w[where] = 1.0 / np.sqrt(d[where])
    return w


def drift_field(g: MetricField) -> VectorField:
    """Drift of the Hessian geometry: X^b = |g|^{-1/2} d_a(|g|^{1/2} g^{ab}).

    g^{ab} is the stored coefficient matrix and |g|^{1/2} the covariant
    volume weight. The derivatives are the grid's own real ones (deriv):
    spectral on periodic boxes, masked differences on domain grids. The
    metric must be finite and positive definite on the domain's mask, or
    on the whole box.
    """
    grid = g.grid
    w = _volume_weight(g, grid.mask if isinstance(grid, DomainGrid)
                       else slice(None))
    c1 = deriv(w * g.g11, grid, 1, 0) + deriv(w * g.g12, grid, 0, 1)
    c2 = deriv(w * g.g12, grid, 1, 0) + deriv(w * g.g22, grid, 0, 1)
    return VectorField(c1 / w, c2 / w, grid)


# the plus-shaped neighbourhood of reach 2: the nodes two nested central
# differences read
_PLUS2 = [(k, 0) for k in (-2, -1, 1, 2)] + [(0, k) for k in (-2, -1, 1, 2)]


def divergence_form_apply(g: MetricField, X: VectorField, v: np.ndarray):
    """Apply (1/w) d_a(w g^{ab} d_b v) - X . grad v by explicit product rule.

    This is the divergence-form route to the same operator that
    nondiv_solve assembles from bare coefficients; comparing the two on a
    smooth field verifies the product-rule identity behind the drift. The
    result is only meaningful away from the boundary; the second return
    value masks the nodes where every inner differentiation was central.
    A drift from another grid, or one not finite on the mask, is a
    GridError.
    """
    grid = _require_grid(g.grid, DomainGrid, "divergence_form_apply")
    w = _volume_weight(g, grid.mask)
    _require_same_grid(grid, "drift", X)
    _require_finite("drift", X.c1, X.c2, where=grid.mask)
    v1, v2 = deriv(v, grid, 1, 0), deriv(v, grid, 0, 1)
    f1 = w * (g.g11 * v1 + g.g12 * v2)
    f2 = w * (g.g12 * v1 + g.g22 * v2)
    out = (deriv(f1, grid, 1, 0) + deriv(f2, grid, 0, 1)) / w
    out -= X.c1 * v1 + X.c2 * v2
    # trustworthy where two nested central stencils fit
    return out, _erode(grid.mask, _PLUS2)


# ---------------------------------------------------------------------------
# assembly and the per-metric solve


def _coeffs_at_nodes(g: MetricField):
    m = _require_grid(g.grid, DomainGrid, "a linearized solve").mask
    _require_metric(g, m)
    # positive definite, so lo <= 0 is rounding at an extreme anisotropy
    lo, hi = g.eig_bounds(where=m)
    if hi > ANISOTROPY_LIMIT * lo:
        raise GridError(
            f"eigenvalues span [{lo:.3g}, {hi:.3g}], an anisotropy ratio "
            f"beyond {ANISOTROPY_LIMIT}; the 9-point stencil is not "
            "reliable here")
    return g.g11[m], g.g12[m], g.g22[m]


def _metric_solver(g: MetricField):
    """solve(datas, f, rtol) of nondiv_solve_many for g: the system is
    assembled once, and factored once, at the first solve, after its data
    have passed their checks."""
    grid = g.grid
    coeffs = _coeffs_at_nodes(g)
    ops = build_stencil_ops(grid)
    A, G, lu = ops.system(*coeffs), ops.crossing_system(*coeffs), []

    def solve(datas, f, rtol):
        # f - G Phi, f 0 by default
        Phi = np.column_stack([ops.crossing_values(phi) for phi in datas])
        fvec = lattice_values(0.0 if f is None else f, grid)[grid.mask]
        _require_finite("source f", fvec)
        rhs = fvec[:, None] - G @ Phi
        if not lu:
            lu.append(SparseLU(A, ops._order))
        return [ScalarField(ops.scatter(v), grid)
                for v in lu[0].solve(rhs, rtol).T]
    return solve


def nondiv_solve_many(g: MetricField, datas, f=None) -> list:
    """Solve g^{ab} d_ab v = f (default 0) once per Dirichlet data in datas.

    The system is assembled and factored once for the metric, and all
    right sides go through that factorization in one block solve; every
    column must meet the residual bound SOLVE_RTOL of SparseLU.solve. An
    empty datas is a GridError before any assembly.
    """
    datas = list(datas)
    if not datas:
        raise GridError("nondiv_solve_many needs at least one boundary data")
    return _metric_solver(g)(datas, f, SOLVE_RTOL)


def nondiv_solve(g: MetricField, phi, f=None) -> ScalarField:
    """Solve g^{ab} d_ab v = f (default 0) with Dirichlet data phi.

    One column of nondiv_solve_many, with the same residual bound.
    """
    return nondiv_solve_many(g, [phi], f)[0]


def second_solve(g: MetricField, v1: ScalarField, v2: ScalarField,
                 phi1, phi2) -> ScalarField:
    """Second-linearization solve: g^{ab} d_ab w = tr(G V1 G V2), w = 0 on
    the boundary.

    V_k are the discrete Hessians of the first-order solutions and G the
    coefficient matrix; phi1/phi2, the boundary data of v1/v2, close the
    Hessian stencils. First-order solutions that do not live on g's grid
    are a GridError.
    """
    return nondiv_solve(g, 0.0, f=_trace_source(g, v1, v2, phi1, phi2))


def _trace_source(g: MetricField, v1: ScalarField, v2: ScalarField,
                  phi1, phi2) -> np.ndarray:
    """tr(G V1 G V2) of second_solve on the lattice."""
    _require_same_grid(g.grid, "first-order solution", v1, v2)
    a11, a12, a22 = _coeffs_at_nodes(g)
    ops = build_stencil_ops(g.grid)
    m = g.grid.mask
    (p11, p22, p12), (q11, q22, q12) = (
        stencil_hessian(ops, v.values[m], ops.crossing_values(phi))
        for v, phi in ((v1, phi1), (v2, phi2)))

    # entries of G V_k, then tr(G V1 G V2) = sum_ij (G V1)_ij (G V2)_ji
    b11 = a11 * p11 + a12 * p12
    b12 = a11 * p12 + a12 * p22
    b21 = a12 * p11 + a22 * p12
    b22 = a12 * p12 + a22 * p22
    c11 = a11 * q11 + a12 * q12
    c12 = a11 * q12 + a12 * q22
    c21 = a12 * q11 + a22 * q12
    c22 = a12 * q12 + a22 * q22
    return ops.scatter(b11 * c11 + b12 * c21 + b21 * c12 + b22 * c22)


# ---------------------------------------------------------------------------
# expansion consistency


@dataclass(frozen=True)
class EpsReport:
    """Measured agreement between solver differences and linearizations."""

    e2: tuple                # mixed-difference error against w per scale
    rem1: tuple              # raw remainder |u_{a,0} - u0 - a v1|, a = s EPS1
    slope1: float            # fitted slopes of the two errors in s
    slope2: float


def eps_consistency(F, phi1, phi2, scales=(1.0, 0.3, 0.1),
                    grid: DomainGrid | None = None) -> EpsReport:
    """Check the two-parameter expansion of the solved family.

    For boundary data s EPS1 phi1 + s EPS2 phi2, the first divided
    difference converges to the first linearization and the mixed second
    difference to the second linearization, both at rate O(s); slope1 is
    the first one's, fitted to |(u_{s EPS1, 0} - u0)/(s EPS1) - v1| per
    scale. Every scale must be positive and finite, with at least two
    distinct scales for the slopes, and neither data may vanish on the
    ring, where its errors would be zero and have no slope; each is a
    GridError before any solve.
    """
    for s in scales:
        _require_positive("scales", s)
    if len(set(scales)) < 2:
        raise GridError(f"scales need two distinct values, got {scales!r}")
    grid = source_grid(F, grid)
    p1, p2 = ring_values(grid, phi1), ring_values(grid, phi2)
    for name, p in (("phi1", p1), ("phi2", p2)):
        if not np.any(p):
            raise GridError(f"{name} vanishes on the ring: the expansion's "
                            "errors are zero and have no slope")
    base = solve_ma_zero(F, grid)
    g = metric_from_solution(base)
    solve = _metric_solver(g)            # one factorization for both
    v1, v2 = solve([phi1, phi2], None, SOLVE_RTOL)
    w = solve([0.0], _trace_source(g, v1, v2, phi1, phi2), SOLVE_RTOL)[0]

    m = grid.mask

    e1s, e2s, rems = [], [], []
    for s in scales:
        a, c = s * EPS1, s * EPS2
        u10 = solve_ma(F, BoundaryTrace(a * p1, grid), grid)
        u01 = solve_ma(F, BoundaryTrace(c * p2, grid), grid)
        u11 = solve_ma(F, BoundaryTrace(a * p1 + c * p2, grid), grid)
        d1 = (u10.u.values - base.u.values) / a - v1.values
        mixed = (u11.u.values - u10.u.values - u01.u.values
                 + base.u.values) / (a * c)
        d2 = mixed - w.values
        e1s.append(float(np.max(np.abs(d1[m]))))
        e2s.append(float(np.max(np.abs(d2[m]))))
        rems.append(float(np.max(np.abs((u10.u.values - base.u.values
                                         - a * v1.values)[m]))))
    ls = np.log(np.asarray(scales, dtype=float))
    slope1 = float(np.polyfit(ls, np.log(e1s), 1)[0])
    slope2 = float(np.polyfit(ls, np.log(e2s), 1)[0])
    return EpsReport(tuple(e2s), tuple(rems), slope1, slope2)
