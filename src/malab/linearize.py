"""Linearizations of the Monge-Ampere equation around a convex base solution.

The base solution u0 induces a geometry: the covariant metric is the
Hessian D^2 u0, whose volume weight sqrt|g| equals sqrt F, and the stored
MetricField holds the inverse Hessian, which is both the contravariant
metric and the coefficient matrix of the linearized operator. The first
linearization solves g^{ab} d_ab v = 0 with the perturbation's boundary
data; the second linearization solves g^{ab} d_ab w = tr(G V1 G V2) with
zero data, where V_k are the Hessians of first-order solutions and G the
coefficient matrix; the adjoint problem carries the drift in divergence
form. Every system is assembled by `maforward.StencilOps.system`, the
assembler the Newton Jacobian uses too, and goes through the sparse-LU
layer of `maforward`, split per metric: the system is assembled and
factored once, and every right side of that metric is solved against the
one factorization (nondiv_solve_many takes a block of boundary data as
one block). Every column must meet the residual bound
||A v - b|| <= rtol ||b|| and agree with the divergence-form assembly of
the same equation, or the solve raises LinearSolveFailure.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complexcalc import deriv
from .grid import (BoundaryTrace, DomainGrid, GridError, MetricField,
                   ScalarField, VectorField, boundary_restrict, lattice_values)
from .maforward import (LinearSolveFailure, MASolution, SparseLU, StencilOps,
                        build_stencil_ops, ring_values, solve_ma,
                        solve_ma_zero, source_grid, stencil_hessian)

__all__ = [
    "VectorField",
    "LinearSolveFailure",
    "solution_hessian",
    "metric_from_solution",
    "drift_field",
    "divergence_form_apply",
    "nondiv_solve",
    "nondiv_solve_many",
    "adjoint_solve",
    "second_solve",
    "eps_consistency",
    "EpsReport",
]

ANISOTROPY_LIMIT = 20.0

# eps_consistency's boundary data steps: s EPS1 phi1 + s EPS2 phi2 per scale s
EPS1 = 0.1
EPS2 = 0.1


# ---------------------------------------------------------------------------
# geometry from the base solution


def solution_hessian(sol: MASolution):
    """Discrete Hessian entries of a base solution on the interior numbering.

    Uses the same stencil operators the Newton solver used, so the returned
    entries are exactly the ones whose determinant met the residual target.
    Quasi-boundary rows have no PDE stencil; they inherit the entries of
    their interpolation anchors.
    """
    grid = sol.u.grid
    ops = build_stencil_ops(grid)
    h11, h22, h12 = stencil_hessian(ops, sol.u.values[grid.mask],
                                    ops.crossing_values(sol.phi))

    # anchor chase: every interpolation row copies its neighbor until all
    # values originate at PDE rows
    anchor = np.arange(ops.N)
    rows, cols = ops.operator("L", "R").nonzero()
    off = cols != rows
    anchor[rows[off]] = cols[off]
    for _ in range(8):
        bad = ~ops.pde[anchor]
        if not np.any(bad):
            break
        anchor[bad] = anchor[anchor[bad]]
    for h in (h11, h22, h12):
        h[~ops.pde] = h[anchor[~ops.pde]]
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
    """sqrt|g| of the covariant metric: 1 / sqrt(det of the stored matrix)."""
    w = np.ones_like(g.g11)
    d = g.det()
    if np.min(d[where]) <= 0.0:
        raise GridError("metric determinant is not positive")
    w[where] = 1.0 / np.sqrt(d[where])
    return w


def drift_field(g: MetricField) -> VectorField:
    """Drift of the Hessian geometry: X^b = |g|^{-1/2} d_a(|g|^{1/2} g^{ab}).

    g^{ab} is the stored coefficient matrix and |g|^{1/2} the covariant
    volume weight. The derivatives are the grid's own (deriv): spectral on
    periodic boxes, masked differences on domain grids.
    """
    grid = g.grid
    where = grid.mask if isinstance(grid, DomainGrid) else slice(None)
    w = _volume_weight(g, where)
    c1 = deriv(w * g.g11, grid, 1, 0) + deriv(w * g.g12, grid, 0, 1)
    c2 = deriv(w * g.g12, grid, 1, 0) + deriv(w * g.g22, grid, 0, 1)
    return VectorField(c1 / w, c2 / w, grid)


def divergence_form_apply(g: MetricField, X: VectorField, v: np.ndarray):
    """Apply (1/w) d_a(w g^{ab} d_b v) - X . grad v by explicit product rule.

    This is the divergence-form route to the same operator that
    nondiv_solve assembles from bare coefficients; comparing the two on a
    smooth field verifies the product-rule identity behind the drift. The
    result is only meaningful away from the boundary; the second return
    value masks the nodes where every inner differentiation was central.
    """
    grid = g.grid
    if not isinstance(grid, DomainGrid):
        raise GridError("divergence_form_apply expects a domain grid")
    w = _volume_weight(g, grid.mask)
    f1 = w * (g.g11 * deriv(v, grid, 1, 0) + g.g12 * deriv(v, grid, 0, 1))
    f2 = w * (g.g12 * deriv(v, grid, 1, 0) + g.g22 * deriv(v, grid, 0, 1))
    out = (deriv(f1, grid, 1, 0) + deriv(f2, grid, 0, 1)) / w
    out -= X.c1 * deriv(v, grid, 1, 0) + X.c2 * deriv(v, grid, 0, 1)
    # trustworthy where two nested central stencils fit
    m = grid.mask
    deep = m.copy()
    for sh in (1, 2):
        for ax in (0, 1):
            deep &= np.roll(m, sh, axis=ax) & np.roll(m, -sh, axis=ax)
    return out, deep


# ---------------------------------------------------------------------------
# assembly and the per-metric solve


def _coeffs_at_nodes(g: MetricField):
    m = g.grid.mask
    a11 = g.g11[m]
    a12 = g.g12[m]
    a22 = g.g22[m]
    if not (np.all(np.isfinite(a11)) and np.all(np.isfinite(a12))
            and np.all(np.isfinite(a22))):
        raise GridError("metric has non-finite entries on the domain")
    lo, hi = g.eig_bounds(where=m)
    if lo <= 0.0:
        raise GridError("coefficient matrix is not positive definite")
    if hi / lo > ANISOTROPY_LIMIT:
        raise GridError(
            f"anisotropy ratio {hi / lo:.1f} exceeds {ANISOTROPY_LIMIT}; "
            "the 9-point stencil is not reliable here")
    return a11, a12, a22


def _rhs(ops: StencilOps, G, Phi: np.ndarray, f) -> np.ndarray:
    """f - G Phi for crossing values Phi (a vector or a block of columns),
    with f (default 0) on the PDE rows and 0 on the interpolation rows."""
    fvec = np.zeros(ops.N) if f is None else np.where(
        ops.pde, lattice_values(f, ops.grid)[ops.grid.mask], 0.0)
    return (fvec if Phi.ndim == 1 else fvec[:, None]) - G @ Phi


def _require_positive(name: str, value) -> None:
    """GridError naming `name` unless value is a finite real > 0."""
    if not (isinstance(value, numbers.Real) and np.isfinite(value)
            and value > 0):
        raise GridError(f"{name} must be positive and finite, got {value!r}")


def _metric_solver(g: MetricField):
    """solve(datas, f, rtol) of nondiv_solve_many for g: both assemblies
    are made once, and the factorization once, at the first solve, after
    its data have passed their checks."""
    grid = g.grid
    if not isinstance(grid, DomainGrid):
        raise GridError("nondiv_solve expects a domain grid")
    coeffs = _coeffs_at_nodes(g)
    ops = build_stencil_ops(grid)
    A, G, lu = ops.system(*coeffs), ops.crossing_system(*coeffs), []
    w = _volume_weight(g, grid.mask)[grid.mask]
    B = sp.diags(np.where(ops.pde, 1.0 / w, 1.0)) @ ops.system(
        *(w * a for a in coeffs))

    def solve(datas, f, rtol):
        Phi = np.column_stack([ops.crossing_values(phi) for phi in datas])
        rhs = _rhs(ops, G, Phi, f)
        if not lu:
            lu.append(SparseLU(A))
        V = lu[0].solve(rhs, rtol)
        scale = np.max(np.abs(rhs), axis=0) + 1.0
        resA = np.max(np.abs(A @ V - rhs), axis=0)
        resB = np.max(np.abs(B @ V - rhs), axis=0)
        bad = resB > 10.0 * np.maximum(resA, rtol * scale)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise LinearSolveFailure(
                "divergence-form assembly disagrees with the bare-"
                f"coefficient route: {resB[j]:.3e} vs {resA[j]:.3e}",
                [float(resA[j]), float(resB[j])])
        return [ScalarField(ops.scatter(v), grid) for v in V.T]
    return solve


def nondiv_solve_many(g: MetricField, datas, f=None, *,
                      rtol: float = 1e-10) -> list:
    """Solve g^{ab} d_ab v = f (default 0) once per Dirichlet data in datas.

    The system is assembled and factored once for the metric, and all
    right sides go through that factorization in one block solve. The
    cross-check assembles the equation a second time, through the
    divergence-form expansion whose drift terms cancel, which guards the
    volume-weight wiring: every column's divergence-route residual must
    stay within a factor 10 of its primary one. A non-finite or
    nonpositive rtol, and an empty datas, are a GridError before any
    assembly.
    """
    _require_positive("rtol", rtol)
    datas = list(datas)
    if not datas:
        raise GridError("nondiv_solve_many needs at least one boundary data")
    return _metric_solver(g)(datas, f, rtol)


def nondiv_solve(g: MetricField, phi, f=None, *,
                 rtol: float = 1e-10) -> ScalarField:
    """Solve g^{ab} d_ab v = f (default 0) with Dirichlet data phi.

    One column of nondiv_solve_many, with the same residual bound and
    divergence-form cross-check.
    """
    return nondiv_solve_many(g, [phi], f, rtol=rtol)[0]


def adjoint_solve(g: MetricField, X: VectorField, phi_star, f=None, *,
                  rtol: float = 1e-10) -> ScalarField:
    """Solve the adjoint problem Lap_g v* + (1/w) d_b(w X^b v*) = f.

    Expanded, the operator is g^{ab} d_ab + (X_g + X) . grad + c0 with
    c0 = (1/w) d_b(w X^b); w is the covariant volume weight.
    """
    _require_positive("rtol", rtol)
    grid = g.grid
    if not isinstance(grid, DomainGrid):
        raise GridError("adjoint_solve expects a domain grid")
    a11, a12, a22 = _coeffs_at_nodes(g)
    ops = build_stencil_ops(grid)
    phic = ops.crossing_values(phi_star)
    Xg = drift_field(g)
    w = _volume_weight(g, grid.mask)
    c0_full = (deriv(w * X.c1, grid, 1, 0) + deriv(w * X.c2, grid, 0, 1)) / w
    m = grid.mask
    X1 = (Xg.c1 + X.c1)[m]
    X2 = (Xg.c2 + X.c2)[m]
    c0 = c0_full[m]
    if not (np.all(np.isfinite(X1)) and np.all(np.isfinite(X2))
            and np.all(np.isfinite(c0))):
        raise GridError("drift has non-finite entries on the domain")
    A = ops.system(a11, a12, a22, X1, X2, c0)
    rhs = _rhs(ops, ops.crossing_system(a11, a12, a22, X1, X2), phic, f)
    v = SparseLU(A).solve(rhs, rtol)
    return ScalarField(ops.scatter(v), grid)


def second_solve(g: MetricField, v1: ScalarField, v2: ScalarField,
                 phi1=None, phi2=None, *, rtol: float = 1e-10) -> ScalarField:
    """Second-linearization solve: g^{ab} d_ab w = tr(G V1 G V2), w = 0 on
    the boundary.

    V_k are the discrete Hessians of the first-order solutions and G the
    coefficient matrix. Supplying phi1/phi2 closes the Hessian stencils
    with the exact boundary data of v1/v2; otherwise their traces are
    fitted from the interior.
    """
    return nondiv_solve(g, 0.0, f=_trace_source(g, v1, v2, phi1, phi2),
                        rtol=rtol)


def _trace_source(g: MetricField, v1: ScalarField, v2: ScalarField,
                  phi1, phi2) -> np.ndarray:
    """tr(G V1 G V2) of second_solve on the lattice."""
    a11, a12, a22 = _coeffs_at_nodes(g)
    ops = build_stencil_ops(g.grid)
    if phi1 is None:
        phi1 = boundary_restrict(v1)
    if phi2 is None:
        phi2 = boundary_restrict(v2)
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
    distinct scales for the slopes, or GridError before any solve.
    """
    for s in scales:
        _require_positive("scales", s)
    if len(set(scales)) < 2:
        raise GridError(f"scales need two distinct values, got {scales!r}")
    grid = source_grid(F, grid)
    base = solve_ma_zero(F, grid)
    g = metric_from_solution(base)
    solve = _metric_solver(g)            # one factorization for both
    v1, v2 = solve([phi1, phi2], None, 1e-10)
    w = solve([0.0], _trace_source(g, v1, v2, phi1, phi2), 1e-10)[0]

    p1, p2 = ring_values(grid, phi1), ring_values(grid, phi2)
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
