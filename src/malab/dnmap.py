"""Boundary measurement maps and boundary determination formulas.

The nonlinear map sends Dirichlet data to the outward normal derivative
of the Monge-Ampere solution; its linearization at a base solution sends
data to the conormal derivative sqrt|g| g^{ik} d_i v nu_k of the
first-linearized solution, and projects onto the ring Fourier basis
1, cos kt, sin kt (t = DomainGrid.param_angle) to give a matrix, one
block computation over all basis columns. In the opposite direction, the
boundary trace of the base normal derivative, the boundary values of the
source, and the curvature determine the full Hessian of the base solution
on the boundary pointwise, and one more normal derivative of the source
determines the third normal derivative. Every map between ring samples
and modes is grid's ring calculus: tangential_derivative, _ring_modes and
_ring_eval.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .grid import (BoundaryTrace, DomainGrid, GridError, MetricField,
                   _ray_fit, _ring_eval, _ring_modes, normal_derivative,
                   tangential_derivative)
from .linearize import metric_from_solution, nondiv_solve, nondiv_solve_many
from .maforward import ring_values, solve_ma

__all__ = [
    "DNMatrix",
    "dn_full",
    "dn_full_derivative",
    "dn_lin",
    "dn_lin_matrix",
    "recover_boundary_hessian",
    "recover_boundary_third",
]


# ---------------------------------------------------------------------------
# measurement maps


def dn_full(F, phi=None, grid: DomainGrid | None = None) -> BoundaryTrace:
    """Normal derivative trace of the Monge-Ampere solution with data phi."""
    sol = solve_ma(F, phi, grid)
    return normal_derivative(sol.u, anchor=sol.phi)


def _conormal_weights(g: MetricField):
    """Ring coefficients of the normal and tangential derivative in the
    conormal derivative sqrt|g| g^{ik} d_i v nu_k, from the metric's trace."""
    grid = g.grid
    b11, b12, b22 = _ray_fit(grid, np.stack([g.g11, g.g12, g.g22]))[0].T
    det = b11 * b22 - b12 ** 2
    if np.min(det) <= 0.0:
        raise GridError("metric trace is not positive definite on the ring")
    weight = 1.0 / np.sqrt(det)

    nu, tau = grid.boundary.normal, grid.boundary.tangent
    gn1 = b11 * nu[:, 0] + b12 * nu[:, 1]
    gn2 = b12 * nu[:, 0] + b22 * nu[:, 1]
    return (weight * (nu[:, 0] * gn1 + nu[:, 1] * gn2),
            weight * (tau[:, 0] * gn1 + tau[:, 1] * gn2))


def _dn_lin_block(g: MetricField, datas, rtol: float) -> np.ndarray:
    """Conormal derivatives (M, k) of the first-linearized solutions with
    the k Dirichlet data in datas.

    All k solves share one factorization. The normal part is one ray fit
    of the stacked solutions anchored at the exact data, the tangential
    part one spectral derivative of the stacked data itself.
    """
    grid = g.grid
    if not isinstance(grid, DomainGrid):
        raise GridError("the linearized DN map expects a domain grid")
    weights = _conormal_weights(g)
    vs = nondiv_solve_many(g, datas, rtol=rtol)
    P = np.column_stack([ring_values(grid, phi) for phi in datas])
    _, dnu = _ray_fit(grid, np.stack([v.values for v in vs]), P)
    dtau = tangential_derivative(grid, P)
    return weights[0][:, None] * dnu + weights[1][:, None] * dtau


def dn_lin(g: MetricField, phi, *, rtol: float = 1e-10) -> BoundaryTrace:
    """Conormal derivative of the first-linearized solution.

    Solves g^{ab} d_ab v = 0 with data phi and evaluates
    sqrt|g| g^{ik} d_i v nu_k on the ring, splitting the gradient into the
    normal part (one-sided ray fit anchored at the exact data) and the
    tangential part (spectral derivative of the data itself): the
    one-column case of dn_lin_matrix.
    """
    return BoundaryTrace(_dn_lin_block(g, [phi], rtol)[:, 0], g.grid)


def dn_full_derivative(base, phi, *, rtol: float = 1e-10) -> BoundaryTrace:
    """Exact derivative of dn_full at a solved base.

    The full map composes the nonlinear solve with a normal-derivative
    extraction that is linear in the field and its boundary anchor, so
    its derivative is the same extraction applied to the first variation
    of the solve. That variation solves the linearized equation whose
    coefficients are the base's own stencil inverse Hessian; any other
    coefficient choice leaves an O(dx)-layer mismatch that shows up as a
    linear-in-epsilon leak in remainder sweeps. The conormal-weighted
    dn_lin agrees with this map when the base metric has unit conormal
    weight on the ring (F = 1 bases); in general they differ at the
    discretization level.
    """
    g = metric_from_solution(base)
    grid = g.grid
    v = nondiv_solve(g, phi, rtol=rtol)
    anchor = BoundaryTrace(ring_values(grid, phi), grid)
    return normal_derivative(v, anchor=anchor)


@dataclass(frozen=True)
class DNMatrix:
    """Linearized measurement map over the ring Fourier basis.

    Row i holds the coefficients of basis function i in the image of
    basis function j; labels order the basis as 1, cos k, sin k for
    k = 1..K.
    """

    values: np.ndarray
    labels: tuple
    grid: DomainGrid


def _basis_project(vals: np.ndarray, K: int) -> np.ndarray:
    """Coefficients on 1, cos kt, sin kt (k <= K) of ring samples (M,) or
    (M, k), along axis 0."""
    c = _ring_modes(vals)[:K + 1]
    out = np.empty((2 * K + 1,) + c.shape[1:])
    out[0] = c[0].real
    out[1::2] = c[1:].real
    out[2::2] = -c[1:].imag
    return out


def dn_lin_matrix(g: MetricField, X, K: int = 6, *,
                  rtol: float = 1e-10) -> DNMatrix:
    """Assemble the linearized map over the Fourier basis.

    Column j is the basis projection of dn_lin of basis function j, an
    exact function of the ring parameter t; all 2K + 1 columns share one
    factorization, one ray fit of the solutions and one of the metric.
    X is not read, as the first-linearized equation carries no drift; it
    stays because the dn-inverse benchmark passes the drift positionally.
    """
    grid = g.grid
    if not isinstance(grid, DomainGrid):
        raise GridError("dn_lin_matrix expects a domain grid")
    if not isinstance(K, numbers.Integral) or K < 0:
        raise GridError(f"basis order must be a non-negative integer, not {K!r}")
    M = len(grid.boundary)
    if 2 * K + 1 > M // 2:
        raise GridError(f"basis order {K} too large for a ring of {M} nodes")
    t = grid.param_angle
    funcs = [1.0] + [lambda x, y, k=k, f=f: f(k * t(x, y))
                     for k in range(1, K + 1) for f in (np.cos, np.sin)]
    labels = ["1"] + [f"{f}{k}" for k in range(1, K + 1) for f in ("cos", "sin")]
    A = _basis_project(_dn_lin_block(g, funcs, rtol), K)
    return DNMatrix(A, tuple(labels), grid)


# ---------------------------------------------------------------------------
# boundary determination


def recover_boundary_hessian(lam0: BoundaryTrace, Fb, grid: DomainGrid,
                             data=None, frame: str = "local",
                             kmax: int | None = None):
    """Full Hessian of the base solution on the boundary, node by node.

    In the tangent/normal frame, the arclength second derivative of the
    Dirichlet data gives u_tt = phi'' + kappa * dnu_u; tangential
    differentiation of the normal derivative gives
    u_tn = (dnu_u)' - kappa * phi'; and the equation itself closes the
    system with u_nn = (F + u_tn^2) / u_tt. Returns the three traces
    (u_tt, u_tn, u_nn), or the Cartesian entries (u_11, u_12, u_22) when
    frame="cartesian". kmax, a non-negative integer, keeps only the ring
    modes k <= kmax of the measured trace before arclength
    differentiation; exact inputs need none.
    """
    if frame not in ("local", "cartesian"):
        raise GridError(f"unknown frame {frame!r}")
    if lam0.grid != grid:
        raise GridError("normal derivative trace lives on a different grid")
    lam = np.asarray(lam0.values, dtype=float)
    if kmax is not None:
        # a measured trace carries node-decorrelated interpolation noise,
        # and each arclength derivative amplifies mode k by k; truncation
        # is exact on band-limited truth
        if not isinstance(kmax, numbers.Integral) or kmax < 0:
            raise GridError(
                f"kmax must be a non-negative integer, not {kmax!r}")
        c = _ring_modes(lam)
        c[kmax + 1:] = 0.0
        p = grid.boundary.points
        lam = _ring_eval(c, grid.param_angle(p[:, 0], p[:, 1]))
    fb = ring_values(grid, Fb)
    if np.min(fb) <= 0.0:
        raise GridError("boundary source values must be positive")
    kappa = grid.boundary.curvature
    phi = np.zeros_like(lam) if data is None else ring_values(grid, data)
    dphi = tangential_derivative(grid, phi)
    ddphi = tangential_derivative(grid, dphi)

    utt = ddphi + kappa * lam
    if np.min(utt) <= 0.0:
        raise GridError(
            "tangential second derivative of the base is not positive; "
            "boundary determination requires a uniformly convex base")
    utn = tangential_derivative(grid, lam) - kappa * dphi
    unn = (fb + utn ** 2) / utt

    if frame == "local":
        traces = (utt, utn, unn)
    else:
        nu, tau = grid.boundary.normal, grid.boundary.tangent
        t1, t2 = tau[:, 0], tau[:, 1]
        n1, n2 = nu[:, 0], nu[:, 1]
        traces = (
            utt * t1 * t1 + 2.0 * utn * t1 * n1 + unn * n1 * n1,
            utt * t1 * t2 + utn * (t1 * n2 + t2 * n1) + unn * n1 * n2,
            utt * t2 * t2 + 2.0 * utn * t2 * n2 + unn * n2 * n2,
        )
    return tuple(BoundaryTrace(t, grid) for t in traces)


def recover_boundary_third(dnu_F, second, grid: DomainGrid) -> BoundaryTrace:
    """Third normal derivative of the base solution on the boundary.

    Differentiates det D^2 u = F along the normal and solves for the pure
    normal third derivative. The frame components (u_tt, u_tn, u_nn) come
    from a prior second-order recovery; their arclength derivatives pick
    up rotation terms through the curvature:

        u_ttn = u_tn' + kappa (u_nn - u_tt)
        u_tnn = u_nn' - 2 kappa u_tn

    and the differentiated equation gives
    u_nnn = (dnu_F - u_ttn u_nn + 2 u_tn u_tnn) / u_tt.
    """
    if any(t.grid != grid for t in second):
        raise GridError("second-order trace lives on a different grid")
    utt = np.asarray(second[0].values, dtype=float)
    utn = np.asarray(second[1].values, dtype=float)
    unn = np.asarray(second[2].values, dtype=float)
    if np.min(utt) <= 0.0:
        raise GridError("second-order recovery is not uniformly convex")
    kappa = grid.boundary.curvature
    dF = ring_values(grid, dnu_F)
    uttn = tangential_derivative(grid, utn) + kappa * (unn - utt)
    utnn = tangential_derivative(grid, unn) - 2.0 * kappa * utn
    unnn = (dF - uttn * unn + 2.0 * utn * utnn) / utt
    return BoundaryTrace(unnn, grid)
