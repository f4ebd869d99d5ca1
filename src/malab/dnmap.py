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

from dataclasses import dataclass

import numpy as np

from .grid import (BoundaryTrace, DomainGrid, GridError, MetricField,
                   ScalarField, _ray_fit, _require_count, _require_finite,
                   _require_grid, _require_positive, _require_same_grid,
                   _ring_eval, _ring_modes, normal_derivative, quadrature,
                   tangential_derivative)
from .linearize import (SOLVE_RTOL, _metric_solver, _trace_source,
                        _volume_weight, metric_from_solution, nondiv_solve)
from .maforward import MASolution, ring_values, solve_ma


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

    All k solves share one factorization and meet the residual bound
    rtol. The normal part is one ray fit of the stacked solutions anchored
    at the exact data, the tangential part one spectral derivative of the
    stacked data itself.
    """
    grid = _require_grid(g.grid, DomainGrid, "the linearized DN map")
    weights = _conormal_weights(g)
    vs = _metric_solver(g)(datas, None, rtol)
    P = np.column_stack([ring_values(grid, phi) for phi in datas])
    _, dnu = _ray_fit(grid, np.stack([v.values for v in vs]), P)
    dtau = tangential_derivative(grid, P)
    return weights[0][:, None] * dnu + weights[1][:, None] * dtau


def dn_lin(g: MetricField, phi) -> BoundaryTrace:
    """Conormal derivative of the first-linearized solution.

    Solves g^{ab} d_ab v = 0 with data phi and evaluates
    sqrt|g| g^{ik} d_i v nu_k on the ring, splitting the gradient into the
    normal part (one-sided ray fit anchored at the exact data) and the
    tangential part (spectral derivative of the data itself): the
    one-column case of dn_lin_matrix, solved to linearize.SOLVE_RTOL.
    """
    _require_grid(g, MetricField, "dn_lin")
    return BoundaryTrace(_dn_lin_block(g, [phi], SOLVE_RTOL)[:, 0], g.grid)


def dn_full_derivative(base, phi) -> BoundaryTrace:
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
    g = metric_from_solution(_require_grid(base, MASolution,
                                           "dn_full_derivative"))
    grid = g.grid
    v = nondiv_solve(g, phi)
    anchor = BoundaryTrace(ring_values(grid, phi), grid)
    return normal_derivative(v, anchor=anchor)


@dataclass(frozen=True, eq=False)
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
                  rtol: float = SOLVE_RTOL) -> DNMatrix:
    """Assemble the linearized map over the Fourier basis.

    Column j is the basis projection of dn_lin of basis function j, an
    exact function of the ring parameter t; all 2K + 1 columns share one
    factorization, one ray fit of the solutions and one of the metric.
    X is not read, as the first-linearized equation carries no drift; it
    stays because the dn-inverse benchmark passes the drift positionally.
    Every column meets the residual bound rtol; a non-finite or
    nonpositive rtol is a GridError before any assembly.
    """
    _require_grid(g, MetricField, "dn_lin_matrix")
    grid = _require_grid(g.grid, DomainGrid, "dn_lin_matrix")
    _require_count("K", K)
    _require_positive("rtol", rtol)
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
# the second linearization's pairing


def pairing_gap(g: MetricField, phi1, phi2, phi_star) -> float:
    """Relative gap of the Green pairing behind the nonlocal dbar equation.

    On a Hessian metric g = (D^2 u)^-1 (metric_from_solution), with
    F = det D^2 u = 1/det g, the first-order solutions v_k with data phi_k
    and w with g^{ab} d_ab w = S, S = tr(G V1 G V2), zero data
    (second_solve's), are paired with the adjoint solution v* of data
    phi_star. F g^{ab} d_ab = cof(D^2 u) : D^2 = d_a(cof^{ab} d_b .),
    since the cofactor matrix of a Hessian is divergence-free (the Piola
    identity), so F g^{ab} d_ab is formally self-adjoint in L^2(dx). The
    formal adjoint (1/sqrt|g|) d_ab(sqrt|g| g^{ab} .) in L^2(sqrt|g| dx),
    with sqrt|g| = sqrt F and sqrt|g| g = cof / sqrt F, is then
    (1/sqrt F) cof : D^2 (. / sqrt F) = sqrt F g^{ab} d_ab (. / sqrt F).
    So v* = sqrt F psi, where psi solves the step-4 equation
    g^{ab} d_ab psi = 0 with data phi_star / sqrt F. Green's identity for
    cof : D^2, with w's zero data (so grad w = d_nu w nu on the ring) and
    nu . cof nu = sqrt F c_nu, leaves

        oint phi_star c_nu d_nu w ds = int sqrt|g| v* S dx = int F psi S dx,

    c_nu = sqrt|g| nu . g nu the conormal weight of the normal derivative.
    v1, v2 and psi are one block solve and w a second on the same
    factorization. sqrt F on the ring is the root of F's ray fit, which
    must be finite and positive, or a GridError. Returns |left - right| /
    |right|, the normal derivative by the ray fit anchored at w's zero
    data.

    S's natural size is |G|^2 max|v1| max|v2| / half^4, half the
    lattice's half-width; rounding in the stencil Hessians leaves about
    eps (half/dx)^2 of it (4e-12 to 1.8e-10 with linear phi1 at n = 48
    to 192 on the quartic base). So a right side at most sqrt(eps) times
    int F |psi| dx times that size is rounding or zero, and leaves no gap
    to divide by: data phi1 or phi2 without second derivatives, or a zero
    phi_star, are a GridError.
    """
    _require_grid(g, MetricField, "pairing_gap")
    grid = _require_grid(g.grid, DomainGrid, "pairing_gap")
    solve = _metric_solver(g)
    F = _volume_weight(g, grid.mask) ** 2
    Fb = _ray_fit(grid, F)[0]
    _require_finite("F on the ring", Fb)
    if np.min(Fb) <= 0.0:
        raise GridError("F on the ring is not positive: its ray fit reads "
                        f"{np.min(Fb):.3g}")
    p_star = ring_values(grid, phi_star)
    psi_data = BoundaryTrace(p_star / np.sqrt(Fb), grid)
    v1, v2, psi = solve([phi1, phi2, psi_data], None, SOLVE_RTOL)
    S = _trace_source(g, v1, v2, phi1, phi2)
    w = solve([0.0], S, SOLVE_RTOL)[0]
    Fpsi = F * psi.values
    right = quadrature(ScalarField(Fpsi * S, grid))
    size = (quadrature(ScalarField(np.abs(Fpsi), grid))
            * g.eig_bounds(where=grid.mask)[1] ** 2 / grid.half ** 4
            * np.max(np.abs(v1.values)) * np.max(np.abs(v2.values)))
    if not abs(right) > np.sqrt(np.finfo(float).eps) * size:
        raise GridError(
            f"the pairing's right side int F psi S dx is {right:.3g}, "
            f"rounding against its natural size {size:.3g}: data without "
            "second derivatives, or a zero adjoint data, leave no gap")
    b = grid.boundary
    dnu = _ray_fit(grid, w.values, np.zeros(len(b)))[1]
    left = float(np.sum(b.ds * p_star * _conormal_weights(g)[0] * dnu))
    return abs(left - right) / abs(right)


# ---------------------------------------------------------------------------
# boundary determination


def _require_traces(what: str, *traces) -> None:
    """GridError naming what unless every one of traces is a
    BoundaryTrace."""
    for t in traces:
        if not isinstance(t, BoundaryTrace):
            raise GridError(f"{what} must be a BoundaryTrace, not a "
                            f"{type(t).__name__}")


def recover_boundary_hessian(lam0: BoundaryTrace, Fb, data=None,
                             frame: str = "local", kmax: int | None = None):
    """Full Hessian of the base solution on the boundary, node by node.

    In the tangent/normal frame, the arclength second derivative of the
    Dirichlet data gives u_tt = phi'' + kappa * dnu_u; tangential
    differentiation of the normal derivative gives
    u_tn = (dnu_u)' - kappa * phi'; and the equation itself closes the
    system with u_nn = (F + u_tn^2) / u_tt. Returns the three traces
    (u_tt, u_tn, u_nn), or the Cartesian entries (u_11, u_12, u_22) when
    frame="cartesian". kmax, a non-negative integer, keeps only the ring
    modes k <= kmax of the measured trace before arclength
    differentiation; exact inputs need none. The grid is lam0's; a lam0
    that is not a BoundaryTrace, or a trace from another grid in Fb or
    data, is a GridError.
    """
    if frame not in ("local", "cartesian"):
        raise GridError(f"unknown frame {frame!r}")
    _require_traces("lam0", lam0)
    grid = lam0.grid
    lam = np.asarray(lam0.values, dtype=float)
    if kmax is not None:
        # a measured trace carries node-decorrelated interpolation noise,
        # and each arclength derivative amplifies mode k by k; truncation
        # is exact on band-limited truth
        _require_count("kmax", kmax)
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


def recover_boundary_third(dnu_F, second) -> BoundaryTrace:
    """Third normal derivative of the base solution on the boundary.

    Differentiates det D^2 u = F along the normal and solves for the pure
    normal third derivative. The frame components (u_tt, u_tn, u_nn) come
    from a prior second-order recovery; their arclength derivatives pick
    up rotation terms through the curvature:

        u_ttn = u_tn' + kappa (u_nn - u_tt)
        u_tnn = u_nn' - 2 kappa u_tn

    and the differentiated equation gives
    u_nnn = (dnu_F - u_ttn u_nn + 2 u_tn u_tnn) / u_tt, on the grid the
    three traces share. A second that is not three BoundaryTraces, or
    traces from two grids, are a GridError.
    """
    if not (isinstance(second, (tuple, list)) and len(second) == 3):
        raise GridError("second must hold the three traces (u_tt, u_tn, "
                        "u_nn) of recover_boundary_hessian, got "
                        f"{second!r:.60}")
    _require_traces("second-order trace", *second)
    grid = second[0].grid
    _require_same_grid(grid, "second-order trace", *second[1:])
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
