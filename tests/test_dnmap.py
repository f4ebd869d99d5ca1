"""Boundary measurement maps and boundary determination.

Oracles: radial solutions with constant source (normal derivative known
in closed form), the quartic solution x^4/12 + x^2/2 + y^2/2 with source
1 + x^2 (every boundary derivative evaluates in the angle), harmonic
polynomials for the Steklov diagonal of the linearized map on the flat
metric, and the quadratic remainder sweep of the full map around the
flat base. Tolerances are frozen from measured runs at n = 64 with a
factor two to four of headroom.
"""

import numpy as np
import pytest

from malab.grid import (BoundaryTrace, GridError, MetricField, build_disk,
                        build_ellipse, tangential_derivative)
from malab.linearize import metric_from_solution
from malab.maforward import solve_ma
from malab.dnmap import (_basis_project, dn_full, dn_full_derivative, dn_lin,
                         dn_lin_matrix, pairing_gap, recover_boundary_hessian,
                         recover_boundary_third)


def flat_metric(grid):
    one = np.ones((grid.n, grid.n))
    return MetricField(one, np.zeros_like(one), one.copy(), grid)


def ring_coords(grid):
    p = grid.boundary.points
    return p[:, 0], p[:, 1]


def one(x, y):
    return np.ones_like(x)


# ---------------------------------------------------------------------------
# the full map


def test_dn_full_flat_disk():
    g = build_disk(1.0, 64)
    lam = dn_full(one, grid=g)
    assert np.abs(lam.values - 1.0).max() < 2.5e-3


def test_dn_full_constant_source_four():
    # u = x^2 + y^2 - 1 solves det D^2 u = 4 with zero trace
    g = build_disk(1.0, 64)
    lam = dn_full(lambda x, y: 4.0 * np.ones_like(x), grid=g)
    assert np.abs(lam.values - 2.0).max() < 5e-3


def test_dn_full_quartic_solution():
    # u = x^4/12 + x^2/2 + y^2/2, det D^2 u = 1 + x^2, and on the ring
    # d_nu u = c^4/3 + c^2 + s^2 at the point (c, s)
    g = build_disk(1.0, 64)
    c, s = ring_coords(g)
    lam = dn_full(lambda x, y: 1.0 + x ** 2,
                  phi=lambda x, y: x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2,
                  grid=g)
    assert np.abs(lam.values - (c ** 4 / 3 + c ** 2 + s ** 2)).max() < 4e-3


def test_dn_full_is_second_order_on_the_quartic_base():
    # with the quadratic ghost the stencil is consistent up to the rim, so
    # u - u_h = dx^2 w + o(dx^2) with w smooth and zero on the curve, and
    # the ray fit's normal derivative of it is O(dx^2) too. Between n and
    # 2n the order log(e_n / e_2n) / log(dx_n / dx_2n) is 2: measured 1.99
    # and 2.01 (errors 1.46e-4, 3.61e-5, 8.86e-6); the linear ghost's rim
    # error gave 1.22 and 0.47
    ns = (48, 96, 192)
    errs = []
    for n in ns:
        g = build_disk(1.0, n)
        c, s = ring_coords(g)
        lam = dn_full(lambda x, y: 1.0 + x ** 2,
                      phi=lambda x, y: x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2,
                      grid=g)
        errs.append(np.abs(lam.values - (c ** 4 / 3 + c ** 2 + s ** 2)).max())
    dxs = [2.0 / (n - 1) for n in ns]
    for k in range(2):
        order = np.log(errs[k] / errs[k + 1]) / np.log(dxs[k] / dxs[k + 1])
        assert 1.9 <= order <= 2.1, (ns[k], order)


# ---------------------------------------------------------------------------
# the linearized map


def test_dn_lin_steklov_diagonal():
    # on the flat metric the linearized map is the classical
    # Dirichlet-to-Neumann map of the disk: cos(k t) -> k cos(k t);
    # the degree-one mode is lattice-exact, higher modes are O(dx^2)
    g = build_disk(1.0, 64)
    c, s = ring_coords(g)
    met = flat_metric(g)
    cases = [
        (lambda x, y: x, c, 1e-8),
        (lambda x, y: x ** 2 - y ** 2, 2.0 * (c ** 2 - s ** 2), 5e-3),
        (lambda x, y: x ** 3 - 3 * x * y ** 2, 3.0 * (c ** 3 - 3 * c * s ** 2),
         1.2e-2),
    ]
    for phi, expected, tol in cases:
        out = dn_lin(met, phi)
        assert np.abs(out.values - expected).max() < tol


def test_dn_lin_conformal_invariance():
    # in two dimensions sqrt|g| g^{ik} is unchanged by g -> c g, so the
    # conormal output must agree to solver tolerance across the scaling
    g = build_disk(1.0, 64)
    n2 = (g.n, g.n)
    half = MetricField(0.5 * np.ones(n2), np.zeros(n2), 0.5 * np.ones(n2), g)
    a = dn_lin(flat_metric(g), lambda x, y: 2 * x * y)
    b = dn_lin(half, lambda x, y: 2 * x * y)
    assert np.abs(a.values - b.values).max() < 1e-7


def test_dn_lin_sees_the_conformal_class_and_only_it():
    # step 4 on the quartic base's own metric g (step 3's): a conformal
    # change c g of the covariant metric divides the stored components by
    # c. The solve's rows scale by 1/c, so v is unchanged to the solve
    # tolerance, and sqrt|g| g^{ik} is invariant node by node; what is
    # left is the ray fit of the metric on the ring, whose fit of g / c
    # and fit of g over c at the ring both meet the exact trace to the
    # fit's order: cubic sampling at depths 5-11 dx and a cubic
    # extrapolation in depth, O(dx^4) for the smooth fields sampled there
    # (the rim rows' first-order layer lies shallower than every sample).
    # So between n and 2n the order log(gap_n / gap_2n) / log(dx_n /
    # dx_2n) is 4: measured 4.25 and 4.38 (max|dD| / max|D| 2.96e-3,
    # 1.48e-4 and 6.96e-6 at n = 48, 96 and 192, about 20 times per
    # doubling). A change of g12 alone is not conformal, and D's change
    # converges to the continuum map's, of order its amplitude: 7.65e-4
    # and 7.55e-4 at n = 96 and 192, held above 5e-4
    Fq = lambda x, y: 1.0 + x ** 2
    phq = lambda x, y: x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2
    ns, gaps = (48, 96, 192), []
    for n in ns:
        g = build_disk(1.0, n)
        X, Y = g.meshgrid()
        met = metric_from_solution(solve_ma(Fq, phq, g))
        D = dn_lin_matrix(met, None, 6).values
        scale = np.abs(D).max()
        c = 1.0 + 0.4 * np.exp(-((X - 0.3) ** 2 + Y ** 2) / 0.1)
        conformal = MetricField(met.g11 / c, met.g12 / c, met.g22 / c, g)
        gaps.append(np.abs(dn_lin_matrix(conformal, None, 6).values
                           - D).max() / scale)
        if n > 48:
            bump = 0.05 * np.exp(-((X + 0.2) ** 2 + (Y - 0.1) ** 2) / 0.05)
            sheared = MetricField(met.g11, met.g12 + bump, met.g22, g)
            change = np.abs(dn_lin_matrix(sheared, None, 6).values
                            - D).max() / scale
            assert change > 5e-4, (n, change)
    dxs = [2.0 / (n - 1) for n in ns]
    for k in range(2):
        order = (np.log(gaps[k] / gaps[k + 1])
                 / np.log(dxs[k] / dxs[k + 1]))
        assert 3.8 <= order <= 4.8, (ns[k], order)


def test_pairing_gap_is_second_order_on_the_quartic_base():
    # step 7 on the chain's own output: the quartic base's metric (step
    # 3's), first-order data phi1, phi2 and adjoint data phi*. Every piece
    # of the pairing is second order: the 9-point stencils of the solves,
    # the area quadrature, and the ray fits of the conormal weight, of the
    # normal derivative and of F on the ring, whose root scales the
    # adjoint's data (v* = sqrt F psi). So between n and 2n the order
    # log(gap_n / gap_2n) / log(dx_n / dx_2n) is 2: measured 2.62 and 1.84
    # (gap 3.83e-4, 6.07e-5 and 1.68e-5 at n = 48, 96 and 192), the first
    # pair still above 2 by the coarse lattice's higher-order error. A ray
    # fit of sqrt F itself read order 1.76 from 96 to 192, and F as 1/det
    # of the ray-fitted metric gaps 6.8e-4, 9.9e-6 and 1.4e-5, which do
    # not fall monotonically. An adjoint assembled with the lower-order
    # terms of drift_field read gaps 4.75e-4, 1.95e-4 and 2.19e-4, which
    # do not converge: its c0 is a second difference of the rim rows'
    # first-order metric
    Fq = lambda x, y: 1.0 + x ** 2
    phq = lambda x, y: x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2
    phi1 = lambda x, y: x ** 2 + 0.5 * x * y + 0.2 * x
    phi2 = lambda x, y: x * y + 0.3 * y ** 2 - 0.4 * x
    phi_star = lambda x, y: 1.0 + 0.7 * x + 0.4 * y + x * y
    ns = (48, 96, 192)
    gaps = [pairing_gap(metric_from_solution(solve_ma(Fq, phq,
                                                      build_disk(1.0, n))),
                        phi1, phi2, phi_star) for n in ns]
    assert gaps[2] < 5e-5
    dxs = [2.0 / (n - 1) for n in ns]
    orders = [np.log(gaps[k] / gaps[k + 1]) / np.log(dxs[k] / dxs[k + 1])
              for k in range(2)]
    assert 1.8 <= orders[0] <= 2.8, orders
    assert 1.8 <= orders[1] <= 2.2, orders


@pytest.mark.parametrize("phi1, phi_star", [
    (0.0, lambda x, y: 1.0 + x * y),
    (lambda x, y: 1.0 + 0.3 * x - 0.2 * y, lambda x, y: 1.0 + x * y),
    (lambda x, y: x * x, 0.0),
], ids=["zero data", "linear data", "zero adjoint data"])
def test_pairing_gap_refuses_a_right_side_at_rounding(phi1, phi_star):
    # zero or linear phi1 leaves S = tr(G V1 G V2) zero or rounding, a zero
    # phi_star leaves psi = 0: the right side int F psi S dx has no size
    # to divide the gap by
    g = metric_from_solution(solve_ma(lambda x, y: 1.0 + x ** 2,
                                      lambda x, y: x ** 4 / 12 + x ** 2 / 2
                                      + y ** 2 / 2, build_disk(1.0, 48)))
    with pytest.raises(GridError, match="rounding against its natural size"):
        pairing_gap(g, phi1, lambda x, y: x * y, phi_star)


def test_dn_lin_rejects_indefinite_ring_trace():
    g = build_disk(1.0, 48)
    n2 = (g.n, g.n)
    met = MetricField(np.ones(n2), 2.0 * np.ones(n2), np.ones(n2), g)
    with pytest.raises(GridError):
        dn_lin(met, lambda x, y: x)


def test_dn_lin_matrix_flat_spectrum():
    g = build_disk(1.0, 64)
    mat = dn_lin_matrix(flat_metric(g), None, K=4)
    expected = np.diag([0.0, 1, 1, 2, 2, 3, 3, 4, 4])
    assert mat.labels == ("1", "cos1", "sin1", "cos2", "sin2",
                          "cos3", "sin3", "cos4", "sin4")
    assert np.abs(mat.values - expected).max() < 1e-2


def test_dn_lin_matrix_columns_equal_dn_lin():
    # the block solve over the basis gives the column-by-column map
    g = build_disk(1.0, 64)
    X, Y = g.meshgrid()
    met = MetricField(1 + 0.2 * np.sin(X) * np.cos(Y), 0.1 * X * Y,
                      1 - 0.15 * np.cos(X) * np.sin(Y), g)
    K = 3
    D = dn_lin_matrix(met, None, K=K)
    M = len(g.boundary)
    theta = 2.0 * np.pi * np.arange(M) / M
    basis = [np.ones(M)]
    for k in range(1, K + 1):
        basis += [np.cos(k * theta), np.sin(k * theta)]
    for j, col in enumerate(basis):
        out = dn_lin(met, BoundaryTrace(col, g))
        assert np.max(np.abs(D.values[:, j]
                             - _basis_project(out.values, K))) <= 1e-12


def test_dn_lin_matrix_rejects_unresolved_basis():
    g = build_disk(1.0, 32)
    with pytest.raises(GridError):
        dn_lin_matrix(flat_metric(g), None, K=25)
    for K in (-1, 1.5):
        with pytest.raises(GridError, match="non-negative integer"):
            dn_lin_matrix(flat_metric(g), None, K=K)


def test_dn_full_derivative_quadratic_remainder():
    # remainders of the full map against its derivative at the flat base
    # shrink by four per halving of epsilon; data with an affine harmonic
    # extension is annihilated outright, so only the solver floor remains
    g = build_disk(1.0, 64)
    F = one
    base = solve_ma(F, grid=g)
    lam0 = dn_full(F, grid=g)
    epsilons = [0.1 / 2 ** k for k in range(4)]

    def remainders(phi):
        lin = dn_full_derivative(base, phi)
        out = []
        for eps in epsilons:
            lam = dn_full(F, phi=lambda x, y: eps * phi(x, y), grid=g)
            out.append(np.abs(lam.values - lam0.values - eps * lin.values).max())
        return np.array(out)

    rq = remainders(lambda x, y: 2 * x * y)
    ratios = rq[:-1] / rq[1:]
    assert np.all(ratios > 3.2) and np.all(ratios < 4.8)

    ra = remainders(lambda x, y: x)
    assert ra.max() < 1e-8


# ---------------------------------------------------------------------------
# spectral ring calculus


def test_tangential_derivative_is_arclength():
    # d/ds of the coordinate x along the ring is the first component of
    # the unit tangent; exact to rounding for trigonometric data, and the
    # ellipse exercises the non-constant speed factor
    for grid in (build_disk(1.0, 64), build_ellipse(1.3, 0.8, 64)):
        b = grid.boundary
        got = tangential_derivative(grid, b.points[:, 0])
        assert np.abs(got + b.normal[:, 1]).max() < 1e-12


# ---------------------------------------------------------------------------
# boundary determination


def test_recover_hessian_flat_base():
    g = build_disk(1.0, 64)
    lam = dn_full(one, grid=g)
    utt, utn, unn = recover_boundary_hessian(lam, one)
    assert np.abs(utt.values - 1.0).max() < 5e-3
    assert np.abs(utn.values).max() < 5e-3
    assert np.abs(unn.values - 1.0).max() < 5e-3
    det = utt.values * unn.values - utn.values ** 2
    assert np.abs(det - 1.0).max() < 1e-13


def test_recover_hessian_quartic_base():
    g = build_disk(1.0, 64)
    c, s = ring_coords(g)
    Fq = lambda x, y: 1.0 + x ** 2
    phq = lambda x, y: x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2
    lam = dn_full(Fq, phi=phq, grid=g)
    utt, utn, unn = recover_boundary_hessian(lam, Fq, data=phq)
    assert np.abs(utt.values - (1 + s ** 2 * c ** 2)).max() < 1e-2
    assert np.abs(utn.values + s * c ** 3).max() < 1e-2
    assert np.abs(unn.values - (c ** 2 * (1 + c ** 2) + s ** 2)).max() < 1e-2
    det = utt.values * unn.values - utn.values ** 2
    assert np.abs(det - (1 + c ** 2)).max() < 1e-13


def test_recover_hessian_is_second_order_on_the_quartic_base():
    # the measured trace lam is second order
    # (test_dn_full_is_second_order_on_the_quartic_base), and the recovery
    # is pointwise algebra on it and on tangential derivatives of its modes
    # k <= 6: u_tt = phi'' + kappa lam and u_tn = lam' - kappa phi' are
    # linear in lam with d/ds bounded by 6 on those modes, and u_nn =
    # (F + u_tn^2) / u_tt is smooth in both while u_tt stays positive. The
    # exact traces are trigonometric of degree 4, which the band limit
    # keeps whole, and the data's derivatives are exact. So between n and
    # 2n the order log(e_n / e_2n) / log(dx_n / dx_2n) is 2: measured 2.01
    # and 1.95 (errors 1.65e-4, 3.99e-5 and 1.02e-5); without the band
    # limit node noise reaches u_tn through d/ds, and the ratios wander
    # (2.65 and 4.50)
    Fq = lambda x, y: 1.0 + x ** 2
    phq = lambda x, y: x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2
    ns, errs = (48, 96, 192), []
    for n in ns:
        g = build_disk(1.0, n)
        c, s = ring_coords(g)
        lam = dn_full(Fq, phi=phq, grid=g)
        utt, utn, unn = recover_boundary_hessian(lam, Fq, data=phq, kmax=6)
        errs.append(max(np.abs(utt.values - (1 + s ** 2 * c ** 2)).max(),
                        np.abs(utn.values + s * c ** 3).max(),
                        np.abs(unn.values - (c ** 2 * (1 + c ** 2)
                                             + s ** 2)).max()))
    dxs = [2.0 / (n - 1) for n in ns]
    for k in range(2):
        order = np.log(errs[k] / errs[k + 1]) / np.log(dxs[k] / dxs[k + 1])
        assert 1.8 <= order <= 2.2, (ns[k], order)


def test_recover_hessian_cartesian_frame():
    # rotating the local-frame recovery back to coordinates must land on
    # the analytic Hessian diag(1 + x^2, 1) of the quartic solution
    g = build_disk(1.0, 64)
    c, _ = ring_coords(g)
    Fq = lambda x, y: 1.0 + x ** 2
    phq = lambda x, y: x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2
    lam = dn_full(Fq, phi=phq, grid=g)
    u11, u12, u22 = recover_boundary_hessian(lam, Fq, data=phq,
                                             frame="cartesian")
    assert np.abs(u11.values - (1 + c ** 2)).max() < 1.2e-2
    assert np.abs(u12.values).max() < 1.2e-2
    assert np.abs(u22.values - 1.0).max() < 1.2e-2


def test_recover_hessian_guards():
    g = build_disk(1.0, 48)
    M = len(g.boundary)
    lam = BoundaryTrace(np.ones(M), g)
    with pytest.raises(GridError):
        recover_boundary_hessian(lam, lambda x, y: -np.ones_like(x))
    with pytest.raises(GridError):
        recover_boundary_hessian(BoundaryTrace(-np.ones(M), g), one)
    with pytest.raises(GridError):
        recover_boundary_hessian(lam, one, frame="polar")
    # kmax = -1 used to zero every mode and blame convexity, -2 to drop
    # only the Nyquist mode
    for kmax in (-1, -2, 1.5):
        with pytest.raises(GridError, match="kmax"):
            recover_boundary_hessian(lam, one, kmax=kmax)


def test_recover_rejects_traces_from_another_grid():
    # the ring size depends on n only, so a trace measured on the radius-1.3
    # disk has the length of one on the unit disk
    g, other = build_disk(1.0, 64), build_disk(1.3, 64)
    M = len(g.boundary)
    lam = BoundaryTrace(np.ones(M), g)
    foreign = BoundaryTrace(np.ones(M), other)
    # the grid is lam's; a trace from another grid in Fb, data, dnu_F or
    # among the second-order traces is refused
    with pytest.raises(GridError, match="different grid"):
        recover_boundary_hessian(lam, foreign)
    with pytest.raises(GridError, match="different grid"):
        recover_boundary_hessian(lam, one, data=foreign)
    sec = recover_boundary_hessian(lam, one)
    zero = lambda x, y: np.zeros_like(x)
    with pytest.raises(GridError, match="different grid"):
        recover_boundary_third(zero, (sec[0], foreign, sec[2]))
    with pytest.raises(GridError, match="different grid"):
        recover_boundary_third(foreign, sec)
    with pytest.raises(GridError, match="non-finite"):
        BoundaryTrace(np.full(M, np.nan), g)


def test_recover_third_flat_base():
    g = build_disk(1.0, 64)
    lam = dn_full(one, grid=g)
    sec = recover_boundary_hessian(lam, one, kmax=6)
    third = recover_boundary_third(lambda x, y: np.zeros_like(x), sec)
    assert np.abs(third.values).max() < 1e-2


def test_recover_third_quartic_base():
    # pure normal third derivative of the quartic solution is 2 c^4; the
    # measured trace is band-limited before the arclength derivatives,
    # which the degree-four truth passes through unchanged
    g = build_disk(1.0, 64)
    c, _ = ring_coords(g)
    Fq = lambda x, y: 1.0 + x ** 2
    phq = lambda x, y: x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2
    lam = dn_full(Fq, phi=phq, grid=g)
    sec = recover_boundary_hessian(lam, Fq, data=phq, kmax=6)
    third = recover_boundary_third(lambda x, y: 2 * x ** 2, sec)
    assert np.abs(third.values - 2 * c ** 4).max() < 2.5e-2
