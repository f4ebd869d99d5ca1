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
from malab.maforward import solve_ma
from malab.dnmap import (_basis_project, dn_full, dn_full_derivative, dn_lin,
                         dn_lin_matrix, recover_boundary_hessian,
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
    utt, utn, unn = recover_boundary_hessian(lam, one, g)
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
    utt, utn, unn = recover_boundary_hessian(lam, Fq, g, data=phq)
    assert np.abs(utt.values - (1 + s ** 2 * c ** 2)).max() < 1e-2
    assert np.abs(utn.values + s * c ** 3).max() < 1e-2
    assert np.abs(unn.values - (c ** 2 * (1 + c ** 2) + s ** 2)).max() < 1e-2
    det = utt.values * unn.values - utn.values ** 2
    assert np.abs(det - (1 + c ** 2)).max() < 1e-13


def test_recover_hessian_cartesian_frame():
    # rotating the local-frame recovery back to coordinates must land on
    # the analytic Hessian diag(1 + x^2, 1) of the quartic solution
    g = build_disk(1.0, 64)
    c, _ = ring_coords(g)
    Fq = lambda x, y: 1.0 + x ** 2
    phq = lambda x, y: x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2
    lam = dn_full(Fq, phi=phq, grid=g)
    u11, u12, u22 = recover_boundary_hessian(lam, Fq, g, data=phq,
                                             frame="cartesian")
    assert np.abs(u11.values - (1 + c ** 2)).max() < 1.2e-2
    assert np.abs(u12.values).max() < 1.2e-2
    assert np.abs(u22.values - 1.0).max() < 1.2e-2


def test_recover_hessian_guards():
    g = build_disk(1.0, 48)
    M = len(g.boundary)
    lam = BoundaryTrace(np.ones(M), g)
    with pytest.raises(GridError):
        recover_boundary_hessian(lam, lambda x, y: -np.ones_like(x), g)
    with pytest.raises(GridError):
        recover_boundary_hessian(BoundaryTrace(-np.ones(M), g), one, g)
    with pytest.raises(GridError):
        recover_boundary_hessian(lam, one, g, frame="polar")
    # kmax = -1 used to zero every mode and blame convexity, -2 to drop
    # only the Nyquist mode
    for kmax in (-1, -2, 1.5):
        with pytest.raises(GridError, match="kmax"):
            recover_boundary_hessian(lam, one, g, kmax=kmax)


def test_recover_rejects_traces_from_another_grid():
    # the ring size depends on n only, so a trace measured on the radius-1.3
    # disk has the length of one on the unit disk
    g, other = build_disk(1.0, 64), build_disk(1.3, 64)
    M = len(g.boundary)
    lam = BoundaryTrace(np.ones(M), g)
    foreign = BoundaryTrace(np.ones(M), other)
    with pytest.raises(GridError, match="different grid"):
        recover_boundary_hessian(foreign, one, g)
    sec = recover_boundary_hessian(lam, one, g)
    zero = lambda x, y: np.zeros_like(x)
    with pytest.raises(GridError, match="different grid"):
        recover_boundary_third(zero, (sec[0], foreign, sec[2]), g)
    with pytest.raises(GridError, match="non-finite"):
        BoundaryTrace(np.full(M, np.nan), g)


def test_recover_third_flat_base():
    g = build_disk(1.0, 64)
    lam = dn_full(one, grid=g)
    sec = recover_boundary_hessian(lam, one, g, kmax=6)
    third = recover_boundary_third(lambda x, y: np.zeros_like(x), sec, g)
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
    sec = recover_boundary_hessian(lam, Fq, g, data=phq, kmax=6)
    third = recover_boundary_third(lambda x, y: 2 * x ** 2, sec, g)
    assert np.abs(third.values - 2 * c ** 4).max() < 2.5e-2
