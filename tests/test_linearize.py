"""Linearized solves, the solution-induced metric, and expansion checks.

Oracles: harmonic polynomials on the flat metric, a manufactured solve
on the analytic quartic metric diag(1/(1+x^2), 1), and the Poisson solve
w = 2(x^2+y^2-1) for the second linearization. Solved-metric accuracy is
split by depth: the discrete Hessian is first order on the rim rows,
second order inside, so the metric and its drift are checked away from
the rim.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from malab import linearize, maforward
from malab.dnmap import dn_lin_matrix, pairing_gap
from malab.grid import (BoundaryTrace, GridError, MetricField, PaddedGrid,
                        ScalarField, build_disk, build_ellipse, quadrature)
from malab.maforward import (SparseLU, build_stencil_ops, solve_ma,
                             solve_ma_zero, stencil_hessian)
from malab.linearize import (LinearSolveFailure, VectorField,
                             divergence_form_apply, drift_field,
                             eps_consistency, metric_from_solution,
                             nondiv_solve, nondiv_solve_many, second_solve)


def flat_metric(grid):
    one = np.ones((grid.n, grid.n))
    return MetricField(one, np.zeros_like(one), one.copy(), grid)


def quartic_metric(grid):
    X, _ = grid.meshgrid()
    one = np.ones_like(X)
    return MetricField(1.0 / (1.0 + X ** 2), np.zeros_like(X), one, grid)


def test_harmonic_cubic_on_flat_metric():
    g = build_disk(1.0, 64)
    X, Y = g.meshgrid()
    v = nondiv_solve(flat_metric(g), lambda x, y: x ** 3 - 3 * x * y ** 2)
    err = np.abs(v.values - (X ** 3 - 3 * X * Y ** 2))[g.mask].max()
    assert err < 2e-3


def test_constant_diagonal_metric_quadratic_exact():
    # g = diag(1, 2) and data x*y: the mixed entry never enters, and the
    # axis stencils with linear ghost closure are exact on x*y
    g = build_disk(1.0, 48)
    X, Y = g.meshgrid()
    one = np.ones_like(X)
    met = MetricField(one, np.zeros_like(X), 2.0 * one, g)
    v = nondiv_solve(met, lambda x, y: x * y)
    assert np.abs(v.values - X * Y)[g.mask].max() < 1e-8


def test_manufactured_quartic_metric_solve():
    # a11 v_11 + a22 v_22 = 0 for v = y^2 - x^2 - x^4/6 when
    # a = diag(1/(1+x^2), 1)
    g = build_disk(1.0, 64)
    X, Y = g.meshgrid()
    vex = Y ** 2 - X ** 2 - X ** 4 / 6.0
    v = nondiv_solve(quartic_metric(g),
                     lambda x, y: y ** 2 - x ** 2 - x ** 4 / 6.0)
    assert np.abs(v.values - vex)[g.mask].max() < 1.5e-3


def test_nondiv_second_order_convergence():
    errs = []
    for n in (48, 96):
        g = build_disk(1.0, n)
        X, Y = g.meshgrid()
        vex = Y ** 2 - X ** 2 - X ** 4 / 6.0
        v = nondiv_solve(quartic_metric(g),
                         lambda x, y: y ** 2 - x ** 2 - x ** 4 / 6.0)
        errs.append(np.abs(v.values - vex)[g.mask].max())
    assert errs[0] / errs[1] > 2.5


def test_ellipse_harmonic_quadratic():
    g = build_ellipse(1.3, 0.8, 64)
    X, Y = g.meshgrid()
    v = nondiv_solve(flat_metric(g), lambda x, y: x * y)
    assert np.abs(v.values - X * Y)[g.mask].max() < 1e-8


def test_adjoint_duality_quadrature():
    # <F A v, v*> = <v, F A v*> in L^2(dx) for fields supported inside the
    # domain, on the chain's own metric (step 3's, of the quartic base
    # solve_ma_zero(1 + x^2)) and the solver's own operator: A is
    # nondiv_solve's system and F = 1/det g. F g^{ab} d_ab is cof(D^2 u) :
    # D^2 = d_a(cof^{ab} d_b .) (the cofactor matrix of a Hessian is
    # divergence-free), formally self-adjoint, so step 7's adjoint is
    # sqrt F times a step-4 solve (dnmap.pairing_gap). The identity holds
    # for the exact Hessian, and the solved one is smooth inside to
    # O(dx^2); the pairing misses it by the consistency error of the
    # operator where the bumps live, O(dx^2) (second-order stencils). So
    # between n and 2n the order log(gap_n / gap_2n) / log(dx_n / dx_2n)
    # is 2: measured 1.98 and 2.00 (|gap| 2.34e-5, 5.80e-6 and 1.44e-6 at
    # n = 48, 96 and 192)
    def bump(X, Y, cx, cy, rad):
        rho = np.hypot(X - cx, Y - cy) / rad
        return np.where(rho < 1.0, (1.0 - rho ** 2) ** 3, 0.0)

    ns, gaps = (48, 96, 192), []
    for n in ns:
        g = build_disk(1.0, n)
        X, Y = g.meshgrid()
        met = metric_from_solution(solve_ma_zero(lambda x, y: 1.0 + x ** 2,
                                                 g))
        ops, m = build_stencil_ops(g), g.mask
        F = linearize._volume_weight(met, m) ** 2
        FA = sp.diags(F[m]) @ ops.system(*linearize._coeffs_at_nodes(met))
        v, vs = bump(X, Y, -0.2, 0.0, 0.5), bump(X, Y, 0.2, 0.1, 0.5)
        pair = vs * ops.scatter(FA @ v[m]) - v * ops.scatter(FA @ vs[m])
        gaps.append(quadrature(ScalarField(pair, g)))
    dxs = [2.0 / (n - 1) for n in ns]
    assert abs(gaps[1]) < 5e-4
    for k in range(2):
        order = (np.log(abs(gaps[k] / gaps[k + 1]))
                 / np.log(dxs[k] / dxs[k + 1]))
        assert 1.9 <= order <= 2.1, (ns[k], order)


def test_second_solve_poisson_oracle():
    # flat base, v1 = v2 = 2xy: tr(V1 V2) = 8, so w solves Lap w = 8 with
    # zero data, i.e. w = 2(x^2+y^2-1)
    g = build_disk(1.0, 64)
    X, Y = g.meshgrid()
    base = solve_ma_zero(1.0, g)
    met = metric_from_solution(base)
    phi = lambda x, y: 2.0 * x * y
    v1 = nondiv_solve(met, phi)
    w = second_solve(met, v1, v1, phi, phi)
    err = np.abs(w.values - 2.0 * (X ** 2 + Y ** 2 - 1.0))[g.mask].max()
    assert err < 2e-3


def test_second_solve_symmetric_in_arguments():
    g = build_disk(1.0, 48)
    base = solve_ma_zero(1.0, g)
    met = metric_from_solution(base)
    phi1 = lambda x, y: 2.0 * x * y
    phi2 = lambda x, y: x ** 2 - y ** 2
    v1 = nondiv_solve(met, phi1)
    v2 = nondiv_solve(met, phi2)
    w12 = second_solve(met, v1, v2, phi1, phi2)
    w21 = second_solve(met, v2, v1, phi2, phi1)
    assert np.abs(w12.values - w21.values).max() < 1e-8


def test_second_solve_constant_argument_gives_zero():
    g = build_disk(1.0, 48)
    base = solve_ma_zero(1.0, g)
    met = metric_from_solution(base)
    ones = ScalarField(np.ones((g.n, g.n)), g)
    v2 = nondiv_solve(met, lambda x, y: 2.0 * x * y)
    w = second_solve(met, ones, v2, 1.0, lambda x, y: 2.0 * x * y)
    assert np.abs(w.values[g.mask]).max() < 1e-8


def test_second_solve_refuses_solutions_from_another_grid():
    # a field of another lattice of the same size used to be read through
    # this domain's mask as if it were this domain's
    g = build_disk(1.0, 48)
    met = flat_metric(g)
    v = nondiv_solve(met, lambda x, y: 2.0 * x * y)
    for grid in (PaddedGrid(half=1.0, n=48), build_disk(1.1, 48)):
        foreign = ScalarField(np.zeros((48, 48)), grid)
        for v1, v2 in ((foreign, v), (v, foreign)):
            with pytest.raises(GridError, match="different grid"):
                second_solve(met, v1, v2, 0.0, 0.0)


def test_second_solve_refuses_a_box_metric():
    # a box has no mask: this used to be an AttributeError from the
    # coefficient read
    grid = PaddedGrid(half=1.0, n=32)
    v = ScalarField(np.zeros((32, 32)), grid)
    with pytest.raises(GridError, match="a linearized solve needs a "
                       "DomainGrid, not a PaddedGrid"):
        second_solve(flat_metric(grid), v, v, 0.0, 0.0)


def test_non_finite_metric_is_refused_before_any_derivative():
    # a NaN used to give a NaN drift on a box, and on a domain the
    # misleading "no difference stencil fits at node (1, 11)"
    box, disk = PaddedGrid(half=1.0, n=32), build_disk(1.0, 32)
    zero = np.zeros((32, 32))
    for value in (np.nan, np.inf):
        on_box, on_disk = flat_metric(box), flat_metric(disk)
        on_box.g12[16, 16] = on_disk.g12[16, 16] = value
        for met in (on_box, on_disk):
            with pytest.raises(GridError, match="non-finite metric"):
                drift_field(met)
        with pytest.raises(GridError, match="non-finite metric"):
            divergence_form_apply(on_disk, VectorField(zero, zero, disk), zero)


def _no_factorization(*args, **kwargs):
    raise AssertionError("a system was factored before the input guards")


def test_non_finite_source_is_refused_before_any_factorization(monkeypatch):
    # a NaN in f used to be found after the system was factored, as the
    # LinearSolveFailure "LU residual nan above rtol 1e-10"
    g = build_disk(1.0, 32)
    met, phi = flat_metric(g), (lambda x, y: x)
    v = nondiv_solve(met, phi)
    f = np.zeros((32, 32))
    f[16, 16] = np.nan
    nan_v = ScalarField(np.where(np.isnan(f), f, v.values), g)
    monkeypatch.setattr(linearize, "SparseLU", _no_factorization)
    for call in (lambda: nondiv_solve(met, phi, f),
                 lambda: nondiv_solve_many(met, [phi, 0.0], f),
                 lambda: second_solve(met, nan_v, v, phi, phi)):
        with pytest.raises(GridError, match="non-finite source f"):
            call()

def test_newton_jacobian_is_F_times_the_linearized_operator():
    # cof(D^2 u) = det(D^2 u) (D^2 u)^{-1}: with J = system(h22, -h12, h11)
    # and A the system of the metric (D^2 u)^{-1}, both of one stencil
    # Hessian (solution_hessian), J - diag(F) A = diag(1 - F / det) J up to
    # the rounding of F / det times an entry (measured 0.84 eps max|J|),
    # and Newton stopped with |det - F| within each row's own target, so
    # the Newton Jacobian is F times the linearized operator
    def ustar(x, y):
        return x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2
    g = build_ellipse(1.03, 0.92, 168)
    X, _ = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), ustar)
    h11, h12, h22, ops = linearize.solution_hessian(sol)
    F = sol.F.values[g.mask]
    J = ops.system(h22, -h12, h11)
    met = metric_from_solution(sol)
    A = ops.system(*(c[g.mask] for c in (met.g11, met.g12, met.g22)))
    gap = J - sp.diags(F) @ A - sp.diags(1.0 - F / (h11 * h22 - h12 ** 2)) @ J
    assert abs(gap).max() <= 4.0 * np.finfo(float).eps * abs(J).max()
    # the solve's own residual, on its own data: the targets are formed
    # once from the Poisson guess (maforward._row_targets); on the heavy rim
    # rows they are rounding floors above NEWTON_TOL max F
    phi = ops.crossing_values(ustar)
    guess, _, (h, *_) = maforward.poisson_init(g, sol.F.values, ustar)
    tol = maforward._row_targets(ops, guess, h, F)
    d11, d22, d12 = stencil_hessian(ops, sol.u.values[g.mask], phi)
    assert np.all(np.abs(d11 * d22 - d12 ** 2 - F) <= tol)


def test_metric_from_solution_deep_accuracy():
    # solved-metric entries and their drift match the analytic inverse
    # Hessian and its drift away from the boundary layer
    n = 64
    g = build_disk(1.0, n)
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g),
                   lambda x, y: x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2)
    met = metric_from_solution(sol)
    deep = g.mask & (np.hypot(X, Y) < 1.0 - 8 * g.dx)
    assert np.abs(met.g11 - 1.0 / (1.0 + X ** 2))[deep].max() < 5e-4
    assert np.abs(met.g12)[deep].max() < 5e-4
    assert np.abs(met.g22 - 1.0)[deep].max() < 5e-4
    # drift of diag(1/(1+x^2), 1); measured 2.0e-5 at 12 cells deep
    dr = drift_field(met)
    deep = g.mask & (np.hypot(X, Y) < 1.0 - 12 * g.dx)
    assert np.abs(dr.c1 + X / (1.0 + X ** 2) ** 2)[deep].max() < 1e-4
    assert np.abs(dr.c2)[deep].max() < 1e-4


def test_rim_stencil_hessian_is_first_order():
    # on a rim row the quadratic ghost misses u by its interpolation error,
    # (1 - a) dx^3 / 3 times the third derivative along the ray, so the
    # second difference reads the second derivative to (1 - a) dx / 3 times
    # the third. D^3 u* is u_xxx = 2x: h11 is off by at most 2 dx / 3; a
    # diagonal difference reads u_xxx / 2^(3/2) over a step of sqrt(2) dx,
    # so h12 by at most dx / 3; h22 by O(dx^2). So the solved Hessian on
    # the rows qrows is first order with a constant of at most 2/3:
    # measured error/dx 0.235, 0.260 and 0.271. The linear ghost, which
    # reads (1 + a) / 2 times the second derivative, left 0.26-0.37 at
    # every n
    def ustar(x, y):
        return x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2
    errs = []
    for n in (48, 96, 192):
        g = build_disk(1.0, n)
        X, Y = g.meshgrid()
        sol = solve_ma(ScalarField(X ** 2 + 1.0, g), ustar)
        h11, h12, h22, ops = linearize.solution_hessian(sol)
        x, rim = X[g.mask], ops.qrows
        errs.append(max(np.abs(h11 - x ** 2 - 1.0)[rim].max(),
                        np.abs(h12)[rim].max(),
                        np.abs(h22 - 1.0)[rim].max()))
        assert errs[-1] <= 2.0 / 3.0 * g.dx, n
    assert errs[0] > errs[1] > errs[2]


def test_drift_of_flat_metric_vanishes():
    g = build_disk(1.0, 64)
    dr = drift_field(flat_metric(g))
    assert np.max(np.hypot(dr.c1, dr.c2)[g.mask]) == 0.0


def test_divergence_form_identity_deep():
    # (1/w) d(w g dv) - X.grad v equals g^{ab} d_ab v once X is the
    # metric's drift; checked on an analytic field away from the rim
    g = build_disk(1.0, 64)
    X, Y = g.meshgrid()
    met = quartic_metric(g)
    v = np.sin(X) * np.cos(Y)
    lhs, deep = divergence_form_apply(met, drift_field(met), v)
    rhs = -(1.0 / (1.0 + X ** 2)) * np.sin(X) * np.cos(Y) \
        - np.sin(X) * np.cos(Y)
    assert np.abs(lhs - rhs)[deep].max() < 6e-3


def test_dual_assembly_agreement_random_metrics():
    # a spread of smooth SPD coefficient fields solves to finite values
    rng = np.random.default_rng(7)
    g = build_disk(1.0, 48)
    X, Y = g.meshgrid()
    for _ in range(20):
        a, b, c = rng.uniform(-0.25, 0.25, size=3)
        s11 = 1.0 + a * np.sin(X + 2 * Y) + b * X ** 2
        s22 = 1.0 + c * np.cos(2 * X - Y) + a * Y ** 2
        s12 = 0.2 * b * np.sin(X * Y)
        met = MetricField(s11, s12, s22, g)
        v = nondiv_solve(met, lambda x, y: x + 0.3 * x * y)
        assert np.all(np.isfinite(v.values[g.mask]))


def test_discrete_maximum_principle():
    rng = np.random.default_rng(11)
    g = build_disk(1.0, 48)
    for _ in range(5):
        a11 = rng.uniform(0.5, 2.0)
        a22 = rng.uniform(0.5, 2.0)
        a12 = rng.uniform(-0.4, 0.4) * min(a11, a22)
        one = np.ones((g.n, g.n))
        met = MetricField(a11 * one, a12 * one, a22 * one, g)
        k1, k2 = rng.uniform(0.5, 2.0, size=2)
        phi = lambda x, y: np.sin(k1 * x) * np.cos(k2 * y)
        v = nondiv_solve(met, phi)
        b = g.boundary
        bound = np.abs(phi(b.points[:, 0], b.points[:, 1])).max()
        assert np.abs(v.values[g.mask]).max() <= bound + 1e-9


def test_anisotropy_rejection():
    g = build_disk(1.0, 48)
    one = np.ones((g.n, g.n))
    met = MetricField(one, np.zeros_like(one), 50.0 * one, g)
    with pytest.raises(GridError, match="anisotropy"):
        nondiv_solve(met, lambda x, y: x)


def test_eps_consistency_flat_base():
    g = build_disk(1.0, 64)
    phi = lambda x, y: 2.0 * x * y
    rep = eps_consistency(1.0, phi, phi, scales=(1.0, 0.5, 0.25), grid=g)
    r = np.asarray(rep.rem1)
    ratios = r[:-1] / r[1:]
    assert np.all(ratios > 3.2) and np.all(ratios < 4.8)
    assert rep.slope1 > 0.9
    assert rep.slope2 > 0.9


def test_eps_consistency_factors_the_metric_once(monkeypatch):
    # the first and second linearizations share one factorization, and
    # every solve on the grid shares its Laplacian's
    g = build_disk(1.0, 48)
    solve_ma_zero(1.0, g)
    factored, factor = [], SparseLU.__init__

    def spy(self, A, order):
        factored.append(A.shape)
        factor(self, A, order)
    monkeypatch.setattr(SparseLU, "__init__", spy)
    phi = lambda x, y: 2.0 * x * y
    eps_consistency(1.0, phi, phi, scales=(1.0, 0.5), grid=g)
    assert len(factored) == 1


def test_eps_consistency_refuses_bad_inputs_before_solving(monkeypatch):
    # scales (1, 0) and (1,) used to return NaN slopes after every solve
    def no_solve(*args):
        raise AssertionError("solved before refusing")
    monkeypatch.setattr(linearize, "solve_ma_zero", no_solve)
    g = build_disk(1.0, 48)
    phi = lambda x, y: 2.0 * x * y
    for kw, name in [({"scales": (1.0, 0.0)}, "scales"),
                     ({"scales": (1.0,)}, "scales"),
                     ({"scales": (0.5, 0.5)}, "scales"),
                     ({"scales": (1.0, np.inf)}, "scales")]:
        with pytest.raises(GridError, match=name):
            eps_consistency(1.0, phi, phi, grid=g, **kw)
    # zero data used to run all nine solves and fit log(0): a
    # RuntimeWarning or NaN slopes
    zero = BoundaryTrace(np.zeros(len(g.boundary)), g)
    for phi1, phi2, name in [(0.0, phi, "phi1"), (phi, 0.0, "phi2"),
                             (zero, phi, "phi1")]:
        with pytest.raises(GridError, match=f"{name} vanishes on the ring"):
            eps_consistency(1.0, phi1, phi2, grid=g)


def test_eps_consistency_affine_data_sits_at_floor():
    # data cos(theta) = x restricts an affine function, and adding an
    # affine function never changes the Hessian: the expansion is exact
    # and every remainder stays at the solver floor
    g = build_disk(1.0, 64)
    rep = eps_consistency(1.0, lambda x, y: x, lambda x, y: y,
                          scales=(1.0, 0.25), grid=g)
    assert max(rep.rem1) < 1e-7
    assert max(rep.e2) < 1e-6


def test_eps_consistency_quartic_base():
    # the solved family is smooth in its data, u_a = u0 + a v1 + O(a^2),
    # so the remainder |u_a - u0 - a v1| is second order in s (halving s
    # quarters it: ratios 4 (1 + O(s))), and the first divided difference
    # misses v1 by O(s), slope1 near 1; measured at three scales
    g = build_disk(1.0, 64)
    X, _ = g.meshgrid()
    F = ScalarField(X ** 2 + 1.0, g)
    phi = lambda x, y: x ** 2 - y ** 2
    rep = eps_consistency(F, phi, phi, scales=(1.0, 0.5, 0.25))
    r = np.asarray(rep.rem1)
    ratios = r[:-1] / r[1:]
    assert np.all(ratios > 3.2) and np.all(ratios < 4.8)
    assert rep.slope1 > 0.9


def test_metric_requires_convexity_certificate():
    g = build_disk(1.0, 48)
    sol = solve_ma_zero(1.0, g)
    object.__setattr__(sol, "convex", False)
    with pytest.raises(GridError, match="convexity"):
        metric_from_solution(sol)


def _smooth_metric(g):
    X, Y = g.meshgrid()
    return MetricField(1 + 0.2 * np.sin(X) * np.cos(Y), 0.1 * X * Y,
                       1 - 0.15 * np.cos(X) * np.sin(Y), g)


def test_nonfinite_metric_fails_fast():
    g = build_disk(1.0, 48)
    met = _smooth_metric(g)
    met.g12[24, 24] = np.nan
    with pytest.raises(GridError, match="non-finite"):
        nondiv_solve(met, lambda x, y: x)


def test_metric_of_another_shape_rejected():
    # a 40^2 metric on an n = 48 disk used to reach the solver and the
    # drift as a bare IndexError
    g = build_disk(1.0, 48)
    one = np.ones((40, 40))
    with pytest.raises(GridError, match=r"\(40, 40\)"):
        MetricField(one, 0.0 * one, one, g)


def test_vector_field_of_another_shape_rejected():
    g = build_disk(1.0, 48)
    with pytest.raises(GridError, match=r"\(40, 40\)"):
        VectorField(np.zeros((48, 48)), np.zeros((40, 40)), g)


def test_divergence_form_apply_refuses_a_foreign_or_non_finite_drift():
    # a drift of the right shape on another domain used to be read as if
    # it lived on this one, and a NaN in it came back as NaN nodes (858
    # mask nodes for a NaN at every x > 0)
    g = build_disk(1.0, 48)
    X, _ = g.meshgrid()
    zero = np.zeros((48, 48))
    other = VectorField(zero, zero, build_disk(0.8, 48))
    with pytest.raises(GridError, match="drift on a different grid"):
        divergence_form_apply(flat_metric(g), other, zero)
    nan = VectorField(np.where(X > 0.0, np.nan, 0.0), zero, g)
    with pytest.raises(GridError, match="non-finite drift"):
        divergence_form_apply(flat_metric(g), nan, zero)


def test_vector_field_holds_real_components():
    # a complex drift used to reach adjoint_solve and fail in the sparse
    # assembly as numpy's bare UFuncTypeError
    g = build_disk(1.0, 32)
    z = np.zeros((32, 32))
    with pytest.raises(GridError, match="complex128"):
        VectorField(z + 1j, z, g)
    # on a box drift_field keeps the real part of its spectral derivatives
    box = PaddedGrid(half=3.0, n=64)
    X, Y = box.meshgrid()
    bump = np.exp(-(X * X + Y * Y))
    dr = drift_field(MetricField(1.0 + 0.2 * bump, 0.1 * X * bump,
                                 1.0 - 0.1 * bump, box))
    assert dr.c1.dtype == dr.c2.dtype == np.float64
    assert np.max(np.abs(dr.c1)) > 0.0


@pytest.mark.parametrize("solve", [
    lambda met: nondiv_solve_many(
        met, [lambda x, y: x, lambda x, y: x * y, 0.5]),
    lambda met: pairing_gap(met, lambda x, y: x * x, lambda x, y: x * y,
                            lambda x, y: 1.0 + x),
], ids=["nondiv_solve_many", "pairing_gap"])
def test_one_assembly_per_solve(monkeypatch, solve):
    # nondiv_solve used to assemble its equation a second time, rescaled by
    # the volume weight, as a cross-check; pairing_gap used to factor three
    # systems, the adjoint's with lower-order terms of its own, where its
    # four solves share one
    g = build_disk(1.0, 48)
    systems, lus = [], []
    system, factor = maforward.StencilOps.system, SparseLU.__init__

    def count_system(self, *args):
        systems.append(1)
        return system(self, *args)

    def count_lu(self, A, order):
        lus.append(1)
        factor(self, A, order)
    monkeypatch.setattr(maforward.StencilOps, "system", count_system)
    monkeypatch.setattr(SparseLU, "__init__", count_lu)
    solve(_smooth_metric(g))
    assert (len(systems), len(lus)) == (1, 1)


def test_block_solve_equals_column_solves():
    g = build_disk(1.0, 64)
    met = _smooth_metric(g)
    datas = [lambda x, y: x, lambda x, y: x * y - 0.2,
             lambda x, y: np.cos(2 * x) * y]
    many = nondiv_solve_many(met, datas, f=0.3)
    for phi, v in zip(datas, many):
        one = nondiv_solve(met, phi, f=0.3)
        assert np.max(np.abs(v.values - one.values)) <= 1e-12


def test_residual_check_is_live():
    g = build_disk(1.0, 48)
    with pytest.raises(LinearSolveFailure) as exc:
        dn_lin_matrix(_smooth_metric(g), None, 2, rtol=1e-20)
    assert exc.value.residuals and min(exc.value.residuals) > 0.0


def test_bad_rtol_fails_before_any_factorization(monkeypatch):
    # nan and -1 used to factor first and then fail the residual check
    met = metric_from_solution(solve_ma_zero(1.0, build_disk(1.0, 48)))
    factored, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda *a, **k: factored.append(1) or splu(*a, **k))
    for rtol in (np.nan, np.inf, -1.0, 0.0):
        with pytest.raises(GridError, match="rtol"):
            dn_lin_matrix(met, None, 2, rtol=rtol)
    assert factored == []


def test_no_data_fails_before_any_assembly(monkeypatch):
    # used to assemble and factor, then fail in np.column_stack with
    # "need at least one array to concatenate"
    def no_assembly(*args):
        raise AssertionError("assembled before refusing")
    monkeypatch.setattr(linearize, "build_stencil_ops", no_assembly)
    met = flat_metric(build_disk(1.0, 48))
    for datas in ([], (), iter([])):
        with pytest.raises(GridError, match="at least one boundary data"):
            nondiv_solve_many(met, datas)


@pytest.mark.parametrize("f, msg", [
    (ScalarField(np.ones((48, 48)), build_disk(0.9, 48)), "different grid"),
    (np.ones((40, 40)), r"\(40, 40\)"),
    (np.ones(7), r"\(7,\)"),
])
def test_source_inputs_fail_with_a_named_cause(f, msg):
    g = build_disk(1.0, 48)
    with pytest.raises(GridError, match=msg):
        nondiv_solve(flat_metric(g), 0.0, f=f)


def test_source_on_an_equal_grid_and_as_a_callable():
    g = build_disk(1.0, 48)
    X, Y = g.meshgrid()
    met = flat_metric(g)
    ref = nondiv_solve(met, 0.0, f=np.ones((48, 48))).values
    twin = ScalarField(np.ones((48, 48)), build_disk(1.0, 48))
    assert np.array_equal(nondiv_solve(met, 0.0, f=twin).values, ref)
    assert np.array_equal(nondiv_solve(met, 0.0, f=lambda x, y: 1.0).values,
                          ref)
