"""Linearized solves, the solution-induced metric, and expansion checks.

Oracles: harmonic polynomials on the flat metric, a manufactured solve on
the analytic quartic metric diag(1/(1+x^2), 1), the drifted exponential
e^x for the adjoint, and the Poisson solve w = 2(x^2+y^2-1) for the
second linearization. Solved-metric accuracy is split by depth: discrete
Hessians carry a geometric boundary layer (in cells, independent of
resolution), so the metric and its drift are checked away from the rim.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from malab import linearize
from malab.dnmap import dn_full_derivative, dn_lin, dn_lin_matrix
from malab.grid import (GridError, MetricField, ScalarField, build_disk,
                        build_ellipse, quadrature)
from malab.maforward import (SparseLU, build_stencil_ops, solve_ma,
                             solve_ma_zero, stencil_hessian)
from malab.complexcalc import deriv
from malab.linearize import (LinearSolveFailure, VectorField, adjoint_solve,
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


def test_adjoint_constant_drift_exponential():
    # with g = I and X = (-1, 0) the adjoint operator is Lap - d/dx,
    # annihilated by e^x
    g = build_disk(1.0, 64)
    X, Y = g.meshgrid()
    Xf = VectorField(-np.ones_like(X), np.zeros_like(X), g)
    vs = adjoint_solve(flat_metric(g), Xf, lambda x, y: np.exp(x))
    assert np.abs(vs.values - np.exp(X))[g.mask].max() < 1e-3


def test_adjoint_zero_drift_is_harmonic_extension():
    g = build_disk(1.0, 64)
    X, Y = g.meshgrid()
    Z = np.zeros_like(X)
    vs = adjoint_solve(flat_metric(g), VectorField(Z, Z.copy(), g),
                       lambda x, y: x * y)
    assert np.abs(vs.values - X * Y)[g.mask].max() < 1e-8


def test_adjoint_duality_quadrature():
    # <L v, v*> = <v, L* v*> in L^2(w dx) for compactly supported fields;
    # L is the bare non-divergence operator, L* the adjoint with the
    # metric's own drift
    g = build_disk(1.0, 96)
    X, Y = g.meshgrid()
    met = quartic_metric(g)
    w = np.sqrt(1.0 + X ** 2)

    def bump(cx, cy, rad):
        rho = np.hypot(X - cx, Y - cy) / rad
        out = np.where(rho < 1.0, (1.0 - rho ** 2) ** 3, 0.0)
        return out

    v = bump(-0.2, 0.0, 0.5)
    vs = bump(0.2, 0.1, 0.5)
    Lv = met.g11 * deriv(v, g, 2, 0) + met.g22 * deriv(v, g, 0, 2)
    Xg = drift_field(met)
    c0 = (deriv(w * Xg.c1, g, 1, 0) + deriv(w * Xg.c2, g, 0, 1)) / w
    Ls = (met.g11 * deriv(vs, g, 2, 0) + met.g22 * deriv(vs, g, 0, 2)
          + 2.0 * (Xg.c1 * deriv(vs, g, 1, 0) + Xg.c2 * deriv(vs, g, 0, 1))
          + c0 * vs)
    gap = quadrature(ScalarField(w * (vs * Lv - v * Ls), g))
    assert abs(gap) < 5e-4


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


def test_newton_jacobian_is_F_times_the_linearized_operator():
    # cof(D^2 u) = det(D^2 u) (D^2 u)^{-1}, and det D^2 u = F at a solution,
    # so the Newton Jacobian is diag(F) A_g on the PDE rows; both share R
    def ustar(x, y):
        return x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2
    g = build_ellipse(1.03, 0.92, 168)
    X, _ = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), ustar)
    ops = build_stencil_ops(g)
    h11, h22, h12 = stencil_hessian(ops, sol.u.values[g.mask],
                                    ops.crossing_values(ustar))
    J = ops.system(h22, -h12, h11)
    met = metric_from_solution(sol)
    A = ops.system(*(c[g.mask] for c in (met.g11, met.g12, met.g22)))
    Fdiag = sp.diags(np.where(ops.pde, sol.F.values[g.mask], 1.0))
    # measured 6.9e-12
    assert abs(J - Fdiag @ A).max() <= 1e-9 * abs(J).max()


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
    # the divergence-form cross-check inside nondiv_solve must accept the
    # computed solution for a spread of smooth SPD coefficient fields
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

    def spy(self, A):
        factored.append(A.shape)
        factor(self, A)
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
        nondiv_solve(_smooth_metric(g), lambda x, y: x * y, rtol=1e-20)
    assert exc.value.residuals and min(exc.value.residuals) > 0.0


def test_bad_rtol_fails_before_any_factorization(monkeypatch):
    # nan and -1 used to factor first and then fail the residual check
    g = build_disk(1.0, 48)
    base = solve_ma_zero(1.0, g)
    met = metric_from_solution(base)
    phi = lambda x, y: x * y
    v = nondiv_solve(met, phi)
    zero = VectorField(np.zeros((48, 48)), np.zeros((48, 48)), g)
    factored, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda *a, **k: factored.append(1) or splu(*a, **k))
    for rtol in (np.nan, np.inf, -1.0, 0.0):
        for call in (lambda: nondiv_solve(met, phi, rtol=rtol),
                     lambda: nondiv_solve_many(met, [phi], rtol=rtol),
                     lambda: adjoint_solve(met, zero, phi, rtol=rtol),
                     lambda: second_solve(met, v, v, phi, phi, rtol=rtol),
                     lambda: dn_lin(met, phi, rtol=rtol),
                     lambda: dn_lin_matrix(met, None, 2, rtol=rtol),
                     lambda: dn_full_derivative(base, phi, rtol=rtol)):
            with pytest.raises(GridError, match="rtol"):
                call()
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
    met = flat_metric(g)
    zero = np.zeros((48, 48))
    with pytest.raises(GridError, match=msg):
        nondiv_solve(met, 0.0, f=f)
    with pytest.raises(GridError, match=msg):
        adjoint_solve(met, VectorField(zero, zero, g), 0.0, f=f)


def test_source_on_an_equal_grid_and_as_a_callable():
    g = build_disk(1.0, 48)
    X, Y = g.meshgrid()
    met = flat_metric(g)
    ref = nondiv_solve(met, 0.0, f=np.ones((48, 48))).values
    twin = ScalarField(np.ones((48, 48)), build_disk(1.0, 48))
    assert np.array_equal(nondiv_solve(met, 0.0, f=twin).values, ref)
    assert np.array_equal(nondiv_solve(met, 0.0, f=lambda x, y: 1.0).values,
                          ref)
