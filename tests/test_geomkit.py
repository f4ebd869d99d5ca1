"""Christoffel symbols, transformation laws, pullbacks, and charts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from malab.geomkit import (ChristoffelField, DiffeoField, christoffel,
                           compose_diffeos, conformal_christoffel,
                           contracted_drift, diffeo_rigidity_solve,
                           invert_diffeo, isothermal, pullback_metric,
                           pullback_scalar, pullback_vector,
                           transform_solution_check, _beltrami_map,
                           _covariant, _erode)
from malab.grid import (GridError, MetricField, PaddedGrid, ScalarField,
                        _CubicBlock, build_disk)
from malab.linearize import VectorField, drift_field, nondiv_solve


def box(n=128, half=4.0):
    return PaddedGrid(half=half, n=n)


def flat(grid):
    one = np.ones((grid.n, grid.n))
    return MetricField(one, np.zeros((grid.n, grid.n)), one.copy(), grid)


def conformal_metric(sig, grid):
    """Stored (contravariant) form of the covariant metric e^{2 sig} I."""
    e = np.exp(-2.0 * sig)
    return MetricField(e, np.zeros_like(e), e.copy(), grid)


def random_box_metric(rng, grid, amp=0.15):
    """SPD metric with band-limited trigonometric covariant components."""
    X, Y = grid.meshgrid()
    k0 = np.pi / grid.half

    def field(scale):
        f = np.zeros_like(X)
        for _ in range(3):
            m1, m2 = rng.integers(0, 4, size=2)
            ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
            f += rng.uniform(0.3, 1.0) * np.sin(m1 * k0 * X + ph1) \
                * np.sin(m2 * k0 * Y + ph2)
        return scale * f / 3.0

    c11 = 1.0 + field(amp)
    c12 = field(0.5 * amp)
    c22 = 1.0 + field(amp)
    det = c11 * c22 - c12 ** 2
    assert float(det.min()) > 0.25
    return MetricField(c22 / det, -c12 / det, c11 / det, grid)


# ---------------------------------------------------------------------------
# Christoffel symbols


def test_christoffel_flat_is_zero():
    gam = christoffel(flat(box(n=64)))
    assert float(np.max(np.abs(gam.values))) == 0.0


def test_christoffel_symmetric_in_lower_indices():
    gam = christoffel(random_box_metric(np.random.default_rng(3), box(n=64)))
    for i in range(2):
        assert np.array_equal(gam.component(i, 0, 1), gam.component(i, 1, 0))


def test_christoffel_conformal_example_disk():
    # covariant e^{2 x1} I: the nonzero symbols are G^1_11 = 1,
    # G^1_22 = -1, G^2_12 = G^2_21 = 1
    grid = build_disk(n=128)
    X, _ = grid.meshgrid()
    gam = christoffel(conformal_metric(X, grid))
    inner = _erode(grid.mask, 3)
    expect = {(0, 0, 0): 1.0, (0, 1, 1): -1.0, (1, 0, 1): 1.0,
              (1, 1, 0): 1.0}
    for i in range(2):
        for k in range(2):
            for l in range(2):
                want = expect.get((i, k, l), 0.0)
                err = float(np.max(np.abs(gam.component(i, k, l)
                                          - want)[inner]))
                if want:
                    assert err <= 2e-6, (i, k, l, err)
                else:
                    assert err <= 1e-12, (i, k, l, err)


def test_christoffel_matches_analytic_oracle():
    # random band-limited covariant tensors whose derivatives are known in
    # closed form; the symbols are assembled here independently
    grid = box()
    X, Y = grid.meshgrid()
    k0 = np.pi / grid.half
    rng = np.random.default_rng(7)
    for _ in range(3):
        comps = {}
        for name in ("11", "12", "22"):
            m1, m2 = rng.integers(1, 4, size=2)
            ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
            amp = rng.uniform(0.03, 0.08) * (0.5 if name == "12" else 1.0)
            base = 0.0 if name == "12" else 1.0
            s1, c1 = np.sin(m1 * k0 * X + ph1), np.cos(m1 * k0 * X + ph1)
            s2, c2 = np.sin(m2 * k0 * Y + ph2), np.cos(m2 * k0 * Y + ph2)
            comps[name] = (base + amp * s1 * s2,
                           amp * m1 * k0 * c1 * s2,
                           amp * m2 * k0 * s1 * c2)
        C11, C12, C22 = comps["11"][0], comps["12"][0], comps["22"][0]
        det = C11 * C22 - C12 ** 2
        gam = christoffel(MetricField(C22 / det, -C12 / det, C11 / det,
                                      grid))
        dC = {(0, 0): comps["11"][1:], (0, 1): comps["12"][1:],
              (1, 1): comps["22"][1:]}

        def d_cov(m, k, ax):
            return dC[(min(m, k), max(m, k))][ax]

        S = ((C22 / det, -C12 / det), (-C12 / det, C11 / det))
        for i in range(2):
            for k in range(2):
                for l in range(2):
                    tot = np.zeros_like(X)
                    for m in range(2):
                        tot += 0.5 * S[i][m] * (d_cov(m, k, l)
                                                + d_cov(m, l, k)
                                                - d_cov(k, l, m))
                    err = float(np.max(np.abs(gam.component(i, k, l)
                                              - tot)))
                    assert err <= 1e-12, (i, k, l, err)


def test_christoffel_rejects_indefinite_metric():
    grid = box(n=32)
    one = np.ones((grid.n, grid.n))
    bad = MetricField(one, 2.0 * one, one.copy(), grid)
    with pytest.raises(GridError):
        christoffel(bad)


# ---------------------------------------------------------------------------
# contracted drift vs the divergence-route drift


def test_contracted_drift_matches_drift_field_box():
    grid = box()
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        g = random_box_metric(rng, grid)
        a = contracted_drift(g)
        b = drift_field(g)
        worst = max(worst,
                    float(np.max(np.abs(a.c1 - b.c1))),
                    float(np.max(np.abs(a.c2 - b.c2))))
    assert worst <= 1e-6, worst


def test_contracted_drift_conformal_exact_zero():
    grid = box()
    X, Y = grid.meshgrid()
    k0 = np.pi / grid.half
    for sig in (0.3 * np.sin(k0 * X) * np.cos(k0 * Y),
                0.2 * np.cos(2 * k0 * X),
                0.1 * np.sin(k0 * (X + Y))):
        Xg = contracted_drift(conformal_metric(sig, grid))
        assert float(np.max(np.abs(Xg.c1))) <= 1e-15
        assert float(np.max(np.abs(Xg.c2))) <= 1e-15


def test_contracted_drift_matches_drift_field_disk():
    grid = build_disk(n=64)
    X, Y = grid.meshgrid()
    inner = _erode(grid.mask, 3)
    rng = np.random.default_rng(11)
    for _ in range(3):
        a = 1 + 0.15 * np.sin(rng.uniform(0.5, 2) * X + rng.uniform(0, 6))
        b = 0.08 * np.sin(X * rng.uniform(0.5, 1.5)) * np.cos(Y)
        c = 1 + 0.12 * np.cos(rng.uniform(0.5, 2) * Y)
        g = MetricField(a, b, c, grid)
        u = contracted_drift(g)
        v = drift_field(g)
        gap = float(np.max(np.abs(np.stack([u.c1 - v.c1,
                                            u.c2 - v.c2]))[:, inner].max()))
        assert gap <= 1e-6, gap


# ---------------------------------------------------------------------------
# conformal transformation law


def test_conformal_law_trivial_factor():
    grid = box(n=64)
    g = random_box_metric(np.random.default_rng(5), grid)
    gam = christoffel(g)
    out = conformal_christoffel(gam, g, 1.0)
    assert np.array_equal(out.values, gam.values)
    # symbols on an equal box are accepted, on another box refused
    twin = MetricField(g.g11, g.g12, g.g22, box(n=64))
    assert np.array_equal(conformal_christoffel(gam, twin, 1.0).values,
                          gam.values)
    other = MetricField(g.g11, g.g12, g.g22, box(n=64, half=3.0))
    with pytest.raises(GridError, match="different grids"):
        conformal_christoffel(gam, other, 1.0)


def test_conformal_law_matches_direct():
    grid = box()
    X, Y = grid.meshgrid()
    k0 = np.pi / grid.half
    rng = np.random.default_rng(17)
    for _ in range(3):
        g = random_box_metric(rng, grid)
        sig = 0.2 * np.sin(k0 * X + rng.uniform(0, 6)) \
            * np.cos(k0 * Y + rng.uniform(0, 6))
        c = np.exp(2.0 * sig)
        via_law = conformal_christoffel(christoffel(g), g, c)
        # covariant c*C has stored form S/c
        direct = christoffel(MetricField(g.g11 / c, g.g12 / c, g.g22 / c,
                                         grid))
        gap = float(np.max(np.abs(via_law.values - direct.values)))
        assert gap <= 1e-12, gap


def test_conformal_law_additive_in_log():
    grid = box()
    X, Y = grid.meshgrid()
    k0 = np.pi / grid.half
    g = random_box_metric(np.random.default_rng(29), grid)
    gam = christoffel(g)
    c1 = np.exp(0.4 * np.sin(k0 * X))
    c2 = np.exp(0.3 * np.cos(k0 * Y))
    step1 = conformal_christoffel(gam, g, c1)
    scaled = MetricField(g.g11 / c1, g.g12 / c1, g.g22 / c1, grid)
    step2 = conformal_christoffel(step1, scaled, c2)
    joint = conformal_christoffel(gam, g, c1 * c2)
    gap = float(np.max(np.abs(step2.values - joint.values)))
    assert gap <= 1e-12, gap


def test_conformal_law_rejects_nonpositive_factor():
    grid = box(n=32)
    g = flat(grid)
    X, _ = grid.meshgrid()
    with pytest.raises(GridError):
        conformal_christoffel(christoffel(g), g, X)


# ---------------------------------------------------------------------------
# pullbacks


def test_pullback_identity_exact():
    grid = box(n=64)
    X, Y = grid.meshgrid()
    g = random_box_metric(np.random.default_rng(2), grid)
    J = DiffeoField.identity(grid)
    gp = pullback_metric(J, g)
    assert np.array_equal(gp.g11, g.g11)
    assert np.array_equal(gp.g12, g.g12)
    assert np.array_equal(gp.g22, g.g22)
    f = ScalarField(np.sin(np.pi / grid.half * X), grid)
    assert np.array_equal(pullback_scalar(J, f).values, f.values)
    v = VectorField(np.cos(np.pi / grid.half * Y), 0 * X, grid)
    vp = pullback_vector(J, v)
    assert np.array_equal(vp.c1, v.c1)
    assert np.array_equal(vp.c2, v.c2)


def _rotation(grid, th):
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return R, DiffeoField.affine(R, grid)


def test_pullback_rotation_preserves_flat_metric():
    grid = box()
    _, J = _rotation(grid, 0.2)
    gp = pullback_metric(J, flat(grid))
    assert float(np.max(np.abs(gp.g11 - 1.0))) <= 1e-14
    assert float(np.max(np.abs(gp.g12))) <= 1e-14
    assert float(np.max(np.abs(gp.g22 - 1.0))) <= 1e-14


def test_pullback_rotation_scalar_quadratic_core():
    grid = box()
    X, Y = grid.meshgrid()
    R, J = _rotation(grid, 0.2)
    q = ScalarField(X ** 2 - Y ** 2 + 0.5 * X * Y, grid)
    qp = pullback_scalar(J, q)
    xr, yr = R[0, 0] * X + R[0, 1] * Y, R[1, 0] * X + R[1, 1] * Y
    want = xr ** 2 - yr ** 2 + 0.5 * xr * yr
    core = grid.core_mask(grid.half / 2.0)
    assert float(np.max(np.abs(qp.values - want)[core])) <= 1e-12


def test_pullback_rotation_constant_vector():
    grid = box(n=64)
    th = 0.2
    R, J = _rotation(grid, th)
    X, _ = grid.meshgrid()
    v = VectorField(np.ones_like(X), np.zeros_like(X), grid)
    vp = pullback_vector(J, v)
    assert float(np.max(np.abs(vp.c1 - np.cos(th)))) <= 1e-13
    assert float(np.max(np.abs(vp.c2 + np.sin(th)))) <= 1e-13


def _compact_diffeo(grid, a=0.18, b=-0.7):
    X, Y = grid.meshgrid()
    bump = a * np.exp(-(X ** 2 + Y ** 2) / 1.5)
    return DiffeoField(bump, b * bump, grid)


def test_pullback_inverse_roundtrip():
    grid = box()
    g = random_box_metric(np.random.default_rng(31), grid)
    J = _compact_diffeo(grid)
    Ji = invert_diffeo(J)
    back = pullback_metric(Ji, pullback_metric(J, g))
    core = grid.core_mask(grid.half / 2.0)
    gap = max(float(np.max(np.abs(back.g11 - g.g11)[core])),
              float(np.max(np.abs(back.g12 - g.g12)[core])),
              float(np.max(np.abs(back.g22 - g.g22)[core])))
    assert gap <= 5e-6, gap


def test_pullback_functoriality():
    grid = box()
    X, Y = grid.meshgrid()
    g = random_box_metric(np.random.default_rng(37), grid)
    J1 = _compact_diffeo(grid)
    bump = 0.12 * np.exp(-((X - 0.5) ** 2 + Y ** 2) / 1.2)
    J2 = DiffeoField(-0.4 * bump, bump, grid)
    lhs = pullback_metric(compose_diffeos(J1, J2), g)
    rhs = pullback_metric(J2, pullback_metric(J1, g))
    core = grid.core_mask(grid.half / 2.0)
    gap = max(float(np.max(np.abs(lhs.g11 - rhs.g11)[core])),
              float(np.max(np.abs(lhs.g12 - rhs.g12)[core])),
              float(np.max(np.abs(lhs.g22 - rhs.g22)[core])))
    assert gap <= 5e-6, gap


def test_pullback_rejects_wraparound_reach():
    grid = box(n=32)
    X, _ = grid.meshgrid()
    J = DiffeoField(np.full_like(X, 0.4 * grid.half), np.zeros_like(X),
                    grid)
    with pytest.raises(GridError, match="alias"):
        pullback_scalar(J, ScalarField(X, grid))


def test_pullback_rejects_folding_map():
    grid = box(n=64)
    X, Y = grid.meshgrid()
    fold = -1.2 * X * np.exp(-(X ** 2 + Y ** 2) / 0.25)
    J = DiffeoField(fold, np.zeros_like(X), grid)
    with pytest.raises(GridError, match="orientation"):
        pullback_metric(J, flat(grid))


def test_diffeo_rejects_nonfinite_input():
    grid = box(n=64)
    X, Y = grid.meshgrid()
    d1 = 0.05 * np.exp(-(X ** 2 + Y ** 2))
    bad = d1.copy()
    bad[10, 20] = np.nan
    with pytest.raises(GridError, match="displacement.*non-finite"):
        DiffeoField(bad, np.zeros_like(X), grid)
    one, zero = np.ones_like(X), np.zeros_like(X)
    with pytest.raises(GridError, match="Jacobian.*non-finite"):
        DiffeoField(d1, zero, grid, jac=(one, zero, np.inf, one))


def test_invert_rejects_noncontracting_map():
    grid = box(n=64)
    X, Y = grid.meshgrid()
    fold = -1.2 * X * np.exp(-(X ** 2 + Y ** 2) / 0.25)
    with pytest.raises(GridError, match="contract"):
        invert_diffeo(DiffeoField(fold, np.zeros_like(X), grid))


def _inverse_residual(J, Ji):
    """max over every node p of |z + d(z) - p|, z = Ji(p), over max |d|."""
    z1, z2 = Ji.points()
    at = _CubicBlock(J.grid, z1, z2)
    X, Y = J.grid.meshgrid()
    r = np.hypot(z1 + at(J.d1) - X, z2 + at(J.d2) - Y)
    return float(np.max(r)) / float(np.max(np.hypot(J.d1, J.d2)))


def chart_metric(grid, a, b, c, w):
    """Stored form of the seeded non-conformal bump metric of the charts."""
    X, Y = grid.meshgrid()
    bump = np.exp(-(X * X + Y * Y) / w)
    C11, C22, C12 = 1.0 + a * bump, 1.0 - b * bump, c * X * Y * bump
    det = C11 * C22 - C12 ** 2
    return MetricField(C22 / det, -C12 / det, C11 / det, grid)


def _w_map(g):
    return _beltrami_map(*_covariant(g), g.grid, 0.1, 1e-12, 64)


def test_invert_converges_at_every_node():
    # the seam nodes of the Beltrami map, where C phi ~ c/z does not wrap,
    # converge last; every node must still meet the step tolerance
    grid = box()
    rng = np.random.default_rng(8)
    g = chart_metric(grid, *rng.uniform([0.15, 0.08, 0.05, 0.4],
                                        [0.3, 0.2, 0.15, 0.6]))
    for J in (_w_map(g), _compact_diffeo(grid)):
        res = _inverse_residual(J, invert_diffeo(J))
        assert res <= 10 * 1e-12, res


def test_invert_exhausted_iteration_raises():
    J = _compact_diffeo(box(n=64))
    with pytest.raises(GridError, match="stalled"):
        invert_diffeo(J, maxiter=3)
    assert _inverse_residual(J, invert_diffeo(J)) <= 10 * 1e-12


def test_compose_accepts_an_equal_box():
    grid, twin = box(n=64), box(n=64)
    assert twin is not grid
    J1 = _compact_diffeo(grid)
    K = compose_diffeos(J1, _compact_diffeo(twin, a=0.1, b=0.3))
    same = compose_diffeos(J1, _compact_diffeo(grid, a=0.1, b=0.3))
    assert np.array_equal(K.d1, same.d1) and np.array_equal(K.d2, same.d2)
    with pytest.raises(GridError, match="different grids"):
        compose_diffeos(J1, _compact_diffeo(box(n=64, half=3.0)))


def test_compose_rotations_adds_angles():
    # affine displacements are linear in x, so sampling them wraps badly
    # at the box seam; the composition is exact over the core
    grid = box(n=64)
    _, Ja = _rotation(grid, 0.08)
    _, Jb = _rotation(grid, 0.05)
    Rc, Jc = _rotation(grid, 0.13)
    comp = compose_diffeos(Ja, Jb)
    p1, p2 = comp.points()
    q1, q2 = Jc.points()
    core = grid.core_mask(grid.half / 2.0)
    assert float(np.max(np.hypot(p1 - q1, p2 - q2)[core])) <= 1e-13
    j = comp.jacobian()
    for got, want in zip(j, (Rc[0, 0], Rc[0, 1], Rc[1, 0], Rc[1, 1])):
        assert float(np.max(np.abs(got - want))) <= 1e-13


def test_affine_jacobian_is_exact():
    grid = box(n=32)
    R, J = _rotation(grid, 0.3)
    j11, j12, j21, j22 = J.jacobian()
    assert np.all(j11 == R[0, 0]) and np.all(j12 == R[0, 1])
    assert np.all(j21 == R[1, 0]) and np.all(j22 == R[1, 1])


# ---------------------------------------------------------------------------
# transported solutions


def test_transform_check_identity_matches_base():
    grid = build_disk(n=64)
    X, Y = grid.meshgrid()
    g = MetricField(1 + 0.2 * np.sin(X) * np.cos(Y),
                    0.1 * X * Y * np.exp(-(X ** 2 + Y ** 2)),
                    1 - 0.15 * np.cos(X) * np.sin(Y), grid)
    v = nondiv_solve(g, lambda x, y: x * x - y * y + 0.3 * x)
    rep = transform_solution_check(g, drift_field(g),
                                   DiffeoField.identity(grid), 1.0, v)
    assert rep.residual == rep.base_residual
    assert rep.nodes > 1000
    # a map and a solution on an equal disk are accepted, on another refused
    twin = build_disk(n=64)
    same = transform_solution_check(g, drift_field(g),
                                    DiffeoField.identity(twin), 1.0,
                                    ScalarField(v.values, twin))
    assert same == rep
    other = build_disk(0.9, 64)
    with pytest.raises(GridError, match="different grids"):
        transform_solution_check(g, drift_field(g),
                                 DiffeoField.identity(other), 1.0, v)
    with pytest.raises(GridError, match="different grids"):
        transform_solution_check(g, drift_field(g), DiffeoField.identity(grid),
                                 1.0, ScalarField(v.values, other))


def test_transform_check_accepts_a_constant_callable():
    grid = build_disk(n=64)
    g = flat(grid)
    v = nondiv_solve(g, lambda x, y: x * x - y * y + 0.3 * x)
    X = drift_field(g)
    one = transform_solution_check(g, X, DiffeoField.identity(grid), 1.0, v)
    call = transform_solution_check(g, X, DiffeoField.identity(grid),
                                    lambda x, y: 1.0, v)
    assert call.residual == one.residual


def test_transform_check_rotated_harmonic():
    grid = build_disk(n=64)
    X, Y = grid.meshgrid()
    R, _ = _rotation(box(n=16), 0.3)
    d1 = (R[0, 0] - 1) * X + R[0, 1] * Y
    d2 = R[1, 0] * X + (R[1, 1] - 1) * Y
    J = DiffeoField(np.where(grid.mask, d1, 0.0),
                    np.where(grid.mask, d2, 0.0), grid)
    g = flat(grid)
    zero = VectorField(np.zeros((grid.n, grid.n)), np.zeros((grid.n, grid.n)), grid)
    v = ScalarField(np.where(grid.mask, X ** 2 - Y ** 2, 0.0), grid)
    rep = transform_solution_check(g, zero, J, 1.0, v,
                                   v2_call=lambda x, y: x ** 2 - y ** 2)
    assert rep.residual <= 1e-10, rep.residual


def test_transform_check_generic_triple():
    grid = build_disk(n=64)
    X, Y = grid.meshgrid()
    r2 = X ** 2 + Y ** 2
    g = MetricField(1 + 0.2 * np.sin(X) * np.cos(Y),
                    0.1 * X * Y * np.exp(-r2),
                    1 - 0.15 * np.cos(X) * np.sin(Y), grid)
    v = nondiv_solve(g, lambda x, y: x * x - y * y + 0.3 * x)
    w = np.clip(1 - r2, 0.0, None)
    J = DiffeoField(np.where(grid.mask, 0.06 * w ** 2 * np.cos(Y), 0.0),
                    np.where(grid.mask, -0.05 * w ** 2 * np.sin(X), 0.0),
                    grid)
    c = ScalarField(np.where(grid.mask, 1.0 + 0.3 * np.exp(-r2), 1.0),
                    grid)
    rep = transform_solution_check(g, drift_field(g), J, c, v)
    assert rep.residual <= 1.5 * rep.base_residual, (rep.residual,
                                                     rep.base_residual)
    assert rep.base_residual <= 1e-3


def test_transform_check_rejects_nonpositive_factor():
    grid = build_disk(n=32)
    g = flat(grid)
    v = ScalarField(np.zeros((grid.n, grid.n)), grid)
    zero = VectorField(np.zeros((grid.n, grid.n)), np.zeros((grid.n, grid.n)), grid)
    with pytest.raises(GridError, match="positive"):
        transform_solution_check(g, zero, DiffeoField.identity(grid),
                                 -1.0, v)


# ---------------------------------------------------------------------------
# rigidity of the coordinate functions


def test_rigidity_returns_identity():
    grid = build_disk(n=64)
    X, Y = grid.meshgrid()
    g = MetricField(1 + 0.2 * np.sin(X) * np.cos(Y),
                    0.1 * X * Y * np.exp(-(X ** 2 + Y ** 2)),
                    1 - 0.15 * np.cos(X) * np.sin(Y), grid)
    J = diffeo_rigidity_solve(g)
    dev = float(np.max(np.hypot(J.d1, J.d2)[grid.mask]))
    assert dev <= 1e-8, dev
    # an equal domain is accepted, another one refused
    same = diffeo_rigidity_solve(g, build_disk(n=64))
    assert np.array_equal(same.d1, J.d1) and np.array_equal(same.d2, J.d2)
    with pytest.raises(GridError, match="different grid"):
        diffeo_rigidity_solve(g, build_disk(0.9, 64))


def test_rigidity_conformal_metric():
    grid = build_disk(n=64)
    X, Y = grid.meshgrid()
    J = diffeo_rigidity_solve(conformal_metric(0.2 * np.sin(X) * np.cos(Y),
                                               grid))
    dev = float(np.max(np.hypot(J.d1, J.d2)[grid.mask]))
    assert dev <= 1e-8, dev


def test_rigidity_perturbed_data_scales_linearly():
    grid = build_disk(n=64)
    X, Y = grid.meshgrid()
    g = MetricField(1 + 0.2 * np.sin(X) * np.cos(Y),
                    0.1 * X * Y * np.exp(-(X ** 2 + Y ** 2)),
                    1 - 0.15 * np.cos(X) * np.sin(Y), grid)
    dev = {}
    for eps in (1e-3, 2e-3):
        J = diffeo_rigidity_solve(
            g, data=(lambda x, y, e=eps: x + e * np.cos(2 * np.arctan2(y,
                                                                       x)),
                     lambda x, y: y))
        dev[eps] = float(np.max(np.hypot(J.d1, J.d2)[grid.mask]))
    assert 5e-4 <= dev[1e-3] <= 1.5e-3
    assert abs(dev[2e-3] - 2.0 * dev[1e-3]) <= 1e-8


def test_rigidity_requires_domain_grid():
    g = flat(box(n=32))
    with pytest.raises(GridError):
        diffeo_rigidity_solve(g)


# ---------------------------------------------------------------------------
# isothermal charts


def test_isothermal_flat_metric_exact():
    grid = build_disk(n=64)
    chi, mu = isothermal(flat(grid))
    assert float(np.max(np.hypot(chi.d1, chi.d2))) == 0.0
    assert float(np.max(np.abs(mu.values - 1.0))) == 0.0


def test_isothermal_conformal_metric_exact():
    grid = build_disk(n=64)
    X, _ = grid.meshgrid()
    chi, mu = isothermal(conformal_metric(X, grid))
    assert float(np.max(np.hypot(chi.d1, chi.d2))) == 0.0
    assert float(np.max(np.abs(mu.values - np.exp(2.0 * X)))) <= 1e-14


def test_isothermal_general_metric_defect():
    grid = box()
    X, Y = grid.meshgrid()
    r2 = X ** 2 + Y ** 2
    bump = np.exp(-r2 / 0.5)
    C11 = 1.0 + 0.25 * bump
    C22 = 1.0 - 0.15 * bump
    C12 = 0.10 * X * Y * bump
    det = C11 * C22 - C12 ** 2
    g = MetricField(C22 / det, -C12 / det, C11 / det, grid)
    chi, mu = isothermal(g)
    assert float(np.max(np.hypot(chi.d1, chi.d2))) > 0.0
    pulled = pullback_metric(chi, g)
    dd = pulled.g11 * pulled.g22 - pulled.g12 ** 2
    q11, q12, q22 = pulled.g22 / dd, -pulled.g12 / dd, pulled.g11 / dd
    core = grid.core_mask(grid.half / 3.0)
    defect = max(float(np.max(np.abs(q12[core]))),
                 float(np.max(np.abs(q11 - q22)[core])))
    assert defect <= 1e-3, defect
    assert float(np.min(mu.values[core])) > 0.0


def test_isothermal_rejects_large_beltrami_coefficient():
    grid = box(n=64)
    X, Y = grid.meshgrid()
    bump = np.exp(-(X ** 2 + Y ** 2) / 0.5)
    C11 = 1.0 + 1.0 * bump
    g = MetricField(1.0 / C11, np.zeros_like(X), np.ones_like(X), grid)
    with pytest.raises(GridError, match="Beltrami"):
        isothermal(g, margin=0.9)


def test_isothermal_general_needs_padded_grid():
    grid = build_disk(n=32)
    X, Y = grid.meshgrid()
    C11 = 1.0 + 0.2 * np.exp(-(X ** 2 + Y ** 2))
    g = MetricField(1.0 / C11, np.zeros_like(X), np.ones_like(X), grid)
    with pytest.raises(GridError, match="padded"):
        isothermal(g)


@settings(max_examples=10)
@given(a=st.floats(0.15, 0.3), b=st.floats(0.08, 0.2),
       c=st.floats(0.05, 0.15), w=st.floats(0.4, 0.6))
def test_isothermal_chart_properties(a, b, c, w):
    # the amplitude ranges of the beltrami-chart benchmark inputs
    grid = box()
    g = chart_metric(grid, a, b, c, w)
    chi, mu = isothermal(g)
    p11, p12, p22 = _covariant(pullback_metric(chi, g))
    core = grid.core_mask(grid.half / 3.0)
    defect = max(float(np.max(np.abs(p12[core]))),
                 float(np.max(np.abs(p11 - p22)[core])))
    assert defect <= 1e-3, defect
    assert float(np.min(mu.values[core])) > 0.0
    J = _w_map(g)
    assert _inverse_residual(J, chi) <= 10 * 1e-12
