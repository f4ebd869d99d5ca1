"""Pullbacks, inversions, transported solutions, rigidity, and charts.

Two reference routes live here as oracles: the Christoffel symbols with
their contracted drift, against which drift_field is checked, and the
composition of maps, with which pullback_metric is checked functorial.
The linear maps J(x) = M x of the rotation tests come from affine, with
their exact Jacobian attached.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from malab import geomkit
from malab.complexcalc import deriv, smooth_cutoff
from malab.geomkit import (CONFORMAL_TOL, DiffeoField, diffeo_rigidity_solve,
                           invert_diffeo, isothermal, pullback_metric,
                           transform_solution_check, _beltrami_map,
                           _check_reach, _covariant)
from malab.grid import (GridError, MetricField, PaddedGrid, ScalarField,
                        _CubicBlock, _erode, build_disk)
from malab.linearize import VectorField, drift_field, nondiv_solve


# the square of reach 3 around a node
SQUARE3 = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]


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


def christoffel(g: MetricField) -> np.ndarray:
    """Symbols [i, k, l] = 1/2 g^{im} (d_l g_{mk} + d_k g_{ml} - d_m g_{kl})
    as a (2, 2, 2, n, n) array.

    The derivatives act on the covariant components and are the grid's
    own (spectral on boxes, masked differences on domains); the
    contraction uses the stored contravariant tensor directly.
    """
    grid = g.grid
    c11, c12, c22 = _covariant(g)
    d = {}
    for name, comp in (("11", c11), ("12", c12), ("22", c22)):
        for ax, (o1, o2) in (("1", (1, 0)), ("2", (0, 1))):
            d[ax + name] = deriv(comp, grid, o1, o2)

    # lower-index blocks b_m(kl) = d_l g_{mk} + d_k g_{ml} - d_m g_{kl};
    # symmetry of g collapses four of the six to a single derivative
    b = {
        (0, 1): d["111"],
        (0, 2): 2.0 * d["112"] - d["211"],
        (1, 1): d["211"],
        (1, 2): d["122"],
        (2, 1): 2.0 * d["212"] - d["122"],
        (2, 2): d["222"],
    }
    gam = np.empty((2, 2, 2, grid.n, grid.n))
    for i, (gi1, gi2) in enumerate(((g.g11, g.g12), (g.g12, g.g22))):
        for kl, (k, l) in enumerate(((0, 0), (0, 1), (1, 1))):
            gam[i, k, l] = gam[i, l, k] = 0.5 * (gi1 * b[kl, 1]
                                                 + gi2 * b[kl, 2])
    return gam


def contracted_drift(g: MetricField) -> VectorField:
    """Drift through the connection: X^i = -g^{kl} Gamma^i_{kl}.

    Matches drift_field (the divergence formula) within the accuracy of
    the grid's derivative; on conformal metrics the contraction cancels
    algebraically and the result is exactly zero.
    """
    gam = christoffel(g)
    return VectorField(*(-(g.g11 * gam[i, 0, 0] + 2.0 * g.g12 * gam[i, 0, 1]
                           + g.g22 * gam[i, 1, 1]) for i in range(2)),
                       g.grid)


def test_christoffel_flat_is_zero():
    gam = christoffel(flat(box(n=64)))
    assert float(np.max(np.abs(gam))) == 0.0


def test_christoffel_symmetric_in_lower_indices():
    gam = christoffel(random_box_metric(np.random.default_rng(3), box(n=64)))
    for i in range(2):
        assert np.array_equal(gam[i, 0, 1], gam[i, 1, 0])


def test_christoffel_conformal_example_disk():
    # covariant e^{2 x1} I: the nonzero symbols are G^1_11 = 1,
    # G^1_22 = -1, G^2_12 = G^2_21 = 1
    grid = build_disk(n=128)
    X, _ = grid.meshgrid()
    gam = christoffel(conformal_metric(X, grid))
    inner = _erode(grid.mask, SQUARE3)
    expect = {(0, 0, 0): 1.0, (0, 1, 1): -1.0, (1, 0, 1): 1.0,
              (1, 1, 0): 1.0}
    for i in range(2):
        for k in range(2):
            for l in range(2):
                want = expect.get((i, k, l), 0.0)
                err = float(np.max(np.abs(gam[i, k, l] - want)[inner]))
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
                    err = float(np.max(np.abs(gam[i, k, l] - tot)))
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
    inner = _erode(grid.mask, SQUARE3)
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
# pullbacks


def test_pullback_identity_exact():
    grid = box(n=64)
    g = random_box_metric(np.random.default_rng(2), grid)
    gp = pullback_metric(DiffeoField.identity(grid), g)
    assert np.array_equal(gp.g11, g.g11)
    assert np.array_equal(gp.g12, g.g12)
    assert np.array_equal(gp.g22, g.g22)


def affine(M, grid):
    """J(x) = M x with the exact constant Jacobian attached."""
    M = np.asarray(M, dtype=float)
    X, Y = grid.meshgrid()
    d1 = (M[0, 0] - 1.0) * X + M[0, 1] * Y
    d2 = M[1, 0] * X + (M[1, 1] - 1.0) * Y
    return DiffeoField(d1, d2, grid, jac=(M[0, 0], M[0, 1], M[1, 0], M[1, 1]))


def _rotation(grid, th):
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return R, affine(R, grid)


def test_pullback_rotation_preserves_flat_metric():
    grid = box()
    _, J = _rotation(grid, 0.2)
    gp = pullback_metric(J, flat(grid))
    assert float(np.max(np.abs(gp.g11 - 1.0))) <= 1e-14
    assert float(np.max(np.abs(gp.g12))) <= 1e-14
    assert float(np.max(np.abs(gp.g22 - 1.0))) <= 1e-14


def test_pullback_rotation_scalar_quadratic_core():
    # a rotation keeps q I, so the pullback samples the scalar q at J(x)
    grid = box()
    X, Y = grid.meshgrid()
    R, J = _rotation(grid, 0.2)
    q = X ** 2 - Y ** 2 + 0.5 * X * Y
    qp = pullback_metric(J, MetricField(q, np.zeros_like(q), q, grid))
    xr, yr = R[0, 0] * X + R[0, 1] * Y, R[1, 0] * X + R[1, 1] * Y
    want = xr ** 2 - yr ** 2 + 0.5 * xr * yr
    core = grid.core_mask(grid.half / 2.0)
    assert float(np.max(np.abs(qp.g11 - want)[core])) <= 1e-12
    assert float(np.max(np.abs(qp.g22 - want)[core])) <= 1e-12


def test_pullback_rotation_constant_vector():
    # the stored tensor v v^T of v = e1 transports as (B v)(B v)^T with
    # B v = (dJ)^{-1} v = (cos th, -sin th)
    grid = box(n=64)
    th = 0.2
    R, J = _rotation(grid, th)
    X, _ = grid.meshgrid()
    one, zero = np.ones_like(X), np.zeros_like(X)
    vp = pullback_metric(J, MetricField(one, zero, zero, grid))
    c, s = np.cos(th), -np.sin(th)
    for got, want in ((vp.g11, c * c), (vp.g12, c * s), (vp.g22, s * s)):
        assert float(np.max(np.abs(got - want))) <= 1e-13


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


def compose_diffeos(outer: DiffeoField, inner: DiffeoField) -> DiffeoField:
    """The map x -> outer(inner(x)), with the chain-rule Jacobian."""
    _check_reach(inner)
    _check_reach(outer)
    if outer.grid != inner.grid:
        raise GridError("maps live on different grids")
    at = _CubicBlock(outer.grid, *inner.points())
    d1 = inner.d1 + at(outer.d1)
    d2 = inner.d2 + at(outer.d2)
    a11, a12, a21, a22 = (at(a) for a in outer.jacobian())
    i11, i12, i21, i22 = inner.jacobian()
    jac = (a11 * i11 + a12 * i21, a11 * i12 + a12 * i22,
           a21 * i11 + a22 * i21, a21 * i12 + a22 * i22)
    return DiffeoField(d1, d2, inner.grid, jac=jac)


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
        pullback_metric(J, flat(grid))


def test_pullback_rejects_folding_map():
    grid = box(n=64)
    X, Y = grid.meshgrid()
    fold = -1.2 * X * np.exp(-(X ** 2 + Y ** 2) / 0.25)
    J = DiffeoField(fold, np.zeros_like(X), grid)
    with pytest.raises(GridError, match="orientation"):
        pullback_metric(J, flat(grid))


def test_pullback_rejects_a_metric_of_another_box():
    # the metric used to be sampled with the map's lattice indices
    grid = box(n=64)
    J = _compact_diffeo(grid)
    rng = np.random.default_rng(5)
    for other in (box(n=128), box(n=64, half=3.0)):
        with pytest.raises(GridError, match="metric on a different grid"):
            pullback_metric(J, random_box_metric(rng, other))
    twin = box(n=64)
    g = random_box_metric(np.random.default_rng(6), grid)
    gt = MetricField(g.g11, g.g12, g.g22, twin)
    assert np.array_equal(pullback_metric(J, gt).g11,
                          pullback_metric(J, g).g11)


def test_pullback_refuses_a_nonfinite_metric(monkeypatch):
    # one NaN used to come back as NaN fields of the pulled-back metric
    grid = box(n=64)
    g = random_box_metric(np.random.default_rng(9), grid)
    g11 = g.g11.copy()
    g11[20, 30] = np.nan
    monkeypatch.setattr(geomkit, "_CubicBlock", None)
    with pytest.raises(GridError, match="non-finite metric"):
        pullback_metric(_compact_diffeo(grid),
                        MetricField(g11, g.g12, g.g22, grid))


def test_diffeo_rejects_nonfinite_input():
    grid = box(n=64)
    X, Y = grid.meshgrid()
    d1 = 0.05 * np.exp(-(X ** 2 + Y ** 2))
    bad = d1.copy()
    bad[10, 20] = np.nan
    with pytest.raises(GridError, match="non-finite displacement"):
        DiffeoField(bad, np.zeros_like(X), grid)
    one, zero = np.ones_like(X), np.zeros_like(X)
    with pytest.raises(GridError, match="non-finite attached Jacobian"):
        DiffeoField(d1, zero, grid, jac=(one, zero, np.inf, one))
    # entries of another shape used to leak numpy's broadcast ValueError,
    # and three entries were accepted and failed when unpacked
    with pytest.raises(GridError, match=r"attached Jacobian: shape \(3,\)"):
        DiffeoField(d1, zero, grid, jac=(np.ones(3),) * 4)
    with pytest.raises(GridError, match="attached Jacobian needs 4 entries"):
        DiffeoField(d1, zero, grid, jac=(one, zero, one))


def test_invert_rejects_a_folding_map():
    # dJ11 = 1 - 1.2 at the origin: the chord step reads the folded
    # Jacobian there on its first step
    grid = box(n=64)
    X, Y = grid.meshgrid()
    fold = -1.2 * X * np.exp(-(X ** 2 + Y ** 2) / 0.25)
    with pytest.raises(GridError, match="^map is not orientation preserving$"):
        invert_diffeo(DiffeoField(fold, np.zeros_like(X), grid))


def data_region(grid):
    """Nodes inside the wraparound margin, where the inverse is defined."""
    return grid.cheb <= grid.half - grid.half / 3.0


def _inverse_residual(J, Ji):
    """max over the data region's nodes p of |z + d(z) - p|, z = Ji(p),
    over max |d|; preimages of margin nodes alias through the period."""
    region = data_region(J.grid)
    z1, z2 = (z[region] for z in Ji.points())
    at = _CubicBlock(J.grid, z1, z2)
    X, Y = (a[region] for a in J.grid.meshgrid())
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
    return _beltrami_map(*_covariant(g), g.grid)


def test_invert_converges_on_the_data_region():
    # every node of the data region meets the step tolerance; the margin,
    # where the Beltrami map's C phi ~ c/z jumps across the seam, holds
    # the identity exactly
    grid = box()
    margin = ~data_region(grid)
    rng = np.random.default_rng(8)
    g = chart_metric(grid, *rng.uniform([0.15, 0.08, 0.05, 0.4],
                                        [0.3, 0.2, 0.15, 0.6]))
    for J in (_w_map(g), _compact_diffeo(grid)):
        Ji = invert_diffeo(J)
        res = _inverse_residual(J, Ji)
        assert res <= 10 * 1e-12, res
        assert np.all(Ji.d1[margin] == 0.0) and np.all(Ji.d2[margin] == 0.0)
        for got, want in zip(Ji.jacobian(), (1.0, 0.0, 0.0, 1.0)):
            assert np.all(got[margin] == want)


def test_invert_takes_at_most_seven_loop_blocks(monkeypatch):
    # the chord step contracts at the rate of the Jacobian's change over
    # half a cell; the plain fixed point took 10-12 sampled steps here
    built = []

    class Spy(_CubicBlock):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(geomkit, "_CubicBlock", Spy)
    grid = box()
    rng = np.random.default_rng(8)
    for _ in range(4):
        J = _w_map(chart_metric(grid, *rng.uniform([0.15, 0.08, 0.05, 0.4],
                                                   [0.3, 0.2, 0.15, 0.6])))
        built.clear()
        Ji = invert_diffeo(J)
        # the last block samples the Jacobian at the converged preimages
        assert 1 <= len(built) - 1 <= 7, len(built)
        assert _inverse_residual(J, Ji) <= 10 * 1e-12


@pytest.mark.parametrize("s", [5.0, 10.0, 15.0])
def test_invert_converges_on_the_quartic_charts(s):
    # max |dJ - I| is 0.88 to 0.99 from s = 8 on, where the plain fixed
    # point contracted too slowly and stalled
    J = _w_map(quartic_metric(box(), s))
    assert _inverse_residual(J, invert_diffeo(J)) <= 1e-11


def test_invert_refuses_a_chord_step_through_a_fold():
    # an attached Jacobian with det < 0 at one node, every entry within
    # 1 of the identity's: the first step reads it there
    grid = box(n=64)
    J = _compact_diffeo(grid)
    jac = [np.array(a) for a in J.jacobian()]
    for a, v in zip(jac, (0.5, 0.9, 0.9, 0.5)):
        a[32, 32] = v
    with pytest.raises(GridError, match="^map is not orientation preserving$"):
        invert_diffeo(DiffeoField(J.d1, J.d2, grid, jac=jac))


def test_invert_refuses_a_jacobian_that_folds_between_nodes():
    # the attached j11 repeats 1, 0.01, 0.01 along axis 0, positive at every
    # node, which is all the chord steps read; the inverse of the shift by
    # dx/2 then samples it midway between two 0.01 nodes, where the cubic
    # reads (-1 + 9 (0.01) + 9 (0.01) - 1) / 16 < 0
    grid = box(n=64)
    one, zero = np.ones((64, 64)), np.zeros((64, 64))
    j11 = np.where(np.arange(64)[:, None] % 3 == 0, 1.0, 0.01) * one
    J = DiffeoField(-0.5 * grid.dx * one, zero, grid,
                    jac=(j11, zero, zero, one))
    with pytest.raises(GridError, match="orientation preserving along the "
                                        "inverse"):
        invert_diffeo(J)


def test_isothermal_refuses_a_chart_past_its_conformality_tolerance():
    # a bump of width 0.1 on the dx = 0.125 lattice: the chart's cubic
    # samples of the metric miss its peak, and the pulled-back metric is
    # conformal only to 4.0e-2 of the scale
    grid = box(n=64)
    X, Y = grid.meshgrid()
    bump = 2.0 * np.exp(-((X - 0.1) ** 2 + (Y + 0.07) ** 2) / 0.01)
    one = np.ones((64, 64))
    g = MetricField(1.0 / (1.0 + bump), 0.0 * one, 1.0 + bump, grid)
    with pytest.raises(GridError, match="conformality defect .* exceeds"):
        isothermal(g)


def test_invert_exhausted_iteration_raises(monkeypatch):
    J = _compact_diffeo(box(n=64))
    with monkeypatch.context() as mp:
        mp.setattr(geomkit, "INVERSION_MAX_ITER", 3)
        with pytest.raises(GridError, match="stalled"):
            invert_diffeo(J)
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
    with pytest.raises(GridError, match="on a different grid"):
        transform_solution_check(g, drift_field(g),
                                 DiffeoField.identity(other), 1.0, v)
    with pytest.raises(GridError, match="on a different grid"):
        transform_solution_check(g, drift_field(g), DiffeoField.identity(grid),
                                 1.0, ScalarField(v.values, other))


def test_transform_check_refuses_a_map_that_leaves_the_domain():
    # every image lies 3 radii off the disk, so no cubic block of the
    # transported coefficients stays inside the mask
    grid = build_disk(n=32)
    g = flat(grid)
    v = ScalarField(np.zeros((32, 32)), grid)
    off = DiffeoField(np.full((32, 32), 3.0), np.zeros((32, 32)), grid)
    with pytest.raises(GridError, match="no interior nodes survive"):
        transform_solution_check(g, drift_field(g), off, 1.0, v)


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


@pytest.mark.parametrize("bad, name", [("v2", "solution v2"),
                                       ("X2", "drift X2"),
                                       ("c", "conformal factor c")])
def test_transform_check_names_a_nonfinite_input(monkeypatch, bad, name):
    # a NaN in v2 used to raise "no difference stencil fits at node", one
    # in c "metric has non-finite entries", and one in X2 came back as a
    # NaN residual with no error
    grid = build_disk(n=48)
    g = flat(grid)
    X, Y = grid.meshgrid()
    inputs = {"v2": np.where(grid.mask, X * X - Y * Y, 0.0),
              "X2": np.zeros((grid.n, grid.n)), "c": np.ones((grid.n, grid.n))}
    inputs[bad][20, 22] = np.nan
    monkeypatch.setattr(geomkit, "_CubicBlock", None)
    with pytest.raises(GridError, match=f"non-finite {name}"):
        transform_solution_check(g, VectorField(inputs["X2"], inputs["X2"],
                                                grid),
                                 DiffeoField.identity(grid), inputs["c"],
                                 ScalarField(inputs["v2"], grid))


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


def test_isothermal_rejects_large_beltrami_coefficient(monkeypatch):
    grid = box(n=64)
    X, Y = grid.meshgrid()
    bump = np.exp(-(X ** 2 + Y ** 2) / 0.5)
    C11 = 1.0 + 1.0 * bump
    g = MetricField(1.0 / C11, np.zeros_like(X), np.ones_like(X), grid)
    monkeypatch.setattr(geomkit, "BELTRAMI_MARGIN", 0.9)
    with pytest.raises(GridError, match="Beltrami"):
        isothermal(g)


def test_isothermal_rejects_nonfinite_metric(monkeypatch):
    # one NaN used to surface as "cauchy_inverse: non-finite values"
    grid = box(n=64)
    X, Y = grid.meshgrid()
    C11 = 1.0 + 0.2 * np.exp(-(X ** 2 + Y ** 2))
    g11 = 1.0 / C11
    g11[20, 30] = np.nan
    g = MetricField(g11, np.zeros_like(X), np.ones_like(X), grid)
    monkeypatch.setattr(geomkit, "cauchy_inverse", None)
    with pytest.raises(GridError, match="non-finite metric"):
        isothermal(g)


def test_isothermal_general_needs_padded_grid():
    grid = build_disk(n=32)
    X, Y = grid.meshgrid()
    C11 = 1.0 + 0.2 * np.exp(-(X ** 2 + Y ** 2))
    g = MetricField(1.0 / C11, np.zeros_like(X), np.ones_like(X), grid)
    with pytest.raises(GridError, match="a general isothermal chart needs "
                       "a PaddedGrid, not a DomainGrid"):
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


def test_pullback_samples_only_moved_nodes_bitwise():
    # the pullback samples g at the nodes the map moves and copies it at
    # the fixed ones; both must equal the full-lattice block bitwise
    grid = box()
    g = chart_metric(grid, 0.25, 0.12, 0.1, 0.5)
    chi, _ = isothermal(g)
    # a bump along x2 alone moves every node, with d1 = 0 at all of them
    X, Y = grid.meshgrid()
    rise = DiffeoField(np.zeros_like(X), 0.2 * np.exp(-(X ** 2 + Y ** 2)),
                       grid)
    for J, fixed in ((chi, True), (rise, False)):
        assert np.any((J.d1 == 0.0) & (J.d2 == 0.0)) == fixed
        at = _CubicBlock(grid, *J.points())
        want = geomkit._transport(geomkit._inverse_jacobian(J),
                                  (at(g.g11), at(g.g12), at(g.g22)))
        got = pullback_metric(J, g)
        for a, b in zip((got.g11, got.g12, got.g22), want):
            assert np.array_equal(a, b)


def quartic_metric(grid, s):
    """Stored form of diag(1 + s x^2, 1), blended to the identity between
    radii 1.2 and 2; s = 1 is the Hessian metric of u = x^4/12 + |x|^2/2,
    the quartic base of the domain half."""
    X, _ = grid.meshgrid()
    cut = smooth_cutoff(grid, 1.2, 2.0)
    return MetricField(cut / (1.0 + s * X * X) + (1.0 - cut),
                       np.zeros_like(X), np.ones_like(X), grid)


def _chart_defect(g, chi):
    """The conformality defect of chi* g over the core disk."""
    p11, p12, p22 = _covariant(pullback_metric(chi, g))
    core = g.grid.core_mask(g.grid.half / 3.0)
    return max(float(np.max(np.abs(p12[core]))),
               float(np.max(np.abs(p11 - p22)[core])))


def _core_defect(grid, s):
    g = quartic_metric(grid, s)
    return _chart_defect(g, isothermal(g)[0])


def _scale(g):
    """The covariant metric scale that isothermal's check reads."""
    return float(np.max(np.abs(np.stack(_covariant(g)))))


def _relative_core_defect(grid, s):
    return _core_defect(grid, s) / _scale(quartic_metric(grid, s))


@settings(max_examples=10)
@given(s=st.floats(0.0, 2.0))
@example(s=2.0)
@example(s=1e-10)
def test_isothermal_converges_on_the_quartic_family(s):
    # max |mu_B| reaches 0.24 at s = 1 and 0.34 at s = 2; from s = 0.5 on,
    # the fixed point stalls at nodes of the wraparound margin, which the
    # inverse leaves out.  A spectral dz of C phi, which does not wrap,
    # rang at the seam and pushed |dJ - I| past 1 from s = 1.5 on.  At
    # s = 1e-10 a chord step written on z, not on z - p, stalls at ulp(p)
    assert _core_defect(box(), s) <= CONFORMAL_TOL


def test_isothermal_converges_on_the_quartic_base_wide_box():
    assert _core_defect(box(n=256, half=6.0), 1.0) <= CONFORMAL_TOL


def test_isothermal_converges_on_the_quartic_base_refined_box():
    # the 128 box's lattice halved: the seam ringing of a spectral dz of
    # C phi doubled with n, and max |dJ - I| reached 1.55 here
    assert _core_defect(box(n=256), 1.0) <= CONFORMAL_TOL


@pytest.mark.parametrize("s", [8.0, 10.0, 15.0, 18.0, 20.0, 60.0])
def test_isothermal_converges_on_the_steep_quartic_family(s):
    # the plain fixed point of the inversion stalled at s = 8 to 15; at
    # s = 18 max |dJ - I| is 1.02 and the chord step inverts it to 1.1e-13
    # (core defect 7.9e-3).  From s = 20 (max |mu_B| 0.69) the defect
    # grows with the metric, 1.02e-2 there and 5.7e-2 at s = 60 (0.80),
    # so it is bounded relative to the metric scale, as isothermal bounds
    # it; a Neumann loop of the Beltrami equation ran out of its 64 steps
    # from s = 20, where GMRES takes 38 iterations, and 55 at s = 60
    if s <= 18.0:
        assert _core_defect(box(), s) <= CONFORMAL_TOL
    else:
        assert _relative_core_defect(box(), s) <= CONFORMAL_TOL


def test_isothermal_quartic_corners():
    # max |mu_B| is 0.49 at s = 5 and 0.80 at s = 60.  A chart composes
    # the Beurling and Cauchy quadratures, second order, with the cubic
    # sampler, fourth order, and samples its Jacobians without
    # differentiating them, so halving the cell divides the defect at
    # least by 2^2 = 4; at s = 60 it falls 8.2 times from n = 128 to 256
    assert _core_defect(box(), 5.0) <= CONFORMAL_TOL
    coarse, fine = (_relative_core_defect(box(n=n), 60.0) for n in (128, 256))
    assert coarse <= CONFORMAL_TOL
    assert fine <= coarse / 4.0


@settings(max_examples=4)
@given(s=st.floats(20.0, 250.0))
@example(s=160.0)
@example(s=250.0)
def test_isothermal_up_to_the_beltrami_margin(s):
    # max |mu_B| runs from 0.69 to about 0.89 on the 128 box (from 0.9 on
    # the metric is refused before any FFT): the Beltrami solve returns
    # within its Krylov budget (90 iterations at s = 200), and the chart
    # comes out, conformal to CONFORMAL_TOL of the metric scale. The chord
    # inversion once stalled from s = 160 (0.875), where its first step,
    # the chord matrix at p, moved nodes by 3.3 on a displacement scale of
    # 1; now a node it would move past max|d| takes the plain fixed point
    # instead. As in
    # test_isothermal_quartic_corners, the chart is second order, so
    # halving the cell divides the relative defect at least by 4: measured
    # 6.5 at s = 160 and at s = 250 (1.2e-3 -> 1.9e-4, 1.5e-3 -> 2.2e-4)
    grid = box()
    g = quartic_metric(grid, s)
    assert isinstance(_w_map(g), DiffeoField)
    chi, _ = isothermal(g)
    coarse = _chart_defect(g, chi) / _scale(g)
    assert coarse <= CONFORMAL_TOL
    if s in (160.0, 250.0):
        assert _relative_core_defect(box(n=256), s) <= coarse / 4.0


def test_beltrami_solve_names_its_miss(monkeypatch):
    # a Krylov budget too small for the solve is a refusal that names the
    # coefficient and the iterations spent, not a chart
    monkeypatch.setattr(geomkit, "BELTRAMI_MAX_ITER", 3)
    with pytest.raises(GridError, match=(
            r"Beltrami solve missed its residual in 3 Krylov iterations "
            r"\(max \|mu_B\| 0\.236\)")):
        isothermal(quartic_metric(box(), 1.0))
