import re
import tracemalloc

import numpy as np
import pytest

from malab.grid import (
    BoundaryTrace, ComplexField, GridError, MetricField, PaddedGrid,
    SCALE_RANGE, ScalarField, VectorField, _ON_CURVE, _adopt_orphans,
    _coverage_weights, _CubicBlock, _lagrange4, _ray_fit, _ring_eval,
    _ring_modes, _snap,
    boundary_restrict, build_disk, build_ellipse, lattice_values,
    normal_derivative, quadrature, tangential_derivative,
)
from malab import cgo, dnmap, linearize, maforward
from malab.complexcalc import (deriv, smooth_cutoff, spectral_deriv,
                               spectral_dz, spectral_dzb)
from malab.dnmap import (DNMatrix, recover_boundary_hessian,
                         recover_boundary_third)
from malab.geomkit import diffeo_rigidity_solve
from malab.maforward import build_stencil_ops


def field_from(grid, fn):
    X, Y = grid.meshgrid()
    return ScalarField(fn(X, Y), grid)


def test_build_disk_rejects_small_n():
    with pytest.raises(GridError):
        build_disk(1.0, 8)


@pytest.mark.parametrize("n", [16.5, np.inf, "64", None])
def test_build_ellipse_rejects_non_integer_n(n):
    # 16.5, inf and "64" used to raise a bare TypeError from np.linspace
    with pytest.raises(GridError, match=f"n must be an integer .*{n!r}"):
        build_ellipse(1.0, 0.8, n)


def test_build_ellipse_accepts_numpy_integer_n():
    assert build_ellipse(1.0, 0.8, np.int64(32)) == build_ellipse(1.0, 0.8, 32)


def test_records_that_hold_arrays_compare_by_identity():
    # the generated __eq__ compared their arrays as tuples: two records
    # built from equal inputs raised numpy's ambiguous-truth ValueError,
    # and the generated __hash__ raised TypeError on the arrays
    box, disk = PaddedGrid(half=6.0, n=64), build_disk(1.0, 32)
    z = np.zeros((64, 64))
    phase = cgo.phase_spec((0.0, 0.0, -0.25), box)
    makers = {
        "BoundaryRing": lambda: build_disk(1.0, 32).boundary,
        "VectorField": lambda: VectorField(z, z, box),
        "StencilOps": lambda: maforward._stencil_ops.__wrapped__(disk),
        "PhaseSpec": lambda: cgo.phase_spec((0.0, 0.0, -0.25), box),
        "CGOBundle": lambda: cgo.build_cgo_holo(phase, 1.0),
        "DNMatrix": lambda: DNMatrix(np.eye(3), ("1", "cos1", "sin1"), disk),
    }
    for name, make in makers.items():
        a, b = make(), make()
        assert type(a).__name__ == name
        assert a is not b and not a == b, name
        assert a == a and isinstance(hash(a), int), name


@pytest.mark.parametrize("make", [
    lambda g, v: ScalarField(v, g),
    lambda g, v: MetricField(np.ones_like(v, dtype=float), v, v, g),
], ids=["ScalarField", "MetricField"])
def test_real_fields_refuse_complex_values(make):
    # the cast to float used to drop the imaginary part with only a
    # ComplexWarning
    g = build_disk(1.0, 32)
    with pytest.raises(GridError, match="complex128"):
        make(g, np.full((32, 32), 1.0 + 1.0j))


@pytest.mark.parametrize("values, dtype", [
    (np.full(8, 1.0 + 1.0j), "complex128"),
    (np.array(["1.0"] * 8), "<U3"),
])
def test_boundary_trace_refuses_values_that_are_not_real(values, dtype):
    # complex values used to be kept, and _ring_modes then dropped their
    # imaginary part; strings raised a bare TypeError from np.isfinite
    g = build_disk(1.0, 32)
    values = np.resize(values, len(g.boundary))
    with pytest.raises(GridError, match=dtype):
        BoundaryTrace(values, g)


@pytest.mark.parametrize("a, b", [(1.0, np.nan), (np.nan, 1.0),
                                  (np.inf, 1.0)])
def test_build_ellipse_rejects_non_finite_axes(a, b):
    # (1, nan) used to build a grid with an empty mask and a NaN ring; the
    # other two raised a bare ValueError from the ring size
    with pytest.raises(GridError, match="finite"):
        build_ellipse(a, b, 32)


@pytest.mark.parametrize("build, name", [
    (lambda L: build_disk(L, 48), "a"),
    (lambda L: PaddedGrid(half=L, n=64), "half"),
], ids=["disk", "box"])
def test_lattices_refuse_a_scale_past_their_range(build, name):
    # a decade past either end of SCALE_RANGE: the disk's ring curvature
    # used to divide by zero at 1e-110 and overflow at 1e105, and a box's
    # core window to hold the whole box at half = 1e-200, where numpy's
    # broadcast ValueError came out of build_cgo_holo
    lo, hi = SCALE_RANGE
    for L in (lo / 10.0, hi * 10.0, 1e-200):
        with pytest.raises(GridError, match=re.escape(
                f"{name}={L!r} lies outside the lattice scale range")):
            build(L)
    for L in (lo, hi):
        build(L)


def test_disk_curvature_and_normals():
    g = build_disk(1.0, 128)
    assert np.allclose(g.boundary.curvature, 1.0)
    nrm = np.linalg.norm(g.boundary.normal, axis=1)
    assert np.max(np.abs(nrm - 1.0)) < 1e-12
    # node nearest (1, 0) has normal (1, 0)
    k = np.argmin(np.linalg.norm(g.boundary.points - [1.0, 0.0], axis=1))
    assert np.allclose(g.boundary.normal[k], [1.0, 0.0], atol=1e-6)
    # counterclockwise ordering: shoelace area positive
    pts = g.boundary.points
    area2 = np.sum(pts[:, 0] * np.roll(pts[:, 1], -1)
                   - np.roll(pts[:, 0], -1) * pts[:, 1])
    assert area2 > 0


def test_mask_and_boundary_partition():
    g = build_disk(1.0, 64)
    X, Y = g.meshgrid()
    inside = X ** 2 + Y ** 2 < 1.0
    assert np.array_equal(g.mask, inside)


def test_quadrature_area_disk():
    g = build_disk(2.0, 128)
    one = field_from(g, lambda x, y: np.ones_like(x))
    assert abs(quadrature(one) - 4 * np.pi) < 0.01 * 4 * np.pi
    # exact coverage: total weight equals the exact area to roundoff
    assert abs(np.sum(g.weights) - 4 * np.pi) < 1e-10


@pytest.mark.parametrize("a, b, n", [(1.0, 0.02, 110), (1.0, 0.01, 102)])
def test_thin_ellipse_weights_sum_to_the_area(a, b, n):
    # 16 of 116 and 164 of 176 slivers have no mask node within distance
    # 3 (d^2 <= 9) and are adopted by the global search
    g = build_ellipse(a, b, n)
    area = np.pi * a * b
    assert abs(np.sum(g.weights) - area) < 1e-14 * area


def _adopt_orphans_loop(cov, mask):
    """Per-orphan reference adoption: np.argmin of d^2 over every mask
    node, in row-major order."""
    w = np.where(mask, cov, 0.0)
    mi, mj = np.nonzero(mask)
    for i, j in zip(*np.nonzero(~mask & (cov > 0))):
        k = int(np.argmin((mi - i) ** 2 + (mj - j) ** 2))
        w[mi[k], mj[k]] += cov[i, j]
    return w


@pytest.mark.parametrize("a, b, n", [
    (1.0, 1.0, 64), (1.0, 1.0, 97), (1.3, 0.8, 211), (1.0, 0.02, 110),
    (1.0, 0.01, 102),
])
def test_orphan_adoption_equals_the_per_orphan_loop(a, b, n):
    g = build_ellipse(a, b, n)
    cov = _coverage_weights(g.x1, g.x2, g.dx, a, b)
    w = _adopt_orphans(cov, g.mask)
    assert np.array_equal(w, _adopt_orphans_loop(cov, g.mask))
    assert np.array_equal(w, g.weights)


def test_an_orphan_goes_past_a_square_corner_to_the_nearest_mask_node():
    # (13, 13), at d^2 = 18, is a corner of the square of reach 3 around
    # the orphan (10, 10); (14, 10), at d^2 = 16, lies outside that square
    # and is nearer: the sliver goes to it
    mask = np.zeros((32, 32), dtype=bool)
    mask[13, 13] = mask[14, 10] = True
    cov = np.where(mask, 1.0, 0.0)
    cov[10, 10] = 0.5
    w = _adopt_orphans(cov, mask)
    assert (w[14, 10], w[13, 13], np.sum(w)) == (1.5, 1.0, 2.5)
    assert np.array_equal(w, _adopt_orphans_loop(cov, mask))


def test_an_orphan_beyond_reach_3_goes_to_the_nearest_mask_node():
    # no mask node lies within reach 3 of the orphan (10, 10); (16, 16), at
    # d^2 = 72, lies in the square of reach 6 around it and (17, 10), at
    # d^2 = 49, outside: the sliver goes to the nearer one
    mask = np.zeros((32, 32), dtype=bool)
    mask[16, 16] = mask[17, 10] = True
    cov = np.where(mask, 1.0, 0.0)
    cov[10, 10] = 0.5
    w = _adopt_orphans(cov, mask)
    assert (w[17, 10], w[16, 16], np.sum(w)) == (1.5, 1.0, 2.5)


def _disk_cell_area_mp(mp, x0, x1, y0, y1):
    """Unit disk area in the cell [x0,x1] x [y0,y1] by the breakpoint
    formula of the grid's coverage, at mp's working precision."""
    x0, x1, y0, y1 = (mp.mpf(float(v)) for v in (x0, x1, y0, y1))
    lo, hi = max(x0, -1), min(x1, 1)
    if lo >= hi:
        return mp.mpf(0)
    cuts = {lo, hi}
    for yv in (y0, y1):
        if abs(yv) < 1:
            xc = mp.sqrt(1 - yv * yv)
            cuts.update(c for c in (-xc, xc) if lo < c < hi)
    xs = sorted(cuts)
    F = lambda x: (x * mp.sqrt(1 - x * x) + mp.asin(x)) / 2
    area = mp.mpf(0)
    for p, q in zip(xs, xs[1:]):
        c = mp.sqrt(max(1 - ((p + q) / 2) ** 2, 0))
        if min(y1, c) > max(y0, -c):
            area += F(q) - F(p) if c < y1 else y1 * (q - p)
            area += F(q) - F(p) if -c > y0 else -y0 * (q - p)
    return area


@pytest.mark.parametrize("a, b, n", [(1.0, 1.0, 232), (1.3, 0.8, 211)])
def test_edge_cell_coverage_matches_a_40_digit_reference(a, b, n):
    mp = pytest.importorskip("mpmath")
    g = build_ellipse(a, b, n)
    h = 0.5 * g.dx
    X, Y = g.meshgrid()
    # the cells within half a diagonal of the curve, in scaled coordinates
    r = np.sqrt((X / a) ** 2 + (Y / b) ** 2)
    ii, jj = np.nonzero(np.abs(r - 1.0) < np.sqrt(2.0) * h / min(a, b))
    cov = _coverage_weights(g.x1, g.x2, g.dx, a, b)[ii, jj]
    with mp.workdps(40):
        ref = [float(mp.mpf(a) * b * _disk_cell_area_mp(
            mp, (g.x1[i] - h) / a, (g.x1[i] + h) / a,
            (g.x2[j] - h) / b, (g.x2[j] + h) / b)) for i, j in zip(ii, jj)]
    err = np.max(np.abs(cov - np.array(ref))) / g.dx ** 2
    assert err < 3e-11, err


def test_quadrature_moment():
    g = build_disk(1.0, 128)
    f = field_from(g, lambda x, y: x ** 2)
    # integral of x^2 over the unit disk = pi/4
    assert abs(quadrature(f) - np.pi / 4) < 0.01 * np.pi / 4


def test_quadrature_zero_and_mismatch():
    g = build_disk(1.0, 64)
    z = field_from(g, lambda x, y: np.zeros_like(x))
    assert quadrature(z) == 0.0
    twin = build_disk(1.0, 64)
    assert twin == g and hash(twin) == hash(g)
    assert g != PaddedGrid(half=1.0, n=64)
    f = field_from(g, lambda x, y: x * x)
    assert quadrature(ScalarField(f.values, twin)) == quadrature(f)
    # a box field used to raise AttributeError: no attribute 'mask'
    box = PaddedGrid(half=3.0, n=16)
    with pytest.raises(GridError, match="DomainGrid, not a PaddedGrid"):
        quadrature(ScalarField(np.ones((16, 16)), box))
    # a complex field used to lose its imaginary part to a ComplexWarning
    with pytest.raises(GridError, match="ScalarField, not a ComplexField"):
        quadrature(ComplexField(1j * f.values, g))


def test_quadrature_second_order():
    errs = []
    for n in (64, 128):
        g = build_disk(1.0, n)
        f = field_from(g, lambda x, y: np.cos(2 * x) * np.exp(y))
        # oracle: non-harmonic smooth integrand over the unit disk, frozen
        # from an 800-point polar Gauss-Legendre reference
        errs.append(abs(quadrature(f) - 2.1018903484792757))
    ratio = errs[0] / errs[1]
    assert 2.5 <= ratio <= 6.0, (errs, ratio)


def test_divergence_quadrature_vanishes():
    g = build_disk(1.0, 128)
    X, Y = g.meshgrid()
    # compactly supported field: bump vanishing to high order at |x| = 0.8
    r2 = (X ** 2 + Y ** 2) / 0.64
    bump = np.where(r2 < 1.0, (1.0 - r2) ** 4, 0.0)
    # div of (bump, bump) by 4th-order differences on the lattice
    dx = g.dx
    def d_axis(a, axis):
        return (8 * (np.roll(a, -1, axis) - np.roll(a, 1, axis))
                - (np.roll(a, -2, axis) - np.roll(a, 2, axis))) / (12 * dx)
    div = d_axis(bump, 0) + d_axis(bump, 1)
    val = quadrature(ScalarField(div, g))
    assert abs(val) < 1e-6


def test_ellipse_area_and_curvature():
    g = build_ellipse(2.0, 1.0, 128)
    one = field_from(g, lambda x, y: np.ones_like(x))
    assert abs(quadrature(one) - 2 * np.pi) < 0.01 * 2 * np.pi
    # curvature at the end of the major axis is a/b^2
    k = np.argmin(np.linalg.norm(g.boundary.points - [2.0, 0.0], axis=1))
    assert abs(g.boundary.curvature[k] - 2.0) < 1e-6


def test_boundary_restrict_radial():
    g = build_disk(1.0, 96)
    f = field_from(g, lambda x, y: 0.5 * (x ** 2 + y ** 2 - 1.0))
    tr = boundary_restrict(f)
    assert np.max(np.abs(tr.values)) < 1e-10   # quadratic fit is exact here
    nd = normal_derivative(f)
    assert np.max(np.abs(nd.values - 1.0)) < 1e-10


def test_normal_derivative_constant_and_linear():
    g = build_disk(1.0, 96)
    c = field_from(g, lambda x, y: np.full_like(x, 3.7))
    assert np.max(np.abs(normal_derivative(c).values)) < 1e-11
    f = field_from(g, lambda x, y: x)
    nd = normal_derivative(f)
    assert np.max(np.abs(nd.values - g.boundary.normal[:, 0])) < 1e-10


def test_normal_derivative_second_order():
    # f = exp(x) sin(y): d_nu f on the unit circle has no closed cancellation
    def f(x, y):
        return np.exp(x) * np.sin(y)

    errs = []
    for n in (64, 128):
        g = build_disk(1.0, n)
        nd = normal_derivative(field_from(g, f))
        p = g.boundary.points
        exact = (np.exp(p[:, 0]) * np.sin(p[:, 1]) * g.boundary.normal[:, 0]
                 + np.exp(p[:, 0]) * np.cos(p[:, 1]) * g.boundary.normal[:, 1])
        errs.append(np.max(np.abs(nd.values - exact)))
    assert errs[0] / errs[1] > 3.0, errs
    assert errs[1] < 1.2e-3


def test_normal_derivative_anchor_improves():
    def f(x, y):
        return np.exp(x) * np.sin(y)

    g = build_disk(1.0, 64)
    fld = field_from(g, f)
    p = g.boundary.points
    exact_tr = np.exp(p[:, 0]) * np.sin(p[:, 1])
    exact = (exact_tr * g.boundary.normal[:, 0]
             + np.exp(p[:, 0]) * np.cos(p[:, 1]) * g.boundary.normal[:, 1])
    plain = np.max(np.abs(normal_derivative(fld).values - exact))
    anchored = np.max(np.abs(
        normal_derivative(fld, anchor=BoundaryTrace(exact_tr, g)).values - exact))
    assert anchored < plain


def test_normal_derivative_anchor_on_an_equal_grid():
    g, twin = build_disk(1.0, 48), build_disk(1.0, 48)
    assert twin is not g
    fld = field_from(g, lambda x, y: x * x + y)
    p = twin.boundary.points
    tr = BoundaryTrace(p[:, 0] ** 2 + p[:, 1], twin)
    same = normal_derivative(fld, anchor=BoundaryTrace(tr.values, g))
    assert np.array_equal(normal_derivative(fld, anchor=tr).values, same.values)
    other = build_disk(1.1, 48)
    with pytest.raises(GridError, match="different grid"):
        normal_derivative(fld, anchor=BoundaryTrace(
            np.zeros(len(other.boundary)), other))


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.3, 0.8)])
def test_ring_modes_round_trip(a, b):
    # the interpolant of the half spectrum returns the samples at the ring
    # nodes, the cos-only Nyquist mode included
    g = build_ellipse(a, b, 64)
    M = len(g.boundary)
    p = g.boundary.points
    t = g.param_angle(p[:, 0], p[:, 1])
    noise = np.random.default_rng(11).standard_normal(M)
    for vals in (noise, (-1.0) ** np.arange(M)):
        assert np.max(np.abs(_ring_eval(_ring_modes(vals), t) - vals)) < 1e-12


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.3, 0.8)])
def test_stacked_ring_operators_equal_their_columns(a, b):
    # one ray fit over a stack of fields and one tangential derivative over
    # a block of traces give the one-field results bitwise
    g = build_ellipse(a, b, 64)
    X, Y = g.meshgrid()
    fields = np.stack([np.exp(X) * np.sin(Y), X ** 2 - Y, np.cos(2 * X * Y)])
    anchor = np.random.default_rng(5).standard_normal((len(g.boundary), 3))
    value, slope = _ray_fit(g, fields)
    _, anchored = _ray_fit(g, fields, anchor)
    for j in range(3):
        f = ScalarField(fields[j], g)
        assert np.array_equal(boundary_restrict(f).values, value[:, j])
        assert np.array_equal(normal_derivative(f).values, slope[:, j])
        nd = normal_derivative(f, anchor=BoundaryTrace(anchor[:, j], g))
        assert np.array_equal(nd.values, anchored[:, j])
        assert np.array_equal(tangential_derivative(g, anchor)[:, j],
                              tangential_derivative(g, anchor[:, j]))


def test_ring_code_refuses_a_box_and_samples_off_the_ring():
    # a box used to raise AttributeError: no attribute 'boundary' (the
    # trace, tangential_derivative) or 'inradius' (the ray fits); samples
    # not running over the ring raised numpy's broadcast ValueError
    box = PaddedGrid(half=3.0, n=32)
    f = ScalarField(np.ones((32, 32)), box)
    for call in (lambda: BoundaryTrace(np.ones(32), box),
                 lambda: normal_derivative(f), lambda: boundary_restrict(f),
                 lambda: tangential_derivative(box, np.ones(32))):
        with pytest.raises(GridError, match="DomainGrid, not a PaddedGrid"):
            call()
    g = build_disk(1.0, 32)
    M = len(g.boundary)
    for shape in ((M + 1,), (3, M), ()):
        with pytest.raises(GridError,
                           match=re.escape(f"shape {shape!r}") + f".* {M} ring"):
            tangential_derivative(g, np.ones(shape))


def test_domain_grid_arrays_are_read_only():
    # equal grids share the stencil operators built from the first one, so
    # no grid may change the arrays those were built from
    g = build_disk(1.0, 48)
    b = g.boundary
    ops = build_stencil_ops(g)
    for arr in (g.x1, g.x2, g.mask, g.weights, b.points, b.normal,
                b.tangent, b.curvature, b.ds):
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    with pytest.raises(ValueError):
        g.mask[24, 24] = False
    twin = build_disk(1.0, 48)
    vec = np.arange(ops.N, dtype=float)
    assert np.array_equal(build_stencil_ops(twin).scatter(vec)[twin.mask], vec)


def test_trace_rejects_coarse_grid():
    g = build_disk(1.0, 32)
    f = field_from(g, lambda x, y: x)
    # depth 11 dx = 0.71 < 1, so this still works at a small size
    normal_derivative(f)
    # a thin ellipse leaves no room for the one-sided stencil
    thin = build_ellipse(1.0, 0.15, 16)
    with pytest.raises(GridError):
        normal_derivative(field_from(thin, lambda x, y: x))


def test_interp_masked_quartic_exact_order():
    g = build_disk(1.0, 96)
    X, Y = g.meshgrid()
    vals = X ** 3 * Y - 2 * X * Y + 0.5 * Y ** 2
    rng = np.random.default_rng(7)
    t = rng.uniform(0, 2 * np.pi, 40)
    rr = rng.uniform(0, 0.5, 40)
    pts = np.stack([rr * np.cos(t), rr * np.sin(t)], axis=1)
    got = _CubicBlock(g, pts[:, 0], pts[:, 1]).require_inside()(vals)
    exact = pts[:, 0] ** 3 * pts[:, 1] - 2 * pts[:, 0] * pts[:, 1] + 0.5 * pts[:, 1] ** 2
    # cubic Lagrange reproduces cubics exactly; the x^3 y term is degree 4
    # jointly but cubic per axis, so it is reproduced too
    assert np.max(np.abs(got - exact)) < 1e-12

    # the same sampler on the periodic box, whose blocks wrap through the
    # period: exact away from the edge, where no block wraps
    box = PaddedGrid(half=1.0, n=96)
    X, Y = box.meshgrid()
    at = _CubicBlock(box, pts[:, 0], pts[:, 1])
    got = at(X ** 3 * Y - 2 * X * Y + 0.5 * Y ** 2)
    assert np.max(np.abs(got - exact)) < 1e-12
    # sampling a periodic field one period over reads the same values
    per = np.sin(np.pi * X) * np.cos(2 * np.pi * Y) + np.cos(np.pi * Y)
    shifted = _CubicBlock(box, pts[:, 0] + 2 * box.half,
                          pts[:, 1] - 2 * box.half)
    assert np.max(np.abs(shifted(per) - at(per))) < 1e-12


@pytest.mark.parametrize("grid", [PaddedGrid(half=4.0, n=128),
                                  PaddedGrid(half=1.5, n=45),
                                  build_disk(1.0, 64),
                                  build_ellipse(1.0, 0.6, 48)])
def test_cubic_block_is_exact_at_the_nodes(grid):
    # invert_diffeo's first step reads d at the nodes instead of sampling
    # it, which is the same only if the sampler returns stored values
    f = np.random.default_rng(grid.n).standard_normal((3, grid.n, grid.n))
    X, Y = grid.meshgrid()
    assert np.array_equal(_CubicBlock(grid, X, Y)(f), f)


def _eager_block(grid, p1, p2):
    """Every point's 16 flat node indices and weight products, stored
    whole, a-major: the sampler's reference formula."""
    n = grid.n
    u = _snap((p1 + grid.half) / grid.dx)
    v = _snap((p2 + grid.half) / grid.dx)
    gi = np.floor(u).astype(int) - 1
    gj = np.floor(v).astype(int) - 1
    if isinstance(grid, PaddedGrid):
        rows = [(gi + a) % n * n for a in range(4)]
        cols = [(gj + b) % n for b in range(4)]
    else:
        gi, gj = np.clip(gi, 0, n - 4), np.clip(gj, 0, n - 4)
        rows = [(gi + a) * n for a in range(4)]
        cols = [gj + b for b in range(4)]
    wu, wv = _lagrange4(u - gi), _lagrange4(v - gj)
    return ([r + c for r in rows for c in cols],
            [a * b for a in wu for b in wv])


@pytest.mark.parametrize("grid", [PaddedGrid(half=4.0, n=128),
                                  PaddedGrid(half=1.5, n=45),
                                  build_disk(1.0, 64),
                                  build_ellipse(1.0, 0.6, 48)])
def test_cubic_block_samples_the_eager_formula_bitwise(grid):
    # the block keeps per-axis corners and weights and forms its 16 terms
    # as it samples; each sample must be the stored terms' sum bit for
    # bit, for points beyond the lattice too (wrapped on a box, clipped
    # on a domain)
    rng = np.random.default_rng(grid.n)
    p1, p2 = rng.uniform(-1.5 * grid.half, 1.5 * grid.half, (2, 30, 7))
    f = rng.standard_normal((3, grid.n, grid.n))
    idx, w = _eager_block(grid, p1, p2)
    want = np.zeros((3,) + p1.shape)
    for wk, ik in zip(w, idx):
        want += wk * f.reshape(3, -1).take(ik, axis=-1)
    at = _CubicBlock(grid, p1, p2)
    assert np.array_equal(at(f), want)
    assert np.array_equal(at(f[1]), want[1])
    if isinstance(grid, PaddedGrid):
        return
    inside = np.logical_and.reduce([grid.mask.ravel()[ik] for ik in idx])
    assert np.any(inside) and not np.all(inside)
    assert np.array_equal(at.inside(), inside)


def test_cubic_block_holds_at_most_96_bytes_a_point():
    # the corners and the 4 + 4 per-axis weights; the 16 stored indices
    # and weight products of every point held 257 bytes a point
    grid = PaddedGrid(half=4.0, n=128)
    X, Y = grid.meshgrid()
    region = grid.cheb <= grid.half - grid.half / 3.0
    p1, p2 = X[region] + 0.3 * grid.dx, Y[region] - 0.6 * grid.dx
    assert p1.size == 7225          # an inversion's data region
    tracemalloc.start()
    try:
        at = _CubicBlock(grid, p1, p2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert at(X).shape == p1.shape
    assert held <= 96 * p1.size, held / p1.size


def test_interp_masked_strict_rejection():
    g = build_disk(1.0, 64)
    with pytest.raises(GridError, match="exits the mask"):
        _CubicBlock(g, np.array([0.99]), np.array([0.0])).require_inside()


def test_boundary_trace_keeps_its_own_values():
    g = build_disk(1.0, 64)
    v = np.ones(len(g.boundary))
    t = BoundaryTrace(v, g)
    v[0] = np.nan
    assert t.values is not v
    assert np.array_equal(t.values, np.ones_like(v))


def test_boundary_quadrature_circumference():
    g = build_disk(1.5, 64)
    assert abs(np.sum(g.boundary.ds) - 2 * np.pi * 1.5) < 1e-12


def test_padded_grid():
    p = PaddedGrid(half=3.0, n=64)
    assert p.dx == 2.0 * p.half / p.n
    assert np.allclose(np.diff(p.x), p.dx, rtol=0.0, atol=1e-15)
    X, Y = p.meshgrid()
    assert X.shape == (p.n, p.n)
    # periodic spacing excludes the right endpoint
    assert p.x[0] == -p.half and p.x[-1] < p.half


_STENCIL_DIRS = [(1, 0), (-1, 0), (0, 1), (0, -1),
                 (1, 1), (-1, -1), (1, -1), (-1, 1)]


@pytest.mark.parametrize("build", [
    lambda n: build_disk(1.0, n),
    lambda n: build_disk(0.95, n),
    lambda n: build_ellipse(1.3, 0.8, n),
], ids=["unit-disk", "disk-0.95", "ellipse-1.3x0.8"])
def test_every_mask_node_cuts_its_exterior_rays(build):
    # the mask and the ray cut read the same level function, so a mask node
    # (C < -_ON_CURVE) gets a positive cut, and its crossing is on the
    # curve to rounding, or, where the cut is clipped to 1, the neighbour
    # itself: outside the mask, and so within _ON_CURVE inside the curve
    for n in range(16, 301):
        g = build(n)
        ii, jj = np.nonzero(g.mask)
        for di, dj in _STENCIL_DIRS:
            out = ~g.mask[ii + di, jj + dj]
            px, py = g.x1[ii[out]], g.x2[jj[out]]
            t = g.ray_cut(px, py, di * g.dx, dj * g.dx)
            assert np.all((t > 0.0) & (t <= 1.0)), (n, di, dj)
            level = g.level(px + t * di * g.dx, py + t * dj * g.dx)
            assert np.all(np.where(t < 1.0, np.abs(level), level) <= 1e-14)
            assert np.all(level[t == 1.0] >= -_ON_CURVE), (n, di, dj)


def test_lattice_values_accepts_the_documented_inputs():
    g = build_disk(1.0, 48)
    X, Y = g.meshgrid()
    assert np.array_equal(lattice_values(lambda x, y: 1.0, g),
                          np.ones((48, 48)))
    assert np.array_equal(lattice_values(lambda x, y: x + y, g), X + Y)
    assert np.array_equal(lattice_values(2.5, g), np.full((48, 48), 2.5))
    assert np.array_equal(lattice_values(X.tolist(), g), X)
    twin = ScalarField(X, build_disk(1.0, 48))       # an equal grid
    assert lattice_values(twin, g) is twin.values
    box = PaddedGrid(half=4.0, n=16)
    f = ScalarField(np.ones((16, 16)), PaddedGrid(half=4.0, n=16))
    assert lattice_values(f, box) is f.values


@pytest.mark.parametrize("value, msg", [
    (ScalarField(np.zeros((48, 48)), build_disk(0.9, 48)), "different grid"),
    (ScalarField(np.zeros((16, 16)), PaddedGrid(half=4.0, n=16)),
     "different grid"),
    (np.zeros((40, 40)), r"\(40, 40\)"),
    (np.zeros(7), r"\(7,\)"),
    (lambda x, y: np.zeros(7), r"shape \(7,\)"),
    ("1.0", "str"),
    (None, "NoneType"),
    # complex values used to lose their imaginary part to a ComplexWarning
    (np.full((48, 48), 1.0 + 1.0j), "complex128"),
    (lambda x, y: x + 1j * y, "complex128"),
])
def test_lattice_values_rejects_with_a_named_cause(value, msg):
    with pytest.raises(GridError, match=msg):
        lattice_values(value, build_disk(1.0, 48))


@pytest.mark.parametrize("half, n, msg", [
    (np.nan, 64, "half=nan"),       # used to give NaN Cauchy transforms
    (np.inf, 64, "half=inf"),
    (-3.0, 64, "half=-3.0"),        # used to give dx < 0
    (0.0, 64, "half=0.0"),
    (3.0, 0, "n=0"),                # used to raise ZeroDivisionError
    (3.0, 15, "n=15"),
    (3.0, 64.0, "n=64.0"),
    (3.0, None, "n=None"),
])
def test_padded_grid_rejects_invalid_sizes(half, n, msg):
    with pytest.raises(GridError, match=msg):
        PaddedGrid(half=half, n=n)


_BOX, _DISK = PaddedGrid(half=6.0, n=32), build_disk(1.0, 32)
_PHASE = cgo.phase_spec((0.0, 1.0), _BOX)
# deriv takes first derivatives only: its second and mixed orders are
# refused with the rest
_ORDERS = [(0, 0), (2, 1), (3, 0), (-1, 2), (0.5, 0.5), (2, 0), (1, 1),
           (0, 2)]
_SPECTRAL_ORDERS = [(-1, 0), (0.5, 0.5)]
_ONES, _WIDE = np.ones((32, 32)), np.ones((30, 30))
_NAN = np.ones((32, 32))
_NAN[5, 7] = np.nan
_STILL = VectorField(np.zeros((32, 32)), np.zeros((32, 32)), _BOX)
_ON_BOX = ComplexField(_ONES, _BOX)
# the same n on another box
_ELSEWHERE = ComplexField(_ONES, PaddedGrid(half=2.0, n=32))
_RING = np.ones(len(_DISK.boundary))
_FLAT = MetricField(_ONES, 0.0 * _ONES, _ONES, _DISK)


@pytest.mark.parametrize("call, msg", [
    # each of these used to leak a numpy TypeError or a bare ValueError
    (lambda: PaddedGrid("4", 64), "half must be positive and finite, "
                                  "got half='4'"),
    (lambda: PaddedGrid(10 ** 400, 32), "half must be positive and finite"),
    (lambda: build_ellipse("1", 1.0, 32), "a must be positive and finite, "
                                          "got a='1'"),
    (lambda: build_ellipse(10 ** 400, 1.0, 32),
     "a must be positive and finite"),
    (lambda: cgo.build_cgo_holo(_PHASE, None),
     "h must be positive and finite, got h=None"),
    (lambda: cgo.build_cgo_holo(_PHASE, 10 ** 400),
     "h must be positive and finite"),
    (lambda: cgo.build_cgo_holo(_PHASE, 1.0, amplitude=np.ones((32, 32))),
     "amplitude must be a callable of z or a number, not a ndarray"),
    (lambda: cgo.build_cgo_holo(_PHASE, 1.0, amplitude=[1.0]),
     "amplitude must be a callable of z or a number, not a list"),
    (lambda: cgo.build_cgo_holo(_PHASE, 1.0, amplitude="x"),
     "amplitude must be a callable of z or a number, not a str"),
    (lambda: cgo.phase_spec((0.0, 1.0), _BOX, center="x"), "center='x'"),
    (lambda: cgo.phase_spec(("x", 1.0), _BOX), "coeffs=('x', 1.0)"),
    (lambda: smooth_cutoff(_BOX, "1", 2.0), "r_inner='1'"),
    (lambda: _BOX.core_mask("1"), "got radius='1'"),
    # the order guard is the only way into the masked stencils, and it
    # runs before the values are read: they are not finite here
    *[(lambda g=g, o=o: deriv(_NAN, g, *o),
       f"derivative order {o} is not (1, 0) or (0, 1)")
      for g in (_DISK, _BOX) for o in _ORDERS],
    # the spectral derivative runs the same guard: at (-1, 0) it divided by
    # the zero wavenumber, at (0.5, 0.5) it took a fractional derivative
    *[(lambda o=o: spectral_deriv(np.ones((32, 32)), _BOX, *o),
       f"derivative order {o} is not 1 or 2") for o in _SPECTRAL_ORDERS],
    # each of these was accepted, or leaked a numpy error, an OverflowError
    # or a bare ValueError
    *[(lambda d=d, v=v: d(v, _BOX), msg)
      for d in (spectral_dz, spectral_dzb)
      for v, msg in [(_NAN, f"non-finite input of {d.__name__}"),
                     (_WIDE,
                      f"{d.__name__}: shape (30, 30) != grid (32, 32)")]],
    (lambda: smooth_cutoff(_BOX, 0.5, 10 ** 400),
     "cutoff radii must be finite with r_outer > r_inner"),
    (lambda: cgo.remainder_expansion(_PHASE, ComplexField(_NAN, _BOX), 2),
     "non-finite expansion data f"),
    (lambda: cgo.remainder_expansion(_PHASE, _ELSEWHERE, 2),
     "expansion data f on a different grid"),
    (lambda: cgo.neumann_T(_ON_BOX, _PHASE.psi, 1.0, _ELSEWHERE, _ON_BOX),
     "series weight V or V' on a different grid"),
    (lambda: cgo.neumann_T(_ON_BOX, _PHASE.psi, 1.0, _ON_BOX, _ELSEWHERE),
     "series weight V or V' on a different grid"),
    (lambda: cgo.neumann_T(_ON_BOX, _PHASE.psi, 1.0,
                           ComplexField(_NAN, _BOX), _ON_BOX),
     "non-finite series weight V or V'"),
    *[(lambda f=f, q=q: f(_STILL, q), msg)
      for f in (cgo.factorization_check, cgo.factor_potential,
                lambda X, q: cgo.series_weights(_ONES, X, q))
      for q, msg in [(_NAN, "non-finite q"),
                     (_WIDE, "q: shape (30, 30) != grid (32, 32)")]],
    (lambda: cgo.series_weights(_WIDE, _STILL),
     "alpha: shape (30, 30) != grid (32, 32)"),
    (lambda: cgo.series_weights(_NAN, _STILL), "non-finite gauge field alpha"),
    # each of these leaked an AttributeError, an IndexError or a bare
    # ValueError from unpacking
    (lambda: smooth_cutoff(_DISK, 0.5, 1.0),
     "smooth_cutoff needs a PaddedGrid, not a DomainGrid"),
    (lambda: recover_boundary_third(0.0, ()),
     "second must hold the three traces (u_tt, u_tn, u_nn)"),
    (lambda: recover_boundary_third(0.0, (_RING,) * 3),
     "second-order trace must be a BoundaryTrace, not a ndarray"),
    (lambda: recover_boundary_hessian(_RING, 1.0),
     "lam0 must be a BoundaryTrace, not a ndarray"),
    (lambda: diffeo_rigidity_solve(_FLAT, data=(lambda x, y: x,)),
     "rigidity data must be two boundary data, one per coordinate"),
    # each of these leaked an AttributeError (build_stencil_ops a
    # TypeError from its cache) for an array in place of a solution,
    # metric, field or grid
    *[(call, f"{what} needs a {kind}, not a ndarray") for call, what, kind in [
        (lambda: linearize.solution_hessian(_ONES), "solution_hessian",
         "MASolution"),
        (lambda: linearize.metric_from_solution(_ONES),
         "metric_from_solution", "MASolution"),
        (lambda: linearize.drift_field(_ONES), "drift_field", "MetricField"),
        (lambda: linearize.divergence_form_apply(_ONES, _STILL, _ONES),
         "divergence_form_apply", "MetricField"),
        (lambda: linearize.divergence_form_apply(_FLAT, _ONES, _ONES),
         "divergence_form_apply", "VectorField"),
        (lambda: linearize.nondiv_solve_many(_ONES, [0.0]),
         "a linearized solve", "MetricField"),
        (lambda: linearize.nondiv_solve(_ONES, 0.0), "a linearized solve",
         "MetricField"),
        (lambda: linearize.second_solve(_FLAT, _ONES, _ONES, 0.0, 0.0),
         "second_solve", "ScalarField"),
        (lambda: dnmap.dn_lin(_ONES, 0.0), "dn_lin", "MetricField"),
        (lambda: dnmap.dn_lin_matrix(_ONES, None), "dn_lin_matrix",
         "MetricField"),
        (lambda: dnmap.dn_full_derivative(_ONES, 0.0), "dn_full_derivative",
         "MASolution"),
        (lambda: dnmap.pairing_gap(_ONES, 0.0, 0.0, 0.0), "pairing_gap",
         "MetricField"),
        (lambda: normal_derivative(_ONES), "normal_derivative",
         "ScalarField"),
        (lambda: normal_derivative(ScalarField(_ONES, _DISK), _RING),
         "the anchor of normal_derivative", "BoundaryTrace"),
        (lambda: boundary_restrict(_ONES), "boundary_restrict",
         "ScalarField"),
        (lambda: build_stencil_ops(_ONES), "build_stencil_ops", "DomainGrid"),
        (lambda: maforward.poisson_init(_ONES, 1.0, None), "poisson_init",
         "DomainGrid"),
        (lambda: maforward.ring_values(_ONES, None), "ring_values",
         "DomainGrid"),
    ]],
], ids=["half", "half-overflow", "semi-axis", "semi-axis-overflow", "h",
        "h-overflow", "amplitude-array", "amplitude-list", "amplitude-string",
        "center", "coefficient", "cutoff", "core-radius",
        *[f"order({o1},{o2})-{kind}" for kind in ("disk", "box")
          for o1, o2 in _ORDERS],
        *[f"spectral-order({o1},{o2})" for o1, o2 in _SPECTRAL_ORDERS],
        *[f"{d}-{cause}" for d in ("dz", "dzb") for cause in ("nan", "shape")],
        "cutoff-overflow", "expansion-nan", "expansion-grid", "neumann-V-grid",
        "neumann-vp-grid", "neumann-V-nan",
        *[f"{f}-q-{cause}" for f in ("factorization", "potential", "weights")
          for cause in ("nan", "shape")],
        "weights-alpha-shape", "weights-alpha-nan", "cutoff-domain",
        "third-empty", "third-arrays", "hessian-array", "rigidity-data",
        "solution-hessian", "metric-from-solution", "drift-field",
        "divergence-form-metric", "divergence-form-drift", "nondiv-solve-many",
        "nondiv-solve", "second-solve", "dn-lin", "dn-lin-matrix",
        "dn-full-derivative", "pairing-gap", "normal-derivative",
        "normal-derivative-anchor", "boundary-restrict", "build-stencil-ops",
        "poisson-init", "ring-values"])
def test_invalid_inputs_raise_a_grid_error_naming_them(call, msg):
    with pytest.raises(GridError, match=re.escape(msg)):
        call()


def test_padded_grid_floor_odd_sizes_and_core_radius():
    assert PaddedGrid(half=3.0, n=16).dx == 0.375
    odd = PaddedGrid(half=3.0, n=np.int64(63))
    assert odd.core_mask(0.0).sum() == 0 and odd.core_mask(odd.dx).sum() == 4
    with pytest.raises(GridError, match="non-negative"):
        odd.core_mask(-odd.dx)      # used to select the disk of radius dx


def test_core_window_is_the_full_box_disk():
    # the window and its mask come from the 1-D axis; cut from the box
    # formula they are the same bits, and nothing lies outside them
    for g in (PaddedGrid(half=3.0, n=64), PaddedGrid(half=3.0, n=63),
              PaddedGrid(half=6.0, n=512)):
        x2 = g.x * g.x
        for radius in (0.0, 0.5 * g.dx, g.dx, 1.0, g.half / 3.0, g.half,
                       2.0 * g.half, np.inf):
            full = x2[:, None] + x2[None, :] <= radius * radius
            at, mask = g.core_window(radius)
            assert np.array_equal(g.core_mask(radius), full)
            assert np.array_equal(mask, full[at])
            full[at] = False
            assert not full.any()
            if mask.any():
                assert all(m.any() for m in (mask[0], mask[-1], mask[:, 0],
                                             mask[:, -1]))
            else:
                assert mask.size == 0
    with pytest.raises(GridError, match="non-negative"):
        g.core_window(np.nan)
