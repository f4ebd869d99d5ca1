import numpy as np
import pytest

from malab.grid import (
    BoundaryTrace, GridError, MetricField, PaddedGrid, ScalarField,
    _adopt_orphans,
    _coverage_weights, _CubicBlock, _ray_fit, _ring_eval, _ring_modes,
    boundary_restrict, build_disk, build_ellipse, lattice_values,
    normal_derivative, quadrature, tangential_derivative,
)
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


def test_disk_curvature_and_normals():
    g = build_disk(1.0, 128)
    assert np.allclose(g.boundary.curvature, 1.0)
    nrm = np.linalg.norm(g.boundary.normal, axis=1)
    assert np.max(np.abs(nrm - 1.0)) < 1e-12
    # node nearest (1, 0) has normal (1, 0)
    k = np.argmin(np.linalg.norm(g.boundary.points - [1.0, 0.0], axis=1))
    assert np.allclose(g.boundary.normal[k], [1.0, 0.0], atol=1e-6)
    # counterclockwise ordering: arclength increases, shoelace area positive
    pts = g.boundary.points
    area2 = np.sum(pts[:, 0] * np.roll(pts[:, 1], -1)
                   - np.roll(pts[:, 0], -1) * pts[:, 1])
    assert area2 > 0
    assert np.all(np.diff(g.boundary.s) > 0)


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
    # 16 of 116 and 164 of 176 slivers have no mask node within 3 cells
    # and are adopted by the wider search
    g = build_ellipse(a, b, n)
    area = np.pi * a * b
    assert abs(np.sum(g.weights) - area) < 1e-14 * area


def _adopt_orphans_loop(cov, mask):
    """Per-orphan reference adoption: np.argmin of d^2 over the mask nodes
    of the smallest window (reach 3, 6, n) that has any."""
    n = mask.shape[0]
    w = np.where(mask, cov, 0.0)
    for i, j in zip(*np.nonzero(~mask & (cov > 0))):
        for reach in (3, 6, n):
            i0, j0 = max(i - reach, 0), max(j - reach, 0)
            ii, jj = np.nonzero(mask[i0:i + reach + 1, j0:j + reach + 1])
            if len(ii):
                k = int(np.argmin((ii + i0 - i) ** 2 + (jj + j0 - j) ** 2))
                w[ii[k] + i0, jj[k] + j0] += cov[i, j]
                break
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
    assert quadrature(f, twin) == quadrature(f)
    g2 = build_disk(0.9, 64)
    assert g2 != g
    with pytest.raises(GridError):
        quadrature(ScalarField(np.zeros((64, 64)), g), g2)
    # a box field used to raise AttributeError: no attribute 'mask'
    box = PaddedGrid(half=3.0, n=16)
    with pytest.raises(GridError, match="DomainGrid, not a PaddedGrid"):
        quadrature(ScalarField(np.ones((16, 16)), box))


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
        for order in (1, 2):
            assert np.array_equal(tangential_derivative(g, anchor, order)[:, j],
                                  tangential_derivative(g, anchor[:, j], order))


def test_domain_grid_arrays_are_read_only():
    # equal grids share the stencil operators built from the first one, so
    # no grid may change the arrays those were built from
    g = build_disk(1.0, 48)
    b = g.boundary
    ops = build_stencil_ops(g)
    for arr in (g.x1, g.x2, g.mask, g.weights, b.s, b.points, b.normal,
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
    # on the curve to rounding gets a cut of 0, not a miss
    for n in range(16, 301):
        g = build(n)
        ii, jj = np.nonzero(g.mask)
        for di, dj in _STENCIL_DIRS:
            out = ~g.mask[ii + di, jj + dj]
            t = g.ray_cut(g.x1[ii[out]], g.x2[jj[out]], di * g.dx, dj * g.dx)
            assert np.all((t >= 0.0) & (t <= 1.0)), (n, di, dj)


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


def test_padded_grid_floor_odd_sizes_and_core_radius():
    assert PaddedGrid(half=3.0, n=16).dx == 0.375
    odd = PaddedGrid(half=3.0, n=np.int64(63))
    assert odd.core_mask(0.0).sum() == 0 and odd.core_mask(odd.dx).sum() == 4
    with pytest.raises(GridError, match="non-negative"):
        odd.core_mask(-odd.dx)      # used to select the disk of radius dx
