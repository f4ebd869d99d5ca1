"""Lattice domains, boundary geometry, quadrature, and trace operators.

The domain is the axis-aligned ellipse with semi-axes (a, b): the image of
the unit disk under (x, y) -> (a x, b y), and the disk when a = b. All of
its geometry comes from the inverse map (x, y) -> (x/a, y/b): the level
function C = (x/a)^2 + (y/b)^2 - 1, the ring's parameter angle, and the
exact cell coverage, which is the unit disk's. C < 0 is the only test for
"inside": it defines the lattice mask, and the stencil ray cut is the
root of the same C along the ray.

The domain is discretized on a regular square lattice covering its
bounding box. Nodes with C < 0 carry unknowns; the boundary is a separate
ring of points on the exact curve at uniform parameter angle, carrying
arclength, outward unit normal, and signed curvature. A periodic padded
box embeds the domain for FFT-based transforms.

A node's quadrature weight is the exact area of its cell inside the
domain: a b times the unit disk's coverage of the cell's scaled image,
whole for the cells well inside, by a breakpoint formula in x for the
cells in a band about the curve, all in one array pass. The coverage of
an exterior node's cell (an orphan sliver) then moves to the nearest mask
node, ties broken by (d^2, di, dj), so the weights sum to the exact area.

Both lattices share one cubic sampler, _CubicBlock: per point the snapped
4x4 Lagrange block (flat node indices and weights), clipped to the
lattice on a domain and wrapped through the period on a box, built once
and applied to every field sampled at those points. The boundary ray
fits and the geomkit pullbacks, inversions and transport checks all go
through it; _ray_fit samples a whole stack of fields along the ring's
normals with one block. The ring
calculus is spectral in the uniform ring parameter and lives here only:
tangential_derivative divides by the stored speed ds M / 2 pi,
_ring_modes is the half spectrum and _ring_eval its interpolant.

Two grids are equal when they are the same lattice: domains with the same
(a, b, n), boxes with the same (half, n). Every check that a field, trace
or map lives on a grid is a != test, and the caches keyed by a grid
(the stencil operators, the Cauchy kernels) hit for an equal grid built
twice.

Everything here is immutable after construction (a domain grid's arrays
are read-only) and safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    pass


# ---------------------------------------------------------------------------
# boundary ring


@dataclass(frozen=True)
class BoundaryRing:
    """Closed counterclockwise ring of points on the exact boundary curve."""

    s: np.ndarray            # arclength parameter, shape (M,)
    points: np.ndarray       # (M, 2)
    normal: np.ndarray       # outward unit normals, (M, 2)
    tangent: np.ndarray      # unit tangents, (M, 2)
    curvature: np.ndarray    # signed curvature, (M,)
    ds: np.ndarray           # quadrature weights for ∮ · ds, (M,)

    def __len__(self) -> int:
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# domain grid


def _level(a: float, b: float, x, y):
    """C = (x/a)^2 + (y/b)^2 - 1: negative inside, zero on the curve."""
    sx, sy = x / a, y / b
    return sx * sx + sy * sy - 1.0


@dataclass(frozen=True, eq=False)
class DomainGrid:
    """Square lattice over the ellipse with semi-axes (a, b), plus its ring.

    The lattice covers [-half, half]^2, half = max(a, b), with n nodes per
    side. ``mask`` marks the nodes with C < 0 (see ``level``).
    ``boundary`` is the exact-curve ring; it is not a subset of the
    lattice.
    """

    a: float
    b: float
    n: int
    half: float
    dx: float
    x1: np.ndarray
    x2: np.ndarray
    mask: np.ndarray
    boundary: BoundaryRing
    weights: np.ndarray           # quadrature weights per node (0 outside)

    # every other field follows from (a, b, n)
    def __eq__(self, other):
        if not isinstance(other, DomainGrid):
            return NotImplemented
        return (self.a, self.b, self.n) == (other.a, other.b, other.n)

    def __hash__(self):
        return hash((self.a, self.b, self.n))

    # -- geometry ------------------------------------------------------

    def meshgrid(self):
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    def level(self, x, y):
        """C = (x/a)^2 + (y/b)^2 - 1; the mask is C < 0 at the nodes."""
        return _level(self.a, self.b, x, y)

    def ray_cut(self, px, py, vx, vy):
        """Fraction t in [0, 1] where p + t v crosses the boundary.

        Vectorized; p must be in the mask. The crossing is the root of the
        mask's own level function along the ray, so a mask node always
        gets a cut: a node on the curve to rounding (C = -1e-16) reads 0,
        never a miss. Returns +inf where p + v is still inside.
        """
        sx, sy = px / self.a, py / self.b
        wx, wy = vx / self.a, vy / self.b
        A = wx * wx + wy * wy
        B = sx * wx + sy * wy
        C = self.level(px, py)
        t = (-B + np.sqrt(np.maximum(B * B - A * C, 0.0))) / A
        return np.where(t <= 1.0 + 1e-12, np.clip(t, 0.0, 1.0), np.inf)

    def inradius(self) -> float:
        return min(self.a, self.b)

    def param_angle(self, x, y):
        """Angle t of the ring parametrization (a cos t, b sin t)."""
        return np.arctan2(y / self.b, x / self.a)


def build_ellipse(a: float, b: float, n: int = 128) -> DomainGrid:
    """Axis-aligned ellipse x^2/a^2 + y^2/b^2 = 1 on a lattice covering its box."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise GridError(f"semi-axes must be finite, got ({a}, {b})")
    if min(a, b) <= 0:
        raise GridError("semi-axes must be positive")
    if not (isinstance(n, numbers.Integral) and n >= 16):
        raise GridError(f"n must be an integer of at least 16, got {n!r}")
    half = max(a, b)
    x1 = np.linspace(-half, half, n)
    x2 = x1.copy()
    dx = x1[1] - x1[0]
    X, Y = np.meshgrid(x1, x2, indexing="ij")
    mask = _level(a, b, X, Y) < 0.0

    M = max(16, 2 * int(round(np.pi * half / dx)))
    theta = 2.0 * np.pi * np.arange(M) / M
    pts = np.stack([a * np.cos(theta), b * np.sin(theta)], axis=1)
    speed = np.hypot(-a * np.sin(theta), b * np.cos(theta))
    tan = np.stack([-a * np.sin(theta), b * np.cos(theta)], axis=1) / speed[:, None]
    nor = np.stack([tan[:, 1], -tan[:, 0]], axis=1)
    ds = speed * (2.0 * np.pi / M)
    s = np.concatenate([[0.0], np.cumsum(ds)])[:-1]
    ring = BoundaryRing(s=s, points=pts, normal=nor, tangent=tan,
                        curvature=a * b / speed ** 3, ds=ds)

    weights = _adopt_orphans(_coverage_weights(x1, x2, dx, a, b), mask)
    # read-only: equal grids share caches built from the first one
    for arr in (x1, x2, mask, weights, *vars(ring).values()):
        arr.flags.writeable = False
    return DomainGrid(a=a, b=b, n=n, half=half, dx=dx, x1=x1, x2=x2,
                      mask=mask, boundary=ring, weights=weights)


def build_disk(radius: float = 1.0, n: int = 128) -> DomainGrid:
    """Disk of given radius: the ellipse with both semi-axes equal to it."""
    return build_ellipse(radius, radius, n)


# -- quadrature weights -----------------------------------------------------


def _arc_antideriv(x):
    """Antiderivative of sqrt(1 - x^2), x clipped to [-1, 1]."""
    x = np.clip(x, -1.0, 1.0)
    return 0.5 * (x * np.sqrt(np.maximum(1.0 - x * x, 0.0)) + np.arcsin(x))


def _disk_cell_areas(x0, x1, y0, y1):
    """Exact areas of the unit disk within the cells [x0,x1] x [y0,y1].

    Per cell, the sorted breakpoints are the ends of the clipped x-range
    and the circle's crossings of the horizontal cell edges inside it;
    unused slots repeat the left end, adding an empty interval. On each
    interval the top edge is the arc or y1 and the bottom edge the arc or
    y0, read at its midpoint.
    """
    lo, hi = np.maximum(x0, -1.0), np.minimum(x1, 1.0)
    cuts = [lo, hi]
    for yv in (y0, y1):
        xc = np.sqrt(np.maximum(1.0 - yv * yv, 0.0))
        for c in (-xc, xc):
            cuts.append(np.where((np.abs(yv) < 1.0) & (lo < c) & (c < hi), c, lo))
    xs = np.sort(cuts, axis=0)
    area = np.zeros_like(lo)
    for a, b in zip(xs[:-1], xs[1:]):
        m = 0.5 * (a + b)
        c = np.sqrt(np.maximum(1.0 - m * m, 0.0))
        keep = np.minimum(y1, c) > np.maximum(y0, -c)
        arc = _arc_antideriv(b) - _arc_antideriv(a)
        area += np.where(keep, np.where(c < y1, arc, y1 * (b - a)), 0.0)
        area += np.where(keep, np.where(-c > y0, arc, -y0 * (b - a)), 0.0)
    return np.where(lo < hi, area, 0.0)


def _coverage_weights(x1, x2, dx, a, b):
    """Exact cell areas: a b times the unit disk's coverage of the cell's
    image under (x, y) -> (x/a, y/b)."""
    w = np.zeros((len(x1), len(x2)))
    h = 0.5 * dx
    X, Y = np.meshgrid(x1, x2, indexing="ij")
    r = np.sqrt((X / a) ** 2 + (Y / b) ** 2)
    # conservative edge band in scaled coordinates
    pad = math.sqrt(2.0) * h * (1.0 / min(a, b))
    full = r <= 1.0 - pad
    w[full] = dx * dx
    i, j = np.nonzero(~full & (r < 1.0 + pad))
    w[i, j] = a * b * _disk_cell_areas((x1[i] - h) / a, (x1[i] + h) / a,
                                       (x2[j] - h) / b, (x2[j] + h) / b)
    return w


# offsets of the reach-3 window in the order np.argmin over a row-major
# window picks them: nearest first, ties to the smaller di, then dj
_ADOPT_OFFSETS = sorted(((di, dj) for di in range(-3, 4) for dj in range(-3, 4)),
                        key=lambda o: (o[0] ** 2 + o[1] ** 2, o[0], o[1]))


def _adopt_orphans(weights_ext, mask):
    """Fold coverage of exterior-node cells into the nearest interior node.

    Keeps the quadrature rule exact on constants (total weight = exact area)
    at an O(dx) displacement of a sliver's worth of mass, which preserves
    second order overall.
    """
    n = mask.shape[0]
    oi, oj = np.nonzero((~mask) & (weights_ext > 0))
    ti = np.full(len(oi), -1)
    tj = np.full(len(oi), -1)
    rimmed = np.pad(mask, 3)            # no mask node beyond the lattice
    for di, dj in _ADOPT_OFFSETS:
        hit = (ti < 0) & rimmed[oi + 3 + di, oj + 3 + dj]
        ti[hit], tj[hit] = oi[hit] + di, oj[hit] + dj
    # thin domains leave orphans with no mask node within reach 3
    for k in np.flatnonzero(ti < 0):
        i, j = oi[k], oj[k]
        for reach in (6, n):
            i0, j0 = max(i - reach, 0), max(j - reach, 0)
            ii, jj = np.nonzero(mask[i0:i + reach + 1, j0:j + reach + 1])
            if len(ii):
                best = int(np.argmin((ii + i0 - i) ** 2 + (jj + j0 - j) ** 2))
                ti[k], tj[k] = ii[best] + i0, jj[best] + j0
                break
        else:
            raise GridError("no interior node found to adopt boundary sliver")
    w = np.where(mask, weights_ext, 0.0)
    # unbuffered, in orphan order: a node adopting several slivers sums
    # them in a fixed order
    np.add.at(w, (ti, tj), weights_ext[oi, oj])
    return w


# ---------------------------------------------------------------------------
# padded periodic box


@dataclass(frozen=True)
class PaddedGrid:
    """Uniform periodic grid on [-half, half)^2 for FFT transforms; half
    is positive and finite, n an integer >= 16 (build_ellipse's floor)."""

    half: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.half) and self.half > 0
                and isinstance(self.n, numbers.Integral) and self.n >= 16):
            raise GridError("box needs a positive finite half and an integer "
                            f"n >= 16, got half={self.half}, n={self.n!r}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half / self.n

    @property
    def x(self) -> np.ndarray:
        return -self.half + self.dx * np.arange(self.n)

    def meshgrid(self):
        return np.meshgrid(self.x, self.x, indexing="ij")

    @property
    def zz(self) -> np.ndarray:
        X, Y = self.meshgrid()
        return X + 1j * Y

    def core_mask(self, radius: float) -> np.ndarray:
        if not radius >= 0.0:
            raise GridError(f"core radius must be non-negative, got {radius}")
        X, Y = self.meshgrid()
        return X * X + Y * Y <= radius * radius

    def quadrature(self, vals: np.ndarray) -> complex:
        return complex(np.sum(vals) * self.dx ** 2)


# ---------------------------------------------------------------------------
# fields


def _real(values) -> np.ndarray:
    """values as a float array, or a GridError naming a dtype that is not
    real (a cast would drop an imaginary part without a word)."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise GridError(f"a real field cannot hold {values.dtype} values")
    return values.astype(float, copy=False)


def _on_lattice(values, grid, dtype=None) -> np.ndarray:
    """values as an (n, n) lattice array, or a GridError naming the shape."""
    values = np.asarray(values, dtype=dtype)
    expect = (grid.n, grid.n)
    if values.shape != expect:
        raise GridError(f"field shape {values.shape} != grid {expect}")
    return values


def lattice_values(value, grid) -> np.ndarray:
    """A lattice input as an (n, n) float array on grid.

    Accepts a ScalarField on grid or an equal grid, a real scalar, an
    (n, n) array, or a callable (x, y) -> either of the last two,
    evaluated on the lattice. Anything else is a GridError naming its
    type, dtype, shape or grid.
    """
    if isinstance(value, ScalarField):
        if value.grid != grid:
            raise GridError("field lives on a different grid")
        return value.values
    if callable(value):
        value = value(*grid.meshgrid())
    if not isinstance(value, (numbers.Real, np.ndarray, list, tuple)):
        raise GridError(
            f"cannot read {type(value).__name__} as lattice values")
    arr = _real(value)
    if arr.ndim == 0:
        return np.full((grid.n, grid.n), float(arr))
    return _on_lattice(arr, grid)


class ScalarField:
    """Real values on a DomainGrid lattice (or a PaddedGrid box)."""

    def __init__(self, values: np.ndarray, grid):
        self.values = _on_lattice(_real(values), grid)
        self.grid = grid


class ComplexField:
    """Complex values on either lattice: the Wirtinger calculus and the
    Cauchy transforms on a padded box, masked Wirtinger derivatives on a
    domain."""

    def __init__(self, values: np.ndarray, grid):
        self.values = _on_lattice(values, grid, complex)
        self.grid = grid


@dataclass(frozen=True)
class VectorField:
    """Two-component field on a grid (drift vectors, gradients)."""

    c1: np.ndarray
    c2: np.ndarray
    grid: object

    def __post_init__(self):
        _on_lattice(self.c1, self.grid)
        _on_lattice(self.c2, self.grid)


class BoundaryTrace:
    """Real values at the boundary ring nodes (a float copy of the
    caller's array)."""

    def __init__(self, values: np.ndarray, grid: DomainGrid):
        values = np.array(_real(values))
        if values.shape != (len(grid.boundary),):
            raise GridError("trace length does not match boundary node count")
        if not np.all(np.isfinite(values)):
            raise GridError("boundary trace has non-finite values")
        self.values = values
        self.grid = grid


class MetricField:
    """Symmetric 2x2 tensor field on a lattice (metric, inverse metric, ...)."""

    def __init__(self, g11, g12, g22, grid):
        self.g11, self.g12, self.g22 = (_on_lattice(_real(c), grid)
                                        for c in (g11, g12, g22))
        self.grid = grid

    def det(self) -> np.ndarray:
        return self.g11 * self.g22 - self.g12 ** 2

    def eig_bounds(self, where=None):
        """Min and max eigenvalue over the given mask (SPD diagnostics)."""
        tr = self.g11 + self.g22
        disc = np.sqrt(np.maximum((self.g11 - self.g22) ** 2
                                  + 4.0 * self.g12 ** 2, 0.0))
        lo, hi = 0.5 * (tr - disc), 0.5 * (tr + disc)
        if where is not None:
            lo, hi = lo[where], hi[where]
        return float(np.min(lo)), float(np.max(hi))


# ---------------------------------------------------------------------------
# quadrature and traces


def quadrature(f: ScalarField, d: DomainGrid | None = None) -> float:
    """Second-order area integral of f over the domain interior."""
    if d is None:
        d = f.grid
    if not isinstance(d, DomainGrid):
        raise GridError(f"quadrature integrates over a DomainGrid, not a "
                        f"{type(d).__name__}")
    if f.grid != d:
        raise GridError("field and grid do not match")
    return float(np.sum(f.values[d.mask] * d.weights[d.mask]))


def tangential_derivative(grid: DomainGrid, vals: np.ndarray,
                          order: int = 1) -> np.ndarray:
    """d^order/ds^order of ring samples (M,) or (M, k), s the arclength.

    Spectral in the uniform ring parameter theta (the Nyquist mode has no
    odd derivative and is zeroed), divided by the ring's speed
    |dp/dtheta| = ds M / 2 pi at every step.
    """
    b = grid.boundary
    M = len(b)
    speed = b.ds * M / (2.0 * np.pi)
    ik = 1j * np.arange(M // 2 + 1, dtype=float)
    ik[-1] = 0.0
    out = np.asarray(vals, dtype=float).T       # the ring along the last axis
    for _ in range(order):
        out = np.fft.irfft(ik * np.fft.rfft(out), n=M) / speed
    return out.T


def _ring_modes(vals: np.ndarray) -> np.ndarray:
    """Half spectrum c_k, k = 0..M/2, of ring samples along axis 0, scaled
    so that Re sum_k c_k e^{ikt} interpolates them at t_j = 2 pi j / M;
    the Nyquist mode carries cos only."""
    c = np.fft.rfft(np.asarray(vals, dtype=float), axis=0)
    c[-1] = c[-1].real
    c[1:-1] *= 2.0
    return c / len(vals)


def _ring_eval(c: np.ndarray, theta) -> np.ndarray:
    """Re sum_k c_k e^{ikt} at angles theta of any shape, for the modes c
    of one ring: its samples' trigonometric interpolant."""
    # e^{ikt} = e^{iqBt} e^{irt} for k = qB + r: two exponential tables
    # of about sqrt(#k) columns replace one per k
    B = math.isqrt(len(c) - 1) + 1
    Q = -(-len(c) // B)
    cw = np.zeros(Q * B, dtype=complex)
    cw[:len(c)] = c
    t = np.ravel(theta)
    lo = np.exp(1j * np.outer(t, np.arange(B)))
    hi = np.exp(1j * np.outer(t, B * np.arange(Q)))
    out = np.einsum("pq,pq->p", hi, lo @ cw.reshape(Q, B).T).real
    return out.reshape(np.shape(theta))


def _snap(t: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Snap lattice coordinates within eps of a node onto the node.

    Removes the floor/ulp jitter of points that are meant to be nodes, so
    evaluating there returns the stored value bitwise (the Lagrange
    weights degenerate to exact zeros and a one).
    """
    r = np.round(t)
    return np.where(np.abs(t - r) < eps, r, t)


def _lagrange4(t: np.ndarray) -> np.ndarray:
    """Weights of the cubic through nodes 0..3 at local coordinate t."""
    w = np.empty((4,) + t.shape)
    w[0] = -(t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0
    w[1] = t * (t - 2.0) * (t - 3.0) / 2.0
    w[2] = -t * (t - 1.0) * (t - 3.0) / 2.0
    w[3] = t * (t - 1.0) * (t - 2.0) / 6.0
    return w


class _CubicBlock:
    """Snapped 4x4 cubic Lagrange blocks of the points (p1, p2), any shape.

    Holds each point's 16 flat node indices and weight products, so one
    block samples any number of fields at the same points. Lattice
    coordinates are (p + half)/dx on both lattices; block corners are
    clipped to [0, n-4] on a DomainGrid (extrapolating at its edge) and
    wrap mod n on a PaddedGrid. Exact at lattice points and on cubics per
    axis of the local coordinates.
    """

    def __init__(self, grid, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        n = grid.n
        u = _snap((p1 + grid.half) / grid.dx)
        v = _snap((p2 + grid.half) / grid.dx)
        gi = np.floor(u).astype(int) - 1
        gj = np.floor(v).astype(int) - 1
        if isinstance(grid, PaddedGrid):
            rows = [(gi + a) % n * n for a in range(4)]
            cols = [(gj + b) % n for b in range(4)]
        else:
            gi = np.clip(gi, 0, n - 4)
            gj = np.clip(gj, 0, n - 4)
            rows = [(gi + a) * n for a in range(4)]
            cols = [gj + b for b in range(4)]
        wu, wv = _lagrange4(u - gi), _lagrange4(v - gj)
        self.grid = grid
        self.p1, self.p2 = p1, p2
        self.idx = [r + c for r in rows for c in cols]
        self.w = [a * b for a in wu for b in wv]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Samples of an (n, n) field or a (k, n, n) stack, shape (k,) + p."""
        values = np.asarray(values)
        flat = values.reshape(values.shape[:-2] + (-1,))
        out = np.zeros(flat.shape[:-1] + self.p1.shape, dtype=flat.dtype)
        for w, idx in zip(self.w, self.idx):
            out += w * flat.take(idx, axis=-1)
        return out

    def inside(self) -> np.ndarray:
        """Points whose 16 block nodes all lie in the domain mask."""
        flat = self.grid.mask.ravel()
        ok = np.ones(self.p1.shape, dtype=bool)
        for idx in self.idx:
            ok &= flat[idx]
        return ok

    def require_inside(self) -> "_CubicBlock":
        """GridError naming a point whose block leaves the domain mask."""
        bad = ~self.inside()
        if np.any(bad):
            k = np.unravel_index(int(np.flatnonzero(bad)[0]), bad.shape)
            raise GridError(
                f"interpolation stencil exits the mask near point "
                f"({self.p1[k]:.4f}, {self.p2[k]:.4f})")
        return self


_RAY_DEPTHS = np.array([5.0, 7.0, 9.0, 11.0])


def _ray_fit(grid: DomainGrid, values: np.ndarray, anchor=None):
    """Value and outward slope on the ring of polynomial fits along the
    inward normal, for an (n, n) field or a (k, n, n) stack: traces (M,)
    or (M, k); an anchor of that shape is interpolated at depth 0.

    Samples at depths {5,7,9,11} dx by local cubic interpolation. The
    shallowest depth must keep the 4x4 blocks inside the mask (needs
    more than 2*sqrt(2) cells); it is set deeper than that because
    solved fields carry a geometric error layer at the cut cells, and
    sampling inside it would put lattice-frequency noise on the ring,
    which spectral tangential differentiation then amplifies.
    """
    depths = _RAY_DEPTHS * grid.dx
    if depths[-1] >= grid.inradius():
        raise GridError("one-sided boundary stencil exits the mask; grid too coarse")
    b = grid.boundary
    p = b.points[None] - depths[:, None, None] * b.normal[None]
    # (depth, field..., node): the fit runs along axis 0
    samples = np.moveaxis(_CubicBlock(grid, p[..., 0], p[..., 1])
                          .require_inside()(values), -2, 0)
    t = _RAY_DEPTHS
    if anchor is not None:
        t = np.concatenate([[0.0], t])
        samples = np.concatenate([np.asarray(anchor, dtype=float).T[None],
                                  samples])
    # fit in the scaled depth t/dx, inward, so d/dnu = -d/dt / dx at t = 0
    V = np.vander(t, len(t), increasing=True)
    coef = np.linalg.solve(V, samples.reshape(len(t), -1)).reshape(samples.shape)
    return coef[0].T, -coef[1].T / grid.dx


def boundary_restrict(f: ScalarField) -> BoundaryTrace:
    """Trace of an interior field on the exact boundary curve.

    One-sided extrapolation along the inward normal; exceeds the O(dx^2)
    contract (cubic fit).
    """
    return BoundaryTrace(_ray_fit(f.grid, f.values)[0], f.grid)


def normal_derivative(f: ScalarField, anchor: BoundaryTrace | None = None) -> BoundaryTrace:
    """Outward normal derivative on the boundary, one-sided, >= O(dx^2).

    ``anchor`` supplies known Dirichlet values at the boundary nodes; when
    given, the fit interpolates the anchor exactly, which removes the
    extrapolation leg and tightens the constant.
    """
    grid = f.grid
    if anchor is not None and anchor.grid != grid:
        raise GridError("anchor trace belongs to a different grid")
    values = None if anchor is None else anchor.values
    return BoundaryTrace(_ray_fit(grid, f.values, values)[1], grid)
