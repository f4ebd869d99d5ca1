"""Lattice domains, boundary geometry, quadrature, and trace operators.

The domain is the axis-aligned ellipse with semi-axes (a, b): the image of
the unit disk under (x, y) -> (a x, b y), and the disk when a = b. All of
its geometry comes from the inverse map (x, y) -> (x/a, y/b): the level
function C = (x/a)^2 + (y/b)^2 - 1, the ring's parameter angle, and the
exact cell coverage, which is the unit disk's. C < -_ON_CURVE is the only
test for "inside": it defines the lattice mask, and the stencil ray cut
is the root of the same C along the ray, clipped to the step: a
neighbour outside the mask but within _ON_CURVE of the curve is its own
crossing.

The domain is discretized on a regular square lattice covering its
bounding box. The mask nodes carry unknowns; the boundary is a separate
ring of points on the exact curve at uniform parameter angle, carrying
arclength, outward unit normal, and signed curvature. A periodic padded
box embeds the domain for FFT-based transforms. Its zero-padded
convolutions are exact only for input clear of the box's outer third,
the wraparound margin, so the box has one data region, defined here and
read by every transform, guard and chart: the nodes with |x|, |y| <=
half - half/3 (PaddedGrid.data_window). The core disk of radius
rc = half/3 (PaddedGrid.core_radius), where the CGO solutions are
measured, lies inside it; their cutoff vanishes from 2 rc, its edge, on.

A node's quadrature weight is the exact area of its cell inside the
domain: a b times the unit disk's coverage of the cell's scaled image,
whole for the cells well inside, by a breakpoint formula in x for the
cells in a band about the curve, all in one array pass. The coverage of
an exterior node's cell (an orphan sliver) then moves to the nearest mask
node, ties broken by (d^2, di, dj), so the weights sum to the exact area.

Both lattices share one cubic sampler, _CubicBlock: per point the snapped
4x4 Lagrange block, clipped to the lattice on a domain and wrapped
through the period on a box, kept as its corner and the 4 + 4 per-axis
weights (80 bytes a point) and built once for every field sampled at
those points; a sample forms the 16 index and weight terms as it loops.
The boundary ray fits and the geomkit pullbacks, inversions and
transport checks all go through it, and each samples its fields at one
block as one stack in one call. The ring calculus is spectral in the
uniform ring parameter and lives here only: tangential_derivative
divides by the stored speed ds M / 2 pi, _ring_modes is the half
spectrum and _ring_eval its interpolant.

A node's neighbours on a domain lattice are read through one padded
shift, _shifted: the lattice at (i + a, j + b) for each step (a, b), as
views of one copy padded by a fill (False for a mask, -1 for an index,
0 for values), so a step past the lattice's edge reads the fill, never
a node wrapped from the far side; _erode keeps the mask nodes whose
neighbours at every step lie in the mask. The Newton stencil, the
masked differences and their trust masks, and the orphan adoption all
read through them.

Two grids are equal when they are the same lattice: domains with the same
(a, b, n), boxes with the same (half, n). Every check that a field, trace
or map lives on a grid is _require_same_grid's != test, and the caches
keyed by a grid (the stencil operators, the Cauchy kernels) hit for an
equal grid built twice. Every other frozen record that holds arrays
equals only itself and hashes by identity (eq=False): numpy arrays
compared as a tuple have no single truth value.

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
# input guards: one per kind of input, each a GridError naming the input,
# run by every module of malab before any work. _require_grid checks a
# grid's kind, _require_positive a positive scalar, _require_scale a
# lattice's length, _require_count an integer count and _require_metric a
# metric. The field guards:
# _require_finite, scalars or arrays finite, on a region such as the mask
# where given ("non-finite {what}"); _on_lattice, an array of the
# lattice's (n, n) shape ("{what}: shape ... != grid ..."); and
# _require_same_grid, fields on the caller's grid or an equal one ("{what}
# on a different grid"). No module but this one calls np.isfinite or
# compares a field's grid by hand (tests/test_packaging.py scans for both)


def _require_grid(grid, kind: type, what: str):
    """grid, or a GridError unless it is a kind (DomainGrid, PaddedGrid)."""
    if not isinstance(grid, kind):
        raise GridError(f"{what} needs a {kind.__name__}, not a "
                        f"{type(grid).__name__}")
    return grid


def _float(value) -> float:
    """value as a float, or nan unless it is a real that a float holds
    (an int beyond float range is not)."""
    try:
        return float(value) if isinstance(value, numbers.Real) else np.nan
    except OverflowError:
        return np.nan


def _require_positive(name: str, value) -> None:
    """GridError naming name unless value is a real > 0 that is finite
    as a float."""
    if not 0 < _float(value) < np.inf:
        raise GridError(f"{name} must be positive and finite, "
                        f"got {name}={value!r}")


# the lengths a lattice takes, a domain's semi-axes and a box's half width.
# Its arithmetic raises a length L to the fourth power at most, in either
# sign: a box's L2 norms square second differences, of size half^-2, and
# the ring's curvature a b / speed^3 cubes an axis. The spacing adds
# (n/2)^4 <= 1e16 to such a power for n <= 2e4 nodes a side (a complex box
# of 6.4 GB), and a sum over the n^2 <= 4e8 nodes 1e9 more. L^4 times
# 1e25 stays within the normal floats (2.2e-308, 1.8e308) for
# |log10 L| <= (308 - 25) / 4 = 70.75. Measured at steps of 10^5: the
# n = 48 disk solves from 1e-105 to 1e100 and fails in the curvature at
# 1e-110 and 1e105; at n = 64 a box's CGO bundle holds from half = 6e-76 to
# 6e78, overflows squaring its residual from 6e-78 down and reads a
# residual of 0 from 6e80 up
SCALE_RANGE = (1e-70, 1e70)


def _require_scale(name: str, value) -> None:
    """GridError naming name unless value is a length a lattice holds: a
    positive finite real (_require_positive) within SCALE_RANGE."""
    _require_positive(name, value)
    lo, hi = SCALE_RANGE
    if not lo <= float(value) <= hi:
        raise GridError(f"{name}={value!r} lies outside the lattice scale "
                        f"range [{lo:g}, {hi:g}]")


def _require_count(name: str, value, least: int = 0) -> None:
    """GridError naming name unless value is an integer >= least."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        bound = (f"an integer of at least {least}" if least
                 else "a non-negative integer")
        raise GridError(f"{name} must be {bound}, got {name}={value!r}")


def _require_finite(what: str, *values, where=...) -> None:
    """GridError "non-finite {what}" unless every one of values, a scalar
    or an array, is finite on where (an index of the arrays, the domain's
    mask say; all of each by default)."""
    if not all(np.all(np.isfinite(np.asarray(v)[where])) for v in values):
        raise GridError(f"non-finite {what}")


def _on_lattice(values, grid, what: str, dtype=None) -> np.ndarray:
    """values as an (n, n) lattice array of grid, or the GridError
    "{what}: shape {shape} != grid {(n, n)}"."""
    values = np.asarray(values, dtype=dtype)
    expect = (grid.n, grid.n)
    if values.shape != expect:
        raise GridError(f"{what}: shape {values.shape} != grid {expect}")
    return values


def _require_same_grid(grid, what: str, *fields) -> None:
    """GridError "{what} on a different grid" unless every one of fields
    lives on grid or an equal one (the same lattice)."""
    if any(f.grid != grid for f in fields):
        raise GridError(f"{what} on a different grid")


def _require_metric(g, where=..., definite: bool = True):
    """g's determinant, or a GridError unless g's entries are finite on
    where and it is positive definite there; with definite False, the
    finite check alone, and None."""
    _require_finite("metric", g.g11, g.g12, g.g22, where=where)
    if not definite:
        return None
    det = g.det()
    if np.min(det[where]) <= 0.0 or np.min(g.g11[where]) <= 0.0:
        raise GridError("metric is not positive definite")
    return det


# ---------------------------------------------------------------------------
# neighbours on a domain lattice (tests/test_packaging.py scans for np.roll,
# and for constant-fill np.pad outside this module)


def _shifted(lattice: np.ndarray, steps, fill) -> list:
    """lattice read at (i + a, j + b) for each step (a, b): (n, n) views
    of one copy padded by fill to the steps' reach."""
    r = max(max(abs(a), abs(b)) for a, b in steps)
    pad = np.pad(lattice, r, constant_values=fill)
    n1, n2 = lattice.shape
    return [pad[r + a:r + a + n1, r + b:r + b + n2] for a, b in steps]


def _erode(mask: np.ndarray, steps) -> np.ndarray:
    """The nodes of mask whose neighbours at every step lie in it."""
    return np.logical_and.reduce([mask, *_shifted(mask, steps, False)])


# ---------------------------------------------------------------------------
# boundary ring


@dataclass(frozen=True, eq=False)
class BoundaryRing:
    """Closed counterclockwise ring of points on the exact boundary curve."""

    points: np.ndarray       # (M, 2)
    normal: np.ndarray       # outward unit normals, (M, 2)
    tangent: np.ndarray      # unit tangents, (M, 2)
    curvature: np.ndarray    # signed curvature, (M,)
    ds: np.ndarray           # quadrature weights for ∮ · ds, (M,)

    def __len__(self) -> int:
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# domain grid


# a node with level C >= -_ON_CURVE is outside the mask: lattice points on
# the curve (i^2 + j^2 = m^2 on a disk) read C within ulps of 0 and a ray
# cut of 0. A mask node's cut is then at least about 1e-9 min(a, b) /
# (2 |step|), which keeps the rounding of its quadratic ghost small, and a
# node left out lies within 5e-10 min(a, b) of the curve
_ON_CURVE = 1e-9


def _level(a: float, b: float, x, y):
    """C = (x/a)^2 + (y/b)^2 - 1: negative inside, zero on the curve."""
    sx, sy = x / a, y / b
    return sx * sx + sy * sy - 1.0


@dataclass(frozen=True, eq=False)
class DomainGrid:
    """Square lattice over the ellipse with semi-axes (a, b), plus its ring.

    The lattice covers [-half, half]^2, half = max(a, b), with n nodes per
    side. ``mask`` marks the nodes with C < -_ON_CURVE (see ``level``).
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
        """C = (x/a)^2 + (y/b)^2 - 1; the mask is C < -_ON_CURVE."""
        return _level(self.a, self.b, x, y)

    def ray_cut(self, px, py, vx, vy):
        """Fraction t in [0, 1] where p + t v crosses the boundary.

        Vectorized; p must be in the mask. The crossing is the root of the
        mask's own level function along the ray, so a mask node always
        gets a cut, and a positive one: a point on the curve to rounding
        (C = -1e-16) reads 0, but the mask keeps C < -_ON_CURVE. The cut
        is clipped to [0, 1], so where p + v is outside the mask but
        inside the curve (-_ON_CURVE <= C < 0 there), p + v is its own
        crossing: the rule the mask applies to nodes.
        """
        sx, sy = px / self.a, py / self.b
        wx, wy = vx / self.a, vy / self.b
        A = wx * wx + wy * wy
        B = sx * wx + sy * wy
        C = self.level(px, py)
        t = (-B + np.sqrt(np.maximum(B * B - A * C, 0.0))) / A
        return np.clip(t, 0.0, 1.0)

    def inradius(self) -> float:
        return min(self.a, self.b)

    def param_angle(self, x, y):
        """Angle t of the ring parametrization (a cos t, b sin t)."""
        return np.arctan2(y / self.b, x / self.a)


def build_ellipse(a: float, b: float, n: int = 128) -> DomainGrid:
    """Axis-aligned ellipse x^2/a^2 + y^2/b^2 = 1 on a lattice covering its box."""
    _require_scale("a", a)
    _require_scale("b", b)
    _require_count("n", n, 16)
    half = max(a, b)
    x1 = np.linspace(-half, half, n)
    x2 = x1.copy()
    dx = x1[1] - x1[0]
    X, Y = np.meshgrid(x1, x2, indexing="ij")
    mask = _level(a, b, X, Y) < -_ON_CURVE

    M = max(16, 2 * int(round(np.pi * half / dx)))
    theta = 2.0 * np.pi * np.arange(M) / M
    pts = np.stack([a * np.cos(theta), b * np.sin(theta)], axis=1)
    speed = np.hypot(-a * np.sin(theta), b * np.cos(theta))
    tan = np.stack([-a * np.sin(theta), b * np.cos(theta)], axis=1) / speed[:, None]
    nor = np.stack([tan[:, 1], -tan[:, 0]], axis=1)
    ds = speed * (2.0 * np.pi / M)
    ring = BoundaryRing(points=pts, normal=nor, tangent=tan,
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


# offsets of the disk di^2 + dj^2 <= 9 in the order np.argmin over the
# row-major mask nodes picks them: nearest first, ties to the smaller di,
# then dj.  Every node outside the disk lies at d^2 >= 10, so a mask node
# in it is the nearest; a corner of the square of reach 3 (d^2 = 18) is
# not, when a node at d^2 = 16 lies just outside the square
_ADOPT_OFFSETS = sorted(((di, dj) for di in range(-3, 4) for dj in range(-3, 4)
                         if di * di + dj * dj <= 9),
                        key=lambda o: (o[0] ** 2 + o[1] ** 2, o[0], o[1]))


def _adopt_orphans(weights_ext, mask):
    """Fold coverage of exterior-node cells into the nearest interior node.

    Keeps the quadrature rule exact on constants (total weight = exact area)
    at an O(dx) displacement of a sliver's worth of mass, which preserves
    second order overall.
    """
    oi, oj = np.nonzero((~mask) & (weights_ext > 0))
    ti = np.full(len(oi), -1)
    tj = np.full(len(oi), -1)
    for (di, dj), near in zip(_ADOPT_OFFSETS,
                              _shifted(mask, _ADOPT_OFFSETS, False)):
        hit = (ti < 0) & near[oi, oj]
        ti[hit], tj[hit] = oi[hit] + di, oj[hit] + dj
    # thin domains leave orphans with no mask node within distance 3:
    # they take the nearest mask node, ties to the first in row-major order
    mi, mj = np.nonzero(mask)
    for k in np.flatnonzero(ti < 0):
        if not len(mi):
            raise GridError("no interior node found to adopt boundary sliver")
        best = int(np.argmin((mi - oi[k]) ** 2 + (mj - oj[k]) ** 2))
        ti[k], tj[k] = mi[best], mj[best]
    w = np.where(mask, weights_ext, 0.0)
    # unbuffered, in orphan order: a node adopting several slivers sums
    # them in a fixed order
    np.add.at(w, (ti, tj), weights_ext[oi, oj])
    return w


# ---------------------------------------------------------------------------
# padded periodic box

# the wraparound margin's width, and the core radius: half / MARGIN_DIVISOR
MARGIN_DIVISOR = 3.0


@dataclass(frozen=True)
class PaddedGrid:
    """Uniform periodic grid on [-half, half)^2 for FFT transforms; half
    is a length within SCALE_RANGE, n an integer >= 16 (build_ellipse's
    floor)."""

    half: float
    n: int

    def __post_init__(self):
        _require_scale("half", self.half)
        _require_count("n", self.n, 16)

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
        x = self.x
        return x[:, None] + 1j * x[None, :]

    @property
    def core_radius(self) -> float:
        """The core disk's radius, and the wraparound margin's width."""
        return self.half / MARGIN_DIVISOR

    @property
    def data_window(self) -> slice:
        """Index slice, along either axis, of the data region."""
        at = np.flatnonzero(np.abs(self.x) <= self.half - self.core_radius)
        return slice(int(at[0]), int(at[-1]) + 1)

    @property
    def cheb(self) -> np.ndarray:
        """max(|x1|, |x2|) at the nodes."""
        ax = np.abs(self.x)
        return np.maximum(ax[:, None], ax[None, :])

    def core_mask(self, radius: float) -> np.ndarray:
        at, mask = self.core_window(radius)
        out = np.zeros((self.n, self.n), dtype=bool)
        out[at] = mask
        return out

    def core_window(self, radius: float) -> tuple:
        """The disk of core_mask(radius) as the index slices of its
        bounding box (empty when it holds no node) and the mask on them.

        Both come from the 1-D axis: a row holds a node of the disk when
        its x^2 plus the least x^2 of the axis is within radius^2, and
        the sum is monotone in each term, so the mask is the full-box
        one's bit for bit.
        """
        if not (isinstance(radius, numbers.Real) and radius >= 0.0):
            raise GridError("core radius must be a non-negative number, "
                            f"got radius={radius!r}")
        x2 = self.x * self.x
        r2 = radius * radius
        rows = np.flatnonzero(x2 + np.min(x2) <= r2)
        span = (slice(int(rows[0]), int(rows[-1]) + 1) if rows.size
                else slice(0, 0))
        x2 = x2[span]
        return (span, span), x2[:, None] + x2[None, :] <= r2

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


def lattice_values(value, grid) -> np.ndarray:
    """A lattice input as an (n, n) float array on grid.

    Accepts a ScalarField on grid or an equal grid, a real scalar, an
    (n, n) array, or a callable (x, y) -> either of the last two,
    evaluated on the lattice. Anything else is a GridError naming its
    type, dtype, shape or grid.
    """
    if isinstance(value, ScalarField):
        _require_same_grid(grid, "field", value)
        return value.values
    if callable(value):
        value = value(*grid.meshgrid())
    if not isinstance(value, (numbers.Real, np.ndarray, list, tuple)):
        raise GridError(
            f"cannot read {type(value).__name__} as lattice values")
    arr = _real(value)
    if arr.ndim == 0:
        return np.full((grid.n, grid.n), float(arr))
    return _on_lattice(arr, grid, "field")


class ScalarField:
    """Real values on a DomainGrid lattice (or a PaddedGrid box)."""

    def __init__(self, values: np.ndarray, grid):
        self.values = _on_lattice(_real(values), grid, "field")
        self.grid = grid


class ComplexField:
    """Complex values on either lattice: the Wirtinger calculus and the
    Cauchy transforms on a padded box, masked Wirtinger derivatives on a
    domain."""

    def __init__(self, values: np.ndarray, grid):
        self.values = _on_lattice(values, grid, "field", complex)
        self.grid = grid


@dataclass(frozen=True, eq=False)
class VectorField:
    """Two real components on a grid (drift vectors, gradients)."""

    c1: np.ndarray
    c2: np.ndarray
    grid: object

    def __post_init__(self):
        for name in ("c1", "c2"):
            object.__setattr__(self, name,
                               _on_lattice(_real(getattr(self, name)),
                                           self.grid, "field"))


class BoundaryTrace:
    """Real values at the boundary ring nodes (a float copy of the
    caller's array)."""

    def __init__(self, values: np.ndarray, grid: DomainGrid):
        values = np.array(_real(values))
        ring = _require_grid(grid, DomainGrid, "a trace").boundary
        if values.shape != (len(ring),):
            raise GridError("trace length does not match boundary node count")
        _require_finite("boundary trace", values)
        self.values = values
        self.grid = grid


class MetricField:
    """Symmetric 2x2 tensor field on a lattice (metric, inverse metric, ...)."""

    def __init__(self, g11, g12, g22, grid):
        self.g11, self.g12, self.g22 = (_on_lattice(_real(c), grid, "field")
                                        for c in (g11, g12, g22))
        self.grid = grid

    def det(self) -> np.ndarray:
        return self.g11 * self.g22 - self.g12 ** 2

    def eig_bounds(self, where):
        """Min and max eigenvalue over the mask where (SPD diagnostics)."""
        tr = self.g11 + self.g22
        disc = np.sqrt(np.maximum((self.g11 - self.g22) ** 2
                                  + 4.0 * self.g12 ** 2, 0.0))
        return (float(np.min(0.5 * (tr - disc)[where])),
                float(np.max(0.5 * (tr + disc)[where])))


# ---------------------------------------------------------------------------
# quadrature and traces


def quadrature(f: ScalarField) -> float:
    """Second-order area integral of f over its domain's interior; a
    field that is not a ScalarField is a GridError (a ComplexField's
    imaginary part would be dropped)."""
    if not isinstance(f, ScalarField):
        raise GridError("quadrature integrates a ScalarField, not a "
                        f"{type(f).__name__}")
    d = _require_grid(f.grid, DomainGrid, "quadrature")
    return float(np.sum(f.values[d.mask] * d.weights[d.mask]))


def tangential_derivative(grid: DomainGrid, vals: np.ndarray) -> np.ndarray:
    """d/ds of ring samples (M,) or (M, k), s the arclength.

    Spectral in the uniform ring parameter theta (the Nyquist mode has no
    odd derivative and is zeroed), divided by the ring's speed
    |dp/dtheta| = ds M / 2 pi; a higher derivative is this one composed.
    A grid that is not a DomainGrid and samples whose first axis is not
    the ring are a GridError.
    """
    b = _require_grid(grid, DomainGrid, "ring calculus").boundary
    M = len(b)
    vals = np.asarray(vals, dtype=float)
    if vals.shape[:1] != (M,):
        raise GridError(f"ring samples of shape {vals.shape} do not run "
                        f"over the {M} ring nodes")
    speed = b.ds * M / (2.0 * np.pi)
    ik = 1j * np.arange(M // 2 + 1, dtype=float)
    ik[-1] = 0.0
    # the ring along the last axis
    return (np.fft.irfft(ik * np.fft.rfft(vals.T), n=M) / speed).T


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


# lattice coordinates within _SNAP_EPS of a node are that node
_SNAP_EPS = 1e-9


def _snap(t: np.ndarray) -> np.ndarray:
    """Snap lattice coordinates within _SNAP_EPS of a node onto the node.

    Removes the floor/ulp jitter of points that are meant to be nodes, so
    evaluating there returns the stored value bitwise (the Lagrange
    weights degenerate to exact zeros and a one).
    """
    r = np.round(t)
    return np.where(np.abs(t - r) < _SNAP_EPS, r, t)


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

    Holds each point's block corner (gi, gj) and its 4 + 4 per-axis
    Lagrange weights, 80 bytes a point. A sample forms the 16 terms
    (weight wu[a] wv[b], flat node index row_a + col_b) as it loops, in
    the order and with the operations of storing all 16, so it is
    bitwise theirs. One block samples any number of fields at the same
    points, a (k, n, n) stack of them in one call. Lattice coordinates
    are (p + half)/dx on both lattices; block corners are clipped to
    [0, n-4] on a DomainGrid (extrapolating at its edge) and wrap mod n
    on a PaddedGrid. Exact at lattice points and on cubics per axis of
    the local coordinates.
    """

    def __init__(self, grid, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        u = _snap((p1 + grid.half) / grid.dx)
        v = _snap((p2 + grid.half) / grid.dx)
        gi = np.floor(u).astype(int) - 1
        gj = np.floor(v).astype(int) - 1
        if not isinstance(grid, PaddedGrid):
            gi = np.clip(gi, 0, grid.n - 4)
            gj = np.clip(gj, 0, grid.n - 4)
        self.grid = grid
        self.p1, self.p2 = p1, p2
        self.gi, self.gj = gi, gj
        self.wu, self.wv = _lagrange4(u - gi), _lagrange4(v - gj)

    def _indices(self):
        """The 16 flat node indices row_a + col_b, a-major."""
        n = self.grid.n
        wrap = isinstance(self.grid, PaddedGrid)
        cols = [(self.gj + b) % n if wrap else self.gj + b for b in range(4)]
        for a in range(4):
            row = ((self.gi + a) % n if wrap else self.gi + a) * n
            for col in cols:
                yield row + col

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Samples of an (n, n) field or a (k, n, n) stack, shape (k,) + p."""
        values = np.asarray(values)
        flat = values.reshape(values.shape[:-2] + (-1,))
        out = np.zeros(flat.shape[:-1] + self.p1.shape, dtype=flat.dtype)
        weights = (wa * wb for wa in self.wu for wb in self.wv)
        for w, idx in zip(weights, self._indices()):
            out += w * flat.take(idx, axis=-1)
        return out

    def inside(self) -> np.ndarray:
        """Points whose 16 block nodes all lie in the domain mask."""
        flat = self.grid.mask.ravel()
        ok = np.ones(self.p1.shape, dtype=bool)
        for idx in self._indices():
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
    _require_grid(grid, DomainGrid, "a boundary fit")
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
    _require_grid(f, ScalarField, "boundary_restrict")
    return BoundaryTrace(_ray_fit(f.grid, f.values)[0], f.grid)


def normal_derivative(f: ScalarField, anchor: BoundaryTrace | None = None) -> BoundaryTrace:
    """Outward normal derivative on the boundary, one-sided, >= O(dx^2).

    ``anchor`` supplies known Dirichlet values at the boundary nodes; when
    given, the fit interpolates the anchor exactly, which removes the
    extrapolation leg and tightens the constant.
    """
    grid = _require_grid(f, ScalarField, "normal_derivative").grid
    if anchor is not None:
        _require_grid(anchor, BoundaryTrace, "the anchor of normal_derivative")
        _require_same_grid(grid, "anchor trace", anchor)
    values = None if anchor is None else anchor.values
    return BoundaryTrace(_ray_fit(grid, f.values, values)[1], grid)
