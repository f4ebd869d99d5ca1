"""Complex geometric optics solutions for the planar drift Laplacian.

Everything here serves one construction: exponentially growing solutions of

    -lap v + X . grad v + q v = 0

on a padded box, built from a holomorphic polynomial phase.  The operator
factorizes through a gauge transform killing the first-order term,

    -lap + X . grad + q  =  2 G_c (dzb*) [ m dzb ( G . ) ] + Q,   dzb* = -2 dz,

where G = exp(i alpha) with dzb(alpha) = (i/4)(X1 + i X2), G_c = exp(i
conj(alpha)) is its conjugate partner, and m = exp(-2i Re alpha) is a
unimodular middle weight.  The zeroth-order coefficient Q this factorization
carries is

    Q = |X|^2 / 4 - div X / 2 - (i/2) curl X + q,

and the whole identity is checked numerically to spectral accuracy by
factorization_check.  (The drift parts of Q appear in the literature with
the opposite signs next to an outer weight 1/G_c and a middle weight
|G|^-2; that sign set leaves an O(1) residual in the identity, so this
module keeps only the set the residual actually certifies.)  The gauge
field alpha is the exact Fourier division of its source by the dzb symbol,
so it carries no 1/z tail; the mean of the source rides on conj(z).

Given the factorization, a solution v = G^-1 exp(Phi/h) (a + r) with
holomorphic Phi and a requires the remainder r to satisfy a fixed-point
equation driven by two oscillatory inverses.  With osc the oscillatory
right inverse of dzb (phase exp(-2i psi/h)) and P* the matching right
inverse of dzb* = -2 dz (phase exp(+2i psi/h)),

    b   = -P*( V a ),      T t = P*( V osc( V' t ) ),
    s   = sum_{j<=K} T^j b,  r = -osc( V' s ),
    V   = Q exp(-2i Re alpha) / 2,   V' = -exp(+2i Re alpha),

with s summed until the bound on its tail falls to SERIES_RTOL times its
first term, to depth DEPTH_CAP at most.  The remainder decays with h at the
same rate the oscillatory inverses do: like h (up to logs) when psi has a
nondegenerate critical point and like h^1 or better when it has none,
which is what the decay sweeps measure.  The series runs on the box's data
region and core disk, both defined in grid (PaddedGrid.data_window,
core_radius).
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

# a bundle builds one _OscPlan(windows, h) on the _OscWindows its sweep
# shares; oscillatory_dbar_inv stays importable here as the public form of
# that inverse (CGOBundle.r is -oscillatory_dbar_inv(V' s) bit for bit),
# and perfbench traces it here
from .complexcalc import (_fd4, _OscPlan, _OscWindows, _support_guard,
                          _wirtinger, _wirtinger_symbol, oscillatory_dbar_inv,
                          periodic_fd4, spectral_deriv, spectral_dz,
                          spectral_dzb)
from .grid import (ComplexField, GridError, PaddedGrid, VectorField,
                   _on_lattice, _require_count, _require_finite,
                   _require_grid, _require_positive, _require_same_grid)

DEPTH_CAP = 6                           # cap on the series depth
# The series stops once the bound on its tail (_series_tail) is at most
# SERIES_RTOL ||t_0||.  The terms are the equation error of a truncated s,
# and on the standard Morse sweeps the tail reaches the normalized residual
# at most about 5e-3 (seed 1) to 9e-3 (seed 2) times its size relative to
# ||t_0|| (h = 0.4 and K = 2: a tail of 1.3e-4 moved the residual by 6e-7).
# Holding that share under 1% of the smallest residual floor of the
# 4th-order differences, 1.8e-6, asks for a relative tail of at most
# 1.8e-8 / 9e-3 = 2e-6: SERIES_RTOL keeps it to half that.
SERIES_RTOL = 1e-6
CZ_EPS = 0.1                            # cz_diagnostic weighs by h^(1/2 - CZ_EPS)


# ---------------------------------------------------------------------------
# helpers


def _l2(vals: np.ndarray, grid: PaddedGrid, where=None) -> float:
    v2 = np.abs(vals) ** 2
    if where is not None:
        v2 = np.where(where, v2, 0.0)
    return float(np.sqrt(np.real(grid.quadrature(v2))))


def _measurement_disk(grid: PaddedGrid) -> tuple:
    """The core disk (radius grid.core_radius) less the 3-node reach of
    the 4th-order differences, as the slices of its bounding box and the
    mask on them, or a GridError if it holds no node."""
    rc = grid.core_radius
    at, mask = grid.core_window(max(rc - 3.0 * grid.dx, 0.0))
    if rc <= 3.0 * grid.dx or not mask.any():
        raise GridError(f"core radius {rc:.4g} leaves no node to measure "
                        "the residual on")
    return at, mask


def _disk_fd4(grid: PaddedGrid) -> tuple:
    """The measurement disk's box and mask, that box grown by the 2-node
    reach of the 4th-order differences, and fd4(f, axis, order): _fd4 of
    f, given on the grown box, on the box."""
    box, mask = _measurement_disk(grid)
    grown = tuple(slice(b.start - 2, b.stop + 2) for b in box)

    def fd4(f, axis, order):
        return _fd4(f[:, 2:-2] if axis == 0 else f[2:-2, :], grid.dx, axis,
                    order)
    return box, mask, grown, fd4


def _require_terms(grid: PaddedGrid, X: VectorField, q) -> np.ndarray:
    """q as an array, once X is checked to live on grid and q to be a
    finite scalar or box field."""
    _require_same_grid(grid, "drift", X)
    qv = np.asarray(q)
    if qv.ndim:
        _on_lattice(qv, grid, "q")
    _require_finite("q", qv)
    return qv


# ---------------------------------------------------------------------------
# gauge transform


def gauge(X: VectorField) -> tuple[ComplexField, ComplexField, ComplexField]:
    """Gauge transform killing the drift: alpha, exp(i alpha), conj partner.

    alpha solves dzb(alpha) = (i/4)(X1 + i X2) to spectral accuracy: every
    Fourier mode of the source but the mean is divided exactly by the dzb
    symbol, Nyquist modes included (a periodic field cannot produce the
    mean, so that one mode rides on an explicit conj(z) term).  exp(i alpha)
    never vanishes, with |G| >= exp(-max |Im alpha|) nodewise.  Non-finite
    drifts, and drifts reaching the outer third of the box, are rejected by
    the guards the Cauchy transform runs.
    """
    alpha = _gauge(_gauge_source(X), X.grid)
    return (ComplexField(alpha, X.grid),
            ComplexField(np.exp(1j * alpha), X.grid),
            ComplexField(np.exp(1j * np.conj(alpha)), X.grid))


def _gauge_source(X: VectorField) -> np.ndarray:
    """The source (i/4)(X1 + i X2) of gauge, after the drift's guards."""
    grid = _require_grid(X.grid, PaddedGrid, "gauge")
    _require_finite("drift", X.c1, X.c2)
    src = 0.25j * (X.c1 + 1j * X.c2)
    _support_guard(src, grid, "gauge")
    return src


def _gauge(src: np.ndarray, grid: PaddedGrid) -> np.ndarray:
    """alpha of gauge for its checked source, which it overwrites: the
    spectrum and then alpha are written into src, and the conj(z) term
    takes one box array until it is added."""
    sh = np.fft.fft2(src, out=src)
    mean = sh[0, 0] / grid.n ** 2
    sym = _wirtinger_symbol(grid, 1, odd=False)
    sym[0, 0] = 1.0
    np.divide(sh, sym, out=sh)
    del sym
    sh[0, 0] = 0.0
    alpha = np.fft.ifft2(sh, out=sh)
    # mean stays the product's left operand: numpy's complex loops round
    # the two operand orders differently, and the other order moves Im alpha
    cz = grid.zz
    np.conjugate(cz, out=cz)
    alpha += np.multiply(mean, cz, out=cz)
    return alpha


# ---------------------------------------------------------------------------
# zeroth-order coefficients


def factor_potential(X: VectorField, q=0.0) -> ComplexField:
    """Zeroth-order coefficient the verified factorization carries.

    |X|^2/4 - div X/2 - (i/2) curl X + q, computed as
    |X|^2/4 - dz(X1 + i X2) + q.  The drift part's sign set is fixed by
    driving the factorization residual to the spectral floor (the
    conventional, opposite set leaves O(1)).
    """
    grid = _require_grid(X.grid, PaddedGrid, "factor_potential")
    return ComplexField(_potential(X, _require_terms(grid, X, q),
                                   (slice(None), slice(None))), grid)


def _potential(X: VectorField, q, at: tuple) -> np.ndarray:
    """factor_potential's values on the window at (a slice pair): dz is
    spectral, so it runs on the box; the nodewise rest runs on the
    window."""
    src = X.c1 + 1j * X.c2
    dz = _wirtinger(np.fft.fft2(src, out=src), X.grid, -1)[at]
    c1, c2 = X.c1[at], X.c2[at]
    return (0.25 * (c1 * c1 + c2 * c2) - dz
            + np.broadcast_to(np.asarray(q), X.c1.shape)[at])


def _zero_drift(grid: PaddedGrid) -> VectorField:
    z = np.zeros((grid.n, grid.n))
    return VectorField(z, z.copy(), grid)


def factorization_check(X: VectorField, q=0.0) -> float:
    """Relative residual of the gauge factorization on a test function.

    Compares (-lap + X.grad + q) f against
    2 G_c dzb*[ m dzb(G f) ] + factor_potential(X, q) f with dzb* = -2 dz
    for the fixed probe f = exp(-|x|^2 / 0.8) (1 + 0.4 x - 0.3 y), all
    derivatives spectral and the gauge solved spectrally, so the residual
    sits at rounding level when the identity is exact.
    """
    grid = _require_grid(X.grid, PaddedGrid, "factorization_check")
    qv = _require_terms(grid, X, q)
    XX, YY = grid.meshgrid()
    r2 = XX * XX + YY * YY
    fv = (np.exp(-r2 / 0.8) * (1.0 + 0.4 * XX - 0.3 * YY)).astype(complex)

    lhs = (-(spectral_deriv(fv, grid, 2, 0) + spectral_deriv(fv, grid, 0, 2))
           + X.c1 * spectral_deriv(fv, grid, 1, 0)
           + X.c2 * spectral_deriv(fv, grid, 0, 1) + qv * fv)

    alpha, ga, gc = (a.values for a in gauge(X))
    mid = np.exp(-1j * (alpha + np.conj(alpha)))
    bracket = 2.0 * gc * (-2.0 * spectral_dz(mid * spectral_dzb(ga * fv, grid),
                                             grid))
    rhs = bracket + factor_potential(X, qv).values * fv
    return _l2(lhs - rhs, grid) / _l2(lhs, grid)


# ---------------------------------------------------------------------------
# polynomial phases


@dataclass(frozen=True, eq=False)
class PhaseSpec:
    """Holomorphic polynomial phase on a padded box.

    Evaluated from its coefficients, so dzb(Phi) = 0 holds by construction;
    the critical-point flag reports whether any root of the derivative
    polynomial lies inside the box's core disk (radius grid.core_radius)
    where the oscillatory machinery operates.  Phi is its one box array:
    psi = Im Phi is a view of it, and dPhi/dz is evaluated when first read
    and kept from then on.
    """

    coeffs: tuple                        # ascending powers of (z - center)
    center: complex
    grid: PaddedGrid
    values: np.ndarray                   # Phi on the lattice
    has_critical_point: bool             # any root of dPhi/dz in the core disk

    @property
    def psi(self) -> np.ndarray:
        """Im Phi, a view of values."""
        return self.values.imag

    @cached_property
    def dvalues(self) -> np.ndarray:
        """dPhi/dz on the lattice."""
        return _horner(_derivative(self.coeffs), self.grid, self.center)

    def negated(self) -> "PhaseSpec":
        return phase_spec(tuple(-c for c in self.coeffs), self.grid,
                          self.center)


def _derivative(cs: tuple) -> tuple:
    return tuple(k * cs[k] for k in range(1, len(cs)))


def _horner(cs: tuple, grid: PaddedGrid, center: complex) -> np.ndarray:
    """The polynomial with ascending coefficients cs in (z - center) on
    the lattice, by Horner's rule in place; an overflow is left in it."""
    w = grid.zz - center
    p = np.zeros_like(w)
    with np.errstate(over="ignore", invalid="ignore"):
        for c in reversed(cs):
            np.multiply(p, w, out=p)
            p += c
    return p


def phase_spec(coeffs, grid: PaddedGrid, center=0j) -> PhaseSpec:
    """Build a PhaseSpec from ascending polynomial coefficients.  A
    coefficient or center that is not a finite number, and a phase or
    derivative that overflows on the box, are a GridError; the derivative
    is evaluated for that check and dropped."""
    _require_grid(grid, PaddedGrid, "phase_spec")
    coeffs = tuple(coeffs)
    if not all(isinstance(c, numbers.Number) for c in (*coeffs, center)):
        raise GridError("phase: coefficients and center must be numbers, "
                        f"got coeffs={coeffs!r}, center={center!r}")
    cs = tuple(complex(c) for c in coeffs)
    if not cs:
        raise GridError("phase needs at least one coefficient")
    _require_finite("coefficient or center of the phase", *cs, center)
    center = complex(center)
    vals = _horner(cs, grid, center)
    dcs = _derivative(cs)
    _require_finite("phase: its values overflow on the box", vals,
                    _horner(dcs, grid, center))
    if not dcs or all(c == 0 for c in dcs):
        has_cp = True                    # derivative vanishes identically
    else:
        roots = np.roots(list(reversed(dcs)))
        has_cp = any(abs(center + complex(z)) <= grid.core_radius
                     for z in roots)
    return PhaseSpec(cs, center, grid, vals, has_cp)


# ---------------------------------------------------------------------------
# oscillatory Neumann operator


def series_weights(alpha: np.ndarray, X: VectorField, q=0.0
                   ) -> tuple[ComplexField, ComplexField]:
    """Weight pair (V, V') of the remainder series for a given gauge field.

    V = factor_potential x exp(-2i Re alpha) / 2 drives the source side;
    V' = -exp(+2i Re alpha) is the unimodular return weight.
    """
    grid = _require_grid(X.grid, PaddedGrid, "series_weights")
    qv = _require_terms(grid, X, q)
    _require_finite("gauge field alpha", _on_lattice(alpha, grid, "alpha"))
    box = (slice(None), slice(None))
    v, vp = _weights(alpha, X, qv, box, box)
    return ComplexField(v, grid), ComplexField(vp, grid)


def _weights(alpha: np.ndarray, X: VectorField, q, v_at: tuple,
             vp_at: tuple) -> tuple[np.ndarray, np.ndarray]:
    """series_weights' V on the window v_at and V' on vp_at (slice pairs):
    everything but the spectral dz runs only where it is read."""
    re2v, re2p = (2.0 * np.real(alpha[at]) for at in (v_at, vp_at))
    v = 0.5 * _potential(X, q, v_at) * np.exp(-1j * re2v)
    return v, -np.exp(1j * re2p)


def _dbar_star_inv(vals: np.ndarray, apply) -> np.ndarray:
    """Oscillatory right inverse of dzb* = -2 dz with phase exp(+2i psi/h),
    through apply, one of an _OscPlan's forms of the dzb inverse."""
    return -0.5 * np.conj(apply(np.conj(vals)))


def _neumann_step(win: np.ndarray, plan: _OscPlan, Vw: np.ndarray,
                  vpw: np.ndarray) -> np.ndarray:
    """T on the core window: win, the weights Vw and vpw and the result
    are all arrays on plan.out."""
    return _dbar_star_inv(Vw * plan.apply_core(vpw * win), plan.apply_core)


def neumann_T(f: ComplexField, psi, h: float, V: ComplexField,
              vp: ComplexField) -> ComplexField:
    """One application of the remainder-series operator.

    T f = (dzb*-inverse with phase +2i psi/h) [ V x (dzb-inverse with phase
    -2i psi/h)( V' f ) ]; linear in f, zero when V is, and contracting in h
    at the oscillatory decay rate.  The inner inverse reads f on the whole
    cutoff window and returns on the core window, where the outer one
    runs; the result is zero outside the core window.
    """
    grid = _require_grid(f.grid, PaddedGrid, "neumann_T")
    _require_positive("h", h)
    _require_same_grid(grid, "series weight V or V'", V, vp)
    _require_finite("series weight V or V'", V.values, vp.values)
    plan = _OscPlan(_OscWindows(grid, psi), h)
    ws = plan.windows
    Vu = V.values[ws.out] * plan.apply(vp.values * f.values)
    return ComplexField(ws.embed(_dbar_star_inv(Vu, plan.apply_core)), grid)


# ---------------------------------------------------------------------------
# bundles


@dataclass(frozen=True, eq=False)
class CGOBundle:
    """One constructed solution with its series bookkeeping.

    Every input, zero drift and potential included, runs the one series of
    build_cgo_holo, so r always equals -osc(V' s) for the stored s and
    gauge, bit for bit, and term_norms holds the norm of every term the
    series formed, at most DEPTH_CAP + 1; the antiholo and adjoint bundles
    are that holo bundle with its kind, conjugated fields and re-measured
    residual replaced.  The residual is the drift operator applied to v by
    4th-order differences over the measurement disk (_measurement_disk,
    inside the box's core disk), normalized by h^-2 times the solution norm
    there.  K_effective, where the sum stopped, is the argmin of term_norms:
    the last term, once the tail bound after it is at most SERIES_RTOL
    times the first or at DEPTH_CAP; the one before a term that failed to
    decrease; and 0 when the first term is zero.  v is exp(Phi/h - i alpha)
    (a + r), the gauge factor G^-1 = exp(-i alpha) taken inside the one
    exponential.  build_cgo_holo
    stores a constant amplitude (the default is 1) as a read-only
    zero-stride broadcast of its value, and build_cgo_antiholo the
    broadcast of its conjugate; alpha is the kept setup's read-only
    array.
    """

    kind: str                            # "holo" | "antiholo" | "adjoint"
    phase: PhaseSpec
    h: float
    alpha: np.ndarray
    amplitude: np.ndarray
    s: ComplexField
    r: ComplexField
    v: ComplexField
    residual: float
    term_norms: tuple
    r_norm: float

    @property
    def K_effective(self) -> int:
        return int(np.argmin(self.term_norms))


def _eval_amplitude(amplitude, grid: PaddedGrid) -> np.ndarray:
    """Holomorphic amplitude as a lattice field, from a callable of z,
    with a dzb guard, or a number (None reads 1).  A constant is
    holomorphic, and its field is a read-only zero-stride broadcast of
    its value, not a box array."""
    if amplitude is None or isinstance(amplitude, numbers.Number):
        const = complex(1.0 if amplitude is None else amplitude)
        _require_finite("amplitude", const)
        return np.broadcast_to(const, (grid.n, grid.n))
    if not callable(amplitude):
        raise GridError("amplitude must be a callable of z or a number, "
                        f"not a {type(amplitude).__name__}")
    vals = _on_lattice(amplitude(grid.zz), grid, "amplitude", complex)
    _require_finite("amplitude", vals)
    # interior holomorphy check by local differences (exact on polynomials
    # through degree 4, seam rows excluded)
    dzb = 0.5 * (periodic_fd4(vals, grid, 0, 1)
                 + 1j * periodic_fd4(vals, grid, 1, 1))
    inner = grid.cheb <= grid.half - 4 * grid.dx
    scale = float(np.max(np.abs(vals))) or 1.0
    if float(np.max(np.abs(dzb)[inner])) > 1e-6 * scale:
        raise GridError("amplitude is not holomorphic")
    return vals


def drift_residual(vals: np.ndarray, X: VectorField, q, h: float,
                   conservative: bool = False) -> float:
    """Normalized PDE residual of a candidate solution over the core.

    Applies -lap + X.grad + q (or the adjoint -lap - div(X .) + q in
    conservative form) with 4th-order differences on the drift's box,
    measures the L2 norm over the measurement disk, and normalizes by
    min(h, 1)^-2 times the solution's norm there: the natural size of any
    single second-order term.  A solution exp(Phi/h) (a + r) varies on the
    scale h where h < 1, so each derivative of it costs a factor 1/h and
    -lap v is of size h^-2 |v|; where h >= 1 it varies on the unit scale
    of the drift, the potential and the phase, and each term is of size
    |v|.  For h <= 1 the normalizer is h^-2 |v| bit for bit (min returns
    h).  h^-2 alone overflows from h^2 near h = 1.3e154, and below that
    divides by a size no term has: with zero drift it reads 8.9e185 at
    h = 1e100, against 2.5e-13 by min(h, 1)^-2.  The normalizer carries no
    length: the h = 1 Morse bundle carried from the half-6 box to half
    width L (drift / s, q / s^2, phase / s^2, s = L / 6) reads 1.45e-3
    (6 / L)^2, so a bound on it, the tests' 1e-4 and the cgo-sweep
    benchmark's CgoSweep.ERR_TOL, means what it says only near half width 6.
    The differences run only on the disk's bounding box grown by their
    2-node reach (|x| <= rc - dx, inside the box), with the same per-node
    arithmetic as on the whole box.  A bad h, drift or q, and a candidate
    that is not a finite field of the box, are a GridError before any
    difference, as in build_cgo_holo.
    """
    _require_positive("h", h)
    grid = _require_grid(X.grid, PaddedGrid, "drift_residual")
    qv = _require_terms(grid, X, q)
    vals = _on_lattice(vals, grid, "drift_residual")
    _require_finite("candidate of drift_residual", vals)
    box, mask, grown, fd4 = _disk_fd4(grid)
    v = vals[grown]
    c1, c2 = X.c1[grown], X.c2[grown]
    mid = (slice(2, -2), slice(2, -2))
    qv = np.broadcast_to(qv, vals.shape)[box]
    lap = fd4(v, 0, 2) + fd4(v, 1, 2)
    if conservative:
        flux = fd4(c1 * v, 0, 1) + fd4(c2 * v, 1, 1)
        res = -lap - flux + qv * v[mid]
    else:
        res = (-lap + c1[mid] * fd4(v, 0, 1) + c2[mid] * fd4(v, 1, 1)
               + qv * v[mid])
    scale = _l2(v[mid], grid, mask) / min(h, 1.0) ** 2
    return _l2(res, grid, mask) / scale


def _bundle_inputs(phase: PhaseSpec, h: float, drift, q, amplitude) -> tuple:
    """(grid, drift, q, amplitude values) of a bundle, after
    the guards every call runs before any FFT (build_cgo_holo); the
    drift's own guards run in _gauge_source."""
    grid = _require_grid(phase.grid, PaddedGrid, "a CGO bundle")
    _require_positive("h", h)
    X = drift if drift is not None else _zero_drift(grid)
    qv = _require_terms(grid, X, q)
    _measurement_disk(grid)
    return grid, X, qv, _eval_amplitude(amplitude, grid)


class _Setup:
    """The h-independent half of build_cgo_holo for one (box, psi, drift, q).

    The gauge field alpha, after the drift's guards; the _OscWindows of
    (box, psi); and the series weights, V on the input window and V' and
    V on the core window.  key holds copies of psi, X.c1, X.c2 and q,
    which matches compares with a later call's by value.  Every array it
    holds is read-only.

    The box arrays: the key and alpha; G^-1 = exp(-i alpha) is not kept,
    each bundle forms it inside its own exponential.  The gauge's and
    dz's FFT pairs run on the box, each written into its source array;
    E, |grad psi|, |X|^2/4, q and the exponentials of V and V' run on the
    windows.
    """

    def __init__(self, grid: PaddedGrid, psi, X: VectorField, qv):
        self.grid = grid
        self.key = tuple(np.array(a) for a in (psi, X.c1, X.c2, qv))
        alpha = self.alpha = _gauge(_gauge_source(X), grid)
        ws = self.windows = _OscWindows(grid, self.key[0])
        # V is read on the input window, V' and every later V on the core
        # window
        self.Vin, self.vpw = _weights(alpha, X, qv, ws.inp, ws.out)
        self.Vw = self.Vin[ws.inner]
        for arr in (*self.key, alpha, self.Vin, self.vpw, self.Vw,
                    ws.psi, ws.cutoff, ws.core, ws.frame):
            arr.flags.writeable = False

    def matches(self, grid: PaddedGrid, psi, X: VectorField, qv) -> bool:
        return self.grid == grid and all(
            a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip(self.key, (np.asarray(psi), X.c1, X.c2, qv)))


# _SETUP keeps the one _Setup built last (about 16 MB on the 512 box) and
# is emptied before the next is built, so two never coexist
_SETUP: list = []


def _setup(grid: PaddedGrid, psi, X: VectorField, qv) -> _Setup:
    """The _Setup of these inputs: the stored one when they equal its key,
    else a new one that replaces it."""
    if _SETUP and _SETUP[0].matches(grid, psi, X, qv):
        return _SETUP[0]
    _SETUP.clear()
    _SETUP.append(_Setup(grid, psi, X, qv))
    return _SETUP[0]


def _series_tail(norms: list) -> float:
    """Bound on the norm of the series' remaining terms after the last of
    norms (two or more, each below the one before): with q the largest
    ratio of successive norms so far, ||t_j|| (q + q^2 + ...) =
    ||t_j|| q / (1 - q)."""
    q = max(b / a for a, b in zip(norms, norms[1:]))
    return norms[-1] * q / (1.0 - q)


def _bundle_at(setup: _Setup, phase: PhaseSpec, h: float, X: VectorField,
               qv, a_vals: np.ndarray) -> CGOBundle:
    """The per-h half of build_cgo_holo: the resolution guard, the weight
    at h, the series, v and its residual."""
    grid, alpha, ws = setup.grid, setup.alpha, setup.windows
    plan = _OscPlan(ws, h)
    # V a vanishes outside the input window, where V lives
    Va = setup.Vin * a_vals[ws.inp]
    t = -_dbar_star_inv(Va, plan.apply_window)
    norms = [_l2(t, grid)]
    # s is summed as the terms arrive, each as sum() adds it: 0 + t_0 first,
    # which turns -0.0 into 0.0.  A zero t_0 makes every term zero
    s_win = 0 + t
    for _ in range(DEPTH_CAP if norms[0] > 0.0 else 0):
        t = _neumann_step(t, plan, setup.Vw, setup.vpw)
        norms.append(_l2(t, grid))
        if norms[-1] >= norms[-2]:
            # the terms before it decreased, so their minimum is the last
            # one summed
            warnings.warn("remainder series stopped decreasing; truncating "
                          f"at {int(np.argmin(norms))}", RuntimeWarning,
                          stacklevel=3)
            break
        s_win += t
        if _series_tail(norms) <= SERIES_RTOL * norms[0]:
            break
    r_win = plan.apply_core(setup.vpw * s_win)
    # the last term and the plan's weights go before the first box array
    del t, plan
    # negated after embedding, so r's zeros outside the window are -0.0 as
    # in -oscillatory_dbar_inv(V' s)
    r_vals = ws.embed(r_win)
    np.negative(r_vals, out=r_vals)

    # v = exp(Phi/h - i alpha) (a + r), formed in v's own array: adding
    # -i alpha = Im alpha - i Re alpha part by part is the plain
    # difference bit for bit.  The product keeps its operand order, which
    # decides how numpy's complex loop rounds.  Outside the core window r
    # is -0.0 and a + r == a bitwise, so a + r takes only a window array
    v_vals = np.divide(phase.values, h)
    v_vals.real += alpha.imag
    v_vals.imag -= alpha.real
    np.exp(v_vals, out=v_vals)
    a_r = a_vals[ws.out] + r_vals[ws.out]
    np.multiply(v_vals[ws.out], a_r, out=a_r)
    np.multiply(v_vals, a_vals, out=v_vals)
    v_vals[ws.out] = a_r
    del a_r
    res = drift_residual(v_vals, X, qv, h)
    s_vals = ws.embed(s_win)
    return CGOBundle("holo", phase, float(h), alpha, a_vals,
                     ComplexField(s_vals, grid),
                     ComplexField(r_vals, grid),
                     ComplexField(v_vals, grid), res, tuple(norms),
                     _l2(r_win, grid))


def build_cgo_holo(phase: PhaseSpec, h: float, drift: VectorField | None = None,
                   q=0.0, amplitude=None) -> CGOBundle:
    """Holomorphically growing solution exp(i alpha)^-1 e^{Phi/h} (a + r).

    Every input runs the same series: the gauge, the weights (V, V') and
    the truncated Neumann series of neumann_T applied to the gauge-weighted
    amplitude, whose oscillatory transforms, one for the first term, two
    for each term after it and one for r, share one plan.  The series stops
    at the first term j >= 1 after which the tail bound
    ||t_j|| q / (1 - q), q the largest ratio of successive term norms so
    far, is at most SERIES_RTOL ||t_0||, and at j = DEPTH_CAP at the latest:
    2 DEPTH_CAP + 2 transforms at most.  What does not depend on h (the
    gauge, the weights, the cutoff, the phase gradient bound, the windows
    and the kernels) is built once
    per sweep over h: a call whose box, psi, drift and q equal the last
    build's by value reuses that build, read-only, and puts only the weight
    exp(-2i psi/h) E, the resolution guard, the series and v on it.  The
    first term is V a on the plan's input window, the box's data window,
    where V lives; every term after it, the sum s and r = -osc(V' s) live
    on the core window (the bounding box of the box's core disk, outside
    which they vanish), with V and V' sliced to it once.  A bundle's box
    arrays are its outputs s, r and v: G^-1 e^{Phi/h} is the one
    exponential exp(Phi/h - i alpha), formed in v's array, and a constant
    amplitude is a read-only broadcast of its value.  The residual is
    measured on the measurement disk, the core disk less the differences'
    3-node reach.  Zero drift and potential give an exactly zero gauge, V
    and first term, so the series stops there and r = 0.  If a series term
    fails to decrease, a warning is issued and the sum is truncated at the
    term before it, the observed minimum.  A non-finite or nonpositive h, a
    box whose measurement disk holds no node, a q that is not a finite
    scalar or box field, an amplitude that is not a callable of z or a
    number, and a non-finite amplitude or drift raise a GridError before
    any FFT.
    """
    grid, X, qv, a_vals = _bundle_inputs(phase, h, drift, q, amplitude)
    return _bundle_at(_setup(grid, phase.psi, X, qv), phase, h, X, qv, a_vals)


def build_cgo_antiholo(phase: PhaseSpec, h: float,
                       drift: VectorField | None = None, q=0.0) -> CGOBundle:
    """Antiholomorphically growing partner exp(i conj alpha) e^{-conj Phi/h} (1 + r).

    For the real drift and potential this operator carries, conjugating a
    solution gives another solution, so the bundle is the nodewise complex
    conjugate of build_cgo_holo at the negated phase; its residual is
    re-measured directly on the conjugated field.
    """
    grid = _require_grid(phase.grid, PaddedGrid, "build_cgo_antiholo")
    if np.iscomplexobj(np.asarray(q)):
        raise GridError("antiholo construction needs a real potential")
    nb = build_cgo_holo(phase.negated(), h, drift, q)
    X = drift if drift is not None else _zero_drift(grid)
    v_vals = np.conj(nb.v.values)
    res = drift_residual(v_vals, X, np.asarray(q), h)
    # nb has the default amplitude, a read-only broadcast of 1, and its
    # conjugate is stored as one too
    amplitude = np.broadcast_to(np.conj(nb.amplitude[0, 0]),
                                nb.amplitude.shape)
    return replace(nb, kind="antiholo", phase=phase, amplitude=amplitude,
                   s=ComplexField(np.conj(nb.s.values), grid),
                   r=ComplexField(np.conj(nb.r.values), grid),
                   v=ComplexField(v_vals, grid), residual=res)


def build_cgo_adjoint(phase: PhaseSpec, h: float,
                      drift: VectorField | None = None, q=0.0) -> CGOBundle:
    """Solution of the adjoint equation -lap u - div(X u) + q u = 0.

    Expanding the divergence turns the adjoint into the forward operator
    with drift -X and potential q - div X, so the construction reduces to
    build_cgo_holo there; the stored residual is re-measured in the
    conservative (divergence) form of the adjoint itself.  The inputs pass
    build_cgo_holo's guards before the divergence is taken.
    """
    grid, X, qv, *_ = _bundle_inputs(phase, h, drift, q, None)
    _gauge_source(X)                    # the drift's guards
    # div X = 2 Re dz(X1 + i X2) for a real X: one FFT pair, whose real part
    # is the inverse of i k1 X1^ + i k2 X2^, the spectra split from one fft2
    div = 2.0 * spectral_dz(X.c1 + 1j * X.c2, grid).real
    Xneg = VectorField(-X.c1, -X.c2, grid)
    nb = build_cgo_holo(phase, h, Xneg, qv - div)
    res = drift_residual(nb.v.values, X, qv, h, conservative=True)
    return replace(nb, kind="adjoint", residual=res)


# ---------------------------------------------------------------------------
# asymptotic expansion of the oscillatory inverse


def remainder_expansion(phase: PhaseSpec, f: ComplexField, N: int) -> tuple:
    """Formal h-expansion coefficients of the oscillatory dzb-inverse.

    Away from phase critical points, osc(f) = e^{-2i psi/h} sum_j h^j F_j +
    higher order, with F_1 = f / conj(dPhi) and F_{j+1} = -dzb(F_j) /
    conj(dPhi).  Returns (F_1, ..., F_{N+1}); rejects phases whose
    derivative vanishes on the support of f, and an N that is not a
    nonnegative integer.
    """
    grid = _require_grid(phase.grid, PaddedGrid, "remainder_expansion")
    _require_count("N", N)
    _require_same_grid(grid, "expansion data f", f)
    fv = f.values
    _require_finite("expansion data f", fv)
    amax = float(np.max(np.abs(fv)))
    if amax == 0.0:
        raise GridError("expansion needs nonzero data")
    supp = np.abs(fv) > 1e-12 * amax
    dmag = np.abs(phase.dvalues)
    if float(np.min(dmag[supp])) < 1e-6:
        raise GridError("phase derivative vanishes on the data support")
    inv = np.where(supp, 1.0 / np.conj(np.where(supp, phase.dvalues, 1.0)),
                   0.0)
    out = []
    cur = fv * inv
    out.append(ComplexField(cur, grid))
    for _ in range(N):
        cur = -spectral_dzb(cur, grid) * inv
        out.append(ComplexField(cur, grid))
    return tuple(out)


# ---------------------------------------------------------------------------
# Calderon-Zygmund style diagnostic


def cz_diagnostic(bundle: CGOBundle) -> float:
    """h^{1/2 - CZ_EPS}-weighted second-derivative mass of the remainder.

    Computes the Hessian of r by 4th-order differences on the measurement
    disk's window (as drift_residual does), localizes it with a Gaussian
    bump of width grid.core_radius inside the disk, and returns
    ||bump . D2 r||_L2 x h^{1/2 - CZ_EPS}.  Bounded along the standard
    sweep when the remainder obeys the expected Calderon-Zygmund bounds.
    """
    grid = bundle.r.grid
    rc = grid.core_radius
    at, mask, grown, fd4 = _disk_fd4(grid)
    rv = bundle.r.values[grown]
    rxx, ryy = fd4(rv, 0, 2), fd4(rv, 1, 2)
    rxy = _fd4(_fd4(rv, grid.dx, 0, 1), grid.dx, 1, 1)
    x2 = np.square(grid.x[at[0]])
    bump = np.exp(-4.0 * (x2[:, None] + x2[None, :]) / rc ** 2)
    mass = np.sqrt(np.abs(rxx) ** 2 + 2.0 * np.abs(rxy) ** 2
                   + np.abs(ryy) ** 2)
    return _l2(bump * mass, grid, mask) * bundle.h ** (0.5 - CZ_EPS)
