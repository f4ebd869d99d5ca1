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

truncated at K terms.  The remainder decays with h at the same rate the
oscillatory inverses do: like h (up to logs) when psi has a nondegenerate
critical point and like h^1 or better when it has none, which is what the
decay sweeps measure.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

# a bundle builds one _OscPlan(windows, h) on the _OscWindows its sweep
# shares; oscillatory_dbar_inv stays importable here as the public form of
# that inverse (CGOBundle.r is -oscillatory_dbar_inv(V' s) bit for bit),
# and perfbench traces it here
from .complexcalc import (CORE_DIVISOR, _bounding_slices, _fd4, _OscPlan,
                          _OscWindows, _require_finite, _require_h,
                          _support_guard, _wirtinger_symbol,
                          oscillatory_dbar_inv, periodic_fd4, spectral_deriv,
                          spectral_dz, spectral_dzb)
from .grid import ComplexField, GridError, PaddedGrid, VectorField

DEPTH_DEFAULT = 6                       # series truncation depth
CZ_EPS = 0.1                            # cz_diagnostic weighs by h^(1/2 - CZ_EPS)


# ---------------------------------------------------------------------------
# helpers


def _l2(vals: np.ndarray, grid: PaddedGrid, where=None) -> float:
    v2 = np.abs(vals) ** 2
    if where is not None:
        v2 = np.where(where, v2, 0.0)
    return float(np.sqrt(np.real(grid.quadrature(v2))))


def _measurement_disk(grid: PaddedGrid, rc: float) -> np.ndarray:
    """The core disk less the 3-node reach of the 4th-order differences,
    or a GridError if that holds no node."""
    mask = grid.core_mask(max(rc - 3.0 * grid.dx, 0.0))
    if rc <= 3.0 * grid.dx or not mask.any():
        raise GridError(f"core radius {rc:.4g} leaves no node to measure "
                        "the residual on")
    return mask


def _require_padded(grid) -> PaddedGrid:
    if not isinstance(grid, PaddedGrid):
        raise GridError("CGO machinery needs a padded periodic box")
    return grid


def _require_terms(grid: PaddedGrid, X: VectorField, q) -> np.ndarray:
    """q as an array, once X is checked to live on grid and q to be a
    finite scalar or box field."""
    if X.grid != grid:
        raise GridError("drift lives on a different grid")
    qv = np.asarray(q)
    if qv.ndim:
        _require_finite(qv, grid, "q")
    elif not np.isfinite(qv):
        raise GridError("q: non-finite values")
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
    alpha, ga = _gauge(_gauge_source(X), X.grid)
    return (ComplexField(alpha, X.grid), ComplexField(ga, X.grid),
            ComplexField(np.exp(1j * np.conj(alpha)), X.grid))


def _gauge_source(X: VectorField) -> np.ndarray:
    """The source (i/4)(X1 + i X2) of gauge, after the drift's guards."""
    grid = _require_padded(X.grid)
    for c in (X.c1, X.c2):
        _require_finite(c, grid, "gauge")
    src = 0.25j * (X.c1 + 1j * X.c2)
    _support_guard(src, grid.cheb, grid.half, "gauge")
    return src


def _gauge(src: np.ndarray, grid: PaddedGrid) -> tuple[np.ndarray, np.ndarray]:
    """alpha and exp(i alpha) of gauge for its checked source."""
    sym = _wirtinger_symbol(grid, 1, odd=False)
    sh = np.fft.fft2(src)
    mean = sh[0, 0] / grid.n ** 2
    sym[0, 0] = 1.0
    sh = sh / sym
    sh[0, 0] = 0.0
    alpha = np.fft.ifft2(sh) + mean * np.conj(grid.zz)
    return alpha, np.exp(1j * alpha)


# ---------------------------------------------------------------------------
# zeroth-order coefficients


def factor_potential(X: VectorField, q=0.0) -> ComplexField:
    """Zeroth-order coefficient the verified factorization carries.

    |X|^2/4 - div X/2 - (i/2) curl X + q, computed as
    |X|^2/4 - dz(X1 + i X2) + q.  The drift part's sign set is fixed by
    driving the factorization residual to the spectral floor (the
    conventional, opposite set leaves O(1)).
    """
    grid = _require_padded(X.grid)
    vals = (0.25 * (X.c1 * X.c1 + X.c2 * X.c2)
            - spectral_dz(X.c1 + 1j * X.c2, grid) + np.asarray(q))
    return ComplexField(vals, grid)


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
    grid = _require_padded(X.grid)
    XX, YY = grid.meshgrid()
    r2 = XX * XX + YY * YY
    fv = (np.exp(-r2 / 0.8) * (1.0 + 0.4 * XX - 0.3 * YY)).astype(complex)
    qv = np.asarray(q)

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


@dataclass(frozen=True)
class PhaseSpec:
    """Holomorphic polynomial phase on a padded box.

    Evaluated from its coefficients, so dzb(Phi) = 0 holds by construction;
    the critical-point flag reports whether any root of the derivative
    polynomial lies inside the core disk (radius half / CORE_DIVISOR)
    where the oscillatory machinery operates.
    """

    coeffs: tuple                        # ascending powers of (z - center)
    center: complex
    grid: PaddedGrid
    values: np.ndarray                   # Phi on the lattice
    dvalues: np.ndarray                  # dPhi/dz on the lattice
    psi: np.ndarray                      # Im Phi
    has_critical_point: bool             # any root of dPhi/dz in the core disk

    def negated(self) -> "PhaseSpec":
        return phase_spec(tuple(-c for c in self.coeffs), self.grid,
                          self.center)


def phase_spec(coeffs, grid: PaddedGrid, center=0j) -> PhaseSpec:
    """Build a PhaseSpec from ascending polynomial coefficients."""
    _require_padded(grid)
    cs = tuple(complex(c) for c in coeffs)
    if not cs:
        raise GridError("phase needs at least one coefficient")
    w = grid.zz - complex(center)
    vals = np.zeros_like(w)
    for c in reversed(cs):
        vals = vals * w + c
    dcs = tuple(k * cs[k] for k in range(1, len(cs)))
    dvals = np.zeros_like(w)
    for c in reversed(dcs):
        dvals = dvals * w + c
    if not dcs or all(c == 0 for c in dcs):
        has_cp = True                    # derivative vanishes identically
    else:
        roots = np.roots(list(reversed(dcs)))
        has_cp = any(abs(complex(center) + complex(z))
                     <= grid.half / CORE_DIVISOR for z in roots)
    return PhaseSpec(cs, complex(center), grid, vals, dvals,
                     vals.imag.copy(), has_cp)


# ---------------------------------------------------------------------------
# oscillatory Neumann operator


def series_weights(alpha: np.ndarray, X: VectorField, q=0.0
                   ) -> tuple[ComplexField, ComplexField]:
    """Weight pair (V, V') of the remainder series for a given gauge field.

    V = factor_potential x exp(-2i Re alpha) / 2 drives the source side;
    V' = -exp(+2i Re alpha) is the unimodular return weight.
    """
    grid = _require_padded(X.grid)
    box = (slice(None), slice(None))
    v, vp = _weights(alpha, X, q, box, box)
    return ComplexField(v, grid), ComplexField(vp, grid)


def _weights(alpha: np.ndarray, X: VectorField, q, v_at: tuple,
             vp_at: tuple) -> tuple[np.ndarray, np.ndarray]:
    """series_weights' V on the window v_at and V' on vp_at (slice pairs):
    the exponentials run only where they are read."""
    re2v, re2p = (2.0 * np.real(alpha[at]) for at in (v_at, vp_at))
    v = 0.5 * factor_potential(X, q).values[v_at] * np.exp(-1j * re2v)
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
    grid = _require_padded(f.grid)
    _require_h(h)
    plan = _OscPlan(_OscWindows(grid, psi), h)
    Vu = V.values[plan.windows.out] * plan.apply(vp.values * f.values)
    return ComplexField(plan.embed(_dbar_star_inv(Vu, plan.apply_core)), grid)


# ---------------------------------------------------------------------------
# bundles


@dataclass(frozen=True)
class CGOBundle:
    """One constructed solution with its series bookkeeping.

    Every input, zero drift and potential included, runs the one series of
    build_cgo_holo, so r always equals -osc(V' s) for the stored s and
    gauge, bit for bit, and term_norms holds K + 1 norms; the antiholo and
    adjoint bundles are that holo bundle with its kind, conjugated fields
    and re-measured residual replaced.  The residual is the drift operator
    applied to v by 4th-order differences over the measurement disk,
    normalized by h^-2 times the solution norm there.  K_effective is
    where the sum was actually truncated (argmin of term_norms when they
    fail to decrease, K otherwise).
    """

    kind: str                            # "holo" | "antiholo" | "adjoint"
    phase: PhaseSpec
    h: float
    K: int
    K_effective: int
    core_radius: float
    alpha: np.ndarray
    amplitude: np.ndarray
    s: ComplexField
    r: ComplexField
    v: ComplexField
    residual: float
    term_norms: tuple
    r_norm: float


def _eval_amplitude(amplitude, grid: PaddedGrid) -> np.ndarray:
    """Holomorphic amplitude as a lattice field, with a dzb guard."""
    if amplitude is None:
        return np.ones((grid.n, grid.n), dtype=complex)
    if callable(amplitude):
        vals = np.asarray(amplitude(grid.zz), dtype=complex)
    elif hasattr(amplitude, "values"):
        vals = amplitude.values.astype(complex)
    else:
        vals = np.full((grid.n, grid.n), complex(amplitude))
    vals = _require_finite(vals, grid, "amplitude")
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
                   grid: PaddedGrid, rc: float,
                   conservative: bool = False) -> float:
    """Normalized PDE residual of a candidate solution over the core.

    Applies -lap + X.grad + q (or the adjoint -lap - div(X .) + q in
    conservative form) with 4th-order periodic differences, measures the L2
    norm over the eroded core disk, and normalizes by h^-2 times the
    solution's norm there: the natural size of any single second-order
    term.  The differences run only on the disk's bounding box grown by
    their 2-node reach (wrapping as periodic_fd4 does), with the same
    per-node arithmetic as on the whole box.  A bad h, drift or q, and a
    candidate that is not a finite field of the box, are a GridError
    before any difference, as in build_cgo_holo.
    """
    _require_h(h)
    qv = _require_terms(grid, X, q)
    vals = _require_finite(vals, grid, "drift_residual")
    mask = _measurement_disk(grid, rc)
    box = _bounding_slices(mask)
    grown = np.ix_(*(np.arange(b.start - 2, b.stop + 2) % grid.n
                     for b in box))
    mask, v = mask[box], vals[grown]
    c1, c2 = X.c1[grown], X.c2[grown]

    def fd4(f, axis, order):
        # f on the grown box, the derivative on the bounding box
        return _fd4(f[:, 2:-2] if axis == 0 else f[2:-2, :], grid.dx, axis,
                    order)

    mid = (slice(2, -2), slice(2, -2))
    qv = np.broadcast_to(qv, vals.shape)[box]
    lap = fd4(v, 0, 2) + fd4(v, 1, 2)
    if conservative:
        flux = fd4(c1 * v, 0, 1) + fd4(c2 * v, 1, 1)
        res = -lap - flux + qv * v[mid]
    else:
        res = (-lap + c1[mid] * fd4(v, 0, 1) + c2[mid] * fd4(v, 1, 1)
               + qv * v[mid])
    scale = _l2(v[mid], grid, mask) / h ** 2
    return _l2(res, grid, mask) / scale


def _bundle_inputs(phase: PhaseSpec, h: float, drift, q, amplitude,
                   K) -> tuple:
    """(grid, drift, q, core radius, amplitude values) of a bundle, after
    the guards every call runs before any FFT (build_cgo_holo); the
    drift's own guards run in _gauge_source."""
    grid = _require_padded(phase.grid)
    _require_h(h)
    if not (isinstance(K, numbers.Integral) and K >= 0):
        raise GridError(
            f"series depth must be a nonnegative integer, got {K!r}")
    X = drift if drift is not None else _zero_drift(grid)
    qv = _require_terms(grid, X, q)
    rc = grid.half / CORE_DIVISOR
    _measurement_disk(grid, rc)
    return grid, X, qv, rc, _eval_amplitude(amplitude, grid)


class _Setup:
    """The h-independent half of build_cgo_holo for one (box, psi, drift, q).

    The gauge field alpha, after the drift's guards and the gauge factor's
    lower-bound check, and G^-1 = exp(-i alpha); the _OscWindows of (box,
    psi, core radius); and the series weights, V on the input window and
    V' and V on the core window.  key holds copies of psi, X.c1, X.c2 and q, which matches
    compares with a later call's by value.  Every array it holds is
    read-only.
    """

    def __init__(self, grid: PaddedGrid, psi, X: VectorField, qv, rc: float):
        self.grid, self.rc = grid, rc
        self.key = tuple(np.array(a) for a in (psi, X.c1, X.c2, qv))
        alpha, ga = _gauge(_gauge_source(X), grid)
        im_max = float(np.max(np.abs(np.imag(alpha))))
        if float(np.min(np.abs(ga))) < np.exp(-im_max) * (1.0 - 1e-12):
            raise GridError("gauge factor fell below its lower bound")
        self.alpha, self.Ginv = alpha, np.exp(-1j * alpha)
        ws = self.windows = _OscWindows(grid, self.key[0], rc)
        # V is read on the input window, V' and every later V on the core
        # window
        self.Vin, self.vpw = _weights(alpha, X, qv, ws.inp, ws.out)
        self.Vw = self.Vin[ws.inner]
        for arr in (*self.key, alpha, self.Ginv, self.Vin, self.vpw, self.Vw,
                    ws.psi, ws.cutoff, ws.cheb, ws.cheb_inner, ws.core,
                    ws.frame):
            arr.flags.writeable = False

    def matches(self, grid: PaddedGrid, psi, X: VectorField, qv) -> bool:
        return self.grid == grid and all(
            a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip(self.key, (np.asarray(psi), X.c1, X.c2, qv)))


# _SETUP keeps the one _Setup built last (about 21 MB on the 512 box) and
# is emptied before the next is built, so two never coexist
_SETUP: list = []


def _setup(grid: PaddedGrid, psi, X: VectorField, qv, rc: float) -> _Setup:
    """The _Setup of these inputs: the stored one when they equal its key,
    else a new one that replaces it."""
    for setup in _SETUP:
        if setup.matches(grid, psi, X, qv):
            return setup
    _SETUP.clear()
    _SETUP.append(_Setup(grid, psi, X, qv, rc))
    return _SETUP[0]


def _bundle_at(setup: _Setup, phase: PhaseSpec, h: float, K: int,
               X: VectorField, qv, a_vals: np.ndarray) -> CGOBundle:
    """The per-h half of build_cgo_holo: the resolution guard, the weight
    at h, the series, v and its residual."""
    grid, rc, alpha = setup.grid, setup.rc, setup.alpha
    plan = _OscPlan(setup.windows, h)
    Vin, inp = setup.Vin, setup.windows.inp
    Va = np.zeros_like(a_vals)
    Va[inp] = Vin * a_vals[inp]
    terms = [-_dbar_star_inv(Va, plan.apply)]
    for _ in range(K):
        terms.append(_neumann_step(terms[-1], plan, setup.Vw, setup.vpw))
    norms = [_l2(t, grid) for t in terms]
    k_eff = K
    if any(norms[j + 1] > norms[j] for j in range(K)):
        k_eff = int(np.argmin(norms))
        warnings.warn(
            f"remainder series stopped decreasing; truncating at {k_eff}",
            RuntimeWarning, stacklevel=3)
    s_win = sum(terms[:k_eff + 1])
    r_win = plan.apply_core(setup.vpw * s_win)
    # negated after embedding, so r's zeros outside the window are -0.0 as
    # in -oscillatory_dbar_inv(V' s)
    s_vals, r_vals = plan.embed(s_win), -plan.embed(r_win)

    # e^{Phi/h} is named: numpy writes a product with a temporary right
    # operand into that operand, by a loop that rounds differently
    grow = np.exp(phase.values / h)
    v_vals = setup.Ginv * grow * (a_vals + r_vals)
    res = drift_residual(v_vals, X, qv, h, grid, rc)
    return CGOBundle("holo", phase, float(h), int(K), int(k_eff), float(rc),
                     alpha, a_vals, ComplexField(s_vals, grid),
                     ComplexField(r_vals, grid), ComplexField(v_vals, grid),
                     res, tuple(norms), _l2(r_win, grid))


def build_cgo_holo(phase: PhaseSpec, h: float, drift: VectorField | None = None,
                   q=0.0, amplitude=None, K: int = DEPTH_DEFAULT) -> CGOBundle:
    """Holomorphically growing solution exp(i alpha)^-1 e^{Phi/h} (a + r).

    Every input runs the same series: the gauge, the weights (V, V') and
    the truncated Neumann series of neumann_T applied to the gauge-weighted
    amplitude, whose 2K + 2 oscillatory transforms share one plan.  What
    does not depend on h (the gauge, the weights, the cutoff, the phase
    gradient bound, the windows and the kernels) is built once per sweep
    over h: a call whose box, psi, drift and q equal the last build's by
    value reuses that build, read-only, and puts only the weight
    exp(-2i psi/h) E, the resolution guard, the series and v on it.  The
    first term reads V a on the full box through the plan's input window;
    every term after it, the sum s and r = -osc(V' s) live on the core
    window (the bounding box of the core disk, outside which they vanish),
    with V and V' sliced to it once, and s and r are embedded into the box
    once.  The residual is measured on the core disk (radius half /
    CORE_DIVISOR) plus the differences' 2-node reach.  Zero drift and
    potential give an exactly zero gauge, V and series, so r = 0.  If the
    series terms ever grow instead of decaying, a warning is issued and
    the sum is truncated at the observed minimum.  A non-finite or
    nonpositive h, a box whose measurement disk holds no node, a K that is
    not a nonnegative integer, a q that is not a finite scalar or box
    field, and a non-finite amplitude or drift raise a GridError before
    any FFT.
    """
    grid, X, qv, rc, a_vals = _bundle_inputs(phase, h, drift, q, amplitude, K)
    return _bundle_at(_setup(grid, phase.psi, X, qv, rc), phase, h, K, X, qv,
                      a_vals)


def build_cgo_antiholo(phase: PhaseSpec, h: float,
                       drift: VectorField | None = None, q=0.0) -> CGOBundle:
    """Antiholomorphically growing partner exp(i conj alpha) e^{-conj Phi/h} (1 + r).

    For the real drift and potential this operator carries, conjugating a
    solution gives another solution, so the bundle is the nodewise complex
    conjugate of build_cgo_holo at the negated phase; its residual is
    re-measured directly on the conjugated field.
    """
    grid = _require_padded(phase.grid)
    if np.iscomplexobj(np.asarray(q)):
        raise GridError("antiholo construction needs a real potential")
    nb = build_cgo_holo(phase.negated(), h, drift, q)
    X = drift if drift is not None else _zero_drift(grid)
    v_vals = np.conj(nb.v.values)
    res = drift_residual(v_vals, X, np.asarray(q), h, grid, nb.core_radius)
    return replace(nb, kind="antiholo", phase=phase,
                   amplitude=np.conj(nb.amplitude),
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
    grid, X, qv, *_ = _bundle_inputs(phase, h, drift, q, None,
                                     DEPTH_DEFAULT)
    _gauge_source(X)                    # the drift's guards
    div = (spectral_deriv(X.c1, grid, 1, 0)
           + spectral_deriv(X.c2, grid, 0, 1))
    Xneg = VectorField(-X.c1, -X.c2, grid)
    nb = build_cgo_holo(phase, h, Xneg, qv - div)
    res = drift_residual(nb.v.values, X, qv, h, grid, nb.core_radius,
                         conservative=True)
    return replace(nb, kind="adjoint", residual=res)


# ---------------------------------------------------------------------------
# asymptotic expansion of the oscillatory inverse


def remainder_expansion(phase: PhaseSpec, f: ComplexField, N: int) -> tuple:
    """Formal h-expansion coefficients of the oscillatory dzb-inverse.

    Away from phase critical points, osc(f) = e^{-2i psi/h} sum_j h^j F_j +
    higher order, with F_1 = f / conj(dPhi) and F_{j+1} = -dzb(F_j) /
    conj(dPhi).  Returns (F_1, ..., F_{N+1}); rejects phases whose
    derivative vanishes on the support of f.
    """
    grid = _require_padded(phase.grid)
    if N < 0:
        raise GridError("expansion order must be nonnegative")
    fv = f.values
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

    Computes the Hessian of r by 4th-order differences, localizes it with a
    fixed Gaussian bump inside the measurement disk, and returns
    ||bump . D2 r||_L2 x h^{1/2 - CZ_EPS}.  Bounded along the standard sweep
    when the remainder obeys the expected Calderon-Zygmund bounds.
    """
    grid = bundle.r.grid
    rc = bundle.core_radius
    disk = _measurement_disk(grid, rc)
    rv = bundle.r.values
    rxx = periodic_fd4(rv, grid, 0, 2)
    ryy = periodic_fd4(rv, grid, 1, 2)
    rxy = periodic_fd4(periodic_fd4(rv, grid, 0, 1), grid, 1, 1)
    XX, YY = grid.meshgrid()
    r2 = XX * XX + YY * YY
    bump = np.exp(-4.0 * r2 / rc ** 2) * disk
    mass = np.sqrt(np.abs(rxx) ** 2 + 2.0 * np.abs(rxy) ** 2
                   + np.abs(ryy) ** 2)
    return _l2(bump * mass, grid) * bundle.h ** (0.5 - CZ_EPS)
