"""Wirtinger calculus, lattice derivatives, and Cauchy-transform inverses.

Derivative conventions: with z = x1 + i x2,

    dz  = (d/dx1 - i d/dx2) / 2        (holomorphic derivative)
    dzb = (d/dx1 + i d/dx2) / 2        (antiholomorphic derivative)

so dzb annihilates holomorphic functions and 4 dz dzb equals the Laplacian.

Each lattice has one derivative, chosen by deriv from the grid type:
spectral on a periodic padded box (spectral_deriv; dz and dzb are one FFT
pair each, spectral_dz and spectral_dzb, with spectral_deriv's odd-order
Nyquist rule), and masked differences on a domain lattice (4th-order
central inside, degrading to one-sided second order against the
boundary).  periodic_fd4 stays as an independent check of the spectral
route on boxes.

The Cauchy transforms convolve with the kernel h^2/(pi z) sampled on the
box lattice (origin weight zero).  cauchy_inverse is the linear
convolution over the whole box, a 2n x 2n zero-padded FFT pair.  The
oscillatory inverses read their input only in the window |x|, |y| < 2 rc,
where the cutoff E is nonzero, and write output only on the core window
|x|, |y| <= rc, so they convolve windows: with L_in and L_out the window
lengths in nodes along an axis, a circular FFT of any size N >= L_in +
L_out - 1 reproduces the full-box sum term for term (N is chosen
2,3,5-smooth); input that vanishes outside the core window is convolved
from there.  Their per-(box, psi, h, rc) data lives in one _OscPlan,
which the CGO series builds once per bundle; every term of that series
after the first, its sum and the remainder stay on the core window, and
only the stored sum and remainder are embedded into the box, once.  Every
transform refuses non-finite input before any FFT: on the full box for a
full-box field, on the core window for the series' core-window terms.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import ComplexField, DomainGrid, GridError, PaddedGrid

# lattice nodes per local wavelength pi h / |grad psi| of exp(-2i psi / h)
# that the oscillatory inverses' resolution guard demands
NODES_PER_OSC = 6.0

# the core disk, where the oscillatory inverses and the CGO bundles are
# measured, has radius half / CORE_DIVISOR unless a caller sets one
CORE_DIVISOR = 3.0


# ---------------------------------------------------------------------------
# derivatives


def _wavenumbers(grid: PaddedGrid, odd1: bool, odd2: bool):
    """Box wavenumbers as a column (axis 0) and a row (axis 1).

    On an even box the Nyquist wavenumber of an axis flagged odd is zeroed:
    that unbalanced mode has no real odd derivative.
    """
    ks = []
    for odd in (odd1, odd2):
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
        if odd and grid.n % 2 == 0:
            k[grid.n // 2] = 0.0
        ks.append(k)
    return ks[0][:, None], ks[1][None, :]


def spectral_deriv(vals: np.ndarray, grid: PaddedGrid, o1: int, o2: int) -> np.ndarray:
    """(d/dx1)^o1 (d/dx2)^o2 by FFT on the periodic box.

    The unbalanced Nyquist mode is zeroed for odd derivative orders.
    """
    k1, k2 = _wavenumbers(grid, o1 % 2, o2 % 2)
    mult = (1j * k1) ** o1 * (1j * k2) ** o2
    return np.fft.ifft2(mult * np.fft.fft2(vals))


def _wirtinger_symbol(grid: PaddedGrid, sign: int, odd: bool = True) -> np.ndarray:
    """Fourier symbol (i k1 - sign k2)/2 of (d/dx1 + sign i d/dx2)/2.

    sign = -1 gives dz, +1 gives dzb. With odd, the Nyquist wavenumbers
    follow spectral_deriv's odd-order rule; dividing by the symbol (the
    gauge) needs them kept, or a whole row would be zero.
    """
    k1, k2 = _wavenumbers(grid, odd, odd)
    return 0.5 * (1j * k1 - sign * k2)


def spectral_dz(vals: np.ndarray, grid: PaddedGrid) -> np.ndarray:
    """dz = (d/dx1 - i d/dx2)/2 by one FFT pair on the periodic box."""
    return np.fft.ifft2(_wirtinger_symbol(grid, -1) * np.fft.fft2(vals))


def spectral_dzb(vals: np.ndarray, grid: PaddedGrid) -> np.ndarray:
    """dzb = (d/dx1 + i d/dx2)/2 by one FFT pair on the periodic box."""
    return np.fft.ifft2(_wirtinger_symbol(grid, 1) * np.fft.fft2(vals))


_C4_1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0     # offsets -2..2
_C4_2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _fd4(vals: np.ndarray, dx: float, axis: int, order: int) -> np.ndarray:
    """4th-order central difference at the nodes two or more in from both
    ends of axis (the output is 4 nodes shorter along it).  Each node sums
    its terms from offset -2 up, starting from zero, so any window of the
    same values gives the same bits."""
    coeff = _C4_1 if order == 1 else _C4_2
    m = vals.shape[axis] - 4
    out = np.zeros(vals.shape[:axis] + (m,) + vals.shape[axis + 1:],
                   dtype=complex)
    for k, c in zip(range(-2, 3), coeff):
        if c != 0.0:
            out += c * vals[(slice(None),) * axis + (slice(2 + k, 2 + k + m),)]
    return out / dx ** order


def periodic_fd4(vals: np.ndarray, grid: PaddedGrid, axis: int, order: int) -> np.ndarray:
    """4th-order central difference with periodic wrap on the padded box."""
    pad = [(2, 2) if a == axis else (0, 0) for a in (0, 1)]
    return _fd4(np.pad(vals, pad, mode="wrap"), grid.dx, axis, order)


def _shift(vals, di, dj):
    return np.roll(np.roll(vals, -di, axis=0), -dj, axis=1)


# per masked stencil: the mask offsets it needs along the axis and its
# formula in (shifted values s, spacing dx), in rising priority; a node
# takes the last stencil that fits
_MASKED_D1 = (
    ((-1, -2), lambda s, dx: (3 * s(0) - 4 * s(-1) + s(-2)) / (2 * dx)),
    ((1, 2), lambda s, dx: (-3 * s(0) + 4 * s(1) - s(2)) / (2 * dx)),
    ((-1, 1), lambda s, dx: (s(1) - s(-1)) / (2 * dx)),
    ((-2, -1, 1, 2),
     lambda s, dx: (s(-2) - 8 * s(-1) + 8 * s(1) - s(2)) / (12 * dx)),
)
_MASKED_D2 = (
    ((-1, -2, -3),
     lambda s, dx: (2 * s(0) - 5 * s(-1) + 4 * s(-2) - s(-3)) / (dx * dx)),
    ((1, 2, 3),
     lambda s, dx: (2 * s(0) - 5 * s(1) + 4 * s(2) - s(3)) / (dx * dx)),
    ((-1, 1), lambda s, dx: (s(1) - 2 * s(0) + s(-1)) / (dx * dx)),
    ((-2, -1, 1, 2),
     lambda s, dx: (-s(-2) + 16 * s(-1) - 30 * s(0) + 16 * s(1) - s(2))
     / (12 * dx * dx)),
)


def _masked_stencil(vals: np.ndarray, grid: DomainGrid, axis: int,
                    stencils) -> np.ndarray:
    """Apply per node the last of stencils whose offsets stay in the mask.

    Mask nodes where none fits raise (they would mean a sliver thinner
    than three nodes); nodes off the mask read zero.
    """
    m = grid.mask
    e = (1, 0) if axis == 0 else (0, 1)
    sh = lambda k: _shift(vals, k * e[0], k * e[1])
    out = np.full(vals.shape, np.nan, dtype=np.result_type(vals, float))
    for offsets, formula in stencils:
        fits = np.logical_and.reduce([_shift(m, k * e[0], k * e[1])
                                      for k in offsets])
        out = np.where(fits, formula(sh, grid.dx), out)
    bad = m & ~np.isfinite(out if np.isrealobj(out) else out.real)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise GridError(f"no difference stencil fits at node ({i}, {j})")
    return np.where(m, out, 0.0)


def masked_deriv1(vals: np.ndarray, grid: DomainGrid, axis: int) -> np.ndarray:
    """First derivative on the masked lattice.

    4th-order central deep inside, 2nd-order central one node from the rim,
    one-sided 2nd order on the rim itself.
    """
    return _masked_stencil(vals, grid, axis, _MASKED_D1)


def masked_deriv2(vals: np.ndarray, grid: DomainGrid, axes: tuple[int, int]) -> np.ndarray:
    """Second derivative d^2/dx_a dx_b on the masked lattice."""
    if axes[0] != axes[1]:
        # composition keeps every leg inside the mask
        return masked_deriv1(masked_deriv1(vals, grid, axes[1]), grid, axes[0])
    return _masked_stencil(vals, grid, axes[0], _MASKED_D2)


def deriv(vals: np.ndarray, grid, o1: int, o2: int) -> np.ndarray:
    """(d/dx1)^o1 (d/dx2)^o2 of total order 1 or 2 on the grid's lattice.

    Spectral on a padded box, masked differences on a domain.
    """
    if min(o1, o2) < 0 or o1 + o2 not in (1, 2):
        raise GridError(f"derivative order ({o1}, {o2}) is not 1 or 2")
    if isinstance(grid, PaddedGrid):
        return spectral_deriv(vals, grid, o1, o2)
    if isinstance(grid, DomainGrid):
        axes = (0,) * o1 + (1,) * o2
        if len(axes) == 1:
            return masked_deriv1(vals, grid, axes[0])
        return masked_deriv2(vals, grid, axes)
    raise GridError(f"unsupported grid type {type(grid).__name__}")


# ---------------------------------------------------------------------------
# Cauchy transforms


def _require_finite(vals, grid: PaddedGrid, what: str) -> np.ndarray:
    """vals as an (n, n) array of the box, or a GridError naming the fault."""
    vals = np.asarray(vals)
    if vals.shape != (grid.n, grid.n):
        raise GridError(f"{what}: shape {vals.shape} != grid {(grid.n, grid.n)}")
    if not np.all(np.isfinite(vals)):
        raise GridError(f"{what}: non-finite values")
    return vals


def _require_h(h) -> None:
    """GridError unless the semiclassical parameter h is finite and > 0."""
    if not (np.isfinite(h) and h > 0):
        raise GridError(f"h must be positive and finite, got {h}")


def _support_guard(vals: np.ndarray, cheb: np.ndarray, half: float, what: str):
    # Spectrally differentiated C^2 cutoffs ring at ~1e-6 relative across
    # the whole box; only mass above the leakage tolerance threatens the
    # convolution with wraparound, and genuinely wide inputs carry O(1)
    # relative mass near the margin.  cheb is max(|x|, |y|) at the nodes
    # vals sits on.
    mag = np.abs(vals)
    amax = np.max(mag)
    if amax == 0.0:
        return
    margin = half / 3.0
    reach = np.max(cheb[mag > 1e-5 * amax])
    if reach > half - margin:
        raise GridError(
            f"{what}: support reaches {reach:.3f}, within the wraparound "
            f"margin of the {half:.3f} box")


def _fft_size(m: int) -> int:
    """Smallest 2,3,5-smooth integer >= m."""
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


@functools.lru_cache(maxsize=4)
def _kernel_hat(grid: PaddedGrid, shape: tuple, n_out: tuple,
                shift: tuple) -> np.ndarray:
    """FFT of the kernel h^2/(pi z) laid out for a circular convolution.

    Along an axis of FFT length N, index m carries the node offset
    ((m + c) mod N) - c + shift with c = N - n_out: output node p of the
    window starting shift nodes after the input window's first node reads
    input node q through offset p - q + shift.  Any N >= (input length) +
    n_out - 1 keeps those offsets apart, so the circular sum is the linear
    one.  The exact integral of 1/(pi z) over the centered origin cell
    vanishes by odd symmetry, so the origin weight is zero; every other
    cell is point sampled at its center.  Cached per box and layout (the
    four used last), read-only.
    """
    h = grid.dx
    d1, d2 = ((np.arange(N) + N - L) % N - (N - L) + s
              for N, L, s in zip(shape, n_out, shift))
    ZX, ZY = np.meshgrid(d1 * h, d2 * h, indexing="ij")
    Z = ZX + 1j * ZY
    with np.errstate(divide="ignore", invalid="ignore"):
        K = h * h / (np.pi * Z)
    K[Z == 0] = 0.0
    khat = np.fft.fft2(K)
    khat.flags.writeable = False
    return khat


def _cauchy_conv(vals: np.ndarray, khat: np.ndarray, n_out: tuple) -> np.ndarray:
    """The first n_out nodes of the linear convolution that khat lays out."""
    spec = np.fft.fft2(vals, s=khat.shape) * khat
    return np.fft.ifft2(spec)[:n_out[0], :n_out[1]]


def cauchy_inverse(omega: ComplexField) -> ComplexField:
    """Right inverse of dzb: convolution with 1/(pi z) by zero-padded FFT.

    The input must be finite and supported in the core of the padded box;
    the outer third of the box is reserved as wraparound margin.  The
    transform is the linear convolution over the whole box, a 2n x 2n FFT
    pair.
    """
    grid = omega.grid
    if not isinstance(grid, PaddedGrid):
        raise GridError("cauchy_inverse expects a field on a padded box")
    vals = _require_finite(omega.values, grid, "cauchy_inverse")
    X, Y = grid.meshgrid()
    _support_guard(vals, np.maximum(np.abs(X), np.abs(Y)), grid.half,
                   "cauchy_inverse")
    n = grid.n
    khat = _kernel_hat(grid, (2 * n, 2 * n), (n, n), (0, 0))
    return ComplexField(_cauchy_conv(vals, khat, (n, n)), grid)


def conj_cauchy_inverse(omega: ComplexField) -> ComplexField:
    """Right inverse of dz, via the conjugation identity."""
    out = cauchy_inverse(ComplexField(np.conj(omega.values), omega.grid))
    return ComplexField(np.conj(out.values), omega.grid)


def smooth_cutoff(grid: PaddedGrid, r_inner: float, r_outer: float) -> np.ndarray:
    """C^2 radial bump: 1 inside r_inner, 0 outside r_outer (quintic step)."""
    X, Y = grid.meshgrid()
    r = np.hypot(X, Y)
    t = np.clip((r - r_inner) / (r_outer - r_inner), 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)


def _bounding_slices(mask: np.ndarray) -> tuple:
    """Index slices of the smallest box holding every True node."""
    return tuple(slice(int(idx[0]), int(idx[-1]) + 1)
                 for idx in (np.flatnonzero(mask.any(axis=1)),
                             np.flatnonzero(mask.any(axis=0))))


class _OscPlan:
    """The oscillatory inverse for one (box, psi, h, core radius).

    Holds what every application shares: the input window (bounding box of
    the cutoff E's support, inside |x|, |y| < 2 rc), the core window out
    (bounding box of the core disk, inside |x|, |y| <= rc), the windowed
    weight exp(-2i psi/h) E, the core mask on the core window and two
    kernel FFTs: one from the input window to the core window, and one
    from the core window to itself.  The constructor runs the h, psi and
    core-radius checks and the resolution guard on the full box.

    Every result lives on the core window, and embed puts one on the box.
    apply takes a full-box field and checks it for finite values on the
    whole box first.  apply_core takes a field on the core window and
    checks it there; apply hands it its input when the weighted input
    vanishes outside the core window.  The CGO remainder series lives on
    the core window after its first term: it calls apply_core and embeds
    s and r into the box once.  Each call runs the support guard once, on
    the window it convolves.
    """

    def __init__(self, grid: PaddedGrid, psi, h: float,
                 core_radius: float | None = None):
        if not isinstance(grid, PaddedGrid):
            raise GridError("oscillatory inverses expect a field on a padded box")
        _require_h(h)
        psi_vals = _require_finite(psi.values if hasattr(psi, "values") else psi,
                                   grid, "psi")
        rc = grid.half / CORE_DIVISOR if core_radius is None else core_radius
        if not (np.isfinite(rc) and rc > 0):
            raise GridError(
                f"core radius must be positive and finite, got {rc}")
        core = grid.core_mask(rc)
        if not core.any():
            raise GridError(f"core radius {rc:.4g} holds no node of the box")
        E = smooth_cutoff(grid, rc, 2.0 * rc)

        # np.gradient, not spectral: the phase is generally not box periodic
        g1, g2 = np.gradient(np.real(psi_vals), grid.dx, edge_order=2)
        gmax = float(np.max(np.hypot(g1, g2)[E > 0]))
        if gmax > 0:
            h_min = NODES_PER_OSC * grid.dx * gmax / np.pi
            if h < h_min:
                raise GridError(
                    f"h = {h:.4g} unresolved at this resolution; "
                    f"minimal admissible h = {h_min:.4g}")

        self.grid = grid
        self.inp = _bounding_slices(E > 0)
        self.out = _bounding_slices(core)
        self.weight = np.exp(-2j * psi_vals[self.inp] / h) * E[self.inp]
        X, Y = grid.meshgrid()
        self.cheb = np.maximum(np.abs(X), np.abs(Y))[self.inp]
        self.core = core[self.out]
        n_in, n_out = self.weight.shape, self.core.shape
        shape = tuple(_fft_size(a + b - 1) for a, b in zip(n_in, n_out))
        shift = tuple(o.start - i.start for o, i in zip(self.out, self.inp))
        self.khat = _kernel_hat(grid, shape, n_out, shift)
        # the core window inside the input window, and the rest of it
        self.inner = tuple(slice(d, d + m) for d, m in zip(shift, n_out))
        self.frame = np.ones(n_in, dtype=bool)
        self.frame[self.inner] = False
        self.weight_inner = self.weight[self.inner].copy()
        self.cheb_inner = self.cheb[self.inner]
        self.khat_inner = _kernel_hat(
            grid, tuple(_fft_size(2 * m - 1) for m in n_out), n_out, (0, 0))

    def apply(self, vals: np.ndarray) -> np.ndarray:
        """restrict(cauchy_inverse(exp(-2i psi/h) E vals)) on the core
        window, for a full-box vals checked finite on the whole box."""
        vals = _require_finite(vals, self.grid, "oscillatory_dbar_inv")
        w = self.weight * vals[self.inp]
        if w[self.frame].any():
            return self._convolve(w, self.cheb, self.khat)
        return self.apply_core(vals[self.out])

    def apply_core(self, win: np.ndarray) -> np.ndarray:
        """apply for an input that lives on the core window too."""
        if not np.all(np.isfinite(win)):
            raise GridError("oscillatory_dbar_inv: non-finite values")
        return self._convolve(self.weight_inner * win, self.cheb_inner,
                              self.khat_inner)

    def _convolve(self, w: np.ndarray, cheb: np.ndarray,
                  khat: np.ndarray) -> np.ndarray:
        _support_guard(w, cheb, self.grid.half, "oscillatory_dbar_inv")
        return np.where(self.core, _cauchy_conv(w, khat, self.core.shape), 0.0)

    def embed(self, win: np.ndarray) -> np.ndarray:
        """A core-window array on the full box, zero outside the window."""
        out = np.zeros((self.grid.n, self.grid.n), dtype=complex)
        out[self.out] = win
        return out


def oscillatory_dbar_inv(f: ComplexField, psi, h: float,
                         core_radius: float | None = None) -> ComplexField:
    """Oscillatory inverse: restrict(cauchy_inverse(exp(-2i psi/h) E f)).

    E is a fixed C^2 cutoff equal to 1 on the core disk (radius rc, default
    half/3) and 0 beyond 2 rc; the result is restricted (zeroed) outside
    the core.  Rejects non-finite f or psi, and h too small for the grid
    to resolve the oscillation, reporting the minimal admissible h.

    The input exp(-2i psi/h) E f vanishes outside the window |x|, |y| <
    2 rc and the output is read on |x|, |y| <= rc only, so the transform is
    a windowed linear convolution: an FFT of size N >= L_in + L_out - 1
    per axis (L_in, L_out the window lengths in nodes, N 2,3,5-smooth)
    equals the zero-padded full-box sum term for term, with the same
    kernel samples.  When f vanishes outside the core window, the core
    window is the input window too.  On the half = 6, n = 512 box with
    rc = 2 the windows are 341 and 171 nodes wide: a 512^2 FFT pair, or
    360^2 for core-supported f, in place of 1024^2.
    """
    plan = _OscPlan(f.grid, psi, h, core_radius)
    return ComplexField(plan.embed(plan.apply(f.values)), f.grid)

