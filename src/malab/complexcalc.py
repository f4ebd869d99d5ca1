"""Wirtinger calculus, lattice derivatives, and Cauchy-transform inverses.

Derivative conventions: with z = x1 + i x2,

    dz  = (d/dx1 - i d/dx2) / 2        (holomorphic derivative)
    dzb = (d/dx1 + i d/dx2) / 2        (antiholomorphic derivative)

so dzb annihilates holomorphic functions and 4 dz dzb equals the Laplacian.

Each lattice has one first derivative, chosen by deriv from the grid
type: spectral on a periodic padded box (spectral_deriv, which also takes
the second orders that the gauge factorization check reads; dz and dzb
are one FFT pair each, spectral_dz and spectral_dzb, with spectral_deriv's
odd-order Nyquist rule), and masked differences on a domain lattice
(4th-order central inside, degrading to one-sided second order against
the boundary).  The domain's one Hessian is the Newton stencil's
(maforward.stencil_hessian).

The Cauchy transforms convolve with the kernel h^2/(pi z), and the
Beurling transform S = dz C (isothermal's) with -h^2/(pi z^2), sampled on
the box lattice (origin weight zero; the Cauchy kernel's four nearest
entries carry the punctured rule's dx^2 correction, so it is fourth
order, the Beurling kernel second); the kernel's FFT is built in one
complex array and cached per layout and power (the two used last, the
most one call reads), through one pruned FFT pair: for an N0 x N1
transform of m0 input rows read on n1 output columns, m0 + N1 forward
and N0 + n1 inverse 1-D transforms, since padding rows transform to zero
and unread columns need no inverse.  Each such transform reads its
input on the box's data window (PaddedGrid.data_window, m nodes a side),
outside which the support guard bounds it below 1e-5 of its maximum
(the oscillatory inverses' cutoff E vanishes there).  cauchy_inverse and
the last step of isothermal's Beltrami solve write the whole box
(_window_to_box): an N x N transform with N = _fft_size(m + n - 1),
m + N forward and N + n inverse 1-D transforms.  The steps of that
solve convolve the window onto itself, N = _fft_size(2m - 1) with m + N
forward and N + m inverse.  On the half = 4, n = 128 box m = 85, and N
is 216 and 180, in place of the whole box's 2n = 256 with n + 2n
forward and 2n + n inverse.  The oscillatory inverses write only the
core window, the bounding box of the core disk (PaddedGrid.core_radius):
with L_in and L_out the window lengths in nodes along an axis, a
circular FFT of any size N >= L_in + L_out - 1 reproduces the full-box
sum term for term (N is chosen 2,3,5-smooth); input that vanishes
outside the core window is convolved from there.  Their per-(box, psi)
data lives in one _OscWindows, computed on the windows from the 1-D axis
(only psi's finite check reads the whole box), which the CGO series
builds once per sweep over h, and one _OscPlan(windows, h) adds what h
changes (the weight and the resolution guard) once per bundle; every
term of that series after the first, its sum and the remainder stay on
the core window, and only the stored sum, remainder and solution are
embedded into the box, once each.  Every transform refuses non-finite
input before any FFT: on the full box for a full-box field, on the core
window for the series' core-window terms.

Every 2-D transform of a box field (the derivatives, cgo's gauge and dz,
the Cauchy transforms) writes into one _spectrum and runs its passes in
fft2's order, axis 1 then axis 0, so each 1-D transform sees the data
fft2 would and every result equals the fft2/ifft2 one bitwise.  A
spectrum's rows are padded by 64 bytes when their length is a multiple
of 4 KiB (the 512 box and the first series term's 512^2 transform): the
axis-0 pass steps through a column at the row stride, and at such a
stride every node of the column falls in one cache set.  The 360^2 core
transforms and the Beltrami solve's 180^2 and 216^2 keep unpadded rows:
at 360 (5,760-byte rows) padding made the core convolution 7% slower,
where at 512 it made the first term's 25% faster.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .grid import (ComplexField, DomainGrid, GridError, PaddedGrid, _erode,
                   _float, _on_lattice, _real, _require_finite,
                   _require_grid, _require_positive, _shifted)

# lattice nodes per local wavelength pi h / |grad psi| of exp(-2i psi / h)
# that the oscillatory inverses' resolution guard demands
NODES_PER_OSC = 6.0


# ---------------------------------------------------------------------------
# derivatives


def _wavenumbers(grid: PaddedGrid, odd1: bool, odd2: bool):
    """Box wavenumbers as a column (axis 0) and a row (axis 1).

    On an even box the Nyquist wavenumber of an axis flagged odd is zeroed:
    that unbalanced mode has no real odd derivative.  A domain is refused.
    """
    _require_grid(grid, PaddedGrid, "a spectral derivative")
    ks = []
    for odd in (odd1, odd2):
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
        if odd and grid.n % 2 == 0:
            k[grid.n // 2] = 0.0
        ks.append(k)
    return ks[0][:, None], ks[1][None, :]


def spectral_deriv(vals: np.ndarray, grid: PaddedGrid, o1: int, o2: int) -> np.ndarray:
    """(d/dx1)^o1 (d/dx2)^o2 of total order 1 or 2 by FFT on the periodic
    box.

    The unbalanced Nyquist mode is zeroed for odd derivative orders.
    Orders that are not integers >= 0 of total order 1 or 2, and values
    that are not a finite (n, n) field of the box, are a GridError.
    """
    if not (isinstance(o1, numbers.Integral)
            and isinstance(o2, numbers.Integral)
            and min(o1, o2) >= 0 and o1 + o2 in (1, 2)):
        raise GridError(f"derivative order ({o1}, {o2}) is not 1 or 2")
    k1, k2 = _wavenumbers(grid, o1 % 2, o2 % 2)
    spec = _fft2(_box_field(vals, grid, "spectral_deriv"))
    np.multiply((1j * k1) ** o1 * (1j * k2) ** o2, spec, out=spec)
    return np.ascontiguousarray(_ifft2(spec))


def _box_field(vals, grid: PaddedGrid, what: str) -> np.ndarray:
    """vals as an array, or a GridError unless grid is a box and vals a
    finite (n, n) field of it."""
    _require_grid(grid, PaddedGrid, what)
    vals = _on_lattice(vals, grid, what)
    _require_finite(f"input of {what}", vals)
    return vals


def _wirtinger_symbol(grid: PaddedGrid, sign: int, odd: bool = True) -> np.ndarray:
    """Fourier symbol (i k1 - sign k2)/2 of (d/dx1 + sign i d/dx2)/2.

    sign = -1 gives dz, +1 gives dzb. With odd, the Nyquist wavenumbers
    follow spectral_deriv's odd-order rule; dividing by the symbol (the
    gauge) needs them kept, or a whole row would be zero.
    """
    k1, k2 = _wavenumbers(grid, odd, odd)
    return 0.5 * (1j * k1 - sign * k2)


def _wirtinger(sh: np.ndarray, grid: PaddedGrid, sign: int,
               at: tuple = (slice(None), slice(None))) -> np.ndarray:
    """(d/dx1 + sign i d/dx2)/2 on the window at (a slice pair) of the box
    field whose spectrum is sh (a _spectrum, overwritten), as a
    C-contiguous array of its own.  The symbol stays the product's left
    operand: numpy's complex loops round the two orders differently."""
    np.multiply(_wirtinger_symbol(grid, sign), sh, out=sh)
    return np.ascontiguousarray(_ifft2(sh, at[1])[at[0]])


def spectral_dz(vals: np.ndarray, grid: PaddedGrid) -> np.ndarray:
    """dz = (d/dx1 - i d/dx2)/2 by one FFT pair on the periodic box, of a
    finite (n, n) field of the box (else a GridError)."""
    return _wirtinger(_fft2(_box_field(vals, grid, "spectral_dz")), grid, -1)


def spectral_dzb(vals: np.ndarray, grid: PaddedGrid) -> np.ndarray:
    """dzb = (d/dx1 + i d/dx2)/2 by one FFT pair on the periodic box, of a
    finite (n, n) field of the box (else a GridError)."""
    return _wirtinger(_fft2(_box_field(vals, grid, "spectral_dzb")), grid, 1)


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
    """4th-order central difference with periodic wrap on the padded box;
    a GridError unless axis is 0 or 1, order 1 or 2 and grid a PaddedGrid."""
    _require_grid(grid, PaddedGrid, "periodic_fd4")
    if not (isinstance(axis, numbers.Integral) and axis in (0, 1)
            and isinstance(order, numbers.Integral) and order in (1, 2)):
        raise GridError("periodic_fd4 needs axis 0 or 1 and order 1 or 2, "
                        f"got axis={axis!r}, order={order!r}")
    pad = [(2, 2) if a == axis else (0, 0) for a in (0, 1)]
    return _fd4(np.pad(vals, pad, mode="wrap"), grid.dx, axis, order)


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


def _masked_stencil(vals: np.ndarray, grid: DomainGrid,
                    axis: int) -> np.ndarray:
    """Apply per node the last of _MASKED_D1 whose offsets stay in the mask.

    The values at the offsets -2..2 along axis are views of one padded
    copy (grid._shifted), and a stencil fits at the nodes that
    grid._erode keeps for its offsets. Mask nodes where none fits raise
    (they would mean a sliver thinner than three nodes); nodes off the
    mask read zero.
    """
    m = grid.mask
    steps = lambda ks: [(k, 0) if axis == 0 else (0, k) for k in ks]
    sh = dict(zip(range(-2, 3), _shifted(vals, steps(range(-2, 3)), 0.0)))
    out = np.zeros(vals.shape, dtype=np.result_type(vals, float))
    fitted = np.zeros(m.shape, dtype=bool)
    for offsets, formula in _MASKED_D1:
        fits = _erode(m, steps(offsets))
        out = np.where(fits, formula(sh.get, grid.dx), out)
        fitted |= fits
    bad = m & ~fitted
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise GridError(f"no difference stencil fits at node ({i}, {j})")
    return np.where(m, out, 0.0)


def deriv(vals: np.ndarray, grid, o1: int, o2: int) -> np.ndarray:
    """d/dx1 for (o1, o2) = (1, 0), d/dx2 for (0, 1), on the grid's lattice.

    Spectral on a padded box, masked differences on a domain; real on both
    for real input (on a box, the real part of the spectral derivative).
    Any other order, and values that are not an (n, n) field of the grid,
    finite on the box or on the domain's mask, are a GridError.
    """
    if not (all(isinstance(o, numbers.Integral) for o in (o1, o2))
            and {o1, o2} == {0, 1}):
        raise GridError(f"derivative order ({o1}, {o2}) is not (1, 0) or "
                        "(0, 1)")
    if isinstance(grid, PaddedGrid):
        out = spectral_deriv(vals, grid, o1, o2)
        return out if np.iscomplexobj(vals) else out.real
    if isinstance(grid, DomainGrid):
        vals = _on_lattice(vals, grid, "deriv")
        _require_finite("input of deriv", vals, where=grid.mask)
        return _masked_stencil(vals, grid, 0 if o1 else 1)
    raise GridError(f"unsupported grid type {type(grid).__name__}")


# ---------------------------------------------------------------------------
# Cauchy transforms


def _support_guard(vals: np.ndarray, grid: PaddedGrid, what: str):
    # Spectrally differentiated C^2 cutoffs ring at ~1e-6 relative across
    # the whole box; only mass above the leakage tolerance threatens the
    # convolution with wraparound, and genuinely wide inputs carry O(1)
    # relative mass near the margin.
    mag = np.abs(vals)
    amax = np.max(mag)
    at = grid.data_window
    mag[at, at] = 0.0
    spill = np.max(mag)
    if spill > 1e-5 * amax:
        raise GridError(
            f"{what}: {spill / amax:.2e} of the maximum lies in the "
            f"wraparound margin of the {grid.half:.3f} box")


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


@functools.lru_cache(maxsize=2)
def _kernel_hat(grid: PaddedGrid, shape: tuple, n_out: tuple,
                shift: tuple, power: int) -> np.ndarray:
    """FFT of the kernel h^2/(pi z) (power 1) or -h^2/(pi z^2) (power 2)
    laid out for a circular convolution.

    Along an axis of FFT length N, index m carries the node offset
    ((m + c) mod N) - c + shift with c = N - n_out: output node p of the
    window starting shift nodes after the input window's first node reads
    input node q through offset p - q + shift.  Any N >= (input length) +
    n_out - 1 keeps those offsets apart, so the circular sum is the linear
    one.  The exact integral (a principal value for power 2) of either
    kernel over the centered origin cell vanishes, as z -> iz maps the
    cell to itself, so the origin weight is zero; every other cell is
    point sampled at its center, and for power 1 the four nearest
    entries also carry the punctured rule's dx^2 correction.  Cached per
    box, layout and power, read-only: the two used last, the most that
    one call reads (an _OscWindows reads two; isothermal reads the
    data-window-to-box Beurling and Cauchy kernels; its Beltrami solve's
    window-to-window kernel has a cache of its own around __wrapped__,
    geomkit._beltrami_kernel), so a sweep's window kernels push out a
    full-box kernel that no bundle reads.  The cost: a caller that
    alternates full-box and windowed transforms on one box rebuilds the
    full-box kernel each time.

    The kernel is built in one complex array: its real and imaginary parts
    are set from the 1-D offsets times h, and the squaring, the scaling,
    the division and fft2 write into it, with the same operations and
    operand order as the meshgrid formula, so the bits are the same and
    the build peaks at about the kernel's own size.
    """
    h = grid.dx
    d1, d2 = ((np.arange(N) + N - L) % N - (N - L) + s
              for N, L, s in zip(shape, n_out, shift))
    K = np.empty(shape, dtype=complex)
    K.real = (d1 * h)[:, None]
    K.imag = (d2 * h)[None, :]
    if power == 2:
        np.square(K, out=K)
    np.multiply(K, np.pi, out=K)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(h * h if power == 1 else -h * h, K, out=K)
    K[np.ix_(d1 == 0, d2 == 0)] = 0.0
    if power == 1:
        # the punctured rule's dx^2 term: near the target z, f(z + w) / w
        # = f / w + dz f + dzb f conj(w) / w + O(|w|); the lattice sum and
        # the integral of 1/w and of conj(w)/w vanish by the symmetry
        # w -> iw, and the rule drops the constant dz f from the origin
        # cell, -h^2 dz f / pi of the transform. These four entries add it
        # back by central differences, -(h^2 / pi) (f(1, 0) - f(-1, 0)
        # - i f(0, 1) + i f(0, -1)) / (4 h) with f(a, b) the value a, b
        # nodes from the target (entry K(a, b) reads f(-a, -b)); what is
        # left is O(h^4)
        # (Marin, Runborg and Tornberg, IMA J. Numer. Anal. 34, 2014)
        c = h / (4.0 * np.pi)
        for a, b, w in ((1, 0, c), (-1, 0, -c), (0, 1, -1j * c),
                        (0, -1, 1j * c)):
            K[np.ix_(d1 == a, d2 == b)] += w
    khat = np.fft.fft2(K, out=K)
    khat.flags.writeable = False
    return khat


def _spectrum(shape: tuple) -> np.ndarray:
    """An uninitialised complex (N0, N1) array for a box transform.

    Its rows are padded by 64 bytes when their length, 16 N1 bytes, is a
    multiple of 4 KiB (the module docstring says why).  The array is a
    view of its padded buffer.
    """
    n0, n1 = shape
    pad = 4 if 16 * n1 % 4096 == 0 else 0
    return np.empty((n0, n1 + pad), dtype=complex)[:, :n1]


def _fft2(vals: np.ndarray, shape: tuple | None = None) -> np.ndarray:
    """fft2(vals, s=shape) bitwise, in a _spectrum: the axis-1 pass runs
    only on the rows of vals (the rest are zero padding), then axis 0."""
    shape = vals.shape if shape is None else shape
    spec = _spectrum(shape)
    m = vals.shape[0]
    np.fft.fft(vals, n=shape[1], axis=1, out=spec[:m])
    spec[m:] = 0.0
    return np.fft.fft(spec, axis=0, out=spec)


def _ifft2(spec: np.ndarray, cols: slice = slice(None)) -> np.ndarray:
    """ifft2(spec)[:, cols] bitwise, written into spec and returned as a
    view of it: the axis-1 pass runs on every row, the axis-0 pass only on
    cols.  A fresh array per pass costs about three times the page
    faults, and writing the axis-0 pass into an unpadded array thrashes as
    reading one does."""
    np.fft.ifft(spec, axis=1, out=spec)
    part = spec[:, cols]
    return np.fft.ifft(part, axis=0, out=part)


def _cauchy_conv(vals: np.ndarray, khat: np.ndarray, n_out: tuple) -> np.ndarray:
    """The first n_out nodes of the linear convolution that khat lays out.

    A pruned FFT pair in one _spectrum, of which the result is a view:
    the forward transform along axis 1 runs only on the rows of vals, the
    inverse along axis 0 only on the n_out[1] columns returned.  The axes
    go in fft2's order, so every 1-D transform sees the same data and the
    result equals ifft2(fft2(vals, s) * khat) bitwise.  Of the transforms
    the Cauchy series runs, the first term's 512^2 (from the 512 box's
    data window) has padded rows; the core window's 360^2 and the Beltrami
    solve's 180^2 and 216^2 do not.
    """
    spec = _fft2(vals, khat.shape)
    spec *= khat
    return _ifft2(spec, slice(n_out[1]))[:n_out[0]]


def _window_to_box(win: np.ndarray, grid: PaddedGrid,
                   power: int) -> np.ndarray:
    """The Cauchy (power 1) or Beurling (power 2) transform, on the whole
    box, of a field given on the data window and zero outside it: a pruned
    N x N FFT pair, N = _fft_size(m + n - 1) for the m-node window."""
    n, start = grid.n, grid.data_window.start
    N = _fft_size(win.shape[0] + n - 1)
    khat = _kernel_hat(grid, (N, N), (n, n), (-start, -start), power)
    return _cauchy_conv(win, khat, (n, n))


def cauchy_inverse(omega: ComplexField) -> ComplexField:
    """Right inverse of dzb: convolution with 1/(pi z) by zero-padded FFT.

    The input must be finite and keep its mass in the box's data region
    (m nodes a side), out of the wraparound margin: the support guard
    bounds it below 1e-5 of its maximum outside.  The transform convolves
    the data window onto the whole box: a pruned N x N FFT pair with
    N = _fft_size(m + n - 1), m + N forward and N + n inverse 1-D
    transforms of length N (N = 216 on the half = 4, n = 128 box).
    """
    grid = _require_grid(omega, ComplexField, "cauchy_inverse").grid
    vals = _box_field(omega.values, grid, "cauchy_inverse")
    _support_guard(vals, grid, "cauchy_inverse")
    at = grid.data_window
    return ComplexField(_window_to_box(vals[at, at], grid, 1), grid)


def conj_cauchy_inverse(omega: ComplexField) -> ComplexField:
    """Right inverse of dz, via the conjugation identity."""
    _require_grid(omega, ComplexField, "conj_cauchy_inverse")
    out = cauchy_inverse(ComplexField(np.conj(omega.values), omega.grid))
    return ComplexField(np.conj(out.values), omega.grid)


def smooth_cutoff(grid: PaddedGrid, r_inner: float, r_outer: float) -> np.ndarray:
    """C^2 radial bump: 1 inside r_inner, 0 outside r_outer (quintic step).
    A grid that is not a PaddedGrid, or radii that are not finite reals
    with r_outer > r_inner, are a GridError."""
    _require_grid(grid, PaddedGrid, "smooth_cutoff")
    lo, hi = _float(r_inner), _float(r_outer)
    if not -np.inf < lo < hi < np.inf:
        raise GridError("cutoff radii must be finite with r_outer > r_inner, "
                        f"got r_inner={r_inner!r}, r_outer={r_outer!r}")
    return _radial_step(grid.x, lo, hi)


def _radial_step(x: np.ndarray, r_inner: float, r_outer: float) -> np.ndarray:
    """smooth_cutoff on the square of nodes x along both axes (x a run of
    the box axis), nodewise the full box's values."""
    r = np.hypot(x[:, None], x[None, :])
    t = np.clip((r - r_inner) / (r_outer - r_inner), 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)


class _OscWindows:
    """The h-free half of an _OscPlan, for one (box, psi).

    Holds the input window inp, the box's data window along both axes,
    which holds the support of the cutoff E (it vanishes from r = 2 rc,
    the data region's edge, on), the core window out (bounding box of the
    core disk, radius rc = grid.core_radius), psi and E on the input
    window, max |grad psi| over E > 0, the core mask on the core window
    and two kernel FFTs: one from the input window to the core window,
    and one from the core window to itself.  The constructor runs the psi
    (finite, real) checks.  psi on the input window is a view of the
    caller's array (of its float64 copy for another real dtype); every
    other array is the windows' own.  Only the finite check reads the
    whole box: E, |grad psi| and the core mask are computed on the
    windows, from the 1-D axis, with the full-box values bit for bit.  embed puts a core-window array on the box.  On any box
    rc = n dx / 6 > 2 dx: the core disk holds a node, and the input window
    grown by one node lies inside the box, whose nodes run from -half to
    half - dx.
    """

    def __init__(self, grid: PaddedGrid, psi):
        psi_vals = _on_lattice(
            _real(psi.values if hasattr(psi, "values") else psi), grid, "psi")
        _require_finite("psi", psi_vals)
        rc = grid.core_radius
        self.out, self.core = grid.core_window(rc)
        at = grid.data_window
        self.inp = (at, at)
        self.cutoff = _radial_step(grid.x[at], rc, 2.0 * rc)

        # np.gradient, not spectral: the phase is generally not box
        # periodic; on the input window grown by one node its central
        # differences at the window's nodes are the full box's
        grown = tuple(slice(s.start - 1, s.stop + 1) for s in self.inp)
        g1, g2 = np.gradient(psi_vals[grown], grid.dx, edge_order=2)
        self.grad_max = float(
            np.max(np.hypot(g1[1:-1, 1:-1], g2[1:-1, 1:-1])[self.cutoff > 0]))

        self.grid = grid
        self.psi = psi_vals[self.inp]
        n_in, n_out = self.cutoff.shape, self.core.shape
        shape = tuple(_fft_size(a + b - 1) for a, b in zip(n_in, n_out))
        shift = tuple(o.start - i.start for o, i in zip(self.out, self.inp))
        self.khat = _kernel_hat(grid, shape, n_out, shift, 1)
        # the core window inside the input window, and the rest of it
        self.inner = tuple(slice(d, d + m) for d, m in zip(shift, n_out))
        self.frame = np.ones(n_in, dtype=bool)
        self.frame[self.inner] = False
        inner_shape = tuple(_fft_size(2 * m - 1) for m in n_out)
        self.khat_inner = _kernel_hat(grid, inner_shape, n_out, (0, 0), 1)

    def embed(self, win: np.ndarray) -> np.ndarray:
        """A core-window array on the full box, zero outside the window."""
        n = self.grid.n
        out = np.zeros((n, n), dtype=complex)
        out[self.out] = win
        return out


class _OscPlan:
    """The oscillatory inverse for one (box, psi, h).

    An _OscWindows, windows, and what h adds to it: the resolution guard
    and the windowed weight exp(-2i psi/h) E, for an h that passed
    grid._require_positive.  A sweep over h at one (box, psi) builds its
    windows once (cgo's bundles keep theirs from one call to the next).

    Every result lives on the core window, and windows.embed puts one on
    the box.  apply takes a full-box field, checks it for finite values
    on the whole box and hands its input window to apply_window, which
    checks that window; a caller whose field vanishes outside the input
    window calls apply_window with the window alone.  apply_core takes a
    field on the core window and checks it there; apply_window hands it
    its input when the weighted input vanishes outside the core window.
    The CGO remainder series feeds its first term through apply_window and
    lives on the core window after it: it calls apply_core and embeds s,
    r and v, the solution formed on that window alone, into the box once
    each.  No support guard runs: the weight vanishes outside the input
    window, the data region, clear of the wraparound margin.
    """

    def __init__(self, windows: _OscWindows, h: float):
        if windows.grad_max > 0:
            h_min = NODES_PER_OSC * windows.grid.dx * windows.grad_max / np.pi
            if h < h_min:
                raise GridError(
                    f"h = {h:.4g} unresolved at this resolution; "
                    f"minimal admissible h = {h_min:.4g}")
        self.windows = windows
        self.weight = np.exp(-2j * windows.psi / h) * windows.cutoff
        self.weight_inner = self.weight[windows.inner].copy()

    def apply(self, vals: np.ndarray) -> np.ndarray:
        """restrict(cauchy_inverse(exp(-2i psi/h) E vals)) on the core
        window, for a full-box vals checked finite on the whole box."""
        ws = self.windows
        vals = _box_field(vals, ws.grid, "oscillatory_dbar_inv")
        return self.apply_window(vals[ws.inp])

    def apply_window(self, win: np.ndarray) -> np.ndarray:
        """apply for a field on the input window, checked finite there:
        the weight vanishes outside it."""
        _require_finite("input of oscillatory_dbar_inv", win)
        ws = self.windows
        w = self.weight * win
        if w[ws.frame].any():
            return self._convolve(w, ws.khat)
        return self.apply_core(win[ws.inner])

    def apply_core(self, win: np.ndarray) -> np.ndarray:
        """apply for an input that lives on the core window too."""
        _require_finite("input of oscillatory_dbar_inv", win)
        ws = self.windows
        return self._convolve(self.weight_inner * win, ws.khat_inner)

    def _convolve(self, w: np.ndarray, khat: np.ndarray) -> np.ndarray:
        ws = self.windows
        return np.where(ws.core, _cauchy_conv(w, khat, ws.core.shape), 0.0)


def oscillatory_dbar_inv(f: ComplexField, psi, h: float) -> ComplexField:
    """Oscillatory inverse: restrict(cauchy_inverse(exp(-2i psi/h) E f)).

    E is a fixed C^2 cutoff equal to 1 on the core disk (radius rc =
    grid.core_radius) and 0 from 2 rc, the edge of the box's data region,
    on; the result is restricted (zeroed) outside the core.  Rejects
    non-finite f, a non-finite or complex psi, and h too small for the
    grid to resolve the oscillation, reporting the minimal admissible h.

    The input exp(-2i psi/h) E f vanishes outside the data window and the
    output is read on the core window only, so the transform is
    a windowed linear convolution: an FFT of size N >= L_in + L_out - 1
    per axis (L_in, L_out the window lengths in nodes, N 2,3,5-smooth)
    equals the zero-padded full-box sum term for term, with the same
    kernel samples.  When f vanishes outside the core window, the core
    window is the input window too.  On the half = 6, n = 512 box with
    rc = 2 the windows are 341 and 171 nodes wide: N = 512 in place of
    the full box's 1024, pruned to 341 + 512 forward and 512 + 171 inverse
    1-D transforms (not 1024 + 1024), or for core-supported f N = 360
    with 171 + 360 and 360 + 171 (not 720 + 720).
    """
    _require_grid(f, ComplexField, "oscillatory_dbar_inv")
    _require_grid(f.grid, PaddedGrid, "oscillatory_dbar_inv")
    _require_positive("h", h)
    plan = _OscPlan(_OscWindows(f.grid, psi), h)
    return ComplexField(plan.windows.embed(plan.apply(f.values)), f.grid)

