import tracemalloc

import numpy as np
import pytest

from malab.complexcalc import (
    _cauchy_conv, _fft2, _fft_size, _ifft2, _OscPlan, _OscWindows,
    _kernel_hat, _spectrum, _support_guard, _window_to_box, _wirtinger,
    _wirtinger_symbol, cauchy_inverse, conj_cauchy_inverse,
    deriv, oscillatory_dbar_inv, periodic_fd4, smooth_cutoff,
    spectral_deriv, spectral_dz, spectral_dzb,
)
from malab import geomkit
from malab.geomkit import DiffeoField, _beltrami_map, invert_diffeo
from malab.grid import (ComplexField, GridError, PaddedGrid, build_disk,
                        build_ellipse)


def _data_window(g):
    """Index slice of the nodes with |x| <= half - half/3 along an axis."""
    at = np.flatnonzero(np.abs(g.x) <= g.half - g.half / 3.0)
    return slice(int(at[0]), int(at[-1]) + 1)


def _bounding_slices(mask):
    """Index slices of the smallest box holding every True node."""
    return tuple(slice(int(idx[0]), int(idx[-1]) + 1)
                 for idx in (np.flatnonzero(mask.any(axis=1)),
                             np.flatnonzero(mask.any(axis=0))))


def _fd4_wirtinger(vals, g):
    """(dz, dzb) from the periodic 4th-order differences."""
    d1 = periodic_fd4(vals, g, 0, 1)
    d2 = periodic_fd4(vals, g, 1, 1)
    return 0.5 * (d1 - 1j * d2), 0.5 * (d1 + 1j * d2)


def test_wirtinger_monomials_fd4():
    g = PaddedGrid(half=3.0, n=128)
    z = g.zz
    core = g.core_mask(2.0)
    dz, dzb = _fd4_wirtinger(z, g)
    assert np.max(np.abs(dz[core] - 1.0)) < 1e-11
    assert np.max(np.abs(dzb[core])) < 1e-11
    dz2, dzb2 = _fd4_wirtinger(np.conj(z), g)
    assert np.max(np.abs(dz2[core])) < 1e-11
    assert np.max(np.abs(dzb2[core] - 1.0)) < 1e-11


def test_wirtinger_spectral_vs_symbolic():
    # box period 2*pi makes sin x1 cos x2 exactly periodic
    g = PaddedGrid(half=np.pi, n=64)
    X, Y = g.meshgrid()
    f = np.sin(X) * np.cos(Y)
    dz, dzb = spectral_dz(f, g), spectral_dzb(f, g)
    # symbolic: dz = (cos x1 cos x2 + i sin x1 sin x2)/2
    want_dz = 0.5 * (np.cos(X) * np.cos(Y) + 1j * np.sin(X) * np.sin(Y))
    want_dzb = 0.5 * (np.cos(X) * np.cos(Y) - 1j * np.sin(X) * np.sin(Y))
    assert np.max(np.abs(dz - want_dz)) < 1e-6
    assert np.max(np.abs(dzb - want_dzb)) < 1e-6


def test_laplacian_identity():
    # 4 dz dzb = laplacian
    g = PaddedGrid(half=np.pi, n=64)
    X, Y = g.meshgrid()
    f = np.sin(2 * X) * np.cos(Y)
    dzdzb = spectral_dz(spectral_dzb(f, g), g)
    lap = spectral_deriv(f, g, 2, 0) + spectral_deriv(f, g, 0, 2)
    assert np.max(np.abs(4.0 * dzdzb - lap)) < 1e-9


def _disk_z(g):
    X, Y = g.meshgrid()
    return X + 1j * Y


def _hessian(f, g):
    """(n, n, 2, 2) Hessian of f: the grid's own first derivative, composed."""
    d1, d2 = deriv(f, g, 1, 0), deriv(f, g, 0, 1)
    d12 = deriv(d2, g, 1, 0)
    return np.stack([np.stack([deriv(d1, g, 1, 0), d12], axis=-1),
                     np.stack([d12, deriv(d2, g, 0, 1)], axis=-1)], axis=-2)


def test_complex_hessian_holomorphic_square():
    # masked differences are exact on quadratics, rim stencils included,
    # so the composed ones are too
    g = build_disk(1.0, 128)
    z = _disk_z(g)
    H = _hessian(z * z, g)[g.mask]
    assert np.max(np.abs(H - np.array([[2, 2j], [2j, -2]]))) < 1e-9
    # dzb^2 and dz dzb from the real second derivatives
    dzb2 = 0.25 * (H[:, 0, 0] - H[:, 1, 1]) + 0.5j * H[:, 0, 1]
    dzdzb = 0.25 * (H[:, 0, 0] + H[:, 1, 1])
    assert np.max(np.abs(dzb2)) < 1e-10
    assert np.max(np.abs(dzdzb)) < 1e-10


def test_complex_hessian_modulus_square():
    g = build_disk(1.0, 128)
    z = _disk_z(g)
    core = g.mask
    H = _hessian((z * np.conj(z)).real.astype(complex), g)
    assert np.max(np.abs(H[core] - 2.0 * np.eye(2))) < 1e-9


def test_hessian_backends_agree():
    # spectral vs FD4 on a band-limited periodic field
    g = PaddedGrid(half=np.pi, n=384)
    X, Y = g.meshgrid()
    rng = np.random.default_rng(3)
    f = np.zeros_like(X)
    for _ in range(5):
        a, b = rng.integers(1, 3, 2)
        f += rng.normal() * np.sin(a * X + rng.normal()) * np.cos(b * Y)
    d1 = lambda v, ax: periodic_fd4(v, g, ax, 1)
    direct = np.empty(f.shape + (2, 2), dtype=complex)
    direct[..., 0, 0] = d1(d1(f, 0), 0)
    direct[..., 0, 1] = direct[..., 1, 0] = d1(d1(f, 0), 1)
    direct[..., 1, 1] = d1(d1(f, 1), 1)
    assert np.max(np.abs(_hessian(f, g) - direct)) < 1e-6


def test_masked_derivatives_quadratic_exact():
    # one-sided rim stencils are still exact on quadratics
    g = build_disk(1.0, 96)
    X, Y = g.meshgrid()
    f = X ** 2 - 3 * X * Y + 2 * Y ** 2 + X - Y
    m = g.mask
    assert np.max(np.abs((deriv(f, g, 1, 0) - (2 * X - 3 * Y + 1))[m])) < 1e-10
    assert np.max(np.abs((deriv(f, g, 0, 1) - (-3 * X + 4 * Y - 1))[m])) < 1e-10


def test_masked_derivatives_cubic():
    g = build_disk(1.0, 96)
    X, Y = g.meshgrid()
    f = X ** 3 - 2 * X * Y ** 2 + Y
    m = g.mask
    deep = m & (X ** 2 + Y ** 2 < 0.8 ** 2)
    d1 = deriv(f, g, 1, 0)
    # central stencils are exact on cubics; rim one-sided legs are O(dx^2)
    assert np.max(np.abs((d1 - (3 * X ** 2 - 2 * Y ** 2))[deep])) < 1e-10
    assert np.max(np.abs((d1 - (3 * X ** 2 - 2 * Y ** 2))[m])) < 5e-3


def test_deriv_of_real_input_is_real_on_both_lattices():
    # on a box, the real part of the spectral derivative; complex input
    # keeps its spectral derivative whole
    box, disk = PaddedGrid(half=3.0, n=32), build_disk(1.0, 32)
    for g in (box, disk):
        X, Y = g.meshgrid()
        f = np.exp(-(X * X + Y * Y)) * (1.0 + X)
        for o in ((1, 0), (0, 1)):
            d = deriv(f, g, *o)
            assert d.dtype == np.float64
            if g is box:
                assert np.array_equal(d, spectral_deriv(f, g, *o).real)
                assert np.array_equal(deriv(f + 0j, g, *o),
                                      spectral_deriv(f, g, *o))


def test_derivatives_refuse_a_non_finite_field_before_any_stencil():
    # one NaN on a disk used to raise the misleading "no difference stencil
    # fits at node (22, 24)", and on a box came back as an all-NaN field
    disk, box = build_disk(1.0, 48), PaddedGrid(half=1.0, n=48)
    f = np.zeros((48, 48))
    f[24, 24] = np.nan
    for o in ((1, 0), (0, 1)):
        with pytest.raises(GridError, match="non-finite input of deriv"):
            deriv(f, disk, *o)
        with pytest.raises(GridError,
                           match="non-finite input of spectral_deriv"):
            deriv(f, box, *o)
    for o in ((1, 0), (0, 2), (1, 1)):
        with pytest.raises(GridError,
                           match="non-finite input of spectral_deriv"):
            spectral_deriv(f, box, *o)
    # on a domain only the mask is read, and a stencil that does not fit
    # is a fault of the geometry alone
    off = np.where(disk.mask, 0.0, np.nan)
    assert np.array_equal(deriv(off, disk, 1, 0), np.zeros((48, 48)))
    with pytest.raises(GridError, match="no difference stencil fits"):
        deriv(np.zeros((64, 64)), build_ellipse(1.0, 0.05, 64), 0, 1)

def test_spectral_derivatives_refuse_a_domain_grid():
    # they used to FFT the non-periodic domain lattice without a word
    g = build_disk(1.0, 32)
    f = np.ones((g.n, g.n))
    for call in (lambda: spectral_deriv(f, g, 1, 0),
                 lambda: spectral_dz(f, g), lambda: spectral_dzb(f, g)):
        with pytest.raises(GridError, match="PaddedGrid, not a DomainGrid"):
            call()


def test_cauchy_inverse_zero():
    g = PaddedGrid(half=3.0, n=64)
    out = cauchy_inverse(ComplexField(np.zeros((64, 64)), g))
    assert np.all(out.values == 0)


def test_cached_kernel_is_shared_by_equal_boxes_and_read_only():
    layout = ((128, 128), (64, 64), (0, 0), 1)
    khat = _kernel_hat(PaddedGrid(half=3.0, n=64), *layout)
    assert _kernel_hat(PaddedGrid(half=3.0, n=64), *layout) is khat
    assert _kernel_hat(PaddedGrid(half=2.0, n=64), *layout) is not khat
    assert _kernel_hat(PaddedGrid(half=3.0, n=64), *layout[:3], 2) is not khat
    with pytest.raises(ValueError):
        khat[0, 0] = 0.0


def _box_layout(g, power):
    """(shape, n_out, shift, power) of the data-window-to-box kernel."""
    at = _data_window(g)
    N = _fft_size(at.stop - at.start + g.n - 1)
    return (N, N), (g.n, g.n), (-at.start, -at.start), power


def _loop_layout(g):
    """(shape, n_out, shift, power) of the Neumann loop's window kernel."""
    at = _data_window(g)
    m = at.stop - at.start
    N = _fft_size(2 * m - 1)
    return (N, N), (m, m), (0, 0), 2


def test_kernel_cache_keeps_what_one_call_reads():
    # an _OscWindows reads two kernels and cauchy_inverse one, so the
    # windows of a box push out its full-box kernel, which they never read
    g = PaddedGrid(half=6.0, n=128)
    X, Y = g.meshgrid()
    cauchy_inverse(ComplexField(np.zeros((g.n, g.n)), g))
    _OscWindows(g, 0.5 * X * Y - 0.2 * X)
    info = _kernel_hat.cache_info()
    assert info.currsize == 2
    _kernel_hat(g, *_box_layout(g, 1))
    assert _kernel_hat.cache_info().misses == info.misses + 1
    # a Beltrami map reads the window-to-box Beurling and Cauchy kernels
    # from the cache and its loop's kernel from a cache of its own, so a
    # second map on the box builds no kernel, and the two it reads from
    # this cache are the ones cached
    c11 = 1.0 + 0.2 * np.exp(-(X * X + Y * Y))
    _beltrami_map(c11, np.zeros_like(X), np.ones_like(X), g)
    misses = _kernel_hat.cache_info().misses
    loop = geomkit._beltrami_kernel.cache_info()
    _beltrami_map(c11, 0.1 * X * Y * np.exp(-(X * X + Y * Y)),
                  np.ones_like(X), g)
    assert geomkit._beltrami_kernel.cache_info().misses == loop.misses
    for power in (1, 2):
        _kernel_hat(g, *_box_layout(g, power))
    assert _kernel_hat.cache_info().misses == misses


def _kernel_layouts():
    """(grid, shape, n_out, shift, power) of every kernel the Cauchy and
    Beurling transforms build: the data window to the box, for
    cauchy_inverse and the Beltrami map's last step, and the window to
    itself, for its Neumann loop, at n = 128 and 97; and on the 512 box
    the oscillatory input window to the core and the core to itself."""
    for n in (128, 97):
        g = PaddedGrid(half=4.0, n=n)
        for power in (1, 2):
            yield (g, *_box_layout(g, power))
        yield (g, *_loop_layout(g))
    g = PaddedGrid(half=6.0, n=512)
    X, Y = g.meshgrid()
    ws = _OscWindows(g, 0.5 * X * Y - 0.2 * X)
    shift = tuple(o.start - i.start for o, i in zip(ws.out, ws.inp))
    assert _kernel_hat(g, ws.khat.shape, ws.core.shape, shift, 1) is ws.khat
    yield g, ws.khat.shape, ws.core.shape, shift, 1
    assert _kernel_hat(g, ws.khat_inner.shape, ws.core.shape,
                       (0, 0), 1) is ws.khat_inner
    yield g, ws.khat_inner.shape, ws.core.shape, (0, 0), 1


def test_kernel_is_built_in_one_array_bitwise():
    # the meshgrid formula peaks at 5x the kernel's size, the in-place
    # build at about 1x
    for g, shape, n_out, shift, power in _kernel_layouts():
        h = g.dx
        d1, d2 = ((np.arange(N) + N - L) % N - (N - L) + s
                  for N, L, s in zip(shape, n_out, shift))
        ZX, ZY = np.meshgrid(d1 * h, d2 * h, indexing="ij")
        Z = ZX + 1j * ZY
        with np.errstate(divide="ignore", invalid="ignore"):
            K = (h * h if power == 1 else -h * h) / (np.pi * Z ** power)
        K[Z == 0] = 0.0
        if power == 1:
            # the punctured rule's dx^2 correction, -(h^2 / pi) dz f
            c = h / (4.0 * np.pi)
            for a, b, w in ((1, 0, c), (-1, 0, -c), (0, 1, -1j * c),
                            (0, -1, 1j * c)):
                K[np.ix_(d1 == a, d2 == b)] += w
        want = np.fft.fft2(K)
        del ZX, ZY, Z, K
        tracemalloc.start()
        try:
            got = _kernel_hat.__wrapped__(g, shape, n_out, shift, power)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want), (shape, power)
        assert peak <= 1.5 * got.nbytes, (shape, power, peak / got.nbytes)
        with pytest.raises(ValueError):
            got[0, 0] = 0.0


def _check_windows(g, psi):
    """_OscWindows(g, psi) against the full-box arrays it windows."""
    ws = _OscWindows(g, psi)
    r = g.half / 3.0
    E = smooth_cutoff(g, r, 2.0 * r)
    x2 = g.x * g.x
    core = x2[:, None] + x2[None, :] <= r * r
    assert ws.inp == (_data_window(g),) * 2
    assert ws.out == _bounding_slices(core)
    assert np.array_equal(ws.cutoff, E[ws.inp])
    outside = np.ones_like(core)
    outside[ws.inp] = False
    assert not np.any(E[outside])
    assert np.array_equal(ws.core, core[ws.out])
    g1, g2 = np.gradient(psi, g.dx, edge_order=2)
    assert ws.grad_max == float(np.max(np.hypot(g1, g2)[E > 0]))


def test_windows_are_the_full_box_arrays_on_their_windows():
    # _OscWindows computes E, |grad psi| and the core mask on its
    # windows only; the full-box arrays, cut to the windows, are the same
    # bits.  The n = 16 and 17 boxes are the lattice floor, where the
    # windows come nearest the box's edges.  |grad psi| of the exponential
    # peaks on the input window's first row, where differences without
    # the window's one-node halo would be one-sided
    for g in (PaddedGrid(half=6.0, n=512), PaddedGrid(half=4.0, n=97),
              PaddedGrid(half=3.0, n=16), PaddedGrid(half=7.3, n=17)):
        X, Y = g.meshgrid()
        for psi in (0.5 * X * Y - 0.2 * (X - 0.3) ** 2 + 0.1 * Y,
                    np.exp(-0.7 * X) * np.cos(0.4 * Y)):
            _check_windows(g, psi)


@pytest.mark.parametrize("half, n", [(6.0, 512), (4.0, 128), (4.0, 97),
                                     (3.0, 48), (3.0, 16), (7.3, 17)])
def test_one_data_region_is_read_everywhere(half, n):
    # the oscillatory input window, the cutoff's support, the inverse
    # map's region and the support guard all follow the box's one data
    # region, the nodes with max(|x|, |y|) <= half - half/3
    g = PaddedGrid(half=half, n=n)
    at, rc = _data_window(g), half / 3.0
    assert g.data_window == at and g.core_radius == rc
    X, Y = g.meshgrid()
    assert _OscWindows(g, 0.5 * X * Y - 0.2 * X).inp == (at, at)
    E = smooth_cutoff(g, rc, 2.0 * rc)
    assert np.all(np.maximum(np.abs(X), np.abs(Y))[E > 0] < half - half / 3.0)

    # the inverse of a compact bump map is exactly the identity outside
    # the region, and moves nodes inside it
    bump = 0.05 * rc * smooth_cutoff(g, 0.0, rc)
    Ji = invert_diffeo(DiffeoField(bump, -0.5 * bump, g))
    outside = np.ones((n, n), dtype=bool)
    outside[at, at] = False
    assert np.any(Ji.d1[~outside] != 0.0)
    for a, want in zip((Ji.d1, Ji.d2, *Ji.jacobian()), (0, 0, 1, 0, 0, 1)):
        assert np.all(a[outside] == want)

    # the guard refuses a unit spike on the first node outside the region
    # and admits one on the last node inside, along either axis
    c = n // 2
    for i, admitted in ((at.start - 1, False), (at.start, True),
                        (at.stop - 1, True), (at.stop, False)):
        for node in ((i, c), (c, i)):
            spike = np.zeros((n, n))
            spike[node] = 1.0
            if admitted:
                _support_guard(spike, g, "spike")
            else:
                with pytest.raises(GridError, match="wraparound"):
                    _support_guard(spike, g, "spike")


def _conv_layouts():
    """(vals, khat, n_out) for every layout the Cauchy and Beurling
    transforms build."""
    rng = np.random.default_rng(7)

    def noise(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for n in (128, 97):
        g = PaddedGrid(half=4.0, n=n)
        layouts = (_box_layout(g, 1), _box_layout(g, 2), _loop_layout(g))
        if n == 128:                # 85 window nodes a side
            assert [lay[0][0] for lay in layouts] == [216, 216, 180]
        window = _loop_layout(g)[1]
        for layout in layouts:
            yield noise(window), _kernel_hat.__wrapped__(g, *layout), layout[1]
    g = PaddedGrid(half=6.0, n=512)
    X, Y = g.meshgrid()
    ws = _OscWindows(g, 0.5 * X * Y - 0.2 * X)
    assert ws.khat.shape == (512, 512) and ws.khat_inner.shape == (360, 360)
    yield noise(ws.cutoff.shape), ws.khat, ws.core.shape     # input window to core
    yield noise(ws.core.shape), ws.khat_inner, ws.core.shape  # core to itself


def test_pruned_convolution_is_the_fft2_pair_bitwise():
    for vals, khat, n_out in _conv_layouts():
        for v in (vals, vals.real):
            want = np.fft.ifft2(np.fft.fft2(v, s=khat.shape) * khat)
            got = _cauchy_conv(v, khat, n_out)
            assert np.array_equal(got, want[:n_out[0], :n_out[1]]), khat.shape


@pytest.mark.parametrize("n", [128, 180, 216, 360, 512])
def test_box_spectra_pad_aliasing_rows_and_keep_the_fft2_bits(n):
    # rows of 16 n bytes are padded by 64 exactly when 16 n is a multiple
    # of 4 KiB: of these boxes only 512's 8 KiB rows
    rng = np.random.default_rng(n)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    row = 16 * n + (64 if n == 512 else 0)
    assert _spectrum((n, n)).strides == (row, 16)
    spec = _fft2(v)
    assert spec.strides == (row, 16)
    want = np.fft.fft2(v)
    assert spec.tobytes() == want.tobytes()
    assert _ifft2(spec).tobytes() == np.fft.ifft2(want).tobytes()
    # dz's inverse runs its axis-0 pass on the window's columns alone, and
    # the public derivative is a C-contiguous array of its own
    g = PaddedGrid(half=4.0, n=n)
    at = (g.data_window, slice(n // 5, n // 2))
    got = _wirtinger(_fft2(v), g, -1, at)
    assert got.flags.c_contiguous and got.flags.owndata
    full = np.fft.ifft2(_wirtinger_symbol(g, -1) * np.fft.fft2(v))
    assert got.tobytes() == full[at].tobytes()
    dz = spectral_dz(v, g)
    assert dz.flags.c_contiguous and not np.shares_memory(dz, v)
    assert dz.tobytes() == full.tobytes()


def _poly_bump(g, R=0.8, power=4):
    X, Y = g.meshgrid()
    r2 = (X ** 2 + Y ** 2) / R ** 2
    return np.where(r2 < 1.0, (1.0 - r2) ** power, 0.0)


def test_cauchy_inverse_recovers_compact_f():
    g = PaddedGrid(half=3.0, n=256)
    f = _poly_bump(g).astype(complex)
    dzb = 0.5 * (spectral_deriv(f, g, 1, 0) + 1j * spectral_deriv(f, g, 0, 1))
    u = cauchy_inverse(ComplexField(dzb, g))
    rel = np.linalg.norm(u.values - f) / np.linalg.norm(f)
    assert rel < 1e-2, rel


def test_cauchy_inverse_dbar_left_identity():
    g = PaddedGrid(half=3.0, n=256)
    f = (_poly_bump(g) * np.exp(1j * g.meshgrid()[0])).astype(complex)
    u = cauchy_inverse(ComplexField(f, g))
    # check dzb u = f on the core with local differences (u is not periodic)
    _, dzb = _fd4_wirtinger(u.values, g)
    core = g.core_mask(1.0)
    rel = (np.linalg.norm((dzb - f)[core]) / np.linalg.norm(f[core]))
    assert rel < 1e-2, rel


def test_beurling_transform_is_second_order():
    # S = dz C, so S(dzb u) = dz u for compact u, and both sides' spectral
    # Wirtinger derivatives are exact for this Gaussian.  The punctured
    # rule drops the origin cell, whose integral of f(z - w) (-1/(pi w^2))
    # starts at the w^2/2 d^2 f term: -(dx^2 / (2 pi)) d^2 f.  With the
    # other cells' sampling errors also dx^2 times second derivatives of f
    # and the rest O(dx^4), err = c dx^2 (1 + O(dx^2)): doubling n quarters
    # it, and the ratio 4 (1 - O(dx^2)) stays above 3.5 on these lattices
    errs = []
    for n in (64, 128, 256):
        g = PaddedGrid(half=4.0, n=n)
        X, Y = g.meshgrid()
        u = np.exp(-(X * X + Y * Y) / 0.3) * (1.0 + 0.3 * g.zz)
        at = _data_window(g)
        su = _window_to_box(spectral_dzb(u, g)[at, at], g, 2)
        errs.append(float(np.max(np.abs(su - spectral_dz(u, g)))))
    assert errs[-1] <= 2e-3, errs
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5, errs


def test_cauchy_transform_is_fourth_order():
    # C(dzb u) = u for compact u. Near the target z the integrand
    # -f(z + w) / (pi w), f = dzb u, is -(f / w + dz f + dzb f conj(w) / w)
    # / pi plus terms homogeneous of degree 1, odd in w, whose punctured
    # lattice sums and integrals both vanish, and of degree 2, which the
    # rule integrates to O(dx^4). The punctured rule drops the constant's
    # origin cell, -(dx^2 / pi) dz f, and _kernel_hat adds it back by
    # central differences, whose own error is dx^2 O(dx^2). So err = c
    # dx^4 (1 + O(dx^2)): doubling n divides it by 16 (measured 15.5 and
    # 15.8; 4.0 without the correction). The width 0.25 keeps u's mass
    # outside the data window, which the transform does not read, at 1e-12
    errs = []
    for n in (64, 128, 256):
        g = PaddedGrid(half=4.0, n=n)
        X, Y = g.meshgrid()
        u = np.exp(-(X * X + Y * Y) / 0.25) * (1.0 + 0.3 * g.zz)
        cu = cauchy_inverse(ComplexField(spectral_dzb(u, g), g)).values
        errs.append(float(np.max(np.abs(cu - u))))
    assert errs[-1] <= 1e-5, errs
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 <= coarse / fine <= 20.0, errs


def test_cauchy_inverse_disk_indicator():
    g = PaddedGrid(half=3.0, n=256)
    X, Y = g.meshgrid()
    Z = X + 1j * Y
    ind = ((X ** 2 + Y ** 2) < 1.0).astype(complex)
    u = cauchy_inverse(ComplexField(ind, g))
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = np.where(np.abs(Z) < 1.0, np.conj(Z), 1.0 / Z)
    closed[np.abs(Z) == 0] = 0.0  # center belongs to the zbar branch anyway
    rel = np.linalg.norm(u.values - closed) / np.linalg.norm(closed)
    assert rel < 2e-2, rel


def _window_field(g, rng):
    """Complex noise on the data window, zero outside it."""
    at = _data_window(g)
    shape = (at.stop - at.start,) * 2
    vals = np.zeros((g.n, g.n), dtype=complex)
    vals[at, at] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return vals


def test_cauchy_inverse_is_the_whole_box_convolution_of_window_fields():
    # the data window convolved onto the box against the 2n x 2n
    # convolution of the whole box, with the same kernel samples
    rng = np.random.default_rng(11)
    for half, n in ((4.0, 128), (4.0, 97), (6.0, 512)):
        g = PaddedGrid(half=half, n=n)
        vals = _window_field(g, rng)
        khat = _kernel_hat.__wrapped__(g, (2 * n, 2 * n), (n, n), (0, 0), 1)
        want = np.fft.ifft2(np.fft.fft2(vals, s=khat.shape) * khat)[:n, :n]
        got = cauchy_inverse(ComplexField(vals, g)).values
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-13, (n, err)


def test_cauchy_inverse_reads_the_data_window_only():
    # a margin tail below the support guard's 1e-5 of the maximum is
    # admitted and not read: the result is bitwise that of the field
    # zeroed in the margin
    g = PaddedGrid(half=4.0, n=128)
    vals = _window_field(g, np.random.default_rng(5))
    X, Y = g.meshgrid()
    tail = np.where(vals == 0, 0.9e-5 * np.max(np.abs(vals))
                    * np.exp(1j * (X + 2 * Y)), vals)
    got = cauchy_inverse(ComplexField(tail, g)).values
    assert np.array_equal(got, cauchy_inverse(ComplexField(vals, g)).values)
    assert not np.array_equal(tail, vals)


def test_cauchy_inverse_rejects_wide_support():
    g = PaddedGrid(half=3.0, n=64)
    X, Y = g.meshgrid()
    wide = (np.abs(X) < 2.9).astype(complex)
    with pytest.raises(GridError):
        cauchy_inverse(ComplexField(wide, g))


def test_conj_cauchy_inverse():
    g = PaddedGrid(half=3.0, n=256)
    f = (_poly_bump(g) * (1.0 + 0.3j)).astype(complex)
    dz = 0.5 * (spectral_deriv(f, g, 1, 0) - 1j * spectral_deriv(f, g, 0, 1))
    u = conj_cauchy_inverse(ComplexField(dz, g))
    rel = np.linalg.norm(u.values - f) / np.linalg.norm(f)
    assert rel < 1e-2, rel
    # conjugation identity is exact by construction
    w = ComplexField(f, g)
    a = conj_cauchy_inverse(w).values
    b = np.conj(cauchy_inverse(ComplexField(np.conj(f), g)).values)
    assert np.array_equal(a, b)


def test_oscillatory_zero_phase_matches_plain():
    g = PaddedGrid(half=3.0, n=128)
    f = ComplexField(_poly_bump(g, R=0.7).astype(complex), g)
    out = oscillatory_dbar_inv(f, np.zeros((g.n, g.n)), h=0.3)
    plain = cauchy_inverse(f)
    core = g.core_mask(1.0)
    diff = np.max(np.abs(out.values[core] - plain.values[core]))
    assert diff < 1e-12


def test_oscillatory_resolution_guard():
    g = PaddedGrid(half=3.0, n=64)
    X, Y = g.meshgrid()
    psi = 0.5 * X * Y
    f = ComplexField(_poly_bump(g, R=0.7).astype(complex), g)
    with pytest.raises(GridError) as err:
        oscillatory_dbar_inv(f, psi, h=1e-4)
    assert "minimal admissible h" in str(err.value)


@pytest.mark.parametrize("half, n, h", [
    (6.0, 512, 0.283),     # the CGO box: windows 341, 171; N = 512, 360
    (3.0, 97, 1.0),        # odd n: the origin is not a node
    (3.0, 129, 0.5),
    (4.0, 200, 0.5),
    (3.0, 48, 1.0),        # nodes at |x| = 2 rc, the data region's edge
])
def test_windowed_oscillatory_matches_full_box(half, n, h):
    # the windowed linear convolution equals the zero-padded full-box one
    g = PaddedGrid(half=half, n=n)
    X, Y = g.meshgrid()
    rng = np.random.default_rng(n)
    f = ((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
         * np.exp(-(X * X + Y * Y) / 2.0))
    psi = 0.5 * X * Y - 0.2 * (X - 0.3) ** 2 + 0.1 * Y
    r = half / 3.0
    core = g.core_mask(r)
    E = smooth_cutoff(g, r, 2.0 * r)

    def full_box(vals):
        w = np.exp(-2j * psi / h) * E * vals
        return np.where(core, cauchy_inverse(ComplexField(w, g)).values, 0.0)

    # input spread over the cutoff window, and input inside the core only
    # (the Neumann series terms), which takes the smaller FFT
    for vals in (f, np.where(core, f, 0.0)):
        want = full_box(vals)
        got = oscillatory_dbar_inv(ComplexField(vals, g), psi, h).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.all(got[~core] == 0.0)
    if n == 48:
        # E is 0 at the region's edge: the input window, the data window,
        # is one node wider on each side than E's support (33 nodes
        # against 31), and its FFT is 50 long where E's would take 48
        ws = _OscWindows(g, psi)
        assert ws.inp == (_data_window(g),) * 2
        assert [s.stop - s.start for s in ws.inp] == [33, 33]
        assert [s.stop - s.start for s in _bounding_slices(E > 0)] == [31, 31]
        assert ws.khat.shape == (50, 50)
    if n == 512:
        plan = _OscPlan(_OscWindows(g, psi), h)
        assert plan.windows.khat.shape == (512, 512)
        assert plan.windows.khat_inner.shape == (360, 360)
        # the core-window form guards its own window
        win = np.where(core, f, 0.0)[plan.windows.out]
        win[3, 5] = np.nan
        with pytest.raises(GridError, match="non-finite"):
            plan.apply_core(win)


def test_cauchy_transforms_reject_bad_input():
    g = PaddedGrid(half=3.0, n=64)
    f = _poly_bump(g, R=0.7).astype(complex)
    psi = np.zeros((g.n, g.n))
    bad = f.copy()
    bad[0, 0] = np.nan           # outside every window: still refused
    with pytest.raises(GridError, match="non-finite input of cauchy_inverse"):
        cauchy_inverse(ComplexField(bad, g))
    osc = oscillatory_dbar_inv
    with pytest.raises(GridError, match="non-finite"):
        osc(ComplexField(bad, g), psi, 0.3)
    nan_psi = psi.copy()
    nan_psi[0, -1] = np.inf
    with pytest.raises(GridError, match="non-finite psi"):
        osc(ComplexField(f, g), nan_psi, 0.3)
    with pytest.raises(GridError, match="psi: shape"):
        osc(ComplexField(f, g), np.zeros((g.n, g.n + 1)), 0.3)
    # a complex psi used to pass: the guard bounds the resolution by Re psi
    # while the weight exponentiated all of psi (2.2x the real-psi field)
    with pytest.raises(GridError, match="complex128"):
        osc(ComplexField(f, g), psi + 0.2j, 0.5)


def test_oscillatory_decay_ordering():
    # critical-point-free phase decays strictly faster than the Morse phase;
    # the bump must span many phase oscillations at the smallest h, hence the
    # wide geometry (the strict slope window runs at n=1024 in acceptance)
    g = PaddedGrid(half=6.0, n=512)
    X, Y = g.meshgrid()
    f = ComplexField(_poly_bump(g, R=1.8).astype(complex), g)
    morse, cpf = 0.5 * X * Y, X.astype(float)
    core = g.core_mask(2.0)
    hs = np.array([0.4, 0.2, 0.1])
    norms = {"morse": [], "cpf": []}
    for h in hs:
        for name, psi in (("morse", morse), ("cpf", cpf)):
            u = oscillatory_dbar_inv(f, psi, h)
            norms[name].append(np.linalg.norm(u.values[core]) * g.dx)
    for nm, nc in zip(norms["morse"], norms["cpf"]):
        assert nc < nm
    slope_m = np.polyfit(np.log(hs), np.log(norms["morse"]), 1)[0]
    slope_c = np.polyfit(np.log(hs), np.log(norms["cpf"]), 1)[0]
    assert slope_c > slope_m
    assert 0.4 <= slope_m <= 1.2, slope_m
    assert slope_c >= 0.9, slope_c


def test_smooth_cutoff_profile():
    g = PaddedGrid(half=3.0, n=128)
    E = smooth_cutoff(g, 1.0, 2.0)
    X, Y = g.meshgrid()
    r = np.hypot(X, Y)
    assert np.all(E[r <= 1.0] == 1.0)
    assert np.all(E[r >= 2.0] == 0.0)
    assert np.all((E >= 0) & (E <= 1))


@pytest.mark.parametrize("radii", [(1.0, 1.0), (2.0, 1.0), (np.nan, 2.0),
                                   (1.0, np.inf)])
def test_smooth_cutoff_rejects_bad_radii(radii):
    # (1, 1) used to divide by zero and (2, 1) to return a step
    with pytest.raises(GridError, match="cutoff radii must be finite"):
        smooth_cutoff(PaddedGrid(half=3.0, n=32), *radii)
