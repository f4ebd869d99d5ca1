import numpy as np
import pytest

from malab.complexcalc import (
    _OscPlan, _kernel_hat, cauchy_inverse, conj_cauchy_inverse, deriv,
    oscillatory_dbar_inv, periodic_fd4, smooth_cutoff, spectral_deriv,
    spectral_dz, spectral_dzb,
)
from malab.grid import ComplexField, GridError, PaddedGrid, build_disk


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
    """(n, n, 2, 2) Hessian of f from the grid's own derivative."""
    d12 = deriv(f, g, 1, 1)
    return np.stack([np.stack([deriv(f, g, 2, 0), d12], axis=-1),
                     np.stack([d12, deriv(f, g, 0, 2)], axis=-1)], axis=-2)


def test_complex_hessian_holomorphic_square():
    # masked differences are exact on quadratics, rim stencils included
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
    assert np.max(np.abs((deriv(f, g, 2, 0) - 2)[m])) < 1e-9
    assert np.max(np.abs((deriv(f, g, 1, 1) + 3)[m])) < 1e-9
    assert np.max(np.abs((deriv(f, g, 0, 2) - 4)[m])) < 1e-9


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
    d11 = deriv(f, g, 2, 0)
    assert np.max(np.abs((d11 - 6 * X)[m])) < 1e-8  # 4-point rim formula is cubic-exact


def test_deriv_takes_orders_one_and_two_only():
    for g in (build_disk(1.0, 32), PaddedGrid(half=3.0, n=32)):
        f = np.ones((g.n, g.n))
        for o1, o2 in ((0, 0), (2, 1), (3, 0), (-1, 2)):
            with pytest.raises(GridError, match="order"):
                deriv(f, g, o1, o2)


def test_cauchy_inverse_zero():
    g = PaddedGrid(half=3.0, n=64)
    out = cauchy_inverse(ComplexField(np.zeros((64, 64)), g))
    assert np.all(out.values == 0)


def test_cached_kernel_is_shared_by_equal_boxes_and_read_only():
    layout = ((128, 128), (64, 64), (0, 0))
    khat = _kernel_hat(PaddedGrid(half=3.0, n=64), *layout)
    assert _kernel_hat(PaddedGrid(half=3.0, n=64), *layout) is khat
    assert _kernel_hat(PaddedGrid(half=2.0, n=64), *layout) is not khat
    with pytest.raises(ValueError):
        khat[0, 0] = 0.0


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


@pytest.mark.parametrize("half, n, rc, h", [
    (6.0, 512, None, 0.283),     # the CGO box: windows 341, 171; N = 512, 360
    (3.0, 97, None, 1.0),        # odd n: the origin is not a node
    (3.0, 129, 0.8, 0.5),
    (4.0, 200, 1.1, 0.5),
])
def test_windowed_oscillatory_matches_full_box(half, n, rc, h):
    # the windowed linear convolution equals the zero-padded full-box one
    g = PaddedGrid(half=half, n=n)
    X, Y = g.meshgrid()
    rng = np.random.default_rng(n)
    f = ((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
         * np.exp(-(X * X + Y * Y) / 2.0))
    psi = 0.5 * X * Y - 0.2 * (X - 0.3) ** 2 + 0.1 * Y
    r = rc if rc is not None else half / 3.0
    core = g.core_mask(r)
    E = smooth_cutoff(g, r, 2.0 * r)

    def full_box(vals):
        w = np.exp(-2j * psi / h) * E * vals
        return np.where(core, cauchy_inverse(ComplexField(w, g)).values, 0.0)

    # input spread over the cutoff window, and input inside the core only
    # (the Neumann series terms), which takes the smaller FFT
    for vals in (f, np.where(core, f, 0.0)):
        want = full_box(vals)
        got = oscillatory_dbar_inv(ComplexField(vals, g), psi, h, rc).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.all(got[~core] == 0.0)
    if n == 512:
        plan = _OscPlan(g, psi, h)
        assert plan.khat.shape == (512, 512)
        assert plan.khat_inner.shape == (360, 360)
        # the core-window form guards its own window
        win = np.where(core, f, 0.0)[plan.out]
        win[3, 5] = np.nan
        with pytest.raises(GridError, match="non-finite"):
            plan.apply_core(win)


def test_oscillatory_wide_core_hits_wraparound_guard():
    # rc = half/2 puts the cutoff's support out to the box edge
    g = PaddedGrid(half=3.0, n=128)
    f = ComplexField(np.ones((g.n, g.n)), g)
    with pytest.raises(GridError, match="wraparound"):
        oscillatory_dbar_inv(f, np.zeros((g.n, g.n)), 0.5, core_radius=1.5)


def test_cauchy_transforms_reject_bad_input():
    g = PaddedGrid(half=3.0, n=64)
    f = _poly_bump(g, R=0.7).astype(complex)
    psi = np.zeros((g.n, g.n))
    bad = f.copy()
    bad[0, 0] = np.nan           # outside every window: still refused
    with pytest.raises(GridError, match="cauchy_inverse: non-finite"):
        cauchy_inverse(ComplexField(bad, g))
    osc = oscillatory_dbar_inv
    with pytest.raises(GridError, match="non-finite"):
        osc(ComplexField(bad, g), psi, 0.3)
    nan_psi = psi.copy()
    nan_psi[0, -1] = np.inf
    with pytest.raises(GridError, match="psi: non-finite"):
        osc(ComplexField(f, g), nan_psi, 0.3)
    with pytest.raises(GridError, match="psi: shape"):
        osc(ComplexField(f, g), np.zeros((g.n, g.n + 1)), 0.3)
    with pytest.raises(GridError, match="core radius"):
        osc(ComplexField(f, g), psi, 0.3, core_radius=0.0)


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
