"""Gauge factorization, oscillatory Neumann series, and CGO bundles.

Geometry shared by every test: half = 6 box at n = 512, drift and potential
compactly supported inside the core disk of radius 2.  Decay sweeps run over
h in {0.4, 0.283, 0.2, 0.141}; h = 0.1 needs the n = 1024 acceptance
geometry to pass the oscillation-resolution guard.  All tolerances frozen
from measured values (see comments on each test).
"""

import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from malab import cgo
from malab.complexcalc import (_OscWindows, _wirtinger_symbol,
                               oscillatory_dbar_inv, periodic_fd4,
                               smooth_cutoff, spectral_deriv)
from malab.grid import (SCALE_RANGE, ComplexField, GridError, PaddedGrid,
                        build_disk)
from malab.linearize import VectorField

HS = (0.4, 0.283, 0.2, 0.141)


@pytest.fixture(scope="module")
def box():
    return PaddedGrid(half=6.0, n=512)


@pytest.fixture(scope="module")
def coords(box):
    X, Y = box.meshgrid()
    return X, Y, X * X + Y * Y


@pytest.fixture(scope="module")
def drift(box, coords):
    X, Y, r2 = coords
    b = np.exp(-r2 / 0.6)
    return VectorField(0.8 * b * np.cos(1.3 * X + 0.4 * Y),
                       -0.6 * b * np.sin(0.9 * Y - 0.2 * X), box)


@pytest.fixture(scope="module")
def qpot(coords):
    _, _, r2 = coords
    return 0.25 * np.exp(-r2 / 0.7)


@pytest.fixture(scope="module")
def phases(box):
    """cp_free z + z^2/8 has no critical point in the core, morse -z^2/4 a
    nondegenerate one at the origin; adjoint_partner -z + z^2/8 grows
    opposite to cp_free."""
    return {"cp_free": cgo.phase_spec((0.0, 1.0, 0.125), box),
            "morse": cgo.phase_spec((0.0, 0.0, -0.25), box),
            "adjoint_partner": cgo.phase_spec((0.0, -1.0, 0.125), box)}


@pytest.fixture(scope="module")
def morse_sweep(phases, drift, qpot):
    return {h: cgo.build_cgo_holo(phases["morse"], h, drift, q=qpot)
            for h in HS}


@pytest.fixture(scope="module")
def cp_sweep(phases, drift, qpot):
    return {h: cgo.build_cgo_holo(phases["cp_free"], h, drift, q=qpot)
            for h in HS}


def l2(box, vals):
    return float(np.sqrt(abs(box.quadrature(np.abs(vals) ** 2))))


def _zero_outside(vals, at):
    """Whether vals is exactly 0 outside the window at."""
    rest = np.ones(vals.shape, dtype=bool)
    rest[at] = False
    return not vals[rest].any()


def fit_slope(hs, vals):
    return float(np.polyfit(np.log(hs), np.log(vals), 1)[0])


# ---------------------------------------------------------------------------
# gauge


def test_gauge_solves_its_equation_locally(box, drift):
    # local 4th-order residual of dzb(alpha) = (i/4)(X1+iX2) over the core;
    # measured 7.1e-7 at n=512 (the spectral division leaves no 1/z tail;
    # what remains is the 4th-order difference error)
    alpha, fa, fab = cgo.gauge(drift)
    dzb = 0.5 * (periodic_fd4(alpha.values, box, 0, 1)
                 + 1j * periodic_fd4(alpha.values, box, 1, 1))
    src = 0.25j * (drift.c1 + 1j * drift.c2)
    core = box.core_mask(2.0)
    rel = (np.linalg.norm((dzb - src)[core])
           / np.linalg.norm(src[core]))
    assert rel <= 1e-3


def test_gauge_factor_lower_bound_and_conjugate(box, drift):
    alpha, fa, fab = cgo.gauge(drift)
    im_max = float(np.max(np.abs(alpha.values.imag)))
    assert float(np.min(np.abs(fa.values))) >= np.exp(-im_max) * (1 - 1e-12)
    assert np.array_equal(fab.values, np.exp(1j * np.conj(alpha.values)))


def test_gauge_zero_drift_is_identity(box):
    zero = np.zeros((box.n, box.n))
    alpha, fa, _ = cgo.gauge(VectorField(zero, zero.copy(), box))
    assert np.array_equal(alpha.values, np.zeros_like(alpha.values))
    assert np.array_equal(fa.values, np.ones_like(fa.values))


def test_gauge_rejects_wide_drift(box, coords):
    _, _, r2 = coords
    wide = np.exp(-r2 / 20.0)
    with pytest.raises(GridError):
        cgo.gauge(VectorField(wide, wide.copy(), box))
    nan = np.zeros((box.n, box.n))
    nan[5, 7] = np.nan
    with pytest.raises(GridError, match="non-finite"):
        cgo.gauge(VectorField(nan, nan.copy(), box))


def test_bundle_rejects_wide_drift(box, coords, phases):
    # the construction path runs the gauge's support guard too
    _, _, r2 = coords
    wide = np.exp(-r2 / 20.0)
    with pytest.raises(GridError, match="gauge"):
        cgo.build_cgo_holo(phases["morse"], 0.283,
                           VectorField(wide, wide.copy(), box))


# ---------------------------------------------------------------------------
# zeroth-order coefficients and factorization


def test_potential_gradient_field_example(box, coords):
    # X = grad(rho) -> Q = |grad rho|^2/4 - lap(rho)/2, curl term absent;
    # measured deviation 5.6e-13, imaginary part 8.6e-15
    _, _, r2 = coords
    rho = 0.5 * np.exp(-r2 / 0.7)
    # a VectorField holds real components: the spectral gradient of a real
    # rho is real up to rounding
    gx = spectral_deriv(rho, box, 1, 0).real
    gy = spectral_deriv(rho, box, 0, 1).real
    Q = cgo.factor_potential(VectorField(gx, gy, box))
    lap = spectral_deriv(rho, box, 2, 0) + spectral_deriv(rho, box, 0, 2)
    ref = 0.25 * (gx * gx + gy * gy) - 0.5 * lap
    assert float(np.max(np.abs(Q.values - ref))) <= 1e-10
    assert float(np.max(np.abs(Q.values.imag))) <= 1e-10


def test_potential_shifts_with_q(box, drift, qpot):
    base = cgo.factor_potential(drift)
    shifted = cgo.factor_potential(drift, qpot)
    assert np.allclose(shifted.values - base.values, qpot, atol=1e-12)


def test_factorization_residual_random_drifts(box, coords, qpot):
    # spectral-gauge identity residual; measured max 1.1e-12 over 10 drifts
    X, Y, r2 = coords
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        w = 0.4 + 0.4 * rng.random()
        b = np.exp(-r2 / w)
        c = rng.uniform(-1.5, 1.5, size=6)
        Xd = VectorField(0.8 * b * np.cos(c[0] * X + c[1] * Y + c[2]),
                         0.8 * b * np.sin(c[3] * X + c[4] * Y + c[5]), box)
        worst = max(worst, cgo.factorization_check(Xd, q=qpot))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# phases


def test_standard_phase_flags_and_values(box, phases):
    assert phases["morse"].has_critical_point
    assert not phases["cp_free"].has_critical_point
    assert not phases["adjoint_partner"].has_critical_point
    # point value of the quadratic phase at z = 1 + i
    i = np.argmin(np.abs(box.x - 1.0))
    val = phases["morse"].values[i, i]
    z = box.x[i] * (1 + 1j)
    assert abs(val - (-z * z / 4.0)) <= 1e-14


def test_phase_is_antiholomorphically_flat(box, phases):
    # dzb of a degree-2 polynomial by 4th-order differences is exact away
    # from the periodic seam
    for ps in phases.values():
        dzb = 0.5 * (periodic_fd4(ps.values, box, 0, 1)
                     + 1j * periodic_fd4(ps.values, box, 1, 1))
        X, Y = box.meshgrid()
        inner = np.maximum(np.abs(X), np.abs(Y)) <= box.half - 4 * box.dx
        assert float(np.max(np.abs(dzb[inner]))) <= 1e-10


def test_phase_negation_and_degenerate_cases(box, phases):
    neg = phases["cp_free"].negated()
    assert np.array_equal(neg.values, -phases["cp_free"].values)
    assert not neg.has_critical_point
    const = cgo.phase_spec((1.0,), box)
    assert const.has_critical_point          # derivative vanishes identically
    with pytest.raises(GridError):
        cgo.phase_spec((), box)
    with pytest.raises(GridError):
        cgo.phase_spec((0.0, 1.0), build_disk(1.0, 32))


@pytest.mark.parametrize("coeffs, center, cause", [
    ((0.0, np.nan), 0j, "non-finite coefficient or center"),
    ((0.0, np.inf), 0j, "non-finite coefficient or center"),
    ((0.0, 1.0), complex(0.0, np.nan), "non-finite coefficient or center"),
    ((0.0, 0.0, 0.0, 1e307), 0j, "values overflow on the box")])
def test_phase_spec_rejects_non_finite_phases(coeffs, center, cause):
    # (0, nan) used to give a phase of NaN that build_cgo_holo refused only
    # after the gauge's FFTs, and (0, inf) a bare RuntimeWarning; 1e307 z^3
    # overflows at |z| near 8.5, the corners of the half = 6 box
    with pytest.raises(GridError, match=cause):
        cgo.phase_spec(coeffs, PaddedGrid(half=6.0, n=32), center)


# ---------------------------------------------------------------------------
# Neumann operator


def test_neumann_zero_weight_and_linearity(box, coords, phases, drift, qpot):
    X, Y, r2 = coords
    f1 = ComplexField(np.exp(-((X - 0.9) ** 2 + (Y + 0.6) ** 2) / 0.3)
                      .astype(complex), box)
    f2 = ComplexField((0.3j * X * np.exp(-r2 / 0.4)).astype(complex), box)
    psi = phases["morse"].psi
    zero = ComplexField(np.zeros((box.n, box.n), dtype=complex), box)
    out = cgo.neumann_T(f1, psi, 0.283, zero, zero)
    assert np.array_equal(out.values, np.zeros_like(out.values))
    alpha = cgo.gauge(drift)[0].values
    V, vp = cgo.series_weights(alpha, drift, qpot)
    both = cgo.neumann_T(ComplexField(f1.values + f2.values, box),
                         psi, 0.283, V, vp)
    sep = (cgo.neumann_T(f1, psi, 0.283, V, vp).values
           + cgo.neumann_T(f2, psi, 0.283, V, vp).values)
    scale = float(np.max(np.abs(sep)))
    assert float(np.max(np.abs(both.values - sep))) <= 1e-10 * scale


def test_neumann_application_decays_in_h(box, coords, phases, drift, qpot):
    # fixed bump off the phase's critical point; measured slope 0.90
    X, Y, _ = coords
    f = ComplexField(np.exp(-((X - 0.9) ** 2 + (Y + 0.6) ** 2) / 0.3)
                     .astype(complex), box)
    alpha = cgo.gauge(drift)[0].values
    V, vp = cgo.series_weights(alpha, drift, qpot)
    psi = phases["morse"].psi
    norms = [l2(box, cgo.neumann_T(f, psi, h, V, vp).values) for h in HS]
    slope = fit_slope(HS, norms)
    assert 0.4 <= slope <= 1.3


def test_neumann_norm_proxy_contracts(box, coords, phases, drift, qpot):
    # power iteration from a seeded random bump on the core window, where
    # the series applies T; the last norm-growth ratio is the proxy,
    # measured 0.062 at h=0.4 and 0.025 at h=0.141
    _, _, r2 = coords
    alpha = cgo.gauge(drift)[0].values
    V, vp = cgo.series_weights(alpha, drift, qpot)
    psi = phases["morse"].psi
    rng = np.random.default_rng(0)
    bump = np.exp(-r2 / 1.5) * (rng.standard_normal((box.n, box.n))
                                + 1j * rng.standard_normal((box.n, box.n)))
    window, _ = box.core_window(box.half / 3.0)
    start = np.zeros_like(bump)
    start[window] = bump[window]

    def proxy(h):
        f = ComplexField(start, box)
        for _ in range(5):
            g = cgo.neumann_T(f, psi, h, V, vp)
            ratio, f = l2(box, g.values) / l2(box, f.values), g
        return ratio

    p_hi, p_lo = proxy(0.4), proxy(0.141)
    assert 0.005 < p_lo < p_hi < 0.3
    slope = np.log(p_hi / p_lo) / np.log(0.4 / 0.141)
    assert slope >= 0.4


# ---------------------------------------------------------------------------
# holomorphic bundles


def test_trivial_bundle_is_pure_exponential(box, phases):
    # zero drift and potential give a zero first term, where the series
    # stops: r = 0 exactly
    bundle = cgo.build_cgo_holo(phases["morse"], 0.2)
    assert np.array_equal(bundle.r.values, np.zeros_like(bundle.r.values))
    # v is the solution on the core window and exactly 0 outside it
    core = cgo._SETUP[0].windows.out
    assert np.array_equal(bundle.v.values[core],
                          np.exp(phases["morse"].values / 0.2)[core])
    assert _zero_outside(bundle.v.values, core)
    assert bundle.K_effective == 0
    assert bundle.term_norms == (0.0,)
    # 4th-order residual floor of the exact solution; measured 2.0e-8
    assert bundle.residual <= 1e-6


def test_zero_drift_meets_the_resolution_guard(phases, drift):
    # h_min = 6 dx max|grad psi| / pi = 0.09 for the Morse phase at n = 512
    for X in (None, drift):
        with pytest.raises(GridError, match="unresolved"):
            cgo.build_cgo_holo(phases["morse"], 0.05, X)


def test_remainder_decay_morse(morse_sweep):
    slope = fit_slope(HS, [morse_sweep[h].r_norm for h in HS])
    assert 0.5 <= slope <= 1.1          # measured 0.81


def test_remainder_decay_cp_free(cp_sweep):
    slope = fit_slope(HS, [cp_sweep[h].r_norm for h in HS])
    assert 0.9 <= slope <= 1.4          # measured 1.18


def test_remainder_ordering_every_h(morse_sweep, cp_sweep):
    for h in HS:
        assert cp_sweep[h].r_norm < morse_sweep[h].r_norm


def test_bundle_residuals_small(morse_sweep, cp_sweep):
    # measured 5e-6..2.2e-5 (morse), 8e-7..1.9e-5 (cp-free)
    for h in HS:
        assert morse_sweep[h].residual <= 1e-4
        assert cp_sweep[h].residual <= 1e-4


def test_residual_decreases_with_depth(monkeypatch, box, phases, drift,
                                      qpot):
    # measured 4.1e-4, 2.0e-5, 1.05e-5, then flat at the truncation floor
    res = []
    for k in range(7):
        monkeypatch.setattr(cgo, "DEPTH_CAP", k)
        res.append(cgo.build_cgo_holo(phases["morse"], 0.283, drift,
                                      q=qpot).residual)
    for k in range(6):
        assert res[k + 1] <= res[k] * 1.02
    assert res[2] <= res[0] / 10.0


def test_remainder_rebuilds_bitwise(box, morse_sweep, drift, qpot):
    bundle = morse_sweep[0.283]
    _, vp = cgo.series_weights(bundle.alpha, drift, qpot)
    redo = -oscillatory_dbar_inv(
        ComplexField(vp.values * bundle.s.values, box),
        bundle.phase.psi, bundle.h).values
    assert np.array_equal(bundle.r.values, redo)


def _full_box_series(box, bundle, drift, qpot):
    """The bundle's series to the cap DEPTH_CAP, every term of it, rebuilt
    on the full box from the public transforms; with r of a sum s and v of
    an r, as the bundle forms them."""
    psi, h = bundle.phase.psi, bundle.h
    V, vp = (w.values for w in cgo.series_weights(bundle.alpha, drift, qpot))

    def osc(vals):
        return oscillatory_dbar_inv(ComplexField(vals, box), psi, h).values

    def osc_star(vals):
        # the inverse of dzb* = -2 dz: conj o osc o conj, times -1/2
        return -0.5 * np.conj(osc(np.conj(vals)))

    terms = [-osc_star(V * bundle.amplitude)]
    for _ in range(cgo.DEPTH_CAP):
        terms.append(osc_star(osc(vp * terms[-1]) * V))

    def r_of(s):
        return -osc(vp * s)

    def v_of(r):
        return (np.exp(bundle.phase.values / h - 1j * bundle.alpha)
                * (bundle.amplitude + r))
    return terms, r_of, v_of


def test_windowed_series_equals_full_box_rebuild(box, morse_sweep, drift,
                                                qpot):
    # the series rebuilt on the full box from the public transforms; the
    # bundle runs every term after the first on the core window and embeds
    # s and r once, with the same arithmetic at every node
    bundle = morse_sweep[0.283]
    terms, r_of, _ = _full_box_series(box, bundle, drift, qpot)
    s = sum(terms[:bundle.K_effective + 1])
    r = r_of(s)
    assert s.tobytes() == bundle.s.values.tobytes()
    assert r.tobytes() == bundle.r.values.tobytes()


def test_stopped_series_meets_its_tail_bound_and_the_full_residual(
        box, morse_sweep, cp_sweep, drift, qpot):
    # every bundle of both sweeps stops below the cap DEPTH_CAP; the full
    # series to the cap, rebuilt on the box, differs from the stopped s by
    # its tail, within the bound the stop rule computed, and its residual
    # is the stopped bundle's to 1e-3 relative: the truncation's share of
    # the residual is about 1e-2 of the relative tail (cgo.SERIES_RTOL)
    for b in (*morse_sweep.values(), *cp_sweep.values()):
        assert b.K_effective < cgo.DEPTH_CAP
        terms, r_of, v_of = _full_box_series(box, b, drift, qpot)
        s_full = sum(terms)
        assert l2(box, s_full - b.s.values) <= cgo._series_tail(b.term_norms)
        full = cgo.drift_residual(v_of(r_of(s_full)), drift, qpot, b.h)
        assert abs(b.residual - full) <= 1e-3 * full


_C4 = {1: np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
       2: np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0}


def _roll_fd4(vals, dx, axis, order):
    """The full-box np.roll form of the 4th-order periodic difference."""
    out = np.zeros(np.shape(vals), dtype=complex)
    for k, c in zip(range(-2, 3), _C4[order]):
        if c != 0.0:
            out += c * np.roll(vals, -k, axis=axis)
    return out / dx ** order


def _roll_residual(vals, X, q, h, grid, rc, conservative):
    """drift_residual evaluated on the full box with np.roll differences."""
    d = lambda f, axis, order: _roll_fd4(f, grid.dx, axis, order)
    lap = d(vals, 0, 2) + d(vals, 1, 2)
    if conservative:
        res = -lap - (d(X.c1 * vals, 0, 1) + d(X.c2 * vals, 1, 1)) + q * vals
    else:
        res = (-lap + X.c1 * d(vals, 0, 1) + X.c2 * d(vals, 1, 1)
               + q * vals)
    mask = grid.core_mask(rc - 3.0 * grid.dx)
    return (l2(grid, np.where(mask, res, 0.0))
            / (l2(grid, np.where(mask, vals, 0.0)) / h ** 2))


def test_drift_residual_matches_the_full_box_formula(box, morse_sweep, drift,
                                                     qpot):
    for conservative in (False, True):
        for h in (0.4, 0.141):
            b = morse_sweep[h]
            want = _roll_residual(b.v.values, drift, qpot, h, box,
                                  box.half / 3.0, conservative)
            got = cgo.drift_residual(b.v.values, drift, qpot, h,
                                     conservative)
            assert abs(got - want) <= 1e-14 * want
    # v is formed on the core window alone; the box-wide closed form reads
    # the same residual bit for bit
    for h, b in morse_sweep.items():
        v = (np.exp(b.phase.values / h - 1j * b.alpha)
             * (b.amplitude + b.r.values))
        assert cgo.drift_residual(v, drift, qpot, h) == b.residual
    # random fields; on the n = 20 box the measurement disk is the origin
    # node alone
    rng = np.random.default_rng(3)
    for n in (64, 20):
        small = PaddedGrid(half=3.0, n=n)
        vals, c1, c2, q = (rng.standard_normal((n, n)) for _ in range(4))
        vals = vals + 1j * rng.standard_normal((n, n))
        X = VectorField(c1, c2, small)
        for conservative in (False, True):
            want = _roll_residual(vals, X, q, 0.3, small, 1.0, conservative)
            got = cgo.drift_residual(vals, X, q, 0.3, conservative)
            assert abs(got - want) <= 1e-14 * want
    # on the n = 17 box rc = 1 is within 3 dx; on the n = 19 box rc - 3 dx
    # is smaller than the distance dx / sqrt(2) from the origin to its
    # nearest nodes
    for n in (17, 19):
        ones = np.ones((n, n))
        tiny = PaddedGrid(half=3.0, n=n)
        with pytest.raises(GridError, match="no node to measure"):
            cgo.drift_residual(ones, VectorField(ones, ones, tiny), 0.0, 0.3)
    # h = -0.3 used to give h = 0.3's residual, h = 0 a ZeroDivisionError and
    # nan a nan; a q of another shape raised numpy's broadcast ValueError
    for h in (-0.3, 0.0, np.nan):
        with pytest.raises(GridError, match="h must be positive"):
            cgo.drift_residual(vals, X, q, h)
    with pytest.raises(GridError, match="q: shape"):
        cgo.drift_residual(vals, X, ones, 0.3)
    # the box is the drift's: a candidate from another box used to be read
    # on this one, a (64,) vector raised a bare IndexError and a NaN field
    # gave nan
    with pytest.raises(GridError, match="drift_residual: shape"):
        cgo.drift_residual(ones, X, 0.0, 0.3)
    with pytest.raises(GridError, match="drift_residual: shape"):
        cgo.drift_residual(vals[0], X, q, 0.3)
    nan = vals.copy()
    nan[10, 10] = np.nan
    with pytest.raises(GridError, match="non-finite candidate of drift_residual"):
        cgo.drift_residual(nan, X, q, 0.3)
    disk = build_disk(1.0, 20)
    with pytest.raises(GridError, match="drift_residual needs a "
                       "PaddedGrid, not a DomainGrid"):
        cgo.drift_residual(vals, VectorField(c1, c2, disk), 0.0, 0.3)
    # periodic_fd4 is the sliced kernel on a wrap-padded array, node for node
    for axis in (0, 1):
        for order in (1, 2):
            assert np.array_equal(periodic_fd4(vals, small, axis, order),
                                  _roll_fd4(vals, small.dx, axis, order))


def test_residual_keeps_its_scale_at_large_h(phases, drift, qpot,
                                             morse_sweep):
    # drift_residual normalizes by min(h, 1)^-2: h^-2 raised a bare
    # OverflowError from h ** 2 near h = 1e155 and read 8.9e185 at
    # h = 1e100 with zero drift.  Measured 3.70e-5 with the drift from
    # h = 1e3 to 1e300, and 2.5e-13 with none
    for h in (1e100, 1e155, 1e300):
        b = cgo.build_cgo_holo(phases["morse"], h, drift, q=qpot)
        assert np.all(np.isfinite(b.v.values))
        assert 1e-6 <= b.residual <= 1e-4
        assert cgo.build_cgo_holo(phases["morse"], h).residual <= 1e-10
    # from h = 1 on, a candidate reads the same residual at every h
    v = morse_sweep[0.4].v.values
    assert (cgo.drift_residual(v, drift, qpot, 1e300)
            == cgo.drift_residual(v, drift, qpot, 1.0))


def _scaled_bundle(half):
    """The Morse bundle at h = 1 on the n = 64 box of half width half,
    its drift, potential and phase carried from the half-6 box by x ->
    x half / 6."""
    box = PaddedGrid(half=half, n=64)
    s = half / 6.0
    x, y = (c / s for c in box.meshgrid())
    r2 = x * x + y * y
    bump = np.exp(-r2 / 0.6)
    drift = VectorField(0.8 * bump * np.cos(1.3 * x) / s,
                        -0.6 * bump * np.sin(0.9 * y) / s, box)
    phase = cgo.phase_spec((0.0, 0.0, -0.25 / s ** 2), box)
    return cgo.build_cgo_holo(phase, 1.0, drift,
                              q=0.25 * np.exp(-r2 / 0.7) / s ** 2)


def test_bundles_hold_at_both_ends_of_the_scale_range():
    # the residual is a second difference, so it scales as half^-2, and
    # squaring it for its norm takes half^-4: the n = 64 box holds from
    # half = 6e-76 to 6e78, overflowed there from 6e-78 down and read a
    # residual of 0 from 6e80 up.  At both ends of SCALE_RANGE the bundle
    # is the half-6 one's, with its residual scaled by (half / 6)^-2
    unit = _scaled_bundle(6.0)
    for half in SCALE_RANGE:
        b = _scaled_bundle(half)
        assert b.term_norms == pytest.approx(unit.term_norms, rel=1e-9)
        assert b.residual * (half / 6.0) ** 2 == pytest.approx(
            unit.residual, rel=1e-9)


def test_series_decay_recorded(morse_sweep, cp_sweep):
    # every bundle records the terms it formed, each below the one before,
    # and stops at the first whose tail bound meets SERIES_RTOL, below the
    # cap
    for b in (*morse_sweep.values(), *cp_sweep.values()):
        norms = b.term_norms
        assert len(norms) == b.K_effective + 1 <= cgo.DEPTH_CAP
        assert all(norms[j + 1] < norms[j] for j in range(b.K_effective))
        tails = [cgo._series_tail(norms[:j + 1])
                 for j in range(1, b.K_effective + 1)]
        assert tails[-1] <= cgo.SERIES_RTOL * norms[0] < min(tails[:-1],
                                                             default=np.inf)


def test_nondecreasing_series_warns_and_truncates(box, coords, phases):
    # amplitude 16 drift pushes the operator norm past 1; measured terms
    # 3.9, 6.6, ... with the minimum at the leading term
    X, Y, r2 = coords
    b = np.exp(-r2 / 0.6)
    strong = VectorField(16.0 * b * np.cos(1.3 * X + 0.4 * Y),
                         -12.0 * b * np.sin(0.9 * Y - 0.2 * X), box)
    with pytest.warns(RuntimeWarning, match="truncating"):
        bundle = cgo.build_cgo_holo(phases["morse"], 0.4, strong)
    assert bundle.K_effective < 4


def test_holomorphic_amplitude_accepted_and_stored(box, phases, drift):
    bundle = cgo.build_cgo_holo(phases["cp_free"], 0.283, drift,
                                amplitude=lambda z: 1.0 + 0.25 * z)
    assert np.array_equal(bundle.amplitude, 1.0 + 0.25 * box.zz)


def test_constant_amplitude_is_a_read_only_broadcast(phases, drift):
    # a constant is no box array: a zero-stride view of its value
    for amplitude, value in ((None, 1.0), (2.0 - 0.5j, 2.0 - 0.5j)):
        a = cgo.build_cgo_holo(phases["morse"], 0.283, drift,
                               amplitude=amplitude).amplitude
        assert a.strides == (0, 0) and not a.flags.writeable
        assert a.dtype == complex and np.all(a == value)
    with pytest.raises(GridError, match="non-finite amplitude"):
        cgo.build_cgo_holo(phases["morse"], 0.283, drift, amplitude=np.nan)


def test_antiholomorphic_amplitude_rejected(box, phases, drift):
    with pytest.raises(GridError, match="holomorphic"):
        cgo.build_cgo_holo(phases["cp_free"], 0.283, drift,
                           amplitude=lambda z: np.conj(z))


def test_bundle_input_guards(box, phases, drift, qpot, morse_sweep):
    with pytest.raises(GridError):
        cgo.build_cgo_holo(phases["morse"], 0.0, drift)
    other = PaddedGrid(half=6.0, n=256)
    zero = np.zeros((other.n, other.n))
    with pytest.raises(GridError, match="different grid"):
        cgo.build_cgo_holo(phases["morse"], 0.2,
                           VectorField(zero, zero.copy(), other))
    # a drift on an equal box is the same drift
    twin = PaddedGrid(half=6.0, n=512)
    same = cgo.build_cgo_holo(phases["morse"], 0.4,
                              VectorField(drift.c1, drift.c2, twin), q=qpot)
    assert np.array_equal(same.v.values, morse_sweep[0.4].v.values)


# ---------------------------------------------------------------------------
# the h-independent setup kept between calls


_MID = PaddedGrid(half=6.0, n=256)      # h_min of the Morse phase: 0.18
_FIELDS = ("v", "s", "r", "alpha")


def _mid_inputs():
    """Fresh (phase, drift, q) on the n = 256 box, for tests that write
    them in place."""
    X, Y = _MID.meshgrid()
    r2 = X * X + Y * Y
    b = np.exp(-r2 / 0.6)
    drift = VectorField(0.8 * b * np.cos(1.3 * X + 0.4 * Y),
                        -0.6 * b * np.sin(0.9 * Y - 0.2 * X), _MID)
    return (cgo.phase_spec((0.0, 0.0, -0.25), _MID, 0.1 - 0.05j), drift,
            0.25 * np.exp(-r2 / 0.7))


def _bytes(bundle) -> tuple:
    return tuple(np.asarray(getattr(getattr(bundle, f), "values",
                                    getattr(bundle, f))).tobytes()
                 for f in _FIELDS)


def _fresh(build, *args, **kwargs):
    cgo._SETUP.clear()
    return build(*args, **kwargs)


def _gauge_must_not_run(*args, **kwargs):
    raise AssertionError("the gauge was rebuilt for a new h")


def test_setup_hit_is_bitwise_a_fresh_build():
    phase, drift, q = _mid_inputs()
    _fresh(cgo.build_cgo_holo, phase, 0.4, drift, q=q)
    hit = cgo.build_cgo_holo(phase, 0.283, drift, q=q)
    fresh = _fresh(cgo.build_cgo_holo, phase, 0.283, drift, q=q)
    assert _bytes(hit) == _bytes(fresh)
    assert hit.term_norms == fresh.term_norms
    assert hit.residual == fresh.residual


def test_in_place_arithmetic_is_the_plain_formula_bitwise():
    # the padded-box half writes its box arrays in place; each must keep
    # the bits of the plain expression, whose temporaries numpy allocates
    # (and, for a temporary operand, writes into).  numpy's complex loops
    # round a product's two operand orders differently on some inputs:
    # the cubic phase and this drift are ones where they differ
    phase, _, q = _mid_inputs()
    cubic = cgo.phase_spec((0.3 + 0.2j, -1.1 + 0.4j, 0.125 - 0.3j,
                            0.05 + 0.02j), _MID, 0.1 - 0.05j)
    for ph in (phase, cubic):
        cs, w = ph.coeffs, _MID.zz - ph.center
        vals = dvals = np.zeros_like(w)
        for c in reversed(cs):
            vals = vals * w + c
        for c in reversed(tuple(k * cs[k] for k in range(1, len(cs)))):
            dvals = dvals * w + c
        assert np.array_equal(ph.values, vals)
        assert np.array_equal(ph.dvalues, dvals)

    X, Y = _MID.meshgrid()
    b = np.exp(-(X * X + Y * Y) / 0.6)
    drift = VectorField(0.7 * b * np.cos(1.3 * X + 0.4 * Y),
                        -0.5 * b * np.sin(0.9 * Y - 0.2 * X), _MID)
    src = 0.25j * (drift.c1 + 1j * drift.c2)
    sym = _wirtinger_symbol(_MID, 1, odd=False)
    sh = np.fft.fft2(src)
    mean = sh[0, 0] / _MID.n ** 2
    sym[0, 0] = 1.0
    sh = sh / sym
    sh[0, 0] = 0.0
    alpha = np.fft.ifft2(sh) + mean * np.conj(_MID.zz)
    assert np.array_equal(cgo.gauge(drift)[1].values, np.exp(1j * alpha))
    potential = (0.25 * (drift.c1 * drift.c1 + drift.c2 * drift.c2)
                 - np.fft.ifft2(_wirtinger_symbol(_MID, -1)
                                * np.fft.fft2(drift.c1 + 1j * drift.c2))
                 + q)
    assert np.array_equal(cgo.factor_potential(drift, q).values, potential)

    bundle = _fresh(cgo.build_cgo_holo, phase, 0.283, drift, q=q)
    assert np.array_equal(bundle.alpha, alpha)
    v = (np.exp(phase.values / 0.283 - 1j * alpha)
         * (bundle.amplitude + bundle.r.values))
    core = cgo._SETUP[0].windows.out
    assert np.array_equal(bundle.v.values[core], v[core])
    assert _zero_outside(bundle.v.values, core)


def test_the_kept_setup_is_freed_before_the_next_is_built(monkeypatch):
    # two setups (about 16 MB each on the 512 box) never coexist: _setup
    # holds no reference to the one it replaces
    phase, drift, q = _mid_inputs()
    _fresh(cgo.build_cgo_holo, phase, 0.4, drift, q=q)
    old = weakref.ref(cgo._SETUP[0])
    alive, init = [], cgo._Setup.__init__

    def spy(self, *args):
        alive.append(old() is not None)
        init(self, *args)
    monkeypatch.setattr(cgo._Setup, "__init__", spy)
    cgo.build_cgo_holo(phase, 0.4, drift, q=1.5 * q)
    assert alive == [False]


@pytest.mark.parametrize("target", ["drift", "q", "psi"])
def test_inputs_written_in_place_are_rebuilt(target):
    phase, drift, q = _mid_inputs()
    before = _fresh(cgo.build_cgo_holo, phase, 0.283, drift, q=q)
    written = {"drift": drift.c1, "q": q, "psi": phase.psi}[target]
    written *= 1.25
    after = cgo.build_cgo_holo(phase, 0.283, drift, q=q)
    fresh = _fresh(cgo.build_cgo_holo, phase, 0.283, drift, q=q)
    assert _bytes(after) == _bytes(fresh)
    assert before.r.values.tobytes() != after.r.values.tobytes()


def test_bundle_writes_cannot_reach_the_next_bundle():
    phase, drift, q = _mid_inputs()
    # the default amplitude is a read-only broadcast; a callable's is an
    # array of the bundle's own
    for amplitude in (None, lambda z: 1.0 + 0.25 * z):
        first = _fresh(cgo.build_cgo_holo, phase, 0.283, drift, q=q,
                       amplitude=amplitude)
        want = _bytes(first) + (first.amplitude.tobytes(),)
        for field in (first.v, first.s, first.r):
            field.values[:] = np.nan
        if amplitude is None:
            with pytest.raises(ValueError, match="read-only"):
                first.amplitude[0, 0] = np.nan
        else:
            first.amplitude[:] = np.nan
        # the gauge field is the kept setup's own, so it is read-only
        with pytest.raises(ValueError, match="read-only"):
            first.alpha[0, 0] = np.nan
        again = cgo.build_cgo_holo(phase, 0.283, drift, q=q,
                                   amplitude=amplitude)
        assert _bytes(again) + (again.amplitude.tobytes(),) == want


def test_a_bundle_allocates_no_box_array_beyond_its_outputs(box, phases,
                                                            drift, qpot):
    # with the setup warm, a bundle's box arrays are its outputs s, r and
    # v (G^-1 e^{Phi/h} is formed on the core window and embedded once,
    # the default amplitude is a broadcast): 3 box arrays.  The series,
    # the plan's weights, v's window, a + r and the residual's differences
    # live on windows of at most 341^2 nodes, under half a box array each,
    # and take at most 1.5 box arrays at once; the peak reads 3.78.  With
    # a G^-1 e^{Phi/h} temporary, an amplitude of ones and the plan kept
    # to the end, it read 5.33
    cgo.build_cgo_holo(phases["morse"], 0.4, drift, q=qpot)
    box_bytes = box.n ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        cgo.build_cgo_holo(phases["morse"], 0.283, drift, q=qpot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * box_bytes, peak / box_bytes


def _held(build):
    """build() and the bytes it leaves allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        out = build()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return out, held


def test_phase_spec_holds_one_box_array():
    # Phi is the one array kept, 16 n^2 bytes: psi is a view of its
    # imaginary part and dPhi/dz is evaluated when first read.  Keeping
    # dPhi/dz and a copy of psi held 40 n^2
    n2 = _MID.n ** 2
    cgo.phase_spec((0.0, 0.0, -0.25), _MID, 0.1 - 0.05j)
    phase, held = _held(
        lambda: cgo.phase_spec((0.0, 0.0, -0.25), _MID, 0.1 - 0.05j))
    assert held <= 16 * n2 + 4096, held / n2
    assert np.shares_memory(phase.psi, phase.values)
    assert phase.dvalues is phase.dvalues


def test_a_setup_holds_the_key_alpha_and_window_weights_alone():
    # with the kernel cache warm, a _Setup on the 256 box keeps the key's
    # four real box arrays (psi, X1, X2, q: 32 n^2 bytes) and alpha
    # (16 n^2); on the 171^2 input window V (16 B a node), E (8) and the
    # frame mask (1), and on the 85^2 core window V' (16) and the core
    # mask (1): 25 x 171^2 + 17 x 85^2 = 13.03 n^2.  61.03 n^2 in all,
    # plus the objects; with G^-1 kept beside alpha it held 77 n^2
    phase, drift, q = _mid_inputs()
    n2 = _MID.n ** 2
    cgo._Setup(_MID, phase.psi, drift, q)
    setup, held = _held(lambda: cgo._Setup(_MID, phase.psi, drift, q))
    assert held <= 61 * n2 + 16384, held / n2
    assert not hasattr(setup, "Ginv")


def test_a_setup_transforms_the_drift_once():
    # a _Setup built afresh (kernel cache warm) on the 256 box peaks at
    # 94.3 n^2 while it forms dz: the key (32 n^2), alpha (16), the
    # drift's one spectrum Y (16.25: its 4 KiB rows are padded), the dz
    # symbol (16) and window arrays.  Transforming the drift twice, as the
    # gauge's source and again for dz, peaked at 104.7 n^2
    phase, drift, q = _mid_inputs()
    n2 = _MID.n ** 2
    cgo._Setup(_MID, phase.psi, drift, q)
    tracemalloc.start()
    try:
        setup = cgo._Setup(_MID, phase.psi, drift, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 95 * n2, peak / n2
    alpha = setup.alpha
    assert alpha.flags.c_contiguous and not alpha.flags.writeable


def test_first_term_window_entry_is_the_full_box_route():
    # _bundle_at hands V a to the plan on the input window, where V lives;
    # the full-box route zero-fills the box and checks all of it.  The
    # drift reaches the window's frame; a zero drift and a potential
    # inside r < 1 leave V a on the core, which takes the smaller FFT
    phase, drift, q = _mid_inputs()
    X, Y = _MID.meshgrid()
    r2 = X * X + Y * Y
    zero = np.zeros((_MID.n, _MID.n))
    a = 1.0 + 0.25 * _MID.zz
    for X_, q_, on_frame in ((drift, q, True),
                             (VectorField(zero, zero.copy(), _MID),
                              np.where(r2 < 1.0, (1.0 - r2) ** 3, 0.0),
                              False)):
        setup = cgo._Setup(_MID, phase.psi, X_, q_)
        ws = setup.windows
        plan = cgo._OscPlan(ws, 0.283)
        Va = setup.Vin * a[ws.inp]
        assert (plan.weight * Va)[ws.frame].any() == on_frame
        box = np.zeros_like(a)
        box[ws.inp] = Va
        want = -cgo._dbar_star_inv(box, plan.apply)
        got = -cgo._dbar_star_inv(Va, plan.apply_window)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)),
                              np.signbit(want.view(float)))
        Va[ws.inner][4, 7] = np.inf
        with pytest.raises(GridError, match="non-finite"):
            plan.apply_window(Va)


def test_measurement_disk_is_the_eroded_core_on_its_window():
    # n = 20 and 23 are the smallest even and odd boxes that measure
    for grid in (_MID, PaddedGrid(half=3.0, n=64), PaddedGrid(half=3.0, n=63),
                 PaddedGrid(half=3.0, n=20), PaddedGrid(half=7.3, n=23)):
        x2 = grid.x * grid.x
        r = grid.half / 3.0 - 3.0 * grid.dx
        full = x2[:, None] + x2[None, :] <= r * r
        at, mask = cgo._measurement_disk(grid)
        assert np.array_equal(mask, full[at])
        full[at] = False
        assert not full.any()
        # at is the bounding box: the mask reaches each of its edges
        assert all(m.any() for m in (mask[0], mask[-1], mask[:, 0],
                                     mask[:, -1]))
    # rc = n dx / 6 <= 3 dx for n <= 18; on the odd boxes 19 and 21, whose
    # origin is no node, rc - 3 dx < dx / sqrt(2)
    for n in (16, 17, 18, 19, 21):
        with pytest.raises(GridError, match="no node to measure"):
            cgo._measurement_disk(PaddedGrid(half=3.0, n=n))


def test_fixed_core_keeps_every_window_inside_the_box():
    # with rc = half / 3 on any box, _OscWindows' input window, the data
    # window, grown by its one-node gradient halo, and the measurement box
    # grown by the differences' 2-node reach, need no clipping and no
    # wrap; E's support lies strictly inside the data region, and the core
    # holds a node.  PaddedGrid(1.0, 18) has nodes at |x| = 2 rc, the
    # region's edge, where E is 0.  The grown measurement box, which
    # drift_residual and cz_diagnostic read, lies inside the core window,
    # the only place a bundle forms v
    for half in (1.0, 3.0, 4.0, 6.0, 7.3):
        for n in (*range(16, 201), 512):
            grid = PaddedGrid(half=half, n=n)
            ws = _OscWindows(grid, np.zeros((n, n)))
            edge = half - half / 3.0
            at = np.flatnonzero(np.abs(grid.x) <= edge)
            assert ws.inp == (slice(at[0], at[-1] + 1),) * 2
            assert all(1 <= s.start and s.stop <= n - 1 for s in ws.inp)
            assert ws.core.any()
            E = smooth_cutoff(grid, half / 3.0, 2.0 * (half / 3.0))
            assert np.max(grid.cheb[E > 0]) < edge
            assert np.array_equal(ws.cutoff, E[ws.inp])
            if n <= 21 and n != 20:          # the boxes that measure no node
                with pytest.raises(GridError, match="no node to measure"):
                    cgo._measurement_disk(grid)
            else:
                at, _, grown, _ = cgo._disk_fd4(grid)
                assert all(2 <= s.start and s.stop <= n - 2 for s in at)
                assert all(o.start <= g.start and g.stop <= o.stop
                           for o, g in zip(ws.out, grown))


def test_unresolved_h_on_a_hit_names_the_minimal_h(monkeypatch):
    phase, drift, q = _mid_inputs()
    with pytest.raises(GridError, match="minimal admissible h") as fresh:
        _fresh(cgo.build_cgo_holo, phase, 0.1, drift, q=q)
    cgo.build_cgo_holo(phase, 0.4, drift, q=q)
    monkeypatch.setattr(cgo, "_gauge", _gauge_must_not_run)
    with pytest.raises(GridError, match="minimal admissible h") as hit:
        cgo.build_cgo_holo(phase, 0.1, drift, q=q)
    assert str(hit.value) == str(fresh.value)


@pytest.mark.parametrize("build", [cgo.build_cgo_holo, cgo.build_cgo_antiholo,
                                   cgo.build_cgo_adjoint])
def test_sweep_over_h_builds_the_gauge_once(monkeypatch, build):
    phase, drift, q = _mid_inputs()
    _fresh(build, phase, 0.4, drift, q=q)
    monkeypatch.setattr(cgo, "_gauge", _gauge_must_not_run)
    hit = build(phase, 0.283, drift, q=q)
    monkeypatch.undo()
    assert _bytes(hit) == _bytes(_fresh(build, phase, 0.283, drift, q=q))


def _bad_inputs(small: PaddedGrid):
    """Strategies for invalid build_cgo_holo inputs on the small box, each
    paired with the GridError message it must raise; a phase they draw
    replaces the small box's."""
    n = small.n
    X, Y = small.meshgrid()
    bump = np.exp(-(X * X + Y * Y) / 0.6)
    ok = VectorField(0.8 * bump, -0.6 * bump, small)
    node = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    bad_value = st.sampled_from([np.nan, np.inf, -np.inf])

    def poisoned(ij, value, base):
        out = np.array(base)
        out[ij] = value
        return out

    def drift_with(ij, value):
        return {"drift": VectorField(poisoned(ij, value, ok.c1), ok.c2, small)}

    # nodes with |x| > 4, the start of the 6 / 3 wraparound margin
    rim = st.one_of(st.integers(0, 10), st.integers(54, n - 1))
    not_positive = st.one_of(bad_value, st.floats(max_value=0.0))
    return {
        "h must be positive": st.fixed_dictionaries({
            "h": not_positive, "drift": st.sampled_from([None, ok])}),
        # on a box of n <= 18 the core radius half/3 is at most 3 dx, so
        # the 3-node erosion of the measurement disk leaves no node: the
        # residual used to be measured on the disk of radius 3 dx - rc
        "no node to measure": st.builds(
            lambda m: {"phase": cgo.phase_spec(
                (0.0, 0.0, -0.25), PaddedGrid(half=small.half, n=m))},
            st.integers(16, 18)),
        "non-finite q": st.builds(
            lambda ij, v: {"q": poisoned(ij, v, 0.25 * bump)}, node,
            bad_value),
        "q: shape": st.builds(lambda m: {"q": np.full((m, m), 0.1)},
                              st.sampled_from([1, n // 2, n + 1])),
        "non-finite amplitude": st.builds(
            lambda ij, v: {"amplitude": lambda z: poisoned(
                ij, v, np.ones((n, n), dtype=complex))},
            node, bad_value),
        "non-finite drift": st.builds(drift_with, node, bad_value),
        "wraparound": st.builds(drift_with,
                                st.tuples(rim, st.integers(0, n - 1)),
                                st.just(1.0)),
    }


_SMALL = PaddedGrid(half=6.0, n=64)
_BAD = _bad_inputs(_SMALL)
# the adjoint takes no amplitude
_ADJOINT_BAD = {message: inputs for message, inputs in _BAD.items()
                if message != "non-finite amplitude"}


# the 2-D transforms of the spectral calculus and the 1-D ones of the
# pruned Cauchy convolution
_FFTS = ("fft2", "ifft2", "fft", "ifft")


def _no_fft(*args, **kwargs):
    raise AssertionError("an FFT ran before the input guards")


@settings(max_examples=25)
@given(data=st.data())
def test_bad_inputs_fail_before_any_fft(data):
    phase = cgo.phase_spec((0.0, 0.0, -0.25), _SMALL)
    # every guard fires before numpy could warn about the bad value
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name in _FFTS:
            mp.setattr(np.fft, name, _no_fft)
        for message, inputs in _BAD.items():
            kw = {"phase": phase, "h": 0.4, "drift": None,
                  **data.draw(inputs, label=message)}
            with pytest.raises(GridError, match=message):
                cgo.build_cgo_holo(**kw)


@settings(max_examples=25)
@given(data=st.data())
def test_adjoint_bad_inputs_fail_before_any_fft(data):
    # the adjoint takes a spectral divergence of the drift, so its guards
    # must run before that: count every FFT up to each refusal
    phase = cgo.phase_spec((0.0, 0.0, -0.25), _SMALL)
    calls = []

    def counted(fft):
        def call(*args, **kwargs):
            calls.append(fft.__name__)
            return fft(*args, **kwargs)
        return call
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name in _FFTS:
            mp.setattr(np.fft, name, counted(getattr(np.fft, name)))
        for message, inputs in _ADJOINT_BAD.items():
            kw = {"phase": phase, "h": 0.4, "drift": None,
                  **data.draw(inputs, label=message)}
            with pytest.raises(GridError, match=message):
                cgo.build_cgo_adjoint(**kw)
            assert not calls, message


# caps DEPTH_CAP = 0 and 1 are out of range by design: at the strongest
# corner they leave residuals of 3.2e-3 and 2.7e-4; a cap of 2 or more
# gives at most 3.8e-5
@settings(max_examples=7)
@example(h=0.4, cap=2, a1=1.0, a2=0.75, q0=0.35, cx=0.15, cy=-0.15)
@given(h=st.floats(0.141, 0.4), cap=st.integers(2, 6),
       a1=st.floats(0.6, 1.0), a2=st.floats(0.45, 0.75),
       q0=st.floats(0.15, 0.35), cx=st.floats(-0.15, 0.15),
       cy=st.floats(-0.15, 0.15))
def test_in_range_bundles_solve_or_name_the_fault(box, coords, h, cap, a1,
                                                  a2, q0, cx, cy):
    # the cgo-sweep ranges: a finite bundle with a small residual, or a
    # GridError that names its cause
    X, Y, r2 = coords
    bump = np.exp(-r2 / 0.6)
    drift = VectorField(a1 * bump * np.cos(1.3 * X + 0.4 * Y),
                        -a2 * bump * np.sin(0.9 * Y - 0.2 * X), box)
    phase = cgo.phase_spec((0.0, 0.0, -0.25), box, complex(cx, cy))
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cgo, "DEPTH_CAP", cap)
            b = cgo.build_cgo_holo(phase, h, drift, q=q0 * np.exp(-r2 / 0.7))
    except GridError as err:
        assert str(err)
        return
    for field in (b.v, b.r, b.s):
        assert np.all(np.isfinite(field.values))
    assert b.residual <= 1e-4


def test_import_loads_no_domain_solver():
    code = ("import sys, malab.cgo; print(sorted(m for m in sys.modules if "
            "m.split('.')[0] == 'scipy' or m in ('malab.linearize', "
            "'malab.maforward')))")
    env = {**os.environ,
           "PYTHONPATH": str(pathlib.Path(cgo.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_bundle_diagnostics_json(morse_sweep):
    b = morse_sweep[0.4]
    assert b.kind == "holo"
    assert b.phase.has_critical_point is True
    assert 1 <= b.K_effective < cgo.DEPTH_CAP
    assert len(b.term_norms) == b.K_effective + 1


# ---------------------------------------------------------------------------
# antiholomorphic and adjoint bundles


def test_antiholo_is_conjugate_of_negated_holo(box, phases, drift, qpot):
    anti = cgo.build_cgo_antiholo(phases["cp_free"], 0.283, drift, q=qpot)
    holo = cgo.build_cgo_holo(phases["cp_free"].negated(), 0.283, drift,
                              q=qpot)
    assert np.array_equal(anti.v.values, np.conj(holo.v.values))
    assert np.array_equal(anti.r.values, np.conj(holo.r.values))
    assert anti.kind == "antiholo"
    assert anti.residual <= 2e-5        # measured 3.8e-6


def test_antiholo_amplitude_is_a_read_only_broadcast(phases, drift):
    # the conjugate of the holo bundle's constant is no box array either
    anti = cgo.build_cgo_antiholo(phases["cp_free"], 0.283, drift)
    holo = cgo.build_cgo_holo(phases["cp_free"].negated(), 0.283, drift)
    a = anti.amplitude
    assert a.strides == (0, 0) and not a.flags.writeable
    ref = np.conj(holo.amplitude)
    assert a.shape == ref.shape and a.dtype == ref.dtype
    assert a.tobytes() == ref.tobytes()


def test_antiholo_rejects_complex_potential(box, phases, drift):
    with pytest.raises(GridError):
        cgo.build_cgo_antiholo(phases["cp_free"], 0.283, drift, q=0.1j)


def test_adjoint_bundle_solves_divergence_form(box, phases, drift, qpot):
    bundle = cgo.build_cgo_adjoint(phases["adjoint_partner"], 0.283, drift,
                                   q=qpot)
    assert bundle.kind == "adjoint"
    assert bundle.residual <= 2e-5      # measured 5.2e-6


def test_adjoint_duality_quadrature(box, coords, phases, drift, qpot):
    # integral of (u L v - v L* u) for cut-off fields; spectral adjointness
    # under uniform quadrature, measured 4e-14
    X, Y, r2 = coords
    chi = np.exp(-r2 / 0.8)
    u = chi * cgo.build_cgo_adjoint(phases["adjoint_partner"], 0.283, drift,
                                    q=qpot).v.values
    v = chi * cgo.build_cgo_holo(phases["cp_free"], 0.283, drift,
                                 q=qpot).v.values

    def lfwd(w):
        return (-(spectral_deriv(w, box, 2, 0) + spectral_deriv(w, box, 0, 2))
                + drift.c1 * spectral_deriv(w, box, 1, 0)
                + drift.c2 * spectral_deriv(w, box, 0, 1) + qpot * w)

    def ladj(w):
        return (-(spectral_deriv(w, box, 2, 0) + spectral_deriv(w, box, 0, 2))
                - spectral_deriv(drift.c1 * w, box, 1, 0)
                - spectral_deriv(drift.c2 * w, box, 0, 1) + qpot * w)

    gap = abs(box.quadrature(u * lfwd(v) - v * ladj(u)))
    scale = abs(box.quadrature(np.abs(u * lfwd(v))))
    assert gap <= 1e-10 * scale


# ---------------------------------------------------------------------------
# expansion and diagnostics


def test_remainder_expansion_slopes(box, coords, phases):
    # away from critical points the oscillatory inverse is e^{-2i psi/h}
    # sum_j h^j F_j, so the series cut after N terms leaves O(h^(N + 1)):
    # slope N + 1 over the four h of HS; measured slopes 2.22 (N=1) and
    # 3.14 (N=2) against N + 0.8
    X, Y, _ = coords
    f = ComplexField(np.exp(-((X - 1.1) ** 2 + Y * Y) / 0.25)
                     .astype(complex), box)
    psi = phases["cp_free"].psi
    for N in (1, 2):
        Fs = cgo.remainder_expansion(phases["cp_free"], f, N)
        assert len(Fs) == N + 1
        errs = []
        for h in HS:
            osc = oscillatory_dbar_inv(f, psi, h)
            ser = sum(h ** (j + 1) * Fs[j].values for j in range(N))
            ser = ser * np.exp(-2j * psi / h)
            errs.append(l2(box, osc.values - ser))
        assert fit_slope(HS, errs) >= N + 0.8


def test_expansion_leading_term_formula(box, coords, phases):
    X, Y, _ = coords
    fv = np.exp(-((X - 1.1) ** 2 + Y * Y) / 0.25).astype(complex)
    f = ComplexField(fv, box)
    F1 = cgo.remainder_expansion(phases["cp_free"], f, 0)[0]
    supp = np.abs(fv) > 1e-12 * float(np.max(np.abs(fv)))
    ref = fv[supp] / np.conj(phases["cp_free"].dvalues[supp])
    assert np.allclose(F1.values[supp], ref, atol=1e-13)


def test_expansion_rejects_critical_point_on_support(box, coords, phases):
    _, _, r2 = coords
    centered = ComplexField(np.exp(-r2 / 0.25).astype(complex), box)
    with pytest.raises(GridError, match="vanishes"):
        cgo.remainder_expansion(phases["morse"], centered, 1)
    with pytest.raises(GridError):
        cgo.remainder_expansion(
            phases["cp_free"],
            ComplexField(np.zeros((box.n, box.n), dtype=complex), box), 1)


@pytest.mark.parametrize("N", [1.5, np.float64(2.0), -1])
def test_expansion_rejects_a_non_integer_order(N):
    # 1.5 used to raise a bare TypeError
    g = PaddedGrid(half=6.0, n=32)
    f = ComplexField(np.ones((g.n, g.n), dtype=complex), g)
    with pytest.raises(GridError, match="N must be a non-negative integer"):
        cgo.remainder_expansion(cgo.phase_spec((0.0, 1.0), g), f, N)


def test_cz_diagnostic_bounded_on_sweep(morse_sweep):
    # measured 0.38 .. 0.30 over the sweep: flat within a factor 2
    vals = [cgo.cz_diagnostic(morse_sweep[h]) for h in HS]
    assert max(vals) <= 2.0 * min(vals)


def test_cz_diagnostic_matches_the_full_box_formula(box, coords, morse_sweep):
    # the differences run on the measurement disk's window grown by their
    # 2-node reach; the periodic differences of the whole box, the bump
    # from the box's coordinates and the box-wide disk mask give the same
    # value to rounding (measured within 1 ulp)
    _, _, r2 = coords
    rc = box.half / 3.0
    disk = box.core_mask(rc - 3.0 * box.dx)
    for h in HS:
        rv = morse_sweep[h].r.values
        rxx = periodic_fd4(rv, box, 0, 2)
        ryy = periodic_fd4(rv, box, 1, 2)
        rxy = periodic_fd4(periodic_fd4(rv, box, 0, 1), box, 1, 1)
        mass = np.sqrt(np.abs(rxx) ** 2 + 2.0 * np.abs(rxy) ** 2
                       + np.abs(ryy) ** 2)
        bump = np.exp(-4.0 * r2 / rc ** 2) * disk
        want = l2(box, bump * mass) * h ** (0.5 - cgo.CZ_EPS)
        got = cgo.cz_diagnostic(morse_sweep[h])
        assert abs(got - want) <= 1e-13 * want, (h, got, want)
