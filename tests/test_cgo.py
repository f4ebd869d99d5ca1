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
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from malab import cgo
from malab.complexcalc import (_bounding_slices, oscillatory_dbar_inv,
                               periodic_fd4, spectral_deriv)
from malab.grid import ComplexField, GridError, PaddedGrid, build_disk
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
    window = _bounding_slices(box.core_mask(box.half / 3.0))
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
    # zero drift and potential run the full series, whose terms are all zero
    bundle = cgo.build_cgo_holo(phases["morse"], 0.2)
    assert np.array_equal(bundle.r.values, np.zeros_like(bundle.r.values))
    assert np.array_equal(bundle.v.values,
                          np.exp(phases["morse"].values / 0.2))
    assert bundle.K_effective == bundle.K == cgo.DEPTH_DEFAULT
    assert bundle.term_norms == (0.0,) * (bundle.K + 1)
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


def test_residual_decreases_with_depth(box, phases, drift, qpot):
    # measured 4.1e-4, 2.0e-5, 1.05e-5, then flat at the truncation floor
    res = [cgo.build_cgo_holo(phases["morse"], 0.283, drift, q=qpot,
                              K=k).residual for k in range(7)]
    for k in range(6):
        assert res[k + 1] <= res[k] * 1.02
    assert res[2] <= res[0] / 10.0


def test_remainder_rebuilds_bitwise(box, morse_sweep, drift, qpot):
    bundle = morse_sweep[0.283]
    _, vp = cgo.series_weights(bundle.alpha, drift, qpot)
    redo = -oscillatory_dbar_inv(
        ComplexField(vp.values * bundle.s.values, box),
        bundle.phase.psi, bundle.h, bundle.core_radius).values
    assert np.array_equal(bundle.r.values, redo)


def test_windowed_series_equals_full_box_rebuild(box, morse_sweep, drift,
                                                qpot):
    # the series rebuilt on the full box from the public transforms; the
    # bundle runs every term after the first on the core window and embeds
    # s and r once, with the same arithmetic at every node
    bundle = morse_sweep[0.283]
    psi, h, rc = bundle.phase.psi, bundle.h, bundle.core_radius
    V, vp = (w.values for w in cgo.series_weights(bundle.alpha, drift, qpot))

    def osc(vals):
        return oscillatory_dbar_inv(ComplexField(vals, box), psi, h, rc).values

    def osc_star(vals):
        # the inverse of dzb* = -2 dz: conj o osc o conj, times -1/2
        return -0.5 * np.conj(osc(np.conj(vals)))

    terms = [-osc_star(V * bundle.amplitude)]
    for _ in range(bundle.K):
        terms.append(osc_star(osc(vp * terms[-1]) * V))
    s = sum(terms[:bundle.K_effective + 1])
    r = -osc(vp * s)
    assert s.tobytes() == bundle.s.values.tobytes()
    assert r.tobytes() == bundle.r.values.tobytes()


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
                                  b.core_radius, conservative)
            got = cgo.drift_residual(b.v.values, drift, qpot, h, box,
                                     b.core_radius, conservative)
            assert abs(got - want) <= 1e-14 * want
    # a core radius whose measurement box, grown by 2 nodes, wraps around
    # the seam (rc - 3 dx = 2.92 reaches the second node from the edge)
    small = PaddedGrid(half=3.0, n=64)
    rng = np.random.default_rng(3)
    vals, c1, c2, q = (rng.standard_normal((64, 64)) for _ in range(4))
    vals = vals + 1j * rng.standard_normal((64, 64))
    X = VectorField(c1, c2, small)
    for conservative in (False, True):
        want = _roll_residual(vals, X, q, 0.3, small, 3.2, conservative)
        got = cgo.drift_residual(vals, X, q, 0.3, small, 3.2, conservative)
        assert abs(got - want) <= 1e-14 * want
    # odd n: the origin is not a node, so a measurement radius of 0 holds none
    odd = PaddedGrid(half=3.0, n=63)
    ones = np.ones((63, 63))
    with pytest.raises(GridError, match="no node to measure"):
        cgo.drift_residual(ones, VectorField(ones, ones, odd), 0.0, 0.3, odd,
                           3.0 * odd.dx)
    # h = -0.3 used to give h = 0.3's residual, h = 0 a ZeroDivisionError and
    # nan a nan; a drift from another box was read on this one, and a q of
    # another shape raised numpy's broadcast ValueError
    for h in (-0.3, 0.0, np.nan):
        with pytest.raises(GridError, match="h must be positive"):
            cgo.drift_residual(vals, X, q, h, small, 2.0)
    with pytest.raises(GridError, match="different grid"):
        cgo.drift_residual(vals, VectorField(ones, ones, odd), q, 0.3, small,
                           2.0)
    with pytest.raises(GridError, match="q: shape"):
        cgo.drift_residual(vals, X, ones, 0.3, small, 2.0)
    # a (63, 63) candidate used to return a residual, a (64,) vector a bare
    # IndexError and a NaN field nan
    with pytest.raises(GridError, match="drift_residual: shape"):
        cgo.drift_residual(ones, X, 0.0, 0.3, small, 2.0)
    with pytest.raises(GridError, match="drift_residual: shape"):
        cgo.drift_residual(vals[0], X, q, 0.3, small, 2.0)
    nan = vals.copy()
    nan[30, 30] = np.nan
    with pytest.raises(GridError, match="drift_residual: non-finite"):
        cgo.drift_residual(nan, X, q, 0.3, small, 2.0)
    # periodic_fd4 is the sliced kernel on a wrap-padded array, node for node
    for axis in (0, 1):
        for order in (1, 2):
            assert np.array_equal(periodic_fd4(vals, small, axis, order),
                                  _roll_fd4(vals, small.dx, axis, order))


def test_series_decay_recorded(morse_sweep):
    norms = morse_sweep[0.283].term_norms
    assert len(norms) == 7
    assert all(norms[j + 1] < norms[j] for j in range(6))
    assert morse_sweep[0.283].K_effective == 6


def test_nondecreasing_series_warns_and_truncates(box, coords, phases):
    # amplitude 16 drift pushes the operator norm past 1; measured terms
    # 3.9, 6.6, ... with the minimum at the leading term
    X, Y, r2 = coords
    b = np.exp(-r2 / 0.6)
    strong = VectorField(16.0 * b * np.cos(1.3 * X + 0.4 * Y),
                         -12.0 * b * np.sin(0.9 * Y - 0.2 * X), box)
    with pytest.warns(RuntimeWarning, match="truncating"):
        bundle = cgo.build_cgo_holo(phases["morse"], 0.4, strong, K=4)
    assert bundle.K_effective < 4


def test_holomorphic_amplitude_accepted_and_stored(box, phases, drift):
    bundle = cgo.build_cgo_holo(phases["cp_free"], 0.283, drift,
                                amplitude=lambda z: 1.0 + 0.25 * z)
    assert np.array_equal(bundle.amplitude, 1.0 + 0.25 * box.zz)


def test_antiholomorphic_amplitude_rejected(box, phases, drift):
    with pytest.raises(GridError, match="holomorphic"):
        cgo.build_cgo_holo(phases["cp_free"], 0.283, drift,
                           amplitude=lambda z: np.conj(z))


def test_bundle_input_guards(box, phases, drift, qpot, morse_sweep):
    with pytest.raises(GridError):
        cgo.build_cgo_holo(phases["morse"], 0.0, drift)
    with pytest.raises(GridError):
        cgo.build_cgo_holo(phases["morse"], 0.2, drift, K=-1)
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
    first = _fresh(cgo.build_cgo_holo, phase, 0.283, drift, q=q)
    want = _bytes(first)
    for field in (first.v, first.s, first.r):
        field.values[:] = np.nan
    first.amplitude[:] = np.nan
    # the gauge field is the kept setup's own, so it is read-only
    with pytest.raises(ValueError, match="read-only"):
        first.alpha[0, 0] = np.nan
    assert _bytes(cgo.build_cgo_holo(phase, 0.283, drift, q=q)) == want


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
        "series depth": st.fixed_dictionaries({
            "K": st.one_of(st.integers(max_value=-1), st.floats(),
                           st.just(1.5))}),
        "q: non-finite": st.builds(
            lambda ij, v: {"q": poisoned(ij, v, 0.25 * bump)}, node,
            bad_value),
        "q: shape": st.builds(lambda m: {"q": np.full((m, m), 0.1)},
                              st.sampled_from([1, n // 2, n + 1])),
        "amplitude: non-finite": st.builds(
            lambda ij, v: {"amplitude": ComplexField(
                poisoned(ij, v, np.ones((n, n), dtype=complex)), small)},
            node, bad_value),
        "gauge: non-finite": st.builds(drift_with, node, bad_value),
        "wraparound": st.builds(drift_with,
                                st.tuples(rim, st.integers(0, n - 1)),
                                st.just(1.0)),
    }


_SMALL = PaddedGrid(half=6.0, n=64)
_BAD = _bad_inputs(_SMALL)
# the adjoint takes no amplitude and no series depth
_ADJOINT_BAD = {message: inputs for message, inputs in _BAD.items()
                if message not in ("series depth", "amplitude: non-finite")}


def _no_fft(*args, **kwargs):
    raise AssertionError("an FFT ran before the input guards")


@settings(max_examples=25)
@given(data=st.data())
def test_bad_inputs_fail_before_any_fft(data):
    phase = cgo.phase_spec((0.0, 0.0, -0.25), _SMALL)
    # every guard fires before numpy could warn about the bad value
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mp.setattr(np.fft, "fft2", _no_fft)
        mp.setattr(np.fft, "ifft2", _no_fft)
        for message, inputs in _BAD.items():
            kw = {"phase": phase, "h": 0.4, "drift": None,
                  **data.draw(inputs, label=message)}
            with pytest.raises(GridError, match=message):
                cgo.build_cgo_holo(**kw)


@settings(max_examples=25)
@given(data=st.data())
def test_adjoint_bad_inputs_fail_before_any_fft(data):
    # the adjoint takes a spectral divergence of the drift, so its guards
    # must run before that: count every fft2 up to each refusal
    phase = cgo.phase_spec((0.0, 0.0, -0.25), _SMALL)
    calls, fft2 = [], np.fft.fft2

    def counted(*args, **kwargs):
        calls.append(1)
        return fft2(*args, **kwargs)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mp.setattr(np.fft, "fft2", counted)
        for message, inputs in _ADJOINT_BAD.items():
            kw = {"phase": phase, "h": 0.4, "drift": None,
                  **data.draw(inputs, label=message)}
            with pytest.raises(GridError, match=message):
                cgo.build_cgo_adjoint(**kw)
            assert len(calls) == 0, message


# K = 0 and 1 are out of range by design: at the strongest corner they leave
# residuals of 3.2e-3 and 2.7e-4; K >= 2 gives at most 3.8e-5
@settings(max_examples=7)
@example(h=0.4, K=2, a1=1.0, a2=0.75, q0=0.35, cx=0.15, cy=-0.15)
@given(h=st.floats(0.141, 0.4), K=st.integers(2, 6),
       a1=st.floats(0.6, 1.0), a2=st.floats(0.45, 0.75),
       q0=st.floats(0.15, 0.35), cx=st.floats(-0.15, 0.15),
       cy=st.floats(-0.15, 0.15))
def test_in_range_bundles_solve_or_name_the_fault(box, coords, h, K, a1, a2,
                                                  q0, cx, cy):
    # the cgo-sweep ranges: a finite bundle with a small residual, or a
    # GridError that names its cause
    X, Y, r2 = coords
    bump = np.exp(-r2 / 0.6)
    drift = VectorField(a1 * bump * np.cos(1.3 * X + 0.4 * Y),
                        -a2 * bump * np.sin(0.9 * Y - 0.2 * X), box)
    phase = cgo.phase_spec((0.0, 0.0, -0.25), box, complex(cx, cy))
    try:
        b = cgo.build_cgo_holo(phase, h, drift, q=q0 * np.exp(-r2 / 0.7), K=K)
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
    assert b.K_effective == 6
    assert len(b.term_norms) == 7


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
    # measured slopes 2.22 (N=1) and 3.14 (N=2) against N + 0.8
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


def test_cz_diagnostic_bounded_on_sweep(morse_sweep):
    # measured 0.38 .. 0.30 over the sweep: flat within a factor 2
    vals = [cgo.cz_diagnostic(morse_sweep[h]) for h in HS]
    assert max(vals) <= 2.0 * min(vals)
