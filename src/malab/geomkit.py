"""Diffeomorphisms, pullbacks, isothermal charts, and the rigidity solve.

Conventions. A MetricField stores the contravariant components g^{ab}
(that is how the solution-induced geometry arrives from the linearized
solver), so the covariant tensor (the conformality defect of a chart,
the Beltrami coefficient) is the nodewise 2x2 inverse of the stored one.
Metrics written mathematically, like e^{2 sigma} I, are therefore handed
in through their contravariant representation e^{-2 sigma} I.

Diffeomorphisms are stored through their displacement, J(x) = x + d(x):
the Jacobian of the identity is then exact, spectral differentiation of
d stays legitimate on periodic boxes (the map itself grows linearly and
has no Fourier series), and deviation-from-identity readings are direct.
Pullbacks sample on the periodic box with the lattice's one cubic
sampler (grid._CubicBlock: local 4x4 Lagrange blocks, indices wrapped
through the period), so lattice points and cubic polynomials are
reproduced exactly; fields sampled at the same points share one block.
Inverse maps come from a per-node chord (simplified Newton) step on the
inverse displacement e = z - p, which samples the displacement only at
the nodes still moving and reads the matrix of the step, the inverse of
the lattice Jacobian at the nearest node, from one array formed per
call; on e, not on z, so a tiny displacement does not stall at ulp(p).
Its first step moves no node past max|d|, taking the plain fixed point
e = -d(p) where the chord would; it takes about half the sampled steps
of that fixed point, and needs no bound on sup |dJ - I|: it refuses a map only where
a Jacobian it reads folds, or where it stalls or runs out of steps, and
on the quartic family it converges beyond sup |dJ - I| = 1.
They are defined on the box's data region (grid.PaddedGrid.data_window)
and are the identity in the wraparound margin outside it: a preimage
there aliases through the period, and a displacement that decays like
c/z (a Cauchy transform) jumps across the box seam, where no sampler
can be trusted. Maps whose displacement exceeds the
wraparound margin of the box are rejected, since their images alias
through the period, and so are non-finite displacements and Jacobians.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .complexcalc import (_cauchy_conv, _fft_size, _kernel_hat,
                          _support_guard, _window_to_box, cauchy_inverse,
                          deriv)
from .grid import (ComplexField, DomainGrid, GridError, MetricField,
                   PaddedGrid, ScalarField, VectorField, _CubicBlock,
                   _erode, _on_lattice, _require_finite, _require_grid,
                   _require_metric, _require_same_grid, lattice_values)
from .linearize import divergence_form_apply, nondiv_solve_many
from .maforward import _gmres


# isothermal: the conformality defect over the box's core disk as a
# fraction of the metric scale, the distance from 1 that the Beltrami
# coefficient must keep, and its GMRES's relative residual and Krylov
# budget (143 iterations reach 1 - BELTRAMI_MARGIN on the n = 256 box)
CONFORMAL_TOL = 1e-2
BELTRAMI_MARGIN = 0.1
BELTRAMI_RTOL = 1e-13
BELTRAMI_MAX_ITER = 160

# invert_diffeo: a node's move, relative to the displacement scale, at
# which it freezes, and the chord iteration's step budget
INVERSION_RTOL = 1e-12
INVERSION_MAX_ITER = 80

# the Beltrami solve's window-to-window kernel of the box used last, in a
# cache of its own, so _kernel_hat's keeps its eviction order
_beltrami_kernel = functools.lru_cache(maxsize=1)(_kernel_hat.__wrapped__)


def _covariant(g: MetricField):
    """Nodewise inverse of the stored contravariant components."""
    det = _require_metric(g)
    return g.g22 / det, -g.g12 / det, g.g11 / det


# ---------------------------------------------------------------------------
# diffeomorphisms and pullbacks


class DiffeoField:
    """Planar map J(x) = x + d(x) through its displacement components.

    An explicit Jacobian may be attached when the caller knows it in
    closed form (affine maps, Beltrami solutions), as its four entries
    (j11, j12, j21, j22), each a scalar or a lattice array; otherwise it
    is computed once from the displacement with the grid's derivative
    (deriv) and cached.
    """

    def __init__(self, d1, d2, grid, jac=None):
        self.d1, self.d2 = (_on_lattice(d, grid, "displacement", float)
                            for d in (d1, d2))
        _require_finite("displacement", self.d1, self.d2)
        self.grid = grid
        self._jac = None if jac is None else _attached_jacobian(jac, grid)

    @classmethod
    def identity(cls, grid) -> "DiffeoField":
        z = np.zeros((grid.n, grid.n))
        one = np.ones_like(z)
        return cls(z, z.copy(), grid, jac=(one, z, z, one))

    def points(self):
        X, Y = self.grid.meshgrid()
        return X + self.d1, Y + self.d2

    def jacobian(self):
        """Entries (j11, j12, j21, j22) of dJ^a/dx^b, cached."""
        if self._jac is None:
            g = self.grid
            d1, d2 = self.d1, self.d2
            self._jac = (1.0 + deriv(d1, g, 1, 0), deriv(d1, g, 0, 1),
                         deriv(d2, g, 1, 0), 1.0 + deriv(d2, g, 0, 1))
        return self._jac


def _attached_jacobian(jac, grid) -> tuple:
    """The four entries of an attached Jacobian as read-only (n, n)
    views; a GridError unless there are four, each finite and a scalar or
    of the lattice's shape."""
    jac = tuple(jac)
    if len(jac) != 4:
        raise GridError("attached Jacobian needs 4 entries (j11, j12, j21, "
                        f"j22), got {len(jac)}")
    jac = tuple(np.asarray(a, dtype=float) for a in jac)
    _require_finite("attached Jacobian", *jac)
    return tuple(np.broadcast_to(
        a if a.ndim == 0 else _on_lattice(a, grid, "attached Jacobian"),
        (grid.n, grid.n)) for a in jac)


def _check_reach(J: DiffeoField):
    grid = _require_grid(J.grid, PaddedGrid, "a pullback or inversion")
    margin = grid.core_radius           # the wraparound margin's width
    reach = float(np.max(np.hypot(J.d1, J.d2)))
    if reach > margin:
        raise GridError(
            f"map displaces nodes by {reach:.3f}, beyond the wraparound "
            f"margin {margin:.3f} of the box; images alias through the period")


def _inverse_jacobian(J: DiffeoField):
    j11, j12, j21, j22 = J.jacobian()
    det = j11 * j22 - j12 * j21
    if np.min(det) <= 0.0:
        raise GridError("map is not orientation preserving")
    return j22 / det, -j12 / det, -j21 / det, j11 / det


def _transport(B, comps):
    """The transport law with B = (dJ)^{-1} at the nodes: B x for the
    components (x1, x2) of a vector, B S B^T for the stored components
    (s11, s12, s22) of a symmetric tensor."""
    b11, b12, b21, b22 = B
    if len(comps) == 2:
        x1, x2 = comps
        return b11 * x1 + b12 * x2, b21 * x1 + b22 * x2
    t11, t12, t22 = comps
    return (b11 * b11 * t11 + 2.0 * b11 * b12 * t12 + b12 * b12 * t22,
            b11 * b21 * t11 + (b11 * b22 + b12 * b21) * t12 + b12 * b22 * t22,
            b21 * b21 * t11 + 2.0 * b21 * b22 * t12 + b22 * b22 * t22)


def pullback_metric(J: DiffeoField, g: MetricField) -> MetricField:
    """J* g = (dJ)^T (g o J) dJ, carried out on the stored components.

    The covariant law above turns into B (S o J) B^T for the stored
    contravariant tensor S, with B the inverse Jacobian. g must live on
    J's box (an equal box is the same box). S o J is sampled only at the
    nodes J moves; at a fixed node the sampler would return S bitwise, so
    S is copied there (an invert_diffeo chart fixes its whole margin).
    """
    _require_grid(J, DiffeoField, "pullback_metric")
    _require_grid(g, MetricField, "pullback_metric")
    _check_reach(J)
    _require_same_grid(J.grid, "metric", g)
    _require_metric(g, definite=False)
    t = np.stack([g.g11, g.g12, g.g22])
    moved = np.flatnonzero((J.d1 != 0.0) | (J.d2 != 0.0))
    at = _CubicBlock(J.grid, *(p.reshape(-1)[moved] for p in J.points()))
    t.reshape(3, -1)[:, moved] = at(t)
    return MetricField(*_transport(_inverse_jacobian(J), t), J.grid)


def invert_diffeo(J: DiffeoField) -> DiffeoField:
    """Inverse map on the same lattice by a chord step on the displacement.

    The inverse is defined on the box's data region only, the nodes of
    grid.data_window along both axes, inside the wraparound margin that
    _check_reach and the Cauchy transform's support guard also keep.
    There z + d(z) = p has a preimage that cannot alias through the
    period; nodes in the margin get the identity, displacement 0 and
    Jacobian I exactly.

    Solves e + d(p + e) = 0 for the inverse displacement e = z - p per
    region node by the chord (simplified Newton) step
    e <- e - M_q (e + d(p + e)), where M_q is the inverse of J's lattice
    Jacobian at the node q nearest the current preimage p + e, formed once
    on the box. So a step samples d alone, like the plain fixed point
    e <- -d(p + e), and contracts by the Jacobian's change between the
    preimage and its nearest node, not by sup |grad d|. It runs on e, not
    on z: a residual z + d(z) - p cancels down to ulp(p), which the moves
    of a tiny displacement never get below. A step that reads a Jacobian
    with det <= 0 refuses the map. Each node freezes once its own move is
    within INVERSION_RTOL of the displacement scale, and every step
    samples d at the still-moving nodes only. The first step starts at
    the nodes themselves, where the sampler returns the stored d bitwise,
    so it reads d directly and builds no block; a node it would move past
    max|d| takes the plain fixed point instead. The step's largest move is also the largest over the region,
    since frozen nodes moved within INVERSION_RTOL, so the stall and
    exhaustion checks read it unchanged.
    The loop ends when every node is frozen, at the second stall, or when
    its step budget runs out; in the last two cases the one refusal
    raises unless the last move is within the jitter floor. No bound on
    sup |dJ - I| is asked for up front. The inverse Jacobian
    is the nodewise matrix inverse of dJ sampled at the preimage, so no
    derivative of the computed inverse displacement is ever taken.
    """
    _require_grid(J, DiffeoField, "invert_diffeo")
    _check_reach(J)
    grid, n = J.grid, J.grid.n
    jac = np.stack(J.jacobian())
    j11, j12, j21, j22 = jac
    # the chord's matrices; NaN where the map folds, for the step to refuse
    det = j11 * j22 - j12 * j21
    chord = (np.stack([j22, -j12, -j21, j11])
             / np.where(det > 0.0, det, np.nan)).reshape(4, -1)
    disp = np.stack([J.d1, J.d2])
    # the data region's nodes, in row-major order
    win = grid.data_window
    ri, ci = np.mgrid[win, win].reshape(2, -1)
    p1, p2 = grid.x[ri], grid.x[ci]
    e1, e2 = np.zeros(ri.size), np.zeros(ri.size)
    d1, d2 = disp[:, win, win].reshape(2, -1)
    active = np.arange(ri.size)
    scale = max(float(np.max(np.hypot(J.d1, J.d2))), 1e-300)
    # the iteration contracts down to the resampling jitter of the
    # displacement; a stall far below any downstream tolerance is
    # convergence, a stall above it is a genuine failure
    floor, prev, stall = 1e-6 * scale, np.inf, 0
    for k in range(INVERSION_MAX_ITER):
        ea1, ea2 = e1[active], e2[active]
        if k:
            at = _CubicBlock(grid, p1[active] + ea1, p2[active] + ea2)
            d1, d2 = at(disp)
            del at              # one block alive at a time bounds the peak
        q = ((ri[active] + np.rint(ea1 / grid.dx).astype(int)) % n * n
             + (ci[active] + np.rint(ea2 / grid.dx).astype(int)) % n)
        m11, m12, m21, m22 = chord[:, q]
        if np.any(np.isnan(m11)):
            raise GridError("map is not orientation preserving")
        r1, r2 = ea1 + d1, ea2 + d2
        s1 = m11 * r1 + m12 * r2
        s2 = m21 * r1 + m22 * r2
        if not k:
            # the inverse is within max|d| of its node (e = -d(p + e)), so
            # a first chord move past that, near a fold, overshoots: such a
            # node takes the fixed point e = -d(p), |d(p)| <= max|d| away
            far = np.hypot(s1, s2) > scale
            s1, s2 = np.where(far, r1, s1), np.where(far, r2, s2)
        e1[active], e2[active] = ea1 - s1, ea2 - s2
        step = np.hypot(s1, s2)
        move = float(np.max(step))
        active = active[step > INVERSION_RTOL * scale]
        if not active.size:
            break
        stall = stall + 1 if move > 0.9 * prev else 0
        prev = move
        if stall >= 2:
            break
    if active.size and move > floor:
        raise GridError(f"inversion stalled at step size {move:.3e}")
    a11, a12, a21, a22 = _CubicBlock(grid, p1 + e1, p2 + e2)(jac)
    det = a11 * a22 - a12 * a21
    if np.min(det) <= 0.0:
        raise GridError("map is not orientation preserving along the inverse")
    out = np.zeros((6, n, n))
    out[2] = out[5] = 1.0
    inv = (e1, e2, a22 / det, -a12 / det, -a21 / det, a11 / det)
    out[:, win, win] = np.reshape(inv, out[:, win, win].shape)
    return DiffeoField(out[0], out[1], grid, jac=tuple(out[2:]))


# ---------------------------------------------------------------------------
# transformation of solutions on domain grids


@dataclass(frozen=True)
class TransformReport:
    """Residual of a transported solution in the transported equation."""

    residual: float
    base_residual: float
    nodes: int


# the square of reach 4: it holds every node that divergence_form_apply's
# two nested differences of reach 2 read around a node
_SQUARE4 = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]


def transform_solution_check(g2: MetricField, X2: VectorField, J: DiffeoField,
                             c, v2: ScalarField, *,
                             v2_call=None) -> TransformReport:
    """Residual of v2 o J in the equation with metric c J*g2, drift c^{-1} J*X2.

    Transported coefficients are built pointwise from the Jacobian and
    masked cubic sampling at the mapped nodes; the drift-form operator is
    then applied with masked differences and the residual is
    reported over the nodes whose every interpolation and differentiation
    stencil stayed inside the mask. base_residual is the same operator
    applied to v2 itself in the untransported equation over the same
    nodes, which is the noise floor of the differentiation route; at
    J = id, c = 1 the two coincide by construction. v2_call, when given,
    evaluates the solution exactly at mapped points and removes the
    interpolation error from the transported field only.
    """
    for arg, kind in ((g2, MetricField), (X2, VectorField), (J, DiffeoField),
                      (v2, ScalarField)):
        _require_grid(arg, kind, "transform_solution_check")
    grid = _require_grid(g2.grid, DomainGrid, "transform_solution_check")
    _require_same_grid(grid, "map, drift or solution", J, X2, v2)
    cv = lattice_values(c, grid)
    _require_finite("solution v2", v2.values, where=grid.mask)
    _require_finite("drift X2", X2.c1, X2.c2, where=grid.mask)
    _require_finite("conformal factor c", cv, where=grid.mask)
    if np.min(cv[grid.mask]) <= 0.0:
        raise GridError("conformal factor must be positive")
    p1, p2 = J.points()
    sample = _CubicBlock(grid, p1, p2)
    ok = sample.inside() & grid.mask

    t11, t12, t22, x1, x2, vt = sample(
        np.stack([g2.g11, g2.g12, g2.g22, X2.c1, X2.c2, v2.values]))
    if v2_call is not None:
        vt = np.asarray(v2_call(p1, p2), dtype=float)

    # sanitize the garbage outside the trusted sampling set so the
    # divergence-form arithmetic stays finite there
    bad = ~ok
    t11[bad], t12[bad], t22[bad] = 1.0, 0.0, 1.0
    x1[bad] = x2[bad] = 0.0
    vt[bad] = 0.0

    cv = np.where(grid.mask, cv, 1.0)
    B = _inverse_jacobian(J)
    g1 = MetricField(*(s / cv for s in _transport(B, (t11, t12, t22))), grid)
    X1 = VectorField(*(x / cv for x in _transport(B, (x1, x2))), grid)

    out, deep = divergence_form_apply(g1, X1, vt)
    trust = deep & _erode(ok, _SQUARE4)
    if not np.any(trust):
        raise GridError("no interior nodes survive the stencil guards")
    residual = float(np.max(np.abs(out[trust])))

    base, _ = divergence_form_apply(g2, X2, v2.values)
    base_residual = float(np.max(np.abs(base[trust])))
    return TransformReport(residual, base_residual, int(np.sum(trust)))


# ---------------------------------------------------------------------------
# rigidity of the coordinate system


def diffeo_rigidity_solve(g1: MetricField, data=None) -> DiffeoField:
    """Solve g1^{kl} d_kl J^m = 0 with J = x on the boundary, per component.

    Coordinate functions are exact solutions of the discrete system (the
    stencils annihilate affine lattice functions), so the output deviates
    from the identity only by the linear-solver tolerance; that deviation
    is the computable content of the rigidity claim. data, when given,
    replaces the coordinate boundary traces (sensitivity studies); it
    must be two boundary data, one per coordinate, or a GridError.
    """
    _require_grid(g1, MetricField, "diffeo_rigidity_solve")
    grid = _require_grid(g1.grid, DomainGrid, "the rigidity system")
    if data is None:
        data = (lambda x, y: x, lambda x, y: y)
    elif not (isinstance(data, (tuple, list)) and len(data) == 2):
        raise GridError("rigidity data must be two boundary data, one per "
                        f"coordinate, got {data!r:.60}")
    w1, w2 = nondiv_solve_many(g1, data)
    X, Y = grid.meshgrid()
    d1 = np.where(grid.mask, w1.values - X, 0.0)
    d2 = np.where(grid.mask, w2.values - Y, 0.0)
    return DiffeoField(d1, d2, grid)


# ---------------------------------------------------------------------------
# isothermal coordinates


def _beltrami_coefficient(c11, c12, c22):
    det = c11 * c22 - c12 ** 2
    return (c11 - c22 + 2.0j * c12) / (c11 + c22 + 2.0 * np.sqrt(det))


def _beltrami_map(c11, c12, c22, grid) -> DiffeoField:
    """The map w = z + C phi solving dzb w = mu_B dz w, Jacobian attached.

    mu_B is read on the box's data window only (m nodes a side):
    _support_guard has bounded it below 1e-5 of its maximum outside, so
    GMRES (maforward._gmres, one cycle, no preconditioner) takes it as
    zero there and solves (I - mu_B S) phi = mu_B on the window. Each
    iteration is one window-to-window convolution, the Beurling transform
    S = dz C taken in the plane (a periodic dz of C phi rings at the
    seam), on an N x N FFT with N = _fft_size(2m - 1): 180 on the n = 128
    box, where the whole box takes 256, its kernel kept for the box used
    last by _beltrami_kernel. Then one window-to-box convolution (N =
    _fft_size(m + n - 1), 216 at n = 128) gives dz w = 1 + S phi on
    the box, and phi = mu_B dz w at every node.
    """
    mu_b = _beltrami_coefficient(c11, c12, c22)
    worst = float(np.max(np.abs(mu_b)))
    if worst >= 1.0 - BELTRAMI_MARGIN:
        raise GridError(f"Beltrami coefficient reaches {worst:.3f}, inside "
                        f"the margin {BELTRAMI_MARGIN:.2f} of losing "
                        "quasi-conformality")
    _support_guard(mu_b, grid, "isothermal")

    at = grid.data_window
    mu_w = mu_b[at, at]
    m = mu_w.shape[0]
    N = _fft_size(2 * m - 1)
    khat = _beltrami_kernel(grid, (N, N), (m, m), (0, 0), 2)
    phi, its, met = _gmres(
        lambda p: p - mu_w * _cauchy_conv(p, khat, (m, m)), mu_w,
        lambda v: v, BELTRAMI_RTOL, BELTRAMI_MAX_ITER, 1)
    if not met:
        raise GridError(f"Beltrami solve missed its residual in {its} "
                        f"Krylov iterations (max |mu_B| {worst:.3f})")

    dzw = 1.0 + _window_to_box(phi, grid, 2)
    phi = mu_b * dzw
    cphi = cauchy_inverse(ComplexField(phi, grid))

    # Jacobian of w from the Wirtinger pair (dz w, dzb w) = (dzw, phi)
    p, q = dzw + phi, dzw - phi
    return DiffeoField(cphi.values.real, cphi.values.imag, grid,
                       jac=(p.real, -q.imag, p.imag, q.real))


def isothermal(g: MetricField):
    """Chart flattening the metric to a conformal factor: chi* g = mu I.

    Conformally flat inputs return the identity chart and the factor
    exactly. General metrics must live on a padded box: the complex
    dilatation of the covariant tensor feeds the Beltrami equation
    dzb w = mu_B dz w, that is (I - mu_B S) phi = mu_B, solved by GMRES
    with S = dz C the Beurling transform and C the Cauchy transform, and
    the chart is the inverse of w = z + C phi. The solve reads mu_B on
    the box's data window only, where the support guard has confined its
    mass (outside, it is below 1e-5 of its maximum, and a wider mu_B is
    refused before any FFT), so each Krylov iteration convolves the
    window onto itself (a 180^2 FFT on the n = 128 box, not the whole
    box's 256^2); one window-to-box Beurling and one Cauchy convolution
    (216^2) then give w on the box.
    Its Jacobian comes from the Wirtinger derivatives dz w = 1 + S phi and
    dzb w = phi, the solve's own lattice values, sampled at the
    preimage, so the inversion never differentiates interpolated data.
    The chart is invert_diffeo's: defined on the data region and the
    identity in the wraparound margin, where mu is therefore half the
    trace of g's own covariant tensor. The conformality defect of chi* g
    over the box's core disk, well inside the data region, is checked
    against CONFORMAL_TOL times the covariant scale.
    """
    grid = _require_grid(g, MetricField, "isothermal").grid
    c11, c12, c22 = _covariant(g)
    scale = float(np.max(np.abs(np.stack([c11, c12, c22]))))
    flat_gap = max(float(np.max(np.abs(c12))),
                   float(np.max(np.abs(c11 - c22))))
    if flat_gap <= 1e-12 * scale:
        mu = 0.5 * (c11 + c22)
        return DiffeoField.identity(grid), ScalarField(mu, grid)

    _require_grid(grid, PaddedGrid, "a general isothermal chart")
    chi = invert_diffeo(_beltrami_map(c11, c12, c22, grid))

    pulled = pullback_metric(chi, g)
    p11, p12, p22 = _covariant(pulled)
    core = grid.core_mask(grid.core_radius)
    defect = max(float(np.max(np.abs(p12[core]))),
                 float(np.max(np.abs(p11 - p22)[core])))
    if defect > CONFORMAL_TOL * scale:
        raise GridError(f"conformality defect {defect:.3e} exceeds "
                        f"{CONFORMAL_TOL:.1e} of the metric scale {scale:.3e}")
    mu = 0.5 * (p11 + p22)
    return chi, ScalarField(mu, grid)
