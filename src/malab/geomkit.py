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
Inverse maps come from a per-node fixed point that samples the
displacement only at the nodes still moving, so the slow nodes at the
box seam cost a block over a few points, not over the whole lattice.
Maps whose displacement exceeds the wraparound margin of the box are
rejected, since their images alias through the period and no
interpolation can be trusted, and so are non-finite displacements and
Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexcalc import CORE_DIVISOR, cauchy_inverse, deriv, spectral_dz
from .grid import (ComplexField, DomainGrid, GridError, MetricField,
                   PaddedGrid, ScalarField, VectorField, _CubicBlock,
                   lattice_values)
from .linearize import divergence_form_apply, nondiv_solve_many

__all__ = [
    "DiffeoField",
    "TransformReport",
    "diffeo_rigidity_solve",
    "invert_diffeo",
    "isothermal",
    "pullback_metric",
    "transform_solution_check",
]

# isothermal: the conformality defect over the core disk (radius
# half / CORE_DIVISOR) as a fraction of the metric scale, the distance
# from 1 that the Beltrami coefficient must keep, and the Neumann
# iteration's relative step target and step budget
CONFORMAL_TOL = 1e-2
BELTRAMI_MARGIN = 0.1
BELTRAMI_RTOL = 1e-12
BELTRAMI_MAX_ITER = 64

# invert_diffeo: a node's move, relative to the displacement scale, at
# which it freezes, and the fixed point's step budget
INVERSION_RTOL = 1e-12
INVERSION_MAX_ITER = 80


def _dre(vals, grid, o1, o2):
    """Real part of the dispatched derivative (spectral output is complex)."""
    out = deriv(vals, grid, o1, o2)
    return out.real if np.iscomplexobj(out) else out


def _covariant(g: MetricField):
    """Nodewise inverse of the stored contravariant components."""
    if not all(np.all(np.isfinite(c)) for c in (g.g11, g.g12, g.g22)):
        raise GridError("metric has non-finite entries")
    det = g.det()
    if np.min(det) <= 0.0:
        raise GridError("metric is not positive definite")
    return g.g22 / det, -g.g12 / det, g.g11 / det


# ---------------------------------------------------------------------------
# diffeomorphisms and pullbacks


class DiffeoField:
    """Planar map J(x) = x + d(x) through its displacement components.

    An explicit Jacobian may be attached when the caller knows it in
    closed form (affine maps, Beltrami solutions); otherwise it is
    computed once from the displacement with the grid's derivative
    (deriv) and cached.
    """

    def __init__(self, d1, d2, grid, jac=None):
        self.d1 = np.asarray(d1, dtype=float)
        self.d2 = np.asarray(d2, dtype=float)
        expect = (grid.n, grid.n)
        if self.d1.shape != expect or self.d2.shape != expect:
            raise GridError(f"displacement shape does not match grid {expect}")
        if not (np.all(np.isfinite(self.d1)) and np.all(np.isfinite(self.d2))):
            raise GridError("displacement contains non-finite values")
        self.grid = grid
        self._jac = None if jac is None else tuple(
            np.broadcast_to(np.asarray(a, dtype=float), expect) for a in jac)
        if self._jac is not None and not all(np.all(np.isfinite(a))
                                             for a in self._jac):
            raise GridError("attached Jacobian contains non-finite values")

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
            self._jac = (1.0 + _dre(self.d1, g, 1, 0), _dre(self.d1, g, 0, 1),
                         _dre(self.d2, g, 1, 0), 1.0 + _dre(self.d2, g, 0, 1))
        return self._jac


def _check_reach(J: DiffeoField):
    grid = J.grid
    if not isinstance(grid, PaddedGrid):
        raise GridError("pullbacks interpolate on a padded periodic box")
    margin = grid.half / 3.0
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
    J's box (an equal box is the same box).
    """
    _check_reach(J)
    if g.grid != J.grid:
        raise GridError("map and metric live on different grids")
    at = _CubicBlock(J.grid, *J.points())
    t = (at(g.g11), at(g.g12), at(g.g22))
    return MetricField(*_transport(_inverse_jacobian(J), t), J.grid)


def invert_diffeo(J: DiffeoField) -> DiffeoField:
    """Inverse map on the same lattice by displacement fixed point.

    Solves z + d(z) = p per node through z <- p - d(z), which contracts
    whenever sup |grad d| < 1. Each node freezes once its own move is
    within INVERSION_RTOL of the displacement scale, and every step samples d at
    the still-moving nodes only. Most nodes freeze within about 14
    steps; the stragglers sit at the box seam, where a displacement that
    decays like c/z (a Cauchy transform) does not wrap periodically and
    the contraction slows to about 0.5 per step. The step's largest move
    is also the largest over all nodes, since frozen ones moved within
    INVERSION_RTOL, so the stall and exhaustion checks read it unchanged. The
    inverse Jacobian is the nodewise matrix inverse of dJ sampled at the
    preimage, so no derivative of the computed inverse displacement is
    ever taken.
    """
    _check_reach(J)
    grid = J.grid
    j11, j12, j21, j22 = J.jacobian()
    gap = np.max(np.abs(np.stack([j11 - 1.0, j12, j21, j22 - 1.0])))
    if gap >= 1.0:
        raise GridError(f"displacement gradient reaches {gap:.3f}; the "
                        "inversion fixed point does not contract")
    P1, P2 = grid.meshgrid()
    z1, z2 = P1.copy(), P2.copy()
    # flat views: writing f1[active] moves those nodes of z1
    f1, f2, p1, p2 = (a.reshape(-1) for a in (z1, z2, P1, P2))
    active = np.arange(f1.size)
    scale = max(float(np.max(np.hypot(J.d1, J.d2))), 1e-300)
    # the iteration contracts down to the resampling jitter of the
    # displacement; a stall far below any downstream tolerance is
    # convergence, a stall above it is a genuine failure
    floor, prev, stall = 1e-6 * scale, np.inf, 0
    for _ in range(INVERSION_MAX_ITER):
        at = _CubicBlock(grid, f1[active], f2[active])
        n1 = p1[active] - at(J.d1)
        n2 = p2[active] - at(J.d2)
        del at                  # one block alive at a time bounds the peak
        step = np.hypot(n1 - f1[active], n2 - f2[active])
        f1[active], f2[active] = n1, n2
        move = float(np.max(step))
        active = active[step > INVERSION_RTOL * scale]
        if not active.size:
            break
        stall = stall + 1 if move > 0.9 * prev else 0
        prev = move
        if stall >= 2:
            if move <= floor:
                break
            raise GridError(f"inversion stalled at step size {move:.3e}")
    else:
        if move > floor:
            raise GridError(f"inversion stalled at step size {move:.3e}")
    at = _CubicBlock(grid, z1, z2)
    a11, a12, a21, a22 = at(j11), at(j12), at(j21), at(j22)
    det = a11 * a22 - a12 * a21
    if np.min(det) <= 0.0:
        raise GridError("map is not orientation preserving along the inverse")
    jac = (a22 / det, -a12 / det, -a21 / det, a11 / det)
    return DiffeoField(z1 - P1, z2 - P2, grid, jac=jac)


# ---------------------------------------------------------------------------
# transformation of solutions on domain grids


@dataclass(frozen=True)
class TransformReport:
    """Residual of a transported solution in the transported equation."""

    residual: float
    base_residual: float
    nodes: int


def _erode(mask: np.ndarray, radius: int) -> np.ndarray:
    out = mask.copy()
    for di in range(-radius, radius + 1):
        for dj in range(-radius, radius + 1):
            if di or dj:
                out &= np.roll(np.roll(mask, di, axis=0), dj, axis=1)
    return out


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
    grid = g2.grid
    if not isinstance(grid, DomainGrid):
        raise GridError("transform checks run on a domain grid")
    if J.grid != grid or v2.grid != grid:
        raise GridError("inputs live on different grids")
    p1, p2 = J.points()
    sample = _CubicBlock(grid, p1, p2)
    ok = sample.inside() & grid.mask

    vt = (np.asarray(v2_call(p1, p2), dtype=float) if v2_call is not None
          else sample(v2.values))
    t11, t12, t22 = sample(g2.g11), sample(g2.g12), sample(g2.g22)
    x1, x2 = sample(X2.c1), sample(X2.c2)

    # sanitize the garbage outside the trusted sampling set so the
    # divergence-form arithmetic stays finite there
    bad = ~ok
    t11[bad], t12[bad], t22[bad] = 1.0, 0.0, 1.0
    x1[bad] = x2[bad] = 0.0
    vt[bad] = 0.0

    cv = lattice_values(c, grid)
    if np.min(cv[grid.mask]) <= 0.0:
        raise GridError("conformal factor must be positive")
    cv = np.where(grid.mask, cv, 1.0)
    B = _inverse_jacobian(J)
    g1 = MetricField(*(s / cv for s in _transport(B, (t11, t12, t22))), grid)
    X1 = VectorField(*(x / cv for x in _transport(B, (x1, x2))), grid)

    out, deep = divergence_form_apply(g1, X1, vt)
    trust = deep & _erode(ok, 4)
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
    replaces the coordinate boundary traces (sensitivity studies).
    """
    grid = g1.grid
    if not isinstance(grid, DomainGrid):
        raise GridError("rigidity system runs on a domain grid")
    phi1, phi2 = data if data is not None else (lambda x, y: x,
                                                lambda x, y: y)
    w1, w2 = nondiv_solve_many(g1, [phi1, phi2])
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
    """The map w = z + C phi solving dzb w = mu_B dz w, Jacobian attached."""
    mu_b = _beltrami_coefficient(c11, c12, c22)
    worst = float(np.max(np.abs(mu_b)))
    if worst >= 1.0 - BELTRAMI_MARGIN:
        raise GridError(f"Beltrami coefficient reaches {worst:.3f}, inside "
                        f"the margin {BELTRAMI_MARGIN:.2f} of losing "
                        "quasi-conformality")

    phi = mu_b.copy()
    last = None
    ratio = np.nan
    for _ in range(BELTRAMI_MAX_ITER):
        cphi = cauchy_inverse(ComplexField(phi, grid))
        nxt = mu_b * (1.0 + spectral_dz(cphi.values, grid))
        step = float(np.max(np.abs(nxt - phi)))
        if last is not None and last > 0.0:
            ratio = step / last
        phi = nxt
        last = step
        if step <= BELTRAMI_RTOL * max(worst, 1e-300):
            break
    else:
        raise GridError("Beltrami series did not converge "
                        f"(last contraction ratio {ratio:.3f})")

    cphi = cauchy_inverse(ComplexField(phi, grid))
    dzw = 1.0 + spectral_dz(cphi.values, grid)
    dzbw = phi

    # Jacobian of w from the Wirtinger pair
    ux = (dzw + dzbw).real
    vx = (dzw + dzbw).imag
    uy = (dzbw - dzw).imag
    vy = (dzw - dzbw).real
    return DiffeoField(cphi.values.real, cphi.values.imag, grid,
                       jac=(ux, uy, vx, vy))


def isothermal(g: MetricField):
    """Chart flattening the metric to a conformal factor: chi* g = mu I.

    Conformally flat inputs return the identity chart and the factor
    exactly. General metrics must live on a padded box: the complex
    dilatation of the covariant tensor feeds the Beltrami equation
    dzb w = mu_B dz w, solved by the Neumann iteration
    phi <- mu_B (1 + dz C phi) with C the Cauchy transform, and the chart
    is the inverse of w = z + C phi. Its Jacobian comes from the
    Wirtinger derivatives dz w = 1 + dz C phi and dzb w = phi sampled at
    the preimage, both available in closed form on the grid, so the
    inversion never differentiates interpolated data. The conformality
    defect of chi* g over the core disk is checked against CONFORMAL_TOL
    times the covariant scale.
    """
    grid = g.grid
    c11, c12, c22 = _covariant(g)
    scale = float(np.max(np.abs(np.stack([c11, c12, c22]))))
    flat_gap = max(float(np.max(np.abs(c12))),
                   float(np.max(np.abs(c11 - c22))))
    if flat_gap <= 1e-12 * scale:
        mu = 0.5 * (c11 + c22)
        return DiffeoField.identity(grid), ScalarField(mu, grid)

    if not isinstance(grid, PaddedGrid):
        raise GridError("general isothermal charts need the metric on a "
                        "padded box (the Beltrami solve is spectral)")
    chi = invert_diffeo(_beltrami_map(c11, c12, c22, grid))

    pulled = pullback_metric(chi, g)
    p11, p12, p22 = _covariant(pulled)
    core = grid.core_mask(grid.half / CORE_DIVISOR)
    defect = max(float(np.max(np.abs(p12[core]))),
                 float(np.max(np.abs(p11 - p22)[core])))
    if defect > CONFORMAL_TOL * scale:
        raise GridError(f"conformality defect {defect:.3e} exceeds "
                        f"{CONFORMAL_TOL:.1e} of the metric scale {scale:.3e}")
    mu = 0.5 * (p11 + p22)
    return chi, ScalarField(mu, grid)
