"""Christoffel symbols, transformation laws, pullbacks, and isothermal charts.

Conventions. A MetricField stores the contravariant components g^{ab}
(that is how the solution-induced geometry arrives from the linearized
solver), so the covariant tensor used inside the Christoffel formula is
the nodewise 2x2 inverse of the stored one, and the index-raising matrix
is the stored tensor itself. Metrics written mathematically, like
e^{2 sigma} I, are therefore handed in through their contravariant
representation e^{-2 sigma} I.

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
Jacobians. Maps on equal lattices compose; maps on different ones do
not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexcalc import cauchy_inverse, deriv, spectral_dz
from .grid import (ComplexField, DomainGrid, GridError, MetricField,
                   PaddedGrid, ScalarField, VectorField, _CubicBlock,
                   lattice_values)
from .linearize import divergence_form_apply, nondiv_solve_many

__all__ = [
    "ChristoffelField",
    "DiffeoField",
    "TransformReport",
    "christoffel",
    "compose_diffeos",
    "conformal_christoffel",
    "contracted_drift",
    "diffeo_rigidity_solve",
    "invert_diffeo",
    "isothermal",
    "pullback_metric",
    "pullback_scalar",
    "pullback_vector",
    "transform_solution_check",
]


def _dre(vals, grid, o1, o2):
    """Real part of the dispatched derivative (spectral output is complex)."""
    out = deriv(vals, grid, o1, o2)
    return out.real if np.iscomplexobj(out) else out


def _covariant(g: MetricField):
    """Nodewise inverse of the stored contravariant components."""
    det = g.det()
    if np.min(det) <= 0.0:
        raise GridError("metric is not positive definite")
    return g.g22 / det, -g.g12 / det, g.g11 / det


# ---------------------------------------------------------------------------
# Christoffel symbols and the contracted drift


@dataclass(frozen=True)
class ChristoffelField:
    """Connection coefficients of a metric, symmetric in the lower pair.

    values[i, k, l] holds the (n, n) array of the symbol with upper
    index i and lower indices k, l; the [i, 0, 1] and [i, 1, 0] slices
    are the same array, so the symmetry is exact by construction.
    """

    values: np.ndarray
    grid: object

    def component(self, i: int, k: int, l: int) -> np.ndarray:
        return self.values[i, k, l]


def _assemble_symbols(parts, grid) -> ChristoffelField:
    """Stack {(i, kl): array} with shared mixed-slot arrays."""
    n = grid.n
    vals = np.empty((2, 2, 2, n, n))
    for i in range(2):
        vals[i, 0, 0] = parts[i, 0]
        vals[i, 0, 1] = parts[i, 1]
        vals[i, 1, 0] = parts[i, 1]
        vals[i, 1, 1] = parts[i, 2]
    return ChristoffelField(vals, grid)


def christoffel(g: MetricField) -> ChristoffelField:
    """Symbols 1/2 g^{im} (d_l g_{mk} + d_k g_{ml} - d_m g_{kl}).

    The derivatives act on the covariant components and are the grid's
    own (deriv: spectral on boxes, masked differences on domains); the
    contraction uses the stored contravariant tensor directly.
    """
    grid = g.grid
    c11, c12, c22 = _covariant(g)
    d = {}
    for name, comp in (("11", c11), ("12", c12), ("22", c22)):
        for ax, (o1, o2) in (("1", (1, 0)), ("2", (0, 1))):
            d[ax + name] = _dre(comp, grid, o1, o2)

    # lower-index blocks b_m(kl) = d_l g_{mk} + d_k g_{ml} - d_m g_{kl};
    # symmetry of g collapses four of the six to a single derivative
    b = {
        (0, 1): d["111"],
        (0, 2): 2.0 * d["112"] - d["211"],
        (1, 1): d["211"],
        (1, 2): d["122"],
        (2, 1): 2.0 * d["212"] - d["122"],
        (2, 2): d["222"],
    }
    parts = {}
    for i, (gi1, gi2) in enumerate(((g.g11, g.g12), (g.g12, g.g22))):
        for kl in (0, 1, 2):
            parts[i, kl] = 0.5 * (gi1 * b[kl, 1] + gi2 * b[kl, 2])
    return _assemble_symbols(parts, grid)


def contracted_drift(g: MetricField) -> VectorField:
    """Drift through the connection: X^i = -g^{kl} Gamma^i_{kl}.

    Matches drift_field (the divergence formula) within the accuracy of
    the grid's derivative; on conformal metrics the contraction
    cancels algebraically and the result is exactly zero.
    """
    gam = christoffel(g)
    comps = []
    for i in range(2):
        comps.append(-(g.g11 * gam.values[i, 0, 0]
                       + 2.0 * g.g12 * gam.values[i, 0, 1]
                       + g.g22 * gam.values[i, 1, 1]))
    return VectorField(comps[0], comps[1], g.grid)


def conformal_christoffel(gam: ChristoffelField, g: MetricField,
                          c) -> ChristoffelField:
    """Symbols of the scaled metric c g from those of g.

    The law adds 1/2 (delta^i_k d_l log c + delta^i_l d_k log c
    - g_{kl} g^{ij} d_j log c); the covariant/contravariant pair in the
    last term belongs to the unscaled metric, which is what makes the
    law additive in log c.
    """
    grid = g.grid
    if gam.grid != grid:
        raise GridError("symbols and metric live on different grids")
    cv = lattice_values(c, grid)
    if np.min(cv) <= 0.0:
        raise GridError("conformal factor must be positive")
    logc = np.log(cv)
    L1 = _dre(logc, grid, 1, 0)
    L2 = _dre(logc, grid, 0, 1)
    c11, c12, c22 = _covariant(g)
    raised = (g.g11 * L1 + g.g12 * L2, g.g12 * L1 + g.g22 * L2)
    L = (L1, L2)
    cov = {(0, 0): c11, (0, 1): c12, (1, 1): c22}
    parts = {}
    for i in range(2):
        for j, (k, l) in enumerate(((0, 0), (0, 1), (1, 1))):
            add = 0.5 * ((L[l] if i == k else 0.0)
                         + (L[k] if i == l else 0.0)
                         - cov[k, l] * raised[i])
            parts[i, j] = gam.values[i, k, l] + add
    return _assemble_symbols(parts, grid)


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

    @classmethod
    def affine(cls, M, grid) -> "DiffeoField":
        """J(x) = M x with the exact constant Jacobian attached."""
        M = np.asarray(M, dtype=float)
        X, Y = grid.meshgrid()
        d1 = (M[0, 0] - 1.0) * X + M[0, 1] * Y
        d2 = M[1, 0] * X + (M[1, 1] - 1.0) * Y
        return cls(d1, d2, grid, jac=(M[0, 0], M[0, 1], M[1, 0], M[1, 1]))

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


def pullback_scalar(J: DiffeoField, v: ScalarField) -> ScalarField:
    """(J* v)(x) = v(J(x))."""
    _check_reach(J)
    out = _CubicBlock(J.grid, *J.points())(v.values)
    return ScalarField(out, v.grid)


def pullback_vector(J: DiffeoField, X: VectorField) -> VectorField:
    """Pushforward by the inverse map: (J* X)(x) = (dJ)^{-1} X(J(x))."""
    _check_reach(J)
    at = _CubicBlock(J.grid, *J.points())
    x = (at(X.c1), at(X.c2))
    return VectorField(*_transport(_inverse_jacobian(J), x), J.grid)


def pullback_metric(J: DiffeoField, g: MetricField) -> MetricField:
    """J* g = (dJ)^T (g o J) dJ, carried out on the stored components.

    The covariant law above turns into B (S o J) B^T for the stored
    contravariant tensor S, with B the inverse Jacobian.
    """
    _check_reach(J)
    at = _CubicBlock(J.grid, *J.points())
    t = (at(g.g11), at(g.g12), at(g.g22))
    return MetricField(*_transport(_inverse_jacobian(J), t), J.grid)


def compose_diffeos(outer: DiffeoField, inner: DiffeoField) -> DiffeoField:
    """The map x -> outer(inner(x)), with the chain-rule Jacobian."""
    _check_reach(inner)
    _check_reach(outer)
    if outer.grid != inner.grid:
        raise GridError("maps live on different grids")
    at = _CubicBlock(outer.grid, *inner.points())
    d1 = inner.d1 + at(outer.d1)
    d2 = inner.d2 + at(outer.d2)
    a11, a12, a21, a22 = (at(a) for a in outer.jacobian())
    i11, i12, i21, i22 = inner.jacobian()
    jac = (a11 * i11 + a12 * i21, a11 * i12 + a12 * i22,
           a21 * i11 + a22 * i21, a21 * i12 + a22 * i22)
    return DiffeoField(d1, d2, inner.grid, jac=jac)


def invert_diffeo(J: DiffeoField, *, rtol: float = 1e-12,
                  maxiter: int = 80) -> DiffeoField:
    """Inverse map on the same lattice by displacement fixed point.

    Solves z + d(z) = p per node through z <- p - d(z), which contracts
    whenever sup |grad d| < 1. Each node freezes once its own move is
    within rtol of the displacement scale, and every step samples d at
    the still-moving nodes only. Most nodes freeze within about 14
    steps; the stragglers sit at the box seam, where a displacement that
    decays like c/z (a Cauchy transform) does not wrap periodically and
    the contraction slows to about 0.5 per step. The step's largest move
    is also the largest over all nodes, since frozen ones moved within
    rtol, so the stall and exhaustion checks read it unchanged. The
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
    for _ in range(maxiter):
        at = _CubicBlock(grid, f1[active], f2[active])
        n1 = p1[active] - at(J.d1)
        n2 = p2[active] - at(J.d2)
        del at                  # one block alive at a time bounds the peak
        step = np.hypot(n1 - f1[active], n2 - f2[active])
        f1[active], f2[active] = n1, n2
        move = float(np.max(step))
        active = active[step > rtol * scale]
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


def diffeo_rigidity_solve(g1: MetricField, domain: DomainGrid | None = None,
                          data=None, **opts) -> DiffeoField:
    """Solve g1^{kl} d_kl J^m = 0 with J = x on the boundary, per component.

    Coordinate functions are exact solutions of the discrete system (the
    stencils annihilate affine lattice functions), so the output deviates
    from the identity only by the linear-solver tolerance; that deviation
    is the computable content of the rigidity claim. data, when given,
    replaces the coordinate boundary traces (sensitivity studies).
    """
    grid = g1.grid if domain is None else domain
    if not isinstance(grid, DomainGrid):
        raise GridError("rigidity system runs on a domain grid")
    if grid != g1.grid:
        raise GridError("metric lives on a different grid")
    phi1, phi2 = data if data is not None else (lambda x, y: x,
                                                lambda x, y: y)
    w1, w2 = nondiv_solve_many(g1, [phi1, phi2], **opts)
    X, Y = grid.meshgrid()
    d1 = np.where(grid.mask, w1.values - X, 0.0)
    d2 = np.where(grid.mask, w2.values - Y, 0.0)
    return DiffeoField(d1, d2, grid)


# ---------------------------------------------------------------------------
# isothermal coordinates


def _beltrami_coefficient(c11, c12, c22):
    det = c11 * c22 - c12 ** 2
    return (c11 - c22 + 2.0j * c12) / (c11 + c22 + 2.0 * np.sqrt(det))


def _beltrami_map(c11, c12, c22, grid, margin, rtol, maxiter) -> DiffeoField:
    """The map w = z + C phi solving dzb w = mu_B dz w, Jacobian attached."""
    mu_b = _beltrami_coefficient(c11, c12, c22)
    worst = float(np.max(np.abs(mu_b)))
    if worst >= 1.0 - margin:
        raise GridError(f"Beltrami coefficient reaches {worst:.3f}, inside "
                        f"the margin {margin:.2f} of losing quasi-conformality")

    phi = mu_b.copy()
    last = None
    ratio = np.nan
    for _ in range(maxiter):
        cphi = cauchy_inverse(ComplexField(phi, grid))
        nxt = mu_b * (1.0 + spectral_dz(cphi.values, grid))
        step = float(np.max(np.abs(nxt - phi)))
        if last is not None and last > 0.0:
            ratio = step / last
        phi = nxt
        last = step
        if step <= rtol * max(worst, 1e-300):
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


def isothermal(g: MetricField, *, tol: float = 1e-2, margin: float = 0.1,
               rtol: float = 1e-12, maxiter: int = 64,
               core_radius: float | None = None):
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
    defect of chi* g over the core is checked against tol times the
    covariant scale.
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
    chi = invert_diffeo(_beltrami_map(c11, c12, c22, grid, margin, rtol,
                                      maxiter))

    pulled = pullback_metric(chi, g)
    p11, p12, p22 = _covariant(pulled)
    radius = grid.half / 3.0 if core_radius is None else core_radius
    core = grid.core_mask(radius)
    defect = max(float(np.max(np.abs(p12[core]))),
                 float(np.max(np.abs(p11 - p22)[core])))
    if defect > tol * scale:
        raise GridError(f"conformality defect {defect:.3e} exceeds "
                        f"{tol:.1e} of the metric scale {scale:.3e}")
    mu = 0.5 * (p11 + p22)
    return chi, ScalarField(mu, grid)
