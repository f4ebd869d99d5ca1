"""Damped-Newton solver for the planar Monge-Ampere Dirichlet problem.

Solves det D^2 u = F on a convex domain with Dirichlet data on the exact
boundary curve. The discretization is a 9-point scheme on the masked
lattice: second differences along the axes, the 4-point diagonal stencil
for the mixed derivative, and ghost values closed by linear interpolation
along the stencil ray to the exact boundary crossing. Interior nodes whose
nearest axis crossing is closer than a quarter cell become interpolation
rows instead of PDE rows, which keeps every matrix row bounded.

The Dirichlet data enter through one vector per grid, their values at the
boundary crossings that some stencil row reads (StencilOps.crossing_values;
ring_values gives them on the boundary ring). Each operator is a pair of
sparse matrices, L on the interior values and G on the crossing values, and
StencilOps.system is the one assembler that turns coefficients into a
system (A, G_A), each row reading A u + G_A phi = f (f = 0 on the
interpolation rows): the Newton Jacobian, the Laplacian, and every solve
of `linearize`.

The Newton step solves cof(D^2 u) : D^2 delta = F - det D^2 u with zero
boundary data, damped by backtracking under a convexity guard. As
cof(D^2 u) = F (D^2 u)^{-1} at a solution, the Jacobian is F times the
linearized operator of `linearize`. Each solve factors the Laplacian
L11 + L22 + R once (sparse LU); that factorization gives the Poisson
initial guess and preconditions GMRES on every Newton Jacobian, which is
inexact Newton with the forcing term eta = min(0.1, 0.1 * max|res|)
(Eisenstat and Walker, SIAM J. Sci. Comput. 17, 1996). A step whose GMRES
solve misses eta still has to pass the line search; if it runs out of
damping, the step is solved again once with a sparse LU of the Jacobian
and the line search restarts from a full step (its MASolution.log row
says so). The same layer, SparseLU, solves the linearized systems of
`linearize` and `dnmap`: one factorization per matrix, any number of
right sides, and a residual check on every column. No factorization is
kept beyond the call that made it. Only the stencil operators outlive a
call: build_stencil_ops is a functools.lru_cache keyed by the grid, so it
keeps the four grids used last and an equal grid built twice hits. Their
arrays are read-only, so no caller can change what another is handed.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import (BoundaryTrace, DomainGrid, GridError, ScalarField,
                   _ring_eval, _ring_modes, lattice_values,
                   tangential_derivative)

__all__ = [
    "LinearSolveFailure",
    "MASolution",
    "NewtonFailure",
    "StencilOps",
    "build_stencil_ops",
    "data_norm_surrogate",
    "eval_boundary_data",
    "poisson_init",
    "ring_values",
    "solve_ma",
    "solve_ma_zero",
    "perturbation_stability",
    "source_grid",
    "SparseLU",
    "stencil_hessian",
]

# interior nodes whose nearest axis crossing is below this fraction of a
# cell are replaced by interpolation rows
CUT_FRACTION = 0.25


# GMRES on a Newton Jacobian: Krylov vectors kept per cycle and cycles;
# with the Laplacian preconditioner a step takes 2-15 iterations
KRYLOV_RESTART = 40
KRYLOV_CYCLES = 2


class NewtonFailure(RuntimeError):
    """Newton iteration failed; carries the log, rows as in MASolution.log
    (iter, residual, damping, min_eig, gmres_iters, lu_redone), the last
    one the rejected step if the damping ran out."""

    def __init__(self, msg: str, log):
        super().__init__(msg)
        self.log = log


class LinearSolveFailure(RuntimeError):
    """A linear solve missed its residual bound; carries the residuals."""

    def __init__(self, msg: str, residuals):
        super().__init__(msg)
        self.residuals = residuals


# ---------------------------------------------------------------------------
# the sparse-LU solver layer


class SparseLU:
    """One sparse LU factorization, solved against any number of right sides.

    The stencil matrices are nearly symmetric with a dominant diagonal, so
    the factorization keeps the diagonal pivots under a minimum-degree
    ordering of A + A^T: half the fill of a pivoting LU at these sizes.
    With rtol, every column of a solve must meet ||A x - b|| <= rtol ||b||
    (2-norm) after at most one step of iterative refinement, or
    LinearSolveFailure carries the per-column residuals.
    """

    def __init__(self, A):
        self.A = sp.csr_matrix(A)
        try:
            self._lu = spla.splu(
                sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                options={"SymmetricMode": True, "DiagPivotThresh": 0.0})
        except RuntimeError as exc:        # a zero pivot
            raise LinearSolveFailure(f"sparse LU failed: {exc}", []) from exc

    def solve(self, rhs: np.ndarray, rtol: float | None = None) -> np.ndarray:
        """x with A x = rhs; rhs is a vector or an (N, k) block of columns."""
        x = self._lu.solve(rhs)
        if rtol is None:
            return x
        bound = rtol * np.linalg.norm(rhs, axis=0)
        r = rhs - self.A @ x
        if not np.all(np.linalg.norm(r, axis=0) <= bound):
            x = x + self._lu.solve(r)
            r = rhs - self.A @ x
        res = np.linalg.norm(r, axis=0)
        if not np.all(res <= bound):            # NaN fails too
            raise LinearSolveFailure(
                f"LU residual {np.max(res):.3e} above rtol {rtol:g} times "
                "the right side", np.atleast_1d(res).tolist())
        return x


# ---------------------------------------------------------------------------
# boundary data evaluation


def eval_boundary_data(grid: DomainGrid, data, x, y) -> np.ndarray:
    """Evaluate Dirichlet data at arbitrary points of the boundary curve.

    ``data`` may be None (zero data), a callable (x, y) -> value, a real
    scalar, or a BoundaryTrace on grid or an equal grid. Trace values live
    on the ring nodes, which sit at uniform angles t of the
    parametrization (a cos t, b sin t); a point is assigned the angle of
    its image (x/a, y/b) on the unit disk (DomainGrid.param_angle), and
    off-node evaluation is the trigonometric interpolant in t of the
    grid's ring calculus (grid._ring_modes, grid._ring_eval), exact for
    band-limited data. Any other type, a trace from another grid, a
    callable whose result is not real or does not broadcast to the
    points, or a non-finite value is a GridError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if data is None:
        return np.zeros_like(x)
    if isinstance(data, BoundaryTrace):
        if data.grid != grid:
            raise GridError("boundary trace lives on a different grid")
        out = _ring_eval(_ring_modes(data.values), grid.param_angle(x, y))
    elif callable(data):
        val = np.asarray(data(x, y))
        try:
            out = np.broadcast_to(val, x.shape).astype(
                float, casting="same_kind")
        except (TypeError, ValueError):
            raise GridError(
                f"boundary data callable returned {val.dtype} values of shape "
                f"{val.shape} for points of shape {x.shape}") from None
    elif isinstance(data, numbers.Real):
        out = np.full_like(x, float(data))
    else:
        raise GridError(
            "boundary data must be None, a callable, a real scalar or a "
            f"BoundaryTrace, not {type(data).__name__}")
    if not np.all(np.isfinite(out)):
        raise GridError("boundary data has non-finite values")
    return out


def ring_values(grid: DomainGrid, data) -> np.ndarray:
    """Dirichlet data at the boundary ring nodes."""
    b = grid.boundary
    return eval_boundary_data(grid, data, b.points[:, 0], b.points[:, 1])


def data_norm_surrogate(grid: DomainGrid, data) -> float:
    """Discrete stand-in for a high-order boundary norm of the data.

    Maximum of the value and the first two arclength-derivative magnitudes
    on the ring (grid.tangential_derivative).
    """
    vals = ring_values(grid, data)
    d1 = tangential_derivative(grid, vals)
    d2 = tangential_derivative(grid, d1)
    return float(max(np.max(np.abs(vals)), np.max(np.abs(d1)),
                     np.max(np.abs(d2))))


# ---------------------------------------------------------------------------
# stencil assembly


@dataclass(frozen=True)
class StencilOps:
    """Sparse difference operators on the masked lattice.

    (qx, qy) are the boundary crossings that some row reads: every
    exterior direction of a PDE row and the cut direction of an
    interpolation row. Each operator is a pair, L on the interior values
    and G on the data at the crossings (crossing_values), so the closed
    difference of u with data phi is L u + G phi: the second differences
    L11/G11, L22/G22, L12/G12 and central first differences L1/G1, L2/G2
    on PDE rows, and the interpolation rows R u + GR phi = 0.
    """

    grid: DomainGrid
    N: int
    pde: np.ndarray            # PDE rows (True) vs interpolation rows
    qx: np.ndarray             # crossing points, one per column of every G
    qy: np.ndarray
    L11: sp.csr_matrix
    G11: sp.csr_matrix
    L22: sp.csr_matrix
    G22: sp.csr_matrix
    L12: sp.csr_matrix
    G12: sp.csr_matrix
    L1: sp.csr_matrix
    G1: sp.csr_matrix
    L2: sp.csr_matrix
    G2: sp.csr_matrix
    R: sp.csr_matrix
    GR: sp.csr_matrix

    def scatter(self, vec: np.ndarray) -> np.ndarray:
        """Interior vector -> full (n, n) array, zero outside the mask."""
        out = np.zeros((self.grid.n, self.grid.n))
        out[self.grid.mask] = vec
        return out

    def crossing_values(self, data) -> np.ndarray:
        """The data at the crossing points: the vector every G acts on."""
        return eval_boundary_data(self.grid, data, self.qx, self.qy)

    def system(self, a11, a12, a22, X1=None, X2=None, c0=None):
        """(A, G_A) of a11 d_11 + 2 a12 d_12 + a22 d_22 [+ X1 d_1 + X2 d_2
        + c0], coefficients scalar or on the interior numbering, summed in
        the order L11, L22, L12, drift, then R/GR (the interpolation rows,
        which no term touches), then c0."""
        terms = [(a11, self.L11, self.G11), (a22, self.L22, self.G22),
                 (2.0 * a12, self.L12, self.G12)]
        if X1 is not None:
            terms += [(X1, self.L1, self.G1), (X2, self.L2, self.G2)]
        def scaled(c, M):                   # diag(c) @ M
            return c * M if np.ndim(c) == 0 else sp.diags(c) @ M
        LA = [scaled(c, L) for c, L, _ in terms]
        GA = [scaled(c, G) for c, _, G in terms]
        A = sum(LA[1:], LA[0]) + self.R
        if c0 is not None:
            A = A + sp.diags(np.where(self.pde, c0, 0.0))
        return A, sum(GA[1:], GA[0]) + self.GR


def _csr(parts, shape) -> sp.csr_matrix:
    """Sum of (rows, cols, vals) triples as a CSR matrix."""
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


@functools.lru_cache(maxsize=4)
def build_stencil_ops(grid: DomainGrid) -> StencilOps:
    """Assemble (and cache) the masked difference operators for a grid.

    Every array of the result is read-only: equal grids share it.
    """
    mask = grid.mask
    n, dx = grid.n, grid.dx
    idx = np.full((n, n), -1, dtype=np.int64)
    ii, jj = np.nonzero(mask)
    N = len(ii)
    idx[ii, jj] = np.arange(N)
    X = grid.x1[ii]
    Y = grid.x2[jj]

    axis_dirs = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    diag_dirs = [(1, 1), (-1, -1), (1, -1), (-1, 1)]

    inside = {}
    alpha = {}
    for di, dj in axis_dirs + diag_dirs:
        inb = mask[ii + di, jj + dj]
        a = np.ones(N)
        out = ~inb
        if np.any(out):
            t = grid.ray_cut(X[out], Y[out], di * dx, dj * dx)
            if np.any(~np.isfinite(t)):
                raise GridError("exterior neighbor without boundary crossing")
            a[out] = t
        inside[(di, dj)] = inb
        alpha[(di, dj)] = a

    # classify quasi-boundary nodes by their smallest axis cut
    axis_alpha = np.stack([np.where(inside[d], 1.0, alpha[d])
                           for d in axis_dirs], axis=0)
    amin = axis_alpha.min(axis=0)
    which = axis_alpha.argmin(axis=0)
    interp = amin < CUT_FRACTION
    pde = ~interp

    # number the crossings some row reads: every exterior direction of a
    # PDE row and the cut direction of an interpolation row
    cross, qx, qy = {}, [], []
    nq = 0
    for d, (di, dj) in enumerate(axis_dirs + diag_dirs):
        k = np.nonzero(~inside[(di, dj)] & (pde | ((which == d) & interp)))[0]
        cross[(di, dj)] = np.full(N, -1, dtype=np.int64)
        cross[(di, dj)][k] = nq + np.arange(len(k))
        nq += len(k)
        qx.append(X[k] + alpha[(di, dj)][k] * di * dx)
        qy.append(Y[k] + alpha[(di, dj)][k] * dj * dx)

    # interpolation rows: u_C - a/(1 + a) u_W - phi(Q)/(1 + a) = 0, W
    # opposite the cut
    k = np.nonzero(interp)[0]
    di, dj = np.array(axis_dirs)[which[k]].T
    a = axis_alpha[which[k], k]
    wi, wj = ii[k] - di, jj[k] - dj
    if not np.all(mask[wi, wj]):
        j = k[np.argmin(mask[wi, wj])]
        raise GridError(
            f"grid too coarse near node ({ii[j]}, {jj[j]}): no interior "
            "neighbor to anchor the quasi-boundary interpolation")
    q = np.stack([cross[d] for d in axis_dirs])[which[k], k]
    R = _csr([(k, k, np.ones(len(k))), (k, idx[wi, wj], -a / (1.0 + a))],
             (N, N))
    GR = _csr([(k, q, -1.0 / (1.0 + a))], (N, nq))

    def _assemble(dirs, weights, denom, center_base):
        lparts, gparts = [], []
        center = np.zeros(N)
        for (di, dj), w in zip(dirs, weights):
            inb = inside[(di, dj)]
            a = alpha[(di, dj)]
            sel = pde & inb
            lparts.append((np.nonzero(sel)[0], idx[ii + di, jj + dj][sel],
                           np.full(sel.sum(), w / denom)))
            gh = pde & ~inb
            center[gh] += w * (1.0 - 1.0 / a[gh]) / denom
            gparts.append((np.nonzero(gh)[0], cross[(di, dj)][gh],
                           w / (a[gh] * denom)))
        ctr = np.nonzero(pde)[0]
        lparts.append((ctr, ctr, center_base / denom + center[ctr]))
        return _csr(lparts, (N, N)), _csr(gparts, (N, nq))

    h2 = dx * dx
    L11, G11 = _assemble([(1, 0), (-1, 0)], [1.0, 1.0], h2, -2.0)
    L22, G22 = _assemble([(0, 1), (0, -1)], [1.0, 1.0], h2, -2.0)
    L12, G12 = _assemble(diag_dirs, [1.0, 1.0, -1.0, -1.0], 4.0 * h2, 0.0)
    L1, G1 = _assemble([(1, 0), (-1, 0)], [0.5, -0.5], dx, 0.0)
    L2, G2 = _assemble([(0, 1), (0, -1)], [0.5, -0.5], dx, 0.0)

    ops = StencilOps(grid=grid, N=N, pde=pde, qx=np.concatenate(qx),
                     qy=np.concatenate(qy), L11=L11, G11=G11, L22=L22,
                     G22=G22, L12=L12, G12=G12, L1=L1, G1=G1, L2=L2, G2=G2,
                     R=R, GR=GR)
    for arr in (ops.pde, ops.qx, ops.qy):
        arr.flags.writeable = False
    for m in (L11, G11, L22, G22, L12, G12, L1, G1, L2, G2, R, GR):
        for arr in (m.data, m.indices, m.indptr):
            arr.flags.writeable = False
    return ops


# ---------------------------------------------------------------------------
# Poisson initialization


def _poisson(ops: StencilOps, Fvec: np.ndarray, phi: np.ndarray):
    """The factored Laplacian L11 + L22 + R and the solution of
    Laplace u = 2 sqrt(F) for crossing values phi."""
    A, G = ops.system(1.0, 0.0, 1.0)
    lap = SparseLU(A)
    rhs = np.where(ops.pde, 2.0 * np.sqrt(Fvec), 0.0) - G @ phi
    return lap, lap.solve(rhs)


def poisson_init(grid: DomainGrid, F: np.ndarray, data) -> np.ndarray:
    """Initial guess: solve Laplace u = 2 sqrt(F) with the Dirichlet data.

    At isotropic points det D^2 u = (Laplace u / 2)^2, so this starts the
    Newton iteration at a convex function with the right volume scale.
    solve_ma builds the same guess from the factorization it keeps for
    its Newton steps.
    """
    ops = build_stencil_ops(grid)
    return _poisson(ops, lattice_values(F, grid)[grid.mask],
                    ops.crossing_values(data))[1]


# ---------------------------------------------------------------------------
# the solver


@dataclass
class MASolution:
    """Solution of det D^2 u = F with its Newton iteration record.

    log has one row (iter, residual, damping, min_eig, gmres_iters,
    lu_redone) per iterate: the residual max norm and least Hessian
    eigenvalue there, and the damping, GMRES count and LU redo of the step
    that reached it; row 0, the Poisson guess, reads 1.0, 0 and False.
    """

    u: ScalarField
    F: ScalarField
    phi: BoundaryTrace
    log: list = field(default_factory=list)
    convex: bool = False
    data_norm: float = 0.0
    admissible: bool = True


def stencil_hessian(ops: StencilOps, U: np.ndarray, phi: np.ndarray):
    """Stencil Hessian entries (h11, h22, h12) of interior values U, the
    stencils closed by the crossing values phi (ops.crossing_values)."""
    return (ops.L11 @ U + ops.G11 @ phi, ops.L22 @ U + ops.G22 @ phi,
            ops.L12 @ U + ops.G12 @ phi)


def _min_eig(h11, h22, h12, where):
    tr = h11 + h22
    gap = np.sqrt((h11 - h22) ** 2 + 4.0 * h12 ** 2)
    lam = 0.5 * (tr - gap)
    return float(np.min(lam[where]))


def source_grid(F, grid: DomainGrid | None) -> DomainGrid:
    """The grid to solve on: grid if given, else the one F lives on."""
    if grid is not None:
        return grid
    if not isinstance(F, ScalarField):
        raise GridError("pass a grid when F is not a ScalarField")
    return F.grid


def solve_ma(F, phi=None, grid: DomainGrid | None = None, *,
             tol: float = 1e-10, max_iter: int = 30, delta: float = 0.1,
             damping_min: float = 1e-4) -> MASolution:
    """Solve det D^2 u = F, u = phi on the boundary, by damped Newton.

    F may be a ScalarField, an array, a scalar, or a callable; phi may be a
    BoundaryTrace, a scalar, a callable, or None for zero data. The
    residual target is tol * max F in the max norm. Steps are damped by
    backtracking and rejected if any interior Hessian loses positivity.
    A step whose GMRES solve missed its forcing term and runs out of
    damping is redone once with a sparse LU of the Jacobian; running out
    of damping otherwise raises NewtonFailure with the iteration log,
    naming whether convexity or descent gave out.
    """
    grid = source_grid(F, grid)
    Fv = lattice_values(F, grid)
    Fvec = Fv[grid.mask]
    if not np.all(np.isfinite(Fvec)):
        raise GridError("source has non-finite values on the domain")
    if np.min(Fvec) <= 0.0:
        raise GridError("source must be uniformly positive on the domain")

    ops = build_stencil_ops(grid)
    phic = ops.crossing_values(phi)
    norm_phi = data_norm_surrogate(grid, phi)

    lap, U = _poisson(ops, Fvec, phic)
    precond = spla.LinearOperator((ops.N, ops.N), matvec=lap.solve)
    pde = ops.pde
    Ftarget = tol * float(np.max(np.abs(Fvec)))

    def state(U):
        """Stencil Hessian, residual, its max norm and the min eigenvalue."""
        h = stencil_hessian(ops, U, phic)
        res = np.where(pde, h[0] * h[1] - h[2] ** 2 - Fvec, 0.0)
        return h, res, float(np.max(np.abs(res))), _min_eig(*h, pde)

    (h11, h22, h12), res, rnorm, lam_min = state(U)
    log = [(0, rnorm, 1.0, lam_min, 0, False)]

    for it in range(1, max_iter + 1):
        if rnorm <= Ftarget:
            break
        J, _ = ops.system(h22, -h12, h11)
        count = []
        step, info = spla.gmres(J, -res, M=precond,
                                rtol=min(0.1, 0.1 * rnorm), atol=0.0,
                                restart=KRYLOV_RESTART, maxiter=KRYLOV_CYCLES,
                                callback=count.append, callback_type="pr_norm")
        lam, redone = 1.0, False
        while True:
            Ut = U + lam * step
            ht, rt, rn, le = state(Ut)
            if le > 0.0 and rn <= (1.0 - 1e-4 * lam) * rnorm:
                break
            lam *= 0.5
            if lam < damping_min and info != 0:
                # the Krylov solve missed eta: redo the step exactly, once
                step, info, lam = SparseLU(J).solve(-res), 0, 1.0
                redone = True
            elif lam < damping_min:
                log.append((it, rn, lam, le, len(count), redone))
                lost = (f"convexity lost (min eigenvalue {le:.3e})"
                        if le <= 0.0 else "descent lost")
                if redone:
                    lost += " on the LU-retried step"
                raise NewtonFailure(
                    f"damping exhausted at iteration {it}: {lost}; "
                    f"residual {rnorm:.3e}", log)
        U, (h11, h22, h12), res, rnorm, lam_min = Ut, ht, rt, rn, le
        log.append((it, rnorm, lam, lam_min, len(count), redone))
    else:
        raise NewtonFailure(
            f"no convergence in {max_iter} iterations; residual {rnorm:.3e}",
            log)

    detH = h11 * h22 - h12 ** 2
    convex = (lam_min > 0.0
              and float(np.min(detH[pde])) >= 0.5 * float(np.min(Fvec)))
    return MASolution(
        u=ScalarField(ops.scatter(U), grid), F=ScalarField(Fv.copy(), grid),
        phi=BoundaryTrace(ring_values(grid, phi), grid), log=log,
        convex=convex, data_norm=norm_phi, admissible=norm_phi <= delta)


def solve_ma_zero(F, grid: DomainGrid | None = None, **opts) -> MASolution:
    """solve_ma with zero boundary data: the base every linearization and
    DN map is taken around. Nothing is cached; each call solves."""
    return solve_ma(F, None, grid, **opts)


@dataclass(frozen=True)
class PerturbationReport:
    """Response of the solution to shrinking boundary data."""

    amplitudes: tuple
    deviations: tuple          # max |u_eps - u_0| per amplitude
    ratios: tuple              # deviation / (eps * max |phi|)
    spread: float              # max/min ratio - 1 over the sweep

    def stable(self, rel: float = 0.2) -> bool:
        return self.spread < rel


def perturbation_stability(F, phi, grid: DomainGrid | None = None,
                           amplitudes=(0.1, 0.01, 0.001),
                           **opts) -> PerturbationReport:
    """Measure ||u_phi - u_0|| / ||phi|| across a data-amplitude sweep."""
    grid = source_grid(F, grid)
    base = solve_ma_zero(F, grid, **opts)
    pvals = ring_values(grid, phi)
    pmax = float(np.max(np.abs(pvals)))
    if pmax == 0.0:
        return PerturbationReport(tuple(amplitudes),
                                  (0.0,) * len(amplitudes),
                                  (0.0,) * len(amplitudes), 0.0)
    devs, ratios = [], []
    for eps in amplitudes:
        scaled = BoundaryTrace(eps * pvals, grid)
        sol = solve_ma(F, scaled, grid, **opts)
        dev = float(np.max(np.abs(sol.u.values - base.u.values)))
        devs.append(dev)
        ratios.append(dev / (eps * pmax))
    spread = max(ratios) / min(ratios) - 1.0 if min(ratios) > 0 else np.inf
    return PerturbationReport(tuple(amplitudes), tuple(devs), tuple(ratios),
                              spread)
