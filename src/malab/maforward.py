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
ring_values gives them on the boundary ring). Each operator is a pair, L on
the interior values and G on the crossing values, stored as values on one
sparsity pattern per grid for all L and one for all G, and
StencilOps.system and crossing_system turn coefficients into a system
(A, G_A) by vector arithmetic, each row reading A u + G_A phi = f (f = 0
on the interpolation rows): the Newton Jacobian, the Laplacian, and every
solve of `linearize`.

The Newton step solves cof(D^2 u) : D^2 delta = F - det D^2 u with zero
boundary data, damped by backtracking under a convexity guard. As
cof(D^2 u) = F (D^2 u)^{-1} at a solution, the Jacobian is F times the
linearized operator of `linearize`. The sparse LU of the Laplacian
L11 + L22 + R gives the Poisson initial guess and preconditions GMRES on
every Newton Jacobian, which is inexact Newton with the forcing term
eta = min(0.1, 0.1 * max|res|) (Eisenstat and Walker, SIAM J. Sci.
Comput. 17, 1996). A step whose GMRES solve misses eta still has to pass
the line search; if it runs out of damping, the step is solved again once
with a sparse LU of the Jacobian and the line search restarts from a full
step (its MASolution.log row says so). The same layer, SparseLU, solves
the linearized systems of `linearize` and `dnmap`: one factorization per
matrix, any number of right sides, and a residual check on every column.
Two things outlive a call, both keyed by the grid, so an equal grid built
twice hits: build_stencil_ops is a functools.lru_cache that keeps the
operators of the four grids used last, and the Laplacian's LU is kept for
the one grid solved on last, dropped before another grid's is factored
(about 24 MB at n = 232). Their arrays are read-only, so no caller can
change what another is handed. No other factorization outlives its call.

scipy.sparse is the only part of scipy that malab uses, and it loads at
the first build_stencil_ops that misses its cache: every solve starts there,
so no solve pays for the import, and the padded-box half, which never
builds operators, never loads it.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .grid import (BoundaryTrace, DomainGrid, GridError, ScalarField,
                   _ring_eval, _ring_modes, lattice_values)

__all__ = [
    "LinearSolveFailure",
    "MASolution",
    "NewtonFailure",
    "StencilOps",
    "build_stencil_ops",
    "eval_boundary_data",
    "poisson_init",
    "ring_values",
    "solve_ma",
    "solve_ma_zero",
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

# Newton: the residual target as a fraction of max F, the step budget, and
# the damping below which the line search gives up
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 30
DAMPING_MIN = 1e-4


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
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
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


# ---------------------------------------------------------------------------
# stencil assembly

# A row's slots, each run in CSR column order: its 3 x 3 stencil (the
# interior numbering is row-major) and its exterior directions (their
# crossings are numbered in this order). _LAYOUT gives each operator's
# (stencil slots, direction slots); R reads the center and an axis
# neighbor, GR an axis direction.
_SLOTS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
_DIRS = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)]
_X, _Y = (slice(1, 9, 3), slice(0, 2)), (slice(3, 6), slice(2, 4))
_LAYOUT = {"11": _X, "22": _Y, "12": (slice(0, 9, 2), slice(4, 8)),
           "1": _X, "2": _Y, "R": (slice(1, 8), slice(0, 4))}


def _csr(vals, cols, rows, shape) -> "scipy.sparse.csr_matrix":
    """CSR matrix of slot values vals (slot, row) in columns cols, rows
    `rows` of shape; exact zeros are not stored."""
    import scipy.sparse as sp
    keep = vals != 0.0
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    indptr[1:][rows] = keep.sum(axis=0)
    np.cumsum(indptr, dtype=np.int32, out=indptr)
    return sp.csr_matrix((vals.T[keep.T], cols.T[keep.T], indptr), shape)


def _terms(a11, a12, a22, X1, X2):
    """(coefficient, operator) in the order they are summed."""
    drift = [(X1, "1"), (X2, "2")] if X1 is not None else []
    return [(a11, "11"), (a22, "22"), (2.0 * a12, "12"), *drift, (1.0, "R")]


@dataclass(frozen=True)
class StencilOps:
    """Sparse difference operators on the masked lattice.

    (qx, qy) are the boundary crossings that some row reads: every
    exterior direction of a PDE row and the cut direction of an
    interpolation row. Each operator is a pair, L[k] on the interior
    values and G[k] on the data at the crossings (crossing_values), so the
    closed difference of u with data phi is L u + G phi: the second
    differences k = '11', '22', '12' and central first differences '1',
    '2' on PDE rows, and the interpolation rows L['R'] u + G['R'] phi = 0.

    The L share one N x N pattern, the 3 x 3 stencil (_SLOTS) of every
    row: cols[s] is the column of slot s, the row itself where that node
    is outside the mask. The G share one N x nq pattern, the exterior
    directions (_DIRS) of the rows qrows that read a crossing: qcols[s] is
    the column of direction s. An operator holds one row of values per
    slot it uses (_LAYOUT), zero where it has no entry, and operator()
    gives it as a CSR matrix. Every array is read-only; build_stencil_ops
    keeps the operators of the four grids used last, and _LAPLACIAN the
    LU of system(1, 0, 1) for the one grid solved on last, keyed by grid.
    """

    grid: DomainGrid
    N: int
    pde: np.ndarray            # PDE rows (True) vs interpolation rows
    qx: np.ndarray             # crossing points, one per column of every G
    qy: np.ndarray
    cols: np.ndarray           # (9, N)
    qrows: np.ndarray
    qcols: np.ndarray          # (8, len(qrows))
    L: MappingProxyType        # operator -> its slot values
    G: MappingProxyType

    def scatter(self, vec: np.ndarray) -> np.ndarray:
        """Interior vector -> full (n, n) array, zero outside the mask."""
        out = np.zeros((self.grid.n, self.grid.n))
        out[self.grid.mask] = vec
        return out

    def crossing_values(self, data) -> np.ndarray:
        """The data at the crossing points: the vector every G acts on."""
        return eval_boundary_data(self.grid, data, self.qx, self.qy)

    def operator(self, side: str, k: str) -> "scipy.sparse.csr_matrix":
        """L[k] (side 'L') or G[k] (side 'G') as a CSR matrix."""
        ls, gs = _LAYOUT[k]
        if side == "L":
            return _csr(self.L[k], self.cols[ls], slice(None),
                        (self.N, self.N))
        return _csr(self.G[k], self.qcols[gs], self.qrows,
                    (self.N, len(self.qx)))

    def system(self, a11, a12, a22, X1=None, X2=None,
               c0=None) -> "scipy.sparse.csr_matrix":
        """A of a11 d_11 + 2 a12 d_12 + a22 d_22 [+ X1 d_1 + X2 d_2 + c0],
        coefficients scalar or on the interior numbering: each row reads
        A u + G_A phi = f, G_A = crossing_system(a11, a12, a22, X1, X2),
        and f = 0 on the interpolation rows. Each entry is summed as
        diag(c) L over the terms in the order '11', '22', '12', drift, then
        R (whose rows no term touches), then c0 on the PDE rows; exact
        zeros are dropped, so the pattern is that of the sparse sum. The
        Laplacian system(1, 0, 1) is factored once per grid: _LAPLACIAN
        keeps its LU for the one grid solved on last, keyed by grid."""
        vals = np.zeros((9, self.N))
        for c, k in _terms(a11, a12, a22, X1, X2):
            vals[_LAYOUT[k][0]] += c * self.L[k]
        if c0 is not None:
            vals[4] += np.where(self.pde, c0, 0.0)
        return _csr(vals, self.cols, slice(None), (self.N, self.N))

    def crossing_system(self, a11, a12, a22, X1=None,
                        X2=None) -> "scipy.sparse.csr_matrix":
        """G_A of system: the same sum over the G."""
        vals = np.zeros((8, len(self.qrows)))
        for c, k in _terms(a11, a12, a22, X1, X2):
            vals[_LAYOUT[k][1]] += np.broadcast_to(
                c, (self.N,))[self.qrows] * self.G[k]
        return _csr(vals, self.qcols, self.qrows, (self.N, len(self.qx)))


@functools.lru_cache(maxsize=4)
def build_stencil_ops(grid: DomainGrid) -> StencilOps:
    """Assemble (and cache) the masked difference operators for a grid.

    Every array of the result is read-only: equal grids share it.
    """
    # every domain-half solve starts here, so no solve pays for the import
    import scipy.sparse.linalg
    mask, dx = grid.mask, grid.dx
    ii, jj = np.nonzero(mask)
    N = len(ii)
    idx = np.full(mask.shape, -1, dtype=np.int32)
    idx[ii, jj] = np.arange(N)
    X, Y = grid.x1[ii], grid.x2[jj]
    di, dj = np.array(_DIRS).T[:, :, None]

    # per direction: the neighbor is inside, or the ray to it crosses the
    # boundary at the fraction alpha of the step
    inside = mask[ii + di, jj + dj]
    alpha = np.ones((8, N))
    d, r = np.nonzero(~inside)
    alpha[d, r] = grid.ray_cut(X[r], Y[r], di[d, 0] * dx, dj[d, 0] * dx)
    if not np.all(np.isfinite(alpha)):
        raise GridError("exterior neighbor without boundary crossing")

    # classify quasi-boundary nodes by their smallest axis cut
    which = alpha[:4].argmin(axis=0)
    interp = alpha[:4].min(axis=0) < CUT_FRACTION
    pde = ~interp

    # number the crossings some row reads, direction by direction: every
    # exterior direction of a PDE row and the cut direction of an
    # interpolation row
    read = ~inside & (pde | (np.arange(8)[:, None] == which) & interp)
    d, r = np.nonzero(read)
    cross = np.zeros((8, N), dtype=np.int32)
    cross[d, r] = np.arange(len(r))
    qx = X[r] + alpha[d, r] * di[d, 0] * dx
    qy = Y[r] + alpha[d, r] * dj[d, 0] * dx
    qrows = np.nonzero(np.any(read, axis=0))[0]
    cols = np.stack([idx[ii + a, jj + b] for a, b in _SLOTS])
    cols = np.where(cols >= 0, cols, np.arange(N, dtype=np.int32))

    # interpolation rows: u_C - a/(1 + a) u_W - phi(Q)/(1 + a) = 0, W
    # opposite the cut
    k = np.nonzero(interp)[0]
    cut = which[k]
    a = alpha[cut, k]
    wi, wj = ii[k] - di[cut, 0], jj[k] - dj[cut, 0]
    if not np.all(mask[wi, wj]):
        j = k[np.argmin(mask[wi, wj])]
        raise GridError(
            f"grid too coarse near node ({ii[j]}, {jj[j]}): no interior "
            "neighbor to anchor the quasi-boundary interpolation")
    L, G = {"R": np.zeros((7, N))}, {"R": np.zeros((4, len(qrows)))}
    L["R"][3, k] = 1.0
    L["R"][3 - 3 * di[cut, 0] - dj[cut, 0], k] = -a / (1.0 + a)
    G["R"][cut, np.searchsorted(qrows, k)] = -1.0 / (1.0 + a)

    # the PDE rows: a ghost value past the crossing extrapolates linearly
    h2 = dx * dx
    for key, w, denom, center_base in [
            ("11", [1.0, 1.0], h2, -2.0), ("22", [1.0, 1.0], h2, -2.0),
            ("12", [1.0, 1.0, -1.0, -1.0], 4.0 * h2, 0.0),
            ("1", [0.5, -0.5], dx, 0.0), ("2", [0.5, -0.5], dx, 0.0)]:
        ls, gs = _LAYOUT[key]
        w, slots = np.array(w)[:, None], range(9)[ls]
        ghost = pde & ~inside[gs]
        frac = np.where(ghost, alpha[gs], 1.0)
        L[key] = np.zeros((len(slots), N))
        L[key][[slots.index(_SLOTS.index(_DIRS[d])) for d in range(8)[gs]]] = (
            np.where(pde & inside[gs], w / denom, 0.0))
        center = (w * (1.0 - 1.0 / frac) / denom).sum(axis=0)
        L[key][slots.index(4)] = np.where(pde, center_base / denom + center,
                                          0.0)
        G[key] = np.where(ghost, w / (frac * denom), 0.0)[:, qrows]

    ops = StencilOps(grid=grid, N=N, pde=pde, qx=qx, qy=qy, cols=cols,
                     qrows=qrows, qcols=cross[:, qrows],
                     L=MappingProxyType(L), G=MappingProxyType(G))
    for arr in (pde, qx, qy, cols, qrows, ops.qcols, *L.values(),
                *G.values()):
        arr.flags.writeable = False
    return ops


# ---------------------------------------------------------------------------
# Poisson initialization


# the factored Laplacian of the grid solved on last, keyed by the grid
_LAPLACIAN: dict = {}


def _poisson(ops: StencilOps, Fvec: np.ndarray, phi: np.ndarray):
    """The factored Laplacian L11 + L22 + R (from _LAPLACIAN, read-only)
    and the solution of Laplace u = 2 sqrt(F) for crossing values phi."""
    lap = _LAPLACIAN.get(ops.grid)
    if lap is None:
        _LAPLACIAN.clear()         # the old LU goes before the new is made
        lap = _LAPLACIAN[ops.grid] = SparseLU(ops.system(1.0, 0.0, 1.0))
        for arr in (lap.A.data, lap.A.indices, lap.A.indptr):
            arr.flags.writeable = False
    rhs = (np.where(ops.pde, 2.0 * np.sqrt(Fvec), 0.0)
           - ops.crossing_system(1.0, 0.0, 1.0) @ phi)
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


def stencil_hessian(ops: StencilOps, U: np.ndarray, phi: np.ndarray):
    """Stencil Hessian entries (h11, h22, h12) of interior values U, the
    stencils closed by the crossing values phi (ops.crossing_values): each
    is L U + G phi, each summed over a row's slots in column order."""
    out = []
    for k in ("11", "22", "12"):
        ls, gs = _LAYOUT[k]
        h = sum(v * U[c] for v, c in zip(ops.L[k], ops.cols[ls]))
        h[ops.qrows] += sum(v * phi[c]
                            for v, c in zip(ops.G[k], ops.qcols[gs]))
        out.append(h)
    return tuple(out)


def _min_eig(h11, h22, h12, where):
    tr = h11 + h22
    gap = np.sqrt((h11 - h22) ** 2 + 4.0 * h12 ** 2)
    lam = 0.5 * (tr - gap)
    return float(np.min(lam[where]))


def source_grid(F, grid: DomainGrid | None) -> DomainGrid:
    """The grid to solve on: grid if given, else the one F lives on; a
    GridError unless that is a DomainGrid."""
    if grid is None:
        if not isinstance(F, ScalarField):
            raise GridError("pass a grid when F is not a ScalarField")
        grid = F.grid
    if not isinstance(grid, DomainGrid):
        raise GridError(f"the Monge-Ampere solve needs a DomainGrid, not a "
                        f"{type(grid).__name__}")
    return grid


def solve_ma(F, phi=None, grid: DomainGrid | None = None) -> MASolution:
    """Solve det D^2 u = F, u = phi on the boundary, by damped Newton.

    F may be a ScalarField, an array, a scalar, or a callable; phi may be a
    BoundaryTrace, a scalar, a callable, or None for zero data. The
    residual target is NEWTON_TOL * max F in the max norm, within
    NEWTON_MAX_ITER steps. Steps are damped by
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

    import scipy.sparse.linalg as spla
    lap, U = _poisson(ops, Fvec, phic)
    precond = spla.LinearOperator((ops.N, ops.N), matvec=lap.solve)
    pde = ops.pde
    Ftarget = NEWTON_TOL * float(np.max(np.abs(Fvec)))

    def state(U):
        """Stencil Hessian, residual, its max norm and the min eigenvalue."""
        h = stencil_hessian(ops, U, phic)
        res = np.where(pde, h[0] * h[1] - h[2] ** 2 - Fvec, 0.0)
        return h, res, float(np.max(np.abs(res))), _min_eig(*h, pde)

    (h11, h22, h12), res, rnorm, lam_min = state(U)
    log = [(0, rnorm, 1.0, lam_min, 0, False)]

    for it in range(1, NEWTON_MAX_ITER + 1):
        if rnorm <= Ftarget:
            break
        J = ops.system(h22, -h12, h11)
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
            if lam < DAMPING_MIN and info != 0:
                # the Krylov solve missed eta: redo the step exactly, once
                step, info, lam = SparseLU(J).solve(-res), 0, 1.0
                redone = True
            elif lam < DAMPING_MIN:
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
            f"no convergence in {NEWTON_MAX_ITER} iterations; residual "
            f"{rnorm:.3e}", log)

    detH = h11 * h22 - h12 ** 2
    convex = (lam_min > 0.0
              and float(np.min(detH[pde])) >= 0.5 * float(np.min(Fvec)))
    return MASolution(
        u=ScalarField(ops.scatter(U), grid), F=ScalarField(Fv.copy(), grid),
        phi=BoundaryTrace(ring_values(grid, phi), grid), log=log,
        convex=convex)


def solve_ma_zero(F, grid: DomainGrid | None = None) -> MASolution:
    """solve_ma with zero boundary data: the base every linearization and
    DN map is taken around. Nothing is cached; each call solves."""
    return solve_ma(F, None, grid)
