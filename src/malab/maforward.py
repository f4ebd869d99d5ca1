"""Damped-Newton solver for the planar Monge-Ampere Dirichlet problem.

Solves det D^2 u = F on a convex domain with Dirichlet data on the exact
boundary curve. The discretization is a 9-point scheme on the masked
lattice: second differences along the axes, the 4-point diagonal stencil
for the mixed derivative, and ghost values closed by linear interpolation
along the stencil ray to the exact boundary crossing. Interior nodes whose
nearest axis crossing is closer than a quarter cell become interpolation
rows instead of PDE rows, which keeps every matrix row bounded.

The Newton step solves cof(D^2 u) : D^2 delta = F - det D^2 u with zero
boundary data, damped by backtracking under a convexity guard. Each solve
factors the Laplacian L11 + L22 + R once (sparse LU); that factorization
gives the Poisson initial guess and preconditions GMRES on every Newton
Jacobian, which is inexact Newton with the forcing term
eta = min(0.1, 0.1 * max|res|) (Eisenstat and Walker, SIAM J. Sci. Comput.
17, 1996). A step whose GMRES solve misses eta still has to pass the line
search; if it runs out of damping, the step is solved again once with a
sparse LU of the Jacobian and the line search restarts from a full step
(MASolution.lu_steps records where). The same layer, SparseLU, solves
the linearized systems of `linearize` and `dnmap`: one factorization per
matrix, any number of right sides, and a residual check on every column.
No factorization is kept beyond the call that made it.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import (BoundaryTrace, DomainGrid, GridError, ScalarField,
                   tangential_derivative)

__all__ = [
    "LinearSolveFailure",
    "MASolution",
    "NewtonFailure",
    "StencilOps",
    "build_stencil_ops",
    "boundary_vector",
    "data_norm_surrogate",
    "eval_boundary_data",
    "poisson_init",
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
    """Newton iteration failed; carries the iteration log, the GMRES
    iteration count of every step taken and the LU-retried iterations."""

    def __init__(self, msg: str, log, krylov_iters=(), lu_steps=()):
        super().__init__(msg)
        self.log = log
        self.krylov_iters = list(krylov_iters)
        self.lu_steps = list(lu_steps)


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

    ``data`` may be a callable (x, y) -> value, a scalar, or a
    BoundaryTrace. Trace values live on the ring nodes, which sit at
    uniform angles t of the parametrization (a cos t, b sin t); a point is
    assigned the angle of its image (x/a, y/b) on the unit disk
    (DomainGrid.param_angle), and off-node evaluation is trigonometric
    interpolation in t, exact for band-limited data.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if data is None:
        return np.zeros_like(x)
    if callable(data):
        return np.asarray(data(x, y), dtype=float) + np.zeros_like(x)
    if np.isscalar(data):
        return np.full_like(x, float(data))

    vals = np.asarray(data.values, dtype=float)
    M = len(vals)
    theta = grid.param_angle(x, y)
    c = np.fft.rfft(vals)
    w = np.full(len(c), 2.0)
    w[0] = 1.0
    if M % 2 == 0:
        # Nyquist column carries cos only
        c[-1] = c[-1].real
        w[-1] = 1.0
    # sum_k w_k c_k e^{ikt} with k = qB + r: e^{ikt} = e^{iqBt} e^{irt}, so
    # two exponential tables of about sqrt(#k) columns replace one per k
    B = math.isqrt(len(c) - 1) + 1
    Q = -(-len(c) // B)
    cw = np.zeros(Q * B, dtype=complex)
    cw[:len(c)] = w * c / M
    t = theta.ravel()
    lo = np.exp(1j * np.outer(t, np.arange(B)))
    hi = np.exp(1j * np.outer(t, B * np.arange(Q)))
    out = np.einsum("pq,pq->p", hi, lo @ cw.reshape(Q, B).T).real
    return out.reshape(x.shape)


def data_norm_surrogate(grid: DomainGrid, data) -> float:
    """Discrete stand-in for a high-order boundary norm of the data.

    Maximum of the value and the first two arclength-derivative magnitudes
    on the ring (grid.tangential_derivative).
    """
    b = grid.boundary
    vals = eval_boundary_data(grid, data, b.points[:, 0], b.points[:, 1])
    d1 = tangential_derivative(grid, vals)
    d2 = tangential_derivative(grid, d1)
    return float(max(np.max(np.abs(vals)), np.max(np.abs(d1)),
                     np.max(np.abs(d2))))


# ---------------------------------------------------------------------------
# stencil assembly


@dataclass(frozen=True)
class GhostTable:
    """Boundary contributions of one operator: row k gains coef * phi(q)."""

    rows: np.ndarray
    coef: np.ndarray
    qx: np.ndarray
    qy: np.ndarray


@dataclass(frozen=True)
class StencilOps:
    """Sparse second-difference operators on the masked lattice.

    L11, L22, L12 hold the interior-to-interior couplings on PDE rows; the
    matching GhostTable carries each row's boundary-data coefficients, so
    the full difference is L @ u + boundary_vector(table, data). R holds
    the interpolation rows for quasi-boundary nodes, with their data
    coefficients in r_ghost.
    """

    grid: DomainGrid
    N: int
    idx: np.ndarray            # (n, n) interior numbering, -1 outside
    ii: np.ndarray
    jj: np.ndarray
    pde: np.ndarray            # PDE rows (True) vs interpolation rows
    L11: sp.csr_matrix
    L22: sp.csr_matrix
    L12: sp.csr_matrix
    L1: sp.csr_matrix
    L2: sp.csr_matrix
    g11: GhostTable
    g22: GhostTable
    g12: GhostTable
    g1: GhostTable
    g2: GhostTable
    R: sp.csr_matrix
    r_ghost: GhostTable

    def scatter(self, vec: np.ndarray) -> np.ndarray:
        """Interior vector -> full (n, n) array, zero outside the mask."""
        out = np.zeros((self.grid.n, self.grid.n))
        out[self.grid.mask] = vec
        return out


_ops_cache: dict = {}


def _grid_key(grid: DomainGrid):
    return (grid.a, grid.b, grid.n)


def build_stencil_ops(grid: DomainGrid) -> StencilOps:
    """Assemble (and cache) the masked difference operators for a grid."""
    key = _grid_key(grid)
    if key in _ops_cache:
        return _ops_cache[key]

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

    # interpolation rows: u_C = (a u_W + phi(Q)) / (1 + a), W opposite the cut
    r_rows, r_cols, r_vals = [], [], []
    rg_rows, rg_coef, rg_qx, rg_qy = [], [], [], []
    for k in np.nonzero(interp)[0]:
        di, dj = axis_dirs[which[k]]
        a = alpha[(di, dj)][k]
        wi, wj = ii[k] - di, jj[k] - dj
        if not mask[wi, wj]:
            raise GridError(
                f"grid too coarse near node ({ii[k]}, {jj[k]}): no interior "
                "neighbor to anchor the quasi-boundary interpolation")
        r_rows += [k, k]
        r_cols += [k, idx[wi, wj]]
        r_vals += [1.0, -a / (1.0 + a)]
        rg_rows.append(k)
        rg_coef.append(1.0 / (1.0 + a))
        rg_qx.append(X[k] + a * di * dx)
        rg_qy.append(Y[k] + a * dj * dx)

    def _assemble(dirs, weights, denom, center_base):
        rows, cols, vals = [], [], []
        grows, gcoef, gqx, gqy = [], [], [], []
        center = np.zeros(N)
        for (di, dj), w in zip(dirs, weights):
            inb = inside[(di, dj)]
            a = alpha[(di, dj)]
            nb = idx[ii + di, jj + dj]
            sel = pde & inb
            rows.append(np.nonzero(sel)[0])
            cols.append(nb[sel])
            vals.append(np.full(sel.sum(), w / denom))
            gh = pde & ~inb
            center[gh] += w * (1.0 - 1.0 / a[gh]) / denom
            grows.append(np.nonzero(gh)[0])
            gcoef.append(w / (a[gh] * denom))
            gqx.append(X[gh] + a[gh] * di * dx)
            gqy.append(Y[gh] + a[gh] * dj * dx)
        ctr = np.nonzero(pde)[0]
        rows.append(ctr)
        cols.append(ctr)
        vals.append(center_base / denom + center[ctr])
        L = sp.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(N, N)).tocsr()
        table = GhostTable(np.concatenate(grows), np.concatenate(gcoef),
                           np.concatenate(gqx), np.concatenate(gqy))
        return L, table

    h2 = dx * dx
    L11, g11 = _assemble([(1, 0), (-1, 0)], [1.0, 1.0], h2, -2.0)
    L22, g22 = _assemble([(0, 1), (0, -1)], [1.0, 1.0], h2, -2.0)
    L12, g12 = _assemble(diag_dirs, [1.0, 1.0, -1.0, -1.0], 4.0 * h2, 0.0)
    L1, g1 = _assemble([(1, 0), (-1, 0)], [0.5, -0.5], dx, 0.0)
    L2, g2 = _assemble([(0, 1), (0, -1)], [0.5, -0.5], dx, 0.0)

    R = sp.coo_matrix((r_vals, (r_rows, r_cols)), shape=(N, N)).tocsr()
    r_ghost = GhostTable(np.asarray(rg_rows, dtype=np.int64),
                         np.asarray(rg_coef), np.asarray(rg_qx),
                         np.asarray(rg_qy))

    ops = StencilOps(grid=grid, N=N, idx=idx, ii=ii, jj=jj, pde=pde,
                     L11=L11, L22=L22, L12=L12, L1=L1, L2=L2,
                     g11=g11, g22=g22, g12=g12, g1=g1, g2=g2,
                     R=R, r_ghost=r_ghost)
    _ops_cache[key] = ops
    return ops


def boundary_vector(ops: StencilOps, table: GhostTable, data) -> np.ndarray:
    """Boundary-data contribution of one operator as a dense vector."""
    b = np.zeros(ops.N)
    if len(table.rows):
        vals = eval_boundary_data(ops.grid, data, table.qx, table.qy)
        np.add.at(b, table.rows, table.coef * vals)
    return b


# ---------------------------------------------------------------------------
# Poisson initialization


def _laplacian(ops: StencilOps) -> SparseLU:
    return SparseLU(ops.L11 + ops.L22 + ops.R)


def _poisson_rhs(ops: StencilOps, F: np.ndarray, data) -> np.ndarray:
    rhs = 2.0 * np.sqrt(F[ops.grid.mask])
    rhs -= boundary_vector(ops, ops.g11, data)
    rhs -= boundary_vector(ops, ops.g22, data)
    rhs[~ops.pde] = boundary_vector(ops, ops.r_ghost, data)[~ops.pde]
    return rhs


def poisson_init(grid: DomainGrid, F: np.ndarray, data) -> np.ndarray:
    """Initial guess: solve Laplace u = 2 sqrt(F) with the Dirichlet data.

    At isotropic points det D^2 u = (Laplace u / 2)^2, so this starts the
    Newton iteration at a convex function with the right volume scale.
    solve_ma builds the same guess from the factorization it keeps for
    its Newton steps.
    """
    ops = build_stencil_ops(grid)
    return _laplacian(ops).solve(_poisson_rhs(ops, F, data))


# ---------------------------------------------------------------------------
# the solver


@dataclass
class MASolution:
    """Solution of det D^2 u = F with its Newton iteration record."""

    u: ScalarField
    F: ScalarField
    phi: BoundaryTrace
    log: list = field(default_factory=list)   # (iter, residual, damping, min_eig)
    convex: bool = False
    data_norm: float = 0.0
    admissible: bool = True
    krylov_iters: list = field(default_factory=list)   # GMRES per step
    lu_steps: list = field(default_factory=list)   # iterations redone by LU

    def log_csv(self) -> str:
        buf = io.StringIO()
        buf.write("iter,residual,damping,min_eig\n")
        for row in self.log:
            buf.write("%d,%.16e,%.6f,%.16e\n" % tuple(row))
        return buf.getvalue()


def stencil_hessian(ops: StencilOps, U: np.ndarray, data=None, bvecs=None):
    """Stencil Hessian entries (h11, h22, h12) of interior values U.

    The ghost values close the stencils with the Dirichlet data, as the
    boundary vectors (b11, b22, b12); pass those as bvecs to reuse them.
    """
    if bvecs is None:
        bvecs = [boundary_vector(ops, t, data)
                 for t in (ops.g11, ops.g22, ops.g12)]
    b11, b22, b12 = bvecs
    return ops.L11 @ U + b11, ops.L22 @ U + b22, ops.L12 @ U + b12


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


def _as_field_values(F, grid) -> np.ndarray:
    if isinstance(F, ScalarField):
        if F.grid is not grid and not (isinstance(F.grid, DomainGrid)
                                       and _grid_key(F.grid) == _grid_key(grid)):
            raise GridError("source field lives on a different grid")
        return np.asarray(F.values, dtype=float)
    if callable(F):
        X, Y = grid.meshgrid()
        return np.asarray(F(X, Y), dtype=float) + np.zeros((grid.n, grid.n))
    arr = np.asarray(F, dtype=float)
    if arr.ndim == 0:
        return np.full((grid.n, grid.n), float(arr))
    if arr.shape != (grid.n, grid.n):
        raise GridError("source array shape does not match the grid")
    return arr


def _as_trace(grid: DomainGrid, data) -> BoundaryTrace:
    b = grid.boundary
    vals = eval_boundary_data(grid, data, b.points[:, 0], b.points[:, 1])
    return BoundaryTrace(vals, grid)


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
    Fv = _as_field_values(F, grid)
    Fvec = Fv[grid.mask]
    if not np.all(np.isfinite(Fvec)):
        raise GridError("source has non-finite values on the domain")
    if np.min(Fvec) <= 0.0:
        raise GridError("source must be uniformly positive on the domain")

    ops = build_stencil_ops(grid)
    bvecs = [boundary_vector(ops, t, phi) for t in (ops.g11, ops.g22, ops.g12)]

    norm_phi = data_norm_surrogate(grid, phi)

    lap = _laplacian(ops)
    U = lap.solve(_poisson_rhs(ops, Fv, phi))
    precond = spla.LinearOperator((ops.N, ops.N), matvec=lap.solve)
    pde = ops.pde
    Ftarget = tol * float(np.max(np.abs(Fvec)))

    log, krylov, lu_steps = [], [], []
    h11, h22, h12 = stencil_hessian(ops, U, bvecs=bvecs)
    res = np.where(pde, h11 * h22 - h12 ** 2 - Fvec, 0.0)
    rnorm = float(np.max(np.abs(res)))
    lam_min = _min_eig(h11, h22, h12, pde)
    log.append((0, rnorm, 1.0, lam_min))

    for it in range(1, max_iter + 1):
        if rnorm <= Ftarget:
            break
        J = (sp.diags(h22) @ ops.L11 + sp.diags(h11) @ ops.L22
             - 2.0 * sp.diags(h12) @ ops.L12 + ops.R).tocsr()
        count = []
        step, info = spla.gmres(J, -res, M=precond,
                                rtol=min(0.1, 0.1 * rnorm), atol=0.0,
                                restart=KRYLOV_RESTART, maxiter=KRYLOV_CYCLES,
                                callback=count.append, callback_type="pr_norm")
        krylov.append(len(count))

        lam = 1.0
        while True:
            Ut = U + lam * step
            t11, t22, t12 = stencil_hessian(ops, Ut, bvecs=bvecs)
            rt = np.where(pde, t11 * t22 - t12 ** 2 - Fvec, 0.0)
            rn = float(np.max(np.abs(rt)))
            le = _min_eig(t11, t22, t12, pde)
            if le > 0.0 and rn <= (1.0 - 1e-4 * lam) * rnorm:
                break
            lam *= 0.5
            if lam < damping_min and info != 0:
                # the Krylov solve missed eta: redo the step exactly, once
                step, info, lam = SparseLU(J).solve(-res), 0, 1.0
                lu_steps.append(it)
            elif lam < damping_min:
                log.append((it, rn, lam, le))
                lost = (f"convexity lost (min eigenvalue {le:.3e})"
                        if le <= 0.0 else "descent lost")
                if it in lu_steps:
                    lost += " on the LU-retried step"
                raise NewtonFailure(
                    f"damping exhausted at iteration {it}: {lost}; "
                    f"residual {rnorm:.3e}", log, krylov, lu_steps)
        U, h11, h22, h12, res, rnorm = Ut, t11, t22, t12, rt, rn
        log.append((it, rnorm, lam, le))
    else:
        raise NewtonFailure(
            f"no convergence in {max_iter} iterations; residual {rnorm:.3e}",
            log, krylov, lu_steps)

    detH = h11 * h22 - h12 ** 2
    convex = (_min_eig(h11, h22, h12, pde) > 0.0
              and float(np.min(detH[pde])) >= 0.5 * float(np.min(Fvec)))
    sol = MASolution(
        u=ScalarField(ops.scatter(U), grid),
        F=ScalarField(Fv, grid), phi=_as_trace(grid, phi), log=log,
        convex=convex, data_norm=norm_phi, admissible=norm_phi <= delta,
        krylov_iters=krylov, lu_steps=lu_steps)
    return sol


_zero_cache: dict = {}


def solve_ma_zero(F, grid: DomainGrid | None = None, **opts) -> MASolution:
    """solve_ma with zero boundary data, cached as the linearization base.

    Every caller gets its own MASolution, with its own log, Krylov counts
    and LU-retried steps, over the cached u, F and phi, whose values are
    read-only.
    """
    grid = source_grid(F, grid)
    Fv = _as_field_values(F, grid)
    key = (_grid_key(grid), hashlib.sha256(Fv[grid.mask].tobytes()).hexdigest(),
           tuple(sorted(opts.items())))
    if key not in _zero_cache:
        # a copy, so freezing it leaves the caller's array writable
        sol = solve_ma(Fv.copy(), None, grid, **opts)
        for arr in (sol.u.values, sol.F.values, sol.phi.values):
            arr.flags.writeable = False
        _zero_cache[key] = sol
    sol = _zero_cache[key]
    return replace(sol, log=list(sol.log), krylov_iters=list(sol.krylov_iters),
                   lu_steps=list(sol.lu_steps))


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
    b = grid.boundary
    pvals = eval_boundary_data(grid, phi, b.points[:, 0], b.points[:, 1])
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
