"""Damped-Newton solver for the planar Monge-Ampere Dirichlet problem.

Solves det D^2 u = F on a convex domain with Dirichlet data on the exact
boundary curve. The discretization is a 9-point scheme on the masked
lattice, on every mask node: second differences along the axes, the
4-point diagonal stencil for the mixed derivative, and ghosts at the
boundary. A ray that crosses the boundary at the fraction a of its
step reads a ghost past the crossing Q, the quadratic through the
opposite node O, the center C and Q, (1 - a)/(1 + a) u_O - 2 (1 - a)/a
u_C + 2/(a (1 + a)) phi(Q) (Shortley and Weller, J. Appl. Phys. 9,
1938), along the axes and the diagonals alike; the line through C and Q
where O is outside too. So the stencil Hessian, which `linearize`
inverts, reads D^2 u to O(dx) up to the rim, and u is second order
(Gibou, Fedkiw, Cheng and Kang, J. Comput. Phys. 176, 2002). A node on
the curve to rounding, whose cut reads 0, is outside the mask
(grid._ON_CURVE): less code than the data row u_C = phi(C), a row type
of its own. A cut weighs its row up to 2/(a (1 + a) dx^2), so Newton
aims at NEWTON_TOL max F, or at a row's own rounding floor where that
is higher (_row_targets).

The Dirichlet data enter through one vector per grid, their values at the
boundary crossings that the stencil rows read (StencilOps.crossing_values;
ring_values gives them on the boundary ring). Each Hessian operator is a
pair of CSR matrices, built once per grid: H on the interior values and G
on the crossing values. StencilOps.system and crossing_system weight
them row by row and add them as sparse matrices into a system (A, G_A),
each row reading A u + G_A phi = f: the systems of `linearize`. The
Newton solve assembles none: _RedBlackLU slices the Laplacian's blocks
from H11 + H22, and the Jacobian is applied term by term (_jacobian).

The Newton step solves cof(D^2 u) : D^2 delta = F - det D^2 u with zero
boundary data, damped by backtracking under a convexity guard. As
cof(D^2 u) = F (D^2 u)^{-1} at a solution, the Jacobian is F times the
linearized operator of `linearize`. It is applied without a matrix, as
h22 H11 z + h11 H22 z - 2 h12 H12 z with the Hessian operators H that
give the residual (Knoll and Keyes, J. Comput. Phys. 193, 2004). The
factored Laplacian H11 + H22 runs the Poisson iteration of the initial
guess (poisson_init) and preconditions GMRES on every Newton Jacobian,
which is inexact Newton with the forcing term eta = min(0.1, max(0.1
max|res|, target / (2 ||res||_2))) (Eisenstat and Walker, SIAM J. Sci.
Comput. 17, 1996): the second bound keeps a step from driving its
linear residual below half the least row target, which the stopping
rule never asks for. The GMRES is right-preconditioned
and restarted (_gmres, malab's one Krylov solver, which geomkit's
Beltrami solve runs on complex vectors, each caller setting its
budget): one Laplacian solve per iteration, and the residual it stops
on is the true one, ||b - J x||_2 <= eta ||b||_2. The Laplacian
reads only axis neighbors, so no two nodes of one color (i + j) mod 2
are coupled: _RedBlackLU eliminates the red half, a diagonal solve, and
factors the Schur complement on the black half (Saad, Iterative Methods
for Sparse Linear Systems, sections 3.3 and 13.2). That factorization,
and the linearized systems of `linearize` and `dnmap`, go through one
layer, SparseLU: one factorization per matrix, any number of right
sides, and a residual check on every column when asked.

Each matrix SparseLU factors is a 3 x 3 stencil on a lattice, which one
line of nodes cuts in two, and it is factored in a nested-dissection
order of that lattice (_nested_dissection; George, SIAM J. Numer. Anal.
10, 1973): the metric systems on the nodes (i, j), the Schur complement
on the black nodes in the rotated coordinates ((i + j - 1) / 2,
(i - j - 1) / 2). Against SuperLU's minimum degree on A + A^T, L + U
holds 12-18% fewer nonzeros and the factorization takes 30-50% less
time at n = 128-233 (one thread).

One cache outlives a call: build_stencil_ops, through a functools
lru_cache keyed by the grid (_stencil_ops), keeps the operators of the
one grid used last, so an equal grid built twice hits. The operators own
what they derive, each made at its first use: the factored Laplacian
(StencilOps._laplacian, about 19 MB at n = 232) and the order of their
nodes (StencilOps._order). So an evicted grid's factors go with its
operators, before the next grid's are made, unless a caller still holds
them. Their arrays are read-only, so no caller can change what another
is handed. No other factorization outlives its call.

scipy.sparse is the only part of scipy that malab uses, and it loads at
the first build_stencil_ops that misses its cache: every solve starts there,
so no solve pays for the import, and the padded-box half, which never
builds operators, never loads it.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .grid import (BoundaryTrace, DomainGrid, GridError, ScalarField,
                   _require_finite, _require_grid, _require_same_grid,
                   _ring_eval, _ring_modes, _shifted, lattice_values)


# a box of the nested dissection holding at most this many lattice nodes
# is a leaf
_ND_LEAF = 8


# GMRES on a Newton Jacobian: Krylov vectors kept per cycle and cycles;
# with the Laplacian preconditioner a step takes 1-15 iterations on
# unit-scale domains
KRYLOV_RESTART = 40
KRYLOV_CYCLES = 2

# Newton: the residual target as a fraction of max F, a row's rounding
# floor in units of eps W_i max|U| max|h| (_row_targets), the step budget,
# and the damping below which the line search gives up
NEWTON_TOL = 1e-10
NEWTON_FLOOR = 4.0
NEWTON_MAX_ITER = 30
DAMPING_MIN = 1e-4


class NewtonFailure(RuntimeError):
    """Newton iteration failed; carries the log, rows as in MASolution.log
    (iter, residual, damping, min_eig, gmres_iters), the last one the
    rejected step if the damping ran out."""

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

    SuperLU factors A[order][:, order], formed by one gather of the rows
    of A with their columns relabelled, in the nested-dissection order as
    given (NATURAL) and with the diagonal pivots kept: the stencil
    matrices are nearly symmetric with a dominant diagonal. A solve
    permutes its right sides into the order and its solutions back. With
    rtol, every column of a solve must meet ||A x - b|| <= rtol ||b||
    (2-norm) after at most one step of iterative refinement, or
    LinearSolveFailure carries the per-column residuals.
    """

    def __init__(self, A, order: np.ndarray):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        self.A = A = sp.csr_matrix(A)
        self.order = order
        inv = np.empty_like(A.indices, shape=order.shape)
        inv[order] = np.arange(len(order))
        try:
            self._lu = spla.splu(    # A's columns relabelled, its rows gathered
                sp.csr_matrix((A.data, inv[A.indices], A.indptr),
                              A.shape)[order].tocsc(), permc_spec="NATURAL",
                options={"SymmetricMode": True, "DiagPivotThresh": 0.0})
        except RuntimeError as exc:        # a zero pivot
            raise LinearSolveFailure(f"sparse LU failed: {exc}", []) from exc

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self._lu.solve(rhs[self.order])
        x = np.empty_like(y)
        x[self.order] = y
        return x

    def solve(self, rhs: np.ndarray, rtol: float | None = None) -> np.ndarray:
        """x with A x = rhs; rhs is a vector or an (N, k) block of columns."""
        x = self._solve(rhs)
        if rtol is None:
            return x
        bound = rtol * np.linalg.norm(rhs, axis=0)
        r = rhs - self.A @ x
        if not np.all(np.linalg.norm(r, axis=0) <= bound):
            x = x + self._solve(r)
            r = rhs - self.A @ x
        res = np.linalg.norm(r, axis=0)
        if not np.all(res <= bound):            # NaN fails too
            raise LinearSolveFailure(
                f"LU residual {np.max(res):.3e} above rtol {rtol:g} times "
                "the right side", np.atleast_1d(res).tolist())
        return x


def _bisection_digits(n: int, cuts: int):
    """Digits of the coordinates x = 0 .. n - 1 under cuts successive
    bisections of [0, n): digit[k, x] is 0 if x lies below the midpoint of
    its interval at cut k, 1 above and 2 on it, and 0 at every cut after
    the one it lies on, on[x] (cuts if none)."""
    x = np.arange(n)
    lo, hi = np.zeros(n, dtype=np.int64), np.full(n, n, dtype=np.int64)
    digit = np.zeros((cuts, n), dtype=np.int64)
    on = np.full(n, cuts)
    for k in range(cuts):
        mid = (lo + hi) // 2
        digit[k] = d = np.where(on < k, 0, (x > mid) + 2 * (x == mid))
        on[d == 2] = k
        lo = np.where(d == 1, mid + 1, lo)
        hi = np.where(d == 0, mid, hi)
    return digit, on


def _nested_dissection(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """A nested-dissection elimination order of the lattice nodes (p, q).

    The tree cuts a box at the midpoint of its longer side and takes the
    nodes on the midline as the separator; each box orders both halves,
    then its separator, down to boxes of at most _ND_LEAF nodes. The nodes
    of a leaf, and those of one separator, keep their natural order. On a
    matrix that couples only nodes at most one apart in p and in q, the
    midline separates the halves (George, SIAM J. Numer. Anal. 10, 1973).

    The boxes of one level differ by at most one node a side, so the side
    to cut is read off the level's nominal box, and the tree is one
    sequence of cuts of p and of q. Each axis is cut once for all its
    coordinates (_bisection_digits). A node's place is a base-3 key with
    one digit a level, 0 or 1 for the halves and 2 for the separator: the
    sum of its two axes' digits, cut off after the level whose separator
    it is. The order sorts the keys, one pass per axis and no Python call
    per box.
    """
    p, q = np.asarray(p) - np.min(p), np.asarray(q) - np.min(q)
    n = (int(p.max()) + 1, int(q.max()) + 1)
    side, axes = [float(n[0]), float(n[1])], []
    while side[0] * side[1] > _ND_LEAF:
        a = int(side[1] > side[0])
        axes.append(a)
        side[a] = (side[a] - 1.0) / 2.0
    D, axes = len(axes), np.array(axes, dtype=int)
    key, last = 0, D - 1
    for a, c in enumerate((p, q)):
        levels = np.flatnonzero(axes == a)
        digit, on = _bisection_digits(n[a], len(levels))
        key = key + ((3 ** (D - 1 - levels)) @ digit)[c]
        last = np.minimum(last, np.append(levels, D)[on][c])
    scale = 3 ** (D - 1 - last)
    return np.argsort(key // scale * scale, kind="stable")


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
        _require_same_grid(grid, "boundary trace", data)
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
    _require_finite("boundary data", out)
    return out


def ring_values(grid: DomainGrid, data) -> np.ndarray:
    """Dirichlet data at the boundary ring nodes."""
    b = _require_grid(grid, DomainGrid, "ring_values").boundary
    return eval_boundary_data(grid, data, b.points[:, 0], b.points[:, 1])


# ---------------------------------------------------------------------------
# stencil assembly

# A row's slots, each run in CSR column order: its 3 x 3 stencil (the
# interior numbering is row-major) and its exterior directions (their
# crossings are numbered in this order, opposite ones in pairs 2k, 2k +
# 1). _LAYOUT gives each operator's (stencil slots, direction slots).
_SLOTS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
_DIRS = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)]
_LAYOUT = {"11": (slice(1, 9, 3), slice(0, 2)),
           "22": (slice(3, 6), slice(2, 4)),
           "12": (slice(0, 9, 2), slice(4, 8))}


def _csr(vals, cols, shape) -> "scipy.sparse.csr_matrix":
    """Read-only CSR matrix whose row i holds vals[:, i] in the columns
    cols[:, i], its nonzeros in column order; exact zeros are not stored,
    so the matrix is canonical, and its data and indices hold its nnz
    entries alone."""
    import scipy.sparse as sp
    m = len(vals)
    M = sp.csr_matrix((vals.T.reshape(-1), cols.T.reshape(-1),
                       np.arange(0, m * shape[0] + 1, m, dtype=np.int32)),
                      shape)
    M.eliminate_zeros()
    # scipy's prune keeps a view of the slot buffer unless it drops more
    # than half of it
    for name in ("data", "indices"):
        arr = getattr(M, name)
        if arr.base is not None and arr.base.size > M.nnz:
            setattr(M, name, arr.copy())
    return _read_only(M)


def _weighted_sum(mats, rows, N: int, a11, a12, a22):
    """diag(a11) M11 + diag(a22) M22 + diag(2 a12) M12 of the operators
    mats = (M11, M22, M12), whose row i is row rows[i] of the N-row sum,
    coefficients scalar or on the interior numbering: each matrix's values
    scaled by their row's coefficient, then scipy's sparse sum in that
    order, which drops exact zeros and is canonical, as they are."""
    import scipy.sparse as sp
    terms = []
    for c, M in zip((a11, a22, 2.0 * a12), mats):
        w = np.repeat(np.broadcast_to(c, (N,))[rows], np.diff(M.indptr))
        terms.append(sp.csr_matrix((w * M.data, M.indices, M.indptr),
                                   M.shape))
    A = terms[0] + terms[1] + terms[2]
    indptr = np.zeros(N + 1, dtype=np.int32)
    indptr[1:][rows] = np.diff(A.indptr)
    np.cumsum(indptr, out=indptr)
    return sp.csr_matrix((A.data, A.indices, indptr), (N, A.shape[1]))


@dataclass(frozen=True, eq=False)
class StencilOps:
    """Sparse difference operators on the masked lattice.

    (qx, qy) are the boundary crossings, one per exterior direction of
    every row that has one, the rows qrows. The Hessian operators, the
    second differences '11', '22' and '12' in that order, are pairs of
    CSR matrices, H[k] on the interior values and G[k] on the data at the
    crossings (crossing_values), so the closed difference of u with data
    phi is H[k] u + G[k] phi, each closed by the ghosts of the module
    docstring. Every row carries the equation.

    H[k] is N x N and G[k] len(qrows) x len(qx), its row i being row
    qrows[i]. Each is a canonical CSR matrix with int32 indices: a row
    holds its nonzeros once each, in column order, and no zero. Every
    array is read-only; build_stencil_ops keeps the operators of the one
    grid used last. Made at their first use: _laplacian, their Laplacian
    H11 + H22 factored (_RedBlackLU); _order, the nested-dissection order
    of the nodes (i, j) that SparseLU factors their systems in.
    """

    grid: DomainGrid
    N: int
    qx: np.ndarray             # crossing points, one per column of every G
    qy: np.ndarray
    qrows: np.ndarray          # the rows that read a crossing
    H: tuple                   # (H11, H22, H12)
    G: tuple                   # (G11, G22, G12)

    def scatter(self, vec: np.ndarray) -> np.ndarray:
        """Interior vector -> full (n, n) array, zero outside the mask."""
        out = np.zeros((self.grid.n, self.grid.n))
        out[self.grid.mask] = vec
        return out

    def crossing_values(self, data) -> np.ndarray:
        """The data at the crossing points: the vector every G acts on."""
        return eval_boundary_data(self.grid, data, self.qx, self.qy)

    def system(self, a11, a12, a22) -> "scipy.sparse.csr_matrix":
        """A of a11 d_11 + 2 a12 d_12 + a22 d_22, coefficients scalar or on
        the interior numbering: each row reads A u + G_A phi = f, G_A =
        crossing_system(a11, a12, a22). The weighted sum of the H
        (_weighted_sum), so the pattern is that of the sparse sum."""
        return _weighted_sum(self.H, slice(None), self.N, a11, a12, a22)

    def crossing_system(self, a11, a12, a22) -> "scipy.sparse.csr_matrix":
        """G_A of system: the same sum over the G, N x len(qx)."""
        return _weighted_sum(self.G, self.qrows, self.N, a11, a12, a22)

    @functools.cached_property
    def _laplacian(self) -> _RedBlackLU:
        """The factored Laplacian H11 + H22, kept with the operators."""
        return _RedBlackLU(self)

    @functools.cached_property
    def _order(self) -> np.ndarray:
        """The nested-dissection order of the nodes (i, j), with which
        SparseLU factors every system."""
        order = _nested_dissection(*np.nonzero(self.grid.mask))
        order.flags.writeable = False
        return order


def _read_only(M):
    """M, a CSR matrix, with its arrays made read-only."""
    for arr in (M.data, M.indices, M.indptr):
        arr.flags.writeable = False
    return M


def build_stencil_ops(grid: DomainGrid) -> StencilOps:
    """Assemble (and cache) the masked difference operators for a grid.

    Every array of the result is read-only: equal grids share it.  The
    cache (_stencil_ops) keeps the operators of the one grid used last,
    keyed by the grid, and with them their factored Laplacian once a solve
    has made it; building another grid's operators drops both. A grid
    that is not a DomainGrid is a GridError before the cache hashes it.
    """
    return _stencil_ops(_require_grid(grid, DomainGrid, "build_stencil_ops"))


@functools.lru_cache(maxsize=1)
def _stencil_ops(grid: DomainGrid) -> StencilOps:
    """The operators of build_stencil_ops, cached."""
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
    # boundary at the fraction alpha of the step (1 for a neighbor outside
    # the mask but inside the curve: DomainGrid.ray_cut); (d, r) are np.nonzero's
    # indices, from one flat pass (a fifth of the 2-D form's time), and
    # number the crossings direction by direction
    inside = np.stack([v[mask] for v in _shifted(mask, _DIRS, False)])
    alpha = np.ones((8, N))
    d, r = np.divmod(np.flatnonzero(~inside), N)
    alpha[d, r] = grid.ray_cut(X[r], Y[r], di[d, 0] * dx, dj[d, 0] * dx)
    cross = np.zeros((8, N), dtype=np.int32)
    cross[d, r] = np.arange(len(r))
    qx = X[r] + alpha[d, r] * di[d, 0] * dx
    qy = Y[r] + alpha[d, r] * dj[d, 0] * dx
    qrows = np.nonzero(np.any(~inside, axis=0))[0]
    cols = np.stack([v[mask] for v in _shifted(idx, _SLOTS, -1)])
    np.copyto(cols, np.arange(N, dtype=np.int32), where=cols < 0)

    # a ghost past the crossing Q at the fraction a is the quadratic
    # through the opposite node O, the center C and Q, or the line
    # through C and Q where O is outside too; only the rows qrows have a
    # ghost, and a = 1 in every inside direction gives no correction
    H, G, h2, aq = [], [], dx * dx, alpha[:, qrows]
    ghost, oin = ~inside[:, qrows], inside[np.arange(8) ^ 1][:, qrows]
    qcols, nq = cross[:, qrows], (len(qrows), len(qx))
    for key, w, denom, center_base in [
            ("11", [1.0, 1.0], h2, -2.0), ("22", [1.0, 1.0], h2, -2.0),
            ("12", [1.0, 1.0, -1.0, -1.0], 4.0 * h2, 0.0)]:
        ls, gs = _LAYOUT[key]
        a, o, slots = aq[gs], oin[gs], range(9)[ls]
        w = np.array(w)[:, None] / denom
        # stored row by row, as _csr reads them; each slot's values are
        # written where they are nonzero, into zeros
        vals = np.zeros((N, len(slots))).T
        place = [slots.index(_SLOTS.index(_DIRS[d])) for d in range(8)[gs]]
        for s, wd, d in zip(place, w[:, 0], range(8)[gs]):
            np.copyto(vals[s], wd, where=inside[d])
        # the ghost's weights on C, O and Q; the slot of a direction's O is
        # its partner's in the layout, k ^ 1
        wc, wo, wq = (w * np.where(o, quad, line) for quad, line in [
            (-2.0 * (1.0 - a) / a, 1.0 - 1.0 / a),
            ((1.0 - a) / (1.0 + a), 0.0), (2.0 / (a * (1.0 + a)), 1.0 / a)])
        vals[slots.index(4)] = center_base / denom
        vals[slots.index(4), qrows] += wc.sum(axis=0)
        for s, v in zip(place, wo[np.arange(len(place)) ^ 1]):
            vals[s, qrows] += v
        H.append(_csr(vals, cols[ls], (N, N)))
        G.append(_csr(np.where(ghost[gs], wq, 0.0), qcols[gs], nq))

    for arr in (qx, qy, qrows):
        arr.flags.writeable = False
    return StencilOps(grid=grid, N=N, qx=qx, qy=qy, qrows=qrows, H=tuple(H),
                      G=tuple(G))


# ---------------------------------------------------------------------------
# Poisson initialization


class _RedBlackLU:
    """The Laplacian H11 + H22 factored through its red-black Schur
    complement.

    Every row of the Laplacian reads only its axis neighbors, so no two
    nodes of one color (i + j) mod 2 are coupled: the red block D is
    diagonal. Eliminating the red nodes leaves S = A_bb - A_br D^-1 A_rb
    on the black ones, and SparseLU factors S. A solve is one S solve and
    two sparse products; neither the full Laplacian nor S is kept.

    The blocks are slices of the sum H11 + H22, bitwise those of
    system(1, 0, 1): A_rb its red rows' black columns, A_br the reverse,
    and D and A_bb its diagonal on the red and the black rows.

    S couples two black nodes when a red node is an axis neighbor of both,
    so they differ by (+-1, +-1), (+-2, 0) or (0, +-2) in (i, j). In the
    rotated coordinates (u, v) = ((i + j - 1) / 2, (i - j - 1) / 2) of the
    black lattice these steps are (+-1, 0), (0, +-1) and (+-1, +-1): S
    couples a node only to (u +- 1, v +- 1), a 3 x 3 stencil, and the
    factorization takes the nested-dissection order of (u, v). In (i, j)
    a midline holds only every other black node and separates nothing.
    """

    def __init__(self, ops: StencilOps):
        import scipy.sparse as sp
        ii, jj = np.nonzero(ops.grid.mask)
        red = (ii + jj) % 2 == 0
        self.red, self.black = np.nonzero(red)[0], np.nonzero(~red)[0]
        A = ops.H[0] + ops.H[1]
        center = A.diagonal()
        self.Arb = _read_only(A[self.red][:, self.black])
        self.Abr = _read_only(A[self.black][:, self.red])
        self.dinv = 1.0 / center[self.red]
        S = (sp.diags(center[self.black])
             - self.Abr @ sp.diags(self.dinv) @ self.Arb)
        del A, center            # the Laplacian goes before S is factored
        ib, jb = ii[self.black], jj[self.black]
        self.lu = SparseLU(S, _nested_dissection((ib + jb - 1) // 2,
                                                 (ib - jb - 1) // 2))
        del self.lu.A          # no Laplacian solve checks its residual
        for arr in (self.red, self.black, self.dinv, self.lu.order):
            arr.flags.writeable = False

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with (H11 + H22) x = rhs, rhs a vector."""
        y = self.dinv * rhs[self.red]
        x = np.empty_like(rhs)
        x[self.black] = xb = self.lu.solve(rhs[self.black] - self.Abr @ y)
        x[self.red] = y - self.dinv * (self.Arb @ xb)
        return x


def _source(F, grid: DomainGrid) -> tuple[np.ndarray, np.ndarray]:
    """F on grid's lattice and on its domain nodes, or a GridError unless
    it is finite and > 0 on the domain."""
    Fv = lattice_values(F, grid)
    Fvec = Fv[grid.mask]
    _require_finite("source", Fvec)
    if np.min(Fvec) <= 0.0:
        raise GridError("source must be uniformly positive on the domain")
    return Fv, Fvec


def poisson_init(grid: DomainGrid, F, data) -> tuple[np.ndarray, int, tuple]:
    """Initial guess of solve_ma: interior values, iteration count, and
    the guess's _state (stencil Hessian, residual, its max norm and the
    min eigenvalue), which solve_ma starts from.

    From Laplace u = 2 sqrt(F) with the Dirichlet data (at isotropic
    points det D^2 u = (Laplace u / 2)^2), iterate Laplace u = sqrt(h11^2 +
    h22^2 + 2 h12^2 + 2F) on the stencil Hessian h, whose fixed points
    with Laplace u > 0 solve det D^2 u = F (Benamou, Froese and Oberman,
    ESAIM: M2AN 44, 2010), one factored-Laplacian solve each; stop once
    the Hessian is positive and max|det D^2 u - F| < 0.1 max F, or drop
    an iterate that does not lower that residual and stop.  A source that
    is not finite and > 0 on the domain, or a grid that is not a
    DomainGrid, is a GridError before any solve.
    """
    _, Fvec = _source(F, _require_grid(grid, DomainGrid, "poisson_init"))
    ops = build_stencil_ops(grid)
    phi = ops.crossing_values(data)
    lap, G = ops._laplacian, ops.crossing_system(1.0, 0.0, 1.0) @ phi
    U = lap.solve(2.0 * np.sqrt(Fvec) - G)
    state = _state(ops, U, phi, Fvec)
    target, its = 0.1 * float(np.max(Fvec)), 0
    while not (state[3] > 0.0 and state[2] < target):
        its += 1
        h = state[0]
        lap_u = np.sqrt(h[0] ** 2 + h[1] ** 2 + 2.0 * h[2] ** 2 + 2.0 * Fvec)
        Un = lap.solve(lap_u - G)
        new = _state(ops, Un, phi, Fvec)
        if not new[2] < state[2]:       # NaN stops too
            break
        U, state = Un, new
    return U, its, state


# ---------------------------------------------------------------------------
# the solver


@dataclass
class MASolution:
    """Solution of det D^2 u = F with its Newton iteration record.

    log has one row (iter, residual, damping, min_eig, gmres_iters) per
    iterate: the residual max norm and least Hessian eigenvalue there, and
    the damping and right-preconditioned GMRES iterations of the step that
    reached it; row 0, the guess of poisson_init, reads damping 1.0 and
    its Poisson iterations. Either iteration is one Laplacian solve.
    """

    u: ScalarField
    F: ScalarField
    phi: BoundaryTrace
    log: list = field(default_factory=list)
    convex: bool = False


def stencil_hessian(ops: StencilOps, U: np.ndarray, phi: np.ndarray):
    """Stencil Hessian entries (h11, h22, h12) of interior values U, the
    stencils closed by the crossing values phi (ops.crossing_values): each
    is H[k] U + G[k] phi, each product summed over a row's entries in
    column order."""
    out = []
    for H, G in zip(ops.H, ops.G):
        h = H @ U
        h[ops.qrows] += G @ phi
        out.append(h)
    return tuple(out)


def _state(ops: StencilOps, U: np.ndarray, phi: np.ndarray, Fvec):
    """Stencil Hessian, residual, its max norm and the min eigenvalue."""
    h11, h22, h12 = h = stencil_hessian(ops, U, phi)
    res = h11 * h22 - h12 ** 2 - Fvec
    lam = 0.5 * (h11 + h22 - np.sqrt((h11 - h22) ** 2 + 4.0 * h12 ** 2))
    return h, res, float(np.max(np.abs(res))), float(np.min(lam))


def _row_targets(ops: StencilOps, U, h, Fvec) -> np.ndarray:
    """Newton's residual target per row: NEWTON_TOL max F, or the row's
    rounding floor NEWTON_FLOOR eps W_i max|U| max|h| where that is higher,
    W_i its largest absolute row sum over the Hessian operators. Rounding
    moves an entry of h by about eps W_i max|U|, and h11 h22 - h12^2 by
    |h22| dh11 + |h11| dh22 + 2 |h12| dh12: at most 4 max|h| times that,
    so NEWTON_FLOOR = 4 (one-ulp changes of u measure 1.5-2.3)."""
    W = np.maximum.reduce([abs(H) @ np.ones(ops.N) for H in ops.H])
    scale = float(np.max(np.abs(U)) * max(np.max(np.abs(x)) for x in h))
    return np.maximum(NEWTON_TOL * float(np.max(Fvec)),
                      NEWTON_FLOOR * np.finfo(float).eps * scale * W)


def _jacobian(ops: StencilOps, h11, h22, h12):
    """z -> cof(D^2 u) : D^2 z at the stencil Hessian h of u, the system
    system(h22, -h12, h11) applied term by term: h22 H11 z + h11 H22 z -
    2 h12 H12 z, with the Hessian operators ops.H. Nothing is assembled."""
    H11, H22, H12 = ops.H
    c12 = -2.0 * h12
    return lambda z: h22 * (H11 @ z) + h11 * (H22 @ z) + c12 * (H12 @ z)


def _gmres(J, b: np.ndarray, precond, rtol: float, restart, cycles):
    """Right-preconditioned restarted GMRES for J x = b from x = 0.

    J and precond are callables on real or complex vectors; inner products
    (np.vdot) and rotations conjugate, bitwise the real arithmetic on real
    vectors. Each iteration takes one solve z = M^-1 v and one product
    J(z) and keeps both, so a cycle ends with x += Z y and no further
    solve. With M on the right the Arnoldi residual is the true one,
    ||b - J x||_2, up to rounding (Saad and Schultz, SIAM J. Sci. Stat.
    Comput. 7, 1986): a cycle stops at rtol ||b||_2, and the residual
    formed at its end decides. The caller's budget: cycles cycles of
    restart iterations. Returns x, the iterations and whether it met rtol.
    """
    target = rtol * np.linalg.norm(b)
    x, r, iters = np.zeros_like(b), b, 0
    for _ in range(cycles):
        beta = np.linalg.norm(r)
        if beta <= target:
            break
        V, Z, R, rot, g = [r / beta], [], [], [], [beta]
        for j in range(restart):
            Z.append(precond(V[j]))
            w = J(Z[j])
            h = np.empty(j + 2, dtype=w.dtype)
            for i, v in enumerate(V):          # modified Gram-Schmidt
                h[i] = np.vdot(v, w)
                w -= h[i] * v
            h[j + 1] = wn = np.linalg.norm(w)
            for i, (cc, c, s) in enumerate(rot):   # the past rotations
                h[i], h[i + 1] = (cc * h[i] + s * h[i + 1],
                                  c * h[i + 1] - s * h[i])
            d = np.hypot(abs(h[j]), wn)
            c, s = h[j] / d, wn / d
            rot.append((c.conjugate(), c, s))
            h[j] = d
            g.append(-s * g[j])
            g[j] *= c.conjugate()
            R.append(h[:j + 1])
            iters += 1
            if abs(g[j + 1]) <= target:        # h[j + 1] = 0 reads 0 too
                break
            V.append(w / wn)
        y = np.array(g[:len(R)])
        for k in range(len(R) - 1, -1, -1):    # back substitution
            y[k] /= R[k][k]
            for i in range(k):
                y[i] -= R[k][i] * y[k]
        for yk, z in zip(y, Z):
            x += yk * z
        r = b - J(x)
    return x, iters, bool(np.linalg.norm(r) <= target)


def source_grid(F, grid: DomainGrid | None) -> DomainGrid:
    """The grid to solve on: grid if given, else the one F lives on; a
    GridError unless that is a DomainGrid."""
    if grid is None:
        if not isinstance(F, ScalarField):
            raise GridError("pass a grid when F is not a ScalarField")
        grid = F.grid
    return _require_grid(grid, DomainGrid, "the Monge-Ampere solve")


def solve_ma(F, phi=None, grid: DomainGrid | None = None) -> MASolution:
    """Solve det D^2 u = F, u = phi on the boundary, by damped Newton.

    F may be a ScalarField, an array, a scalar, or a callable; phi may be a
    BoundaryTrace, a scalar, a callable, or None for zero data. From the
    guess of poisson_init, Newton aims at the residual NEWTON_TOL * max F
    on every row, or at the row's rounding floor where that is higher
    (_row_targets, formed once from the guess), within NEWTON_MAX_ITER
    steps; the line search and the stopping rule read max_i |res_i| /
    tol_i. Each step is a GMRES solve from zero, right-preconditioned by
    the grid's factored Laplacian and stopped at ||b - J x||_2 <= eta
    ||b||_2 with the safeguarded forcing term eta = min(0.1, max(0.1
    max|res|, target / (2 ||res||_2))), target the smallest tol_i, so that
    no step solves below half of it; J is applied without a matrix
    (_jacobian). The step is damped by backtracking and rejected if any
    interior Hessian loses positivity. Running out of damping raises
    NewtonFailure with the iteration log, naming whether convexity or
    descent gave out and any GMRES miss of eta with its iteration count.
    """
    grid = source_grid(F, grid)
    Fv, Fvec = _source(F, grid)
    ops = build_stencil_ops(grid)
    phic = ops.crossing_values(phi)

    U, warm, ((h11, h22, h12), res, rnorm, lam_min) = poisson_init(
        grid, Fv, phi)
    lap = ops._laplacian
    tol = _row_targets(ops, U, (h11, h22, h12), Fvec)
    target, merit = float(np.min(tol)), float(np.max(np.abs(res) / tol))
    log = [(0, rnorm, 1.0, lam_min, warm)]

    for it in range(1, NEWTON_MAX_ITER + 1):
        if merit <= 1.0:
            break
        # no step drives its linear residual below half the least target
        eta = min(0.1, max(0.1 * rnorm, 0.5 * target / np.linalg.norm(res)))
        step, iters, met = _gmres(_jacobian(ops, h11, h22, h12), -res,
                                  lap.solve, eta, KRYLOV_RESTART,
                                  KRYLOV_CYCLES)
        lam = 1.0
        while True:
            Ut = U + lam * step
            ht, rt, rn, le = _state(ops, Ut, phic, Fvec)
            mt = float(np.max(np.abs(rt) / tol))
            if le > 0.0 and mt <= (1.0 - 1e-4 * lam) * merit:
                break
            lam *= 0.5
            if lam < DAMPING_MIN:
                log.append((it, rn, lam, le, iters))
                lost = (f"convexity lost (min eigenvalue {le:.3e})"
                        if le <= 0.0 else "descent lost")
                miss = "" if met else (" after GMRES missed its forcing "
                                       f"term in {iters} iterations")
                raise NewtonFailure(
                    f"damping exhausted at iteration {it}: {lost}{miss}; "
                    f"residual {rnorm:.3e}", log)
        U, (h11, h22, h12), res, rnorm, merit, lam_min = Ut, ht, rt, rn, mt, le
        log.append((it, rnorm, lam, lam_min, iters))
    else:
        raise NewtonFailure(
            f"no convergence in {NEWTON_MAX_ITER} iterations; residual "
            f"{rnorm:.3e}", log)

    detH = h11 * h22 - h12 ** 2
    convex = (lam_min > 0.0
              and float(np.min(detH)) >= 0.5 * float(np.min(Fvec)))
    return MASolution(
        u=ScalarField(ops.scatter(U), grid), F=ScalarField(Fv.copy(), grid),
        phi=BoundaryTrace(ring_values(grid, phi), grid), log=log,
        convex=convex)


def solve_ma_zero(F, grid: DomainGrid | None = None) -> MASolution:
    """solve_ma with zero boundary data: the base every linearization and
    DN map is taken around. Nothing is cached; each call solves."""
    return solve_ma(F, None, grid)
