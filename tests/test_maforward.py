"""Forward Monge-Ampere solver tests: benchmarks with known solutions,
Newton behavior, and the stencil and solver layers."""

import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import assume, example, given, settings, strategies as st

from malab import complexcalc, dnmap, linearize, maforward
from malab.grid import (BoundaryTrace, GridError, MetricField, PaddedGrid,
                        ScalarField, boundary_restrict)
from malab.grid import SCALE_RANGE, _ON_CURVE, build_disk, build_ellipse
from malab.dnmap import dn_lin, pairing_gap
from malab.linearize import nondiv_solve
from malab.maforward import (LinearSolveFailure, NewtonFailure, SparseLU,
                             build_stencil_ops, eval_boundary_data, solve_ma,
                             solve_ma_zero)


def _flat_error(n):
    g = build_disk(1.0, n)
    X, Y = g.meshgrid()
    sol = solve_ma_zero(ScalarField(np.ones((n, n)), g))
    assert sol.convex
    return float(np.max(np.abs((sol.u.values - 0.5 * (X**2 + Y**2 - 1.0))[g.mask])))


def test_flat_source_benchmark():
    # the quadratic ghost is exact on quadratics, so the discrete solution
    # is u = (x^2 + y^2 - 1) / 2 itself, and what is left is the rounding
    # of a Laplacian solve: eps max|u| times the condition number, about
    # 8 / (dx^2 j01^2) with j01^2 = 5.78 the unit disk's first Dirichlet
    # eigenvalue (6e-13 at n = 128; measured 7.6e-15 and 1.9e-14). The
    # order of the closure is measured on the quartic u*
    # (test_quartic_solution_is_second_order)
    for n in (64, 128):
        dx = 2.0 / (n - 1)
        assert _flat_error(n) <= 2.2e-16 * 0.5 * 8.0 / (dx * dx * 5.78)


def test_scaled_flat_with_unit_data():
    n = 96
    g = build_disk(1.0, n)
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(np.full((n, n), 4.0), g), 1.0)
    assert np.max(np.abs((sol.u.values - (X**2 + Y**2))[g.mask])) < 5e-4


def test_zero_data_radial_scaling():
    n = 96
    g = build_disk(1.0, n)
    X, Y = g.meshgrid()
    sol = solve_ma_zero(ScalarField(np.full((n, n), 4.0), g))
    assert np.max(np.abs((sol.u.values - (X**2 + Y**2 - 1.0))[g.mask])) < 5e-4


def test_solve_ma_zero_is_solve_ma_with_zero_data():
    """solve_ma_zero is solve_ma with zero data, bitwise, on every call."""
    g = build_disk(1.0, 48)
    X, _ = g.meshgrid()
    F = ScalarField(X ** 2 + 1.0, g)
    a = solve_ma_zero(F)
    ref = solve_ma(F, None)
    for name in ("u", "F", "phi"):
        assert np.array_equal(getattr(a, name).values,
                              getattr(ref, name).values), name
    assert a.log == ref.log
    assert np.array_equal(solve_ma_zero(F).u.values, a.u.values)


def test_zero_data_solve_shares_only_read_only_arrays():
    """What a zero-data solve shares is read-only; what it hands out is
    its own: writing one result's arrays does not reach the next call, and
    the caller's source array stays writable."""
    g = build_disk(1.0, 40)
    X, _ = g.meshgrid()
    Fvals = X ** 2 + 1.0
    a = solve_ma_zero(ScalarField(Fvals, g))
    saved = (a.u.values.copy(), a.phi.values.copy())
    ops = build_stencil_ops(g)
    for arr in (ops.qx, ops.qy, ops.H[0].data):
        with pytest.raises(ValueError):
            arr[0] += 1.0
    a.u.values[0] += 1.0
    a.phi.values[0] += 1.0
    Fvals[0, 0] = 7.0                  # the caller's own array stays writable
    b = solve_ma_zero(ScalarField(X ** 2 + 1.0, g))
    for arr, ref in zip((b.u.values, b.phi.values), saved):
        assert np.array_equal(arr, ref)


def test_solution_source_is_a_copy():
    """Writing a solution's F leaves the caller's source unchanged."""
    g = build_disk(1.0, 40)
    X, _ = g.meshgrid()
    F = ScalarField(X ** 2 + 1.0, g)
    sol = solve_ma(F)
    sol.F.values[:] = 7.0
    assert np.array_equal(F.values, X ** 2 + 1.0)


def _ustar(x, y):
    return x**4 / 12 + x**2 / 2 + y**2 / 2


def _manufactured_error(n):
    g = build_disk(1.0, n)
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X**2 + 1.0, g), _ustar)
    assert sol.convex
    return float(np.max(np.abs((sol.u.values - _ustar(X, Y))[g.mask])))


def test_manufactured_quartic():
    e64, e128 = _manufactured_error(64), _manufactured_error(128)
    assert e128 < 1e-4
    assert 3.0 <= e64 / e128 <= 5.0


def test_quartic_solution_is_second_order():
    # interior rows read D^2 u* to dx^2 D^4 u* / 12; a rim row's quadratic
    # ghost reads the second derivative along its ray to (1 - a) dx D^3 u*
    # / 3, on a band one row wide whose rows weigh 2 / (a dx^2), so it adds
    # O(dx^3) to u (Gibou, Fedkiw, Cheng and Kang 2002): u - u_h =
    # C dx^2 (1 + O(dx)). Between n and 2n the order log(e_n / e_2n) /
    # log(dx_n / dx_2n) is 2 to O(dx): measured 1.98 and 1.99 (err/dx^2
    # 0.038, 0.039, 0.039); the linear ghost's O(1) Hessian error on the
    # rim gave 1.75 and 1.93
    ns = (48, 96, 192)
    errs = [_manufactured_error(n) for n in ns]
    dxs = [2.0 / (n - 1) for n in ns]
    for k in range(2):
        order = np.log(errs[k] / errs[k + 1]) / np.log(dxs[k] / dxs[k + 1])
        assert 1.9 <= order <= 2.1, (ns[k], order)


def test_boundary_trace_data_equals_callable_data():
    n = 64
    g = build_disk(1.0, n)
    b = g.boundary
    trace = BoundaryTrace(_ustar(b.points[:, 0], b.points[:, 1]), g)
    F = ScalarField(g.meshgrid()[0]**2 + 1.0, g)
    s1 = solve_ma(F, trace)
    s2 = solve_ma(F, _ustar)
    assert np.max(np.abs(s1.u.values - s2.u.values)) < 1e-10


def test_newton_quadratic_tail():
    n = 96
    g = build_disk(1.0, n)
    X, Y = g.meshgrid()
    F = ScalarField(1.0 + 0.8 * np.exp(-3 * ((X - 0.2)**2 + Y**2)), g)
    sol = solve_ma(F, lambda x, y: 0.1 * (x**2 - y**2))
    rs = [row[1] for row in sol.log]
    tail = [(a, b) for a, b in zip(rs, rs[1:]) if a < 1e-2]
    assert tail, "no residuals below the quadratic-tail threshold"
    for a, b in tail:
        assert b <= 100.0 * a * a + 1e-13


def test_solution_trace_matches_data():
    n = 96
    g = build_disk(1.0, n)
    sol = solve_ma_zero(ScalarField(np.ones((n, n)), g))
    tr = boundary_restrict(sol.u)
    assert np.max(np.abs(tr.values)) < 2e-4


def test_rejects_nonpositive_source():
    n = 32
    g = build_disk(1.0, n)
    X, _ = g.meshgrid()
    with pytest.raises(GridError):
        solve_ma(ScalarField(X, g), None)


def test_failure_carries_log(monkeypatch):
    n = 48
    g = build_disk(1.0, n)
    X, _ = g.meshgrid()
    monkeypatch.setattr(maforward, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NewtonFailure) as exc:
        solve_ma(ScalarField(X**2 + 1.0, g), _ustar)
    assert len(exc.value.log) >= 1


def test_ellipse_domain():
    n = 96
    g = build_ellipse(1.2, 0.8, n)
    X, Y = g.meshgrid()
    sol = solve_ma_zero(ScalarField(np.ones((n, n)), g))
    a, b = 1.2, 0.8
    exact = 0.5 * a * b * ((X / a)**2 + (Y / b)**2 - 1.0)
    assert np.max(np.abs((sol.u.values - exact)[g.mask])) < 1e-3


def test_stencil_structure():
    # every mask node is a row, and every row carries the equation: its
    # Hessian stencil, the rim rows closed by ghosts at their crossings,
    # reads the Hessian of a quadratic exactly
    g = build_disk(1.0, 64)
    ops = build_stencil_ops(g)
    assert ops.N == int(g.mask.sum())
    assert len(ops.qrows) > 0 and len(ops.qx) > 0
    for H in ops.H[:2]:
        assert np.all(H.diagonal() < 0.0)                     # the center
    X, Y = g.meshgrid()

    def quad(x, y):
        return 0.7 * x * x + 0.4 * x * y + 1.3 * y * y - 0.2 * x + 0.5
    h = maforward.stencil_hessian(ops, quad(X, Y)[g.mask],
                                  ops.crossing_values(quad))
    for hk, exact in zip(h, (1.4, 2.6, 0.4)):
        assert np.max(np.abs(hk - exact)) <= 1e-9


def test_eval_boundary_data_trig_exactness():
    g = build_disk(1.0, 64)
    b = g.boundary
    f = lambda x, y: x**2 - y**2 + 0.3 * x * y
    trace = BoundaryTrace(f(b.points[:, 0], b.points[:, 1]), g)
    th = np.linspace(0.1, 6.0, 37)
    qx, qy = np.cos(th), np.sin(th)
    out = eval_boundary_data(g, trace, qx, qy)
    assert np.max(np.abs(out - f(qx, qy))) < 1e-12


# ---------------------------------------------------------------------------
# input contract, cache contract, and the sparse-LU layer


def test_nonfinite_source_fails_fast():
    g = build_disk(1.0, 48)
    X, _ = g.meshgrid()
    F = X ** 2 + 1.0
    F[24, 24] = np.nan
    with pytest.raises(GridError, match="non-finite"):
        solve_ma(ScalarField(F, g), None)
    with pytest.raises(GridError, match="non-finite"):
        solve_ma_zero(ScalarField(F, g))


def test_source_refuses_complex_values():
    # used to solve the real part after a ComplexWarning
    with pytest.raises(GridError, match="complex128"):
        solve_ma(np.ones((48, 48)) * (1 + 1j), None, build_disk(1.0, 48))


def test_box_grids_fail_before_any_assembly(monkeypatch):
    # used to raise AttributeError: 'PaddedGrid' object has no attribute
    # 'mask'
    def no_assembly(*args):
        raise AssertionError("assembled before refusing")
    monkeypatch.setattr(maforward, "build_stencil_ops", no_assembly)
    box = PaddedGrid(half=3.0, n=16)
    for call in (lambda: solve_ma(ScalarField(np.ones((16, 16)), box)),
                 lambda: solve_ma(1.0, None, box),
                 lambda: solve_ma_zero(ScalarField(np.ones((16, 16)), box))):
        with pytest.raises(GridError, match="DomainGrid, not a PaddedGrid"):
            call()


def test_source_from_another_grid_of_same_n_rejected():
    disk = build_disk(1.0, 48)
    ell = build_ellipse(1.2, 0.8, 48)
    F = ScalarField(np.ones((48, 48)), ell)
    with pytest.raises(GridError, match="different grid"):
        solve_ma(F, None, disk)
    # an equal grid built twice is the same grid
    twin = build_disk(1.0, 48)
    sol = solve_ma(ScalarField(np.ones((48, 48)), twin), None, disk)
    assert sol.convex


def _flat_metric(g):
    one = np.ones((g.n, g.n))
    return MetricField(one, np.zeros_like(one), one, g)


_ENTRY_POINTS = {
    "solve_ma": lambda g, phi: solve_ma(1.0, phi, g),
    "nondiv_solve": lambda g, phi: nondiv_solve(_flat_metric(g), phi),
    "pairing_gap": lambda g, phi: pairing_gap(
        _flat_metric(g), lambda x, y: x * x, lambda x, y: x * y, phi),
    "dn_lin": lambda g, phi: dn_lin(_flat_metric(g), phi),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_bad_boundary_data_fails_before_any_factorization(entry, monkeypatch):
    g = build_disk(1.0, 48)
    coarse = build_disk(1.0, 64)
    other = BoundaryTrace(np.zeros(len(coarse.boundary)), coarse)
    twin = build_disk(1.0, 48)
    equal = BoundaryTrace(np.ones(len(twin.boundary)), twin)
    assert np.all(eval_boundary_data(g, equal, 0.6, 0.8) == 1.0)

    def factor(self, A, order):
        raise AssertionError("factorized before the data were checked")
    monkeypatch.setattr(SparseLU, "__init__", factor)
    for phi, msg in [(lambda x, y: np.nan * x, "non-finite"),
                     (np.nan, "non-finite"), (np.inf, "non-finite"),
                     (np.ones(5), "ndarray"), ([0.0, 1.0], "list"),
                     (other, "different grid"),
                     (lambda x, y: np.ones(3), r"shape \(3,\)"),
                     (lambda x, y: "a", "<U1 values")]:
        with pytest.raises(GridError, match=msg):
            _ENTRY_POINTS[entry](g, phi)


def test_cached_stencils_are_shared_by_equal_grids_and_read_only():
    g, twin = build_disk(1.0, 48), build_disk(1.0, 48)
    ops = build_stencil_ops(g)
    assert build_stencil_ops(twin) is ops
    assert build_stencil_ops(build_disk(0.9, 48)) is not ops
    # only the grid used last is held
    assert maforward._stencil_ops.cache_info().currsize == 1
    assert build_stencil_ops(twin) is not ops
    arrays = [ops.qx, ops.qy, ops.qrows, ops._order]
    arrays += [a for M in (*ops.H, *ops.G)
               for a in (M.data, M.indices, M.indptr)]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[:] = 0
    for mats in (ops.H, ops.G):
        with pytest.raises(TypeError):
            mats[0] = None


@pytest.mark.parametrize("build", [lambda: build_disk(1.0, 48),
                                   lambda: build_ellipse(1.03, 0.92, 97),
                                   lambda: build_ellipse(1.0, 0.2, 97)],
                         ids=["disk", "ellipse", "ellipse-1-0.2"])
def test_stencil_operators_are_canonical(build):
    # every H[k] and G[k] is a canonical CSR matrix (each row's columns
    # strictly increasing) with int32 indices and no stored zero; an H12
    # row holds at most its 5 stencil entries, and every H11 and H22 row
    # its negative center; G[k] has one row per row of qrows, each of
    # which reads a crossing
    ops = build_stencil_ops(build())
    for M in (*ops.H, *ops.G):
        assert M.has_canonical_format
        assert M.indices.dtype == M.indptr.dtype == np.int32
        assert np.all(M.data != 0.0)
    assert np.max(np.diff(ops.H[2].indptr)) <= 5
    for H in ops.H[:2]:
        assert np.all(H.diagonal() < 0.0)
    read = np.zeros(len(ops.qrows), dtype=bool)
    for G in ops.G:
        assert G.shape == (len(ops.qrows), len(ops.qx))
        read |= np.diff(G.indptr) > 0
    assert np.all(read)


def test_krylov_counts_per_newton_step(monkeypatch):
    g = build_disk(1.0, 64)
    X, _ = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    it, _, damping, _, warm = sol.log[0]     # the Poisson guess
    assert (it, damping) == (0, 1.0) and isinstance(warm, int) and warm >= 0
    for k, (it, _, damping, _, gmres) in enumerate(sol.log[1:], 1):
        assert it == k and 0.0 < damping <= 1.0
        assert isinstance(gmres, int) and gmres >= 1
    monkeypatch.setattr(maforward, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NewtonFailure) as exc:
        solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    assert len(exc.value.log) == 2 and exc.value.log[1][4] >= 1


@pytest.mark.parametrize("build", [lambda: build_disk(2.0, 96),
                                   lambda: build_ellipse(1.03, 0.92, 136)],
                         ids=["disk", "ellipse"])
def test_newton_takes_one_lu_solve_per_krylov_iteration(build, monkeypatch):
    # the Poisson guess and one solve per Poisson iteration (row 0), then
    # one preconditioner solve per right-preconditioned GMRES iteration:
    # the z vectors are kept, so no cycle ends with a further solve
    g = build()
    X, _ = g.meshgrid()
    solves, solve = [], SparseLU.solve

    def spy(self, rhs, rtol=None):
        solves.append(rtol)
        return solve(self, rhs, rtol)
    monkeypatch.setattr(SparseLU, "solve", spy)
    maforward._stencil_ops.cache_clear()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    assert len(sol.log) >= 3 and sol.log[0][4] >= 1
    assert all(len(row) == 5 for row in sol.log)
    assert len(solves) == 1 + sum(row[4] for row in sol.log)
    assert solves == [None] * len(solves)   # no residual check on M^-1


_DOMAINS = {"disk": lambda n: build_disk(1.0, n),
            "disk-0.95": lambda n: build_disk(0.95, n),
            "ellipse": lambda n: build_ellipse(1.3, 0.8, n)}


@pytest.mark.parametrize("n", [48, 97, 133])
@pytest.mark.parametrize("domain", sorted(_DOMAINS))
def test_red_black_laplacian_solve_equals_the_full_lu(domain, n):
    # no Laplacian row couples two nodes of one color (i + j) mod 2, so
    # the red block is diagonal and its Schur complement is exact
    g = _DOMAINS[domain](n)
    ops = build_stencil_ops(g)
    A = ops.system(1.0, 0.0, 1.0).tocoo()
    ii, jj = np.nonzero(g.mask)
    color = (ii + jj) % 2
    off = A.row != A.col
    assert np.all(color[A.row[off]] != color[A.col[off]])
    assert np.all(A.diagonal() != 0.0)
    lap, full = maforward._RedBlackLU(ops), SparseLU(A, ops._order)
    assert _schur_complement(ops).shape[0] == np.count_nonzero(color)
    assert lap.lu._lu.shape[0] == np.count_nonzero(color)
    for b in np.random.default_rng(n).standard_normal((3, ops.N)):
        ref = full.solve(b)
        x = lap.solve(b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def _bits(a):
    return np.asarray(a).dtype, np.asarray(a).tobytes()


@pytest.mark.parametrize("n", [48, 97, 136])
@pytest.mark.parametrize("domain", sorted(_DOMAINS))
def test_red_black_blocks_are_the_sliced_laplacian_bitwise(domain, n):
    # the blocks sliced from H11 + H22 are those sliced from the assembled
    # system(1, 0, 1), and so are the solves through them
    ops = build_stencil_ops(_DOMAINS[domain](n))
    lap = maforward._RedBlackLU(ops)
    A = ops.system(1.0, 0.0, 1.0)
    Ar, Ab = A[lap.red], A[lap.black]
    sliced = {"Arb": Ar[:, lap.black], "Abr": Ab[:, lap.red]}
    for name, M in sliced.items():
        got = getattr(lap, name)
        assert _bits(got.data) == _bits(M.data)
        for part in ("indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(M, part))
    dinv = 1.0 / Ar[:, lap.red].diagonal()
    assert _bits(lap.dinv) == _bits(dinv)
    lu = SparseLU(_schur_complement(ops), lap.lu.order)
    for b in np.random.default_rng(n).standard_normal((3, ops.N)):
        y = dinv * b[lap.red]
        ref = np.empty_like(b)
        ref[lap.black] = xb = lu.solve(b[lap.black] - sliced["Abr"] @ y)
        ref[lap.red] = y - dinv * (sliced["Arb"] @ xb)
        assert _bits(lap.solve(b)) == _bits(ref)


@pytest.mark.parametrize("build", [lambda: build_disk(1.0, 128),
                                   lambda: build_ellipse(1.03, 0.92, 168)],
                         ids=["disk", "ellipse"])
def test_newton_jacobian_is_the_assembled_system(build):
    # the step's operator applied through the Hessian operators and R is
    # system(h22, -h12, h11), up to the order of the sums
    g = build()
    ops = build_stencil_ops(g)
    X, Y = g.meshgrid()
    U = _ustar(X, Y)[g.mask]
    h11, h22, h12 = maforward.stencil_hessian(ops, U,
                                              ops.crossing_values(_ustar))
    A = ops.system(h22, -h12, h11)
    J = maforward._jacobian(ops, h11, h22, h12)
    for z in np.random.default_rng(39).standard_normal((3, ops.N)):
        ref = A @ z
        assert np.linalg.norm(J(z) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_solve_ma_assembles_no_system(monkeypatch):
    # the Newton steps, the Poisson guess and the red-black factorization
    # read the operators H; only linearize assembles systems
    g = build_ellipse(1.03, 0.92, 96)
    X, _ = g.meshgrid()
    calls, system = [], maforward.StencilOps.system

    def spy(self, *args, **kwargs):
        calls.append(args)
        return system(self, *args, **kwargs)
    monkeypatch.setattr(maforward.StencilOps, "system", spy)
    maforward._stencil_ops.cache_clear()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar, g)
    assert len(sol.log) >= 3 and calls == []


def test_missed_forcing_term_is_named_in_the_failure(monkeypatch):
    # with no Krylov cycle every step misses its forcing term, the zero
    # step cannot descend and the line search runs out of damping
    monkeypatch.setattr(maforward, "KRYLOV_CYCLES", 0)
    g = build_disk(1.0, 48)
    X, _ = g.meshgrid()
    with pytest.raises(NewtonFailure, match=(
            "damping exhausted at iteration 1: descent lost after GMRES "
            "missed its forcing term in 0 iterations")) as exc:
        solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    assert [len(row) for row in exc.value.log] == [5, 5]
    assert exc.value.log[1][4] == 0
    assert exc.value.log[1][2] < maforward.DAMPING_MIN


@pytest.mark.parametrize("restart, cycles", [(80, 1), (10, 20)])
@pytest.mark.parametrize("precond", ["none", "diagonal"])
def test_gmres_solves_a_complex_non_normal_system(restart, cycles, precond):
    # the Krylov solver of Newton and of the Beltrami solve on complex
    # vectors: a complex diagonal on the circle |d - 3| = 1 plus a strictly
    # upper triangular part, so A A^H != A^H A; its inner products must
    # conjugate, or the Arnoldi basis is not orthonormal and the
    # residual it reads is not the true one
    rng = np.random.default_rng(36)
    n = 80

    def cnormal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    d = 3.0 + np.exp(2j * np.pi * rng.random(n))
    A = np.diag(d) + np.triu(cnormal(n, n), 1) * (1.5 / np.sqrt(n))
    b = cnormal(n)
    assert np.linalg.norm(A @ A.conj().T - A.conj().T @ A) > 1.0
    M = {"none": lambda v: v, "diagonal": lambda v: v / d}[precond]
    x, iters, met = maforward._gmres(lambda v: A @ v, b, M, 1e-10, restart,
                                     cycles)
    ref = np.linalg.solve(A, b)
    assert met and x.dtype == complex and iters < n
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
    # a budget the system needs more than: the miss is reported
    _, iters, met = maforward._gmres(lambda v: A @ v, b, M, 1e-10, 3, 1)
    assert (iters, met) == (3, False)


def test_newton_starts_from_poisson_init(monkeypatch):
    # solve_ma takes its guess from the module's poisson_init, so a
    # rebinding of that name (as the benchmark tracer does) sees the call
    g = build_disk(2.0, 96)
    X, _ = g.meshgrid()
    F = ScalarField(X ** 2 + 1.0, g)
    U, warm, (h, res, _, _) = maforward.poisson_init(g, F, _ustar)
    ops = build_stencil_ops(g)
    h11, h22, h12 = maforward.stencil_hessian(ops, U,
                                              ops.crossing_values(_ustar))
    # the state returned with the guess is the guess's own
    assert all(np.array_equal(a, b) for a, b in zip(h, (h11, h22, h12)))
    assert np.array_equal(res, h11 * h22 - h12 ** 2 - F.values[g.mask])
    calls, init = [], maforward.poisson_init

    def spy(*args):
        calls.append(args[0])
        return init(*args)
    monkeypatch.setattr(maforward, "poisson_init", spy)
    sol = solve_ma(F, _ustar)
    assert calls == [g] and warm >= 1
    assert sol.log[0][1] == np.max(np.abs(res)) and sol.log[0][4] == warm


def test_no_iterate_is_evaluated_twice(monkeypatch):
    # solve_ma starts from the state that poisson_init returns with its
    # guess, so every _state call evaluates a new iterate
    seen, state = [], maforward._state

    def spy(ops, U, *args):
        seen.append(U.tobytes())
        return state(ops, U, *args)
    monkeypatch.setattr(maforward, "_state", spy)
    g = build_disk(1.0, 48)
    X, _ = g.meshgrid()
    solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    assert len(seen) > 2 and len(set(seen)) == len(seen)


def test_poisson_init_drops_an_iterate_that_raises_the_residual(monkeypatch):
    # on this thin ellipse the first iterate raises the residual from 14.15
    # to 15.79: it is dropped, and the guess is the plain Poisson solve
    g = build_ellipse(1.0, 0.3, 96)
    norms, state = [], maforward._state

    def spy(*args):
        out = state(*args)
        norms.append(out[2])
        return out
    monkeypatch.setattr(maforward, "_state", spy)
    _, its, (_, _, rnorm, _) = maforward.poisson_init(
        g, 1.0, lambda x, y: np.sin(3.0 * x) * y)
    assert its == 1 and len(norms) == 2 and rnorm == norms[0] < norms[1]


def _hand_made_convex_flag():
    """A concave u whose convex flag was set by hand."""
    g = build_disk(1.0, 32)
    X, Y = g.meshgrid()
    return maforward.MASolution(
        u=ScalarField(0.5 * (1.0 - X * X - Y * Y), g),
        F=ScalarField(np.ones((32, 32)), g),
        phi=BoundaryTrace(np.zeros(len(g.boundary)), g), convex=True)


def _concave_traces():
    g = build_disk(1.0, 32)
    M = len(g.boundary)
    return [BoundaryTrace(np.full(M, v), g) for v in (-1.0, 0.0, -1.0)]


# refusals no other test reaches: each names its cause before any work
@pytest.mark.parametrize("call, error, msg", [
    (lambda: solve_ma(np.ones((32, 32))), GridError,
     "pass a grid when F is not a ScalarField"),
    (lambda: BoundaryTrace(np.zeros(len(build_disk(1.0, 32).boundary) + 1),
                           build_disk(1.0, 32)), GridError,
     "trace length does not match boundary node count"),
    (lambda: complexcalc.deriv(np.ones((32, 32)), "grid", 1, 0), GridError,
     "unsupported grid type str"),
    # no mask node within the whole lattice of a sliver's cell
    (lambda: build_ellipse(1.0, 0.01, 16), GridError,
     "no interior node found to adopt boundary sliver"),
    (lambda: SparseLU(sp.csr_matrix(np.ones((2, 2))), np.arange(2)),
     LinearSolveFailure, "sparse LU failed"),
    (lambda: dnmap.recover_boundary_third(0.0, _concave_traces()), GridError,
     "second-order recovery is not uniformly convex"),
    (lambda: linearize.metric_from_solution(_hand_made_convex_flag()),
     GridError, "base Hessian is not positive definite"),
], ids=["no-grid", "trace-length", "deriv-grid", "sliver", "singular-lu",
        "third-concave", "hessian-concave"])
def test_refusals_name_their_cause(call, error, msg):
    with pytest.raises(error, match=msg):
        call()


def _no_solve(*args):
    raise AssertionError("the Laplacian was solved")


def test_poisson_init_rejects_a_non_finite_source(monkeypatch):
    # a NaN source would give an all-NaN guess; it is refused before any
    # solve, as solve_ma refuses it
    g = build_disk(1.0, 32)
    monkeypatch.setattr(maforward._RedBlackLU, "solve", _no_solve)
    with pytest.raises(GridError, match="non-finite source"):
        maforward.poisson_init(g, np.full((32, 32), np.nan), None)


def test_poisson_init_rejects_a_negative_source(monkeypatch):
    # sqrt(-1) would give an all-NaN guess
    g = build_disk(1.0, 32)
    monkeypatch.setattr(maforward._RedBlackLU, "solve", _no_solve)
    with pytest.raises(GridError, match="uniformly positive on the domain"):
        maforward.poisson_init(g, -1.0, None)


def test_laplacian_factorization_is_kept_for_the_last_grid(monkeypatch):
    g = build_disk(1.0, 48)
    X, _ = g.meshgrid()
    maforward._stencil_ops.cache_clear()
    cold = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    lap = build_stencil_ops(g)._laplacian
    arrays = [lap.red, lap.black, lap.dinv]
    for M in (lap.Arb, lap.Abr):
        arrays += [M.data, M.indices, M.indptr]
    assert not hasattr(lap.lu, "A")     # no Laplacian solve checks S x = b
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[:1] = 0
    # the test keeps only a weak reference, so the operators' cache entry
    # is all that holds the factors; record at the start of every
    # factorization whether the old grid's factors are still alive
    old = weakref.ref(lap)
    del lap, arrays, M, arr
    alive, factor = [], SparseLU.__init__

    def spy(self, A, order):
        alive.append(old() is not None)
        factor(self, A, order)
    monkeypatch.setattr(SparseLU, "__init__", spy)
    twin = build_disk(1.0, 48)
    warm = solve_ma(ScalarField(X ** 2 + 1.0, twin), _ustar)
    assert alive == [] and build_stencil_ops(twin)._laplacian is old()
    assert np.array_equal(warm.u.values, cold.u.values)
    assert warm.log == cold.log
    other = build_disk(0.9, 48)
    solve_ma(ScalarField(X ** 2 + 1.0, other), _ustar)
    assert alive == [False] and old() is None


def _operator(ops, side, k):
    # H[k] (side "H") or G[k] (side "G", its rows placed at qrows) rebuilt
    # from its (row, column, value) triples
    M = (ops.H if side == "H" else ops.G)[k]
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    if side == "G":
        rows = ops.qrows[rows]
    return sp.coo_matrix((M.data, (rows, M.indices)),
                         (ops.N, M.shape[1])).tocsr()


def _reference_sum(ops, side, coeffs):
    # diag(c) H summed term by term as sparse matrices, each diag(c) H a
    # matrix product where the assembler scales H's values
    a11, a12, a22 = coeffs
    terms = [(a11, 0), (a22, 1), (2.0 * a12, 2)]
    parts = [c * _operator(ops, side, k) if np.ndim(c) == 0
             else sp.diags(c) @ _operator(ops, side, k) for c, k in terms]
    return sum(parts[1:], parts[0])


@pytest.mark.parametrize("build", [lambda: build_disk(1.0, 128),
                                   lambda: build_ellipse(1.03, 0.92, 168)],
                         ids=["disk", "ellipse"])
def test_system_equals_the_sparse_sum_of_its_terms(build):
    ops = build_stencil_ops(build())
    rng = np.random.default_rng(16)
    c = [rng.standard_normal(ops.N) for _ in range(3)]
    c[1][::7] = 0.0                    # zero coefficients drop their entries
    for coeffs in [(1.0, 0.0, 1.0), tuple(c)]:
        got = [ops.system(*coeffs), ops.crossing_system(*coeffs)]
        ref = [_reference_sum(ops, side, coeffs) for side in "HG"]
        for M, R in zip(got, ref):
            assert np.all(M.data != 0.0)           # no explicit zero
            R.sort_indices()
            assert M.has_sorted_indices
            assert np.array_equal(M.indptr, R.indptr)
            assert np.array_equal(M.indices, R.indices)
            assert np.array_equal(M.data.view(np.int64),
                                  R.data.view(np.int64))


@pytest.mark.parametrize("build", [lambda: build_disk(1.0, 128),
                                   lambda: build_ellipse(1.03, 0.92, 232),
                                   lambda: build_ellipse(1.0, 0.2, 97)],
                         ids=["disk", "ellipse", "ellipse-1-0.2"])
def test_stencil_hessian_equals_its_slot_sums_bitwise(build):
    # each entry is H U + G phi with H U summed over the row's entries and
    # G phi over its crossings, each in column order
    ops = build_stencil_ops(build())
    rng = np.random.default_rng(35)
    U, phi = rng.standard_normal(ops.N), rng.standard_normal(len(ops.qx))
    got = maforward.stencil_hessian(ops, U, phi)

    def row_sums(M, x):
        return [sum(v * x[c] for v, c in zip(M.data[a:b], M.indices[a:b]))
                for a, b in zip(M.indptr[:-1], M.indptr[1:])]
    for H, G, h in zip(ops.H, ops.G, got):
        ref = np.array(row_sums(H, U), dtype=float)
        ref[ops.qrows] += row_sums(G, phi)
        assert np.array_equal(h.view(np.int64), ref.view(np.int64))


def _laplacian_lu(n):
    ops = build_stencil_ops(build_disk(1.0, n))
    return SparseLU(ops.system(1.0, 0.0, 1.0), ops._order), ops.N


def test_sparse_lu_block_solve_equals_column_solves():
    lu, N = _laplacian_lu(64)
    B = np.random.default_rng(3).standard_normal((N, 4))
    X = lu.solve(B, rtol=1e-10)
    for j in range(4):
        x = lu.solve(B[:, j], rtol=1e-10)
        assert np.max(np.abs(X[:, j] - x)) <= 1e-12 * np.max(np.abs(x))


def test_sparse_lu_residual_check_is_live():
    lu, N = _laplacian_lu(48)
    b = np.ones(N)
    with pytest.raises(LinearSolveFailure) as exc:
        lu.solve(b, rtol=1e-20)
    assert len(exc.value.residuals) == 1 and exc.value.residuals[0] > 0.0
    assert np.all(np.isfinite(lu.solve(b, rtol=1e-10)))


def _dissection_reference(p, q):
    # the recursive rule _nested_dissection vectorises: cut the longer
    # side of the nominal box at the midpoint of its integer interval,
    # order the halves, then the midline; a box of at most _ND_LEAF nodes
    # (nominal) is a leaf. Returns the order, each box's (halves,
    # separator) and each node's path of half digits down the tree.
    p, q = p - p.min(), q - q.min()
    boxes, path = [], [()] * len(p)

    def visit(nodes, lo, hi, side, where):
        for v in nodes:
            path[v] = where
        if side[0] * side[1] <= maforward._ND_LEAF:
            return list(nodes)
        a = int(side[1] > side[0])
        c = (p, q)[a][nodes]
        mid = (lo[a] + hi[a]) // 2
        cut = list(side)
        cut[a] = (side[a] - 1.0) / 2.0
        hi0, lo1 = list(hi), list(lo)
        hi0[a], lo1[a] = mid, mid + 1
        halves = (visit(nodes[c < mid], lo, hi0, cut, where + (0,))
                  + visit(nodes[c > mid], lo1, hi, cut, where + (1,)))
        sep = list(nodes[c == mid])
        boxes.append((halves, sep))
        return halves + sep

    n = [int(p.max()) + 1, int(q.max()) + 1]
    order = visit(np.arange(len(p)), [0, 0], n, [float(v) for v in n], ())
    return np.array(order), boxes, path


def _schur_complement(ops):
    # the Schur complement S = A_bb - A_br D_r^-1 A_rb of the Laplacian on
    # its black nodes, formed as _RedBlackLU forms it before factoring it
    A = ops.system(1.0, 0.0, 1.0)
    ii, jj = np.nonzero(ops.grid.mask)
    red, black = (np.nonzero((ii + jj) % 2 == c)[0] for c in (0, 1))
    Ar, Ab = A[red], A[black]
    return (Ab[:, black]
            - Ab[:, red] @ sp.diags(1.0 / Ar[:, red].diagonal()) @ Ar[:, black])


def _rotated_black(g):
    ii, jj = np.nonzero(g.mask)
    black = (ii + jj) % 2 == 1
    ib, jb = ii[black], jj[black]
    return (ib + jb - 1) // 2, (ib - jb - 1) // 2


def _metric_system(ops):
    # a smooth positive-definite metric's system
    g = ops.grid
    X, Y = g.meshgrid()
    met = MetricField(1 + 0.2 * np.sin(X) * np.cos(Y), 0.1 * np.sin(X * Y),
                      1 - 0.15 * np.cos(X) * np.sin(Y), g)
    return ops.system(*linearize._coeffs_at_nodes(met))


@pytest.mark.parametrize("case", ["disk", "ellipse-black", "row", "one",
                                  "scattered"])
def test_nested_dissection_orders_halves_before_their_separator(case):
    A = None
    if case == "disk":
        ops = build_stencil_ops(build_disk(1.0, 64))
        p, q = np.nonzero(ops.grid.mask)
        A = ops.system(1.0, 0.3, 1.0).tocoo()
    elif case == "ellipse-black":
        ops = build_stencil_ops(build_ellipse(1.0, 0.2, 97))
        p, q = _rotated_black(ops.grid)
        A = _schur_complement(ops).tocoo()
    elif case == "row":
        p, q = np.full(40, 3), np.arange(5, 45)
    elif case == "one":
        p, q = np.array([7]), np.array([-2])
    else:
        keep = np.random.default_rng(35).random((30, 21)) < 0.6
        p, q = np.nonzero(keep)
    order = maforward._nested_dissection(p, q)
    assert np.array_equal(np.sort(order), np.arange(len(p)))
    ref, boxes, path = _dissection_reference(p, q)
    assert np.array_equal(order, ref)
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order))
    assert boxes or len(p) <= maforward._ND_LEAF
    for halves, sep in boxes:
        if halves and sep:
            assert pos[halves].max() < pos[sep].min()
    if A is not None:
        # a 3 x 3 stencil: no entry couples the two halves of a box
        for r, c in zip(A.row, A.col):
            a, b = path[r], path[c]
            assert a[:len(b)] == b or b[:len(a)] == a


def _fill(lu):
    return lu._lu.L.nnz + lu._lu.U.nnz


@pytest.mark.parametrize("system", ["metric-128", "schur-232"])
def test_nested_dissection_fill_is_at_most_minimum_degree(system):
    if system == "metric-128":
        ops = build_stencil_ops(build_disk(1.0, 128))
        A = _metric_system(ops)
        lu = SparseLU(A, ops._order)
    else:
        ops = build_stencil_ops(build_disk(1.0, 232))
        A, lu = _schur_complement(ops), maforward._RedBlackLU(ops).lu
    mmd = sp.linalg.splu(
        sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
        options={"SymmetricMode": True, "DiagPivotThresh": 0.0})
    assert _fill(lu) <= mmd.L.nnz + mmd.U.nnz


@pytest.mark.parametrize("case", ["disk", "ellipse-1-0.2", "disk-r8"])
def test_sparse_lu_solves_match_spsolve(case):
    build = {"disk": lambda: build_disk(1.0, 97),
             "ellipse-1-0.2": lambda: build_ellipse(1.0, 0.2, 97),
             "disk-r8": lambda: build_disk(8.0, 97)}[case]
    ops = build_stencil_ops(build())
    metric = _metric_system(ops)
    for A, lu in ((metric, SparseLU(metric, ops._order)),
                  (_schur_complement(ops), maforward._RedBlackLU(ops).lu)):
        B = np.random.default_rng(11).standard_normal((A.shape[0], 3))
        ref = sp.linalg.spsolve(sp.csc_matrix(A), B)
        X = lu.solve(B)
        assert np.all(np.linalg.norm(X - ref, axis=0)
                      <= 1e-12 * np.linalg.norm(ref, axis=0))
        assert np.array_equal(lu.solve(B[:, 1]), X[:, 1])


def test_zero_data_results_do_not_share_mutations():
    g = build_disk(1.0, 44)
    X, _ = g.meshgrid()
    F = ScalarField(X ** 2 + 1.0, g)
    a = solve_ma_zero(F)
    log = list(a.log)
    a.convex = False
    a.log.append((99, 0.0, 1.0, 0.0, 99))
    b = solve_ma_zero(F)
    assert b.convex and b.log == log


# n at which a lattice node lies on the curve to rounding; it once got no
# ray cut, and stencil assembly raised "exterior neighbor without boundary
# crossing"
_NODE_ON_CURVE = [
    (lambda n: build_disk(1.0, n),
     (59, 83, 111, 151, 165, 171, 175, 179, 203, 223, 233, 239, 247, 251,
      291)),
    (lambda n: build_disk(0.95, n),
     (27, 31, 51, 53, 59, 61, 75, 79, 83, 101, 103, 105, 117, 121, 123, 131,
      147, 149, 151, 165, 171, 179, 201, 203, 213, 223, 233, 235, 241, 245,
      251, 261, 287, 291, 293)),
    (lambda n: build_ellipse(1.3, 0.8, n), (131, 261)),
]


def test_stencils_build_with_mask_nodes_on_the_curve():
    for build, ns in _NODE_ON_CURVE:
        for n in ns:
            ops = build_stencil_ops(build(n))
            for M in (*ops.H, *ops.G):
                assert np.all(np.isfinite(M.data)), n
    g = build_disk(1.0, 59)
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    err = np.max(np.abs((sol.u.values - _ustar(X, Y))[g.mask])) / g.dx ** 2
    assert sol.convex and err < 1.0


def test_a_node_on_the_curve_to_rounding_is_outside_the_mask():
    # b is nudged by ulps until the lattice node (50, 42) reads a level in
    # (-1e-15, 0): on the curve to rounding, where its ray cut reads 0 and
    # a quadratic ghost would divide by it. The grid keeps it out of the
    # mask, and the grid constructs and solves within the property bound
    n, a, (i, j) = 64, 1.0, (50, 42)
    x, y = np.linspace(-a, a, n)[[i, j]]
    b = y / np.sqrt(1.0 - x * x)
    for _ in range(100):
        level = x * x + (y / b) ** 2 - 1.0
        if -1e-15 < level < 0.0:
            break
        b = np.nextafter(b, np.inf if level >= 0.0 else -np.inf)
    g = build_ellipse(a, float(b), n)
    assert -1e-15 < g.level(g.x1[i], g.x2[j]) < 0.0 and not g.mask[i, j]
    ops = build_stencil_ops(g)
    for M in (*ops.H, *ops.G):
        assert np.all(np.isfinite(M.data))
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar, g)
    err = np.max(np.abs((sol.u.values - _ustar(X, Y))[g.mask])) / g.dx ** 2
    assert sol.convex and err <= 1.0


def test_a_neighbour_within_on_curve_of_the_curve_is_its_own_crossing():
    # node (2, 21) reads level -5.0e-10: outside the mask, yet inside the
    # curve, so the rays to it from its mask neighbours cross past it. The
    # cut is clipped to 1, the node is their crossing, and the grid solves
    # (it used to be refused: "exterior neighbor without boundary
    # crossing"). Measured err/dx^2 0.036 in 3 Newton steps
    g = build_ellipse(1.0, 0.9506253353793506, 64)
    x, y = g.x1[2], g.x2[21]
    assert -_ON_CURVE <= g.level(x, y) < 0.0 and not g.mask[2, 21]
    ops = build_stencil_ops(g)
    at = (np.abs(ops.qx - x) <= 1e-12) & (np.abs(ops.qy - y) <= 1e-12)
    assert np.count_nonzero(at) == 4
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    err = np.max(np.abs((sol.u.values - _ustar(X, Y))[g.mask])) / g.dx ** 2
    assert sol.convex and err <= 0.1

@pytest.mark.parametrize("n", [64, 128])
def test_newton_stops_at_the_rounding_floor(n, monkeypatch):
    # a target below what the arithmetic resolves: one-ulp changes of u
    # move the residual by about eps W max|U| max|h| (1e-11 at n = 128),
    # so a target of 1e-13 max F once ran the line search out of descent.
    # Each row now stops at its rounding floor (maforward._row_targets),
    # and the quadratic tail takes the usual three steps
    monkeypatch.setattr(maforward, "NEWTON_TOL", 1e-13)
    g = build_disk(1.0, n)
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    assert sol.convex and len(sol.log) == 4


def test_disk_is_the_ellipse_with_equal_axes():
    r, n = 0.95, 64
    d, e = build_disk(r, n), build_ellipse(r, r, n)
    assert np.array_equal(d.mask, e.mask)
    assert np.array_equal(d.weights, e.weights)
    for name in ("points", "normal", "tangent", "curvature", "ds"):
        assert np.array_equal(getattr(d.boundary, name),
                              getattr(e.boundary, name)), name
    sols = []
    for g in (d, e):
        X, _ = g.meshgrid()
        sols.append(solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar, g))
    assert np.array_equal(sols[0].u.values, sols[1].u.values)


@pytest.mark.parametrize("n", range(16, 290, 13))
def test_radius_two_disk_converges(n):
    # Newton once ran out of damping at step 2 here from n = 133 up; from
    # the iterated Poisson guess of poisson_init every n takes three full
    # Newton steps (err/dx^2 at most 0.14)
    g = build_disk(2.0, n)
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    err = np.max(np.abs((sol.u.values - _ustar(X, Y))[g.mask])) / g.dx ** 2
    assert sol.convex and err <= 1.0


@pytest.mark.parametrize("n", [96, 160])
def test_radius_three_and_a_half_disk_converges(n):
    # the exact Newton step from the plain Poisson guess Laplace u =
    # 2 sqrt(F) loses convexity here; the iterated guess of poisson_init
    # starts Newton from a convex iterate with a small residual.
    # The error bound is the radius-two one scaled by r^2: u - u_h answers
    # the truncation error (dx^2 D^4 u* / 12 inside, (1 - a) dx D^3 u* / 3
    # on the rim rows, D^3 u* at most 2 r there) through the linearized
    # operator, whose Green's function grows like r^2, so err/dx^2 grows
    # at most like r^2: 1 + r^2 against 5. Measured 0.33 at both n
    r = 3.5
    g = build_disk(r, n)
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    err = np.max(np.abs((sol.u.values - _ustar(X, Y))[g.mask])) / g.dx ** 2
    assert sol.convex and err <= (1.0 + r * r) / 5.0


@pytest.mark.parametrize("r", [5.0, 8.0])
def test_radius_five_and_eight_disks_converge(r):
    # the Newton step from the plain Poisson guess loses convexity on
    # these disks, the exact step too; the Poisson iterations of
    # poisson_init (one Laplacian solve each) start Newton from a convex
    # iterate. The bound is the radius-three-and-a-half one (measured 0.55
    # and 1.01)
    g = build_disk(r, 96)
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    err = np.max(np.abs((sol.u.values - _ustar(X, Y))[g.mask])) / g.dx ** 2
    assert sol.log[0][4] >= 1
    assert sol.convex and err <= (1.0 + r * r) / 5.0


# ---------------------------------------------------------------------------
# properties over random ellipses


_AXIS = st.floats(0.5, 2.0)
_COEF = st.floats(-2.0, 2.0)


@settings(max_examples=40)
@given(a=_AXIS, b=_AXIS, n=st.integers(16, 150), c0=_COEF, c1=_COEF,
       c2=_COEF)
# an '11' row of this draw weighs W dx^2 = 5.0e4 and reads err dx^2 =
# 5.27e-12, 0.84 eps W max|u|: rounding, above a flat 1e-12
@example(a=1.0, b=1.96875, n=75, c0=0.0, c1=0.0, c2=1.0)
def test_crossings_and_affine_exactness(a, b, n, c0, c1, c2):
    g = build_ellipse(a, b, n)
    ops = build_stencil_ops(g)
    # a crossing inside the step is on the curve to rounding; one whose cut
    # is clipped to 1 is the neighbour node itself, outside the mask but
    # within _ON_CURVE of the curve
    level = g.level(ops.qx, ops.qy)
    node = np.abs(level) > 1e-14
    assert np.all((-_ON_CURVE <= level[node]) & (level[node] < 0.0))
    for q in (ops.qx[node], ops.qy[node]):
        t = (q + g.half) / g.dx
        assert np.all(np.abs(t - np.round(t)) <= 1e-9)
    pairs = [(_operator(ops, "H", k), _operator(ops, "G", k))
             for k in range(3)]
    read = np.zeros(len(ops.qx), dtype=bool)
    for _, G in pairs:
        read[G.indices] = True
    assert np.all(read)

    def u(x, y):
        return c0 + c1 * x + c2 * y
    X, Y = g.meshgrid()
    U, phi = u(X, Y)[g.mask], ops.crossing_values(u)
    # Rounding bound per row, W_i the row's absolute sum over H and G and
    # m = max(|U|, |phi|), which bounds |c0| + |c1 x| + |c2 y| at every
    # node and crossing (the ellipse is symmetric in both axes). With the
    # unit roundoff eps/2: the weights, a few operations of the cut each,
    # carry at most 4 of it, so their exact cancellation on affine u fails
    # by at most 4 (eps/2) W_i m; the values of u at the nodes and the
    # crossings, 4 operations each, 4 (eps/2) W_i m more; the sums of at
    # most 9 + 4 products and the last two operations, 15 (eps/2) W_i m.
    # That is 11.5 eps W_i m, so c = 16. On a row of ordinary weight (W dx^2
    # = 4, m <= 10) this is 1.4e-13 / dx^2, tighter than the flat 1e-12
    # that the heavy row of the example above broke; over 150 random draws
    # the worst row reads 1.44 eps W_i m
    scale = 16.0 * np.finfo(float).eps * max(np.max(np.abs(U)),
                                             np.max(np.abs(phi), initial=0.0))
    for H, G in pairs:
        err = H @ U + G @ phi
        W = abs(H).sum(axis=1).A1 + abs(G).sum(axis=1).A1
        assert np.all(np.abs(err) <= scale * W)


@pytest.mark.parametrize("r", SCALE_RANGE)
def test_disks_solve_at_both_ends_of_the_scale_range(r):
    # the problem of the radius-one disk carried to radius r, F(r x) =
    # 1 + x^2 and u*(r x) = r^2 _ustar(x), is solved with the same error
    # in dx^2 (0.0382 at steps of 10^5 from 1e-105 to 1e100); past the
    # range, at 1e-110 and 1e105, the ring's curvature divided by zero or
    # overflowed
    g = build_disk(r, 48)
    X, Y = g.meshgrid()
    u = lambda x, y: r * r * _ustar(x / r, y / r)
    sol = solve_ma(ScalarField((X / r) ** 2 + 1.0, g), u, g)
    err = np.max(np.abs((sol.u.values - u(X, Y))[g.mask])) / g.dx ** 2
    assert sol.convex and err <= 0.04


@settings(max_examples=20)
@given(a=st.floats(0.5, 8.0), b=st.floats(0.5, 8.0), n=st.integers(16, 150))
def test_every_grid_that_constructs_solves(a, b, n):
    # The truncation error is dx^2 D^4 u* / 12 = dx^2 / 6 on interior rows
    # and, from the quadratic ghost, (1 - alpha) dx / 3 times the third
    # derivative of u* along the stencil ray on rim rows, which reads at
    # most 2 a there (D^3 u* = 2x along x). u - u_h answers it through the
    # linearized operator, whose Green's function grows like the square of
    # the domain's size, so err/dx^2 grows at most like a^2. The bound 1
    # that holds for semi-axes up to 2 (radius two) then scales as
    # (1 + a^2) / 5 above that, as in the radius-three-and-a-half disk
    # test. Over 120 draws in these ranges the worst err/bound is 0.28
    try:
        g = build_ellipse(a, b, n)
        build_stencil_ops(g)
    except GridError:     # too coarse for the ellipse, e.g. (8, 0.5, 16)
        assume(False)
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar, g)
    err = np.max(np.abs((sol.u.values - _ustar(X, Y))[g.mask])) / g.dx ** 2
    assert sol.convex and err <= max(1.0, (1.0 + a * a) / 5.0)
