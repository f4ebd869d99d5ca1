"""Forward Monge-Ampere solver tests: benchmarks with known solutions,
Newton behavior, and the stencil and solver layers."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from malab import maforward
from malab.grid import (BoundaryTrace, GridError, MetricField, PaddedGrid,
                        ScalarField, boundary_restrict)
from malab.grid import build_disk, build_ellipse
from malab.dnmap import dn_lin
from malab.linearize import VectorField, adjoint_solve, nondiv_solve
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
    e64, e128 = _flat_error(64), _flat_error(128)
    assert e128 <= 1e-3
    assert 3.0 <= e64 / e128 <= 5.0


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


def test_zero_cache_matches_explicit_call():
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


def test_zero_cache_hands_out_read_only_arrays():
    """What a zero-data solve shares is read-only; what it hands out is
    its own: writing one result's arrays does not reach the next call, and
    the caller's source array stays writable."""
    g = build_disk(1.0, 40)
    X, _ = g.meshgrid()
    Fvals = X ** 2 + 1.0
    a = solve_ma_zero(ScalarField(Fvals, g))
    saved = (a.u.values.copy(), a.phi.values.copy())
    ops = build_stencil_ops(g)
    for arr in (ops.pde, ops.qx, ops.qy, ops.L["11"]):
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
    g = build_disk(1.0, 64)
    ops = build_stencil_ops(g)
    assert ops.N == int(g.mask.sum())
    assert np.any(~ops.pde)            # some quasi-boundary rows exist
    R = ops.operator("L", "R")
    assert R.getnnz() > 0
    # interpolation rows never collide with PDE rows
    rows_R = np.unique(R.nonzero()[0])
    assert not np.any(ops.pde[rows_R])


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


def _flat_pair(g):
    one, zero = np.ones((g.n, g.n)), np.zeros((g.n, g.n))
    return MetricField(one, zero, one, g), VectorField(zero, zero, g)


_ENTRY_POINTS = {
    "solve_ma": lambda g, phi: solve_ma(1.0, phi, g),
    "nondiv_solve": lambda g, phi: nondiv_solve(_flat_pair(g)[0], phi),
    "adjoint_solve": lambda g, phi: adjoint_solve(*_flat_pair(g), phi),
    "dn_lin": lambda g, phi: dn_lin(_flat_pair(g)[0], phi),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_bad_boundary_data_fails_before_any_factorization(entry, monkeypatch):
    g = build_disk(1.0, 48)
    coarse = build_disk(1.0, 64)
    other = BoundaryTrace(np.zeros(len(coarse.boundary)), coarse)
    twin = build_disk(1.0, 48)
    equal = BoundaryTrace(np.ones(len(twin.boundary)), twin)
    assert np.all(eval_boundary_data(g, equal, 0.6, 0.8) == 1.0)

    def factor(self, A):
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
    arrays = [ops.pde, ops.qx, ops.qy, ops.cols, ops.qrows, ops.qcols]
    arrays += [*ops.L.values(), *ops.G.values()]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[:] = 0
    for blocks in (ops.L, ops.G):
        with pytest.raises(TypeError):
            blocks["11"] = np.zeros(1)


def test_krylov_counts_per_newton_step(monkeypatch):
    g = build_disk(1.0, 64)
    X, _ = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    it, _, damping, _, gmres, redone = sol.log[0]     # the Poisson guess
    assert (it, damping, gmres) == (0, 1.0, 0) and redone is False
    for k, (it, _, damping, _, gmres, redone) in enumerate(sol.log[1:], 1):
        assert it == k and 0.0 < damping <= 1.0
        assert isinstance(gmres, int) and gmres >= 1 and redone is False
    monkeypatch.setattr(maforward, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NewtonFailure) as exc:
        solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    assert len(exc.value.log) == 2 and exc.value.log[1][4] >= 1


def test_lu_retried_step_is_flagged_in_its_row():
    # the n = 133 radius-two disk of the sweep below: GMRES misses its
    # forcing term at step 2 and the line search runs out of damping
    g = build_disk(2.0, 133)
    X, _ = g.meshgrid()
    maforward._LAPLACIAN.clear()
    for _ in ("cold", "cached Laplacian"):
        sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
        assert [row[0] for row in sol.log if row[5]] == [2]


def test_laplacian_factorization_is_kept_for_the_last_grid(monkeypatch):
    g = build_disk(1.0, 48)
    X, _ = g.meshgrid()
    maforward._LAPLACIAN.clear()
    cold = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    lap = maforward._LAPLACIAN[g]
    for arr in (lap.A.data, lap.A.indices, lap.A.indptr):
        with pytest.raises(ValueError):
            arr[:1] = 0
    # record how many Laplacians are held whenever a factorization starts
    held, factor = [], SparseLU.__init__

    def spy(self, A):
        held.append(len(maforward._LAPLACIAN))
        factor(self, A)
    monkeypatch.setattr(SparseLU, "__init__", spy)
    twin = build_disk(1.0, 48)
    warm = solve_ma(ScalarField(X ** 2 + 1.0, twin), _ustar)
    assert held == [] and maforward._LAPLACIAN[g] is lap
    assert np.array_equal(warm.u.values, cold.u.values)
    assert warm.log == cold.log
    other = build_disk(0.9, 48)
    solve_ma(ScalarField(X ** 2 + 1.0, other), _ustar)
    assert held == [0] and list(maforward._LAPLACIAN) == [other]


def _reference_sum(ops, side, coeffs, c0=None):
    # diag(c) L summed term by term as sparse matrices, each operator read
    # off its slots as (row, column, value) triples, then R and c0: the
    # sum the assembler replaces
    def matrix(k):
        ls, gs = maforward._LAYOUT[k]
        if side == "L":
            vals, cols, rows = ops.L[k], ops.cols[ls], np.arange(ops.N)
        else:
            vals, cols, rows = ops.G[k], ops.qcols[gs], ops.qrows
        rows = np.broadcast_to(rows, vals.shape)
        shape = (ops.N, ops.N if side == "L" else len(ops.qx))
        return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                             shape).tocsr()
    a11, a12, a22, X1, X2 = coeffs
    terms = [(a11, "11"), (a22, "22"), (2.0 * a12, "12")]
    if X1 is not None:
        terms += [(X1, "1"), (X2, "2")]
    parts = [c * matrix(k) if np.ndim(c) == 0 else sp.diags(c) @ matrix(k)
             for c, k in terms]
    out = sum(parts[1:], parts[0]) + matrix("R")
    if c0 is not None:
        out = out + sp.diags(np.where(ops.pde, c0, 0.0))
    return out


@pytest.mark.parametrize("build", [lambda: build_disk(1.0, 128),
                                   lambda: build_ellipse(1.03, 0.92, 168)],
                         ids=["disk", "ellipse"])
def test_system_equals_the_sparse_sum_of_its_terms(build):
    ops = build_stencil_ops(build())
    rng = np.random.default_rng(16)
    c = [rng.standard_normal(ops.N) for _ in range(6)]
    c[1][::7] = 0.0                    # zero coefficients drop their entries
    for coeffs, c0 in [((1.0, 0.0, 1.0, None, None), None),
                       ((*c[:3], None, None), None), ((*c[:5],), None),
                       ((*c[:5],), c[5])]:
        got = [ops.system(*coeffs, c0=c0), ops.crossing_system(*coeffs)]
        ref = [_reference_sum(ops, "L", coeffs, c0),
               _reference_sum(ops, "G", coeffs)]
        for M, R in zip(got, ref):
            assert np.all(M.data != 0.0)           # no explicit zero
            R.sort_indices()
            assert M.has_sorted_indices
            assert np.array_equal(M.indptr, R.indptr)
            assert np.array_equal(M.indices, R.indices)
            assert np.array_equal(M.data.view(np.int64),
                                  R.data.view(np.int64))


def _laplacian_lu(n):
    ops = build_stencil_ops(build_disk(1.0, n))
    return SparseLU(ops.system(1.0, 0.0, 1.0)), ops.N


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


def test_zero_cache_results_do_not_share_mutations():
    g = build_disk(1.0, 44)
    X, _ = g.meshgrid()
    F = ScalarField(X ** 2 + 1.0, g)
    a = solve_ma_zero(F)
    log = list(a.log)
    a.convex = False
    a.log.append((99, 0.0, 1.0, 0.0, 99, True))
    b = solve_ma_zero(F)
    assert b.convex and b.log == log


# n at which a mask node lay on the curve to rounding, got no ray cut, and
# stencil assembly raised "exterior neighbor without boundary crossing"
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
            for block in (*ops.L.values(), *ops.G.values()):
                assert np.all(np.isfinite(block)), n
    g = build_disk(1.0, 59)
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    err = np.max(np.abs((sol.u.values - _ustar(X, Y))[g.mask])) / g.dx ** 2
    assert sol.convex and err < 1.0


def test_interpolation_row_without_an_anchor_is_a_grid_error():
    # a sliver one node thick: the quasi-boundary node has no interior
    # neighbor opposite its cut
    sliver = build_ellipse(2.0, 0.03, 17)
    with pytest.raises(GridError, match=r"\(1, 8\)"):
        build_stencil_ops(sliver)


def test_disk_is_the_ellipse_with_equal_axes():
    r, n = 0.95, 64
    d, e = build_disk(r, n), build_ellipse(r, r, n)
    assert np.array_equal(d.mask, e.mask)
    assert np.array_equal(d.weights, e.weights)
    for name in ("s", "points", "normal", "tangent", "curvature", "ds"):
        assert np.array_equal(getattr(d.boundary, name),
                              getattr(e.boundary, name)), name
    sols = []
    for g in (d, e):
        X, _ = g.meshgrid()
        sols.append(solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar, g))
    assert np.array_equal(sols[0].u.values, sols[1].u.values)


@pytest.mark.parametrize("n", range(16, 290, 13))
def test_radius_two_disk_converges(n):
    # from n = 133 up, GMRES misses its forcing term at step 2 and the
    # line search cannot descend along that step; the LU retry solves it
    g = build_disk(2.0, n)
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar)
    err = np.max(np.abs((sol.u.values - _ustar(X, Y))[g.mask])) / g.dx ** 2
    assert sol.convex and err <= 1.0


# ---------------------------------------------------------------------------
# properties over random ellipses


_AXIS = st.floats(0.5, 2.0)
_COEF = st.floats(-2.0, 2.0)


@settings(max_examples=40)
@given(a=_AXIS, b=_AXIS, n=st.integers(16, 150), c0=_COEF, c1=_COEF,
       c2=_COEF)
def test_crossings_and_affine_exactness(a, b, n, c0, c1, c2):
    g = build_ellipse(a, b, n)
    ops = build_stencil_ops(g)
    assert np.max(np.abs(g.level(ops.qx, ops.qy)), initial=0.0) <= 1e-14
    pairs = [(ops.operator("L", k), ops.operator("G", k), exact, order)
             for k, exact, order in [("11", 0.0, 2), ("22", 0.0, 2),
                                     ("12", 0.0, 2), ("1", c1, 1),
                                     ("2", c2, 1), ("R", 0.0, 0)]]
    read = np.zeros(len(ops.qx), dtype=bool)
    for _, G, _, _ in pairs:
        read[G.indices] = True
    assert np.all(read)

    def u(x, y):
        return c0 + c1 * x + c2 * y
    X, Y = g.meshgrid()
    U, phi = u(X, Y)[g.mask], ops.crossing_values(u)
    for L, G, exact, order in pairs:
        err = L @ U + G @ phi - np.where(ops.pde, exact, 0.0)
        assert np.max(np.abs(err)) * g.dx ** order <= 1e-12


@settings(max_examples=20)
@given(a=_AXIS, b=_AXIS, n=st.integers(16, 150))
def test_every_grid_that_constructs_solves(a, b, n):
    g = build_ellipse(a, b, n)
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), _ustar, g)
    err = np.max(np.abs((sol.u.values - _ustar(X, Y))[g.mask])) / g.dx ** 2
    assert sol.convex and err <= 1.0
