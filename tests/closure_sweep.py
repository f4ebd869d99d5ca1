"""Four checks of the Monge-Ampere closure that are too slow for tier-1.

    PYTHONPATH=src python tests/closure_sweep.py

1. The unit disk at n = 1024, F = 1 + x^2, data u* = x^4/12 + x^2/2 +
   y^2/2: Newton converges (about 7 s on one core). On its operators
   (N = 821,904), StencilOps.system and crossing_system, at the
   coefficients (1, 0, 1) and at random ones with zeros, hold sorted
   int32 indices and no explicit zero, and equal bit for bit the COO
   reference of test_maforward.py, diag(c) H summed term by term.
2. 200 ellipses, semi-axes log-uniform in [0.05, 10] and n uniform in
   8-200, drawn from seed 7: every grid that constructs solves, with the
   error bound of test_maforward.py::test_every_grid_that_constructs_solves.
   The only refusals allowed are n < 16 and the quadrature's orphan guard
   (a domain thinner than the lattice can hold).
3. Ellipses with a node outside the mask but within grid._ON_CURVE of
   the curve: for every node (i, j) of the lower-left quadrant at n = 64
   and 96, a = 1 and the b in (0.5, 1) that puts its level at -5e-10
   (1,266 grids); every tenth of them solves within the bound of check 2
   (about 3 s). The rays to such a node cross the curve past it, and
   their cut is clipped to 1 (DomainGrid.ray_cut).
4. Disks of radius 10^k at n = 48 across grid.SCALE_RANGE, carrying
   check 1's problem to the radius (F(r x) = 1 + x^2, u*(r x) = r^2 u*(x)):
   each solves with the unit disk's err/dx^2 (0.0382) to 1e-6 relative
   (5e-11 measured), and the first decade past each end of the range is
   refused by name (about 3 s).

Prints one line per check and exits 1 on any NewtonFailure, any other
refusal, or a missed bound.
"""

import sys
import time

import numpy as np

from malab.grid import (SCALE_RANGE, GridError, ScalarField, build_disk,
                        build_ellipse)
from malab.maforward import NewtonFailure, build_stencil_ops, solve_ma
from test_maforward import _reference_sum

ALLOWED = ("n must be an integer of at least 16",
           "no interior node found to adopt boundary sliver")


def ustar(x, y):
    return x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2


def solve(g, r=1.0):
    """err / dx^2 of the solve against u*, and its convexity, with the
    problem carried to radius r: F(r x) = 1 + x^2, u*(r x) = r^2 u*(x)."""
    X, Y = g.meshgrid()
    u = lambda x, y: r * r * ustar(x / r, y / r)
    sol = solve_ma(ScalarField((X / r) ** 2 + 1.0, g), u, g)
    err = np.max(np.abs((sol.u.values - u(X, Y))[g.mask])) / g.dx ** 2
    return float(err), sol


def sum_faults(ops) -> list:
    """Check 1's systems of ops that differ from their reference."""
    rng = np.random.default_rng(5)
    c = [rng.standard_normal(ops.N) for _ in range(3)]
    for k, v in enumerate(c):
        v[::5 + 2 * k] = 0.0          # zero coefficients drop their entries
    faults = []
    for label, coeffs in (("(1, 0, 1)", (1.0, 0.0, 1.0)),
                          ("random", tuple(c))):
        for side, build in (("H", ops.system), ("G", ops.crossing_system)):
            M, R = build(*coeffs), _reference_sum(ops, side, coeffs)
            R.sort_indices()
            if not (M.has_sorted_indices and M.indices.dtype == np.int32
                    and np.all(M.data != 0.0)
                    and np.array_equal(M.indptr, R.indptr)
                    and np.array_equal(M.indices, R.indices)
                    and np.array_equal(M.data.view(np.int64),
                                       R.data.view(np.int64))):
                faults.append(f"disk n=1024: the {side} sum at {label} "
                              "coefficients differs from its reference")
    return faults


def near_curve_family() -> list:
    """(n, b) of check 3: node (i, j) of the lower-left quadrant at level
    -5e-10 on the ellipse (1, b)."""
    out = []
    for n in (64, 96):
        x = np.linspace(-1.0, 1.0, n)
        for i in range(n // 2):
            for j in range(n // 2):
                r = 1.0 - x[i] * x[i] - 5e-10
                b = -x[j] / np.sqrt(r) if r > 0.0 else 0.0
                if 0.5 < b < 1.0:
                    out.append((n, float(b)))
    return out


def main() -> int:
    faults = []
    t = time.perf_counter()
    disk = build_disk(1.0, 1024)
    try:
        err, sol = solve(disk)
        print(f"disk n=1024: {len(sol.log) - 1} Newton steps, residual "
              f"{sol.log[-1][1]:.2e}, err/dx^2 {err:.4f}, "
              f"{time.perf_counter() - t:.1f} s")
        if not (sol.convex and err <= 1.0):
            faults.append(f"disk n=1024: err/dx^2 {err:.3g}")
    except NewtonFailure as exc:
        faults.append(f"disk n=1024: {exc}")
    sums = sum_faults(build_stencil_ops(disk))
    faults += sums
    print(f"disk n=1024: system and crossing_system at (1, 0, 1) and random "
          f"coefficients: {4 - len(sums)} of 4 equal their reference")

    rng = np.random.default_rng(7)
    solved, refused, worst = 0, 0, 0.0
    for _ in range(200):
        a, b = np.exp(rng.uniform(np.log(0.05), np.log(10.0), 2))
        n = int(rng.integers(8, 201))
        case = f"ellipse ({a:.4g}, {b:.4g}), n={n}"
        try:
            g = build_ellipse(float(a), float(b), n)
            err, sol = solve(g)
        except GridError as exc:
            refused += 1
            if not str(exc).startswith(ALLOWED):
                faults.append(f"{case}: refused: {exc}")
            continue
        except NewtonFailure as exc:
            faults.append(f"{case}: {exc}")
            continue
        solved += 1
        bound = max(1.0, (1.0 + a * a) / 5.0)
        worst = max(worst, err / bound)
        if not (sol.convex and err <= bound):
            faults.append(f"{case}: err/dx^2 {err:.3g} above {bound:.3g}")
    print(f"200 ellipses: {solved} solved, {refused} refused, worst "
          f"err/bound {worst:.3f}")

    family, worst = near_curve_family()[::10], 0.0
    for n, b in family:
        case = f"ellipse (1, {b!r}), n={n}"
        try:
            err, sol = solve(build_ellipse(1.0, b, n))
        except (GridError, NewtonFailure) as exc:
            faults.append(f"{case}: {exc}")
            continue
        worst = max(worst, err)
        if not (sol.convex and err <= 1.0):
            faults.append(f"{case}: err/dx^2 {err:.3g}")
    print(f"{len(family)} near-curve ellipses: worst err/dx^2 {worst:.3f}")

    lo, hi = (round(np.log10(L)) for L in SCALE_RANGE)
    unit, _ = solve(build_disk(1.0, 48))
    worst = 0.0
    for k in range(lo, hi + 1):
        r = 10.0 ** k
        try:
            err, sol = solve(build_disk(r, 48), r)
        except (GridError, NewtonFailure) as exc:
            faults.append(f"disk r=1e{k}: {exc}")
            continue
        worst = max(worst, abs(err / unit - 1.0))
        if not (sol.convex and abs(err / unit - 1.0) <= 1e-6):
            faults.append(f"disk r=1e{k}: err/dx^2 {err:.4g} against "
                          f"{unit:.4g} at r = 1")
    for k in (lo - 1, hi + 1):
        try:
            build_disk(10.0 ** k, 48)
            faults.append(f"disk r=1e{k}: built past the scale range")
        except GridError as exc:
            if "outside the lattice scale range" not in str(exc):
                faults.append(f"disk r=1e{k}: refused: {exc}")
    print(f"{hi - lo + 1} disks from r=1e{lo} to 1e{hi}: worst relative "
          f"change of err/dx^2 {worst:.2e}; 1e{lo - 1} and 1e{hi + 1} "
          "refused")
    for fault in faults:
        print("FAULT", fault)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
