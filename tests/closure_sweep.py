"""Two checks of the Monge-Ampere closure that are too slow for tier-1.

    PYTHONPATH=src python tests/closure_sweep.py

1. The unit disk at n = 1024, F = 1 + x^2, data u* = x^4/12 + x^2/2 +
   y^2/2: Newton converges (about 7 s on one core).
2. 200 ellipses, semi-axes log-uniform in [0.05, 10] and n uniform in
   8-200, drawn from seed 7: every grid that constructs solves, with the
   error bound of test_maforward.py::test_every_grid_that_constructs_solves.
   The only refusals allowed are n < 16 and the quadrature's orphan guard
   (a domain thinner than the lattice can hold).

Prints one line per check and exits 1 on any NewtonFailure, any other
refusal, or a missed bound.
"""

import sys
import time

import numpy as np

from malab.grid import GridError, ScalarField, build_disk, build_ellipse
from malab.maforward import NewtonFailure, solve_ma

ALLOWED = ("n must be an integer of at least 16",
           "no interior node found to adopt boundary sliver")


def ustar(x, y):
    return x ** 4 / 12 + x ** 2 / 2 + y ** 2 / 2


def solve(g):
    """err / dx^2 of the solve against u*, and its convexity."""
    X, Y = g.meshgrid()
    sol = solve_ma(ScalarField(X ** 2 + 1.0, g), ustar, g)
    err = np.max(np.abs((sol.u.values - ustar(X, Y))[g.mask])) / g.dx ** 2
    return float(err), sol


def main() -> int:
    faults = []
    t = time.perf_counter()
    try:
        err, sol = solve(build_disk(1.0, 1024))
        print(f"disk n=1024: {len(sol.log) - 1} Newton steps, residual "
              f"{sol.log[-1][1]:.2e}, err/dx^2 {err:.4f}, "
              f"{time.perf_counter() - t:.1f} s")
        if not (sol.convex and err <= 1.0):
            faults.append(f"disk n=1024: err/dx^2 {err:.3g}")
    except NewtonFailure as exc:
        faults.append(f"disk n=1024: {exc}")

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
    for fault in faults:
        print("FAULT", fault)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
