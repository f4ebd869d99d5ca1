"""The four benchmark workloads: seeded inputs, one operation, output checks.

Each workload runs in rounds. Round k's inputs are a pure function of
(seed, k), so two runs with the same seed see bitwise-identical inputs.
ROUND_S is a round's wall time on the reference machine (a 2-vCPU VM),
output check included; a run makes about --seconds / ROUND_S rounds.
A round is the unit of work the benchmark never splits: four solves for
ma-forward, one h-sweep for cgo-sweep, one operation for the other two. Only `run` is timed; input
generation and `check` are not.
"""

from __future__ import annotations

import numpy as np

# functions are called through their modules, so the traced run's
# rebinding in the defining module reaches these calls too
from malab import cgo, complexcalc, dnmap, geomkit, grid, linearize, maforward
from malab.grid import ComplexField, MetricField, PaddedGrid, ScalarField
from malab.linearize import VectorField

# the failures an operation may report; anything else is a benchmark bug
KNOWN_FAILURES = (grid.GridError, maforward.NewtonFailure,
                  linearize.LinearSolveFailure)


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _u_star(x, y):
    return x ** 4 / 12.0 + x ** 2 / 2.0 + y ** 2 / 2.0


class MaForward:
    """Fresh disk or ellipse per op, solve_ma against an exact solution.

    The convergence-study use: Newton sparse-LU work dominates and every
    grid is a stencil-cache miss. A round is one study, coarse to fine:
    one n near the centre of each quarter of [128, 256]. Op cost grows
    like n^2.7, so fixing the four sizes keeps every round's mix the same,
    and the fixed order puts the peak memory of a round at the same point.
    Rounds 2m and 2m+1 solve quarters 0 and 2 on disks and 1 and 3 on
    near-circular ellipses, rounds 2m+2 and 2m+3 the other way round.
    Each quarter is a cell.
    """

    name = "ma-forward"
    ROUND_S = 5.5  # measured 4.5-7.0
    CENTRES = (136, 168, 200, 232)
    JITTER = 4
    # max |u - u*| / dx^2 over the mask; measured 0.20-0.26
    ERR_TOL = 1.0

    def __init__(self):
        warm = grid.build_disk(1.0, 32)
        X, _ = warm.meshgrid()
        maforward.solve_ma(ScalarField(X ** 2 + 1.0, warm), _u_star, warm)

    def round_inputs(self, seed: int, k: int) -> list:
        rng = _rng(seed, k)
        ops = []
        for j, centre in enumerate(self.CENTRES):
            op = {"cell": f"q{j}",
                  "n": centre + int(rng.integers(-self.JITTER, self.JITTER + 1))}
            if (j + k // 2) % 2 == 0:
                op.update(kind="disk", radius=float(rng.uniform(0.95, 1.05)))
            else:
                op.update(kind="ellipse", a=float(rng.uniform(1.0, 1.05)),
                          b=float(rng.uniform(0.9, 0.95)))
            ops.append(op)
        return ops

    def run(self, inp):
        if inp["kind"] == "disk":
            dom = grid.build_disk(inp["radius"], inp["n"])
        else:
            dom = grid.build_ellipse(inp["a"], inp["b"], inp["n"])
        X, _ = dom.meshgrid()
        return maforward.solve_ma(ScalarField(X ** 2 + 1.0, dom), _u_star, dom)

    def check(self, inp, sol):
        dom = sol.u.grid
        X, Y = dom.meshgrid()
        diff = (sol.u.values - _u_star(X, Y))[dom.mask]
        err = float(np.max(np.abs(diff))) / dom.dx ** 2
        return err, bool(sol.convex and err <= self.ERR_TOL)


class DnInverse:
    """One forward-model evaluation of the inverse problem per op.

    solve_ma_zero for a seeded source, the Hessian metric and its drift,
    then the K = 6 linearized DN matrix: 13 nondiv_solve calls sharing one
    metric. The source is fresh per op so no cache across calls can help.
    The check compares against dn_lin_matrix at rtol 1e-13, untimed.
    """

    name = "dn-inverse"
    ROUND_S = 5.5  # measured 4.7-6.9
    N = 128
    K = 6
    REF_RTOL = 1e-13
    # max |D - D_ref| / max |D_ref|; measured about 5e-9
    ERR_TOL = 1e-6

    def __init__(self):
        self.dom = grid.build_disk(1.0, self.N)
        maforward.build_stencil_ops(self.dom)
        self.X, self.Y = self.dom.meshgrid()

    def round_inputs(self, seed: int, k: int) -> list:
        rng = _rng(seed, k)
        a, b = (float(v) for v in rng.uniform(0.2, 1.0, size=2))
        c = float(rng.uniform(-0.3, 0.3))
        X, Y = self.X, self.Y
        F = 1.0 + a * X * X + b * Y * Y + c * X * Y
        return [{"a": a, "b": b, "c": c, "F": F}]

    def run(self, inp):
        base = maforward.solve_ma_zero(ScalarField(inp["F"], self.dom))
        g = linearize.metric_from_solution(base)
        drift = linearize.drift_field(g)
        return g, drift, dnmap.dn_lin_matrix(g, drift, K=self.K)

    def check(self, inp, out):
        g, drift, D = out
        ref = dnmap.dn_lin_matrix(g, drift, K=self.K, rtol=self.REF_RTOL).values
        err = float(np.max(np.abs(D.values - ref)) / np.max(np.abs(ref)))
        return err, bool(np.all(np.isfinite(D.values)) and err <= self.ERR_TOL)


class CgoSweep:
    """One Morse-phase CGO bundle per op on the 512 box, h swept per round.

    Each round is one sweep over h with a fresh phase centre and fresh
    drift and potential amplitudes, so 3 of every 4 ops reuse the previous
    op's (box, psi, core radius): the share a per-sweep cache would hit.
    """

    name = "cgo-sweep"
    ROUND_S = 9.0  # measured 7.8-10.3
    HS = (0.4, 0.283, 0.2, 0.141)
    # bundle residual; the test suite bounds the fixed sweep by 1e-4
    ERR_TOL = 1e-4

    def __init__(self):
        self.box = PaddedGrid(half=6.0, n=512)
        X, Y = self.box.meshgrid()
        self.X, self.Y, self.r2 = X, Y, X * X + Y * Y
        complexcalc.cauchy_inverse(ComplexField(np.zeros((512, 512)), self.box))

    def round_inputs(self, seed: int, k: int) -> list:
        rng = _rng(seed, k)
        cx, cy = (float(v) for v in rng.uniform(-0.15, 0.15, size=2))
        a1, a2 = float(rng.uniform(0.6, 1.0)), float(rng.uniform(0.45, 0.75))
        q0 = float(rng.uniform(0.15, 0.35))
        X, Y, r2 = self.X, self.Y, self.r2
        bump = np.exp(-r2 / 0.6)
        drift = VectorField(a1 * bump * np.cos(1.3 * X + 0.4 * Y),
                            -a2 * bump * np.sin(0.9 * Y - 0.2 * X), self.box)
        q = q0 * np.exp(-r2 / 0.7)
        phase = cgo.phase_spec((0.0, 0.0, -0.25), self.box, complex(cx, cy))
        return [{"h": h, "center": [cx, cy], "a1": a1, "a2": a2, "q0": q0,
                 "phase": phase, "drift": drift, "q": q} for h in self.HS]

    def reuse_key(self, inp):
        """(box, psi, core radius); psi is fixed by the phase centre."""
        return (self.box, tuple(inp["center"]), self.box.half / 3.0)

    def run(self, inp):
        return cgo.build_cgo_holo(inp["phase"], inp["h"], inp["drift"],
                                  q=inp["q"])

    def check(self, inp, bundle):
        err = float(bundle.residual)
        ok = np.isfinite(err) and np.all(np.isfinite(bundle.v.values))
        return err, bool(ok and err <= self.ERR_TOL)


def _covariant(g: MetricField):
    d = g.g11 * g.g22 - g.g12 ** 2
    return g.g22 / d, -g.g12 / d, g.g11 / d


class BeltramiChart:
    """One isothermal chart of a seeded non-conformal metric per op.

    The only workload on the full-box cauchy_inverse and the geomkit
    periodic sampler and inversion, so a change to the oscillatory path
    must leave it flat. The check is the conformality defect of the
    pulled-back metric over the core, recomputed outside the timed call.
    """

    name = "beltrami-chart"
    ROUND_S = 0.42  # measured 0.31-0.46
    # max |p12|, |p11 - p22| over the core; the test suite bounds 1e-3
    ERR_TOL = 1e-3

    def __init__(self):
        self.box = PaddedGrid(half=4.0, n=128)
        X, Y = self.box.meshgrid()
        self.X, self.Y = X, Y
        self.core = self.box.core_mask(self.box.half / 3.0)
        complexcalc.cauchy_inverse(ComplexField(np.zeros((128, 128)), self.box))

    def round_inputs(self, seed: int, k: int) -> list:
        rng = _rng(seed, k)
        a = float(rng.uniform(0.15, 0.3))
        b = float(rng.uniform(0.08, 0.2))
        c = float(rng.uniform(0.05, 0.15))
        w = float(rng.uniform(0.4, 0.6))
        X, Y = self.X, self.Y
        bump = np.exp(-(X * X + Y * Y) / w)
        C11, C22, C12 = 1.0 + a * bump, 1.0 - b * bump, c * X * Y * bump
        det = C11 * C22 - C12 ** 2
        g = MetricField(C22 / det, -C12 / det, C11 / det, self.box)
        return [{"a": a, "b": b, "c": c, "w": w, "g": g}]

    def run(self, inp):
        return geomkit.isothermal(inp["g"])

    def check(self, inp, out):
        chi, mu = out
        p11, p12, p22 = _covariant(geomkit.pullback_metric(chi, inp["g"]))
        core = self.core
        err = max(float(np.max(np.abs(p12[core]))),
                  float(np.max(np.abs(p11 - p22)[core])))
        ok = np.all(np.isfinite(mu.values)) and np.min(mu.values[core]) > 0
        return err, bool(ok and err <= self.ERR_TOL)


WORKLOADS = {w.name: w for w in (MaForward, DnInverse, CgoSweep, BeltramiChart)}


def describe(inp: dict) -> dict:
    """The scalar parameters of an op's input, for the audit record."""
    return {k: v for k, v in inp.items()
            if isinstance(v, (int, float, str, list))}
