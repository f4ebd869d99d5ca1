"""Run one malab benchmark workload, or all four, and print the metrics.

    python3 perfbench/run.py --workload ma-forward --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

A run is a closed loop in this one process: one caller calls the
workload's operation on seeded inputs, round after round, and checks
every output outside the timed call. The number of rounds is fixed by
--seconds and the workload's nominal round time, not by the clock, so the
same seed always attempts the same ops. Fresh processes that only set the
workload up are timed before, between and after the rounds, and setup_s
is the median of their set-up times. The gated times, setup_s and
ops_per_s, are scaled to the reference machine's fast state by a fixed
numpy/scipy task timed next to them (speed.py); the raw values are
printed too. --trace 1 alternates untraced and traced rounds and reports
the per-layer metrics and the tracing overhead instead of the end-to-end
ones. The last line of standard output is the JSON result; an audit
record with every raw sample goes to perfbench/out/. The exit code is 0
only when every output check ran and passed. `--workload all` runs each
workload in turn. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

from stats import median, ratio

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("ma-forward", "dn-inverse", "cgo-sweep", "beltrami-chart")
SETUP_ENDS = 2        # set-up processes before the window, and as many after
SETUP_EVERY_S = 5.0   # and one between rounds at least this far apart
SPEED_EVERY_S = 2.0   # the speed task runs between ops at least this far apart
DEADLINE_S = 170
LOOP_LIMIT_S = 120    # no round starts later than this into the loop

# end-to-end metrics: name -> (unit, better); GATED ones are the result's
E2E = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "setup_s_raw": ("s", "lower"),
    "ops_per_s_raw": ("1/s", "higher"),
    "speed": ("1", "higher"),
    "op_s_p50": ("s", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "err_max": ("1", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
GATED = ("setup_s", "ops_per_s", "peak_rss_mb")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_program():
    """Import malab from this checkout's src/, never from anywhere else."""
    # one caller, one thread: a second OpenBLAS thread only spins here
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import malab
    if Path(malab.__file__).resolve().parent != SRC / "malab":
        sys.exit(f"run.py: imported malab from {malab.__file__}, not {SRC}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--", "src"], capture_output=True, text=True,
                               timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown: {exc}"
    return head + ("+dirty-src" if dirty else "")


# ---------------------------------------------------------------------------
# set-up, timed from outside in fresh processes


def setup_probe(args):
    """Child process: set the workload up and print when it is ready."""
    import_program()
    import workloads
    workloads.WORKLOADS[args.workload]()
    print(json.dumps({"ready": time.monotonic()}), flush=True)


def setup_samples(args, meter, n: int) -> list:
    """Set-up of n processes in turn: seconds from launch to ready, and
    the speed task's seconds just before and just after."""
    out = []
    for _ in range(n):
        before = meter.task_s()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=60)
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        out.append({"seconds": ready - t0,
                    "task_s": [before, meter.task_s()]})
    return out


# ---------------------------------------------------------------------------
# the closed loop


def attempt(wl, inp, failures):
    """One timed op: (output, seconds), or (the failure, None)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
    except failures as exc:
        return exc, None
    return out, time.perf_counter() - t0


def judge(wl, inp, out, dt, failures) -> dict:
    """The audit fields of one op, its output checked outside the timing."""
    rec = {"seconds": None, "check": None, "failure": None, "err": None}
    if hasattr(wl, "reuse_key"):
        rec["reuse_key"] = repr(wl.reuse_key(inp))
    if dt is None:
        rec["failure"] = f"{type(out).__name__}: {out}"
        return rec
    try:
        err, ok = wl.check(inp, out)
    except failures as exc:
        rec["check"] = "error"
        rec["failure"] = f"check raised {type(exc).__name__}: {exc}"
        return rec
    rec["err"] = err
    if ok:
        rec["check"], rec["seconds"] = "pass", dt
    else:
        rec["check"], rec["failure"] = "fail", "output check failed"
    return rec


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def n_rounds(wl, seconds: float, traced: bool) -> int:
    """How many rounds a run makes: whole rounds that take about `seconds`
    on the reference machine, at least one, and at least four when traced
    so that each kind has two.

    The count is fixed before the run and does not depend on how fast the
    machine is, so the attempted and failed ops of a run are a function of
    the seed and the run length alone, and two runs with the same seed
    attempt the same ops.
    """
    n = max(1, round(seconds / wl.ROUND_S))
    return max(n, 4) if traced else n


def run_loop(wl, seed: int, seconds: float, recorder, meter, probe):
    """Rounds 0 .. n_rounds - 1. With a recorder, odd rounds record spans.

    Between rounds at least SETUP_EVERY_S apart, probe() takes a set-up
    sample; the machine's speed drifts over seconds, and this way set-up
    is sampled across the run as the ops are. The speed task runs before
    the first op, after the last, and next to any op at least
    SPEED_EVERY_S after its previous run. The set-up samples and the
    task's times are returned last. A run that passes LOOP_LIMIT_S before
    its last round, on a program some times slower than the reference,
    stops there and says so in `truncated`, so that it still ends within
    DEADLINE_S.
    """
    import workloads
    failures = workloads.KNOWN_FAILURES
    rounds = n_rounds(wl, seconds, recorder is not None)
    samples, round_times, setup, task = [], [], [], []
    last_task = float("-inf")

    def time_speed():
        nonlocal last_task
        if time.perf_counter() - last_task >= SPEED_EVERY_S:
            task.append(meter.task_s())
            last_task = time.perf_counter()

    time_speed()
    t_start = last_probe = time.perf_counter()
    truncated = False
    for k in range(rounds):
        now = time.perf_counter()
        if now - t_start > LOOP_LIMIT_S:
            truncated = True
            break
        if now - last_probe >= SETUP_EVERY_S:
            setup.append(probe())
            last_probe = time.perf_counter()
        traced = recorder is not None and k % 2 == 1
        inputs = wl.round_inputs(seed, k)
        r0 = time.perf_counter()
        for inp in inputs:
            op = len(samples)
            time_speed()
            with recorder.op_scope(op) if traced else contextlib.nullcontext():
                out, dt = attempt(wl, inp, failures)
            time_speed()
            rec = {"op": op, "round": k, "traced": traced,
                   "inputs": workloads.describe(inp)}
            rec.update(judge(wl, inp, out, dt, failures))
            samples.append(rec)
            del out
        round_times.append(time.perf_counter() - r0)
    task.append(meter.task_s())
    return samples, round_times, truncated, setup, task


# ---------------------------------------------------------------------------
# the run, then the metrics


def summarize(samples: list) -> dict:
    """End-to-end values of the successful ops among samples.

    ops_per_s is the reciprocal of the mean op time, with each cell of the
    round weighted equally, so a failed op does not shift the workload's
    mix; with one cell, or no failures, it is plain ops / timed seconds.
    """
    ok = [s for s in samples if s["check"] == "pass"]
    cells = cell_means(ok)
    errs = [s["err"] for s in samples if s["err"] is not None]
    return {"ops_per_s": ratio(len(cells), sum(cells.values())),
            "op_s_p50": median(s["seconds"] for s in ok),
            "op_s_n": len(ok),
            "fail_ratio": ratio(len(samples) - len(ok), len(samples)),
            "err_max": max(errs) if errs else 0.0}


def cell_means(ok: list) -> dict:
    cells: dict = {}
    for s in ok:
        cells.setdefault(s["inputs"].get("cell", ""), []).append(s["seconds"])
    return {c: sum(v) / len(v) for c, v in cells.items()}


def overhead_ratio(samples: list) -> float:
    """Traced / untraced ops_per_s over the cells both halves ran."""
    ok = [s for s in samples if s["check"] == "pass"]
    on = cell_means([s for s in ok if s["traced"]])
    off = cell_means([s for s in ok if not s["traced"]])
    both = sorted(set(on) & set(off))
    return ratio(sum(off[c] for c in both), sum(on[c] for c in both))


def run_workload(args) -> int:
    # one CPU for the ops, the set-up processes and the speed helper, so
    # that the helper times the CPU the rest ran on
    cpus = nproc()
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    import_program()
    import numpy
    import scipy
    import speed
    import workloads
    from spans import LAYER_METRICS, Recorder, layer_metrics

    recorder = Recorder() if args.trace else None
    with speed.Meter() as meter:
        setup = setup_samples(args, meter, SETUP_ENDS)
        # the traced run wraps before set-up, so the recorder sees every
        # stencil set the program hands out; outside a traced op a wrapper
        # only passes the call through
        with recorder.installed() if recorder else contextlib.nullcontext():
            wl = workloads.WORKLOADS[args.workload]()
            samples, round_times, truncated, inside, task = run_loop(
                wl, args.seed, args.seconds, recorder, meter,
                lambda: setup_samples(args, meter, 1)[0])
        setup += inside + setup_samples(args, meter, SETUP_ENDS)

    attempted = len(samples)
    checks = [s["check"] for s in samples]
    failed = attempted - checks.count("pass")
    correct = "pass" in checks and "fail" not in checks and "error" not in checks

    # the gated times are scaled to the reference machine's fast state:
    # set-up by the task timed in the probe, ops by the run's mean task
    e2e = summarize(samples)
    e2e["speed"] = speed.factor(task)
    e2e["ops_per_s_raw"] = e2e["ops_per_s"]
    e2e["ops_per_s"] = e2e["ops_per_s_raw"] / e2e["speed"]
    e2e["setup_s_raw"] = median(p["seconds"] for p in setup)
    e2e["setup_s"] = median(p["seconds"] * speed.factor(p["task_s"])
                            for p in setup)
    e2e["peak_rss_mb"] = peak_rss_mb()
    reused = sum(1 for a, b in zip(samples, samples[1:])
                 if "reuse_key" in a and a["reuse_key"] == b["reuse_key"])

    layers = None
    if args.trace:
        # layers are timed on the traced ops that succeeded, as ops are
        passed = {s["op"] for s in samples
                  if s["traced"] and s["check"] == "pass"}
        layers = layer_metrics([s for s in recorder.spans if s.op in passed],
                               len(passed))
        layers["cgo.psi_reuse_ratio"] = ratio(reused, attempted)
        layers["trace.overhead_ratio"] = overhead_ratio(samples)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "truncated": truncated, "correct": correct, "end_to_end": e2e,
        "per_layer": layers, "setup_samples": setup, "speed_task_s": task,
        "round_seconds": round_times, "samples": samples,
        "env": {"python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "nproc": cpus, "pinned_cpu": cpu,
                "platform": platform.platform(),
                "commit": git_commit()},
        "spans": recorder.to_json() if recorder else None,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    w = args.workload
    for name, (unit, _) in E2E.items():
        extra = f"  (n={e2e['op_s_n']})" if name == "op_s_p50" else ""
        print(f"{w:15s} {name:36s} {e2e[name]:.6g} {unit}{extra}")
    print(f"{w:15s} {'attempted / failed':36s} {attempted} / {failed}")
    if layers is not None:
        for name, (unit, _) in LAYER_METRICS.items():
            print(f"{w:15s} {name:36s} {layers[name]:.6g} {unit}")
    print(f"record: {path.relative_to(ROOT)}")

    if args.trace:
        metrics = {n: {"value": layers[n], "unit": u}
                   for n, (u, _) in LAYER_METRICS.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": E2E[n][0]} for n in GATED}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload's run in turn."""
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], timeout=DEADLINE_S + 10)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "malab" / "__init__.py").is_file():
        sys.exit(f"run.py: no malab sources under {SRC}")
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
