"""Steadiness check: run one workload over several seeds and report spreads.

    python3 perfbench/spread.py --workload cgo-sweep --seeds 1-10

Runs perfbench/run.py once per seed, one run at a time, with the
BENCHMARK.json run length, then prints for each end-to-end metric the
median, the quartiles and the spread (interquartile range over median)
next to the metric's bound. A spread above a third of its bound is
flagged: the benchmark is meant to stay below that. A spread above the
bound itself makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, spread

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="range like 1-10")
    ap.add_argument("--seconds", type=int, default=doc["run_seconds"])
    args = ap.parse_args(argv)

    values: dict = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True, timeout=600,
            check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v:.5g}" for k, v in line.items()), flush=True)
        for k, v in line.items():
            values.setdefault(k, []).append(v)

    status = 0
    for m in doc["end_to_end"]:
        vals = values[m["name"]]
        s = spread(vals) if len(vals) > 1 else 0.0
        flag = "" if s < m["bound"] / 3 else "  <-- above bound/3"
        if s > m["bound"]:
            status = 1
        print(f"{args.workload} {m['name']:12s} median {median(vals):.5g} "
              f"spread {s:.4f} bound {m['bound']}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
