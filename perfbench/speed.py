"""The machine's speed at the moment, read from a fixed task that uses no malab code.

The reference machine, a 2-vCPU VM on a shared host, runs each vCPU in
one of two states about 50% apart, and the slow one can dominate for
minutes: one ten-seed set of dn-inverse read 26% slower in ops_per_s and
40% slower in setup_s than the same seeds ten minutes earlier. A run
times the task below, sparse LU solves of a 2-D Laplacian, next to its
ops and set-ups and scales its gated time metrics by
factor = REF_S / (the task's time), so that runs of the same program
read alike whatever state the machine was in. Why this task, and what
the scaling leaves, is in README.md ("Scaling to the machine's speed").

The task runs in a helper process of its own, started by Meter, so that
its time does not depend on the heap and caches the program leaves in
the measuring process. The run pins itself, and so the helper, to one
CPU, so that the helper times the CPU the ops run on. The task calls
only numpy and scipy, so a change to malab does not change it.
"""

from __future__ import annotations

import subprocess
import sys
import time

# the task's seconds on the reference machine in its fast state
REF_S = 0.030

_N = 64
_REPEATS = 3


def _task():
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as sla
    laplace = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-_N, -1, 0, 1, _N],
                       shape=(_N * _N, _N * _N), format="csc")
    rhs = np.ones(_N * _N)

    def once():
        sla.splu(laplace).solve(rhs)

    def task_s() -> float:
        """Seconds for _REPEATS rounds, after one untimed round that warms
        the caches the program's last op left cold."""
        once()
        t0 = time.perf_counter()
        for _ in range(_REPEATS):
            once()
        return time.perf_counter() - t0
    return task_s


def factor(task_seconds) -> float:
    """REF_S over the mean task time: 1 at the reference's fast state,
    below 1 when the machine is slower. The mean, not the median, because
    the task times fall in two clusters and the share of each is what
    the ops in between saw."""
    task_seconds = list(task_seconds)
    return REF_S * len(task_seconds) / sum(task_seconds)


class Meter:
    """The helper process: task_s() has it time the task once, now."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("speed helper did not start")

    def task_s(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve():
    task_s = _task()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(task_s()), flush=True)


if __name__ == "__main__":
    _serve()
