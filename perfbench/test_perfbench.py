"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, layer_metrics, self_time  # noqa: E402
from stats import median, ratio, spread  # noqa: E402


def flatten(v):
    """Everything an input is made of, as comparable bytes and scalars."""
    if isinstance(v, np.ndarray):
        return (v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, dict):
        return tuple((k, flatten(x)) for k, x in sorted(v.items()))
    if isinstance(v, (list, tuple)):
        return tuple(flatten(x) for x in v)
    if hasattr(v, "__dict__"):
        return (type(v).__name__, flatten(vars(v)))
    return repr(v)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def workload(request):
    return workloads.WORKLOADS[request.param]()


def test_same_seed_gives_bitwise_identical_inputs(workload):
    for k in (0, 3):
        a = flatten(workload.round_inputs(7, k))
        b = flatten(type(workload)().round_inputs(7, k))
        assert a == b


def test_other_seed_or_round_gives_other_inputs(workload):
    base = flatten(workload.round_inputs(7, 0))
    assert flatten(workload.round_inputs(8, 0)) != base
    assert flatten(workload.round_inputs(7, 1)) != base


def test_ma_forward_rounds_are_coarse_to_fine_studies():
    wl = workloads.MaForward()
    for k in range(0, 8, 2):
        pair = (wl.round_inputs(3, k), wl.round_inputs(3, k + 2))
        for ops in pair:
            assert [op["cell"] for op in ops] == ["q0", "q1", "q2", "q3"]
            for op, centre in zip(ops, wl.CENTRES):
                assert abs(op["n"] - centre) <= wl.JITTER
        kinds = [[op["kind"] for op in ops] for ops in pair]
        assert sorted(kinds) == [["disk", "ellipse", "disk", "ellipse"],
                                 ["ellipse", "disk", "ellipse", "disk"]]


def test_overhead_ratio_uses_cells_both_halves_ran():
    def op(cell, traced, seconds):
        return {"check": "pass", "traced": traced, "seconds": seconds,
                "err": 0.0, "inputs": {"cell": cell}}
    samples = [op("a", False, 1.0), op("b", False, 3.0), op("a", True, 1.25)]
    assert run.overhead_ratio(samples) == 0.8        # cell b has no traced op
    assert run.summarize(samples)["ops_per_s"] == pytest.approx(1 / 2.0625)


class _FailingCheck:
    """A workload whose every output fails its check."""

    ROUND_S = 1.0

    def round_inputs(self, seed, k):
        return [{"x": float(k)}]

    def run(self, inp):
        return inp["x"]

    def check(self, inp, out):
        return 0.0, False


def test_failed_check_prints_result_and_exits_nonzero(monkeypatch, capsys,
                                                      tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "failing-check", _FailingCheck)
    monkeypatch.setattr(run, "setup_samples", lambda args, meter, n: [
        {"seconds": 0.5, "task_s": [speed.REF_S]}] * n)
    monkeypatch.setattr(run, "HERE", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path.parent)
    args = argparse.Namespace(workload="failing-check", seed=1, seconds=3.0,
                              trace=0)
    assert run.run_workload(args) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 3


def test_round_count_depends_on_run_length_only():
    wl = _FailingCheck()
    assert run.n_rounds(wl, 0.0, False) == 1
    assert run.n_rounds(wl, 3.2, False) == 3
    assert run.n_rounds(wl, 3.2, True) == 4     # two of each kind
    assert run.n_rounds(wl, 22.0, True) == 22


def test_median_and_ratio_known_answers():
    assert median([3, 1, 2]) == 2.0
    assert median([4, 1, 3, 2]) == 2.5
    assert median([]) == 0.0
    assert ratio(3, 4) == 0.75
    assert ratio(1, 0) == 0.0


def test_speed_factor_is_reference_over_mean_task_time():
    ref = speed.REF_S
    assert speed.factor([ref, ref, ref]) == pytest.approx(1.0)
    assert speed.factor([0.5 * ref, 1.5 * ref]) == pytest.approx(1.0)
    assert speed.factor([2.0 * ref]) == pytest.approx(0.5)
    with speed.Meter() as meter:
        assert meter.task_s() > 0.0


def test_spread_is_interquartile_range_over_median():
    # statistics.quantiles(1..10, n=4) gives 2.75 and 8.25; median 5.5
    assert spread(range(1, 11)) == pytest.approx(1.0)
    assert spread([2.0] * 10) == 0.0
    assert spread([1.0, 1.0, 2.0, 4.0]) == pytest.approx(2.5 / 1.5)


def test_self_time_subtracts_union_of_children():
    parent = Span(0, "p", 0.0, 10.0, None, 0)
    kids = [Span(1, "c", 1.0, 3.0, 0, 0), Span(2, "c", 2.0, 4.0, 0, 0),
            Span(3, "c", 6.0, 7.0, 0, 0), Span(4, "c", 9.0, 12.0, 0, 0)]
    # covered: [1, 4] + [6, 7] + [9, 10] (clipped) = 5
    assert self_time(parent, kids) == 5.0
    assert self_time(parent, []) == 10.0


def test_layer_metrics_from_fixed_spans():
    s = [
        Span(0, "maforward.solve_ma", 0.0, 10.0, None, 0,
             {"iters": 4, "backtracks": 1}),
        Span(1, "maforward.poisson_init", 0.0, 2.0, 0, 0),
        Span(2, "maforward.build_stencil_ops", 3.0, 4.0, 0, 0, {"hit": False}),
        Span(3, "maforward.build_stencil_ops", 5.0, 5.5, None, 1,
             {"hit": True}),
        Span(4, "complexcalc.oscillatory_dbar_inv", 20.0, 23.0, None, 1),
        Span(5, "complexcalc.cauchy_inverse", 21.0, 22.0, 4, 1),
        # a build_stencil_ops call that raised: its hook never ran
        Span(6, "maforward.build_stencil_ops", 30.0, 30.1, None, 1),
    ]
    m = layer_metrics(s, n_ops=2)
    assert m["maforward.newton_step_s"] == 2.0        # (10 - 2) / 4
    assert m["maforward.newton_iters"] == 2.0         # 4 iterations / 2 ops
    assert m["maforward.backtracks"] == 0.5
    assert m["maforward.stencil_hit_ratio"] == 0.5
    assert m["maforward.build_stencil_ops_miss_s"] == 1.0
    assert m["complexcalc.osc_self_s"] == 2.0
    assert m["complexcalc.osc_calls"] == 0.5
    assert m["complexcalc.cauchy_inverse_s"] == 1.0
    assert m["cgo.build_cgo_holo_s"] == 0.0           # never called
    # the run adds the two metrics that do not come from spans
    assert set(m) | {"cgo.psi_reuse_ratio", "trace.overhead_ratio"} \
        == set(spans.LAYER_METRICS)


def test_recorder_rebinds_importers_and_restores():
    from malab import cgo, complexcalc
    from malab.grid import ComplexField, PaddedGrid
    orig = complexcalc.oscillatory_dbar_inv
    rec = Recorder()
    with rec.installed():
        assert cgo.oscillatory_dbar_inv is complexcalc.oscillatory_dbar_inv
        assert cgo.oscillatory_dbar_inv is not orig
        box = PaddedGrid(half=3.0, n=32)
        X, Y = box.meshgrid()
        f = ComplexField(np.exp(-(X * X + Y * Y) * 4.0), box)
        complexcalc.cauchy_inverse(f)                 # outside an op: no span
        with rec.op_scope(0):
            complexcalc.conj_cauchy_inverse(f)
    assert complexcalc.oscillatory_dbar_inv is orig
    assert cgo.oscillatory_dbar_inv is orig
    assert [(x.name, x.parent, x.op) for x in rec.spans] == [
        ("complexcalc.cauchy_inverse", None, 0)]


def test_benchmark_json_matches_the_metrics_the_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.GATED)
    for m in doc["end_to_end"]:
        assert (m["unit"], m["better"]) == run.E2E[m["name"]]
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == spans.LAYER_METRICS
    assert [w["name"] for w in doc["workloads"]] == list(run.NAMES)
    assert sorted(run.NAMES) == sorted(workloads.WORKLOADS)
