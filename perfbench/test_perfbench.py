"""Tests of the benchmark itself: metric schema, span arithmetic, verifiers.

Each verifier must reject a wrong answer, so that fail_frac = 0 cannot be a
silent pass. Run with: PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import calibrate
import metrics
import run
import spans
import verify
import workloads
from qgeomcap import capacity, channels, kernels, zeroerr

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert set(metrics.END_TO_END) <= set(metrics.REPORTED)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0.0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_self_time_subtracts_children_and_sees_through_scipy():
    names = ["a", "b", "minimize", "c"]
    #       a [0, 10]
    #       |- b [1, 4]
    #       `- minimize [5, 9]
    #          `- c [6, 7]
    name = [0, 1, 2, 3]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    totals = spans.self_times(names, name, start, end, parent)
    assert totals == {"a": (3.0, 1), "b": (3.0, 1), "minimize": (3.0, 1), "c": (1.0, 1)}
    totals = spans.self_times(names, name, start, end, parent, transparent=("minimize",))
    assert totals["a"] == (6.0, 1)
    assert totals["c"] == (1.0, 1)


class _Layer:
    @staticmethod
    def outer(x):
        return _Layer.inner(x) + 1

    @staticmethod
    def inner(x):
        return 2 * x


def test_recorder_nests_spans_counts_and_restores():
    rec = spans.Recorder()
    original = _Layer.inner
    rec.patch(_Layer, "outer", "layer.outer")
    rec.patch(_Layer, "inner", "layer.inner",
              lambda r, args, kwargs, result: r.count("rows", args[0]))
    rec.task_id = 7
    assert _Layer.outer(3) == 7
    rec.restore()
    assert _Layer.inner is original
    assert [rec.names[i] for i in rec.name] == ["layer.outer", "layer.inner"]
    assert list(rec.parent) == [-1, 0]
    assert list(rec.task) == [7, 7]
    assert rec.counters == {"rows": 3}
    assert rec.start[0] <= rec.start[1] <= rec.end[1] <= rec.end[0]


def test_reference_divergence_matches_kernel():
    rng = np.random.default_rng(0)
    pts = workloads.bloch_cloud(rng, 50, "near_pure")
    c = np.array([0.1, -0.2, 0.3])
    np.testing.assert_allclose(verify.bloch_divergence(pts, c),
                               kernels.batch_divergence(pts, c), atol=1e-12)


def test_hsw_check_rejects_perturbed_value():
    ch = channels.build_channel(channels.ChannelSpec("depolarizing", {"p": 0.3}))
    ref = verify.unital_reference(ch.kraus)
    assert ref == pytest.approx(capacity.unital_hsw_closed_form(ch), abs=1e-12)

    def chi(ensemble):
        return ref

    assert verify.check_hsw(ref, True, [], ref, chi).fail is None
    near = verify.check_hsw(ref + 1e-5, True, [], ref, chi)
    assert near.fail is None and near.miss and not near.wrong
    far = verify.check_hsw(ref + 1e-2, True, [], ref, chi)
    assert far.fail and far.wrong
    nan = verify.check_hsw(float("nan"), True, [], ref, chi)
    assert nan.fail and nan.wrong


def test_ball_check_rejects_radius_that_does_not_match_centre():
    pts = workloads.bloch_cloud(np.random.default_rng(1), 10, "uniform")
    radii = np.zeros(len(pts))
    center = pts.mean(axis=0)
    true = verify.enclosure_radius(pts, radii, center)
    assert verify.check_radius(pts, radii, center, true) is None
    assert verify.check_radius(pts, radii, center, true + 1e-3)
    assert verify.check_oracle(pts, radii, center, true + 1e-3, true + 1e-3).fail


def test_zeroerr_check_rejects_non_independent_witness():
    ch = zeroerr.pentagon_channel()
    adj = verify.adjacency(verify.overlap_table(ch.kraus, zeroerr.pentagon_inputs()), 2)
    assert verify.mis_size(adj) == 5
    good = zeroerr.zero_error_rate(ch, zeroerr.pentagon_inputs(), 2)
    assert verify.check_mis(adj, 2, good.K, good.rate_bits, good.witness, 5).fail is None
    bad = [0, 1, 2, 3, 4]  # codewords 00, 01, 02, 03, 04 share their first symbol
    verdict = verify.check_mis(adj, 2, 5, good.rate_bits, bad, 5)
    assert verdict.fail and "confusable" in verdict.fail
    assert verify.check_mis(adj, 2, 4, 1.0, good.witness[:4], 5).fail


def test_build_check_rejects_wrong_edge_count():
    ch = workloads.cyclic_channel(5)
    inputs = workloads.diagonal_inputs(5)
    adj = verify.adjacency(verify.overlap_table(ch.kraus, inputs), 2)
    graph = zeroerr.build_confusability_graph(ch, inputs, 2)
    assert verify.check_build(adj, 25, len(graph.edges), graph.edges).fail is None
    assert verify.check_build(adj, 25, len(graph.edges) - 1).fail


def test_raising_and_capped_tasks_count_as_failed_and_misses_do_not():
    def boom(ctx):
        raise ValueError("bad input")

    def slow(ctx):
        time.sleep(5.0)

    tasks = [workloads.Task("boom", boom, None),
             workloads.Task("slow", slow, None),
             workloads.Task("ok", lambda ctx: 1, lambda res: verify.Verdict()),
             workloads.Task("short", lambda ctx: 1, lambda res: verify.Verdict(miss="1e-5"))]
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        samples, _ = run.timed_run(tasks, 0, 0.05, True, workloads.Context)
    finally:
        signal.signal(signal.SIGALRM, previous)
    verdicts = run.check_samples(tasks, samples)
    q = run.quality(tasks, samples, verdicts)
    assert (q["attempted"], q["failed"], q["missed"], q["wrong"]) == (4, 2, 1, 1)
    assert samples[1].error == "wall cap" and samples[1].seconds < 1.0


def test_speed_factors_use_the_loops_around_each_task():
    # loops of 8 ms, then 16 ms after task 2, then 16 ms at the end
    marks = [(0, 0.008), (2, 0.016), (3, 0.016)]
    factors = calibrate.speed_factors(3, marks)
    assert factors == pytest.approx([calibrate.REF_S / 0.012] * 2 + [calibrate.REF_S / 0.016])
