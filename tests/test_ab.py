import importlib.util
import io
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _recorded(workload, seed):
    """The parent and change runs of the recorded mirror-image pair."""
    benches = [json.loads((ROOT / f"BENCH_{c}.json").read_text())
               for c in ("8de58b9", "6af3564")]
    return ab.side_runs(benches, (workload, seed, 0))


def test_summary_of_a_recorded_pair():
    # hsw_zoo at seed 3: 10 pairs, 234.6 -> 444.0 tasks_per_ref_s, every pair won
    rows = {r["metric"]: r for r in ab.summarize(*_recorded("hsw_zoo", 3), SPEC)}
    assert set(rows) == {"tasks_per_ref_s", "peak_rss_mb", "setup_s"}
    tasks = rows["tasks_per_ref_s"]
    assert tasks["pairs"] == 10 and tasks["wins"] == 10 and tasks["verdict"] == "gain"
    assert tasks["parent"][1] == pytest.approx(234.6, abs=0.05)
    assert tasks["change"][1] == pytest.approx(444.0, abs=0.05)
    assert tasks["ratio"] == pytest.approx(444.0 / 234.6, rel=1e-3)
    assert rows["peak_rss_mb"]["verdict"] == rows["setup_s"]["verdict"] == "within"
    # three pairs of balls cannot show a gain
    rows = {r["metric"]: r for r in ab.summarize(*_recorded("balls", 3), SPEC)}
    assert rows["tasks_per_ref_s"]["pairs"] == 3
    assert {r["verdict"] for r in rows.values()} == {"within"}
    out = io.StringIO()
    ab.print_summary(*_recorded("hsw_zoo", 3), SPEC, out)
    text = out.getvalue()
    assert "parent: 10 runs, 0 of 84025 tasks failed, 0 runs not correct" in text
    assert "10/10  gain" in text


def _run(pair, values, failed=0):
    metrics = {k: {"value": v, "unit": ""} for k, v in values.items()}
    return {"workload": "zeroerr_graphs", "seed": 3, "pair": pair,
            "last": {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}}


@pytest.mark.parametrize("parent,change,verdict,fault", [
    ([100.0] * 10, [70.0] * 10, "worse", {}),  # 30 % below, bound 25 %
    ([100.0] * 10, [80.0] * 10, "within", {}),
    ([100.0] * 10, [101.0] * 10, "gain", {}),  # identical parent runs: any gap counts
    ([100.0] * 9, [101.0] * 9, "within", {}),  # too few pairs for a gain
    ([50.0, 100.0, 150.0, 150.0], [125.0] * 4, "unresolved", {}),
    ([50.0, 100.0, 150.0, 150.0], [160.0] * 4, "within", {}),  # spread, but separated
    # every pair won by 1, but the parent's quartiles are 92.5 and 107.5
    ([90.0] * 3 + [100.0] * 4 + [110.0] * 3, [91.0] * 3 + [101.0] * 4 + [111.0] * 3,
     "within", {}),
    # a faster change that fails more of its tasks, or answers wrongly, gains nothing
    ([100.0] * 10, [101.0] * 10, "failing", {"failed": 1}),
    ([100.0] * 10, [101.0] * 10, "failing", {"correct": False}),
    ([100.0] * 10, [70.0] * 10, "worse", {"failed": 1}),
])
def test_end_to_end_verdicts(parent, change, verdict, fault):
    change_runs = [_run(i, {"tasks_per_ref_s": v}) for i, v in enumerate(change)]
    change_runs[-1]["last"].update(fault)
    rows = ab.summarize([_run(i, {"tasks_per_ref_s": v}) for i, v in enumerate(parent)],
                        change_runs, SPEC)
    assert [r["verdict"] for r in rows] == [verdict]


def test_per_layer_verdicts_and_pairing():
    name = "zeroerr.build_confusability_graph"
    parent = [_run(i, {f"{name}.calls": 15, f"{name}.self_s": 0.02, "not.a.metric": 1})
              for i in range(10)]
    change = [_run(i, {f"{name}.calls": 15, f"{name}.self_s": 0.01}) for i in range(10)]
    # an unpaired run is left out
    change.append(_run(10, {f"{name}.calls": 99, f"{name}.self_s": 9.0}))
    rows = {r["metric"]: r for r in ab.summarize(parent, change, SPEC)}
    assert set(rows) == {f"{name}.calls", f"{name}.self_s"}
    assert rows[f"{name}.calls"]["verdict"] == "repeats"
    assert rows[f"{name}.self_s"]["verdict"] == "gain"
    assert rows[f"{name}.self_s"]["wins"] == 10
    rows = ab.summarize(change[:3], parent[:3], SPEC)
    assert [r["verdict"] for r in rows] == ["repeats", "moved"]
    change[0]["last"]["failed"] = 1
    rows = {r["metric"]: r for r in ab.summarize(parent, change, SPEC)}
    assert rows[f"{name}.self_s"]["verdict"] == "failing"


def test_side_runs_pairs_and_sides():
    runs = [_run(0, {}), _run(0, {}), _run(1, {}), _run(1, {}), _run(2, {})]
    for run, side in zip(runs, ["parent", "change", "change", "parent", "parent"]):
        run["side"] = side
    runs.append(dict(_run(0, {}), seed=8))
    bench = {"runs": runs}
    # one commit against itself: both sides in one file, told apart by side;
    # pair 2 has no change run and is left out
    parent, change = ab.side_runs([bench, bench], ("zeroerr_graphs", 3, 0))
    assert parent == [runs[0], runs[3]] and change == [runs[1], runs[2]]
    # two commits: every matching run of each file
    parent, change = ab.side_runs([bench, {"runs": runs[:2]}], ("zeroerr_graphs", 3, 0))
    assert parent == runs[:2] and change == runs[:2]


def test_failures_count_tasks_and_wrong_runs():
    runs = [_run(0, {}, failed=2), _run(1, {})]
    runs[1]["last"]["correct"] = False
    assert ab.failures(runs) == (2, 200, 1)
