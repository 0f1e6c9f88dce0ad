"""Alternating A/B runs of perfbench on two commits, and their summary.

Run from a git checkout, on the standard library only:

    python3 benchmarks/ab.py PARENT CHANGE --workload W --seed S --pairs N

Each commit is unpacked with `git archive` into a scratch directory, and
each side runs its own perfbench/run.py from its own root. Pair i runs the
parent first when i is even and the change first when i is odd. Commits
whose perfbench/ trees differ are refused unless --benchmark-change is
given, for a change to the benchmark itself.

Every run is appended, in run order, to BENCH_<sha>.json of its commit
(sha: 7 hex digits) at the root of this checkout. Each run lasts
BENCHMARK.json's run_seconds. A run records its workload, seed, trace
flag, pair index, its side and the side that ran first, perfbench's
last-line JSON, peak_rss_mb, attempted and provenance. A commit run
against itself keeps both sides in one file. Pair indices continue those
already in the file for the same workload, seed and trace flag, so a
later call adds pairs.

Then it prints, for each metric of the runs in the two files that match
the workload, seed and trace flag: each side's median and quartiles, the
pairs the change won (ties count for neither side) and a verdict.

End-to-end metrics are judged against their bound in BENCHMARK.json:
  gain        there are at least 10 pairs, the change won at least 9/10 of
              them, and the medians differ by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  a side's interquartile range is wider than the bound times
              its median, unless every change run beats every parent run;
  within      none of these.
Per-layer metrics have no bound. They read `repeats` when every run of
both sides reports the same value; otherwise gain or worse when one side
won at least 9/10 of at least 10 pairs, and moved when neither did.
A metric that would read gain reads `failing` instead when the change
fails a larger share of its attempted tasks than the parent, or has a run
whose answers are not correct.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a gain needs at least MIN_PAIRS pairs and WIN_SHARE of them won
MIN_PAIRS = 10
WIN_SHARE = 0.9
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(sha, into):
    """The tree of commit sha, written under into by `git archive`."""
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


# ---------------------------------------------------------------------------
# BENCH files


def load_bench(path, commit):
    if path.is_file():
        return json.loads(path.read_text())
    return {"commit": commit,
            "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace X",
            "note": "every run of alternating parent/change pairs from benchmarks/ab.py, "
                    "in run order; peak_rss_mb grows with attempted, the answers the "
                    "run keeps",
            "runs": []}


def matching(runs, workload, seed, trace):
    return [r for r in runs if r["workload"] == workload and r["seed"] == seed
            and r.get("trace", 0) == trace]


def side_runs(benches, select):
    """The parent's and the change's runs of one workload, seed and trace
    flag whose pair index both sides ran. The runs of a commit measured
    against itself share one file and are told apart by their side."""
    runs = [matching(b["runs"], *select) for b in benches]
    if benches[0] is benches[1]:
        runs = [[r for r in runs[0] if r.get("side") == side] for side in SIDES]
    both = {r["pair"] for r in runs[0]} & {r["pair"] for r in runs[1]}
    return [[r for r in side if r["pair"] in both] for side in runs]


def run_side(root, sha, workload, seed, seconds, trace):
    """One perfbench run in the unpacked tree root: (last-line JSON, provenance)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{sha[:7]}: {' '.join(cmd)} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    report, last = proc.stdout.rstrip("\n").rsplit("\n", 1)
    provenance = json.loads(report)["provenance"]
    # an archive has no .git for perfbench to read its commit from
    provenance["git_commit"] = provenance["git_commit"] or sha
    return json.loads(last), provenance


# ---------------------------------------------------------------------------
# summary


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def decisive(count, pairs):
    """Whether count of pairs won is enough to call the comparison."""
    return pairs >= MIN_PAIRS and count >= WIN_SHARE * pairs


def metric_values(run):
    return {name: m["value"] for name, m in run["last"]["metrics"].items()}


def failures(runs):
    """(failed, attempted, runs not correct) over runs."""
    return (sum(r["last"]["failed"] for r in runs), sum(r["last"]["attempted"] for r in runs),
            sum(not r["last"]["correct"] for r in runs))


def change_fails(parent_runs, change_runs):
    """Whether the change fails a larger share of its tasks than the parent,
    or has a run that is not correct; then no metric reads gain."""
    (pf, pa, _), (cf, ca, wrong) = failures(parent_runs), failures(change_runs)
    return wrong > 0 or cf * pa > pf * ca


def summarize(parent_runs, change_runs, spec):
    """One row per metric of the paired runs: medians, quartiles, wins and verdict.

    parent_runs and change_runs hold the runs of one workload, seed and
    trace flag; runs pair up by their pair index. spec is BENCHMARK.json.
    """
    failing = change_fails(parent_runs, change_runs)
    better = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent = {r["pair"]: metric_values(r) for r in parent_runs}
    change = {r["pair"]: metric_values(r) for r in change_runs}
    pairs = sorted(parent.keys() & change.keys())
    rows = []
    for name in sorted({k for i in pairs for k in parent[i]} & better.keys()):
        p = [parent[i][name] for i in pairs if parent[i].get(name) is not None]
        c = [change[i][name] for i in pairs if change[i].get(name) is not None]
        if not p or not c:
            continue
        sign = 1.0 if better[name]["better"] == "higher" else -1.0
        diffs = [sign * (change[i][name] - parent[i][name]) for i in pairs
                 if parent[i].get(name) is not None and change[i].get(name) is not None]
        wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
        pq, cq = quartiles(p), quartiles(c)
        gap = sign * (cq[1] - pq[1])
        if "bound" in better[name]:
            bound = better[name]["bound"]
            spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (pq, cq))
            separated = min(sign * v for v in c) > max(sign * v for v in p)
            if gap < -bound * abs(pq[1]):
                verdict = "worse"
            elif spread > bound and not separated:
                verdict = "unresolved"
            elif decisive(wins, len(diffs)) and gap > pq[2] - pq[0]:
                verdict = "gain"
            else:
                verdict = "within"
        elif len(set(p + c)) == 1:
            verdict = "repeats"
        elif decisive(wins, len(diffs)):
            verdict = "gain"
        elif decisive(losses, len(diffs)):
            verdict = "worse"
        else:
            verdict = "moved"
        if verdict == "gain" and failing:
            verdict = "failing"
        rows.append({"metric": name, "pairs": len(diffs), "parent": pq, "change": cq,
                     "ratio": cq[1] / pq[1] if pq[1] else None, "wins": wins,
                     "verdict": verdict})
    return rows


def print_summary(parent_runs, change_runs, spec, out=sys.stdout):
    for side, runs in zip(SIDES, (parent_runs, change_runs)):
        failed, attempted, wrong = failures(runs)
        print(f"{side}: {len(runs)} runs, {failed} of {attempted} tasks failed, "
              f"{wrong} runs not correct", file=out)
    print(f"{'metric':44} {'parent q1/median/q3':>30} {'change q1/median/q3':>30} "
          f"{'ratio':>6} {'wins':>6}  verdict", file=out)
    for row in summarize(parent_runs, change_runs, spec):
        p, c = ("/".join(f"{v:.4g}" for v in row[side]) for side in ("parent", "change"))
        ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
        print(f"{row['metric']:44} {p:>30} {c:>30} {ratio:>6} "
              f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}", file=out)


# ---------------------------------------------------------------------------
# command line


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", metavar="PARENT")
    p.add_argument("change", metavar="CHANGE")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--benchmark-change", action="store_true",
                   help="allow commits whose perfbench/ trees differ")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args, spec


def main(argv=None):
    args, spec = parse_args(argv)
    select = (args.workload, args.seed, args.trace)
    shas = [git("rev-parse", "--verify", f"{c}^{{commit}}") for c in (args.parent, args.change)]
    trees = {git("rev-parse", f"{sha}:{path}") for sha in shas for path in spec["paths"]}
    if len(trees) > len(spec["paths"]) and not args.benchmark_change:
        raise SystemExit(f"{' and '.join(spec['paths'])} differ between the two commits; "
                         "pass --benchmark-change for a change to the benchmark")
    files = [ROOT / f"BENCH_{sha[:7]}.json" for sha in shas]
    benches = [load_bench(files[0], shas[0][:7])]
    benches.append(benches[0] if shas[1] == shas[0] else load_bench(files[1], shas[1][:7]))
    start = 1 + max((r["pair"] for b in benches for r in matching(b["runs"], *select)),
                    default=-1)
    work = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        roots = [unpack(sha, work / sha) for sha in shas]
        for pair in range(start, start + args.pairs):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            for side in order:
                last, provenance = run_side(roots[side], shas[side], *select[:2],
                                            spec["run_seconds"], args.trace)
                rss = last["metrics"].get("peak_rss_mb", {}).get("value")
                benches[side]["runs"].append({
                    "workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "pair": pair, "side": SIDES[side], "first": SIDES[order[0]], "last": last,
                    "peak_rss_mb": rss, "attempted": last["attempted"],
                    "provenance": provenance})
                files[side].write_text(json.dumps(benches[side], indent=1) + "\n")
                value = last["metrics"].get("tasks_per_ref_s", {}).get("value")
                print(f"pair {pair} {SIDES[side]} {shas[side][:7]}: tasks_per_ref_s {value} "
                      f"peak_rss_mb {rss} failed {last['failed']}/{last['attempted']}",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_summary(*side_runs(benches, select), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
