"""qgeomcap benchmark: time to a verified answer, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hsw_zoo --seed 1 --seconds 25 --trace 0

Workloads: hsw_zoo, balls, zeroerr_graphs, cli_cold (see workloads.py).

--trace 0 measures set-up (the median of fresh processes that import
qgeomcap and build the inputs), warms up for WARMUP_S, then cycles through
the workload's tasks for --seconds in one single-threaded process (cli_cold
starts one fresh ``qgeomcap`` process per task), then checks every answer
outside the timed region. The bounded metrics setup_s and tasks_per_ref_s
are rescaled to a reference machine speed (calibrate.py); their raw
wall-clock values are in the report. --trace 1 warms up, runs one pass of
the task list without spans, then one traced pass, and reports the
per-layer metrics of the traced pass. The benchmark process and its children are
pinned to one CPU.

Stdout carries a full report (all eight end-to-end metrics with their sample
counts, failures and provenance) and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics. ``failed`` counts tasks
that raised, hit the wall cap, exited 1 or 3 or with a traceback, or failed
a check; ``correct`` is false when a failed task's answer is wrong. An
answer that is correct but short of the precision target (see verify.py) is
a miss: it counts in the report's fail_frac and failure list, not in
``failed``. Spans of the traced pass are written as JSON lines under
.bench_work/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# single-threaded BLAS, set before numpy is first imported; the package is
# imported from the checkout's src/ (so this fails where src/ is missing)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, REPORTED  # noqa: E402

SETUP_REPEATS = 7
SETUP_TIMEOUT = 60.0
IMPORT_PROBES = 3
# untimed tasks before the window, so one-time lazy imports (scipy.optimize
# on the first polish) and a cold CPU do not land in the first timed task
WARMUP_S = 1.0
P90_MIN_SAMPLES = 100


class WallCap(Exception):
    """A task ran past the benchmark's per-task wall cap."""


def _on_alarm(signum, frame):
    raise WallCap()


@dataclass
class Sample:
    task: int
    seconds: float
    result: object = None
    error: str = None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: build the inputs, print 'ready' and exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def measure_setup(args):
    """Wall time from spawning a fresh process until its inputs are ready.

    Returns the median over SETUP_REPEATS probes of the time rescaled to the
    reference speed (calibration loops before and after each probe), and
    the raw wall times.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    raw, marks = [], [(0, calibrate.loop_seconds())]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=workloads.child_env(),
                                cwd=ROOT)
        line = b""
        try:
            ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT)
            line = proc.stdout.readline() if ready else b""
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            if line != b"ready\n":
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if line != b"ready\n":
            raise RuntimeError(f"set-up probe did not become ready (exit {proc.returncode})")
        raw.append(elapsed)
        marks.append((len(raw), calibrate.loop_seconds()))
    factors = calibrate.speed_factors(len(raw), marks)
    return statistics.median(t * f for t, f in zip(raw, factors)), raw


# ---------------------------------------------------------------------------
# running tasks


def run_task(task, index, ctx, cap, in_process, recorder=None):
    if recorder is not None:
        recorder.task_id = ctx.instance
    t0 = time.perf_counter()
    result, error = None, None
    try:
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            result = task.run(ctx)
        finally:
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        if getattr(result, "timed_out", False):  # a CLI child killed at the cap
            raise WallCap()
    except WallCap:
        result, error = None, "wall cap"
    except Exception as exc:  # a task that raises is a failed task; the run goes on
        error = f"raised {type(exc).__name__}: {exc}"
    return Sample(index, time.perf_counter() - t0, result, error)


def warm_up(tasks, cap, in_process):
    """Run tasks untimed for WARMUP_S (at least one task)."""
    deadline = time.perf_counter() + WARMUP_S
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        run_task(tasks[i % len(tasks)], i % len(tasks),
                 workloads.Context(workloads.WARMUP_INSTANCE + i), cap, in_process)
        i += 1


def timed_run(tasks, seconds, cap, in_process, context, recorder=None):
    """Cycle through the tasks, closed loop, until the window ends and every
    task has run at least once (seconds=0 gives exactly one pass).

    The calibration loop runs before the first task, between tasks at most
    calibrate.EVERY_S apart, and after the last; returns the samples and
    each sample's speed factor.
    """
    samples = []
    marks = [(0, calibrate.loop_seconds())]
    deadline = time.perf_counter() + seconds
    last = time.perf_counter()
    while time.perf_counter() < deadline or len(samples) < len(tasks):
        i = len(samples)
        samples.append(run_task(tasks[i % len(tasks)], i % len(tasks), context(i), cap,
                                in_process, recorder))
        if time.perf_counter() - last >= calibrate.EVERY_S:
            marks.append((len(samples), calibrate.loop_seconds()))
            last = time.perf_counter()
    if marks[-1][0] != len(samples):
        marks.append((len(samples), calibrate.loop_seconds()))
    return samples, calibrate.speed_factors(len(samples), marks)


def check_samples(tasks, samples):
    verdicts = []
    for s in samples:
        if s.error is not None:
            verdicts.append(verify.failed(s.error, wrong=s.error != "wall cap"))
            continue
        try:
            verdicts.append(tasks[s.task].check(s.result))
        except Exception as exc:  # a malformed answer must fail, not stop the run
            verdicts.append(verify.failed(f"check raised {type(exc).__name__}: {exc}"))
    return verdicts


def quality(tasks, samples, verdicts):
    capacity = [v for s, v in zip(samples, verdicts) if tasks[s.task].capacity]
    gaps = [v.witness_gap for v in verdicts if v.witness_gap is not None]
    return {
        "attempted": len(samples),
        "failed": sum(v.fail is not None for v in verdicts),
        "missed": sum(v.fail is None and v.miss is not None for v in verdicts),
        "wrong": sum(v.wrong for v in verdicts),
        "capacity_tasks": len(capacity),
        "unconverged": sum(v.unconverged for v in capacity),
        "hsw_tasks": len(gaps),
        "witness_gap_bits": max(gaps) if gaps else None,
    }


def failures(tasks, samples, verdicts):
    out = {}
    for s, v in zip(samples, verdicts):
        if v.fail is None and v.miss is None:
            continue
        name = tasks[s.task].name
        entry = out.setdefault(name, {"task": name, "count": 0, "reason": v.fail or v.miss,
                                      "failed": v.fail is not None, "wrong": v.wrong})
        entry["count"] += 1
    return list(out.values())


# ---------------------------------------------------------------------------
# provenance


def git_commit():
    """Commit of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed):
    import numpy
    import scipy

    import qgeomcap

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qgeomcap").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": qgeomcap.BACKEND,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def percentile_ms(values, q):
    return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(workload, samples):
    """Peak RSS of the workload process, or for cli_cold the largest peak
    among its qgeomcap children (each reaped with its own rusage)."""
    if workload == "cli_cold":
        return max((s.result.maxrss_kb for s in samples if s.error is None),
                   default=0) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tasks, setup, samples, factors, verdicts, rss_mb):
    setup_s, probe_times = setup
    durations = [s.seconds for s in samples]
    busy = sum(durations)
    # one pass of the task list, each task at its median rescaled time: a
    # window that ends inside a cycle then does not tilt the task mix
    per_task = {}
    for s, f in zip(samples, factors):
        per_task.setdefault(s.task, []).append(s.seconds * f)
    cycle_ref_s = sum(statistics.median(v) for v in per_task.values())
    completed = sum(s.error is None for s in samples)
    q = quality(tasks, samples, verdicts)
    n = len(durations)
    e2e = {
        "setup_s": {"value": setup_s, "samples": len(probe_times),
                    "wall_median_s": statistics.median(probe_times), "wall_s": probe_times},
        "tasks_per_s": {"value": completed / busy, "completed": completed, "busy_s": busy},
        "tasks_per_ref_s": {"value": len(tasks) / cycle_ref_s, "cycle_ref_s": cycle_ref_s,
                            "speed_factor_median": statistics.median(factors)},
        "task_p50_ms": {"value": 1000.0 * statistics.median(durations), "samples": n},
        "task_p90_ms": {"value": percentile_ms(durations, 90) if n >= P90_MIN_SAMPLES else None,
                        "samples": n,
                        "note": f"reported only with >= {P90_MIN_SAMPLES} samples"},
        "fail_frac": {"value": (q["failed"] + q["missed"]) / q["attempted"],
                      "failed": q["failed"], "missed_target": q["missed"],
                      "attempted": q["attempted"]},
        "unconverged_frac": {"value": (q["unconverged"] / q["capacity_tasks"]
                                       if q["capacity_tasks"] else None),
                             "capacity_tasks": q["capacity_tasks"]},
        "witness_gap_bits": {"value": q["witness_gap_bits"], "hsw_tasks": q["hsw_tasks"]},
        "peak_rss_mb": {"value": rss_mb},
    }
    task_ms = {tasks[i].name: round(1000.0 * statistics.median(v), 3)
               for i, v in sorted(per_task.items())}
    for name, unit in REPORTED.items():
        e2e[name]["unit"] = unit
    return e2e, q, task_ms


def run_timed(args, tasks):
    setup = measure_setup(args)
    cap = workloads.WALL_CAP[args.workload]
    in_process = args.workload != "cli_cold"
    warm_up(tasks, cap, in_process)
    samples, factors = timed_run(tasks, args.seconds, cap, in_process, workloads.Context)
    rss_mb = peak_rss_mb(args.workload, samples)  # before any reference is computed
    verdicts = check_samples(tasks, samples)
    e2e, q, task_ms = end_to_end(tasks, setup, samples, factors, verdicts, rss_mb)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": 0, "tasks_per_cycle": len(tasks), "end_to_end": e2e,
              "task_ref_ms": task_ms,
              "failures": failures(tasks, samples, verdicts),
              "provenance": provenance(args.seed)}
    last = {"correct": q["wrong"] == 0, "attempted": q["attempted"], "failed": q["failed"],
            "metrics": {k: {"value": e2e[k]["value"], "unit": u}
                        for k, u in END_TO_END.items()}}
    return report, last


def merged_child_spans(spans_dir):
    """Span arrays, counters and import times of the traced CLI children."""
    names, ids = [], {}
    name, start, end, parent = [], [], [], []
    counters, import_s = {}, []
    for path in sorted(spans_dir.glob("*.jsonl.gz")):
        header, rows = spans.read_jsonl(path)
        import_s.append(header["import_s"])
        for key, val in header["counters"].items():
            counters[key] = counters.get(key, 0) + val
        offset = len(start)
        for row in rows:
            if row["name"] not in ids:
                ids[row["name"]] = len(names)
                names.append(row["name"])
            name.append(ids[row["name"]])
            start.append(row["start"])
            end.append(row["end"])
            parent.append(row["parent"] + offset if row["parent"] >= 0 else -1)
    return names, name, start, end, parent, counters, import_s


def import_seconds():
    """Times of `import qgeomcap` in IMPORT_PROBES fresh processes."""
    code = ("import time; t0 = time.perf_counter(); import qgeomcap; "
            "print(time.perf_counter() - t0)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=workloads.child_env(), cwd=ROOT, timeout=SETUP_TIMEOUT,
                             check=True)
        times.append(float(out.stdout))
    return times


def run_traced(args, tasks, work):
    cap = workloads.WALL_CAP[args.workload]
    in_process = args.workload != "cli_cold"
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    warm_up(tasks, cap, in_process)
    t0 = time.perf_counter()
    plain, _ = timed_run(tasks, 0, cap, in_process, workloads.Context)
    wall_plain = time.perf_counter() - t0
    rec = spans.Recorder()
    metrics.install(rec)
    t0 = time.perf_counter()
    try:
        traced, _ = timed_run(
            tasks, 0, cap, in_process,
            lambda i: workloads.Context(len(tasks) + i, traced=True, spans_dir=spans_dir), rec)
    finally:
        rec.restore()
    wall_traced = time.perf_counter() - t0
    if in_process:
        rec.write_jsonl(work / "spans.jsonl.gz")
        arrays = (rec.names, rec.name, rec.start, rec.end, rec.parent, rec.counters,
                  import_seconds())
    else:
        arrays = merged_child_spans(spans_dir)
    traced_verdicts = check_samples(tasks, traced)
    verdicts = check_samples(tasks, plain) + traced_verdicts
    q_traced = quality(tasks, traced, traced_verdicts)
    q = quality(tasks, plain + traced, verdicts)
    values = metrics.layer_metrics(*arrays, overhead_frac=wall_traced / wall_plain - 1.0,
                                   quality={
        "verify.fail_frac": (q_traced["failed"] + q_traced["missed"]) / q_traced["attempted"],
        "verify.unconverged_frac": (q_traced["unconverged"] / q_traced["capacity_tasks"]
                                    if q_traced["capacity_tasks"] else 0.0),
        "verify.witness_gap_bits": q_traced["witness_gap_bits"] or 0.0,
    })
    per_layer = {k: {"value": v, "unit": metrics.PER_LAYER[k]} for k, v in values.items()}
    report = {"workload": args.workload, "seed": args.seed, "trace": 1,
              "tasks_per_cycle": len(tasks), "untraced_pass_s": wall_plain,
              "traced_pass_s": wall_traced, "per_layer": per_layer,
              "failures": failures(tasks, plain + traced, verdicts),
              "provenance": provenance(args.seed)}
    last = {"correct": q["wrong"] == 0, "attempted": q["attempted"], "failed": q["failed"],
            "metrics": per_layer}
    return report, last


def main(argv=None):
    args = parse_args(argv)
    # one CPU for this process, its calibration loop and every child process,
    # so the loop measures the speed of the CPU the tasks run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".bench_work" / args.workload
    if args.setup_probe:
        workloads.BUILDERS[args.workload](args.seed, work / "probe")
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tasks = workloads.BUILDERS[args.workload](args.seed, work)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        report, last = run_traced(args, tasks, work)
    else:
        report, last = run_timed(args, tasks)
    print(json.dumps(report, indent=1))
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
