"""Workload inputs, tasks and their checks.

Each ``build_<workload>(seed, work)`` generates its inputs from the seed and
returns the task list; run.py cycles through it. A task's ``run(ctx)``
is the timed call into the package (or one fresh ``qgeomcap`` process for
cli_cold) and ``check(result)`` is the untimed verification. References are
computed lazily, on first check, so they stay out of set-up and out of the
timed region.
"""

import csv
import functools
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import verify
from qgeomcap import capacity, channels, infogeo, states, superact, zeroerr

ROOT = Path(__file__).resolve().parents[1]
HSW_KINDS = ("bit_flip", "phase_flip", "bit_phase_flip", "depolarizing",
             "amplitude_damping", "dephasing")
BALL_EPS = 0.05
BALL_SIZES = (10, 100, 1000, 5000)
ORACLE_MAX_N = 100
CLI_BALL_POINTS = 50
CLI_ENTRY = "import sys; from qgeomcap.cli import main; sys.exit(main())"

# per-task wall caps (seconds); a task over its cap fails and the run goes on
WALL_CAP = {"hsw_zoo": 30.0, "balls": 60.0, "zeroerr_graphs": 30.0, "cli_cold": 60.0}


@dataclass
class Task:
    """run(ctx) is the timed call; check(result) returns a verify.Verdict;
    capacity marks tasks that count toward unconverged_frac."""

    name: str
    run: object
    check: object
    capacity: bool = False


# warm-up tasks are numbered from here; their answers are not checked
WARMUP_INSTANCE = 100_000


@dataclass
class Context:
    """Per-call state run.py passes to run(): instance number, whether
    this is the traced pass, and where CLI children write their spans."""

    instance: int
    traced: bool = False
    spans_dir: Path = None


# ---------------------------------------------------------------------------
# hsw_zoo


def build_hsw_zoo(seed, work):
    rng = np.random.default_rng(seed)
    tasks = []
    for kind in HSW_KINDS:
        drawn = sorted(round(float(p), 3) for p in rng.uniform(0.05, 0.95, 2))
        for p in [0.5] + drawn:
            ch = channels.build_channel(channels.ChannelSpec(kind, {"p": p}))
            tasks.append(_hsw_task(kind, p, ch))
    return tasks


def _hsw_task(kind, p, ch):
    @functools.cache
    def reference():
        if kind == "amplitude_damping":
            return verify.amplitude_damping_reference(ch.kraus, states.relative_entropy_bloch)
        return verify.unital_reference(ch.kraus)

    def check(res):
        return verify.check_hsw(res.value, res.converged, res.optimal_ensemble,
                                reference(),
                                lambda ens: capacity.channel_holevo(ch, ens))

    return Task(f"hsw {kind} p={p}", lambda ctx: capacity.hsw_capacity(ch), check,
                capacity=True)


# ---------------------------------------------------------------------------
# balls


def bloch_cloud(rng, n, kind):
    """n Bloch points: 'uniform' fills |r| <= 0.9, 'near_pure' has
    0.9 <= |r| <= 0.99."""
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    if kind == "uniform":
        r = 0.9 * rng.random(n) ** (1.0 / 3.0)
    else:
        r = rng.uniform(0.9, 0.99, n)
    return d * r[:, None]


def build_balls(seed, work):
    rng = np.random.default_rng(seed)
    g = infogeo.Generator("neg_von_neumann")
    tasks = []
    for n in BALL_SIZES:
        for kind in ("uniform", "near_pure"):
            pts = bloch_cloud(rng, n, kind)
            label = f"{kind} n={n}"
            if kind == "uniform" and n == 100:
                pset = infogeo.WeightedPointSet(points=pts,
                                                weights=rng.uniform(0.5, 2.0, n),
                                                radii=rng.uniform(0.0, 0.05, n))
                label += " weighted"
            else:
                pset = infogeo.WeightedPointSet(points=pts)
            tasks.extend(_ball_tasks(g, pset, label))
    return tasks


def _ball_tasks(g, pset, label):
    n = len(pset)
    pts, rad = pset.points, pset.radii
    seen = {}

    @functools.cache
    def oracle_ref():
        return infogeo.minimax_center_oracle(g, pset)[1]

    def answer(key, solve):
        # the first answer of a run will do (the solvers are deterministic)
        if key not in seen:
            seen[key] = solve()
        return seen[key]

    def run_basic(ctx):
        ball = infogeo.seb_basic(g, pset, BALL_EPS)
        seen.setdefault("basic", ball)
        return ball

    def run_improved(ctx):
        ball = infogeo.seb_improved(g, pset, BALL_EPS)
        seen.setdefault("improved", ball)
        return ball

    def check_basic(ball):
        if n <= ORACLE_MAX_N:
            return verify.check_basic(pts, rad, BALL_EPS, ball, ref=oracle_ref())
        improved = answer("improved", lambda: run_improved(None))
        return verify.check_basic(pts, rad, BALL_EPS, ball,
                                  improved_final=improved.history[-1])

    def check_improved(ball):
        ref = oracle_ref() if n <= ORACLE_MAX_N else None
        verdict = verify.check_improved(pts, rad, ball, ref=ref)
        if verdict.fail is None and ref is None:
            # no oracle at this size: the basic radius upper-bounds r*, so
            # every lower end of the bracket must stay below it
            upper = answer("basic", lambda: run_basic(None)).radius
            worst = max(r_lo for r_lo, _ in ball.history)
            if worst > upper + verify.BRACKET_TOL:
                return verify.failed(f"bracket lower end {worst:.6g} above the "
                                     f"basic radius {upper:.6g}")
        return verdict

    tasks = [Task(f"seb_basic {label}", run_basic, check_basic),
             Task(f"seb_improved {label}", run_improved, check_improved)]
    if n <= ORACLE_MAX_N:
        def check_oracle(res):
            return verify.check_oracle(pts, rad, res[0], res[1], oracle_ref())

        tasks.append(Task(f"oracle {label}",
                          lambda ctx: infogeo.minimax_center_oracle(g, pset),
                          check_oracle))
    return tasks


# ---------------------------------------------------------------------------
# zeroerr_graphs


def classical_channel(prob):
    """Channel with Kraus sqrt(P(out|in)) |out><in| for a column-stochastic P."""
    n_out, n_in = prob.shape
    ops = []
    for i in range(n_in):
        for o in range(n_out):
            if prob[o, i] > 0.0:
                op = np.zeros((n_out, n_in), dtype=complex)
                op[o, i] = np.sqrt(prob[o, i])
                ops.append(op)
    return channels.KrausChannel(ops, n_in, n_out)


def cyclic_channel(m, spread=2):
    """Input i goes to outputs i, ..., i + spread - 1 (mod m) uniformly."""
    prob = np.zeros((m, m))
    for i in range(m):
        for s in range(spread):
            prob[(i + s) % m, i] = 1.0 / spread
    return classical_channel(prob)


def random_channel(rng):
    """m in [5, 7] inputs, each reaching 2-3 of m outputs with random weights."""
    m = int(rng.integers(5, 8))
    prob = np.zeros((m, m))
    for i in range(m):
        outs = rng.choice(m, size=int(rng.integers(2, 4)), replace=False)
        prob[outs, i] = rng.dirichlet(np.ones(len(outs)))
    return classical_channel(prob)


def diagonal_inputs(m):
    return [np.diag(np.eye(m)[i]).astype(complex) for i in range(m)]


def build_zeroerr_graphs(seed, work):
    rng = np.random.default_rng(seed)
    tasks = [
        _mis_task("pentagon n=1", zeroerr.pentagon_channel(), zeroerr.pentagon_inputs(), 1),
        _mis_task("pentagon n=2", zeroerr.pentagon_channel(), zeroerr.pentagon_inputs(), 2),
        _mis_task("C7 n=2", cyclic_channel(7), diagonal_inputs(7), 2),
        _mis_task("C9 spread 3 n=2", cyclic_channel(9, 3), diagonal_inputs(9), 2),
        _mis_task("C4 n=3", cyclic_channel(4), diagonal_inputs(4), 3),
    ]
    for k in range(4):
        ch = random_channel(rng)
        tasks.append(_mis_task(f"random#{k} m={ch.in_dim} n=2", ch,
                               diagonal_inputs(ch.in_dim), 2))
    tasks.append(_build_task("build C5 n=4", cyclic_channel(5), diagonal_inputs(5), 4))
    tasks.append(_build_task("build C10 n=3", cyclic_channel(10), diagonal_inputs(10), 3))
    plus = states.pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
    minus = states.pure_state(np.array([1.0, -1.0]) / np.sqrt(2.0))
    tasks.append(_mis_task("bit_flip p=0.3 +/-", _qubit("bit_flip", 0.3), [plus, minus], 1))
    grid = [states.bloch_to_density(u * 0.999) for u in capacity.fibonacci_sphere(50)]
    for p in (0.1, 0.5, 0.9):
        tasks.append(_mis_task(f"depolarizing p={p} grid50", _qubit("depolarizing", p), grid, 1))
    return tasks


def _qubit(kind, p):
    return channels.build_channel(channels.ChannelSpec(kind, {"p": p}))


def _mis_task(name, ch, inputs, n_uses):
    @functools.cache
    def refs():
        adj = verify.adjacency(verify.overlap_table(ch.kraus, inputs), n_uses)
        return adj, verify.mis_size(adj)

    def check(res):
        adj, k_ref = refs()
        return verify.check_mis(adj, n_uses, res.K, res.rate_bits, res.witness, k_ref)

    return Task(f"zero_error_rate {name}",
                lambda ctx: zeroerr.zero_error_rate(ch, inputs, n_uses), check)


def _build_task(name, ch, inputs, n_uses):
    kept = []

    @functools.cache
    def ref_adj():
        return verify.adjacency(verify.overlap_table(ch.kraus, inputs), n_uses)

    def run(ctx):
        graph = zeroerr.build_confusability_graph(ch, inputs, n_uses)
        # the first checked instance keeps its edge set for an exact
        # comparison; later ones keep only the counts
        edge_set = None
        if not kept and ctx.instance < WARMUP_INSTANCE:
            kept.append(True)
            edge_set = graph.edges
        return graph.vertex_count, len(graph.edges), edge_set

    def check(res):
        vertices, edges, edge_set = res
        return verify.check_build(ref_adj(), vertices, edges, edge_set)

    return Task(name, run, check)


# ---------------------------------------------------------------------------
# cli_cold


@dataclass
class CliOutcome:
    returncode: int
    timed_out: bool
    maxrss_kb: int
    out: Path
    stdout: Path
    stderr: Path


def child_env():
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(cmd, stdout, stderr, cap):
    """Run one child process with a wall cap; returns (code, timed_out, maxrss_kb).

    The child is reaped with wait4 so its own peak RSS is known; on the cap
    it is killed and still reaped.
    """
    with open(stdout, "w") as fout, open(stderr, "w") as ferr:
        proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, env=child_env(), cwd=ROOT)
    deadline = time.monotonic() + cap
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                timed_out = True
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, timed_out, usage.ru_maxrss


def _write_channel(path, kind, p):
    path.write_text(f'kind = "{kind}"\np = {p!r}\n')


def _spawn(ctx, work, tag, argv, out, cap):
    """One fresh qgeomcap process (the traced bootstrap on the traced pass)."""
    stem = work / f"{ctx.instance:04d}_{tag}"
    if ctx.traced:
        cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"),
               str(ctx.spans_dir / f"{ctx.instance:04d}.jsonl.gz"), str(ctx.instance)]
    else:
        cmd = [sys.executable, "-c", CLI_ENTRY]
    stdout, stderr = stem.with_suffix(".stdout"), stem.with_suffix(".stderr")
    code, timed_out, rss = run_child(cmd + argv, stdout, stderr, cap)
    return CliOutcome(code, timed_out, rss, out, stdout, stderr)


def build_cli_cold(seed, work):
    rng = np.random.default_rng(seed)
    work.mkdir(parents=True, exist_ok=True)
    bit_flip = work / "bit_flip_0.1.channel"
    _write_channel(bit_flip, "bit_flip", 0.1)
    points = work / "points.csv"
    pts = bloch_cloud(rng, CLI_BALL_POINTS, "uniform")
    with open(points, "w", newline="") as fh:
        fh.write("# x,y,z Bloch points\n")
        csv.writer(fh).writerows([[repr(float(v)) for v in p] for p in pts])
    data = Path("data")
    dep, era = data / "depolarizing.channel", data / "erasure.channel"
    penta, penta_in = data / "pentagon.channel", data / "pentagon_inputs.csv"
    cap = WALL_CAP["cli_cold"]

    def cli(tag, args, check, is_capacity=False):
        suffix = ".csv" if tag.startswith("sweep") else ".json"

        def run(ctx):
            out = work / f"{ctx.instance:04d}_{tag}{suffix}"
            return _spawn(ctx, work, tag, list(args) + ["-o", str(out)], out, cap)

        return Task(f"cli {tag}", run, lambda outcome: _check_cli(outcome, check, is_capacity),
                    capacity=is_capacity)

    ball_ref = functools.cache(lambda algo: _ball_ref(pts, algo))
    tasks = [
        cli("holevo_depolarizing", ["capacity", str(dep), "--mode", "holevo"],
            functools.partial(_check_holevo, dep), is_capacity=True),
        cli("holevo_bit_flip_0.1", ["capacity", str(bit_flip), "--mode", "holevo"],
            functools.partial(_check_holevo, bit_flip), is_capacity=True),
        cli("quantum_erasure", ["capacity", str(era), "--mode", "quantum"],
            functools.partial(_check_quantum, era), is_capacity=True),
        cli("private_erasure", ["capacity", str(era), "--mode", "private"],
            functools.partial(_check_private, era), is_capacity=True),
        cli("sweep_1000", ["sweep", "--steps", "1000"], functools.partial(_check_sweep, 1000)),
        cli("sweep_10000", ["sweep", "--steps", "10000"], functools.partial(_check_sweep, 10000)),
        cli("zeroerr_1", ["zeroerr", str(penta), str(penta_in), "--uses", "1"],
            functools.partial(_check_zeroerr, penta, penta_in, 1)),
        cli("zeroerr_2", ["zeroerr", str(penta), str(penta_in), "--uses", "2"],
            functools.partial(_check_zeroerr, penta, penta_in, 2)),
    ]
    for algo in ("basic", "improved", "oracle"):
        tasks.append(cli(f"ball_{algo}", ["ball", str(points), "--algorithm", algo],
                         functools.partial(_check_ball, pts, algo, ball_ref)))

    # validate re-reads the quantum report written earlier in the same cycle
    back = len(tasks) - 2

    def validate(ctx):
        report = work / f"{ctx.instance - back:04d}_quantum_erasure.json"
        return _spawn(ctx, work, "validate", ["validate", str(report)], report, cap)

    tasks.append(Task("cli validate", validate,
                      lambda outcome: _check_cli(outcome, _check_validate, False)))
    return tasks


def _check_cli(outcome, check, is_capacity):
    """Exit-code and traceback rules, then the subcommand's own check."""
    err = outcome.stderr.read_text()
    if "Traceback" in err:
        return verify.failed(f"traceback: {err.strip().splitlines()[-1]}")
    code = outcome.returncode
    if code not in (0, 2) or (code == 2 and not is_capacity):
        return verify.failed(f"exit {code}: {err.strip()[:200]}")
    verdict = check(outcome)
    if code == 2:
        verdict.unconverged = True
    return verdict


def _report(outcome):
    try:
        return verify.load_report(outcome.out), None
    except (OSError, ValueError) as exc:
        return None, verify.failed(f"invalid report: {exc}")


@functools.cache
def _spec_channel(path):
    return channels.build_channel(channels.parse_channel_spec(Path(path).read_text()))


def _check_holevo(spec, outcome):
    data, bad = _report(outcome)
    if bad:
        return bad
    if data.get("converged") != (outcome.returncode == 0):
        return verify.failed(f"converged={data.get('converged')} with exit {outcome.returncode}")
    ch = _spec_channel(str(spec))
    ensemble = [(e["weight"], verify.pairs_to_matrix(e["state"]))
                for e in data["optimal_ensemble"]]
    return verify.check_hsw(data["value"], data["converged"], ensemble,
                            _unital(str(spec)),
                            lambda ens: capacity.channel_holevo(ch, ens))


@functools.cache
def _unital(spec):
    return verify.unital_reference(_spec_channel(spec).kraus)


@functools.cache
def _quantum_ref(spec):
    ch = _spec_channel(spec)
    res = capacity.quantum_capacity_single_use(ch, capacity.qubit_candidate_states())
    return ch, res


def _check_quantum(spec, outcome):
    data, bad = _report(outcome)
    if bad:
        return bad
    _, ref = _quantum_ref(str(spec))
    want = {"value": ref.value, "r_AB": ref.ball_pair.r_AB, "r_AE": ref.ball_pair.r_AE,
            "r_coh": ref.ball_pair.r_coh}
    for key, val in want.items():
        if abs(data[key] - val) > verify.MATCH_TOL:
            return verify.failed(f"{key} {data[key]!r}, in-process {val!r}")
    return verify.Verdict()


def _check_private(spec, outcome):
    data, bad = _report(outcome)
    if bad:
        return bad
    ch, ref = _quantum_ref(str(spec))
    want = capacity.private_info(ch, ref.optimal_ensemble)
    if abs(data["value"] - want) > verify.MATCH_TOL:
        return verify.failed(f"private value {data['value']!r}, in-process {want!r}")
    return verify.Verdict()


@functools.cache
def _sweep_ref(steps):
    return superact.sweep(np.linspace(0.0, 0.1, steps), superact.ReferenceModel()).rows


def _check_sweep(steps, outcome):
    try:
        rows = verify.read_sweep_csv(outcome.out)
    except (OSError, ValueError) as exc:
        return verify.failed(f"unreadable sweep: {exc}")
    return verify.check_sweep_rows(rows, _sweep_ref(steps))


@functools.cache
def _zeroerr_ref(spec, inputs, n_uses):
    rows = [[float(v) for v in line.split(",")]
            for line in Path(inputs).read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    states_in = [np.diag(r).astype(complex) for r in rows]
    adj = verify.adjacency(verify.overlap_table(_spec_channel(spec).kraus, states_in), n_uses)
    return adj, verify.mis_size(adj)


def _check_zeroerr(spec, inputs, n_uses, outcome):
    data, bad = _report(outcome)
    if bad:
        return bad
    adj, k_ref = _zeroerr_ref(str(spec), str(inputs), n_uses)
    return verify.check_mis(adj, n_uses, data["K"], data["rate_bits"], data["witness"], k_ref)


_CLI_SEED = 42  # the CLI's default --seed, used by basic and improved


def _ball_ref(pts, algo):
    g = infogeo.Generator("neg_von_neumann")
    pset = infogeo.WeightedPointSet(points=pts)
    if algo == "basic":
        ball = infogeo.seb_basic(g, pset, BALL_EPS, seed=_CLI_SEED)
        return ball.center, ball.radius
    if algo == "improved":
        ball = infogeo.seb_improved(g, pset, BALL_EPS, seed=_CLI_SEED)
        return ball.center, ball.radius
    return infogeo.minimax_center_oracle(g, pset)


def _check_ball(pts, algo, ball_ref, outcome):
    data, bad = _report(outcome)
    if bad:
        return bad
    zeros = np.zeros(len(pts))
    why = verify.check_radius(pts, zeros, np.asarray(data["center"]), data["radius"])
    if why:
        return verify.failed(why)
    center, radius = ball_ref(algo)
    if abs(data["radius"] - radius) > verify.MATCH_TOL or \
            np.abs(np.asarray(data["center"]) - center).max() > verify.MATCH_TOL:
        return verify.failed(f"{algo} ball radius {data['radius']!r}, in-process {radius!r}")
    if data["n_points"] != len(pts):
        return verify.failed(f"n_points {data['n_points']} != {len(pts)}")
    return verify.Verdict()


def _check_validate(outcome):
    out = outcome.stdout.read_text()
    if not out.startswith("ok: valid capacity report"):
        return verify.failed(f"validate printed {out.strip()[:120]!r}")
    return verify.Verdict()


BUILDERS = {
    "hsw_zoo": build_hsw_zoo,
    "balls": build_balls,
    "zeroerr_graphs": build_zeroerr_graphs,
    "cli_cold": build_cli_cold,
}
