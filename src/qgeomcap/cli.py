"""Command-line front end.

Subcommands: capacity, sweep, zeroerr, ball, validate. ball, the one
randomized command, takes --seed (default 42). Every command produces
byte-identical output for identical inputs and flags. Reports are JSON
with sorted keys and a provenance block; sweeps are CSV with
'#'-prefixed provenance comments.

Exit codes: 0 ok, 1 input or usage error, 2 bracket not closed to tolerance,
3 resource cap.

Each command imports the solver modules it runs inside its own function
and calls them through the module (``capacity.hsw_capacity``), so a
process loads only what its subcommand needs and a wrapper placed on a
module attribute sees every call.
"""

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import ResourceCapError
from .kernels import BACKEND

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_RESOURCE_CAP = 3

DEFAULT_SEED = 42
BALL_ALGORITHMS = ("basic", "improved", "oracle")
CAPACITY_MODES = ("holevo", "quantum", "private")
# grid points of sweep --steps beyond which it refuses to build the grid
MAX_SWEEP_STEPS = 1_000_000


def _provenance(args, flags):
    return {
        "tool": "qgeomcap",
        "version": __version__,
        "backend": BACKEND,
        "numpy": np.__version__,
        "seed": getattr(args, "seed", None),
        "flags": flags,
    }


def _dump(report, path):
    _write(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n", path)


def _write(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_channel(path):
    from . import channels

    with open(path) as fh:
        return channels.parse_channel_spec(fh.read())


def _numeric_rows(path):
    """(where, values) for each data row of a numeric CSV file.

    Blank rows and rows starting with '#' are skipped, and the first other
    row may be a header. Any later row that does not parse, or that holds a
    non-finite value, raises ValueError naming the file and the line.
    """
    with open(path) as fh:
        reader = csv.reader(fh)
        header_allowed = True
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            where = f"{path}, line {reader.line_num}"
            try:
                vals = [float(v) for v in row]
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                raise ValueError(f"{where}: not a row of numbers: {','.join(row)!r}") from None
            header_allowed = False
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{where}: values must be finite")
            yield where, vals


def _check_bloch(where, r):
    """states.check_bloch on one row, its message prefixed with where."""
    from . import states

    try:
        states.check_bloch(r)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _read_points_csv(path):
    """Points CSV with rows x,y,z[,w[,r]]; returns (points, radii).

    Every point needs 3 columns and must lie in the Bloch ball,
    |(x, y, z)| <= 1 + states.BLOCH_RADIUS_TOL; a weight w or ball radius r
    must be nonnegative. No solver reads the weights, so they are checked
    and dropped.
    """
    pts, rads = [], []
    for where, vals in _numeric_rows(path):
        if len(vals) < 3:
            raise ValueError(f"{where}: points need at least 3 columns, got {len(vals)}")
        _check_bloch(where, vals[:3])
        for name, v in zip(("weight", "ball radius"), vals[3:5]):
            if v < 0.0:
                raise ValueError(f"{where}: {name} must be nonnegative, got {v:g}")
        pts.append(vals[:3])
        rads.append(vals[4] if len(vals) > 4 else 0.0)
    if not pts:
        raise ValueError(f"no points parsed from {path}")
    return np.array(pts), np.array(rads)


def _read_inputs_csv(path):
    """Input states CSV: 3 columns = Bloch vectors, d columns = diagonal
    states of dimension d.

    A Bloch row must lie in the unit ball, |r| <= 1 + states.BLOCH_RADIUS_TOL;
    a diagonal row must be a probability vector, with no negative entry and
    a sum within zeroerr.TRACE_TOL = 1e-9 of 1. The row that would take the
    dense states past channels.MAX_STACK_BYTES raises ResourceCapError.
    """
    from . import channels, states, zeroerr

    rows = []
    for where, vals in _numeric_rows(path):
        if rows and len(vals) != len(rows[0]):
            raise ValueError(f"{where}: {len(vals)} columns, the first row has {len(rows[0])}")
        if len(vals) == 3:
            _check_bloch(where, vals)
        elif min(vals) < 0.0:
            raise ValueError(f"{where}: diagonal state with a negative entry")
        elif abs(math.fsum(vals) - 1.0) > zeroerr.TRACE_TOL:
            raise ValueError(f"{where}: diagonal state sums to {math.fsum(vals):.12g}, not 1")
        rows.append(vals)
        channels.check_stack_bytes(len(rows), 2 if len(vals) == 3 else len(vals), where)
    if not rows:
        raise ValueError(f"no states parsed from {path}")
    if len(rows[0]) == 3:
        return states.bloch_to_density(rows)
    return [np.diag(np.asarray(r, dtype=float)).astype(complex) for r in rows]


def cmd_capacity(args):
    from . import capacity, channels

    spec = _read_channel(args.channel_file)
    flags = {"mode": args.mode}
    if args.mode == "private" and spec.kind == "declared_capacity":
        value = capacity.private_info(spec)
        report = {
            "type": "capacity",
            "mode": args.mode,
            "value": value,
            "converged": True,
            "iterations": 0,
            "declared": True,
            "provenance": _provenance(args, flags),
        }
        _dump(report, args.output)
        return EXIT_OK
    ch = channels.build_channel(spec)
    if args.mode != "holevo" and ch.in_dim != 2:
        raise ValueError(f"--mode {args.mode} takes qubit-input channels only; "
                         f"this channel's input dimension is {ch.in_dim}")
    if args.mode == "holevo" and (ch.in_dim, ch.out_dim) != (2, 2):
        raise ValueError(f"--mode holevo takes qubit-to-qubit channels only; this channel's "
                         f"input dimension is {ch.in_dim} and output dimension is {ch.out_dim}")
    if args.mode == "holevo":
        res = capacity.hsw_capacity(ch)
        ensemble = [
            {"weight": p, "state": channels.matrix_to_pairs(s)}
            for p, s in res.optimal_ensemble
        ]
        extra = {"optimal_ensemble": ensemble,
                 "center": channels.matrix_to_pairs(res.center),
                 "bracket": [float(v) for v in res.bracket]}
    else:
        res = capacity.quantum_capacity_single_use(ch, capacity.qubit_candidate_states())
        pair = res.ball_pair
        if args.mode == "quantum":
            extra = {"r_AB": pair.r_AB, "r_AE": pair.r_AE, "r_coh": pair.r_coh}
        else:
            # X_AB - X_AE of the maximizer's eigen-ensemble, unclamped
            extra = {"value": pair.r_coh,
                     "note": "single-ensemble private information at the "
                             "coherent-information maximizer"}
    report = {
        "type": "capacity",
        "mode": args.mode,
        "value": res.value,
        "radius": res.radius,
        "iterations": res.iterations,
        "converged": bool(res.converged),
        "provenance": _provenance(args, flags),
    }
    report.update(extra)
    _dump(report, args.output)
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def cmd_sweep(args):
    if not 0.0 <= args.pc_min < args.pc_max <= 1.0:
        raise ValueError("need 0 <= pc-min < pc-max <= 1")
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if args.steps > MAX_SWEEP_STEPS:
        raise ResourceCapError(f"--steps {args.steps} exceeds the cap of {MAX_SWEEP_STEPS}")
    from . import superact

    if args.model:
        with open(args.model) as fh:
            text = fh.read()
        try:
            model = superact.parse_model_file(text)
        except ValueError as exc:
            raise ValueError(f"{args.model}: {exc}") from None
    else:
        model = superact.ReferenceModel()
    grid = np.linspace(args.pc_min, args.pc_max, args.steps)
    result = superact.sweep(grid, model)
    prov = _provenance(args, {"pc_min": args.pc_min, "pc_max": args.pc_max,
                              "steps": args.steps})
    lines = "".join(f"# {k} = {v}\n" for k, v in sorted(prov.items()))
    _write(lines + result.to_csv(), args.output)
    return EXIT_OK


def cmd_zeroerr(args):
    from . import channels, zeroerr

    spec = _read_channel(args.channel_file)
    # read first: an input file over the byte cap exits before a large
    # channel is built
    inputs = _read_inputs_csv(args.inputs_file)
    ch = channels.build_channel(spec)
    graph = zeroerr.build_confusability_graph(ch, inputs, args.uses)
    res = zeroerr.solve_zero_error(graph, args.uses, epr_normalized=args.epr)
    report = {
        "type": "zeroerr",
        "K": res.K,
        "rate_bits": res.rate_bits,
        "witness": list(res.witness),
        "n_uses": res.n_uses,
        "normalized": res.epr_normalized,
        "note": "lower bound over the supplied input states only",
        "provenance": _provenance(args, {"uses": args.uses, "epr": args.epr}),
    }
    _dump(report, args.output)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.writelines(graph.dot_lines())
    return EXIT_OK


def cmd_ball(args):
    if not 0.0 < args.eps < 1.0:
        raise ValueError(f"--eps must lie in (0, 1), got {args.eps}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    from . import infogeo

    pts, rads = _read_points_csv(args.points_csv)
    pset = infogeo.WeightedPointSet(points=pts, radii=rads)
    g = infogeo.Generator("neg_von_neumann")
    if args.algorithm == "basic":
        ball = infogeo.seb_basic(g, pset, args.eps, seed=args.seed)
        # the basic solver certifies no lower end
        center, radius, bracket = ball.center, ball.radius, None
    else:
        res = infogeo.minimax_ball(g, pset)
        center, radius, bracket = res.center, res.upper, [res.lower, res.upper]
    report = {
        "type": "ball",
        "algorithm": args.algorithm,
        "center": [float(v) for v in center],
        "radius": float(radius),
        "n_points": int(pts.shape[0]),
        "provenance": _provenance(args, {"algorithm": args.algorithm,
                                         "eps": args.eps}),
    }
    if bracket is not None:
        report["bracket"] = [float(v) for v in bracket]
    _dump(report, args.output)
    return EXIT_OK


def _reject_constant(name):
    """json's parse_constant: NaN, Infinity and -Infinity are not JSON
    numbers, and the reports this tool writes never hold them."""
    raise ValueError(f"report holds {name}, which is not a JSON number")


def _finite_float(text):
    """json's parse_float: a literal such as 1e999 would read as infinity."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"report holds {text}, which overflows a double")
    return value


def _finite_number(v):
    # NaN, the infinities and an int too large for a double, such as 10**400, fail
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _provenance_fault(prov, report):
    """None on a JSON object holding tool, version and flags, else the message."""
    if not isinstance(prov, dict):
        return f"provenance must be a JSON object, got {type(prov).__name__}"
    missing = [key for key in ("tool", "version", "flags") if key not in prov]
    return f"provenance missing {missing[0]!r}" if missing else None


def _bracket_fault(bracket, value):
    """None on two finite numbers lower <= value <= upper, to 1e-12; else the message."""
    if not (isinstance(bracket, list) and len(bracket) == 2
            and all(_finite_number(v) for v in bracket)):
        return f"bracket must be two finite numbers, got {bracket!r}"
    lower, upper = bracket
    if not (_finite_number(value) and lower - 1e-12 <= value <= upper + 1e-12):
        return f"value {value!r} outside its bracket [{lower!r}, {upper!r}]"
    return None


def _zeroerr_rate(report):
    """log2(K) / n_uses, halved when normalized, and 0 at K = 0."""
    # 1 / n_uses: an int too large for a float divides to 0.0 without overflow
    rate = math.log2(report["K"]) * (1 / report["n_uses"]) if report["K"] else 0.0
    return 0.5 * rate if report["normalized"] else rate


def _must(key, required, rule, what):
    """The row of key with the plain message; rule(value, report) holds on a good value."""
    return key, required, lambda v, d: None if rule(v, d) else f"{key!r} must be {what}, got {v!r}"


# The report contract: for each report type, its keys in check order as
# (key, required, fault), provenance first. fault(value, report) is None on a
# good value, else the message, and reads only keys of earlier rows. A JSON
# bool is not a number, and type(v) is int is false on it.
_RULES = {k: (("provenance", True, _provenance_fault), *r) for k, r in {
    "ball": (
        _must("center", True, lambda v, d: isinstance(v, list) and len(v) == 3
              and all(_finite_number(x) for x in v), "3 finite numbers"),
        _must("algorithm", True, lambda v, d: v in BALL_ALGORITHMS,
              f"one of {'|'.join(BALL_ALGORITHMS)}"),
        _must("radius", True, lambda v, d: _finite_number(v) and v >= 0, "a finite number >= 0"),
        _must("n_points", True, lambda v, d: type(v) is int and v >= 1, "a positive int"),
        ("bracket", False, lambda v, d: _bracket_fault(v, d["radius"])),
    ),
    "capacity": (
        _must("mode", True, lambda v, d: v in CAPACITY_MODES, f"one of {'|'.join(CAPACITY_MODES)}"),
        *(_must(key, key == "value", lambda v, d: _finite_number(v), "a finite number")
          for key in ("value", "radius", "r_AB", "r_AE", "r_coh")),
        *(_must(key, key == "converged", lambda v, d: isinstance(v, bool), "true or false")
          for key in ("converged", "declared")),
        _must("iterations", False, lambda v, d: type(v) is int and v >= 0, "an int >= 0"),
        ("bracket", False, lambda v, d: _bracket_fault(v, d["value"])),
    ),
    "zeroerr": (
        _must("witness", True, lambda v, d: isinstance(v, list)
              and all(type(x) is int and x >= 0 for x in v) and len(set(v)) == len(v),
              "a list of distinct ints >= 0"),
        ("K", True, lambda v, d: None if type(v) is int and v == len(d["witness"]) else
         f"'K' must be an int >= 0 equal to the witness size {len(d['witness'])}, got {v!r}"),
        _must("n_uses", True, lambda v, d: type(v) is int and v >= 1, "an int >= 1"),
        _must("normalized", True, lambda v, d: isinstance(v, bool), "true or false"),
        ("rate_bits", True, lambda v, d: None if _finite_number(v)
         and abs(v - _zeroerr_rate(d)) <= 1e-12 else "'rate_bits' must be log2(K) / n_uses"
         f"{' / 2' if d['normalized'] else ''} = {_zeroerr_rate(d)!r}, got {v!r}"),
        _must("bracket", False, lambda v, d: False, "left out of a zeroerr report"),
    ),
}.items()}


def cmd_validate(args):
    with open(args.report) as fh:
        try:
            data = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
        except RecursionError:
            raise ValueError("report nests deeper than the JSON reader can go") from None
    if not isinstance(data, dict):
        raise ValueError(f"report must be a JSON object, got a top-level {type(data).__name__}")
    kind = data.get("type")
    # a JSON array or object as the type is unhashable
    if not (isinstance(kind, str) and kind in _RULES):
        raise ValueError(f"unknown or missing report type {kind!r}")
    missing = sorted(key for key, required, _ in _RULES[kind] if required and key not in data)
    if missing:
        raise ValueError(f"report missing keys: {missing}")
    for key, _, fault in _RULES[kind]:
        message = key in data and fault(data[key], data)
        if message:
            raise ValueError(message)
    sys.stdout.write(f"ok: valid {kind} report\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with EXIT_INPUT: argparse's
    own status 2 would read as EXIT_NO_CONVERGENCE."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    p = _Parser(
        prog="qgeomcap",
        description="Information-geometric quantum channel capacity toolkit",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("capacity", help="channel capacity estimates")
    c.add_argument("channel_file")
    c.add_argument("--mode", choices=CAPACITY_MODES, default="holevo")
    c.add_argument("--output", "-o", default=None)
    c.set_defaults(func=cmd_capacity)

    s = sub.add_parser("sweep", help="superactivation window sweep")
    s.add_argument("--model", default=None)
    s.add_argument("--pc-min", type=float, default=0.0)
    s.add_argument("--pc-max", type=float, default=0.1)
    s.add_argument("--steps", type=int, default=1000)
    s.add_argument("--output", "-o", default=None)
    s.set_defaults(func=cmd_sweep)

    z = sub.add_parser("zeroerr", help="zero-error rate over given inputs")
    z.add_argument("channel_file")
    z.add_argument("inputs_file")
    z.add_argument("--uses", type=int, default=1)
    z.add_argument("--epr", action="store_true")
    z.add_argument("--dot", default=None, help="write confusability graph DOT")
    z.add_argument("--output", "-o", default=None)
    z.set_defaults(func=cmd_zeroerr)

    b = sub.add_parser("ball", help="smallest enclosing information ball")
    b.add_argument("points_csv")
    b.add_argument("--algorithm", choices=BALL_ALGORITHMS, default="basic")
    b.add_argument("--eps", type=float, default=0.05)
    b.add_argument("--seed", type=int, default=DEFAULT_SEED)
    b.add_argument("--output", "-o", default=None)
    b.set_defaults(func=cmd_ball)

    v = sub.add_parser("validate", help="schema-check a JSON report")
    v.add_argument("report")
    v.set_defaults(func=cmd_validate)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE_CAP
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
