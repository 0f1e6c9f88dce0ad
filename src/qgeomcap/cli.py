"""Command-line front end.

Subcommands: capacity, sweep, zeroerr, ball, validate. All randomized
commands take --seed (default 42) and produce byte-identical output for
identical inputs and flags. Reports are JSON with sorted keys and a
provenance block; sweeps are CSV with '#'-prefixed provenance comments.

Exit codes: 0 ok, 1 input error, 2 non-convergence, 3 resource cap.
"""

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__, capacity, channels, infogeo, states, superact, zeroerr

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_RESOURCE_CAP = 3

DEFAULT_SEED = 42


def _provenance(args, flags):
    return {
        "tool": "qgeomcap",
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "flags": flags,
    }


def _dump(report, path):
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_channel(path):
    with open(path) as fh:
        return channels.parse_channel_spec(fh.read())


def _read_points_csv(path):
    """Points CSV with rows x,y,z[,w[,r]]; returns (points, weights, radii)."""
    pts, wts, rads = [], [], []
    with open(path) as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                vals = [float(v) for v in row]
            except ValueError:
                continue  # header line
            if len(vals) < 3:
                raise ValueError(f"points need at least 3 columns, got {row}")
            pts.append(vals[:3])
            wts.append(vals[3] if len(vals) > 3 else 1.0)
            rads.append(vals[4] if len(vals) > 4 else 0.0)
    if not pts:
        raise ValueError(f"no points parsed from {path}")
    return np.array(pts), np.array(wts), np.array(rads)


def _read_inputs_csv(path):
    """Input states CSV: 3 columns = Bloch vectors, d columns = diagonal
    states of dimension d."""
    rows = []
    with open(path) as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                continue
    if not rows:
        raise ValueError(f"no states parsed from {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows in input-state file")
    if width == 3:
        return [states.bloch_to_density(r) for r in rows]
    return [np.diag(np.asarray(r, dtype=float)).astype(complex) for r in rows]


def cmd_capacity(args):
    spec = _read_channel(args.channel_file)
    flags = {"mode": args.mode, "eps": args.eps}
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
    if args.mode == "holevo":
        res = capacity.hsw_capacity(ch, eps=args.eps)
        ensemble = [
            {"weight": p, "state": channels.matrix_to_pairs(s)}
            for p, s in res.optimal_ensemble
        ]
        extra = {"optimal_ensemble": ensemble,
                 "center": channels.matrix_to_pairs(res.center)}
    elif args.mode == "quantum":
        cands = capacity.qubit_candidate_states()
        res = capacity.quantum_capacity_single_use(ch, cands)
        extra = {"r_AB": res.ball_pair.r_AB, "r_AE": res.ball_pair.r_AE,
                 "r_coh": res.ball_pair.r_coh}
    elif args.mode == "private":
        cands = capacity.qubit_candidate_states()
        res = capacity.quantum_capacity_single_use(ch, cands)
        value = capacity.private_info(ch, res.optimal_ensemble)
        res.value = value
        extra = {"note": "single-ensemble private information at the "
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
    if args.model:
        with open(args.model) as fh:
            model = superact.parse_model_file(fh.read())
    else:
        model = superact.ReferenceModel()
    grid = np.linspace(args.pc_min, args.pc_max, args.steps)
    result = superact.sweep(grid, model)
    prov = _provenance(args, {"pc_min": args.pc_min, "pc_max": args.pc_max,
                              "steps": args.steps})
    lines = "".join(f"# {k} = {v}\n" for k, v in sorted(prov.items()))
    text = lines + result.to_csv()
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_zeroerr(args):
    spec = _read_channel(args.channel_file)
    ch = channels.build_channel(spec)
    inputs = _read_inputs_csv(args.inputs_file)
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
            fh.write(graph.to_dot())
    return EXIT_OK


def cmd_ball(args):
    pts, wts, rads = _read_points_csv(args.points_csv)
    pset = infogeo.WeightedPointSet(points=pts, weights=wts, radii=rads)
    g = infogeo.Generator("neg_von_neumann")
    if args.algorithm == "basic":
        ball = infogeo.seb_basic(g, pset, args.eps, seed=args.seed)
    elif args.algorithm == "improved":
        ball = infogeo.seb_improved(g, pset, args.eps, seed=args.seed)
    else:
        center, radius = infogeo.minimax_center_oracle(g, pset)
        ball = infogeo.InfoBall(center=center, radius=radius, history=[])
    report = {
        "type": "ball",
        "algorithm": args.algorithm,
        "center": [float(v) for v in ball.center],
        "radius": float(ball.radius),
        "n_points": int(pts.shape[0]),
        "provenance": _provenance(args, {"algorithm": args.algorithm,
                                         "eps": args.eps}),
    }
    _dump(report, args.output)
    return EXIT_OK


_REQUIRED_KEYS = {
    "capacity": {"mode", "value", "converged", "provenance"},
    "zeroerr": {"K", "rate_bits", "witness", "n_uses", "normalized", "provenance"},
    "ball": {"algorithm", "center", "radius", "n_points", "provenance"},
}


def cmd_validate(args):
    with open(args.report) as fh:
        data = json.load(fh)
    kind = data.get("type")
    if kind not in _REQUIRED_KEYS:
        raise ValueError(f"unknown or missing report type {kind!r}")
    missing = _REQUIRED_KEYS[kind] - set(data)
    if missing:
        raise ValueError(f"report missing keys: {sorted(missing)}")
    prov = data["provenance"]
    for key in ("tool", "version", "flags"):
        if key not in prov:
            raise ValueError(f"provenance missing {key!r}")
    sys.stdout.write(f"ok: valid {kind} report\n")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="qgeomcap",
        description="Information-geometric quantum channel capacity toolkit",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("capacity", help="channel capacity estimates")
    c.add_argument("channel_file")
    c.add_argument("--mode", choices=("holevo", "quantum", "private"),
                   default="holevo")
    c.add_argument("--eps", type=float, default=None)
    c.add_argument("--seed", type=int, default=DEFAULT_SEED)
    c.add_argument("--output", "-o", default=None)
    c.set_defaults(func=cmd_capacity)

    s = sub.add_parser("sweep", help="superactivation window sweep")
    s.add_argument("--model", default=None)
    s.add_argument("--pc-min", type=float, default=0.0)
    s.add_argument("--pc-max", type=float, default=0.1)
    s.add_argument("--steps", type=int, default=1000)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--output", "-o", default=None)
    s.set_defaults(func=cmd_sweep)

    z = sub.add_parser("zeroerr", help="zero-error rate over given inputs")
    z.add_argument("channel_file")
    z.add_argument("inputs_file")
    z.add_argument("--uses", type=int, default=1)
    z.add_argument("--epr", action="store_true")
    z.add_argument("--dot", default=None, help="write confusability graph DOT")
    z.add_argument("--seed", type=int, default=DEFAULT_SEED)
    z.add_argument("--output", "-o", default=None)
    z.set_defaults(func=cmd_zeroerr)

    b = sub.add_parser("ball", help="smallest enclosing information ball")
    b.add_argument("points_csv")
    b.add_argument("--algorithm", choices=("basic", "improved", "oracle"),
                   default="basic")
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
    except zeroerr.ResourceCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE_CAP
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
