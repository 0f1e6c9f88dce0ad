"""Metric names and units, the traced layer boundaries, per-layer metrics.

The layers are the package's modules. Wrappers go on the module attributes
of kernels (and the helpers of its _kernels_py backend), channels, states,
infogeo (plus Generator.interpolate), capacity, zeroerr and superact, on
cli.main, and on scipy.optimize.minimize, which the polish helpers import
when called. scipy's own time is counted as self time of the layer that
called it.
"""

import statistics

from spans import self_times

MINIMIZE = "scipy.optimize.minimize"
CAPACITY_POLISH = ("capacity._polish_direction", "capacity._polish_center")

# end-to-end metrics on the last output line: the ones BENCHMARK.json bounds.
# The per-task percentiles and the answer-quality fractions are in the full
# report only: a median over a bimodal task mix jumps between the modes from
# seed to seed, and the fractions are 0 on some workloads.
# tasks_per_ref_s is the task rate over one pass of the task list, each task
# at its median wall time rescaled to the reference machine speed
# (calibrate.py), which the shared host drifts from.
END_TO_END = {"tasks_per_ref_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
# all eight end-to-end metrics, plus the rescaled throughput, as the full
# report prints them
REPORTED = {"setup_s": "s", "tasks_per_s": "1/s", "tasks_per_ref_s": "1/s",
            "task_p50_ms": "ms",
            "task_p90_ms": "ms", "fail_frac": "ratio", "unconverged_frac": "ratio",
            "witness_gap_bits": "bits", "peak_rss_mb": "MB"}

# per-layer metrics of the traced pass, name -> unit, in BENCHMARK.json order
PER_LAYER = {
    "kernels.batch_divergence.calls": "count",
    "kernels.batch_divergence.rows": "count",
    "kernels.batch_divergence.self_s": "s",
    "kernels.bytes_computed": "bytes",
    "kernels.bloch_relative_entropy.calls": "count",
    "kernels.bloch_relative_entropy.self_s": "s",
    "kernels.scan_centers.pairs": "count",
    "kernels.scan_centers.self_s": "s",
    "kernels.neg_entropy.calls": "count",
    "kernels.neg_entropy.self_s": "s",
    "capacity.hsw_capacity.self_s": "s",
    "capacity.hsw.iterations": "count",
    "capacity.hsw.ensemble_size": "count",
    "capacity.polish.calls": "count",
    "capacity.polish.nfev": "count",
    "capacity.polish.self_s": "s",
    "capacity.quantum_capacity_single_use.self_s": "s",
    "infogeo.seb_basic.self_s": "s",
    "infogeo.seb_improved.self_s": "s",
    "infogeo.minimax_center_oracle.self_s": "s",
    "infogeo.seb_improved.rounds": "count",
    "infogeo.two_point_minimax.calls": "count",
    "infogeo.two_point_minimax.self_s": "s",
    "infogeo.interpolate.calls": "count",
    "infogeo.polish.nfev": "count",
    "zeroerr.build_confusability_graph.calls": "count",
    "zeroerr.build_confusability_graph.self_s": "s",
    "zeroerr.build_confusability_graph.vertices": "count",
    "zeroerr.build_confusability_graph.edges": "count",
    "zeroerr.max_independent_set.calls": "count",
    "zeroerr.max_independent_set.self_s": "s",
    "zeroerr.output_overlap.calls": "count",
    "channels.apply.calls": "count",
    "channels.apply.self_s": "s",
    "channels.build_channel.self_s": "s",
    "channels.parse_channel_spec.self_s": "s",
    "channels.kraus_to_affine.calls": "count",
    "channels.complementary_channel.calls": "count",
    "states.von_neumann_entropy.calls": "count",
    "states.von_neumann_entropy.self_s": "s",
    "states.holevo_quantity.calls": "count",
    "superact.sweep.rows": "count",
    "superact.sweep.self_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "verify.fail_frac": "ratio",
    "verify.unconverged_frac": "ratio",
    "verify.witness_gap_bits": "bits",
}

# bytes a kernel call must read and write, by call size (not measured traffic):
# a batch row is 3 doubles in and 1 out, a scanned (centre, point) pair is one
# double of the cross matrix, a scalar divergence is two Bloch vectors in, one out
BYTES_PER_ROW = 32
BYTES_PER_PAIR = 8
BYTES_PER_SCALAR = 56


def _batch_rows(rec, args, kwargs, result):
    rec.count("kernels.batch_divergence.rows", len(args[0]))


def _scan_pairs(rec, args, kwargs, result):
    rec.count("kernels.scan_centers.pairs", len(args[0]) * len(args[2]))


def _hsw(rec, args, kwargs, result):
    rec.count("capacity.hsw.iterations", result.iterations)
    rec.count("capacity.hsw.ensemble_size", len(result.optimal_ensemble))


def _rounds(rec, args, kwargs, result):
    rec.count("infogeo.seb_improved.rounds", len(result.history) - 1)


def _graph(rec, args, kwargs, result):
    rec.count("zeroerr.build_confusability_graph.vertices", result.vertex_count)
    rec.count("zeroerr.build_confusability_graph.edges", len(result.edges))


def _sweep(rec, args, kwargs, result):
    rec.count("superact.sweep.rows", len(result.rows))


def _nfev(rec, args, kwargs, result):
    caller = rec.current()
    if caller in CAPACITY_POLISH:
        rec.count("capacity.polish.nfev", int(result.nfev))
    elif caller == "infogeo.two_point_minimax":
        rec.count("infogeo.polish.nfev", int(result.nfev))


def install(rec):
    """Wrap every layer boundary; undo with rec.restore()."""
    import importlib

    import scipy.optimize

    from qgeomcap import capacity, channels, cli, infogeo, kernels, states, superact, zeroerr

    kernel_hooks = {"batch_divergence": _batch_rows, "scan_centers": _scan_pairs}
    for attr in ("bloch_relative_entropy", "batch_divergence", "scan_centers"):
        rec.patch(kernels, attr, f"kernels.{attr}", kernel_hooks.get(attr))
    try:
        backend = importlib.import_module("qgeomcap._kernels_py")
    except ImportError:  # a later version may fold the backend into kernels
        backend = None
    for attr in ("_neg_entropy", "_center_coeffs"):
        rec.patch(backend, attr, f"kernels.{attr}")
    rec.patch_module(channels, "channels")
    rec.patch_module(states, "states")
    rec.patch_module(infogeo, "infogeo", {"seb_improved": _rounds})
    rec.patch(getattr(infogeo, "Generator", None), "interpolate", "infogeo.interpolate")
    rec.patch_module(capacity, "capacity", {"hsw_capacity": _hsw})
    rec.patch_module(zeroerr, "zeroerr", {"build_confusability_graph": _graph})
    rec.patch_module(superact, "superact", {"sweep": _sweep})
    rec.patch(cli, "main", "cli.main")
    rec.patch(scipy.optimize, "minimize", MINIMIZE, _nfev)


def layer_metrics(names, name, start, end, parent, counters, import_s, overhead_frac,
                  quality):
    """Every PER_LAYER metric from one traced pass.

    import_s lists `import qgeomcap` times of fresh processes (the median
    is reported); quality holds the verify.* values of the pass.
    """
    totals = self_times(names, name, start, end, parent, transparent=(MINIMIZE,))

    def calls(n):
        return totals.get(n, (0.0, 0))[1]

    def self_s(n):
        return totals.get(n, (0.0, 0))[0]

    def counter(key):
        return counters.get(key, 0)

    values = {
        "kernels.batch_divergence.calls": calls("kernels.batch_divergence"),
        "kernels.batch_divergence.rows": counter("kernels.batch_divergence.rows"),
        "kernels.batch_divergence.self_s": self_s("kernels.batch_divergence"),
        "kernels.bytes_computed": (BYTES_PER_ROW * counter("kernels.batch_divergence.rows")
                                   + BYTES_PER_PAIR * counter("kernels.scan_centers.pairs")
                                   + BYTES_PER_SCALAR * calls("kernels.bloch_relative_entropy")),
        "kernels.bloch_relative_entropy.calls": calls("kernels.bloch_relative_entropy"),
        "kernels.bloch_relative_entropy.self_s": self_s("kernels.bloch_relative_entropy"),
        "kernels.scan_centers.pairs": counter("kernels.scan_centers.pairs"),
        "kernels.scan_centers.self_s": self_s("kernels.scan_centers"),
        "kernels.neg_entropy.calls": calls("kernels._neg_entropy"),
        "kernels.neg_entropy.self_s": self_s("kernels._neg_entropy"),
        "capacity.hsw_capacity.self_s": self_s("capacity.hsw_capacity"),
        "capacity.hsw.iterations": counter("capacity.hsw.iterations"),
        "capacity.hsw.ensemble_size": counter("capacity.hsw.ensemble_size"),
        "capacity.polish.calls": sum(calls(n) for n in CAPACITY_POLISH),
        "capacity.polish.nfev": counter("capacity.polish.nfev"),
        "capacity.polish.self_s": sum(self_s(n) for n in CAPACITY_POLISH),
        "capacity.quantum_capacity_single_use.self_s":
            self_s("capacity.quantum_capacity_single_use"),
        "infogeo.seb_basic.self_s": self_s("infogeo.seb_basic"),
        "infogeo.seb_improved.self_s": self_s("infogeo.seb_improved"),
        "infogeo.minimax_center_oracle.self_s": self_s("infogeo.minimax_center_oracle"),
        "infogeo.seb_improved.rounds": counter("infogeo.seb_improved.rounds"),
        "infogeo.two_point_minimax.calls": calls("infogeo.two_point_minimax"),
        "infogeo.two_point_minimax.self_s": self_s("infogeo.two_point_minimax"),
        "infogeo.interpolate.calls": calls("infogeo.interpolate"),
        "infogeo.polish.nfev": counter("infogeo.polish.nfev"),
        "zeroerr.build_confusability_graph.calls": calls("zeroerr.build_confusability_graph"),
        "zeroerr.build_confusability_graph.self_s": self_s("zeroerr.build_confusability_graph"),
        "zeroerr.build_confusability_graph.vertices":
            counter("zeroerr.build_confusability_graph.vertices"),
        "zeroerr.build_confusability_graph.edges":
            counter("zeroerr.build_confusability_graph.edges"),
        "zeroerr.max_independent_set.calls": calls("zeroerr.max_independent_set"),
        "zeroerr.max_independent_set.self_s": self_s("zeroerr.max_independent_set"),
        "zeroerr.output_overlap.calls": calls("zeroerr.output_overlap"),
        "channels.apply.calls": calls("channels.apply"),
        "channels.apply.self_s": self_s("channels.apply"),
        "channels.build_channel.self_s": self_s("channels.build_channel"),
        "channels.parse_channel_spec.self_s": self_s("channels.parse_channel_spec"),
        "channels.kraus_to_affine.calls": calls("channels.kraus_to_affine"),
        "channels.complementary_channel.calls": calls("channels.complementary_channel"),
        "states.von_neumann_entropy.calls": calls("states.von_neumann_entropy"),
        "states.von_neumann_entropy.self_s": self_s("states.von_neumann_entropy"),
        "states.holevo_quantity.calls": calls("states.holevo_quantity"),
        "superact.sweep.rows": counter("superact.sweep.rows"),
        "superact.sweep.self_s": self_s("superact.sweep"),
        "cli.import_s": statistics.median(import_s),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_frac": overhead_frac,
        "trace.spans": len(start),
    }
    values.update(quality)
    if list(values) != list(PER_LAYER):
        raise RuntimeError("per-layer metric list out of sync with PER_LAYER")
    return values
