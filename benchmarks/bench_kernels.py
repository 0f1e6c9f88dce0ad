"""Time the divergence kernels and the certified minimax solver.

Times batch_divergence next to prepared_divergence (the cached-entropy path
of the solvers) on seeded Bloch clouds of each --sizes, then
infogeo.minimax_ball on clouds of the same sizes (which is all that
infogeo.seb_improved runs) with its steps and the bracket width it
certifies, next to infogeo.seb_basic at eps = SEB_EPS on the same cloud and
its radius over minimax_ball's lower end (r/lower, the factor it reached),
then
capacity.hsw_capacity on the depolarizing and flip channels of the HSW
acceptance test, on dephasing and amplitude damping at p = 0.1 ... 0.9 and
on RANDOM_CHANNELS seeded Kraus-rank-2 and rank-3 channels, with its
column-generation rounds and the minimax_ball steps of all rounds, then
capacity.quantum_capacity_single_use on qubit_candidate_states(): its
time per channel of the qubit-input zoo (QUANTUM_ZOO), and last
zeroerr.zero_error_rate on pentagon n = 2 and n = 3, on the 7-cycle C7
n = 2 and on the 1 000-vertex complete graph of depolarizing(0.5) on
fibonacci_sphere(10) * 0.999, n = 3: the time of
build_confusability_graph, of max_independent_set, the tracemalloc peak
of one zero_error_rate call, and whether the graph is marked cyclic (its
search starts from codeword 0); then
build_confusability_graph alone on perfbench's C10 n = 3 (1 000 vertices)
and on pentagon n = 5 (3 125 vertices): its time and the tracemalloc peak
of one build.

Run as: python3 benchmarks/bench_kernels.py [--sizes 100 1000 10000]
"""

import argparse
import time
import tracemalloc

import numpy as np

from qgeomcap import capacity, channels, infogeo, kernels, states, zeroerr

SEB_EPS = 0.05
GRID = [round(0.1 * k, 1) for k in range(1, 10)]
HSW_CASES = ([("depolarizing", p) for p in GRID]
             + [(kind, p) for kind in ("bit_flip", "phase_flip", "bit_phase_flip")
                for p in (0.1, 0.5, 0.9)]
             + [("dephasing", p) for p in GRID]
             + [("amplitude_damping", p) for p in GRID])
# seeds of the random Kraus-rank-2 and rank-3 channels among the HSW cases
RANDOM_CHANNELS = range(5)
QUANTUM_ZOO = [(kind, 0.3) for kind in ("identity", "bit_flip", "phase_flip", "bit_phase_flip",
                                        "depolarizing", "amplitude_damping", "dephasing",
                                        "erasure")]


def random_interior_points(n, rng):
    pts = rng.normal(size=(n, 3))
    norms = np.linalg.norm(pts, axis=1)
    return pts * (rng.uniform(0.0, 0.99, n) / norms)[:, None]


def random_channel(seed, n_kraus):
    """Qubit channel with n_kraus Kraus operators, the blocks of a random
    isometry drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2 * n_kraus, 2)) + 1j * rng.normal(size=(2 * n_kraus, 2))
    iso, _ = np.linalg.qr(x)
    return channels.KrausChannel([iso[2 * i:2 * i + 2] for i in range(n_kraus)], 2, 2)


def cyclic_channel(m):
    """Input i goes to outputs i and i + 1 (mod m) with probability 1/2 each:
    perfbench's cyclic channel C<m>, used with the diagonal inputs."""
    kraus = np.zeros((m, 2, m, m), dtype=complex)
    i = np.arange(m)
    kraus[i, 0, i, i] = kraus[i, 1, (i + 1) % m, i] = np.sqrt(0.5)
    return channels.KrausChannel(kraus.reshape(2 * m, m, m), m, m)


def hsw_cases():
    """(label, channel) of every HSW case."""
    cases = [(f"{kind} p={p}", channels.build_channel(channels.ChannelSpec(kind, {"p": p})))
             for kind, p in HSW_CASES]
    return cases + [(f"kraus{k} seed={seed}", random_channel(seed, k))
                    for k in (2, 3) for seed in RANDOM_CHANNELS]


def bench(fn, *args, repeats=5):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[100, 1000, 10000])
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    center = np.array([0.1, -0.2, 0.3])
    print(f"{'n':>8}{'batch_divergence':>20}{'prepared_divergence':>22}")
    for n in args.sizes:
        pts = random_interior_points(n, rng)
        batch = bench(kernels.batch_divergence, pts, center)
        prepared = bench(kernels.prepared_divergence, pts, kernels.neg_entropy(pts), center)
        print(f"{n:>8}{batch * 1e3:>18.3f}ms{prepared * 1e3:>20.3f}ms")

    print(f"\n{'n':>8}{'minimax_ball':>20}{'steps':>10}{'gap':>12}{'seb_basic':>14}"
          f"{'r/lower':>10}")
    g = infogeo.Generator("neg_von_neumann")
    for n in args.sizes:
        pset = infogeo.WeightedPointSet(points=random_interior_points(n, rng))
        res = infogeo.minimax_ball(g, pset)
        t = bench(infogeo.minimax_ball, g, pset)
        t_basic = bench(infogeo.seb_basic, g, pset, SEB_EPS)
        factor = infogeo.seb_basic(g, pset, SEB_EPS).radius / res.lower
        print(f"{n:>8}{t * 1e3:>18.3f}ms{res.steps:>10}{res.gap:>12.2e}"
              f"{t_basic * 1e3:>12.3f}ms{factor:>10.4f}")

    print(f"\n{'hsw_capacity':<24}{'rounds':>8}{'steps':>8}{'time':>12}{'gap':>12}")
    solve = infogeo.minimax_ball
    steps = [0]

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        steps[0] += res.steps
        return res

    infogeo.minimax_ball = counted
    try:
        for label, ch in hsw_cases():
            steps[0] = 0
            res = capacity.hsw_capacity(ch)
            per_solve = steps[0]
            t = bench(capacity.hsw_capacity, ch, repeats=3)
            lo, up = res.bracket
            print(f"{label:<24}{res.iterations:>8}{per_solve:>8}"
                  f"{t * 1e3:>10.1f}ms{up - lo:>12.2e}")
    finally:
        infogeo.minimax_ball = solve

    cands = capacity.qubit_candidate_states()
    zoo = [channels.build_channel(channels.ChannelSpec(kind, {"p": p})) for kind, p in QUANTUM_ZOO]

    def quantum_zoo():
        for ch in zoo:
            capacity.quantum_capacity_single_use(ch, cands)

    t = bench(quantum_zoo, repeats=3) / len(zoo)
    print(f"\n{'quantum_capacity_single_use':<30}{'candidates':>12}{'channels':>10}"
          f"{'per channel':>14}")
    print(f"{'qubit-input zoo, p=0.3':<30}{len(cands):>12}{len(zoo):>10}{t * 1e3:>12.2f}ms")

    depolarizing = channels.build_channel(channels.ChannelSpec("depolarizing", {"p": 0.5}))
    grid = [states.bloch_to_density(u * 0.999) for u in capacity.fibonacci_sphere(10)]
    cases = [("pentagon n=2", zeroerr.pentagon_channel(), zeroerr.pentagon_inputs(), 2),
             ("pentagon n=3", zeroerr.pentagon_channel(), zeroerr.pentagon_inputs(), 3),
             ("C7 n=2", cyclic_channel(7), [np.diag(np.eye(7)[i]).astype(complex)
                                            for i in range(7)], 2),
             ("depolarizing p=0.5 grid10 n=3", depolarizing, grid, 3)]
    print(f"\n{'zero_error_rate':<32}{'vertices':>10}{'K':>6}{'build':>12}{'search':>12}"
          f"{'peak':>12}{'cyclic':>8}")
    for name, ch, inputs, n_uses in cases:
        graph = zeroerr.build_confusability_graph(ch, inputs, n_uses)
        build = bench(zeroerr.build_confusability_graph, ch, inputs, n_uses, repeats=3)
        search = bench(zeroerr.max_independent_set, graph, repeats=3)
        tracemalloc.start()
        k = zeroerr.zero_error_rate(ch, inputs, n_uses).K
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{name:<32}{graph.vertex_count:>10}{k:>6}{build * 1e3:>10.2f}ms"
              f"{search * 1e3:>10.2f}ms{peak / 2**20:>9.2f}MiB{graph.cyclic!s:>8}")

    diagonal = [np.diag(np.eye(10)[i]).astype(complex) for i in range(10)]
    builds = [("C10 n=3", cyclic_channel(10), diagonal, 3),
              ("pentagon n=5", zeroerr.pentagon_channel(), zeroerr.pentagon_inputs(), 5)]
    print(f"\n{'build_confusability_graph':<32}{'vertices':>10}{'edges':>10}{'build':>12}"
          f"{'peak':>12}")
    for name, ch, inputs, n_uses in builds:
        build = bench(zeroerr.build_confusability_graph, ch, inputs, n_uses, repeats=9)
        tracemalloc.start()
        graph = zeroerr.build_confusability_graph(ch, inputs, n_uses)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{name:<32}{graph.vertex_count:>10}{len(graph.edges):>10}{build * 1e3:>10.2f}ms"
              f"{peak / 2**20:>9.2f}MiB")


if __name__ == "__main__":
    main()
