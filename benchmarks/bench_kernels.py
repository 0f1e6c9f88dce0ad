"""Time the divergence kernels and the certified minimax solver.

Times batch_divergence next to prepared_divergence (the cached-entropy path
of the solvers) on seeded Bloch clouds of each --sizes, then
infogeo.minimax_ball on clouds of the same sizes with the bracket width it
certifies, then infogeo.seb_improved (eps = SEB_EPS) on the same clouds with
its rounds, its final bracket width and how far its lower end lies below
minimax_ball's ("below"; its closing step makes that about 0, within the
1e-9 widths of the two brackets and the 1e-9 nudge of its points), then
capacity.hsw_capacity on the depolarizing and flip channels of the HSW
acceptance test and on amplitude damping at p = 0.1 ... 0.9, with
its column-generation rounds and the minimax_ball steps of all rounds, and
last capacity.quantum_capacity_single_use on qubit_candidate_states(): its
time per channel of the qubit-input zoo (QUANTUM_ZOO).

Run as: python3 benchmarks/bench_kernels.py [--sizes 100 1000 10000]
"""

import argparse
import time

import numpy as np

from qgeomcap import capacity, channels, infogeo, kernels

SEB_EPS = 0.05
GRID = [round(0.1 * k, 1) for k in range(1, 10)]
HSW_CASES = ([("depolarizing", p) for p in GRID]
             + [(kind, p) for kind in ("bit_flip", "phase_flip", "bit_phase_flip")
                for p in (0.1, 0.5, 0.9)]
             + [("amplitude_damping", p) for p in GRID])
QUANTUM_ZOO = [(kind, 0.3) for kind in ("identity", "bit_flip", "phase_flip", "bit_phase_flip",
                                        "depolarizing", "amplitude_damping", "dephasing",
                                        "erasure")]


def random_interior_points(n, rng):
    pts = rng.normal(size=(n, 3))
    norms = np.linalg.norm(pts, axis=1)
    return pts * (rng.uniform(0.0, 0.99, n) / norms)[:, None]


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

    print(f"\n{'n':>8}{'minimax_ball':>20}{'steps':>10}{'gap':>12}")
    g = infogeo.Generator("neg_von_neumann")
    clouds = []
    for n in args.sizes:
        pset = infogeo.WeightedPointSet(points=random_interior_points(n, rng))
        res = infogeo.minimax_ball(g, pset)
        clouds.append((pset, res))
        t = bench(infogeo.minimax_ball, g, pset)
        print(f"{n:>8}{t * 1e3:>18.3f}ms{res.steps:>10}{res.gap:>12.2e}")

    print(f"\n{'n':>8}{'seb_improved':>20}{'rounds':>10}{'width':>12}{'below':>12}")
    for pset, res in clouds:
        ball = infogeo.seb_improved(g, pset, SEB_EPS)
        t = bench(infogeo.seb_improved, g, pset, SEB_EPS, repeats=3)
        r_lo, delta = ball.history[-1]
        # history: the start, one entry per round, the closing step
        print(f"{len(pset):>8}{t * 1e3:>18.3f}ms{len(ball.history) - 2:>10}"
              f"{delta:>12.2e}{res.lower - r_lo:>12.2e}")

    print(f"\n{'hsw_capacity':<24}{'rounds':>8}{'steps':>8}{'time':>12}{'gap':>12}")
    solve = infogeo.minimax_ball
    steps = [0]

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        steps[0] += res.steps
        return res

    infogeo.minimax_ball = counted
    try:
        for kind, p in HSW_CASES:
            ch = channels.build_channel(channels.ChannelSpec(kind, {"p": p}))
            steps[0] = 0
            res = capacity.hsw_capacity(ch)
            per_solve = steps[0]
            t = bench(capacity.hsw_capacity, ch, repeats=3)
            lo, up = res.bracket
            print(f"{kind + ' p=' + str(p):<24}{res.iterations:>8}{per_solve:>8}"
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


if __name__ == "__main__":
    main()
