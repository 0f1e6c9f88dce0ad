"""Benchmark the compiled divergence kernels against the numpy fallback,
and time the certified minimax solver.

Times batch_divergence next to prepared_divergence (the cached-entropy path
of the solvers; numpy only), then infogeo.minimax_ball on seeded Bloch
clouds of 10, 100 and 1000 points with the bracket width it certifies.

Run as: python3 benchmarks/bench_kernels.py [--sizes 100 1000 10000]
"""

import argparse
import time

import numpy as np

from qgeomcap import _kernels_py as py_impl
from qgeomcap import infogeo

try:
    from qgeomcap import _kernels_cy as cy_impl
except ImportError:
    cy_impl = None


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
    impls = [("python", py_impl)]
    if cy_impl is not None:
        impls.append(("cython", cy_impl))
    else:
        print("compiled kernels unavailable; benchmarking the fallback only")

    print(f"{'n':>8} {'op':<26}" + "".join(f"{name:>12}" for name, _ in impls)
          + f"{'speedup':>10}")
    for n in args.sizes:
        pts = random_interior_points(n, rng)
        center = np.array([0.1, -0.2, 0.3])
        cases = [
            ("batch_divergence", "batch_divergence", (pts, center)),
            ("prepared_divergence", "prepared_divergence",
             (pts, py_impl.neg_entropy(pts), center)),
        ]
        for label, op, argset in cases:
            times = [bench(getattr(impl, op), *argset) for _, impl in impls
                     if hasattr(impl, op)]
            ratio = times[0] / times[-1] if len(times) > 1 else float("nan")
            row = f"{n:>8} {label:<26}" + "".join(f"{t * 1e3:>10.3f}ms" for t in times)
            print(row + f"{ratio:>9.1f}x")

    print(f"\n{'n':>8} {'minimax_ball':<26}{'time':>12}{'iterations':>12}{'gap':>12}")
    g = infogeo.Generator("neg_von_neumann")
    for n in (10, 100, 1000):
        pset = infogeo.WeightedPointSet(points=random_interior_points(n, rng))
        res = infogeo.minimax_ball(g, pset)
        t = bench(infogeo.minimax_ball, g, pset)
        print(f"{n:>8} {'':<26}{t * 1e3:>10.3f}ms{res.steps:>12}{res.gap:>12.2e}")

    # correctness spot check between the two implementations
    if cy_impl is not None:
        pts = random_interior_points(500, rng)
        c = np.array([0.2, 0.1, -0.4])
        gap = np.abs(py_impl.batch_divergence(pts, c)
                     - cy_impl.batch_divergence(pts, c)).max()
        print(f"\nmax |python - cython| on 500 divergences: {gap:.3e}")


if __name__ == "__main__":
    main()
