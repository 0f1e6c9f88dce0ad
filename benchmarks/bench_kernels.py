"""Benchmark the compiled divergence kernels against the numpy fallback.

Times batch_divergence next to prepared_divergence (the cached-entropy path
of the solvers; numpy only), and scan_centers on 200 centres and on one
block of infogeo.ORACLE_CHUNK centres, the unit minimax_center_oracle scans.

Run as: python3 benchmarks/bench_kernels.py [--sizes 100 1000 10000]
"""

import argparse
import time

import numpy as np

from qgeomcap import _kernels_py as py_impl
from qgeomcap.infogeo import ORACLE_CHUNK

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


# largest (centres x points) block timed, in bytes
MAX_BLOCK_BYTES = 64 << 20


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
        centers = random_interior_points(min(n, 200), rng)
        block = random_interior_points(ORACLE_CHUNK, rng)
        radii = np.zeros(n)
        cases = [
            ("batch_divergence", "batch_divergence", (pts, center)),
            ("prepared_divergence", "prepared_divergence",
             (pts, py_impl.neg_entropy(pts), center)),
            ("scan_centers", "scan_centers", (pts, radii, centers)),
        ]
        if ORACLE_CHUNK * n * 8 <= MAX_BLOCK_BYTES:
            cases.append((f"scan_centers x{ORACLE_CHUNK}", "scan_centers", (pts, radii, block)))
        for label, op, argset in cases:
            times = [bench(getattr(impl, op), *argset) for _, impl in impls
                     if hasattr(impl, op)]
            ratio = times[0] / times[-1] if len(times) > 1 else float("nan")
            row = f"{n:>8} {label:<26}" + "".join(f"{t * 1e3:>10.3f}ms" for t in times)
            print(row + f"{ratio:>9.1f}x")

    # correctness spot check between the two implementations
    if cy_impl is not None:
        pts = random_interior_points(500, rng)
        c = np.array([0.2, 0.1, -0.4])
        gap = np.abs(py_impl.batch_divergence(pts, c)
                     - cy_impl.batch_divergence(pts, c)).max()
        print(f"\nmax |python - cython| on 500 divergences: {gap:.3e}")


if __name__ == "__main__":
    main()
