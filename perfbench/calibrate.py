"""Machine-speed calibration for the timed window.

On a shared host the speed of this benchmark's CPU drifts by up to a third
over tens of seconds, and a run-level throughput inherits that drift. A
fixed loop of small numpy operations and interpreter work, which does not
use qgeomcap, runs between tasks; each task's wall time is rescaled by
REF_S / (the loop's time around it), which cancels drift that slows both
alike. The raw wall-clock figures are reported beside the rescaled ones.
"""

import time

import numpy as np

# Loop time that defines the reference speed. Fixed: changing it rescales
# every reference-speed metric against earlier runs.
REF_S = 0.008
# at most this long between two loops inside the timed window
EVERY_S = 0.25

_POINTS = np.random.default_rng(0).normal(size=(200, 3))
_CENTER = np.array([0.1, 0.2, 0.3])


def loop_seconds():
    """Wall time of the fixed calibration loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        r = np.linalg.norm(_POINTS, axis=1)
        v = np.where(r > 0.5, r * np.log2(r + 1.0), 0.0) - _POINTS @ _CENTER
        acc += float(v.max())
        for j in range(20):
            acc += j * 0.5
    return time.perf_counter() - t0


def speed_factors(n_samples, marks):
    """REF_S / loop time for each of n_samples consecutive tasks.

    marks are (number of tasks done before the loop ran, loop seconds), in
    order, with one mark before the first task and one after the last; a
    task's factor uses the mean of the loops just before and just after it.
    """
    factors = []
    k = 0
    for i in range(n_samples):
        while marks[k + 1][0] <= i:
            k += 1
        factors.append(REF_S / (0.5 * (marks[k][1] + marks[k + 1][1])))
    return factors
