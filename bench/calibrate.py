"""Host-speed calibration: a fixed kernel timed throughout each pass.

The shared 2-core host this benchmark was built on changes speed by 30-90%
for stretches of tens of seconds to minutes (identical passes took 5.6 s
and 11.6 s a minute apart, in CPU time as well as wall time). Timings are
therefore scaled to a reference host speed. A short calibration runs at
the start of every train chunk and once after the hold-out; the time
between two calibrations (calibrations excluded) is multiplied by
``REFERENCE_S`` over the mean of the two, and so is every ``learn_one``
latency measured in it. The kernel is a frozen mix of what one learning
step does (small batched numpy products, a batched inverse, Python-level
arithmetic and a JSON encode), and it does not depend on the package, so
a change to driftfis cannot move it.
"""

from __future__ import annotations

import json
import time

import numpy as np

# kernel time on the reference host (2-core Xeon VM, Python 3.11, numpy 2.4
# with OpenBLAS 0.3.31) during a fast stretch
REFERENCE_S = 0.0018
ITERATIONS = 50

perf_counter = time.perf_counter


def calibration_s() -> float:
    """Seconds one run of the fixed kernel takes now."""
    rng = np.random.default_rng(0)
    corrs = np.tile(100.0 * np.eye(5), (30, 1, 1))
    covs = np.tile(np.eye(4), (3, 1, 1))
    record = {"rows": [[0.0] * 5 for _ in range(20)]}
    t0 = perf_counter()
    for i in range(ITERATIONS):
        x = rng.uniform(-1.0, 1.0, size=5)
        x[0] = 1.0
        u = corrs @ x
        s = np.einsum("nk,k->n", u, x)
        weights = np.full(30, 1.0 / 30)
        corrs -= (weights / (1.0 + weights * s))[:, None, None] * (
            u[:, :, None] * u[:, None, :])
        np.linalg.inv(covs + 0.01 * i * np.eye(4))
        total = 0.0
        for w in weights[:10]:
            total += float(w) * 0.5
        if i % 10 == 0:
            json.dumps(record)
    return perf_counter() - t0


class SpeedTrack:
    """Calibrations taken inside a timed region, and the scaling they imply."""

    def __init__(self):
        # (wall time at start, calibration seconds, seconds spent, learn index)
        self.marks: list[tuple[float, float, float, int]] = []

    def mark(self, learn_index: int) -> None:
        """Calibrate now; ``learn_index`` is the next learn call's index."""
        t0 = perf_counter()
        cal = calibration_s()
        self.marks.append((t0, cal, perf_counter() - t0, learn_index))

    def scale(self, start: float, end: float, learn_s) -> tuple:
        """Scaled wall time of [start, end) and scaled latencies.

        Calibration time is removed from the wall time first. Call right
        after ``end``; it takes the closing calibration itself.
        """
        closing = calibration_s()
        if not self.marks:
            k = REFERENCE_S / closing
            return (end - start) * k, np.asarray(learn_s) * k
        cals = [m[1] for m in self.marks] + [closing]
        scales = [2.0 * REFERENCE_S / (a + b) for a, b in zip(cals, cals[1:])]
        seg_ends = [m[0] for m in self.marks[1:]] + [end]
        walls = [e - (m[0] + m[2]) for m, e in zip(self.marks, seg_ends)]
        walls[0] += self.marks[0][0] - start
        learn_scale = np.repeat(scales, np.diff(
            [m[3] for m in self.marks] + [len(learn_s)]))
        return float(np.dot(walls, scales)), np.asarray(learn_s) * learn_scale
