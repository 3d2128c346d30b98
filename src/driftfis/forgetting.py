"""Deferred directional forgetting for WRLS conclusions.

Each consequent can carry a bounded window of the (augmented input, weight)
pairs it has absorbed. When the window overflows, the oldest contribution is
removed from the correlation matrix by the exact inverse of the WRLS
correlation update, so the matrix only ever reflects the samples still in
the window. Coefficients are never decremented: old directions merely stop
being reinforced, which lets the estimator move again along directions that
fresh data no longer excites.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .fis import Consequent, wrls_update
from .linalg import NearSingularError, corr_decrement


@dataclass
class DDFWindow:
    """FIFO memory of the weighted samples currently inside a consequent.

    ``capacity`` is the window size; ``skipped`` counts evictions that had
    to be abandoned because the downdate denominator was within the guard
    of zero (the sample is dropped from memory but its weight stays baked
    into the correlation matrix).
    """

    capacity: int
    entries: deque = field(default_factory=deque)
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def copy(self) -> "DDFWindow":
        out = DDFWindow(self.capacity, skipped=self.skipped)
        out.entries = deque((x.copy(), w) for x, w in self.entries)
        return out

    def push(self, x_aug: np.ndarray, weight: float) -> tuple[np.ndarray, float] | None:
        """Record a sample; return the evicted (x, weight) pair on overflow."""
        self.entries.append((x_aug.copy(), float(weight)))
        if len(self.entries) > self.capacity:
            return self.entries.popleft()
        return None


def frozen_copy(x_aug: np.ndarray) -> np.ndarray:
    """Read-only copy of a sample, safe to share between windows."""
    out = x_aug.copy()
    out.setflags(write=False)
    return out


def record_sample(windows: list[DDFWindow], x_aug: np.ndarray,
                  weights: list[float]) -> tuple[list[int], list, list[float]]:
    """Append one sample to every window, each with its own weight.

    ``x_aug`` is stored as given, not copied, so pass a frozen_copy that
    all the windows can share. Returns the evictions that still carry
    weight as three parallel lists: the window's position in ``windows``,
    the departing sample and its weight. Zero-weight evictions are dropped,
    since their downdate would be a no-op.
    """
    where: list[int] = []
    xs: list = []
    ws: list[float] = []
    for i, window in enumerate(windows):
        entries = window.entries
        entries.append((x_aug, weights[i]))
        if len(entries) > window.capacity:
            old_x, old_w = entries.popleft()
            if old_w != 0.0:
                where.append(i)
                xs.append(old_x)
                ws.append(old_w)
    return where, xs, ws


def ddf_update(con: Consequent, window: DDFWindow,
               x_aug: np.ndarray, weight: float, target: np.ndarray) -> None:
    """WRLS step followed by deferred removal of the sample leaving the window.

    The incoming sample is learned normally and appended to the window even
    when its weight is zero, so eviction timing depends only on sample
    count. If the eviction's downdate is numerically unsafe it is skipped
    and counted on the window.
    """
    wrls_update(con, x_aug, weight, target)
    evicted = window.push(x_aug, weight)
    if evicted is None:
        return
    old_x, old_w = evicted
    if old_w == 0.0:
        return
    try:
        con.corr = corr_decrement(con.corr, old_x, old_w)
    except NearSingularError:
        window.skipped += 1
