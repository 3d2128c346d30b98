"""Deferred directional forgetting for WRLS conclusions.

Each consequent can carry a bounded window of the (augmented input, weight)
pairs it has absorbed. When the window overflows, the oldest contribution is
removed from the correlation matrix by the exact inverse of the WRLS
correlation update, so the matrix only ever reflects the samples still in
the window. Coefficients are never decremented: old directions merely stop
being reinforced, which lets the estimator move again along directions that
fresh data no longer excites.

A window is a ring of ``capacity`` slots, each holding a sample and its
weight, plus a head (the slot the next sample goes to), a fill (how many
slots hold a sample) and a ``skipped`` count. A learner stacks the rings of
its principal windows in one WindowBank, one ring per rule, and the bank
is their only storage: a principal rule's window is a DDFWindow of views
read from its row. Recording a sample in every principal window is one
scatter, their evictions one gather, and reading them all oldest first
one more gather. A shadow pair's two windows stay outside the bank and
share one samples array (push_pair).
"""

from __future__ import annotations

import numpy as np

from .fis import Consequent, wrls_update
from .linalg import NearSingularError, corr_decrement


class DDFWindow:
    """FIFO memory of the weighted samples currently inside a consequent.

    ``capacity`` is the window size. ``samples`` (capacity, k) and
    ``weights`` (capacity,) are the ring slots; a slot that holds no sample
    has weight 0.0. ``state`` holds the head, the fill and ``skipped``, the
    count of evictions that had to be abandoned because the downdate
    denominator was within the guard of zero (the sample is dropped from
    memory but its weight stays baked into the correlation matrix).
    ``samples`` may hold just the leading slots, or be None while the
    window is empty: a standalone window allocates the whole ring at its
    first push, once the sample length is known.
    """

    def __init__(self, capacity: int, skipped: int = 0):
        if capacity < 1:
            raise ValueError(f"window capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.samples: np.ndarray | None = None
        self.weights = np.zeros(capacity)
        self.state = np.array([0, 0, skipped], dtype=np.int64)

    @property
    def skipped(self) -> int:
        return int(self.state[2])

    @skipped.setter
    def skipped(self, value: int) -> None:
        self.state[2] = value

    def __len__(self) -> int:
        return int(self.state[1])

    def slots(self) -> slice | np.ndarray:
        """Index of the filled slots, oldest first: a slice unless the
        held samples wrap around the end of the ring."""
        head, fill = int(self.state[0]), int(self.state[1])
        start = head - fill
        if start >= 0:
            return slice(start, head)
        return np.arange(start, head) % self.weights.shape[0]

    def ordered(self) -> tuple[np.ndarray, np.ndarray]:
        """The held samples and weights, oldest first."""
        if not self.state[1]:
            return np.empty((0, 0)), np.empty(0)
        slots = self.slots()
        return self.samples[slots], self.weights[slots]

    @property
    def entries(self) -> list[tuple[np.ndarray, float]]:
        """(sample, weight) pairs, oldest first; samples may be ring views."""
        xs, ws = self.ordered()
        return list(zip(xs, ws.tolist()))

    def push(self, x_aug: np.ndarray, weight: float) -> tuple[np.ndarray, float] | None:
        """Record a sample; return the evicted (x, weight) pair on overflow."""
        head, fill = int(self.state[0]), int(self.state[1])
        samples = self.samples
        if samples is None or samples.shape[0] < self.capacity:
            self.samples = np.empty((self.capacity, x_aug.shape[0]))
            if samples is not None:
                self.samples[:samples.shape[0]] = samples
        evicted = None
        if fill == self.capacity:
            evicted = (self.samples[head].copy(), float(self.weights[head]))
        else:
            self.state[1] = fill + 1
        self.samples[head] = x_aug
        self.weights[head] = weight
        self.state[0] = (head + 1) % self.capacity
        return evicted


def push_pair(slow: DDFWindow, fast: DDFWindow, x_aug: np.ndarray,
              w_slow: float, w_fast: float):
    """Record x_aug in a shadow pair's two windows, weighted w_slow and w_fast.

    The two windows record and evict every sample together, so they share
    one samples array and keep equal heads and fills. Record into them
    only through this function: a push on one of them alone would rewrite
    its partner's samples. Most shadow pairs restart before they fill, so
    the samples array grows by doubling until it spans the ring. Returns
    (sample, weights) for an eviction in which either weight is nonzero,
    else None.
    """
    cap = slow.capacity
    state = slow.state
    head, fill = int(state[0]), int(state[1])
    samples = slow.samples
    held = 0 if samples is None else samples.shape[0]
    if head >= held or samples is not fast.samples:
        # a ring shorter than capacity has not wrapped yet: its samples
        # are the leading rows
        grown = np.empty((min(cap, max(4, 2 * held)), x_aug.shape[0]))
        grown[:held] = samples
        slow.samples = fast.samples = samples = grown
    old_slow = float(slow.weights[head])
    old_fast = float(fast.weights[head])
    evicted = None
    if old_slow != 0.0 or old_fast != 0.0:
        evicted = (samples[head].copy(), np.array((old_slow, old_fast)))
    samples[head] = x_aug
    slow.weights[head] = w_slow
    fast.weights[head] = w_fast
    head = head + 1 if head + 1 < cap else 0
    state[0] = fast.state[0] = head
    if fill < cap:
        state[1] = fast.state[1] = fill + 1
    return evicted


class WindowBank:
    """The rings of a learner's principal windows, stacked, one row per rule.

    ``samples`` is (rows, capacity, k), ``weights`` (rows, capacity) and
    ``state`` (3, rows): head, fill and skipped per row. Every window
    shares the bank's capacity. Recording a sample in every window is one
    scatter. The shadow pairs' windows stay outside: only the winner's
    pair records a sample, and most pairs hold a few samples, so
    preallocated rings would mostly sit empty.
    """

    def __init__(self, capacity: int, n_inputs: int):
        self.capacity = capacity
        self.n_inputs = n_inputs
        self.samples = np.empty((0, capacity, n_inputs))
        self.weights = np.empty((0, capacity))
        self.state = np.empty((3, 0), dtype=np.int64)
        self.set_rows(np.empty(0, dtype=np.intp))

    @property
    def skipped(self) -> np.ndarray:
        """Per-row skipped counts (a writable view)."""
        return self.state[2]

    def window(self, row: int) -> DDFWindow:
        """Row ``row``'s ring as a DDFWindow of views into the stacks."""
        window = DDFWindow(self.capacity)
        window.samples = self.samples[row]
        window.weights = self.weights[row]
        window.state = self.state[:, row]
        return window

    def set_rows(self, rows: np.ndarray, extra: list[DDFWindow] = ()) -> None:
        """Rebuild the stacks as a gather of rows.

        New row i is a copy of row ``rows[i]``. Indices from the current
        row count on address the standalone windows in ``extra``, whose
        rings are appended after the current rows. Raises ValueError for
        an extra window whose capacity differs from the bank's.
        """
        cap = self.capacity
        samples, weights, state = self.samples, self.weights, self.state
        if extra:
            if any(window.capacity != cap for window in extra):
                raise ValueError(f"a window's capacity differs from the "
                                 f"bank's {cap}")
            more = np.empty((len(extra), cap, self.n_inputs))
            # a standalone ring may hold just its leading slots
            for ring, window in zip(more, extra):
                if window.samples is not None:
                    ring[:window.samples.shape[0]] = window.samples
            samples = np.concatenate((samples, more))
            weights = np.concatenate((weights, [w.weights for w in extra]))
            state = np.concatenate((state, np.transpose([w.state for w in extra])),
                                   axis=1)
        n = rows.shape[0]
        self.samples = samples = samples.take(rows, axis=0)
        self.weights = weights = weights.take(rows, axis=0)
        self.state = state = state.take(rows, axis=1)
        self._head = state[0]
        self._fill = state[1]
        self._flat_x = samples.reshape(n * cap, self.n_inputs)
        self._flat_w = weights.reshape(n * cap)
        self._base = np.arange(n, dtype=np.int64) * cap

    def push(self, x_aug: np.ndarray, weights: np.ndarray):
        """Record x_aug in every row's ring, row i with weights[i].

        Returns the evictions that carry weight as (rows, samples,
        weights), with rows None when every row evicted, or None when no
        row did. A zero-weight eviction is dropped, since its downdate
        would be a no-op.
        """
        head = self._head
        flat = self._base + head
        old_w = self._flat_w[flat]
        # empty slots weigh 0.0, so a weighted slot at the head means a full ring
        hit = old_w != 0.0
        if hit.all():
            evicted = (None, self._flat_x[flat], old_w)
        elif hit.any():
            rows = np.flatnonzero(hit)
            evicted = (rows, self._flat_x[flat[rows]], old_w[rows])
        else:
            evicted = None
        self._flat_x[flat] = x_aug
        self._flat_w[flat] = weights
        if evicted is None or evicted[0] is not None:
            np.minimum(self._fill + 1, self.capacity, out=self._fill)
        head += 1
        head[head == self.capacity] = 0
        return evicted

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's held samples and weights, oldest first, in row order."""
        cap = self.capacity
        pos = np.arange(cap)
        fill = self._fill
        # slot of a row's j-th oldest entry: head - fill + j, modulo cap
        slots = (self._head - fill + cap)[:, None] + pos
        flat = slots[pos < fill[:, None]]
        flat %= cap
        flat += np.repeat(self._base, fill)
        return self._flat_x.take(flat, axis=0), self._flat_w.take(flat)


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
