"""Deferred directional forgetting for WRLS conclusions.

Each consequent can carry a bounded window of the (augmented input, weight)
pairs it has absorbed. When the window overflows, the oldest contribution
(x, w) is removed from the correlation matrix C by the exact inverse of the
WRLS correlation update, C <- C + w C x x' C / (1 - w x' C x), so that
C^-1 = I/omega + sum of w x x' over the samples still in the window. The
removal runs on the FuzzySystem stacks (downdate_rows for the principal
windows, downdate_row_pair for a shadow pair) and is skipped, and counted
on the window, when 1 - w x' C x is within DOWNDATE_GUARD of zero.
Coefficients are never decremented: old directions merely stop being
reinforced, which lets the estimator move again along directions that
fresh data no longer excites.

A window is a ring of ``capacity`` slots (a sample and its weight each),
a head, a fill and a ``skipped`` count. The principal windows are the rows
of one WindowBank; a shadow pair's two windows stay outside it and share
one samples array. Only this module knows how a window is stored: it
records, evicts and sheds samples (WindowBank.forget, forget_pair), counts
the skips, moves the windows with their consequents (WindowBank.set_rows)
and builds windows from their entries. Elsewhere a window is read through
``len()``, ``capacity``, ``skipped``, ``ordered()`` and shadow_state.
"""

from __future__ import annotations

import numpy as np


class DDFWindow:
    """FIFO memory of the weighted samples currently inside a consequent.

    ``samples`` (capacity, k) and ``weights`` (capacity,) are the ring
    slots; an empty slot has weight 0.0. ``state`` holds the head, the fill
    and ``skipped``, the count of evictions abandoned because the downdate
    denominator was within the guard of zero (the sample leaves memory,
    its weight stays baked into the correlation matrix). A window starts
    out holding ``samples`` with ``weights``, oldest first, in its leading
    slots (ValueError if they overflow it): ``samples`` holds just those,
    or None while empty, until a push allocates the whole ring.
    """

    def __init__(self, capacity: int, skipped: int = 0,
                 samples: np.ndarray | None = None, weights=()):
        fill = len(weights)
        if capacity < 1:
            raise ValueError(f"window capacity must be positive, got {capacity}")
        if fill > capacity:
            raise ValueError(f"window holds {fill} entries, more than its "
                             f"capacity {capacity}")
        self.capacity = capacity
        self.samples = samples if fill else None
        self.weights = np.zeros(capacity)
        self.weights[:fill] = weights
        self.state = np.array([fill % capacity, fill, skipped], dtype=np.int64)

    @property
    def skipped(self) -> int:
        return int(self.state[2])

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


def shadow_state(pairs) -> tuple[np.ndarray, list[np.ndarray]]:
    """What state_bytes reads of the windows of ``pairs`` (each with a
    ``slow_window`` and a ``fast_window``): every window's fill and skipped
    count, (2 * pairs, 2), and each nonempty pair's samples, slow weights
    and fast weights, oldest first, with one slots computation per pair."""
    counts = np.array([(p.slow_window.state[1:], p.fast_window.state[1:])
                       for p in pairs], dtype=np.int64)
    entries = []
    for pair in pairs:
        slow, fast = pair.slow_window, pair.fast_window
        if slow.state[1]:
            slots = slow.slots()
            entries += (slow.samples[slots], slow.weights[slots], fast.weights[slots])
    return counts.reshape(2 * len(pairs), 2), entries


def forget_pair(system, row: int, slow: DDFWindow, fast: DDFWindow,
                x_aug: np.ndarray, w_slow: float, w_fast: float) -> None:
    """Record x_aug in a shadow pair's windows and downdate rows (row,
    row + 1) of ``system`` by the sample they evict. A side whose guard
    trips keeps its matrix and counts the skip on its window, unless its
    departing weight is zero (that downdate would change nothing)."""
    evicted = push_pair(slow, fast, x_aug, w_slow, w_fast)
    if evicted is not None:
        old_x, w_old = evicted
        ok_slow, ok_fast = system.downdate_row_pair(row, old_x, w_old)
        if not ok_slow and w_old[0] != 0.0:
            slow.state[2] += 1
        if not ok_fast and w_old[1] != 0.0:
            fast.state[2] += 1


def push_pair(slow: DDFWindow, fast: DDFWindow, x_aug: np.ndarray,
              w_slow: float, w_fast: float):
    """Record x_aug in a shadow pair's two windows, weighted w_slow and w_fast.

    The two windows record and evict every sample together, so they share
    one samples array and keep equal heads and fills: a push on one of
    them alone would rewrite its partner's samples. Most shadow pairs
    restart before they fill, so the samples array grows by doubling until
    it spans the ring. Returns (sample, weights) for an eviction in which
    either weight is nonzero, else None.
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

    def counts(self) -> np.ndarray:
        """Per-row fills and skipped counts, (2, rows) (a view)."""
        return self.state[1:]

    def window(self, row: int) -> DDFWindow:
        """Row ``row``'s ring as a DDFWindow of views into the stacks."""
        window = DDFWindow(self.capacity)
        window.samples = self.samples[row]
        window.weights = self.weights[row]
        window.state = self.state[:, row]
        return window

    def set_rows(self, rows: np.ndarray, extra: list[DDFWindow] = ()) -> None:
        """Rebuild the stacks as a gather: new row i copies row ``rows[i]``.

        Index n + j past the current n rows addresses the standalone window
        ``extra[j]``, and one past those a blank ring; only the windows
        referenced are copied. Given a structural change's consequent rows
        and the shadow windows in stack order, each rule's window follows
        its consequent. ValueError if a window's capacity is not the bank's.
        """
        cap = self.capacity
        samples, weights, state = self.samples, self.weights, self.state
        current = state.shape[1]
        outside = np.flatnonzero(rows >= current)
        if outside.shape[0]:
            extra = [extra[j] if j < len(extra) else DDFWindow(cap)
                     for j in (rows[outside] - current).tolist()]
            if any(window.capacity != cap for window in extra):
                raise ValueError(f"a window's capacity differs from the "
                                 f"bank's {cap}")
            rows = rows.copy()
            rows[outside] = current + np.arange(len(extra))
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

    def forget(self, system, x_aug: np.ndarray, weights: np.ndarray) -> None:
        """Record x_aug in every ring, row i with weights[i], and downdate
        row i of ``system`` by what it evicts, all in one downdate_rows
        call. A row whose guard trips keeps its matrix and counts the skip.
        """
        evicted = self.push(x_aug, weights)
        if evicted is not None:
            rows, xs, ws = evicted
            ok = system.downdate_rows(rows, xs, ws)
            if not ok.all():
                failed = np.flatnonzero(~ok)
                self.state[2, failed if rows is None else rows[failed]] += 1

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
