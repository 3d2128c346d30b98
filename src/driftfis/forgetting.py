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

Every departure is downdated: a blank slot departs a zero sample of
weight 0, and weight 0 leaves a matrix unchanged bit for bit (see the fis
module docstring) with a denominator of exactly 1, so no skip counts.

Every window is a row of one WindowBank, and bank row r is the window of
FuzzySystem row r: the principal rules first, then each rule's slow and
fast sub-rule. A window is a ring of ``capacity`` slots (a sample and its
weight each) and three counts: recorded, held and skipped. Only
WindowBank writes and reads a ring. Its one writer, record, writes a
sample into rows recorded together (the leading principal rows, a shadow
pair) at the slot they share; forget and forget_pair downdate by what
departs from that slot, count the skips, then record. set_rows and load
only repack. A DDFWindow is one bank row seen from outside, as a one-row
bank of views: ``len()``, ``capacity``, ``skipped``, ``ordered()`` and
``push``.
"""

from __future__ import annotations

import numpy as np


class DDFWindow:
    """FIFO memory of the weighted samples currently inside a consequent:
    row ``row`` of a WindowBank, read and written as a one-row bank of
    views into that row.

    ``samples`` (capacity, k), ``weights`` (capacity,) and ``state`` are
    views of the row's ring slots and of its three counts (see
    WindowBank): recorded, held and ``skipped``, the count of evictions
    abandoned because the downdate denominator was within the guard of
    zero (the sample leaves memory, its weight stays baked into the
    correlation matrix). An empty slot holds a zero sample of weight 0.0.
    A window read before a structural change keeps the old arrays, cut off
    from the bank (WindowBank.set_rows builds new ones).
    """

    def __init__(self, bank: "WindowBank", row: int):
        ring = self._ring = WindowBank(bank.capacity, bank.n_inputs)
        ring._bind(bank.samples[row:row + 1], bank.weights[row:row + 1],
                   bank.state[:, row:row + 1])
        self.capacity = bank.capacity
        self.samples, self.weights = ring.samples[0], ring.weights[0]
        self.state = ring.state[:, 0]

    @property
    def skipped(self) -> int:
        return int(self.state[2])

    def __len__(self) -> int:
        return min(int(self.state[0] + self.state[1]), self.capacity)

    def ordered(self) -> tuple[np.ndarray, np.ndarray]:
        """The held samples and weights, oldest first."""
        return self._ring.entries()

    def push(self, x_aug: np.ndarray, weight: float) -> tuple[np.ndarray, float] | None:
        """Record a sample in this row alone (out of step with the rows a
        forget records with it); return the evicted (x, weight) pair on
        overflow."""
        departed = None
        if len(self) == self.capacity:
            head = self.state.item(0) % self.capacity
            departed = self.samples[head].copy(), self.weights.item(head)
        self._ring.record(x_aug, (weight,))
        return departed


class WindowBank:
    """The rings of every window, stacked: row r is FuzzySystem row r's.

    ``samples`` is (rows, capacity, k), ``weights`` (rows, capacity) and
    ``state`` (3, rows): per row, the samples recorded since the last
    repack, the entries held at that repack, and the skipped count. Every
    window shares the bank's capacity. A repack (set_rows, load) puts a
    ring's entries, oldest first, in its last slots, blanks before them,
    and its recorded count to 0. So a row's head, the slot its next sample
    takes, is recorded mod capacity, and holds the oldest entry once the
    ring is full (fill = min(recorded + held, capacity)), a blank before.
    Rows recorded together keep one head and one fill: the leading
    principal rows, which every forget records, and each shadow pair.
    """

    def __init__(self, capacity: int, n_inputs: int):
        self.capacity = capacity
        self.n_inputs = n_inputs
        self._bind(np.empty((0, capacity, n_inputs)), np.empty((0, capacity)),
                   np.empty((3, 0), dtype=np.int64))

    def counts(self) -> np.ndarray:
        """Per-row fills and skipped counts, (2, rows) (a new array)."""
        recorded, held, skipped = self.state
        return np.array((np.minimum(recorded + held, self.capacity), skipped))

    def window(self, row: int) -> DDFWindow:
        """Row ``row``'s ring as a DDFWindow of views into the stacks."""
        return DDFWindow(self, row)

    def set_rows(self, rows: np.ndarray) -> None:
        """Rebuild the stacks as a gather: new row i holds row ``rows[i]``'s
        ring, repacked, and skipped count.

        An index at or past the current row count makes a blank ring:
        zero samples of weight 0, with every count 0. Given the consequent
        rows of a structural change (FuzzySystem.set_rows), each window
        follows its consequent.
        """
        cap = self.capacity
        n = rows.shape[0]
        kept = rows < self.state.shape[1]
        src = rows[kept]
        recorded, held, skipped = self.state[:, src]
        # the repack is a rotation: new slot j takes old slot head + j
        flat = (recorded % cap)[:, None] + np.arange(cap)
        flat %= cap
        flat += self._base[src, None]
        samples = np.empty((n, cap, self.n_inputs))
        weights = np.zeros((n, cap))
        state = np.zeros((3, n), dtype=np.int64)
        samples[~kept] = 0.0
        samples[kept] = self._flat_x.take(flat, axis=0)
        weights[kept] = self._flat_w.take(flat)
        state[1, kept] = np.minimum(recorded + held, cap)
        state[2, kept] = skipped
        self._bind(samples, weights, state)

    def _bind(self, samples: np.ndarray, weights: np.ndarray,
              state: np.ndarray) -> None:
        """Take these arrays as the stacks, with flat views of the rings."""
        n, cap = weights.shape
        self.samples, self.weights, self.state = samples, weights, state
        self._flat_x = samples.reshape(n * cap, self.n_inputs)
        self._flat_w = weights.reshape(n * cap)
        self._base = np.arange(n, dtype=np.int64) * cap

    def load(self, entries: list) -> None:
        """Rebuild the bank from each row's (samples, weights, skipped): the
        held entries, oldest first, repacked as by set_rows. ValueError if
        a row holds more entries than the capacity."""
        cap = self.capacity
        self.set_rows(np.full(len(entries), self.state.shape[1]))
        for row, (xs, ws, skipped) in enumerate(entries):
            fill = len(ws)
            if fill > cap:
                raise ValueError(f"window holds {fill} entries, more than "
                                 f"its capacity {cap}")
            self.samples[row, cap - fill:] = xs
            self.weights[row, cap - fill:] = ws
            self.state[:, row] = (0, fill, skipped)

    def record(self, x_aug: np.ndarray, weights, start: int = 0) -> None:
        """Record x_aug in rows start to start + len(weights) - 1, row
        start + i weighted weights[i]. The rows share row ``start``'s
        recorded count, and so its head, where a full ring's oldest entry
        is overwritten."""
        stop = start + len(weights)
        recorded = self.state.item(0, start)
        head = recorded % self.capacity
        self.samples[start:stop, head] = x_aug
        self.weights[start:stop, head] = weights
        self.state[0, start:stop] = recorded + 1

    def forget(self, system, x_aug: np.ndarray, weights: np.ndarray) -> None:
        """Downdate row i of ``system`` by what leading ring i evicts, the
        entry at the rings' shared head (a blank one while it fills), all
        in one downdate_rows call, then record x_aug in those rings, row i
        with weights[i]. A row whose guard trips counts the skip."""
        m = weights.shape[0]
        head = self.state.item(0, 0) % self.capacity
        ok = system.downdate_rows(self.samples[:m, head], self.weights[:m, head])
        self.state[2, :m] += ~ok
        self.record(x_aug, weights)

    def forget_pair(self, system, row: int, x_aug: np.ndarray,
                    w_slow: float, w_fast: float) -> None:
        """Downdate a shadow pair's rows (row, row + 1) of ``system`` by
        the sample their full rings evict, then record x_aug in both,
        weighted w_slow and w_fast. A side whose guard trips keeps its
        matrix and counts the skip."""
        state = self.state
        recorded = state.item(0, row)
        if recorded + state.item(1, row) >= self.capacity:
            head = recorded % self.capacity
            ok_slow, ok_fast = system.downdate_row_pair(
                row, self.samples[row, head], self.weights[row:row + 2, head])
            if not ok_slow:
                state[2, row] += 1
            if not ok_fast:
                state[2, row + 1] += 1
        self.record(x_aug, (w_slow, w_fast), row)

    def entries(self, start: int = 0, stop: int | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """The held samples and weights of rows ``start`` to ``stop`` (every
        row by default), each row's oldest first, in row order."""
        cap = self.capacity
        pos = np.arange(cap)
        recorded, held = self.state[:2, start:stop]
        fill = np.minimum(recorded + held, cap)
        # slot of a row's j-th oldest entry: recorded - fill + j, modulo cap
        slots = (recorded - fill)[:, None] + pos
        flat = slots[pos < fill[:, None]]
        flat %= cap
        flat += np.repeat(self._base[start:stop], fill)
        return self._flat_x.take(flat, axis=0), self._flat_w.take(flat)
