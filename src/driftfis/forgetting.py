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
weight each), a head, a fill and a ``skipped`` count. Only WindowBank
writes and reads a ring: it records samples (push, record), evicts and
sheds them (forget for the principal rows, forget_pair for a shadow
pair), counts the skips, reads the held entries (entries), moves the
windows with their consequents (set_rows) and loads them (load). A
DDFWindow is one bank row seen from outside, as a one-row bank of views:
``len()``, ``capacity``, ``skipped``, ``ordered()`` and ``push``.
"""

from __future__ import annotations

import numpy as np


class DDFWindow:
    """FIFO memory of the weighted samples currently inside a consequent:
    row ``row`` of a WindowBank, read and written as a one-row bank of
    views into that row.

    ``samples`` (capacity, k), ``weights`` (capacity,) and ``state`` are
    views of the row's ring slots and of its head, fill and ``skipped``,
    the count of evictions abandoned because the downdate denominator was
    within the guard of zero (the sample leaves memory, its weight stays
    baked into the correlation matrix). An empty slot holds a zero sample
    of weight 0.0. A window read before a structural change keeps the old
    arrays, cut off from the bank (WindowBank.set_rows builds new ones).
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
        return int(self.state[1])

    def ordered(self) -> tuple[np.ndarray, np.ndarray]:
        """The held samples and weights, oldest first."""
        return self._ring.entries()

    def push(self, x_aug: np.ndarray, weight: float) -> tuple[np.ndarray, float] | None:
        """Record a sample; return the evicted (x, weight) pair on overflow."""
        departed = self._ring.record(0, x_aug, (weight,))
        if departed is None:
            return None
        return departed[0], float(departed[1][0])


class WindowBank:
    """The rings of every window, stacked: row r is FuzzySystem row r's.

    ``samples`` is (rows, capacity, k), ``weights`` (rows, capacity) and
    ``state`` (3, rows): head, fill and skipped per row. Every window
    shares the bank's capacity. Recording a sample in every principal
    window is one scatter over the leading rows (forget); a shadow pair's
    two rows record each sample together (forget_pair), so they keep equal
    heads and fills and hold the same samples.
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
        return DDFWindow(self, row)

    def set_rows(self, rows: np.ndarray) -> None:
        """Rebuild the stacks as a gather: new row i copies row ``rows[i]``.

        An index at or past the current row count makes a blank ring:
        zero samples of weight 0, with head, fill and skipped 0. Given the
        consequent rows of a structural change (FuzzySystem.set_rows), each
        window follows its consequent.
        """
        cap = self.capacity
        n = rows.shape[0]
        kept = rows < self.state.shape[1]
        src = rows[kept]
        samples = np.empty((n, cap, self.n_inputs))
        weights = np.zeros((n, cap))
        state = np.zeros((3, n), dtype=np.int64)
        samples[~kept] = 0.0
        samples[kept] = self.samples[src]
        weights[kept] = self.weights[src]
        state[:, kept] = self.state[:, src]
        self._bind(samples, weights, state)

    def _bind(self, samples: np.ndarray, weights: np.ndarray,
              state: np.ndarray) -> None:
        """Take these arrays as the stacks, with flat views of the rings."""
        n, cap = weights.shape
        self.samples, self.weights, self.state = samples, weights, state
        self._head = state[0]
        self._fill = state[1]
        self._flat_x = samples.reshape(n * cap, self.n_inputs)
        self._flat_w = weights.reshape(n * cap)
        self._base = np.arange(n, dtype=np.int64) * cap

    def load(self, entries: list) -> None:
        """Rebuild the bank from each row's (samples, weights, skipped):
        the held entries, oldest first, in the leading slots. ValueError if
        a row holds more entries than the capacity."""
        cap = self.capacity
        self.set_rows(np.full(len(entries), self.state.shape[1]))
        for row, (xs, ws, skipped) in enumerate(entries):
            fill = len(ws)
            if fill > cap:
                raise ValueError(f"window holds {fill} entries, more than "
                                 f"its capacity {cap}")
            self.samples[row, :fill] = xs
            self.weights[row, :fill] = ws
            self.state[:, row] = (fill % cap, fill, skipped)

    def forget(self, system, x_aug: np.ndarray, weights: np.ndarray) -> None:
        """Record x_aug in the leading rings, row i with weights[i], and
        downdate row i of ``system`` by what departs, all in one in-place
        downdate_rows call. A row whose guard trips counts the skip."""
        xs, ws = self.push(x_aug, weights)
        ok = system.downdate_rows(None, xs, ws)
        self.state[2, :weights.shape[0]] += ~ok

    def push(self, x_aug: np.ndarray, weights: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
        """Record x_aug in the leading ``len(weights)`` rings, row i with
        weights[i]; return copies of every row's departing samples and
        weights (a ring that is not full departs a blank slot)."""
        m = weights.shape[0]
        head = self._head[:m]
        flat = self._base[:m] + head
        departed = self._flat_x[flat], self._flat_w[flat]
        self._flat_x[flat] = x_aug
        self._flat_w[flat] = weights
        fill = self._fill[:m]
        np.minimum(fill + 1, self.capacity, out=fill)
        head += 1
        head[head == self.capacity] = 0
        return departed

    def record(self, row: int, x_aug: np.ndarray, weights) -> tuple | None:
        """Record x_aug in rows row to row + len(weights) - 1, which share
        a head and a fill, row + i weighted weights[i]. Returns a copy of
        the departing sample and the rows' departing weights (zeros
        included) when the rings were full, else None."""
        state = self.state
        head, fill = int(state[0, row]), int(state[1, row])
        stop = row + len(weights)
        departed = None
        if fill == self.capacity:
            departed = (self.samples[row, head].copy(),
                        self.weights[row:stop, head].copy())
        else:
            state[1, row:stop] = fill + 1
        self.samples[row:stop, head] = x_aug
        self.weights[row:stop, head] = weights
        state[0, row:stop] = head + 1 if head + 1 < self.capacity else 0
        return departed

    def forget_pair(self, system, row: int, x_aug: np.ndarray,
                    w_slow: float, w_fast: float) -> None:
        """Record x_aug in a shadow pair's rings, rows (row, row + 1),
        weighted w_slow and w_fast, and downdate the same rows of
        ``system`` by the sample they evict.

        The two rings record every sample together and evict it together.
        A side whose guard trips keeps its matrix and counts the skip.
        """
        departed = self.record(row, x_aug, (w_slow, w_fast))
        if departed is None:
            return
        ok_slow, ok_fast = system.downdate_row_pair(row, *departed)
        if not ok_slow:
            self.state[2, row] += 1
        if not ok_fast:
            self.state[2, row + 1] += 1

    def entries(self, start: int = 0, stop: int | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """The held samples and weights of rows ``start`` to ``stop`` (every
        row by default), each row's oldest first, in row order."""
        cap = self.capacity
        pos = np.arange(cap)
        fill = self._fill[start:stop]
        # slot of a row's j-th oldest entry: head - fill + j, modulo cap
        slots = (self._head[start:stop] - fill + cap)[:, None] + pos
        flat = slots[pos < fill[:, None]]
        flat %= cap
        flat += np.repeat(self._base[start:stop], fill)
        return self._flat_x.take(flat, axis=0), self._flat_w.take(flat)
