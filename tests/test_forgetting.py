"""Unit tests for deferred directional forgetting of WRLS conclusions."""

import copy
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfis.fis import augment
from driftfis.forgetting import WindowBank
from helpers import blank_system, entries


def blank_bank(capacity, k, n):
    """A window bank of n blank rows of the given capacity and sample size."""
    bank = WindowBank(capacity, k)
    # every index is past the empty bank's rows, so every row is blank
    bank.set_rows(np.arange(n))
    return bank


class Downdates:
    """A stand-in system for WindowBank.forget and forget_pair: records
    each downdate it is asked for and reports a pair's two sides ``ok``
    and the leading rows ``ok_rows``."""

    def __init__(self):
        self.calls = []      # pair downdates: (row, sample, weights)
        self.row_calls = []  # leading-row downdates: (start, samples, weights)
        self.ok = (True, True)
        self.ok_rows = None  # every row ok

    def downdate_row_pair(self, row, x, weights):
        self.calls.append((row, x.copy(), weights.tolist()))
        # like the kernel, a side departing weight 0 never trips the guard:
        # its denominator is 1
        return tuple(ok or w == 0.0 for ok, w in zip(self.ok, weights.tolist()))

    def downdate_rows(self, xs, weights, start=0):
        self.row_calls.append((start, xs.copy(), weights.tolist()))
        ok = np.ones(len(weights), dtype=bool)
        if self.ok_rows is not None:
            ok[:] = self.ok_rows
        return ok | (weights == 0.0)


class TestDDFWindow:
    def test_fifo_eviction_order(self):
        w = blank_bank(2, 1, 1).window(0)
        assert w.push(np.array([1.0]), 0.1) is None
        assert w.push(np.array([2.0]), 0.2) is None
        out = w.push(np.array([3.0]), 0.3)
        assert out is not None
        assert out[0][0] == 1.0 and out[1] == 0.1
        assert len(w) == 2

    def test_push_copies_input(self):
        w = blank_bank(3, 2, 1).window(0)
        x = np.array([1.0, 2.0])
        w.push(x, 0.5)
        x[0] = 99.0
        assert entries(w)[0][0][0] == 1.0

    def test_zero_weight_still_occupies_a_slot(self):
        # eviction timing depends on sample count, not on weight
        w = blank_bank(1, 1, 1).window(0)
        w.push(np.array([1.0]), 0.0)
        out = w.push(np.array([2.0]), 0.7)
        assert out is not None and out[1] == 0.0
        assert out[0].tolist() == [1.0]


class TestRecordSample:
    """Recording one sample in several windows at once: a shadow pair's
    two rows through forget_pair, the leading rows through record and
    forget."""

    def test_windows_share_one_read_only_sample(self):
        bank = blank_bank(3, 2, 2)
        x = np.array([1.0, 2.0])
        bank.forget_pair(Downdates(), 0, x, 0.5, 0.25)
        x[0] = 99.0
        # each row stores a copy of the sample, which the caller's array
        # no longer reaches
        windows = [bank.window(row) for row in range(2)]
        assert [entries(w)[0][0].tolist() for w in windows] == [[1.0, 2.0]] * 2
        assert [entries(w)[0][1] for w in windows] == [0.5, 0.25]
        bank = blank_bank(3, 2, 2)
        x = np.array([3.0, 4.0])
        bank.record(x, np.array([0.5, 0.25]))
        x[0] = 99.0
        windows = [bank.window(row) for row in range(2)]
        assert [entries(w)[0][0].tolist() for w in windows] == [[3.0, 4.0]] * 2
        assert [entries(w)[0][1] for w in windows] == [0.5, 0.25]

    def test_returns_every_departure(self):
        first = np.array([1.0, 1.0])
        blank = [0.0, 0.0]
        bank, system = blank_bank(2, 2, 3), Downdates()
        bank.forget(system, first, np.array([0.0, 0.7, 0.9]))
        bank.forget(system, np.array([1.0, 2.0]), np.array([0.5, 0.5, 0.4]))
        # while the rings fill, every row departs its blank head slot
        assert [(start, xs.tolist(), ws) for start, xs, ws in system.row_calls] \
            == [(0, [blank] * 3, [0.0] * 3)] * 2
        # row 2 restarts blank, rows 0 and 1 keep their full rings
        bank.set_rows(np.array([0, 1, 3]))
        windows = [bank.window(row) for row in range(3)]
        for step in (3.0, 4.0, 5.0):
            bank.forget(system, np.array([1.0, step]), np.array([0.1, 0.2, 0.3]))
        # row 0 departs a zero-weight sample, row 1 a weighted one, and
        # row 2, not full yet, a blank slot; then every row its oldest
        assert [(xs.tolist(), ws) for _, xs, ws in system.row_calls[2:]] == [
            ([first.tolist(), first.tolist(), blank], [0.0, 0.7, 0.0]),
            ([[1.0, 2.0], [1.0, 2.0], blank], [0.5, 0.5, 0.0]),
            ([[1.0, 3.0]] * 3, [0.1, 0.2, 0.3])]
        assert [len(w) for w in windows] == [2, 2, 2]
        # a pair downdates every eviction, weighted or not, once its rings
        # are full
        bank, system = blank_bank(1, 2, 2), Downdates()
        bank.forget_pair(system, 0, first, 0.0, 0.0)
        assert system.calls == []
        bank.forget_pair(system, 0, np.array([1.0, 2.0]), 0.0, 0.6)
        bank.forget_pair(system, 0, np.array([1.0, 3.0]), 0.1, 0.2)
        assert [(row, x.tolist(), weights) for row, x, weights in system.calls] \
            == [(0, first.tolist(), [0.0, 0.0]), (0, [1.0, 2.0], [0.0, 0.6])]


class DequeWindow:
    """Oracle: a window as a deque of (sample, weight) entries, with the
    push semantics the ring windows must reproduce."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = deque()
        self.skipped = 0

    def push(self, x, weight):
        self.entries.append((x.copy(), float(weight)))
        if len(self.entries) > self.capacity:
            return self.entries.popleft()
        return None


class RowModel:
    """A learner's windows, every bank row paired with its oracle.

    Bank row r is the window of stack row r: the n rules, then each rule's
    slow and fast row. A birth, a drift or a respawn hands
    WindowBank.set_rows every new row's consequent row, as the learner
    does, with an index past the current rows for a blank window; the
    oracles move by hand.
    """

    def __init__(self, capacity, k):
        self.capacity = capacity
        self.bank = WindowBank(capacity, k)
        self.oracles = []  # the oracle of each bank row
        self.n = 0         # rules
        self.system = Downdates()
        self.samples = 0
        self.k = k

    def follow(self, rows):
        """Gather the bank's rows and their oracles."""
        current = len(self.oracles)
        self.bank.set_rows(np.array(rows, dtype=np.intp))
        self.oracles = [copy.deepcopy(self.oracles[row]) if row < current
                        else DequeWindow(self.capacity) for row in rows]

    def slow_row(self, i):
        return self.n + 2 * i

    def kept_pairs(self, rules):
        return [row for i in rules for row in (self.slow_row(i),
                                               self.slow_row(i) + 1)]

    def birth(self):
        n, blank = self.n, len(self.oracles)
        # the newborn's consequent and its pair's are new rows
        self.follow(list(range(n)) + [blank]
                    + self.kept_pairs(range(n)) + [blank, blank])
        self.n += 1

    def drift(self, winner, strategy):
        n, blank = self.n, len(self.oracles)
        # the winner's two new rules take its slow and fast rows
        new_rows = [self.slow_row(winner), self.slow_row(winner) + 1]
        before, after = range(winner), range(winner + 1, n)
        if strategy == "global":
            # every other rule adopts its own slow row; all pairs restart
            self.follow([self.slow_row(i) for i in before] + new_rows
                        + [self.slow_row(i) for i in after]
                        + [blank] * (2 * n + 2))
        else:
            self.follow(list(before) + new_rows + list(after)
                        + self.kept_pairs(before) + [blank] * 4
                        + self.kept_pairs(after))
        self.n += 1

    def regather(self):
        """Rebuild the bank from its own rows."""
        self.follow(list(range(len(self.oracles))))

    def next_sample(self):
        self.samples += 1
        return np.arange(self.k) + 100.0 * self.samples

    def push_pair(self, winner, w0, w1, ok):
        x = self.next_sample()
        row = self.slow_row(winner)
        calls = self.system.calls
        before = len(calls)
        self.system.ok = ok
        self.bank.forget_pair(self.system, row, x, w0, w1)
        slow, fast = self.oracles[row:row + 2]
        out_slow, out_fast = slow.push(x, w0), fast.push(x, w1)
        assert (out_slow is None) == (out_fast is None)
        if out_slow is None:
            assert len(calls) == before
            return
        # every eviction is downdated, zero-weight ones included
        (got_row, old_x, old_w), = calls[before:]
        assert got_row == row
        assert old_x.tobytes() == out_slow[0].tobytes() == out_fast[0].tobytes()
        assert old_w == [out_slow[1], out_fast[1]]
        # a side whose guard trips counts a skip; one departing weight 0
        # never trips
        for oracle, side_ok, weight in zip((slow, fast), ok, old_w):
            oracle.skipped += not side_ok and weight != 0.0

    def push_leading(self, weights, ok):
        x = self.next_sample()
        calls = self.system.row_calls
        before = len(calls)
        self.system.ok_rows = ok
        self.bank.forget(self.system, x, np.array(weights))
        outs = [oracle.push(x, w) for oracle, w in zip(self.oracles, weights)]
        # one downdate over every leading row; a ring that is not full
        # departs a blank slot
        blank = (np.zeros(self.k), 0.0)
        expected = [blank if out is None else out for out in outs]
        (start, xs, ws), = calls[before:]
        assert start == 0
        assert xs.tobytes() == b"".join(x.tobytes() for x, _ in expected)
        assert ws == [w for _, w in expected]
        # a row whose guard trips counts a skip; one departing weight 0
        # never trips
        for oracle, row_ok, (_, weight) in zip(self.oracles, ok, expected):
            oracle.skipped += not row_ok and weight != 0.0

    def skip(self, row):
        self.bank.window(row).state[2] += 1
        self.oracles[row].skipped += 1

    def check(self):
        bank = self.bank
        for row, oracle in enumerate(self.oracles):
            window = bank.window(row)
            assert len(window) == len(oracle.entries)
            assert window.skipped == oracle.skipped
            got = entries(window)
            assert [w for _, w in got] == [w for _, w in oracle.entries]
            for (x, _), (ox, _) in zip(got, oracle.entries):
                assert x.tobytes() == ox.tobytes()
        # a pair's two rows move in lockstep, and the leading rows share
        # one recorded count
        pairs = bank.state[:2, self.n:]
        assert np.array_equal(pairs[:, ::2], pairs[:, 1::2])
        assert (bank.state[0, :self.n] == bank.state.item(0, 0)).all()
        xs, ws = bank.entries()
        flat = [entry for oracle in self.oracles for entry in oracle.entries]
        assert ws.tolist() == [w for _, w in flat]
        assert xs.tobytes() == b"".join(x.tobytes() for x, _ in flat)
        assert bank.counts()[1].tolist() == [o.skipped for o in self.oracles]


WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0])


GUARDS = st.sampled_from([(True, True), (True, False), (False, True),
                          (False, False)])


class TestWindowBank:
    # max_examples comes from the hypothesis profile (tests/conftest.py)
    @given(capacity=st.integers(1, 6), data=st.data())
    @settings(deadline=None)
    def test_rings_match_a_deque_oracle(self, capacity, data):
        model = RowModel(capacity, k=3)
        model.birth()
        for _ in range(data.draw(st.integers(1, 40), label="steps")):
            n = model.n
            op = data.draw(st.sampled_from(
                ["pair", "pair", "principal", "principal", "birth", "naive",
                 "global", "skip", "regather"]), label="op")
            if op == "pair":
                model.push_pair(data.draw(st.integers(0, n - 1)),
                                data.draw(WEIGHTS), data.draw(WEIGHTS),
                                data.draw(GUARDS))
            elif op == "principal":
                model.push_leading(
                    data.draw(st.lists(WEIGHTS, min_size=n, max_size=n)),
                    data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            elif op == "birth" and n < 4:
                model.birth()
            elif op in ("naive", "global") and n < 4:
                model.drift(data.draw(st.integers(0, n - 1)), op)
            elif op == "skip":
                model.skip(data.draw(st.integers(0, 3 * n - 1)))
            elif op == "regather":
                model.regather()
            model.check()

    def test_steady_state_evicts_every_leading_row_in_place(self, monkeypatch):
        system, bank = forgetting_rows(2, n=2)
        calls = []
        downdate = system.downdate_rows

        def spy(xs, ws, start=0):
            calls.append((start, ws.tolist()))
            return downdate(xs, ws, start)

        monkeypatch.setattr(system, "downdate_rows", spy)
        for step in range(3):
            ddf_step(system, bank, augment(np.full(2, step + 1.0)),
                     np.array([0.5, 0.25]), np.eye(2)[0])
        # every step downdates the leading rows in place: blank slots while
        # the rings fill, then the oldest samples
        assert calls == [(0, [0.0, 0.0])] * 2 + [(0, [0.5, 0.25])]
        assert bank.counts().tolist() == [[2, 2], [0, 0]]

    def test_window_capacity_must_match_the_bank(self):
        # every row has the bank's capacity: a loaded window holding more
        # entries does not fit
        with pytest.raises(ValueError, match="capacity"):
            WindowBank(3, 2).load([(np.ones((4, 2)), np.ones(4), 0)])

    def test_window_read_from_a_snapshot_pushes_in_order(self):
        # a loaded window holds its entries in its last slots, its recorded
        # count at 0, so its head is the blank slot 0
        bank = WindowBank(3, 2)
        bank.load([(np.array([[1.0, 1.0], [1.0, 2.0]]), np.array([0.5, 0.25]), 0),
                   (np.empty((0, 2)), np.empty(0), 2)])
        assert bank.state.tolist() == [[0, 0], [2, 0], [0, 2]]
        assert bank.weights.tolist() == [[0.0, 0.5, 0.25], [0.0] * 3]
        assert bank.samples[0].tolist() == [[0.0, 0.0], [1.0, 1.0], [1.0, 2.0]]
        window = bank.window(0)
        assert window.push(np.array([1.0, 3.0]), 0.125) is None
        evicted = window.push(np.array([1.0, 4.0]), 1.0)
        assert evicted[0].tolist() == [1.0, 1.0] and evicted[1] == 0.5
        assert [x[1] for x, _ in entries(window)] == [2.0, 3.0, 4.0]
        assert len(bank.window(1)) == 0 and bank.window(1).skipped == 2

    def test_windows_keep_their_contents_through_a_repack(self):
        bank = blank_bank(2, 2, 2)
        window = bank.window(1)
        window.state[2] = 1
        window.push(np.array([1.0, 2.0]), 0.5)
        # row 1 moves to row 0, row 0 is dropped and a blank row follows
        bank.set_rows(np.array([1, 2]))
        window = bank.window(0)
        assert entries(window)[0][1] == 0.5 and window.skipped == 1
        # the repack puts the entry in the last slot, recorded 0 and held 1
        assert bank.weights.tolist() == [[0.0, 0.5], [0.0, 0.0]]
        assert bank.state.tolist() == [[0, 0], [1, 0], [1, 0]]
        # the window read from the bank reads and writes its ring
        window.push(np.array([3.0, 4.0]), 0.25)
        assert bank.weights.tolist() == [[0.25, 0.5], [0.0, 0.0]]
        assert bank.state.tolist() == [[1, 0], [1, 0], [1, 0]]
        assert [w for _, w in entries(window)] == [0.5, 0.25]

    def test_set_rows_and_load_lay_out_the_same_entries_alike(self):
        cap = 3
        bank = blank_bank(cap, 2, 5)
        # the leading rows wrap their rings, the pair fills 2 of 3 slots
        # and row 4 stays empty
        for i in range(5):
            bank.record(np.array([1.0, i]), np.array([0.5 + i, 0.25 * i]))
        for i in range(2):
            bank.record(np.array([2.0, i]), (0.125 * i, 1.0), 2)
        bank.state[2] = [1, 2, 3, 4, 5]
        held = [(*bank.entries(row, row + 1), bank.state.item(2, row))
                for row in range(5)]
        bank.set_rows(np.arange(5))
        loaded = WindowBank(cap, 2)
        loaded.load(held)
        # every row's entries end in its last slot, blanks before them, and
        # its recorded count is 0
        for repacked in (bank, loaded):
            assert repacked.state.tolist() == [[0] * 5, [3, 3, 2, 2, 0],
                                               [1, 2, 3, 4, 5]]
            for row, (xs, ws, _) in enumerate(held):
                fill = len(ws)
                assert repacked.samples[row, cap - fill:].tobytes() == xs.tobytes()
                assert repacked.weights[row, cap - fill:].tolist() == ws.tolist()
                assert not repacked.samples[row, :cap - fill].any()
                assert not repacked.weights[row, :cap - fill].any()
        assert bank.samples.tobytes() == loaded.samples.tobytes()
        assert bank.weights.tobytes() == loaded.weights.tobytes()
        assert bank.state.tobytes() == loaded.state.tobytes()

    @pytest.mark.parametrize("strategy", ["naive", "global"])
    def test_pair_ring_turned_principal_evicts_its_oldest_entry(self, strategy):
        model = RowModel(3, k=2)
        model.birth()
        model.birth()
        # rule 0's pair wraps its rings; the leading rows and rule 1's pair
        # record out of step with it
        for _ in range(4):
            model.push_pair(0, 0.5, 0.25, (True, True))
        model.push_pair(1, 1.0, 0.5, (True, True))
        model.push_leading([1.0, 0.5], [True, True])
        # rule 0's slow and fast rings become principal rows 0 and 1
        model.drift(0, strategy)
        model.check()
        oldest = [model.oracles[row].entries[0] for row in (0, 1)]
        model.push_leading([0.25, 0.25, 0.25], [True] * 3)
        _, xs, ws = model.system.row_calls[-1]
        for row, (x, weight) in enumerate(oldest):
            assert xs[row].tobytes() == x.tobytes() and ws[row] == weight
        model.check()


def forgetting_rows(ws, n=1, d=2, c=2, omega=100.0):
    """A blank n-row system and a principal window bank of capacity ws."""
    return blank_system(d, c, [omega] * n), blank_bank(ws, d + 1, n)


def ddf_step(system, bank, x_aug, weights, target):
    """A WRLS step of every row, then the deferred forgetting of what the
    windows evict."""
    system.wrls_step(x_aug, weights, target)
    bank.forget(system, x_aug, weights)


class TestDdfUpdate:
    """Deferred forgetting through WindowBank.forget."""

    def test_window_size_one_keeps_only_newest(self):
        # after p1 then p2 with ws=1: C^-1 == Omega^-1 I + w2 x2 x2^T, per row
        omega = 100.0
        system, bank = forgetting_rows(1, n=2, c=1, omega=omega)
        rng = np.random.default_rng(30)
        x1, x2 = augment(rng.standard_normal(2)), augment(rng.standard_normal(2))
        ddf_step(system, bank, x1, np.array([0.8, 0.3]), np.array([1.0]))
        ddf_step(system, bank, x2, np.array([0.6, 0.9]), np.array([0.0]))
        for row, w2 in enumerate((0.6, 0.9)):
            lhs = np.linalg.inv(system._corrs[row])
            rhs = np.eye(3) / omega + w2 * np.outer(x2, x2)
            assert np.linalg.norm(lhs - rhs) < 1e-8

    def test_large_window_equals_plain_wrls(self):
        rng = np.random.default_rng(31)
        system, bank = forgetting_rows(1000, n=3)
        plain = blank_system(2, 2, [100.0] * 3)
        for _ in range(50):
            x = augment(rng.standard_normal(2))
            w = rng.uniform(0, 1, size=3)
            y = np.eye(2)[int(rng.integers(0, 2))]
            ddf_step(system, bank, x, w, y)
            plain.wrls_step(x, w, y)
        assert np.array_equal(system._corrs, plain._corrs)
        assert np.array_equal(system._coeffs, plain._coeffs)
        assert not bank.counts()[1].any()

    def test_zero_weight_eviction_is_noop(self):
        system, bank = forgetting_rows(1, n=2)
        ddf_step(system, bank, augment(np.zeros(2)), np.zeros(2), np.eye(2)[0])
        before = system._corrs.copy()
        ddf_step(system, bank, augment(np.ones(2)), np.array([0.5, 0.25]),
                 np.eye(2)[1])
        # the evicted entries had weight 0, so only the increment of the new
        # sample separates the two states
        expected = blank_system(2, 2, [100.0] * 2)
        expected.wrls_step(augment(np.ones(2)), np.array([0.5, 0.25]), np.eye(2)[1])
        assert np.array_equal(system._corrs, expected._corrs)
        assert not np.array_equal(system._corrs, before)

    def test_window_consistency_random_stream(self):
        rng = np.random.default_rng(32)
        omega = 100.0
        system, bank = forgetting_rows(20, n=3, d=3, omega=omega)
        for step in range(400):
            x = augment(rng.standard_normal(3))
            w = rng.uniform(0, 1, size=3)
            y = np.eye(2)[int(rng.integers(0, 2))]
            ddf_step(system, bank, x, w, y)
            for row in range(3):
                # C^-1 must equal the prior plus exactly the window contents
                ident = np.eye(4) / omega
                for wx, ww in entries(bank.window(row)):
                    ident += ww * np.outer(wx, wx)
                corr = system._corrs[row]
                assert np.linalg.norm(np.linalg.inv(corr) - ident) < 1e-6
                # and C stays symmetric positive definite
                assert np.min(np.linalg.eigvalsh(corr)) > 0.0

    def test_draining_window_restores_prior(self):
        # evicting every stored entry by hand returns C to Omega I
        rng = np.random.default_rng(33)
        omega = 100.0
        system, bank = forgetting_rows(30, n=2, omega=omega)
        for _ in range(25):
            ddf_step(system, bank, augment(rng.standard_normal(2)),
                     rng.uniform(0.05, 1, size=2), np.eye(2)[0])
        for row in range(2):
            for x, w in entries(bank.window(row)):
                assert system.downdate_row(row, x, w)
            assert np.linalg.norm(system._corrs[row] - omega * np.eye(3)) < 1e-6

    def test_coefficients_never_decremented(self):
        # eviction rewrites C only; within a step the coefficients move
        # exactly as a plain WRLS step from the same starting state would
        rng = np.random.default_rng(34)
        system, bank = forgetting_rows(5, n=2)
        for step in range(30):
            x = augment(rng.standard_normal(2))
            w = rng.uniform(0.1, 1, size=2)
            y = np.eye(2)[int(rng.integers(0, 2))]
            reference = copy.deepcopy(system)
            ddf_step(system, bank, x, w, y)
            reference.wrls_step(x, w, y)
            assert np.array_equal(system._coeffs, reference._coeffs)
            if step >= 5:  # eviction active: C must have moved past plain WRLS
                for row in range(2):
                    assert not np.array_equal(system._corrs[row],
                                              reference._corrs[row])

    def test_near_singular_eviction_skipped_and_counted(self):
        # rounding floors the denominator reachable through ordinary update
        # sequences around 1e-6, so build the degenerate state by hand: the
        # evicted entry's weight almost exactly exhausts C along its
        # direction, putting 1 - w x'Cx inside the guard band
        system, bank = forgetting_rows(1, d=1, c=1)
        system._corrs[0] = [[1.0 + 1e-9, 0.0], [0.0, 1.0]]
        bank.record(np.array([1.0, 0.0]), np.array([1.0]))
        corr_before = system._corrs.copy()
        coeffs_before = system._coeffs.copy()
        ddf_step(system, bank, np.array([0.0, 1.0]), np.zeros(1), np.array([0.0]))
        assert bank.counts()[1].tolist() == [1]
        # the skipped eviction leaves the state untouched: zero-weight
        # increment plus refused downdate means nothing moved
        assert np.array_equal(system._corrs, corr_before)
        assert np.array_equal(system._coeffs, coeffs_before)
        # the window itself still rotated to the new sample
        window = bank.window(0)
        assert len(window) == 1
        assert entries(window)[0][1] == 0.0


class TestForgetMatchesPerRowDowndates:
    """WindowBank.forget against deques and one downdate_row per weighted
    eviction, through blank, zero-weight, weighted and guard-tripped
    departures."""

    @pytest.mark.parametrize("capacity", [1, 2, 5])
    def test_bit_for_bit(self, capacity):
        rng = np.random.default_rng(35 + capacity)
        n = 4
        system, bank = forgetting_rows(capacity, n=n, d=1, c=2)
        oracle = copy.deepcopy(system)
        deques, skipped = [DequeWindow(capacity) for _ in range(n)], [0] * n
        first = np.array([1.0, 0.0])
        for step in range(40):
            x = first if step == 0 else augment(rng.standard_normal(1))
            weights = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
            if step == 0:
                weights[:] = [1.0, 0.0, 0.5, 1.0]
            elif step == capacity:
                # row 0 departs ``first`` at weight 1 from a correlation
                # that trips the guard on it; weight 0 keeps it there
                weights[0] = 0.0
                for stack in (system, oracle):
                    stack._corrs[0] = NEAR_SINGULAR
            target = np.eye(2)[step % 2]
            ddf_step(system, bank, x, weights, target)
            oracle.wrls_step(x, weights, target)
            for row, (window, w) in enumerate(zip(deques, weights)):
                out = window.push(x, w)
                if out is not None and out[1] != 0.0:
                    skipped[row] += not oracle.downdate_row(row, *out)
            assert system._corrs.tobytes() == oracle._corrs.tobytes()
            assert system._coeffs.tobytes() == oracle._coeffs.tobytes()
            assert bank.counts()[1].tolist() == skipped
        assert skipped[0] == 1


class TestDowndateOnRingViews:
    """forget hands downdate_rows the departing slots as strided views of
    the rings, not copies; the kernel must give the bits of copies."""

    @staticmethod
    def assert_views_match_copies(system, bank):
        head = bank.state.item(0, 0) % bank.capacity
        xs, ws = bank.samples[:, head], bank.weights[:, head]
        assert np.shares_memory(xs, bank.samples)
        assert np.shares_memory(ws, bank.weights)
        if xs.shape[0] > 1:
            assert not xs.flags.c_contiguous and not ws.flags.c_contiguous
        reference = copy.deepcopy(system)
        ok = system.downdate_rows(xs, ws)
        ok_copy = reference.downdate_rows(xs.copy(), ws.copy())
        assert ok.tobytes() == ok_copy.tobytes()
        assert system._corrs.tobytes() == reference._corrs.tobytes()
        return ok

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_strided_views_match_contiguous_copies(self, d):
        rng = np.random.default_rng(40 + d)
        capacity = 4
        for _ in range(40):
            n = int(rng.integers(1, 12))
            system, bank = forgetting_rows(capacity, n=n, d=d)
            for step in range(int(rng.integers(capacity, 2 * capacity))):
                x = augment(rng.standard_normal(d))
                weights = rng.choice([0.0, 0.25, 1.0], size=n)
                system.wrls_step(x, weights, np.eye(2)[step % 2])
                bank.record(x, weights)
            self.assert_views_match_copies(system, bank)

    def test_tripped_row_in_the_mask(self):
        system, bank = forgetting_rows(2, n=2, d=1, c=1)
        bank.record(np.array([1.0, 0.0]), np.array([1.0, 0.5]))
        bank.record(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        system._corrs[:] = NEAR_SINGULAR
        ok = self.assert_views_match_copies(system, bank)
        assert ok.tolist() == [False, True]


# a correlation whose downdate by weight 1.0 along (1, 0) has the
# denominator 1 - w x'Cx = -1e-9, inside the guard; ordinary update
# sequences floor it near 1e-6, so it is written by hand
NEAR_SINGULAR = [[1.0 + 1e-9, 0.0], [0.0, 1.0]]


class TestSkipCounting:
    """A refused downdate counts one skip on the window that evicted."""

    def test_partial_principal_eviction_counts_on_the_tripped_row(self, monkeypatch):
        system, bank = forgetting_rows(1, n=3, d=1, c=1)
        # row 0 records weight 0.0, so only rows 1 and 2 evict next step
        ddf_step(system, bank, np.array([1.0, 0.0]), np.array([0.0, 0.5, 1.0]),
                 np.array([1.0]))
        system._corrs[2] = NEAR_SINGULAR
        calls = []
        downdate = system.downdate_rows

        def spy(xs, ws, start=0):
            calls.append((start, ws.tolist()))
            return downdate(xs, ws, start)

        monkeypatch.setattr(system, "downdate_rows", spy)
        ddf_step(system, bank, np.array([0.0, 1.0]), np.zeros(3), np.array([0.0]))
        # one call over every leading row; row 0's zero weight leaves it be
        assert calls == [(0, [0.0, 0.5, 1.0])]
        assert bank.counts()[1].tolist() == [0, 0, 1]

    @pytest.mark.parametrize("side", [0, 1])
    def test_weighted_pair_side_that_trips_counts_one_skip(self, side):
        system = blank_system(1, 1, [100.0, 100.0])
        bank = blank_bank(1, 2, 2)
        weights = [0.5, 0.5]
        weights[side] = 1.0
        x = np.array([1.0, 0.0])
        system.wrls_step(x, np.array(weights), np.array([1.0]))
        bank.forget_pair(system, 0, x, *weights)
        system._corrs[side] = NEAR_SINGULAR
        bank.forget_pair(system, 0, np.array([0.0, 1.0]), 0.5, 0.5)
        assert bank.counts()[1].tolist() == [int(side == 0), int(side == 1)]

    def test_zero_weight_pair_side_that_trips_counts_no_skip(self):
        # both sides hold a correlation that trips the guard at weight 1;
        # the slow side departs weight 0, whose denominator is exactly 1.0,
        # so only the fast side trips, and neither matrix moves
        system = blank_system(1, 1, [100.0, 100.0])
        bank = blank_bank(1, 2, 2)
        bank.forget_pair(system, 0, np.array([1.0, 0.0]), 0.0, 1.0)
        system._corrs[:] = NEAR_SINGULAR
        before = system._corrs.tobytes()
        bank.forget_pair(system, 0, np.array([0.0, 1.0]), 0.5, 0.5)
        assert bank.counts()[1].tolist() == [0, 1]
        assert system._corrs.tobytes() == before
