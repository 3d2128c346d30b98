"""Unit tests for deferred directional forgetting of WRLS conclusions."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfis.fis import Consequent, augment, one_hot, wrls_update
from driftfis.forgetting import DDFWindow, WindowBank, ddf_update, push_pair
from driftfis.linalg import corr_decrement


def blank_consequent(d=2, c=2, omega=100.0):
    return Consequent(coeffs=np.zeros((d + 1, c)), corr=omega * np.eye(d + 1))


class TestDDFWindow:
    def test_fifo_eviction_order(self):
        w = DDFWindow(2)
        assert w.push(np.array([1.0]), 0.1) is None
        assert w.push(np.array([2.0]), 0.2) is None
        out = w.push(np.array([3.0]), 0.3)
        assert out is not None
        assert out[0][0] == 1.0 and out[1] == 0.1
        assert len(w) == 2

    def test_push_copies_input(self):
        w = DDFWindow(3)
        x = np.array([1.0, 2.0])
        w.push(x, 0.5)
        x[0] = 99.0
        assert w.entries[0][0][0] == 1.0

    def test_zero_weight_still_occupies_a_slot(self):
        # eviction timing depends on sample count, not on weight
        w = DDFWindow(1)
        w.push(np.array([1.0]), 0.0)
        out = w.push(np.array([2.0]), 0.7)
        assert out is not None and out[1] == 0.0


class TestRecordSample:
    """Recording one sample in several windows at once: a shadow pair's
    two windows through push_pair, the principal ones through a bank."""

    def test_windows_share_one_read_only_sample(self):
        slow, fast = DDFWindow(3), DDFWindow(3)
        x = np.array([1.0, 2.0])
        assert push_pair(slow, fast, x, 0.5, 0.25) is None
        x[0] = 99.0
        # one stored copy of the sample, which the caller's array no
        # longer reaches
        assert slow.samples is fast.samples
        assert slow.entries[0][0].tolist() == [1.0, 2.0]
        assert [w.entries[0][1] for w in (slow, fast)] == [0.5, 0.25]
        bank = WindowBank(3, 2)
        bank.set_rows(np.arange(2), [DDFWindow(3), DDFWindow(3)])
        x = np.array([3.0, 4.0])
        bank.push(x, np.array([0.5, 0.25]))
        x[0] = 99.0
        windows = [bank.window(row) for row in range(2)]
        assert [w.entries[0][0].tolist() for w in windows] == [[3.0, 4.0]] * 2
        assert [w.entries[0][1] for w in windows] == [0.5, 0.25]

    def test_returns_only_weighted_evictions(self):
        first = np.array([1.0, 1.0])
        windows = [DDFWindow(2), DDFWindow(2), DDFWindow(2)]
        windows[0].push(first, 0.0)
        windows[1].push(first, 0.7)
        bank = WindowBank(2, 2)
        bank.set_rows(np.arange(3), windows)
        windows = [bank.window(row) for row in range(3)]
        assert bank.push(np.array([1.0, 2.0]), np.array([0.5, 0.5, 0.4])) is None
        rows, xs, ws = bank.push(np.array([1.0, 3.0]),
                                 np.array([0.1, 0.2, 0.3]))
        # row 0 evicts a zero-weight sample, row 2 is not full yet
        assert rows.tolist() == [1]
        assert xs.tolist() == [first.tolist()] and ws.tolist() == [0.7]
        assert [len(w) for w in windows] == [2, 2, 2]
        # the evicted samples are copies, not views of the ring slots
        bank.push(np.array([1.0, 4.0]), np.array([0.1, 0.2, 0.3]))
        assert xs.tolist() == [first.tolist()]
        slow, fast = DDFWindow(1), DDFWindow(1)
        assert push_pair(slow, fast, first, 0.0, 0.0) is None
        assert push_pair(slow, fast, np.array([1.0, 2.0]), 0.0, 0.6) is None
        evicted = push_pair(slow, fast, np.array([1.0, 3.0]), 0.1, 0.2)
        assert evicted[0].tolist() == [1.0, 2.0]
        assert evicted[1].tolist() == [0.0, 0.6]


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
    """A learner's windows, every window paired with its oracle.

    The principal windows are the rows of a WindowBank, the shadow pairs'
    windows live outside it; drifts move windows between the two the way
    the learner does.
    """

    def __init__(self, capacity, k):
        self.capacity = capacity
        self.bank = WindowBank(capacity, k)
        self.rules = []   # the oracle of each principal row
        self.pairs = []   # ((window, oracle), (window, oracle)) per rule
        self.samples = 0
        self.k = k

    def fresh(self):
        return DDFWindow(self.capacity), DequeWindow(self.capacity)

    def rows(self):
        principal = [(self.bank.window(row), oracle)
                     for row, oracle in enumerate(self.rules)]
        return principal + [sub for pair in self.pairs for sub in pair]

    def birth(self):
        n = len(self.rules)
        self.bank.set_rows(np.arange(n + 1), [DDFWindow(self.capacity)])
        self.rules.append(DequeWindow(self.capacity))
        self.pairs.append((self.fresh(), self.fresh()))

    def drift(self, winner, strategy):
        n = len(self.rules)
        slow, fast = self.pairs[winner]
        if strategy == "global":
            # every other rule adopts its own slow window; all pairs restart
            moved = [pair[0] for pair in self.pairs]
            moved[winner:winner + 1] = [slow, fast]
            rows = np.arange(n, 2 * n + 1)
            self.pairs = [(self.fresh(), self.fresh()) for _ in moved]
        else:
            moved = [slow, fast]
            rows = np.concatenate((np.arange(winner), (n, n + 1),
                                   np.arange(winner + 1, n)))
            self.pairs[winner:winner + 1] = [(self.fresh(), self.fresh()),
                                             (self.fresh(), self.fresh())]
        self.bank.set_rows(rows, [window for window, _ in moved])
        oracles = [oracle for _, oracle in moved]
        self.rules = oracles if strategy == "global" else \
            self.rules[:winner] + oracles + self.rules[winner + 1:]

    def regather(self):
        """Rebuild the bank from its own rows, as a class growth does."""
        self.bank.set_rows(np.arange(len(self.rules)))

    def next_sample(self):
        self.samples += 1
        return np.arange(self.k) + 100.0 * self.samples

    def push_pair(self, winner, w0, w1):
        x = self.next_sample()
        (slow_window, slow), (fast_window, fast) = self.pairs[winner]
        got = push_pair(slow_window, fast_window, x, w0, w1)
        assert slow_window.samples is fast_window.samples
        out_slow, out_fast = slow.push(x, w0), fast.push(x, w1)
        assert (out_slow is None) == (out_fast is None)
        if out_slow is None or out_slow[1] == out_fast[1] == 0.0:
            assert got is None
            return
        old_x, old_w = got
        assert old_x.tobytes() == out_slow[0].tobytes() == out_fast[0].tobytes()
        assert old_w.tolist() == [out_slow[1], out_fast[1]]

    def push_leading(self, weights):
        x = self.next_sample()
        n = len(self.rules)
        got = self.bank.push(x, np.array(weights))
        outs = [oracle.push(x, w) for oracle, w in zip(self.rules, weights)]
        expected = [(i, out) for i, out in enumerate(outs)
                    if out is not None and out[1] != 0.0]
        if not expected:
            assert got is None
            return
        rows, xs, ws = got
        if len(expected) == n:
            assert rows is None
            rows = np.arange(n)
        assert rows.tolist() == [i for i, _ in expected]
        assert xs.tobytes() == b"".join(x.tobytes() for _, (x, _) in expected)
        assert ws.tolist() == [w for _, (_, w) in expected]

    def skip(self, row):
        window, oracle = self.rows()[row]
        window.skipped += 1
        oracle.skipped += 1

    def check(self):
        rows = self.rows()
        for window, oracle in rows:
            assert len(window) == len(oracle.entries)
            assert window.skipped == oracle.skipped
            got = window.entries
            assert [w for _, w in got] == [w for _, w in oracle.entries]
            for (x, _), (ox, _) in zip(got, oracle.entries):
                assert x.tobytes() == ox.tobytes()
        xs, ws = self.bank.entries()
        flat = [entry for oracle in self.rules for entry in oracle.entries]
        assert ws.tolist() == [w for _, w in flat]
        assert xs.tobytes() == b"".join(x.tobytes() for x, _ in flat)
        assert self.bank.skipped.tolist() == [o.skipped for o in self.rules]


WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0])


class TestWindowBank:
    @given(capacity=st.integers(1, 6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rings_match_a_deque_oracle(self, capacity, data):
        model = RowModel(capacity, k=3)
        model.birth()
        for _ in range(data.draw(st.integers(1, 40), label="steps")):
            n = len(model.rules)
            op = data.draw(st.sampled_from(
                ["pair", "pair", "principal", "principal", "birth", "naive",
                 "global", "skip", "regather"]), label="op")
            if op == "pair":
                model.push_pair(data.draw(st.integers(0, n - 1)),
                                data.draw(WEIGHTS), data.draw(WEIGHTS))
            elif op == "principal":
                model.push_leading(data.draw(st.lists(WEIGHTS, min_size=n,
                                                      max_size=n)))
            elif op == "birth" and n < 4:
                model.birth()
            elif op in ("naive", "global") and n < 4:
                model.drift(data.draw(st.integers(0, n - 1)), op)
            elif op == "skip":
                model.skip(data.draw(st.integers(0, 3 * n - 1)))
            elif op == "regather":
                model.regather()
            model.check()

    def test_steady_state_evicts_every_leading_row_in_place(self):
        model = RowModel(2, k=3)
        model.birth()
        model.birth()
        for _ in range(2):
            model.push_leading([0.5, 0.25])
        rows, xs, ws = model.bank.push(np.ones(3), np.array([1.0, 1.0]))
        assert rows is None
        assert ws.tolist() == [0.5, 0.25]

    def test_window_capacity_must_match_the_bank(self):
        with pytest.raises(ValueError, match="capacity"):
            WindowBank(3, 2).set_rows(np.arange(1), [DDFWindow(4)])

    def test_pair_samples_grow_until_they_span_the_ring(self):
        slow, fast = DDFWindow(6), DDFWindow(6)
        lengths = []
        for i in range(8):
            push_pair(slow, fast, np.array([1.0, float(i)]), 0.5, 0.25)
            assert slow.samples is fast.samples
            lengths.append(slow.samples.shape[0])
        assert lengths == [4, 4, 4, 4, 6, 6, 6, 6]
        assert [x[1] for x, _ in slow.entries] == [2.0, 3.0, 4.0, 5.0, 6.0, 7.0]

    def test_window_read_from_a_snapshot_pushes_in_order(self):
        # a loaded window holds only its entries, in the leading slots,
        # until it is packed or pushed to; a push first grows it to the
        # whole ring
        window = DDFWindow(3)
        window.samples = np.array([[1.0, 1.0], [1.0, 2.0]])
        window.weights[:2] = [0.5, 0.25]
        window.state[:2] = (2, 2)
        assert window.push(np.array([1.0, 3.0]), 0.125) is None
        evicted = window.push(np.array([1.0, 4.0]), 1.0)
        assert evicted[0].tolist() == [1.0, 1.0] and evicted[1] == 0.5
        assert [x[1] for x, _ in window.entries] == [2.0, 3.0, 4.0]

    def test_windows_keep_their_contents_through_a_repack(self):
        window = DDFWindow(2, skipped=1)
        window.push(np.array([1.0, 2.0]), 0.5)
        bank = WindowBank(2, 2)
        bank.set_rows(np.arange(2), [DDFWindow(2), window])
        window = bank.window(1)
        assert window.entries[0][1] == 0.5 and window.skipped == 1
        # the window read from the bank reads and writes its ring
        window.push(np.array([3.0, 4.0]), 0.25)
        assert bank.weights[1].tolist() == [0.5, 0.25]
        assert bank.state[:, 1].tolist() == [0, 2, 1]


class TestDdfUpdate:
    def test_window_size_one_keeps_only_newest(self):
        # after p1 then p2 with ws=1: C^-1 == Omega^-1 I + w2 x2 x2^T
        omega = 100.0
        con = blank_consequent(d=2, c=1, omega=omega)
        window = DDFWindow(1)
        rng = np.random.default_rng(30)
        x1, x2 = augment(rng.standard_normal(2)), augment(rng.standard_normal(2))
        ddf_update(con, window, x1, 0.8, np.array([1.0]))
        ddf_update(con, window, x2, 0.6, np.array([0.0]))
        lhs = np.linalg.inv(con.corr)
        rhs = np.eye(3) / omega + 0.6 * np.outer(x2, x2)
        assert np.linalg.norm(lhs - rhs) < 1e-8

    def test_large_window_equals_plain_wrls(self):
        rng = np.random.default_rng(31)
        con_a = blank_consequent()
        con_b = blank_consequent()
        window = DDFWindow(1000)
        for _ in range(50):
            x = augment(rng.standard_normal(2))
            w = float(rng.uniform(0, 1))
            y = one_hot(int(rng.integers(0, 2)), 2)
            ddf_update(con_a, window, x, w, y)
            wrls_update(con_b, x, w, y)
        assert np.array_equal(con_a.corr, con_b.corr)
        assert np.array_equal(con_a.coeffs, con_b.coeffs)
        assert window.skipped == 0

    def test_zero_weight_eviction_is_noop(self):
        con = blank_consequent()
        window = DDFWindow(1)
        ddf_update(con, window, augment(np.zeros(2)), 0.0, one_hot(0, 2))
        before = con.corr.copy()
        ddf_update(con, window, augment(np.ones(2)), 0.5, one_hot(1, 2))
        # the evicted entry had weight 0, so only the increment of the new
        # sample separates the two states
        expected = blank_consequent()
        wrls_update(expected, augment(np.ones(2)), 0.5, one_hot(1, 2))
        assert np.array_equal(con.corr, expected.corr)
        assert not np.array_equal(con.corr, before)

    def test_window_consistency_random_stream(self):
        rng = np.random.default_rng(32)
        omega = 100.0
        con = blank_consequent(d=3, c=2, omega=omega)
        window = DDFWindow(20)
        for step in range(400):
            x = augment(rng.standard_normal(3))
            w = float(rng.uniform(0, 1))
            y = one_hot(int(rng.integers(0, 2)), 2)
            ddf_update(con, window, x, w, y)
            # C^-1 must equal the prior plus exactly the window contents
            ident = np.eye(4) / omega
            for wx, ww in window.entries:
                ident += ww * np.outer(wx, wx)
            assert np.linalg.norm(np.linalg.inv(con.corr) - ident) < 1e-6
            # and C stays symmetric positive definite
            assert np.min(np.linalg.eigvalsh(con.corr)) > 0.0

    def test_draining_window_restores_prior(self):
        # evicting every stored entry by hand returns C to Omega I
        rng = np.random.default_rng(33)
        omega = 100.0
        con = blank_consequent(d=2, c=2, omega=omega)
        window = DDFWindow(30)
        for _ in range(25):
            ddf_update(con, window, augment(rng.standard_normal(2)),
                       float(rng.uniform(0.05, 1)), one_hot(0, 2))
        corr = con.corr
        for x, w in window.entries:
            corr = corr_decrement(corr, x, w)
        assert np.linalg.norm(corr - omega * np.eye(3)) < 1e-6

    def test_coefficients_never_decremented(self):
        # eviction rewrites C only; within a step the coefficients move
        # exactly as a plain wrls_update from the same starting state would
        rng = np.random.default_rng(34)
        con = blank_consequent()
        window = DDFWindow(5)
        for step in range(30):
            x = augment(rng.standard_normal(2))
            w = float(rng.uniform(0.1, 1))
            y = one_hot(int(rng.integers(0, 2)), 2)
            reference = Consequent(con.coeffs.copy(), con.corr.copy())
            ddf_update(con, window, x, w, y)
            wrls_update(reference, x, w, y)
            assert np.array_equal(con.coeffs, reference.coeffs)
            if step >= 5:  # eviction active: C must have moved past plain WRLS
                assert not np.array_equal(con.corr, reference.corr)

    def test_near_singular_eviction_skipped_and_counted(self):
        # rounding floors the denominator reachable through ordinary update
        # sequences around 1e-6, so build the degenerate state by hand: the
        # evicted entry's weight almost exactly exhausts C along its
        # direction, putting 1 - w x'Cx inside the guard band
        omega = 100.0
        con = blank_consequent(d=1, c=1, omega=omega)
        con.corr = np.array([[1.0 + 1e-9, 0.0], [0.0, 1.0]])
        window = DDFWindow(1)
        window.push(np.array([1.0, 0.0]), 1.0)
        corr_before = con.corr.copy()
        coeffs_before = con.coeffs.copy()
        ddf_update(con, window, np.array([0.0, 1.0]), 0.0, np.array([0.0]))
        assert window.skipped == 1
        # the skipped eviction leaves the state untouched: zero-weight
        # increment plus refused downdate means nothing moved
        assert np.array_equal(con.corr, corr_before)
        assert np.array_equal(con.coeffs, coeffs_before)
        # the window itself still rotated to the new sample
        assert len(window) == 1
        assert window.entries[0][1] == 0.0
