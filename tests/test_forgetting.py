"""Unit tests for deferred directional forgetting of WRLS conclusions."""

import numpy as np
import pytest

from driftfis.fis import Consequent, augment, one_hot, wrls_update
from driftfis.forgetting import DDFWindow, ddf_update, frozen_copy, record_sample
from driftfis.linalg import corr_decrement


def blank_consequent(d=2, c=2, omega=100.0):
    return Consequent(coeffs=np.zeros((d + 1, c)),
                      corr=omega * np.eye(d + 1), omega=omega)


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

    def test_copy_is_isolated(self):
        w = DDFWindow(2, skipped=3)
        w.push(np.array([1.0]), 0.5)
        dup = w.copy()
        assert dup.capacity == 2 and dup.skipped == 3
        w.entries[0][0][0] = 99.0
        w.push(np.array([2.0]), 0.1)
        assert dup.entries[0][0][0] == 1.0
        assert len(dup) == 1


class TestRecordSample:
    def test_windows_share_one_read_only_sample(self):
        windows = [DDFWindow(3), DDFWindow(3)]
        x = np.array([1.0, 2.0])
        shared = frozen_copy(x)
        record_sample(windows, shared, [0.5, 0.25])
        x[0] = 99.0
        assert windows[0].entries[0][0] is windows[1].entries[0][0]
        assert windows[0].entries[0][0][0] == 1.0
        assert not windows[0].entries[0][0].flags.writeable
        assert [w.entries[0][1] for w in windows] == [0.5, 0.25]

    def test_returns_only_weighted_evictions(self):
        windows = [DDFWindow(1), DDFWindow(1), DDFWindow(2)]
        first = frozen_copy(np.array([1.0]))
        assert record_sample(windows, first, [0.0, 0.7, 0.4]) == ([], [], [])
        where, xs, ws = record_sample(windows, frozen_copy(np.array([2.0])),
                                      [0.1, 0.2, 0.3])
        # window 0 evicts a zero-weight sample, window 2 is not full yet
        assert where == [1]
        assert xs[0] is first and ws == [0.7]
        assert [len(w) for w in windows] == [1, 1, 2]


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
            reference = Consequent(con.coeffs.copy(), con.corr.copy(), con.omega)
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
