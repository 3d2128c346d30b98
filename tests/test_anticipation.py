"""Tests for the shadow sub-rule pairs and their separation test."""

import numpy as np
import pytest

from driftfis.anticipation import AnticipatedPair, DriftEvent, SubRule, spawn_pair
from driftfis.fis import Premise, create_rule
from driftfis.linalg import ellipsoid_radius_along, regularized_inverse


def make_rule(center, hits=1, omega=100.0, n_classes=2, rule_id=0):
    center = np.asarray(center, dtype=float)
    rule = create_rule(center, 0, 1.0, omega, n_classes, rule_id)
    rule.system.hits[rule.row] = hits
    return rule


def spawn_behind(rule, slow_horizon, fast_horizon, window_capacity,
                 init="parent", omega=100.0):
    """Copy a lone rule's row behind it twice and spawn its pair there, as
    the learner does; returns the pair's view."""
    system = rule.system
    system.set_rows([rule], np.zeros(3, dtype=np.intp))
    state, = spawn_pair(system, np.array([1]), slow_horizon, fast_horizon,
                        window_capacity, init, omega)
    return state.view(system, 1, slow_horizon, fast_horizon)


def make_premise(center, cov):
    center = np.asarray(center, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return Premise(center=center, cov=cov, cov_inv=regularized_inverse(cov), hits=1)


def radius_fn(premise, u):
    return ellipsoid_radius_along(premise.cov, u)


class TestSpawnPair:
    def test_premises_are_deep_copies(self):
        rule = make_rule([1.0, 2.0], hits=5)
        pair = spawn_behind(rule, 200, 10, window_capacity=50)
        for sub in (pair.slow, pair.fast):
            assert not np.shares_memory(sub.premise.center, rule.premise.center)
            assert not np.shares_memory(sub.premise.cov, rule.premise.cov)
            assert not np.shares_memory(sub.premise.cov_inv, rule.premise.cov_inv)
            assert np.array_equal(sub.premise.center, rule.premise.center)
            assert np.array_equal(sub.premise.cov, rule.premise.cov)
        rule.premise.center[0] = 99.0
        assert pair.slow.premise.center[0] == 1.0
        assert pair.fast.premise.center[0] == 1.0

    def test_horizons_and_hit_caps(self):
        rule = make_rule([0.0], hits=1000)
        pair = spawn_behind(rule, 200, 10, window_capacity=50)
        assert pair.slow.premise.horizon == 200
        assert pair.fast.premise.horizon == 10
        assert pair.slow.premise.hits == 200
        assert pair.fast.premise.hits == 10

    def test_young_parent_keeps_its_hit_count(self):
        rule = make_rule([0.0], hits=3)
        pair = spawn_behind(rule, 200, 10, window_capacity=50)
        assert pair.slow.premise.hits == 3
        assert pair.fast.premise.hits == 3

    def test_parent_init_copies_consequent(self):
        rule = make_rule([0.5, -0.5])
        rule.consequent.coeffs[:] = np.arange(6).reshape(3, 2)
        rule.consequent.corr[0, 0] = 42.0
        pair = spawn_behind(rule, 200, 10, window_capacity=50, init="parent")
        for sub in (pair.slow, pair.fast):
            assert np.array_equal(sub.consequent.coeffs, rule.consequent.coeffs)
            assert np.array_equal(sub.consequent.corr, rule.consequent.corr)
            assert not np.shares_memory(sub.consequent.coeffs, rule.consequent.coeffs)
            assert not np.shares_memory(sub.consequent.corr, rule.consequent.corr)
        # the two sub-rules do not share state with each other either
        assert not np.shares_memory(pair.slow.consequent.coeffs,
                                    pair.fast.consequent.coeffs)

    def test_zero_init_restarts_consequent(self):
        rule = make_rule([0.5, -0.5], omega=7.0)
        rule.consequent.coeffs[:] = 3.0
        rule.consequent.corr[:] = 1.0
        pair = spawn_behind(rule, 200, 10, window_capacity=50, init="zero",
                            omega=7.0)
        for sub in (pair.slow, pair.fast):
            assert np.array_equal(sub.consequent.coeffs, np.zeros((3, 2)))
            assert np.array_equal(sub.consequent.corr, 7.0 * np.eye(3))

    def test_unknown_init_raises(self):
        rule = make_rule([0.0])
        with pytest.raises(ValueError):
            spawn_behind(rule, 200, 10, window_capacity=50, init="median")

    def test_windows_start_empty(self):
        rule = make_rule([0.0])
        pair = spawn_behind(rule, 200, 10, window_capacity=25)
        assert len(pair.slow.window) == 0
        assert len(pair.fast.window) == 0
        assert pair.slow.window.capacity == 25
        assert pair.fast.window.capacity == 25
        assert pair.samples_seen == 0


class TestSeparation:
    def test_coincident_centers_give_zero(self):
        p = make_premise([1.0, 1.0], np.eye(2))
        pair = AnticipatedPair(slow=SubRule(p, None, None),
                               fast=SubRule(make_premise([1.0, 1.0], np.eye(2)),
                                            None, None))
        assert pair.separation(radius_fn) == 0.0

    def test_unit_spheres_hand_value(self):
        # gap 10 along e0, both radii 1 -> 10 / 2 = 5
        slow = SubRule(make_premise([0.0, 0.0], np.eye(2)), None, None)
        fast = SubRule(make_premise([10.0, 0.0], np.eye(2)), None, None)
        pair = AnticipatedPair(slow=slow, fast=fast)
        assert pair.separation(radius_fn) == pytest.approx(5.0, rel=1e-12)

    def test_anisotropic_hand_value(self):
        # gap 3 along e0, both covariances diag(4, 1): radius along e0 is 2,
        # so separation = 3 / (2 + 2) = 0.75
        cov = np.diag([4.0, 1.0])
        slow = SubRule(make_premise([0.0, 0.0], cov), None, None)
        fast = SubRule(make_premise([3.0, 0.0], cov.copy()), None, None)
        pair = AnticipatedPair(slow=slow, fast=fast)
        assert pair.separation(radius_fn) == pytest.approx(0.75, rel=1e-12)

    def test_direction_matters(self):
        # same gap length along e1 where the radius is 1 -> 3 / 2 = 1.5
        cov = np.diag([4.0, 1.0])
        slow = SubRule(make_premise([0.0, 0.0], cov), None, None)
        fast = SubRule(make_premise([0.0, 3.0], cov.copy()), None, None)
        pair = AnticipatedPair(slow=slow, fast=fast)
        assert pair.separation(radius_fn) == pytest.approx(1.5, rel=1e-12)

    def test_zero_spread_is_infinite(self):
        slow = SubRule(make_premise([0.0], [[1.0]]), None, None)
        fast = SubRule(make_premise([1.0], [[1.0]]), None, None)
        pair = AnticipatedPair(slow=slow, fast=fast)
        assert pair.separation(lambda premise, u: 0.0) == np.inf

    def test_separation_scales_with_gap(self):
        cov = np.eye(3)
        vals = []
        for gap in (1.0, 2.0, 4.0):
            slow = SubRule(make_premise([0.0, 0.0, 0.0], cov), None, None)
            fast = SubRule(make_premise([gap, 0.0, 0.0], cov.copy()), None, None)
            vals.append(AnticipatedPair(slow=slow, fast=fast).separation(radius_fn))
        assert vals[1] == pytest.approx(2 * vals[0], rel=1e-12)
        assert vals[2] == pytest.approx(4 * vals[0], rel=1e-12)


def test_drift_event_fields():
    ev = DriftEvent(sample_index=740, rule_id=3, strategy="global", separation=0.61)
    assert ev.sample_index == 740
    assert ev.rule_id == 3
    assert ev.strategy == "global"
    assert ev.separation == 0.61
