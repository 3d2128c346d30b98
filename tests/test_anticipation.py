"""Tests for the shadow sub-rule pairs and their separation test."""

import numpy as np
import pytest

from driftfis.anticipation import AnticipatedPair, DriftEvent, SubRule, spawn_pair
from driftfis.fis import FuzzySystem, create_rule
from driftfis.forgetting import WindowBank
from driftfis.linalg import RIDGE_SCALE
from helpers import ellipsoid_radius_along, regularized_inverse


def make_system(center, hits=1, omega=100.0, n_classes=2, rule_id=0):
    """A system of one rule at ``center`` with ``hits`` hits."""
    center = np.asarray(center, dtype=float)
    rule = create_rule(center, 0, 1.0, omega, n_classes, rule_id)
    system = FuzzySystem(center.shape[0], n_classes, [rule])
    system.hits[0] = hits
    return system


def spawn_behind(system, slow_horizon, fast_horizon, window_capacity,
                 init="parent", omega=100.0):
    """Copy a lone rule's row behind it twice and spawn its pair there, as
    the learner does, with blank window rows; returns the rule's view and
    the pair's."""
    system.set_rows(system.ids, system.born_classes, np.zeros(3, dtype=np.intp))
    windows = WindowBank(window_capacity, system.n_features + 1)
    windows.set_rows(np.arange(3))  # past the empty bank's rows: all blank
    assert spawn_pair(system, np.array([1]), slow_horizon, fast_horizon,
                      init, omega) is None
    return system.rules[0], AnticipatedPair(*(
        SubRule(system.premise(row), system.consequent(row), windows.window(row))
        for row in (1, 2)))


class TestSpawnPair:
    def test_premises_are_deep_copies(self):
        rule, pair = spawn_behind(make_system([1.0, 2.0], hits=5), 200, 10,
                                  window_capacity=50)
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
        _, pair = spawn_behind(make_system([0.0], hits=1000), 200, 10,
                               window_capacity=50)
        assert pair.slow.premise.hits == 200
        assert pair.fast.premise.hits == 10

    def test_young_parent_keeps_its_hit_count(self):
        _, pair = spawn_behind(make_system([0.0], hits=3), 200, 10,
                               window_capacity=50)
        assert pair.slow.premise.hits == 3
        assert pair.fast.premise.hits == 3

    def test_parent_init_copies_consequent(self):
        system = make_system([0.5, -0.5])
        system.consequent(0).coeffs[:] = np.arange(6).reshape(3, 2)
        system.consequent(0).corr[0, 0] = 42.0
        rule, pair = spawn_behind(system, 200, 10, window_capacity=50,
                                  init="parent")
        for sub in (pair.slow, pair.fast):
            assert np.array_equal(sub.consequent.coeffs, rule.consequent.coeffs)
            assert np.array_equal(sub.consequent.corr, rule.consequent.corr)
            assert not np.shares_memory(sub.consequent.coeffs, rule.consequent.coeffs)
            assert not np.shares_memory(sub.consequent.corr, rule.consequent.corr)
        # the two sub-rules do not share state with each other either
        assert not np.shares_memory(pair.slow.consequent.coeffs,
                                    pair.fast.consequent.coeffs)

    def test_zero_init_restarts_consequent(self):
        system = make_system([0.5, -0.5], omega=7.0)
        system.consequent(0).coeffs[:] = 3.0
        system.consequent(0).corr[:] = 1.0
        _, pair = spawn_behind(system, 200, 10, window_capacity=50, init="zero",
                               omega=7.0)
        for sub in (pair.slow, pair.fast):
            assert np.array_equal(sub.consequent.coeffs, np.zeros((3, 2)))
            assert np.array_equal(sub.consequent.corr, 7.0 * np.eye(3))

    def test_unknown_init_raises(self):
        with pytest.raises(ValueError):
            spawn_behind(make_system([0.0]), 200, 10, window_capacity=50,
                         init="median")

    def test_windows_start_empty(self):
        _, pair = spawn_behind(make_system([0.0]), 200, 10, window_capacity=25)
        assert len(pair.slow.window) == 0
        assert len(pair.fast.window) == 0
        assert pair.slow.window.capacity == 25
        assert pair.fast.window.capacity == 25
        assert pair.samples_seen == 0


def pair_system(slow_center, fast_center, slow_cov, fast_cov=None,
                invert=np.linalg.inv):
    """A spawned pair in rows (1, 2) whose sub-rules have these centers and
    the inverses ``invert`` gives of these covariances; returns its system."""
    system = make_system(np.zeros(len(slow_center)))
    _, pair = spawn_behind(system, 200, 10, window_capacity=50)
    fast_cov = slow_cov if fast_cov is None else fast_cov
    for sub, center, cov in ((pair.slow, slow_center, slow_cov),
                             (pair.fast, fast_center, fast_cov)):
        sub.premise.center[:] = center
        sub.premise.cov_inv[:] = invert(np.asarray(cov, dtype=float))
    return system


class TestSeparation:
    def test_coincident_centers_give_zero(self):
        system = pair_system([1.0, 1.0], [1.0, 1.0], np.eye(2))
        assert system.pair_separation(1) == 0.0

    def test_unit_spheres_hand_value(self):
        # gap 10 along e0, both radii 1 -> 10 / 2 = 5
        system = pair_system([0.0, 0.0], [10.0, 0.0], np.eye(2))
        assert system.pair_separation(1) == pytest.approx(5.0, rel=1e-12)

    def test_anisotropic_hand_value(self):
        # gap 3 along e0, both covariances diag(4, 1): radius along e0 is 2,
        # so separation = 3 / (2 + 2) = 0.75
        system = pair_system([0.0, 0.0], [3.0, 0.0], np.diag([4.0, 1.0]))
        assert system.pair_separation(1) == pytest.approx(0.75, rel=1e-12)

    def test_direction_matters(self):
        # same gap length along e1 where the radius is 1 -> 3 / 2 = 1.5
        system = pair_system([0.0, 0.0], [0.0, 3.0], np.diag([4.0, 1.0]))
        assert system.pair_separation(1) == pytest.approx(1.5, rel=1e-12)

    def test_zero_spread_is_infinite(self):
        # infinite quadratic forms give both radii 0
        system = pair_system([0.0], [1.0], [[1.0]])
        system.premise(1).cov_inv[:] = np.inf
        system.premise(2).cov_inv[:] = np.inf
        assert system.pair_separation(1) == np.inf

    def test_separation_scales_with_gap(self):
        vals = [pair_system([0.0, 0.0, 0.0], [gap, 0.0, 0.0],
                            np.eye(3)).pair_separation(1)
                for gap in (1.0, 2.0, 4.0)]
        assert vals[1] == pytest.approx(2 * vals[0], rel=1e-12)
        assert vals[2] == pytest.approx(4 * vals[0], rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_matches_the_ellipsoid_radius_oracle(self, d):
        # random SPD pairs with eigenvalues in [0.5, 2]: the ridge moves
        # each quadratic form by at most RIDGE_SCALE * 4 relative
        rng = np.random.default_rng(40 + d)
        for _ in range(20):
            covs = []
            for _ in range(2):
                q, _ = np.linalg.qr(rng.standard_normal((d, d)))
                covs.append((q * rng.uniform(0.5, 2.0, d)) @ q.T)
            centers = rng.normal(0.0, 2.0, (2, d))
            system = pair_system(*centers, *covs, invert=regularized_inverse)
            delta = centers[1] - centers[0]
            gap = float(np.linalg.norm(delta))
            u = delta / gap
            expected = gap / (ellipsoid_radius_along(covs[0], u)
                              + ellipsoid_radius_along(covs[1], u))
            assert system.pair_separation(1) == pytest.approx(
                expected, rel=10 * RIDGE_SCALE)


def test_drift_event_fields():
    ev = DriftEvent(sample_index=740, rule_id=3, strategy="global", separation=0.61)
    assert ev.sample_index == 740
    assert ev.rule_id == 3
    assert ev.strategy == "global"
    assert ev.separation == 0.61
