"""Tests for the streaming classifier: births, updates, drift replacement."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftfis
from driftfis import fis
from driftfis import learner as learner_module
from driftfis.config import ConfigError, LearnerConfig
from driftfis.learner import (
    AnticipatingClassifier,
    NonFiniteInputError,
    UnknownClassError,
)
from driftfis.snapshot import (
    from_state_dict,
    load_model,
    model_state_hash,
    save_model,
    state_bytes,
    state_dict,
)
from driftfis.streams import gen_plane10d, gen_sea

from helpers import entries, gaussian_stream, has_negative_zero, wrls_broadcast


def make_learner(**overrides):
    defaults = dict(ks=math.inf)
    defaults.update(overrides)
    return AnticipatingClassifier(2, 2, LearnerConfig(**defaults))


def two_blob_stream(rng, n, sigma=0.5):
    return gaussian_stream(rng, n, centers=[[0.0, 0.0], [4.0, 4.0]], sigma=sigma)


def train(learner, X, y):
    preds = []
    for xi, yi in zip(X, y):
        preds.append(learner.learn_one(xi, int(yi)))
    return preds


class TestBirths:
    def test_rule_ids_stay_int64(self):
        # an id past int64 fails loudly instead of turning the ids to float
        learner = make_learner()
        learner.learn_one([0.0, 0.0], 0)
        learner.system.ids[0] = 2 ** 63 - 1  # the next id is 2 ** 63
        assert learner.system.ids.dtype == np.int64
        before = state_bytes(learner)
        with pytest.raises(OverflowError):
            learner.learn_one([5.0, 5.0], 1)
        assert state_bytes(learner) == before

    def test_first_sample_founds_a_rule_and_returns_its_class(self):
        learner = make_learner()
        assert learner.learn_one([0.5, -0.5], 1) == 1
        assert learner.n_rules == 1
        assert learner.seen_classes == {1}
        assert learner.samples_seen == 1
        rule = learner.system.rules[0]
        assert np.array_equal(rule.premise.center, [0.5, -0.5])
        assert rule.id in learner.anticipations

    def test_unseen_class_births_rule_and_returns_prior_prediction(self):
        learner = make_learner()
        learner.learn_one([0.0, 0.0], 0)
        # class 1 has never been seen: the returned prediction must come
        # from the pre-birth rule base, which only knows class 0
        assert learner.learn_one([5.0, 5.0], 1) == 0
        assert learner.n_rules == 2
        assert learner.seen_classes == {0, 1}

    def test_birth_skips_premise_update(self):
        learner = make_learner()
        learner.learn_one([0.0, 0.0], 0)
        center0 = learner.system.rules[0].premise.center.copy()
        hits0 = learner.system.rules[0].premise.hits
        learner.learn_one([5.0, 5.0], 1)
        # the class-birth sample founds its own rule; the existing premise
        # is not dragged toward it
        assert np.array_equal(learner.system.rules[0].premise.center, center0)
        assert learner.system.rules[0].premise.hits == hits0

    def test_birth_still_updates_conclusions(self):
        learner = make_learner()
        learner.learn_one([0.0, 0.0], 0)
        coeffs0 = learner.system.rules[0].consequent.coeffs.copy()
        learner.learn_one([5.0, 5.0], 1)
        assert not np.array_equal(learner.system.rules[0].consequent.coeffs, coeffs0)

    @pytest.mark.parametrize("wrls_weight", ["normalized", "raw"])
    @pytest.mark.parametrize("mode", ["none", "forget_am", "forget_ps"])
    def test_class_birth_step(self, mode, wrls_weight):
        # a class's first sample: one WRLS step over the principal rules,
        # the newborn among them, then the principal windows' forgetting
        # under forget_ps; the shadow pairs sit it out
        learner = AnticipatingClassifier(2, 3, LearnerConfig(
            ks=0.6, nmin=3, ws=500, forgetting_mode=mode, wrls_weight=wrls_weight))
        train(learner, *two_blob_stream(np.random.default_rng(8), 120))
        system, windows = learner.system, learner.windows
        n = learner.n_rules
        before = [stack.copy() for stack in system.stacks()]
        rings = [windows.window(row).ordered() for row in range(3 * n)]
        counts = windows.counts()
        pair_seen = learner.pair_seen.tolist()
        x = np.array([2.0, -3.0])
        x_aug = np.array([1.0, 2.0, -3.0])

        learner.learn_one(x, 2)

        after = system.stacks()
        assert learner.n_rules == n + 1
        betas = system.memberships(x)
        assert betas[n] == 1.0  # the newborn sits on the sample
        weights = betas / (betas.sum() if wrls_weight == "normalized" else 1.0)
        omega = learner.config.omega
        corrs = np.concatenate((before[4][:n], [omega * np.eye(3)]))
        coeffs = np.concatenate((before[5][:n], np.zeros((1, 3, 3))))
        wrls_broadcast(corrs, coeffs, x_aug, weights, np.eye(3)[2])
        assert after.corrs[:n + 1].tobytes() == corrs.tobytes()
        assert after.coeffs[:n + 1].tobytes() == coeffs.tobytes()
        for old, new in zip(before[:4], after[:4]):  # premises, hits too
            assert new[:n].tobytes() == old[:n].tobytes()
        for old, new in zip(before, after):  # each pair moved with its rule
            assert new[n + 1:3 * n + 1].tobytes() == old[n:].tobytes()
        # the newborn's pair copies its seed, before the WRLS step
        assert np.array_equal(after.centers[3 * n + 1:], [x, x])
        assert np.array_equal(after.corrs[3 * n + 1:], [omega * np.eye(3)] * 2)
        assert not after.coeffs[3 * n + 1:].any()
        assert learner.pair_seen.tolist() == pair_seen + [0]

        def same(ring, xs, ws):
            assert np.array_equal(ring[0], xs) and np.array_equal(ring[1], ws)

        recorded = mode == "forget_ps"
        for row in range(n + 1):
            old_xs, old_ws = rings[row] if row < n else (np.empty((0, 3)), [])
            if recorded:
                old_xs = np.vstack((old_xs, x_aug))
                old_ws = np.append(old_ws, weights[row])
            same(windows.window(row).ordered(), old_xs, old_ws)
        for row in range(n, 3 * n):
            same(windows.window(row + 1).ordered(), *rings[row])
        for row in (3 * n + 1, 3 * n + 2):
            assert len(windows.window(row)) == 0
        assert np.array_equal(windows.counts()[:, n + 1:3 * n + 1], counts[:, n:])
        assert not windows.counts()[1].any()

    @pytest.mark.parametrize("founding", [True, False])
    def test_failed_birth_changes_nothing(self, monkeypatch, founding):
        # a birth builds the newborn's row before it changes the model, so
        # a failure there, on the founding sample or a declared class's
        # first one, leaves the state and the next rule id as they were
        learners = [make_learner(ks=0.6, nmin=3) for _ in range(2)]
        X, _ = two_blob_stream(np.random.default_rng(3), 0 if founding else 40)
        for learner in learners:
            train(learner, X, np.zeros(len(X), dtype=int))  # class 0 only
        hit, clean = learners
        before, next_id = state_bytes(hit), hit.next_rule_id

        def no_room(*args):
            raise MemoryError("no room for the newborn's row")

        monkeypatch.setattr(learner_module, "seed_row", no_room)
        with pytest.raises(MemoryError):
            hit.learn_one([6.0, -6.0], 1)
        assert state_bytes(hit) == before
        assert hit.next_rule_id == next_id
        monkeypatch.undo()
        for learner in learners:
            learner.learn_one([6.0, -6.0], 1)
        assert state_bytes(hit) == state_bytes(clean)

    def test_failed_birth_keeps_the_classes(self, monkeypatch):
        # a new class's row is built before the classes grow to hold it,
        # so a failure there leaves the class count as it was
        learners = [make_learner(allow_class_growth=True) for _ in range(2)]
        for learner in learners:
            learner.learn_one([0.0, 0.0], 0)
        hit, clean = learners
        before = state_bytes(hit)

        def no_room(*args):
            raise MemoryError("no room for the newborn's row")

        monkeypatch.setattr(learner_module, "seed_row", no_room)
        with pytest.raises(MemoryError):
            hit.learn_one([5.0, 5.0], 4)
        assert state_bytes(hit) == before
        assert hit.system.n_classes == 2
        monkeypatch.undo()
        for learner in learners:
            assert learner.learn_one([5.0, 5.0], 4) == 0
        assert hit.system.n_classes == 5
        assert state_bytes(hit) == state_bytes(clean)

    def test_every_rule_has_a_pair(self):
        rng = np.random.default_rng(0)
        learner = make_learner()
        X, y = two_blob_stream(rng, 100)
        train(learner, X, y)
        assert set(learner.anticipations) == {r.id for r in learner.system.rules}
        assert len(learner.anticipations) == learner.n_rules


class TestUpdates:
    def setup_method(self):
        self.learner = make_learner()
        self.learner.learn_one([0.0, 0.0], 0)
        self.learner.learn_one([10.0, 10.0], 1)

    def test_winner_only_premise_update(self):
        loser = self.learner.system.rules[1]
        before = (loser.premise.center.tobytes(), loser.premise.cov.tobytes(),
                  loser.premise.cov_inv.tobytes(), loser.premise.hits)
        self.learner.learn_one([0.2, -0.1], 0)
        after = (loser.premise.center.tobytes(), loser.premise.cov.tobytes(),
                 loser.premise.cov_inv.tobytes(), loser.premise.hits)
        assert before == after
        # while the winner moved
        winner = self.learner.system.rules[0]
        assert not np.array_equal(winner.premise.center, [0.0, 0.0])

    def test_conclusions_update_every_rule(self):
        loser = self.learner.system.rules[1]
        before = loser.consequent.coeffs.copy()
        self.learner.learn_one([0.2, -0.1], 0)
        assert not np.array_equal(loser.consequent.coeffs, before)

    def test_pair_trains_alongside_winner(self):
        rule = self.learner.system.rules[0]
        pair = self.learner.anticipations[rule.id]
        seen = pair.samples_seen
        center_fast = pair.fast.premise.center.copy()
        self.learner.learn_one([0.4, 0.4], 0)
        assert self.learner.anticipations[rule.id].samples_seen == seen + 1
        assert not np.array_equal(pair.fast.premise.center, center_fast)

    def test_loser_pair_untouched(self):
        rule = self.learner.system.rules[1]
        pair = self.learner.anticipations[rule.id]
        before = (pair.slow.premise.center.tobytes(),
                  pair.slow.consequent.coeffs.tobytes(),
                  pair.fast.consequent.corr.tobytes(), pair.samples_seen)
        self.learner.learn_one([0.2, -0.1], 0)
        pair = self.learner.anticipations[rule.id]
        after = (pair.slow.premise.center.tobytes(),
                 pair.slow.consequent.coeffs.tobytes(),
                 pair.fast.consequent.corr.tobytes(), pair.samples_seen)
        assert before == after

    def test_learn_one_returns_pre_update_prediction(self):
        for xi in ([0.1, 0.1], [-0.1, 0.0], [10.1, 9.9], [0.0, -0.2]):
            self.learner.learn_one(xi, 0 if xi[0] < 5 else 1)
        x = np.array([0.1, 0.0])
        expected = self.learner.predict_one(x)
        assert expected == 0
        # even when taught the other label, the returned value is the
        # prediction from before this sample was absorbed
        assert self.learner.learn_one(x, 1) == expected

    def test_predict_one_is_pure(self):
        rng = np.random.default_rng(3)
        X, y = two_blob_stream(rng, 60)
        train(self.learner, X, y)
        digest = model_state_hash(self.learner)
        for xi in rng.normal(0.0, 2.0, size=(20, 2)):
            self.learner.predict_one(xi)
            self.learner.predict_scores(xi)
        assert model_state_hash(self.learner) == digest


def _criterion_9_stream():
    """The opening of test_criterion_9_throughput's stream: two 4-D blobs."""
    rng = np.random.default_rng(909)
    centers = np.array([[0.0] * 4, [4.0] * 4])
    y = rng.integers(0, 2, 3000)
    X = centers[y] + rng.normal(0.0, 1.0, (3000, 4))
    return 4, LearnerConfig(ks=5.0, ws=50), X, y


def _sea_stream():
    stream = gen_sea(2400, seed=0)  # concept drifts at 600, 1200, 1800
    return 3, LearnerConfig(ks=0.4), stream.X, stream.y


def _plane10d_prefix():
    stream = gen_plane10d(1200, seed=0)
    return 10, LearnerConfig(strategy="global", forgetting_mode="forget_ps"), \
        stream.X, stream.y


class TestValidation:
    def test_wrong_feature_count_raises(self):
        learner = make_learner()
        with pytest.raises(ValueError):
            learner.learn_one([1.0, 2.0, 3.0], 0)
        with pytest.raises(ValueError):
            learner.predict_one([1.0])

    def test_config_is_copied_not_edited(self, tmp_path):
        # the caller's numpy number stays as given, and a later edit to the
        # caller's config reaches neither the learner nor its saved file
        cfg = LearnerConfig(ws=np.int64(12), ks=0.6, nmin=3)
        learner = AnticipatingClassifier(2, 2, cfg)
        assert type(cfg.ws) is np.int64
        assert learner.config is not cfg
        assert type(learner.config.ws) is int
        X, y = two_blob_stream(np.random.default_rng(9), 200)
        train(learner, X, y)
        reference = state_bytes(learner)
        for ws in (30, 0):
            cfg.ws = ws
            assert learner.config.ws == 12
            path = tmp_path / f"model-{ws}.json"
            save_model(learner, path)
            assert state_bytes(load_model(path)) == reference

    def test_negative_label_raises(self):
        learner = make_learner()
        with pytest.raises(UnknownClassError):
            learner.learn_one([0.0, 0.0], -1)

    @pytest.mark.parametrize("n_trained", [0, 60])
    @pytest.mark.parametrize("bad", [1.7, "1", None, math.nan, math.inf,
                                     np.float64(0.5)])
    def test_non_integer_label_rejected_before_any_change(self, n_trained, bad):
        learner = make_learner(ks=0.6, nmin=3, allow_class_growth=True)
        X, y = two_blob_stream(np.random.default_rng(8), n_trained)
        train(learner, X, y)
        digest = model_state_hash(learner)
        with pytest.raises(UnknownClassError, match=re.escape(repr(bad))):
            learner.learn_one([0.5, 0.5], bad)
        assert model_state_hash(learner) == digest
        assert learner.samples_seen == n_trained

    @pytest.mark.parametrize("label", [np.int64(1), 1.0, np.float32(1.0), True,
                                       np.True_])
    def test_integral_labels_are_accepted(self, label):
        models = []
        for y1 in (1, label):
            learner = make_learner()
            learner.learn_one([0.0, 0.0], 0)
            assert learner.learn_one([4.0, 4.0], y1) == 0
            learner.learn_one([4.5, 4.0], y1)
            models.append((model_state_hash(learner), state_bytes(learner)))
        assert models[0] == models[1]

    def test_class_overflow_raises_by_default(self):
        learner = make_learner()
        learner.learn_one([0.0, 0.0], 0)
        with pytest.raises(UnknownClassError):
            learner.learn_one([1.0, 1.0], 2)

    def test_class_growth_extends_the_model(self):
        learner = make_learner(allow_class_growth=True)
        learner.learn_one([0.0, 0.0], 0)
        learner.learn_one([5.0, 5.0], 1)
        learner.learn_one([0.0, 5.0], 3)
        assert learner.system.n_classes == 4
        assert learner.predict_scores([0.0, 0.0]).shape == (4,)
        assert 3 in learner.seen_classes
        for rule in learner.system.rules:
            assert rule.consequent.coeffs.shape[1] == 4

    def test_class_growth_pads_with_zero_columns(self):
        # small windows, so the rings wrap before the classes grow
        learner = make_learner(allow_class_growth=True,
                               forgetting_mode="forget_ps", ws=7)
        train(learner, *two_blob_stream(np.random.default_rng(3), 40))
        before = learner.system.rules[0].consequent.coeffs.copy()
        entries_before = learner.windows.entries()
        counts_before = learner.windows.counts()
        learner._grow_classes(5)
        after = learner.system.rules[0].consequent.coeffs
        assert after.shape == (3, 5)
        assert np.array_equal(after[:, :2], before)
        assert np.array_equal(after[:, 2:], np.zeros((3, 3)))
        # every ring keeps its entries, fills and skip counts
        for old, new in zip(entries_before, learner.windows.entries()):
            assert old.tobytes() == new.tobytes()
        assert np.array_equal(learner.windows.counts(), counts_before)

    def test_failed_class_growth_changes_nothing(self):
        # numpy refuses a 10**15-class array before allocating any of it
        learner = make_learner(ks=0.6, nmin=3, allow_class_growth=True,
                               forgetting_mode="forget_ps")
        X, y = two_blob_stream(np.random.default_rng(4), 50)
        train(learner, X, y)
        before = state_bytes(learner)
        with pytest.raises((MemoryError, ValueError)):
            learner.learn_one(X[0], 10 ** 15)
        assert state_bytes(learner) == before
        assert learner.system.n_classes == 2
        clone = from_state_dict(state_dict(learner))
        assert state_bytes(clone) == before
        for model in (learner, clone):
            model.learn_one(X[1], int(y[1]))
            model.learn_one([9.0, -9.0], 2)  # a class birth grows the classes
        assert learner.system.n_classes == 3
        assert state_bytes(clone) == state_bytes(learner)

    @pytest.mark.parametrize("n_trained", [0, 60])
    @pytest.mark.parametrize("bad", [[math.nan, 0.0], [0.0, math.inf],
                                     [-math.inf, math.nan]])
    def test_non_finite_features_rejected_before_any_change(
            self, monkeypatch, n_trained, bad):
        # a founding sample meets the feature check, any later one the
        # membership-sum check, in either membership pass
        for skipped in (math.inf, -1):  # one pass, then two
            monkeypatch.setattr(learner_module, "_SPLIT_MIN_SKIPPED", skipped)
            learner = make_learner(ks=0.6, nmin=3, allow_class_growth=True)
            X, y = two_blob_stream(np.random.default_rng(8), n_trained)
            train(learner, X, y)
            if n_trained:
                assert learner._fused == (skipped == math.inf)
            digest = model_state_hash(learner)
            with pytest.raises(NonFiniteInputError):
                learner.learn_one(bad, 5)  # a new label would grow the classes
            assert model_state_hash(learner) == digest
            assert learner.system.n_classes == 2

    @pytest.mark.parametrize("skipped", [math.inf, -1], ids=["fused", "split"])
    @pytest.mark.parametrize("make", [_sea_stream, _plane10d_prefix])
    def test_non_finite_feature_at_any_position_rejected(self, monkeypatch,
                                                         skipped, make):
        monkeypatch.setattr(learner_module, "_SPLIT_MIN_SKIPPED", skipped)
        d, cfg, X, y = make()
        learner = AnticipatingClassifier(d, 2, cfg)
        train(learner, X, y)
        assert learner._fused == (skipped == math.inf)
        before = state_bytes(learner)
        for position in range(d):
            for value in (math.nan, math.inf, -math.inf):
                x = X[-1].copy()
                x[position] = value
                with pytest.raises(NonFiniteInputError, match="membership sum"):
                    learner.learn_one(x, int(y[-1]))
                assert state_bytes(learner) == before

    @pytest.mark.parametrize("wrls_weight", ["normalized", "raw"])
    @pytest.mark.parametrize("label", [0, 5])
    def test_overflowing_distance_rejected_before_any_change(self, wrls_weight,
                                                             label):
        # every membership underflows to 0 at this distance
        learner = make_learner(ks=0.6, nmin=3, allow_class_growth=True,
                               wrls_weight=wrls_weight)
        X, y = two_blob_stream(np.random.default_rng(8), 50)
        train(learner, X, y)
        digest = model_state_hash(learner)
        with pytest.raises(NonFiniteInputError, match="overflow"):
            learner.learn_one([1e160, 0.0], label)
        assert model_state_hash(learner) == digest
        assert learner.samples_seen == 50
        assert learner.system.n_classes == 2
        learner.learn_one(X[0], int(y[0]))  # still learns afterwards
        assert learner.samples_seen == 51

    def test_vanishing_pair_weights_rejected_before_any_change(self):
        # one rule whose shadow pair lies out of reach: the pair weights'
        # denominator is then 0 although the rule itself fires
        learner = make_learner(ks=0.6, nmin=3)
        X, _ = two_blob_stream(np.random.default_rng(9), 30)
        train(learner, X, np.zeros(30, dtype=int))
        assert learner.n_rules == 1
        learner.system._centers[1:] = 1e200
        digest = model_state_hash(learner)
        with pytest.raises(NonFiniteInputError, match="denominator"):
            learner.learn_one(X[0], 0)
        assert model_state_hash(learner) == digest
        assert learner.samples_seen == 30

    @pytest.mark.parametrize("bad", [[math.nan, 0.0], [0.0, math.inf],
                                     [-math.inf, 0.0], [1e200, 0.0]])
    def test_prediction_rejects_non_finite_input(self, bad):
        learner = make_learner()
        X, y = two_blob_stream(np.random.default_rng(8), 60)
        train(learner, X, y)
        digest = model_state_hash(learner)
        with pytest.raises(NonFiniteInputError, match="membership sum"):
            learner.predict_one(bad)
        with pytest.raises(NonFiniteInputError, match="membership sum"):
            learner.predict_scores(bad)
        assert model_state_hash(learner) == digest

    def test_checked_prediction_scores_are_unchanged(self):
        # predict_scores passes in the sum it checked; the scores must equal
        # the ones scores_from_memberships computes from betas and their sum
        learner = make_learner(ks=0.6, nmin=3)
        X, y = two_blob_stream(np.random.default_rng(4), 120)
        train(learner, X, y)
        system = learner.system
        for x in X[:40]:
            betas = system.memberships(x)
            expected = system.scores_from_memberships(
                betas, np.concatenate(([1.0], x)), float(np.add.reduce(betas)))
            assert learner.predict_scores(x).tobytes() == expected.tobytes()

    def test_non_finite_input_error_is_one_class(self):
        assert driftfis.NonFiniteInputError is fis.NonFiniteInputError
        assert NonFiniteInputError is fis.NonFiniteInputError

    def test_finite_features_whose_sum_overflows_are_accepted(self):
        learner = make_learner()
        learner.learn_one([1e308, 1e308], 0)
        assert learner.n_rules == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AnticipatingClassifier(0, 2)
        with pytest.raises(ValueError):
            AnticipatingClassifier(2, 0)
        # a seed premise's trace, 2 * 1e154 ** 2, overflows
        with pytest.raises(ConfigError, match="finite"):
            AnticipatingClassifier(2, 2, LearnerConfig(sigma_init=1e154))
        # below the bound at 10 features, about 4.2e153, the seed is finite
        learner = AnticipatingClassifier(10, 2, LearnerConfig(sigma_init=1e153))
        X, y = gaussian_stream(np.random.default_rng(6), 40,
                               centers=[[0.0] * 10, [4.0] * 10])
        train(learner, X, y)
        assert learner.samples_seen == 40
        assert np.isfinite(learner.system.stacks().invs).all()


class TestForgettingModes:
    def run_stream(self, **cfg):
        rng = np.random.default_rng(7)
        learner = make_learner(ws=10, **cfg)
        X, y = two_blob_stream(rng, 150)
        train(learner, X, y)
        return learner

    def test_none_leaves_all_windows_empty(self):
        learner = self.run_stream(forgetting_mode="none")
        for rule in learner.system.rules:
            assert len(rule.window) == 0
            pair = learner.anticipations[rule.id]
            assert len(pair.slow.window) == 0
            assert len(pair.fast.window) == 0

    def test_forget_am_fills_pair_windows_only(self):
        learner = self.run_stream(forgetting_mode="forget_am")
        pair_fill = 0
        for rule in learner.system.rules:
            assert len(rule.window) == 0
            pair = learner.anticipations[rule.id]
            assert len(pair.slow.window) <= 10
            assert len(pair.slow.window) == len(pair.fast.window)
            pair_fill += len(pair.slow.window)
        assert pair_fill > 0

    def test_forget_ps_fills_principal_windows_too(self):
        learner = self.run_stream(forgetting_mode="forget_ps")
        for rule in learner.system.rules:
            assert 0 < len(rule.window) <= 10

    def test_raw_weight_smoke(self):
        learner = self.run_stream(wrls_weight="raw")
        preds = [learner.predict_one(x)
                 for x in ([0.0, 0.0], [4.0, 4.0])]
        assert preds == [0, 1]


class TestDriftReplacement:
    def fire_one(self, strategy, am_init="parent", forgetting_mode="forget_am"):
        """Train on a blob, jump the blob, return state around the first event."""
        cfg = LearnerConfig(ks=0.6, nmin=3, tmax1=60, tmax2=5, ws=15,
                            strategy=strategy, am_init=am_init,
                            forgetting_mode=forgetting_mode)
        learner = AnticipatingClassifier(2, 2, cfg)
        rng = np.random.default_rng(11)
        # settled phase: two blobs, far apart
        X, y = gaussian_stream(rng, 60, centers=[[0.0, 0.0], [12.0, 12.0]],
                               sigma=0.4)
        train(learner, X, y)
        assert learner.drift_log == []
        # jump the class-0 blob; the fast sub-rule follows, the slow one lags
        Xj = rng.normal(0.0, 0.4, size=(200, 2)) + np.array([5.0, 0.0])
        # the state of every rule and pair just before the replacement,
        # after the sample that fires it has been learned
        snapshot = {}
        replace = learner._replace_rule

        def spy(winner, separation):
            snapshot.update({
                r.id: (self.pair_parts(learner.anticipations[r.id]),
                       (r, self.parts(r)))
                for r in learner.system.rules})
            replace(winner, separation)

        learner._replace_rule = spy
        for xi in Xj:
            ids_before = [r.id for r in learner.system.rules]
            next_id = learner.next_rule_id
            learner.learn_one(xi, 0)
            if learner.drift_log:
                return learner, snapshot, ids_before, next_id
        raise AssertionError("no drift event fired")

    @staticmethod
    def parts(sub):
        """The bytes of a rule's or sub-rule's premise, consequent and
        window."""
        p, c, w = sub.premise, sub.consequent, sub.window
        return {
            "premise": (p.center.tobytes(), p.cov.tobytes(),
                        p.cov_inv.tobytes(), p.hits),
            "consequent": (c.coeffs.tobytes(), c.corr.tobytes()),
            "window": ([(x.tobytes(), weight) for x, weight in entries(w)],
                       w.skipped),
        }

    def pair_parts(self, pair):
        return pair.samples_seen, self.parts(pair.slow), self.parts(pair.fast)

    @staticmethod
    def check_born_classes(learner, snapshot, event, pos):
        """The two new rules, at ``pos`` and ``pos + 1``, carry the replaced
        rule's born class; every other rule keeps its own."""
        born = {rid: rule.born_class for rid, (_, (rule, _)) in snapshot.items()}
        rules = learner.system.rules
        assert rules[pos].born_class == born[event.rule_id]
        assert rules[pos + 1].born_class == born[event.rule_id]
        kept = rules[:pos] + rules[pos + 2:]
        assert all(rule.born_class == born[rule.id] for rule in kept)
        assert learner.system.born_classes.tolist() == [r.born_class for r in rules]

    def test_naive_replacement(self):
        learner, snapshot, ids_before, next_id = self.fire_one("naive")
        event = learner.drift_log[0]
        assert event.strategy == "naive"
        assert event.rule_id in ids_before
        assert event.separation > 0.6
        assert learner.n_rules == len(ids_before) + 1
        # the drifted rule is gone, replaced in place by its two sub-rules
        ids_after = [r.id for r in learner.system.rules]
        assert event.rule_id not in ids_after
        assert learner.next_rule_id == next_id + 2
        pos = ids_before.index(event.rule_id)
        assert ids_after[pos] == next_id
        assert ids_after[pos + 1] == next_id + 1
        self.check_born_classes(learner, snapshot, event, pos)
        (_, slow, fast), _ = snapshot[event.rule_id]
        slow_rule = learner.system.rules[pos]
        fast_rule = learner.system.rules[pos + 1]
        assert self.parts(slow_rule) == slow
        assert self.parts(fast_rule) == fast
        # both replacements got fresh shadow pairs
        for rule in (slow_rule, fast_rule):
            assert learner.anticipations[rule.id].samples_seen == 0
        assert event.rule_id not in learner.anticipations

    def test_naive_leaves_other_rules_alone(self):
        learner, snapshot, ids_before, _ = self.fire_one("naive")
        event = learner.drift_log[0]
        for rid in ids_before:
            if rid == event.rule_id:
                continue
            pair, (rule_before, parts) = snapshot[rid]
            rule_after = next(r for r in learner.system.rules if r.id == rid)
            assert rule_after.born_class == rule_before.born_class
            assert self.parts(rule_after) == parts
            # the untouched rule keeps its shadow pair, history included
            assert self.pair_parts(learner.anticipations[rid]) == pair

    def test_global_swaps_every_conclusion_and_respawns_pairs(self):
        learner, snapshot, ids_before, _ = self.fire_one("global")
        event = learner.drift_log[0]
        assert event.strategy == "global"
        assert learner.n_rules == len(ids_before) + 1
        self.check_born_classes(learner, snapshot, event,
                                ids_before.index(event.rule_id))
        for rid in ids_before:
            if rid == event.rule_id:
                continue
            (_, slow, _), (_, before) = snapshot[rid]
            rule_after = next(r for r in learner.system.rules if r.id == rid)
            # every surviving rule adopted its own shadow slow conclusion
            # and window, and kept its premise
            after = self.parts(rule_after)
            assert after["consequent"] == slow["consequent"]
            assert after["window"] == slow["window"]
            assert after["premise"] == before["premise"]
        # all pairs restart from scratch
        assert set(learner.anticipations) == {r.id for r in learner.system.rules}
        for pair in learner.anticipations.values():
            assert pair.samples_seen == 0
            assert len(pair.slow.window) == 0

    def test_global_zero_init_keeps_window_consistency(self):
        # with blank-start pair conclusions and pair-level forgetting, every
        # conclusion a global replacement installs satisfies the window
        # identity corr^-1 = (1/omega) I + sum(w x x') over its own window
        learner, _, _, _ = self.fire_one("global", am_init="zero")
        omega = learner.config.omega
        k = learner.system.n_features + 1
        for rule in learner.system.rules:
            lhs = np.linalg.inv(rule.consequent.corr)
            rhs = np.eye(k) / omega
            for x_aug, w in entries(rule.window):
                rhs += w * np.outer(x_aug, x_aug)
            assert np.linalg.norm(lhs - rhs) < 1e-6

    def test_rule_held_across_its_replacement_is_detached(self):
        # a rule read before the drift that replaces it keeps its own
        # arrays: it neither reads the rule that takes its row nor writes
        # into the live model
        _, cfg, X, y = _sea_stream()
        learner = AnticipatingClassifier(3, 2, cfg)
        for xi, yi in zip(X, y):
            held = learner.system.rules
            learner.learn_one(xi, int(yi))
            if learner.drift_log:
                break
        event = learner.drift_log[0]
        assert (event.sample_index, event.rule_id) == (371, 0)
        old = next(rule for rule in held if rule.id == event.rule_id)
        i = held.index(old)
        live = learner.system.rules[i]
        assert live.id != old.id
        assert live.premise.center.tobytes() != old.premise.center.tobytes()
        stacks = learner.system.stacks()
        bank = learner.windows
        for view in (old.premise.center, old.premise.cov, old.premise.cov_inv,
                     old.consequent.coeffs, old.consequent.corr,
                     old.window.samples, old.window.weights, old.window.state):
            for live_array in (*stacks, bank.samples, bank.weights, bank.state):
                assert not np.shares_memory(view, live_array)
        before = state_bytes(learner)
        old.premise.center[:] = 123.0
        old.premise.cov_inv[:] = 0.5
        old.consequent.coeffs[:] = 7.0
        old.consequent.corr[:] = 3.0
        for _ in range(cfg.ws + 1):
            old.window.push(np.ones(4), 1.0)
        old.window.state[2] += 1
        assert state_bytes(learner) == before

    def test_infinite_ks_never_fires(self):
        rng = np.random.default_rng(5)
        learner = make_learner(nmin=1)
        X = np.concatenate([rng.normal(0.0, 0.4, size=(80, 2)),
                            rng.normal(0.0, 0.4, size=(80, 2)) + 6.0])
        for xi in X:
            learner.learn_one(xi, 0)
        assert learner.drift_log == []

    def test_every_drift_comes_from_a_counted_quadratic_form(self, monkeypatch):
        # the benchmark counts separation tests as quadratic_form_pair
        # calls, wrapped on the class; every drift must pass through one
        calls = []
        quadratic_form_pair = fis.FuzzySystem.quadratic_form_pair

        def counting(system, row, vec):
            calls.append(row)
            return quadratic_form_pair(system, row, vec)

        monkeypatch.setattr(fis.FuzzySystem, "quadratic_form_pair", counting)
        learner = make_learner(ks=0.6, nmin=3, tmax2=5, strategy="global")
        X, y = two_blob_stream(np.random.default_rng(17), 150)
        X[100:] += 3.0
        train(learner, X, y)
        assert learner.drift_log
        assert len(calls) >= len(learner.drift_log)

    def test_stationary_stream_never_fires(self):
        # default detector settings on a well separated stationary mixture
        rng = np.random.default_rng(2)
        learner = AnticipatingClassifier(2, 2, LearnerConfig())
        X, y = gaussian_stream(rng, 600, centers=[[0.0, 0.0], [3.0, 3.0]],
                               sigma=0.5)
        train(learner, X, y)
        assert learner.drift_log == []


class TestConsistency:
    def test_identical_streams_identical_models(self):
        preds, logs, hashes = [], [], []
        for _ in range(2):
            rng = np.random.default_rng(17)
            learner = AnticipatingClassifier(
                2, 2, LearnerConfig(ks=0.6, nmin=3, tmax2=5, strategy="global"))
            X, y = two_blob_stream(rng, 150)
            X[100:] += 3.0  # shove the stream so drift machinery engages
            preds.append(train(learner, X, y))
            logs.append([(e.sample_index, e.rule_id, e.strategy, e.separation)
                         for e in learner.drift_log])
            hashes.append(model_state_hash(learner))
        assert preds[0] == preds[1]
        assert logs[0] == logs[1]
        assert hashes[0] == hashes[1]

    def test_samples_seen_counts_every_learn(self):
        rng = np.random.default_rng(1)
        learner = make_learner()
        X, y = two_blob_stream(rng, 37)
        train(learner, X, y)
        assert learner.samples_seen == 37


class TestMembershipSwitch:
    """learn_one scores every stacked row in one pass on small stacks and
    splits off the winner's pair on large ones; both give the same bits."""

    @staticmethod
    def _run(monkeypatch, skipped, make):
        monkeypatch.setattr(learner_module, "_SPLIT_MIN_SKIPPED", skipped)
        bounds = []
        real = fis.FuzzySystem.memberships_all

        def recording(self, x, stop=None, start=0):
            bounds.append(start)
            return real(self, x, stop, start)

        monkeypatch.setattr(fis.FuzzySystem, "memberships_all", recording)
        d, cfg, X, y = make()
        learner = AnticipatingClassifier(d, 2, cfg)
        preds = train(learner, X, y)
        split_calls = sum(start > 0 for start in bounds)
        return (preds, learner.drift_log, state_bytes(learner)), split_calls

    @pytest.mark.parametrize("make", [_criterion_9_stream, _sea_stream,
                                      _plane10d_prefix])
    def test_fused_and_split_passes_agree(self, monkeypatch, make):
        fused, fused_splits = self._run(monkeypatch, math.inf, make)
        split, split_splits = self._run(monkeypatch, -1, make)
        assert fused_splits == 0 and split_splits > 0  # each side was taken
        assert fused[0] == split[0]
        assert fused[1] == split[1]
        assert fused[2] == split[2]
        if make is not _criterion_9_stream:
            assert fused[1]  # the stream reaches the drift machinery

    @pytest.mark.parametrize("mode", ["none", "forget_am", "forget_ps"])
    @pytest.mark.parametrize("far", [1e150, 1e200])
    def test_far_sample_same_outcome_on_both_sides(self, monkeypatch, mode, far):
        # the fused pass also scores the pairs the split pass skips, so it
        # must neither warn nor raise where the split pass accepts
        outcomes = []
        for skipped in (math.inf, -1):
            monkeypatch.setattr(learner_module, "_SPLIT_MIN_SKIPPED", skipped)
            learner = make_learner(forgetting_mode=mode)
            X, y = gaussian_stream(np.random.default_rng(5), 60,
                                   centers=[[0.0, 0.0], [3.0, 3.0]])
            train(learner, X, y)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    outcome = learner.learn_one(np.array([far, 0.0]), 0)
                except NonFiniteInputError as exc:
                    outcome = str(exc)
            outcomes.append((outcome, state_bytes(learner)))
        assert outcomes[0] == outcomes[1]
        # 1e150 is accepted (a class is returned); 1e200 overflows and raises
        assert isinstance(outcomes[0][0], int) == (far == 1e150)


@pytest.mark.parametrize("make", [_sea_stream, _plane10d_prefix])
def test_premise_alphas_are_nonzero_on_the_blended_rows_only(monkeypatch,
                                                           make):
    # learn_one builds its alphas afresh each sample: the winner's and its
    # pair's rows carry weight, every other row 0, whatever the last
    # sample blended. The bench counts the nonzero alphas as rows_active
    # and must find them equal to the rows re-inverted
    real = fis.FuzzySystem.advance_premises
    calls = []

    def recording(self, x, alphas, rows):
        assert alphas.shape == (self.n_rows, 1)
        assert np.flatnonzero(alphas).tolist() == sorted(rows.tolist())
        calls.append(rows.shape[0])
        return real(self, x, alphas, rows)

    monkeypatch.setattr(fis.FuzzySystem, "advance_premises", recording)
    d, cfg, X, y = make()
    learner = AnticipatingClassifier(d, 2, cfg)
    train(learner, X, y)
    assert calls and set(calls) == {3}


@given(n=st.integers(1, 60), data=st.data(), seed=st.integers(0, 2**16),
       strategy=st.sampled_from(["naive", "global"]),
       mode=st.sampled_from(["none", "forget_am", "forget_ps"]))
@settings(deadline=None)
def test_failed_class_growth_leaves_the_stream_unchanged(n, data, seed,
                                                         strategy, mode):
    """A label whose class count numpy cannot allocate raises wherever it
    comes in a growing stream, founding sample included, and leaves the
    state bytes as they were, so the stream ends as if it never came."""
    position = data.draw(st.integers(0, n - 1), label="position")
    X, y = two_blob_stream(np.random.default_rng(seed), n)
    X[n // 2:] += 2.0
    learners = [make_learner(ks=0.6, nmin=3, tmax2=5, ws=4, strategy=strategy,
                             forgetting_mode=mode, allow_class_growth=True)
                for _ in range(2)]
    hit, clean = learners
    for i, (xi, yi) in enumerate(zip(X, y)):
        if i == position:
            before = state_bytes(hit)
            with pytest.raises((MemoryError, ValueError)):
                hit.learn_one(xi, 10 ** 15)
            assert state_bytes(hit) == before
        for learner in learners:
            learner.learn_one(xi, int(yi))
    assert state_bytes(hit) == state_bytes(clean)


@given(strategy=st.sampled_from(["naive", "global"]),
       mode=st.sampled_from(["none", "forget_am", "forget_ps"]),
       ws=st.integers(1, 6),
       late_class_at=st.one_of(st.none(), st.integers(40, 150)),
       round_trip_at=st.integers(1, 159),
       seed=st.integers(0, 2**16),
       am_init=st.sampled_from(["parent", "zero"]))
@settings(deadline=None)
def test_covariance_stacks_stay_exactly_symmetric(
        strategy, mode, ws, late_class_at, round_trip_at, seed, am_init):
    """regularized_inverse_stack inverts the covariance stacks unsymmetrized,
    so every update must keep them symmetric exactly: births, drifts, pairs
    spawned from their parent or blank (am_init), forgetting, class growth
    and a snapshot round trip mid-stream. Through
    all of it, no correlation or coefficient entry is -0.0 (the conclusion
    kernels' einsum terms match the broadcast ones only then), each shadow
    pair's two window rows stay in lockstep, a freshly spawned pair's
    rows are blank, and no rule id is reused: the ids stay distinct, each
    new one exceeds every id the stream had before, round trip included,
    and a replaced rule's id leaves with it."""
    rng = np.random.default_rng(seed)
    X, y = two_blob_stream(rng, 160)
    X[60:] += 2.0
    X[110:] += 2.0
    if late_class_at is not None:
        y[late_class_at::3] = 2
    learner = AnticipatingClassifier(2, 2, LearnerConfig(
        ks=0.6, nmin=3, tmax2=5, ws=ws, strategy=strategy,
        forgetting_mode=mode, allow_class_growth=late_class_at is not None,
        am_init=am_init))
    largest = -1  # the largest rule id so far in the stream
    for i, (xi, yi) in enumerate(zip(X, y)):
        if i == round_trip_at:
            learner = from_state_dict(json.loads(json.dumps(state_dict(learner))))
        ids_before = set(learner.system.ids.tolist())
        drifts_before = len(learner.drift_log)
        learner.learn_one(xi, int(yi))
        # ids are never reused: they are distinct, each new one exceeds
        # every earlier one, and a rule replaced now takes its id along
        ids = learner.system.ids.tolist()
        assert len(set(ids)) == len(ids)
        assert all(rid > largest for rid in set(ids) - ids_before)
        assert all(event.rule_id not in ids
                   for event in learner.drift_log[drifts_before:])
        largest = max(largest, *ids)
        stacks = learner.system.stacks()
        for stack in (stacks.covs, stacks.corrs):
            assert stack.tobytes() == np.swapaxes(stack, 1, 2).tobytes()
        assert not has_negative_zero(stacks.corrs)
        assert not has_negative_zero(stacks.coeffs)
        windows, n = learner.windows, learner.n_rules
        assert windows.state.shape[1] == learner.system.n_rows
        for i, seen in enumerate(learner.pair_seen):
            row = n + 2 * i
            slow, fast = windows.window(row), windows.window(row + 1)
            # equal head and fill, and the same samples, bit for bit
            assert slow.state[:2].tolist() == fast.state[:2].tolist()
            assert slow.ordered()[0].tobytes() == fast.ordered()[0].tobytes()
            if seen == 0:  # the pair has learned nothing since its spawn
                assert not windows.state[:, row:row + 2].any()
                assert not windows.weights[row:row + 2].any()
            elif mode != "none":
                assert len(slow) == min(seen, ws)
