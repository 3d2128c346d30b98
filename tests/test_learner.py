"""Tests for the streaming classifier: births, updates, drift replacement."""

import math
import re

import numpy as np
import pytest

import driftfis
from driftfis import fis
from driftfis.config import LearnerConfig
from driftfis.learner import (
    AnticipatingClassifier,
    NonFiniteInputError,
    UnknownClassError,
)
from driftfis.snapshot import model_state_hash

from helpers import entries, gaussian_stream


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
    def test_first_sample_founds_a_rule_and_returns_its_class(self):
        learner = make_learner()
        assert learner.learn_one([0.5, -0.5], 1) == 1
        assert learner.n_rules == 1
        assert learner.seen_classes == {1}
        assert learner.samples_seen == 1
        rule = learner.system.rules[0]
        assert np.array_equal(rule.premise.center, [0.5, -0.5])
        assert rule.premise.horizon is None
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


class TestValidation:
    def test_wrong_feature_count_raises(self):
        learner = make_learner()
        with pytest.raises(ValueError):
            learner.learn_one([1.0, 2.0, 3.0], 0)
        with pytest.raises(ValueError):
            learner.predict_one([1.0])

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

    @pytest.mark.parametrize("label", [np.int64(1), 1.0, np.float32(1.0), True])
    def test_integral_labels_are_accepted(self, label):
        models = []
        for y1 in (1, label):
            learner = make_learner()
            learner.learn_one([0.0, 0.0], 0)
            assert learner.learn_one([4.0, 4.0], y1) == 0
            learner.learn_one([4.5, 4.0], y1)
            models.append(model_state_hash(learner))
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
        learner = make_learner(allow_class_growth=True)
        learner.learn_one([0.0, 0.0], 0)
        learner.learn_one([5.0, 5.0], 1)
        before = learner.system.rules[0].consequent.coeffs.copy()
        learner._grow_classes(5)
        after = learner.system.rules[0].consequent.coeffs
        assert after.shape == (3, 5)
        assert np.array_equal(after[:, :2], before)
        assert np.array_equal(after[:, 2:], np.zeros((3, 3)))

    @pytest.mark.parametrize("n_trained", [0, 60])
    @pytest.mark.parametrize("bad", [[math.nan, 0.0], [0.0, math.inf],
                                     [-math.inf, math.nan]])
    def test_non_finite_features_rejected_before_any_change(self, n_trained, bad):
        learner = make_learner(ks=0.6, nmin=3, allow_class_growth=True)
        X, y = two_blob_stream(np.random.default_rng(8), n_trained)
        train(learner, X, y)
        digest = model_state_hash(learner)
        with pytest.raises(NonFiniteInputError):
            learner.learn_one(bad, 5)  # a new label would grow the classes
        assert model_state_hash(learner) == digest
        assert learner.system.n_classes == 2

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
        # the ones scores_from_memberships computes from betas alone
        learner = make_learner(ks=0.6, nmin=3)
        X, y = two_blob_stream(np.random.default_rng(4), 120)
        train(learner, X, y)
        system = learner.system
        for x in X[:40]:
            expected = system.scores_from_memberships(
                system.memberships(x), np.concatenate(([1.0], x)))
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
        window; the horizon follows from the role, so it is left out."""
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
        (_, slow, fast), _ = snapshot[event.rule_id]
        slow_rule = learner.system.rules[pos]
        fast_rule = learner.system.rules[pos + 1]
        assert self.parts(slow_rule) == slow
        assert self.parts(fast_rule) == fast
        # principal premises never forget
        assert slow_rule.premise.horizon is None
        assert fast_rule.premise.horizon is None
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
            assert rule_after is rule_before
            assert self.parts(rule_after) == parts
            # the untouched rule keeps its shadow pair, history included
            assert self.pair_parts(learner.anticipations[rid]) == pair

    def test_global_swaps_every_conclusion_and_respawns_pairs(self):
        learner, snapshot, ids_before, _ = self.fire_one("global")
        event = learner.drift_log[0]
        assert event.strategy == "global"
        assert learner.n_rules == len(ids_before) + 1
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
