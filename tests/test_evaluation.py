"""Tests for periodic hold-out evaluation and McNemar comparison."""

import math

import numpy as np
import pytest

from driftfis.config import ConfigError, ExperimentConfig, LearnerConfig
from driftfis.evaluation import (
    K_STRONG,
    K_WEAK,
    MIN_CONTINGENCY,
    RESULTS_FORMAT,
    load_results,
    mcnemar,
    periodic_holdout,
    persist_results,
    resolve_chunk_sizes,
    results_payload,
    run_experiment,
    write_chunk_csv,
)
from driftfis.learner import AnticipatingClassifier
from driftfis.streams import Stream, gen_sea


class OracleLearner:
    """Duck-typed learner that always answers with the sample's true class."""

    def __init__(self, rule):
        self.rule = rule
        self.trained = 0

    def learn_one(self, x, y):
        self.trained += 1
        return self.rule(x)

    def predict_one(self, x):
        return self.rule(x)


class ImpureLearner(AnticipatingClassifier):
    """Native learner whose first prediction also applies ``mutate`` to it."""

    def __init__(self, mutate):
        super().__init__(2, 2, LearnerConfig(ks=math.inf))
        self.mutate = mutate

    def predict_one(self, x):
        if self.mutate is not None:
            self.mutate(self)
            self.mutate = None
        return super().predict_one(x)


def _ulp_up(arr, index):
    arr[index] = np.nextafter(arr[index], math.inf)


def _bump_hits(learner):
    learner.system.rules[0].premise.hits += 1


def _detach_coefficients(learner):
    # the rule's array stops being a view of the stack prediction reads, so
    # only the snapshot side of the state changes
    con = learner.system.rules[0].consequent
    con.coeffs = con.coeffs + 1.0


def labeled_stream(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 2))
    y = (X[:, 0] > 0.5).astype(np.int64)
    return Stream(X=X, y=y, meta={"generator": "test"})


class TestPeriodicHoldout:
    def test_perfect_learner_scores_one(self):
        stream = labeled_stream()
        res = periodic_holdout(OracleLearner(lambda x: int(x[0] > 0.5)),
                               stream, trs=50, tes=50)
        assert res.per_chunk_accuracy == [1.0] * 4
        assert res.mean_accuracy == 1.0
        assert res.std_accuracy == 0.0

    def test_constant_learner_scores_class_rate(self):
        stream = labeled_stream(n=2000, seed=1)
        res = periodic_holdout(OracleLearner(lambda x: 0), stream, trs=100, tes=100)
        assert res.mean_accuracy == pytest.approx(
            float(np.mean(stream.y == 0)), abs=0.06)

    def test_shapes_and_bookkeeping(self):
        stream = labeled_stream(n=430)  # 4 full pairs of 100, 30 dropped
        learner = OracleLearner(lambda x: 1)
        res = periodic_holdout(learner, stream, trs=60, tes=40)
        assert len(res.per_chunk_accuracy) == 4
        assert res.predictions.shape == (160,)
        assert res.truths.shape == (160,)
        assert res.samples_trained == 240
        assert learner.trained == 240

    def test_stats_recomputable_from_chunks(self):
        stream = labeled_stream(n=600, seed=2)
        rng_rule = np.random.default_rng(3)
        res = periodic_holdout(
            OracleLearner(lambda x: int(rng_rule.random() < 0.7)),
            stream, trs=50, tes=50)
        acc = np.array(res.per_chunk_accuracy)
        assert res.mean_accuracy == pytest.approx(float(acc.mean()), rel=1e-12)
        assert res.std_accuracy == pytest.approx(float(acc.std()), rel=1e-12)

    def test_truths_mirror_test_chunks(self):
        stream = labeled_stream(n=400)
        res = periodic_holdout(OracleLearner(lambda x: 0), stream, trs=50, tes=50)
        expected = np.concatenate(
            [stream.y[k * 100 + 50:(k + 1) * 100] for k in range(4)])
        assert np.array_equal(res.truths, expected)

    def test_native_learner_with_purity_check(self):
        stream = labeled_stream(n=400, seed=5)
        learner = AnticipatingClassifier(2, 2, LearnerConfig(ks=math.inf))
        res = periodic_holdout(learner, stream, trs=50, tes=50,
                               verify_purity=True)
        assert res.final_rules == learner.n_rules
        assert res.drift_events == []
        assert 0.5 < res.mean_accuracy <= 1.0

    @pytest.mark.parametrize("mutate", [
        lambda m: _ulp_up(m.system.rules[0].consequent.coeffs, (0, 0)),
        _bump_hits,
        lambda m: _ulp_up(m.system._invs, (0, 1, 1)),
        _detach_coefficients,
    ], ids=["coefficient-ulp", "hits", "cached-inverse", "detached-array"])
    def test_purity_check_catches_scoring_that_mutates(self, mutate):
        stream = labeled_stream(n=400, seed=5)
        with pytest.raises(RuntimeError, match="test chunk 0"):
            periodic_holdout(ImpureLearner(mutate), stream, trs=50, tes=50,
                             verify_purity=True)
        res = periodic_holdout(ImpureLearner(mutate), stream, trs=50, tes=50)
        assert len(res.per_chunk_accuracy) == 4

    def test_standardize_fits_on_first_train_chunk(self):
        # shift features far from the origin: without scaling the seeded
        # spherical premises are a poor match, with scaling accuracy recovers
        rng = np.random.default_rng(7)
        X = rng.normal(0.0, 1.0, size=(600, 2))
        y = (X[:, 0] > 0.0).astype(np.int64)
        stream = Stream(X=X * 1e3 + 5e4, y=y, meta={})
        learner = AnticipatingClassifier(2, 2, LearnerConfig(ks=math.inf))
        res = periodic_holdout(learner, stream, trs=100, tes=50,
                               standardize=True)
        assert res.mean_accuracy > 0.8


class TestMcNemar:
    def test_worked_example(self):
        # 15 discordant one way, 5 the other: K = (15-5)^2 / 20 = 5.0
        truth = np.zeros(40, dtype=int)
        preds_a = np.zeros(40, dtype=int)
        preds_b = np.zeros(40, dtype=int)
        preds_b[:15] = 1   # a right, b wrong
        preds_a[15:20] = 1  # a wrong, b right
        out = mcnemar(preds_a, preds_b, truth)
        assert out.n10 == 15
        assert out.n01 == 5
        assert out.k_statistic == pytest.approx(5.0)
        assert out.verdict == "approx"
        assert out.low_contingency
        assert out.symbol() == "≈ (x)"

    def test_identical_predictions(self):
        truth = np.array([0, 1, 0, 1])
        preds = np.array([0, 1, 1, 1])
        out = mcnemar(preds, preds, truth)
        assert out.k_statistic == 0.0
        assert out.verdict == "minus"
        assert out.low_contingency

    def test_strong_difference(self):
        truth = np.zeros(100, dtype=int)
        preds_a = np.zeros(100, dtype=int)
        preds_b = np.zeros(100, dtype=int)
        preds_b[:30] = 1  # b wrong on 30, a never wrong
        out = mcnemar(preds_a, preds_b, truth)
        assert out.k_statistic == pytest.approx(30.0)
        assert out.verdict == "plus"
        assert not out.low_contingency
        assert out.symbol() == "+"

    def test_verdict_thresholds(self):
        assert K_STRONG == 6.63
        assert K_WEAK == 2.7
        assert MIN_CONTINGENCY == 25
        # exactly at the weak threshold counts as approx
        truth = np.zeros(60, dtype=int)
        preds_a = np.zeros(60, dtype=int)
        preds_b = np.zeros(60, dtype=int)
        # n10 = 9, n01 = 1: K = 64/10 = 6.4 -> approx, 10 discordant -> low
        preds_b[:9] = 1
        preds_a[9:10] = 1
        out = mcnemar(preds_a, preds_b, truth)
        assert out.k_statistic == pytest.approx(6.4)
        assert out.verdict == "approx"

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = 200
            truth = rng.integers(0, 2, size=n)
            preds_a = np.where(rng.random(n) < 0.3, 1 - truth, truth)
            preds_b = np.where(rng.random(n) < 0.3, 1 - truth, truth)
            ab = mcnemar(preds_a, preds_b, truth)
            ba = mcnemar(preds_b, preds_a, truth)
            assert ab.k_statistic == ba.k_statistic
            assert ab.n01 == ba.n10
            assert ab.n10 == ba.n01
            assert ab.low_contingency == ba.low_contingency

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mcnemar([0, 1], [0, 1, 0], [0, 1, 0])


class TestRunExperiment:
    def test_smoke_on_small_sea(self):
        cfg = ExperimentConfig(dataset="sea", n_samples=2000, trs=100, tes=100)
        outcome = run_experiment(cfg)
        assert outcome.trs == 100 and outcome.tes == 100
        assert len(outcome.result.per_chunk_accuracy) == 10
        assert outcome.result.mean_accuracy > 0.7
        assert outcome.stream_meta["generator"] == "sea"
        assert outcome.learner.n_rules >= 2

    def test_forgetting_is_inert_without_drift_events(self):
        # with the detector disabled, pair-level forgetting only changes the
        # shadow copies, so principal predictions match a no-forgetting run
        preds = {}
        for mode in ("none", "forget_am"):
            cfg = ExperimentConfig(
                dataset="sea", n_samples=1500, trs=100, tes=50,
                learner=LearnerConfig(ks=math.inf, forgetting_mode=mode))
            outcome = run_experiment(cfg)
            assert outcome.result.drift_events == []
            preds[mode] = outcome.result.predictions
        assert np.array_equal(preds["none"], preds["forget_am"])

    def test_preset_chunk_sizes_resolved(self):
        cfg = ExperimentConfig(dataset="line", n_samples=500)
        assert resolve_chunk_sizes(cfg) == (200, 50)
        cfg2 = ExperimentConfig(dataset="line", n_samples=500, trs=100, tes=25)
        assert resolve_chunk_sizes(cfg2) == (100, 25)

    def test_chunk_sizes_required_for_csv(self, tmp_path):
        cfg = ExperimentConfig(dataset=str(tmp_path / "x.csv"))
        with pytest.raises(ConfigError):
            resolve_chunk_sizes(cfg)

    def test_deterministic_across_runs(self):
        cfg = ExperimentConfig(dataset="sin", n_samples=800, trs=100, tes=50,
                               seed=3)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert np.array_equal(a.result.predictions, b.result.predictions)
        assert a.result.per_chunk_accuracy == b.result.per_chunk_accuracy


class TestResultsFiles:
    def outcome(self):
        cfg = ExperimentConfig(dataset="sea", n_samples=1000, trs=100, tes=100)
        return run_experiment(cfg)

    def test_payload_fields(self):
        payload = results_payload(self.outcome())
        assert payload["format"] == RESULTS_FORMAT
        assert payload["version"] == 1
        assert payload["n_chunks"] == 5
        assert len(payload["predictions"]) == len(payload["truths"]) == 500
        assert payload["config"]["dataset"] == "sea"
        assert payload["drift_event_count"] == len(payload["drift_events"])
        assert "timestamp" in payload

    def test_persist_and_load_roundtrip(self, tmp_path):
        payload = results_payload(self.outcome())
        path = tmp_path / "deep" / "results.json"
        persist_results(payload, str(path))
        back = load_results(str(path))
        assert back["mean_accuracy"] == payload["mean_accuracy"]
        assert back["predictions"] == payload["predictions"]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match=RESULTS_FORMAT):
            load_results(str(path))
        path2 = tmp_path / "scalar.json"
        path2.write_text("42", encoding="utf-8")
        with pytest.raises(ValueError):
            load_results(str(path2))

    def test_write_chunk_csv(self, tmp_path):
        outcome = self.outcome()
        path = tmp_path / "chunks.csv"
        write_chunk_csv(outcome.result, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "chunk,accuracy"
        assert len(lines) == 6
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == outcome.result.per_chunk_accuracy
