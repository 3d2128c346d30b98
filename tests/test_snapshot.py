"""Tests for model serialization: exact resume, format guards."""

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfis.config import LearnerConfig
from driftfis.learner import AnticipatingClassifier
from driftfis.snapshot import (
    FORMAT_NAME,
    FORMAT_VERSION,
    SnapshotError,
    from_state_dict,
    load_model,
    model_state_hash,
    save_model,
    state_bytes,
    state_bytes_match,
    state_dict,
)

from helpers import entries, gaussian_stream


def trained_learner(n=200, seed=23, **cfg_overrides):
    cfg = dict(ks=0.6, nmin=3, tmax2=5, ws=12, strategy="global",
               forgetting_mode="forget_am")
    cfg.update(cfg_overrides)
    learner = AnticipatingClassifier(2, 2, LearnerConfig(**cfg))
    rng = np.random.default_rng(seed)
    X, y = gaussian_stream(rng, n, centers=[[0.0, 0.0], [4.0, 4.0]], sigma=0.5)
    X[n // 2:] += 2.5  # mid-stream shift so drift machinery leaves tracks
    for xi, yi in zip(X, y):
        learner.learn_one(xi, int(yi))
    return learner


class TestRoundTrip:
    def test_state_dict_roundtrip_is_exact(self):
        learner = trained_learner()
        clone = from_state_dict(state_dict(learner))
        assert model_state_hash(clone) == model_state_hash(learner)

    def test_file_roundtrip_is_exact(self, tmp_path):
        learner = trained_learner()
        path = tmp_path / "model.json"
        save_model(learner, str(path))
        clone = load_model(str(path))
        assert model_state_hash(clone) == model_state_hash(learner)

    def test_resumed_training_matches_uninterrupted(self, tmp_path):
        rng = np.random.default_rng(31)
        X, y = gaussian_stream(rng, 400, centers=[[0.0, 0.0], [4.0, 4.0]],
                               sigma=0.5)
        X[250:] += 3.0

        straight = AnticipatingClassifier(
            2, 2, LearnerConfig(ks=0.6, nmin=3, tmax2=5, ws=12))
        preds_straight = [straight.learn_one(xi, int(yi))
                          for xi, yi in zip(X, y)]

        resumed = AnticipatingClassifier(
            2, 2, LearnerConfig(ks=0.6, nmin=3, tmax2=5, ws=12))
        preds_head = [resumed.learn_one(xi, int(yi))
                      for xi, yi in zip(X[:200], y[:200])]
        path = tmp_path / "checkpoint.json"
        save_model(resumed, str(path))
        resumed = load_model(str(path))
        preds_tail = [resumed.learn_one(xi, int(yi))
                      for xi, yi in zip(X[200:], y[200:])]

        assert preds_head + preds_tail == preds_straight
        assert model_state_hash(resumed) == model_state_hash(straight)

    def test_bookkeeping_survives(self):
        learner = trained_learner()
        assert learner.drift_log, "fixture should have fired at least once"
        clone = from_state_dict(state_dict(learner))
        assert clone.samples_seen == learner.samples_seen
        assert clone.next_rule_id == learner.next_rule_id
        assert clone.seen_classes == learner.seen_classes
        assert len(clone.drift_log) == len(learner.drift_log)
        for a, b in zip(clone.drift_log, learner.drift_log):
            assert (a.sample_index, a.rule_id, a.strategy, a.separation) == \
                (b.sample_index, b.rule_id, b.strategy, b.separation)
        assert [r.id for r in clone.system.rules] == \
            [r.id for r in learner.system.rules]
        for mine, theirs in zip(clone.system.rules, learner.system.rules):
            assert np.array_equal(mine.premise.center, theirs.premise.center)
            assert np.array_equal(mine.consequent.coeffs, theirs.consequent.coeffs)
            assert len(mine.window) == len(theirs.window)
            assert mine.window.skipped == theirs.window.skipped

    def test_windows_survive_exactly(self):
        learner = trained_learner(forgetting_mode="forget_ps")
        clone = from_state_dict(state_dict(learner))
        for rid, pair in learner.anticipations.items():
            other = clone.anticipations[rid]
            for mine, theirs in ((pair.slow, other.slow), (pair.fast, other.fast)):
                assert len(mine.window) == len(theirs.window)
                for (xa, wa), (xb, wb) in zip(entries(mine.window),
                                              entries(theirs.window)):
                    assert np.array_equal(xa, xb)
                    assert wa == wb

    def test_config_survives(self):
        learner = trained_learner(ks=0.77, strategy="naive", wrls_weight="raw")
        clone = from_state_dict(state_dict(learner))
        assert clone.config == learner.config

    def test_infinite_ks_survives_json(self, tmp_path):
        # json emits Infinity for float('inf'); make sure the loop closes
        learner = trained_learner(ks=math.inf)
        path = tmp_path / "model.json"
        save_model(learner, str(path))
        clone = load_model(str(path))
        assert clone.config.ks == math.inf
        assert model_state_hash(clone) == model_state_hash(learner)


def _first_pair(state):
    return next(iter(state["anticipations"].values()))


def _rename_first_rule(state, rule_id):
    """Give the first rule, and its pair, a new id below next_rule_id."""
    old = state["rules"][0]["id"]
    state["rules"][0]["id"] = rule_id
    state["anticipations"][str(rule_id)] = state["anticipations"].pop(str(old))
    state["next_rule_id"] = rule_id + 1


def _log_drift(state, **fields):
    """Append a drift the learner could have logged last, but for
    ``fields``: at the last sample, of the first rule, under the config's
    strategy, at twice ks."""
    event = dict(sample_index=state["samples_seen"] - 1,
                 rule_id=state["rules"][0]["id"],
                 strategy=state["config"]["strategy"],
                 separation=2 * state["config"]["ks"])
    event.update(fields)
    state["drift_log"].append(event)


def _mirror_break(matrix):
    """Move one off-diagonal entry by one ulp, leaving its mirror as is."""
    matrix[0][1] = math.nextafter(matrix[0][1], math.inf)


def _negative_zero_pair(matrix):
    """Set one off-diagonal entry and its mirror to -0.0."""
    matrix[0][1] = matrix[1][0] = -0.0


class TestGuards:
    def test_wrong_format_rejected(self):
        state = state_dict(trained_learner(n=40))
        state["format"] = "other-model"
        with pytest.raises(SnapshotError):
            from_state_dict(state)

    def test_wrong_version_rejected(self):
        state = state_dict(trained_learner(n=40))
        state["version"] = FORMAT_VERSION + 1
        with pytest.raises(SnapshotError):
            from_state_dict(state)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SnapshotError):
            load_model(str(path))

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(SnapshotError, match=r"binary\.json"):
            load_model(str(path))

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(SnapshotError):
            load_model(str(path))

    @pytest.mark.parametrize("path", [
        ("config",), ("rules",), ("anticipations",), ("drift_log",),
        ("rules", 0, "premise", "cov"), ("rules", 0, "window", "entries"),
    ])
    def test_missing_key_rejected(self, path):
        state = state_dict(trained_learner(n=40))
        parent = state
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        with pytest.raises(SnapshotError):
            from_state_dict(state)

    @pytest.mark.parametrize("mangle", [
        lambda s: s.update(config={"ks": 0.5, "no_such_field": 1}),
        lambda s: s.update(config={"ks": -1.0}),
        lambda s: s.update(rules={"not": "a list"}),
        lambda s: s.update(anticipations=[]),
        lambda s: s.update(n_features="two"),
        lambda s: s["rules"][0]["premise"].update(center=[0.0]),
        lambda s: s["rules"][0]["premise"].update(cov=[[1.0, 0.0], [0.0]]),
        lambda s: s["rules"][0]["consequent"].update(coeffs=[[0.0, 0.0]] * 2),
        lambda s: s["rules"][0]["window"].update(entries=[[[1.0, 2.0], 0.5]]),
        lambda s: s["drift_log"].append({"sample_index": 1}),
        lambda s: s["rules"].append(s["rules"][0]),
        lambda s: s["anticipations"].update(
            {"999": next(iter(s["anticipations"].values()))}),
        lambda s: s["rules"][0]["window"].update(capacity=99),
        lambda s: _first_pair(s)["slow"]["premise"].update(horizon=0),
        lambda s: _first_pair(s)["fast"]["premise"].update(horizon="x"),
        lambda s: s["rules"][0]["premise"].update(horizon=5),
        lambda s: s["rules"][0]["premise"].update(hits=-1),
        lambda s: _first_pair(s)["fast"]["premise"].update(hits=2.5),
        lambda s: s["rules"][0]["consequent"].update(omega=7.0),
        lambda s: _first_pair(s)["slow"]["window"].update(capacity=99),
        lambda s: s.update(next_rule_id=0),
        lambda s: s["rules"][0]["consequent"]["coeffs"][0].__setitem__(0, math.nan),
        lambda s: s["rules"][0]["consequent"]["corr"][1].__setitem__(1, math.inf),
        lambda s: s["rules"][0]["premise"]["center"].__setitem__(0, math.nan),
        lambda s: s["rules"][0]["window"]["entries"][0].__setitem__(1, math.nan),
        lambda s: s.update(samples_seen=-1),
        lambda s: _first_pair(s).update(samples_seen=-1),
        lambda s: s["rules"][0]["window"].update(skipped=-1),
        lambda s: s["rules"][0].update(born_class=2),
        lambda s: s.update(seen_classes=[0, 1, 2]),
        lambda s: s["drift_log"].append({"sample_index": "7", "rule_id": 0,
                                         "strategy": "global", "separation": 1.5}),
        lambda s: s["drift_log"].append({"sample_index": 7, "rule_id": 0,
                                         "strategy": "global", "separation": "1.5"}),
        lambda s: _mirror_break(s["rules"][0]["premise"]["cov"]),
        lambda s: _mirror_break(_first_pair(s)["fast"]["consequent"]["corr"]),
        lambda s: s["rules"][0].update(id=s["rules"][0]["id"] + 0.5),
        lambda s: s.update(next_rule_id=s["next_rule_id"] + 0.5),
        lambda s: s.update(n_classes=2.5),
        lambda s: s.update(n_features=2.0),
        lambda s: s["drift_log"].append({"sample_index": 7, "rule_id": "0",
                                         "strategy": "global", "separation": 1.5}),
        lambda s: s["drift_log"].append({"sample_index": 7, "rule_id": -3,
                                         "strategy": "global", "separation": 1.5}),
        lambda s: s["drift_log"].append({"sample_index": 7, "rule_id": 0,
                                         "strategy": 5, "separation": 1.5}),
        lambda s: s["drift_log"].append({"sample_index": 7, "rule_id": 0,
                                         "strategy": "bogus", "separation": 1.5}),
        # config values in range but of the wrong type
        lambda s: s["config"].update(tmax1=200.5),
        lambda s: s["config"].update(tmax2=10.0),
        lambda s: s["config"].update(nmin=20.5),
        lambda s: s["config"].update(allow_class_growth="yes"),
        # config values of the right type but infinite
        lambda s: s["config"].update(omega=math.inf),
        lambda s: s["config"].update(sigma_init=math.inf),
        # rule ids are int64
        lambda s: s.update(next_rule_id=2 ** 63),
        lambda s: _rename_first_rule(s, 2 ** 63),
        # -0.0 in a correlation (kept symmetric) or coefficient entry
        lambda s: _negative_zero_pair(_first_pair(s)["fast"]["consequent"]["corr"]),
        lambda s: s["rules"][0]["consequent"]["coeffs"][1].__setitem__(0, -0.0),
        # symmetric but not positive definite: a negative definite
        # covariance, whose ridge cannot rescue it, and an indefinite
        # correlation
        lambda s: s["rules"][0]["premise"].update(cov=[[-1.0, 0.0], [0.0, -1.0]]),
        lambda s: _first_pair(s)["slow"]["consequent"].update(
            corr=[[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        # a class some rule was born in, missing from seen_classes: the
        # next sample of that class would seed a second rule there
        lambda s: s.update(seen_classes=[0]),
        # drifts the learner cannot log (ks is 0.6): a separation not
        # above ks, ...
        lambda s: _log_drift(s, separation=math.nan),
        lambda s: _log_drift(s, separation=-1.0),
        lambda s: _log_drift(s, separation=0.0),
        lambda s: _log_drift(s, separation=0.1),
        lambda s: _log_drift(s, separation=0.6),
        # ... a sample not yet seen, two drifts at one sample or out of
        # order, ...
        lambda s: _log_drift(s, sample_index=10 ** 9),
        lambda s: _log_drift(s, sample_index=s["samples_seen"]),
        lambda s: [_log_drift(s, sample_index=5) for _ in range(2)],
        lambda s: [_log_drift(s, sample_index=i) for i in (9, 8)],
        # ... and another strategy than the config's
        lambda s: _log_drift(s, strategy="naive"),
        # next_rule_id is one past the largest rule id, no more
        lambda s: s.update(next_rule_id=s["next_rule_id"] + 1),
        # the pair counts and hits are int64 too
        lambda s: _first_pair(s).update(samples_seen=2 ** 63),
        lambda s: s["rules"][0]["premise"].update(hits=2 ** 63),
    ])
    def test_malformed_value_rejected(self, mangle):
        state = state_dict(trained_learner(n=40, forgetting_mode="forget_ps"))
        mangle(state)
        with pytest.raises(SnapshotError):
            from_state_dict(state)

    @pytest.mark.parametrize("name", [field.name for field in
                                      dataclasses.fields(LearnerConfig)])
    def test_config_missing_a_field_rejected(self, name):
        # a missing field would load as its default, another model
        state = state_dict(trained_learner(n=40, forgetting_mode="forget_ps"))
        del state["config"][name]
        with pytest.raises(SnapshotError, match=re.escape(f"[{name!r}]")):
            from_state_dict(state)

    def test_rule_less_state_needs_next_rule_id_zero(self):
        # an untrained learner's state round-trips; with no rule there is
        # no id for next_rule_id to follow
        state = state_dict(AnticipatingClassifier(2, 2))
        assert state["next_rule_id"] == 0
        assert state_dict(from_state_dict(state)) == state
        state["next_rule_id"] = 3
        with pytest.raises(SnapshotError, match="next_rule_id"):
            from_state_dict(state)

    def test_loggable_drifts_load(self):
        # the drifts _log_drift makes are valid, so each case above fails
        # on its one changed field; an infinite separation is loggable
        learner = trained_learner(n=40, forgetting_mode="forget_ps")
        state = state_dict(learner)
        _log_drift(state, sample_index=0)
        _log_drift(state, sample_index=1, separation=math.inf)
        _log_drift(state)
        clone = from_state_dict(state)
        assert [event.sample_index for event in clone.drift_log] == [0, 1, 39]
        assert clone.drift_log[1].separation == math.inf

    def test_negative_zero_covariance_loads(self):
        # a sample with a -0.0 feature can store -0.0 in a covariance;
        # only the correlations and coefficients must be free of it
        state = state_dict(trained_learner(n=40, forgetting_mode="forget_ps"))
        _negative_zero_pair(state["rules"][0]["premise"]["cov"])
        cov = from_state_dict(state).system.stacks().covs[0]
        assert np.signbit(cov[0, 1]) and np.signbit(cov[1, 0])

    def test_singular_covariance_loads(self):
        # a horizon of 1 collapses a covariance to zero; its ridge makes it
        # definite, which is what the loader checks
        state = state_dict(trained_learner(n=40, forgetting_mode="forget_ps"))
        _first_pair(state)["fast"]["premise"].update(cov=[[0.0, 0.0], [0.0, 0.0]])
        assert not from_state_dict(state).system.stacks().covs.any(axis=(1, 2)).all()

    def test_numpy_int_sizes_load(self):
        learner = trained_learner(n=40)
        state = state_dict(learner)
        state.update(n_features=np.int64(2), n_classes=np.int32(2))
        clone = from_state_dict(state)
        assert model_state_hash(clone) == model_state_hash(learner)

    def test_numpy_int_sizes_hash_and_round_trip(self, tmp_path):
        # sizes such as y.max() + 1 are numpy ints; the state reads them
        # off the stacks, as Python ints
        learners = [AnticipatingClassifier(d, c, LearnerConfig(ks=0.6, nmin=3))
                    for d, c in ((2, 2), (np.int64(2), np.int64(2)))]
        X, y = gaussian_stream(np.random.default_rng(5), 60,
                               centers=[[0.0, 0.0], [4.0, 4.0]])
        for learner in learners:
            for xi, yi in zip(X, y):
                learner.learn_one(xi, int(yi))
        python, numpy = learners
        assert model_state_hash(numpy) == model_state_hash(python)
        assert state_bytes(numpy) == state_bytes(python)
        path = tmp_path / "model.json"
        save_model(numpy, str(path))
        assert state_bytes(load_model(str(path))) == state_bytes(python)

    def test_numpy_config_numbers_hash_and_round_trip(self, tmp_path):
        # the config of test_config's test_numpy_numbers_are_allowed, with
        # numpy numbers and with the equal Python ones
        numpy_cfg = dict(tmax1=np.int64(200), tmax2=np.int32(10),
                         nmin=np.int64(20), ws=np.int16(50),
                         ks=np.float64(0.5), omega=np.float32(100.0),
                         sigma_init=np.int64(1))
        python_cfg = {key: value.item() for key, value in numpy_cfg.items()}
        learner = trained_learner(n=80, **numpy_cfg)
        twin = trained_learner(n=80, **python_cfg)
        assert model_state_hash(learner) == model_state_hash(twin)
        assert state_bytes(learner) == state_bytes(twin)
        path = tmp_path / "model.json"
        save_model(learner, str(path))
        assert model_state_hash(load_model(str(path))) == model_state_hash(twin)

    def test_format_constants(self):
        state = state_dict(trained_learner(n=40))
        assert state["format"] == FORMAT_NAME == "driftfis-model"
        assert state["version"] == FORMAT_VERSION == 1

    def test_state_dict_is_json_serializable(self):
        state = state_dict(trained_learner(n=60))
        json.dumps(state)


def test_hash_tracks_state_changes():
    learner = trained_learner(n=60)
    before = model_state_hash(learner)
    assert model_state_hash(learner) == before
    learner.learn_one([1.0, 1.0], 0)
    assert model_state_hash(learner) != before


def _whole_text_hash(learner):
    canonical = json.dumps(state_dict(learner), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestStreamedHash:
    """model_state_hash streams the canonical JSON; the digest must not move."""

    def test_empty_learner(self):
        learner = AnticipatingClassifier(3, 2)
        assert model_state_hash(learner) == _whole_text_hash(learner)

    def test_after_class_growth(self):
        learner = trained_learner(n=60, allow_class_growth=True)
        learner.learn_one([0.5, 0.5], 4)
        assert learner.system.n_classes == 5
        assert model_state_hash(learner) == _whole_text_hash(learner)

    @pytest.mark.parametrize("strategy", ["naive", "global"])
    def test_after_drifts(self, strategy):
        learner = golden_learner(strategy)
        assert learner.drift_log
        # rule ids past 9 sort differently as strings than as numbers
        assert max(learner.anticipations) >= 10
        assert model_state_hash(learner) == _whole_text_hash(learner)

    def test_saved_file_is_the_hashed_text(self, tmp_path):
        learner = golden_learner("global")
        path = tmp_path / "model.json"
        save_model(learner, str(path))
        text = path.read_bytes()
        assert text.endswith(b"}\n")
        assert hashlib.sha256(text[:-1]).hexdigest() == model_state_hash(learner)

    def test_after_load_model(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained_learner(ks=math.inf), str(path))
        clone = load_model(str(path))
        assert model_state_hash(clone) == _whole_text_hash(clone)


# model_state_hash of golden_learner: any change to what forget_ps learns,
# or to the canonical text the hash reads, moves these
GOLDEN_FORGET_PS = {
    "naive": "75f6f8491ba77193435d10473c22da4e1da4c06185e2c528d31d857aff087818",
    "global": "d62be8bf6c22ed7d8a96b51737de87cc209ff3f8c5c26e6009e7ad3c32c1d4de",
}


def golden_learner(strategy):
    """forget_ps on a two-step drifting stream where a third class arrives late."""
    learner = AnticipatingClassifier(2, 3, LearnerConfig(
        ks=0.6, nmin=3, tmax2=5, ws=12, strategy=strategy,
        forgetting_mode="forget_ps"))
    rng = np.random.default_rng(47)
    centers = np.array([[0.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
    y = np.concatenate([rng.integers(0, 2, 150), rng.integers(0, 3, 150)])
    X = centers[y] + rng.normal(0.0, 0.5, (300, 2))
    X[100:] += 1.5
    X[200:] += 1.5
    for xi, yi in zip(X, y):
        learner.learn_one(xi, int(yi))
    return learner


@pytest.mark.parametrize("strategy", ["naive", "global"])
def test_forget_ps_state_hash_is_pinned(strategy):
    learner = golden_learner(strategy)
    assert len(learner.drift_log) >= 5
    assert model_state_hash(learner) == GOLDEN_FORGET_PS[strategy]


def reference_state_bytes(learner):
    """state_bytes written out window by window, each window read through
    its own entries rather than from the bank's gather, and the ids, born
    classes and pair counts read through the rule and pair views."""
    system = learner.system
    stacks = (system._centers, system._covs, system._invs, system.hits,
              system._corrs, system._coeffs)
    pairs = list(learner.anticipations.values())  # in rule order
    # every window in stack row order: the rules, then each slow and fast
    windows = [rule.window for rule in system.rules] + [
        sub.window for pair in pairs for sub in (pair.slow, pair.fast)]
    held = [entry for window in windows for entry in entries(window)]
    log = learner.drift_log
    packed = (
        np.array([x for x, _ in held]).reshape(len(held), system.n_features + 1),
        np.array([w for _, w in held]),
        np.array([[len(w) for w in windows], [w.skipped for w in windows]],
                 dtype=np.int64).reshape(2, len(windows)),
        np.array([rule.id for rule in system.rules], dtype=np.int64),
        np.array([rule.born_class for rule in system.rules], dtype=np.int64),
        np.array([pair.samples_seen for pair in pairs], dtype=np.int64),
        np.array([e.sample_index for e in log], dtype=np.int64),
        np.array([e.rule_id for e in log], dtype=np.int64),
        np.array([e.separation for e in log], dtype=np.float64))
    meta = [learner.config, learner.samples_seen, [e.strategy for e in log],
            [a.shape for a in stacks + packed]]
    return b"".join([*stacks, *packed, repr(meta).encode()])


class TestStateBytes:
    def test_survives_file_round_trip(self, tmp_path):
        learner = trained_learner(forgetting_mode="forget_ps")
        path = tmp_path / "model.json"
        save_model(learner, str(path))
        assert state_bytes(load_model(str(path))) == state_bytes(learner)

    def test_every_state_dict_leaf_moves_the_bytes(self):
        learner = trained_learner(forgetting_mode="forget_ps")
        state = state_dict(learner)
        # the fixture fills every kind of container the state has
        assert learner.drift_log and entries(learner.system.rules[0].window)
        assert any(entries(pair.fast.window)
                   for pair in learner.anticipations.values())
        raw = state_bytes(learner)
        # the format constants and the principal horizons (None for every
        # principal rule) are not read from the model
        leaves = [path for path in _leaves(state)
                  if path not in (("format",), ("version",))
                  and not (path[0] == "rules" and path[-1] == "horizon")]
        for path in leaves:
            undo = _perturb_live_field(learner, path)
            assert state_bytes(learner) != raw, path
            undo()
        assert state_bytes(learner) == raw
        assert state_dict(learner) == state

    def test_cached_inverses_move_the_bytes_only(self):
        learner = trained_learner(n=60)
        raw = state_bytes(learner)
        canonical = model_state_hash(learner)
        inv = learner.system._invs
        inv[0, 0, 0] = np.nextafter(inv[0, 0, 0], math.inf)
        assert state_bytes(learner) != raw
        assert model_state_hash(learner) == canonical


@pytest.mark.parametrize("mode", ["none", "forget_am", "forget_ps"])
def test_state_bytes_match_the_window_by_window_assembly(mode):
    learner = trained_learner(forgetting_mode=mode)
    # empty and full windows both occur, so every run boundary is exercised
    windows = [rule.window for rule in learner.system.rules] + [
        sub.window for pair in learner.anticipations.values()
        for sub in (pair.slow, pair.fast)]
    assert any(not entries(w) for w in windows)
    if mode != "none":
        assert any(entries(w) for w in windows)
    raw = state_bytes(learner)
    assert raw == reference_state_bytes(learner)


def test_state_bytes_match_compares_every_byte_and_the_length():
    learner = trained_learner(forgetting_mode="forget_ps")
    raw = state_bytes(learner)
    assert state_bytes_match(learner, raw)
    assert not state_bytes_match(learner, raw[:-1])
    assert not state_bytes_match(learner, raw + b"\0")
    for at in (0, len(raw) // 2, len(raw) - 1):
        flipped = bytearray(raw)
        flipped[at] ^= 1
        assert not state_bytes_match(learner, bytes(flipped))


@given(ws=st.integers(1, 6), strategy=st.sampled_from(["naive", "global"]),
       mode=st.sampled_from(["none", "forget_am", "forget_ps"]),
       am_init=st.sampled_from(["parent", "zero"]),
       wrls_weight=st.sampled_from(["normalized", "raw"]),
       late_class_at=st.one_of(st.none(), st.integers(100, 159)),
       seed=st.integers(0, 2**16))
@settings(deadline=None)
def test_ring_windows_survive_drifts_and_a_round_trip(
        ws, strategy, mode, am_init, wrls_weight, late_class_at, seed):
    """Small rings wrap often; drifts move them between rows. A third
    class may arrive late, before or after the round trip, and grow the
    model's classes."""
    rng = np.random.default_rng(seed)
    X, y = gaussian_stream(rng, 160, centers=[[0.0, 0.0], [4.0, 4.0]],
                           sigma=0.5)
    X[60:] += 2.0
    X[110:] += 2.0
    if late_class_at is not None:
        y[late_class_at::3] = 2
    config = dict(ks=0.6, nmin=3, tmax2=5, ws=ws, strategy=strategy,
                  forgetting_mode=mode, am_init=am_init,
                  wrls_weight=wrls_weight,
                  allow_class_growth=late_class_at is not None)
    learner = AnticipatingClassifier(2, 2, LearnerConfig(**config))
    for xi, yi in zip(X[:140], y[:140]):
        learner.learn_one(xi, int(yi))
    for pair in learner.anticipations.values():
        assert len(pair.slow.window) == len(pair.fast.window)
    raw = state_bytes(learner)
    assert raw == reference_state_bytes(learner)
    clone = from_state_dict(json.loads(json.dumps(state_dict(learner))))
    assert state_bytes(clone) == raw
    # a loaded pair's two rows are in lockstep, as the live ones are
    for pair in clone.anticipations.values():
        slow, fast = pair.slow.window, pair.fast.window
        assert slow.state[:2].tolist() == fast.state[:2].tolist()
        assert slow.ordered()[0].tobytes() == fast.ordered()[0].tobytes()
    probes = rng.uniform(-1.0, 9.0, (20, 2))
    for xi, yi in zip(X[140:], y[140:]):
        assert clone.learn_one(xi, int(yi)) == learner.learn_one(xi, int(yi))
        assert ([clone.predict_one(p) for p in probes]
                == [learner.predict_one(p) for p in probes])
    assert state_bytes(clone) == state_bytes(learner)


@pytest.mark.parametrize("mangle", [
    lambda pair: pair["fast"]["window"]["entries"].pop(),
    lambda pair: pair["fast"]["window"]["entries"][0][0].__setitem__(1, 9.0),
], ids=["fewer-samples", "other-sample"])
def test_pair_windows_must_hold_the_same_samples(mangle):
    state = state_dict(trained_learner(forgetting_mode="forget_am"))
    pair = next(p for p in state["anticipations"].values()
                if p["fast"]["window"]["entries"])
    mangle(pair)
    with pytest.raises(SnapshotError, match="same samples"):
        from_state_dict(state)


def test_window_over_capacity_rejected():
    state = state_dict(trained_learner(n=40, forgetting_mode="forget_ps"))
    window = state["rules"][0]["window"]
    window["entries"] += window["entries"][:1] * (window["capacity"] + 1)
    with pytest.raises(SnapshotError, match="capacity"):
        from_state_dict(state)


def _leaves(node, path=()):
    """Paths to every scalar in a state_dict tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _perturb_live_field(learner, path):
    """Change the live value a state_dict leaf was read from; return an undo."""
    head, *rest = path
    system = learner.system
    if head == "seen_classes":  # the born classes, sorted, without repeats
        born = sorted(learner.seen_classes)[rest[0]]
        return _swap(system.born_classes, system.born_classes.tolist().index(born))
    if head == "next_rule_id":  # one past the largest rule id
        return _swap(system.ids, int(system.ids.argmax()))
    if head in ("rules", "anticipations"):
        return _perturb_row_field(learner, head, *rest)
    if head in ("n_features", "n_classes"):
        return _perturb_size(learner, head)
    node, key = learner, head
    for step in rest:
        node, key = _get(node, key), step
    return _swap(node, key)


def _perturb_size(learner, head):
    """_perturb_live_field for a size, which is read off a stack's shape:
    one more class through _grow_classes, or one more center column."""
    system = learner.system
    if head == "n_classes":
        saved = system._coeffs, learner._targets
        learner._grow_classes(system.n_classes + 1)

        def undo():
            system._coeffs, learner._targets = saved
        return undo
    centers = system._centers
    system._centers = np.pad(centers, ((0, 0), (0, 1)))
    return lambda: setattr(system, "_centers", centers)


def _perturb_row_field(learner, head, key, *rest):
    """_perturb_live_field for a leaf of a rule's or a pair's entry: the
    arrays are views of the stacks, hits live in ``system.hits``, ids and
    born classes in ``system.ids`` and ``system.born_classes``, and the
    horizons, omegas and window capacities follow from the config."""
    system, config = learner.system, learner.config
    n = len(system)
    if head == "rules":
        role, row, owner = None, key, system.rules[key]
    else:
        i = [rule.id for rule in system.rules].index(int(key))
        if rest == ("samples_seen",):
            return _swap(learner.pair_seen, i)
        role, *rest = rest
        row = n + 2 * i + (role == "fast")
        owner = getattr(learner.anticipations[int(key)], role)
    part, *tail = rest
    if not tail:  # the rule's id or born class
        return _swap(system.ids if part == "id" else system.born_classes, row)
    if tail == ["hits"]:
        return _swap(system.hits, row)
    if tail == ["horizon"]:
        return _swap(config, "tmax1" if role == "slow" else "tmax2")
    if tail in (["omega"], ["capacity"]):
        return _swap(config, "omega" if tail == ["omega"] else "ws")
    node = getattr(owner, part)  # a premise, a consequent or a window
    if tail[0] == "entries":
        return _perturb_window_entry(node, *tail[1:])
    if tail == ["skipped"]:
        return _swap(node.state, 2)
    return _swap(getattr(node, tail[0]), tuple(tail[1:]))


def _swap(node, key):
    """Perturb ``node[key]`` (or its attribute ``key``); return an undo."""
    saved = _get(node, key)
    _set(node, key, _perturbed(saved))
    return lambda: _set(node, key, saved)


def _perturb_window_entry(window, index, part, feature=None):
    """Change entry ``index`` (oldest first) of a window in its ring slot:
    ``part`` 0 is the sample, at ``feature``, and 1 the weight."""
    slot = (int(window.state[0]) - len(window) + index) % window.capacity
    array, at = ((window.samples, (slot, feature)) if part == 0
                 else (window.weights, slot))
    saved = array[at]
    array[at] = _perturbed(saved)
    return lambda: array.__setitem__(at, saved)


def _get(node, key):
    if isinstance(node, (dict, list, tuple, np.ndarray)):
        return node[key]
    return getattr(node, key)


def _set(node, key, value):
    if isinstance(node, (dict, list, np.ndarray)):
        node[key] = value
    else:
        setattr(node, key, value)


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, np.integer)):
        return value + 1
    if isinstance(value, (float, np.floating)):
        return np.nextafter(value, math.inf)
    if isinstance(value, str):
        return value + "!"
    if value is None:
        return 1
    raise TypeError(f"no perturbation for {value!r}")
