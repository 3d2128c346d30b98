"""Tests for model serialization: exact resume, format guards."""

import hashlib
import json
import math
from collections import deque

import numpy as np
import pytest

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
    state_dict,
    state_fingerprint,
)

from helpers import gaussian_stream


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
                for (xa, wa), (xb, wb) in zip(mine.window.entries,
                                              theirs.window.entries):
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
    ])
    def test_malformed_value_rejected(self, mangle):
        state = state_dict(trained_learner(n=40, forgetting_mode="forget_ps"))
        mangle(state)
        with pytest.raises(SnapshotError):
            from_state_dict(state)

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


class TestFingerprint:
    def test_survives_file_round_trip(self, tmp_path):
        learner = trained_learner(forgetting_mode="forget_ps")
        path = tmp_path / "model.json"
        save_model(learner, str(path))
        assert state_fingerprint(load_model(str(path))) == \
            state_fingerprint(learner)

    def test_every_state_dict_leaf_moves_the_fingerprint(self):
        learner = trained_learner(forgetting_mode="forget_ps")
        state = state_dict(learner)
        # the fixture fills every kind of container the state has
        assert learner.drift_log and learner.system.rules[0].window.entries
        assert any(pair.fast.window.entries for pair in learner.anticipations.values())
        digest = state_fingerprint(learner)
        leaves = [path for path in _leaves(state)
                  if path not in (("format",), ("version",))]  # format constants
        for path in leaves:
            undo = _perturb_live_field(learner, path)
            assert state_fingerprint(learner) != digest, path
            undo()
        assert state_fingerprint(learner) == digest
        assert state_dict(learner) == state

    def test_cached_inverses_move_the_fingerprint_only(self):
        learner = trained_learner(n=60)
        digest = state_fingerprint(learner)
        canonical = model_state_hash(learner)
        inv = learner.system._invs
        inv[0, 0, 0] = np.nextafter(inv[0, 0, 0], math.inf)
        assert state_fingerprint(learner) != digest
        assert model_state_hash(learner) == canonical


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
    if head == "seen_classes":  # a set on the learner, sorted in the state
        saved = learner.seen_classes
        learner.seen_classes = saved - {sorted(saved)[rest[0]]} | {max(saved) + 1}
        return lambda: setattr(learner, "seen_classes", saved)
    node, key = (learner.system if head in ("n_features", "n_classes", "rules")
                 else learner), head
    entry_at = None
    for step in rest:
        outer = (node, key)
        node = _get(node, key)
        if isinstance(node, tuple):  # window entry (x, weight)
            entry_at = outer
        key = int(step) if node is learner.anticipations else step
    if entry_at is not None:
        # window samples are read-only and shared between windows, so swap
        # the whole entry for a changed copy
        window, index = entry_at
        entry = window[index]
        changed = [entry[0].copy(), entry[1]]
        if node is entry:  # the weight
            changed[1] = _perturbed(entry[1])
        else:              # one feature of the sample
            changed[0][key] = _perturbed(entry[0][key])
        _set(window, index, tuple(changed))
        return lambda: _set(window, index, entry)
    saved = _get(node, key)
    _set(node, key, _perturbed(saved))
    return lambda: _set(node, key, saved)


def _get(node, key):
    if isinstance(node, (dict, list, deque, tuple, np.ndarray)):
        return node[key]
    return getattr(node, key)


def _set(node, key, value):
    if isinstance(node, (dict, list, deque, np.ndarray)):
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
