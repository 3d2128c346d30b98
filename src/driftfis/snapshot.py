"""Model serialization: versioned JSON snapshots and state hashing.

Snapshots capture the full learner state (rules, shadow pairs, windows,
counters, config) as plain JSON. Floats survive the round trip exactly
(repr-based encoding), so saving and reloading resumes the stream
bit-for-bit. Cached covariance inverses are not stored; they are
recomputed from the covariance, which is deterministic.

Two digests describe a state. ``model_state_hash`` hashes the canonical
JSON and is portable across machines. ``state_fingerprint`` hashes the
raw array bytes in memory: much cheaper, and it also covers the cached
inverses, but it is only comparable within one process.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import asdict

import numpy as np

from .anticipation import AnticipatedPair, DriftEvent, SubRule
from .config import LearnerConfig
from .fis import Consequent, Premise, Rule
from .forgetting import DDFWindow
from .learner import AnticipatingClassifier
from .linalg import regularized_inverse

FORMAT_NAME = "driftfis-model"
FORMAT_VERSION = 1

# the encoder json.dumps(..., sort_keys=True) uses, built once
_CANONICAL = json.JSONEncoder(sort_keys=True)


class SnapshotError(ValueError):
    """Snapshot file is missing, malformed, or from an unknown format."""


def _premise_to_dict(p: Premise) -> dict:
    return {
        "center": p.center.tolist(),
        "cov": p.cov.tolist(),
        "hits": p.hits,
        "horizon": p.horizon,
    }


def _array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Float array from snapshot data; a wrong shape raises ValueError."""
    out = np.array(value, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{what} has shape {out.shape}, expected {shape}")
    return out


def _premise_from_dict(d: dict, n_features: int) -> Premise:
    cov = _array(d["cov"], (n_features, n_features), "premise cov")
    return Premise(
        center=_array(d["center"], (n_features,), "premise center"),
        cov=cov,
        cov_inv=regularized_inverse(cov),
        hits=int(d["hits"]),
        horizon=d["horizon"],
    )


def _consequent_to_dict(c: Consequent) -> dict:
    return {"coeffs": c.coeffs.tolist(), "corr": c.corr.tolist(), "omega": c.omega}


def _consequent_from_dict(d: dict, n_features: int, n_classes: int) -> Consequent:
    k = n_features + 1
    return Consequent(
        coeffs=_array(d["coeffs"], (k, n_classes), "consequent coeffs"),
        corr=_array(d["corr"], (k, k), "consequent corr"),
        omega=float(d["omega"]),
    )


def _window_to_dict(w: DDFWindow) -> dict:
    return {
        "capacity": w.capacity,
        "skipped": w.skipped,
        "entries": [[x.tolist(), weight] for x, weight in w.entries],
    }


def _window_from_dict(d: dict, n_features: int) -> DDFWindow:
    window = DDFWindow(int(d["capacity"]), skipped=int(d["skipped"]))
    for x_list, weight in d["entries"]:
        x = _array(x_list, (n_features + 1,), "window entry")
        window.entries.append((x, float(weight)))
    return window


def _rule_to_dict(r: Rule) -> dict:
    return {
        "id": r.id,
        "born_class": r.born_class,
        "premise": _premise_to_dict(r.premise),
        "consequent": _consequent_to_dict(r.consequent),
        "window": _window_to_dict(r.window),
    }


def _rule_from_dict(d: dict, n_features: int, n_classes: int) -> Rule:
    return Rule(
        id=int(d["id"]),
        premise=_premise_from_dict(d["premise"], n_features),
        consequent=_consequent_from_dict(d["consequent"], n_features, n_classes),
        window=_window_from_dict(d["window"], n_features),
        born_class=d["born_class"],
    )


def _sub_to_dict(s: SubRule) -> dict:
    return {
        "premise": _premise_to_dict(s.premise),
        "consequent": _consequent_to_dict(s.consequent),
        "window": _window_to_dict(s.window),
    }


def _sub_from_dict(d: dict, n_features: int, n_classes: int) -> SubRule:
    return SubRule(
        premise=_premise_from_dict(d["premise"], n_features),
        consequent=_consequent_from_dict(d["consequent"], n_features, n_classes),
        window=_window_from_dict(d["window"], n_features),
    )


def _pair_to_dict(p: AnticipatedPair) -> dict:
    return {
        "samples_seen": p.samples_seen,
        "slow": _sub_to_dict(p.slow),
        "fast": _sub_to_dict(p.fast),
    }


def _pair_from_dict(d: dict, n_features: int, n_classes: int) -> AnticipatedPair:
    return AnticipatedPair(
        slow=_sub_from_dict(d["slow"], n_features, n_classes),
        fast=_sub_from_dict(d["fast"], n_features, n_classes),
        samples_seen=int(d["samples_seen"]),
    )


def state_dict(learner: AnticipatingClassifier) -> dict:
    """Full model state as a JSON-serializable dictionary."""
    state = _state_skeleton(learner)
    state["rules"] = [_rule_to_dict(r) for r in learner.system.rules]
    state["anticipations"] = {
        str(rule_id): _pair_to_dict(pair)
        for rule_id, pair in learner.anticipations.items()
    }
    return state


def _state_skeleton(learner: AnticipatingClassifier) -> dict:
    """state_dict with its two bulky entries, rules and anticipations, None."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_features": learner.system.n_features,
        "n_classes": learner.system.n_classes,
        "config": asdict(learner.config),
        "samples_seen": learner.samples_seen,
        "next_rule_id": learner.next_rule_id,
        "seen_classes": sorted(learner.seen_classes),
        "rules": None,
        "anticipations": None,
        "drift_log": [asdict(event) for event in learner.drift_log],
    }


def from_state_dict(state: dict) -> AnticipatingClassifier:
    """Rebuild a learner from a state dictionary (inverse of state_dict).

    Raises SnapshotError for an unknown format or version, a missing key,
    or a value of the wrong type or shape.
    """
    if state.get("format") != FORMAT_NAME:
        raise SnapshotError(f"not a {FORMAT_NAME} snapshot")
    if state.get("version") != FORMAT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {state.get('version')!r}")
    try:
        return _learner_from_state(state)
    except KeyError as exc:
        raise SnapshotError(f"malformed snapshot: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from exc


def _learner_from_state(state: dict) -> AnticipatingClassifier:
    config = LearnerConfig(**state["config"])
    d = int(state["n_features"])
    c = int(state["n_classes"])
    learner = AnticipatingClassifier(d, c, config)
    learner.samples_seen = int(state["samples_seen"])
    learner.next_rule_id = int(state["next_rule_id"])
    learner.seen_classes = {int(label) for label in state["seen_classes"]}
    learner.anticipations = {
        int(rule_id): _pair_from_dict(pair, d, c)
        for rule_id, pair in state["anticipations"].items()
    }
    learner.drift_log = [DriftEvent(**event) for event in state["drift_log"]]
    rules = [_rule_from_dict(rule, d, c) for rule in state["rules"]]
    ids = [rule.id for rule in rules]
    if len(set(ids)) != len(ids) or set(ids) != set(learner.anticipations):
        raise ValueError("every rule needs a unique id and exactly one "
                         "anticipation pair")
    learner._sync_banks(rules)
    return learner


def save_model(learner: AnticipatingClassifier, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_dict(learner), fh)
        fh.write("\n")


def load_model(path: str) -> AnticipatingClassifier:
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(state, dict):
        raise SnapshotError(f"{path}: expected a JSON object at top level")
    return from_state_dict(state)


def model_state_hash(learner: AnticipatingClassifier) -> str:
    """SHA-256 over the canonical JSON of state_dict, as a hex string.

    The canonical text is ``json.dumps(state_dict(learner),
    sort_keys=True)``, but it is never built whole: it is fed to the hash
    one rule or shadow pair at a time, so the transient memory is one
    rule's worth. Equal iff the serialized states are equal. The cached
    covariance inverses are not serialized, so a change to them alone
    leaves this hash unchanged (state_fingerprint covers them). Portable
    and stable across machines; the benchmark pins its value per stream.
    """
    digest = hashlib.sha256()

    def put(text: str) -> None:
        digest.update(text.encode("utf-8"))

    dumps = _CANONICAL.encode
    state = _state_skeleton(learner)
    put("{")
    for i, key in enumerate(sorted(state)):
        # json.dumps separators: ", " between items, ": " after keys
        put(f"{', ' if i else ''}{dumps(key)}: ")
        if key == "rules":
            _put_items(put, "[]", (dumps(_rule_to_dict(rule))
                                   for rule in learner.system.rules))
        elif key == "anticipations":
            pairs = {str(rule_id): pair
                     for rule_id, pair in learner.anticipations.items()}
            _put_items(put, "{}", (
                f"{dumps(rule_id)}: {dumps(_pair_to_dict(pairs[rule_id]))}"
                for rule_id in sorted(pairs)))
        else:
            put(dumps(state[key]))
    put("}")
    return digest.hexdigest()


def _put_items(put, brackets: str, items) -> None:
    """Stream a JSON array or object from its already-encoded items."""
    put(brackets[0])
    for i, item in enumerate(items):
        put(f", {item}" if i else item)
    put(brackets[1])


def state_fingerprint(learner: AnticipatingClassifier) -> bytes:
    """SHA-256 digest of the live model state, fed from raw array bytes.

    Covers every array state_dict serializes (premise centers and
    covariances, consequent coefficients and correlations, every window
    entry), the counters and metadata (config, rule ids, hits, horizons,
    window bookkeeping, drift log), and the five FuzzySystem stacks that
    prediction reads, cached inverses included. It builds no JSON, so it
    costs a few percent of model_state_hash. The bytes are native-endian:
    compare fingerprints only within one process.
    """
    system = learner.system
    stacks = (system._centers, system._covs, system._invs,
              system._corrs, system._coeffs)
    chunks: list = list(stacks)
    meta: list = [system.n_features, system.n_classes, learner.config,
                  learner.samples_seen, learner.next_rule_id,
                  sorted(learner.seen_classes), learner.drift_log,
                  [stack.shape for stack in stacks]]
    for rule in system.rules:
        meta.append((rule.id, rule.born_class))
        _fingerprint_parts(chunks, meta, rule.premise, rule.consequent, rule.window)
    for rule_id, pair in learner.anticipations.items():
        meta.append((rule_id, pair.samples_seen))
        for sub in (pair.slow, pair.fast):
            _fingerprint_parts(chunks, meta, sub.premise, sub.consequent, sub.window)
    # the lengths in meta fix where each array's bytes start, and repr
    # writes every float exactly
    chunks.append(repr(meta).encode())
    return hashlib.sha256(b"".join(chunks)).digest()


def _fingerprint_parts(chunks: list, meta: list, premise: Premise,
                       consequent: Consequent, window: DDFWindow) -> None:
    chunks += (premise.center, premise.cov, consequent.coeffs, consequent.corr)
    entries = window.entries
    chunks += [x for x, _ in entries]
    chunks.append(array("d", [weight for _, weight in entries]))
    meta.append((premise.hits, premise.horizon, consequent.omega,
                 window.capacity, window.skipped, len(entries)))
