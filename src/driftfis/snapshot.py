"""Model serialization: versioned JSON snapshots and state hashing.

Snapshots capture the full learner state (rules, shadow pairs, windows,
counters, config) as plain JSON. Floats survive the round trip exactly
(repr-based encoding), so saving and reloading resumes the stream
bit-for-bit. Cached covariance inverses are not stored; they are
recomputed from the covariance, which is deterministic.

Two descriptions of a state serve two purposes. ``model_state_hash``
hashes the canonical JSON and is portable across machines. ``state_bytes``
is the raw array bytes in memory plus a repr of the counters: much
cheaper to build, it also covers the cached inverses, and two of them are
compared byte for byte, so a check built on it is exact rather than
probabilistic. The principal windows' entries come out of the learner's
WindowBank in one gather. It is only comparable within one process, and
holding one costs its full size (about 1.1 MB on a 53-rule, 10-feature
model); ``state_bytes_match`` compares a live state against a held
buffer without building a second one. ``state_fingerprint`` is its
SHA-256 digest, for when 32 bytes must do.
"""

from __future__ import annotations

import hashlib
import json
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
    xs, ws = w.ordered()
    return {
        "capacity": w.capacity,
        "skipped": w.skipped,
        "entries": [list(entry) for entry in zip(xs.tolist(), ws.tolist())],
    }


def _window_from_dict(d: dict, n_features: int) -> DDFWindow:
    window = DDFWindow(int(d["capacity"]), skipped=int(d["skipped"]))
    entries = d["entries"]
    fill = len(entries)
    if fill > window.capacity:
        raise ValueError(f"window holds {fill} entries, more than its "
                         f"capacity {window.capacity}")
    if fill:
        # the entries take the leading slots, oldest first; the window
        # holds just those rows until a WindowBank packs it
        window.samples = _array([x for x, _ in entries],
                                (fill, n_features + 1), "window entries")
        window.weights[:fill] = [float(w) for _, w in entries]
        window.state[:2] = (fill % window.capacity, fill)
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
    pair = AnticipatedPair(
        slow=_sub_from_dict(d["slow"], n_features, n_classes),
        fast=_sub_from_dict(d["fast"], n_features, n_classes),
        samples_seen=int(d["samples_seen"]),
    )
    # the two windows record every sample together and evict it together,
    # so they share one samples array
    slow, fast = pair.slow.window, pair.fast.window
    if slow.ordered()[0].tobytes() != fast.ordered()[0].tobytes():
        raise ValueError("a shadow pair's windows must hold the same samples")
    fast.samples = slow.samples
    return pair


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


def _state_chunks(learner: AnticipatingClassifier) -> list:
    """The arrays state_bytes joins, in order, then the metadata bytes."""
    system = learner.system
    windows = learner.windows
    log = learner.drift_log
    rows = [(rule.premise, rule.consequent, rule.window)
            for rule in system.rules]
    for pair in learner.anticipations.values():
        rows += ((pair.slow.premise, pair.slow.consequent, pair.slow.window),
                 (pair.fast.premise, pair.fast.consequent, pair.fast.window))
    pair_windows = [window for _, _, window in rows[len(system.rules):]]
    xs, ws = windows.entries()
    packed = (xs, ws, windows.state[1:],  # fills and skipped counts
              np.array([w.state[1:] for w in pair_windows],
                       dtype=np.int64).reshape(len(pair_windows), 2),
              np.array([(p.hits, w.capacity) for p, _, w in rows],
                       dtype=np.int64).reshape(len(rows), 2),
              np.array([c.omega for _, c, _ in rows], dtype=np.float64),
              np.array([e.sample_index for e in log], dtype=np.int64),
              np.array([e.rule_id for e in log], dtype=np.int64),
              np.array([e.separation for e in log], dtype=np.float64))
    stacks = (system._centers, system._covs, system._invs,
              system._corrs, system._coeffs)
    meta = [system.n_features, system.n_classes, learner.config,
            learner.samples_seen, learner.next_rule_id,
            sorted(learner.seen_classes),
            [(rule.id, rule.born_class) for rule in system.rules],
            [(rule_id, pair.samples_seen)
             for rule_id, pair in learner.anticipations.items()],
            [p.horizon for p, _, _ in rows], [e.strategy for e in log],
            windows.capacity, [a.shape for a in stacks + packed]]
    chunks: list = list(stacks)
    for premise, consequent, _ in rows:
        chunks += (premise.center, premise.cov, consequent.coeffs,
                   consequent.corr)
    chunks += packed
    # a pair's windows share their samples and slots: one read per pair
    for slow, fast in zip(pair_windows[::2], pair_windows[1::2]):
        if slow.state[1]:
            slots = slow.slots()
            chunks += (slow.samples[slots], slow.weights[slots],
                       fast.weights[slots])
    chunks.append(repr(meta).encode())
    return chunks


def state_bytes(learner: AnticipatingClassifier) -> bytes:
    """The raw bytes of the live model state, as one buffer.

    Covers every array state_dict serializes (premise centers and
    covariances, consequent coefficients and correlations, every window
    entry), the counters and metadata (config, rule ids, hits, horizons,
    window bookkeeping, drift log), and the five FuzzySystem stacks that
    prediction reads, cached inverses included. The buffer is the five
    stacks; each rule's, then each shadow pair's (slow then fast) premise
    and consequent; the principal windows' samples and weights, oldest
    first and in rule order, read from the window bank in one gather;
    every window's fill and skipped count; the premises' hits with the
    windows' capacities, and the consequents' omegas, in premise order;
    the drift log's sample indices, rule ids and separations; for each
    nonempty shadow pair, the samples its two windows share and the slow
    and the fast weights, oldest first; then ``repr`` of the remaining
    metadata. The shapes in the metadata and the
    fills fix where each array's bytes start, and repr writes every float
    exactly. Two buffers are equal iff
    every array holds the same bits (``-0.0`` differs from ``0.0``) and
    every counter is equal. It builds no JSON and hashes nothing; a
    53-rule ``plane10d`` model (10 features) takes about 1.1 MB. The bytes
    are native-endian: compare them only within one process.
    """
    return b"".join(_state_chunks(learner))


def state_bytes_match(learner: AnticipatingClassifier, held: bytes) -> bool:
    """Whether state_bytes(learner) would equal ``held``, without building it.

    Each array is compared in place against its span of ``held``, and the
    metadata against the rest, so the check holds one buffer, not two.
    """
    chunks = _state_chunks(learner)
    tail = chunks.pop()
    at = 0
    for chunk in chunks:
        if not held.startswith(chunk, at):
            return False
        at += chunk.nbytes
    return held[at:] == tail


def state_fingerprint(learner: AnticipatingClassifier) -> bytes:
    """SHA-256 digest of state_bytes: a 32-byte summary of the live state.

    Comparable only within one process, like the bytes it hashes.
    """
    return hashlib.sha256(state_bytes(learner)).digest()
