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
probabilistic. It reads the FuzzySystem stacks and the principal windows'
WindowBank whole. It is only comparable within one process, and holding
one costs its full size (about 0.67 MB on a 48-rule, 10-feature model);
``state_bytes_match`` compares a live state against a held
buffer without building a second one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np

from .anticipation import DriftEvent, PairState
from .config import LearnerConfig
from .fis import Rows, Rule
from .forgetting import DDFWindow
from .learner import AnticipatingClassifier
from .linalg import regularized_inverse_stack

FORMAT_NAME = "driftfis-model"
FORMAT_VERSION = 1

# the encoder json.dumps(..., sort_keys=True) uses, built once
_CANONICAL = json.JSONEncoder(sort_keys=True)


class SnapshotError(ValueError):
    """Snapshot file is missing, malformed, or from an unknown format."""


def _array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Float array from snapshot data; a wrong shape raises ValueError."""
    out = np.array(value, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{what} has shape {out.shape}, expected {shape}")
    return out


def _sub_entry(sub, omega: float) -> dict:
    """The premise, consequent and window entries of a rule or sub-rule."""
    premise, consequent, window = sub.premise, sub.consequent, sub.window
    xs, ws = window.ordered()
    return {
        "premise": {
            "center": premise.center.tolist(),
            "cov": premise.cov.tolist(),
            "hits": premise.hits,
            "horizon": premise.horizon,
        },
        "consequent": {
            "coeffs": consequent.coeffs.tolist(),
            "corr": consequent.corr.tolist(),
            "omega": omega,
        },
        "window": {
            "capacity": window.capacity,
            "skipped": window.skipped,
            "entries": [list(entry) for entry in zip(xs.tolist(), ws.tolist())],
        },
    }


def _rule_entry(learner: AnticipatingClassifier, i: int) -> dict:
    rule = learner.system.rules[i]
    return {"id": rule.id, "born_class": rule.born_class,
            **_sub_entry(rule, learner.config.omega)}


def _pair_entry(learner: AnticipatingClassifier, i: int) -> dict:
    pair = learner.pair_view(i)
    omega = learner.config.omega
    return {"samples_seen": pair.samples_seen,
            "slow": _sub_entry(pair.slow, omega),
            "fast": _sub_entry(pair.fast, omega)}


def state_dict(learner: AnticipatingClassifier) -> dict:
    """Full model state as a JSON-serializable dictionary."""
    state = _state_skeleton(learner)
    rules = learner.system.rules
    state["rules"] = [_rule_entry(learner, i) for i in range(len(rules))]
    state["anticipations"] = {str(rule.id): _pair_entry(learner, i)
                              for i, rule in enumerate(rules)}
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
    learner.drift_log = [DriftEvent(**event) for event in state["drift_log"]]
    rules = state["rules"]
    ids = [int(rule["id"]) for rule in rules]
    pairs = {int(rule_id): pair for rule_id, pair in state["anticipations"].items()}
    if (len(set(ids)) != len(ids) or len(pairs) != len(state["anticipations"])
            or set(ids) != set(pairs)):
        raise ValueError("every rule needs a unique id and exactly one "
                         "anticipation pair")
    if ids and learner.next_rule_id <= max(ids):
        raise ValueError(f"next_rule_id {learner.next_rule_id} does not "
                         f"exceed every rule id")
    # every stacked row in stack order: the rules, then their pairs
    rows = [(rule, None) for rule in rules]
    for rule_id in ids:
        rows += ((pairs[rule_id]["slow"], config.tmax1),
                 (pairs[rule_id]["fast"], config.tmax2))
    windows = []
    for entry, horizon in rows:
        premise = entry["premise"]
        hits = premise["hits"]
        if type(hits) is not int or hits < 1:
            raise ValueError(f"hits must be an integer >= 1, got {hits!r}")
        if (type(premise["horizon"]) is not type(horizon)
                or premise["horizon"] != horizon):
            raise ValueError(f"horizon {premise['horizon']!r} differs from "
                             f"its role's {horizon!r}")
        if entry["consequent"]["omega"] != config.omega:
            raise ValueError(f"omega {entry['consequent']['omega']!r} "
                             f"differs from the config's {config.omega!r}")
        w = entry["window"]
        if w["capacity"] != config.ws:
            raise ValueError(f"window capacity {w['capacity']!r} differs "
                             f"from ws {config.ws}")
        window = DDFWindow(config.ws, skipped=int(w["skipped"]))
        fill = len(w["entries"])
        if fill > config.ws:
            raise ValueError(f"window holds {fill} entries, more than its "
                             f"capacity {config.ws}")
        if fill:
            # the entries take the leading slots, oldest first
            window.samples = _array([x for x, _ in w["entries"]],
                                    (fill, d + 1), "window entries")
            window.weights[:fill] = [float(weight) for _, weight in w["entries"]]
            window.state[:2] = (fill % config.ws, fill)
        windows.append(window)
    n = len(rules)
    # the two windows of a pair record every sample together and evict it
    # together, so they share one samples array
    for slow, fast in zip(windows[n::2], windows[n + 1::2]):
        if slow.ordered()[0].tobytes() != fast.ordered()[0].tobytes():
            raise ValueError("a shadow pair's windows must hold the same samples")
        fast.samples = slow.samples
    if not rules:
        return learner

    def stacked(part, key, *shape):
        return _array([entry[part][key] for entry, _ in rows],
                      (len(rows), *shape), f"{part} {key}")

    covs = stacked("premise", "cov", d, d)
    hits = np.array([entry["premise"]["hits"] for entry, _ in rows], dtype=np.int64)
    learner.system.set_rows(
        [Rule(id=rule_id, born_class=rule["born_class"], windows=learner.windows)
         for rule_id, rule in zip(ids, rules)],
        np.arange(len(rows)),
        extra=Rows(stacked("premise", "center", d), covs,
                   regularized_inverse_stack(covs), hits,
                   stacked("consequent", "corr", d + 1, d + 1),
                   stacked("consequent", "coeffs", d + 1, c)))
    learner.windows.set_rows(np.arange(n), windows[:n])
    learner.pairs = [PairState(slow, fast, int(pairs[rule_id]["samples_seen"]))
                     for rule_id, slow, fast
                     in zip(ids, windows[n::2], windows[n + 1::2])]
    learner._resize_buffers()
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
    leaves this hash unchanged (state_bytes covers them). Portable
    and stable across machines; the benchmark pins its value per stream.
    """
    digest = hashlib.sha256()

    def put(text: str) -> None:
        digest.update(text.encode("utf-8"))

    dumps = _CANONICAL.encode
    state = _state_skeleton(learner)
    ids = [str(rule.id) for rule in learner.system.rules]
    put("{")
    for i, key in enumerate(sorted(state)):
        # json.dumps separators: ", " between items, ": " after keys
        put(f"{', ' if i else ''}{dumps(key)}: ")
        if key == "rules":
            _put_items(put, "[]", (dumps(_rule_entry(learner, i))
                                   for i in range(len(ids))))
        elif key == "anticipations":
            _put_items(put, "{}", (
                f"{dumps(ids[i])}: {dumps(_pair_entry(learner, i))}"
                for i in sorted(range(len(ids)), key=ids.__getitem__)))
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
    pairs = learner.pairs
    log = learner.drift_log
    pair_windows = [window for pair in pairs
                    for window in (pair.slow_window, pair.fast_window)]
    xs, ws = windows.entries()
    stacks = system.stacks()
    packed = (xs, ws, windows.state[1:],  # fills and skipped counts
              np.array([w.state[1:] for w in pair_windows],
                       dtype=np.int64).reshape(len(pair_windows), 2),
              np.array([e.sample_index for e in log], dtype=np.int64),
              np.array([e.rule_id for e in log], dtype=np.int64),
              np.array([e.separation for e in log], dtype=np.float64))
    meta = [system.n_features, system.n_classes, learner.config,
            learner.samples_seen, learner.next_rule_id,
            sorted(learner.seen_classes),
            [(rule.id, rule.born_class) for rule in system.rules],
            [pair.samples_seen for pair in pairs], [e.strategy for e in log],
            [a.shape for a in stacks + packed]]
    chunks: list = [*stacks, *packed]
    # a pair's windows share their samples and slots: one read per pair
    for pair in pairs:
        slow, fast = pair.slow_window, pair.fast_window
        if slow.state[1]:
            slots = slow.slots()
            chunks += (slow.samples[slots], slow.weights[slots],
                       fast.weights[slots])
    chunks.append(repr(meta).encode())
    return chunks


def state_bytes(learner: AnticipatingClassifier) -> bytes:
    """The raw bytes of the live model state, as one buffer.

    Covers every array state_dict serializes (the stacked premises and
    consequents, every window entry), the counters and metadata (config,
    rule ids, window bookkeeping, drift log), and the cached inverses that
    prediction reads. The buffer is the five FuzzySystem stacks with the
    hit counts, in row order (rules, then each rule's slow and fast
    sub-rule); the principal windows' samples and weights, oldest first
    and in rule order, read from the window bank in one gather; every
    window's fill and skipped count; the drift log's sample indices, rule
    ids and separations; for each nonempty shadow pair, the samples its
    two windows share and the slow and the fast weights, oldest first;
    then ``repr`` of the remaining metadata. Horizons, omegas and window
    capacities follow from the config, which the metadata holds. The
    shapes in the metadata and the fills fix where each array's bytes
    start, and repr writes every float exactly. Two buffers are equal iff
    every array holds the same bits (``-0.0`` differs from ``0.0``) and
    every counter is equal. It builds no JSON and hashes nothing. The
    bytes are native-endian: compare them only within one process.
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

