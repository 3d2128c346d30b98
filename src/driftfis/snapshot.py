"""Model serialization: versioned JSON snapshots and state hashing.

Snapshots capture the full learner state (rules, shadow pairs, windows,
counters, config) as plain JSON. Floats survive the round trip exactly
(repr-based encoding), so saving and reloading resumes the stream
bit-for-bit. Cached covariance inverses are not stored; they are
recomputed from the covariance, which is deterministic. Windows are built
and read through the forgetting module.

Two descriptions of a state serve two purposes. The canonical JSON, which
``save_model`` writes and ``model_state_hash`` hashes, is portable across
machines. ``state_bytes`` is the raw array bytes in memory plus a repr of
the counters: much cheaper to build, it also covers the cached inverses,
and two of them are compared byte for byte, so a check built on it is
exact rather than probabilistic. It reads the FuzzySystem stacks and the
principal windows' WindowBank whole. It is only comparable within one
process, and holding one costs its full size (about 0.67 MB on a 48-rule,
10-feature model); ``state_bytes_match`` compares a live state against a
held buffer without building a second one.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict

import numpy as np

from .anticipation import DriftEvent, PairState
from .config import STRATEGIES, LearnerConfig
from .fis import Rows, Rule
from .forgetting import DDFWindow, shadow_state
from .learner import AnticipatingClassifier
from .linalg import regularized_inverse_stack

FORMAT_NAME = "driftfis-model"
FORMAT_VERSION = 1

# the encoder json.dumps(..., sort_keys=True) uses, built once
_CANONICAL = json.JSONEncoder(sort_keys=True)


class SnapshotError(ValueError):
    """Snapshot file is missing, malformed, or from an unknown format."""


def _array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Float array from snapshot data; a wrong shape or a NaN or infinite
    entry raises ValueError."""
    out = np.array(value, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{what} has shape {out.shape}, expected {shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{what} holds a NaN or infinite entry")
    return out


def _integer(value, what: str, low: int = 0, high: float = math.inf,
             integral: bool = False) -> int:
    """An int from snapshot data in low..high, else ValueError; ``integral``
    also admits numpy ints (any numbers.Integral but bool)."""
    if integral and isinstance(value, numbers.Integral) and type(value) is not bool:
        value = int(value)
    if type(value) is not int or not low <= value <= high:
        raise ValueError(f"{what} must be an integer in {low}..{high}, "
                         f"got {value!r}")
    return value


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
    or a value of the wrong type or shape: among them a NaN or infinite
    array entry, a covariance or correlation matrix that is not exactly
    symmetric, a negative count or a non-integer one, a class outside
    0..n_classes-1, and a drift naming an unknown rule id or strategy.
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
    d = _integer(state["n_features"], "n_features", 1, integral=True)
    c = _integer(state["n_classes"], "n_classes", 1, integral=True)
    learner = AnticipatingClassifier(d, c, config)
    learner.samples_seen = _integer(state["samples_seen"], "samples_seen")
    learner.next_rule_id = _integer(state["next_rule_id"], "next_rule_id")
    learner.seen_classes = {_integer(label, "a seen class", 0, c - 1)
                            for label in state["seen_classes"]}
    learner.drift_log = [DriftEvent(**event) for event in state["drift_log"]]
    for event in learner.drift_log:
        _integer(event.sample_index, "a drift's sample_index")
        _integer(event.rule_id, "a drift's rule_id", 0, learner.next_rule_id - 1)
        if event.strategy not in STRATEGIES:
            raise ValueError(f"a drift's strategy {event.strategy!r} is not "
                             f"one of {STRATEGIES}")
        if type(event.separation) not in (int, float):
            raise ValueError(f"a drift's separation {event.separation!r} "
                             f"is not a number")
    rules = state["rules"]
    ids = [_integer(rule["id"], "a rule id") for rule in rules]
    pairs = [state["anticipations"][str(rule_id)] for rule_id in ids]
    if len(set(ids)) != len(ids) or len(pairs) != len(state["anticipations"]):
        raise ValueError("every rule needs a unique id and exactly one "
                         "anticipation pair")
    if ids and learner.next_rule_id <= max(ids):
        raise ValueError(f"next_rule_id {learner.next_rule_id} does not "
                         f"exceed every rule id")
    # every stacked row in stack order: the rules, then their pairs
    rows = [(rule, None) for rule in rules]
    for pair in pairs:
        rows += ((pair["slow"], config.tmax1), (pair["fast"], config.tmax2))
    windows = []  # each row's samples, weights and skipped count
    for entry, horizon in rows:
        premise = entry["premise"]
        _integer(premise["hits"], "hits", 1)
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
        held = w["entries"]
        windows.append([
            _array([x for x, _ in held] or np.empty((0, d + 1)),
                   (len(held), d + 1), "window entries"),
            _array([weight for _, weight in held], (len(held),), "window weights"),
            _integer(w["skipped"], "skipped")])
    n = len(rules)
    # the two windows of a pair record every sample together and evict it
    # together, so they share one samples array
    for slow, fast in zip(windows[n::2], windows[n + 1::2]):
        if slow[0].tobytes() != fast[0].tobytes():
            raise ValueError("a shadow pair's windows must hold the same samples")
        fast[0] = slow[0]
    windows = [DDFWindow(config.ws, skipped, xs, ws) for xs, ws, skipped in windows]
    if not rules:
        return learner

    def stacked(part, key, *shape):
        return _array([entry[part][key] for entry, _ in rows],
                      (len(rows), *shape), f"{part} {key}")

    covs = stacked("premise", "cov", d, d)
    corrs = stacked("consequent", "corr", d + 1, d + 1)
    # every update adds a u u' term, so the learner keeps both exactly
    # symmetric
    for what, mats in (("covariance", covs), ("correlation", corrs)):
        if not np.array_equal(mats, mats.swapaxes(-1, -2)):
            raise ValueError(f"a {what} matrix is not symmetric")
    hits = np.array([entry["premise"]["hits"] for entry, _ in rows], dtype=np.int64)
    learner.system.set_rows(
        [Rule(id=rule_id, windows=learner.windows,
              born_class=_integer(rule["born_class"], "born_class", 0, c - 1))
         for rule_id, rule in zip(ids, rules)],
        np.arange(len(rows)),
        extra=Rows(stacked("premise", "center", d), covs,
                   regularized_inverse_stack(covs), hits, corrs,
                   stacked("consequent", "coeffs", d + 1, c)))
    learner.windows.set_rows(np.arange(n), windows[:n])
    learner.pairs = [PairState(slow, fast, _integer(pair["samples_seen"],
                                                    "a pair's samples_seen"))
                     for pair, slow, fast in zip(pairs, windows[n::2],
                                                 windows[n + 1::2])]
    learner._resize_buffers()
    return learner


def save_model(learner: AnticipatingClassifier, path: str) -> None:
    """Stream the canonical JSON of state_dict and a newline to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_canonical_text(learner))
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

    The text is the one save_model writes, fed to the hash one rule or
    shadow pair at a time. Equal iff the serialized states are equal; the
    cached covariance inverses are not serialized (state_bytes covers
    them). Portable and stable across machines; the benchmark pins its
    value per stream.
    """
    digest = hashlib.sha256()
    for text in _canonical_text(learner):
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def _canonical_text(learner: AnticipatingClassifier):
    """``json.dumps(state_dict(learner), sort_keys=True)``, one entry at a time."""
    dumps = _CANONICAL.encode
    state = _state_skeleton(learner)
    ids = [str(rule.id) for rule in learner.system.rules]
    yield "{"
    for i, key in enumerate(sorted(state)):
        # json.dumps separators: ", " between items, ": " after keys
        yield f"{', ' if i else ''}{dumps(key)}: "
        if key == "rules":
            yield from _items("[]", (dumps(_rule_entry(learner, i))
                                     for i in range(len(ids))))
        elif key == "anticipations":
            yield from _items("{}", (
                f"{dumps(ids[i])}: {dumps(_pair_entry(learner, i))}"
                for i in sorted(range(len(ids)), key=ids.__getitem__)))
        else:
            yield dumps(state[key])
    yield "}"


def _items(brackets: str, items):
    """A JSON array or object, in pieces, from its already-encoded items."""
    yield brackets[0]
    for i, item in enumerate(items):
        yield f", {item}" if i else item
    yield brackets[1]


def _state_chunks(learner: AnticipatingClassifier) -> list:
    """The arrays state_bytes joins, in order, then the metadata bytes."""
    system = learner.system
    windows = learner.windows
    pairs = learner.pairs
    log = learner.drift_log
    xs, ws = windows.entries()
    shadow_counts, shadow_entries = shadow_state(pairs)
    stacks = system.stacks()
    packed = (xs, ws, windows.counts(), shadow_counts,  # fills and skipped counts
              np.array([e.sample_index for e in log], dtype=np.int64),
              np.array([e.rule_id for e in log], dtype=np.int64),
              np.array([e.separation for e in log], dtype=np.float64))
    meta = [system.n_features, system.n_classes, learner.config,
            learner.samples_seen, learner.next_rule_id,
            sorted(learner.seen_classes),
            [(rule.id, rule.born_class) for rule in system.rules],
            [pair.samples_seen for pair in pairs], [e.strategy for e in log],
            [a.shape for a in stacks + packed]]
    return [*stacks, *packed, *shadow_entries, repr(meta).encode()]


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

