"""Model serialization: versioned JSON snapshots and state hashing.

Snapshots capture the full learner state (rules, shadow pairs, windows,
counters, config) as plain JSON. Floats survive the round trip exactly
(repr-based encoding), so saving and reloading resumes the stream
bit-for-bit. Cached covariance inverses are not stored; they are
recomputed from the covariance, which is deterministic. Both directions
work on rows: the writer reads each rule's and sub-rule's row of the
FuzzySystem stacks, its id and born class and its WindowBank row, and the
loader rebuilds the stacks, the id and born-class arrays, the pair counts
and the bank. ``next_rule_id`` is written for the reader but is derived,
one past the largest rule id, and the loader requires exactly that.

Two descriptions of a state serve two purposes. The canonical JSON, which
``save_model`` writes and ``model_state_hash`` hashes, is text that any
machine reads back to the same bits; the state a stream learns into it is
verified identical only under the same OpenBLAS kernel (under the Haswell
and Zen kernels every pinned state hash differs, while the prediction
digests hold). ``state_bytes``, the raw array bytes plus a repr of the
config and scalars, is much cheaper, also covers the cached inverses, and
compares byte for byte, so a check built on it is exact. It is only comparable
within one process, and holding one costs its full size;
``state_bytes_match`` compares a live state against a held buffer without
building a second one.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, fields

import numpy as np

from .anticipation import DriftEvent
from .config import LearnerConfig
from .fis import Rows
from .learner import AnticipatingClassifier
from .linalg import regularized_inverse_stack

FORMAT_NAME = "driftfis-model"
FORMAT_VERSION = 1

# the encoder json.dumps(..., sort_keys=True) uses, built once
_CANONICAL = json.JSONEncoder(sort_keys=True)

# the largest count or id an int64 array holds
_INT64_MAX = np.iinfo(np.int64).max


class SnapshotError(ValueError):
    """Snapshot is malformed or of an unknown format (an unreadable file: OSError)."""


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


def _sub_entry(learner: AnticipatingClassifier, row: int,
               horizon: int | None) -> dict:
    """The premise, consequent and window entries of stack row ``row``, a
    rule (horizon None) or a sub-rule (its role's horizon)."""
    stacks, windows = learner.system.stacks(), learner.windows
    xs, ws = windows.entries(row, row + 1)
    return {
        "premise": {"center": stacks.centers[row].tolist(),
                    "cov": stacks.covs[row].tolist(),
                    "hits": stacks.hits.item(row), "horizon": horizon},
        "consequent": {"coeffs": stacks.coeffs[row].tolist(),
                       "corr": stacks.corrs[row].tolist(),
                       "omega": learner.config.omega},
        "window": {"capacity": windows.capacity,
                   "skipped": windows.state.item(2, row),
                   "entries": [list(e) for e in zip(xs.tolist(), ws.tolist())]},
    }


def _rule_entry(learner: AnticipatingClassifier, i: int) -> dict:
    system = learner.system
    return {"id": system.ids.item(i), "born_class": system.born_classes.item(i),
            **_sub_entry(learner, i, None)}


def _pair_entry(learner: AnticipatingClassifier, i: int) -> dict:
    row = len(learner.system) + 2 * i  # the slow sub-rule's
    return {"samples_seen": learner.pair_seen.item(i),
            "slow": _sub_entry(learner, row, learner.config.tmax1),
            "fast": _sub_entry(learner, row + 1, learner.config.tmax2)}


def state_dict(learner: AnticipatingClassifier) -> dict:
    """Full model state as a JSON-serializable dictionary: the canonical
    JSON that save_model writes, read back."""
    return json.loads("".join(_canonical_text(learner)))


def _state_skeleton(learner: AnticipatingClassifier) -> dict:
    """The state with its two bulky entries, rules and anticipations, None."""
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

    Raises SnapshotError for an unknown format or version, a missing key
    (the config must hold every LearnerConfig field and no other), or a
    value of the wrong type or shape: among them a NaN or infinite
    array entry, a covariance or correlation matrix that is not exactly
    symmetric, a correlation matrix or a covariance with its ridge,
    S + r I, that is not positive definite, a -0.0 correlation or
    coefficient entry, a negative count
    or a non-integer one, a class outside 0..n_classes-1, and a drift the
    learner cannot have logged: one naming an unknown rule id, another
    strategy than the config's, a separation not above ks, or a sample
    index not past the previous drift's and below samples_seen.
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
    # every field: a missing one would take its default unnoticed
    odd = set(state["config"]) ^ {f.name for f in fields(LearnerConfig)}
    if odd:
        raise ValueError(f"config keys missing or unknown: {sorted(odd, key=repr)}")
    config = LearnerConfig(**state["config"])
    d = _integer(state["n_features"], "n_features", 1, integral=True)
    c = _integer(state["n_classes"], "n_classes", 1, integral=True)
    learner = AnticipatingClassifier(d, c, config)
    learner.samples_seen = _integer(state["samples_seen"], "samples_seen")
    # rule ids live in an int64 array; next_rule_id, one past the largest
    # (checked below), bounds the drifts' rule ids
    next_rule_id = _integer(state["next_rule_id"], "next_rule_id", high=_INT64_MAX)
    learner.drift_log = [DriftEvent(**event) for event in state["drift_log"]]
    # learn_one logs at most one drift per sample, each past ks
    after = 0
    for event in learner.drift_log:
        after = 1 + _integer(event.sample_index, "a drift's sample_index",
                             after, learner.samples_seen - 1)
        _integer(event.rule_id, "a drift's rule_id", 0, next_rule_id - 1)
        if event.strategy != config.strategy:
            raise ValueError(f"a drift's strategy {event.strategy!r} differs "
                             f"from the config's {config.strategy!r}")
        if (type(event.separation) not in (int, float)
                or not event.separation > config.ks):
            raise ValueError(f"a drift's separation {event.separation!r} "
                             f"is not a number above ks {config.ks!r}")
    rules = state["rules"]
    ids = [_integer(rule["id"], "a rule id") for rule in rules]
    born = [_integer(rule["born_class"], "born_class", 0, c - 1) for rule in rules]
    # the learner seeds a rule at each class's first sample, so the seen
    # classes are exactly the born classes
    classes = sorted(set(born))
    seen = [_integer(label, "a seen class") for label in state["seen_classes"]]
    if seen != classes:
        raise ValueError(f"seen_classes {seen!r} differs from the rules' "
                         f"born classes {classes}")
    pairs = [state["anticipations"][str(rule_id)] for rule_id in ids]
    if len(set(ids)) != len(ids) or len(pairs) != len(state["anticipations"]):
        raise ValueError("every rule needs a unique id and exactly one "
                         "anticipation pair")
    if next_rule_id != max(ids, default=-1) + 1:
        raise ValueError(f"next_rule_id {next_rule_id} is not one past the "
                         f"largest rule id (0 with no rules)")
    # every stacked row in stack order: the rules, then their pairs
    rows = [(rule, None) for rule in rules]
    for pair in pairs:
        rows += ((pair["slow"], config.tmax1), (pair["fast"], config.tmax2))
    windows = []  # each row's samples, weights and skipped count
    for entry, horizon in rows:
        premise = entry["premise"]
        _integer(premise["hits"], "hits", 1, _INT64_MAX)
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
    # together
    for slow, fast in zip(windows[n::2], windows[n + 1::2]):
        if slow[0].tobytes() != fast[0].tobytes():
            raise ValueError("a shadow pair's windows must hold the same samples")
    if not rules:
        return learner

    def stacked(part, key, *shape):
        return _array([entry[part][key] for entry, _ in rows],
                      (len(rows), *shape), f"{part} {key}")

    covs = stacked("premise", "cov", d, d)
    corrs = stacked("consequent", "corr", d + 1, d + 1)
    invs = regularized_inverse_stack(covs)
    # every update adds a u u' term, so the learner keeps both exactly
    # symmetric. It keeps each correlation positive definite, and each
    # covariance with its ridge, S + r I, so also its inverse (the ridge
    # makes a horizon of 1's singular covariances definite)
    for what, mats, definite in (("covariance", covs, invs),
                                 ("correlation", corrs, corrs)):
        if not np.array_equal(mats, mats.swapaxes(-1, -2)):
            raise ValueError(f"a {what} matrix is not symmetric")
        try:
            np.linalg.cholesky(definite)
        except np.linalg.LinAlgError:
            raise ValueError(f"a {what} matrix is not positive definite") from None
    coeffs = stacked("consequent", "coeffs", d + 1, c)
    # the conclusion kernels are bitwise only on -0.0-free entries, which
    # the learner never makes (fis module docstring)
    for what, mats in (("correlation", corrs), ("coefficient", coeffs)):
        if np.signbit(mats[mats == 0.0]).any():
            raise ValueError(f"a {what} matrix holds a -0.0 entry")
    hits = np.array([entry["premise"]["hits"] for entry, _ in rows], dtype=np.int64)
    learner.system.set_rows(
        np.array(ids, dtype=np.int64), np.array(born, dtype=np.int64),
        np.arange(len(rows)),
        extra=Rows(stacked("premise", "center", d), covs, invs, hits, corrs,
                   coeffs))
    learner.windows.load(windows)
    learner.pair_seen = np.array(
        [_integer(pair["samples_seen"], "a pair's samples_seen", high=_INT64_MAX)
         for pair in pairs], dtype=np.int64)
    learner._resize_buffers()
    return learner


def save_model(learner: AnticipatingClassifier, path: str) -> None:
    """Stream the canonical JSON of the state and a newline to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_canonical_text(learner))
        fh.write("\n")


def load_model(path: str) -> AnticipatingClassifier:
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(state, dict):
        raise SnapshotError(f"{path}: expected a JSON object at top level")
    return from_state_dict(state)


def model_state_hash(learner: AnticipatingClassifier) -> str:
    """SHA-256 over the canonical JSON of the state, as a hex string.

    The text is the one save_model writes, fed to the hash one rule or
    shadow pair at a time. Equal iff the serialized states are equal; the
    cached covariance inverses are not serialized (state_bytes covers
    them). The benchmark pins its value per stream. Those pins hold under
    the OpenBLAS kernel they were recorded with: a BLAS that rounds its
    matrix products or inverses differently learns different bits (every
    state hash differs under the Haswell and Zen kernels).
    """
    digest = hashlib.sha256()
    for text in _canonical_text(learner):
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def _canonical_text(learner: AnticipatingClassifier):
    """The state's canonical JSON (sorted keys, json.dumps separators), one
    rule or shadow pair at a time."""
    dumps = _CANONICAL.encode
    state = _state_skeleton(learner)
    ids = [str(rule_id) for rule_id in learner.system.ids.tolist()]
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
    log = learner.drift_log
    xs, ws = windows.entries()
    stacks = system.stacks()
    packed = (xs, ws, windows.counts(),  # fills and skipped counts
              system.ids, system.born_classes, learner.pair_seen,
              np.array([e.sample_index for e in log], dtype=np.int64),
              np.array([e.rule_id for e in log], dtype=np.int64),
              np.array([e.separation for e in log], dtype=np.float64))
    meta = [learner.config, learner.samples_seen, [e.strategy for e in log],
            [a.shape for a in stacks + packed]]
    return [*stacks, *packed, repr(meta).encode()]


def state_bytes(learner: AnticipatingClassifier) -> bytes:
    """The raw bytes of the live model state, as one buffer.

    Covers every array state_dict serializes, the counters and metadata,
    and the cached inverses that prediction reads. The buffer is the five
    FuzzySystem stacks with the hit counts, in row order (rules, then each
    rule's slow and fast sub-rule); every window's samples and weights,
    oldest first in the same row order (WindowBank.entries); every
    window's fill and skipped count (WindowBank.counts); the rule ids,
    born classes and pair sample counts; the drift log's sample indices,
    rule ids and separations; then ``repr`` of what no array holds (config,
    samples_seen, the drift strategies, every array's shape). A pair's two
    windows hold the same samples, so their bytes appear twice. Horizons,
    omegas and window capacities follow from the config; the sizes follow
    from the shapes, next_rule_id from the ids and the seen classes from
    the born classes. The shapes and the fills fix where each array's bytes
    start, and repr writes every float exactly, so two buffers are equal iff
    every array holds the same bits (``-0.0`` differs from ``0.0``) and
    every counter is equal. The bytes are native-endian: compare them
    only within one process.
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

