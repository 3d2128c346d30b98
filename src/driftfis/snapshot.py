"""Model serialization: versioned JSON snapshots and state hashing.

Snapshots capture the full learner state (rules, shadow pairs, windows,
counters, config) as plain JSON. Floats survive the round trip exactly
(repr-based encoding), so saving and reloading resumes the stream
bit-for-bit. Cached covariance inverses are not stored; they are
recomputed from the covariance, which is deterministic. Both directions
work on rows. The writer reads the FuzzySystem stacks and the WindowBank's
entries() and counts() once per snapshot, and slices each rule's and
sub-rule's entry out of them, with its id and born class. The loader
rebuilds the stacks, the id and born-class arrays and the pair counts, and
parses every window into that same form, one flat array of entries in row
order with each row's fill and skipped count, which one WindowBank.load
installs. Some of what the writer writes is derived, for the reader:
``next_rule_id`` (one past the largest rule id), the seen classes, each
row's horizon, omega and window capacity, and each drift's strategy. The
loader takes none of it from the snapshot. It checks the stored values,
builds the model (whose constructor rejects a size that is no positive
int), and then requires that the model write the snapshot
back (``state_dict(from_state_dict(s)) == s`` under ``==``, key sets
included), entry by entry, so that only the writer knows how a derived
field follows from the rest.

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
import reprlib
from dataclasses import asdict

import numpy as np

from .anticipation import DriftEvent
from .config import LearnerConfig
from .fis import Rows
from .learner import INT64_MAX, AnticipatingClassifier
from .linalg import regularized_inverse_stack

FORMAT_NAME = "driftfis-model"
FORMAT_VERSION = 1

# the encoder json.dumps(..., sort_keys=True) uses, built once
_CANONICAL = json.JSONEncoder(sort_keys=True)


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


def _integer(value, what: str, low: int = 0, high: float = math.inf) -> int:
    """An int from snapshot data in low..high, else ValueError."""
    if type(value) is not int or not low <= value <= high:
        raise ValueError(f"{what} must be an integer in {low}..{high}, "
                         f"got {value!r}")
    return value


def _entry_writers(learner: AnticipatingClassifier):
    """The writers of rule i's entry and of shadow pair i's, two functions
    of i. Each slices its rows out of the stacks and out of the window
    entries and counts, which this reads once for the whole state."""
    system, windows, config = learner.system, learner.windows, learner.config
    stacks = system.stacks()
    xs, ws = windows.entries()
    fills, skipped = windows.counts().tolist()
    # row r's window entries are xs[ends[r]:ends[r + 1]], ws too
    ends = [0, *np.cumsum(fills).tolist()]

    def sub(row: int, horizon: int | None) -> dict:
        """Stack row ``row``'s premise, consequent and window entries, a
        rule (horizon None) or a sub-rule (its role's horizon)."""
        held = slice(ends[row], ends[row + 1])
        return {
            "premise": {"center": stacks.centers[row].tolist(),
                        "cov": stacks.covs[row].tolist(),
                        "hits": stacks.hits.item(row), "horizon": horizon},
            "consequent": {"coeffs": stacks.coeffs[row].tolist(),
                           "corr": stacks.corrs[row].tolist(),
                           "omega": config.omega},
            "window": {"capacity": windows.capacity, "skipped": skipped[row],
                       "entries": [list(e) for e in zip(xs[held].tolist(),
                                                        ws[held].tolist())]},
        }

    def rule(i: int) -> dict:
        return {"id": system.ids.item(i), "born_class": system.born_classes.item(i),
                **sub(i, None)}

    def pair(i: int) -> dict:
        row = len(system) + 2 * i  # the slow sub-rule's
        return {"samples_seen": learner.pair_seen.item(i),
                "slow": sub(row, config.tmax1), "fast": sub(row + 1, config.tmax2)}

    return rule, pair


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

    A state loads only if its model writes it back: state_dict of the
    result equals ``state`` under ``==``, key sets included. So an unknown
    key anywhere is rejected, as is a derived field (next_rule_id, the
    seen classes, a horizon, omega or window capacity, a drift's strategy)
    that differs from what the model derives; one stored in an equal form
    (3.0 or True for 3) loads as that same model.

    Raises SnapshotError for an unknown format or version, a missing key,
    a state its model does not write back (naming the first differing
    path, such as ['rules'][3]['premise']['horizon']), or a value of the
    wrong type or shape: among them a NaN or infinite
    array entry, a covariance or correlation matrix that is not exactly
    symmetric, a correlation matrix or a covariance with its ridge,
    S + r I, that is not positive definite, a -0.0 correlation or
    coefficient entry, a negative count or a non-integer one, a count
    past int64 or a rule id at its maximum, a class outside
    0..n_classes-1, and a drift the learner cannot have logged: one
    naming an unknown rule id, a separation not above ks, or a sample
    index not past the previous drift's and below samples_seen. A model
    too large for numpy to allocate (10**7 classes, a window capacity of
    10**14) raises SnapshotError too, not MemoryError.
    """
    if state.get("format") != FORMAT_NAME:
        raise SnapshotError(f"not a {FORMAT_NAME} snapshot")
    if state.get("version") != FORMAT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {state.get('version')!r}")
    try:
        learner = _learner_from_state(state)
        _check_written_back(learner, state)
    except KeyError as exc:
        raise SnapshotError(f"malformed snapshot: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError, MemoryError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from exc
    return learner


def _learner_from_state(state: dict) -> AnticipatingClassifier:
    config = LearnerConfig(**state["config"])
    # the constructor rejects a size that is no positive int
    learner = AnticipatingClassifier(state["n_features"], state["n_classes"], config)
    d, c = learner.system.n_features, learner.system.n_classes
    learner.samples_seen = _integer(state["samples_seen"], "samples_seen",
                                    high=INT64_MAX)
    rules = state["rules"]
    # rule ids live in an int64 array, which the next one, one past the
    # largest, must fit too
    ids = [_integer(rule["id"], "a rule id", high=INT64_MAX - 1) for rule in rules]
    born = [_integer(rule["born_class"], "born_class", 0, c - 1) for rule in rules]
    learner.drift_log = [DriftEvent(**{**event, "strategy": config.strategy})
                         for event in state["drift_log"]]
    # learn_one logs at most one drift per sample, each past ks, of a rule
    # id given out before
    after, largest = 0, max(ids, default=-1)
    for event in learner.drift_log:
        after = 1 + _integer(event.sample_index, "a drift's sample_index",
                             after, learner.samples_seen - 1)
        _integer(event.rule_id, "a drift's rule_id", 0, largest)
        if (type(event.separation) not in (int, float)
                or not event.separation > config.ks):
            raise ValueError(f"a drift's separation {event.separation!r} "
                             f"is not a number above ks {config.ks!r}")
    pairs = [state["anticipations"][str(rule_id)] for rule_id in ids]
    # every stacked row in stack order: the rules, then their pairs
    rows = [*rules, *(pair[role] for pair in pairs for role in ("slow", "fast"))]
    # every window's entries, flat in row order as WindowBank.entries
    # reads them, and each row's fill and skipped count
    fills = np.array([len(entry["window"]["entries"]) for entry in rows], dtype=np.int64)
    flat = [held for entry in rows for held in entry["window"]["entries"]]
    xs = _array([x for x, _ in flat] or np.empty((0, d + 1)), (len(flat), d + 1),
                "window entries")
    ws = _array([weight for _, weight in flat], (len(flat),), "window weights")
    skipped = np.array([_integer(entry["window"]["skipped"], "skipped",
                                 high=INT64_MAX) for entry in rows], dtype=np.int64)
    hits = np.array([_integer(entry["premise"]["hits"], "hits", 1, INT64_MAX)
                     for entry in rows], dtype=np.int64)
    # the two windows of a pair record every sample together and evict it
    # together: a pair's slow window is xs[slow:fast], its fast one xs[fast:end]
    ends, n = [0, *np.cumsum(fills).tolist()], len(rules)
    for slow, fast, end in zip(ends[n::2], ends[n + 1::2], ends[n + 2::2]):
        if xs[slow:fast].tobytes() != xs[fast:end].tobytes():
            raise ValueError("a shadow pair's windows must hold the same samples")
    if not rules:
        return learner

    def stacked(part, key, *shape):
        return _array([entry[part][key] for entry in rows],
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
    learner.system.set_rows(
        np.array(ids, dtype=np.int64), np.array(born, dtype=np.int64),
        np.arange(len(rows)),
        extra=Rows(stacked("premise", "center", d), covs, invs, hits, corrs,
                   coeffs))
    learner.windows.load(xs, ws, fills, skipped)
    learner.pair_seen = np.array(
        [_integer(pair["samples_seen"], "a pair's samples_seen", high=INT64_MAX)
         for pair in pairs], dtype=np.int64)
    learner._resize_buffers()
    return learner


def _check_written_back(learner: AnticipatingClassifier, state: dict) -> None:
    """Raise ValueError unless ``learner`` writes ``state`` back, naming the
    first path where they differ. The skeleton comes first, with the pairs
    as their keys, one per rule as the writer writes them; then each rule
    and pair entry, one at a time, so no second tree is built."""
    ids = [str(rule_id) for rule_id in learner.system.ids.tolist()]
    rules, pairs = state["rules"], state["anticipations"]
    skeleton = _state_skeleton(learner)
    skeleton["anticipations"] = sorted(ids)
    _compare(skeleton, {**state, "rules": None, "anticipations": sorted(pairs)}, "")
    rule_entry, pair_entry = _entry_writers(learner)
    for i, key in enumerate(ids):
        _compare(rule_entry(i), rules[i], f"['rules'][{i}]")
        _compare(pair_entry(i), pairs[key], f"['anticipations'][{key!r}]")


def _compare(written, given, path: str) -> None:
    if written != given:
        raise ValueError(_difference(written, given, path))


def _difference(written, given, path: str) -> str:
    """Where ``given`` first differs from ``written``, which it does not
    equal: a key only one of them holds, else the first differing value."""
    if type(written) is type(given) is dict:
        for key in [*written, *given]:
            if (key in written) != (key in given):
                return f"{path}[{key!r}] is {'unknown' if key in given else 'missing'}"
        for key in written:
            if written[key] != given[key]:
                return _difference(written[key], given[key], f"{path}[{key!r}]")
    elif type(written) is type(given) is list and len(written) == len(given):
        for i, (mine, theirs) in enumerate(zip(written, given)):
            if mine != theirs:
                return _difference(mine, theirs, f"{path}[{i}]")
    return f"{path} is {reprlib.repr(given)}, its model writes {reprlib.repr(written)}"


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
    rule_entry, pair_entry = _entry_writers(learner)
    yield "{"
    for i, key in enumerate(sorted(state)):
        # json.dumps separators: ", " between items, ": " after keys
        yield f"{', ' if i else ''}{dumps(key)}: "
        if key == "rules":
            yield from _items("[]", (dumps(rule_entry(i)) for i in range(len(ids))))
        elif key == "anticipations":
            yield from _items("{}", (
                f"{dumps(ids[i])}: {dumps(pair_entry(i))}"
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

