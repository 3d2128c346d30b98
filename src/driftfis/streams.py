"""Labeled data streams: synthetic drift generators, CSV I/O, chunking.

All generators are pure functions of their parameters and seed. Streams
are dense arrays (X, y) in temporal order; the sample index is the time
stamp. Each generator records its construction in ``meta`` so a stream
saved to CSV carries a sidecar from which it can be regenerated.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .fis import NonFiniteInputError


class StreamParseError(ValueError):
    """CSV ingestion failure, with file and line context in the message."""


@dataclass
class Stream:
    """A finite labeled stream in temporal order."""

    X: np.ndarray                 # (n, d) float
    y: np.ndarray                 # (n,) int
    meta: dict = field(default_factory=dict)
    label_names: list[str] | None = None

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        if self.label_names is not None:
            return len(self.label_names)
        return int(self.y.max()) + 1 if len(self.y) else 0


# Standard benchmark shape per generator: (n_samples, train_chunk, test_chunk).
PRESETS = {
    "sea": (100_000, 250, 250),
    "hyperplane": (120_000, 1000, 250),
    "line": (2500, 200, 50),
    "sin": (2500, 200, 50),
    "sinh": (2500, 200, 50),
    "plane10d": (1200, 100, 20),
}

SEA_THRESHOLDS = (8.0, 9.0, 7.0, 9.5)


def gen_sea(n_samples: int = 100_000, noise: float = 0.0, seed: int = 0) -> Stream:
    """Three uniform features on [0,10]; class 1 iff f1+f2 <= theta.

    The threshold walks through four equal blocks (8, 9, 7, 9.5), giving
    three abrupt drifts; only the first two features matter. ``noise``
    flips each label independently with that probability.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 10.0, size=(n_samples, 3))
    block = n_samples // len(SEA_THRESHOLDS)
    sums = X[:, 0] + X[:, 1]
    y = np.empty(n_samples, dtype=np.int64)
    for i, theta in enumerate(SEA_THRESHOLDS):
        start = i * block
        end = (i + 1) * block if i < len(SEA_THRESHOLDS) - 1 else n_samples
        y[start:end] = sums[start:end] <= theta
    if noise > 0.0:
        flips = rng.random(n_samples) < noise
        np.subtract(1, y, out=y, where=flips)
    meta = {
        "generator": "sea",
        "seed": seed,
        "n_samples": n_samples,
        "noise": noise,
        "thresholds": list(SEA_THRESHOLDS),
        "block_size": block,
    }
    return Stream(X=X, y=y, meta=meta)


def gen_hyperplane(n_samples: int = 120_000, n_features: int = 4,
                   drift_mag: float = 0.001, flip_prob: float = 0.05,
                   seed: int = 0) -> Stream:
    """Rotating hyperplane: class 1 iff w(t).x >= 0.5*sum(w(t)).

    Features are uniform on [0,1]. Each weight moves by ``drift_mag`` per
    sample along a direction that reverses independently with probability
    ``flip_prob``, so the boundary drifts incrementally. The adaptive
    threshold keeps classes balanced throughout.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n_samples, n_features))
    w0 = rng.uniform(0.0, 1.0, size=n_features)
    signs0 = np.where(rng.random(n_features) < 0.5, -1.0, 1.0)
    if drift_mag > 0.0:
        reversals = np.where(rng.random((n_samples, n_features)) < flip_prob, -1.0, 1.0)
        sign_path = signs0 * np.cumprod(reversals, axis=0)
        W = w0 + drift_mag * np.cumsum(sign_path, axis=0)
    else:
        W = np.broadcast_to(w0, (n_samples, n_features))
    scores = np.einsum("ij,ij->i", X, W)
    thresholds = 0.5 * W.sum(axis=1)
    y = (scores >= thresholds).astype(np.int64)
    meta = {
        "generator": "hyperplane",
        "seed": seed,
        "n_samples": n_samples,
        "n_features": n_features,
        "drift_mag": drift_mag,
        "flip_prob": flip_prob,
        "init_weights": w0.tolist(),
    }
    return Stream(X=X, y=y, meta=meta)


def boundary_side(kind: str, x1, x2) -> np.ndarray:
    """1 where the point lies above the boundary curve, else 0.

    Curves: line x2 = x1; sin x2 = sin(x1); sinh x2 = sinh(x1)/sinh(2)
    (scaled into the sampling box).
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if kind == "line":
        edge = x1
    elif kind == "sin":
        edge = np.sin(x1)
    elif kind == "sinh":
        edge = np.sinh(x1) / np.sinh(2.0)
    else:
        raise ValueError(f"unknown boundary kind {kind!r}")
    return (x2 > edge).astype(np.int64)


_BOUNDARY_BOXES = {
    # (x1 range, x2 range), chosen symmetric around the curve for balance
    "line": ((0.0, 1.0), (0.0, 1.0)),
    "sin": ((0.0, 2.0 * np.pi), (-2.0, 2.0)),
    "sinh": ((-2.0, 2.0), (-2.0, 2.0)),
}


def _swap_parity(n_samples: int, swaps) -> tuple[list[int], np.ndarray]:
    """The sorted swap positions (default: one at the midpoint) and, per
    sample, the parity of the swaps at or before it (0 or 1)."""
    if swaps is None:
        swaps = [n_samples // 2]
    swaps = sorted(int(s) for s in swaps)
    parity = np.zeros(n_samples, dtype=np.int64)
    for pos in swaps:
        if pos < n_samples:
            parity[pos:] += 1
    return swaps, parity % 2


def gen_boundary_swap(kind: str, n_samples: int = 2500,
                      swaps=None, seed: int = 0) -> Stream:
    """2-D points labeled by their side of a fixed curve, with abrupt swaps.

    At each swap position the class-to-side assignment inverts, so the
    same point is labeled oppositely before and after — an abrupt concept
    drift with an unchanged input distribution. Default: one swap at the
    stream midpoint.
    """
    if kind not in _BOUNDARY_BOXES:
        raise ValueError(f"unknown boundary kind {kind!r}")
    swaps, flipped = _swap_parity(n_samples, swaps)
    rng = np.random.default_rng(seed)
    (lo1, hi1), (lo2, hi2) = _BOUNDARY_BOXES[kind]
    x1 = rng.uniform(lo1, hi1, size=n_samples)
    x2 = rng.uniform(lo2, hi2, size=n_samples)
    y = boundary_side(kind, x1, x2) ^ flipped
    meta = {
        "generator": kind,
        "seed": seed,
        "n_samples": n_samples,
        "swaps": list(swaps),
    }
    return Stream(X=np.column_stack([x1, x2]), y=y, meta=meta)


def gen_plane10d(n_samples: int = 1200, seed: int = 0, swaps=None) -> Stream:
    """10-D hyperplane labels with one abrupt coefficient swap.

    Two random weight vectors define two planes (each with the balanced
    adaptive threshold); labels follow the first plane until the swap
    position, the second afterwards. Default swap: sample 600.
    """
    swaps, use_b = _swap_parity(n_samples, swaps)
    rng = np.random.default_rng(seed)
    d = 10
    X = rng.uniform(0.0, 1.0, size=(n_samples, d))
    w_a = rng.uniform(-1.0, 1.0, size=d)
    w_b = rng.uniform(-1.0, 1.0, size=d)
    y_a = (X @ w_a >= 0.5 * w_a.sum()).astype(np.int64)
    y_b = (X @ w_b >= 0.5 * w_b.sum()).astype(np.int64)
    y = np.where(use_b.astype(bool), y_b, y_a)
    meta = {
        "generator": "plane10d",
        "seed": seed,
        "n_samples": n_samples,
        "swaps": list(swaps),
        "weights_a": w_a.tolist(),
        "weights_b": w_b.tolist(),
    }
    return Stream(X=X, y=y, meta=meta)


def load_csv(path: str) -> Stream:
    """Read a labeled stream: header row, numeric features, label column last.

    Labels map to dense indices in the class order of the sidecar save_csv
    writes (a label outside it fails), else in order of first appearance.
    Row order is preserved — streams are temporal. A NaN or infinite feature
    (including one too large for a float) fails with the line it is on;
    text that is not UTF-8 or a malformed sidecar fails naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StreamParseError(f"{path}: cannot open ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise StreamParseError(f"{path}: not UTF-8 text ({exc})") from exc
    order = _class_order(path)
    label_names = list(order or ())
    label_index = {name: i for i, name in enumerate(label_names)}
    rows: list[list[float]] = []
    labels: list[int] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise StreamParseError(f"{path}: empty file (header row required)") from None
    if len(header) < 2:
        raise StreamParseError(f"{path}:1: need at least one feature and a label column")
    n_cols = len(header)
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != n_cols:
            raise StreamParseError(
                f"{path}:{lineno}: expected {n_cols} columns, got {len(row)}")
        try:
            features = [float(v) for v in row[:-1]]
        except ValueError:
            raise StreamParseError(
                f"{path}:{lineno}: non-numeric feature value in {row[:-1]!r}") from None
        if not all(map(math.isfinite, features)):
            raise StreamParseError(
                f"{path}:{lineno}: non-finite feature value in {row[:-1]!r}")
        label = row[-1].strip()
        if label not in label_index:
            if order is not None:
                raise StreamParseError(
                    f"{path}:{lineno}: unknown label {label!r} "
                    f"(expected one of {label_names})")
            label_index[label] = len(label_names)
            label_names.append(label)
        rows.append(features)
        labels.append(label_index[label])
    if not rows:
        raise StreamParseError(f"{path}: no data rows")
    X = np.array(rows, dtype=float)
    y = np.array(labels, dtype=np.int64)
    meta = {"source": os.path.abspath(path), "n_samples": len(rows)}
    return Stream(X=X, y=y, meta=meta, label_names=label_names)


def _sidecar_path(path: str) -> str:
    base, _ = os.path.splitext(path)
    return base + ".meta.json"


def _check_label_names(names) -> None:
    """ValueError unless the label names are a list of distinct strings,
    none with leading or trailing whitespace, which load_csv strips from
    every label cell."""
    if not isinstance(names, list) or len(set(names)) != len(names) or any(
            not isinstance(n, str) or n != n.strip() for n in names):
        raise ValueError(f"label names {names!r} are not distinct strings "
                         f"free of leading and trailing whitespace")


def _class_order(path: str) -> list[str] | None:
    """The class order in the CSV's sidecar; None without a sidecar or when
    it holds null, as older sidecars of unnamed streams do."""
    sidecar = _sidecar_path(path)
    if not os.path.exists(sidecar):
        return None
    try:
        with open(sidecar, encoding="utf-8") as fh:
            order = json.load(fh)["label_names"]
        if order is not None:
            _check_label_names(order)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise StreamParseError(f"{sidecar}: malformed sidecar ({exc})") from exc
    return order


def save_csv(stream: Stream, path: str) -> None:
    """Write the stream as CSV plus a .meta.json sidecar describing it and
    its class order: the label names, else "0" to "c-1". ValueError, before
    any write, for names load_csv would reject (_check_label_names) and for
    a label that indexes no name: a negative one would write the last name,
    which reads back as another class."""
    names = stream.label_names
    if names is None:
        names = [str(c) for c in range(stream.n_classes)]
    _check_label_names(list(names))
    if not np.isin(stream.y, np.arange(len(names))).all():
        raise ValueError(f"a label outside 0..{len(names) - 1} indexes no name")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(stream.n_features)] + ["label"])
        for features, label in zip(stream.X, stream.y):
            writer.writerow([repr(float(v)) for v in features] + [names[label]])
    sidecar = {
        "meta": stream.meta,
        "n_samples": len(stream),
        "n_features": stream.n_features,
        "n_classes": stream.n_classes,
        "label_names": names,
    }
    with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def chunk_stream(stream: Stream, trs: int, tes: int) -> list[tuple[np.ndarray, ...]]:
    """Split into consecutive (train, test) block pairs; drop the partial tail.

    Returns a list of (X_train, y_train, X_test, y_test) views in order.
    """
    if trs < 1 or tes < 1:
        raise ValueError("chunk sizes must be at least 1")
    period = trs + tes
    n_pairs = len(stream) // period
    if n_pairs == 0:
        raise ValueError(
            f"stream of {len(stream)} samples is shorter than one "
            f"train+test period ({period})")
    pairs = []
    for k in range(n_pairs):
        start = k * period
        mid = start + trs
        end = start + period
        pairs.append((stream.X[start:mid], stream.y[start:mid],
                      stream.X[mid:end], stream.y[mid:end]))
    return pairs


@dataclass
class Standardizer:
    """Per-feature affine scaler frozen at fit time.

    Intended use: fit on the first train chunk, apply to everything after.
    Constant features pass through unscaled.
    """

    mean: np.ndarray | None = None
    scale: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "Standardizer":
        """Fix the per-feature mean and scale from X.

        Raises NonFiniteInputError when a mean or a spread is not finite:
        a value like 1e200 is finite, but its squared distance from the
        mean overflows, and an infinite scale would map the feature to
        zero for the whole stream.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            mean = X.mean(axis=0)
            std = X.std(axis=0)
        bad = ~(np.isfinite(mean) & np.isfinite(std))
        if bad.any():
            raise NonFiniteInputError(
                f"standardizer: feature(s) {np.flatnonzero(bad).tolist()} of "
                "the fitting chunk have no finite mean or spread; their "
                "values or squared distances overflow")
        self.mean = mean
        self.scale = np.where(std == 0.0, 1.0, std)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean is None:
            raise ValueError("standardizer not fitted")
        out = X - self.mean
        out /= self.scale
        return out


def make_stream(dataset: str, n_samples: int = 0, seed: int = 0,
                noise: float = 0.0, drift_mag: float = 0.001,
                flip_prob: float = 0.05, swaps=None) -> Stream:
    """Build a stream from a generator name or a CSV path."""
    if dataset in PRESETS:
        n = n_samples if n_samples > 0 else PRESETS[dataset][0]
        if dataset == "sea":
            return gen_sea(n, noise=noise, seed=seed)
        if dataset == "hyperplane":
            return gen_hyperplane(n, drift_mag=drift_mag,
                                  flip_prob=flip_prob, seed=seed)
        if dataset == "plane10d":
            return gen_plane10d(n, seed=seed, swaps=swaps)
        return gen_boundary_swap(dataset, n, swaps=swaps, seed=seed)
    if dataset.endswith(".csv") or os.path.exists(dataset):
        return load_csv(dataset)
    raise StreamParseError(
        f"unknown dataset {dataset!r}: not a generator name "
        f"({', '.join(sorted(PRESETS))}) and no such file")


def default_chunk_sizes(dataset: str) -> tuple[int, int] | None:
    """Standard (train, test) chunk sizes for a named generator, else None."""
    if dataset in PRESETS:
        return PRESETS[dataset][1], PRESETS[dataset][2]
    return None
