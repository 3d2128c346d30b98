"""Periodic hold-out benchmarking and McNemar significance reporting.

The stream is consumed as alternating train/test chunk pairs: the learner
trains on each train chunk, is frozen while the following test chunk is
scored, and persists across pairs. Accuracy is reported per test chunk
with population statistics over chunks, the spread convention used for
"mean ± std" benchmark tables. Paired comparison of two prediction
vectors uses the McNemar statistic over discordant errors.
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ConfigError, ExperimentConfig, experiment_config_to_dict
from .learner import AnticipatingClassifier
from .snapshot import model_state_hash, state_fingerprint
from .streams import Standardizer, Stream, chunk_stream, default_chunk_sizes, make_stream

K_STRONG = 6.63   # chi-square 1 dof at 0.01: confident difference
K_WEAK = 2.7      # below this the classifiers are indistinguishable
MIN_CONTINGENCY = 25  # discordant-pair count below which K is unreliable

RESULTS_FORMAT = "driftfis-results"
RESULTS_VERSION = 1


@dataclass
class HoldoutResult:
    """Outcome of one periodic hold-out run."""

    per_chunk_accuracy: list[float]
    mean_accuracy: float
    std_accuracy: float          # population std over chunks
    predictions: np.ndarray      # test-sample predictions, stream order
    truths: np.ndarray
    drift_events: list = field(default_factory=list)
    final_rules: int = 0
    samples_trained: int = 0


def periodic_holdout(learner, stream: Stream, trs: int, tes: int,
                     standardize: bool = False,
                     verify_purity: bool = False) -> HoldoutResult:
    """Train/test the learner along the stream in (trs, tes) chunk pairs.

    ``standardize`` freezes per-feature scaling on the first train chunk.
    ``verify_purity`` (native learner only) takes ``state_fingerprint``
    before and after every test chunk and raises RuntimeError if scoring
    changed it. The fingerprint covers everything the snapshot stores plus
    the stacked arrays prediction reads, cached covariance inverses
    included, and costs a few percent of the canonical ``model_state_hash``
    (which the error message reports for the mutated state).
    """
    pairs = chunk_stream(stream, trs, tes)
    scaler = Standardizer().fit(pairs[0][0]) if standardize else None
    accuracies: list[float] = []
    prediction_blocks: list[np.ndarray] = []
    truth_blocks: list[np.ndarray] = []
    trained = 0
    for X_train, y_train, X_test, y_test in pairs:
        if scaler is not None:
            X_train = scaler.transform(X_train)
            X_test = scaler.transform(X_test)
        for x, label in zip(X_train, y_train):
            learner.learn_one(x, int(label))
        trained += len(y_train)
        before = state_fingerprint(learner) if verify_purity else None
        preds = np.fromiter(
            (learner.predict_one(x) for x in X_test), dtype=np.int64, count=len(y_test))
        if verify_purity and state_fingerprint(learner) != before:
            raise RuntimeError(
                f"learner state changed while scoring test chunk {len(accuracies)} "
                f"(model_state_hash now {model_state_hash(learner)})")
        accuracies.append(float(np.mean(preds == y_test)))
        prediction_blocks.append(preds)
        truth_blocks.append(np.asarray(y_test, dtype=np.int64))
    return HoldoutResult(
        per_chunk_accuracy=accuracies,
        mean_accuracy=float(np.mean(accuracies)),
        std_accuracy=float(np.std(accuracies)),
        predictions=np.concatenate(prediction_blocks),
        truths=np.concatenate(truth_blocks),
        drift_events=list(getattr(learner, "drift_log", [])),
        final_rules=int(getattr(learner, "n_rules", 0)),
        samples_trained=trained,
    )


@dataclass
class McNemarOutcome:
    """Discordant-error counts and the derived significance verdict."""

    n01: int   # first classifier wrong, second right
    n10: int   # first right, second wrong
    k_statistic: float
    verdict: str            # "plus" | "approx" | "minus"
    low_contingency: bool   # fewer than 25 discordant pairs

    def symbol(self) -> str:
        """Table notation: +, ≈ or −, with (x) marking low contingency."""
        glyph = {"plus": "+", "approx": "≈", "minus": "−"}[self.verdict]
        return f"{glyph} (x)" if self.low_contingency else glyph


def mcnemar(preds_a, preds_b, truth) -> McNemarOutcome:
    """Paired McNemar test: K = (n10−n01)² / (n10+n01) over discordant errors."""
    preds_a = np.asarray(preds_a)
    preds_b = np.asarray(preds_b)
    truth = np.asarray(truth)
    if not (len(preds_a) == len(preds_b) == len(truth)):
        raise ValueError("prediction and truth vectors must have equal length")
    a_right = preds_a == truth
    b_right = preds_b == truth
    n01 = int(np.sum(~a_right & b_right))
    n10 = int(np.sum(a_right & ~b_right))
    discordant = n01 + n10
    k = 0.0 if discordant == 0 else (n10 - n01) ** 2 / discordant
    if k > K_STRONG:
        verdict = "plus"
    elif k >= K_WEAK:
        verdict = "approx"
    else:
        verdict = "minus"
    return McNemarOutcome(
        n01=n01, n10=n10, k_statistic=float(k),
        verdict=verdict, low_contingency=discordant < MIN_CONTINGENCY)


@dataclass
class ExperimentOutcome:
    """A resolved, executed experiment cell."""

    config: ExperimentConfig
    trs: int
    tes: int
    stream_meta: dict
    result: HoldoutResult
    learner: AnticipatingClassifier


def resolve_chunk_sizes(cfg: ExperimentConfig) -> tuple[int, int]:
    preset = default_chunk_sizes(cfg.dataset)
    trs = cfg.trs if cfg.trs > 0 else (preset[0] if preset else 0)
    tes = cfg.tes if cfg.tes > 0 else (preset[1] if preset else 0)
    if trs < 1 or tes < 1:
        raise ConfigError(
            f"trs and tes must be set for dataset {cfg.dataset!r} "
            "(no standard chunk sizes available)")
    return trs, tes


def build_stream(cfg: ExperimentConfig) -> Stream:
    swaps = cfg.swap_positions() or None
    return make_stream(cfg.dataset, n_samples=cfg.n_samples, seed=cfg.seed,
                       noise=cfg.noise, drift_mag=cfg.drift_mag,
                       flip_prob=cfg.flip_prob, swaps=swaps)


def run_experiment(cfg: ExperimentConfig,
                   verify_purity: bool = False) -> ExperimentOutcome:
    """Generate/load the stream, train the learner, return everything."""
    cfg.validate()
    stream = build_stream(cfg)
    trs, tes = resolve_chunk_sizes(cfg)
    learner = AnticipatingClassifier(
        stream.n_features, stream.n_classes, replace(cfg.learner))
    result = periodic_holdout(learner, stream, trs, tes,
                              standardize=cfg.standardize,
                              verify_purity=verify_purity)
    return ExperimentOutcome(config=cfg, trs=trs, tes=tes,
                             stream_meta=stream.meta, result=result,
                             learner=learner)


def results_payload(outcome: ExperimentOutcome) -> dict:
    """Results-file contents; field order is fixed for diff-ability."""
    result = outcome.result
    return {
        "format": RESULTS_FORMAT,
        "version": RESULTS_VERSION,
        "config": experiment_config_to_dict(outcome.config),
        "trs": outcome.trs,
        "tes": outcome.tes,
        "stream_meta": outcome.stream_meta,
        "n_chunks": len(result.per_chunk_accuracy),
        "mean_accuracy": result.mean_accuracy,
        "std_accuracy": result.std_accuracy,
        "final_rules": result.final_rules,
        "samples_trained": result.samples_trained,
        "drift_event_count": len(result.drift_events),
        "drift_events": [
            {"sample_index": e.sample_index, "rule_id": e.rule_id,
             "strategy": e.strategy, "separation": e.separation}
            for e in result.drift_events
        ],
        "per_chunk_accuracy": result.per_chunk_accuracy,
        "predictions": result.predictions.tolist(),
        "truths": result.truths.tolist(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def persist_results(payload: dict, path: str) -> None:
    """Write a results payload as JSON, creating parent directories."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_results(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != RESULTS_FORMAT:
        raise ValueError(f"{path}: not a {RESULTS_FORMAT} file")
    return payload


def write_chunk_csv(result: HoldoutResult, path: str) -> None:
    """Flat per-chunk accuracy CSV for external plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("chunk,accuracy\n")
        for i, acc in enumerate(result.per_chunk_accuracy):
            fh.write(f"{i},{acc!r}\n")
