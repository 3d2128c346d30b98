"""Closed-loop passes over a workload, timed from outside the package.

One pass takes each of the streams a seed stands for, builds its inputs
(set-up), then drives the public ``evaluation.periodic_holdout`` with a
single caller that sends the next sample only after the previous call
returned. A thin proxy around the
learner times every ``learn_one`` call and turns an exception in
``learn_one``/``predict_one`` into a counted failure instead of an abort.
Every pass ends in the correctness gate: prediction digest and final state
hash against ``digests.json``, accuracy floor and (once per run) a
save/load round trip.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from driftfis import evaluation, learner as learner_mod, snapshot, streams

import calibrate
from workloads import Workload

perf_counter = time.perf_counter

# streams per pass: the work behind a seed varies with its stream (the rule
# count differs by up to 4x between seeds), and summing a few streams per
# pass keeps that variation from dominating the spread between seeds
SUB_STREAMS = 3


@dataclass
class Inputs:
    stream: streams.Stream
    learner: learner_mod.AnticipatingClassifier


def setup(workload: Workload, seed: int) -> Inputs:
    """Stream generation, chunking, scaler fit and learner construction.

    The scaler is fitted on the first train chunk and applied to the whole
    stream here, so the hold-out runs unscaled on identical values: the
    transform is elementwise, so scaling before or after chunking gives the
    same bits.
    """
    stream = workload.build_stream(seed)
    first_train = streams.chunk_stream(stream, workload.trs, workload.tes)[0][0]
    scaler = streams.Standardizer().fit(first_train)
    scaled = streams.Stream(X=scaler.transform(stream.X), y=stream.y,
                            meta=stream.meta)
    learner = learner_mod.AnticipatingClassifier(
        scaled.n_features, scaled.n_classes, workload.learner_config())
    return Inputs(stream=scaled, learner=learner)


def timed_setup(workload: Workload, stream_seed: int,
                track_speed: bool) -> tuple[Inputs, float, float]:
    """``setup`` with its time, raw and (after a calibration) scaled."""
    scale = (calibrate.REFERENCE_S / calibrate.calibration_s()
             if track_speed else 1.0)
    t0 = perf_counter()
    inputs = setup(workload, stream_seed)
    setup_s = perf_counter() - t0
    return inputs, setup_s, setup_s * scale


class TimedLearner:
    """Delegating proxy that times ``learn_one`` and counts failed calls.

    Costs two ``perf_counter`` reads and one list append per sample.
    Everything else (``system``, ``n_rules``, ``drift_log`` ...) falls
    through to the wrapped learner, so ``model_state_hash(proxy)`` hashes
    the real model. With a ``calibrate.SpeedTrack``, the first
    ``learn_one`` of every train chunk is preceded by a calibration.
    """

    def __init__(self, inner, track: calibrate.SpeedTrack | None = None):
        self.inner = inner
        self.track = track
        self.learn_s: list[float] = []
        self.predict_calls = 0
        self.failed = 0
        self._training = False

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def learn_one(self, x, y):
        if not self._training:
            self._training = True
            if self.track is not None:
                self.track.mark(len(self.learn_s))
        t0 = perf_counter()
        try:
            pred = self.inner.learn_one(x, y)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            pred = -1
        self.learn_s.append(perf_counter() - t0)
        return pred

    def predict_one(self, x):
        self._training = False
        self.predict_calls += 1
        try:
            return self.inner.predict_one(x)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            return -1


@dataclass
class PassResult:
    """One pass; ``holdout_s`` and ``learn_s`` exclude calibration time.

    With speed tracking, ``scaled_*`` hold the times at reference host
    speed; without it they repeat the raw figures.
    """

    setup_s: list[float]
    scaled_setup_s: list[float]
    holdout_s: float
    calibration_s: float   # calibrating inside the hold-outs, not in holdout_s
    learn_s: list[float]
    scaled_holdout_s: float
    scaled_learn_s: np.ndarray
    n_test: int
    mean_accuracy: float
    attempted: int
    failed: int
    final_rules: list[int]
    drifts: int
    outputs: dict[int, dict[str, str]]   # per stream seed, see ``outputs``
    learner: object = field(repr=False)   # the last stream's learner


def stream_seeds(seed: int) -> list[int]:
    """The SUB_STREAMS generator seeds one benchmark seed stands for."""
    return [seed * SUB_STREAMS + j for j in range(SUB_STREAMS)]


def outputs(preds: np.ndarray, state_hash: str) -> dict[str, str]:
    """What the gate compares for one hold-out: prediction digest, state hash."""
    return {"predictions": hashlib.sha256(preds.astype("<i8").tobytes()).hexdigest(),
            "state": state_hash}


def run_pass(workload: Workload, seeds: list[int], on_phase=None,
             track_speed: bool = False) -> PassResult:
    """Set up and hold out each of the given streams once, in order.

    ``seeds`` are generator seeds (see ``stream_seeds``). ``on_phase(name)``,
    if given, is called with "holdout" just before each hold-out starts and
    with "gate" just after it returns.
    """
    parts = [_holdout(workload, s, on_phase or (lambda phase: None),
                      track_speed) for s in seeds]
    merged = {key: [part[key] for part in parts] for key in parts[0]}
    return PassResult(
        setup_s=merged["setup_s"],
        scaled_setup_s=merged["scaled_setup_s"],
        holdout_s=sum(merged["holdout_s"]),
        calibration_s=sum(merged["calibration_s"]),
        learn_s=[t for ts in merged["learn_s"] for t in ts],
        scaled_holdout_s=sum(merged["scaled_holdout_s"]),
        scaled_learn_s=np.concatenate(merged["scaled_learn_s"]),
        n_test=sum(merged["n_test"]),
        mean_accuracy=float(np.mean(merged["mean_accuracy"])),
        attempted=sum(merged["attempted"]),
        failed=sum(merged["failed"]),
        final_rules=merged["final_rules"],
        drifts=sum(merged["drifts"]),
        outputs=dict(zip(seeds, merged["outputs"])),
        learner=merged["learner"][-1],
    )


def _holdout(workload: Workload, stream_seed: int, on_phase,
             track_speed: bool) -> dict:
    inputs, setup_s, scaled_setup_s = timed_setup(workload, stream_seed,
                                                  track_speed)
    on_phase("holdout")
    track = calibrate.SpeedTrack() if track_speed else None
    proxy = TimedLearner(inputs.learner, track)
    n_chunks = len(inputs.stream) // (workload.trs + workload.tes)
    purity_checks = n_chunks if workload.verify_purity else 0
    failed = 0
    t0 = perf_counter()
    try:
        result = evaluation.periodic_holdout(
            proxy, inputs.stream, workload.trs, workload.tes,
            verify_purity=workload.verify_purity)
    except RuntimeError:  # purity violation aborts the hold-out
        result = None
    t_end = perf_counter()
    on_phase("gate")
    holdout_s = t_end - t0
    if track is None:
        scaled = (holdout_s, np.asarray(proxy.learn_s))
        calibration_s = 0.0
    else:
        scaled = track.scale(t0, t_end, proxy.learn_s)
        calibration_s = sum(m[2] for m in track.marks)
        holdout_s -= calibration_s
    if result is None:
        failed += 1
        preds = np.empty(0, dtype=np.int64)
        accuracy = 0.0
        drifts = 0
    else:
        preds = result.predictions
        accuracy = result.mean_accuracy
        drifts = len(result.drift_events)
    failed += proxy.failed + int(accuracy < workload.accuracy_floor)
    return {
        "setup_s": setup_s,
        "scaled_setup_s": scaled_setup_s,
        "holdout_s": holdout_s,
        "calibration_s": calibration_s,
        "learn_s": proxy.learn_s,
        "scaled_holdout_s": scaled[0],
        "scaled_learn_s": scaled[1],
        "n_test": proxy.predict_calls,
        "mean_accuracy": accuracy,
        # every learn/predict call, every purity check, the accuracy floor
        "attempted": len(proxy.learn_s) + proxy.predict_calls + purity_checks + 1,
        "failed": failed,
        "final_rules": inputs.learner.n_rules,
        "drifts": drifts,
        "outputs": outputs(preds, snapshot.model_state_hash(inputs.learner)),
        "learner": inputs.learner,
    }


def round_trip_ok(learner, state_hash: str, scratch_dir: Path) -> bool:
    """save_model -> load_model must reproduce the state hash exactly."""
    scratch_dir.mkdir(parents=True, exist_ok=True)
    fd, path = tempfile.mkstemp(suffix=".json", dir=scratch_dir)
    os.close(fd)
    try:
        snapshot.save_model(learner, path)
        return snapshot.model_state_hash(snapshot.load_model(path)) == state_hash
    finally:
        os.remove(path)


def load_expected(path: Path, workload: str) -> dict[int, dict[str, str]]:
    """Committed outputs of the workload, keyed by stream seed."""
    entries = json.loads(path.read_text(encoding="utf-8")).get(workload, {})
    return {int(seed): record for seed, record in entries.items()}


@dataclass
class Gate:
    """Accumulates attempted/failed operations across the passes of a run.

    Every hold-out must reproduce the committed outputs of its stream
    (``expected``, from ``digests.json``) and the outputs of the same
    stream earlier in the run, bit for bit. Streams without a committed
    record are only checked within the run; ``unrecorded`` counts them.
    """

    expected: dict[int, dict[str, str]]
    scratch_dir: Path
    attempted: int = 0
    failed: int = 0
    seen: dict[int, dict[str, str]] = field(default_factory=dict)
    unrecorded: set[int] = field(default_factory=set)
    round_tripped: bool = False

    def admit(self, p: PassResult) -> None:
        self.attempted += p.attempted
        self.failed += p.failed
        for stream_seed, got in p.outputs.items():
            first = self.seen.setdefault(stream_seed, got)
            if stream_seed not in self.expected:
                self.unrecorded.add(stream_seed)
            self.attempted += 1
            self.failed += int(got != first
                               or got != self.expected.get(stream_seed, got))
        if not self.round_tripped:
            # once per run: the last stream's model survives a save/load
            self.round_tripped = True
            self.attempted += 1
            last_state = list(p.outputs.values())[-1]["state"]
            self.failed += int(not round_trip_ok(p.learner, last_state,
                                                 self.scratch_dir))
