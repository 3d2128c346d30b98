"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from driftfis import AnticipatingClassifier, evaluation, model_state_hash

import calibrate
import harness
import measure
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_MAP = json.loads((ROOT / "bench" / "layer_map.json").read_text(encoding="utf-8"))

TINY = replace(WORKLOADS["plane10d-audit"], name="tiny", n_samples=1500,
               swap_every=500, trs=200, tes=50, accuracy_floor=0.0)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tmp_path, trace, section):
    digests = tmp_path / "digests.json"
    digests.write_text("{}", encoding="utf-8")
    report = measure.measure(TINY, 3, 0.0, trace, digests, tmp_path,
                             SPEC[section])
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] > 0
    emitted = report["metrics"]
    assert list(emitted) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert emitted[m["name"]]["unit"] == m["unit"]
        assert isinstance(emitted[m["name"]]["value"], (int, float))


def test_scaling_in_setup_matches_scaling_in_the_holdout():
    inputs = harness.setup(TINY, 4)
    ours = evaluation.periodic_holdout(inputs.learner, inputs.stream,
                                       TINY.trs, TINY.tes)
    raw = TINY.build_stream(4)
    learner = AnticipatingClassifier(raw.n_features, raw.n_classes,
                                     TINY.learner_config())
    theirs = evaluation.periodic_holdout(learner, raw, TINY.trs, TINY.tes,
                                         standardize=True)
    assert np.array_equal(ours.predictions, theirs.predictions)
    assert model_state_hash(inputs.learner) == model_state_hash(learner)


def _gate_on(p, expected, tmp_path):
    gate = harness.Gate(expected, tmp_path)
    gate.admit(p)
    return gate


def test_gate_checks_outputs_against_the_committed_digests(tmp_path):
    p = harness.run_pass(TINY, [2])
    assert _gate_on(p, {2: p.outputs[2]}, tmp_path).failed == 0
    changed = {2: {**p.outputs[2], "state": "0" * 64}}
    assert _gate_on(p, changed, tmp_path).failed == 1
    unrecorded = _gate_on(p, {}, tmp_path)
    assert unrecorded.failed == 0 and unrecorded.unrecorded == {2}


def test_committed_digests_cover_the_first_seeds():
    digests = ROOT / "bench" / "digests.json"
    for name in WORKLOADS:
        expected = harness.load_expected(digests, name)
        assert set(harness.stream_seeds(0) + harness.stream_seeds(9)) <= set(expected)


def test_speed_scaling_divides_out_the_calibration(monkeypatch):
    # a host twice as fast as the reference calibrates in half the time
    monkeypatch.setattr(calibrate, "calibration_s",
                        lambda: calibrate.REFERENCE_S / 2)
    p = harness.run_pass(TINY, harness.stream_seeds(3), track_speed=True)
    assert p.scaled_setup_s == pytest.approx([2.0 * t for t in p.setup_s])
    assert p.scaled_holdout_s == pytest.approx(2.0 * p.holdout_s, rel=1e-9)
    assert np.allclose(p.scaled_learn_s, 2.0 * np.asarray(p.learn_s), rtol=1e-12)


def _originals():
    return [vars(owner)[attr] for owner, attr, _, _ in tracing.TARGETS]


def test_traced_run_removes_its_wrappers():
    before = _originals()
    tracer = tracing.Tracer()
    traced_pass, _ = measure._traced_pass(TINY, 5, tracer)
    assert tracer.calls["learner.learn_one"] == 1200
    assert _originals() == before
    recorded = dict(tracer.calls)

    plain = harness.run_pass(TINY, [5])
    assert dict(tracer.calls) == recorded
    assert plain.outputs == traced_pass.outputs


def test_wrappers_are_removed_when_the_traced_block_raises():
    before = _originals()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer().installed():
            1 / 0
    assert _originals() == before


def test_self_times_account_for_the_traced_holdout():
    _, values = measure._traced_pass(TINY, 7, tracing.Tracer())
    assert 0.0 <= values["trace.unattributed_s"] < 0.01 * values["trace.holdout_s"]


def test_blended_rows_are_the_rows_advance_premises_reinverts():
    tracer = tracing.Tracer()
    _, values = measure._traced_pass(TINY, 7, tracer)
    blended = values["fis.advance_premises.rows_blended"]
    assert values["fis.advance_premises.rows_active"] <= blended
    assert 0 < blended <= values["linalg.regularized_inverse_stack.matrices"]


def test_every_layer_metric_says_what_it_should_move():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    layers = {entry["prefix"]: entry for entry in LAYER_MAP["layers"]}
    for metric in SPEC["per_layer"]:
        parts = metric["name"].split(".")
        owners = [".".join(parts[:i]) for i in range(len(parts), 0, -1)
                  if ".".join(parts[:i]) in layers]
        assert owners, metric["name"]
        entry = layers[owners[0]]
        assert set(entry["moves"]) <= e2e and set(entry["on"]) <= names
        assert entry["moves"] or entry["note"]
