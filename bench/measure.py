"""Turn passes over a workload into the metrics named in BENCHMARK.json."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import driftfis
from driftfis import snapshot

import harness
import sweep
import tracing

EXTRA_SETUPS = 3   # set-up is short: time it again this often per stream

# spans reported as <name>.calls and <name>.self_s
SPANS = (
    "learner.learn_one", "learner.predict_one",
    "fis.memberships_all", "fis.advance_premises", "fis.wrls_step",
    "fis.downdate_row_pair", "fis.downdate_row", "fis.quadratic_form_pair",
    "fis.scores_from_memberships", "fis.predict_class", "fis.set_rows",
    "linalg.regularized_inverse_stack", "anticipation.spawn_pair",
    "forgetting.push", "snapshot.model_state_hash",
    "evaluation.periodic_holdout",
)
STREAM_SPANS = ("streams.make_stream", "streams.chunk_stream",
                "streams.Standardizer.transform")
COUNTS = (
    "fis.wrls_step.rows", "fis.wrls_step.active_rows",
    "fis.advance_premises.rows_blended", "fis.advance_premises.rows_active",
    "fis.set_rows.rows_copied", "learner.max_stack_rows",
    "linalg.regularized_inverse_stack.matrices",
    "anticipation.separation_tests", "forgetting.evictions",
    "forgetting.guard_skips",
)


def _passes(run_one, seconds: float, min_passes: int) -> list:
    """Run passes while the next one (as long as the longer of the last
    two) still fits."""
    results = []
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_one(len(results)))
        durations.append(time.perf_counter() - t0)
        if (len(results) >= min_passes and time.perf_counter() - start
                + max(durations[-2:]) > seconds):
            return results


def _setups(workload, seed: int) -> list[float]:
    """Scaled times of EXTRA_SETUPS more set-ups of each stream of the seed."""
    return [harness.timed_setup(workload, stream_seed, track_speed=True)[2]
            for stream_seed in harness.stream_seeds(seed)
            for _ in range(EXTRA_SETUPS)]


def health(learner) -> dict[str, float]:
    """Symmetry, definiteness and guard skips of every conclusion matrix."""
    subs = [(r.consequent, r.window) for r in learner.system.rules]
    for pair in learner.anticipations.values():
        subs += [(s.consequent, s.window) for s in (pair.slow, pair.fast)]
    corrs = np.stack([con.corr for con, _ in subs])
    sym = 0.5 * (corrs + corrs.swapaxes(1, 2))
    return {
        "forgetting.corr_asymmetry_max":
            float(np.max(np.abs(corrs - corrs.swapaxes(1, 2)))),
        "forgetting.corr_min_eig": float(np.min(np.linalg.eigvalsh(sym))),
        "forgetting.guard_skips_total": sum(w.skipped for _, w in subs),
    }


def end_to_end(workload, seed: int, seconds: float, gate) -> tuple[dict, dict]:
    """Timings at reference host speed, each from its best pass.

    Scaling removes the host's drift between chunks; what is left (a
    spike inside one call, the cyclic garbage collector) only ever adds
    time, so the best pass of a run is its least disturbed one.
    ``holdout_s`` is per hold-out (a pass holds out several streams);
    ``setup_s`` is the median of all set-ups of the run.
    """
    setups: list[float] = []

    def run_one(_):
        p = harness.run_pass(workload, harness.stream_seeds(seed),
                             track_speed=True)
        gate.admit(p)
        setups.extend(p.scaled_setup_s + _setups(workload, seed))
        return p

    passes = _passes(run_one, seconds, min_passes=1)
    best_pass_s = min(p.scaled_holdout_s for p in passes)
    values = {
        "holdout_s": best_pass_s / harness.SUB_STREAMS,
        "setup_s": statistics.median(setups),
        "train_samples_per_s": max(
            p.scaled_learn_s.size / p.scaled_learn_s.sum() for p in passes),
        "score_samples_per_s": max(
            p.n_test / (p.scaled_holdout_s - p.scaled_learn_s.sum())
            for p in passes),
        "learn_p50_us": min(np.percentile(p.scaled_learn_s, 50) * 1e6
                            for p in passes),
        "learn_p90_us": min(np.percentile(p.scaled_learn_s, 90) * 1e6
                            for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mean_accuracy": passes[0].mean_accuracy,
    }
    last = passes[-1]
    meta = {
        "passes": len(passes),
        "pass_holdout_s": [p.holdout_s for p in passes],
        "pass_scaled_holdout_s": [p.scaled_holdout_s for p in passes],
        "setups": len(setups),
        "stream_seeds": harness.stream_seeds(seed),
        "learn_samples_per_pass": len(passes[0].learn_s),
        "learn_samples_beyond_p90": len(passes[0].learn_s) // 10,
        "final_rules": last.final_rules,
        "drifts": last.drifts,
        "health": health(last.learner),
    }
    return values, meta


def traced(workload, seed: int, seconds: float, gate) -> tuple[dict, dict]:
    """Kernel sweep, then untraced and traced passes over one stream in turn.

    One stream per pass keeps the sweep and one pass of each kind inside
    ``seconds``; more passes run while they fit.
    """
    start = time.perf_counter()
    values = sweep.kernel_sweep(workload.build_stream(seed).n_features, seed)
    seeds = harness.stream_seeds(seed)[:1]
    tracer = tracing.Tracer()
    per_pass: list[dict] = []

    def run_one(index):
        if index % 2 == 0:
            p = harness.run_pass(workload, seeds, track_speed=True)
        else:
            p, values_of_pass = _traced_pass(workload, seeds[0], tracer)
            per_pass.append(values_of_pass)
        gate.admit(p)
        return p

    passes = _passes(run_one, seconds - (time.perf_counter() - start),
                     min_passes=2)
    # per-layer figures all come from one traced pass, so they add up
    values.update(min(per_pass, key=lambda d: d["trace.scaled_holdout_s"]))
    untraced = passes[::2]
    # both sides at reference host speed, so host drift between the
    # passes does not pass for tracing cost
    values["trace_overhead_ratio"] = (values["trace.scaled_holdout_s"]
                                      / min(p.scaled_holdout_s for p in untraced))
    # the far tail moves with host preemption and garbage collection more
    # than with the code, so it is reported here, without a bound
    for name, q in (("p99_us", 99), ("p999_us", 99.9)):
        values[f"learner.learn_one.{name}"] = min(
            np.percentile(p.scaled_learn_s, q) * 1e6 for p in untraced)
    meta = {
        "passes": len(passes),
        "traced_passes": len(per_pass),
        "stream_seeds": seeds,
        "learn_samples_per_pass": len(passes[0].learn_s),
        "final_rules": passes[-1].final_rules,
        "drifts": passes[-1].drifts,
    }
    return values, meta


def _traced_pass(workload, stream_seed: int, tracer) -> tuple:
    inside = {"self": 0.0, "counting": 0.0}
    opened = {}

    def on_phase(phase):
        # sum span self time and counting time over the hold-outs only
        if phase == "holdout":
            opened["self"] = tracer.total_self_s()
            opened["counting"] = tracer.counting_s
        else:
            inside["self"] += tracer.total_self_s() - opened["self"]
            inside["counting"] += tracer.counting_s - opened["counting"]

    tracer.reset()
    with tracer.installed():
        # speed tracking calibrates inside the hold-out, and so inside the
        # periodic_holdout span; its time is taken out of that span below
        p = harness.run_pass(workload, [stream_seed], on_phase,
                             track_speed=True)
    tracer.self_s["evaluation.periodic_holdout"] -= p.calibration_s
    inside["self"] -= p.calibration_s
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.self_s"] = tracer.self_s[name]
    out["fis.downdate.self_s"] = (tracer.self_s["fis.downdate_row"]
                                  + tracer.self_s["fis.downdate_row_pair"])
    for name in STREAM_SPANS:
        out[f"{name}.s"] = tracer.self_s[name]
    for name in COUNTS:
        out[name] = tracer.counts[name]
    counts = tracer.counts
    out["fis.wrls_step.active_ratio"] = (counts["fis.wrls_step.active_rows"]
                                         / counts["fis.wrls_step.rows"])
    out["anticipation.fire_ratio"] = (
        p.drifts / max(counts["anticipation.separation_tests"], 1))
    out["learner.drift_replacements"] = p.drifts
    out["learner.final_rules"] = max(p.final_rules)
    out["snapshot.state_bytes"] = len(json.dumps(
        snapshot.state_dict(p.learner), sort_keys=True).encode("utf-8"))
    out["trace.holdout_s"] = p.holdout_s
    out["trace.scaled_holdout_s"] = p.scaled_holdout_s
    out["trace.counting_s"] = inside["counting"]
    out["trace.unattributed_s"] = (p.holdout_s - inside["self"]
                                   - inside["counting"])
    out.update(health(p.learner))
    return p, out


def metadata(workload, seed: int) -> dict:
    root = Path(__file__).resolve().parent.parent
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "driftfis": driftfis.__version__,
    }


def _blas_threads():
    """OpenBLAS thread count via its C API, if numpy bundles OpenBLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def measure(workload, seed: int, seconds: float, trace: bool,
            digests: Path, state_dir: Path, spec_metrics: list[dict]) -> dict:
    """Run the workload and return the result with spec-ordered metrics."""
    gate = harness.Gate(harness.load_expected(digests, workload.name), state_dir)
    run = traced if trace else end_to_end
    values, meta = run(workload, seed, seconds, gate)
    values["ok_op_ratio"] = (gate.attempted - gate.failed) / gate.attempted
    meta.update(metadata(workload, seed))
    meta["outputs"] = {str(s): o for s, o in gate.seen.items()}
    meta["streams_without_recorded_outputs"] = sorted(gate.unrecorded)
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
        "meta": meta,
    }
