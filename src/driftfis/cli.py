"""Command-line front end: generate streams, run benchmarks, compare, tune.

Configuration is a flat KEY=VALUE namespace (see config.config_keys);
every key can live in a config file and be overridden by the matching
command-line flag. Results and generated datasets default into the
directory named by the DRIFTFIS_OUTDIR environment variable (else the
working directory).

Exit codes: 0 success, 2 configuration error, 3 data/file error,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import (
    ConfigError,
    ExperimentConfig,
    build_experiment_config,
    config_keys,
    experiment_config_to_dict,
    parse_config_file,
)
from .evaluation import (
    ResultsFileError,
    build_stream,
    load_results,
    mcnemar,
    persist_results,
    resolve_chunk_sizes,
    results_payload,
    run_experiment,
)
from .fis import NonFiniteInputError
from .snapshot import SnapshotError
from .streams import PRESETS, Stream, StreamParseError, save_csv

OUTDIR_ENV = "DRIFTFIS_OUTDIR"

KS_GRID = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
WS_GRID = (10, 25, 50, 100, 200)
VALIDATION_FRACTION = 0.2
RULE_BUDGET_PER_CLASS = 3


def _outdir() -> str:
    return os.environ.get(OUTDIR_ENV, ".")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config overrides",
                                      "override any config-file key")
    for key in config_keys():
        if key == "out":
            continue  # each command exposes --out with its own meaning
        group.add_argument("--" + key.replace("_", "-"), dest=f"cfg_{key}",
                           metavar="VALUE", default=None)


def _collect_config(args, config_attr: str = "config") -> ExperimentConfig:
    path = getattr(args, config_attr, None)
    values = parse_config_file(path) if path else {}
    for key in config_keys():
        override = getattr(args, f"cfg_{key}", None)
        if override is not None:
            values[key] = override
    return build_experiment_config(values)


def _write_config_file(cfg: ExperimentConfig, path: str) -> None:
    flat = experiment_config_to_dict(cfg)
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(flat):
            fh.write(f"{key}={flat[key]}\n")


def cmd_generate(args) -> int:
    cfg = _collect_config(args)
    if cfg.dataset not in PRESETS:
        raise ConfigError(
            f"generate requires a generator name, one of: {', '.join(sorted(PRESETS))}")
    stream = build_stream(cfg)
    out = args.out or cfg.out or os.path.join(
        _outdir(), f"{cfg.dataset}-seed{cfg.seed}.csv")
    save_csv(stream, out)
    print(f"wrote {len(stream)} samples ({stream.n_features} features, "
          f"{stream.n_classes} classes) to {out}")
    return 0


def cmd_run(args) -> int:
    cfg = _collect_config(args)
    outcome = run_experiment(cfg)
    result = outcome.result
    payload = results_payload(outcome)
    out = args.out or cfg.out or os.path.join(
        _outdir(), f"run-{os.path.basename(cfg.dataset)}-seed{cfg.seed}.json")
    persist_results(payload, out)
    print(f"dataset={cfg.dataset} chunks={len(result.per_chunk_accuracy)} "
          f"mean_accuracy={result.mean_accuracy:.4f} "
          f"std={result.std_accuracy:.4f} rules={result.final_rules} "
          f"drift_events={len(result.drift_events)}")
    print(f"results written to {out}")
    return 0


def _same_stream(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig) -> bool:
    """True when the configs differ at most in their learner and output path."""
    return replace(cfg_a, out=cfg_b.out, learner=cfg_b.learner) == cfg_b


def _compare_row(label: str, preds_a, preds_b, truth,
                 acc_a: float, acc_b: float) -> None:
    outcome = mcnemar(preds_a, preds_b, truth)
    print(f"{label}acc_a={acc_a:.4f} acc_b={acc_b:.4f} "
          f"n01={outcome.n01} n10={outcome.n10} "
          f"K={outcome.k_statistic:.3f} {outcome.symbol()}")


def cmd_compare(args) -> int:
    if args.results_a or args.results_b:
        if not (args.results_a and args.results_b):
            raise ConfigError("--results-a and --results-b must be given together")
        pay_a = load_results(args.results_a)
        pay_b = load_results(args.results_b)
        if pay_a["truths"] != pay_b["truths"]:
            raise ConfigError("results files come from different test streams")
        _compare_row("", pay_a["predictions"], pay_b["predictions"],
                     pay_a["truths"], pay_a["mean_accuracy"], pay_b["mean_accuracy"])
        return 0

    if not (args.config_a and args.config_b):
        raise ConfigError("compare needs --config-a/--config-b "
                          "or --results-a/--results-b")
    cfg_a = _collect_config(args, "config_a")
    cfg_b = _collect_config(args, "config_b")
    if not _same_stream(cfg_a, cfg_b):
        raise ConfigError("compared configs must describe the same stream "
                          "(dataset, shape, seed, drift and chunk settings)")
    if args.sweep_ks:
        try:
            ks_values = [float(tok) for tok in args.sweep_ks.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"--sweep-ks expects comma-separated numbers: "
                              f"{args.sweep_ks!r}") from exc
        if not ks_values:
            raise ConfigError("--sweep-ks list is empty")
    else:
        ks_values = [None]

    stream = build_stream(cfg_a)  # the same for both (_same_stream)
    for ks in ks_values:
        run_a, run_b = cfg_a, cfg_b
        if ks is not None:
            run_a = replace(cfg_a, learner=replace(cfg_a.learner, ks=ks))
            run_b = replace(cfg_b, learner=replace(cfg_b.learner, ks=ks))
        out_a = run_experiment(run_a, stream)
        out_b = run_experiment(run_b, stream)
        label = f"ks={ks:g} " if ks is not None else ""
        _compare_row(label, out_a.result.predictions, out_b.result.predictions,
                     out_a.result.truths,
                     out_a.result.mean_accuracy, out_b.result.mean_accuracy)
    return 0


def _validation_slice(stream: Stream, trs: int, tes: int) -> Stream:
    n_val = int(len(stream) * VALIDATION_FRACTION)
    if n_val < trs + tes:
        raise ConfigError(
            f"validation slice of {n_val} samples cannot fit one "
            f"train+test period ({trs + tes}); shrink trs/tes or grow the stream")
    return Stream(X=stream.X[:n_val], y=stream.y[:n_val], meta=dict(stream.meta),
                  label_names=stream.label_names)


def cmd_tune(args) -> int:
    """Grid-search ks then ws on the leading validation slice of the stream.

    ks is chosen to maximize validation accuracy among candidates whose
    final rule count stays within the budget (3 rules per class); if no
    candidate fits the budget, the smallest rule base wins. ws is then
    tuned for accuracy at the chosen ks.
    """
    cfg = _collect_config(args)
    full = build_stream(cfg)
    trs, tes = resolve_chunk_sizes(cfg)
    stream = _validation_slice(full, trs, tes)
    budget = RULE_BUDGET_PER_CLASS * stream.n_classes

    rows = []
    for ks in KS_GRID:
        trial = replace(cfg, learner=replace(cfg.learner, ks=ks))
        result = run_experiment(trial, stream).result
        acc, rules = result.mean_accuracy, result.final_rules
        rows.append((ks, acc, rules))
        print(f"ks={ks:.2f} accuracy={acc:.4f} rules={rules}"
              + ("" if rules <= budget else f" (over budget {budget})"))
    feasible = [r for r in rows if r[2] <= budget]
    pool = feasible if feasible else sorted(rows, key=lambda r: r[2])[:1]
    best_ks = max(pool, key=lambda r: r[1])[0]

    best_ws = cfg.learner.ws
    best_acc = None
    for ws in WS_GRID:
        trial = replace(cfg, learner=replace(cfg.learner, ks=best_ks, ws=ws))
        result = run_experiment(trial, stream).result
        acc, rules = result.mean_accuracy, result.final_rules
        print(f"ws={ws} accuracy={acc:.4f} rules={rules}")
        if best_acc is None or acc > best_acc:
            best_acc, best_ws = acc, ws

    print(f"selected ks={best_ks:g} ws={best_ws}")
    if args.out:
        tuned = replace(cfg, learner=replace(cfg.learner, ks=best_ks, ws=best_ws))
        _write_config_file(tuned, args.out)
        print(f"tuned config written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftfis",
        description="Streaming fuzzy classifier benchmarks: generate datasets, "
                    "run periodic hold-out experiments, compare and tune.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic stream as CSV")
    p_gen.add_argument("--config", help="KEY=VALUE config file")
    p_gen.add_argument("--out", help="CSV output path")
    _add_config_flags(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run one experiment, write results JSON")
    p_run.add_argument("--config", help="KEY=VALUE config file")
    p_run.add_argument("--out", help="results JSON output path")
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="McNemar comparison of two runs")
    p_cmp.add_argument("--config-a", help="config file for the first run")
    p_cmp.add_argument("--config-b", help="config file for the second run")
    p_cmp.add_argument("--results-a", help="stored results file (first)")
    p_cmp.add_argument("--results-b", help="stored results file (second)")
    p_cmp.add_argument("--sweep-ks", help="comma-separated ks values to sweep")
    _add_config_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_tune = sub.add_parser("tune", help="grid-search ks and ws on a "
                                         "leading validation slice")
    p_tune.add_argument("--config", help="KEY=VALUE config file")
    p_tune.add_argument("--out", help="write the tuned config here")
    _add_config_flags(p_tune)
    p_tune.set_defaults(func=cmd_tune)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StreamParseError, SnapshotError, ResultsFileError,
            NonFiniteInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
