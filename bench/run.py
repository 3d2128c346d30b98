"""driftfis benchmark: closed-loop periodic hold-out, end to end or traced.

Usage, from the repository root:

    python3 bench/run.py --workload sea-paper --seed 1 --seconds 35 --trace 0

One process, one caller, no think time: each pass builds its inputs from
``--seed`` and drives ``evaluation.periodic_holdout`` over the whole
stream. Passes repeat while another one still fits in ``--seconds``; at
least one always runs. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, timings scaled to a reference host speed
(``calibrate.py``) and taken from the best pass. ``--trace 1`` runs the
kernel sweep, then alternates untraced and traced passes and reports the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".bench_state"   # save/load round-trip files
DIGESTS = BENCH_DIR / "digests.json"


def import_package():
    if not (SRC / "driftfis" / "__init__.py").is_file():
        sys.exit(f"bench: no driftfis package under {SRC}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import driftfis
    if Path(driftfis.__file__).resolve().parent != SRC / "driftfis":
        sys.exit(f"bench: imported driftfis from {driftfis.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    import_package()

    from measure import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    report = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), DIGESTS, STATE_DIR,
                     spec["per_layer" if args.trace else "end_to_end"])
    for name, metric in report["metrics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"meta": report["meta"]}, sort_keys=True))
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
