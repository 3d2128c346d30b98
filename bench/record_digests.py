"""Record the outputs the correctness gate compares every run against.

    python3 bench/record_digests.py --workload sea-paper --seeds 0-29

Holds out each stream the given benchmark seeds stand for, untimed, and
writes its prediction digest and final state hash into ``digests.json``
next to this file. A speed-up must leave these unchanged; re-record only
after a change meant to alter the model's outputs, and say so in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="benchmark seeds, as FIRST-LAST")
    args = parser.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    run.import_package()

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    records = {}
    for seed in range(first, last + 1):
        for stream_seed in harness.stream_seeds(seed):
            part = harness._holdout(workload, stream_seed, lambda phase: None,
                                    track_speed=False)
            if part["failed"]:
                sys.exit(f"stream {stream_seed} failed its hold-out; not recorded")
            records[str(stream_seed)] = part["outputs"]
            print(stream_seed, part["outputs"]["state"][:16], flush=True)

    # read late and replace atomically: other workloads may be recorded
    # concurrently into the same file
    path = run.DIGESTS
    entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    entries.setdefault(workload.name, {}).update(records)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
