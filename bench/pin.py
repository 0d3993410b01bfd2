"""Pin per-round digests of exit codes and stdout bytes into pins.json.

    python3 bench/pin.py [--workload W ...]

Runs the operations of every seed in run.PINNED_SEEDS untimed, at the round
count that BENCHMARK.json's run_seconds gives, refuses to pin an op that
fails its reference check, and replaces the digests of the named workloads
(all by default) in pins.json.  A run of run.py at that length then counts
every op of a round whose digest changed as failed.  Re-pin only when the
workloads or the intended CLI output change, and say so in the change that
does it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()

    cli = run.load_cli()
    pins = {}
    if os.path.exists(run.PINS):
        with open(run.PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    for workload in args.workload or sorted(workloads.WORKLOADS):
        count = run.pinned_rounds(workload)
        pins[workload] = {}
        for seed in run.PINNED_SEEDS:
            rounds, _ = workloads.generate(workload, seed, count)
            digests = []
            for ops in rounds:
                results = [run.run_op(cli, op.argv) for op in ops]
                for op, r in zip(ops, results):
                    why = run.failure(op, r)
                    if why:
                        sys.stderr.write(f"not pinning {workload} seed {seed}: "
                                         f"{' '.join(op.argv)}: {why}\n")
                        return 1
                digests.append(run.round_digest(results))
            pins[workload][str(seed)] = digests
            print(f"pinned {workload} seed {seed}: {len(digests)} rounds", flush=True)
    with open(run.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
