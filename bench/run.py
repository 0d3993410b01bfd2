"""End-to-end and per-layer benchmark of the echcap CLI.

    python3 bench/run.py --workload sequences|toric|queries --seed N \
        --seconds S --trace 0|1

Each operation is one `echcap.cli.main(argv)` call made in this process with
stdout captured: a closed loop with one client, one process and no threads.
`--seconds` fixes how many rounds of operations the seed generates (as many
as take that long on the seed commit, see workloads.ROUND_SECONDS), so every
commit runs the same operations.  Exit codes and stdout are checked after
the loop, against the reference code in reference.py and against the
digests pinned in pins.json.

--trace 0 runs the whole list of operations workloads.REPEATS times over and
reports the end-to-end metrics from each operation's fastest call, its wall
time scaled to the reference host speed of speed.py.  --trace 1 runs the
first round to warm up, each op of the first quarter of the rounds untraced
and traced back to back (for the tracing overhead), then every round once
with tracer.Tracer installed, and reports per-layer self times and counts.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  Per-op records and spans are written under
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import reference
import speed
import workloads
from tracer import LAYERS, SPANS, VALUE_COUNTS, Tracer
from workloads import Op

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
PINS = os.path.join(BENCH, "pins.json")
PINNED_SEEDS = range(0, 11)

SETUP_SAMPLES = 20      # fresh processes timed for setup_s
GUARD_SAMPLES = 3       # toric ops re-run for the cold-state guard
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> Dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SPANS}
    units.update({f"{name}.calls": "count"
                  for name in ("cli.format", "capacities.kernel", "lattice.toric")})
    units.update({f"{name}.calls": "count" for name in VALUE_COUNTS})
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units.update({"trace.overhead_ratio": "ratio", "trace.total_s": "s"})
    return units


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

def load_cli():
    """Import echcap.cli from this checkout's sources, or exit 1."""
    if not os.path.isfile(os.path.join(SRC, "echcap", "cli.py")):
        sys.stderr.write(f"error: echcap sources not found under {SRC}\n")
        sys.exit(1)
    sys.path.insert(0, SRC)
    import echcap.cli
    if not os.path.abspath(echcap.cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: imported echcap from {echcap.cli.__file__}\n")
        sys.exit(1)
    return echcap.cli


class Result:
    __slots__ = ("code", "stdout", "seconds", "raised")

    def __init__(self, code, stdout, seconds, raised):
        self.code, self.stdout, self.seconds, self.raised = code, stdout, seconds, raised


def run_op(cli, argv: List[str]) -> Result:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        raised = None
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:    # a raising op is a failed op, not a crash
            code, raised = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return Result(code, out.getvalue(), seconds, raised)


def round_digest(results: List[Result]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.code}\n".encode())
        h.update(r.stdout.encode())
        h.update(b"\0")
    return h.hexdigest()[:12]


def failure(op: Op, r: Result) -> Optional[str]:
    if r.raised is not None:
        return f"raised {r.raised}"
    return reference.check(op, r.code, r.stdout)


# ---------------------------------------------------------------------------
# fresh-process probes
# ---------------------------------------------------------------------------

def child(*args: str) -> str:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return proc.stdout.strip().splitlines()[-1]


def import_sample(meter: speed.Meter) -> Tuple[float, float]:
    """When a fresh process was started, and its seconds to import echcap.cli."""
    meter.tick()
    return perf_counter(), float(child("import"))


def touches_toric(op: Op) -> bool:
    doms = [op.params[key] for key in ("dom", "inner", "outer") if key in op.params]
    return any(workloads.has_toric(d) for d in doms)


def cold_state_guard(cli, ops: List[Op], seed: int) -> Dict[int, str]:
    """Toric ops must count the same CapacityValue calls in a fresh process
    and when re-run here after the whole loop; otherwise an earlier op left
    state behind that a real CLI user, who gets a fresh process, never has."""
    toric = [i for i, op in enumerate(ops) if touches_toric(op)]
    picked = random.Random(f"guard:{seed}").sample(toric, min(GUARD_SAMPLES, len(toric)))
    bad = {}
    for i in picked:
        try:
            cold = json.loads(child("count", json.dumps(ops[i].argv)))
        except subprocess.CalledProcessError as exc:
            bad[i] = f"fresh-process run failed: {exc.stderr.strip()[-200:]}"
            continue
        for _ in range(2):
            with Tracer(spans=False) as t:
                run_op(cli, ops[i].argv)
            if t.value_counts() != cold:
                bad[i] = f"value counts {t.value_counts()} differ from a fresh process {cold}"
    return bad


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def op_log_params(op: Op) -> Dict[str, object]:
    out = {}
    for key, value in op.params.items():
        if key in ("dom", "inner", "outer"):
            out[key] = workloads.spec(value)
            out[key + "_den"] = workloads.max_den(value)
        elif key == "sizes":
            out["sizes"] = [workloads.rat(s) for s in value]
            out["den"] = max(s.denominator for s in value)
        elif key == "a":
            out["a"] = workloads.rat(value)
            out["den"] = value.denominator
        else:
            out[key] = value
    return out


def write_op_log(path: str, rounds: List[List[Op]], results: List[Result],
                 times: List[float], reasons: Dict[int, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        i = 0
        for rnd, ops in enumerate(rounds):
            for op in ops:
                r = results[i]
                fh.write(json.dumps({
                    "i": i, "round": rnd, "kind": op.kind, "argv": op.argv,
                    "params": op_log_params(op), "seconds": times[i],
                    "exit": r.code, "failure": reasons.get(i)}) + "\n")
                i += 1


def print_kinds(ops: List[Op], times: List[float]) -> None:
    by_kind: Dict[str, List[float]] = {}
    for op, seconds in zip(ops, times):
        by_kind.setdefault(":".join(op.kind.split(":")[:2]), []).append(seconds)
    print(f"{'kind':34} {'ops':>5} {'p50_ms':>9} {'total_s':>8}")
    for kind, secs in sorted(by_kind.items(), key=lambda kv: -sum(kv[1])):
        print(f"{kind:34} {len(secs):5d} {statistics.median(secs) * 1e3:9.2f} "
              f"{sum(secs):8.3f}")


def verify(rounds: List[List[Op]], results: List[Result], pins: List[str]) -> Dict[int, str]:
    reasons = {}
    i = 0
    for rnd, ops in enumerate(rounds):
        chunk = results[i:i + len(ops)]
        for j, (op, r) in enumerate(zip(ops, chunk)):
            why = failure(op, r)
            if why:
                reasons[i + j] = why
        if rnd < len(pins) and round_digest(chunk) != pins[rnd]:
            # a changed byte in any op fails the whole round: the pin is per round
            for j in range(len(ops)):
                reasons.setdefault(i + j, "output differs from the pinned digest")
        i += len(ops)
    return reasons


def pinned_rounds(workload: str) -> int:
    """Rounds of a run at BENCHMARK.json's run_seconds, the length pinned."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return workloads.rounds_for(workload, json.load(fh)["run_seconds"])


def load_pins(workload: str, seed: int, rounds: int) -> List[str]:
    """Pinned round digests; none when this seed or run length is not pinned.
    Exits when pins.json should cover the run and does not."""
    if seed not in PINNED_SEEDS or rounds != pinned_rounds(workload):
        return []
    with open(PINS, encoding="utf-8") as fh:
        digests = json.load(fh).get(workload, {}).get(str(seed), [])
    if len(digests) != rounds:
        sys.stderr.write(f"error: pins.json has {len(digests)} of {rounds} round "
                         f"digests for {workload} seed {seed}; re-pin with bench/pin.py\n")
        sys.exit(1)
    return digests


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    rounds, repeats = workloads.generate(args.workload, args.seed,
                                         workloads.rounds_for(args.workload, args.seconds))
    ops = [op for rnd in rounds for op in rnd]
    pins = load_pins(args.workload, args.seed, len(rounds))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    metrics: Dict[str, float] = {}
    if args.trace == 0:
        # Besides drifting (see speed.py), the host slows single calls by a
        # quarter or more for a second or so at a time.  So the op list runs
        # REPEATS times over, each op's calls a pass apart, and an op's time
        # is its fastest call, scaled to the reference host speed.  The set-up
        # samples are spread evenly over the passes and scaled the same way.
        calls = len(ops) * workloads.REPEATS
        every = math.ceil(calls / SETUP_SAMPLES)
        meter = speed.Meter()
        imports: List[Tuple[float, float]] = []
        tries: List[List[Tuple[float, Result]]] = [[] for _ in ops]
        gc.collect()
        for n in range(calls):
            if n % every == 0:
                imports.append(import_sample(meter))
            meter.tick()
            tries[n % len(ops)].append((perf_counter(), run_op(cli, ops[n % len(ops)].argv)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(imports) < SETUP_SAMPLES:
            imports.append(import_sample(meter))
        results = [rs[0][1] for rs in tries]
        times = [min(r.seconds * meter.scale(t) for t, r in rs) for rs in tries]
        done = sum(1 for r in results if r.raised is None)
        metrics = {
            "latency_p50_s": statistics.median(times),
            "latency_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
            "ops_per_s": done / sum(times),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(s * meter.scale(t) for t, s in imports),
        }
        wall = [min(r.seconds for _, r in rs) for rs in tries]
        print(f"unscaled: latency_p50_s {statistics.median(wall):.6g}  "
              f"ops_per_s {done / sum(wall):.6g}  "
              f"setup_s {statistics.median(s for _, s in imports):.6g}  "
              f"host speed {statistics.median(meter.took) / speed.REFERENCE_S:.3f} "
              f"x reference probe time")
        units = END_TO_END
    else:
        quarter = sum(len(r) for r in rounds[:math.ceil(len(rounds) / 4)])
        for op in rounds[0]:
            run_op(cli, op.argv)          # warm-up
        # each op of the first quarter runs untraced and then traced, back to
        # back, so a change in machine speed cannot pass for tracing overhead
        gc.collect()
        untraced = traced = 0.0
        for op in ops[:quarter]:
            untraced += run_op(cli, op.argv).seconds
            with Tracer():
                traced += run_op(cli, op.argv).seconds
        gc.collect()
        results = []
        with Tracer() as tracer:
            for i, op in enumerate(ops):
                tracer.op_index = i
                results.append(run_op(cli, op.argv))
        tracer.write_spans(stem + "-spans.tsv.gz")
        times = [r.seconds for r in results]
        units = per_layer_units()
        for name in units:
            if name.endswith(".self_s"):
                metrics[name] = tracer.self_s[name[:-len(".self_s")]]
            elif name.endswith(".calls"):
                metrics[name] = tracer.calls[name[:-len(".calls")]]
            elif name.endswith(".errors"):
                metrics[name] = tracer.errors[name[:-len(".errors")]]
        metrics["trace.overhead_ratio"] = traced / untraced
        metrics["trace.total_s"] = sum(times)

    reasons = verify(rounds, results, pins)
    if args.trace == 0:
        # an op whose output differs between its calls depends on state that
        # an earlier call left behind
        reasons.update((i, "output differs between repeated calls")
                       for i, rs in enumerate(tries) if i not in reasons
                       and len({(r.code, r.stdout, r.raised) for _, r in rs}) > 1)
    reasons.update((i, why) for i, why in cold_state_guard(cli, ops, args.seed).items()
                   if i not in reasons)
    write_op_log(stem + "-ops.jsonl", rounds, results, times, reasons)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"ops {len(ops)}  repeated argv {repeats}  python {sys.version.split()[0]}  "
          f"nproc {os.cpu_count()}")
    print_kinds(ops, times)
    for i, why in sorted(reasons.items())[:10]:
        print(f"FAILED op {i} {' '.join(ops[i].argv)}: {why}")
    print(f"pinned rounds {len(pins)} of {len(rounds)}")
    print(f"fail_rate {len(reasons) / len(ops):.6f} ratio (ops {len(ops)})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]} (ops {len(ops)})")
    print(json.dumps({
        "correct": not reasons,
        "attempted": len(ops),
        "failed": len(reasons),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
