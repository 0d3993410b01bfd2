"""The benchmark's pinned outputs, replayed: every round of seed 0 of each
workload of bench/workloads.py runs through echcap.cli.main as bench/run.py
runs it, and must pass the reference checks and match its digest in
bench/pins.json byte for byte.  A change to any CLI output then fails here
before a benchmark run reports it.  Nothing is written under bench/."""

import importlib
import json
import pathlib
import sys

import pytest

import echcap.cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("workload", ["sequences", "toric", "queries"])
def test_seed_zero_rounds_replay_their_pins(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    run, workloads = importlib.import_module("run"), importlib.import_module("workloads")
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))[workload]["0"]
    rounds, _ = workloads.generate(workload, 0, run.pinned_rounds(workload))
    assert len(rounds) == len(pins)
    for number, (ops, pin) in enumerate(zip(rounds, pins)):
        results = [run.run_op(echcap.cli, op.argv) for op in ops]
        failures = [(op.argv, why) for op, r in zip(ops, results)
                    if (why := run.failure(op, r))]
        assert not failures, (number, failures)
        assert run.round_digest(results) == pin, number
