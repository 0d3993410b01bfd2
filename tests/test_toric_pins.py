"""Pinned outputs of the toric entry points and of capacity sequences.

toric_pins.json holds value reprs and witness vertices of toric_capacity,
the reprs of min_action_at_grading and capacities(), and the length and
sha256 of enumerate_polygons lists, as computed by an earlier version of the
search.  The all-exact oracle in test_toric.py shares the chain enumeration
and the length arithmetic with the code under test; this file shares
nothing with it, so it also pins the witnesses those share.  Its "sequences"
key holds the sha256 of `echcap capacities` csv output for closed forms and
unions over prime denominators, as computed when a sequence still held one
CapacityValue reference per entry instead of ints over a denominator.  Its
"commands" key holds the exit code and the sha256 of the stdout of
`capacities --format json` and `--full`, `embed` in both modes, `qw` and
`asym` in csv and json, as computed when those commands still read every
entry of a sequence as a CapacityValue instead of its ints.  Its "polydisk"
key holds the same for `capacities`, `asym` and `qw` of polydisks and of
unions with a polydisk part, as computed when the polydisk kernel still
filled a table of the cheapest value per product (m+1)(n+1).  Its
"polygonal" key holds the entry points of three four-vertex norms at
k = 0..14, as computed when the pairing stage still rewrapped every chain
table entry and picked a bucket's winner by two code paths.  Its "bounds"
key holds the exit code and stdout sha256 of `fbound` and `gbound` in text
and json, as computed when g_d still minimized over its own staircase
instead of reading the polydisk kernel.

Regenerate (only when an output is meant to change, and say why) with

    PYTHONPATH=src python tests/test_toric_pins.py
"""

import hashlib
import io
import json
import pathlib
from contextlib import redirect_stdout
from fractions import Fraction

from echcap import (EUCLIDEAN, Polygonal, ToricNorm, WeightedL1, capacities,
                    enumerate_polygons, min_action_at_grading, toric_capacity)
from echcap.cli import main

FIXTURE = pathlib.Path(__file__).with_name("toric_pins.json")

NORMS = {
    "euclidean": (EUCLIDEAN, 12),
    "l1:7/3,2": (WeightedL1(Fraction(7, 3), 2), 12),
    "hexagon": (Polygonal(((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))), 10),
}
BUDGETS = {"4.9": 4.9, "6": 6}

# a diagonal unit ball, for which the search's budget was once lowered by
# segments along its vertex directions, a skewed one, and the last
# toric(poly:...) norm of bench/workloads.py
POLYGONAL_NORMS = {
    "diagonal": Polygonal(((3, 3), (-1, 1), (-3, -3), (1, -1))),
    "skew": Polygonal(((2, 1), (-1, 1), (-2, -1), (1, -1))),
    "bench-poly2": Polygonal(((3, 1), (-1, 2), (-3, -1), (1, -2))),
}
POLYGONAL_KMAX = 14

# arguments of `echcap capacities`, csv output
SEQUENCES = [
    "ball(89/97) --kmax 10000",
    "ellipsoid(101/89,97/83) --kmax 10000",
    "ellipsoid(7/3,5/11) --kmax 10000 --full",
    "ball(13/7) --kmax 3000 --full",
    "polydisk(89/97,101/103) --kmax 10000",
    "union(ball(89/97);ellipsoid(101/89,97/83)) --kmax 4000",
    "union(ball(3/7);polydisk(13/11,5/17);ball(19/23)) --kmax 3000",
    "union(toric(l1:7/3,2);ball(11/13)) --kmax 20",
    "union(toric(l1:5/3,7/2);ball(11/13);polydisk(2,17/19)) --kmax 20",
    "union(toric(euclidean);ball(3/2)) --kmax 16",
    "union(toric(euclidean);polydisk(13/11,2);ellipsoid(7/3,5/11)) --kmax 14",
]

# full argv of CLI calls whose outputs read a sequence's ints
COMMANDS = [
    "capacities ball(89/97) --kmax 3000 --format json",
    "capacities ellipsoid(101/89,97/83) --kmax 3000 --format json",
    "capacities polydisk(89/97,101/103) --kmax 2000 --format json",
    "capacities union(ball(89/97);ellipsoid(101/89,97/83)) --kmax 1500 --format json",
    "capacities union(toric(l1:7/3,2);ball(11/13)) --kmax 20 --format json",
    "capacities union(toric(euclidean);ball(3/2)) --kmax 16 --format json",
    "capacities ellipsoid(7/3,5/11) --kmax 3000 --full --format json",
    "capacities ball(13/7) --kmax 2000 --full --format json",
    "capacities ellipsoid(101/89,97/83) --kmax 2000 --full",
    "embed ellipsoid(101/89,97/83) ellipsoid(7/5,9/7) --kmax 2000",
    "embed ellipsoid(101/89,97/83) ellipsoid(7/5,9/7) --kmax 2000 --mode strict",
    "embed ball(89/97) ellipsoid(89/97,101/89) --kmax 1500",
    "embed ball(89/97) ellipsoid(89/97,101/89) --kmax 1500 --mode strict",
    "embed ellipsoid(1,97/13) ball(273/100) --kmax 1500",
    "embed ellipsoid(1,97/13) ball(273/100) --kmax 1500 --mode strict",
    "embed polydisk(89/97,101/103) ball(97/53) --kmax 1500 --mode strict",
    "embed union(ball(3/7);ball(5/11)) ball(13/17) --kmax 800",
    "embed union(ball(3/7);ball(5/11)) ball(31/29) --kmax 800 --mode strict",
    "embed ball(1/2) union(ball(3/7);polydisk(13/11,5/17)) --kmax 800",
    "embed ball(2/5) union(ball(3/7);polydisk(13/11,5/17)) --kmax 800 --mode strict",
    "embed union(toric(euclidean);ball(3/2)) ball(3) --kmax 12",
    "qw ball(89/97) --kmax 3000",
    "qw ellipsoid(101/89,97/83) --kmax 3000",
    "qw polydisk(89/97,101/103) --kmax 1000",
    "qw union(ball(3/7);polydisk(13/11,5/17);ball(19/23)) --kmax 500",
    "qw union(ball(89/97);ellipsoid(101/89,97/83)) --kmax 800",
    "qw toric(euclidean) --kmax 10",
    "asym ball(89/97) --kmax 2000 --stride 7",
    "asym ball(89/97) --kmax 2000 --stride 7 --format json",
    "asym ellipsoid(101/89,97/83) --kmax 3000",
    "asym ellipsoid(101/89,97/83) --kmax 3000 --stride 50 --format json",
    "asym union(ball(3/7);ellipsoid(7/3,5/11)) --kmax 600 --stride 3",
    "asym union(ball(3/7);ellipsoid(7/3,5/11)) --kmax 600 --stride 3 --format json",
    "asym toric(euclidean) --kmax 12 --format json",
]

# full argv of CLI calls that run the polydisk kernel: prime denominators,
# a thin pair, equal sizes, the smallest kmax, unions with a polydisk part
POLYDISK_COMMANDS = [
    f"capacities {spec} --kmax {kmax} --format {fmt}"
    for spec in ("polydisk(97/89,101/103)", "polydisk(1/9,7)", "polydisk(13/7,13/7)")
    for kmax in (0, 1, 2, 900) for fmt in ("csv", "json")
] + [
    "capacities union(polydisk(97/89,101/103);ellipsoid(7/3,5/11)) --kmax 900",
    "capacities union(polydisk(97/89,101/103);ellipsoid(7/3,5/11)) --kmax 900 --format json",
    "capacities union(ball(3/7);polydisk(1/9,7);polydisk(13/7,13/7)) --kmax 600",
    "capacities union(ball(3/7);polydisk(1/9,7);polydisk(13/7,13/7)) --kmax 600 --format json",
    "asym union(ellipsoid(38/43,56/71);polydisk(1/2,3/4)) --kmax 577 --stride 38",
    "asym union(ellipsoid(38/43,56/71);polydisk(1/2,3/4)) --kmax 577 --stride 38 --format json",
    "asym polydisk(1/9,7) --kmax 900 --stride 11",
    "qw polydisk(97/89,101/103) --kmax 900",
    "qw polydisk(1/9,7) --kmax 900",
    "qw polydisk(13/7,13/7) --kmax 900",
    "qw union(polydisk(97/89,101/103);ellipsoid(7/3,5/11)) --kmax 600",
    "embed polydisk(1/9,7) ball(97/89) --kmax 900",
    "embed ball(1/2) polydisk(13/7,13/7) --kmax 900 --mode strict",
]

# full argv of the obstruction-bound commands: the polydisk and ellipsoid
# kernels read at (d^2+3d)/2 and (d^2+3d+2)/2 for every d <= dmax
BOUND_COMMANDS = [
    f"{command} {a} --dmax {dmax} --format {fmt}"
    for command in ("fbound", "gbound") for a in ("7/2", "37/11", "97/89", "4181/610")
    for dmax in (1, 2, 6, 24, 60) for fmt in ("text", "json")
]


def entry_points(norm, kmax):
    return {
        "capacities": [repr(v) for v in capacities(ToricNorm(norm), kmax)],
        "toric_capacity": [
            [repr(result.value), [list(v) for v in result.witness.vertices]]
            for result in (toric_capacity(norm, k) for k in range(kmax + 1))],
        "min_action_at_grading": [repr(min_action_at_grading(norm, 2 * k))
                                  for k in range(kmax + 1)],
    }


def polygon_lists(norm):
    out = {}
    for label, budget in BUDGETS.items():
        for target in range(1, 7):
            polys = enumerate_polygons(target, norm, budget)
            text = repr([p.vertices for p in polys]).encode()
            out[f"target {target}, budget {label}"] = [
                len(polys), hashlib.sha256(text).hexdigest()]
    return out


def polygonal_pins():
    return {name: entry_points(norm, POLYGONAL_KMAX)
            for name, norm in POLYGONAL_NORMS.items()}


def sequence_digests():
    out = {}
    for args in SEQUENCES:
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert main(["capacities", *args.split()]) == 0, args
        out[args] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return out


def command_digests(commands=COMMANDS):
    out = {}
    for argv in commands:
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = main(argv.split())
        out[argv] = [code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()]
    return out


def pins():
    return {name: {**entry_points(norm, kmax), "enumerate_polygons": polygon_lists(norm)}
            for name, (norm, kmax) in NORMS.items()}


def test_toric_entry_points_match_pins():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = pins()
    for name in NORMS:
        for key, value in expected[name].items():
            assert got[name][key] == value, (name, key)
    assert got.keys() == expected.keys() - {"sequences", "commands", "polydisk",
                                            "polygonal", "bounds"}


def test_polygonal_entry_points_match_pins():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))["polygonal"]
    got = polygonal_pins()
    for name, records in expected.items():
        for key, value in records.items():
            assert got[name][key] == value, (name, key)
    assert got.keys() == expected.keys()


def test_sequences_match_pins():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))["sequences"]
    got = sequence_digests()
    for args, digest in expected.items():
        assert got[args] == digest, args
    assert got.keys() == expected.keys()


def test_commands_match_pins():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))["commands"]
    got = command_digests()
    for argv, pin in expected.items():
        assert got[argv] == pin, argv
    assert got.keys() == expected.keys()


def test_polydisk_commands_match_pins():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))["polydisk"]
    got = command_digests(POLYDISK_COMMANDS)
    for argv, pin in expected.items():
        assert got[argv] == pin, argv
    assert got.keys() == expected.keys()


def test_bound_commands_match_pins():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))["bounds"]
    got = command_digests(BOUND_COMMANDS)
    for argv, pin in expected.items():
        assert got[argv] == pin, argv
    assert got.keys() == expected.keys()


if __name__ == "__main__":
    # one line per entry point and norm, or per sequence, so a diff shows
    # which one moved
    FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {{\n" + ",\n".join(
            f" {json.dumps(key)}: {json.dumps(value)}" for key, value in records.items())
        + "\n}" for name, records in {**pins(), "sequences": sequence_digests(),
                              "commands": command_digests(),
                              "polydisk": command_digests(POLYDISK_COMMANDS),
                              "polygonal": polygonal_pins(),
                              "bounds": command_digests(BOUND_COMMANDS)}.items())
        + "\n}\n", encoding="utf-8")
