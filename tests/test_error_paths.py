"""Each documented bad input raises its own exception and message, through
the library and, for domain sizes, through the CLI's exit code 2."""

from fractions import Fraction

import pytest

from echcap import (EUCLIDEAN, Ball, DisjointUnion, Ellipsoid, Polydisk,
                    ToricNorm, WeightedL1, ball_capacities, dominates,
                    enumerate_polygons, scale, toric_capacity,
                    volume_ratio_trace)
from echcap.cli import main

BAD_CALLS = {
    "ellipsoid size": (lambda: Ellipsoid(1, 0), ValueError,
                       "ellipsoid sizes must be positive"),
    "ball size": (lambda: Ball(0), ValueError, "ball size must be positive"),
    "polydisk size": (lambda: Polydisk(0, 1), ValueError,
                      "polydisk sizes must be positive"),
    "l1 weight": (lambda: WeightedL1(0, 1), ValueError,
                  "weighted L1 norm needs positive weights"),
    "toric non-norm": (lambda: ToricNorm("euclidean"), TypeError,
                       "ToricNorm expects a Norm instance"),
    "empty union": (lambda: DisjointUnion([]), ValueError,
                    "a disjoint union needs at least one part"),
    "union of a non-domain": (lambda: DisjointUnion([Ball(1), 1]), TypeError,
                              "disjoint union parts must be domains"),
    "scale by 0": (lambda: scale(Ball(1), 0), ValueError,
                   "scale factor must be positive"),
    "trace stride 0": (lambda: volume_ratio_trace(Ball(1), 5, stride=0),
                       ValueError, "stride must be >= 1"),
    "toric k -1": (lambda: toric_capacity(EUCLIDEAN, -1), ValueError,
                   "k must be >= 0"),
    "enumerate count 0": (lambda: enumerate_polygons(0, EUCLIDEAN, 4),
                          ValueError, "target_count must be >= 1"),
    "dominates mode": (lambda: dominates(ball_capacities(1, 3),
                                         ball_capacities(Fraction(3, 2), 3),
                                         mode="x"),
                       ValueError, "unknown mode 'x'"),
}


@pytest.mark.parametrize("name", BAD_CALLS)
def test_bad_input_raises_its_message(name):
    call, kind, message = BAD_CALLS[name]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == message


@pytest.mark.parametrize("spec, message", [
    ("ball(0)", "ball size must be positive"),
    ("ellipsoid(1,0)", "ellipsoid sizes must be positive"),
    ("polydisk(0,1)", "polydisk sizes must be positive"),
    ("toric(l1:0,1)", "weighted L1 norm needs positive weights"),
])
def test_cli_rejects_nonpositive_sizes(spec, message, capsys):
    assert main(["capacities", spec, "--kmax", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
