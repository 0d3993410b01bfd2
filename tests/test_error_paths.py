"""Each documented bad input raises its own exception and message, through
the library and, for domain sizes, through the CLI's exit code 2."""

import math
import re
from fractions import Fraction

import pytest

from echcap import (EUCLIDEAN, Ball, CapacitySequence, CapacityValue,
                    DisjointUnion, Domain, Ellipsoid, LatticePolygon, Polydisk,
                    ToricNorm, WeightedL1, ball_capacities, capacities, describe,
                    disjoint_union_capacities, dominates, ellipsoid_capacities,
                    ellipsoid_full_capacities, enumerate_polygons,
                    maxplus_convolve, min_action_at_grading, nk_sequence,
                    nk_via_triangle, polydisk_capacities, qw_check, scale,
                    toric_capacity, volume, volume_ratio_trace)
from echcap.cli import main
from echcap.obstructions import (biran_sufficiency, embedding_obstruction,
                                 f_lower_bound, g_d, g_lower_bound, lambda_d_path,
                                 packing_obstructions)

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
    "union of none": (lambda: disjoint_union_capacities([], 3), ValueError,
                      "need at least one sequence"),
    "union past its input": (lambda: disjoint_union_capacities([ball_capacities(1, 2)], 5),
                             ValueError, "input defined only up to k=2 < 5"),
    "empty polygon": (lambda: LatticePolygon.from_vertices([]), ValueError,
                      "a polygon needs at least one vertex"),
    "degenerate segment": (lambda: LatticePolygon.from_vertices([(0, 0), (0, 0)]),
                           ValueError, "segment endpoints must be distinct"),
    "f bound a < 1": (lambda: f_lower_bound(Fraction(1, 2), 3), ValueError,
                      "aspect ratio a must be >= 1"),
    "approx negative": (lambda: CapacityValue.approx(-1.0, 0.0), ValueError,
                        "approximate value must be finite and >= 0, got -1.0"),
    "approx infinite error": (lambda: CapacityValue.approx(1.0, math.inf), ValueError,
                              "error bound must be finite and >= 0, got inf"),
    "sqrt negative": (lambda: CapacityValue.sqrt_rational(-1), ValueError,
                      "cannot take sqrt of negative rational -1"),
    "sqrt as fraction": (lambda: CapacityValue.sqrt_rational(2).as_fraction(), ValueError,
                         "CapacityValue(~1.4142135623730951 +/- 4.44e-16) "
                         "is not an exact rational"),
    "scaled negative": (lambda: CapacityValue.exact(1).scaled(-1), ValueError,
                        "scale factor must be >= 0"),
    "sequence origin 2": (lambda: CapacitySequence(2, [CapacityValue.exact(0)]),
                          ValueError, "index_origin must be 0 or 1, got 2"),
    "empty sequence": (lambda: CapacitySequence(0, []), ValueError,
                       "capacity sequence needs at least one entry"),
}
for name, call in [("capacities", lambda d: capacities(d, 3)), ("volume", volume),
                   ("describe", describe), ("scale", lambda d: scale(d, 2))]:
    BAD_CALLS[f"{name} of a bare Domain"] = (lambda call=call: call(Domain()), TypeError,
                                            "unsupported domain Domain()")
for budget in (math.inf, math.nan, CapacityValue.infinite()):
    BAD_CALLS[f"enumerate budget {budget!r}"] = (
        lambda b=budget: enumerate_polygons(1, EUCLIDEAN, b), ValueError,
        "length budget must be finite")
    BAD_CALLS[f"grading budget {budget!r}"] = (
        lambda b=budget: min_action_at_grading(WeightedL1(1, 1), 2, budget=b), ValueError,
        "length budget must be finite")


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


@pytest.mark.parametrize("argv, message", [
    (["pack", "0,1/2", "--dmax", "2"], "need a nonempty list of positive sizes"),
    (["pack", "1/2,1/3", "--dmax", "0"], "dmax must be >= 1"),
])
def test_cli_pack_rejects_bad_sizes_and_dmax(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


COUNTED_CALLS = {
    "capacities ball": lambda n: capacities(Ball(1), n),
    "capacities toric": lambda n: capacities(ToricNorm(EUCLIDEAN), n),
    "union": lambda n: disjoint_union_capacities(
        [ball_capacities(1, 3), ball_capacities(2, 3)], n),
    "ball": lambda n: ball_capacities(1, n),
    "ellipsoid": lambda n: ellipsoid_capacities(1, 2, n),
    "ellipsoid full": lambda n: ellipsoid_full_capacities(1, 2, n),
    "polydisk": lambda n: polydisk_capacities(1, 2, n),
    "nk": lambda n: nk_sequence(1, 2, n),
    "nk_via_triangle m": lambda n: nk_via_triangle(1, 2, n, 1),
    "nk_via_triangle n": lambda n: nk_via_triangle(1, 2, 1, n),
    "maxplus": lambda n: maxplus_convolve(list(ball_capacities(1, 3)),
                                          list(ball_capacities(2, 3)), n),
    "qw": lambda n: qw_check(Ball(1), n),
    "embed": lambda n: embedding_obstruction(Ball(1), Ball(2), n),
    "trace kmax": lambda n: volume_ratio_trace(Ball(1), n),
    "trace stride": lambda n: volume_ratio_trace(Ball(1), 4, stride=n),
    "f bound": lambda n: f_lower_bound(2, n),
    "g bound": lambda n: g_lower_bound(2, n),
    "g_d": lambda n: g_d(Fraction(7, 2), n),
    "lambda_d path": lambda n: lambda_d_path(n),
    "packing": lambda n: packing_obstructions([Fraction(1, 2)], n),
    "biran": lambda n: biran_sufficiency([Fraction(1, 2)], n),
}


@pytest.mark.parametrize("name", COUNTED_CALLS)
def test_counts_take_integral_floats_and_fractions_only(name):
    call = COUNTED_CALLS[name]
    assert call(2.0) == call(Fraction(2)) == call(2)
    for bad in (2.5, Fraction(5, 2), math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="must be integers"):
            call(bad)
    with pytest.raises(ValueError) as info:
        call(-1)
    assert re.fullmatch(r"\w+ must be >= [01]", str(info.value))
