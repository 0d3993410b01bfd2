import importlib
import math
import pickle
from fractions import Fraction

import pytest

from echcap import (EUCLIDEAN, CapacityValue, LabeledGenerator, LatticePolygon,
                    NotPrimitive, Polygonal, ToricEnumerationBudgetExceeded,
                    ToricNorm, WeightedL1, capacities, enumerate_polygons,
                    generator_action, generator_grading,
                    min_action_at_grading, perimeter, polydisk_capacities,
                    reeb_orbit_data, toric_capacity)

F = Fraction
lattice = importlib.import_module("echcap.lattice")

HEXAGON = Polygonal(((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)))
# the toric(poly:...) norms of bench/workloads.py
BENCH_POLYGONS = [Polygonal(v) for v in (
    ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
    ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)),
    ((3, 1), (-1, 2), (-3, -1), (1, -2)),
)]


# -- oracle: every pair gets an exact length and a _prefer ----------------------

class PerPickLengths:
    """Exact chain lengths as one CapacityValue sum per edge direction."""

    def __init__(self, norm):
        self.norm = norm

    def chain_length(self, chain):
        if chain._exact is None:
            total = CapacityValue.exact(0)
            for px, py, c in chain.picks:
                total = total + self.norm.length((px, py)).scaled(c)
            chain._exact = total
        return chain._exact


def bucket_minima_oracle(norm, budget, max_count, node_limit):
    """The all-exact pairing loop: no float filter, no common denominator."""
    budget_f, _ = lattice._coerce_budget(budget)
    eps = 1e-9 * max(1.0, budget_f)
    ctx = PerPickLengths(norm)
    table = lattice._CellTable(ctx, eps)
    lattice._enumerate_chains(norm, budget_f, max_count, node_limit, table.offer)
    point = lattice._Candidate(CapacityValue.exact(0), None, False,
                               LatticePolygon.point())
    minima = {1: {0: point}}
    for per_disp in table.cells.values():
        cells = list(per_disp.values())
        for i, (chain1, tie1) in enumerate(cells):
            for chain2, tie2 in cells[i:]:
                count = (chain1.weight + chain2.weight) // 2 + 1
                if count > max_count:
                    continue
                if chain1.length_f + chain2.length_f > budget_f + eps:
                    continue
                per_edge = minima.setdefault(count, {})
                edges = chain1.nedges + chain2.nedges
                perim = ctx.chain_length(chain1) + ctx.chain_length(chain2)
                cand = lattice._Candidate(perim, (chain1, chain2), tie1 or tie2)
                per_edge[edges] = lattice._prefer(per_edge.get(edges), cand)
    return minima


def test_euclidean_spectrum_start():
    expected = [0.0, 2.0, 2 + math.sqrt(2), 4.0]
    for k in range(3, -1, -1):
        result = toric_capacity(EUCLIDEAN, k)
        assert abs(result.value.value - expected[k]) < 1e-9
        assert result.witness.lattice_point_count == k + 1


def test_euclidean_witnesses_minimize():
    result = toric_capacity(EUCLIDEAN, 2)
    length = perimeter(result.witness, EUCLIDEAN)
    assert abs(length.value - result.value.value) <= length.err + result.value.err
    # several congruent triangles achieve 2 + sqrt(2)
    assert result.tie


def test_weighted_l1_matches_polydisk():
    for a, b in [(F(1), F(1)), (F(2), F(1)), (F(3, 2), F(2, 3))]:
        norm = WeightedL1(a, b)
        closed = polydisk_capacities(a, b, 12)
        for k in range(12, -1, -1):
            assert toric_capacity(norm, k).value.as_fraction() == \
                closed[k].as_fraction()


def test_toric_capacity_monotone():
    norm = WeightedL1(1, 1)
    values = [toric_capacity(norm, k).value.as_fraction()
              for k in range(25, -1, -1)][::-1]
    assert all(x <= y for x, y in zip(values, values[1:]))


def test_toric_domain_dispatch():
    seq = capacities(ToricNorm(EUCLIDEAN), 3)
    assert seq[0].as_fraction() == 0
    assert seq[1].as_fraction() == 2
    assert abs(seq[2].value - (2 + math.sqrt(2))) < 1e-9
    assert seq[3].as_fraction() == 4


def test_allow_at_least_never_exceeds_exact():
    norm = WeightedL1(1, 1)
    for k in range(8):
        exact = toric_capacity(norm, k).value.as_fraction()
        relaxed = toric_capacity(norm, k, allow_at_least=True).value.as_fraction()
        assert relaxed <= exact


def test_node_limit_raises():
    with pytest.raises(ToricEnumerationBudgetExceeded) as info:
        toric_capacity(EUCLIDEAN, 20, node_limit=50)
    exc = info.value
    assert (exc.node_limit, exc.max_count, exc.nodes) == (50, 21, 51)
    assert exc.budget == lattice._initial_budget(EUCLIDEAN, 20).value == 16
    assert str(exc) == ("polygon search exceeded its node limit of 50 "
                        "(lattice-point cap 21, perimeter budget 16)")
    assert str(pickle.loads(pickle.dumps(exc))) == str(exc)
    # an earlier unlimited search of the same norm must not let a later
    # call skip its own limit
    capacities(ToricNorm(EUCLIDEAN), 20)
    with pytest.raises(ToricEnumerationBudgetExceeded):
        toric_capacity(EUCLIDEAN, 20, node_limit=50)


def test_toric_capacity_is_minimal_over_complete_enumeration():
    hexagon = Polygonal(((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)))
    cases = [(EUCLIDEAN, 4), (WeightedL1(1, 1), 6),
             (WeightedL1(F(3, 2), F(2, 3)), 6), (hexagon, 6)]
    for norm, kmax in cases:
        for k in range(kmax + 1):
            result = toric_capacity(norm, k)
            pool = enumerate_polygons(k + 1, norm, result.value)
            lengths = [perimeter(poly, norm) for poly in pool]
            least = min(lengths, key=lambda v: v.value)
            assert all(least.compare(v) <= 0 for v in lengths), (norm, k)
            assert result.value.compare(least) == 0, (norm, k)
            minimizers = [poly for poly, v in zip(pool, lengths)
                          if v.compare(least) == 0]
            assert result.witness in minimizers, (norm, k)


def test_generator_grading_examples():
    point = LabeledGenerator(LatticePolygon.point(), ())
    assert generator_grading(point) == 0
    square = LatticePolygon.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert generator_grading(LabeledGenerator(square, ("e",) * 4)) == 6
    tri = LatticePolygon.from_vertices([(0, 0), (1, 0), (0, 1)])
    assert generator_grading(LabeledGenerator(tri, ("h", "e", "e"))) == 3


def test_generator_label_validation():
    square = LatticePolygon.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(ValueError):
        LabeledGenerator(square, ("e", "e"))
    with pytest.raises(ValueError):
        LabeledGenerator(square, ("e", "e", "x", "e"))


def test_generator_action_ignores_labels():
    square = LatticePolygon.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    all_e = LabeledGenerator(square, ("e",) * 4)
    mixed = LabeledGenerator(square, ("h", "e", "h", "e"))
    assert generator_action(all_e, EUCLIDEAN).as_fraction() == 4
    assert generator_action(mixed, EUCLIDEAN).as_fraction() == 4
    seg = LatticePolygon.from_vertices([(0, 0), (2, 1)])
    action = generator_action(LabeledGenerator(seg, ("e", "h")), EUCLIDEAN)
    assert abs(action.value - 2 * math.sqrt(5)) < 1e-12


def test_reeb_orbit_data():
    direction, action = reeb_orbit_data(EUCLIDEAN, 1, 0)
    assert direction == (1.0, 0.0)
    assert action.as_fraction() == 1
    _, action = reeb_orbit_data(EUCLIDEAN, 1, 1)
    assert abs(action.value - math.sqrt(2)) < 1e-12
    _, action = reeb_orbit_data(WeightedL1(F(3), F(5)), 1, 0)
    assert action.as_fraction() == F(3, 2)
    with pytest.raises(NotPrimitive):
        reeb_orbit_data(EUCLIDEAN, 2, 2)


def test_min_action_at_grading_examples():
    assert min_action_at_grading(EUCLIDEAN, 0).as_fraction() == 0
    assert min_action_at_grading(EUCLIDEAN, 2).as_fraction() == 2
    assert abs(min_action_at_grading(EUCLIDEAN, 4).value
               - (2 + math.sqrt(2))) < 1e-9
    with pytest.raises(ValueError):
        min_action_at_grading(EUCLIDEAN, 3)


def test_min_action_equals_toric_capacity():
    norm = WeightedL1(1, 1)
    for k in range(8, -1, -1):
        stratified = min_action_at_grading(norm, 2 * k)
        direct = toric_capacity(norm, k).value
        assert stratified.as_fraction() == direct.as_fraction()


def toric_records(norm, kmax):
    """Value reprs, witness vertices and tie flags of every toric entry point."""
    records = [[repr(v) for v in capacities(ToricNorm(norm), kmax)]]
    for k in range(kmax + 1):
        for allow_at_least in (False, True):
            result = toric_capacity(norm, k, allow_at_least=allow_at_least)
            records.append((repr(result.value), result.witness.vertices, result.tie))
        records.append(repr(min_action_at_grading(norm, 2 * k)))
    return records


@pytest.mark.parametrize("norm, kmax", [
    pytest.param(EUCLIDEAN, 12, id="euclidean"),
    *(pytest.param(WeightedL1(a, b), 12, id=f"l1:{a},{b}")
      for a, b in [(1, 1), (2, 1), (F(3, 2), F(2, 3)), (F(7, 3), 2), (1, 4)]),
    pytest.param(HEXAGON, 10, id="hexagon"),
    *(pytest.param(poly, 10, id=f"bench-poly{i}")
      for i, poly in enumerate(BENCH_POLYGONS)),
])
def test_float_filtered_pairing_matches_all_exact_oracle(norm, kmax, monkeypatch):
    got = toric_records(norm, kmax)
    monkeypatch.setattr(lattice, "_bucket_minima", bucket_minima_oracle)
    assert got == toric_records(norm, kmax)


@pytest.mark.parametrize("a, b", [
    (F(1), 1 + F(1, 10 ** 20)),
    (1 + F(1, 10 ** 20), F(1)),
    (F(3, 2), F(3, 2) + F(1, 10 ** 11)),
], ids=["1,1+1e-20", "1+1e-20,1", "3/2,3/2+1e-11"])
def test_near_ties_below_float_resolution(a, b):
    # the weights differ by less than a float can tell (or by less than eps),
    # so only the exact comparison inside the eps window picks the minimum
    assert capacities(ToricNorm(WeightedL1(a, b)), 20) == polydisk_capacities(a, b, 20)
