import math
from fractions import Fraction

import pytest

from echcap import (EUCLIDEAN, LabeledGenerator, LatticePolygon, NotPrimitive,
                    Polygonal, ToricEnumerationBudgetExceeded, ToricNorm,
                    WeightedL1, capacities, enumerate_polygons,
                    generator_action, generator_grading,
                    min_action_at_grading, perimeter, polydisk_capacities,
                    reeb_orbit_data, toric_capacity)

F = Fraction


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
    with pytest.raises(ToricEnumerationBudgetExceeded):
        toric_capacity(EUCLIDEAN, 20, node_limit=50)
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
