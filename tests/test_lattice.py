import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from echcap import (EUCLIDEAN, LatticePolygon, Polygonal, WeightedL1, area,
                    dual_norm_eval, enumerate_polygons, lattice_point_count,
                    perimeter)

F = Fraction

UNIT_SQUARE = LatticePolygon.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
TRIANGLE = LatticePolygon.from_vertices([(0, 0), (1, 0), (0, 1)])
POINT = LatticePolygon.point()
SEGMENT = LatticePolygon.from_vertices([(0, 0), (1, 0)])


# -- construction and canonical form ------------------------------------------

def test_canonical_translation_and_rotation():
    p = LatticePolygon.from_vertices([(5, 5), (6, 5), (6, 6), (5, 6)])
    assert p.vertices == UNIT_SQUARE.vertices
    q = LatticePolygon.from_vertices([(1, 1), (0, 1), (0, 0), (1, 0)])
    assert q.vertices == UNIT_SQUARE.vertices


def test_rejects_clockwise_and_collinear():
    with pytest.raises(ValueError):
        LatticePolygon.from_vertices([(0, 0), (0, 1), (1, 1), (1, 0)])
    with pytest.raises(ValueError):
        LatticePolygon.from_vertices([(0, 0), (1, 0), (2, 0), (1, 1)])


def test_degeneracy_kinds():
    assert POINT.kind == "point"
    assert SEGMENT.kind == "segment"
    assert UNIT_SQUARE.kind == "proper"
    assert SEGMENT.edges == ((1, 0), (-1, 0))
    assert POINT.edges == ()


# -- counting and area ---------------------------------------------------------

def brute_count(poly):
    """Scan the bounding box; boundary-inclusive membership test."""
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    total = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if poly.kind == "point":
                inside = (x, y) == poly.vertices[0]
            elif poly.kind == "segment":
                (ax, ay), (bx, by) = poly.vertices
                cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
                inside = cross == 0 and min(ax, bx) <= x <= max(ax, bx) \
                    and min(ay, by) <= y <= max(ay, by)
            else:
                inside = True
                n = len(poly.vertices)
                for i in range(n):
                    ax, ay = poly.vertices[i]
                    bx, by = poly.vertices[(i + 1) % n]
                    if (bx - ax) * (y - ay) - (by - ay) * (x - ax) < 0:
                        inside = False
                        break
            total += inside
    return total


def test_lattice_point_count_examples():
    assert lattice_point_count(POINT) == 1
    assert lattice_point_count(UNIT_SQUARE) == 4
    assert lattice_point_count(TRIANGLE) == 3


def test_pick_matches_brute_force():
    polys = [POINT, SEGMENT, UNIT_SQUARE, TRIANGLE,
             LatticePolygon.from_vertices([(0, 0), (4, 0)]),
             LatticePolygon.from_vertices([(0, 0), (3, 1), (1, 3)]),
             LatticePolygon.from_vertices([(0, 0), (5, 0), (6, 3), (2, 6), (0, 4)])]
    for budget in (3.7, 4.9):
        for target in range(1, 7):
            polys.extend(enumerate_polygons(target, EUCLIDEAN, budget))
    for poly in polys:
        assert lattice_point_count(poly) == brute_count(poly)


def test_area_examples():
    assert area(POINT) == 0
    assert area(SEGMENT) == 0
    assert area(UNIT_SQUARE) == 1
    assert area(LatticePolygon.from_vertices([(0, 0), (2, 0), (0, 2)])) == 2


# -- perimeters under the three norm families ---------------------------------

def test_perimeter_examples():
    assert perimeter(POINT, EUCLIDEAN).as_fraction() == 0
    assert perimeter(SEGMENT, EUCLIDEAN).as_fraction() == 2
    a, b = F(3, 2), F(5)
    assert perimeter(UNIT_SQUARE, WeightedL1(a, b)).as_fraction() == a + b


def test_euclidean_perimeter_exact_when_integral():
    # 3-4-5 edges make the whole perimeter exact
    p = LatticePolygon.from_vertices([(0, 0), (3, 4), (0, 8)])
    v = perimeter(p, EUCLIDEAN)
    assert v.is_exact and v.as_fraction() == 18


def test_euclidean_perimeter_tracks_error():
    v = perimeter(TRIANGLE, EUCLIDEAN)
    assert not v.is_exact
    assert abs(v.value - (2 + math.sqrt(2))) <= v.err + 1e-15


# -- dual norms ----------------------------------------------------------------

def test_dual_norm_eval():
    assert dual_norm_eval(EUCLIDEAN, (1, 0)).as_fraction() == 1
    wl = WeightedL1(F(3), F(5))
    assert dual_norm_eval(wl, (2, 0)).as_fraction() == F(4, 3)
    assert dual_norm_eval(wl, (1, 1)).as_fraction() == F(2, 3)
    square = Polygonal(((1, 0), (0, 1), (-1, 0), (0, -1)))
    assert dual_norm_eval(square, (1, 1)).as_fraction() == 1


def test_weighted_l1_primal_lengths():
    wl = WeightedL1(F(3), F(5))
    assert wl.length((1, 0)).as_fraction() == F(3, 2)
    assert wl.length((-2, 1)).as_fraction() == 3 + F(5, 2)


def test_polygonal_gauge_matches_l1_diamond():
    # the diamond with vertices (+-2/a, 0), (0, +-2/b) is the weighted L1 ball
    a, b = F(3), F(5)
    diamond = Polygonal(((F(2, 3), 0), (0, F(2, 5)), (-F(2, 3), 0), (0, -F(2, 5))))
    wl = WeightedL1(a, b)
    for v in [(1, 0), (0, 1), (2, 3), (-1, 4), (5, -2)]:
        assert diamond.length(v).as_fraction() == wl.length(v).as_fraction()


def test_polygonal_pickles_after_lengths_are_cached():
    skew = Polygonal(((F(2, 3), F(1, 2)), (-1, 1), (-F(2, 3), -F(1, 2)), (1, -1)))
    vectors = [(1, 0), (0, 1), (2, 3), (-1, 4), (5, -2)]
    lengths = [skew.length(v) for v in vectors]
    copy = pickle.loads(pickle.dumps(skew))
    assert copy == skew
    assert [copy.length(v) for v in vectors] == lengths


def test_polygonal_validation():
    with pytest.raises(ValueError):
        Polygonal(((1, 0), (0, 1), (-1, 0)))  # not symmetric
    with pytest.raises(ValueError):
        Polygonal(((1, 0), (2, 0), (-1, 0), (-2, 0)))  # degenerate


def test_dual_norm_involution():
    rng = random.Random(19)
    hexagon = Polygonal(((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)))
    skew = Polygonal(((2, 1), (-1, 1), (-2, -1), (1, -1)))
    rational = Polygonal(((F(3, 2), 0), (0, F(2, 3)), (-F(3, 2), 0), (0, -F(2, 3))))
    for norm in (hexagon, skew, rational):
        double_dual = Polygonal(norm.polar)
        for _ in range(50):
            v = (rng.randint(-9, 9), rng.randint(-9, 9))
            if v == (0, 0):
                v = (1, 1)
            assert dual_norm_eval(double_dual, v).as_fraction() == \
                norm.length(v).as_fraction()


def test_dual_ball_areas():
    assert WeightedL1(F(3), F(5)).dual_ball_area().as_fraction() == 15
    square = Polygonal(((1, 0), (0, 1), (-1, 0), (0, -1)))
    # polar of the diamond is the square [-1,1]^2
    assert square.dual_ball_area().as_fraction() == 4
    approx_pi = EUCLIDEAN.dual_ball_area()
    assert abs(approx_pi.value - math.pi) < 1e-12


# -- enumeration ---------------------------------------------------------------

def convex_hull(points):
    """Monotone chain; returns hull vertices CCW, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) > 2 else hull[:2]


def brute_polygons(target, budget):
    """Independent oracle: hulls of all subsets of a box large enough to hold
    any canonical polygon of Euclidean perimeter <= budget (two boundary
    points are at most perimeter/2 apart, so the box just needs that reach)."""
    reach = int(budget / 2)
    box = [(x, y) for x in range(0, reach + 1) for y in range(-reach, reach + 1)]
    seen = {}
    for r in range(1, len(box) + 1):
        if r > 8:
            break
        for subset in itertools.combinations(box, r):
            hull = convex_hull(subset)
            if len(hull) != len(subset):
                continue  # only vertex sets, each polygon once
            if len(hull) >= 3:
                poly = LatticePolygon.from_vertices(hull)
            elif len(hull) == 2:
                poly = LatticePolygon.from_vertices(hull)
            else:
                poly = LatticePolygon.point()
            if poly.vertices in seen:
                continue
            if lattice_point_count(poly) != target:
                continue
            length = perimeter(poly, EUCLIDEAN)
            if length.value - length.err <= budget + 1e-9:
                seen[poly.vertices] = poly
    return sorted(seen, key=lambda v: (len(v), v))


def test_enumerate_polygons_examples():
    assert [p.vertices for p in enumerate_polygons(1, EUCLIDEAN, 0)] == \
        [((0, 0),)]
    segs = enumerate_polygons(2, EUCLIDEAN, 2)
    assert [p.vertices for p in segs] == \
        [((0, 0), (0, 1)), ((0, 0), (1, 0))]
    tri = enumerate_polygons(3, EUCLIDEAN, 2 + math.sqrt(2))
    assert LatticePolygon.from_vertices([(0, 0), (1, 0), (0, 1)]).vertices in \
        [p.vertices for p in tri]


def test_enumerate_polygons_complete_against_brute_force():
    for budget in (2.9, 3.7, 4.9):
        for target in range(1, 7):
            ours = [p.vertices for p in
                    enumerate_polygons(target, EUCLIDEAN, budget)]
            assert ours == brute_polygons(target, budget), \
                f"mismatch at target={target} budget={budget}"


def test_enumeration_is_isoperimetric():
    # perimeter^2 >= 4 * (dual ball area) * area, for every polygon found
    norms = [EUCLIDEAN, WeightedL1(1, 1), WeightedL1(F(3, 2), F(2, 3)),
             Polygonal(((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)))]
    for norm in norms:
        ball_area = norm.dual_ball_area()
        for target in range(1, 7):
            for poly in enumerate_polygons(target, norm, 6):
                length = perimeter(poly, norm)
                lhs = length.value * length.value
                rhs = 4.0 * ball_area.value * float(area(poly))
                assert lhs >= rhs - 1e-6
                if length.is_exact and ball_area.is_exact:
                    assert length.as_fraction() ** 2 >= \
                        4 * ball_area.as_fraction() * area(poly)
