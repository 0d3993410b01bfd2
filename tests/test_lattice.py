import importlib
import itertools
import math
import pathlib
import pickle
import random
import runpy
from fractions import Fraction

import pytest

from echcap import (EUCLIDEAN, CapacityValue, LatticePolygon, Polygonal,
                    WeightedL1, area, dual_norm_eval, enumerate_polygons,
                    lattice_point_count, perimeter)

F = Fraction
toric = importlib.import_module("echcap.toric")

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


def test_from_vertices_rejects_non_integral_coordinates():
    with pytest.raises(ValueError, match="must be integers, got 1.5"):
        LatticePolygon.from_vertices([(0, 0), (1.5, 0), (0, 1)])
    with pytest.raises(ValueError, match="must be integers"):
        LatticePolygon.from_vertices([(0, 0), (1, 0), (0, F(1, 2))])
    # integral Fractions and floats are the ints they equal
    assert LatticePolygon.from_vertices([(F(0), 0.0), (F(4, 4), 0), (0, 1.0)]) == TRIANGLE


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


def random_convex_polygons(count, seed):
    """Hulls of a few random lattice points: points, segments and proper
    polygons, small and large (edges past 2^26, whose squares pass 2^53)."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.choice([1, 2, 4, 9, 30, 1000, 10 ** 9])
        yield LatticePolygon.from_vertices(convex_hull(
            (rng.randint(-size, size), rng.randint(-size, size))
            for _ in range(rng.randint(1, 9))))


def test_euclidean_perimeter_matches_capacity_value_sum():
    # against the sum of EUCLIDEAN.length over the edges in CapacityValue
    # arithmetic: the same float and exact value, and an irrational one's
    # err covers the float's distance to the sum, enclosed at 2^-160 by isqrt
    bits = 160
    polygons = [toric._budget_polygon(EUCLIDEAN, k) for k in range(40)]
    polygons += random_convex_polygons(300, 7)
    kinds = set()
    for poly in polygons:
        want = CapacityValue.exact(0)
        for edge in poly.edges:
            want = want + EUCLIDEAN.length(edge)
        got = perimeter(poly, EUCLIDEAN)
        assert got.value == want.value and got == want, poly
        kinds.add((poly.kind, got.is_exact))
        if got.is_exact:
            continue
        lo = sum(math.isqrt((dx * dx + dy * dy) << (2 * bits)) for dx, dy in poly.edges)
        hi = lo + len(poly.edges)   # each root r of the sum: r <= 2^bits |e| < r + 1
        gap = max(abs(F(got.value) - F(lo, 2 ** bits)), abs(F(got.value) - F(hi, 2 ** bits)))
        assert F(got.err) >= gap, poly
    assert kinds >= {("point", True), ("segment", True), ("segment", False),
                     ("proper", True), ("proper", False)}


def test_a_euclidean_search_splits_each_radicand_once(monkeypatch):
    """One search calls _squarefree at most once per (x, y) it reads, the
    next search starts from an empty cache, and perimeter never calls it."""
    calls, searches = [], []
    squarefree = toric._squarefree

    def counted(n):
        calls.append(n)
        return squarefree(n)

    class Recorded(toric._Lengths):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(toric, "_squarefree", counted)
    monkeypatch.setattr(toric, "_Lengths", Recorded)
    runs = []
    for _ in range(2):
        calls.clear()
        values = [value for value, _ in toric._toric_minima(EUCLIDEAN, 25, None)]
        info = searches[-1].radicals.cache_info()
        # every call is a distinct (x, y): a repeat would be a miss too
        assert len(calls) == info.misses == info.currsize > 0
        runs.append((values, len(calls)))
    assert len(searches) == 2 and runs[0] == runs[1]   # the second search recomputed all
    calls.clear()
    for poly in [toric._budget_polygon(EUCLIDEAN, k) for k in range(40)] + list(
            random_convex_polygons(100, 11)):
        perimeter(poly, EUCLIDEAN)
    assert not calls


# -- dual norms ----------------------------------------------------------------

def test_dual_norm_eval():
    assert dual_norm_eval(EUCLIDEAN, (1, 0)).as_fraction() == 1
    wl = WeightedL1(F(3), F(5))
    assert dual_norm_eval(wl, (2, 0)).as_fraction() == F(4, 3)
    assert dual_norm_eval(wl, (1, 1)).as_fraction() == F(2, 3)
    square = Polygonal(((1, 0), (0, 1), (-1, 0), (0, -1)))
    assert dual_norm_eval(square, (1, 1)).as_fraction() == 1


@pytest.mark.parametrize("norm", [
    EUCLIDEAN, WeightedL1(F(7, 3), 2),
    Polygonal(((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))),
    Polygonal(((F(2, 3), F(1, 5)), (F(-1, 2), 1), (F(-2, 3), F(-1, 5)), (F(1, 2), -1))),
], ids=["euclidean", "l1:7/3,2", "hexagon", "rational-skew"])
def test_dual_eval_agrees_on_int_and_fraction_covectors(norm):
    for p, q in itertools.product(range(-3, 4), repeat=2):
        got = norm.dual_eval((p, q))
        assert repr(got) == repr(norm.dual_eval((F(p), F(q)))) == \
            repr(norm.dual_eval((str(p), str(q)))), (p, q)
        if isinstance(norm, Polygonal):
            # the definition: the largest pairing with a unit ball vertex
            assert got.as_fraction() == max(p * x + q * y for x, y in norm.vertices)
    covector = (F(-5, 7), F(3, 11))
    if isinstance(norm, Polygonal):
        assert norm.dual_eval(covector).as_fraction() == \
            max(covector[0] * x + covector[1] * y for x, y in norm.vertices)


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


@pytest.mark.parametrize("norm", [
    Polygonal(((F(2, 3), F(1, 2)), (-1, 1), (-F(2, 3), -F(1, 2)), (1, -1))),
    WeightedL1(F(7, 3), 2)], ids=["skew", "l1:7/3,2"])
def test_polygonal_pickles_after_lengths_are_cached(norm):
    vectors = [(1, 0), (0, 1), (2, 3), (-1, 4), (5, -2)]
    lengths = [norm.length(v) for v in vectors]
    copy = pickle.loads(pickle.dumps(norm))
    assert copy == norm
    assert [copy.length(v) for v in vectors] == lengths


def test_public_names_resolve_where_they_are_defined():
    """The names of modules that load on first use (the toric search and
    asymptotics) resolve from echcap and from echcap.lattice as they did
    when every module loaded at start-up."""
    echcap = importlib.import_module("echcap")
    lattice = importlib.import_module("echcap.lattice")
    modules = [importlib.import_module(f"echcap.{name}") for name in (
        "asymptotics", "capacities", "domains", "errors", "lattice", "obstructions",
        "toric", "values")]
    for name in echcap.__all__:
        value = getattr(echcap, name)
        holders = [module for module in modules if name in vars(module)]
        assert holders and all(vars(module)[name] is value for module in holders), name
        home = getattr(value, "__module__", None)
        if home is not None:
            assert getattr(importlib.import_module(home), name) is value, name
    star = {}
    exec("from echcap import *", star)
    assert all(star[name] is getattr(echcap, name) for name in echcap.__all__)
    for name in ("toric_capacity", "enumerate_polygons", "min_action_at_grading",
                 "ToricCapacity"):
        assert getattr(lattice, name) is getattr(toric, name)
    for module in (echcap, lattice):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
    capacity = toric.toric_capacity(EUCLIDEAN, 4)
    assert pickle.loads(pickle.dumps(capacity)) == capacity


def test_polygonal_validation():
    with pytest.raises(ValueError):
        Polygonal(((1, 0), (0, 1), (-1, 0)))  # not symmetric
    with pytest.raises(ValueError):
        Polygonal(((1, 0), (2, 0), (-1, 0), (-2, 0)))  # degenerate


def polygonal_oracle(vertices):
    """The unit-ball vertices as Polygonal stored them when it sorted the
    Fractions by a float atan2 key and tested them in Fraction arithmetic,
    or the ValueError message it raised."""
    verts = [(F(x), F(y)) for x, y in vertices]
    if len(verts) < 4:
        return "polygonal unit ball needs at least 4 vertices"
    verts.sort(key=lambda p: (math.atan2(p[1], p[0]), p[0] * p[0] + p[1] * p[1]))
    for (x, y) in verts:
        if x == 0 and y == 0:
            return "origin cannot be a vertex of the unit ball"
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        cx, cy = verts[(i + 2) % n]
        if (bx - ax) * (cy - by) - (by - ay) * (cx - bx) <= 0:
            return "unit ball vertices must be in strictly convex position"
        if ax * by - ay * bx <= 0:
            return "unit ball must contain the origin in its interior"
    if set(verts) != {(-x, -y) for (x, y) in verts}:
        return "unit ball must be centrally symmetric"
    return tuple(verts)


def built(vertices):
    try:
        return Polygonal(vertices).vertices
    except ValueError as exc:
        return str(exc)


def symmetric_hull(points):
    """Vertices of the convex hull of points and their negatives, strictly
    convex, counterclockwise (monotone chain)."""
    pts = sorted(set(points) | {(-x, -y) for x, y in points})

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]
    return half(pts) + half(pts[::-1])


def test_polygonal_order_and_errors_match_atan2_oracle():
    workloads = pathlib.Path(__file__).parents[1] / "bench" / "workloads.py"
    rng = random.Random(23)
    cases = [list(v) for v in runpy.run_path(str(workloads))["POLY_NORMS"]]
    dens = (1, 2, 3, 7, 11, 89, 97, 1009)
    for _ in range(300):
        hull = symmetric_hull([(F(rng.randint(-40, 40), rng.choice(dens)),
                                F(rng.randint(-40, 40), rng.choice(dens)))
                               for _ in range(rng.randint(2, 7))])
        cases.append(hull)
        # the same points out of order, and broken: an inner or a doubled
        # point, a lost mirror image, the origin, points on a line
        damaged = list(hull)
        cut = rng.random()
        if cut < 0.2 and hull:
            damaged.append(tuple(c / 2 for c in rng.choice(hull)))
        elif cut < 0.35 and hull:
            damaged.append(rng.choice(hull))
        elif cut < 0.5 and hull:
            damaged.pop(rng.randrange(len(damaged)))
        elif cut < 0.6:
            damaged.append((0, 0))
        elif cut < 0.7:
            damaged = [(c, 2 * c) for c in range(-3, 4) if c]
        rng.shuffle(damaged)
        cases.append(damaged)
    for vertices in cases:
        rng.shuffle(vertices)
        got = built(vertices)
        assert got == polygonal_oracle(vertices), vertices
        if isinstance(got, tuple):
            assert all(type(c) is F for v in got for c in v)


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


def polar_oracle(vertices):
    """The polar dual's vertices by the Fraction formula Polygonal once used:
    the edge from a to b gives ((b_y - a_y)/d, (a_x - b_x)/d), d = a x b."""
    out = []
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        d = ax * by - ay * bx
        out.append(((by - ay) / d, (ax - bx) / d))
    return tuple(out)


def pinned_polygonal_norms():
    """The Polygonal norms whose searches tests/toric_pins.json pins."""
    pins = runpy.run_path(str(pathlib.Path(__file__).with_name("test_toric_pins.py")))
    found = [norm for table in ("NORMS", "REACH_NORMS")
             for norm, _ in pins[table].values()]
    found += list(pins["POLYGONAL_NORMS"].values())
    return list(dict.fromkeys(n for n in found if isinstance(n, Polygonal)))


def random_polygonal_norms(count, seed):
    rng = random.Random(seed)
    dens = (1, 2, 3, 5, 7, 12, 89, 97)
    norms = []
    while len(norms) < count:
        hull = symmetric_hull([(F(rng.randint(-30, 30), rng.choice(dens)),
                                F(rng.randint(-30, 30), rng.choice(dens)))
                               for _ in range(rng.randint(2, 9))])
        if len(hull) >= 4:
            norms.append(Polygonal(hull))
    return norms


def test_polar_from_int_vertices_matches_fraction_formula():
    norms = pinned_polygonal_norms()
    assert len(norms) >= 6
    norms += random_polygonal_norms(60, seed=29)
    vectors = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    for norm in norms:
        polar = polar_oracle(norm.vertices)
        assert norm.polar == polar, norm
        assert all(type(c) is F for u in norm.polar for c in u)
        den = math.lcm(*(c.denominator for u in polar for c in u))
        ints = tuple((int(ux * den), int(uy * den)) for ux, uy in polar)
        assert norm._int_polar == (den, ints), norm
        got_den, length = norm._lengths()
        assert got_den == den
        assert [length(x, y) for x, y in vectors] == \
            [max(ux * x + uy * y for ux, uy in ints) for x, y in vectors]
        twice_area = sum(ax * by - ay * bx
                         for (ax, ay), (bx, by) in zip(polar, polar[1:] + polar[:1]))
        assert norm.dual_ball_area() == CapacityValue.exact(twice_area / 2), norm


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
