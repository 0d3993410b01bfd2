import importlib
import math
import pickle
import random
import time
from fractions import Fraction
from functools import cmp_to_key

import pytest

from echcap import (EUCLIDEAN, CapacityValue, LabeledGenerator, LatticePolygon,
                    NotPrimitive, Polygonal, ToricEnumerationBudgetExceeded,
                    ToricNorm, WeightedL1, capacities, enumerate_polygons,
                    generator_action, generator_grading,
                    min_action_at_grading, perimeter, polydisk_capacities,
                    reeb_orbit_data, toric_capacity)

F = Fraction
toric = importlib.import_module("echcap.toric")
values = importlib.import_module("echcap.values")

HEXAGON = Polygonal(((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)))
# the toric(poly:...) norms of bench/workloads.py
BENCH_POLYGONS = [Polygonal(v) for v in (
    ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
    ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)),
    ((3, 1), (-1, 2), (-3, -1), (1, -2)),
)]
SKEW = Polygonal(((2, 1), (-1, 1), (-2, -1), (1, -1)))
# a unit ball whose vertex directions (1, 1) and (-1, 1) are cheaper than
# the axes: the segment from 0 to (1, 1) has length 2/3
DIAGONAL = Polygonal(((3, 3), (-1, 1), (-3, -3), (1, -1)))


def searched(norm, kmax):
    """c_0, ..., c_kmax from the polygon search itself.  capacities() reads
    a WeightedL1 norm off the polydisk kernel, so the l1 differential tests
    call the search through this."""
    minima = toric._toric_minima(norm, kmax, None)
    return values.CapacitySequence(0, (value for value, _ in minima))


# -- oracles: the depth-first chain walk, and exact lengths for every pair ------

def depth_first_chains(lengths, max_count):
    """Every upper-half convex chain, the empty one at (0, 0) included, with
    length + |displacement| within the limit whose pairs can enclose at most
    max_count lattice points, as (dx, dy, entry) with entry = (length,
    nedges, picks, weight) as _chain_cells stores it, by a depth-first
    walk: each chain is extended by every later direction, one copy at a
    time, while the weight and length prunes of toric._chain_cells hold.
    Lengths are summed in the same order, pick by pick."""
    dirs = toric._upper_directions(lengths)
    f, limit = lengths.f, lengths.limit
    # a chain with weight w pairs to a polygon of count >= (w + 1)/2 + 1
    weight_cap = 2 * max_count - 3
    chains = [(0, 0, (0, 0, (), 0))]

    def walk(start, sx, sy, w, length, picks):
        for j in range(start, len(dirs)):
            px, py = dirs[j]
            csx, csy, cw, clen, c = sx, sy, w, length, 0
            while True:
                cw += csx * py - csy * px + 1
                csx += px
                csy += py
                clen += f(px, py)
                c += 1
                if cw > weight_cap or clen + f(csx, csy) > limit:
                    break
                cpicks = picks + ((px, py, c),)
                chains.append((csx, csy, (clen, len(cpicks), cpicks, cw)))
                walk(j + 1, csx, csy, cw, clen, cpicks)

    walk(0, 0, 0, 0, 0, ())
    return chains


def pair_order(pair):
    """A bucket's order past the exact length: fewest edges, then the least
    sorted edge lists."""
    (_, nedges1, picks1, _), (_, nedges2, picks2, _) = pair
    return nedges1 + nedges2, min(picks1, picks2), max(picks1, picks2)


def bucket_minima_oracle(norm, budget, max_count):
    """All-exact reference for the buckets of toric._toric_minima.

    Chain lengths are sums of one exact CapacityValue per edge direction;
    the cell table and the pairing compare them for every chain, with no
    length filter and no eps window.  Cells are keyed by weight and edge
    count and buckets by count and edge count before each count's buckets
    are reduced, so this also checks that the search's cells and buckets by
    weight and count alone lose no minimizer.  Of two candidates the one of
    smaller exact value wins, and of equal values the one first by
    pair_order.
    """
    exact = {}

    def length(picks):
        if picks not in exact:
            total = CapacityValue.exact(0)
            for px, py, c in picks:
                total = total + norm.length((px, py)).scaled(c)
            exact[picks] = total
        return exact[picks]

    def prefer(best, cand):
        # best and cand are (value, pair)
        if best is None:
            return cand
        order = cand[0].compare(best[0])
        if order == 0:
            order = -1 if pair_order(cand[1]) < pair_order(best[1]) else 1
        return cand if order < 0 else best

    cells = {}
    for dx, dy, entry in depth_first_chains(toric._Lengths(norm, budget), max_count):
        _, nedges, picks, weight = entry
        per_disp = cells.setdefault((dx, dy), {})
        best = per_disp.get((weight, nedges))
        if best is None:
            per_disp[weight, nedges] = entry
            continue
        cmp = length(picks).compare(length(best[2]))
        if cmp < 0 or cmp == 0 and picks < best[2]:
            per_disp[weight, nedges] = entry
    bound = budget if isinstance(budget, CapacityValue) else CapacityValue.exact(budget)
    buckets = {}
    for per_disp in cells.values():
        kept = list(per_disp.values())
        for i, entry1 in enumerate(kept):
            for entry2 in kept[i:]:
                (_, nedges1, picks1, weight1), (_, nedges2, picks2, weight2) = entry1, entry2
                count = (weight1 + weight2) // 2 + 1
                perim = length(picks1) + length(picks2)
                if count > max_count or perim.compare(bound) > 0:
                    continue
                key = (count, nedges1 + nedges2)
                cand = (perim, (entry1, entry2))
                buckets[key] = prefer(buckets.get(key), cand)
    minima = {}
    for (count, _), cand in sorted(buckets.items()):
        minima[count] = prefer(minima.get(count), cand)
    return minima


def toric_minima_oracle(norm, kmax, node_limit, budget=None):
    """toric._toric_minima from bucket_minima_oracle (node_limit unused)."""
    if budget is None:
        budget = toric._initial_budget(norm, kmax)
    minima = bucket_minima_oracle(norm, budget, kmax + 1)
    return [minima[count] for count in range(1, kmax + 2)]


# -- oracle: Euclidean exact lengths in CapacityValue arithmetic ----------------

def capacity_value_exact(picks):
    """The reference for a Euclidean chain's exact length, as a
    CapacityValue: each prefix's length plus EUCLIDEAN.length(p).scaled(c),
    pick by pick."""
    if not picks:
        return CapacityValue.exact(0)
    px, py, c = picks[-1]
    return capacity_value_exact(picks[:-1]) + EUCLIDEAN.length((px, py)).scaled(c)


# -- oracle: the least rectangle ----------------------------------------------

def least_rectangle(norm, k):
    """Perimeter of the cheapest m-by-n rectangle (or segment) with at least
    k+1 lattice points, the least over every such rectangle, as a value."""
    ux, uy = norm.length((1, 0)), norm.length((0, 1))
    perims = [ux.scaled(2 * m) + uy.scaled(2 * n)
              for m in range(k + 1) for n in range(k + 1) if (m + 1) * (n + 1) > k]
    return min(perims, key=lambda v: v.as_fraction())


# -- oracle: every pair within the budget, no cut ------------------------------

def all_pairs(lengths, table, max_count):
    """(count, entry1, entry2) for every two entries of one displacement of a
    _chain_cells table, entry1 not after entry2, of count <= max_count that
    fit the budget, walked in table order with no cut.  A Euclidean float
    within eps of an exact budget is compared exactly."""
    for cells in table.values():
        entries = list(cells.values())
        for i, entry1 in enumerate(entries):
            for entry2 in entries[i:]:
                count = (entry1[3] + entry2[3]) // 2 + 1
                length = entry1[0] + entry2[0]
                if count > max_count or length > lengths.limit:
                    continue
                if lengths.den is None and lengths.budget is not None \
                        and length >= lengths.budget_f - lengths.eps \
                        and lengths.value(entry1, entry2).compare(lengths.budget) > 0:
                    continue
                yield count, entry1, entry2


def all_pairs_minima(lengths, keyed_pairs):
    """key -> (value, pair) of the cheapest pair with that key: of the pairs
    within eps of the least float, the least exact length, then the first by
    pair_order."""
    buckets = {}
    for key, entry1, entry2 in keyed_pairs:
        buckets.setdefault(key, []).append((entry1[0] + entry2[0], entry1, entry2))
    minima = {}
    for key, pairs in buckets.items():
        least = min(length for length, _, _ in pairs)
        kept = [(entry1, entry2) for length, entry1, entry2 in pairs
                if length <= least + lengths.eps]
        if lengths.den is None:
            keys = [lengths.key(entry1[2] + entry2[2]) for entry1, entry2 in kept]
            low = min(set(keys), key=cmp_to_key(lengths.order))
            kept = [pair for pair, k in zip(kept, keys) if k == low]
        pair = min(kept, key=pair_order)
        minima[key] = (lengths.value(*pair), pair)
    return minima


def all_pairs_toric(norm, kmax):
    """(value, witness) for k = 0..kmax from one search at the budget of kmax."""
    lengths = toric._Lengths(norm, toric._initial_budget(norm, kmax))
    table = toric._chain_cells(lengths, kmax + 1, None)
    minima = all_pairs_minima(lengths, all_pairs(lengths, table, kmax + 1))
    return [(minima[count][0], toric._witness(*minima[count][1]))
            for count in range(1, kmax + 2)]


def all_pairs_min_action(norm, grading):
    k = grading // 2
    lengths = toric._Lengths(norm, toric._initial_budget(norm, k))
    table = toric._chain_cells(lengths, 2 * (k + 1), None, every=True)
    return all_pairs_minima(lengths, (
        (grading, entry1, entry2)
        for count, entry1, entry2 in all_pairs(lengths, table, 2 * (k + 1))
        if 0 <= 2 * (count - 1 - k) <= entry1[1] + entry2[1]))[grading][0]


def all_pairs_polygons(target, norm, budget):
    lengths = toric._Lengths(norm, budget)
    table = toric._chain_cells(lengths, target, None, every=True)
    found = []
    for count, entry1, entry2 in all_pairs(lengths, table, target):
        if count == target:
            found.append(toric._polygon_from_pair(entry1, entry2))
            if entry2 is not entry1:
                found.append(toric._polygon_from_pair(entry2, entry1))
    return sorted(found, key=toric._preference)


def depth_first_cells(lengths, max_count):
    """Reference for toric._chain_cells: every chain of the depth-first
    walk is offered to its (displacement, weight) cell, and a cell keeps the
    least by exact length, then nedges, then picks.  Also returns the keys
    of the cells where an offer's length tied the cell's, or was compared
    exactly as a Euclidean float within eps of it."""
    cells, tied = {}, set()
    for dx, dy, entry in depth_first_chains(lengths, max_count):
        a, nedges, picks, weight = entry
        key = (dx, dy, weight)
        best = cells.get(key)
        if best is None:
            cells[key] = entry
            continue
        b = best[0]
        if lengths.den is None and abs(a - b) <= lengths.eps:
            order = capacity_value_exact(picks).compare(capacity_value_exact(best[2]))
            tied.add(key)
        else:
            order = (a > b) - (a < b)
            if order == 0:
                tied.add(key)
        if (order, nedges, picks) < (0, best[1], best[2]):
            cells[key] = entry
    return cells, tied


def flat_cells(table):
    """toric._chain_cells' table keyed by (sx, sy, weight), each entry as
    (length, nedges, picks); a cell's key is its weight."""
    flat = {}
    for (sx, sy), group in table.items():
        for w, (length, nedges, picks, weight) in group.items():
            assert weight == w
            flat[sx, sy, w] = (length, nedges, picks)
    return flat


def test_euclidean_spectrum_start():
    expected = [0.0, 2.0, 2 + math.sqrt(2), 4.0]
    for k in range(3, -1, -1):
        result = toric_capacity(EUCLIDEAN, k)
        assert abs(result.value.value - expected[k]) < 1e-9
        assert result.witness.lattice_point_count == k + 1


def test_euclidean_witnesses_minimize():
    result = toric_capacity(EUCLIDEAN, 2)
    value, witness = result
    assert value is result.value and witness is result.witness
    length = perimeter(result.witness, EUCLIDEAN)
    assert abs(length.value - result.value.value) <= length.err + result.value.err
    # several congruent triangles achieve 2 + sqrt(2)
    assert len(enumerate_polygons(3, EUCLIDEAN, result.value)) > 1


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


def test_node_limit_raises():
    with pytest.raises(ToricEnumerationBudgetExceeded) as info:
        toric_capacity(EUCLIDEAN, 20, node_limit=50)
    exc = info.value
    assert (exc.node_limit, exc.max_count, exc.nodes) == (50, 21, 51)
    budget = toric._initial_budget(EUCLIDEAN, 20)   # the octagon 8 + 4 sqrt 2
    assert budget == CapacityValue.exact(8) + CapacityValue.sqrt_rational(32)
    assert exc.budget == budget.value
    assert str(exc) == ("polygon search exceeded its node limit of 50 "
                        "(lattice-point cap 21, perimeter budget 13.6568542495)")
    assert str(pickle.loads(pickle.dumps(exc))) == str(exc)
    # an earlier unlimited search of the same norm must not let a later
    # call skip its own limit
    capacities(ToricNorm(EUCLIDEAN), 20)
    with pytest.raises(ToricEnumerationBudgetExceeded):
        toric_capacity(EUCLIDEAN, 20, node_limit=50)


def test_node_limit_reports_directions_done():
    budget = toric._initial_budget(EUCLIDEAN, 20)
    total = len(toric._upper_directions(toric._Lengths(EUCLIDEAN, budget)))
    done = []
    for limit in (50, 2000):
        with pytest.raises(ToricEnumerationBudgetExceeded) as info:
            toric_capacity(EUCLIDEAN, 20, node_limit=limit)
        exc, copy = info.value, pickle.loads(pickle.dumps(info.value))
        assert exc.directions_total == total
        assert (copy.nodes, copy.directions_done, copy.directions_total) == \
            (limit + 1, exc.directions_done, total)
        done.append(exc.directions_done)
    assert 0 < done[0] < done[1] < total   # a larger limit gets further
    # enumerate_polygons, over every chain, and min_action_at_grading, over
    # the cell winners, walk the same directions
    for search in (lambda: enumerate_polygons(5, EUCLIDEAN, 10, node_limit=10),
                   lambda: min_action_at_grading(EUCLIDEAN, 10, node_limit=10)):
        with pytest.raises(ToricEnumerationBudgetExceeded) as info:
            search()
        copy = pickle.loads(pickle.dumps(info.value))
        assert copy.nodes == 11
        assert 0 <= copy.directions_done < copy.directions_total


@pytest.mark.parametrize("norm, k, total, progress", [
    pytest.param(EUCLIDEAN, 20, 44, [(1, 0), (2, 0), (11, 2), (101, 11), (1001, 28)],
                 id="euclidean-20"),
    pytest.param(SKEW, 14, 38, [(1, 0), (2, 0), (11, 2), (101, 11), (1001, 28)],
                 id="skew-14"),
])
def test_node_limit_exit_progress_is_pinned(norm, k, total, progress):
    # (nodes, directions done) where the search at the octagon budget
    # stops, as measured; the directions are those within that budget
    for limit, (nodes, done) in zip((0, 1, 10, 100, 1000), progress):
        with pytest.raises(ToricEnumerationBudgetExceeded) as info:
            toric_capacity(norm, k, node_limit=limit)
        exc = info.value
        assert (exc.nodes, exc.directions_done, exc.directions_total) == \
            (nodes, done, total), limit
    with pytest.raises(ToricEnumerationBudgetExceeded) as info:
        enumerate_polygons(5, EUCLIDEAN, 10, node_limit=10)
    exc = info.value
    assert (exc.nodes, exc.directions_done, exc.directions_total) == (11, 2, 24)


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


def test_reeb_orbit_data_rejects_non_integral_classes():
    for m, n in [(1.9, 0), (1, F(1, 2))]:
        with pytest.raises(ValueError, match="must be integers"):
            reeb_orbit_data(EUCLIDEAN, m, n)
    # an integral Fraction is the int it equals
    assert reeb_orbit_data(EUCLIDEAN, F(3), 1) == reeb_orbit_data(EUCLIDEAN, 3, 1)


def test_min_action_at_grading_examples():
    # grading 0 is the point, the pair of two empty chains: no direction
    # fits these budgets, so the search visits no node
    for _, norm in EVERY_CHAIN_NORMS:
        for budget in (None, F(1, 3), 0.0):
            value = min_action_at_grading(norm, 0, budget, node_limit=0)
            assert value.is_exact and value.as_fraction() == 0, (norm, budget)
    assert min_action_at_grading(EUCLIDEAN, 2).as_fraction() == 2
    assert abs(min_action_at_grading(EUCLIDEAN, 4).value
               - (2 + math.sqrt(2))) < 1e-9
    with pytest.raises(ValueError):
        min_action_at_grading(EUCLIDEAN, 3)


def test_enumerate_polygons_takes_only_integral_counts():
    norm = WeightedL1(1, 1)
    for count in (2.5, F(5, 2)):
        with pytest.raises(ValueError, match="must be integers"):
            enumerate_polygons(count, norm, 4)
    three = enumerate_polygons(3, norm, 4)
    assert three and enumerate_polygons(3.0, norm, 4) == three == \
        enumerate_polygons(F(3), norm, 4)


def test_toric_capacity_and_grading_take_only_integral_counts():
    two = toric_capacity(EUCLIDEAN, 2)
    for k in (2.0, F(2)):
        assert toric_capacity(EUCLIDEAN, k) == two
        assert min_action_at_grading(EUCLIDEAN, 2 * k) == two.value
    for k in (2.5, F(5, 2)):
        with pytest.raises(ValueError, match="must be integers"):
            toric_capacity(EUCLIDEAN, k)
        with pytest.raises(ValueError, match="must be integers"):
            min_action_at_grading(EUCLIDEAN, k)


def test_negative_budgets_are_rejected():
    for grading in (0, 2):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            min_action_at_grading(EUCLIDEAN, grading, budget=-1)
    for budget in (-1, -1.0, F(-1, 10 ** 400)):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            enumerate_polygons(1, WeightedL1(1, 1), budget)


def test_min_action_equals_toric_capacity():
    norm = WeightedL1(1, 1)
    for k in range(8, -1, -1):
        stratified = min_action_at_grading(norm, 2 * k)
        direct = toric_capacity(norm, k).value
        assert stratified.as_fraction() == direct.as_fraction()


def toric_records(norm, kmax):
    """Value reprs and witness vertices of every toric entry point."""
    records = [[repr(v) for v in capacities(ToricNorm(norm), kmax)]]
    for k in range(kmax + 1):
        result = toric_capacity(norm, k)
        records.append((repr(result.value), result.witness.vertices))
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
    monkeypatch.setattr(toric, "_toric_minima", toric_minima_oracle)
    assert got == toric_records(norm, kmax)


@pytest.mark.parametrize("norm, k", [
    *(pytest.param(EUCLIDEAN, k, id=f"euclidean-{k}") for k in (6, 12, 20, 30)),
    *(pytest.param(WeightedL1(a, b), k, id=f"l1:{a},{b}-{k}")
      for a, b in [(1, 1), (F(7, 3), 2), (F(3, 2), F(2, 3))] for k in (6, 25)),
    *(pytest.param(norm, k, id=f"{name}-{k}")
      for name, norm in [("hexagon", HEXAGON), ("skew", SKEW)] for k in (6, 14)),
    pytest.param(SKEW, 25, id="skew-25"),
])
def test_chain_cells_match_depth_first_cells(norm, k):
    budget = toric._initial_budget(norm, k)
    cells, tied = depth_first_cells(toric._Lengths(norm, budget), k + 1)
    table = flat_cells(toric._chain_cells(toric._Lengths(norm, budget), k + 1, None))
    # same keys, and per cell the same float or int length, nedges and picks
    assert table == {key: entry[:3] for key, entry in cells.items()}
    assert tied   # the order past the length is exercised


@pytest.mark.parametrize("k", [2, 6, 7, 12])
def test_chain_cells_keep_chains_that_meet_an_exact_budget(k):
    # at the budget c_k some chain plus its closing chord lands on the budget
    # itself, so the first-copy threshold keeps it only through its eps margin
    budget = toric_capacity(EUCLIDEAN, k).value
    cells, _ = depth_first_cells(toric._Lengths(EUCLIDEAN, budget), k + 1)
    table = toric._chain_cells(toric._Lengths(EUCLIDEAN, budget), k + 1, None)
    assert flat_cells(table) == {key: entry[:3] for key, entry in cells.items()}


def test_capacities_do_not_walk_every_chain(monkeypatch):
    chain_cells = toric._chain_cells

    def winners_only(*args, every=False):
        assert not every, "a capacity built every chain"
        return chain_cells(*args)

    monkeypatch.setattr(toric, "_chain_cells", winners_only)
    for norm in (EUCLIDEAN, WeightedL1(F(7, 3), 2), HEXAGON, SKEW):
        assert len(capacities(ToricNorm(norm), 10)) == 11
        assert toric_capacity(norm, 10).witness.lattice_point_count == 11


EVERY_CHAIN_NORMS = [("euclidean", EUCLIDEAN), ("l1:1,1", WeightedL1(1, 1)),
                     ("l1:7/3,2", WeightedL1(F(7, 3), 2)), ("hexagon", HEXAGON),
                     ("skew", SKEW)]


@pytest.mark.parametrize("norm, budget, max_count", [
    *(pytest.param(norm, toric._initial_budget(norm, k), k + 1, id=f"{name}-rect-{k}")
      for name, norm in EVERY_CHAIN_NORMS for k in (4, 12)),
    *(pytest.param(norm, 7.25, 13, id=f"{name}-float") for name, norm in EVERY_CHAIN_NORMS),
    # the exact budgets c_k, where some chain meets the budget exactly
    *(pytest.param(EUCLIDEAN, k, k + 1, id=f"euclidean-c{k}") for k in (2, 6, 12)),
])
def test_every_chain_matches_depth_first_walk(norm, budget, max_count):
    if isinstance(budget, int):
        budget = toric_capacity(EUCLIDEAN, budget).value
    table = toric._chain_cells(toric._Lengths(norm, budget), max_count, None,
                                 every=True)
    got = sorted((sx, sy, w, length, nedges, picks)
                 for (sx, sy), group in table.items()
                 for length, nedges, picks, w in group.values())
    walk = sorted((dx, dy, w, length, nedges, picks)
                  for dx, dy, (length, nedges, picks, w) in depth_first_chains(
                      toric._Lengths(norm, budget), max_count))
    # the same chains, each once, with float lengths equal bit for bit
    assert got == walk
    assert [float(x[3]).hex() for x in got] == [float(x[3]).hex() for x in walk]
    assert len({x[5] for x in got}) == len(got) > 0


def sweep_order(lengths, max_count):
    """The chains of depth_first_chains in the order the chain-cell DP
    creates them, as displacement -> picks: per direction, over the
    displacements by decreasing (y, x), each chain of one (in its creation
    order) takes 1, 2, ... copies while the walk has them."""
    found = {picks: (dx, dy) for dx, dy, (_, _, picks, _)
             in depth_first_chains(lengths, max_count)}
    groups = {(0, 0): [()]}
    for px, py in toric._upper_directions(lengths):
        for s in sorted(groups, key=lambda s: (s[1], s[0]), reverse=True):
            for picks in groups[s]:
                c = 1
                while (chain := picks + ((px, py, c),)) in found:
                    groups.setdefault(found[chain], []).append(chain)
                    c += 1
    return groups


# thin unit balls, whose displacements reach the edge of lengths.box (the
# displacement grid spans its double), and the usual five
GRID_NORMS = [("l1:1,9", WeightedL1(1, 9)), ("l1:9,1", WeightedL1(9, 1)),
              ("diagonal", DIAGONAL), *EVERY_CHAIN_NORMS]


@pytest.mark.parametrize("every", [False, True], ids=["winners", "every"])
@pytest.mark.parametrize("name, norm", GRID_NORMS, ids=[n for n, _ in GRID_NORMS])
def test_chain_cells_on_the_grid_match_depth_first_walk(name, norm, every):
    # the same displacements in (y, x) order, the same cells and entries
    # (with every set, each displacement's chains in the sweep's order), and
    # the same float bits, at k <= 1 and at the grid's edge too
    at_edge = 0
    for k in (0, 1, 2, 8):
        for budget in (toric._initial_budget(norm, k), 3, 7.25):
            lengths = toric._Lengths(norm, budget)
            (bx, by), max_count = lengths.box, k + 1
            table = toric._chain_cells(lengths, max_count, None, every=every)
            order = sweep_order(lengths, max_count)
            assert list(table) == sorted(order, key=lambda s: (s[1], s[0])), (k, budget)
            at_edge += any(abs(sx) == bx > 0 or sy == by > 0 for sx, sy in table)
            if every:
                walk = {entry[2]: (dx, dy, entry)
                        for dx, dy, entry in depth_first_chains(lengths, max_count)}
                for s, group in table.items():
                    assert list(group) == list(range(len(group)))
                    got = [(*s, entry) for entry in group.values()]
                    assert got == [walk[picks] for picks in order[s]]
                    assert [float(x[2][0]).hex() for x in got] == \
                        [float(walk[picks][2][0]).hex() for picks in order[s]]
            else:
                cells, _ = depth_first_cells(lengths, max_count)
                flat = flat_cells(table)
                assert flat == {key: entry[:3] for key, entry in cells.items()}
                assert [float(flat[key][0]).hex() for key in flat] == \
                    [float(cells[key][0]).hex() for key in flat]
    assert at_edge   # some table reaches the edge of lengths.box


@pytest.mark.parametrize("name, norm", EVERY_CHAIN_NORMS, ids=[n for n, _ in EVERY_CHAIN_NORMS])
def test_every_chain_turns_left_at_each_pick(name, norm):
    # a direction's sweep never reaches the copies it made, so no chain
    # takes one direction twice: picks are in strictly increasing angle
    for k in range(9):
        for budget in (toric._initial_budget(norm, k), 7.25):
            table = toric._chain_cells(toric._Lengths(norm, budget), k + 1, None,
                                         every=True)
            for group in table.values():
                for _, _, picks, _ in group.values():
                    assert all(ax * by - ay * bx > 0 for (ax, ay, _), (bx, by, _)
                               in zip(picks, picks[1:])), (k, budget, picks)


@pytest.mark.parametrize("a, b", [(1, 1), (F(7, 3), 2)], ids=["1,1", "7/3,2"])
def test_weighted_l1_matches_polydisk_at_60(a, b):
    assert searched(WeightedL1(a, b), 60) == polydisk_capacities(a, b, 60)


def test_weighted_l1_search_matches_polydisk_seeded():
    # sizes drawn as the bench draws them: a third over a prime 11..97, the
    # rest over 1..9, with aspect ratios up to 10 in either order
    rng = random.Random(34)
    small, large = range(1, 10), [q for q in range(11, 98)
                                  if all(q % p for p in range(2, 10))]

    def size(lo, hi):
        while True:
            q = rng.choice(large) if rng.random() < 1 / 3 else rng.choice(small)
            plo, phi = max(1, math.ceil(lo * q)), math.floor(hi * q)
            if plo <= phi:
                return F(rng.randint(plo, phi), q)

    for _ in range(40):
        a = size(1 / 2, 2)
        b = size(float(a), 10 * float(a))
        a, b = (a, b) if rng.random() < 0.5 else (b, a)
        assert searched(WeightedL1(a, b), 30) == polydisk_capacities(a, b, 30), \
            (a, b)


def test_weighted_l1_capacities_read_the_polydisk_kernel():
    # no search runs, so not even a node limit of 0 stops it
    seq = capacities(ToricNorm(WeightedL1(F(7, 3), 2)), 10_000, node_limit=0)
    assert seq == polydisk_capacities(F(7, 3), 2, 10_000)


def test_diamond_matches_weighted_l1():
    diamond = Polygonal(((1, 0), (0, 1), (-1, 0), (0, -1)))
    assert capacities(ToricNorm(diamond), 30) == \
        searched(WeightedL1(2, 2), 30) == polydisk_capacities(2, 2, 30)


def test_euclidean_50_fits_the_default_node_limit(monkeypatch):
    monkeypatch.delenv("ECHCAP_NODE_LIMIT", raising=False)
    seq = list(capacities(ToricNorm(EUCLIDEAN), 50))
    assert len(seq) == 51
    assert all(x.compare(y) <= 0 for x, y in zip(seq, seq[1:]))


def test_euclidean_50_needs_few_transitions():
    # the chain-cell table skips the (displacement, direction) pairs whose
    # first copy cannot fit before trying them, at the octagon budget: about
    # 85.1 k nodes at k = 50
    assert len(capacities(ToricNorm(EUCLIDEAN), 50, node_limit=90_000)) == 51
    # and each direction walks only the chains made before it: about 16.8 k
    # nodes at k = 30
    assert len(capacities(ToricNorm(EUCLIDEAN), 30, node_limit=17_000)) == 31
    # the 13.8 k copies tried there alone fit 14 k nodes, but the 3.1 k table
    # entries that fail the weight or length test are looked at and counted
    # too, so the limit bounds that work as well
    with pytest.raises(ToricEnumerationBudgetExceeded):
        capacities(ToricNorm(EUCLIDEAN), 30, node_limit=14_000)


def test_euclidean_key_is_exact_equality():
    key = toric._Lengths(EUCLIDEAN, 10).key
    assert key(((3, 4, 1),)) == key(((1, 0, 5),))    # both 5
    assert key(((2, 2, 1),)) == key(((1, 1, 2),))    # both 2 sqrt 2
    assert key(((1, 7, 1),)) == key(((1, 1, 5),)) != key(((1, 0, 7),))


def test_euclidean_keys_agree_with_exact_sign():
    lengths = toric._Lengths(EUCLIDEAN, 10)
    dirs = [(1, 0), (0, 1), (1, 1), (2, 2), (1, 2), (2, 1), (3, 4), (1, 7), (5, 5)]
    rng = random.Random(5)
    seen = set()
    for _ in range(400):
        picks1, picks2 = (tuple((*rng.choice(dirs), rng.randint(1, 3))
                                for _ in range(rng.randint(1, 3))) for _ in range(2))
        equal = lengths.key(picks1) == lengths.key(picks2)
        exact1, exact2 = capacity_value_exact(picks1), capacity_value_exact(picks2)
        sign = values._sign(exact1._terms(), exact2._terms())
        assert equal == (sign == 0), (picks1, picks2)
        seen.add(equal)
    assert seen == {True, False}


def test_euclidean_exact_fields_match_capacity_value_arithmetic():
    # _euclidean replays the float operations of CapacityValue arithmetic,
    # so the values it builds repeat its reprs and values, with the pair's
    # radicand key as their exact form
    lengths = toric._Lengths(EUCLIDEAN, 10)
    dirs = [(1, 0), (0, 1), (3, 4), (2, 2), (1, 7), (1, 1), (2, 1), (5, 12)]
    rng = random.Random(11)
    seen = set()
    for _ in range(400):
        picks1, picks2 = (tuple((*rng.choice(dirs), rng.randint(1, 7))
                                for _ in range(rng.randint(0, 4))) for _ in range(2))
        for other in ((), picks2):
            got = lengths.value((0.0, 0, picks1, 0), (0.0, 0, other, 0))
            want = capacity_value_exact(picks1) + capacity_value_exact(other)
            assert repr(got) == repr(want) and got == want, (picks1, other)
            assert got.is_exact or got._terms() == lengths.key(picks1 + other), \
                (picks1, other)
            seen.add(got.is_exact)
    assert seen == {True, False}


def test_euclidean_compare_decides_unequal_keys_exactly(monkeypatch):
    lengths = toric._Lengths(EUCLIDEAN, 10)
    # equal floats, unequal keys: 5 > 3 sqrt 2, though (1, 0) picks first
    five, root18 = (5.0, 1, ((1, 0, 5),)), (5.0, 1, ((1, 1, 3),))
    assert (lengths.compare(five, root18), lengths.compare(root18, five)) == (1, -1)

    # equal keys are ordered by nedges, then picks, with no exact value built
    def refuse(*args):
        raise AssertionError("an exact value was built for equal keys")

    monkeypatch.setattr(toric, "_euclidean", refuse)
    assert lengths.compare((5.0, 1, ((3, 4, 1),)), (5.0, 2, ((1, 0, 5),))) == -1
    assert lengths.compare((5.0, 1, ((3, 4, 1),)), (5.0, 1, ((1, 0, 5),))) == 1


def square_free_key(edges):
    """{r: coefficient} of sum c |(px, py)| over edges (px, py, c), each
    px^2 + py^2 = s^2 r with r square-free found by stripping prime squares,
    as sorted pairs (r, c s)."""
    coef = {}
    for px, py, c in edges:
        r, s, p = px * px + py * py, 1, 2
        while p * p <= r:
            while r % (p * p) == 0:
                r, s = r // (p * p), s * p
            p += 1
        coef[r] = coef.get(r, 0) + c * s
    return tuple(sorted(coef.items()))


def test_euclidean_values_are_their_pairs_radicand_keys():
    # an irrational Euclidean c_k carries as its exact form the key of its
    # winning pair, which is that of its witness's edges: strictly
    # increasing square-free radicands with positive int coefficients
    seq = capacities(ToricNorm(EUCLIDEAN), 30)
    minima = toric._toric_minima(EUCLIDEAN, 30, None)
    irrational = 0
    for k in range(31):
        value, ((_, _, picks1, _), (_, _, picks2, _)) = minima[k]
        single = toric_capacity(EUCLIDEAN, k)
        assert repr(seq[k]) == repr(value) == repr(single.value), k
        if value.is_exact:
            continue
        irrational += 1
        witness_key = square_free_key([(dx, dy, 1) for dx, dy in single.witness.edges])
        for got in (seq[k], single.value):
            terms = got._terms()
            assert terms == square_free_key(picks1 + picks2) == witness_key, k
            assert all(r1 < r2 for (r1, _), (r2, _) in zip(terms, terms[1:])), k
            assert all(type(q) is int and q > 0 for _, q in terms), k
            assert all(r % (d * d) for r, _ in terms for d in range(2, math.isqrt(r) + 1)), k
    assert irrational > 20


def crafted_minimum(lengths, pairs):
    """(value, witness) of the one bucket of _pair_buckets over a table that
    holds the entries of the given pairs, each pair keyed to that bucket."""
    table = {(0, 0): {i: entry for i, entry in enumerate(
        dict.fromkeys(entry for pair in pairs for entry in pair))}}
    near = toric._pair_buckets(lengths, table, 7, lambda count, entry1, entry2: (
        7 if (entry1, entry2) in pairs or (entry2, entry1) in pairs else None))
    value, pair = toric._minima(lengths, near)[7]
    return value, toric._witness(*pair)


def test_minima_decide_unequal_keys_exactly():
    # crafted table entries (length, nedges, picks, weight) with equal floats
    lengths = toric._Lengths(EUCLIDEAN, 20)
    five, four_root2 = (5.0, 1, ((1, 0, 5),), 3), (5.0, 1, ((1, 1, 4),), 3)
    square, two = (2.0, 2, ((1, 0, 1), (0, 1, 1)), 1), (2.0, 1, ((1, 0, 2),), 1)
    up = (2.0, 1, ((0, 1, 2),), 1)
    for pairs, value, vertices in [
            # lengths 8 sqrt 2 and 10: the keys differ, so the bucket compares
            # exact values before edges or witnesses
            ([(four_root2, four_root2), (five, five)], 10, ((0, 0), (5, 0))),
            # the unit square and a segment, both of length 4: the pair with
            # fewer edges wins though it comes second
            ([(square, square), (two, two)], 4, ((0, 0), (2, 0))),
            # two segments of length 4 and 2 edges: the least edge lists win,
            # ((0, 1, 2),) before ((1, 0, 2),)
            ([(two, two), (up, up)], 4, ((0, 0), (0, 2)))]:
        best, witness = crafted_minimum(lengths, pairs)
        assert best.compare(CapacityValue.exact(value)) == 0, pairs
        assert witness.vertices == vertices, pairs
    # a rational bucket keeps one of the two segments of length 4, the one
    # with the least edge lists, and its witness
    lengths = toric._Lengths(WeightedL1(2, 2), 20)
    two, up = (2, 1, ((1, 0, 2),), 1), (2, 1, ((0, 1, 2),), 1)
    assert toric._minima(lengths, toric._pair_buckets(
        lengths, {(0, 0): {0: two, 1: up}}, 2, lambda count, entry1, entry2: (
            2 if entry1 is entry2 else None)))[2][1] == (up, up)
    best, witness = crafted_minimum(lengths, [(two, two), (up, up)])
    assert (best.as_fraction(), witness.vertices) == (4, ((0, 0), (0, 2)))


def lattice_points(poly):
    """Every lattice point of a polygon, segment or point."""
    verts = poly.vertices
    if len(verts) <= 2:
        (ax, ay), (bx, by) = verts[0], verts[-1]
        g = max(1, math.gcd(bx - ax, by - ay))
        return [(ax + t * (bx - ax) // g, ay + t * (by - ay) // g)
                for t in range(g + 1 if verts[0] != verts[-1] else 1)]
    xs, ys = [x for x, _ in verts], [y for _, y in verts]
    edges = list(zip(verts, verts[1:] + verts[:1]))
    return [(x, y) for x in range(min(xs), max(xs) + 1) for y in range(min(ys), max(ys) + 1)
            if all((bx - ax) * (y - ay) >= (by - ay) * (x - ax)
                   for (ax, ay), (bx, by) in edges)]


def hull(points):
    """Vertices of the convex hull, counterclockwise (monotone chain)."""
    points = sorted(set(points))
    if len(points) <= 2:
        return points

    def half(seq):
        out = []
        for x, y in seq:
            while len(out) >= 2 and (out[-1][0] - out[-2][0]) * (y - out[-2][1]) <= \
                    (out[-1][1] - out[-2][1]) * (x - out[-2][0]):
                out.pop()
            out.append((x, y))
        return out
    return half(points)[:-1] + half(reversed(points))[:-1]


@pytest.mark.parametrize("norm", [EUCLIDEAN, WeightedL1(F(7, 3), 2), HEXAGON, SKEW],
                         ids=["euclidean", "l1:7/3,2", "hexagon", "skew"])
def test_dropping_a_vertex_loses_one_point_and_no_length(norm):
    # the lemma behind the pairing walk's cut at the least perimeter of
    # kmax + 1 points: every smaller count has a polygon no longer
    budget = toric._initial_budget(norm, 6)
    dropped = 0
    for target in range(2, 8):
        for poly in enumerate_polygons(target, norm, budget):
            points = lattice_points(poly)
            assert len(points) == target == poly.lattice_point_count
            for v in poly.vertices:
                smaller = LatticePolygon.from_vertices(hull(p for p in points if p != v))
                assert smaller.lattice_point_count == target - 1, (poly, v)
                assert perimeter(smaller, norm).compare(perimeter(poly, norm)) <= 0
                dropped += 1
    assert dropped > 100


@pytest.mark.parametrize("norm", [EUCLIDEAN, WeightedL1(F(7, 3), 2), HEXAGON, SKEW],
                         ids=["euclidean", "l1:7/3,2", "hexagon", "skew"])
def test_capacities_are_nondecreasing_to_30(norm):
    seq = list(capacities(ToricNorm(norm), 30))
    assert all(x.compare(y) <= 0 for x, y in zip(seq, seq[1:]))


def test_capacities_build_no_polygon(monkeypatch):
    norms = (EUCLIDEAN, WeightedL1(F(7, 3), 2), HEXAGON)
    expected = [capacities(ToricNorm(norm), 15) for norm in norms]

    def refuse(upper, lower):
        raise AssertionError("a polygon was built")

    monkeypatch.setattr(toric, "_polygon_from_pair", refuse)
    assert [capacities(ToricNorm(norm), 15) for norm in norms] == expected
    for norm in norms:
        with pytest.raises(AssertionError, match="a polygon was built"):
            toric_capacity(norm, 15)


def chains(poly):
    """A polygon's two chains as picks (px, py, g), g the gcd, in angular
    order: its edges with y > 0, or y = 0 and x > 0, and the negations of
    the others."""
    upper, lower = [], []
    for x, y in poly.edges:
        g = math.gcd(x, y)
        if y > 0 or y == 0 and x > 0:
            upper.append((x // g, y // g, g))
        else:
            lower.append((-x // g, -y // g, g))
    return tuple(tuple(sorted(chain, key=lambda p: math.atan2(p[1], p[0])))
                 for chain in (upper, lower))


@pytest.mark.parametrize("norm", [EUCLIDEAN, WeightedL1(F(7, 3), 2), HEXAGON, SKEW,
                                  DIAGONAL, BENCH_POLYGONS[2]],
                         ids=["euclidean", "l1:7/3,2", "hexagon", "skew", "diagonal",
                              "bench-poly2"])
def test_witness_is_the_rule_least_over_complete_enumeration(norm):
    # the witness is the least minimizer by (edges, min chain, max chain),
    # then _preference between its two closings, over every minimizer
    def rule(poly):
        upper, lower = chains(poly)
        return len(poly.edges), min(upper, lower), max(upper, lower), \
            toric._preference(poly)

    for k in range(16):
        result = toric_capacity(norm, k)
        pool = enumerate_polygons(k + 1, norm, result.value)
        assert result.witness == min(pool, key=rule), k


@pytest.mark.parametrize("norm, kmax", [
    pytest.param(EUCLIDEAN, 20, id="euclidean"),
    *(pytest.param(WeightedL1(a, b), 20, id=f"l1:{a},{b}")
      for a, b in [(1, 1), (2, 1), (F(3, 2), F(2, 3)), (F(7, 3), 2), (1, 4)]),
    *(pytest.param(norm, 14, id=name) for name, norm in [
        ("hexagon", HEXAGON), ("skew", SKEW), ("diagonal", DIAGONAL),
        *((f"bench-poly{i}", poly) for i, poly in enumerate(BENCH_POLYGONS))]),
])
def test_pairing_walk_matches_all_pairs_oracle(norm, kmax):
    assert [repr(v) for v in capacities(ToricNorm(norm), kmax)] == \
        [repr(value) for value, _ in all_pairs_toric(norm, kmax)]
    for k in range(kmax + 1):
        # each k at its own budget, with its own cut
        value, witness = all_pairs_toric(norm, k)[k]
        result = toric_capacity(norm, k)
        assert (repr(result.value), result.witness) == (repr(value), witness), k
        assert repr(min_action_at_grading(norm, 2 * k)) == \
            repr(all_pairs_min_action(norm, 2 * k)), k
    for budget in (4.9, 6, toric._initial_budget(norm, 5), toric_capacity(norm, 6).value):
        for target in range(1, 8):
            assert enumerate_polygons(target, norm, budget) == \
                all_pairs_polygons(target, norm, budget), (budget, target)


def test_upper_directions_check_the_float_angle_order(monkeypatch):
    lengths = toric._Lengths(EUCLIDEAN, 10)
    monkeypatch.setattr(toric.math, "atan2", lambda y, x: 0.0)
    with pytest.raises(RuntimeError, match="misordered"):
        toric._upper_directions(lengths)


@pytest.mark.parametrize("a, b", [
    (F(1), 1 + F(1, 10 ** 20)),
    (1 + F(1, 10 ** 20), F(1)),
    (F(3, 2), F(3, 2) + F(1, 10 ** 11)),
], ids=["1,1+1e-20", "1+1e-20,1", "3/2,3/2+1e-11"])
def test_near_ties_below_float_resolution(a, b):
    # the weights differ by less than a float can tell (or by less than eps),
    # so only the exact comparison inside the eps window picks the minimum
    assert searched(WeightedL1(a, b), 20) == polydisk_capacities(a, b, 20)


@pytest.mark.parametrize("norm", [EUCLIDEAN, WeightedL1(F(1, 10), 7),
                                  BENCH_POLYGONS[2]],
                         ids=["euclidean", "l1:1/10,7", "bench-poly2"])
def test_upper_directions_match_wide_box(norm):
    budgets = [0, F(1, 20), 1, F(7, 3), 6.5]
    budgets += [toric._initial_budget(norm, k) for k in (1, 4, 9)]
    for budget in budgets:
        lengths = toric._Lengths(norm, budget)
        # every unit ball here lies in |x|, |y| <= 20, so this box is wide
        w = int(20 * lengths.budget_f) + 2
        brute = [(x, y) for y in range(0, w + 1) for x in range(-w, w + 1)
                 if (y > 0 or x > 0) and math.gcd(x, y) == 1
                 and 2 * lengths.f(x, y) <= lengths.limit]
        brute.sort(key=lambda v: math.atan2(v[1], v[0]))
        assert toric._upper_directions(lengths) == brute, budget


@pytest.mark.parametrize("norm, k", [
    (WeightedL1(F(3, 2), F(2, 3)), 5), (BENCH_POLYGONS[2], 4), (HEXAGON, 6),
    (EUCLIDEAN, 5),
], ids=["l1:3/2,2/3", "bench-poly2", "hexagon", "euclidean"])
def test_budget_at_a_perimeter_is_inclusive(norm, k):
    result = toric_capacity(norm, k)
    perim = result.value

    def found(budget):
        return result.witness in enumerate_polygons(k + 1, norm, budget)

    p = perim.value
    assert found(perim) and found(p)
    assert found(p * (1 + 1e-12)) and found(p * (1 - 1e-12))
    assert not found(p * (1 - 1e-6))
    if perim.is_exact:
        # exact budgets are compared exactly
        P = perim.frac
        assert found(P) and found(P * (1 + F(1, 10 ** 12)))
        assert not found(P * (1 - F(1, 10 ** 12)))
        assert not found(P * (1 - F(1, 10 ** 6)))


@pytest.mark.parametrize("target, norm, budget", [
    # just below 2 + sqrt(2), the least perimeter of a 3-point polygon
    (3, EUCLIDEAN, CapacityValue.sqrt_rational(
        F(float(2 + math.sqrt(2))) ** 2 - F(1, 10 ** 11))),
    # just below 4, the perimeter of 24 of the 4-point polygons
    (4, WeightedL1(1, 1), CapacityValue.sqrt_rational(16 - F(1, 10 ** 12))),
    # below 4 by less than a float resolves: its float is 4.0
    (4, WeightedL1(1, 1), CapacityValue.sqrt_rational(16 - F(1, 10 ** 30))),
], ids=["euclidean", "l1:1,1", "l1:1,1-float-rounds-up"])
def test_sum_of_roots_budget_is_compared_exactly(target, norm, budget):
    found = enumerate_polygons(target, norm, budget)
    assert all(perimeter(poly, norm).compare(budget) <= 0 for poly in found)
    # some perimeter lies above the budget but within the float budget's slack
    assert len(enumerate_polygons(target, norm, budget.value)) > len(found)
    # the least generator action at the grading of target points fits too
    try:
        least = min_action_at_grading(norm, 2 * (target - 1), budget)
    except RuntimeError:
        pass
    else:
        assert least.compare(budget) <= 0


def test_min_action_budget_is_compared_exactly():
    exact = CapacityValue.exact(2) + CapacityValue.sqrt_rational(2)
    below = CapacityValue.sqrt_rational(
        F(float(2 + math.sqrt(2))) ** 2 - F(1, 10 ** 11))
    assert below.compare(exact) < 0
    with pytest.raises(RuntimeError, match="no generator of grading 4"):
        min_action_at_grading(EUCLIDEAN, 4, budget=below)
    assert min_action_at_grading(EUCLIDEAN, 4, budget=exact).compare(exact) == 0


@pytest.mark.parametrize("norm, kmax", [
    pytest.param(EUCLIDEAN, 20, id="euclidean"),
    *(pytest.param(norm, 14, id=name) for name, norm in [
        ("euclidean-14", EUCLIDEAN), ("l1:7/3,2", WeightedL1(F(7, 3), 2)),
        ("hexagon", HEXAGON), ("skew", SKEW), ("diagonal", DIAGONAL),
        *((f"bench-poly{i}", poly) for i, poly in enumerate(BENCH_POLYGONS))]),
])
def test_toric_minima_at_the_budget_c_kmax_keeps_the_same_pairs(norm, kmax):
    # every chain of the rule's least pairs fits under any budget >= c_kmax,
    # so searches at the least rectangle, at the octagon of _initial_budget
    # and at c_kmax keep the same pairs; just below c_kmax, a search leaves
    # the kmax + 1 bucket empty (and any count of the same least perimeter)
    rectangle = toric._toric_minima(norm, kmax, None, least_rectangle(norm, kmax))
    least = rectangle[-1][0]
    for budget in (None, least):
        other = toric._toric_minima(norm, kmax, None, budget)
        assert [pair for _, pair in other] == [pair for _, pair in rectangle]
        assert [repr(value) for value, _ in other] == \
            [repr(value) for value, _ in rectangle]
    with pytest.raises(RuntimeError, match="no polygon with"):
        toric._toric_minima(norm, kmax, None, least.scaled(F(10 ** 9 - 1, 10 ** 9)))


@pytest.mark.parametrize("norm", [WeightedL1(F(7, 3), 2), SKEW], ids=["l1:7/3,2", "skew"])
def test_min_action_at_grading_reads_the_capacity_search_at_its_budget(norm):
    for k in range(15):
        least = toric_capacity(norm, k).value
        assert repr(min_action_at_grading(norm, 2 * k, least)) == repr(least), k
        if k:   # c_0 = 0, and grading 0 visits no node
            below = CapacityValue.exact(least.as_fraction() - F(1, 10 ** 9))
            with pytest.raises(RuntimeError, match=f"no generator of grading {2 * k} "):
                min_action_at_grading(norm, 2 * k, below)
            with pytest.raises(ToricEnumerationBudgetExceeded) as info:
                min_action_at_grading(norm, 2 * k, node_limit=1)
            assert info.value.max_count == k + 1


TIGHT = range(25)   # the k <= 24 where the octagon budget is c_k


@pytest.mark.parametrize("norm, tight", [
    (EUCLIDEAN, set(TIGHT) - {19, 24}),
    *((WeightedL1(a, b), TIGHT) for a, b in
      [(1, 1), (F(7, 3), 2), (F(3, 2), F(2, 3)), (F(1, 10), 7), (1, 4)]),
    (HEXAGON, TIGHT), (SKEW, ()), (BENCH_POLYGONS[0], TIGHT), (BENCH_POLYGONS[1], TIGHT),
    (BENCH_POLYGONS[2], ()), (DIAGONAL, ()),
], ids=["euclidean", "l1:1,1", "l1:7/3,2", "l1:3/2,2/3", "l1:1/10,7", "l1:1,4",
        "hexagon", "skew", "bench-poly0", "bench-poly1", "bench-poly2", "diagonal"])
def test_initial_budget_is_the_least_rectangle(norm, tight):
    # the budget is the perimeter of a polygon with at least k+1 points, so
    # at least c_k, and at most the least rectangle, compared exactly; at
    # the ks of tight the octagon is a minimizer
    seq = capacities(ToricNorm(norm), 30)
    for k in range(31):
        polygon, budget = toric._budget_polygon(norm, k), toric._initial_budget(norm, k)
        assert polygon.lattice_point_count >= k + 1, k
        assert repr(perimeter(polygon, norm)) == repr(budget), k
        assert seq[k].compare(budget) <= 0 <= least_rectangle(norm, k).compare(budget), k
        if k in tight:
            assert budget == seq[k], k


@pytest.mark.parametrize("norm", [EUCLIDEAN, SKEW, HEXAGON, WeightedL1(F(7, 3), 2),
                                  WeightedL1(1, 4)],
                         ids=["euclidean", "skew", "hexagon", "l1:7/3,2", "l1:1,4"])
def test_initial_budget_is_a_polydisk_capacity(norm):
    # toric(l1:a,b) is P(a, b): the least rectangle is c_k(P(2|e1|, 2|e2|)),
    # which an octagon budget meets for l1 norms and can only undercut else
    ux, uy = norm.length((1, 0)).as_fraction(), norm.length((0, 1)).as_fraction()
    seq = polydisk_capacities(2 * ux, 2 * uy, 300)
    for k in range(301):
        order = toric._initial_budget(norm, k).compare(seq[k])
        assert order == 0 if isinstance(norm, WeightedL1) else order <= 0, k


@pytest.mark.parametrize("norm", [EUCLIDEAN, WeightedL1(1, 1), HEXAGON],
                         ids=["euclidean", "l1:1,1", "hexagon"])
def test_a_coarse_exact_budget_is_read_as_the_exact_one(norm):
    # sqrt 65 carried with a coarse float 7.9 +/- 0.2: the search must read
    # it as sqrt_rational(65) does, not as its float
    coarse = CapacityValue(None, 7.9, 0.2, ((65, 1),))
    exact = CapacityValue.sqrt_rational(65)
    for target in (5, 7, 9):
        assert enumerate_polygons(target, norm, coarse) == \
            enumerate_polygons(target, norm, exact), target
    for grading in (8, 14, 16):
        assert min_action_at_grading(norm, grading, coarse) == \
            min_action_at_grading(norm, grading, exact), grading


@pytest.mark.parametrize("err", [0.2, 2, 20, 200])
def test_a_coarse_exact_budget_searches_to_its_own_float(err):
    # sqrt 65 = 8.062... carried as 7.9 +/- err: the search runs to the float
    # of its terms, not to 7.9 + 2 err, which at err 200 ran past the node
    # limit; the budget it reports is that float too
    coarse = CapacityValue(None, 7.9, err, ((65, 1),))
    start = time.perf_counter()
    found = enumerate_polygons(7, EUCLIDEAN, coarse)
    assert time.perf_counter() - start < 0.05
    assert len(found) == 78
    assert found == enumerate_polygons(7, EUCLIDEAN, CapacityValue.sqrt_rational(65))
    with pytest.raises(ToricEnumerationBudgetExceeded) as info:
        enumerate_polygons(7, EUCLIDEAN, coarse, node_limit=1)
    assert info.value.budget == math.sqrt(65)
