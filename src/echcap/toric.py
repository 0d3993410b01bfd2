"""Length-minimizing enumeration of convex lattice polygons.

The search engine represents a convex polygon as an angle-sorted multiset of
edge vectors (primitive direction x multiplicity) summing to zero, split into
two chains of equal displacement; the point pairs two empty chains.  One
dynamic program over the edge directions builds the chains: capacities,
toric_capacity and min_action_at_grading keep the least chain of each
(displacement, weight) cell, and enumerate_polygons keeps every chain and
visits each canonical polygon within the perimeter budget exactly once.  One
walk pairs each displacement's chains by length up to the least perimeter of
the largest count.  A Euclidean length is exact as its radicand key.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cmp_to_key
from math import gcd
from typing import Callable, Dict, List, Optional, Tuple

from .errors import ToricEnumerationBudgetExceeded
from .lattice import (IntPoint, Length, LatticePolygon, Norm, _canonical, _euclidean,
                      _radicand_key, perimeter, resolve_node_limit)
from .values import (CapacityValue, Record, _count, _integer, _sign, _squarefree,
                     _staircase, as_fraction)

# a chain of the search: (length, nedges, picks, weight), see _chain_cells
Entry = Tuple[Length, int, tuple, int]
# a bucket's value and its cheapest chain pair
Winner = Tuple[CapacityValue, Tuple[Entry, Entry]]


class _Lengths:
    """The length arithmetic of one search, from the norm's _lengths() hook.

    For a rational norm (weighted L1, polygonal) a length is an int over the
    norm's common denominator and eps is 0, so every window of the search is
    an exact comparison.  Euclidean lengths are floats, with windows eps =
    slack = 10^-9 of the budget wide (far above the float error), and a
    pair's exact value is built by _euclidean from its radicand key.  One
    boundary rule serves every norm: an exact budget whose float is off by
    at most its err sets the limit at that float plus band = max(slack,
    2 err), and the pairing walk tests each pair from exact_from = the
    float minus band up against the budget itself.  A budget whose err is
    wider than the slack is first rebuilt from its own terms, so a coarse
    float searches no further than the exact one.  A rational budget on a
    rational norm needs no test: its limit is floor(budget * den).  A float
    budget (or an approx() CapacityValue) has no exact form and keeps the
    slack.  radicals(x, y) = (r, s) with x^2 + y^2 = s^2 r, r square-free,
    is cached for this search only: each (x, y) is split once per search.
    """

    def __init__(self, norm: Norm, budget):
        if isinstance(budget, float):
            budget = CapacityValue(None, budget, 0.0)
        elif not isinstance(budget, CapacityValue):
            frac = as_fraction(budget)   # a negative one fails below, however large
            budget = CapacityValue(frac, float(max(frac, 0)), 0.0)
        if not math.isfinite(budget.value):
            raise ValueError("length budget must be finite")
        if (budget.value if budget.frac is None else budget.frac) < 0:
            raise ValueError("length budget must be >= 0")
        self.budget = budget if budget._terms() is not None else None
        exact = self.budget is not None
        if exact and self.budget.err > 1e-9 * max(1.0, float(budget)):
            # a coarse float: rebuilt from the budget's own terms
            budget = self.budget = sum(
                (CapacityValue.sqrt_rational(n).scaled(q) for n, q in budget._terms()),
                CapacityValue.exact(0))
        self.budget_f = float(budget)
        self.den, self.f = norm._lengths()
        slack = 1e-9 * max(1.0, self.budget_f)
        band = max(slack, 2 * self.budget.err) if exact else slack
        self.exact_from = (self.budget_f - band) * (self.den or 1) if exact else math.inf
        if self.den is None:
            self.eps, self.limit = slack, self.budget_f + band
            self.radicals = cache(lambda x, y: _squarefree(x * x + y * y))
        elif exact and self.budget.is_exact:   # floored: no pair needs the test
            self.eps, self.limit = 0, math.floor(self.budget.frac * self.den)
            self.exact_from = math.inf
        else:
            self.eps, self.limit = 0, math.floor(Fraction(self.budget_f + band) * self.den)
        # box: |x| <= bx and |y| <= by where 2|v| <= limit, by the dual norms of
        # the axes (max |x| and max |y| on the unit ball)
        duals = (norm.dual_eval(e).as_fraction() for e in ((1, 0), (0, 1)))
        self.box = tuple(int(self.limit * q / (2 * (self.den or 1))) for q in duals)

    def value(self, entry1: Entry, entry2: Entry) -> CapacityValue:
        """Exact perimeter of the polygon that pairs the two chains."""
        (length1, _, picks1, _), (length2, _, picks2, _) = entry1, entry2
        if self.den is not None:
            return CapacityValue.exact(Fraction(length1 + length2, self.den))
        return _euclidean(self.key(picks1 + picks2), picks1, picks2)

    def key(self, picks: tuple) -> tuple:
        """_radicand_key of a Euclidean chain or pair."""
        return _radicand_key(picks, self.radicals)

    @staticmethod
    def order(key1: tuple, key2: tuple) -> int:
        """Exact order of two Euclidean lengths given by their keys: equal
        keys are equal lengths, and unequal ones are compared exactly."""
        return 0 if key1 == key2 else _sign(key1, key2)

    def compare(self, entry1: Entry, entry2: Entry) -> int:
        """Order of two cell entries with Euclidean float lengths within eps:
        exact length, nedges, picks."""
        return self.order(self.key(entry1[2]), self.key(entry2[2])) or (
            (entry1[1:] > entry2[1:]) - (entry1[1:] < entry2[1:]))


def _upper_directions(lengths: _Lengths) -> List[IntPoint]:
    """Primitive vectors in the upper half-plane (y > 0, or y == 0 and x > 0)
    with twice their length within the limit, sorted by angle from (1, 0),
    searched over lengths.box."""
    f, limit, (bx, by) = lengths.f, lengths.limit, lengths.box
    dirs = [(x, y) for y in range(by + 1) for x in range(-bx, bx + 1)
            if (y or x > 0) and gcd(x, y) == 1 and 2 * f(x, y) <= limit]
    dirs.sort(key=lambda v: math.atan2(v[1], v[0]))
    if any(ax * cy - ay * cx <= 0 for (ax, ay), (cx, cy) in zip(dirs, dirs[1:])):
        raise RuntimeError("the float angle key misordered two directions")
    return dirs


def _polygon_from_pair(upper: Entry, lower: Entry) -> LatticePolygon:
    """Close an upper chain against the negation of another with the same
    displacement.  Both edge blocks are already in increasing angular order;
    two empty chains close to the point."""
    (_, _, upper_picks, _), (_, _, lower_picks, _) = upper, lower
    verts = []
    x = y = 0
    for px, py, c in upper_picks:
        verts.append((x, y))
        x += px * c
        y += py * c
    for px, py, c in lower_picks:
        verts.append((x, y))
        x -= px * c
        y -= py * c
    assert (x, y) == (0, 0)
    return LatticePolygon(_canonical(verts or [(0, 0)]))


def _preference(poly: LatticePolygon):
    """Order of enumerate_polygons and of a pair's two closings: fewest
    vertices, then lexicographic vertices."""
    return (len(poly.vertices), poly.vertices)


def _pair_buckets(lengths: _Lengths, table, max_count: int,
                  key: Optional[Callable[[int, Entry, Entry], object]] = None
                  ) -> Dict[object, list]:
    """key -> [least length, [(length, entry1, entry2), ...]] of the pairs of
    two entries of one displacement of a _chain_cells table that close to
    polygons (either chain upper) of count = (weight1 + weight2) / 2 + 1 <=
    max_count lattice points within the budget.  key(count, entry1, entry2)
    names a pair's bucket, or None to skip it; by default the count.

    A bucket keeps the pairs within eps of its running least length (for the
    Euclidean norm a window far wider than the float error) and drops the
    rest before the exact budget test.  Entries are walked by length up to a
    cut: the limit, then the least of the bucket keyed max_count plus eps.
    For counts that is sound: a convex lattice polygon less a vertex has a
    hull of its other points with one point fewer and no longer perimeter."""
    eps, cut, exact_from = lengths.eps, lengths.limit, lengths.exact_from
    near: Dict[object, list] = {}
    for cells in table.values():
        entries = sorted(cells.values())
        for i, entry1 in enumerate(entries):
            length1, _, _, weight1 = entry1
            if length1 + length1 > cut:
                break
            for entry2 in entries[i:]:
                length = length1 + entry2[0]
                if length > cut:
                    break
                name = (weight1 + entry2[3]) // 2 + 1
                if name > max_count or key and (name := key(name, entry1, entry2)) is None:
                    continue
                bucket = near.get(name)
                if bucket is not None and length > bucket[0] + eps or length >= exact_from \
                        and lengths.value(entry1, entry2).compare(lengths.budget) > 0:
                    continue
                if bucket is None or length < bucket[0] - eps:
                    near[name] = bucket = [length, []]
                elif length < bucket[0]:
                    bucket[0] = length
                bucket[1].append((length, entry1, entry2))
                if name == max_count and bucket[0] + eps < cut:
                    cut = bucket[0] + eps
    return near


def enumerate_polygons(target_count: int, norm: Norm, length_budget,
                       node_limit: Optional[int] = None) -> List[LatticePolygon]:
    """All canonical convex lattice polygons enclosing exactly target_count
    lattice points with perimeter <= length_budget, sorted canonically.

    Points and segments are included: the point pairs two empty chains.  The
    enumeration is complete and duplicate-free: it pairs every chain of
    _chain_cells, each pair its own bucket, keyed by its picks, so the cut
    stays at the limit.  It raises ToricEnumerationBudgetExceeded, with the
    directions done, if building the chains needs more nodes than the
    configured limit.
    """
    target_count = _count(target_count, 1, "target_count")
    lengths = _Lengths(norm, length_budget)
    found = []
    table = _chain_cells(lengths, target_count, node_limit, every=True)
    for _, [(_, entry1, entry2)] in _pair_buckets(
            lengths, table, target_count, lambda count, entry1, entry2: (
                (entry1[2], entry2[2]) if count == target_count else None)).values():
        found.append(_polygon_from_pair(entry1, entry2))
        if entry2 is not entry1:
            found.append(_polygon_from_pair(entry2, entry1))
    found.sort(key=_preference)
    return found


# -- minimum perimeters ---------------------------------------------------------

def _witness(entry1: Entry, entry2: Entry) -> LatticePolygon:
    """The _preference-lesser of a chain pair's two closings, which are
    point reflections of each other."""
    return min(_polygon_from_pair(entry1, entry2), _polygon_from_pair(entry2, entry1),
               key=_preference)


def _minima(lengths: _Lengths, near: Dict[object, list]) -> Dict[object, Winner]:
    """key -> (value, pair) of each bucket of _pair_buckets: of its pairs of
    least exact length, the fewest edges, then the least sorted edge lists
    (min and max of the two picks); value is the pair's exact perimeter."""
    eps, minima = lengths.eps, {}
    for key, (least, pairs) in near.items():
        kept = [(entry1, entry2) for length, entry1, entry2 in pairs
                if length <= least + eps]
        if lengths.den is None and len(kept) > 1:
            keys = [lengths.key(entry1[2] + entry2[2]) for entry1, entry2 in kept]
            low = min(set(keys), key=cmp_to_key(lengths.order))   # least exact length
            kept = [pair for pair, k in zip(kept, keys) if k == low]
        pair = min(kept, key=lambda pair: (pair[0][1] + pair[1][1], *sorted(
            (pair[0][2], pair[1][2]))))
        minima[key] = (lengths.value(*pair), pair)
    return minima


def _chain_cells(lengths: _Lengths, max_count: int, node_limit: Optional[int],
                 every: bool = False
                 ) -> Dict[IntPoint, Dict[int, Entry]]:
    """(sx, sy) -> cell -> (length, nedges, picks, weight) of the upper-half
    convex chains, the empty chain at (0, 0) included, with length +
    |displacement| within the limit whose pairs can enclose at most
    max_count lattice points.  Any closed polygon of perimeter <= budget
    splits uniquely into such a chain and the negation of another one with
    the same displacement (the point into two empty chains).

    Dynamic programming: each direction p, in angular order, adds c >= 1
    copies of itself to the table's entries, the empty chain included, so a
    length is summed pick by pick.  A cell is a weight, and keeps the least
    chain in the order (exact length, nedges, picks): a copy adds
    sx*py - sy*px + 1 to the weight and f(p) to the length, both fixed by the
    cell, so that order survives every extension and the winners are those
    of a walk over every chain.  With every set each chain is its own cell,
    under a fresh key, and the table holds every chain.  Only entries under
    the first copy's length cap (raised by eps) and weight cap run the copy
    loop, none where the chord of s is over the former.  The node limit
    counts each entry looked at in a displacement not skipped, and each
    further copy tried on it.  A displacement is an int id on a grid, the box
    of lengths.box doubled plus one for float rounding, which holds each s + p
    read (s and p have chords <= limit / 2); lists by id hold cells, lazy
    chords and coordinates.  The id of s + p is that of s plus
    step = px + width * py > 0, so a direction walks its displacements by
    decreasing id: each group it reaches holds only chains made before p,
    and every copy lands on a group already walked.  The table is handed on
    in increasing id, which is (sy, sx) order."""
    node_cap = resolve_node_limit(node_limit)
    f, limit, eps = lengths.f, lengths.limit, lengths.eps
    # a chain with weight w pairs to a polygon of count >= (w + 1)/2 + 1
    weight_cap = 2 * max_count - 3
    # an edge vector e of a closed polygon satisfies 2|e| <= perimeter
    dirs, (bx, by) = _upper_directions(lengths), lengths.box
    off, width, rows = 2 * bx + 1, 4 * bx + 3, 2 * by + 2
    xs = list(range(-off, off + 1)) * rows
    ys = [y for y in range(rows) for _ in range(width)]
    chords, groups, order = [None] * len(xs), [None] * len(xs), [off]
    chords[off], groups[off], nodes = f(0, 0), {0: (0, 0, (), 0)}, 0

    def exceeded(nodes, done):
        return ToricEnumerationBudgetExceeded(
            node_cap, max_count, lengths.budget_f, nodes, done, len(dirs))

    for done, (px, py) in enumerate(dirs):
        dl, step = f(px, py), px + width * py
        for i in sorted(order, reverse=True):
            j = i + step
            if (cj := chords[j]) is None:
                cj = chords[j] = f(xs[j], ys[j])
            top = limit - dl - cj + eps
            if chords[i] > top:   # no chain to s is shorter than its chord
                continue
            dw = xs[i] * py - ys[i] * px + 1   # the weight each copy adds
            wtop = weight_cap - dw
            for length, nedges, picks, w in groups[i].values():
                nodes += 1   # the entry, or its first copy
                if nodes > node_cap:
                    raise exceeded(nodes, done)
                if w > wtop or length > top:
                    continue
                j, nedges, c = i, nedges + 1, 0
                while True:
                    w += dw
                    j += step
                    length += dl
                    c += 1
                    if (cj := chords[j]) is None:
                        cj = chords[j] = f(xs[j], ys[j])
                    if w > weight_cap or length + cj > limit:
                        break
                    group = groups[j]
                    if group is None:
                        group = groups[j] = {}
                        order.append(j)
                    cell = len(group) if every else w
                    best = group.get(cell)
                    if best is None or length < best[0] - eps:
                        group[cell] = (length, nedges, picks + ((px, py, c),), w)
                    elif length <= best[0] + eps:
                        entry = (length, nedges, picks + ((px, py, c),), w)
                        if entry < best if eps == 0 else lengths.compare(entry, best) < 0:
                            group[cell] = entry
                    nodes += 1   # the next copy
                    if nodes > node_cap:
                        raise exceeded(nodes, done)
    return {(xs[i], ys[i]): groups[i] for i in sorted(order)}


def _budget_polygon(norm: Norm, k: int) -> LatticePolygon:
    """The cheapest lattice octagon with at least k+1 points that a short
    selection finds: an m-by-n rectangle less its corners at (m, 0) and
    (0, n), cut by (1, 1) edges of t steps in all, and at (0, 0) and (m, n),
    by (1, -1) edges of u steps, each split as evenly as it goes (the halves
    fit on every side when m, n >= lo), which drops (t+1)^2 // 4 +
    (u+1)^2 // 4 points.  A step along d saves |e1| + |e2| - |d|.

    The least rectangle (a staircase corner, no cut) is a candidate; then
    d = 1, 2, ... steps go along the diagonal that saves more and about
    (d + 2) saving_other / saving - 2 along the other (the marginal points
    of both cuts then cost the same), with m + 1 near sqrt(q |e2| / |e1|)
    at q points before the cuts, until three d in a row improve on nothing.
    It compares _lengths() numbers (ints over den, or Euclidean floats):
    any such polygon is a sound budget, the choice only sets how tight."""
    _, f = norm._lengths()
    a, b, need = f(1, 0), f(0, 1), k + 1
    m, n = min(_staircase(need), key=lambda corner: a * corner[0] + b * corner[1])
    best, shape = 2 * (a * m + b * n), (m, n, 0, 0)
    save_t, save_u = a + b - f(1, 1), a + b - f(1, -1)
    high, low = max(save_t, save_u), min(save_t, save_u)
    ab16, base, ratio = 16 * a * b, 2 * (a + b), b / a
    d = idle = 0
    while high > 0 and idle < 3:
        d, idle = d + 1, idle + 1
        r = max(round((d + 2) * low / high) - 2, 0)
        for e in range(max(r - 1, 0), r + 2 if low > 0 else 1):
            t, u = (d, e) if save_t >= save_u else (e, d)
            q = need + (t + 1) ** 2 // 4 + (u + 1) ** 2 // 4
            saved = save_t * t + save_u * u
            if math.sqrt(ab16 * q) - base - saved >= best:
                continue   # a(m+1) + b(n+1) >= 2 sqrt(a b q)
            lo, x = (t + 1) // 2 + (u + 1) // 2, int(math.sqrt(q * ratio))
            for m in range(max(x - 2, lo), max(x + 1, lo + 1)):
                n = max(-(-q // (m + 1)) - 1, lo)
                perim = 2 * (a * m + b * n) - saved
                if perim < best:
                    best, shape, idle = perim, (m, n, t, u), 0
    m, n, t, u = shape
    t1, u1 = (t + 1) // 2, (u + 1) // 2
    t2, u2 = t - t1, u - u1
    return LatticePolygon(_canonical(list(dict.fromkeys([
        (u1, 0), (m - t1, 0), (m, t1), (m, n - u2), (m - u2, n), (t2, n),
        (0, n - t2), (0, u1)]))))


def _initial_budget(norm: Norm, k: int) -> CapacityValue:
    """Perimeter of _budget_polygon(norm, k), which has at least k+1 lattice
    points: dropping vertices (the cut of _pair_buckets) leaves a polygon of
    exactly k+1 that is no longer, so this is >= c_k.  It is never above
    the least rectangle, c_k(P(2|e1|, 2|e2|)), as toric(l1:a,b) is P(a, b)."""
    return perimeter(_budget_polygon(norm, k), norm)


class ToricCapacity(Record):
    """Minimum perimeter at fixed enclosed lattice point count, with witness.

    Of several minimizers the witness closes the pair of chains with the
    fewest edges, then the least sorted edge lists (see _toric_minima).
    """

    value: CapacityValue
    witness: LatticePolygon

    def __init__(self, value: CapacityValue, witness: LatticePolygon):
        self._store(locals())

    def __iter__(self):
        return iter((self.value, self.witness))


def _toric_minima(norm: Norm, kmax: int, node_limit: Optional[int],
                  budget=None) -> List[Winner]:
    """(value, pair) of the cheapest polygons for each k = 0..kmax, from one
    search at the budget (by default _initial_budget of kmax, the perimeter
    of a lattice octagon with at least kmax+1 points).  Any budget B
    >= c_kmax covers every smaller k, as c is nondecreasing, and keeps the
    same pairs: every chain of the rule's least pair, and every chain before
    it in its cell, fits under B.

    Only the winner of each cell of _chain_cells is paired, and a count's
    bucket keeps the least pair by the rule: least exact length, fewest
    edges, then least sorted edge lists.  That is the rule's least (A, B)
    over every pair of chains: if A is not its cell's winner W, then (W, B)
    has the same count, and W is shorter, or as long with fewer edges, or
    as long with as many and a smaller edge list; the sorted-pair order is
    monotone in each chain, so (W, B) comes first, a contradiction (so too
    for B).  And _pair_buckets keeps it, within eps of its bucket's least
    and under the cut."""
    if budget is None:
        budget = _initial_budget(norm, kmax)
    lengths = _Lengths(norm, budget)
    table = _chain_cells(lengths, kmax + 1, node_limit)
    minima = _minima(lengths, _pair_buckets(lengths, table, kmax + 1))
    try:
        return [minima[count] for count in range(1, kmax + 2)]
    except KeyError as missing:
        raise RuntimeError(f"no polygon with {missing.args[0]} lattice points "
                           f"found within budget {budget!r}; search is "
                           "incomplete") from None


def toric_capacity(norm: Norm, k: int,
                   node_limit: Optional[int] = None) -> ToricCapacity:
    """Minimum norm-perimeter over lattice polygons with exactly k+1 enclosed
    lattice points, with a minimizing witness polygon.

    The search runs at the perimeter of the cheapest lattice octagon with at
    least k+1 points that _budget_polygon finds (a rectangle with its
    corners cut), builds one cheapest chain per (displacement, weight) cell by
    dynamic programming, pairs them up to the least perimeter of k+1 points,
    keeps one pair per lattice-point count (see _toric_minima), and closes
    the witness from that of k+1.  Every call runs its own search under
    node_limit, which counts the transitions of that dynamic program.
    """
    k = _count(k, 0, "k")
    value, pair = _toric_minima(norm, k, node_limit)[k]
    return ToricCapacity(value, _witness(*pair))


def min_action_at_grading(norm: Norm, grading: int, budget=None,
                          node_limit: Optional[int] = None) -> CapacityValue:
    """Minimum generator action over labeled generators of the given grading
    2k, which is c_k: the value toric_capacity(norm, k) finds.

    A generator of grading 2k labels 2(c - 1 - k) of its E edges 'h', so its
    polygon has c >= k + 1 points.  Dropping a vertex leaves the hull of the
    other points, with one point fewer and no longer perimeter (the cut of
    _pair_buckets), so that polygon is at least c_(c-1) >= c_k long; and the
    all-'e' minimizer of c_k has grading 2k.  So this is _toric_minima of k
    at the budget, which defaults to _initial_budget of k, the perimeter of
    a lattice octagon with at least k+1 points.  An exact budget
    is compared exactly.  RuntimeError if no generator fits the budget, and
    ToricEnumerationBudgetExceeded, with the directions done, past the node
    limit.
    """
    if (grading := _integer(grading)) < 0 or grading % 2 != 0:
        raise ValueError("grading must be a nonnegative even integer")
    try:
        return _toric_minima(norm, grading // 2, node_limit, budget)[-1][0]
    except RuntimeError as exc:
        raise RuntimeError(f"no generator of grading {grading} found within "
                           f"budget {budget!r}; search is incomplete") from exc
