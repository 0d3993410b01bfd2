"""Capacity sequences of the model domains and their algebra.

(a, b)_k below always means the k-th smallest element, counted with
repetitions, of the multiset {a*m + b*n : m, n nonnegative integers}.

The kernels run on Python ints over the least common denominator of the
sizes and hand those ints to CapacitySequence, which keeps them as they are.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, count
from typing import List, Optional, Sequence, Tuple

from .domains import DisjointUnion, Domain, Ellipsoid, Polydisk, ToricNorm
from .errors import MismatchedIndexOrigin
from .lattice import WeightedL1
from .values import (CapacitySequence, CapacityValue, RationalLike, Record, _count,
                     _over_common_denominator, _polydisk_entry, _positive)

WEAK = "weak"
INTERIOR_STRICT = "interior_strict"


def _nk_values(a: RationalLike, b: RationalLike,
               kmax: int) -> Tuple[int, List[int]]:
    """(den, v): the kmax smallest values of {a*m + b*n}, sorted ascending
    with repetitions, as ints v over den, the least common denominator.

    Each point of the triangle {x, y >= 0, a*x + b*y <= level} lies in the
    unit square of a lattice point of that triangle, so the triangle holds at
    least level^2 / (2ab) > kmax lattice points.  With c = min(a, b), level
    (kmax-1)*c holds the kmax values 0, c, ..., (kmax-1)*c, which caps the
    level of a thin pair: under the first, a >> b lists sqrt(2a*kmax/b) values.
    """
    a, b = _positive(a, "weights"), _positive(b, "weights")
    kmax = _count(kmax, 1, "kmax")
    den, (a, b) = _over_common_denominator(a, b)
    level = min(math.isqrt(2 * a * b * kmax) + 1, (kmax - 1) * min(a, b))
    values: List[int] = []
    for am in range(0, level + 1, a):
        values.extend(range(am, level + 1, b))
    values.sort()
    return den, values[:kmax]


def nk_sequence(a: RationalLike, b: RationalLike, kmax: int) -> List[CapacityValue]:
    """[(a,b)_1, ..., (a,b)_kmax] as exact values (list index k-1 holds (a,b)_k)."""
    return list(ellipsoid_full_capacities(a, b, kmax))


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum((a*i + b) // m for i in range(n)) for n, m >= 1 and a, b >= 0, by
    the Euclid-like recursion: reduce a and b mod m, then count the same
    lattice points under the line by columns instead of rows."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def nk_via_triangle(a: RationalLike, b: RationalLike,
                    m: int, n: int) -> Tuple[int, CapacityValue]:
    """Rank and value of a*m + b*n inside the (a, b) multiset.

    The rank counts every lattice point (m', n') with a*m' + b*n' <= a*m + b*n,
    closed boundary included, so among tied values it is the largest rank.
    The multiples of the larger weight up to the value, taken from the last
    one down, are columns t = 0, 1, ... of (big*t + value mod big) // small
    + 1 points each, a floor sum.
    """
    a, b = _positive(a, "weights"), _positive(b, "weights")
    m, n = _count(m, 0, "m"), _count(n, 0, "n")
    den, (a, b) = _over_common_denominator(a, b)
    value = a * m + b * n
    big, small = max(a, b), min(a, b)
    columns = value // big + 1
    count = columns + _floor_sum(columns, small, big, value % big)
    return count, CapacityValue.exact(Fraction(value, den))


def ellipsoid_capacities(a: RationalLike, b: RationalLike,
                         kmax: int) -> CapacitySequence:
    """Distinguished capacities of E(a, b): entry k is (a, b)_{k+1}."""
    return CapacitySequence._from_ints(0, *_nk_values(a, b, _count(kmax, 0, "kmax") + 1))


def ellipsoid_full_capacities(a: RationalLike, b: RationalLike,
                              kmax: int) -> CapacitySequence:
    """Full capacities of E(a, b): entry k is (a, b)_k, starting at k = 1."""
    return CapacitySequence._from_ints(1, *_nk_values(a, b, kmax))


def ball_capacities(a: RationalLike, kmax: int) -> CapacitySequence:
    """Capacities of B(a) = E(a, a): entry k is d*a, (d^2+d)/2 <= k <= (d^2+3d)/2."""
    a = _positive(a, "ball size")
    return ellipsoid_capacities(a, a, kmax)


def polydisk_capacities(a: RationalLike, b: RationalLike,
                        kmax: int) -> CapacitySequence:
    """Capacities of P(a, b): entry k is min{a*m + b*n : (m+1)(n+1) >= k+1}.

    Equivalently c_k = min{v : max{(m+1)(n+1) : a*m + b*n <= v} >= k+1}, so
    one walk over the lattice values v = a*m + b*n in increasing order, with
    the running maximum P of their products, gives every entry: when P rises
    from P_old to P_new at v, entries P_old .. min(P_new, kmax+1) - 1 are v.
    The level is c_kmax itself, from the corners of the staircase.  As in
    _nk_values, the values up to that level (about 2(kmax+1) of them) are
    enumerated, here as keys v * radix + (m+1)(n+1), and sorted once.
    """
    a, b = _positive(a, "polydisk sizes"), _positive(b, "polydisk sizes")
    kmax = _count(kmax, 0, "kmax")
    den, (a, b) = _over_common_denominator(a, b)
    need = kmax + 1
    level = _polydisk_entry(a, b, need)
    radix = (level // a + 1) * (level // b + 1) + 1   # above every product
    keys: List[int] = []
    for m in range(level // a + 1):
        # key of (m, n) = (a*m + b*n) * radix + (m+1)(n+1): a progression in n
        start, step = a * m * radix + m + 1, b * radix + m + 1
        keys.extend(range(start, start + ((level - a * m) // b + 1) * step, step))
    keys.sort()
    entries: List[int] = []
    reached = 0
    for key in keys:
        v, product = divmod(key, radix)
        if product > reached:
            entries.extend([v] * (min(product, need) - reached))
            reached = product
            if reached >= need:
                break
    return CapacitySequence._from_ints(0, den, entries)


def _runs(seq: Sequence, kmax: int) -> List[Tuple[int, object]]:
    """(k, seq[k]) at the start of each run of equal entries up to kmax."""
    return [(k, seq[k]) for k in range(kmax + 1)
            if k == 0 or seq[k] != seq[k - 1]]


def maxplus_convolve(first: Sequence[CapacityValue],
                     second: Sequence[CapacityValue],
                     kmax: int) -> List[CapacityValue]:
    """(f * g)_k = max over i+j=k of f_i + g_j, with infinity absorbing.

    Entries are ints or CapacityValues of nondecreasing sequences, so
    (f * g)_k is also the max over i+j <= k, and moving i or j back to the
    start of its run of equal entries keeps f_i + g_j.  Each pair of run
    starts puts its sum into slot i+j, and a running max over the slots gives
    every k: the cost is runs(f) * runs(g) + kmax, whatever the order of f
    and g.  Among sums that compare equal the first found wins: the lowest
    slot, and within a slot the lowest i.
    """
    if (short := min(len(first), len(second))) <= (kmax := _count(kmax, 0, "kmax")):
        raise ValueError(f"input defined only up to k={short - 1} < {kmax}")
    g_runs = _runs(second, kmax)
    g_starts = [j for j, _ in g_runs]
    slots = [first[0] + second[0]] * (kmax + 1)
    for i, f_i in _runs(first, kmax):
        for j, g_j in g_runs[:bisect_right(g_starts, kmax - i)]:
            s = f_i + g_j
            if s > slots[i + j]:
                slots[i + j] = s
    return list(accumulate(slots, max))


def _maxplus_at(first: Sequence, second: Sequence, kmax: int,
                ks: Sequence[int]) -> list:
    """maxplus_convolve(first, second, kmax)[k] for each k in ks, the same
    sum of the same run-start entries, at samples * min(runs) sums.

    At k the winning pair (i, j) of run starts is the max, then the least
    slot i+j, then the least i.  With f_i + g_j a max, g_{k-i} >= g_j is in
    j's run, so j is the start of the run of k-i, and i that of k-j: it is
    enough to walk the run starts of the operand with fewer runs and pair
    each with the start of the other's run at k minus it.
    """
    f_runs, g_runs = _runs(first, kmax), _runs(second, kmax)
    walk, other = (f_runs, g_runs) if len(f_runs) <= len(g_runs) else (g_runs, f_runs)
    marks = [0] * (kmax + 1)
    for r, (y, _) in enumerate(other):
        marks[y] = r
    # (start, entry) of the run of `other` that holds each index
    held = [other[r] for r in accumulate(marks, max)]
    out = []
    for k in ks:
        best = rank = None
        for x, walked in walk:
            if x > k:
                break
            y, paired = held[k - x]
            i, f_i, g_j = (x, walked, paired) if walk is f_runs else (y, paired, walked)
            s = f_i + g_j
            if best is None or s > best or (not best > s and (x + y, i) < rank):
                best, rank = s, (x + y, i)
        out.append(best)
    return out


def _union_operands(sequences: Sequence[CapacitySequence],
                    kmax: int) -> Tuple[Optional[int], List[list]]:
    """(den, entry lists to kmax) of a union's parts: ints over den, the lcm
    of the parts' denominators, when every part is exact, else values."""
    if not sequences:
        raise ValueError("need at least one sequence")
    for seq in sequences:
        if seq.index_origin != 0:
            raise MismatchedIndexOrigin(
                "disjoint unions combine distinguished sequences only "
                "(full spectra do not satisfy the max-plus law)"
            )
        if seq.kmax < kmax:
            raise ValueError(f"input defined only up to k={seq.kmax} < {kmax}")
    if any(seq.den is None for seq in sequences):
        return None, [list(seq)[:kmax + 1] for seq in sequences]
    den = math.lcm(*(seq.den for seq in sequences))
    return den, [[v * (den // seq.den) for v in seq._items[:kmax + 1]]
                 for seq in sequences]


def disjoint_union_capacities(sequences: Sequence[CapacitySequence],
                              kmax: int) -> CapacitySequence:
    """Capacity sequence of a disjoint union from its parts' sequences.

    Exact parts are convolved as ints over the lcm of their denominators.
    """
    den, parts = _union_operands(sequences, kmax := _count(kmax, 0, "kmax"))
    acc = parts[0]
    for part in parts[1:]:
        acc = maxplus_convolve(acc, part, kmax)
    return CapacitySequence(0, acc) if den is None else \
        CapacitySequence._from_ints(0, den, acc)


def _part_sequences(union: DisjointUnion, kmax: int,
                    node_limit: Optional[int]) -> List[CapacitySequence]:
    """capacities() of each part of a union, equal parts (frozen
    records) sharing one computation."""
    seqs = {p: capacities(p, kmax, node_limit=node_limit)
            for p in dict.fromkeys(union.parts)}
    return [seqs[p] for p in union.parts]


def capacities(domain: Domain, kmax: int, *,
               node_limit: Optional[int] = None) -> CapacitySequence:
    """Distinguished capacity sequence of any model domain, up to kmax.

    toric(l1:a,b) is P(a, b) (its least polygons are rectangles), read off
    the polydisk kernel: node_limit bounds the other norms' search only."""
    kmax = _count(kmax, 0, "kmax")
    if isinstance(domain, Ellipsoid):   # a Ball too, as E(a, a)
        return ellipsoid_capacities(domain.a, domain.b, kmax)
    if isinstance(domain, Polydisk):
        return polydisk_capacities(domain.a, domain.b, kmax)
    if isinstance(domain, ToricNorm):
        if isinstance(domain.norm, WeightedL1):
            return polydisk_capacities(domain.norm.a, domain.norm.b, kmax)
        from .toric import _toric_minima   # only toric specs load the search
        minima = _toric_minima(domain.norm, kmax, node_limit)
        return CapacitySequence(0, (value for value, _ in minima))
    if isinstance(domain, DisjointUnion):
        return disjoint_union_capacities(
            _part_sequences(domain, kmax, node_limit), kmax)
    raise TypeError(f"unsupported domain {domain!r}")


def _capacities_at(domain: Domain, kmax: int, ks: Sequence[int], *,
                   node_limit: Optional[int] = None) -> List[CapacityValue]:
    """capacities(domain, kmax)[k] for each k in ks, 0 <= k <= kmax, equal
    to it in value and in repr.

    A union of n >= 2 parts folds all but its last part in full
    (disjoint_union_capacities) and the last fold only at the ks
    (_maxplus_at): the whole last fold would cost runs(f) * runs(g) sums to
    read len(ks) of its entries.
    """
    if not isinstance(domain, DisjointUnion) or len(domain.parts) == 1:
        seq = capacities(domain, kmax, node_limit=node_limit)
        return [seq[k] for k in ks]
    *head, last = _part_sequences(domain, kmax, node_limit)
    den, (acc, last) = _union_operands([disjoint_union_capacities(head, kmax), last], kmax)
    return [v if den is None else CapacityValue.exact(Fraction(v, den))
            for v in _maxplus_at(acc, last, kmax, ks)]


class Dominance(Record):
    """Outcome of an entrywise sequence comparison."""

    dominated: bool
    k: Optional[int]
    lower: Optional[CapacityValue]
    upper: Optional[CapacityValue]

    def __init__(self, dominated: bool, k: Optional[int] = None,
                 lower: Optional[CapacityValue] = None,
                 upper: Optional[CapacityValue] = None):
        self._store(locals())


def dominates(lower: CapacitySequence, upper: CapacitySequence,
              mode: str = WEAK) -> Dominance:
    """Check lower_k <= upper_k over the common range; first violation wins.

    interior_strict additionally demands lower_k < upper_k for k >= 1
    whenever lower_k is finite (at k = 0 both sides are 0 by construction).
    Raises ApproxTie when an approximate comparison cannot be decided.
    """
    if mode not in (WEAK, INTERIOR_STRICT):
        raise ValueError(f"unknown mode {mode!r}")
    if lower.index_origin != upper.index_origin:
        raise MismatchedIndexOrigin(
            f"cannot compare origin {lower.index_origin} against "
            f"{upper.index_origin}"
        )
    strict = mode == INTERIOR_STRICT
    if lower.den is not None and upper.den is not None:
        # ints over two denominators: a/dl <= b/du iff a*du <= b*dl
        dl, du = lower.den, upper.den
        for k, a, b in zip(count(lower.index_origin), lower._items, upper._items):
            a, b = a * du, b * dl
            if a > b or (strict and k >= 1 and a == b):
                return Dominance(False, k, lower[k], upper[k])
        return Dominance(True)
    for k, lo, hi in zip(count(lower.index_origin), lower, upper):
        if strict and k >= 1 and not lo.is_infinite:
            ok = lo.definitely_lt(hi)
        else:
            ok = lo.definitely_le(hi)
        if not ok:
            return Dominance(False, k, lo, hi)
    return Dominance(True)
