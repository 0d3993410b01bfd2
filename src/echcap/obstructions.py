"""Embedding obstructions assembled from capacity sequences.

Covers the ellipsoid-into-ball bound, the polydisk-into-ball bound read from
the polydisk staircase, ball packing inequalities, and the
classical sufficiency conditions for packing a ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .capacities import WEAK, _nk_values, capacities, dominates
from .domains import Domain
from .values import (CapacityValue, RationalLike, _integer, _over_common_denominator,
                     _polydisk_entry, _staircase, as_fraction)

__all__ = [
    "BiranVerdict", "ObstructionVerdict", "PackingInequality", "PackingReport",
    "biran_sufficiency", "embedding_obstruction", "f_lower_bound", "g_d",
    "g_lower_bound", "lambda_d_path", "packing_obstructions",
]


@dataclass(frozen=True)
class ObstructionVerdict:
    """Either no obstruction up to kmax, or a witness index with both values."""

    obstructed: bool
    kmax: int
    witness_k: Optional[int] = None
    lower: Optional[CapacityValue] = None
    upper: Optional[CapacityValue] = None


def embedding_obstruction(inner: Domain, outer: Domain, kmax: int,
                          mode: str = WEAK,
                          node_limit: Optional[int] = None) -> ObstructionVerdict:
    """Test the capacity inequalities for embedding inner into outer.

    Obstructed exactly when some c_k(inner) exceeds c_k(outer) (or fails
    strictness in interior_strict mode); the witness is the first such k.
    """
    if (kmax := _integer(kmax)) < 1:
        raise ValueError("kmax must be >= 1")
    lower = capacities(inner, kmax, node_limit=node_limit)
    upper = capacities(outer, kmax, node_limit=node_limit)
    verdict = dominates(lower, upper, mode)
    if verdict.dominated:
        return ObstructionVerdict(False, kmax)
    return ObstructionVerdict(True, kmax, verdict.k, verdict.lower, verdict.upper)


def f_lower_bound(a: RationalLike, dmax: int) -> Fraction:
    """Lower bound for the ellipsoid-into-ball function at aspect ratio a.

    max over d = 1..dmax of (a,1)_{(d^2+3d+2)/2} / d; exact.
    """
    if (a := as_fraction(a)) < 1:
        raise ValueError("aspect ratio a must be >= 1")
    if (dmax := _integer(dmax)) < 1:
        raise ValueError("dmax must be >= 1")
    den, values = _nk_values(a, 1, (dmax * dmax + 3 * dmax + 2) // 2)
    return _max_over_d([values[(d * d + 3 * d + 2) // 2 - 1]
                        for d in range(1, dmax + 1)], den)


def _max_over_d(values: List[int], den: int) -> Fraction:
    """max over d = 1.. of values[d-1] / (d * den), picked on ints."""
    best, best_d = values[0], 1
    for d, v in enumerate(values, 1):
        if v * best_d > best * d:
            best, best_d = v, d
    return Fraction(best, best_d * den)


def lambda_d_path(d: int) -> List[Tuple[int, int]]:
    """Lattice points of the staircase of {(m, n) : (m+1)(n+1) >= (d+1)(d+2)/2}
    that lie on its lower-left convex hull, ordered by increasing m.

    The hull is built over the staircase's corners: any other point of the
    set has a point of the set just left of it, so it is on no hull edge.
    Collinear points on a hull edge are kept: they are listed as vertices of
    the path, and keeping them cannot change a linear minimization.
    """
    if (d := _integer(d)) < 1:
        raise ValueError("d must be >= 1")
    hull: List[Tuple[int, int]] = []
    for p in _staircase((d + 1) * (d + 2) // 2):
        # pop strictly concave middle points; collinear ones stay
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (bx - ax) * (p[1] - by) - (by - ay) * (p[0] - bx) < 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def g_d(a: RationalLike, d: int) -> Fraction:
    """min{(a*m + n)/d : (m+1)(n+1) >= (d+1)(d+2)/2}, which is c_k(P(a, 1))/d
    at k = (d^2+3d)/2: for a = p/q, the polydisk entry of P(p, q) over q*d."""
    if (a := as_fraction(a)) < 1:
        raise ValueError("aspect ratio a must be >= 1")
    if (d := _integer(d)) < 1:
        raise ValueError("d must be >= 1")
    p, q = a.numerator, a.denominator
    return Fraction(_polydisk_entry(p, q, (d + 1) * (d + 2) // 2), q * d)


def g_lower_bound(a: RationalLike, dmax: int) -> Fraction:
    """Lower bound for the polydisk-into-ball function: max of g_d, d <= dmax,
    each read off O(d) staircase corners."""
    if (dmax := _integer(dmax)) < 1:
        raise ValueError("dmax must be >= 1")
    if (a := as_fraction(a)) < 1:
        raise ValueError("aspect ratio a must be >= 1")
    return _max_over_d([_polydisk_entry(a.numerator, a.denominator, (d + 1) * (d + 2) // 2)
                        for d in range(1, dmax + 1)], a.denominator)


@dataclass(frozen=True)
class PackingInequality:
    """One inequality sum(d_i * a_i) < d from the ball packing obstruction."""

    multipliers: Tuple[int, ...]
    bound: int
    lhs: Fraction
    satisfied: bool


@dataclass(frozen=True)
class PackingReport:
    inequalities: Tuple[PackingInequality, ...]
    all_hold: bool


def _sizes(a_list: Sequence[RationalLike], dmax: int) -> Tuple[int, int, List[int]]:
    """(dmax, den, ints): the sizes as ints over den, their least common
    denominator, once the sizes are checked positive and then dmax >= 1."""
    sizes = [as_fraction(a) for a in a_list]
    if not sizes or any(a <= 0 for a in sizes):
        raise ValueError("need a nonempty list of positive sizes")
    if (dmax := _integer(dmax)) < 1:
        raise ValueError("dmax must be >= 1")
    return (dmax, *_over_common_denominator(*sizes))


def _packing_table(a_list: Sequence[RationalLike], dmax: int) -> Tuple[
        int, List[Tuple[int, Tuple[int, ...], int]], List[Tuple[int, int, bool]]]:
    """(den, rows, pairs) of the packing inequalities with bound d <= dmax.

    rows: (cost, multipliers, lhs) per nonnegative tuple with cost
    sum(d_i^2 + d_i) <= dmax^2 + 3 dmax, lexicographically, lhs = sum(d_i * a_i)
    as an int over den, the sizes' least common denominator.  Bound d lists the
    rows of cost <= d^2 + 3d in table order, (d, row index, lhs < d * den) each.
    """
    dmax, den, scaled = _sizes(a_list, dmax)
    top = dmax * dmax + 3 * dmax
    rows = [(0, (), 0)]
    for a in scaled:   # each row takes every d_i with d_i^2 + d_i <= its budget left
        rows = [(cost + d * d + d, mult + (d,), lhs + d * a) for cost, mult, lhs in rows
                for d in range((math.isqrt(4 * (top - cost) + 1) + 1) // 2)]
    bounds = [(d, d * d + 3 * d, d * den) for d in range(1, dmax + 1)]
    pairs = [(d, i, lhs < limit) for d, budget, limit in bounds
             for i, (cost, _, lhs) in enumerate(rows) if cost <= budget]
    return den, rows, pairs


def packing_obstructions(a_list: Sequence[RationalLike],
                         dmax: int) -> PackingReport:
    """Evaluate every packing inequality with bound d <= dmax.

    Tuples range over nonnegative multipliers with sum(d_i^2 + d_i) <= d^2+3d,
    each listed once at dmax's budget.  The all-zero tuple is listed too,
    trivially satisfied, at every d.  all_hold means no obstruction was found.
    """
    den, rows, pairs = _packing_table(a_list, dmax)
    lhs = [Fraction(v, den) for _, _, v in rows]
    return PackingReport(
        tuple(PackingInequality(rows[i][1], d, lhs[i], ok) for d, i, ok in pairs),
        all(ok for _, _, ok in pairs))


@dataclass(frozen=True)
class BiranVerdict:
    """sufficient | fails_volume | fails_inequality (with the failing tuple)."""

    status: str
    multipliers: Optional[Tuple[int, ...]] = None
    bound: Optional[int] = None

    @property
    def sufficient(self) -> bool:
        return self.status == "sufficient"


def _biran_tuples(n: int, total: int, square_total: int) -> Iterator[Tuple[int, ...]]:
    """Nonnegative tuples with sum = total and sum of squares = square_total."""
    def rec(prefix: List[int], rem: int, rem_sq: int, slots: int):
        if slots == 0:
            if rem == 0 and rem_sq == 0:
                yield tuple(prefix)
            return
        # each unit of sum costs at least one unit of square
        if rem > rem_sq or rem * rem > rem_sq * slots:
            return
        top = min(rem, math.isqrt(rem_sq))
        for d in range(top, -1, -1):
            prefix.append(d)
            yield from rec(prefix, rem - d, rem_sq - d * d, slots - 1)
            prefix.pop()
    yield from rec([], total, square_total, n)


def biran_sufficiency(a_list: Sequence[RationalLike], dmax: int) -> BiranVerdict:
    """Sufficiency test for packing balls of sizes a_i into the unit ball:
    the volume constraint plus the inequality family indexed by tuples with
    sum d_i = 3d - 1 and sum d_i^2 = d^2 + 1, checked for d <= dmax."""
    dmax, den, scaled = _sizes(a_list, dmax)
    if sum(a * a for a in scaled) > den * den:
        return BiranVerdict("fails_volume")
    for d in range(1, dmax + 1):
        for mult in _biran_tuples(len(scaled), 3 * d - 1, d * d + 1):
            if sum(m * a for m, a in zip(mult, scaled)) > d * den:
                return BiranVerdict("fails_inequality", mult, d)
    return BiranVerdict("sufficient")
