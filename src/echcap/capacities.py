"""Capacity sequences of the model domains and their algebra.

(a, b)_k below always means the k-th smallest element, counted with
repetitions, of the multiset {a*m + b*n : m, n nonnegative integers}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .domains import Ball, DisjointUnion, Domain, Ellipsoid, Polydisk, ToricNorm
from .errors import MismatchedIndexOrigin
from .lattice import _toric_sequence
from .values import CapacitySequence, CapacityValue, RationalLike, as_fraction

WEAK = "weak"
INTERIOR_STRICT = "interior_strict"


def _nk_values(a: Fraction, b: Fraction, kmax: int) -> List[Fraction]:
    """First kmax values of {a*m + b*n}, sorted ascending with repetitions.

    Bounded enumeration: collect all values <= L, doubling L until at least
    kmax of them exist.  The starting L is sized so one pass usually
    suffices.
    """
    hi, lo = max(a, b), min(a, b)
    s = math.isqrt(int(2 * kmax * hi / lo)) + 1
    level = (a + b) * s
    while True:
        values: List[Fraction] = []
        m = 0
        am = Fraction(0)
        while am <= level:
            top = int((level - am) / b)
            values.extend(am + b * n for n in range(top + 1))
            m += 1
            am += a
        if len(values) >= kmax:
            values.sort()
            return values[:kmax]
        level *= 2


def nk_sequence(a: RationalLike, b: RationalLike, kmax: int) -> List[CapacityValue]:
    """[(a,b)_1, ..., (a,b)_kmax] as exact values (list index k-1 holds (a,b)_k)."""
    a, b = as_fraction(a), as_fraction(b)
    if a <= 0 or b <= 0:
        raise ValueError("weights must be positive")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return [CapacityValue.exact(v) for v in _nk_values(a, b, kmax)]


def nk_via_triangle(a: RationalLike, b: RationalLike,
                    m: int, n: int) -> Tuple[int, CapacityValue]:
    """Rank and value of a*m + b*n inside the (a, b) multiset.

    The rank counts every lattice point (m', n') with a*m' + b*n' <= a*m + b*n,
    closed boundary included, so among tied values it is the largest rank.
    """
    a, b = as_fraction(a), as_fraction(b)
    if a <= 0 or b <= 0:
        raise ValueError("weights must be positive")
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    value = a * m + b * n
    count = 0
    am = Fraction(0)
    while am <= value:
        count += int((value - am) / b) + 1
        am += a
    return count, CapacityValue.exact(value)


def ellipsoid_capacities(a: RationalLike, b: RationalLike,
                         kmax: int) -> CapacitySequence:
    """Distinguished capacities of E(a, b): entry k is (a, b)_{k+1}."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    return CapacitySequence(0, nk_sequence(a, b, kmax + 1))


def ellipsoid_full_capacities(a: RationalLike, b: RationalLike,
                              kmax: int) -> CapacitySequence:
    """Full capacities of E(a, b): entry k is (a, b)_k, starting at k = 1."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return CapacitySequence(1, nk_sequence(a, b, kmax))


def ball_capacities(a: RationalLike, kmax: int) -> CapacitySequence:
    """Capacities of B(a): entry k is d*a where (d^2+d)/2 <= k <= (d^2+3d)/2."""
    a = as_fraction(a)
    if a <= 0:
        raise ValueError("ball size must be positive")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    entries = []
    for k in range(kmax + 1):
        d = (math.isqrt(8 * k + 1) - 1) // 2
        entries.append(CapacityValue.exact(a * d))
    return CapacitySequence(0, entries)


def _polydisk_entry(a: Fraction, b: Fraction, k: int) -> Fraction:
    # min of a*m + b*n over (m+1)(n+1) >= k+1; for each block of constant
    # ceil((k+1)/(m+1)) the smallest m is the cheapest, so stepping block
    # boundaries visits every candidate that can win
    need = k + 1
    best: Optional[Fraction] = None
    t = 1
    while t <= need:
        q = -(-need // t)
        cost = a * (t - 1) + b * (q - 1)
        if best is None or cost < best:
            best = cost
        if q == 1:
            break
        t = -(-need // (q - 1))
    return best


def polydisk_capacities(a: RationalLike, b: RationalLike,
                        kmax: int) -> CapacitySequence:
    """Capacities of P(a, b): entry k is min{a*m + b*n : (m+1)(n+1) >= k+1}."""
    a, b = as_fraction(a), as_fraction(b)
    if a <= 0 or b <= 0:
        raise ValueError("polydisk sizes must be positive")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    entries = [CapacityValue.exact(_polydisk_entry(a, b, k))
               for k in range(kmax + 1)]
    return CapacitySequence(0, entries)


def maxplus_convolve(first: Sequence[CapacityValue],
                     second: Sequence[CapacityValue],
                     kmax: int) -> List[CapacityValue]:
    """(f * g)_k = max over i+j=k of f_i + g_j, with infinity absorbing."""
    out = []
    for k in range(kmax + 1):
        best: Optional[CapacityValue] = None
        for i in range(k + 1):
            cand = first[i] + second[k - i]
            if best is None or cand.compare(best) > 0:
                best = cand
        out.append(best)
    return out


def disjoint_union_capacities(sequences: Sequence[CapacitySequence],
                              kmax: int) -> CapacitySequence:
    """Capacity sequence of a disjoint union from its parts' sequences."""
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
    acc = list(sequences[0].entries[:kmax + 1])
    for seq in sequences[1:]:
        acc = maxplus_convolve(acc, list(seq.entries[:kmax + 1]), kmax)
    return CapacitySequence(0, acc)


def capacities(domain: Domain, kmax: int, *,
               node_limit: Optional[int] = None) -> CapacitySequence:
    """Distinguished capacity sequence of any model domain, up to kmax."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if isinstance(domain, Ball):
        return ball_capacities(domain.a, kmax)
    if isinstance(domain, Ellipsoid):
        return ellipsoid_capacities(domain.a, domain.b, kmax)
    if isinstance(domain, Polydisk):
        return polydisk_capacities(domain.a, domain.b, kmax)
    if isinstance(domain, ToricNorm):
        return CapacitySequence(0, _toric_sequence(domain.norm, kmax, node_limit))
    if isinstance(domain, DisjointUnion):
        parts = [capacities(p, kmax, node_limit=node_limit)
                 for p in domain.parts]
        return disjoint_union_capacities(parts, kmax)
    raise TypeError(f"unsupported domain {domain!r}")


@dataclass(frozen=True)
class Dominance:
    """Outcome of an entrywise sequence comparison."""

    dominated: bool
    k: Optional[int] = None
    lower: Optional[CapacityValue] = None
    upper: Optional[CapacityValue] = None


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
    for k in range(lower.index_origin, min(lower.kmax, upper.kmax) + 1):
        lo, hi = lower[k], upper[k]
        if mode == INTERIOR_STRICT and k >= 1 and not lo.is_infinite:
            ok = lo.definitely_lt(hi)
        else:
            ok = lo.definitely_le(hi)
        if not ok:
            return Dominance(False, k, lo, hi)
    return Dominance(True)
