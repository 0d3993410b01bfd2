"""Desk-scale numerics for the volume asymptotics and the action bound.

The guiding quantity is c_k^2 / (4 k vol): for the model domains it tends to
1 as k grows, at rate O(1/sqrt(k)) from the boundary terms of the lattice
counts, which is what the tolerances in the test suite are sized for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import List, Optional, Tuple

from .capacities import capacities
from .domains import (DisjointUnion, Domain, Ellipsoid, Polydisk, ToricNorm,
                      describe)
from .errors import ApproxTie
from .values import CapacityValue

TORIC_TRACE_KMAX = 25  # polygon search cost caps toric traces well below asymptopia


def volume(domain: Domain) -> CapacityValue:
    """Symplectic volume; exact except for the round toric domain (pi)."""
    if isinstance(domain, Ellipsoid):   # a Ball too, as E(a, a)
        return CapacityValue.exact(domain.a * domain.b / 2)
    if isinstance(domain, Polydisk):
        return CapacityValue.exact(domain.a * domain.b)
    if isinstance(domain, ToricNorm):
        return domain.norm.dual_ball_area()
    if isinstance(domain, DisjointUnion):
        total = CapacityValue.exact(0)
        for part in domain.parts:
            total = total + volume(part)
        return total
    raise TypeError(f"unsupported domain {domain!r}")


def _contains(domain: Domain, kind: type) -> bool:
    """Whether the domain, or a part of a disjoint union, is a kind.

    Polydisks have only piecewise smooth boundary, so results that assume a
    genuine contact boundary are labeled exploratory for them; the polygon
    search caps the kmax of anything with a toric part."""
    if isinstance(domain, DisjointUnion):
        return any(_contains(part, kind) for part in domain.parts)
    return isinstance(domain, kind)


@dataclass(frozen=True)
class TracePoint:
    k: int
    c_k: CapacityValue
    ratio: float


@dataclass(frozen=True)
class VolumeReport:
    """Sampled trace of c_k^2 / (4 k vol) together with the exact volumes."""

    label: str
    vol_x: CapacityValue
    vol_y: CapacityValue          # boundary contact volume, = 2 vol_x
    trace: Tuple[TracePoint, ...]
    final_ratio: float
    max_deviation_last_decade: float
    truncated: bool


def _sample_points(kmax: int, stride: int) -> List[int]:
    ks = list(range(stride, kmax + 1, stride))
    if not ks or ks[-1] != kmax:
        ks.append(kmax)
    return ks


def _ratio(c_k: CapacityValue, k: int, vol: CapacityValue) -> float:
    if c_k.is_exact and vol.is_exact:   # int / int rounds as float(Fraction)
        c, v = c_k.frac, vol.frac
        return ((c.numerator ** 2 * v.denominator)
                / (4 * k * c.denominator ** 2 * v.numerator))
    return (c_k.value * c_k.value) / (4.0 * k * vol.value)


def volume_ratio_trace(domain: Domain, kmax: int, stride: int = 1,
                       node_limit: Optional[int] = None) -> VolumeReport:
    """Sampled convergence trace of c_k^2 / (4 k vol) up to kmax.

    Every domain reads its full sequence from capacities().  Toric domains,
    and unions with a toric part, are truncated (and flagged) because the
    polygon search limits how far their sequences can go.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    vol = volume(domain)
    truncated = _contains(domain, ToricNorm)  # never near k -> infinity
    if truncated:
        kmax = min(kmax, TORIC_TRACE_KMAX)

    seq = capacities(domain, kmax, node_limit=node_limit)
    trace = [TracePoint(k, c_k := seq[k], _ratio(c_k, k, vol))
             for k in _sample_points(kmax, stride)]

    last_decade = [p for p in trace if p.k * 10 >= kmax]
    max_dev = max(abs(p.ratio - 1.0) for p in last_decade)
    return VolumeReport(
        label=describe(domain),
        vol_x=vol,
        vol_y=vol.scaled(2),
        trace=tuple(trace),
        final_ratio=trace[-1].ratio,
        max_deviation_last_decade=max_dev,
        truncated=truncated,
    )


@dataclass(frozen=True)
class QwVerdict:
    """Whether c_k < sqrt(2 k vol_Y) held for every k = 1..kmax."""

    holds: bool
    kmax: int
    k: Optional[int] = None
    exploratory: bool = False


def qw_check(domain: Domain, kmax: int,
             node_limit: Optional[int] = None) -> QwVerdict:
    """Check c_k < sqrt(2 k vol_Y) for k = 1..kmax, squared and on exact
    rational bounds of approximate values.  Raises ApproxTie when those
    bounds cannot decide a k.  Exploratory for polydisks, whose boundary is
    only piecewise smooth."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    exploratory = _contains(domain, Polydisk)
    if _contains(domain, ToricNorm):
        kmax = min(kmax, TORIC_TRACE_KMAX)
    vol_y = volume(domain).scaled(2)
    seq = capacities(domain, kmax, node_limit=node_limit)
    if vol_y.is_exact and seq.den is not None:
        # c_k^2 < 2 k vol_Y on ints: v^2 q < 2 k p den^2, with vol_Y = p/q
        q = vol_y.frac.denominator
        bound = 2 * vol_y.frac.numerator * seq.den ** 2
        k = next((k for k, v in enumerate(islice(seq._items, 1, None), 1)
                  if v * v * q >= k * bound), None)
        return QwVerdict(k is None, kmax, k, exploratory)
    vol_lo, vol_hi = _bounds(vol_y)
    for k, c_k in enumerate(islice(seq, 1, None), 1):
        lo, hi = _bounds(c_k)
        if hi * hi < 2 * k * vol_lo:
            continue
        if lo * lo >= 2 * k * vol_hi:
            return QwVerdict(False, kmax, k, exploratory)
        raise ApproxTie(f"cannot decide c_{k} = {c_k!r} < sqrt(2 k vol_Y) "
                        "within error bounds")
    return QwVerdict(True, kmax, None, exploratory)


def _bounds(value: CapacityValue) -> Tuple[Fraction, Fraction]:
    """Exact rational bounds on a finite value: the value itself when it is
    rational, else value +/- err computed on the floats' exact Fractions."""
    if value.is_exact:
        return value.frac, value.frac
    mid, err = Fraction(value.value), Fraction(value.err)
    return max(mid - err, Fraction(0)), mid + err


def weinstein_bound(domain: Domain) -> CapacityValue:
    """sqrt(2 vol_Y), the conjectured bound on the shortest orbit action."""
    vol_y = volume(domain).scaled(2)
    if vol_y.is_exact:
        return CapacityValue.sqrt_rational(2 * vol_y.frac)
    v = math.sqrt(2.0 * vol_y.value)
    return CapacityValue.approx(v, 2.0 * math.ulp(v))
