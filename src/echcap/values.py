"""Capacity values and monotone capacity sequences.

A capacity value is an exact nonnegative rational, an exact sum of rational
multiples of square roots (Euclidean lengths), an approximate real with an
absolute error bound, or +infinity.  Everything the model domains produce
with rational size parameters is exact; approximate values only enter through
the area of the round unit disk (pi) and through approx() inputs.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import ApproxTie

RationalLike = Union[int, str, Fraction]
Roots = Tuple[Tuple[int, Union[int, Fraction]], ...]   # ((n, q), ...): sum q sqrt(n)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce int / 'p/q' string / Fraction to Fraction.

    Floats are rejected on purpose: the library is exact and a float would
    silently poison every downstream comparison.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}; pass an int, a Fraction, or a 'p/q' string"
        )
    return Fraction(value)


def _integer(x) -> int:
    """An integral count or lattice coordinate as an int; ValueError else."""
    if int(x) != x:
        raise ValueError(f"counts and lattice coordinates must be integers, got {x!r}")
    return int(x)


def _over_common_denominator(*sizes: Fraction) -> Tuple[int, List[int]]:
    """(d, [q * d for q in sizes]) with d the least common denominator."""
    den = math.lcm(*(q.denominator for q in sizes))
    return den, [q.numerator * (den // q.denominator) for q in sizes]


def _staircase(need: int) -> Iterator[Tuple[int, int]]:
    """Corners (m, n) of {(m, n) >= 0 : (m+1)(n+1) >= need}, need >= 1, by
    increasing m: every point of the set is entrywise >= one of them.

    n + 1 = q = ceil(need/(m+1)) is constant on runs of m, a corner starts
    each run, and the next run starts at m + 1 = ceil(need/(q-1)): q takes
    at most 2 sqrt(need) + 1 values.
    """
    t = 1   # m + 1
    while True:
        q = -(-need // t)
        yield t - 1, q - 1
        if q == 1:
            return
        t = -(-need // (q - 1))


def _polydisk_entry(a: int, b: int, need: int) -> int:
    """min{a*m + b*n : (m+1)(n+1) >= need} over ints a, b >= 0: c_k of the
    polydisk P(a, b) at need = k+1, from the corners of the staircase."""
    return min(a * m + b * n for m, n in _staircase(need))


def _ulp(x: float) -> float:
    return math.ulp(abs(x)) if x else math.ulp(1.0)


def _squarefree(n: int) -> Tuple[int, int]:
    """(r, s) with n = s^2 r and r square-free, for n >= 1."""
    s = max(d for d in range(1, math.isqrt(n) + 1) if n % (d * d) == 0)
    return n // (s * s), s


def _sign(plus: Roots, minus: Roots) -> int:
    """Exact sign of sum(plus) - sum(minus), terms (n, q) meaning q sqrt(n).

    Terms whose radicands multiply to a perfect square s^2 are merged by
    sqrt(n) = (s/m) sqrt(m).  The square roots left have distinct square-free
    parts, so they are linearly independent over Q (Besicovitch): the sum is
    0 only when every merged coefficient is.  Otherwise integer square-root
    enclosures at doubling precision separate it from 0.
    """
    by_radicand: Dict[int, Union[int, Fraction]] = {}
    for n, q in plus:
        by_radicand[n] = by_radicand.get(n, 0) + q
    for n, q in minus:
        by_radicand[n] = by_radicand.get(n, 0) - q
    merged: list = []   # [m, coefficient of sqrt(m)]
    for n, q in by_radicand.items():
        if q == 0:   # most ties cancel here, before any isqrt
            continue
        for rep in merged:
            s = math.isqrt(n * rep[0])
            if s * s == n * rep[0]:
                rep[1] += Fraction(q * s, rep[0])
                break
        else:
            merged.append([n, q])
    merged = [(m, q) for m, q in merged if q]
    if not merged:
        return 0
    bits = 64
    while True:
        lo = hi = 0
        for m, q in merged:
            r = math.isqrt(m << (2 * bits))   # r <= sqrt(m) 2^bits < r + 1
            lo += q * (r if q > 0 else r + 1)
            hi += q * (r + 1 if q > 0 else r)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


class CapacityValue:
    """Exact rational, exact sum of square roots, approximate real, or +inf.

    Every finite value carries a float and an error bound; a rational also
    keeps frac, and a sum of square roots its unreduced terms (n, q), meaning
    sum q sqrt(n), in roots.  compare() decides by the float window when it
    can and otherwise by the exact forms, so exact values always compare
    exactly.  An approx() value has only the window: compare() returns 0 when
    it cannot separate it from another value, and definitely_le /
    definitely_lt raise ApproxTie there instead of guessing.
    """

    __slots__ = ("frac", "value", "err", "roots")

    def __init__(self, frac: Optional[Fraction], value: float, err: float,
                 roots: Optional[Roots] = None):
        self.frac = frac
        self.value = value
        self.err = err
        self.roots = roots

    # -- constructors -----------------------------------------------------

    @classmethod
    def exact(cls, q: RationalLike) -> "CapacityValue":
        f = q if type(q) is Fraction else as_fraction(q)
        if f < 0:
            raise ValueError(f"capacity values are nonnegative, got {f}")
        return cls(f, f.numerator / f.denominator, 0.0)

    @classmethod
    def approx(cls, value: float, err: float) -> "CapacityValue":
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"approximate value must be finite and >= 0, got {value}")
        if not (err >= 0 and math.isfinite(err)):
            raise ValueError(f"error bound must be finite and >= 0, got {err}")
        return cls(None, value, err)

    @classmethod
    def sqrt_rational(cls, q: RationalLike) -> "CapacityValue":
        """sqrt of a nonnegative rational p/r: the term (p r, 1/r), or a rational."""
        f = as_fraction(q)
        if f < 0:
            raise ValueError(f"cannot take sqrt of negative rational {f}")
        p, r = f.numerator, f.denominator
        rp = math.isqrt(p)
        rq = math.isqrt(r)
        if rp * rp == p and rq * rq == r:
            return cls.exact(Fraction(rp, rq))
        v = math.sqrt(p / r)
        return cls(None, v, 2.0 * _ulp(v), ((p * r, 1 if r == 1 else Fraction(1, r)),))

    @classmethod
    def infinite(cls) -> "CapacityValue":
        return cls(None, math.inf, 0.0)

    # -- predicates --------------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        return self.value == math.inf

    @property
    def is_exact(self) -> bool:
        return self.frac is not None

    def _terms(self) -> Optional[Roots]:
        """The exact form as (n, q) terms, or None for approx() and infinity."""
        f = self.frac
        if f is not None:   # int coefficients keep _sign's sums on ints
            return ((1, f.numerator if f.denominator == 1 else f),)
        return self.roots

    # -- conversions ---------------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.frac is None:
            raise ValueError(f"{self!r} is not an exact rational")
        return self.frac

    def __float__(self) -> float:
        return self.value

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CapacityValue") -> "CapacityValue":
        if not isinstance(other, CapacityValue):
            return NotImplemented
        if self.is_infinite or other.is_infinite:
            return CapacityValue.infinite()
        if self.is_exact and other.is_exact:
            return CapacityValue.exact(self.frac + other.frac)
        # adding an exact zero changes nothing
        if self.is_exact and self.frac == 0:
            return other
        if other.is_exact and other.frac == 0:
            return self
        v = self.value + other.value
        a, b = self._terms(), other._terms()
        roots = a + b if a is not None and b is not None else None
        return CapacityValue(None, v, self.err + other.err + _ulp(v), roots)

    def scaled(self, factor: RationalLike) -> "CapacityValue":
        """Multiply by a nonnegative exact rational factor."""
        c = as_fraction(factor)
        if c < 0:
            raise ValueError("scale factor must be >= 0")
        if self.is_infinite:
            return CapacityValue.exact(0) if c == 0 else CapacityValue.infinite()
        if self.is_exact:
            return CapacityValue.exact(self.frac * c)
        v = self.value * float(c)
        m = c.numerator if c.denominator == 1 else c   # int factors keep int terms
        roots = self.roots and tuple((n, q * m) for n, q in self.roots)
        return CapacityValue(None, v, self.err * float(c) + _ulp(v), roots)

    # -- comparison ------------------------------------------------------------

    def compare(self, other: "CapacityValue") -> int:
        """-1, 0, +1.  Exact unless a value is from approx(), where 0 means
        equal or indistinguishable within error bounds."""
        if self.is_infinite or other.is_infinite:
            if self.is_infinite and other.is_infinite:
                return 0
            return 1 if self.is_infinite else -1
        if self.is_exact and other.is_exact:
            a, b = self.frac, other.frac
            return (a > b) - (a < b)
        diff = self.value - other.value
        window = self.err + other.err
        if diff > window:
            return 1
        if diff < -window:
            return -1
        a, b = self._terms(), other._terms()
        if a is None or b is None:
            return 0
        return _sign(a, b)

    def _decided(self, other: "CapacityValue", op: str) -> int:
        """compare(), raising ApproxTie where its 0 only means that an
        approx() value cannot be told apart from a different value."""
        c = self.compare(other)
        if c == 0 and not (self._terms() and other._terms()) and self != other:
            raise ApproxTie(f"cannot decide {self!r} {op} {other!r} within error bounds")
        return c

    def definitely_le(self, other: "CapacityValue") -> bool:
        return self._decided(other, "<=") <= 0

    def definitely_lt(self, other: "CapacityValue") -> bool:
        return self._decided(other, "<") < 0

    def __gt__(self, other: "CapacityValue") -> bool:
        """compare() > 0: max() keeps the earliest of values it cannot order."""
        if not isinstance(other, CapacityValue):
            return NotImplemented
        return self.compare(other) > 0

    def __eq__(self, other) -> bool:
        """Exact equality of exact values; identical representations
        otherwise (infinity, approx())."""
        if not isinstance(other, CapacityValue):
            return NotImplemented
        a, b = self._terms(), other._terms()
        if a is not None and b is not None:
            return self.compare(other) == 0
        return a is b and self.value == other.value and self.err == other.err

    __hash__ = None  # mutable-free but identity-less; not meant for sets

    def __repr__(self) -> str:
        if self.is_infinite:
            return "CapacityValue(inf)"
        if self.is_exact:
            return f"CapacityValue({self.frac})"
        return f"CapacityValue(~{self.value!r} +/- {self.err:.3g})"


class CapacitySequence:
    """Nondecreasing sequence of capacity values with a declared index origin.

    index_origin 0 is the distinguished spectrum (entry at k=0 must be 0);
    index_origin 1 is the full spectrum (entries start at k=1).

    Exact rationals are stored as ints over a common denominator den; any
    other sequence keeps its values, with den None.  Values are built on
    read: one per run of equal entries when iterating, one per index.
    """

    __slots__ = ("index_origin", "den", "_items")

    def __init__(self, index_origin: int, entries: Iterable[CapacityValue]):
        items, den = tuple(entries), None
        if items and all(e.is_exact for e in items):
            den, items = _over_common_denominator(*(e.frac for e in items))
        self._store(index_origin, den, items)

    @classmethod
    def _from_ints(cls, index_origin: int, den: int, scaled: Sequence[int]):
        """The sequence scaled[i] / den, from a kernel's ints."""
        return cls.__new__(cls)._store(index_origin, den, scaled)

    def _store(self, index_origin: int, den: Optional[int], items: Sequence):
        if index_origin not in (0, 1):
            raise ValueError(f"index_origin must be 0 or 1, got {index_origin}")
        if not items:
            raise ValueError("capacity sequence needs at least one entry")
        self.index_origin, self.den, self._items = index_origin, den, items
        if index_origin == 0 and (items[0] != 0 if den is not None
                                  else items[0] != CapacityValue.exact(0)):
            raise ValueError(f"distinguished sequences start at 0, got {self[0]!r}")
        # ints, or CapacityValue.compare() > 0; the loop only names the k
        if any(map(operator.gt, items, islice(items, 1, None))):
            for k, (a, b) in enumerate(zip(items, islice(items, 1, None)), index_origin):
                if a > b:
                    raise ValueError(f"sequence not nondecreasing at k={k}: "
                                     f"{self[k]!r} > {self[k + 1]!r}")
        return self

    @property
    def kmax(self) -> int:
        return self.index_origin + len(self._items) - 1

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        if self.den is None:
            yield from self._items
            return
        prev = value = None
        for v in self._items:
            if v != prev:
                prev, value = v, CapacityValue.exact(Fraction(v, self.den))
            yield value

    def __getitem__(self, k: int) -> CapacityValue:
        i = k - self.index_origin
        if i < 0 or i >= len(self._items):
            raise IndexError(f"k={k} outside defined range "
                             f"[{self.index_origin}, {self.kmax}]")
        v = self._items[i]
        return v if self.den is None else CapacityValue.exact(Fraction(v, self.den))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CapacitySequence):
            return NotImplemented
        if self.index_origin != other.index_origin or len(self) != len(other):
            return False
        if self.den is None or other.den is None:
            return tuple(self) == tuple(other)
        # a/d1 == b/d2 iff a*d2 == b*d1
        return all(a * other.den == b * self.den
                   for a, b in zip(self._items, other._items))

    __hash__ = None

    def __repr__(self) -> str:
        head = ", ".join(repr(e) for e in islice(self, 6))
        tail = ", ..." if len(self) > 6 else ""
        return (f"CapacitySequence(origin={self.index_origin}, "
                f"kmax={self.kmax}, [{head}{tail}])")
