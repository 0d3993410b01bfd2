"""Capacity values and monotone capacity sequences.

A capacity value is an exact nonnegative rational, an approximate real with
an absolute error bound, or +infinity.  Everything the model domains produce
with rational size parameters is exact; approximate values only enter through
Euclidean lengths (square roots) and the area of the round unit disk.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import ApproxTie

RationalLike = Union[int, str, Fraction]


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


def format_fraction(q: Fraction) -> str:
    """'p/q', or the bare numerator for an integer: the inverse of
    as_fraction on strings."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _ulp(x: float) -> float:
    return math.ulp(abs(x)) if x else math.ulp(1.0)


class CapacityValue:
    """Exact rational, error-bounded approximate real, or +infinity.

    Approximate values that arise as the square root of a rational keep the
    exact square, so comparisons against exact rationals (and other such
    roots) stay exact.  compare() returns 0 when two values cannot be
    separated within their combined error window; call sites that need a
    definite order use definitely_le / definitely_lt, which raise ApproxTie
    in that situation instead of guessing.
    """

    __slots__ = ("frac", "value", "err", "square")

    def __init__(self, frac: Optional[Fraction], value: float, err: float,
                 square: Optional[Fraction] = None):
        self.frac = frac
        self.value = value
        self.err = err
        self.square = square

    # -- constructors -----------------------------------------------------

    @classmethod
    def exact(cls, q: RationalLike) -> "CapacityValue":
        f = q if type(q) is Fraction else as_fraction(q)
        if f < 0:
            raise ValueError(f"capacity values are nonnegative, got {f}")
        return cls(f, f.numerator / f.denominator, 0.0)

    @classmethod
    def approx(cls, value: float, err: float,
               square: Optional[Fraction] = None) -> "CapacityValue":
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"approximate value must be finite and >= 0, got {value}")
        if not (err >= 0 and math.isfinite(err)):
            raise ValueError(f"error bound must be finite and >= 0, got {err}")
        return cls(None, value, err, square)

    @classmethod
    def sqrt_rational(cls, q: RationalLike) -> "CapacityValue":
        """sqrt of a nonnegative rational; exact whenever the root is rational."""
        f = as_fraction(q)
        if f < 0:
            raise ValueError(f"cannot take sqrt of negative rational {f}")
        rp = math.isqrt(f.numerator)
        rq = math.isqrt(f.denominator)
        if rp * rp == f.numerator and rq * rq == f.denominator:
            return cls.exact(Fraction(rp, rq))
        v = math.sqrt(f.numerator / f.denominator)
        return cls.approx(v, 2.0 * _ulp(v), square=f)

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

    @property
    def is_approx(self) -> bool:
        return self.frac is None and not self.is_infinite

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
        # adding an exact zero changes nothing; keep the exact square
        if self.is_exact and self.frac == 0:
            return other
        if other.is_exact and other.frac == 0:
            return self
        v = self.value + other.value
        return CapacityValue.approx(v, self.err + other.err + _ulp(v))

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
        sq = self.square * c * c if self.square is not None else None
        return CapacityValue.approx(v, self.err * float(c) + _ulp(v), square=sq)

    # -- comparison ------------------------------------------------------------

    def _exact_square(self) -> Optional[Fraction]:
        if self.is_exact:
            return self.frac * self.frac
        return self.square

    def compare(self, other: "CapacityValue") -> int:
        """-1, 0, +1; 0 means equal or indistinguishable within error bounds."""
        if self is other:   # closed forms share one value per run of equal entries
            return 0
        if self.is_infinite or other.is_infinite:
            if self.is_infinite and other.is_infinite:
                return 0
            return 1 if self.is_infinite else -1
        if self.is_exact and other.is_exact:
            a, b = self.frac, other.frac
            return (a > b) - (a < b)
        sa, sb = self._exact_square(), other._exact_square()
        if sa is not None and sb is not None:
            # both are nonnegative, so squares compare the same way
            return (sa > sb) - (sa < sb)
        diff = self.value - other.value
        window = self.err + other.err
        if diff > window:
            return 1
        if diff < -window:
            return -1
        return 0

    def _is_definite_tie(self, other: "CapacityValue") -> bool:
        """True when compare()==0 actually means equality, not ambiguity."""
        if self.is_infinite or other.is_infinite:
            return True
        if self.is_exact and other.is_exact:
            return True
        sa, sb = self._exact_square(), other._exact_square()
        if sa is not None and sb is not None:
            return True
        return (self.value == other.value and self.err == other.err
                and self.square == other.square)

    def definitely_le(self, other: "CapacityValue") -> bool:
        c = self.compare(other)
        if c != 0:
            return c < 0
        if self._is_definite_tie(other):
            return True
        raise ApproxTie(f"cannot decide {self!r} <= {other!r} within error bounds")

    def definitely_lt(self, other: "CapacityValue") -> bool:
        c = self.compare(other)
        if c != 0:
            return c < 0
        if self._is_definite_tie(other):
            return False
        raise ApproxTie(f"cannot decide {self!r} < {other!r} within error bounds")

    def __gt__(self, other: "CapacityValue") -> bool:
        """compare() > 0: max() keeps the earliest of values it cannot order."""
        if not isinstance(other, CapacityValue):
            return NotImplemented
        return self.compare(other) > 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, CapacityValue):
            return NotImplemented
        if self.is_infinite or other.is_infinite:
            return self.is_infinite and other.is_infinite
        if self.is_exact and other.is_exact:
            return self.frac == other.frac
        return (self.is_approx and other.is_approx
                and self.value == other.value and self.err == other.err
                and self.square == other.square)

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
    """

    __slots__ = ("index_origin", "entries")

    def __init__(self, index_origin: int, entries: Iterable[CapacityValue]):
        if index_origin not in (0, 1):
            raise ValueError(f"index_origin must be 0 or 1, got {index_origin}")
        entries = tuple(entries)
        if not entries:
            raise ValueError("capacity sequence needs at least one entry")
        if index_origin == 0 and not (entries[0].is_exact and entries[0].frac == 0):
            raise ValueError(f"distinguished sequences start at 0, got {entries[0]!r}")
        for i in range(len(entries) - 1):
            if entries[i].compare(entries[i + 1]) > 0:
                raise ValueError(
                    f"sequence not nondecreasing at k={index_origin + i}: "
                    f"{entries[i]!r} > {entries[i + 1]!r}"
                )
        self.index_origin = index_origin
        self.entries = entries

    @property
    def kmax(self) -> int:
        return self.index_origin + len(self.entries) - 1

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k: int) -> CapacityValue:
        i = k - self.index_origin
        if i < 0 or i >= len(self.entries):
            raise IndexError(f"k={k} outside defined range "
                             f"[{self.index_origin}, {self.kmax}]")
        return self.entries[i]

    def fractions(self) -> Sequence[Fraction]:
        """All entries as exact fractions; raises if any entry is not exact."""
        return [e.as_fraction() for e in self.entries]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CapacitySequence):
            return NotImplemented
        return (self.index_origin == other.index_origin
                and self.entries == other.entries)

    __hash__ = None

    def __repr__(self) -> str:
        head = ", ".join(repr(e) for e in self.entries[:6])
        tail = ", ..." if len(self.entries) > 6 else ""
        return (f"CapacitySequence(origin={self.index_origin}, "
                f"kmax={self.kmax}, [{head}{tail}])")
