"""Model domains: ellipsoids, balls, polydisks, toric norm-domains, unions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .lattice import Euclidean, Norm, Polygonal, WeightedL1
from .values import RationalLike, as_fraction, format_fraction


class Domain:
    """Base class for the model domains."""


@dataclass(frozen=True)
class Ellipsoid(Domain):
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        if self.a <= 0 or self.b <= 0:
            raise ValueError("ellipsoid sizes must be positive")


@dataclass(frozen=True)
class Ball(Domain):
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        if self.a <= 0:
            raise ValueError("ball size must be positive")


@dataclass(frozen=True)
class Polydisk(Domain):
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        if self.a <= 0 or self.b <= 0:
            raise ValueError("polydisk sizes must be positive")


@dataclass(frozen=True)
class ToricNorm(Domain):
    norm: Norm

    def __post_init__(self):
        if not isinstance(self.norm, Norm):
            raise TypeError("ToricNorm expects a Norm instance")


@dataclass(frozen=True)
class DisjointUnion(Domain):
    parts: Tuple[Domain, ...]

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a disjoint union needs at least one part")
        if any(not isinstance(p, Domain) for p in parts):
            raise TypeError("disjoint union parts must be domains")
        object.__setattr__(self, "parts", parts)


def scale(domain: Domain, factor: RationalLike) -> Domain:
    """Multiply every size parameter by a positive rational factor."""
    c = as_fraction(factor)
    if c <= 0:
        raise ValueError("scale factor must be positive")
    if isinstance(domain, Ellipsoid):
        return Ellipsoid(domain.a * c, domain.b * c)
    if isinstance(domain, Ball):
        return Ball(domain.a * c)
    if isinstance(domain, Polydisk):
        return Polydisk(domain.a * c, domain.b * c)
    if isinstance(domain, ToricNorm):
        return ToricNorm(domain.norm.scale(c))
    if isinstance(domain, DisjointUnion):
        return DisjointUnion(tuple(scale(p, c) for p in domain.parts))
    raise TypeError(f"unsupported domain {domain!r}")


def describe(domain: Domain) -> str:
    """Canonical one-line label, matching the CLI spec grammar."""
    if isinstance(domain, Ball):
        return f"ball({format_fraction(domain.a)})"
    if isinstance(domain, Ellipsoid):
        return f"ellipsoid({format_fraction(domain.a)},{format_fraction(domain.b)})"
    if isinstance(domain, Polydisk):
        return f"polydisk({format_fraction(domain.a)},{format_fraction(domain.b)})"
    if isinstance(domain, ToricNorm):
        norm = domain.norm
        if isinstance(norm, Euclidean):
            return "toric(euclidean)"
        if isinstance(norm, WeightedL1):
            return f"toric(l1:{format_fraction(norm.a)},{format_fraction(norm.b)})"
        if isinstance(norm, Polygonal):
            verts = ",".join(f"[{format_fraction(x)},{format_fraction(y)}]"
                             for x, y in norm.vertices)
            return f"toric(poly:[{verts}])"
    if isinstance(domain, DisjointUnion):
        return "union(" + ";".join(describe(p) for p in domain.parts) + ")"
    raise TypeError(f"unsupported domain {domain!r}")
