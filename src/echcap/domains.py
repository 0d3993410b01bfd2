"""Model domains: ellipsoids, balls, polydisks, toric norm-domains, unions."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Tuple

from .lattice import Euclidean, Norm, Polygonal, WeightedL1
from .values import RationalLike, as_fraction


class Domain:
    """Base class for the model domains."""


@dataclass(frozen=True)
class _Sizes(Domain):
    """The body of a domain of two positive sizes a, b, named by its class."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"{type(self).__name__.lower()} sizes must be positive")


@dataclass(frozen=True)
class Ellipsoid(_Sizes):
    """The ellipsoid E(a, b)."""


@dataclass(frozen=True)
class Ball(Ellipsoid):
    """The round ellipsoid B(a) = E(a, a), built, printed and hashed by a."""

    b: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        if self.a <= 0:
            raise ValueError("ball size must be positive")
        object.__setattr__(self, "b", self.a)


@dataclass(frozen=True)
class Polydisk(_Sizes):
    """The polydisk P(a, b)."""


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
    if isinstance(domain, Ball):
        return Ball(domain.a * c)
    if isinstance(domain, _Sizes):
        return type(domain)(domain.a * c, domain.b * c)
    if isinstance(domain, ToricNorm):
        return ToricNorm(domain.norm.scale(c))
    if isinstance(domain, DisjointUnion):
        return DisjointUnion(tuple(scale(p, c) for p in domain.parts))
    raise TypeError(f"unsupported domain {domain!r}")


def describe(domain: Domain) -> str:
    """Canonical one-line label, matching the CLI spec grammar."""
    if isinstance(domain, Ball):
        return f"ball({domain.a})"
    if isinstance(domain, _Sizes):
        return f"{type(domain).__name__.lower()}({domain.a},{domain.b})"
    if isinstance(domain, ToricNorm):
        norm = domain.norm
        if isinstance(norm, Euclidean):
            return "toric(euclidean)"
        if isinstance(norm, WeightedL1):
            return f"toric(l1:{norm.a},{norm.b})"
        if isinstance(norm, Polygonal):
            verts = ",".join(f"[{x},{y}]" for x, y in norm.vertices)
            return f"toric(poly:[{verts}])"
    if isinstance(domain, DisjointUnion):
        return "union(" + ";".join(describe(p) for p in domain.parts) + ")"
    raise TypeError(f"unsupported domain {domain!r}")
