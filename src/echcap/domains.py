"""Model domains: ellipsoids, balls, polydisks, toric norm-domains, unions."""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .lattice import Euclidean, Norm, Polygonal, WeightedL1
from .values import RationalLike, Record, _positive


class Domain(Record):
    """Base class for the model domains."""


class _Sizes(Domain):
    """The body of a domain of two positive sizes a, b, named by its class."""

    a: Fraction
    b: Fraction

    def __init__(self, a: RationalLike, b: RationalLike):
        what = f"{type(self).__name__.lower()} sizes"
        self.__dict__["a"] = _positive(a, what)
        self.__dict__["b"] = _positive(b, what)


class Ellipsoid(_Sizes):
    """The ellipsoid E(a, b)."""


class Ball(Ellipsoid):
    """The round ellipsoid B(a) = E(a, a), built, printed and hashed by a."""

    _fields = ("a",)

    def __init__(self, a: RationalLike):
        self.__dict__["a"] = self.__dict__["b"] = _positive(a, "ball size")


class Polydisk(_Sizes):
    """The polydisk P(a, b)."""


class ToricNorm(Domain):
    norm: Norm

    def __init__(self, norm: Norm):
        if not isinstance(norm, Norm):
            raise TypeError("ToricNorm expects a Norm instance")
        self.__dict__["norm"] = norm


class DisjointUnion(Domain):
    parts: Tuple[Domain, ...]

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a disjoint union needs at least one part")
        if any(not isinstance(p, Domain) for p in parts):
            raise TypeError("disjoint union parts must be domains")
        self.__dict__["parts"] = parts


def scale(domain: Domain, factor: RationalLike) -> Domain:
    """Multiply every size parameter by a positive rational factor."""
    c = _positive(factor, "scale factor")
    if isinstance(domain, _Sizes):   # a Ball too, by its one size
        return type(domain)(*(size * c for size in domain._values()))
    if isinstance(domain, ToricNorm):
        return ToricNorm(domain.norm.scale(c))
    if isinstance(domain, DisjointUnion):
        return DisjointUnion(tuple(scale(p, c) for p in domain.parts))
    raise TypeError(f"unsupported domain {domain!r}")


def describe(domain: Domain) -> str:
    """Canonical one-line label, matching the CLI spec grammar."""
    if isinstance(domain, _Sizes):   # a Ball too, by its one size
        sizes = ",".join(map(str, domain._values()))
        return f"{type(domain).__name__.lower()}({sizes})"
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
