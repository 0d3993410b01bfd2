"""Convex lattice polygons and planar norms.

Polygons are stored up to translation: the lexicographically smallest vertex
sits at the origin.  Degenerate polygons are allowed: a single point has no
edges, a segment is traversed as the edge pair {v, -v}.  A Euclidean
perimeter is exact as its radicand key.

The length-minimizing polygon search lives in echcap.toric, which only
toric specs run; its public names resolve here on first access.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from .errors import NotPrimitive
from .values import (CapacityValue, RationalLike, Record, _integer,
                     _over_common_denominator, _positive, _ulp, as_fraction)

DEFAULT_NODE_LIMIT = 10_000_000

IntPoint = Tuple[int, int]
Length = Union[int, float]     # a search length: int over a denominator, or float


def resolve_node_limit(node_limit: Optional[int]) -> int:
    """Explicit argument wins, then ECHCAP_NODE_LIMIT, then the default.
    ValueError for a negative or non-integral limit (2.5, inf, as _integer
    reads a count) or a non-integer ECHCAP_NODE_LIMIT."""
    if node_limit is None:
        env = os.environ.get("ECHCAP_NODE_LIMIT")
        try:
            node_limit = int(env) if env else DEFAULT_NODE_LIMIT
        except ValueError:
            raise ValueError(f"ECHCAP_NODE_LIMIT must be an integer, got {env!r}") from None
    if (node_limit := _integer(node_limit)) < 0:
        raise ValueError(f"node limit must be >= 0, got {node_limit}")
    return node_limit


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _pair(v) -> Tuple[RationalLike, RationalLike]:
    """A vector's coordinates: two ints as they are, else as Fractions."""
    x, y = v
    if type(x) is int and type(y) is int:
        return x, y
    return (as_fraction(x), as_fraction(y))


class Norm(Record):
    """Symmetric positively homogeneous gauge on the plane."""

    def length(self, vector) -> CapacityValue:
        den, f = self._lengths()   # f is exact on ints and Fractions alike
        return CapacityValue.exact(Fraction(f(*vector), den))

    def dual_eval(self, covector) -> CapacityValue:
        """Value of the dual norm on a covector."""
        raise NotImplementedError

    def dual_ball_area(self) -> CapacityValue:
        """Area of the dual-norm unit ball (the volume of the toric domain)."""
        raise NotImplementedError

    def scale(self, factor: RationalLike) -> "Norm":
        raise NotImplementedError

    def _lengths(self) -> Tuple[Optional[int], Callable[[int, int], Length]]:
        """(den, f) for the polygon search: f(x, y) is the length of the
        lattice vector (x, y) as an int over den, or as a float when den is
        None (lengths that are not all rational)."""
        raise NotImplementedError


class Euclidean(Norm):
    """The round norm.  Lengths are exact sums of square roots."""

    def length(self, vector) -> CapacityValue:
        x, y = _pair(vector)
        return CapacityValue.sqrt_rational(x * x + y * y)

    def dual_eval(self, covector) -> CapacityValue:
        return self.length(covector)

    def dual_ball_area(self) -> CapacityValue:
        return CapacityValue.approx(math.pi, 2.0 * math.ulp(math.pi))

    def scale(self, factor):
        raise ValueError("the Euclidean norm has no size parameter to scale")

    def _lengths(self):
        return None, math.hypot


class WeightedL1(Norm):
    """|(x, y)| = a|x|/2 + b|y|/2 with positive rational weights."""

    a: Fraction
    b: Fraction

    def __init__(self, a: RationalLike, b: RationalLike):
        a, b = as_fraction(a), as_fraction(b)
        if a <= 0 or b <= 0:
            raise ValueError("weighted L1 norm needs positive weights")
        self.__dict__["a"] = a
        self.__dict__["b"] = b
        # (den, [a/2, b/2] times den) for _lengths(): a tuple pickles, a closure not
        self.__dict__["_int_weights"] = _over_common_denominator(a / 2, b / 2)

    def dual_eval(self, covector) -> CapacityValue:
        p, q = _pair(covector)
        return CapacityValue.exact(max(2 * abs(p) / self.a, 2 * abs(q) / self.b))

    def dual_ball_area(self) -> CapacityValue:
        # dual unit ball is the rectangle |p1| <= a/2, |p2| <= b/2
        return CapacityValue.exact(self.a * self.b)

    def scale(self, factor):
        c = _positive(factor, "scale factor")
        return WeightedL1(self.a * c, self.b * c)

    def _lengths(self):
        den, (ia, ib) = self._int_weights
        return den, lambda x, y: ia * abs(x) + ib * abs(y)


class Polygonal(Norm):
    """Gauge of a centrally symmetric convex polygon with rational vertices."""

    vertices: Tuple[Tuple[Fraction, Fraction], ...]

    def __init__(self, vertices: Sequence[Tuple[RationalLike, RationalLike]]):
        verts = [(as_fraction(x), as_fraction(y)) for x, y in vertices]
        if len(verts) < 4:
            raise ValueError("polygonal unit ball needs at least 4 vertices")
        # the tests run on the vertices times their common denominator; the
        # float angle key orders them, and the exact convexity and origin
        # tests, which make every step turn left by less than pi, confirm
        # that order (the float angles add up to one turn)
        den, flat = _over_common_denominator(*(c for v in verts for c in v))
        points = list(zip(flat[::2], flat[1::2]))
        order = sorted(range(len(verts)), key=lambda i: (
            math.atan2(verts[i][1], verts[i][0]),
            points[i][0] * points[i][0] + points[i][1] * points[i][1]))
        verts, points = [verts[i] for i in order], [points[i] for i in order]
        if (0, 0) in points:
            raise ValueError("origin cannot be a vertex of the unit ball")
        n = len(points)
        for i in range(n):
            ax, ay = points[i]
            bx, by = points[(i + 1) % n]
            cx, cy = points[(i + 2) % n]
            if (bx - ax) * (cy - by) - (by - ay) * (cx - bx) <= 0:
                raise ValueError("unit ball vertices must be in strictly convex position")
            if ax * by - ay * bx <= 0:
                raise ValueError("unit ball must contain the origin in its interior")
        if set(points) != {(-x, -y) for (x, y) in points}:
            raise ValueError("unit ball must be centrally symmetric")
        self.__dict__["vertices"] = tuple(verts)
        self.__dict__["_int_vertices"] = (den, tuple(points))

    @cached_property
    def polar(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        """Vertices of the polar dual (one per edge of the unit ball)."""
        den, polar = self._int_polar
        return tuple((Fraction(ux, den), Fraction(uy, den)) for ux, uy in polar)

    def dual_eval(self, covector) -> CapacityValue:
        p, q = _pair(covector)
        den, points = self._int_vertices
        return CapacityValue.exact(Fraction(max(p * x + q * y for x, y in points), den))

    def dual_ball_area(self) -> CapacityValue:
        den, polar = self._int_polar
        return CapacityValue.exact(Fraction(_shoelace2(polar), 2 * den * den))

    def scale(self, factor):
        c = _positive(factor, "scale factor")
        return Polygonal(tuple((x / c, y / c) for x, y in self.vertices))

    @cached_property
    def _int_polar(self) -> Tuple[int, Tuple[IntPoint, ...]]:
        """(den, polar vertices times den as ints): the edge from v/d to w/d
        has polar vertex (x, y)/c = d(w_y - v_y, v_x - w_x)/(v x w), and den
        is the lcm of each c/gcd(x, y, c).  The tuple is cached, not the
        closure of _lengths(), so the norm still pickles."""
        d, points = self._int_vertices
        edges = [(d * (wy - vy), d * (vx - wx), vx * wy - vy * wx)
                 for (vx, vy), (wx, wy) in zip(points, points[1:] + points[:1])]
        den = math.lcm(*(c // gcd(x, y, c) for x, y, c in edges))
        return den, tuple((x * den // c, y * den // c) for x, y, c in edges)

    def _lengths(self):
        den, polar = self._int_polar

        def length(x, y):
            return max(ux * x + uy * y for ux, uy in polar)
        return den, length


EUCLIDEAN = Euclidean()


def _shoelace2(verts: Sequence[Tuple[Fraction, Fraction]]) -> Union[int, Fraction]:
    """Twice the signed area of a closed vertex loop (an int for int vertices)."""
    total = 0
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        total += ax * by - ay * bx
    return total


# ---------------------------------------------------------------------------
# lattice polygons
# ---------------------------------------------------------------------------

class LatticePolygon(Record):
    """Possibly degenerate convex lattice polygon, canonical under translation.

    vertices are counterclockwise, integer, and start at the lexicographically
    smallest vertex which is the origin.  Use from_vertices() for arbitrary
    input; the bare constructor trusts its argument.
    """

    vertices: Tuple[IntPoint, ...]

    def __init__(self, vertices: Tuple[IntPoint, ...]):
        self.__dict__["vertices"] = vertices

    @staticmethod
    def point() -> "LatticePolygon":
        return LatticePolygon(((0, 0),))

    @classmethod
    def from_vertices(cls, points: Sequence[Sequence[int]]) -> "LatticePolygon":
        verts = [(_integer(x), _integer(y)) for x, y in points]
        n = len(verts)
        if not n:
            raise ValueError("a polygon needs at least one vertex")
        if n == 2 and verts[0] == verts[1]:
            raise ValueError("segment endpoints must be distinct")
        for i in range(n if n > 2 else 0):   # a point or a segment has no turn
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % n]
            cx, cy = verts[(i + 2) % n]
            turn = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
            if turn <= 0:
                raise ValueError(
                    "vertices must be strictly convex and counterclockwise "
                    f"(violated at {verts[(i + 1) % n]})"
                )
        return cls(_canonical(verts))

    @property
    def kind(self) -> str:
        n = len(self.vertices)
        return "point" if n == 1 else "segment" if n == 2 else "proper"

    @cached_property
    def edges(self) -> Tuple[IntPoint, ...]:
        """Edge vectors in order: a segment's are v and -v, a point has none."""
        verts = self.vertices
        if len(verts) == 1:
            return ()
        return tuple((bx - ax, by - ay)
                     for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]))

    @cached_property
    def area2(self) -> int:
        """Twice the enclosed area (0 for degenerate polygons)."""
        return _shoelace2(self.vertices)

    @cached_property
    def lattice_point_count(self) -> int:
        """Lattice points in the closed region, by Pick's theorem, which a
        point (no edges) and a segment (area 0, each point counted once from
        v and once from -v) satisfy too."""
        b = sum(gcd(dx, dy) for dx, dy in self.edges)
        assert (self.area2 + b) % 2 == 0
        return (self.area2 + b) // 2 + 1


def _canonical(verts: Sequence[IntPoint]) -> Tuple[IntPoint, ...]:
    i = min(range(len(verts)), key=lambda j: verts[j])
    ox, oy = verts[i]
    rotated = verts[i:] + list(verts[:i])
    return tuple((x - ox, y - oy) for x, y in rotated)


def lattice_point_count(polygon: LatticePolygon) -> int:
    return polygon.lattice_point_count


def area(polygon: LatticePolygon) -> Fraction:
    return Fraction(polygon.area2, 2)


def perimeter(polygon: LatticePolygon, norm: Norm) -> CapacityValue:
    """Sum of norm.length over the edges; over den for a rational norm."""
    den, f = norm._lengths()
    if den is not None:
        return CapacityValue.exact(Fraction(sum(f(*edge) for edge in polygon.edges), den))
    picks = tuple((dx, dy, 1) for dx, dy in polygon.edges)   # Euclidean
    # keyed by whole squares: trial division would take |edge| steps an edge
    return _euclidean(_radicand_key(picks, lambda x, y: (x * x + y * y, 1)), picks)


def dual_norm_eval(norm: Norm, covector) -> CapacityValue:
    return norm.dual_eval(covector)


# ---------------------------------------------------------------------------
# labeled generators (combinatorial model of the torus boundary generators)
# ---------------------------------------------------------------------------

class LabeledGenerator(Record):
    """A lattice polygon with an 'e' or 'h' label on each edge."""

    polygon: LatticePolygon
    labels: Tuple[str, ...]

    def __init__(self, polygon: LatticePolygon, labels: Sequence[str]):
        labels = tuple(labels)
        if len(labels) != len(polygon.edges):
            raise ValueError(
                f"need {len(polygon.edges)} labels, got {len(labels)}"
            )
        if any(label not in ("e", "h") for label in labels):
            raise ValueError("labels must be 'e' or 'h'")
        self.__dict__["polygon"] = polygon
        self.__dict__["labels"] = labels


def generator_grading(gen: LabeledGenerator) -> int:
    """2 * (enclosed lattice points - 1) - (number of 'h' labels)."""
    return 2 * (gen.polygon.lattice_point_count - 1) - gen.labels.count("h")


def generator_action(gen: LabeledGenerator, norm: Norm) -> CapacityValue:
    # labels carry no action weight
    return perimeter(gen.polygon, norm)


def reeb_orbit_data(norm: Norm, m: int, n: int):
    """Direction (cos t, sin t) and action of the primitive orbit class (m, n)."""
    m, n = _integer(m), _integer(n)
    if gcd(abs(m), abs(n)) != 1:
        raise NotPrimitive(f"({m}, {n}) is not primitive")
    r = math.hypot(m, n)
    return (m / r, n / r), norm.length((m, n))


def _radicand_key(picks: tuple, radicals: Callable[[int, int], Tuple[int, int]]) -> tuple:
    """A Euclidean length sum c |(px, py)| = c s sqrt(r), radicals(px, py) =
    (r, s) with s^2 r = px^2 + py^2, as each r with its int coefficient, by
    increasing r.  With r square-free, as in the search, keys are equal iff
    lengths are."""
    coef: Dict[int, int] = {}
    for px, py, c in picks:
        r, s = radicals(px, py)
        coef[r] = coef.get(r, 0) + c * s
    return tuple(sorted(coef.items()))


def _euclidean(key: tuple, *chains: tuple) -> CapacityValue:
    """The length sum c |(px, py)| over the picks of one or two chains with
    _radicand_key key: exact if each r is a square, else with roots key and
    the float and err of the CapacityValue sums, from 0 and pick by pick, of
    each chain's sqrt_rational(px^2 + py^2).scaled(c), then of the chains."""
    if all(math.isqrt(r) ** 2 == r for r, _ in key):
        return CapacityValue.exact(sum(math.isqrt(r) * q for r, q in key))
    value = err = 0.0
    for picks in chains:
        total = total_err = 0.0
        for px, py, c in picks:
            unit = math.sqrt(square := px * px + py * py)
            surd = math.isqrt(square) ** 2 != square
            rounded = total and (surd or total_err)   # an exact sum has err 0
            total += unit * c
            if surd:
                total_err += 2.0 * _ulp(unit) * c + _ulp(unit * c)
            if rounded:
                total_err += _ulp(total)
        prefix, value = value, value + total
        err += total_err
        if prefix and total:   # not both exact, as key is irrational
            err += _ulp(value)
    return CapacityValue(None, value, err, key)


# the public names of the polygon search, resolved from echcap.toric
_TORIC = ("ToricCapacity", "enumerate_polygons", "min_action_at_grading", "toric_capacity")


def __getattr__(name: str):
    """PEP 562: the search loads when one of its names is first read."""
    if name in _TORIC:
        from . import toric
        return getattr(toric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
