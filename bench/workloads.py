"""Seeded operation streams for the three benchmark workloads.

An operation is one `echcap` CLI invocation.  A workload is a list of slots;
one round draws one operation per slot and shuffles them, so every round has
the same mix of kinds and sizes and only the parameters change with the seed.
A stream never repeats an argv list.

Domains are kept as small tuples so the reference checks can read them back
without parsing CLI specs:

    ("ball", a) | ("ellipsoid", a, b) | ("polydisk", a, b) | ("l1", a, b)
    | ("euclid",) | ("poly", i) | ("union", (part, ...))
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

# Centrally symmetric polygons for the toric(poly:...) norms.
POLY_NORMS = (
    ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
    ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)),
    ((3, 1), (-1, 2), (-3, -1), (1, -2)),
)

SMALL_DENS = (1, 2, 3, 4, 5, 6, 7, 8, 9)
LARGE_DENS = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79, 83, 89, 97)


@dataclass
class Op:
    """One CLI invocation plus what the checks and the op log need."""

    kind: str                 # command plus domain family, e.g. capacities:polydisk
    argv: List[str]
    params: Dict[str, object] = field(default_factory=dict)


def rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def spec(dom) -> str:
    tag = dom[0]
    if tag == "ball":
        return f"ball({rat(dom[1])})"
    if tag in ("ellipsoid", "polydisk"):
        return f"{tag}({rat(dom[1])},{rat(dom[2])})"
    if tag == "l1":
        return f"toric(l1:{rat(dom[1])},{rat(dom[2])})"
    if tag == "euclid":
        return "toric(euclidean)"
    if tag == "poly":
        verts = ",".join(f"[{x},{y}]" for x, y in POLY_NORMS[dom[1]])
        return f"toric(poly:[{verts}])"
    if tag == "union":
        return "union(" + ";".join(spec(p) for p in dom[1]) + ")"
    raise ValueError(f"unknown domain {dom!r}")


def family(dom) -> str:
    if dom[0] == "union":
        return "union:" + "+".join(family(p) for p in dom[1])
    return dom[0]


def max_den(dom) -> int:
    if dom[0] == "union":
        return max(max_den(p) for p in dom[1])
    return max((x.denominator for x in dom[1:] if isinstance(x, Fraction)),
               default=1)


def has_toric(dom) -> bool:
    if dom[0] == "union":
        return any(has_toric(p) for p in dom[1])
    return dom[0] in ("l1", "euclid", "poly")


# ---------------------------------------------------------------------------
# random sizes
# ---------------------------------------------------------------------------

def size(rng: random.Random, lo: float, hi: float) -> Fraction:
    """A rational in [lo, hi]; a third of them have a large prime denominator."""
    while True:
        q = rng.choice(LARGE_DENS) if rng.random() < 1 / 3 else rng.choice(SMALL_DENS)
        plo, phi = max(1, math.ceil(lo * q)), math.floor(hi * q)
        if plo <= phi:
            return Fraction(rng.randint(plo, phi), q)


def pair(rng: random.Random, rlo: float, rhi: float) -> Tuple[Fraction, Fraction]:
    """Two sizes with aspect ratio roughly in [rlo, rhi], in random order."""
    a = size(rng, 1 / 2, 2)
    b = size(rng, float(a) * rlo, float(a) * rhi)
    return (a, b) if rng.random() < 0.5 else (b, a)


def l1(rng: random.Random, w: float):
    """toric(l1:a,b) with aspect ratio between 1 + 2.2w and 1.25 times that.
    The polygon search slows as the aspect ratio falls, by up to three times
    at one kmax, so w is stratified like the op's size."""
    lo = 1 + 2.2 * w
    return ("l1", *pair(rng, lo, 1.25 * lo))


def fmt(rng: random.Random) -> List[str]:
    return ["--format", rng.choice(("csv", "json"))]


def aspect(dom) -> float:
    return float(max(dom[1:]) / min(dom[1:])) if len(dom) == 3 else 1.0


# ---------------------------------------------------------------------------
# op builders
# ---------------------------------------------------------------------------

def cap_op(dom, kmax: int, extra: List[str] = ()) -> Op:
    argv = ["capacities", spec(dom), "--kmax", str(kmax), *extra]
    params = {"dom": dom, "kmax": kmax, "full": "--full" in extra,
              "format": extra[extra.index("--format") + 1] if "--format" in extra else "csv"}
    return Op("capacities:" + family(dom), argv, params)


def embed_op(inner, outer, kmax: int, mode: str) -> Op:
    argv = ["embed", spec(inner), spec(outer), "--kmax", str(kmax), "--mode", mode]
    side = "toric" if has_toric(inner) or has_toric(outer) else "closed"
    return Op(f"embed:{side}", argv,
              {"inner": inner, "outer": outer, "kmax": kmax, "mode": mode})


def bound_op(cmd: str, a: Fraction, dmax: int, form: str) -> Op:
    argv = [cmd, rat(a), "--dmax", str(dmax), "--format", form]
    return Op(cmd, argv, {"a": a, "dmax": dmax, "format": form})


def sizes_op(cmd: str, sizes: List[Fraction], dmax: int) -> Op:
    argv = [cmd, ",".join(rat(s) for s in sizes), "--dmax", str(dmax)]
    return Op(cmd, argv, {"sizes": sizes, "dmax": dmax})


def asym_op(dom, kmax: int, stride: int, form: str) -> Op:
    argv = ["asym", spec(dom), "--kmax", str(kmax), "--stride", str(stride),
            "--format", form]
    return Op("asym:" + family(dom), argv,
              {"dom": dom, "kmax": kmax, "stride": stride, "format": form})


def qw_op(dom, kmax: int) -> Op:
    return Op("qw:" + family(dom), ["qw", spec(dom), "--kmax", str(kmax)],
              {"dom": dom, "kmax": kmax})


# ---------------------------------------------------------------------------
# slots
#
# A slot is called as slot(rng, u, v) once per round.  u and v are each
# stratified over the rounds of a run (each of R equal bins of [0, 1) is used
# once, in seeded order): u sets the op's size and v its domain family, so
# the cost mix of a run varies little from seed to seed.  Everything else
# (sizes, denominators, formats) comes from rng.
# ---------------------------------------------------------------------------

CLOSED = ("ball", "ellipsoid", "polydisk")


def span(u: float, lo: int, hi: int) -> int:
    """The integer in [lo, hi] at position u of that range."""
    return lo + min(hi - lo, int(u * (hi - lo + 1)))


def families(v: float, count: int) -> List[str]:
    """count closed-form families; v runs through all combinations."""
    code = int(v * 3 ** count)
    return [CLOSED[code // 3 ** i % 3] for i in range(count)]


def closed_of(rng: random.Random, tag: str, rhi: float = 3.0):
    if tag == "ball":
        return ("ball", size(rng, 1 / 2, 2))
    return (tag, *pair(rng, 1, rhi))


def closed(rng: random.Random):
    return closed_of(rng, rng.choice(CLOSED))


def closed_parts(r, v, count: int):
    return tuple(closed_of(r, tag) for tag in families(v, count))


def ellipsoid_kmax(u: float, dom, lo: int, hi: int, work=(8000, 12000)) -> int:
    # the kernel enumerates about kmax * (1 + aspect)^2 lattice values, so
    # u picks that amount of work and the aspect ratio sets kmax from it
    kmax = span(u, *work) // int((1 + aspect(dom)) ** 2)
    return max(lo, min(hi, kmax))


def seq_ellipsoid(r, u, rlo, rhi, lo, hi):
    dom = ("ellipsoid", *pair(r, rlo, rhi))
    return cap_op(dom, ellipsoid_kmax(u, dom, lo, hi), fmt(r))


def seq_asym(r, u, v):
    if v < 0.5:
        dom = ("ball", size(r, 1 / 3, 3))
        kmax = span(u, 1500, 3000)
    else:
        dom = ("ellipsoid", *pair(r, 1, 2))
        kmax = ellipsoid_kmax(u, dom, 600, 3000)
    return asym_op(dom, kmax, kmax // r.randint(20, 60), r.choice(("csv", "json")))


def seq_asym_union(r, u, v):
    # a polydisk part sets the cost; keeping one in every union puts this
    # slot next to the large polydisks, in the band where p90 falls
    parts = [closed_of(r, "polydisk"), closed_of(r, "ball" if v < 0.5 else "ellipsoid")]
    r.shuffle(parts)
    kmax = span(u, 400, 600)
    return asym_op(("union", tuple(parts)), kmax, kmax // r.randint(12, 16),
                   r.choice(("csv", "json")))


# sequences: closed-form kernels, max-plus and exact values; no polygon search
SEQUENCES = [
    lambda r, u, v: cap_op(("ball", size(r, 1 / 3, 3)), span(u, 1500, 2500), fmt(r)),
    lambda r, u, v: seq_ellipsoid(r, u, 1, 3, 400, 2500),
    lambda r, u, v: seq_ellipsoid(r, u, 4, 9, 150, 1500),
    lambda r, u, v: cap_op(("polydisk", *pair(r, 1, 10)), span(u, 300, 500), fmt(r)),
    lambda r, u, v: cap_op(("polydisk", *pair(r, 1, 4)), span(u, 600, 900), fmt(r)),
    lambda r, u, v: cap_op(("union", closed_parts(r, v, 2)), span(u, 120, 170), fmt(r)),
    lambda r, u, v: cap_op(("union", closed_parts(r, v, 3)), span(u, 60, 100), fmt(r)),
    lambda r, u, v: embed_op(*closed_parts(r, v, 2), span(u, 200, 350),
                             r.choice(("weak", "strict"))),
    # the cost of f grows with a, so v spreads a evenly over [1, 6]
    lambda r, u, v: bound_op("fbound", size(r, 1 + 5 * v, 1.5 + 5 * v), span(u, 18, 26),
                             r.choice(("text", "json"))),
    seq_asym,
    seq_asym_union,
    lambda r, u, v: qw_op(closed_of(r, families(v, 1)[0]), span(u, 300, 600)),
]


def toric_part(v: float, rng):
    return ("euclid",) if v < 0.5 else l1(rng, 2 * v - 1)


def toric_embed(r, u, v):
    t, c = toric_part(v, r), closed(r)
    inner, outer = (t, c) if r.random() < 0.5 else (c, t)
    return embed_op(inner, outer, span(u, 10, 16), r.choice(("weak", "strict")))


def toric_euclid(r, u, v):
    # the volume-ratio trace of the round domain is its capacity sequence
    # plus a few divisions; it also gives this slot enough distinct argv lists
    kmax = span(u, 10, 15)
    if v < 0.5:
        return cap_op(("euclid",), kmax, fmt(r))
    return asym_op(("euclid",), kmax, r.randint(1, 3), r.choice(("csv", "json")))


# toric: the polygon search does nearly all the work
TORIC = [
    toric_euclid,
    lambda r, u, v: cap_op(l1(r, v), span(u, 12, 22), fmt(r)),
    lambda r, u, v: cap_op(l1(r, v), span(u, 10, 18), fmt(r)),
    lambda r, u, v: cap_op(("poly", int(v * len(POLY_NORMS))), span(u, 8, 14), fmt(r)),
    toric_embed,
    lambda r, u, v: cap_op(("union", (toric_part(v, r), closed(r))), span(u, 10, 16),
                           fmt(r)),
    lambda r, u, v: qw_op(toric_part(v, r), span(u, 10, 15)),
]


def small_toric(v: float, rng):
    if v < 0.1:
        return ("euclid",)
    if v < 0.3:
        return ("poly", rng.randrange(len(POLY_NORMS)))
    return l1(rng, (v - 0.3) / 0.7)


def query_embed_toric(r, u, v):
    t, c = small_toric(v, r), closed(r)
    inner, outer = (t, c) if r.random() < 0.5 else (c, t)
    return embed_op(inner, outer, span(u, 1, 6), r.choice(("weak", "strict")))


def query_asym(r, u, v):
    kmax = span(u, 20, 300)
    return asym_op(closed_of(r, families(v, 1)[0], 6), kmax,
                   max(1, kmax // r.randint(5, 30)), r.choice(("csv", "json")))


def ball_sizes(r, count: int) -> List[Fraction]:
    return [size(r, 1 / 9, 2 / 3) for _ in range(count)]


# queries: many small calls of every command, where fixed per-call costs count
QUERIES = [
    lambda r, u, v: cap_op(closed_of(r, families(v, 1)[0], 6), span(u, 5, 60), fmt(r)),
    lambda r, u, v: cap_op(closed_of(r, families(v, 1)[0], 6), span(u, 5, 60), fmt(r)),
    lambda r, u, v: cap_op(("ball", size(r, 1 / 3, 3)) if v < 0.5
                           else ("ellipsoid", *pair(r, 1, 6)),
                           span(u, 5, 60), ["--full", *fmt(r)]),
    lambda r, u, v: cap_op(("union", closed_parts(r, v, r.randint(2, 3))),
                           span(u, 5, 40), fmt(r)),
    lambda r, u, v: cap_op(small_toric(v, r), span(u, 1, 6), fmt(r)),
    lambda r, u, v: cap_op(("union", (small_toric(v, r), closed(r))), span(u, 1, 6),
                           fmt(r)),
    lambda r, u, v: embed_op(*(closed_of(r, tag, 6) for tag in families(v, 2)),
                             span(u, 5, 60), r.choice(("weak", "strict"))),
    query_embed_toric,
    lambda r, u, v: bound_op("fbound", size(r, 1 + 8 * v, 2 + 8 * v), span(u, 2, 12),
                             r.choice(("text", "json"))),
    lambda r, u, v: bound_op("gbound", size(r, 1 + 8 * v, 2 + 8 * v), span(u, 2, 24),
                             r.choice(("text", "json"))),
    lambda r, u, v: bound_op("gbound", size(r, 1 + 8 * v, 2 + 8 * v), span(u, 2, 24),
                             r.choice(("text", "json"))),
    lambda r, u, v: sizes_op("pack", ball_sizes(r, span(v, 1, 4)), span(u, 1, 5)),
    lambda r, u, v: sizes_op("biran", ball_sizes(r, span(v, 1, 8)), span(u, 1, 10)),
    lambda r, u, v: sizes_op("biran", ball_sizes(r, span(v, 1, 8)), span(u, 1, 10)),
    query_asym,
    lambda r, u, v: qw_op(closed_of(r, families(v, 1)[0], 6), span(u, 5, 60)),
]

Slot = Callable[[random.Random, float, float], Op]
WORKLOADS: Dict[str, List[Slot]] = {
    "sequences": SEQUENCES,
    "toric": TORIC,
    "queries": QUERIES,
}

# Seconds one untraced round takes on the seed code (2 vCPU, Python 3.11.7).
# They turn --seconds into a fixed number of rounds, so that every commit
# runs the same operations for a given seed and counts repeat exactly.
ROUND_SECONDS = {"sequences": 1.15, "toric": 0.5, "queries": 0.115}

# An untraced run calls each op this many times and keeps its fastest call.
REPEATS = 3

# p90 needs at least ten samples beyond it
MIN_OPS = 100


def rounds_for(workload: str, seconds: float) -> int:
    slots = len(WORKLOADS[workload])
    return max(math.ceil(MIN_OPS / slots),
               round(seconds / (REPEATS * ROUND_SECONDS[workload])))


def generate(workload: str, seed: int, rounds: int) -> Tuple[List[List[Op]], int]:
    """Rounds of ops for this workload and seed, and how many argv lists had
    to repeat because a slot ran out of distinct ones."""
    rng = random.Random(f"{workload}:{seed}")
    slots = WORKLOADS[workload]
    bins = []
    for _ in range(2 * len(slots)):
        order = list(range(rounds))
        rng.shuffle(order)
        bins.append(order)
    seen = set()
    repeats = 0
    out = []
    for rnd in range(rounds):
        ops = []
        for i, slot in enumerate(slots):
            u = (bins[2 * i][rnd] + rng.random()) / rounds
            v = (bins[2 * i + 1][rnd] + rng.random()) / rounds
            for attempt in range(100):
                if attempt >= 10:
                    # this stratum has run out of distinct argv lists
                    u, v = rng.random(), rng.random()
                op = slot(rng, u, v)
                if tuple(op.argv) not in seen:
                    break
            else:
                repeats += 1
            seen.add(tuple(op.argv))
            ops.append(op)
        rng.shuffle(ops)
        out.append(ops)
    return out, repeats
