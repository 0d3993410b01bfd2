"""Differential tests: the integer kernels against per-entry Fraction oracles.

The oracles are the earlier Fraction implementations of the closed forms,
the earlier product-table polydisk kernel, the quadratic max-plus
convolution and the sampled two-part union trace.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from echcap import (Ball, CapacitySequence, CapacityValue, DisjointUnion,
                    EUCLIDEAN, Ellipsoid, Polydisk, ToricNorm,
                    ball_capacities, capacities, disjoint_union_capacities,
                    ellipsoid_capacities, maxplus_convolve, nk_sequence,
                    nk_via_triangle, polydisk_capacities, volume_ratio_trace)
from echcap.cli import format_value
from echcap.values import _over_common_denominator, _polydisk_entry, _staircase

F = Fraction
SMALL_DENS = (1, 2, 3, 4, 5, 6, 7, 8, 9)
LARGE_DENS = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79, 83, 89, 97)


# -- oracles -------------------------------------------------------------------

def nk_values_oracle(a, b, kmax):
    """First kmax values of {a*m + b*n}, doubling a Fraction level."""
    hi, lo = max(a, b), min(a, b)
    level = (a + b) * (math.isqrt(int(2 * kmax * hi / lo)) + 1)
    while True:
        values = []
        am = F(0)
        while am <= level:
            values.extend(am + b * n for n in range(int((level - am) / b) + 1))
            am += a
        if len(values) >= kmax:
            return sorted(values)[:kmax]
        level *= 2


def triangle_count_oracle(a, b, value, strict=False):
    """Number of (m, n) >= 0 with a*m + b*n <= value (< value if strict)."""
    count = 0
    am = F(0)
    while am < value or (am == value and not strict):
        rest = (value - am) / b
        count += -(-rest.numerator // rest.denominator) if strict else int(rest) + 1
        am += a
    return count


def polydisk_entry_oracle(a, b, k):
    """min of a*m + b*n over (m+1)(n+1) >= k+1, one block of constant
    ceil((k+1)/(m+1)) at a time."""
    need = k + 1
    best = None
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


def polydisk_sweep_oracle(a, b, kmax):
    """(den, ints) of the polydisk capacities from a table of the cheapest
    a*m + b*n for each product (m+1)(n+1) up to 2*kmax + 1 and its suffix
    minimum: a minimizer for k has n + 1 = ceil((k+1)/(m+1)), so its
    product is below k+1 + m+1 <= 2(k+1)."""
    den, (a, b) = _over_common_denominator(F(a), F(b))
    top = 2 * kmax + 1
    cheapest = [b * (p - 1) for p in range(top + 1)]   # m = 0, n = p - 1
    for u in range(2, kmax + 2):                         # u = m + 1
        v = -(-(kmax + 1) // u)                           # largest n + 1 needed
        base = a * (u - 1)
        cheapest[u:u * v + 1:u] = map(min, cheapest[u:u * v + 1:u],
                                      range(base, base + b * v, b))
    suffix = list(itertools.accumulate(reversed(cheapest), min))[::-1]
    return den, suffix[1:kmax + 2]


def maxplus_oracle(first, second, kmax):
    """Quadratic max-plus convolution; the earliest i wins among ties."""
    out = []
    for k in range(kmax + 1):
        best = None
        for i in range(k + 1):
            cand = first[i] + second[k - i]
            if best is None or cand.compare(best) > 0:
                best = cand
        out.append(best)
    return out


def sampled_union_oracle(first, second, ks):
    """Two-part union entries evaluated only at the sampled indices ks."""
    out = []
    for k in ks:
        best = first[0] + second[k]
        for i in range(1, k + 1):
            cand = first[i] + second[k - i]
            if cand.compare(best) > 0:
                best = cand
        out.append(best)
    return out


# -- helpers -------------------------------------------------------------------

def random_size(rng):
    dens = LARGE_DENS if rng.random() < 0.5 else SMALL_DENS
    q = rng.choice(dens)
    return F(rng.randint(q // 3 + 1, 4 * q), q)


def fracs(values):
    return [v.as_fraction() for v in values]


def strings(values):
    return [format_value(v) for v in values]


# -- closed forms --------------------------------------------------------------

def test_closed_forms_match_fraction_oracles():
    rng = random.Random(2024)
    cases = [(random_size(rng), random_size(rng), rng.randint(1, 300))
             for _ in range(12)]
    # a thin polydisk: the corner (kmax, 0) is the minimizer at k = kmax
    for a, b, kmax in cases + [(F(1, 4), F(3), 20), (F(3), F(1, 4), 20)]:
        want = nk_values_oracle(a, b, kmax + 1)
        assert fracs(nk_sequence(a, b, kmax + 1)) == want
        assert fracs(ellipsoid_capacities(a, b, kmax)) == want
        assert fracs(polydisk_capacities(a, b, kmax)) == \
            [polydisk_entry_oracle(a, b, k) for k in range(kmax + 1)]
        assert fracs(ball_capacities(a, kmax)) == nk_values_oracle(a, a, kmax + 1)
        for m, n in [(0, 0), (rng.randint(0, 9), rng.randint(0, 9)), (7, 0)]:
            rank, value = nk_via_triangle(a, b, m, n)
            assert value.as_fraction() == a * m + b * n
            assert rank == triangle_count_oracle(a, b, a * m + b * n)


@pytest.mark.parametrize("make, a, b", [
    (polydisk_capacities, F(2), F(1)),
    (ellipsoid_capacities, F(7, 3), F(5, 4)),
])
def test_spot_entries_at_k_1e5(make, a, b):
    kmax = 10 ** 5
    seq = make(a, b, kmax)
    rng = random.Random(7)
    for k in [1, 2, kmax - 1, kmax] + [rng.randint(3, kmax) for _ in range(4)]:
        value = seq[k].as_fraction()
        if make is polydisk_capacities:
            assert value == polydisk_entry_oracle(a, b, k)
        else:
            # (a, b)_{k+1} = v exactly when fewer than k+1 values lie below v
            # and at least k+1 lie at or below it
            assert triangle_count_oracle(a, b, value, strict=True) <= k
            assert triangle_count_oracle(a, b, value) >= k + 1


PRIMES = [p for p in range(2, 1010) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def test_polydisk_matches_sweep_oracle():
    rng = random.Random(1009)
    cases = [(F(1, 9), F(7), 900), (F(7), F(1, 9), 900), (F(13, 7), F(13, 7), 900),
             (F(1), F(100), 2000), (F(97, 89), F(97, 89), 0), (F(1, 1009), F(1), 1)]
    for _ in range(150):
        p, q = rng.choice(PRIMES), rng.choice(PRIMES)
        a = F(rng.randint(1, 3 * p), p)
        b = a * rng.randint(1, 100) if rng.random() < 0.3 else F(rng.randint(1, 3 * q), q)
        if rng.random() < 0.5:
            a, b = b, a
        cases.append((a, b, rng.randint(0, 2000) if rng.random() < 0.5 else rng.randint(0, 60)))
    for a, b, kmax in cases:
        seq = polydisk_capacities(a, b, kmax)
        assert (seq.den, list(seq._items)) == polydisk_sweep_oracle(a, b, kmax), (a, b, kmax)


def test_polydisk_entry_matches_sweep_oracle():
    # the single-entry reader over ints, at every k <= 10^3
    rng = random.Random(1000)
    for _ in range(12):
        a, b = random_size(rng), random_size(rng)
        _, want = polydisk_sweep_oracle(a, b, 1000)
        _, (ia, ib) = _over_common_denominator(a, b)
        assert [_polydisk_entry(ia, ib, k + 1) for k in range(1001)] == want, (a, b)


def test_staircase_corners():
    assert list(_staircase(1)) == [(0, 0)]
    for need in list(range(1, 200)) + [10 ** 4, 12345, 10 ** 6 + 1]:
        corners = list(_staircase(need))
        assert len(corners) <= 2 * math.isqrt(need) + 1
        assert corners[0] == (0, need - 1) and corners[-1] == (need - 1, 0)
        assert all(m0 < m1 and n0 > n1
                   for (m0, n0), (m1, n1) in zip(corners, corners[1:]))
        # each corner is in the set and its left neighbour is not
        assert all((m + 1) * (n + 1) >= need > m * (n + 1) for m, n in corners)
        if need < 200:   # and every such point is a corner
            least = [(m, -(-need // (m + 1)) - 1) for m in range(need)]
            assert corners == [(m, n) for m, n in least if m * (n + 1) < need]


def test_polydisk_full_sequence_at_k_2e4():
    a, b, kmax = F(101, 89), F(97, 83), 2 * 10 ** 4
    seq = polydisk_capacities(a, b, kmax)
    assert (seq.den, list(seq._items)) == polydisk_sweep_oracle(a, b, kmax)


# -- max-plus ------------------------------------------------------------------

def random_exact_sequence(rng, kmax, dens):
    vals = [F(0)]
    for _ in range(kmax):
        step = 0 if rng.random() < 0.5 else rng.randint(1, 4)
        vals.append(vals[-1] + F(step, rng.choice(dens)))
    return CapacitySequence(0, [CapacityValue.exact(v) for v in vals])


def test_maxplus_matches_quadratic_oracle():
    rng = random.Random(17)
    for dens in (SMALL_DENS, LARGE_DENS):
        for nparts in (2, 3):
            kmax = rng.randint(50, 200)
            seqs = [random_exact_sequence(rng, kmax, dens) for _ in range(nparts)]
            want = list(seqs[0])
            for seq in seqs[1:]:
                want = maxplus_oracle(want, list(seq), kmax)
            assert fracs(disjoint_union_capacities(seqs, kmax)) == fracs(want)
            assert fracs(maxplus_convolve(list(seqs[0]), list(seqs[1]), kmax)) \
                == fracs(maxplus_oracle(list(seqs[0]), list(seqs[1]), kmax))
    # sums that cannot be ordered: the earliest i wins, as in the oracle
    f = [CapacityValue.exact(0), CapacityValue.approx(1.0, 1e-9)]
    g = [CapacityValue.exact(0), CapacityValue.approx(1.0 + 1e-12, 1e-9)]
    assert maxplus_convolve(f, g, 1)[1] is maxplus_oracle(f, g, 1)[1] is g[1]


def test_union_of_closed_forms_matches_quadratic_oracle():
    rng = random.Random(31)
    cases = []
    for _ in range(4):
        kmax = rng.randint(100, 300)
        parts = [Ball(random_size(rng)), Ellipsoid(random_size(rng), random_size(rng)),
                 Polydisk(random_size(rng), random_size(rng))]
        rng.shuffle(parts)
        cases.append((parts[:2], parts[2], kmax))
    # a thin ellipsoid placed first: all its entries up to kmax differ
    cases.append(([Ellipsoid(F(1, 3), F(1000)), Ball(F(7, 5))], Ball(F(2, 3)), 250))
    for parts, third, kmax in cases:
        seqs = [capacities(p, kmax) for p in parts]
        want = maxplus_oracle(list(seqs[0]), list(seqs[1]), kmax)
        assert fracs(capacities(DisjointUnion(parts), kmax)) == fracs(want)
        # the result does not depend on the order of the parts
        for union in (parts, parts + [third]):
            got = strings(capacities(DisjointUnion(union), kmax))
            for order in itertools.permutations(union):
                assert strings(capacities(DisjointUnion(order), kmax)) == got


@pytest.mark.parametrize("parts", [
    (Ball(1), Ball(1)),
    (Ball(1), Ellipsoid(7, 3)),
], ids=["ball+ball", "ball+ellipsoid"])
def test_two_part_union_spot_entries_at_k_1e5(parts):
    kmax = 10 ** 5
    got = capacities(DisjointUnion(parts), kmax)
    f, g = ([int(e.as_fraction()) for e in capacities(p, kmax)] for p in parts)
    rng = random.Random(11)
    for k in [rng.randint(0, kmax) for _ in range(8)]:
        assert got[k].as_fraction() == max(f[i] + g[k - i] for i in range(k + 1))


def test_union_with_euclidean_toric_part_matches_oracle():
    kmax = 14
    toric = capacities(ToricNorm(EUCLIDEAN), kmax)
    for other in (Ball(F(3, 2)), Ellipsoid(F(7, 3), F(5, 4)), Polydisk(F(2), F(13, 11)),
                  ToricNorm(EUCLIDEAN)):
        seq = capacities(other, kmax)
        for parts, (f, g) in [((ToricNorm(EUCLIDEAN), other), (toric, seq)),
                              ((other, ToricNorm(EUCLIDEAN)), (seq, toric))]:
            got = capacities(DisjointUnion(parts), kmax)
            assert strings(got) == strings(maxplus_oracle(list(f), list(g), kmax))


# -- volume trace --------------------------------------------------------------

@pytest.mark.parametrize("parts, kmax, stride", [
    ((Ball(1), Ball(1)), 2000, 100),
    ((Ellipsoid(F(7, 3), F(5, 4)), Polydisk(F(2), F(13, 11))), 600, 40),
    ((ToricNorm(EUCLIDEAN), Ball(F(3, 2))), 20, 3),
])
def test_two_part_trace_matches_sampled_oracle(parts, kmax, stride):
    report = volume_ratio_trace(DisjointUnion(parts), kmax, stride)
    first, second = (list(capacities(p, kmax)) for p in parts)
    ks = [p.k for p in report.trace]
    assert ks[-1] == kmax
    assert strings(p.c_k for p in report.trace) == \
        strings(sampled_union_oracle(first, second, ks))


def random_closed_part(rng):
    kind = rng.choice((Ball, Ellipsoid, Polydisk))
    return kind(random_size(rng)) if kind is Ball else kind(random_size(rng),
                                                           random_size(rng))


def assert_trace_is_the_union_sequence(parts, kmax, stride):
    """Each trace point is capacities(union, kmax)[k] in repr and in print,
    and the last fold matches the sampled oracle over the first n-1 parts."""
    union = DisjointUnion(parts)
    report = volume_ratio_trace(union, kmax, stride)
    ks = [p.k for p in report.trace]
    full = capacities(union, kmax)
    assert [repr(p.c_k) for p in report.trace] == [repr(full[k]) for k in ks]
    assert strings(p.c_k for p in report.trace) == strings(full[k] for k in ks)
    head = DisjointUnion(parts[:-1]) if len(parts) > 2 else parts[0]
    first, second = (list(capacities(p, kmax)) for p in (head, parts[-1]))
    assert strings(p.c_k for p in report.trace) == \
        strings(sampled_union_oracle(first, second, ks))


def test_union_traces_match_the_full_sequence():
    # 2- and 3-part closed unions, denominators to 97, kmax <= 600, at
    # strides 1 (every k), kmax and kmax + 5 (the last k only) and between
    rng = random.Random(37)
    for n in (2, 3) * 6:
        parts = tuple(random_closed_part(rng) for _ in range(n))
        kmax = rng.randint(1, 600)
        for stride in (kmax, kmax + 5, rng.randint(2, 60)):
            assert_trace_is_the_union_sequence(parts, kmax, stride)
        assert_trace_is_the_union_sequence(parts, min(kmax, 120), 1)
    # equal parts, a part repeated and a one-point union
    assert_trace_is_the_union_sequence((Ball(F(3, 97)), Ball(F(3, 97))), 600, 1)
    assert_trace_is_the_union_sequence(
        (Polydisk(F(19, 8), F(14, 9)), Ellipsoid(F(154, 79), F(2, 3)),
         Polydisk(F(19, 8), F(14, 9))), 586, 45)
    assert_trace_is_the_union_sequence((Ball(1), Ball(2)), 1, 1)


def test_union_traces_with_a_euclidean_part_match_the_full_sequence():
    # sums of square roots: the last fold keeps maxplus_convolve's tie rule
    rng = random.Random(25)
    euclid = ToricNorm(EUCLIDEAN)
    for parts in [(euclid, euclid), (euclid, euclid, euclid),
                  (euclid, Ball(F(3, 2))), (Polydisk(F(2), F(13, 11)), euclid),
                  (random_closed_part(rng), euclid, random_closed_part(rng)),
                  (euclid, random_closed_part(rng), euclid)]:
        for kmax in (25, rng.randint(1, 25)):
            for stride in (1, kmax, kmax + 5, rng.randint(2, 9)):
                assert_trace_is_the_union_sequence(parts, kmax, stride)
