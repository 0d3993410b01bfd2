import math
import random
import time
from fractions import Fraction

import pytest

from echcap import (EUCLIDEAN, Ball, DisjointUnion, Ellipsoid,
                    INTERIOR_STRICT, Polydisk, ToricNorm, WEAK, WeightedL1,
                    ball_capacities, disjoint_union_capacities, dominates)
from echcap.obstructions import (PackingInequality, PackingReport,
                                 biran_sufficiency, embedding_obstruction,
                                 f_lower_bound, g_d,
                                 g_lower_bound, lambda_d_path,
                                 packing_obstructions)
from echcap.values import _polydisk_entry

F = Fraction


# -- embedding obstructions ----------------------------------------------------

def test_equal_sequences_give_no_weak_obstruction():
    verdict = embedding_obstruction(Ellipsoid(1, 2), Polydisk(1, 1), 50, WEAK)
    assert not verdict.obstructed


def test_union_into_its_reordering_is_unobstructed():
    # the Euclidean part makes the entries sums of square roots that only
    # compare equal exactly
    parts = [Ellipsoid(1, 2), ToricNorm(EUCLIDEAN), ToricNorm(WeightedL1(1, 1))]
    reordered = [parts[2], parts[0], parts[1]]
    verdict = embedding_obstruction(DisjointUnion(parts), DisjointUnion(reordered),
                                    16, WEAK)
    assert not verdict.obstructed


def test_ball_into_itself_strictly_obstructed():
    verdict = embedding_obstruction(Ball(1), Ball(1), 10, INTERIOR_STRICT)
    assert verdict.obstructed
    assert verdict.witness_k == 1
    assert verdict.lower.as_fraction() == 1


def test_ellipsoid_into_small_ball_obstructed():
    verdict = embedding_obstruction(Ellipsoid(2, 1), Ball(F(3, 2)), 20, WEAK)
    assert verdict.obstructed
    assert verdict.witness_k == 2
    assert verdict.lower.as_fraction() == 2
    assert verdict.upper.as_fraction() == F(3, 2)


# -- ellipsoid-into-ball bound -------------------------------------------------

def test_f_lower_bound_known_values():
    assert f_lower_bound(2, 10) == 2
    assert f_lower_bound(5, 10) == F(5, 2)
    assert f_lower_bound(1, 10) == 1


def test_f_lower_bound_monotone():
    values_in_d = [f_lower_bound(F(7, 2), d) for d in range(1, 12)]
    assert all(x <= y for x, y in zip(values_in_d, values_in_d[1:]))
    grid = [F(1) + F(i, 4) for i in range(12)]
    values_in_a = [f_lower_bound(a, 8) for a in grid]
    assert all(v >= 1 for v in values_in_a)
    assert all(x <= y for x, y in zip(values_in_a, values_in_a[1:]))


def f_lower_bound_all_k(a, kmax):
    """Oracle: sup over k = 2..kmax of (a,1)_k / (1,1)_k, from brute-force
    sorted multisets.  Agrees with the d-indexed form at matching ranges."""
    def nk(a, b):
        return sorted(a * m + b * n for m in range(kmax) for n in range(kmax))[:kmax]
    top, bot = nk(a, F(1)), nk(F(1), F(1))
    return max(top[k - 1] / bot[k - 1] for k in range(2, kmax + 1))


def test_f_lower_bound_matches_all_k_form():
    for a in [F(2), F(5), F(7, 2), F(13, 4)]:
        for dmax in (2, 4, 6):
            kmax = (dmax * dmax + 3 * dmax + 2) // 2
            assert f_lower_bound(a, dmax) == f_lower_bound_all_k(a, kmax)


def test_f_lower_bound_at_the_fibonacci_staircase_corners():
    # McDuff-Schlenk (arXiv:0912.0532): with g = 1, 2, 5, 13, 34, 89 the odd
    # Fibonacci numbers, f(g[n+2]/g[n]) = g[n+2]/g[n+1] and
    # f((g[n+1]/g[n])^2) = g[n+1]/g[n], the corners of the ellipsoid-into-ball
    # staircase; budget 0.25 s, about 5 ms on a 2-vCPU host (Python 3.11)
    g = [1, 2, 5, 13, 34, 89]
    start = time.perf_counter()
    for n, dmax in enumerate((20, 40, 80, 160)):
        assert f_lower_bound(F(g[n + 2], g[n]), dmax) == F(g[n + 2], g[n + 1])
        assert f_lower_bound(F(g[n + 1], g[n]) ** 2, dmax) == F(g[n + 1], g[n])
    assert time.perf_counter() - start < 0.25


# -- polydisk-into-ball bound --------------------------------------------------

def lambda_d_path_oracle(d):
    """Oracle: the lower-left hull of every staircase point (m, n), m < need,
    with n the least such that (m+1)(n+1) >= need = (d+1)(d+2)/2; collinear
    points stay."""
    need = (d + 1) * (d + 2) // 2
    hull = []
    for m in range(need):
        p = (m, -(-need // (m + 1)) - 1)
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (bx - ax) * (p[1] - by) - (by - ay) * (p[0] - bx) < 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def test_lambda_d_path_known_vertices():
    assert lambda_d_path(1) == [(0, 2), (1, 1), (2, 0)]
    assert lambda_d_path(2) == [(0, 5), (1, 2), (2, 1), (5, 0)]
    assert lambda_d_path(6) == [(0, 27), (1, 13), (2, 9), (3, 6), (4, 5),
                                (5, 4), (6, 3), (9, 2), (13, 1), (27, 0)]


def test_g_d_against_feasible_set_scan():
    def brute(a, d):
        need = (d + 1) * (d + 2) // 2
        best = None
        for m in range(3 * d * d + 1):
            n = -(-need // (m + 1)) - 1
            cand = (a * m + n) / d
            if best is None or cand < best:
                best = cand
        return best

    grid = [F(1), F(3, 2), F(2), F(7, 3), F(19, 5)]
    for d in range(1, 13):
        for a in grid:
            assert g_d(a, d) == brute(a, d)


def test_lambda_d_path_matches_listing_oracle():
    for d in range(1, 301):
        assert lambda_d_path(d) == lambda_d_path_oracle(d), d


def g_d_hull_oracle(a, d, path=None):
    """Oracle: the Fraction minimum over the points of lambda_d_path_oracle(d),
    the lower-left hull of the staircase."""
    return min((a * m + n) / d for m, n in path or lambda_d_path_oracle(d))


def test_g_matches_hull_oracle():
    rng = random.Random(20100513)
    paths = {d: lambda_d_path_oracle(d) for d in range(1, 31)}
    for _ in range(300):
        q = rng.randint(1, 97)
        a = F(rng.randint(q, 8 * q), q)
        dmax = rng.randint(1, 30)
        per_d = [g_d_hull_oracle(a, d, paths[d]) for d in range(1, dmax + 1)]
        assert g_d(a, dmax) == per_d[-1]
        assert g_lower_bound(a, dmax) == max(per_d)
    with pytest.raises(ValueError):
        g_d(2, 0)
    with pytest.raises(ValueError):
        g_d(F(1, 2), 3)


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97]


def test_g_d_matches_hull_oracle_over_prime_denominators():
    # g_d reads the corners of the staircase; the oracle minimizes over the
    # hull of every staircase point, sharing no code with it
    rng = random.Random(1729)
    paths = {d: lambda_d_path_oracle(d) for d in range(1, 41)}
    for _ in range(200):
        q = rng.choice(PRIMES)
        a = F(rng.randint(q, 12 * q), q)
        d = rng.randint(1, 40)
        assert g_d(a, d) == g_d_hull_oracle(a, d, paths[d]), (a, d)
    for a in (F(7, 2), F(97, 89), F(4181, 610)):
        assert g_lower_bound(a, 40) == max(g_d_hull_oracle(a, d, paths[d])
                                           for d in range(1, 41))


def test_g_lower_bound_reads_one_polydisk_entry_per_d(monkeypatch):
    needs = []

    def counted(a, b, need):
        needs.append(need)
        return _polydisk_entry(a, b, need)

    monkeypatch.setattr("echcap.obstructions._polydisk_entry", counted)
    assert g_lower_bound(F(7, 2), 24) == F(8, 3)
    assert needs == [(d + 1) * (d + 2) // 2 for d in range(1, 25)]


def test_g_lower_bound_at_dmax_200_within_budget():
    # budget 0.15 s: a staircase loop per d, cubic in dmax, took 0.2-0.3 s
    # on a 2-vCPU host (Python 3.11); one sequence at k = 20300 takes 12-14 ms
    start = time.perf_counter()
    assert g_lower_bound(F(7, 2), 200) == F(8, 3)
    assert time.perf_counter() - start < 0.15


def test_g_lower_bound_checks_dmax_before_a():
    with pytest.raises(ValueError, match="dmax must be >= 1"):
        g_lower_bound(F(1, 2), 0)
    with pytest.raises(ValueError, match="aspect ratio a must be >= 1"):
        g_lower_bound(F(1, 2), 3)


def test_g_known_pieces():
    assert all(g_d(a, 1) == 2 for a in [F(1), F(2), F(10)])
    assert g_d(F(5, 2), 6) == (3 * F(5, 2) + 6) / 6
    assert g_d(F(7, 2), 6) == (2 * F(7, 2) + 9) / 6


def ga_expected(a):
    if a <= 2:
        return F(2)
    if a <= 3:
        return 1 + a / 2
    return F(3, 2) + a / 3


def test_g_lower_bound_piecewise():
    for i in range(31):
        a = 1 + 3 * F(i, 30)  # spans [1, 4]
        assert g_lower_bound(a, 6) == ga_expected(a)


def test_g_lower_bound_examples():
    assert g_lower_bound(2, 6) == 2
    assert g_lower_bound(F(7, 2), 6) == F(8, 3)


def test_g_at_d48_just_above_four():
    for a in [F(41, 10), F(29, 7), F(83, 20)]:
        assert g_d(a, 48) == F(19, 12) + 5 * a / 16


# -- ball packing --------------------------------------------------------------

def test_packing_tuple_constraints_respected():
    report = packing_obstructions([F(1, 2), F(1, 2)], 3)
    for ineq in report.inequalities:
        total = sum(d * d + d for d in ineq.multipliers)
        assert total <= ineq.bound ** 2 + 3 * ineq.bound


def test_packing_two_equal_balls_binding_inequality():
    for a, expect_hold in [(F(1, 4), True), (F(49, 100), True),
                           (F(1, 2), False), (F(3, 5), False), (F(1), False)]:
        report = packing_obstructions([a, a], 4)
        assert report.all_hold is expect_hold
        binding = [q for q in report.inequalities
                   if q.multipliers == (1, 1) and q.bound == 1]
        assert len(binding) == 1
        assert binding[0].satisfied == (2 * a < 1)


def test_single_unit_ball_is_obstructed():
    report = packing_obstructions([F(1)], 2)
    violated = [q for q in report.inequalities if not q.satisfied]
    assert any(q.multipliers == (1,) and q.bound == 1 for q in violated)


def test_quarter_ball_unobstructed():
    assert packing_obstructions([F(1, 4)], 6).all_hold


def test_packing_proof_chain():
    sizes = [F(1), F(1, 2)]
    report = packing_obstructions(sizes, 8)
    kmax = max(sum(d * d + d for d in q.multipliers) // 2
               for q in report.inequalities)
    union = disjoint_union_capacities(
        [ball_capacities(a, kmax) for a in sizes], kmax)
    for q in report.inequalities:
        k = sum(d * d + d for d in q.multipliers) // 2
        assert q.lhs <= union[k].as_fraction()


def test_volume_constraint_emerges_from_packing():
    rng = random.Random(23)
    checked = 0
    for _ in range(80):
        a1 = F(rng.randint(1, 99), 100)
        a2 = F(rng.randint(1, 99), 100)
        if packing_obstructions([a1, a2], 30).all_hold:
            checked += 1
            assert a1 * a1 + a2 * a2 <= F(102, 100)
    assert checked >= 5


def test_packing_numbers_of_equal_balls_into_a_ball():
    # the largest a with n balls B(a) in B(1), n = 1..9 (McDuff-Polterovich);
    # the ECH obstruction is sharp: none at a, and at a + 10^-6 the first
    # witness is k = sum m_i(m_i+1)/2 of the binding class (d; m_1..m_n),
    # e.g. k = 27 for (6; 3, 2^7); budget 0.25 s, about 5 ms on a 2-vCPU
    # host (Python 3.11)
    sizes = [F(1), F(1, 2), F(1, 2), F(1, 2), F(2, 5), F(2, 5), F(3, 8),
             F(6, 17), F(1, 3)]
    witnesses = [1, 2, 2, 2, 5, 5, 9, 27, 9]
    start = time.perf_counter()
    for n, (a, k) in enumerate(zip(sizes, witnesses), 1):
        assert not embedding_obstruction(
            DisjointUnion([Ball(a)] * n), Ball(1), 60).obstructed, n
        above = embedding_obstruction(
            DisjointUnion([Ball(a + F(1, 10 ** 6))] * n), Ball(1), 60)
        assert above.obstructed and above.witness_k == k, n
    assert time.perf_counter() - start < 0.25


def multiplier_tuples_oracle(n, budget):
    """All tuples (d_1..d_n) of nonnegative ints with sum(d_i^2 + d_i) <= budget,
    in lexicographic order, by recursion over the slots."""
    def rec(prefix, remaining, slots):
        if slots == 0:
            yield tuple(prefix)
            return
        d = 0
        while d * d + d <= remaining:
            prefix.append(d)
            yield from rec(prefix, remaining - d * d - d, slots - 1)
            prefix.pop()
            d += 1
    yield from rec([], budget, n)


def packing_report_oracle(sizes, dmax):
    """The report enumerated afresh at every bound d, in Fractions."""
    inequalities = []
    for d in range(1, dmax + 1):
        for mult in multiplier_tuples_oracle(len(sizes), d * d + 3 * d):
            lhs = sum((m * a for m, a in zip(mult, sizes)), F(0))
            inequalities.append(PackingInequality(mult, d, lhs, lhs < d))
    return PackingReport(tuple(inequalities), all(q.satisfied for q in inequalities))


def packing_corpus(seed, count):
    """count seeded (sizes, dmax): n = 1..5 sizes p/q with q <= 97, half of
    the q at most 6 so that some inequalities are tight, and p <= 2q/(n+1) so
    that both verdicts are drawn; dmax <= 8, and <= 5 past three sizes."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        qs = [rng.randint(1, rng.choice((6, 97))) for _ in range(n)]
        yield ([F(rng.randint(1, max(1, 2 * q // (n + 1))), q) for q in qs],
               rng.randint(1, 8 if n <= 3 else 5))


def test_packing_report_matches_the_enumeration_oracle():
    held = tight = 0
    for sizes, dmax in packing_corpus(1994, 60):
        report = packing_obstructions(sizes, dmax)
        assert report == packing_report_oracle(sizes, dmax), (sizes, dmax)
        held += report.all_hold
        tight += sum(q.lhs == q.bound for q in report.inequalities)
    assert 10 < held < 50 and tight > 0   # both verdicts, and lhs = d, are drawn


def ball_union_capacities(sizes, kmax):
    return disjoint_union_capacities([ball_capacities(a, kmax) for a in sizes], kmax)


def test_packing_inequalities_are_strict_dominance_of_the_ball_union():
    # the tuples (d_1..d_n) with sum(d_i^2 + d_i) <= d^2 + 3d unpack the
    # max-plus union: a maximizing split can lower each k_i to (d_i^2 + d_i)/2,
    # so all_hold is strict dominance under B(1) up to K = (dmax^2 + 3 dmax)/2
    dmax = 12
    top = (dmax * dmax + 3 * dmax) // 2
    rng = random.Random(1994)
    held = 0
    for _ in range(45):
        sizes = [F(rng.randint(1, 39), 40) for _ in range(rng.randint(1, 3))]
        strict = dominates(ball_union_capacities(sizes, top), ball_capacities(1, top),
                           INTERIOR_STRICT).dominated
        assert packing_obstructions(sizes, dmax).all_hold == strict, sizes
        held += strict
    assert 10 < held < 35   # both verdicts are drawn


# -- sufficiency conditions ----------------------------------------------------

def test_biran_volume_failure():
    assert biran_sufficiency([1, 1], 5).status == "fails_volume"


def test_biran_two_half_balls_sufficient():
    verdict = biran_sufficiency([F(1, 2), F(1, 2)], 10)
    assert verdict.sufficient


def test_biran_three_quarters_sufficient():
    assert biran_sufficiency([F(3, 4)], 10).sufficient


def test_biran_inequality_failure():
    verdict = biran_sufficiency([F(4, 5), F(11, 20)], 10)
    assert verdict.status == "fails_inequality"
    assert verdict.bound == 1
    assert sorted(verdict.multipliers) == [1, 1]


def test_biran_rejects_bad_input():
    with pytest.raises(ValueError):
        biran_sufficiency([], 3)
    with pytest.raises(ValueError):
        biran_sufficiency([F(0)], 3)


def test_biran_sufficiency_is_weak_dominance_plus_volume():
    # for n <= 8 balls the exceptional classes have d <= 6, so dmax 12 is
    # complete and Biran's test is weak dominance under B(1) and volume <= 1
    dmax = 12
    top = (dmax * dmax + 3 * dmax) // 2
    rng = random.Random(1997)
    verdicts = []
    for _ in range(100):
        n = rng.randint(1, 5)
        # sizes up to 1.8 / sqrt(n), so that about half fit by volume
        sizes = [F(rng.randint(1, math.isqrt(72 * 72 // n)), 40) for _ in range(n)]
        volume = sum(a * a for a in sizes) <= 1
        weak = dominates(ball_union_capacities(sizes, top), ball_capacities(1, top),
                         WEAK).dominated
        assert biran_sufficiency(sizes, dmax).sufficient == (weak and volume), sizes
        verdicts.append((volume, weak))
    # volume passes and fails, and some that fit by volume are obstructed
    assert 30 < sum(volume for volume, _ in verdicts) < 70
    assert (True, False) in verdicts and (True, True) in verdicts
