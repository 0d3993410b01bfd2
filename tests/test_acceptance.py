"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime and asserting the stated budget."""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from echcap import (Ball, DisjointUnion, Ellipsoid, EUCLIDEAN, Polydisk,
                    Polygonal, ToricNorm, WeightedL1, area, ball_capacities,
                    capacities, disjoint_union_capacities, dual_norm_eval,
                    ellipsoid_capacities, enumerate_polygons,
                    lattice_point_count, maxplus_convolve,
                    min_action_at_grading, nk_sequence, nk_via_triangle,
                    perimeter, polydisk_capacities, qw_check, scale,
                    toric_capacity, volume_ratio_trace)
from echcap.obstructions import (g_d, g_lower_bound, f_lower_bound,
                                 lambda_d_path, packing_obstructions)
from echcap.toric import _toric_minima
from echcap.values import CapacitySequence, CapacityValue

F = Fraction


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:02d}] PASS ({elapsed:6.2f}s / "
          f"{budget_seconds:g}s) {description}")
    assert elapsed < budget_seconds, \
        f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s"


def fracs(seq):
    return [v.as_fraction() for v in seq]


def test_criterion_01_shared_sequence():
    with criterion(1, "E(1,2) and P(1,1) share 0,1,2,2,3,3,4,4,4,5,5,5", 1.0):
        expected = [0, 1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5]
        assert fracs(ellipsoid_capacities(1, 2, 11)) == expected
        assert fracs(polydisk_capacities(1, 1, 11)) == expected


def test_criterion_02_closed_forms():
    def k3_expected(a):
        return F(2) if a >= 2 else a

    def k6_expected(a):
        if a >= 5:
            return F(5)
        if a >= 4:
            return a
        if a >= 3:
            return F(4)
        if a >= 2:
            return a + 1
        if a >= F(3, 2):
            return F(3)
        return 2 * a

    with criterion(2, "piecewise closed forms of (a,1)_3 and (a,1)_6", 1.0):
        k3_intervals = [(F(1), F(2)), (F(2), F(8))]
        for lo, hi in k3_intervals:
            for i in range(20):
                a = lo + (hi - lo) * F(i, 19)
                assert nk_sequence(a, 1, 3)[2].as_fraction() == k3_expected(a)
        k6_intervals = [(F(1), F(3, 2)), (F(3, 2), F(2)), (F(2), F(3)),
                        (F(3), F(4)), (F(4), F(5)), (F(5), F(8))]
        for lo, hi in k6_intervals:
            for i in range(20):
                a = lo + (hi - lo) * F(i, 19)
                assert nk_sequence(a, 1, 6)[5].as_fraction() == k6_expected(a)


def test_criterion_03_ellipsoid_ball_bound():
    with criterion(3, "f_lower_bound(2,10) = 2 and f_lower_bound(5,10) = 5/2", 1.0):
        assert f_lower_bound(2, 10) == 2
        assert f_lower_bound(5, 10) == F(5, 2)


def test_criterion_04_polydisk_ball_bound():
    def ga(a):
        if a <= 2:
            return F(2)
        if a <= 3:
            return 1 + a / 2
        return F(3, 2) + a / 3

    with criterion(4, "g bound: ga pieces, the ten Lambda_6 vertices, d=48", 5.0):
        for i in range(30):
            a = 1 + 3 * F(i, 29)
            assert g_lower_bound(a, 6) == ga(a)
        assert lambda_d_path(6) == [(0, 27), (1, 13), (2, 9), (3, 6), (4, 5),
                                    (5, 4), (6, 3), (9, 2), (13, 1), (27, 0)]
        for a in [F(81, 20), F(41, 10), F(83, 20), F(21, 5)]:
            assert F(4) < a < F(21, 5) or a == F(21, 5)
            assert g_d(a, 48) == F(19, 12) + 5 * a / 16


def test_criterion_05_toric_capacities():
    with criterion(5, "toric spectrum start and the polydisk equivalence", 120.0):
        expected = [0.0, 2.0, 2 + math.sqrt(2), 4.0]
        for k in range(3, -1, -1):
            got = toric_capacity(EUCLIDEAN, k).value
            assert abs(got.value - expected[k]) < 1e-9
        pairs = [(F(1), F(1)), (F(2), F(1)), (F(1), F(2)), (F(3), F(1)),
                 (F(3, 2), F(1)), (F(5), F(1)), (F(3, 2), F(2, 3)),
                 (F(2), F(3)), (F(7, 3), F(2)), (F(5, 2), F(5, 3))]
        assert len(pairs) == 10
        for a, b in pairs:
            # the search itself: capacities() reads l1 off the polydisk kernel
            toric = CapacitySequence(0, (v for v, _ in
                                         _toric_minima(WeightedL1(a, b), 30, None)))
            closed = polydisk_capacities(a, b, 30)
            for k in range(31):
                assert toric[k].as_fraction() == closed[k].as_fraction(), \
                    (a, b, k)


def test_criterion_06_oracle_equivalence():
    with criterion(6, "triangle ranks, ball closed form, union vs brute force", 30.0):
        # triangle counting against multiset rank, m, n <= 12
        grid = [(F(1), F(1)), (F(2), F(1)), (F(1), F(2)), (F(3), F(2)),
                (F(3, 2), F(1)), (F(5), F(1)), (F(5, 3), F(7, 4)),
                (F(1), F(4)), (F(7, 2), F(3)), (F(9, 4), F(2))]
        assert len(grid) == 10
        for a, b in grid:
            ranks = {}
            for m in range(13):
                for n in range(13):
                    k, v = nk_via_triangle(a, b, m, n)
                    ranks[(m, n)] = (k, v.as_fraction())
            deepest = max(k for k, _ in ranks.values())
            seq = fracs(nk_sequence(a, b, deepest + 1))
            for (m, n), (k, v) in ranks.items():
                assert seq[k - 1] == v
                assert seq[k] > v

        # ball closed form against the ellipsoid formula, k <= 10^4
        for a in [F(1), F(3, 2), F(2, 3)]:
            assert fracs(ball_capacities(a, 10 ** 4)) == \
                fracs(ellipsoid_capacities(a, a, 10 ** 4))

        # max-plus convolution against brute-force partition maximization
        def brute(seqs, k):
            if len(seqs) == 1:
                return seqs[0][k].as_fraction()
            return max(seqs[0][i].as_fraction() + brute(seqs[1:], k - i)
                       for i in range(k + 1))

        rng = random.Random(41)
        for nparts in (2, 3):
            for _ in range(2):
                seqs = []
                for _ in range(nparts):
                    vals = [F(0)]
                    for _ in range(40):
                        vals.append(vals[-1] + F(rng.randint(0, 3), rng.randint(1, 2)))
                    seqs.append(CapacitySequence(
                        0, [CapacityValue.exact(v) for v in vals]))
                out = disjoint_union_capacities(seqs, 40)
                for k in range(0, 41, 8):
                    assert out[k].as_fraction() == brute(seqs, k)


def test_criterion_07_packing():
    with criterion(7, "packing: binding inequality and the proof chain", 30.0):
        for a in [F(1, 4), F(2, 5), F(49, 100), F(1, 2), F(51, 100), F(3, 4), F(1)]:
            report = packing_obstructions([a, a], 4)
            assert report.all_hold == (a < F(1, 2))
            binding = [q for q in report.inequalities
                       if q.multipliers == (1, 1) and q.bound == 1]
            assert len(binding) == 1 and binding[0].satisfied == (2 * a < 1)

        for sizes in ([F(1), F(1, 2)], [F(2, 3), F(2, 3)]):
            report = packing_obstructions(sizes, 8)
            kmax = max(sum(d * d + d for d in q.multipliers) // 2
                       for q in report.inequalities)
            union = disjoint_union_capacities(
                [ball_capacities(s, kmax) for s in sizes], kmax)
            for q in report.inequalities:
                k = sum(d * d + d for d in q.multipliers) // 2
                assert q.lhs <= union[k].as_fraction()


def test_criterion_08_volume_asymptotics():
    with criterion(8, "volume ratios at k = 10^4 and the toric trend", 120.0):
        for domain, tol in [(Ball(1), 0.05), (Ellipsoid(1, 2), 0.05),
                            (Polydisk(2, 1), 0.05),
                            (DisjointUnion([Ball(1), Ball(1)]), 0.07)]:
            stride = 500 if isinstance(domain, DisjointUnion) else 100
            report = volume_ratio_trace(domain, 10 ** 4, stride)
            assert abs(report.final_ratio - 1.0) <= tol, (domain, report.final_ratio)

        seq = capacities(ToricNorm(EUCLIDEAN), 20)
        values = [float(v) for v in seq]
        assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))
        for k in range(1, 21):
            length = values[k]
            assert length * length >= 4 * math.pi * (k - length / 2) - 1e-6


def test_criterion_09_qw_for_ellipsoids():
    with criterion(9, "action bound c_k < sqrt(2k vol_Y) for five ellipsoids", 10.0):
        for ratio in [F(1), F(3, 2), F(2), F(5), F(10)]:
            verdict = qw_check(Ellipsoid(ratio, 1), 1000)
            assert verdict.holds, ratio


def test_criterion_10_property_suites():
    with criterion(10, "monotonicity, scaling, convolution, Pick, isoperimetry,"
                       " grading strata, dual involution", 180.0):
        rng = random.Random(99)

        # monotone sequences from every producer
        for seq in (ellipsoid_capacities(F(7, 3), F(5, 4), 60),
                    polydisk_capacities(F(7, 3), F(5, 4), 60),
                    ball_capacities(F(7, 3), 60)):
            vals = fracs(seq)
            assert all(x <= y for x, y in zip(vals, vals[1:]))

        # scaling homogeneity on all three closed-form variants
        for lam in [F(1, 2), F(3), F(7, 5)]:
            for dom in (Ellipsoid(F(1), F(2)), Ball(F(3, 2)), Polydisk(F(2), F(1))):
                base = fracs(capacities(dom, 25))
                assert fracs(capacities(scale(dom, lam), 25)) == \
                    [lam * v for v in base]

        # inclusion monotonicity
        for (a, b), (c, d) in [((F(1), F(1)), (F(1), F(2))),
                               ((F(2, 3), F(1)), (F(1), F(5)))]:
            for make in (ellipsoid_capacities, polydisk_capacities):
                small = fracs(make(a, b, 40))
                big = fracs(make(c, d, 40))
                assert all(x <= y for x, y in zip(small, big))

        # convolution algebra on random monotone triples
        def rand_entries():
            vals = [F(0)]
            for _ in range(50):
                vals.append(vals[-1] + F(rng.randint(0, 4), rng.randint(1, 3)))
            return [CapacityValue.exact(v) for v in vals]

        for _ in range(3):
            a, b, c = rand_entries(), rand_entries(), rand_entries()
            ab, ba = maxplus_convolve(a, b, 50), maxplus_convolve(b, a, 50)
            assert [v.frac for v in ab] == [v.frac for v in ba]
            left = maxplus_convolve(ab, c, 50)
            right = maxplus_convolve(a, maxplus_convolve(b, c, 50), 50)
            assert [v.frac for v in left] == [v.frac for v in right]

        # Pick's theorem against a bounding-box scan on enumerated polygons
        def brute_count(poly):
            xs = [v[0] for v in poly.vertices]
            ys = [v[1] for v in poly.vertices]
            total = 0
            for x in range(min(xs), max(xs) + 1):
                for y in range(min(ys), max(ys) + 1):
                    if poly.kind == "proper":
                        n = len(poly.vertices)
                        inside = all(
                            (poly.vertices[(i + 1) % n][0] - poly.vertices[i][0])
                            * (y - poly.vertices[i][1])
                            - (poly.vertices[(i + 1) % n][1] - poly.vertices[i][1])
                            * (x - poly.vertices[i][0]) >= 0
                            for i in range(n))
                    elif poly.kind == "segment":
                        (ax, ay), (bx, by) = poly.vertices
                        inside = ((bx - ax) * (y - ay) == (by - ay) * (x - ax)
                                  and min(ax, bx) <= x <= max(ax, bx)
                                  and min(ay, by) <= y <= max(ay, by))
                    else:
                        inside = (x, y) == (0, 0)
                    total += inside
            return total

        pool = []
        for target in range(1, 7):
            pool.extend(enumerate_polygons(target, EUCLIDEAN, 4.9))
        assert len(pool) > 20
        for poly in pool:
            assert lattice_point_count(poly) == brute_count(poly)

        # sharp isoperimetric inequality under each norm family
        norms = [EUCLIDEAN, WeightedL1(1, 1), WeightedL1(F(3, 2), F(2, 3)),
                 Polygonal(((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)))]
        for norm in norms:
            ball_area = norm.dual_ball_area()
            for target in range(1, 7):
                for poly in enumerate_polygons(target, norm, 6):
                    length = perimeter(poly, norm)
                    assert length.value ** 2 >= \
                        4 * ball_area.value * float(area(poly)) - 1e-6

        # grading-stratified minima recover the toric capacities
        for norm in (EUCLIDEAN, WeightedL1(1, 1)):
            for k in range(12, -1, -1):
                stratified = min_action_at_grading(norm, 2 * k)
                direct = toric_capacity(norm, k).value
                assert stratified.compare(direct) == 0

        # dual norm involution on fifty integer covectors
        for norm in (Polygonal(((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))),
                     Polygonal(((2, 1), (-1, 1), (-2, -1), (1, -1)))):
            double_dual = Polygonal(norm.polar)
            for _ in range(50):
                v = (rng.randint(-9, 9), rng.randint(-9, 9)) or (1, 1)
                if v == (0, 0):
                    v = (1, 1)
                assert dual_norm_eval(double_dual, v).as_fraction() == \
                    norm.length(v).as_fraction()
