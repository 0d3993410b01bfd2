import importlib
import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from echcap import (EUCLIDEAN, Ball, CapacitySequence, CapacityValue,
                    DisjointUnion, Ellipsoid, INTERIOR_STRICT,
                    MismatchedIndexOrigin, Polydisk, Polygonal, ToricNorm, WEAK,
                    WeightedL1, ball_capacities, capacities, describe,
                    disjoint_union_capacities, dominates, ellipsoid_capacities,
                    ellipsoid_full_capacities, nk_sequence, nk_via_triangle,
                    polydisk_capacities, scale)
from echcap.cli import format_value, main, parse_domain_spec

F = Fraction


def brute_nk(a, b, kmax, box=60):
    """Independent oracle: enumerate a bounded grid, sort with repetitions."""
    vals = sorted(a * m + b * n for m in range(box) for n in range(box))
    assert len(vals) >= kmax
    return vals[:kmax]


def fracs(seq):
    return [v.as_fraction() for v in seq]


def test_nk_sequence_against_brute_force():
    grid = [(F(1), F(1)), (F(1), F(2)), (F(5), F(1)), (F(3, 2), F(2, 3)),
            (F(7, 3), F(1)), (F(2), F(2))]
    for a, b in grid:
        assert fracs(nk_sequence(a, b, 40)) == brute_nk(a, b, 40)


def test_nk_sequence_thin_pairs_against_brute_force():
    # each of the k smallest values has m, n < k, so a k-by-k grid is exact
    rng = random.Random(4181)
    for _ in range(60):
        a = F(rng.randint(1, 60), rng.randint(1, 30))
        b = a * rng.choice([F(1000), F(1, 1000), F(10**6, 7), F(3, 10**6)])
        kmax = rng.randint(1, 40)
        assert fracs(nk_sequence(a, b, kmax)) == brute_nk(a, b, kmax, box=kmax)


def test_thin_ellipsoids_list_about_kmax_values():
    # with only the sqrt(2*a*b*kmax) level these listed about 10^20 values
    tiny = F(1, 10**40)
    assert fracs(ellipsoid_capacities(10**40, 1, 5)) == [0, 1, 2, 3, 4, 5]
    assert fracs(ellipsoid_capacities(tiny, 1, 3)) == [0, tiny, 2 * tiny, 3 * tiny]
    assert fracs(ellipsoid_full_capacities(1, 10**40, 4)) == [0, 1, 2, 3]


def test_nk_sequence_examples():
    assert fracs(nk_sequence(1, 1, 7)) == [0, 1, 1, 2, 2, 2, 3]
    assert fracs(nk_sequence(3, 5, 1)) == [0]
    assert fracs(nk_sequence(5, 1, 6))[-1] == 5


def test_nk_via_triangle_examples():
    assert nk_via_triangle(1, 1, 0, 0)[0] == 1
    k, v = nk_via_triangle(1, 1, 1, 1)
    assert (k, v.as_fraction()) == (6, 2)
    k, v = nk_via_triangle(2, 1, 1, 0)
    assert v.as_fraction() == 2
    # rank is the largest one with this value: sorted is 0,1,2,2 so rank 4
    assert k == 4


def test_nk_via_triangle_thin_weights():
    # the sum runs over the larger weight: two terms here, not 10^12
    k, v = nk_via_triangle(F(1, 10**12), 1, 0, 1)
    assert (k, v.as_fraction()) == (10**12 + 2, 1)
    k, v = nk_via_triangle(1, F(1, 10**12), 1, 0)
    assert (k, v.as_fraction()) == (10**12 + 2, 1)
    for a, b, m, n in [(F(7, 3), F(1, 5), 4, 9), (F(2), F(9, 4), 3, 0)]:
        assert nk_via_triangle(a, b, m, n)[0] == nk_via_triangle(b, a, n, m)[0]


def column_count_oracle(a, b, m, n):
    """The rank of a*m + b*n by a loop: one column of points per multiple of
    the larger weight up to the value."""
    value, big, small = a * m + b * n, max(a, b), min(a, b)
    return sum((value - big * t) // small + 1 for t in range(value // big + 1))


def test_nk_via_triangle_matches_column_loop():
    rng = random.Random(20)
    for _ in range(3000):
        a, b = (F(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(2))
        m, n = rng.randint(0, 60), rng.randint(0, 60)
        assert nk_via_triangle(a, b, m, n)[0] == column_count_oracle(a, b, m, n)


def test_nk_via_triangle_counts_without_a_loop():
    # 10^12 + 1 columns: a loop over them would not finish
    k, v = nk_via_triangle(1, 1, 10**12, 0)
    assert (k, v.as_fraction()) == ((10**12 + 1) * (10**12 + 2) // 2, 10**12)


def test_nk_via_triangle_matches_rank():
    grid = [(F(1), F(1)), (F(2), F(1)), (F(3, 2), F(1)), (F(5), F(2))]
    for a, b in grid:
        for m in range(6):
            for n in range(6):
                k, v = nk_via_triangle(a, b, m, n)
                seq = fracs(nk_sequence(a, b, k + 1))
                assert seq[k - 1] == v.as_fraction()
                assert seq[k] > v.as_fraction()


def test_ellipsoid_capacities_paper_sequence():
    seq = ellipsoid_capacities(1, 2, 11)
    assert fracs(seq) == [0, 1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5]
    assert fracs(ellipsoid_capacities(2, 4, 11)) == \
        [2 * v for v in fracs(seq)]


def test_ellipsoid_capacities_small():
    assert fracs(ellipsoid_capacities(3, 5, 0)) == [0]
    # aspect ratio 3 >= 2, so the k=2 entry is 2b
    assert fracs(ellipsoid_capacities(3, 1, 2)) == [0, 1, 2]


def test_ellipsoid_full_capacities():
    assert fracs(ellipsoid_full_capacities(1, 1, 3)) == [0, 1, 1]
    assert fracs(ellipsoid_full_capacities(2, 3, 1)) == [0]
    assert fracs(ellipsoid_full_capacities(5, 1, 6))[-1] == 5


def test_full_is_distinguished_shifted():
    for a, b in [(F(1), F(1)), (F(1), F(2)), (F(7, 2), F(5, 3))]:
        full = ellipsoid_full_capacities(a, b, 21)
        dist = ellipsoid_capacities(a, b, 20)
        for k in range(21):
            assert full[k + 1] == dist[k]


def test_ball_capacities():
    assert fracs(ball_capacities(1, 9)) == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]
    assert fracs(ball_capacities(7, 0)) == [0]
    assert ball_capacities(1, 5)[5].as_fraction() == 2


def test_ball_matches_ellipsoid_diagonal():
    for a in [F(1), F(3, 2), F(2, 3)]:
        ball = ball_capacities(a, 300)
        ell = ellipsoid_capacities(a, a, 300)
        assert fracs(ball) == fracs(ell)


def test_polydisk_capacities():
    assert fracs(polydisk_capacities(1, 1, 11)) == \
        [0, 1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5]
    assert fracs(polydisk_capacities(2, 5, 0)) == [0]
    assert polydisk_capacities(2, 1, 4)[4].as_fraction() == 4


def test_polydisk_against_brute_force():
    def brute(a, b, k):
        return min(a * m + b * n
                   for m in range(k + 1) for n in range(k + 1)
                   if (m + 1) * (n + 1) >= k + 1)
    for a, b in [(F(1), F(1)), (F(2), F(1)), (F(3, 2), F(2, 3)), (F(5), F(7))]:
        seq = polydisk_capacities(a, b, 25)
        for k in range(26):
            assert seq[k].as_fraction() == brute(a, b, k)


def test_polydisk_symmetry():
    for a, b in [(F(2), F(1)), (F(3, 2), F(7, 3))]:
        assert fracs(polydisk_capacities(a, b, 30)) == \
            fracs(polydisk_capacities(b, a, 30))


def test_sequences_are_monotone():
    rng = random.Random(7)
    for _ in range(10):
        a = F(rng.randint(1, 9), rng.randint(1, 9))
        b = F(rng.randint(1, 9), rng.randint(1, 9))
        for seq in (ellipsoid_capacities(a, b, 40),
                    polydisk_capacities(a, b, 40),
                    ball_capacities(a, 40)):
            vals = fracs(seq)
            assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_scaling_homogeneity():
    domains = [Ellipsoid(F(1), F(2)), Ball(F(3, 2)), Polydisk(F(2), F(1))]
    for lam in [F(1, 2), F(3), F(7, 5)]:
        for dom in domains:
            base = fracs(capacities(dom, 30))
            scaled = fracs(capacities(scale(dom, lam), 30))
            assert scaled == [lam * v for v in base]


SKEW = ToricNorm(Polygonal(((2, 1), (-1, 1), (-2, -1), (1, -1))))
# a closed form of each kind, rational toric norms and a three-part union
SCALABLE = [Ball(F(3, 2)), Ellipsoid(F(7, 3), F(5, 4)), Polydisk(F(2), F(1)),
            ToricNorm(WeightedL1(F(7, 3), 2)), SKEW,
            ToricNorm(Polygonal(((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)))),
            DisjointUnion((Ball(1), Ellipsoid(2, 1), SKEW))]


def test_capacities_are_conformal_under_scale():
    lam = F(5, 3)
    for dom in SCALABLE:
        base, scaled = capacities(dom, 12), capacities(scale(dom, lam), 12)
        assert all(scaled[k] == base[k].scaled(lam) for k in range(13)), describe(dom)
    with pytest.raises(ValueError, match="no size parameter"):
        scale(ToricNorm(EUCLIDEAN), lam)


def any_domain(rng, depth=1):
    """A seeded domain of every kind: sizes p/q with q <= 97, polygonal unit
    balls with negative and p/q vertices, unions of 1 to 3 parts."""
    def size():
        return F(rng.randint(1, 400), rng.randint(1, 97))

    kind = rng.choice(["ball", "ellipsoid", "polydisk", "euclidean", "l1", "poly"]
                      + ["union"] * depth)
    if kind == "ball":
        return Ball(size())
    if kind in ("ellipsoid", "polydisk"):
        return (Ellipsoid if kind == "ellipsoid" else Polydisk)(size(), size())
    if kind == "euclidean":
        return ToricNorm(EUCLIDEAN)
    if kind == "l1":
        return ToricNorm(WeightedL1(size(), size()))
    if kind == "union":
        return DisjointUnion(any_domain(rng, 0) for _ in range(rng.randint(1, 3)))
    while True:   # edges at increasing angles in [0, pi), then their negatives
        edges = sorted(((F(rng.randint(-40, 40), rng.randint(1, 97)),
                         F(rng.randint(0, 40), rng.randint(1, 97)))
                        for _ in range(rng.randint(2, 4))),
                       key=lambda e: math.atan2(e[1], e[0]))
        if all(y > 0 or x > 0 for x, y in edges) and all(
                x1 * y2 - y1 * x2 > 0 for (x1, y1), (x2, y2) in zip(edges, edges[1:])):
            break
    vertex = (-sum(x for x, _ in edges) / 2, -sum(y for _, y in edges) / 2)
    verts = []
    for dx, dy in edges + [(-x, -y) for x, y in edges]:
        verts.append(vertex)
        vertex = (vertex[0] + dx, vertex[1] + dy)
    rng.shuffle(verts)
    return ToricNorm(Polygonal(tuple(verts)))


def test_describe_parses_back_to_the_domain():
    for dom in SCALABLE:
        for form in (dom, scale(dom, F(5, 3))):
            assert parse_domain_spec(describe(form)) == form, describe(form)
    assert parse_domain_spec(describe(ToricNorm(EUCLIDEAN))) == ToricNorm(EUCLIDEAN)
    rng = random.Random(97)
    texts = set()
    for _ in range(300):
        text = describe(dom := any_domain(rng))
        back = parse_domain_spec(text)
        assert back == dom and describe(back) == text, text
        texts.add(text)
    # the draws reach negative and p/q vertices and three-part unions
    assert any("[-" in t and "/" in t for t in texts)
    assert any(t.startswith("union(") and t.count(";") == 2 for t in texts)


def test_ball_is_the_round_ellipsoid_with_its_own_identity():
    ball = Ball(F(3, 2))
    assert isinstance(ball, Ellipsoid) and ball.b == ball.a == F(3, 2)
    assert repr(ball) == "Ball(a=Fraction(3, 2))"
    assert ball == Ball(F(3, 2)) and ball != Ball(2)
    assert ball != Ellipsoid(F(3, 2), F(3, 2))
    assert hash(ball) == hash(Ball(F(6, 4))) == hash((F(3, 2),))
    copy = pickle.loads(pickle.dumps(ball))
    assert type(copy) is Ball and copy == ball and copy.b == F(3, 2)
    assert describe(ball) == "ball(3/2)"
    grown = scale(ball, 2)
    assert type(grown) is Ball and grown == Ball(3) and grown.b == 3
    assert fracs(capacities(ball, 40)) == fracs(ball_capacities(F(3, 2), 40)) \
        == fracs(ellipsoid_capacities(F(3, 2), F(3, 2), 40))
    with pytest.raises(TypeError):
        Ball(1, 2)


def test_ellipsoid_and_polydisk_share_one_body_with_their_own_identity(monkeypatch):
    ellipsoid, polydisk = Ellipsoid(1, 2), Polydisk(1, 2)
    assert (ellipsoid.a, ellipsoid.b) == (polydisk.a, polydisk.b) == (1, 2)
    assert ellipsoid != polydisk and polydisk != ellipsoid
    assert repr(ellipsoid) == "Ellipsoid(a=Fraction(1, 1), b=Fraction(2, 1))"
    assert repr(polydisk) == "Polydisk(a=Fraction(1, 1), b=Fraction(2, 1))"
    for dom in (ellipsoid, polydisk):
        copy = pickle.loads(pickle.dumps(dom))
        assert type(copy) is type(dom) and copy == dom
        grown = scale(dom, F(3, 2))
        assert type(grown) is type(dom) and grown == type(dom)(F(3, 2), 3)
    assert describe(ellipsoid) == "ellipsoid(1,2)" and describe(polydisk) == "polydisk(1,2)"
    with pytest.raises(ValueError, match="^ellipsoid sizes must be positive$"):
        Ellipsoid(1, 0)
    with pytest.raises(ValueError, match="^polydisk sizes must be positive$"):
        Polydisk(-1, 2)
    with pytest.raises(ValueError, match="^ball size must be positive$"):
        Ball(0)
    # the two parts are not equal, so each runs its own kernel
    runs = []
    module = importlib.import_module("echcap.capacities")

    def counted(name, kernel):
        def run(*args):
            runs.append(name)
            return kernel(*args)
        return run

    for name in ("ellipsoid_capacities", "polydisk_capacities"):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    union = capacities(parse_domain_spec("union(ellipsoid(1,2);polydisk(1,2))"), 30)
    assert runs == ["ellipsoid_capacities", "polydisk_capacities"]
    assert fracs(union) == fracs(disjoint_union_capacities(
        [ellipsoid_capacities(1, 2, 30), polydisk_capacities(1, 2, 30)], 30))
    assert fracs(union) != fracs(capacities(DisjointUnion((ellipsoid, ellipsoid)), 30))


def test_inclusion_monotonicity():
    pairs = [((F(1), F(1)), (F(1), F(2))),
             ((F(1), F(2)), (F(3, 2), F(2))),
             ((F(2, 3), F(1)), (F(1), F(5)))]
    for (a, b), (c, d) in pairs:
        assert a <= c and b <= d
        small_e = fracs(ellipsoid_capacities(a, b, 50))
        big_e = fracs(ellipsoid_capacities(c, d, 50))
        assert all(x <= y for x, y in zip(small_e, big_e))
        small_p = fracs(polydisk_capacities(a, b, 50))
        big_p = fracs(polydisk_capacities(c, d, 50))
        assert all(x <= y for x, y in zip(small_p, big_p))


def test_closed_form_k3():
    # (a,b)_3 for a >= b: 2b when a/b >= 2, else a
    for i in range(20):
        ratio = F(1) + F(i, 19)  # [1, 2]
        a, b = ratio, F(1)
        assert nk_sequence(a, b, 3)[2].as_fraction() == a
    for i in range(20):
        ratio = F(2) + F(i, 4)  # [2, 6.75]
        assert nk_sequence(ratio, 1, 3)[2].as_fraction() == 2


def c6_expected(a):
    # piecewise closed form of (a, 1)_6 for a >= 1
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


def test_closed_form_k6():
    intervals = [(F(1), F(3, 2)), (F(3, 2), F(2)), (F(2), F(3)),
                 (F(3), F(4)), (F(4), F(5)), (F(5), F(7))]
    for lo, hi in intervals:
        for i in range(20):
            a = lo + (hi - lo) * F(i, 19)
            assert nk_sequence(a, 1, 6)[5].as_fraction() == c6_expected(a)


def test_dominates_weak_equal_sequences():
    e = ellipsoid_capacities(1, 2, 50)
    p = polydisk_capacities(1, 1, 50)
    assert dominates(e, p, WEAK).dominated
    assert dominates(p, e, WEAK).dominated


def test_dominates_strict_fails_on_equality():
    seq = ellipsoid_capacities(1, 1, 10)
    verdict = dominates(seq, ellipsoid_capacities(1, 1, 10), INTERIOR_STRICT)
    assert not verdict.dominated
    assert verdict.k == 1
    assert verdict.lower.as_fraction() == 1
    assert verdict.upper.as_fraction() == 1


def test_dominates_finds_first_violation():
    lower = ellipsoid_capacities(2, 1, 10)
    upper = ball_capacities(F(3, 2), 10)
    verdict = dominates(lower, upper, WEAK)
    assert not verdict.dominated
    assert verdict.k == 2
    assert verdict.lower.as_fraction() == 2
    assert verdict.upper.as_fraction() == F(3, 2)


def test_dominates_requires_matching_origin():
    with pytest.raises(MismatchedIndexOrigin):
        dominates(ellipsoid_capacities(1, 1, 5),
                  ellipsoid_full_capacities(1, 1, 5))


# -- the int form read directly (den set) against the value form ---------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 89, 97)


def random_domain(rng, parts=1):
    """A ball, ellipsoid or polydisk with sizes over prime denominators, or
    a disjoint union of `parts` of them."""
    def size():
        q = rng.choice(PRIMES)
        return F(rng.randint(q // 2 + 1, 3 * q), q)
    if parts > 1:
        return DisjointUnion([random_domain(rng) for _ in range(parts)])
    kind = rng.choice((Ball, Ellipsoid, Polydisk))
    return kind(size()) if kind is Ball else kind(size(), size())


def value_form(seq):
    """The same entries held as CapacityValues (den None), which makes every
    consumer take its value path."""
    return CapacitySequence.__new__(CapacitySequence)._store(
        seq.index_origin, None, tuple(seq))


def test_cli_int_rendering_matches_format_value(capsys):
    rng = random.Random(14)
    for trial in range(24):
        domain = random_domain(rng, parts=1 + trial % 3)
        kmax = rng.randint(0, 400 if trial % 3 == 0 else 60)
        seq = capacities(domain, kmax)
        assert seq.den is not None
        expected = ",".join(format_value(v) for v in seq)
        spec = describe(domain)
        assert main(["capacities", spec, "--kmax", str(kmax)]) == 0
        assert capsys.readouterr().out == expected + "\n", spec
        assert main(["capacities", spec, "--kmax", str(kmax), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == expected.split(",")
    for a, b in [(F(7, 3), F(5, 11)), (F(13, 7), F(13, 7)), (F(1), F(89, 97))]:
        spec = f"ellipsoid({a},{b})"
        expected = ",".join(map(format_value, ellipsoid_full_capacities(a, b, 300)))
        assert main(["capacities", spec, "--kmax", "300", "--full"]) == 0
        assert capsys.readouterr().out == expected + "\n", spec


def assert_same_dominance(lower, upper, mode):
    got = dominates(lower, upper, mode)
    want = dominates(value_form(lower), value_form(upper), mode)
    assert got == want and repr(got) == repr(want), (lower, upper, mode)
    return got


def test_dominates_int_path_matches_value_path():
    rng = random.Random(1414)
    outcomes = set()
    for trial in range(60):
        kmax = rng.randint(1, 200)
        lower = capacities(random_domain(rng, parts=1 + trial % 2), kmax)
        upper = capacities(random_domain(rng, parts=1 + trial % 3 // 2), kmax)
        for mode in (WEAK, INTERIOR_STRICT):
            verdict = assert_same_dominance(lower, upper, mode)
            outcomes.add((mode, verdict.dominated, lower.den == upper.den))
    # both verdicts in both modes, over mismatched denominators
    assert {(m, d, False) for m in (WEAK, INTERIOR_STRICT)
            for d in (True, False)} <= outcomes


def test_dominates_int_path_on_equal_entries_over_other_dens():
    # c_1 = 89/97 on both sides, stored over different denominators
    ball = ball_capacities(F(89, 97), 50)
    for outer in (ellipsoid_capacities(F(89, 97), F(101, 89), 50),
                  ellipsoid_capacities(F(89, 97), F(269, 101), 50),
                  capacities(DisjointUnion([Ball(F(89, 97)), Ball(F(1, 101))]), 50)):
        assert outer.den != ball.den
        weak = assert_same_dominance(ball, outer, WEAK)
        strict = assert_same_dominance(ball, outer, INTERIOR_STRICT)
        assert weak.dominated
        assert (strict.dominated, strict.k) == (False, 1)
        assert strict.lower == strict.upper == CapacityValue.exact(F(89, 97))
    # equal entries first at k = 3, after strict inequalities at k = 1, 2
    lower = CapacitySequence._from_ints(0, 6, [0, 1, 2, 6, 7])
    upper = CapacitySequence._from_ints(0, 4, [0, 1, 2, 4, 4])
    assert assert_same_dominance(lower, upper, WEAK).k == 4
    assert assert_same_dominance(lower, upper, INTERIOR_STRICT).k == 3
