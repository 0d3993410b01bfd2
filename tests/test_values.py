import decimal
import math
import random
from fractions import Fraction

import pytest

from echcap import (EUCLIDEAN, INTERIOR_STRICT, WEAK, ApproxTie,
                    CapacitySequence, CapacityValue, ToricNorm, as_fraction,
                    capacities, dominates, ellipsoid_capacities)


def test_as_fraction_accepts_int_str_fraction():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("3/2") == Fraction(3, 2)
    assert as_fraction(Fraction(5, 7)) == Fraction(5, 7)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_exact_rejects_negative():
    with pytest.raises(ValueError):
        CapacityValue.exact(-1)


def test_sqrt_of_perfect_square_is_exact():
    v = CapacityValue.sqrt_rational(4)
    assert v.is_exact and v.frac == 2
    v = CapacityValue.sqrt_rational(Fraction(9, 16))
    assert v.is_exact and v.frac == Fraction(3, 4)


def test_sqrt_of_nonsquare_keeps_exact_square():
    v = CapacityValue.sqrt_rational(2)
    assert not v.is_exact
    assert v.compare(CapacityValue.sqrt_rational(8).scaled(Fraction(1, 2))) == 0
    # comparisons against exact rationals stay exact
    assert CapacityValue.exact(1).compare(v) == -1
    assert CapacityValue.exact(Fraction(3, 2)).compare(v) == 1
    assert v.compare(CapacityValue.sqrt_rational(2)) == 0
    assert v.compare(CapacityValue.sqrt_rational(3)) == -1


def test_addition_and_scaling():
    two = CapacityValue.exact(2)
    root2 = CapacityValue.sqrt_rational(2)
    s = two + root2
    assert not s.is_exact
    assert abs(s.value - 3.41421356237309) < 1e-12
    assert (CapacityValue.exact(0) + root2) is root2
    scaled = root2.scaled(3)
    assert scaled.compare(CapacityValue.sqrt_rational(18)) == 0  # 3*sqrt(2) = sqrt(18)


def test_sums_of_square_roots_compare_exactly():
    root2, root8 = CapacityValue.sqrt_rational(2), CapacityValue.sqrt_rational(8)
    twice = root2 + root2
    assert twice.definitely_le(root8) and root8.definitely_le(twice)
    assert not twice.definitely_lt(root8) and not root8.definitely_lt(twice)
    # the float window cannot separate these: the difference is about 5e-16
    big = CapacityValue.sqrt_rational(10 ** 30 + 1) + root2
    near = CapacityValue.exact(10 ** 15) + root2
    assert big.compare(near) == 1 and near.compare(big) == -1


def sqrt_sum(terms):
    total = CapacityValue.exact(0)
    for n, q in terms:
        total = total + CapacityValue.sqrt_rational(n).scaled(q)
    return total


def squarefree_form(terms):
    """sum q sqrt(n) as {square-free part m: coefficient of sqrt(m)}."""
    form = {}
    for n, q in terms:
        k = 1
        for p in range(2, math.isqrt(n) + 1):
            while n % (p * p) == 0:
                n //= p * p
                k *= p
        form[n] = form.get(n, 0) + Fraction(q) * k
    return {m: c for m, c in form.items() if c}


def decimal_sum(terms):
    with decimal.localcontext() as ctx:
        ctx.prec = 200
        return sum(decimal.Decimal(n).sqrt() * Fraction(q).numerator
                   / Fraction(q).denominator for n, q in terms)


def test_compare_matches_square_free_and_decimal_oracles():
    """Equality from square-free parts found by trial division (square
    roots of distinct square-free integers are linearly independent over Q);
    the order of unequal sums from 200 significant digits."""
    rng = random.Random(5)
    for _ in range(600):
        a = [(rng.randint(1, 50), rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:   # the same sum, as sqrt(n k^2) / k
            b = []
            for n, q in a:
                k = rng.randint(1, 3)
                b.append((n * k * k, Fraction(q, k)))
            rng.shuffle(b)
            if rng.random() < 0.3:
                b.append((rng.randint(1, 50), Fraction(1, rng.randint(1, 7))))
        else:
            b = [(rng.randint(1, 50), rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
        expected = 0
        if squarefree_form(a) != squarefree_form(b):
            diff = decimal_sum(a) - decimal_sum(b)
            assert abs(diff) > decimal.Decimal("1e-150")   # far above the rounding
            expected = 1 if diff > 0 else -1
        x, y = sqrt_sum(a), sqrt_sum(b)
        assert x.compare(y) == expected and y.compare(x) == -expected, (a, b)
        assert (x == y) == (expected == 0)
    # below float resolution: sqrt(k^2 n + d) - k sqrt(n) has the sign of d
    for _ in range(200):
        n, k, d = rng.randint(2, 50), rng.randint(10 ** 6, 10 ** 15), rng.choice((-1, 1))
        common = [(rng.randint(1, 50), rng.randint(1, 5)) for _ in range(rng.randint(0, 2))]
        x, y = sqrt_sum([(k * k * n + d, 1)] + common), sqrt_sum(common + [(n, k)])
        assert x.compare(y) == d and y.compare(x) == -d, (n, k, d, common)


def test_exact_values_never_raise_approx_tie():
    four = CapacityValue.exact(4)
    two_plus_root2 = CapacityValue.exact(2) + CapacityValue.sqrt_rational(2)
    lower = CapacitySequence(0, [CapacityValue.exact(0), two_plus_root2])
    upper = CapacitySequence(0, [CapacityValue.exact(0), four])
    assert dominates(lower, upper, INTERIOR_STRICT).dominated
    assert not dominates(upper, lower, WEAK).dominated
    # sqrt(1/2) + sqrt(1/2) = sqrt(2): equal sums of unlike terms, no ApproxTie
    half = CapacityValue.sqrt_rational(Fraction(1, 2))
    assert (half + half).definitely_le(CapacityValue.sqrt_rational(2))
    assert (half + half) == CapacityValue.sqrt_rational(2)


def test_infinity_absorbs():
    inf = CapacityValue.infinite()
    assert (inf + CapacityValue.exact(5)).is_infinite
    assert inf.compare(CapacityValue.exact(10 ** 9)) == 1
    assert inf.compare(CapacityValue.infinite()) == 0


def test_approx_tie_raises():
    a = CapacityValue.approx(1.0, 1e-9)
    b = CapacityValue.approx(1.0 + 1e-12, 1e-9)
    assert a.compare(b) == 0
    with pytest.raises(ApproxTie):
        a.definitely_le(b)
    # identical representations count as equal, not ambiguous
    assert a.definitely_le(CapacityValue.approx(1.0, 1e-9))


def test_gt_is_compare_positive_and_max_keeps_first_of_unordered():
    values = [CapacityValue.exact(0), CapacityValue.exact(Fraction(3, 2)),
              CapacityValue.sqrt_rational(2), CapacityValue.sqrt_rational(3),
              CapacityValue.approx(1.5, 1e-9), CapacityValue.infinite()]
    for x in values:
        for y in values:
            assert (x > y) == (x.compare(y) > 0)
    a = CapacityValue.approx(1.0, 1e-9)
    b = CapacityValue.approx(1.0 + 1e-12, 1e-9)
    assert not a > b and not b > a
    assert max([a, b]) is a and max([b, a]) is b


def test_sequence_validation():
    e = CapacityValue.exact
    seq = CapacitySequence(0, [e(0), e(1), e(1), e(2)])
    assert seq.kmax == 3
    assert seq[0] == e(0) and seq[3] == e(2)
    with pytest.raises(ValueError):
        CapacitySequence(0, [e(1), e(2)])  # must start at 0
    with pytest.raises(ValueError):
        CapacitySequence(0, [e(0), e(2), e(1)])  # not monotone
    with pytest.raises(IndexError):
        seq[4]
    # the exact form (ints over a denominator) and the value form raise alike
    root2 = CapacityValue.sqrt_rational(2)
    for start, decrease in [
            (lambda: CapacitySequence._from_ints(0, 7, [7, 14]),
             lambda: CapacitySequence._from_ints(0, 7, [0, 14, 7])),
            (lambda: CapacitySequence(0, [root2, e(2)]),
             lambda: CapacitySequence(0, [e(0), e(2), root2]))]:
        with pytest.raises(ValueError, match="start at 0, got CapacityValue"):
            start()
        with pytest.raises(ValueError, match=r"at k=1: CapacityValue\(2\) > "):
            decrease()
    # a hand-built exact sequence over coprime denominators is the kernel's
    kernel = ellipsoid_capacities(Fraction(1, 89), Fraction(1, 97), 40)
    by_hand = CapacitySequence(0, map(e, sorted(
        Fraction(m, 89) + Fraction(n, 97) for m in range(41) for n in range(41))[:41]))
    assert by_hand == kernel and repr(by_hand) == repr(kernel)
    assert by_hand.den == kernel.den == 89 * 97
    assert [by_hand[k] for k in range(41)] == list(kernel)
    # a sequence with a Euclidean value keeps its values
    assert CapacitySequence(0, [e(0), root2, e(2)]).den is None
    assert capacities(ToricNorm(EUCLIDEAN), 4).den is None


def test_full_sequence_indexing():
    e = CapacityValue.exact
    seq = CapacitySequence(1, [e(0), e(1)])
    assert seq.kmax == 2
    assert seq[1] == e(0)
    with pytest.raises(IndexError):
        seq[0]


def test_sequences_over_different_dens_compare_on_ints(monkeypatch):
    thirds = CapacitySequence._from_ints(0, 3, [0, 1, 3, 3, 5])
    sixths = CapacitySequence._from_ints(0, 6, [0, 2, 6, 6, 10])
    by_value = CapacitySequence.__new__(CapacitySequence)._store(0, None, tuple(thirds))
    unequal = [CapacitySequence._from_ints(0, 6, [0, 2, 6, 6, 11]),
               CapacitySequence._from_ints(0, 6, [0, 2, 6, 6]),
               CapacitySequence._from_ints(1, 6, [0, 2, 6, 6, 10])]

    def no_values(*args):
        raise AssertionError("comparing two int-form sequences built a value")

    monkeypatch.setattr(CapacityValue, "exact", no_values)
    assert thirds == sixths and sixths == thirds
    for other in unequal:
        assert thirds != other and other != thirds
    monkeypatch.undo()
    assert by_value == sixths and sixths == by_value
    assert by_value != unequal[0]
