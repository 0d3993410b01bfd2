from fractions import Fraction

import pytest

from echcap import ApproxTie, CapacitySequence, CapacityValue, as_fraction


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
    assert v.is_approx
    assert v.square == 2
    # comparisons against exact rationals stay exact via the square
    assert CapacityValue.exact(1).compare(v) == -1
    assert CapacityValue.exact(Fraction(3, 2)).compare(v) == 1
    assert v.compare(CapacityValue.sqrt_rational(2)) == 0
    assert v.compare(CapacityValue.sqrt_rational(3)) == -1


def test_addition_and_scaling():
    two = CapacityValue.exact(2)
    root2 = CapacityValue.sqrt_rational(2)
    s = two + root2
    assert s.is_approx
    assert abs(s.value - 3.41421356237309) < 1e-12
    assert (CapacityValue.exact(0) + root2).square == 2
    scaled = root2.scaled(3)
    assert scaled.square == 18  # 3*sqrt(2) = sqrt(18)


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


def test_full_sequence_indexing():
    e = CapacityValue.exact
    seq = CapacitySequence(1, [e(0), e(1)])
    assert seq.kmax == 2
    assert seq[1] == e(0)
    with pytest.raises(IndexError):
        seq[0]
