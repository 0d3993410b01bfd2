import importlib
import random
from fractions import Fraction

import pytest

from echcap import (Ball, CapacitySequence, CapacityValue, DisjointUnion, Ellipsoid,
                    EUCLIDEAN, MismatchedIndexOrigin, ToricNorm,
                    ball_capacities, capacities,
                    disjoint_union_capacities, ellipsoid_full_capacities,
                    maxplus_convolve, volume_ratio_trace)
from echcap.capacities import _maxplus_at
from echcap.cli import format_value

F = Fraction
e = CapacityValue.exact


def random_sequence(rng, kmax):
    vals = [F(0)]
    for _ in range(kmax):
        vals.append(vals[-1] + F(rng.randint(0, 4), rng.randint(1, 3)))
    return CapacitySequence(0, [e(v) for v in vals])


def brute_union(seqs, k):
    """Maximize over all partitions of k across the parts."""
    if len(seqs) == 1:
        return seqs[0][k].as_fraction()
    best = None
    first, rest = seqs[0], seqs[1:]
    for i in range(k + 1):
        cand = first[i].as_fraction() + brute_union(rest, k - i)
        if best is None or cand > best:
            best = cand
    return best


def test_singleton_union_is_identity():
    seq = ball_capacities(1, 20)
    out = disjoint_union_capacities([seq], 20)
    assert [v.as_fraction() for v in out] == [v.as_fraction() for v in seq]


def test_two_balls_example():
    seq = ball_capacities(1, 5)
    out = disjoint_union_capacities([seq, seq], 5)
    # at k=2 the best split is 1+1
    assert out[2].as_fraction() == 2


def test_union_matches_brute_force_partitions():
    rng = random.Random(11)
    for nparts in (2, 3):
        seqs = [random_sequence(rng, 40) for _ in range(nparts)]
        out = disjoint_union_capacities(seqs, 40)
        for k in range(0, 41, 7):
            assert out[k].as_fraction() == brute_union(seqs, k)


def test_union_of_balls_lower_bound_at_partition_indices():
    # at k = sum d_i(d_i+1)/2 the union dominates sum d_i a_i
    sizes = [F(1), F(1, 2), F(3, 2)]
    seqs = [ball_capacities(a, 60) for a in sizes]
    out = disjoint_union_capacities(seqs, 60)
    for mults in [(1, 1, 1), (2, 1, 0), (3, 0, 2), (1, 4, 1)]:
        k = sum(d * (d + 1) // 2 for d in mults)
        lower = sum(d * a for d, a in zip(mults, sizes))
        assert out[k].as_fraction() >= lower


def test_convolution_commutative_associative():
    rng = random.Random(3)
    for _ in range(5):
        a = list(random_sequence(rng, 50))
        b = list(random_sequence(rng, 50))
        c = list(random_sequence(rng, 50))
        ab = maxplus_convolve(a, b, 50)
        ba = maxplus_convolve(b, a, 50)
        assert [v.as_fraction() for v in ab] == [v.as_fraction() for v in ba]
        left = maxplus_convolve(ab, c, 50)
        right = maxplus_convolve(a, maxplus_convolve(b, c, 50), 50)
        assert [v.as_fraction() for v in left] == \
            [v.as_fraction() for v in right]


def test_superadditivity():
    rng = random.Random(5)
    a = random_sequence(rng, 40)
    b = random_sequence(rng, 40)
    out = disjoint_union_capacities([a, b], 40)
    for k in range(41):
        for l in range(41 - k):
            assert out[k + l].as_fraction() >= \
                a[k].as_fraction() + b[l].as_fraction()


def test_infinity_is_absorbing():
    inf = CapacityValue.infinite()
    a = [e(0), e(1), inf]
    b = [e(0), e(2), e(3)]
    out = maxplus_convolve(a, b, 2)
    assert out[0].as_fraction() == 0
    assert out[1].as_fraction() == 2
    assert out[2].is_infinite


@pytest.mark.parametrize("first, second, kmax, top", [
    ([0], [0], 3, 0), ([], [], 0, -1), ([0, 1, 2, 3], [0, 1], 3, 1)])
def test_maxplus_rejects_inputs_shorter_than_kmax(first, second, kmax, top):
    with pytest.raises(ValueError, match=rf"input defined only up to k={top} < {kmax}$"):
        maxplus_convolve(first, second, kmax)


def test_union_rejects_full_spectra():
    with pytest.raises(MismatchedIndexOrigin):
        disjoint_union_capacities(
            [ellipsoid_full_capacities(1, 1, 5)], 5)


def test_union_domain_dispatch():
    dom = DisjointUnion([Ball(1)])
    assert [v.as_fraction() for v in capacities(dom, 3)] == [0, 1, 1, 2]
    pair = DisjointUnion([Ball(1), Ball(1)])
    assert capacities(pair, 2)[2].as_fraction() == 2


def test_union_computes_each_distinct_part_once(monkeypatch):
    single = capacities(ToricNorm(EUCLIDEAN), 10)
    module = importlib.import_module("echcap.toric")
    search = module._toric_minima
    calls = []

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(module, "_toric_minima", counted)
    pair = capacities(DisjointUnion([ToricNorm(EUCLIDEAN), ToricNorm(EUCLIDEAN)]), 10)
    assert len(calls) == 1
    assert tuple(pair) == tuple(maxplus_convolve(list(single), list(single), 10))
    # as computed with one search per part
    assert ",".join(format_value(v) for v in pair) == \
        "0,2,4,~5.414213562373,~6.828427124746,~7.414213562373," \
        "~8.828427124746,~9.414213562373,~10.828427124746,~11.414213562373," \
        "~12.242640687119"


def test_union_trace_computes_each_distinct_part_once(monkeypatch):
    module = importlib.import_module("echcap.toric")
    search = module._toric_minima
    calls = []

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(module, "_toric_minima", counted)
    union = DisjointUnion([ToricNorm(EUCLIDEAN), ToricNorm(EUCLIDEAN)])
    report = volume_ratio_trace(union, 10, 3)
    assert len(calls) == 1
    assert [format_value(p.c_k) for p in report.trace] == \
        ["~5.414213562373", "~8.828427124746", "~11.414213562373", "~12.242640687119"]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_union_trace_folds_all_but_the_last_part_in_full(monkeypatch, n):
    # the last fold is read at the sampled k only: an n-part trace runs
    # n - 2 whole convolutions, a two-part trace none
    module = importlib.import_module("echcap.capacities")
    convolve = module.maxplus_convolve
    calls = []

    def counted(*args):
        calls.append(args)
        return convolve(*args)

    monkeypatch.setattr(module, "maxplus_convolve", counted)
    parts = [Ball(1), Ellipsoid(F(7, 3), F(5, 4)), Ball(F(1, 2)), Ball(1), Ball(3)][:n]
    volume_ratio_trace(DisjointUnion(parts), 500, 50)
    assert len(calls) == n - 2


def sqrt2_sequence(rng, kmax):
    """A nondecreasing sequence of a + b sqrt(2), each entry built along one
    of three paths: equal values with different error bounds print apart."""
    root2 = CapacityValue.sqrt_rational(2)
    a = b = 0
    out = [e(0)]
    for _ in range(kmax):
        if rng.random() < 0.6:
            a, b = a + rng.randint(0, 2), b + rng.randint(0, 1)
        path = rng.randrange(3) if b else 0
        tail = (e(0), CapacityValue.sqrt_rational(2 * b * b),
                root2.scaled(b))[path]
        if path == 0 and b:
            for _ in range(b):
                tail = tail + root2
        out.append(e(a) + tail)
    return out


def test_sampled_last_fold_is_the_convolution_entry_in_repr():
    # _maxplus_at walks the run starts of the operand with fewer runs and
    # must land on the pair maxplus_convolve keeps: the max, then the least
    # slot i + j, then the least i, each entry read at its run's start
    rng = random.Random(2012)
    for _ in range(60):
        kmax = rng.randint(0, 40)
        first, second = sqrt2_sequence(rng, kmax), sqrt2_sequence(rng, kmax)
        ks = sorted(rng.sample(range(kmax + 1), rng.randint(1, kmax + 1)))
        full = maxplus_convolve(first, second, kmax)
        for f, g, want in ((first, second, full),
                           (second, first, maxplus_convolve(second, first, kmax))):
            assert [repr(v) for v in _maxplus_at(f, g, kmax, ks)] == \
                [repr(want[k]) for k in ks]
    ints = [0, 1, 1, 4, 4, 4, 9]
    assert _maxplus_at(ints, ints, 6, [0, 3, 6]) == \
        [maxplus_convolve(ints, ints, 6)[k] for k in (0, 3, 6)]


def weight_expansion(a, b):
    """The weights of the ellipsoid E(a, b), a >= b, as in Euclid's algorithm:
    b repeated floor(a/b) times, then the weights of (b, a - floor(a/b) b)."""
    weights = []
    while b:
        q = a // b
        weights += [b] * q
        a, b = b, a - q * b
    return weights


def test_ellipsoid_equals_union_of_its_weight_balls():
    # McDuff (arXiv:1008.1885): c_k(E(a, b)) = c_k of the disjoint union of
    # the balls B(w_i) of its weight expansion: max-plus over up to 204 parts
    # here, against the ellipsoid's own lattice-point kernel
    rng = random.Random(1008)
    most = 0
    for _ in range(100):
        a, b = (F(rng.randint(1, 60), rng.randint(1, 20)) for _ in range(2))
        weights = weight_expansion(max(a, b), min(a, b))
        assert sum(w * w for w in weights) == a * b   # the volumes agree
        kmax = rng.randint(0, 120)
        union = DisjointUnion([Ball(w) for w in weights])
        assert capacities(Ellipsoid(a, b), kmax) == capacities(union, kmax), (a, b, kmax)
        most = max(most, len(weights))
    assert most > 100
