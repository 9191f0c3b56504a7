import itertools

import pytest

from diagram_spectra.combinat import binomial, k_subsets, set_partitions, stirling2
from diagram_spectra.gram_partition import HalfDiagram, enumerate_half_diagrams


def test_binomial_values():
    assert binomial(7, 4) == 35
    assert binomial(5, 3) == 10
    assert binomial(9, 0) == 1
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_pascal_recurrence():
    for n in range(1, 31):
        for k in range(0, n + 1):
            assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


def test_stirling2_values():
    assert stirling2(2, 1) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(0, 0) == 1
    assert stirling2(4, 0) == 0
    assert stirling2(3, 5) == 0
    # one block of two points, the rest singletons; far past the recursion limit
    assert stirling2(1200, 1199) == binomial(1200, 2)
    assert stirling2(1200, 1) == 1


def test_stirling2_recurrence():
    # S(n,b) = b*S(n-1,b) + S(n-1,b-1): point n is alone or joins a block
    for n in range(1, 40):
        for b in range(1, n + 2):
            assert stirling2(n, b) == b * stirling2(n - 1, b) + stirling2(n - 1, b - 1)


def test_stirling2_near_the_diagonal_equals_the_recurrence():
    # S(n, n - j) for j <= 12 from the recurrence alone, along the band next
    # to the diagonal, up to n = 3000: every entry with 8j <= n comes from
    # the second-order Eulerian closed form, the rest from inclusion-exclusion
    band = [1] + [0] * 12  # band[j] = S(n, n - j), n = 0
    for n in range(1, 3001):
        band = [1] + [(n - j) * band[j - 1] + band[j] for j in range(1, 13)]
        if n <= 200 or n % 250 == 0:
            assert [stirling2(n, n - j) if j <= n else 0 for j in range(13)] == band, n


def test_stirling2_equals_the_recurrence_table():
    # S(n, b) from the recurrence alone, row by row, against stirling2's
    # inclusion-exclusion sum and its closed forms at b = n and b = n - 1
    row = [1]  # n = 0
    for n in range(1, 61):
        row = [0] + [b * row[b] + row[b - 1] for b in range(1, n)] + [1]
        assert [stirling2(n, b) for b in range(n + 2)] == row + [0], n


def test_k_subsets_examples():
    assert k_subsets(2, 1) == [(1,), (2,)]
    assert k_subsets(4, 2) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]
    assert k_subsets(3, 3) == [(1, 2, 3)]


def test_k_subsets_rejects_k_above_n():
    with pytest.raises(ValueError):
        k_subsets(3, 4)


def test_k_subsets_counts_and_rank_roundtrip():
    for n in range(0, 13):
        for k in range(0, n + 1):
            subs = k_subsets(n, k)
            assert len(subs) == binomial(n, k)
            # emitted order is the rank: position i recovers the i-th subset
            index = {s: i for i, s in enumerate(subs)}
            for i, s in enumerate(subs):
                assert index[s] == i
            assert sorted(index.values()) == list(range(len(subs)))


def test_k_subsets_lexicographic():
    for n in range(1, 9):
        for k in range(1, n + 1):
            elems = k_subsets(n, k)
            assert elems == sorted(elems)


def test_set_partitions_examples():
    assert set_partitions(2, 2) == [(0, 1)]
    assert set_partitions(2, 1) == [(0, 0)]
    assert set_partitions(3, 2) == [(0, 0, 1), (0, 1, 0), (0, 1, 1)]


def test_set_partitions_counts_and_order():
    for n in range(1, 10):
        for b in range(1, n + 1):
            parts = set_partitions(n, b)
            assert len(parts) == stirling2(n, b)
            assert parts == sorted(parts)
            assert len(set(parts)) == len(parts)
            for p in parts:
                assert max(p) + 1 == b


def test_set_partitions_many_points():
    # one step per point, far past the interpreter's recursion limit
    assert set_partitions(1200, 1200) == [tuple(range(1200))]


def test_set_partitions_matches_brute_force():
    # every label string with label i at most i, in lexicographic order from
    # itertools.product, kept when it is a restricted-growth string with b
    # distinct labels
    for n in range(1, 8):
        strings = [
            labels
            for labels in itertools.product(*(range(i + 1) for i in range(n)))
            if all(lab <= max(labels[:i], default=-1) + 1 for i, lab in enumerate(labels))
        ]
        for b in range(1, n + 1):
            want = [labels for labels in strings if len(set(labels)) == b]
            assert set_partitions(n, b) == want, (n, b)


def test_set_partitions_rejections():
    with pytest.raises(ValueError):
        set_partitions(2, 3)
    with pytest.raises(ValueError):
        set_partitions(2, 0)


def test_half_diagrams_are_the_enumerated_tuples_and_the_constructor_validates():
    # enumerate_half_diagrams pairs each set_partitions string with each
    # k_subsets choice of through blocks, r-major, as plain int tuples
    for k in range(1, 6):
        for s in range(k + 1):
            want = [
                (p, t)
                for b in range(max(s, 1), k + 1)
                for p in set_partitions(k, b)
                for t in k_subsets(b, s)
            ]
            got = [(d.partition, d.through_blocks) for d in enumerate_half_diagrams(k, s)]
            assert got == want, (k, s)
            assert all(type(lab) is int for p, t in got for lab in p + t)
    # the public constructor validates: the partition is a restricted-growth
    # string, the through blocks strictly increase from 1 and stay within
    # the block count
    for partition, through, match in [
        ((0, 2, 1), (), "restricted-growth"),
        ((1, 0), (), "restricted-growth"),
        ((0, 2), (), "restricted-growth"),
        ((0, -1), (), "restricted-growth"),
        ((0, 1, 2), (3, 2), "strictly increasing"),
        ((0, 1), (2, 1), "strictly increasing"),
        ((0, 1), (0, 1), "strictly increasing"),
        ((0, 1), (1, 1), "strictly increasing"),
        ((0, 1), (3,), "exceeds 2 blocks"),
    ]:
        with pytest.raises(ValueError, match=match):
            HalfDiagram(partition, through)
