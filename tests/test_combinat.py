import itertools

import pytest

from diagram_spectra.combinat import (
    SetPartition,
    Subset,
    binomial,
    k_subsets,
    set_partitions,
    stirling2,
)


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


def test_stirling2_equals_the_recurrence_table():
    # S(n, b) from the recurrence alone, row by row, against stirling2's
    # inclusion-exclusion sum and its closed forms at b = n and b = n - 1
    row = [1]  # n = 0
    for n in range(1, 61):
        row = [0] + [b * row[b] + row[b - 1] for b in range(1, n)] + [1]
        assert [stirling2(n, b) for b in range(n + 2)] == row + [0], n


def test_k_subsets_examples():
    assert [s.elements for s in k_subsets(2, 1)] == [(1,), (2,)]
    assert [s.elements for s in k_subsets(4, 2)] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]
    assert [s.elements for s in k_subsets(3, 3)] == [(1, 2, 3)]


def test_k_subsets_rejects_k_above_n():
    with pytest.raises(ValueError):
        k_subsets(3, 4)


def test_k_subsets_counts_and_rank_roundtrip():
    for n in range(0, 13):
        for k in range(0, n + 1):
            subs = k_subsets(n, k)
            assert len(subs) == binomial(n, k)
            # emitted order is the rank: position i recovers the i-th subset
            index = {s.elements: i for i, s in enumerate(subs)}
            for i, s in enumerate(subs):
                assert index[s.elements] == i
            assert sorted(index.values()) == list(range(len(subs)))


def test_k_subsets_lexicographic():
    for n in range(1, 9):
        for k in range(1, n + 1):
            elems = [s.elements for s in k_subsets(n, k)]
            assert elems == sorted(elems)


def test_subset_validation():
    with pytest.raises(ValueError):
        Subset((2, 1))
    with pytest.raises(ValueError):
        Subset((0, 1))
    with pytest.raises(ValueError):
        Subset((1, 1))


def test_set_partitions_examples():
    assert [str(p) for p in set_partitions(2, 2)] == ["01"]
    assert [str(p) for p in set_partitions(2, 1)] == ["00"]
    assert [str(p) for p in set_partitions(3, 2)] == ["001", "010", "011"]
    # blocks of 001 are {1,2} and {3}
    assert set_partitions(3, 2)[0].blocks() == [(1, 2), (3,)]


def test_set_partitions_counts_and_order():
    for n in range(1, 10):
        for b in range(1, n + 1):
            parts = set_partitions(n, b)
            assert len(parts) == stirling2(n, b)
            strings = [p.block_assignment for p in parts]
            assert strings == sorted(strings)
            assert len(set(strings)) == len(strings)
            for p in parts:
                assert p.block_count == b


def test_set_partitions_many_points():
    # one step per point, far past the interpreter's recursion limit
    assert [p.block_assignment for p in set_partitions(1200, 1200)] == [tuple(range(1200))]


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
            assert [p.block_assignment for p in set_partitions(n, b)] == want, (n, b)


def test_set_partitions_rejections():
    with pytest.raises(ValueError):
        set_partitions(2, 3)
    with pytest.raises(ValueError):
        set_partitions(2, 0)


def test_set_partition_rgs_validation():
    with pytest.raises(ValueError):
        SetPartition((1, 0))
    with pytest.raises(ValueError):
        SetPartition((0, 2))
