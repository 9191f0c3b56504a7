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


def test_enumerators_skip_the_check_but_public_constructors_keep_it():
    # enumerated values equal validated ones, field for field and by hash
    for n in range(1, 8):
        for b in range(1, n + 1):
            for p in set_partitions(n, b):
                assert p == SetPartition(p.block_assignment)
                assert hash(p) == hash(SetPartition(p.block_assignment))
        for k in range(n + 1):
            for t in k_subsets(n, k):
                assert t == Subset(t.elements)
    for k in range(1, 5):
        for s in range(k + 1):
            for d in enumerate_half_diagrams(k, s):
                valid = HalfDiagram(
                    SetPartition(d.partition.block_assignment), Subset(d.through_blocks.elements)
                )
                assert d == valid and hash(d) == hash(valid)
    # the public constructors still validate
    with pytest.raises(ValueError, match="restricted-growth"):
        SetPartition((0, 2, 1))
    with pytest.raises(ValueError, match="strictly increasing"):
        Subset((3, 2))
    with pytest.raises(ValueError, match="exceeds 2 blocks"):
        HalfDiagram(SetPartition((0, 1)), Subset((3,)))
