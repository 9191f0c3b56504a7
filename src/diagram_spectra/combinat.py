"""Exact combinatorial primitives.

Everything downstream indexes matrices by either k-subsets (the choices of
through positions in a diagram) or set partitions into a fixed number of
blocks (the one-row equivalence relations underlying half diagrams). Both
enumerations must be total orders that never change between runs, because
matrix rows are addressed by position. The orders used here:

* k_subsets(n, k): lexicographic on the sorted element tuple,
  e.g. {1,2} < {1,3} < {2,3}.
* set_partitions(n, b): lexicographic on the restricted-growth string,
  e.g. for n=3, b=2: 001 ({1,2}{3}) < 010 ({1,3}{2}) < 011 ({1}{2,3}).

set_partitions is the one set-partition enumerator. It steps from one
restricted-growth string to the next in place, with no recursion, so any
number of points works; the Gram certificate counts its coarsenings instead.

Both enumerators return plain int tuples: a k-subset as its sorted
elements, a set partition as its restricted-growth string. All counts are
Python ints, so nothing overflows.
"""

from __future__ import annotations

import itertools
import math


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range k gives 0."""
    if n < 0:
        raise ValueError(f"binomial: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def stirling2(n: int, b: int) -> int:
    """Number of set partitions of an n-set into exactly b nonempty blocks."""
    if n < 0 or b < 0:
        raise ValueError(f"stirling2: arguments must be nonnegative, got ({n}, {b})")
    if b > n:
        return 0
    # one block of two points, or none: the only partitions this close to n
    if b == n:
        return 1
    if b == n - 1:
        return n * (n - 1) // 2
    # near the diagonal the closed form's O((n-b)^2) table beats the
    # inclusion-exclusion sum up to about n - b = n/5 at n <= 100 and n/4 at
    # n = 3000; the cut at n/8 keeps it well inside that
    if 8 * (n - b) <= n:
        return _stirling2_near_diagonal(n, n - b)
    # inclusion-exclusion over the blocks left empty by a map onto b labels,
    # divided by the b! labellings; 0**0 == 1 covers S(0, 0) = 1
    total = sum((-1) ** j * math.comb(b, j) * (b - j) ** n for j in range(b + 1))
    return total // math.factorial(b)


def _stirling2_near_diagonal(n: int, j: int) -> int:
    """S(n, n - j), a polynomial in n of degree 2j: the sum over i of
    <<j, i>> C(n + j - 1 - i, 2j), with <<j, i>> the second-order Eulerian
    numbers (Graham, Knuth & Patashnik, Concrete Mathematics, eq. 6.43).
    The <<m, i>>, i < m, follow from <<m, i>> = (i + 1) <<m-1, i>> +
    (2m - 1 - i) <<m-1, i-1>>, starting at <<0, 0>> = 1."""
    row = [1]
    for m in range(1, j + 1):
        row = [
            (i + 1) * a + (2 * m - 1 - i) * b
            for i, (a, b) in enumerate(zip(row + [0], [0] + row))
        ][:m]
    return sum(e * math.comb(n + j - 1 - i, 2 * j) for i, e in enumerate(row))


def k_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-element subsets of {1..n} in lexicographic order, each as the
    strictly increasing tuple of its elements.

    This order is load-bearing: it fixes row and column indexing of every
    matrix built downstream.
    """
    if n < 0 or k < 0:
        raise ValueError(f"k_subsets: arguments must be nonnegative, got ({n}, {k})")
    if k > n:
        raise ValueError(f"k_subsets: k={k} exceeds n={n}")
    # itertools.combinations of an ascending range is already lexicographic
    return list(itertools.combinations(range(1, n + 1), k))


def set_partitions(n: int, b: int) -> list[tuple[int, ...]]:
    """All partitions of {1..n} into exactly b blocks, RGS-lexicographic.

    Each is its restricted-growth string: entry i is the block label of
    point i+1, labels start at 0 for point 1, and a new label is always one
    past the largest seen so far, which makes the string a canonical name
    for the partition.
    """
    if n < 1 or b < 1:
        raise ValueError(f"set_partitions: need n, b >= 1, got ({n}, {b})")
    if b > n:
        raise ValueError(f"set_partitions: b={b} exceeds n={n}")
    # the least string: zeros, then each new label as late as it can open
    labels = [0] * (n - b + 1) + list(range(1, b))
    # tops[i] is the largest label before position i
    tops = list(itertools.accumulate(labels, max, initial=-1))
    out = [tuple(labels)]
    while True:
        # the last position i whose label can grow by one: to at most one
        # past the labels before it and below b, leaving the b - 1 - top
        # labels still to open room in the n - 1 - i positions after it
        for i in range(n - 1, 0, -1):
            lab, top = labels[i] + 1, tops[i]
            if lab > top:
                if lab > top + 1:
                    continue
                top = lab
            if top < b and b - 1 - top <= n - 1 - i:
                break
        else:
            return out
        # then the least tail: zeros, then the labels still to open
        fresh = range(top + 1, b)
        zeros = n - 1 - i - len(fresh)
        labels[i:] = [lab] + [0] * zeros + list(fresh)
        tops[i + 1 :] = [top] * (zeros + 1) + list(fresh)
        out.append(tuple(labels))
