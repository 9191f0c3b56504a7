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

All counts are Python ints, so nothing overflows. The enumerators build
their Subset and SetPartition values through `unchecked`, since each is valid
by construction; the public constructors still validate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass


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


def unchecked(cls, *values):
    """cls(*values) for a frozen dataclass, skipping its __post_init__
    check: for enumerators whose output is valid by construction."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Subset:
    """A sorted subset of {1..n}, used to index matrix rows."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 1 for e in self.elements):
            raise ValueError(f"Subset elements must be positive: {self.elements}")
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            raise ValueError(f"Subset must be strictly increasing: {self.elements}")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e: int) -> bool:
        return e in self.elements


def k_subsets(n: int, k: int) -> list[Subset]:
    """All k-element subsets of {1..n} in lexicographic order.

    This order is load-bearing: it fixes row and column indexing of every
    matrix built downstream.
    """
    if n < 0 or k < 0:
        raise ValueError(f"k_subsets: arguments must be nonnegative, got ({n}, {k})")
    if k > n:
        raise ValueError(f"k_subsets: k={k} exceeds n={n}")
    # itertools.combinations of an ascending range is already lexicographic
    return [unchecked(Subset, c) for c in itertools.combinations(range(1, n + 1), k)]


@dataclass(frozen=True)
class SetPartition:
    """Set partition of {1..n} in restricted-growth form.

    block_assignment[i] is the block label of point i+1. Labels start at 0
    for point 1 and a new label is always exactly one more than the maximum
    seen so far, which makes the string a canonical name for the partition.
    """

    block_assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        mx = -1
        for lab in self.block_assignment:
            if lab < 0 or lab > mx + 1:
                raise ValueError(
                    f"not a restricted-growth string: {self.block_assignment}"
                )
            mx = max(mx, lab)

    @property
    def n(self) -> int:
        return len(self.block_assignment)

    @property
    def block_count(self) -> int:
        return max(self.block_assignment) + 1 if self.block_assignment else 0

    def blocks(self) -> list[tuple[int, ...]]:
        """Blocks as sorted point tuples, ordered by block label (= order of
        first appearance)."""
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for pt, lab in enumerate(self.block_assignment, start=1):
            out[lab].append(pt)
        return [tuple(b) for b in out]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.block_assignment)


def set_partitions(n: int, b: int) -> list[SetPartition]:
    """All partitions of {1..n} into exactly b blocks, RGS-lexicographic."""
    if n < 1 or b < 1:
        raise ValueError(f"set_partitions: need n, b >= 1, got ({n}, {b})")
    if b > n:
        raise ValueError(f"set_partitions: b={b} exceeds n={n}")
    # the least string: zeros, then each new label as late as it can open
    labels = [0] * (n - b + 1) + list(range(1, b))
    # tops[i] is the largest label before position i
    tops = list(itertools.accumulate(labels, max, initial=-1))
    out = [unchecked(SetPartition, tuple(labels))]
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
        out.append(unchecked(SetPartition, tuple(labels)))
