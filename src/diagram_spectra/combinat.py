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

restricted_growth is the one set-partition enumerator, behind set_partitions
and the coarsenings of oracle's Gram certificate. It keeps its place in a
list, not on the call stack, so any number of points works.

All counts are Python ints, so nothing overflows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence


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
    # inclusion-exclusion over the blocks left empty by a map onto b labels,
    # divided by the b! labellings; 0**0 == 1 covers S(0, 0) = 1
    total = sum((-1) ** j * math.comb(b, j) * (b - j) ** n for j in range(b + 1))
    return total // math.factorial(b)


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
    return [Subset(c) for c in itertools.combinations(range(1, n + 1), k)]


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


def restricted_growth(
    flags: Sequence[int], blocks: int | None = None
) -> Iterator[tuple[list[int], list[int]]]:
    """Set partitions of range(len(flags)) that never put two elements whose
    flags share a bit in one block, with exactly `blocks` blocks when it is
    given, in lexicographic order of the restricted-growth string.

    Each item is the list of block labels and the list of each block's
    union of flags; both are updated in place between items.
    """
    n = len(flags)
    labels = [0] * n
    unions: list[int] = []
    openers: list[int] = []  # the element that opened each block
    i, lab = 0, 0  # the next label to try for element i
    while i >= 0:
        m = len(unions)
        if i == n:
            if blocks is None or m == blocks:
                yield labels, unions
            lab = m + 1
        else:
            f = flags[i]
            # the n - 1 - i elements after i open at most one block each
            if blocks is not None and blocks - m > n - 1 - i:
                lab = max(lab, m)
            while lab < m and unions[lab] & f:
                lab += 1
        if lab < m:
            unions[lab] |= f
        elif lab == m and m != blocks:
            unions.append(f)
            openers.append(i)
        else:
            # no label left for element i: take back element i - 1's
            i -= 1
            if i >= 0:
                lab = labels[i]
                if openers[-1] == i:
                    unions.pop()
                    openers.pop()
                else:
                    unions[lab] ^= flags[i]
                lab += 1
            continue
        labels[i] = lab
        i, lab = i + 1, 0


def set_partitions(n: int, b: int) -> list[SetPartition]:
    """All partitions of {1..n} into exactly b blocks, RGS-lexicographic."""
    if n < 1 or b < 1:
        raise ValueError(f"set_partitions: need n, b >= 1, got ({n}, {b})")
    if b > n:
        raise ValueError(f"set_partitions: b={b} exceeds n={n}")
    return [SetPartition(tuple(labels)) for labels, _ in restricted_growth([0] * n, b)]
