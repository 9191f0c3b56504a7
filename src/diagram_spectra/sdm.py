"""Symmetric diagram matrices.

A diagram with s through classes and r horizontal edges is determined, up to
the data that matters here, by which s of its s+r components are through
classes. The symmetric diagram matrix A^{s+r,s} is the C(s+r,s)-square
matrix indexed by those choices whose (i,j) entry is the symbol

    x_{min(s,r) - f},   f = s - |through_i cap through_j|,

f being the number of positions that are through in one index diagram but
horizontal in the other. f never exceeds min(s,r): it is at most s by
definition, and at most r because two s-subsets of an (s+r)-set overlap in
at least s-r elements.

Entries are stored as integer levels: level v stands for the symbol x_v, so
the (i,j) level is min(s,r) - s + |through_i cap through_j|. `substitute`
turns a level matrix into a concrete matrix over whatever ring the caller
supplies values from (integers for the verification oracle, polynomials for
Gram-block work).

Row i is therefore a sum of s indicator vectors, one per element e of
through_i, each marking the columns whose through set holds e, less the
constant s - min(s,r). `build` packs each element's indicator into one int
with a byte per column, so a row costs s big-int additions and one
subtraction, and its bytes are the row's levels. Every level lies in
[0, min(s,r)], and min(s,r) <= 255 at any side that fits in memory, so each
byte of the result is exact even where a partial sum carried.

Each row is kept as those bytes, one byte per cell: indexing a row or
iterating over it gives ints, and a row is immutable and hashable like a
tuple, at an eighth of the memory of a tuple's pointers.

Rows and columns follow k_subsets(s+r, s), i.e. lexicographic order of the
through-position sets. Any fixed order would do mathematically; this one is
documented so that emitted matrices are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence, TypeVar

from .combinat import binomial, k_subsets
from .errors import SizeCapExceeded

# a side of 4000 is 16 M cells; memory grows as the side squared, one byte
# per cell here, but `substitute` and the CLI's JSON rows take an 8-byte
# pointer per cell, so the cap stays where those fit (build(7, 7), side 3432,
# peaks at about 27 MB of which 16 MB is the interpreter), and the largest
# side built in practice is 3003
DEFAULT_MAX_SIZE = 4000

T = TypeVar("T")


@dataclass(frozen=True)
class EntryMatrix:
    """Level matrix of A^{s+r,s}; levels[i][j] = v means entry x_v, and each
    row is bytes, one byte per cell."""

    s: int
    r: int
    n: int
    levels: tuple[bytes, ...]

    @property
    def min_level(self) -> int:
        return min(self.s, self.r)

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "r": self.r,
            "n": self.n,
            "levels": [list(row) for row in self.levels],
        }

    def level_names(self) -> list[str]:
        """The symbol of each level, names[v] = "xv"."""
        return [f"x{v}" for v in range(self.min_level + 1)]

    def to_csv(self) -> str:
        name = self.level_names().__getitem__
        lines = [",".join(map(name, row)) for row in self.levels]
        return "\n".join(lines) + "\n"


def build(s: int, r: int, max_size: int = DEFAULT_MAX_SIZE) -> EntryMatrix:
    """Construct A^{s+r,s} as a level matrix."""
    if s < 0 or r < 0:
        raise ValueError(f"need s, r >= 0, got ({s}, {r})")
    if s + r < 1:
        raise ValueError("need s + r >= 1")
    n = binomial(s + r, s)
    if n > max_size:
        raise SizeCapExceeded(f"A^{{{s + r},{s}}}", n, max_size)
    through = k_subsets(s + r, s)
    # byte j of packed[e - 1] is 1 when column j's through set holds e
    columns = [bytearray(n) for _ in range(s + r)]
    for j, t in enumerate(through):
        for e in t.elements:
            columns[e - 1][j] = 1
    packed = [int.from_bytes(col, "little") for col in columns]
    # byte j of a row's sum is |through_i cap through_j|, and of the row
    # less the bias its level; a partial sum past 255 carries, but the ints
    # are exact and the final bytes are levels, so nothing is lost
    bias = (s - min(s, r)) * int.from_bytes(b"\x01" * n, "little")
    rows = tuple(
        (sum([packed[e - 1] for e in t.elements]) - bias).to_bytes(n, "little")
        for t in through
    )
    return EntryMatrix(s=s, r=r, n=n, levels=rows)


def substitute(m: EntryMatrix, values: Sequence[T]) -> list[list[T]]:
    """Replace each level v by values[v]; values must cover 0..min(s,r)."""
    if len(values) != m.min_level + 1:
        raise ValueError(
            f"expected {m.min_level + 1} values (levels 0..{m.min_level}), got {len(values)}"
        )
    if m.n == 1:
        # itemgetter of one index returns the item, not a tuple
        return [[values[m.levels[0][0]]]]
    return [list(itemgetter(*row)(values)) for row in m.levels]
