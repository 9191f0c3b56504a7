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
with a byte per column, so a row costs s big-int additions, started from
the negated constant, and its bytes are the row's levels. The sums and
their conversions run as maps over the through sets, with no per-element
index arithmetic and no Python frame per row. Every level lies in
[0, min(s,r)], and min(s,r) <= 255 at any side that fits in memory, so each
byte of the result is exact even where a partial sum carried.

Each row is kept as those bytes, one byte per cell: indexing a row or
iterating over it gives ints, and a row is immutable and hashable like a
tuple, at an eighth of the memory of a tuple's pointers.

Rows and columns follow k_subsets(s+r, s), i.e. lexicographic order of the
through-position sets. Any fixed order would do mathematically; this one is
documented so that emitted matrices are reproducible byte for byte.

In that order the columns whose through sets meet the prefix {1..d} in the
same set P form one contiguous span of C(s+r-d, s-|P|) columns, and the rows
split the same way. The block of rows with prefix set R and columns with
prefix set P is, up to the shift |R cap P| of its levels, the overlap matrix
of the (s-|R|)- and (s-|P|)-subsets of the other s+r-d points, so it depends
only on (|R|, |P|, |R cap P|): the paper's induction on this block structure.
`substitute` therefore looks up each such block once and builds every row
from copies of its segments, at the prefix depth d whose span count is
nearest sqrt(n), so that a row is about sqrt(n) segments of about sqrt(n)
cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from operator import itemgetter
from typing import Sequence, TypeVar

from .combinat import binomial, k_subsets
from .errors import SizeCapExceeded

# a side of 4000 is 16 M cells; memory grows as the side squared, one byte
# per cell here and `substitute` 8 bytes per cell plus its memo's distinct
# segments (about 0.2 byte per cell at side 3003); build(7, 7), side 3432,
# peaks at about 27 MB of which 16 MB is the interpreter. csv and
# pretty-table read the bytes rows, but --out json runs json's pure-Python
# encoder (indent=2) over lists of ints: the CLI process peaks at about 88
# bytes per cell, 1.03 GB for `sdm build --s 7 --r 7 --out json` (106 MB of
# output; the child's own peak RSS, one subprocess on a 2-core host) against
# 129 MB under csv, so about 1.4 GB at the cap at that rate. The largest
# side built in practice is 3003; the same cap bounds the s + r points,
# checked before the side
DEFAULT_MAX_SIZE = 4000

# below this side the block memo gains little or nothing: timed against the
# direct lookups at d = 1..7 on a 2-core host, it took at best 1.01 of their
# time at (5, 5), side 252, and 0.96 at (3, 10), side 286
_MEMO_MIN_SIDE = 300

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
    """Construct A^{s+r,s} as a level matrix. The s + r points are capped
    by max_size before the side C(s+r, s) is computed: the side is 1 at
    s = 0 or r = 0, but the through sets and columns still take s + r
    points, and C(s+r, s) itself is slow to compute at s, r near 10**6.
    When min(s, r) >= 1 the side is at least s + r, so there the side cap
    refuses whatever the points cap would."""
    if s < 0 or r < 0:
        raise ValueError(f"need s, r >= 0, got ({s}, {r})")
    if s + r < 1:
        raise ValueError("need s + r >= 1")
    if s + r > max_size:
        raise SizeCapExceeded(f"points of A^{{{s + r},{s}}}", s + r, max_size)
    n = binomial(s + r, s)
    if n > max_size:
        raise SizeCapExceeded(f"A^{{{s + r},{s}}}", n, max_size)
    through = k_subsets(s + r, s)
    # byte j of packed[e] is 1 when column j's through set holds e; the
    # points are 1..s+r, so packed[0] stays 0 and a through set indexes
    # packed as it is
    columns = [bytearray(n) for _ in range(s + r + 1)]
    for j, t in enumerate(through):
        for e in t:
            columns[e][j] = 1
    packed = [int.from_bytes(col, "little") for col in columns]
    # byte j of a row's sum is |through_i cap through_j|, and of the row
    # less the bias its level; a partial sum past 255 carries, but the ints
    # are exact and the final bytes are levels, so nothing is lost. Row i is
    # sum(map(packed.__getitem__, through_i), -bias) as n bytes, each step a
    # map over the rows, so no Python frame runs per row
    bias = (s - min(s, r)) * int.from_bytes(b"\x01" * n, "little")
    sums = map(sum, map(map, repeat(packed.__getitem__), through), repeat(-bias))
    rows = tuple(map(int.to_bytes, sums, repeat(n), repeat("little")))
    return EntryMatrix(s=s, r=r, n=n, levels=rows)


def substitute(m: EntryMatrix, values: Sequence[T]) -> list[list[T]]:
    """Replace each level v by values[v]; values must cover 0..min(s,r).

    Each row is a fresh list and each cell the object values[v]. Where
    _memo_depth picks a prefix depth d, each distinct block of the depth-d
    spans is looked up once per call, in a table that lives for the call
    only, and every row is filled with copies of its blocks' segments; else
    each cell is looked up directly."""
    if len(values) != m.min_level + 1:
        raise ValueError(
            f"expected {m.min_level + 1} values (levels 0..{m.min_level}), got {len(values)}"
        )
    d, spans = _memo_depth(m.s, m.r)
    if d:
        slices = [slice(c0, c1) for c0, c1, _ in spans]
        rows = []
        for parts in _block_table(m.levels, values, spans):
            for segments in zip(*parts):
                # allocated at full length and filled by slice, a row holds
                # no spare capacity
                row = [None] * m.n
                for cols, segment in zip(slices, segments):
                    row[cols] = segment
                rows.append(row)
        return rows
    return [_lookup(row, values) for row in m.levels]


def _lookup(cells: bytes, values: Sequence[T]) -> list[T]:
    """[values[v] for v in cells], by one itemgetter where cells has more
    than one level; itemgetter of one index returns the item, not a tuple."""
    if len(cells) == 1:
        return [values[cells[0]]]
    return list(itemgetter(*cells)(values))


def _memo_depth(s: int, r: int) -> tuple[int, list[tuple[int, int, int]]]:
    """The prefix depth whose span count is nearest sqrt(n) by ratio, and its
    spans, or (0, []) for the direct path. That path is kept below
    _MEMO_MIN_SIDE and where min(s, r) <= 2: there, at any depth the
    segments allow, the block of the rows and columns that avoid the whole
    prefix (or hold it, when r <= 2) keeps most of the n^2 cells, and a block
    is looked up cell by cell before its rows are copied. At (2, 60) that
    one block holds 53 % of the cells."""
    n = binomial(s + r, s)
    if n < _MEMO_MIN_SIDE or min(s, r) <= 2:
        return 0, []
    # depth 0 is one span of n columns, and at d = s + r - 1 every span is
    # one column, so the loop ends there at the latest
    d, last, spans = 0, [], [(0, n, 0)]
    while len(spans) ** 2 < n:
        d, last, spans = d + 1, spans, _spans(s, r, d + 1)
    return (d - 1, last) if len(last) * len(spans) > n else (d, spans)


def _spans(s: int, r: int, d: int) -> list[tuple[int, int, int]]:
    """(start, stop, mask) of each nonempty span at prefix depth d, in column
    order; bit d-e of mask is set when the span's through sets hold e, so
    lexicographic order of the through sets is descending order of mask."""
    m = s + r - d
    masks = sorted(
        (
            sum(1 << b for b in bits)
            for a in range(max(0, s - m), min(d, s) + 1)
            for bits in combinations(range(d), a)
        ),
        reverse=True,
    )
    spans, start = [], 0
    for mask in masks:
        stop = start + binomial(m, s - mask.bit_count())
        spans.append((start, stop, mask))
        start = stop
    return spans


def _block_table(
    levels: Sequence[bytes],
    values: Sequence[T],
    spans: list[tuple[int, int, int]],
) -> list[list[list[list[T]]]]:
    """For each row span, its blocks in column order, each block a list of
    row segments; a block is looked up once, when its key (|R|, |P|,
    |R cap P|) is first met."""
    blocks: dict[tuple[int, int, int], list[list[T]]] = {}
    table = []
    for r0, r1, rmask in spans:
        a = rmask.bit_count()
        parts = []
        for c0, c1, cmask in spans:
            key = (a, cmask.bit_count(), (rmask & cmask).bit_count())
            block = blocks.get(key)
            if block is None:
                block = [_lookup(row[c0:c1], values) for row in levels[r0:r1]]
                blocks[key] = block
            parts.append(block)
        table.append(parts)
    return table
