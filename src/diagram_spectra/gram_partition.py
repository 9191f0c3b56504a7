"""Gram matrix of the partition-algebra half-diagram basis, and its reduced
block spectra.

A half diagram on k points is a set partition of {1..k} into s+r blocks
together with a choice of s of those blocks as through classes; the other r
blocks are horizontal edges. The Gram matrix G_s is indexed by all such half
diagrams (there are f_s = sum_r stirling2(k,s+r)*C(s+r,s) of them) and its
(i,j) entry records the diagram product U_i * U_j. Let the join of the two
partitions (their finest common coarsening) have c blocks. If the s through
classes of each side land on s distinct join blocks, the same s for both
sides, the entry is x^(c-s): every other join block collapses to a loop worth
a factor of x. Otherwise the propagating number of the product has dropped
and the entry is 0. The entry depends on the two partitions only through
their join, so join_masks forms one join per pair of partitions and turns
each row's through choice into the set of join blocks it lands on; build_gram,
its one consumer, reads G_s off it. For each pair of partitions, build_gram
files q's rows by mask, keeping the masks of s bits, and each of p's rows
looks its own mask up: the hits are exactly the nonzero cells, so no pair of
rows is compared.

Paired row and column operations reduce G_s to a block-diagonal matrix with
stirling2(k,s+r) identical blocks for each r, and each block is a symmetric
diagram matrix A^{s+r,s} whose symbol x_{min(s,r)-t} has been substituted by
the polynomial

    X_{min(s,r)-t} = (-1)^t * t! * prod_{m=t}^{r-1} (x - (s+m)).

Feeding those substitutions through the closed-form spectrum of A^{s+r,s}
gives the block eigenpolynomials E_{r,l}. The reduction is a congruence,
G_s = Z^T D Z, not a similarity (already on k=2, s=1 the traces disagree), so
the E_{r,l} are eigenvalues of D only. Z[(t,T),(p,P)] is 1 when the partition
t is p or coarser and the through blocks P land on s distinct blocks of t,
exactly T, and 0 otherwise; D is block-diagonal over the partitions t, its
t-block being A^{|t|,s} with entry (T,T') = X substituted at overlap |T cap T'|.
Z is upper unitriangular in the row order of enumerate_half_diagrams: the
only coarsening of p with as many blocks as p is p itself, which gives the
diagonal, and every other one has fewer blocks, so its rows come first.
Hence det Z = 1 and

    det G_s = det D = prod_{r,l} E_{r,l}^{stirling2(k,s+r)*m_l(s,r)},

with sign +1, proved rather than measured: oracle.verify_gram_det checks the
congruence one join type at a time, since a cell of either side depends only
on the size of the join and the overlap of the two through choices, and
never builds G_s or A^{s+r,s}. For s = 0 this is Lindstrom's determinant of
the join matrix of the partition lattice, prod_m (x)_m^{stirling2(k,m)}.

product_form is the factored shape of E_{r,l}, and block_spectrum reports
each E_{r,l} from it; only the certificate forms the Eberlein sum:

    E_{r,l} = prod_{i=0}^{l-1} (x - (s-1+i)) * prod_{j=0}^{r-l-1} (x - (2s+j)).

The upper bound r-l-1 on the second product is forced by degree (every
E_{r,l} has degree exactly r); a bound of min(s,r)-l-1 agrees with it when
r <= s but is degree-deficient when r > s, and the identity test in the
suite exercises exactly that corner.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .combinat import (
    SetPartition,
    Subset,
    binomial,
    k_subsets,
    set_partitions,
    stirling2,
    unchecked,
)
from .errors import SizeCapExceeded
from .poly import X, ZERO, Polynomial, factor_product
from .spectrum import multiplicities

DEFAULT_MAX_SIZE = 3000


@dataclass(frozen=True)
class HalfDiagram:
    partition: SetPartition
    through_blocks: Subset

    def __post_init__(self) -> None:
        nb = self.partition.block_count
        if self.through_blocks.elements and self.through_blocks.elements[-1] > nb:
            raise ValueError(
                f"through block index {self.through_blocks.elements[-1]} exceeds {nb} blocks"
            )

    @property
    def s(self) -> int:
        return len(self.through_blocks)

    @property
    def r(self) -> int:
        return self.partition.block_count - self.s

    def __str__(self) -> str:
        blocks = self.partition.blocks()
        parts = []
        for idx, blk in enumerate(blocks, start=1):
            body = ",".join(str(p) for p in blk)
            mark = "*" if idx in self.through_blocks else ""
            parts.append("{" + body + "}" + mark)
        return "".join(parts)


def _check_shape(k: int, s: int) -> None:
    if k < 1 or not (0 <= s <= k):
        raise ValueError(f"need k >= 1 and 0 <= s <= k, got k={k}, s={s}")


def enumerate_half_diagrams(k: int, s: int) -> list[HalfDiagram]:
    """All half diagrams on k points with s through classes.

    Grouped by ascending r; within a group, partition order is RGS-lex and
    through choices follow k_subsets order. This is the row order of G_s.
    """
    _check_shape(k, s)
    out: list[HalfDiagram] = []
    for r in range(0, k - s + 1):
        nb = s + r
        if nb == 0:
            continue
        choices = k_subsets(nb, s)
        for part in set_partitions(k, nb):
            for thr in choices:
                out.append(unchecked(HalfDiagram, part, thr))
    return out


@dataclass(frozen=True)
class GramMatrix:
    k: int
    s: int
    diagrams: tuple[HalfDiagram, ...]
    entries: tuple[tuple[Polynomial, ...], ...]

    @property
    def n(self) -> int:
        return len(self.diagrams)


def gram_side(k: int, s: int, max_size: float = DEFAULT_MAX_SIZE) -> int:
    """Side of G_s on k points, sum_r stirling2(k,s+r) * C(s+r,s), computed
    without enumerating; raises SizeCapExceeded past max_size (math.inf
    for none)."""
    _check_shape(k, s)
    n = sum(stirling2(k, s + r) * binomial(s + r, s) for r in range(0, k - s + 1))
    if n > max_size:
        raise SizeCapExceeded(f"G_{s} on {k} points", n, max_size)
    return n


def join_masks(
    diagrams: Sequence[HalfDiagram],
) -> Iterator[tuple[int, list[tuple[int, int]], list[tuple[int, int]]]]:
    """One item per pair of runs of rows, a run being a maximal stretch of
    rows that share a partition, with p's run at or before q's: the number c
    of blocks of the join p v q, and (row, mask) for each row of p and each
    row of q. A mask has one bit per join block that the row's through
    blocks land on, so it has s bits only when they land on s distinct ones.
    Every cell (i, j) is in some item as (i, j) or (j, i), in any row order.
    """
    # per run: the labels, the block count, and each row's through blocks as
    # 0-based block indices
    runs = [
        (
            p.block_assignment,
            p.block_count,
            [(i, [t - 1 for t in d.through_blocks.elements]) for i, d in run],
        )
        for p, run in itertools.groupby(enumerate(diagrams), key=lambda e: e[1].partition)
    ]
    for a, (labels_p, bp, thr_p) in enumerate(runs):
        for labels_q, bq, thr_q in runs[a:]:
            # the join as a union-find over the blocks of p and then of q;
            # each point ties its block in p to its block in q
            parent = list(range(bp + bq))
            c = len(parent)
            for x, y in zip(labels_p, labels_q):
                y += bp
                while parent[x] != x:
                    x = parent[x]
                while parent[y] != y:
                    y = parent[y]
                if x != y:
                    parent[y] = x
                    c -= 1
            # bits[b] is the join block of block b, as a one-bit mask
            bits = []
            for x in parent:
                while parent[x] != x:
                    x = parent[x]
                bits.append(1 << x)
            bits_q = bits[bp:]
            masks_p = [(i, sum(map(bits.__getitem__, thr))) for i, thr in thr_p]
            masks_q = [(j, sum(map(bits_q.__getitem__, thr))) for j, thr in thr_q]
            yield c, masks_p, masks_q


def build_gram(k: int, s: int, max_size: int = DEFAULT_MAX_SIZE) -> GramMatrix:
    """G_s on k points, in the row order of enumerate_half_diagrams. The cap
    is checked on the side before anything is enumerated."""
    n = gram_side(k, s, max_size)
    diagrams = enumerate_half_diagrams(k, s)
    # a join has at most k blocks, so an entry is x^m with m <= k - s
    powers = [X.pow(m) for m in range(k - s + 1)]
    rows = [[ZERO] * n for _ in range(n)]
    for c, masks_p, masks_q in join_masks(diagrams):
        # the q rows by mask, kept only when the mask has s bits; each p row
        # then finds its nonzero cells in one lookup
        by_mask: dict[int, list[int]] = {}
        for j, mask in masks_q:
            if mask.bit_count() == s:
                by_mask.setdefault(mask, []).append(j)
        if not by_mask:
            continue
        power = powers[c - s]
        for i, mask in masks_p:
            for j in by_mask.get(mask, ()):
                rows[i][j] = rows[j][i] = power
    return GramMatrix(
        k=k, s=s, diagrams=tuple(diagrams), entries=tuple(tuple(row) for row in rows)
    )


def x_substitution_poly(s: int, r: int, t: int) -> Polynomial:
    """X_{min(s,r)-t} = (-1)^t * t! * prod_{m=t}^{r-1} (x - (s+m))."""
    if not (0 <= t <= min(s, r)):
        raise ValueError(f"t={t} out of range 0..{min(s, r)}")
    prod = factor_product(Polynomial.x_minus(s + m) for m in range(t, r))
    return prod.scale((-1) ** t * math.factorial(t))


@dataclass(frozen=True)
class BlockSpectrum:
    r: int
    eigenpolys: tuple[tuple[int, Polynomial, int], ...]  # (l, E_{r,l}, multiplicity)


def block_spectrum(k: int, s: int, r: int) -> BlockSpectrum:
    """Eigenpolynomials of the r-block of the reduced G_s, with their total
    multiplicities (copies times family multiplicity)."""
    if not (0 <= r <= k - s):
        raise ValueError(f"r={r} out of range 0..{k - s}")
    copies = stirling2(k, s + r)
    eigen = [(l, product_form(s, r, l), copies * m) for l, m in enumerate(multiplicities(s, r))]
    return BlockSpectrum(r=r, eigenpolys=tuple(eigen))


def block_spectra(k: int, s: int) -> list[BlockSpectrum]:
    """block_spectrum(k, s, r) for r = 0..k-s."""
    _check_shape(k, s)
    return [block_spectrum(k, s, r) for r in range(0, k - s + 1)]


def product_form_roots(s: int, r: int, l: int) -> list[int]:
    """The roots of the linear factors of product_form(s, r, l), with
    repeats."""
    return [s - 1 + i for i in range(l)] + [2 * s + j for j in range(r - l)]


def product_form(s: int, r: int, l: int) -> Polynomial:
    """Factored form of the block eigenpolynomial E_{r,l} (degree r)."""
    if not (0 <= l <= min(s, r)):
        raise ValueError(f"l={l} out of range 0..{min(s, r)}")
    return factor_product(Polynomial.x_minus(a) for a in product_form_roots(s, r, l))


def semisimple_exceptions(k: int, s: int) -> set[int]:
    """Integer x at which det G_s vanishes: the roots of the linear factors
    of every E_{r,l} == product_form(s, r, l), as oracle.verify_gram_det
    certifies. Each occurs in the det: its multiplicity stirling2(k,s+r) *
    (C(s+r,l) - C(s+r,l-1)) is positive for l <= min(s,r) and s+r >= 1."""
    _check_shape(k, s)
    roots: set[int] = set()
    for r in range(k - s + 1):
        for l in range(min(s, r) + 1):
            roots.update(product_form_roots(s, r, l))
    return roots


def to_json_dict(
    k: int,
    s: int,
    include_matrix: bool = False,
    det_sign: int | None = None,
    singular_x: set[int] | None = None,
    *,
    gram: GramMatrix | None = None,
) -> dict:
    """The JSON form of `gram partition`. gram, when given, is
    build_gram(k, s), so that a caller who holds it does not build it
    twice."""
    out_blocks = []
    for spec_r in block_spectra(k, s):
        r = spec_r.r
        out_blocks.append(
            {
                "r": r,
                "copies": stirling2(k, s + r),
                "eigen": [
                    {"l": l, "poly": p.to_json(), "multiplicity": m}
                    for l, p, m in spec_r.eigenpolys
                ],
            }
        )
    out: dict = {"k": k, "s": s, "blocks": out_blocks}
    if det_sign is not None:
        out["det_sign"] = det_sign
    if singular_x is not None:
        out["singular_x"] = sorted(singular_x)
    if include_matrix:
        g = build_gram(k, s) if gram is None else gram
        out["matrix"] = {
            "n": g.n,
            "diagrams": [str(d) for d in g.diagrams],
            "entries": [[p.to_json() for p in row] for row in g.entries],
        }
    return out
