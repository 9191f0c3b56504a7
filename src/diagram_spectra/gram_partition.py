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
their join, and build_gram forms each join by one merge, memoized, from an
earlier one. Every row partition q but the finest has a parent with one
more block, q with y split off, where y is q's last point that shares a
block with an earlier one; the parent is again a row partition, and q is
the parent with the blocks of y and of x, the first point of y's block,
merged. The join is associative, so p v q is p v parent(q) with x and y
merged, and p v finest is p: walking the partitions finest first, most
merges repeat (the join lattice of Lindstrom and Rota). Each row's through
choice becomes the mask of the join blocks it lands on. The rows of a
partition are grouped by mask once per join, keeping the masks of s bits,
and equal masks on the two sides are exactly the nonzero cells, so no pair
of rows is compared.

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

import functools
import itertools
import math
from dataclasses import dataclass

from .combinat import binomial, k_subsets, set_partitions, stirling2
from .errors import SizeCapExceeded
from .poly import X, ZERO, Polynomial
from .spectrum import multiplicities

DEFAULT_MAX_SIZE = 3000


@dataclass(frozen=True)
class HalfDiagram:
    """A set partition of {1..k} with some of its blocks marked as through
    classes. partition is the restricted-growth string of set_partitions,
    entry i the block label of point i+1; through_blocks are the 1-based
    labels of the through blocks, strictly increasing."""

    partition: tuple[int, ...]
    through_blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        # a restricted-growth string opens its labels in the order 0, 1, ...
        opened = tuple(dict.fromkeys(self.partition))
        nb = len(opened)
        if opened != tuple(range(nb)):
            raise ValueError(f"not a restricted-growth string: {self.partition}")
        thr = self.through_blocks
        if thr and (thr[0] < 1 or sorted(set(thr)) != list(thr)):
            raise ValueError(f"through blocks must be strictly increasing from 1: {thr}")
        if thr and thr[-1] > nb:
            raise ValueError(f"through block index {thr[-1]} exceeds {nb} blocks")

    @property
    def s(self) -> int:
        return len(self.through_blocks)

    @property
    def r(self) -> int:
        return max(self.partition, default=-1) + 1 - self.s

    def __str__(self) -> str:
        blocks: list[list[str]] = [[] for _ in range(self.s + self.r)]
        for pt, lab in enumerate(self.partition, start=1):
            blocks[lab].append(str(pt))
        return "".join(
            "{" + ",".join(blk) + "}" + ("*" if idx in self.through_blocks else "")
            for idx, blk in enumerate(blocks, start=1)
        )


# every golden, test and bench shape is far under; (3000, 2990) counts 506,
# (240, 0) 29 161 and (3000, 2000) 334 835 501. gram_signed_z2 caps its
# reports by the same number: every k <= 6 shape counts at most 621 there,
# and (30, 8, 8) 265 518
MAX_REPORT_COEFFS = 300_000

# build_gram's join walk, runs^2 * k: (40, 39) counts 24.4 M, (76, 75) 618 M;
# also the bits of its k block masks of up to k bits each, k^2, so k <= 7071
MAX_JOIN_WORK = 50_000_000


def family_sums(s: int, top: int) -> tuple[int, int]:
    """sum_{r=0}^{top} (min(s,r)+1) r^e for e = 0 and 1, in closed form: the
    number of eigenpolynomials E_{r,l} of the blocks r <= top, and the sum
    of their degrees. The summand is r + 1 up to m = min(s, top), then
    s + 1."""
    m = min(s, top)
    return (
        (m + 1) * (m + 2) // 2 + (s + 1) * (top - m),
        m * (m + 1) * (m + 2) // 3 + (s + 1) * (top * (top + 1) - m * (m + 1)) // 2,
    )


def _check_shape(k: int, s: int) -> None:
    """Raises ValueError unless k >= 1 and 0 <= s <= k, and SizeCapExceeded
    when the `gram partition` report would hold more than MAX_REPORT_COEFFS
    coefficients, sum_r (min(s,r)+1)(r+1), before any stirling2 runs."""
    if k < 1 or not (0 <= s <= k):
        raise ValueError(f"need k >= 1 and 0 <= s <= k, got k={k}, s={s}")
    coeffs = sum(family_sums(s, k - s))
    if coeffs > MAX_REPORT_COEFFS:
        raise SizeCapExceeded("gram partition report coefficients", coeffs, MAX_REPORT_COEFFS)


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
                out.append(HalfDiagram(part, thr))
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


def build_gram(k: int, s: int, max_size: int = DEFAULT_MAX_SIZE) -> GramMatrix:
    """G_s on k points, in the row order of enumerate_half_diagrams. The side,
    the join work, runs^2 * k with one run per row partition, and the k^2
    bits of a join's block masks, one int of up to k bits per block, are
    capped before anything is enumerated: at s = k the side and the run
    count are 1, but each join still has k blocks. A partition gets an id
    on first sight, the runs' first, in row order; -1 stands for a join of
    fewer than s blocks, which has no nonzero cell, and neither has any
    coarser one."""
    n = gram_side(k, s, max_size)
    work = sum(stirling2(k, b) for b in range(max(s, 1), k + 1)) ** 2 * k
    if work > MAX_JOIN_WORK:
        raise SizeCapExceeded(f"join work of G_{s} on {k} points", work, MAX_JOIN_WORK)
    if k * k > MAX_JOIN_WORK:
        raise SizeCapExceeded(f"block-mask bits of G_{s} on {k} points", k * k, MAX_JOIN_WORK)
    diagrams = enumerate_half_diagrams(k, s)
    # a join has at most k blocks, so an entry is x^m with m <= k - s
    powers = [X.pow(m) for m in range(k - s + 1)]
    rows = [[ZERO] * n for _ in range(n)]
    parts: list[tuple[int, ...]] = []  # partitions by id
    runs = []  # per run: each block's first point, each row's through blocks
    steps = []  # per run: its parent and the points x, y merged
    for labels, run in itertools.groupby(enumerate(diagrams), key=lambda e: e[1].partition):
        tops = list(itertools.accumulate(labels, max, initial=-1))
        firsts = [j for j in range(k) if labels[j] > tops[j]]
        parts.append(labels)
        runs.append((firsts, [(i, [t - 1 for t in d.through_blocks]) for i, d in run]))
        if len(firsts) < k:
            # the parent splits off y, the last point that shares a block
            # with an earlier one; every point after y opens a block
            y = max(j for j in range(k) if labels[j] <= tops[j])
            up = labels[:y] + tuple(range(tops[y] + 1, tops[y] + 1 + k - y))
            steps.append((up, firsts[labels[y]], y))
    ids = {labels: i for i, labels in enumerate(parts)}
    blocks = [len(firsts) for firsts, _ in runs]
    R = len(runs)
    # a v finest is a: the finest run, last, has the slot join[R], which
    # holds a, as its parent, and merging 0 with 0 changes nothing
    steps = [(ids[up], x, y) for up, x, y in steps] + [(R, 0, 0)]
    memo: dict[int, int] = {}

    def merge(j: int, x: int, y: int) -> int:
        """The id of partition j with the blocks of x and y merged, or -1
        when fewer than s blocks would remain."""
        labels = parts[j]
        lo, hi = labels[x], labels[y]
        if lo == hi:
            return j
        if blocks[j] == s:
            return -1
        if lo > hi:
            lo, hi = hi, lo
        key = (j * k + x) * k + y
        i = memo.get(key)
        if i is None:
            # hi's points join lo, and the labels above hi drop by one: the
            # restricted-growth string of the merged partition
            merged = tuple(lo if lab == hi else lab - (lab > hi) for lab in labels)
            i = memo[key] = ids.setdefault(merged, len(parts))
            if i == len(parts):
                parts.append(merged)
                blocks.append(blocks[j] - 1)
        return i

    grouped: dict[int, dict[int, list[int]]] = {}

    def groups(run: int, j: int) -> dict[int, list[int]]:
        """The rows of a run by the mask of the blocks of join j that their
        through blocks land on, keeping the masks of s bits."""
        key = j * R + run
        found = grouped.get(key)
        if found is None:
            firsts, thrs = runs[run]
            bits = [1 << parts[j][f] for f in firsts]
            found = grouped[key] = {}
            for i, thr in thrs:
                mask = sum(map(bits.__getitem__, thr))
                if mask.bit_count() == s:
                    found.setdefault(mask, []).append(i)
        return found

    join = [0] * (R + 1)
    for a in range(R):
        join[R] = a
        # the runs q at or after a, finest first, so that each parent, which
        # has one more block, comes before its children; every cell (i, j)
        # is written with its mirror (j, i)
        for q in range(R - 1, a - 1, -1):
            up, x, y = steps[q]
            j = join[q] = merge(join[up], x, y) if join[up] >= 0 else -1
            if j < 0:
                continue
            power = powers[blocks[j] - s]
            by_mask = groups(q, j)
            for mask, rows_p in groups(a, j).items():
                for i in rows_p:
                    row = rows[i]
                    for jj in by_mask.get(mask, ()):
                        row[jj] = rows[jj][i] = power
    # each row list is freed as soon as its tuple exists
    for i, row in enumerate(rows):
        rows[i] = tuple(row)
    return GramMatrix(k=k, s=s, diagrams=tuple(diagrams), entries=tuple(rows))


def x_substitution_poly(s: int, r: int, t: int) -> Polynomial:
    """X_{min(s,r)-t} = (-1)^t * t! * prod_{m=t}^{r-1} (x - (s+m))."""
    if not (0 <= t <= min(s, r)):
        raise ValueError(f"t={t} out of range 0..{min(s, r)}")
    return Polynomial.from_roots(range(s + t, s + r)).scale((-1) ** t * math.factorial(t))


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
    return Polynomial.from_roots(product_form_roots(s, r, l))


def semisimple_exceptions(k: int, s: int) -> set[int]:
    """Integer x at which det G_s vanishes: the roots of the linear factors
    of every E_{r,l} == product_form(s, r, l), as oracle.verify_gram_det
    certifies. Each occurs in the det: its multiplicity stirling2(k,s+r) *
    (C(s+r,l) - C(s+r,l-1)) is positive for l <= min(s,r) and s+r >= 1.

    E_{r,l} has the roots s-1+i for i < l and 2s+j for j < r-l, two runs
    that each start at a fixed point, so the union over r <= k-s and
    l <= min(s,r) is the longest of each run: l is at most min(s, k-s), and
    r-l at most k-s, reached at l = 0."""
    _check_shape(k, s)
    return set(range(s - 1, s - 1 + min(s, k - s))) | set(range(2 * s, s + k))


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
        # a cell is 0 or x^m, m <= k - s: one shared JSON list per value
        cell = functools.cache(Polynomial.to_json)
        out["matrix"] = {
            "n": g.n,
            "diagrams": [str(d) for d in g.diagrams],
            "entries": [list(map(cell, row)) for row in g.entries],
        }
    return out
