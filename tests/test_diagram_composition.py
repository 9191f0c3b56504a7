"""Independent derivation of the Gram determinants behind criterion 8.

The helpers in this module rebuild G_s from first principles and use only
the standard library: set partitions and half diagrams are enumerated here,
each half diagram becomes a full partition diagram on 2k points, and the
entry for the pair (i, j) is read off the literal diagram product d_i* . d_j
(x^loops if the propagating number stays s, else 0). build_gram is compared
with it entry by entry for every k <= 5. Determinants are exact rational
elimination at integer points. The package is imported only to be compared
against.

The result settles the exception set of G_1 on 3 points: det = x^5 (x-2)^6
(x-3), which is -2 at x = 1, so the set is {0, 2, 3}.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from diagram_spectra.gram_partition import build_gram, semisimple_exceptions
from diagram_spectra.oracle import det_poly


def _set_partitions(points):
    """All set partitions of the list `points`, as lists of blocks."""
    if not points:
        yield []
        return
    head, rest = points[0], points[1:]
    for part in _set_partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]


def _half_diagram_to_full(k, blocks, through):
    """Full diagram on top vertices 0..k-1 and bottom vertices k..2k-1.

    The top row carries the half diagram's blocks; the i-th through block
    (ordered by least point) is joined to bottom vertex k+i, and the other
    bottom vertices are singletons.
    """
    full = []
    for i, blk in enumerate(sorted(through, key=min)):
        full.append(frozenset(blk) | {k + i})
    full.extend(frozenset(blk) for blk in blocks if blk not in through)
    full.extend(frozenset({k + i}) for i in range(len(through), k))
    return full


def _flip(k, diagram):
    """Mirror a diagram top to bottom (the involution d -> d*)."""
    return [frozenset((v + k) % (2 * k) for v in blk) for blk in diagram]


def _compose(k, upper, lower):
    """Stack `upper` on `lower`, glue the middle row, return (product, loops).

    Vertex v of `upper` sits at v and vertex v of `lower` at v + k, so the
    middle row is k..2k-1. Components inside the middle row are the loops.
    """
    parent = list(range(3 * k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for shift, diagram in ((0, upper), (k, lower)):
        for blk in diagram:
            first, *others = (v + shift for v in blk)
            for v in others:
                parent[find(v)] = find(first)
    components = {}
    for v in range(3 * k):
        components.setdefault(find(v), []).append(v)
    product, loops = [], 0
    for comp in components.values():
        outer = [v if v < k else v - k for v in comp if v < k or v >= 2 * k]
        if outer:
            product.append(frozenset(outer))
        else:
            loops += 1
    return product, loops


def _propagating_number(k, diagram):
    return sum(1 for blk in diagram if min(blk) < k <= max(blk))


@lru_cache(maxsize=None)
def _composed_loops(k, s):
    """Half diagrams on k points with s through classes, as (blocks, through
    blocks), and the loop count of each literal product d_i* . d_j, or None
    where the propagating number drops below s."""
    halves = [
        (blocks, through)
        for blocks in _set_partitions(list(range(k)))
        for through in combinations(blocks, s)
    ]
    diagrams = [_half_diagram_to_full(k, blocks, list(through)) for blocks, through in halves]
    loops = []
    for d_i in diagrams:
        row = []
        for d_j in diagrams:
            product, n_loops = _compose(k, _flip(k, d_i), d_j)
            row.append(n_loops if _propagating_number(k, product) == s else None)
        loops.append(row)
    return halves, loops


def _composed_gram(k, s, x):
    """G_s on k points at the integer x, from literal diagram products."""
    _, loops = _composed_loops(k, s)
    return [[0 if m is None else x**m for m in row] for row in loops]


def _key(blocks, through):
    """A half diagram as (set of blocks, set of through blocks)."""
    return frozenset(map(frozenset, blocks)), frozenset(map(frozenset, through))


def _det(matrix):
    """Exact determinant by Fraction elimination with row swaps."""
    a = [[Fraction(v) for v in row] for row in matrix]
    n, det = len(a), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for j in range(c, n):
                    a[r][j] -= f * a[c][j]
    assert det.denominator == 1
    return int(det)


@pytest.mark.parametrize("k", [2, 3])
def test_composed_gram_det_matches_oracle(k):
    """det of the composed G_1 equals det_poly(build_gram(k, 1)) pointwise."""
    g = build_gram(k, 1)
    oracle = det_poly(g.entries)
    for x in range(-1, 2 * k + 3):
        gram = _composed_gram(k, 1, x)
        assert len(gram) == g.n
        assert _det(gram) == oracle.eval_at(x), (k, x)


@pytest.mark.parametrize(
    "k, s", [(k, s) for k in range(1, 6) for s in range(0, k + 1)]
)
def test_build_gram_entries_match_composition(k, s):
    """Every entry of build_gram(k, s) is x^loops of the literal product, and
    0 exactly where the propagating number drops."""
    halves, loops = _composed_loops(k, s)
    index = {_key(blocks, through): i for i, (blocks, through) in enumerate(halves)}
    g = build_gram(k, s)
    rows = []
    for d in g.diagrams:
        blocks = [[p for p, lab in enumerate(d.partition) if lab == b] for b in range(d.s + d.r)]
        through = [blocks[t - 1] for t in d.through_blocks]
        rows.append(index[_key(blocks, through)])
    assert sorted(rows) == list(range(len(halves)))
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows):
            m = loops[ri][rj]
            expect = () if m is None else (0,) * m + (1,)
            assert g.entries[i][j].coeffs == expect, (str(g.diagrams[i]), str(g.diagrams[j]))


def test_composed_gram_det_closed_forms():
    """det G_1 is x(x-2) on 2 points and x^5 (x-2)^6 (x-3) on 3 points."""
    for x in range(-1, 7):
        assert _det(_composed_gram(2, 1, x)) == x * (x - 2), x
    for x in range(-1, 9):
        assert _det(_composed_gram(3, 1, x)) == x**5 * (x - 2) ** 6 * (x - 3), x
    # x = 1 is not an exception of G_1 on 3 points
    assert _det(_composed_gram(3, 1, 1)) == -2


def test_exception_union_is_partition_algebra_non_semisimple_set():
    """Union over s of the G_s exception sets is {0, ..., 2k-2}, k = 1..6.

    P_k(x) is semisimple iff x is not in {0, 1, ..., 2k-2} (Martin & Saleur,
    1994; Halverson & Ram, *Partition algebras*, 2005). A semisimple
    algebra has nondegenerate cell forms, so no det G_s vanishes outside
    that set; the check also finds that the G_s together reach every point
    of it.
    """
    for k in range(1, 7):
        union = set()
        for s in range(0, k + 1):
            union |= semisimple_exceptions(k, s)
        assert union == set(range(2 * k - 1)), (k, sorted(union))
