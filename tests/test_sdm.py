"""Construction of symmetric diagram matrices.

The worked 6x6 and 10x10 matrices used as goldens below were published with
an unspecified diagram order, so those comparisons assert equality up to an
index bijection (found by backtracking); the bijection must also respect the
entry rule, which pins the matrix itself, not just its multiset of entries.
"""

import itertools
import operator
import tracemalloc

import pytest

from diagram_spectra import sdm

from diagram_spectra.combinat import binomial, k_subsets
from diagram_spectra.errors import SizeCapExceeded
from diagram_spectra.sdm import _block_table, _memo_depth, _spans, build, substitute

# every side from 252 to 4000 with s + r <= 16, and four shapes with a small
# s whose rows barely repeat
SWEEP_SHAPES = [
    (s, m - s) for m in range(1, 17) for s in range(m + 1) if 252 <= binomial(m, s) <= 4000
] + [(1, 300), (2, 60), (2, 80), (3, 25)]


def _shapes_of_side(lo, hi):
    """Every (s, r) with s, r >= 1 and lo <= C(s+r, s) <= hi."""
    shapes = []
    for s in itertools.count(1):
        if s + 1 > hi:
            return shapes
        r = 1
        while binomial(s + r, s) <= hi:
            if binomial(s + r, s) >= lo:
                shapes.append((s, r))
            r += 1


def _cells_are_values(rows, level_rows, values):
    """Each cell of rows is the object values[level], not an equal copy."""
    get = values.__getitem__
    return len(rows) == len(level_rows) and all(
        len(row) == len(levels) and all(map(operator.is_, row, map(get, levels)))
        for row, levels in zip(rows, level_rows)
    )


def _find_relabeling(got, want):
    """Permutation pi with got[pi[i]][pi[j]] == want[i][j], or None."""
    n = len(want)
    pi = [-1] * n
    used = [False] * n

    def place(i):
        if i == n:
            return True
        for cand in range(n):
            if used[cand]:
                continue
            ok = all(
                got[cand][pi[j]] == want[i][j] and got[pi[j]][cand] == want[j][i]
                for j in range(i)
            )
            if ok and got[cand][cand] == want[i][i]:
                pi[i] = cand
                used[cand] = True
                if place(i + 1):
                    return True
                used[cand] = False
        return False

    return pi if place(0) else None


GOLDEN_4_2 = [
    [2, 1, 1, 0, 1, 1],
    [1, 2, 0, 1, 1, 1],
    [1, 0, 2, 1, 1, 1],
    [0, 1, 1, 2, 1, 1],
    [1, 1, 1, 1, 2, 0],
    [1, 1, 1, 1, 0, 2],
]

GOLDEN_5_3 = [
    [2, 1, 1, 1, 0, 0, 1, 1, 0, 1],
    [1, 2, 1, 0, 1, 0, 1, 0, 1, 1],
    [1, 1, 2, 0, 0, 1, 0, 1, 1, 1],
    [1, 0, 0, 2, 1, 1, 1, 1, 0, 1],
    [0, 1, 0, 1, 2, 1, 1, 0, 1, 1],
    [0, 0, 1, 1, 1, 2, 0, 1, 1, 1],
    [1, 1, 0, 1, 1, 0, 2, 1, 1, 0],
    [1, 0, 1, 1, 0, 1, 1, 2, 1, 0],
    [0, 1, 1, 0, 1, 1, 1, 1, 2, 0],
    [1, 1, 1, 1, 1, 1, 0, 0, 0, 2],
]


def test_build_1_1_golden():
    assert build(1, 1).levels == (bytes([1, 0]), bytes([0, 1]))


def test_build_1_2_golden():
    # 3x3 with diagonal x1 and off-diagonal x0
    m = build(1, 2)
    assert m.n == 3
    for i in range(3):
        for j in range(3):
            assert m.levels[i][j] == (1 if i == j else 0)


def test_build_2_2_matches_published_display():
    got = build(2, 2).levels
    assert _find_relabeling(got, GOLDEN_4_2) is not None


def test_build_3_2_matches_published_display():
    got = build(3, 2).levels
    assert _find_relabeling(got, GOLDEN_5_3) is not None


@pytest.mark.parametrize("s,r", [(s, m - s) for m in range(1, 11) for s in range(m + 1)])
def test_shape_laws(s, r):
    m = build(s, r)
    lo = min(s, r)
    from diagram_spectra.combinat import binomial

    assert m.n == binomial(s + r, s)
    for i in range(m.n):
        assert m.levels[i][i] == lo
        for j in range(m.n):
            assert m.levels[i][j] == m.levels[j][i]
        # row composition: level lo-t occurs C(s,t)*C(r,t) times
        counts = [0] * (lo + 1)
        for v in m.levels[i]:
            counts[v] += 1
        for t in range(lo + 1):
            assert counts[lo - t] == binomial(s, t) * binomial(r, t)


# s + r <= 10, then shapes where build's packed rows, one byte per column,
# sum s >= 256 indicators, so a column's partial sum passes 255 before the
# bias comes off; (1, 300) is a row 301 bytes wide
@pytest.mark.parametrize(
    "s,r", [(s, m - s) for m in range(1, 11) for s in range(m + 1)] + [(300, 1), (1, 300), (260, 1)]
)
def test_entry_rule(s, r):
    # levels[i][j] = min(s,r) - s + |T_i cap T_j|, T_i in lexicographic order
    throughs = [set(t) for t in itertools.combinations(range(1, s + r + 1), s)]
    levels = build(s, r).levels
    assert levels == tuple(
        bytes(min(s, r) - s + len(ti & tj) for tj in throughs) for ti in throughs
    )
    assert type(levels) is tuple
    assert all(type(row) is bytes for row in levels)


@pytest.mark.parametrize("s,r", [(1, 2), (2, 3), (3, 1), (2, 2), (0, 4)])
def test_duality_via_complement(s, r):
    m_sr = build(s, r)
    m_rs = build(r, s)
    n = s + r
    pos_rs = {sub: i for i, sub in enumerate(k_subsets(n, r))}
    sigma = [
        pos_rs[tuple(e for e in range(1, n + 1) if e not in sub)] for sub in k_subsets(n, s)
    ]
    for i in range(m_sr.n):
        for j in range(m_sr.n):
            assert m_sr.levels[i][j] == m_rs.levels[sigma[i]][sigma[j]]


def test_build_rejects_degenerate_and_caps():
    with pytest.raises(ValueError):
        build(0, 0)
    with pytest.raises(ValueError):
        build(-1, 2)
    with pytest.raises(SizeCapExceeded):
        build(30, 30)
    with pytest.raises(SizeCapExceeded):
        build(3, 3, max_size=10)


@pytest.mark.parametrize(
    "s,r,max_size", [(10**12, 0, 4000), (0, 10**30, 300), (10**6, 10**6, 4000), (4000, 1, 4000)]
)
def test_build_caps_the_points_before_the_side(monkeypatch, s, r, max_size):
    # C(s+r, s) is 1 at s = 0 or r = 0, yet the through sets and columns
    # take s + r points; at s = r = 10^6 the binomial alone runs for seconds
    def refuse(n, k):
        raise AssertionError("the side was computed past the points cap")

    monkeypatch.setattr(sdm, "binomial", refuse)
    with pytest.raises(SizeCapExceeded) as refused:
        build(s, r, max_size=max_size)
    assert (refused.value.size, refused.value.cap) == (s + r, max_size)
    assert refused.value.what == f"points of A^{{{s + r},{s}}}"


def test_build_points_cap_moves_no_side_refusal():
    # with min(s, r) >= 1 the side C(s+r, s) is at least s + r, so these
    # shapes are still refused on their side
    for s, r, max_size in ((30, 30, 4000), (4, 4, 69), (2, 2, 5), (9, 9, 4000)):
        with pytest.raises(SizeCapExceeded) as refused:
            build(s, r, max_size=max_size)
        assert refused.value.size == binomial(s + r, s)
    assert build(4000, 0).n == build(0, 4000).n == 1


def test_substitute_integer_values():
    m = build(2, 2)
    inst = substitute(m, [0, 1, 2])  # x0=0, x1=1, x2=2
    assert sum(inst[i][i] for i in range(6)) == 12
    # rows follow subset-lex order: row 0 is {1,2}, column 5 is {3,4},
    # disjoint through sets, so the entry is x0 -> 0
    assert inst[0][5] == 0
    assert inst[0][1] == 1


def test_substitute_polynomials():
    from diagram_spectra.poly import Polynomial

    m = build(1, 1)
    x_minus_1 = Polynomial.of([-1, 1])
    minus_1 = Polynomial.of([-1])
    inst = substitute(m, [minus_1, x_minus_1])
    assert inst[0][0] == x_minus_1
    assert inst[0][1] == minus_1


@pytest.mark.parametrize("s,r", [(1, 0), (0, 1), (4, 0), (0, 4)])
def test_substitute_side_1(s, r):
    # one row of one cell; the level is 0 since min(s, r) = 0
    assert substitute(build(s, r), ["x0"]) == [["x0"]]
    x0 = object()
    assert substitute(build(s, r), [x0])[0][0] is x0


# the definition test's first shapes, kept first so that their ids stay
_FIRST_DEFINITION_SHAPES = [(1, 1), (2, 2), (3, 2), (2, 5)]


# every s + r <= 12, (6, 6) among them, then shapes on both sides of the
# memo's selection: (6, 6), (6, 8) and (3, 25) take the block memo, (2, 60)
# and (1, 300) the direct lookups
@pytest.mark.parametrize(
    "s,r",
    _FIRST_DEFINITION_SHAPES
    + [
        (s, m - s)
        for m in range(1, 13)
        for s in range(m + 1)
        if (s, m - s) not in _FIRST_DEFINITION_SHAPES
    ]
    + [(6, 8), (3, 25), (2, 60), (1, 300)],
)
def test_substitute_polynomials_match_definition(s, r):
    from diagram_spectra.poly import Polynomial

    m = build(s, r)
    values = [Polynomial.x_minus(v) for v in range(m.min_level + 1)]
    inst = substitute(m, values)
    assert type(inst) is list and all(type(row) is list for row in inst)
    # cell (i, j) is values[levels[i][j]] itself, so inst equals
    # [[values[v] for v in row] for row in m.levels]
    assert _cells_are_values(inst, m.levels, values)
    # every row is its own list: a store into one changes no other, nor
    # the next call's matrix, since no cache lives across calls
    assert len(set(map(id, inst))) == m.n
    inst[0][0] = None
    assert _cells_are_values(inst[1:], m.levels[1:], values)
    del inst
    assert _cells_are_values(substitute(m, values)[:1], m.levels[:1], values)


@pytest.mark.parametrize(
    "s,r",
    [(s, m - s) for m in range(2, 11) for s in range(m + 1)]
    + [(s, r) for s, r in SWEEP_SHAPES if s + r > 10],
)
def test_memo_counts_are_the_block_table(s, r):
    # the spans tile the columns with the counted lengths, and the block
    # table tiles the matrix with blocks of those shapes; every depth where
    # s + r <= 10, and on the rest of the sweep the chosen depth, or 4 for a
    # shape that stays on the direct path
    m = build(s, r)
    for d in range(1, s + r) if s + r <= 10 else [_memo_depth(s, r)[0] or 4]:
        spans = _spans(s, r, d)
        lengths = [stop - start for start, stop, _ in spans]
        assert lengths == [binomial(s + r - d, s - mask.bit_count()) for _, _, mask in spans]
        assert [start for start, _, _ in spans] == [0] + [stop for _, stop, _ in spans[:-1]]
        assert spans[-1][1] == m.n
        table = _block_table(m.levels, list(range(m.min_level + 1)), spans)
        for rows, parts in zip(lengths, table):
            assert [len(block) for block in parts] == [rows] * len(spans), d
            assert [len(block[0]) for block in parts] == lengths, d


def test_memo_depth_is_the_span_count_nearest_sqrt_n():
    def depth(s, r):
        return _memo_depth(s, r)[0]

    assert [depth(s, r) for s, r in [(6, 6), (6, 8), (7, 7), (3, 25)]] == [5, 6, 6, 7]
    # under the side floor, or min(s, r) <= 2: the direct path
    assert [depth(s, r) for s, r in [(1, 300), (2, 60), (2, 80), (5, 5), (1, 1)]] == [0] * 5
    for s, r in _shapes_of_side(300, 4000):
        d, spans = _memo_depth(s, r)
        if min(s, r) <= 2:
            assert (d, spans) == (0, []), (s, r)
            continue
        n = binomial(s + r, s)
        count = [len(_spans(s, r, e)) for e in (d - 1, d, d + 1)]
        assert count[0] * count[1] <= n <= count[1] * count[2], (s, r)
        assert spans == _spans(s, r, d), (s, r)


def test_substitute_zero_map():
    m = build(2, 1)
    inst = substitute(m, [0, 0])
    assert all(v == 0 for row in inst for v in row)


def test_substitute_wrong_value_count():
    with pytest.raises(ValueError):
        substitute(build(1, 1), [1])


def test_json_and_csv_shapes():
    m = build(1, 1)
    d = m.to_json_dict()
    assert d == {"s": 1, "r": 1, "n": 2, "levels": [[1, 0], [0, 1]]}
    assert m.to_csv() == "x1,x0\nx0,x1\n"


@pytest.mark.parametrize("s,r", [(s, m - s) for m in range(1, 11) for s in range(m + 1)])
def test_csv_matches_per_cell_names(s, r):
    m = build(s, r)
    want = "".join(",".join(f"x{v}" for v in row) + "\n" for row in m.levels)
    assert m.to_csv() == want


def test_build_memory_is_about_a_byte_per_cell():
    # side 3003, 9 018 009 cells; a tuple row would take an 8-byte pointer
    # per cell, a bytes row takes one byte
    tracemalloc.start()
    try:
        m = build(6, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.n == 3003
    assert peak < 2 * m.n * m.n, peak / (m.n * m.n)


# bytes per cell: at sides 3003 and 3276 each row takes an 8-byte pointer per
# cell, with no spare capacity, and the block memo its distinct segments on
# top; rows repeat less at (3, 25), so its memo is larger
_SUBSTITUTE_PEAK = {(6, 8): 9, (3, 25): 10.5}


@pytest.mark.parametrize("s,r", list(_SUBSTITUTE_PEAK))
def test_substitute_memory_is_about_a_pointer_per_cell(s, r):
    m = build(s, r)
    values = list(range(m.min_level + 1))
    tracemalloc.start()
    try:
        inst = substitute(m, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(inst) == m.n
    assert peak < _SUBSTITUTE_PEAK[s, r] * m.n * m.n, peak / (m.n * m.n)
