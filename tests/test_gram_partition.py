import re
import tracemalloc

import pytest

from diagram_spectra import gram_partition
from diagram_spectra.combinat import binomial, stirling2
from diagram_spectra.errors import SizeCapExceeded
from diagram_spectra.gram_partition import (
    block_spectrum,
    build_gram,
    enumerate_half_diagrams,
    product_form,
    semisimple_exceptions,
    to_json_dict,
    x_substitution_poly,
)
from diagram_spectra.poly import ONE, ZERO, Polynomial, X
from diagram_spectra.spectrum import eberlein_coefficient


def test_enumerate_2_1():
    diags = enumerate_half_diagrams(2, 1)
    assert len(diags) == 3
    # r=0 first: the single-block partition, through
    assert str(diags[0]) == "{1,2}*"
    # then r=1: {1}{2} with each through choice
    assert str(diags[1]) == "{1}*{2}"
    assert str(diags[2]) == "{1}{2}*"


def test_half_diagram_names():
    assert [str(d) for d in enumerate_half_diagrams(3, 1)] == [
        "{1,2,3}*", "{1,2}*{3}", "{1,2}{3}*", "{1,3}*{2}", "{1,3}{2}*",
        "{1}*{2,3}", "{1}{2,3}*", "{1}*{2}{3}", "{1}{2}*{3}", "{1}{2}{3}*",
    ]
    # every name parses back into its blocks in label order, the through
    # blocks starred
    for k in range(1, 7):
        for s in range(k + 1):
            for d in enumerate_half_diagrams(k, s):
                name = str(d)
                assert re.fullmatch(r"(\{\d+(,\d+)*\}\*?)+", name), name
                parsed = [
                    (tuple(map(int, body.split(","))), star == "*")
                    for body, star in re.findall(r"\{([\d,]+)\}(\*?)", name)
                ]
                blocks = {}
                for pt, lab in enumerate(d.partition, start=1):
                    blocks.setdefault(lab, []).append(pt)
                want = [
                    (tuple(blocks[lab]), lab + 1 in d.through_blocks) for lab in sorted(blocks)
                ]
                assert parsed == want, name
                assert sum(star for _, star in parsed) == d.s and len(parsed) == d.s + d.r


def test_enumerate_counts():
    assert len(enumerate_half_diagrams(3, 1)) == 10
    for k in range(1, 6):
        assert len(enumerate_half_diagrams(k, k)) == 1
        for s in range(0, k + 1):
            expect = sum(
                stirling2(k, s + r) * binomial(s + r, s) for r in range(0, k - s + 1)
            )
            assert len(enumerate_half_diagrams(k, s)) == expect


def test_enumerate_r_major_order():
    diags = enumerate_half_diagrams(4, 1)
    rs = [d.r for d in diags]
    assert rs == sorted(rs)


def test_enumerate_rejects_bad_s():
    # build_gram checks before it sizes the matrix, with the same messages
    for k, s in [(2, 3), (2, -1), (0, 0)]:
        with pytest.raises(ValueError) as enumerated:
            enumerate_half_diagrams(k, s)
        with pytest.raises(ValueError) as built:
            build_gram(k, s)
        assert str(built.value) == str(enumerated.value)


def test_build_gram_2_1_golden():
    g = build_gram(2, 1)
    assert [[str(p) for p in row] for row in g.entries] == [
        ["1", "1", "1"],
        ["1", "x", "0"],
        ["1", "0", "x"],
    ]


def test_build_gram_2_0_golden():
    g = build_gram(2, 0)
    x, x2 = X, X * X
    assert g.entries == ((x, x), (x, x2))


def test_build_gram_identity_pattern():
    for k in (1, 2, 3, 4):
        g = build_gram(k, k)
        assert g.entries == ((ONE,),)


def test_build_gram_diagonal_and_symmetry():
    for k, s in [(3, 1), (3, 0), (4, 2), (4, 3)]:
        g = build_gram(k, s)
        for i, d in enumerate(g.diagrams):
            assert g.entries[i][i] == X.pow(d.r)
            for j in range(g.n):
                assert g.entries[i][j] == g.entries[j][i]


def test_build_gram_cap():
    with pytest.raises(SizeCapExceeded):
        build_gram(4, 1, max_size=10)


def test_build_gram_cap_checked_before_enumerating(monkeypatch):
    def refuse(n, b):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(gram_partition, "set_partitions", refuse)
    with pytest.raises(SizeCapExceeded):
        build_gram(11, 1, max_size=120)



def test_build_gram_join_work_cap_checked_before_enumerating(monkeypatch):
    # (40, 39), 781 runs, passes; (76, 75), side 2926 under the side cap,
    # has 2851 runs and is refused before anything is enumerated
    def refuse(n, b):
        raise AssertionError("enumerated past the cap")

    assert 781**2 * 40 <= gram_partition.MAX_JOIN_WORK < 2851**2 * 76
    assert gram_partition.gram_side(76, 75) == 2926
    monkeypatch.setattr(gram_partition, "set_partitions", refuse)
    with pytest.raises(SizeCapExceeded) as refused:
        build_gram(76, 75)
    assert refused.value.size == 2851**2 * 76


def test_build_gram_mask_bits_cap_checked_before_enumerating(monkeypatch):
    # at s = k the side, the run count and the join work are all small, but
    # a join has k blocks, each with a mask of up to k bits: (10^5, 10^5)
    # peaked at 671 MB for a 1x1 matrix before this cap
    def refuse(n, b):
        raise AssertionError("enumerated past the cap")

    assert build_gram(40, 39).n == 820
    assert build_gram(7071, 7071).entries == ((ONE,),)
    monkeypatch.setattr(gram_partition, "set_partitions", refuse)
    for k in (7072, 10**5):
        with pytest.raises(SizeCapExceeded) as refused:
            build_gram(k, k)
        assert refused.value.size == k * k > gram_partition.MAX_JOIN_WORK
        assert refused.value.what == f"block-mask bits of G_{k} on {k} points"


def test_build_gram_enumerates_only_the_row_partitions(monkeypatch):
    # the joins are formed by merges, so the only partitions enumerated are
    # the rows', into b >= s blocks, as enumerate_half_diagrams asks: never
    # all Bell(20) partitions of the points
    calls = []
    real = gram_partition.set_partitions

    def recording(n, b):
        calls.append((n, b))
        return real(n, b)

    monkeypatch.setattr(gram_partition, "set_partitions", recording)
    g = build_gram(20, 19)
    assert g.n == 210
    assert calls == [(20, 19), (20, 20)]


def test_build_gram_memory_is_about_a_pointer_per_cell():
    # side 856, 732 736 cells: the row lists take 8 bytes per cell, and each
    # is freed as soon as its tuple exists, so the cells are never held twice
    tracemalloc.start()
    try:
        g = build_gram(6, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 856
    assert peak < 13 * g.n * g.n, peak / (g.n * g.n)

def test_x_substitution_poly():
    assert x_substitution_poly(1, 1, 0) == Polynomial.of([-1, 1])
    assert x_substitution_poly(1, 1, 1) == Polynomial.of([-1])
    assert x_substitution_poly(3, 0, 0) == ONE
    # t=0 is the plain diagonal product
    assert x_substitution_poly(1, 2, 0) == Polynomial.x_minus(1) * Polynomial.x_minus(2)
    with pytest.raises(ValueError):
        x_substitution_poly(1, 1, 2)


def test_block_spectrum_2_1_1():
    bs = block_spectrum(2, 1, 1)
    assert [(l, str(p), m) for l, p, m in bs.eigenpolys] == [
        (0, "x - 2", 1),
        (1, "x", 1),
    ]


def test_block_spectrum_3_1_2():
    bs = block_spectrum(3, 1, 2)
    assert [(l, str(p), m) for l, p, m in bs.eigenpolys] == [
        (0, "x^2 - 5x + 6", 1),   # (x-2)(x-3)
        (1, "x^2 - 2x", 2),       # x(x-2)
    ]


def test_block_spectrum_r_zero():
    for k, s in [(3, 2), (4, 2), (5, 3)]:
        bs = block_spectrum(k, s, 0)
        assert bs.eigenpolys == ((0, ONE, stirling2(k, s)),)


def test_block_spectrum_range():
    with pytest.raises(ValueError):
        block_spectrum(3, 1, 3)


def test_block_eigenpoly_degree_is_r():
    for s in range(0, 5):
        for k in range(max(s, 1), 6):
            for r in range(0, k - s + 1):
                for _, p, _ in block_spectrum(k, s, r).eigenpolys:
                    assert p.degree() == r


def test_block_sizes_match_gram():
    for k in range(1, 5):
        for s in range(0, k + 1):
            g = build_gram(k, s)
            total = sum(
                sum(m for _, _, m in block_spectrum(k, s, r).eigenpolys)
                for r in range(0, k - s + 1)
            )
            assert total == g.n


def test_product_form_examples():
    assert str(product_form(1, 1, 0)) == "x - 2"
    assert str(product_form(1, 1, 1)) == "x"
    assert product_form(2, 2, 1) == Polynomial.x_minus(1) * Polynomial.x_minus(4)
    assert product_form(1, 2, 1) == X * Polynomial.x_minus(2)
    with pytest.raises(ValueError):
        product_form(2, 2, 3)


def test_product_form_equals_sum_form():
    # block_spectrum's E_{r,l}, formed from linear factors, and the Eberlein
    # sum of the substitutions agree for every family
    for s in range(0, 7):
        for r in range(0, 7):
            k = s + r  # any k >= s+r gives the same eigenpolys; use the smallest
            if k == 0:
                continue
            for l, p, _ in block_spectrum(k, s, r).eigenpolys:
                eberlein = sum(
                    (
                        x_substitution_poly(s, r, t).scale(eberlein_coefficient(s, r, l, t))
                        for t in range(min(s, r) + 1)
                    ),
                    ZERO,
                )
                assert p == eberlein == product_form(s, r, l), (s, r, l)


def test_product_form_printed_bound_breaks_for_r_above_s():
    # with the second product truncated at min(s,r)-l-1 instead of r-l-1 the
    # degree cannot reach r once r > s; (s,r,l) = (1,2,0) is the witness
    s, r, l = 1, 2, 0
    printed = ONE
    for j in range(min(s, r) - l):  # bound min(s,r)-l-1
        printed = printed * Polynomial.x_minus(2 * s + j)
    assert printed.degree() == 1
    assert product_form(s, r, l).degree() == 2
    assert str(product_form(s, r, l)) == "x^2 - 5x + 6"


def test_product_form_bounds_agree_when_r_at_most_s():
    for s in range(0, 7):
        for r in range(0, s + 1):
            for l in range(0, r + 1):
                printed = factor = ONE
                for i in range(l):
                    factor = factor * Polynomial.x_minus(s - 1 + i)
                for j in range(min(s, r) - l):
                    printed = printed * Polynomial.x_minus(2 * s + j)
                assert factor * printed == product_form(s, r, l)


def test_semisimple_exceptions():
    assert semisimple_exceptions(2, 1) == {0, 2}
    assert semisimple_exceptions(2, 0) == {0, 1}
    for k in range(1, 6):
        assert semisimple_exceptions(k, k) == set()
    # oracle-verified: det G_1 for k=3 is x^5 (x-2)^6 (x-3), nonzero at x=1
    assert semisimple_exceptions(3, 1) == {0, 2, 3}


@pytest.mark.parametrize("k", range(1, 31))
def test_semisimple_exceptions_are_the_product_form_roots(k):
    # the roots of E_{r,l} read off the linear factors product_form multiplies
    for s in range(k + 1):
        expected = set()
        for r in range(k - s + 1):
            for l in range(min(s, r) + 1):
                expected |= {s - 1 + i for i in range(l)} | {2 * s + j for j in range(r - l)}
        assert semisimple_exceptions(k, s) == expected


def test_json_dict_shape():
    d = to_json_dict(2, 1, det_sign=1, singular_x={0, 2})
    assert d["k"] == 2 and d["s"] == 1
    assert d["det_sign"] == 1
    assert d["singular_x"] == [0, 2]
    assert [b["r"] for b in d["blocks"]] == [0, 1]
    assert d["blocks"][1]["eigen"][0]["poly"] == ["-2", "1"]


def test_json_dict_with_matrix():
    d = to_json_dict(2, 1, include_matrix=True)
    assert d["matrix"]["n"] == 3
    assert d["matrix"]["entries"][1][1] == ["0", "1"]
    assert d["matrix"]["diagrams"][0] == "{1,2}*"


def test_report_cap_counts_the_emitted_coefficients():
    # the closed-form count against the coefficients to_json_dict emits
    for k in range(1, 10):
        for s in range(k + 1):
            data = to_json_dict(k, s)
            emitted = sum(len(e["poly"]) for b in data["blocks"] for e in b["eigen"])
            assert sum(gram_partition.family_sums(s, k - s)) == emitted, (k, s)


@pytest.mark.parametrize(
    "call",
    [
        lambda k, s: gram_partition.gram_side(k, s),
        to_json_dict,
        enumerate_half_diagrams,
        semisimple_exceptions,
    ],
    ids=["gram_side", "to_json_dict", "enumerate", "semisimple_exceptions"],
)
def test_report_cap_runs_before_stirling2(monkeypatch, call):
    def refuse(*args):
        raise AssertionError("no stirling2 past the report cap")

    monkeypatch.setattr(gram_partition, "stirling2", refuse)
    with pytest.raises(SizeCapExceeded, match="gram partition report coefficients"):
        call(3000, 2000)
