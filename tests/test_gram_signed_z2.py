import pytest

from diagram_spectra import gram_signed_z2
from diagram_spectra.gram_partition import block_spectrum, x_substitution_poly
from diagram_spectra.gram_signed_z2 import (
    _block_ranges,
    _report_coeffs,
    block_spectra,
    block_spectrum_tensor,
    build_exceptional_block,
    exceptional_diag_poly,
    to_json_dict,
    x_e_poly,
    x_z2_poly,
)
from diagram_spectra.poly import ONE, ZERO, Polynomial, factor_product
from diagram_spectra.spectrum import eberlein_coefficient, multiplicities


def _quad(c):
    return Polynomial.of([-2 * c, -1, 1])  # x^2 - x - 2c


def _eberlein_family(s, r, x_poly):
    # (l, E_l) with E_l = sum_t e(s,r,l,t) x_poly(s, r, t), l = 0..min(s,r)
    lo = min(s, r)
    terms = range(lo + 1)
    return [
        (l, sum((x_poly(s, r, t).scale(eberlein_coefficient(s, r, l, t)) for t in terms), ZERO))
        for l in range(lo + 1)
    ]


def _e_family(s1, r1):
    return _eberlein_family(s1, r1, x_e_poly)


def _z2_family(s2, r2):
    return _eberlein_family(s2, r2, x_z2_poly)


def test_tensor_families_are_the_eberlein_sums():
    # block_spectrum_tensor forms both families from linear factors; each
    # equals the Eberlein sum of its substitution, with the multiplicities
    # of A^{s+r,s}
    for s in range(13):
        for r in range(13):
            mults = multiplicities(s, r)
            e_only = block_spectrum_tensor(s, r, 0, 0)
            z2_only = block_spectrum_tensor(0, 0, s, r)
            want = [(l, p, mults[l]) for l, p in _e_family(s, r)]
            assert [(l1, p, m) for l1, _, p, m in e_only] == want, (s, r)
            want = [(l, p, mults[l]) for l, p in _z2_family(s, r)]
            assert [(l2, p, m) for _, l2, p, m in z2_only] == want, (s, r)


def test_x_e_poly_examples():
    assert x_e_poly(1, 1, 0) == _quad(1)
    assert str(x_e_poly(1, 1, 0)) == "x^2 - x - 2"
    for s1 in (1, 2, 5):
        assert x_e_poly(s1, 1, 1) == Polynomial.of([-2])
        assert x_e_poly(s1, 0, 0) == ONE
    assert x_e_poly(2, 2, 1) == _quad(3).scale(-2)
    assert x_e_poly(2, 2, 0) == _quad(2) * _quad(3)


def test_x_e_poly_range():
    with pytest.raises(ValueError):
        x_e_poly(1, 1, 2)
    with pytest.raises(ValueError):
        x_e_poly(2, 1, -1)


def test_x_z2_poly_is_the_partition_substitution():
    for s2 in range(0, 5):
        for r2 in range(0, 5):
            for t in range(0, min(s2, r2) + 1):
                assert x_z2_poly(s2, r2, t) == x_substitution_poly(s2, r2, t)


def test_e_family_1_1():
    fam = _e_family(1, 1)
    assert [(l, str(p)) for l, p in fam] == [
        (0, "x^2 - x - 4"),
        (1, "x^2 - x"),
    ]


def test_e_family_degenerate():
    assert _e_family(3, 0) == [(0, ONE)]
    for r1 in (1, 2, 3):
        fam = _e_family(0, r1)
        assert fam == [(0, factor_product(_quad(i) for i in range(r1)))]


def test_e_family_degree_and_monic():
    for s1 in range(0, 4):
        for r1 in range(0, 4):
            for _, p in _e_family(s1, r1):
                assert p.degree() == 2 * r1
                assert p.coeffs[-1] == 1


def test_z2_family_examples():
    assert [(l, str(p)) for l, p in _z2_family(1, 1)] == [
        (0, "x - 2"),
        (1, "x"),
    ]
    assert [(l, str(p)) for l, p in _z2_family(2, 1)] == [
        (0, "x - 4"),
        (1, "x - 1"),
    ]


def test_z2_family_matches_partition_blocks():
    # the Z2 part is the plain partition substitution, so the Eberlein sums
    # and the partition blocks must agree family by family
    for s in range(0, 5):
        for r in range(0, 5):
            k = s + r if s + r >= 1 else 1
            fam = _z2_family(s, r)
            blk = block_spectrum(k, s, r).eigenpolys
            assert [(l, p) for l, p in fam] == [(l, p) for l, p, _ in blk]


def test_validate_and_report_share_one_range_rule():
    with pytest.raises(ValueError) as blocks_exc:
        block_spectra(2, -1, 0, "signed")
    with pytest.raises(ValueError) as report_exc:
        to_json_dict(2, -1, 0, "signed")
    assert str(blocks_exc.value) == str(report_exc.value) == "invalid parameters k=2, s1=-1, s2=0"
    with pytest.raises(ValueError) as blocks_exc:
        block_spectra(2, 0, 0, "plain")
    with pytest.raises(ValueError) as report_exc:
        to_json_dict(2, 0, 0, "plain")
    assert str(blocks_exc.value) == str(report_exc.value)


@pytest.mark.parametrize("mode", ["z2", "signed"])
def test_report_coeffs_counts_the_emitted_coefficients(mode):
    for k in range(9):
        for s1 in range(k + 1):
            for s2 in range(k + 1 - s1):
                data = to_json_dict(k, s1, s2, mode)
                emitted = sum(len(e["poly"]) for b in data["blocks"] for e in b["eigen"])
                cap, r2_cap = _block_ranges(k, s1, s2, mode)
                assert _report_coeffs(s1, s2, cap, r2_cap) == emitted


def test_validate_ranges():
    # block_spectra states the mode's range rule: r2 <= K in z2 mode, K - 1
    # in signed mode, for K = k - s1 - s2 >= 0 and k, s1, s2 >= 0
    def grid(k, s1, s2, mode):
        return [(r1, r2) for r1, r2, _ in block_spectra(k, s1, s2, mode)]

    assert (2, 2) in grid(3, 1, 0, "z2")
    assert (2, 2) not in grid(3, 1, 0, "signed")
    assert (2, 1) in grid(3, 1, 0, "signed")
    assert (3, 0) not in grid(3, 1, 0, "z2")
    assert grid(3, 1, 0, "z2") == [(r1, r2) for r1 in range(3) for r2 in range(3)]
    assert grid(3, 1, 0, "signed") == [(r1, r2) for r1 in range(3) for r2 in range(2)]
    assert grid(1, 0, 0, "signed") == [(0, 0), (1, 0)]
    assert grid(1, 1, 0, "signed") == []
    with pytest.raises(ValueError, match="invalid parameters k=2, s1=2, s2=1"):
        block_spectra(2, 2, 1, "z2")
    with pytest.raises(ValueError, match="invalid parameters k=3, s1=-1, s2=0"):
        block_spectra(3, -1, 0, "z2")
    with pytest.raises(ValueError, match="mode must be 'z2' or 'signed', got 'plain'"):
        block_spectra(3, 0, 0, "plain")


def test_tensor_block_1_1_1_1():
    spec = block_spectrum_tensor(1, 1, 1, 1)
    assert [(l1, l2, str(p), m) for l1, l2, p, m in spec] == [
        (0, 0, "x^3 - 3x^2 - 2x + 8", 1),
        (0, 1, "x^3 - x^2 - 4x", 1),
        (1, 0, "x^3 - 3x^2 + 2x", 1),
        (1, 1, "x^3 - x^2", 1),
    ]


def test_tensor_block_pure_parts():
    # r2=0 leaves the e-family alone; r1=0 leaves the Z2 family alone
    spec = block_spectrum_tensor(1, 1, 0, 0)
    assert [(l1, str(p)) for l1, _, p, _ in spec] == [
        (0, "x^2 - x - 4"),
        (1, "x^2 - x"),
    ]
    spec = block_spectrum_tensor(0, 0, 1, 1)
    assert [(l2, str(p)) for _, l2, p, _ in spec] == [(0, "x - 2"), (1, "x")]


def test_tensor_degree_law():
    for r1 in range(0, 3):
        for r2 in range(0, 3):
            for _, _, p, _ in block_spectrum_tensor(2, r1, 2, r2):
                assert p.degree() == 2 * r1 + r2


def test_tensor_multiplicity_product():
    m1 = multiplicities(2, 2)
    m2 = multiplicities(1, 2)
    spec = block_spectrum_tensor(2, 2, 1, 2)
    assert [(l1, l2, m) for l1, l2, _, m in spec] == [
        (l1, l2, m1[l1] * m2[l2]) for l1 in range(3) for l2 in range(2)
    ]


@pytest.mark.parametrize("position", range(4))
def test_tensor_block_rejects_a_negative_argument(position):
    args = [1, 1, 1, 1]
    args[position] = -1
    with pytest.raises(ValueError, match=r"need s1, r1, s2, r2 >= 0, got "):
        block_spectrum_tensor(*args)


def test_block_spectra_call_the_tensor_block_once_per_block(monkeypatch):
    # the tensor block is the one place its spectrum is formed, and the
    # traced span gram_signed_z2.block_spectrum_tensor times it
    calls = []
    tensor = gram_signed_z2.block_spectrum_tensor

    def spy(*args):
        calls.append(args)
        return tensor(*args)

    monkeypatch.setattr(gram_signed_z2, "block_spectrum_tensor", spy)
    for mode in ("z2", "signed"):
        calls.clear()
        blocks = block_spectra(4, 1, 1, mode)
        assert calls == [(1, r1, 1, r2) for r1, r2, _ in blocks]
        assert [spec for _, _, spec in blocks] == [tensor(*c) for c in calls]


def test_exceptional_diag_golden():
    # k=2, s1=s2=0, rp1=1: (x^2-x)*x + x(x-1) = x^3 - x
    assert str(exceptional_diag_poly(2, 0, 0, 1)) == "x^3 - x"
    assert str(exceptional_diag_poly(2, 0, 0, 2)) == "x^4 - 2x^3 + x"
    with pytest.raises(ValueError):
        exceptional_diag_poly(2, 0, 0, 0)
    with pytest.raises(ValueError):
        exceptional_diag_poly(2, 0, 0, 3)


def test_exceptional_diag_rejects_negative_parameters():
    # the diagonal shares build_exceptional_block's check: a negative s1 or
    # s2 widens K rather than failing the rp1 range
    for args in [(2, -1, 0, 1), (2, 0, -1, 1), (-1, 0, 0, 1)]:
        with pytest.raises(ValueError, match="^all parameters must be nonnegative$"):
            exceptional_diag_poly(*args)
    for args in [(2, -1, 0), (2, 0, -1), (-1, 0, 0)]:
        with pytest.raises(ValueError, match="^all parameters must be nonnegative$"):
            build_exceptional_block(*args)


def test_exceptional_block_2_0_0():
    blk = build_exceptional_block(2, 0, 0)
    assert len(blk) == 4 and all(len(row) == 4 for row in blk)
    diag = [str(blk[i][i]) for i in range(4)]
    assert diag == ["x^3 - x", "x^3 - x", "x^4 - 2x^3 + x", "x^4 - 2x^3 + x"]
    # rows 0,1 carry rp1=1 and rows 2,3 carry rp1=2; run = x^2 - x
    assert str(blk[0][1]) == "x^2 - x"
    assert str(blk[0][2]) == "-x^2 + x"
    assert str(blk[2][3]) == "x^2 - x"
    for i in range(4):
        for j in range(4):
            assert blk[i][j] == blk[j][i]


def test_exceptional_block_dimension_and_symmetry():
    for k, s1, s2 in [(3, 0, 0), (4, 1, 0), (4, 0, 2), (5, 1, 1)]:
        cap = k - s1 - s2
        blk = build_exceptional_block(k, s1, s2)
        assert len(blk) == 2 * cap
        assert [blk[i][i] for i in range(2 * cap)] == [
            exceptional_diag_poly(k, s1, s2, rp1) for rp1 in range(1, cap + 1) for _ in (0, 1)
        ]
        for i in range(2 * cap):
            for j in range(2 * cap):
                assert blk[i][j] == blk[j][i]


def test_exceptional_block_rejects_empty():
    with pytest.raises(ValueError):
        build_exceptional_block(2, 1, 1)
    with pytest.raises(ValueError):
        build_exceptional_block(3, -1, 0)


def test_json_dict_z2_block_grid():
    d = to_json_dict(2, 1, 0, "z2")
    assert d["mode"] == "z2"
    assert [(b["r1"], b["r2"]) for b in d["blocks"]] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]


def test_json_dict_signed_truncates_r2():
    d = to_json_dict(3, 1, 0, "signed")
    assert [(b["r1"], b["r2"]) for b in d["blocks"]] == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
    ]
    assert all(b["r2"] <= 1 for b in d["blocks"])


def test_json_dict_entry_shape():
    d = to_json_dict(2, 1, 0, "z2")
    blk = d["blocks"][2]  # (r1, r2) = (1, 0)
    assert blk["eigen"][0] == {
        "l1": 0,
        "l2": 0,
        "poly": ["-4", "-1", "1"],
        "multiplicity_per_copy": 1,
    }


def test_json_dict_rejects_bad_mode():
    with pytest.raises(ValueError):
        to_json_dict(2, 1, 0, "plain")
    with pytest.raises(ValueError):
        to_json_dict(2, 2, 1, "z2")
