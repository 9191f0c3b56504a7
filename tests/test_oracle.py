import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import diagram_spectra
from diagram_spectra import oracle, sdm, spectrum
from diagram_spectra.errors import SizeCapExceeded
from diagram_spectra.oracle import (
    _MERSENNE_EXPONENTS,
    _certificate_failure,
    charpoly,
    det_by_minors,
    det_poly,
    verify_gram_det,
    verify_sdm_spectrum,
)
from diagram_spectra.gram_partition import build_gram
from diagram_spectra.poly import ONE, ZERO, Polynomial, X, factor_product


def _rand_int_matrix(n, rng, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _bareiss_charpoly(m):
    # det(lambda*I - m) by det_poly, Bareiss over Z at x = 2^b: no arithmetic
    # shared with charpoly
    n = len(m)
    return det_poly(
        [[Polynomial.of([-m[i][j], int(i == j)]) for j in range(n)] for i in range(n)]
    )


def test_charpoly_identity():
    assert charpoly([[1, 0], [0, 1]]) == Polynomial.of([1, -2, 1])


def test_charpoly_goldens():
    assert charpoly([[5]]) == Polynomial.of([-5, 1])
    assert charpoly([[3, 1], [1, 3]]) == Polynomial.of([8, -6, 1])
    assert charpoly([]) == ONE


def test_charpoly_all_ones_3x3():
    # J_3 = substituted A^{2,1} at (x1,x0)=(2,1) shifted: [[2,1,1],[1,2,1],[1,1,2]]
    # has eigenvalues 4, 1, 1
    m = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    expected = Polynomial.x_minus(4) * Polynomial.x_minus(1).pow(2)
    assert charpoly(m) == expected


def test_charpoly_matches_sdm_prediction():
    # direct instance of the closed-form check for A^{3,1}
    from diagram_spectra.spectrum import distinct_eigenvalues

    matrix = sdm.build(2, 1)
    values = [3, -2]  # (x1, x0)
    inst = sdm.substitute(matrix, values)
    expected = ONE
    for f in distinct_eigenvalues(2, 1):
        expected = expected * Polynomial.x_minus(f.eval_at(values)).pow(f.multiplicity)
    assert charpoly(inst) == expected


def test_charpoly_matches_bareiss_reference():
    rng = random.Random(20240917)
    for n in (1, 2, 3, 5, 8, 13):
        m = _rand_int_matrix(n, rng)
        assert charpoly(m) == _bareiss_charpoly(m), f"disagree at n={n}"


def test_charpoly_crt_large_entries():
    rng = random.Random(11)
    m = [[rng.randint(-10**6, 10**6) for _ in range(6)] for _ in range(6)]
    assert charpoly(m) == _bareiss_charpoly(m)


def _sylvester_hadamard(side):
    h = [[1]]
    while len(h) < side:
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    return h


def test_charpoly_hadamard_bound_is_met():
    # c times the Sylvester-Hadamard matrix of side 8 has |det| = c^8 8^4, which
    # is Hadamard's bound exactly: the largest coefficient the bound must cover
    h = _sylvester_hadamard(8)
    for c in (1, 3, 2**100, 2**200 + 1):
        m = [[c * v for v in row] for row in h]
        got = charpoly(m)
        assert got == _bareiss_charpoly(m)
        assert abs(got.coeffs[0]) == c**8 * 8**4


def test_charpoly_coefficient_cap():
    # past the prime pool (about 2^19168) the bound is a cap, not a traceback
    with pytest.raises(SizeCapExceeded, match="coefficient bound"):
        charpoly([[2**20000]])
    with pytest.raises(SizeCapExceeded, match="coefficient bound"):
        charpoly([[2**1500] * 13 for _ in range(13)])


def test_mersenne_exponents_are_prime():
    # Lucas-Lehmer: 2^e - 1 (e an odd prime) is prime iff s_{e-2} == 0 mod it
    for e in _MERSENNE_EXPONENTS:
        q = 2**e - 1
        v = 4
        for _ in range(e - 2):
            v = (v * v - 2) % q
        assert v == 0, f"2^{e} - 1 is not prime"


def test_charpoly_crt_pivots_and_zero_columns():
    # Hessenberg reduction must swap rows/columns to find a pivot and skip
    # columns that are already zero below the subdiagonal
    rng = random.Random(29)
    n = 15
    perm = list(range(n))
    rng.shuffle(perm)
    permutation = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    nilpotent = [[rng.randint(-9, 9) if j > i + 1 else 0 for j in range(n)] for i in range(n)]
    sparse = [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
    sparse[3] = [0] * n
    for m in (permutation, nilpotent, sparse):
        assert charpoly(m) == _bareiss_charpoly(m)


def test_charpoly_constant_term_is_signed_det():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5, 6):
        m = _rand_int_matrix(n, rng, -5, 5)
        embedded = [[Polynomial.of([v]) for v in row] for row in m]
        det_val = det_poly(embedded).eval_at(0)
        assert charpoly(m).eval_at(0) == (-1) ** n * det_val


def test_charpoly_block_diagonal_multiplies():
    rng = random.Random(41)
    a = _rand_int_matrix(3, rng)
    b = _rand_int_matrix(4, rng)
    n = 7
    m = [[0] * n for _ in range(n)]
    for i in range(3):
        for j in range(3):
            m[i][j] = a[i][j]
    for i in range(4):
        for j in range(4):
            m[3 + i][3 + j] = b[i][j]
    assert charpoly(m) == charpoly(a) * charpoly(b)


def test_charpoly_permutation_invariant():
    rng = random.Random(13)
    m = _rand_int_matrix(5, rng)
    perm = [2, 0, 4, 1, 3]
    pm = [[m[perm[i]][perm[j]] for j in range(5)] for i in range(5)]
    assert charpoly(pm) == charpoly(m)


def test_charpoly_rejects_nonsquare_and_cap():
    with pytest.raises(ValueError):
        charpoly([[1, 2], [3]])
    with pytest.raises(SizeCapExceeded):
        charpoly([[0] * 4 for _ in range(4)], max_size=3)


def test_det_poly_gram_2_1():
    g = build_gram(2, 1)
    assert det_poly(g.entries) == Polynomial.of([0, -2, 1])


def test_det_poly_goldens():
    assert det_poly([]) == ONE
    assert det_poly([[X]]) == X
    diag = [
        [X if i == j else ZERO for j in range(4)]
        for i in range(4)
    ]
    assert det_poly(diag) == X.pow(4)
    anti = [[ZERO, ONE], [ONE, ZERO]]
    assert det_poly(anti) == Polynomial.of([-1])
    swap = [[ZERO, ONE], [X, ZERO]]
    assert det_poly(swap) == -X


def test_det_poly_singular():
    row = [ONE, X, X.pow(2)]
    assert det_poly([row, row, [X, ONE, ZERO]]) == ZERO
    zero_col = [[ZERO, X], [ZERO, ONE]]
    assert det_poly(zero_col) == ZERO


def test_det_poly_multilinear_in_a_row():
    rng = random.Random(5)

    def rand_poly():
        return Polynomial.of([rng.randint(-3, 3) for _ in range(3)])

    base = [[rand_poly() for _ in range(4)] for _ in range(4)]
    scaled = [list(r) for r in base]
    scaled[2] = [p.scale(3) for p in scaled[2]]
    assert det_poly(scaled) == det_poly(base).scale(3)


def test_det_poly_agrees_with_minors():
    rng = random.Random(99)
    for n in (2, 3, 4, 5):
        m = [
            [Polynomial.of([rng.randint(-3, 3) for _ in range(3)]) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_poly(m) == det_by_minors(m)


def test_det_poly_hadamard_bound_is_met():
    # every entry of H_n times p = c x - (c + 1): at x = -1 the rows are
    # orthogonal with equal norms, so |det| meets Hadamard's bound there, and
    # the coefficients of p^n alternate in sign; with p = c the determinant
    # 2^1632 at c = 2^100 is within one bit of the packing bound. Side 16 is
    # past the minor check
    for side, det_h in ((8, 8**4), (16, 2**32)):
        h = _sylvester_hadamard(side)
        for c in (1, 3, 2**100, 2**200 + 1):
            for p in (Polynomial.of([-(c + 1), c]), Polynomial.of([c])):
                m = [[p.scale(v) for v in row] for row in h]
                assert det_poly(m) == p.pow(side).scale(det_h)


def test_det_by_minors_side_limit():
    with pytest.raises(ValueError):
        det_by_minors([[ONE] * 9 for _ in range(9)])


def test_det_poly_cap():
    with pytest.raises(SizeCapExceeded):
        det_poly([[ONE] * 5 for _ in range(5)], max_size=4)


def test_verify_sdm_spectrum_passes():
    for s, r in [(1, 1), (3, 2), (4, 3), (2, 5)]:
        report = verify_sdm_spectrum(s, r, trials=3, seed=1)
        assert report.passed, report.failures
        assert report.target == "sdm_spectrum"
        assert report.params == {"s": s, "r": r, "seed": 1}
        assert report.trials == 3
        assert report.failures == []


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_sdm_spectrum_rejects_no_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        verify_sdm_spectrum(1, 1, trials=trials)


@pytest.mark.parametrize("s, r", [(3, 1), (1, 4), (4, 1)])
def test_verify_sdm_spectrum_trials_separate_families(monkeypatch, s, r):
    # with the multiplicities of families 0 and 1 swapped, a substitution with
    # E_0 == E_1 would pass; every trial draws distinct E_l, so every trial fails
    forms = spectrum.distinct_eigenvalues(s, r)
    m0, m1 = forms[0].multiplicity, forms[1].multiplicity
    swapped = [replace(forms[0], multiplicity=m1), replace(forms[1], multiplicity=m0)]
    monkeypatch.setattr(spectrum, "distinct_eigenvalues", lambda s, r: swapped + forms[2:])
    report = verify_sdm_spectrum(s, r, trials=5, seed=0)
    assert [f["trial"] for f in report.failures] == [0, 1, 2, 3, 4]


def _perturbed(forms, l, v):
    # family l with its coefficient of x_v raised by one
    coeffs = list(forms[l].coeffs)
    coeffs[v] += 1
    return forms[:l] + [replace(forms[l], coeffs=tuple(coeffs))] + forms[l + 1 :]


def _swapped(forms):
    # the multiplicities of families 0 and 1 exchanged
    m0, m1 = forms[0].multiplicity, forms[1].multiplicity
    return [replace(forms[0], multiplicity=m1), replace(forms[1], multiplicity=m0)] + forms[2:]


def _charpoly_agrees(matrix, forms, values):
    expected = ONE
    for f in forms:
        expected = expected * Polynomial.x_minus(f.eval_at(values)).pow(f.multiplicity)
    return charpoly(sdm.substitute(matrix, values)) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_certificate_agrees_with_charpoly_at_small_sides(n):
    # the symbolic verdict and exact charpolys at a few substitutions agree,
    # for the closed form and for the closed form with one coefficient off
    rng = random.Random(n)
    for s in range(n + 1):
        matrix = sdm.build(s, n - s)
        d = matrix.min_level
        forms = spectrum.distinct_eigenvalues(s, n - s)
        # nonzero values, so that an x_0 coefficient that is off shows
        draws = [[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(d + 1)] for _ in range(3)]
        for claim in (forms, _perturbed(forms, d, 0)):
            certified = _certificate_failure(matrix.levels, d, claim) is None
            agrees = all(_charpoly_agrees(matrix, claim, values) for values in draws)
            assert certified == agrees, (s, n - s, claim)
        assert _certificate_failure(matrix.levels, d, forms) is None


@pytest.mark.parametrize(
    "mutate, step",
    [(lambda f: _perturbed(f, 1, 0), "characters"), (_swapped, "multiplicities")],
    ids=["perturbed-coefficient", "swapped-multiplicities"],
)
def test_certificate_rejects_mutated_closed_form(monkeypatch, mutate, step):
    forms = mutate(spectrum.distinct_eigenvalues(3, 4))
    matrix = sdm.build(3, 4)
    assert _certificate_failure(matrix.levels, 3, forms)[0] == step
    monkeypatch.setattr(spectrum, "distinct_eigenvalues", lambda s, r: forms)
    report = verify_sdm_spectrum(3, 4, trials=2, seed=0)
    assert not report.passed
    assert [f["trial"] for f in report.failures] == [0, 1]


def test_certificate_rejects_tampered_level_matrix(monkeypatch):
    # swap the levels of (1, 2) and (1, k), and of their mirror entries: the
    # matrix stays symmetric, but column 2 no longer sees what the other
    # columns at its level see
    matrix = sdm.build(3, 4)
    rows = [list(row) for row in matrix.levels]
    k = next(c for c in range(3, matrix.n) if rows[1][c] != rows[1][2])
    rows[1][2], rows[1][k] = rows[1][k], rows[1][2]
    rows[2][1], rows[k][1] = rows[k][1], rows[2][1]
    tampered = replace(matrix, levels=tuple(map(tuple, rows)))
    forms = spectrum.distinct_eigenvalues(3, 4)
    step, detail = _certificate_failure(tampered.levels, 3, forms)
    assert step == "intersection numbers"
    assert "disagrees" in detail
    monkeypatch.setattr(sdm, "build", lambda s, r, max_size: tampered)
    assert not verify_sdm_spectrum(3, 4, trials=1).passed


@pytest.fixture
def no_charpoly(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pass path must not substitute or run charpoly")

    monkeypatch.setattr(oracle, "charpoly", refuse)
    monkeypatch.setattr(sdm, "substitute", refuse)


def test_verify_sdm_spectrum_pass_path_runs_no_charpoly(no_charpoly):
    for n in range(1, 8):
        for s in range(n + 1):
            assert verify_sdm_spectrum(s, n - s, trials=3).passed


def test_verify_sdm_spectrum_reaches_side_3432(no_charpoly):
    # far past the charpoly cap of 300: the certificate reads the level
    # matrix once and runs no charpoly
    report = verify_sdm_spectrum(7, 7, max_size=3432)
    assert report.passed
    assert report.failures == []


def test_verify_sdm_spectrum_unwitnessed_failure_names_the_step(monkeypatch):
    # E_1 with its x_0 coefficient off by one; the one trial of seed 17 draws
    # x_0 = 0, where the wrong E_1 has the right value, so only the
    # certificate sees the fault
    forms = _perturbed(spectrum.distinct_eigenvalues(3, 4), 1, 0)
    monkeypatch.setattr(spectrum, "distinct_eigenvalues", lambda s, r: forms)
    report = verify_sdm_spectrum(3, 4, trials=1, seed=17)
    assert not report.passed
    assert report.failures == [
        {
            "trial": None,
            "substitution": None,
            "step": "characters",
            "detail": "family 1 is not multiplicative at levels (0, 0)",
        }
    ]


def test_verify_sdm_spectrum_equal_forms_return_promptly():
    # E_1 := E_0 at (2, 3): no redraw can separate two equal forms, so the
    # witness draws must be bounded
    src = str(Path(diagram_spectra.__file__).parents[1])
    code = (
        "from dataclasses import replace\n"
        "from diagram_spectra import oracle, spectrum\n"
        "forms = spectrum.distinct_eigenvalues(2, 3)\n"
        "forms[1] = replace(forms[0], l=1, multiplicity=forms[1].multiplicity)\n"
        "spectrum.distinct_eigenvalues = lambda s, r: forms\n"
        "report = oracle.verify_sdm_spectrum(2, 3, trials=2)\n"
        "print(report.passed, [f['trial'] for f in report.failures])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=30,
    )
    assert proc.stdout == "False [0, 1]\n"
    assert _certificate_failure(
        sdm.build(2, 3).levels, 2, [spectrum.distinct_eigenvalues(2, 3)[0]] * 3
    )[0] == "distinct characters"


def test_verify_sdm_spectrum_deterministic():
    a = verify_sdm_spectrum(2, 2, trials=4, seed=9).to_json_dict()
    b = verify_sdm_spectrum(2, 2, trials=4, seed=9).to_json_dict()
    assert a == b


def test_verify_report_json_shape():
    d = verify_sdm_spectrum(1, 1, trials=2, seed=0).to_json_dict()
    assert set(d) == {"target", "params", "trials", "passed", "failures"}


def test_verify_gram_det_2_1():
    report = verify_gram_det(2, 1)
    assert report.passed
    assert report.extra["epsilon"] == 1
    assert report.extra["det"] == ["0", "-2", "1"]  # x^2 - 2x = x(x-2)


def test_verify_gram_det_identity():
    report = verify_gram_det(3, 3)
    assert report.passed
    assert report.extra["epsilon"] == 1
    assert report.extra["det"] == ["1"]


def test_verify_gram_det_small_sweep():
    for k in (1, 2, 3):
        for s in range(0, k + 1):
            report = verify_gram_det(k, s)
            assert report.passed, (k, s, report.failures)
            assert report.extra["epsilon"] in (1, -1)


def test_verify_gram_det_3_1_full_det():
    # det G_1 on 3 points factors as x^5 (x-2)^6 (x-3); in particular it is
    # nonzero at x = 1
    report = verify_gram_det(3, 1)
    assert report.passed
    det = Polynomial.of([int(c) for c in report.extra["det"]])
    expected = X.pow(5) * Polynomial.x_minus(2).pow(6) * Polynomial.x_minus(3)
    assert det in (expected, -expected)
    assert det.eval_at(1) != 0
