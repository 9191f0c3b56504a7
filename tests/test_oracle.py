import collections
import functools
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import diagram_spectra
from diagram_spectra import combinat, gram_partition, oracle, sdm, spectrum
from diagram_spectra.errors import SizeCapExceeded
from diagram_spectra.oracle import (
    _MERSENNE_EXPONENTS,
    _certificate_failure,
    _intersection_array,
    _level_failure,
    charpoly,
    congruence_entry,
    det_by_minors,
    det_poly,
    verify_gram_det,
    verify_sdm_spectrum,
)
from diagram_spectra.cli import EXIT_VERIFY, gram_main
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


@pytest.mark.parametrize("n", range(1, 13))
def test_intersection_numbers_count_the_level_matrix(n):
    # sdm.build meets the entry rule, and one pair per distance counts the
    # closed-form array, for every shape with s + r = n (sides up to 924)
    for s in range(n + 1):
        array = _intersection_array(s, n - s)
        assert _level_failure(s, n - s, sdm.build(s, n - s).levels, array) is None, (s, n - s)


@pytest.mark.parametrize("n", range(1, 8))
def test_intersection_numbers_count_every_pair_of_rows(n):
    # the runtime tie reads one column per distance; here, for every ordered
    # pair of rows (x, y) of sdm.build at distance i, the distance-1
    # neighbours of x lie at distances i-1, i, i+1 from y exactly c_i, a_i,
    # b_i times, and every row holds k_i cells at distance i
    for s in range(n + 1):
        levels = sdm.build(s, n - s).levels
        a, b, c, k = _intersection_array(s, n - s)
        d = len(k) - 1
        for x in levels:
            assert collections.Counter(d - v for v in x) == dict(enumerate(k))
            near = [z for z, v in enumerate(x) if v == d - 1]
            for j, y in enumerate(levels):
                i = d - x[j]
                got = collections.Counter(d - y[z] for z in near)
                assert got == collections.Counter({i - 1: c[i], i: a[i], i + 1: b[i]}), (s, j)


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
            certified = _certificate_failure(_intersection_array(s, n - s), claim) is None
            agrees = all(_charpoly_agrees(matrix, claim, values) for values in draws)
            assert certified == agrees, (s, n - s, claim)
        assert _certificate_failure(_intersection_array(s, n - s), forms) is None


@pytest.mark.parametrize("n", range(1, 15))
def test_certificate_rejects_every_single_coefficient_change(n):
    # each coefficient of each family, one up or one down, breaks the first
    # entry or the recurrence, so the certificate reads every coefficient
    for s in range(n + 1):
        forms = spectrum.distinct_eigenvalues(s, n - s)
        array = _intersection_array(s, n - s)
        for l, f in enumerate(forms):
            for v, delta in itertools.product(range(len(f.coeffs)), (1, -1)):
                coeffs = f.coeffs[:v] + (f.coeffs[v] + delta,) + f.coeffs[v + 1 :]
                claim = forms[:l] + [replace(f, coeffs=coeffs)] + forms[l + 1 :]
                assert _certificate_failure(array, claim)[0] == "characters", (s, l, v, delta)


@pytest.mark.parametrize(
    "mutate, step",
    [(lambda f: _perturbed(f, 1, 0), "characters"), (_swapped, "multiplicities")],
    ids=["perturbed-coefficient", "swapped-multiplicities"],
)
def test_certificate_rejects_mutated_closed_form(monkeypatch, mutate, step):
    # the closed form passes and the mutation fails, up to d = 127
    for s, r in ((3, 4), (60, 60), (127, 127)):
        closed = spectrum.distinct_eigenvalues(s, r)
        assert _certificate_failure(_intersection_array(s, r), closed) is None, (s, r)
        assert _certificate_failure(_intersection_array(s, r), mutate(closed))[0] == step, (s, r)
    forms = mutate(spectrum.distinct_eigenvalues(3, 4))
    monkeypatch.setattr(spectrum, "distinct_eigenvalues", lambda s, r: forms)
    report = verify_sdm_spectrum(3, 4, trials=2, seed=0)
    assert not report.passed
    assert [f["trial"] for f in report.failures] == [0, 1]


def test_certificate_rejects_tampered_level_matrix(monkeypatch):
    # swap the levels of (1, 2) and (1, k), and of their mirror entries: the
    # matrix stays symmetric, but row 1 breaks the entry rule
    matrix = sdm.build(3, 4)
    rows = [list(row) for row in matrix.levels]
    k = next(c for c in range(3, matrix.n) if rows[1][c] != rows[1][2])
    rows[1][2], rows[1][k] = rows[1][k], rows[1][2]
    rows[2][1], rows[k][1] = rows[k][1], rows[2][1]
    tampered = replace(matrix, levels=tuple(map(tuple, rows)))
    assert _level_failure(3, 4, tampered.levels, _intersection_array(3, 4)) == (
        "entry rule",
        "row 1 is not x_{min(s,r)-f} cell by cell",
    )
    monkeypatch.setattr(sdm, "build", lambda s, r, max_size: tampered)
    report = verify_sdm_spectrum(3, 4, trials=1)
    assert not report.passed
    assert [f["trial"] for f in report.failures] == [0]


def test_certificate_rejects_relabelled_levels(monkeypatch):
    # levels 0 and 1 swapped everywhere: J(7, 3) with two relations
    # relabelled, so every cell at level 0 or 1 breaks the entry rule
    swap = [1, 0, 2, 3]
    matrix = sdm.build(3, 4)
    swapped = replace(matrix, levels=tuple(tuple(swap[v] for v in row) for row in matrix.levels))
    array = _intersection_array(3, 4)
    assert _level_failure(3, 4, swapped.levels, array)[0] == "entry rule"
    monkeypatch.setattr(sdm, "build", lambda s, r, max_size: swapped)
    assert not verify_sdm_spectrum(3, 4, trials=1).passed


def _wrong_array(s, r):
    # one distance-2 neighbour moved from c_2 to a_2: the row sums s*r and
    # the valencies stay, so only the split at distance 2 is off
    a, b, c, k = _intersection_array(s, r)
    a, c = a[:], c[:]
    a[2], c[2] = a[2] + 1, c[2] - 1
    return a, b, c, k


def test_level_check_rejects_a_wrong_array(monkeypatch):
    # the built matrix does not count a wrong array, nor wrong valencies,
    # and the certificate on it fails too
    matrix = sdm.build(3, 4)
    assert _level_failure(3, 4, matrix.levels, _wrong_array(3, 4)) == (
        "intersection numbers",
        "column 9 does not count c_2, a_2, b_2",
    )
    a, b, c, k = _intersection_array(3, 4)
    assert _level_failure(3, 4, matrix.levels, (a, b, c, k[::-1])) == (
        "intersection numbers",
        "row 0 does not count k_i cells at distance i",
    )
    forms = spectrum.distinct_eigenvalues(3, 4)
    assert _certificate_failure(_wrong_array(3, 4), forms)[0] == "characters"
    monkeypatch.setattr(oracle, "_intersection_array", _wrong_array)
    report = verify_sdm_spectrum(3, 4, trials=1)
    assert not report.passed


def test_level_check_rejects_a_wrong_side():
    # rows past the side, or missing ones, would go unchecked by the entry rule
    levels = sdm.build(2, 2).levels
    array = _intersection_array(2, 2)
    assert _level_failure(2, 2, levels + levels[:1], array) == (
        "entry rule",
        "side 7, want C(4,2) = 6",
    )
    assert _level_failure(2, 2, levels[:-1], array)[0] == "entry rule"


def _in_row_swap(levels):
    # row 1's cells in columns 1 and 2 exchanged; the two columns share a
    # level in row 0, so every row keeps its counts against row 0
    rows = [bytearray(row) for row in levels]
    rows[1][1], rows[1][2] = rows[1][2], rows[1][1]
    return rows


def _switch(rows_cols):
    # the level pairs on rows a, b and columns c, e exchanged, and their
    # mirror cells too: every row and column keeps its levels, and c, e
    # share a level in row 0, as do a, b
    a, b, c, e = rows_cols

    def tamper(levels):
        rows = [bytearray(row) for row in levels]
        assert rows[a][c] == rows[b][e] != rows[a][e] == rows[b][c]
        for i, j, k in ((a, c, e), (b, c, e), (c, a, b), (e, a, b)):
            rows[i][j], rows[i][k] = rows[i][k], rows[i][j]
        return rows

    return tamper


@pytest.mark.parametrize(
    "s, r, tamper",
    [
        (2, 3, _in_row_swap),
        (3, 4, _in_row_swap),
        (2, 3, _switch((1, 2, 4, 5))),
        (3, 4, _switch((1, 2, 5, 6))),
    ],
    ids=["in-row-2-3", "in-row-3-4", "switch-2-3", "switch-3-4"],
)
def test_certificate_rejects_matrices_that_keep_their_counts(monkeypatch, s, r, tamper):
    # each tampered matrix keeps every row's joint counts against row 0, and
    # its charpoly at x = (7, -3, 11[, 5]) differs from the closed form
    matrix = sdm.build(s, r)
    tampered = replace(matrix, levels=tuple(map(bytes, tamper(matrix.levels))))
    assert _level_failure(s, r, tampered.levels, _intersection_array(s, r))[0] == "entry rule"
    assert not _charpoly_agrees(
        tampered, spectrum.distinct_eigenvalues(s, r), [7, -3, 11, 5][: matrix.min_level + 1]
    )
    monkeypatch.setattr(sdm, "build", lambda s, r, max_size: tampered)
    assert not verify_sdm_spectrum(s, r, trials=1).passed


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
            "detail": "family 1 fails the recurrence at distance 2",
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
        _intersection_array(2, 3), [spectrum.distinct_eigenvalues(2, 3)[0]] * 3
    ) == ("distinct characters", "1 distinct families of 3, want 3")
    # d+1 distinct families and a copy: the multiplicities sum to 36 on a
    # side of 35, so the claim must fail although every row is a character
    forms = spectrum.distinct_eigenvalues(3, 4)
    assert _certificate_failure(_intersection_array(3, 4), forms + forms[:1]) == (
        "distinct characters",
        "4 distinct families of 5, want 4",
    )
    assert _certificate_failure(_intersection_array(3, 4), forms[1:]) == (
        "distinct characters",
        "3 distinct families of 3, want 4",
    )


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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_verify_gram_det_equals_det_poly(k):
    # the certified product and one integer determinant of all of G_s agree,
    # sign included
    for s in range(k + 1):
        g = build_gram(k, s)
        report = verify_gram_det(k, s)
        assert report.passed, (k, s, report.failures)
        assert report.extra["epsilon"] == 1
        assert report.extra["det"] == det_poly(g.entries).to_json(), (k, s)
        assert report.extra["method"] == "congruence"
        assert report.extra["side"] == g.n


@pytest.fixture
def no_det_poly(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate must not evaluate a determinant")

    monkeypatch.setattr(oracle, "det_poly", refuse)
    monkeypatch.setattr(oracle, "det_by_minors", refuse)
    monkeypatch.setattr(oracle, "charpoly", refuse)


def test_verify_gram_det_pass_path_runs_no_det_poly(no_det_poly, monkeypatch):
    # nor does it build G_s or a level matrix, pass over pairs of
    # partitions or enumerate partitions
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate must not build or enumerate")

    monkeypatch.setattr(gram_partition, "build_gram", refuse)
    monkeypatch.setattr(sdm, "build", refuse)
    monkeypatch.setattr(combinat, "set_partitions", refuse)
    monkeypatch.setattr(gram_partition, "set_partitions", refuse)
    for k in range(1, 6):
        for s in range(k + 1):
            assert verify_gram_det(k, s).passed, (k, s)


@pytest.mark.parametrize("s, side, z_nnz", [(0, 203, 2471), (4, 155, 830)])
def test_verify_gram_det_reaches_k6(no_det_poly, s, side, z_nnz):
    # past det_poly's cap of 120 (side 155) and at k = 6; nnz(Z) is
    # sum_b S(6,b) C(b,s) N(b,s), N(b,s) counting the partitions of b blocks
    # that keep s given ones apart
    report = verify_gram_det(6, s)
    assert report.passed, report.failures
    assert (report.extra["side"], report.extra["z_nnz"]) == (side, z_nnz)


@pytest.mark.parametrize("k, s", [(20, 20), (12, 11), (1200, 1200)])
def test_verify_gram_det_many_through_blocks_stay_cheap(no_det_poly, k, s):
    # joins of up to k blocks: only the coarsenings that keep the through
    # blocks apart are enumerated, not all Bell(k) of them; at k = 1200 the
    # enumeration is far past the interpreter's recursion limit
    assert verify_gram_det(k, s).passed


def _z_entry(row, column):
    # Z[(t,T),(p,P)] = 1 when p refines t and the blocks P land on s
    # distinct blocks of t, exactly T
    image = {}
    for a, b in zip(column.partition, row.partition):
        if image.setdefault(a, b) != b:
            return 0
    landed = {image[e - 1] + 1 for e in column.through_blocks}
    return int(landed == set(row.through_blocks))


@pytest.mark.parametrize("k", range(1, 6))
def test_verify_gram_det_z_nnz_counts_z(k):
    # Z from its definition: upper unitriangular in the row order of G_s,
    # with z_nnz nonzero entries
    for s in range(k + 1):
        diagrams = gram_partition.enumerate_half_diagrams(k, s)
        nonzero = [
            (i, j)
            for i, row in enumerate(diagrams)
            for j, column in enumerate(diagrams)
            if _z_entry(row, column)
        ]
        assert all(i <= j for i, j in nonzero), (k, s)
        assert {(i, i) for i in range(len(diagrams))} <= set(nonzero), (k, s)
        assert verify_gram_det(k, s).extra["z_nnz"] == len(nonzero), (k, s)


def _join(labels_p, labels_q):
    # the join of two partitions given by their block labels, as a
    # union-find over the points: its number of blocks, and the join block,
    # named by a point, of each block of p and of each block of q
    parent = list(range(len(labels_p)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for labels in (labels_p, labels_q):
        first = {}
        for x, lab in enumerate(labels):
            parent[find(x)] = find(first.setdefault(lab, x))
    roots = [find(x) for x in range(len(parent))]
    return len(set(roots)), dict(zip(labels_p, roots)), dict(zip(labels_q, roots))


def _cell_failure(g):
    """The first cell of g that differs from the same cell of Z^T D Z, read
    on its join type, as a JSON-ready dict, or None. Each pair of runs of
    rows that share a partition, p's at or before q's, gets its join from
    _join, and each row the set of join blocks its through blocks land on."""
    entry = functools.cache(lambda c, o: congruence_entry(g.s, c, o))
    runs = [
        (p, list(rows))
        for p, rows in itertools.groupby(range(g.n), key=lambda i: g.diagrams[i].partition)
    ]
    for a, (labels_p, rows_p) in enumerate(runs):
        for labels_q, rows_q in runs[a:]:
            c, land_p, land_q = _join(labels_p, labels_q)
            landed_q = [(j, {land_q[t - 1] for t in g.diagrams[j].through_blocks}) for j in rows_q]
            for i in rows_p:
                landed = {land_p[t - 1] for t in g.diagrams[i].through_blocks}
                for j, other in landed_q:
                    if len(landed) == g.s == len(other):
                        want = entry(c, len(landed & other))
                    else:
                        want = ZERO
                    for row, col in ((i, j), (j, i)):
                        if g.entries[row][col] != want:
                            got = g.entries[row][col].to_json()
                            return {"row": row, "column": col, "expected": want.to_json(), "got": got}
    return None


@pytest.mark.parametrize(
    "k, s",
    [(k, s) for k in range(1, 7) for s in range(k + 1)] + [(7, 5), (7, 6), (12, 11), (20, 19)],
)
def test_build_gram_cells_match_congruence(k, s):
    # the built G_s, cell by cell, against Z^T D Z on each cell's join type:
    # ties build_gram to the identities that verify_gram_det checks. Past
    # k = 6 most pairs of partitions have distinct joins, so build_gram's
    # merges are mostly new there, and _join is an independent union-find
    assert _cell_failure(build_gram(k, s)) is None


def _brute_congruence_entry(s, c, o, partitions):
    # congruence_entry's sum over the partitions t of the c join blocks,
    # kept when no block of t holds two blocks that P meets, or two that Q
    # meets; flag bit 1 marks a join block that P meets, bit 2 one that Q
    # meets
    flags = [3] * o + [1] * (s - o) + [2] * (s - o) + [0] * (c - 2 * s + o)
    terms = collections.Counter()
    for labels in partitions:
        unions = [0] * (max(labels) + 1)
        for lab, f in zip(labels, flags):
            if unions[lab] & f:
                break
            unions[lab] |= f
        else:
            terms[len(unions), unions.count(3)] += 1
    xsub = gram_partition.x_substitution_poly
    return sum((xsub(s, b - s, s - shared).scale(n) for (b, shared), n in terms.items()), ZERO)


@pytest.mark.parametrize("c", range(1, 10))
def test_congruence_entry_counts_the_coarsenings(c):
    # the counted sum against the enumerated one, for every join type
    partitions = [t for b in range(1, c + 1) for t in combinat.set_partitions(c, b)]
    for s in range(c + 1):
        for o in range(max(0, 2 * s - c), s + 1):
            want = _brute_congruence_entry(s, c, o, partitions)
            assert congruence_entry(s, c, o) == want, (s, c, o)


def _tampered_gram(k, s, i, j, value, mirror=True):
    g = build_gram(k, s)
    rows = [list(row) for row in g.entries]
    rows[i][j] = value
    if mirror:
        rows[j][i] = value
    return replace(g, entries=tuple(map(tuple, rows)))


def test_verify_gram_det_rejects_changed_entry():
    # one symmetric pair of G_1 on 3 points: x where the product is 0
    g = build_gram(3, 1)
    i, j = next((i, j) for i in range(g.n) for j in range(i) if g.entries[i][j] == ZERO)
    tampered = _tampered_gram(3, 1, i, j, X)
    assert _cell_failure(tampered) == {"row": j, "column": i, "expected": [], "got": ["0", "1"]}


def test_verify_gram_det_rejects_one_sided_change():
    # G_s changed below the diagonal only, between two partitions
    g = build_gram(3, 1)
    i, j = next(
        (i, j)
        for i in range(g.n)
        for j in range(i)
        if g.entries[i][j] == ZERO and g.diagrams[i].partition != g.diagrams[j].partition
    )
    tampered = _tampered_gram(3, 1, i, j, X, mirror=False)
    assert _cell_failure(tampered) == {"row": i, "column": j, "expected": [], "got": ["0", "1"]}


def test_verify_gram_det_forms_each_substitution_once_per_call(monkeypatch):
    # the congruence check and the E_l formation share one memo, which goes
    # with the call: a second call forms every X(s, r, t) again
    real = gram_partition.x_substitution_poly
    calls = []

    def counted(s, r, t):
        calls.append((s, r, t))
        return real(s, r, t)

    monkeypatch.setattr(gram_partition, "x_substitution_poly", counted)
    assert verify_gram_det(6, 2).passed
    first = list(calls)
    assert len(first) == len(set(first))
    assert {(s, r) for s, r, _ in first} == {(2, r) for r in range(5)}
    assert {(r, t) for _, r, t in first} == {(r, t) for r in range(5) for t in range(min(2, r) + 1)}
    assert verify_gram_det(6, 2).passed
    assert calls == first + first


def test_verify_gram_det_rejects_perturbed_substitution(monkeypatch, capsys):
    # X_0 of the r = 1 blocks of G_1 off by one: the congruence with the
    # closed form of G_s sees it, and so does the comparison of the certified
    # E_{1,l} with block_spectrum's, which is formed from linear factors
    real = gram_partition.x_substitution_poly

    def perturbed(s, r, t):
        x = real(s, r, t)
        return x + ONE if (s, r, t) == (1, 1, 1) else x

    monkeypatch.setattr(gram_partition, "x_substitution_poly", perturbed)
    report = verify_gram_det(3, 1)
    assert [f["step"] for f in report.failures] == ["congruence", "block spectrum"]
    assert report.extra["epsilon"] is None and report.extra["det"] is None
    assert gram_main(["partition", "--k", "3", "--s", "1", "--det"]) == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["det"] is None


def test_verify_gram_det_rejects_wrong_product_form(monkeypatch):
    # a factored form that the certified E_{2,1} of G_1 does not meet:
    # block_spectrum reports it, and the certificate refuses it
    real = gram_partition.product_form

    def shifted(s, r, l):
        p = real(s, r, l)
        return p * Polynomial.x_minus(9) if (s, r, l) == (1, 2, 1) else p

    monkeypatch.setattr(gram_partition, "product_form", shifted)
    report = verify_gram_det(3, 1)
    assert [(f["step"], f["r"]) for f in report.failures] == [("block spectrum", 2)]
    assert report.extra["det"] is None


def test_verify_gram_det_rejects_wrong_block_spectrum(monkeypatch):
    real = gram_partition.block_spectrum

    def wrong_multiplicity(k, s, r):
        spec = real(k, s, r)
        if r != 1:
            return spec
        l, e_l, m = spec.eigenpolys[0]
        return replace(spec, eigenpolys=((l, e_l, m + 1),) + spec.eigenpolys[1:])

    monkeypatch.setattr(gram_partition, "block_spectrum", wrong_multiplicity)
    report = verify_gram_det(3, 1)
    assert [(f["step"], f["r"]) for f in report.failures] == [("block spectrum", 1)]


def test_verify_gram_det_certifies_every_block_itself(monkeypatch):
    # a block list that leaves out r = k - s does not shorten the product:
    # the certificate loops over r itself
    real = gram_partition.block_spectra
    monkeypatch.setattr(gram_partition, "block_spectra", lambda k, s: real(k, s)[:-1])
    report = verify_gram_det(3, 1)
    assert report.passed
    det = Polynomial.of(map(int, report.extra["det"]))
    assert det == det_poly(build_gram(3, 1).entries)
    assert det.degree() == 12


def test_verify_gram_det_rejects_uncertified_block(monkeypatch):
    # the closed form of A^{3,1} with a coefficient off fails its certificate
    real = spectrum.distinct_eigenvalues
    monkeypatch.setattr(
        spectrum,
        "distinct_eigenvalues",
        lambda s, r: _perturbed(real(s, r), 1, 0) if (s, r) == (1, 2) else real(s, r),
    )
    report = verify_gram_det(3, 1)
    assert [(f["step"], f["r"]) for f in report.failures] == [("characters", 2)]


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_verify_gram_det_work_cap(monkeypatch, s):
    # the degree of det G_s on 7 points, sum_r r S(7,s+r) C(s+r,s), passes
    # MAX_DET_DEGREE; it is checked before anything is enumerated or built
    degree = {0: 3263, 1: 9604, 2: 10668, 3: 5600}[s]
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may run past the work cap")

    monkeypatch.setattr(gram_partition, "build_gram", refuse)
    monkeypatch.setattr(gram_partition, "x_substitution_poly", refuse)
    monkeypatch.setattr(oracle, "congruence_entry", refuse)
    monkeypatch.setattr(oracle, "_substitution_memo", refuse)
    monkeypatch.setattr(oracle, "_congruence_coeffs", refuse)
    monkeypatch.setattr(oracle, "_intersection_array", refuse)
    monkeypatch.setattr(sdm, "build", refuse)
    message = f"G_{s} on 7 points: size {degree} exceeds cap {oracle.MAX_DET_DEGREE}"
    with pytest.raises(SizeCapExceeded, match=message):
        verify_gram_det(7, s)


@pytest.mark.parametrize(
    "k, s", [(k, s) for k in range(1, 7) for s in range(k + 1)] + [(7, s) for s in range(4, 8)]
)
def test_semisimple_exceptions_are_the_zeros_of_the_certified_det(k, s):
    # every root of a block eigenpolynomial lies in [-1, 2k]
    det = Polynomial.of(map(int, verify_gram_det(k, s).extra["det"]))
    zeros = {x for x in range(-2, 2 * k + 3) if det.eval_at(x) == 0}
    assert gram_partition.semisimple_exceptions(k, s) == zeros
