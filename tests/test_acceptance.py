"""Acceptance gate: one test per numbered acceptance criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Every check is exact integer or exact polynomial equality; there
are no tolerances anywhere.

Criterion 8 pins the semisimplicity exception set of G_1 on 3 points as
{0, 2, 3}. An earlier pin of {0, 1, 2, 3} was corrected after two
independent routes showed it wrong. First, G_1 rebuilt from literal diagram
composition with standard-library code only
(`tests/test_diagram_composition.py`) has determinant x^5 (x-2)^6 (x-3),
which is -2 at x = 1. Second, the union over s of the G_s exception sets
equals {0, ..., 2k-2}, the set at which the partition algebra P_k(x) is not
semisimple (Martin & Saleur; Halverson & Ram).
"""

import random
import time

from diagram_spectra import sdm
from diagram_spectra.combinat import binomial
from diagram_spectra.gram_partition import (
    build_gram,
    product_form,
    semisimple_exceptions,
    x_substitution_poly,
)
from diagram_spectra.gram_signed_z2 import (
    SignedBlockKey,
    block_spectrum_tensor,
    x_e_poly,
    x_z2_poly,
)
from diagram_spectra.oracle import charpoly, det_poly, verify_gram_det, verify_sdm_spectrum
from diagram_spectra.poly import ONE, ZERO, Polynomial, factor_product
from diagram_spectra.spectrum import (
    difference_transform,
    distinct_eigenvalues,
    eberlein_coefficient,
)


def test_criterion_1_golden_spectra():
    """Closed-form spectra match the four published eigenvalue sets exactly."""
    golden = {
        (1, 1): {(1, 1), (-1, 1)},
        (2, 2): {(1, 4, 1), (-1, 0, 1), (1, -2, 1)},
        (3, 2): {(3, 6, 1), (-2, 1, 1), (1, -2, 1)},
        (4, 3): {(4, 18, 12, 1), (-3, -3, 5, 1), (2, -3, 0, 1), (-1, 3, -3, 1)},
    }
    for (s, r), want in golden.items():
        forms = distinct_eigenvalues(s, r)
        got = {f.coeffs for f in forms}
        assert got == want, f"spectrum of A^{{{s + r},{s}}}: got {sorted(got)}"
        assert len(forms) == min(s, r) + 1


def test_criterion_2_spectral_certificate():
    """The Johnson-scheme certificate holds for the predicted spectrum, for
    every x at once, for every s+r <= 9; charpoly runs only on failure."""
    start = time.monotonic()
    checked = 0
    for n in range(1, 10):
        for s in range(0, n + 1):
            r = n - s
            assert binomial(n, s) <= 126
            report = verify_sdm_spectrum(s, r, trials=5, seed=7)
            assert report.passed, (s, r, report.failures)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 54
    # stated runtime target is < 60 s total; measured ~0.03 s on a 2-core host
    print(f"\n  54 spectra certified in {elapsed:.1f} s")


def test_criterion_3_matrix_shape_laws():
    """Symmetry, diagonal level, and per-row level counts, all s+r <= 10."""
    for n in range(1, 11):
        for s in range(0, n + 1):
            r = n - s
            m = sdm.build(s, r)
            lo = m.min_level
            for i in range(m.n):
                assert m.levels[i][i] == lo
                for j in range(m.n):
                    assert m.levels[i][j] == m.levels[j][i]
            for i in range(m.n):
                counts = [0] * (lo + 1)
                for v in m.levels[i]:
                    counts[v] += 1
                for t in range(lo + 1):
                    assert counts[lo - t] == binomial(s, t) * binomial(r, t), (s, r, i, t)


def test_criterion_4_gram_determinant_factorization():
    """det G_s = eps * prod E_{r,l}^mult with eps in {+1,-1}, all k <= 4."""
    for k in range(1, 5):
        for s in range(0, k + 1):
            report = verify_gram_det(k, s)
            assert report.passed, (k, s, report.failures)
            assert report.extra["epsilon"] in (1, -1), (k, s)
    pinned = verify_gram_det(2, 1)
    assert pinned.extra["det"] == ["0", "-2", "1"]  # x(x-2)
    assert pinned.extra["epsilon"] == 1


def _sum_form(s: int, r: int, l: int) -> Polynomial:
    lo = min(s, r)
    acc = ZERO
    for t in range(lo + 1):
        acc = acc + x_substitution_poly(s, r, t).scale(eberlein_coefficient(s, r, l, t))
    return acc


def test_criterion_5_product_form_identity():
    """Sum form equals the corrected product form; printed bound flagged."""
    for s in range(0, 7):
        for r in range(0, 7):
            for l in range(0, min(s, r) + 1):
                assert _sum_form(s, r, l) == product_form(s, r, l), (s, r, l)
    # the printed second-product bound min(s,r)-l-1 agrees whenever r <= s
    for s in range(0, 7):
        for r in range(0, s + 1):
            for l in range(0, min(s, r) + 1):
                printed = factor_product(
                    Polynomial.x_minus(s - 1 + i) for i in range(l)
                ) * factor_product(
                    Polynomial.x_minus(2 * s + j) for j in range(min(s, r) - l)
                )
                assert printed == product_form(s, r, l), (s, r, l)
    # and is degree-inconsistent for r > s: witness (s, r, l) = (1, 2, 0)
    s, r, l = 1, 2, 0
    printed = factor_product(Polynomial.x_minus(2 * s + j) for j in range(min(s, r) - l))
    want = Polynomial.x_minus(2) * Polynomial.x_minus(3)
    assert _sum_form(s, r, l) == want
    assert printed.degree() == 1
    assert printed.degree() != _sum_form(s, r, l).degree()


def test_criterion_6_difference_recurrence():
    """a^{l+1}_t = a^l_t - a^l_{t-1} on 100 random integer sequences."""
    rng = random.Random(1729)
    for _ in range(100):
        base = [rng.randint(-50, 50) for _ in range(rng.randint(1, 8))]
        l = rng.randint(0, 6)
        cur = difference_transform(base, l)
        nxt = difference_transform(base, l + 1)
        for t in range(len(base)):
            prev = cur[t - 1] if t >= 1 else 0
            assert nxt[t] == cur[t] - prev, (base, l, t)


def _substituted_block(s, r, subst_poly, point):
    """A^{s+r,s} with symbol x_{min-t} evaluated via subst_poly(s, r, t)."""
    if s + r == 0:
        return [[1]]
    m = sdm.build(s, r)
    lo = m.min_level
    values = [subst_poly(s, r, lo - v).eval_at(point) for v in range(lo + 1)]
    return sdm.substitute(m, values)


def _kron(a, b):
    n1, n2 = len(a), len(b)
    return [
        [a[i1][j1] * b[i2][j2] for j1 in range(n1) for j2 in range(n2)]
        for i1 in range(n1)
        for i2 in range(n2)
    ]


def test_criterion_7_tensor_spectra():
    """Kronecker-product charpolys match the predicted tensor spectra."""
    rng = random.Random(42)
    for s1 in range(0, 3):
        for r1 in range(0, 3):
            for s2 in range(0, 3):
                for r2 in range(0, 3):
                    size = binomial(s1 + r1, s1) * binomial(s2 + r2, s2)
                    if size > 36:
                        continue
                    key = SignedBlockKey(
                        k=s1 + s2 + r1 + r2, s1=s1, s2=s2, r1=r1, r2=r2
                    )
                    spec = block_spectrum_tensor(key, "z2")
                    assert sum(m for _, _, _, m in spec) == size
                    for _ in range(3):
                        point = rng.randint(-9, 9)
                        e_blk = _substituted_block(s1, r1, x_e_poly, point)
                        z_blk = _substituted_block(s2, r2, x_z2_poly, point)
                        got = charpoly(_kron(e_blk, z_blk))
                        expected = ONE
                        for _, _, p, mult in spec:
                            expected = expected * Polynomial.x_minus(
                                p.eval_at(point)
                            ).pow(mult)
                        assert got == expected, (s1, r1, s2, r2, point)


def test_criterion_8_semisimplicity_roots():
    """Exception sets: cross-evaluation and the two pinned sets.

    The pin for G_1 on 3 points is {0, 2, 3}, corrected from {0, 1, 2, 3}:
    the diagram-composition derivation gives det = x^5 (x-2)^6 (x-3), nonzero
    at x = 1, and the P_k semisimplicity theorem agrees (see the module
    docstring).
    """
    dets = {}
    for k, s in [(2, 1), (3, 1)]:
        reported = semisimple_exceptions(k, s)
        det = det_poly(build_gram(k, s).entries)
        dets[(k, s)] = det
        for x_star in sorted(reported):
            assert det.eval_at(x_star) == 0, (k, s, x_star)
        for x in range(-1, 2 * k + 1):
            if x not in reported:
                assert det.eval_at(x) != 0, (k, s, x)
    assert semisimple_exceptions(2, 1) == {0, 2}
    got = semisimple_exceptions(3, 1)
    det31 = dets[(3, 1)]
    assert got == {0, 2, 3}, (
        f"pinned set {{0, 2, 3}} but computed exceptions are {sorted(got)}; "
        f"det G_1 on 3 points is {det31} with det(1) = {det31.eval_at(1)}"
    )
