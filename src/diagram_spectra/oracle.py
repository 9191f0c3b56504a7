"""Independent exact verification.

Two primitives, neither of which shares arithmetic with the closed-form
modules beyond the Polynomial container:

* charpoly: exact characteristic polynomial det(lambda*I - M) of an integer
  matrix, one path for every side. It reduces the matrix to Hessenberg form
  modulo a few Mersenne primes, O(n^3) per prime, and recovers the integer
  coefficients by CRT once the primes' product passes twice the integer
  Hadamard bound prod_i (isqrt(||row_i||^2) + 2). The prime pool caps that
  bound at about 19168 bits; past it charpoly raises SizeCapExceeded.
  Python integers only.

* det_poly: exact determinant of a matrix over Z[x] as one integer
  determinant (Kronecker substitution): the entries are evaluated at x = 2^b
  past a Hadamard-type bound on the coefficients of every minor, Bareiss
  elimination runs over Z, and the balanced base-2^b digits of the result
  are its coefficients. Sides up to 8 are recomputed by expansion by minors
  as a self-check.

verify_sdm_spectrum and verify_gram_det tie the primitives to the
closed-form predictions and produce machine-readable reports; failures are
reported with witnesses, never raised.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import mul
from typing import Sequence

from .errors import SizeCapExceeded
from .poly import ONE, ZERO, Polynomial

DEFAULT_CHARPOLY_CAP = 300
DEFAULT_DET_CAP = 120


def _check_square(m: Sequence[Sequence[object]]) -> int:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError(f"matrix is not square: row of length {len(row)}, side {n}")
    return n


# e with 2^e - 1 prime (tests re-check by Lucas-Lehmer); they cover a 19168-bit
# coefficient bound, e.g. side 300 with |entries| < 2^55
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)


def _charpoly_mod(m: Sequence[Sequence[int]], p: int) -> list[int]:
    """Coefficients (low to high) of charpoly(m) mod the prime p: reduce m to
    Hessenberg form H by similarity, then expand det(lambda*I - H) by
    P_{k+1} = (lambda - h_kk) P_k - sum_{i<k} h_ik h_{i+1,i}...h_{k,k-1} P_i."""
    n = len(m)
    a = [[v % p for v in row] for row in m]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if a[i][j]), None)
        if piv is None:
            continue
        a[piv], a[j + 1] = a[j + 1], a[piv]
        for row in a:
            row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(a[j + 1][j], -1, p)
        pivot_tail = a[j + 1][j:]
        fs = [0] * (j + 2) + [a[i][j] * inv % p for i in range(j + 2, n)]
        # row_i -= f_i row_{j+1} for all i first, then col_{j+1} += sum_i f_i col_i:
        # these eliminations commute, so the batched order is the same similarity
        for row, f in zip(a[j + 2 :], fs[j + 2 :]):
            if f:
                row[j:] = [(x - f * y) % p for x, y in zip(row[j:], pivot_tail)]
        for row in a:
            row[j + 1] = (row[j + 1] + sum(map(mul, fs, row))) % p
    polys = [[1]]
    for k in range(n):
        acc = [0] + polys[k]
        acc[: k + 1] = [x - a[k][k] * c for x, c in zip(acc, polys[k])]
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * a[i + 1][i] % p
            if not t:
                break
            coef = t * a[i][k] % p
            acc[: i + 1] = [x - coef * c for x, c in zip(acc, polys[i])]
        polys.append([v % p for v in acc])
    return polys[n]


def charpoly(m: Sequence[Sequence[int]], max_size: int = DEFAULT_CHARPOLY_CAP) -> Polynomial:
    """Exact det(lambda*I - m), monic of degree n: charpoly modulo the fewest
    leading Mersenne primes whose product passes twice the integer Hadamard
    bound prod_i (isqrt(||row_i||^2) + 2), combined by CRT.

    Raises SizeCapExceeded when the side passes max_size or when twice the
    bound passes the product of the whole prime pool (about 2^19168)."""
    n = _check_square(m)
    if n > max_size:
        raise SizeCapExceeded("charpoly", n, max_size)
    # Hadamard: |c_{n-k}| <= e_k(row norms) <= prod_i (1 + ||row_i||) < bound,
    # since isqrt(v) + 2 > sqrt(v) + 1
    bound = 1
    for row in m:
        bound *= math.isqrt(sum(v * v for v in row)) + 2
    primes, product = [], 1
    for e in _MERSENNE_EXPONENTS:
        if product > 2 * bound:
            break
        primes.append(2**e - 1)
        product *= primes[-1]
    if product <= 2 * bound:
        raise SizeCapExceeded(
            "charpoly coefficient bound in bits",
            (2 * bound).bit_length(),
            sum(_MERSENNE_EXPONENTS),
        )
    residues = [_charpoly_mod(m, p) for p in primes]
    # CRT: each basis element is 1 mod its own prime and 0 mod the others;
    # the symmetric residue mod the product is the coefficient itself
    basis = [product // p * pow(product // p, -1, p) for p in primes]
    half = product // 2
    coeffs = [(sum(map(mul, col, basis)) + half) % product - half for col in zip(*residues)]
    if coeffs[n] != 1:
        raise AssertionError("characteristic polynomial must be monic")
    return Polynomial.of(coeffs)


def det_by_minors(m: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Expansion by minors with memoization on column sets; side <= 8 only."""
    n = _check_square(m)
    if n > 8:
        raise ValueError(f"minor expansion is for side <= 8, got {n}")
    if n == 0:
        return ONE
    cache: dict[tuple[int, ...], Polynomial] = {}

    def rec(row: int, cols: tuple[int, ...]) -> Polynomial:
        if not cols:
            return ONE
        got = cache.get(cols)
        if got is not None:
            return got
        acc = ZERO
        for pos, c in enumerate(cols):
            entry = m[row][c]
            if entry.is_zero():
                continue
            sub = rec(row + 1, cols[:pos] + cols[pos + 1 :])
            term = entry * sub
            acc = acc + (term if pos % 2 == 0 else -term)
        cache[cols] = acc
        return acc

    return rec(0, tuple(range(n)))


def det_poly(
    m: Sequence[Sequence[Polynomial]], max_size: int = DEFAULT_DET_CAP
) -> Polynomial:
    """Exact determinant over Z[x] by fraction-free Bareiss elimination over
    Z at x = 2^b."""
    n = _check_square(m)
    if n > max_size:
        raise SizeCapExceeded("det_poly", n, max_size)
    if n == 0:
        return ONE
    # on |z| = 1, |m_ij(z)| <= ||m_ij||_1 (sum of |coefficients|), so by
    # Hadamard |minor(z)| <= prod of its row 2-norms < bound; by Cauchy's
    # estimate no coefficient of a minor, the determinant included, exceeds
    # its largest value on |z| = 1
    bound = 1
    for row in m:
        bound *= math.isqrt(sum(sum(map(abs, p.coeffs)) ** 2 for p in row)) + 1
    b = bound.bit_length() + 1
    # digits below 2^(b-1) make a packed minor zero exactly when the minor is
    a = [[p.eval_at(1 << b) for p in row] for row in m]
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        pv, top = a[col][col], a[col][col + 1 :]
        # exact: every Bareiss intermediate is a minor of m
        for row in a[col + 1 :]:
            f = row[col]
            row[col + 1 :] = [(pv * x - f * y) // prev for x, y in zip(row[col + 1 :], top)]
        prev = pv
    v = sign * a[n - 1][n - 1]
    digits = []
    half, mask = 1 << (b - 1), (1 << b) - 1
    while v:
        d = ((v + half) & mask) - half
        digits.append(d)
        v = (v - d) >> b
    det = Polynomial.of(digits)
    if n <= 8:
        check = det_by_minors(m)
        if check != det:
            raise AssertionError("Bareiss and minor-expansion determinants disagree")
    return det


@dataclass
class VerifyReport:
    """Outcome of one verification sweep, JSON-ready."""

    target: str
    params: dict
    trials: int
    passed: bool
    failures: list[dict] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "target": self.target,
            "params": self.params,
            "trials": self.trials,
            "passed": self.passed,
            "failures": self.failures,
        }
        out.update(self.extra)
        return out


def verify_sdm_spectrum(
    s: int,
    r: int,
    trials: int = 5,
    seed: int = 0,
    max_size: int = DEFAULT_CHARPOLY_CAP,
) -> VerifyReport:
    """Check the closed-form spectrum of A^{s+r,s} against exact charpolys.

    Each trial substitutes pseudo-random integers in [-9, 9] for the symbols
    x_0..x_min, redrawn until the E_l are pairwise distinct (two equal E_l
    would hide a wrong split of multiplicity between them), and compares
    charpoly(substituted matrix) with prod_l (lambda - E_l)^{m_l}. Equality
    must be exact, multiplicities included. At least one trial is required:
    zero trials would certify nothing.
    """
    from . import sdm, spectrum

    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    matrix = sdm.build(s, r, max_size=max_size)
    forms = spectrum.distinct_eigenvalues(s, r)
    rng = random.Random(f"{seed}:{s}:{r}")
    failures = []
    for trial in range(trials):
        # the forms are distinct linear forms, so a redraw soon separates them
        while True:
            values = [rng.randint(-9, 9) for _ in range(matrix.min_level + 1)]
            eigs = [f.eval_at(values) for f in forms]
            if len(set(eigs)) == len(eigs):
                break
        got = charpoly(sdm.substitute(matrix, values), max_size=max_size)
        expected = ONE
        for e, f in zip(eigs, forms):
            expected = expected * Polynomial.x_minus(e).pow(f.multiplicity)
        if got != expected:
            failures.append(
                {
                    "trial": trial,
                    "substitution": values,
                    "expected": expected.to_json(),
                    "got": got.to_json(),
                }
            )
    return VerifyReport(
        target="sdm_spectrum",
        params={"s": s, "r": r, "seed": seed},
        trials=trials,
        passed=not failures,
        failures=failures,
    )


def verify_gram_det(k: int, s: int, max_size: int = DEFAULT_DET_CAP) -> VerifyReport:
    """Check det G_s against the signed product of block eigenpolynomials.

    Passes when det_poly(build_gram(k,s)) equals eps times
    prod_{r,l} E_{r,l}^{mult} for eps in {+1,-1}; the measured eps is
    reported.
    """
    from . import gram_partition

    g = gram_partition.build_gram(k, s, max_size=max_size)
    det = det_poly(g.entries, max_size=max_size)
    expected = ONE
    for r in range(0, k - s + 1):
        for _, e_l, mult in gram_partition.block_spectrum(k, s, r).eigenpolys:
            expected = expected * e_l.pow(mult)
    failures = []
    eps = 0
    if det == expected:
        eps = 1
    elif det == -expected:
        eps = -1
    else:
        failures.append(
            {
                "substitution": None,
                "expected": expected.to_json(),
                "got": det.to_json(),
            }
        )
    return VerifyReport(
        target="gram_det",
        params={"k": k, "s": s},
        trials=1,
        passed=not failures,
        failures=failures,
        extra={"epsilon": eps if eps else None, "det": det.to_json()},
    )
