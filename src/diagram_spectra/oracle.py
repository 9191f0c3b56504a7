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

Both certificates rest on the Johnson graph J(s+r, s), distance-regular of
diameter d = min(s,r) with intersection array b_i = (s-i)(r-i), c_i = i^2,
a_i = sr - b_i - c_i and valencies k_i = C(s,i) C(r,i) (Brouwer, Cohen &
Neumaier, Distance-Regular Graphs, 4.1 and 9.1; Delsarte 1973). Its
distance-i relation A_i is level d - i of A^{s+r,s}, and A_1 generates the
algebra the A_i span through A_1 A_i = b_{i-1} A_{i-1} + a_i A_i +
c_{i+1} A_{i+1}, so _certificate_failure checks a closed-form spectrum
against the array in O(d^2) integer operations, for every x at once.

verify_sdm_spectrum certifies the spectrum of A^{s+r,s} for every x at
once, in Python integers. The built level matrix must meet the paper's
entry rule in every cell, recomputed from indicators the oracle builds
itself, and then split the distance-1 neighbours of row 0 as the array says
at one column per distance, which ties the array to every pair since
S_{s+r} acts transitively on each relation. charpoly runs only when a check
fails, on `trials` random substitutions seeded by `seed`, to find
witnesses.

verify_gram_det certifies det G_s = prod_{r,l} E_{r,l}^{mult}, sign +1
included, from (k, s) alone, in closed-form arithmetic: it builds no G_s
and no level matrix, enumerates no partitions and evaluates no
determinant. It checks the paper's reduction as a congruence
G_s = Z^T D Z one join type at a time: a cell of either side depends only
on the number c of blocks of the join of its two partitions and the overlap
o of its two through choices, and a cell of Z^T D Z sums over the
coarsenings of the join that keep the two through choices apart, counted
by their block counts (Rota 1964). For s = 0 each identity is Stirling's
sum_b S(c,b) (x)_b = x^c, behind Lindstrom's determinant. Z is
unitriangular in block-count order, as a theorem, so det G_s = det D. Each
block of D, a substituted A^{s+r,s}, is certified with the certificate
above on the intersection array of J(s+r, s), for every r, against
block_spectrum(k, s, r), whose E_{r,l} is a product of linear factors, so
the det is expanded from their powers. Its work is capped by the degree of
the det, MAX_DET_DEGREE, since that expansion dominates; det_poly stays as
an independent cross-check in the tests.

Both verify_* functions produce machine-readable reports; failures are
reported with witnesses, never raised.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from operator import mul
from typing import Sequence

from . import gram_partition, sdm, spectrum
from .combinat import binomial, stirling2
from .errors import SizeCapExceeded
from .poly import ONE, X, ZERO, Polynomial, factor_product

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


def _intersection_array(s: int, r: int) -> tuple[list[int], ...]:
    """(a, b, c, k), the intersection array and the valencies of J(s+r, s)
    by distance i = 0..min(s,r) (BCN 9.1): two through sets at distance i
    share s - i points, level d - i."""
    d = min(s, r)
    b = [(s - i) * (r - i) for i in range(d + 1)]
    c = [i * i for i in range(d + 1)]
    a = [s * r - bi - ci for bi, ci in zip(b, c)]
    k = [math.comb(s, i) * math.comb(r, i) for i in range(d + 1)]
    return a, b, c, k


def _level_failure(s: int, r: int, levels: Sequence, array: Sequence) -> tuple[str, str] | None:
    """The first failed check of a level matrix of A^{s+r,s}, as (step,
    detail), or None when both hold:

    1. "entry rule": every cell is the paper's x_{d-f}, d = min(s,r), f the
       points through in one index diagram and horizontal in the other. The
       through sets T_j are recomputed here in lexicographic order, with P_e
       the packed indicator of point e (byte j is 1 when T_j holds e), and
       row i must be the bytes of d*1 - sum_{e not in T_i} P_e, whose byte j
       is d - |T_j minus T_i| = d - f. No byte of a partial sum passes f, so
       none carries or borrows.
    2. "intersection numbers": row 0 holds k_i cells at each distance i,
       and for the first column y at distance i in row 0, the s*r
       distance-1 neighbours of row 0 lie at distances i-1, i and i+1 from
       y exactly c_i, a_i and b_i times. Once every cell holds, the matrix
       is J(s+r, s)'s, whose relations S_{s+r} permutes transitively pair
       by pair, so one pair at each distance ties the array to all of them;
       row 0 holds every level, as T_0 meets some T_j in each of
       max(0, s-r)..s points."""
    d = min(s, r)
    through = list(itertools.combinations(range(s + r), s))
    n = len(through)
    if len(levels) != n:
        return "entry rule", f"side {len(levels)}, want C({s + r},{s}) = {n}"
    packed = [int.from_bytes(bytes(e in t for t in through), "little") for e in range(s + r)]
    top = d * int.from_bytes(b"\x01" * n, "little")
    for i, (t, row) in enumerate(zip(through, levels)):
        want = top - sum([packed[e] for e in range(s + r) if e not in t])
        if bytes(row) != want.to_bytes(n, "little"):
            return "entry rule", f"row {i} is not x_{{min(s,r)-f}} cell by cell"
    a, b, c, k = array
    if Counter(levels[0]) != Counter({d - i: ki for i, ki in enumerate(k)}):
        return "intersection numbers", "row 0 does not count k_i cells at distance i"
    near = [z for z, v in enumerate(levels[0]) if v == d - 1]
    for i in range(d + 1):
        y = levels[0].index(d - i)
        want = Counter({d - i + 1: c[i], d - i: a[i], d - i - 1: b[i]})
        if Counter(levels[y][z] for z in near) != want:
            return "intersection numbers", f"column {y} does not count c_{i}, a_{i}, b_{i}"
    return None


def _certificate_failure(array: Sequence, forms: Sequence) -> tuple[str, str] | None:
    """The first failed step of the Bose-Mesner certificate, as (step,
    detail), or None when every step holds.

    array = (a, b, c, k) is the intersection array and the valencies of a
    distance-regular graph of diameter d; forms claim the spectrum of
    sum_v x_v A_{d-v}, A_i its distance-i relation, so Q_l(i) =
    forms[l].coeffs[d - i] is the eigenvalue of A_i on family l.
    """
    a, b, c, k = array
    d = len(k) - 1
    # A_1 A_i = b_{i-1} A_{i-1} + a_i A_i + c_{i+1} A_{i+1}, A_0 = I, has no
    # A_{d+1} term (BCN 4.1), so A_i = v_i(A_1) and the last equation is A_1's
    # minimal polynomial: a row with Q_l(0) = 1 meeting every equation at
    # theta = Q_l(1) (at i = 0, as a_0 = 0 and c_1 = 1) is (v_i(theta))_i at
    # a root theta, the character of the algebra on an eigenspace of A_1
    rows = [f.coeffs[::-1] for f in forms]
    for l, q in enumerate(rows):
        if q[0] != 1:
            return "characters", f"family {l}: P_l({d}) = {q[0]}, want 1"
        for i in range(1, d + 1):
            up = c[i + 1] * q[i + 1] if i < d else 0
            if q[1] * q[i] != b[i - 1] * q[i - 1] + a[i] * q[i] + up:
                return "characters", f"family {l} fails the recurrence at distance {i}"
    # the algebra is commutative of dimension d+1, so d+1 distinct characters
    # are all of them: every eigenvalue of sum_v x_v A_{d-v} is one of the E_l
    distinct = len(set(rows))
    if len(rows) != d + 1 or distinct != d + 1:
        return "distinct characters", f"{distinct} distinct families of {len(rows)}, want {d + 1}"
    # orthogonality: m_l sum_i Q_l(i)^2 / k_i = n, over the common multiple
    # of the valencies, which sum to n, so it stays in integers
    n = sum(k)
    common = math.lcm(*k)
    for l, (q, f) in enumerate(zip(rows, forms)):
        if f.multiplicity * sum(qi * qi * (common // ki) for qi, ki in zip(q, k)) != n * common:
            return "multiplicities", f"family {l}: multiplicity {f.multiplicity} fails orthogonality"
    return None


# redraws per witness trial before the last draw is used as is: equal forms
# never separate, and distinct ones separate at almost every draw
_WITNESS_REDRAWS = 100


def verify_sdm_spectrum(
    s: int,
    r: int,
    trials: int = 5,
    seed: int = 0,
    max_size: int = DEFAULT_CHARPOLY_CAP,
) -> VerifyReport:
    """Certify the closed-form spectrum of A^{s+r,s} for every x at once.

    A pass proves, for the matrix sdm.build(s, r) returns, in its
    lexicographic order of through sets:
    1. every cell is x_{d-f}, d = min(s,r), as the paper defines A^{s+r,s}
       (_level_failure, step "entry rule"), so its level-v relation is the
       distance-(d-v) relation A_{d-v} of the Johnson graph J(s+r, s);
    2. the closed-form intersection array (a_i, b_i, c_i) and valencies k_i
       (_intersection_array, as each block of verify_gram_det takes them)
       are the matrix's own (step "intersection numbers");
    3. each coefficient row, read by distance as Q_l(i) = P_l(d-i), has
       Q_l(0) = 1 and meets the recurrence A_1 A_i = b_{i-1} A_{i-1} +
       a_i A_i + c_{i+1} A_{i+1} at theta = Q_l(1), so it is a character of
       the algebra the A_i span (BCN 4.1); the d+1 rows are distinct, so
       they are all of them, and the multiplicities satisfy
       n = m_l sum_i Q_l(i)^2 / k_i (_certificate_failure).
    Hence charpoly(sum_v x_v A_{d-v}) = prod_l (lambda - E_l)^{m_l} as
    polynomials in x_0..x_d, for every substitution at once.

    Only when the certificate fails do `trials` charpoly trials, seeded by
    `seed`, look for witnesses: each substitutes pseudo-random integers in
    [-9, 9] for x_0..x_d, redrawn (at most _WITNESS_REDRAWS times) until the
    E_l are pairwise distinct, and records a failure when charpoly of the
    substituted matrix differs from the prediction. When no trial witnesses
    the failure, the one failure entry names the failed certificate step.
    At least one trial is required, so that a failure can be witnessed.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    matrix = sdm.build(s, r, max_size=max_size)
    forms = spectrum.distinct_eigenvalues(s, r)
    array = _intersection_array(s, r)
    failed = _level_failure(s, r, matrix.levels, array) or _certificate_failure(array, forms)
    failures = []
    if failed is not None:
        rng = random.Random(f"{seed}:{s}:{r}")
        for trial in range(trials):
            for _ in range(_WITNESS_REDRAWS):
                values = [rng.randint(-9, 9) for _ in range(matrix.min_level + 1)]
                eigs = [f.eval_at(values) for f in forms]
                if len(set(eigs)) == len(eigs):
                    break
            got = charpoly(sdm.substitute(matrix, values), max_size=max_size)
            expected = ONE
            for e, f in zip(eigs, forms):
                expected = expected * Polynomial.x_minus_pow(e, f.multiplicity)
            if got != expected:
                failures.append(
                    {
                        "trial": trial,
                        "substitution": values,
                        "expected": expected.to_json(),
                        "got": got.to_json(),
                    }
                )
        if not failures:
            step, detail = failed
            failures.append({"trial": None, "substitution": None, "step": step, "detail": detail})
    return VerifyReport(
        target="sdm_spectrum",
        params={"s": s, "r": r, "seed": seed},
        trials=trials,
        passed=not failures,
        failures=failures,
    )


# the det's degree, sum_r r * stirling2(k,s+r) * C(s+r,s), counts the
# dominant work, expanding the det; every (k <= 6, s) fits, the largest
# being (6, 1) at degree 1712, and so does (7, 4) at 1435, while (7, 0..3),
# at 3263 and up, do not
MAX_DET_DEGREE = 2000


def _add_scaled(acc: list[int], c: int, coeffs: Sequence[int]) -> None:
    """acc += c * coeffs, coefficient by coefficient, growing acc as needed."""
    acc.extend([0] * (len(coeffs) - len(acc)))
    acc[: len(coeffs)] = [a + c * x for a, x in zip(acc, coeffs)]


def _substitution_memo(s: int):
    """xsub(r, t), the coefficients of X(s, r, t), each formed once while the
    memo lives: one certificate call. It reads the module attribute
    gram_partition.x_substitution_poly, so a patched X is the one checked."""
    return functools.cache(lambda r, t: gram_partition.x_substitution_poly(s, r, t).coeffs)


def _congruence_coeffs(s: int, c: int, o: int, xsub) -> list[int]:
    """congruence_entry(s, c, o) as a coefficient list, X(s, r, t) read from
    the memo xsub."""
    f = c - 2 * s + o
    acc: list[int] = []
    for j in range(s - o + 1):
        pairs = binomial(s - o, j) ** 2 * math.factorial(j)
        m = 2 * s - o - j
        for b in range(m, m + f + 1):
            spread = sum(
                binomial(f, i) * m ** (f - i) * stirling2(i, b - m) for i in range(b - m, f + 1)
            )
            _add_scaled(acc, pairs * spread, xsub(b - s, s - o - j))
    return acc


def congruence_entry(s: int, c: int, o: int) -> Polynomial:
    """(Z^T D Z)[(p,P),(q,Q)] when the join p v q has c blocks and the
    through blocks P and Q land on s distinct join blocks each, o of them in
    common.

    The entry sums D_t[T_P, T_Q] = X(s, b - s, s - o - j) over the
    partitions t of the c join blocks that keep P's blocks apart and Q's
    apart, counted (Rota 1964), not enumerated: t pairs j of the s - o blocks
    only P meets with j of those only Q meets, in C(s-o, j)^2 j! ways, and
    has m = 2s - o - j blocks that P or Q meets; of the f = c - 2s + o other
    join blocks, i make its b - m other blocks, in C(f, i) S(i, b - m) ways,
    and the rest join one of the m, in m^(f - i) ways.
    """
    return Polynomial.of(_congruence_coeffs(s, c, o, _substitution_memo(s)))


def _congruence_failure(k: int, s: int, xsub) -> dict | None:
    """The first join type (c, o) at which a cell of G_s and the same cell
    of Z^T D Z differ, as a failure entry, or None when every join type
    agrees.

    This covers every cell (p,P),(q,Q) of G_s. Let c be the number of blocks
    of the join p v q, s <= c <= k. When P and Q land on s distinct join
    blocks each, o of them in common (so 2s - o <= c), the cell of G_s is
    x^(c-s) when o = s and 0 otherwise, and that of Z^T D Z is
    congruence_entry(s, c, o), summed here from the call's memo: both are
    functions of (c, o). When P or Q lands on fewer than s join blocks,
    both are 0 by definition: the product's propagating number drops, and
    no coarsening of the join keeps those through blocks apart, so the sum
    is empty.
    """
    for c in range(max(s, 1), k + 1):
        for o in range(max(0, 2 * s - c), s + 1):
            want = X.pow(c - s) if o == s else ZERO
            got = Polynomial.of(_congruence_coeffs(s, c, o, xsub))
            if got != want:
                return {
                    "step": "congruence",
                    "c": c,
                    "o": o,
                    "expected": want.to_json(),
                    "got": got.to_json(),
                }
    return None


def verify_gram_det(k: int, s: int) -> VerifyReport:
    """Certify det G_s = prod_{r,l} E_{r,l}^{mult} symbolically, sign +1
    included, through the congruence G_s = Z^T D Z, from (k, s) alone: no
    G_s is built and no pair of partitions is visited.

    Raises SizeCapExceeded when the degree of the det passes
    MAX_DET_DEGREE, before any other work. Then two checks, none of which
    evaluates a determinant, builds a matrix or enumerates partitions:
    1. congruence: for every join type (c, o), a cell of G_s equals the
       same cell of Z^T D Z (_congruence_failure);
    2. block spectrum: for each r, the certificate of A^{s+r,s} on the
       intersection array of J(s+r, s) (_certificate_failure) proves
       det D_t = prod_l E_l^{m_l} for each of the stirling2(k,s+r)
       partitions t with s+r blocks, E_l = sum_v P_l(v) X_v formed from the
       certified rows; each E_l and its total multiplicity must equal
       block_spectrum's, whose E_{r,l} is product_form(s, r, l), so det G_s
       is a product of linear factors.

    Both checks read one memo of the substituted symbols X(s, r, t), so
    each is formed once per call, and sum each cell and each E_l in one
    integer coefficient list.

    Z is unitriangular in any row order by ascending block count, as a
    theorem: Z[(t,T),(p,P)] = 1 only when t is p or coarser, the identity
    coarsening gives the diagonal, and every other coarsening of p has fewer
    blocks than p. So det Z = 1 and det G_s = det D = prod_t det D_t.

    The report carries epsilon = 1 and det on a pass (None on a failure),
    method "congruence", the side of G_s and z_nnz = nnz(Z); each failed
    check gives one failure entry naming its step.
    """
    gram_partition._check_shape(k, s)
    copies = [stirling2(k, s + r) for r in range(k - s + 1)]
    side = sum(count * binomial(s + r, s) for r, count in enumerate(copies))
    degree = sum(r * count * binomial(s + r, s) for r, count in enumerate(copies))
    if degree > MAX_DET_DEGREE:
        raise SizeCapExceeded(f"degree of det G_{s} on {k} points", degree, MAX_DET_DEGREE)
    xsub = _substitution_memo(s)
    failures = []
    failed = _congruence_failure(k, s, xsub)
    if failed is not None:
        failures.append(failed)
    # nnz(Z): a column (p, P), p with b blocks, has one entry per coarsening
    # of p that keeps the s blocks of P apart: i of the other b - s blocks
    # make new blocks, in Bell(i) ways, and the rest join one of P's
    bell = [sum(stirling2(i, j) for j in range(i + 1)) for i in range(k - s + 1)]
    z_nnz = sum(
        stirling2(k, b)
        * binomial(b, s)
        * sum(binomial(b - s, i) * s ** (b - s - i) * bell[i] for i in range(b - s + 1))
        for b in range(s, k + 1)
    )
    exponents: Counter[int] = Counter()
    for r, count in enumerate(copies):
        if not count:
            # s + r = 0: no partition of k >= 1 points has 0 blocks
            continue
        forms = spectrum.distinct_eigenvalues(s, r)
        failed = _certificate_failure(_intersection_array(s, r), forms)
        if failed is not None:
            failures.append({"step": failed[0], "r": r, "detail": failed[1]})
            continue
        d = min(s, r)
        certified = []
        for f in forms:
            e_l: list[int] = []
            for v, c in enumerate(f.coeffs):
                _add_scaled(e_l, c, xsub(r, d - v))
            certified.append((f.l, Polynomial.of(e_l), count * f.multiplicity))
        spec_r = gram_partition.block_spectrum(k, s, r)
        if list(spec_r.eigenpolys) != certified:
            got = [[l, e.to_json(), m] for l, e, m in spec_r.eigenpolys]
            want = [[l, e.to_json(), m] for l, e, m in certified]
            failures.append({"step": "block spectrum", "r": r, "expected": want, "got": got})
            continue
        # block_spectrum's E_{r,l} is the product of x - a over these roots
        for l, _, mult in certified:
            for a in gram_partition.product_form_roots(s, r, l):
                exponents[a] += mult
    passed = not failures
    det = None
    if passed:
        # det G_s = prod_a (x - a)^{e_a}, e_a counting the certified linear
        # factors x - a with their multiplicities; each power is expanded by
        # the binomial theorem, in O(e_a) products of integers
        powers = (Polynomial.x_minus_pow(a, e) for a, e in sorted(exponents.items()))
        det = factor_product(powers).to_json()
    return VerifyReport(
        target="gram_det",
        params={"k": k, "s": s},
        trials=1,
        passed=passed,
        failures=failures,
        extra={
            "epsilon": 1 if passed else None,
            "det": det,
            "method": "congruence",
            "side": side,
            "z_nnz": z_nnz,
        },
    )
