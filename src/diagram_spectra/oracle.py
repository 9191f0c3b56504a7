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

verify_sdm_spectrum certifies the spectrum of A^{s+r,s} symbolically, for
every x at once, in Python integers. Its level relations A_0..A_d
(d = min(s,r)) are those of the Johnson scheme J(s+r, s). The closed form
passes when its coefficient rows are d+1 distinct characters of the algebra
spanned by the A_v, with P_l(d) = 1, and its multiplicities meet the
orthogonality relation n = m_l sum_v P_l(v)^2 / k_v (Delsarte 1973;
Brouwer, Cohen & Neumaier, Distance-Regular Graphs, ch. 2 and 9.1). The
intersection numbers p^u_vw it takes are counted in closed form, as in the
Gram certificate below, and tied to the built level matrix: every column,
read against row 0, must count them. charpoly runs only when the
certificate fails, on `trials` random substitutions seeded by `seed`, to
find witnesses.

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
above on the counted intersection numbers of J(s+r, s), for every r,
against block_spectrum(k, s, r), whose E_{r,l} is a product of linear
factors, so the det is expanded from their powers. Its work is capped by
the degree of the det, MAX_DET_DEGREE, since that expansion dominates;
det_poly stays as an independent cross-check in the tests.

Both verify_* functions produce machine-readable reports; failures are
reported with witnesses, never raised.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter, mul
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


def _intersection_numbers(s: int, r: int) -> list[list[list[int]]]:
    """p[u][v][w] = p^u_vw of the Johnson scheme J(s+r, s), counted; level v
    is overlap a_v = v + s - d, d = min(s,r). Fix through sets A, B at level
    u; a C at level v from A and w from B has x elements in A cap B, a_v - x
    in A minus B, a_w - x in B minus A and s - a_v - a_w + x among the
    r - s + a_u others. At most d + 1 values of x give terms, each with
    binomials in math.comb's range; p^u_vw = p^u_wv, so w runs from v up."""
    d = min(s, r)
    a = [v + s - d for v in range(d + 1)]
    comb = math.comb
    p = [[[0] * (d + 1) for _ in a] for _ in a]
    for pu, au in zip(p, a):
        for v, w in itertools.combinations_with_replacement(range(d + 1), 2):
            av, aw = a[v], a[w]
            xs = range(max(0, au + av - s, au + aw - s, av + aw - s), min(au, av, aw) + 1)
            if xs:
                pu[v][w] = pu[w][v] = sum(
                    comb(au, x) * comb(s - au, av - x) * comb(s - au, aw - x)
                    * comb(r - s + au, s - av - aw + x)
                    for x in xs
                )
    return p


def _tie_failure(levels: Sequence, p: Sequence) -> tuple[str, str] | None:
    """The first column y of a level matrix whose counts #{z : levels[0][z]
    = v, levels[y][z] = w} are not p[u][v][w] for u = levels[0][y], as
    ("intersection numbers", detail), or None when every column counts p.
    With p counted for J(s+r, s), this ties the built matrix to the scheme;
    as p^d_vv = k_v >= 1 and k_d = 1, row 0 must hold every level, and
    level d only on the diagonal."""
    d = len(p) - 1
    row0 = levels[0]
    # the columns z in order of their level in row 0, so that the z at
    # level v form one span; levels are at most d, far below 256 at any
    # buildable side, so a row fits bytes
    order = sorted(range(len(row0)), key=row0.__getitem__)
    ends = list(itertools.accumulate(row0.count(v) for v in range(d + 1)))
    spans = list(zip([0] + ends, ends))
    pick = itemgetter(*order) if len(order) > 1 else lambda row: (row[0],)
    # p[u] flattened, v major, the order in which a row's counts are taken
    want = [[c for pv in pu for c in pv] for pu in p]
    ws = range(d + 1)
    for y, row in enumerate(levels):
        picked = bytes(pick(row))
        u = row0[y]
        if u > d or [picked.count(w, a, b) for a, b in spans for w in ws] != want[u]:
            return "intersection numbers", f"column {y} at level {u} does not count p^{u}_vw"
    return None


def _certificate_failure(p: Sequence, forms: Sequence) -> tuple[str, str] | None:
    """The first failed step of the Bose-Mesner certificate, as (step,
    detail), or None when every step holds.

    p[u][v][w] = p^u_vw are the intersection numbers of a commutative
    association scheme with relations A_0..A_d, A_d the identity; forms
    claim the spectrum of sum_v x_v A_v, P_l(v) = forms[l].coeffs[v] being
    the eigenvalue of A_v on family l.
    """
    d = len(p) - 1
    # P_l(v) P_l(w) = sum_u p^u_vw P_l(u) makes row l a character of the
    # Bose-Mesner algebra spanned by A_0..A_d; P_l(d) = 1 since A_d = I
    rows = [f.coeffs for f in forms]
    for l, pl in enumerate(rows):
        if pl[d] != 1:
            return "characters", f"family {l}: P_l({d}) = {pl[d]}, want 1"
        for v in range(d + 1):
            for w in range(d + 1):
                if pl[v] * pl[w] != sum(p[u][v][w] * pl[u] for u in range(d + 1)):
                    return "characters", f"family {l} is not multiplicative at levels ({v}, {w})"
    # the algebra is commutative of dimension d+1, so d+1 distinct characters
    # are all of them: every eigenvalue of sum_v x_v A_v is one of the E_l
    if len(set(rows)) != d + 1:
        return "distinct characters", "two families have the same coefficients"
    # orthogonality: m_l sum_v P_l(v)^2 / k_v = n, over the common multiple
    # of the valencies k_v = p^d_vv, which sum to n, so it stays in integers
    k = [p[d][v][v] for v in range(d + 1)]
    n = sum(k)
    common = math.lcm(*k)
    for l, (pl, f) in enumerate(zip(rows, forms)):
        if f.multiplicity * sum(c * c * (common // kv) for c, kv in zip(pl, k)) != n * common:
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

    The level relations A_0..A_d (d = min(s,r)) of A^{s+r,s} are those of
    the Johnson scheme J(s+r, s). Their intersection numbers p^u_vw are
    counted (_intersection_numbers), the same ones each block of
    verify_gram_det takes, and tied to the built level matrix (_tie_failure,
    step "intersection numbers"). The closed form passes when its
    coefficient rows P_l(v) are d+1 distinct characters of the algebra they
    span (P_l(d) = 1, P_l(v) P_l(w) = sum_u p^u_vw P_l(u)) whose
    multiplicities satisfy n = m_l sum_v P_l(v)^2 / k_v. Then
    charpoly(sum_v x_v A_v) = prod_l (lambda - E_l)^{m_l} identically; see
    _certificate_failure.

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
    p = _intersection_numbers(s, r)
    failed = _tie_failure(matrix.levels, p) or _certificate_failure(p, forms)
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
    xsub = gram_partition.x_substitution_poly
    f = c - 2 * s + o
    acc = ZERO
    for j in range(s - o + 1):
        pairs = binomial(s - o, j) ** 2 * math.factorial(j)
        m = 2 * s - o - j
        for b in range(m, m + f + 1):
            spread = sum(
                binomial(f, i) * m ** (f - i) * stirling2(i, b - m) for i in range(b - m, f + 1)
            )
            acc = acc + xsub(s, b - s, s - o - j).scale(pairs * spread)
    return acc


def _congruence_failure(k: int, s: int) -> dict | None:
    """The first join type (c, o) at which a cell of G_s and the same cell
    of Z^T D Z differ, as a failure entry, or None when every join type
    agrees.

    This covers every cell (p,P),(q,Q) of G_s. Let c be the number of blocks
    of the join p v q, s <= c <= k. When P and Q land on s distinct join
    blocks each, o of them in common (so 2s - o <= c), the cell of G_s is
    x^(c-s) when o = s and 0 otherwise, and that of Z^T D Z is
    congruence_entry(s, c, o): both are functions of (c, o). When P or Q
    lands on fewer than s join blocks, both are 0 by definition: the
    product's propagating number drops, and no coarsening of the join keeps
    those through blocks apart, so the sum is empty.
    """
    for c in range(max(s, 1), k + 1):
        for o in range(max(0, 2 * s - c), s + 1):
            want = X.pow(c - s) if o == s else ZERO
            got = congruence_entry(s, c, o)
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
    2. block spectrum: for each r, the Bose-Mesner certificate of
       A^{s+r,s} (_certificate_failure), on the counted intersection
       numbers of J(s+r, s), proves det D_t = prod_l E_l^{m_l} for each of
       the stirling2(k,s+r) partitions t with s+r blocks, where E_l =
       sum_v P_l(v) X_v is formed from the certified rows; each E_l and its
       total multiplicity must equal block_spectrum's, whose E_{r,l} is
       product_form(s, r, l), so det G_s is a product of linear factors.

    Z is unitriangular in any row order by ascending block count, as a
    theorem: Z[(t,T),(p,P)] = 1 only when t is p or coarser, the identity
    coarsening gives the diagonal, and every other coarsening of p has fewer
    blocks than p. So det Z = 1 and det G_s = det D = prod_t det D_t.

    The report carries epsilon = 1 and det on a pass (None on a failure),
    method "congruence", the side of G_s and z_nnz = nnz(Z); each failed
    check gives one failure entry naming its step.
    """
    side = gram_partition.gram_side(k, s, math.inf)  # checks the shape first
    copies = [stirling2(k, s + r) for r in range(k - s + 1)]
    degree = sum(r * count * binomial(s + r, s) for r, count in enumerate(copies))
    if degree > MAX_DET_DEGREE:
        raise SizeCapExceeded(f"degree of det G_{s} on {k} points", degree, MAX_DET_DEGREE)
    failures = []
    failed = _congruence_failure(k, s)
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
        failed = _certificate_failure(_intersection_numbers(s, r), forms)
        if failed is not None:
            failures.append({"step": failed[0], "r": r, "detail": failed[1]})
            continue
        d = min(s, r)
        xs = [gram_partition.x_substitution_poly(s, r, d - v) for v in range(d + 1)]
        certified = []
        for f in forms:
            e_l = ZERO
            for c, x_v in zip(f.coeffs, xs):
                e_l = e_l + x_v.scale(c)
            certified.append((f.l, e_l, count * f.multiplicity))
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
