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
(d = min(s,r)) are those of the Johnson scheme J(s+r, s). The intersection
numbers p^u_vw are read off row 0 of the level matrix against every column:
S_{s+r} permutes positions, so it acts transitively on the through sets and
keeps overlaps, and row 0 stands for every row. The closed form passes when
its coefficient rows are d+1 distinct characters of the algebra spanned by
the A_v, with P_l(d) = 1, and its multiplicities meet the orthogonality
relation n = m_l sum_v P_l(v)^2 / k_v (Delsarte 1973; Brouwer, Cohen &
Neumaier, Distance-Regular Graphs, ch. 2 and 9.1). charpoly runs only when
the certificate fails, on `trials` random substitutions seeded by `seed`,
to find witnesses.

verify_gram_det certifies det G_s = prod_{r,l} E_{r,l}^{mult}, sign +1
included, without evaluating a determinant. It checks the paper's reduction
as a congruence G_s = Z^T D Z entry by entry, on the same pass over pairs
of partitions that builds G_s (gram_partition.join_masks); an entry of
Z^T D Z sums over the coarsenings of a join that keep two through choices
apart, enumerated by combinat.restricted_growth. Z is unitriangular in the
row order of G_s, so det G_s = det D, because every coarsening of a
partition other than itself has fewer blocks and the block counts of the
rows never decrease. Each block of D, a substituted A^{s+r,s}, is certified
with the certificate above, for every r, against block_spectrum(k, s, r); a
G_s passed in must have the rows of shape (k, s). Its work is the n^2 cells
of G_s, capped by MAX_CONGRUENCE_CELLS; det_poly stays as an independent
cross-check in the tests.

Both verify_* functions produce machine-readable reports; failures are
reported with witnesses, never raised.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter, mul
from typing import Sequence

from . import gram_partition, sdm, spectrum
from .combinat import binomial, restricted_growth, stirling2
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


def _certificate_failure(
    levels: Sequence[Sequence[int]], d: int, forms: Sequence
) -> tuple[str, str] | None:
    """The first failed step of the Bose-Mesner certificate, as (step,
    detail), or None when every step holds.

    levels is a symmetric level matrix with levels 0..d and level d on the
    diagonal; forms claim its spectrum, P_l(v) = forms[l].coeffs[v] being
    the eigenvalue of the level-v relation A_v on family l.
    """
    n = len(levels)
    row0 = levels[0]
    groups: list[list[int]] = [[] for _ in range(d + 1)]
    for z, v in enumerate(row0):
        groups[v].append(z)
    missing = [u for u, g in enumerate(groups) if not g]
    if missing:
        return "intersection numbers", f"row 0 misses level {missing[0]}"
    if groups[d] != [0]:
        return "intersection numbers", f"level {d} is not the identity relation"
    # p^u_vw = #{z : level(0, z) = v, level(z, y) = w} for any column y at
    # level u. Row 0 is enough: S_{s+r} permutes positions, so it acts
    # transitively on the through sets and keeps overlaps, hence levels; a
    # column's numbers are read off row y, the matrix being symmetric. Levels
    # are at most d, far below 256 at any buildable side, so a row fits bytes
    order = [z for g in groups for z in g]
    spans, lo = [], 0
    for g in groups:
        spans.append((lo, lo + len(g)))
        lo += len(g)
    pick = itemgetter(*order) if n > 1 else lambda row: (row[0],)
    p: list[list[list[int]] | None] = [None] * (d + 1)
    for y, row in enumerate(levels):
        picked = bytes(pick(row))
        table = [[picked.count(w, a, b) for w in range(d + 1)] for a, b in spans]
        u = row0[y]
        if p[u] is None:
            p[u] = table
        elif p[u] != table:
            return "intersection numbers", f"column {y} disagrees with an earlier one at level {u}"
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
    # of the valencies k_v = p^d_vv so that it stays in integers
    k = [p[d][v][v] for v in range(d + 1)]
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
    the Johnson scheme J(s+r, s). Their intersection numbers p^u_vw are read
    off the level matrix, and the closed form passes when its coefficient
    rows P_l(v) are d+1 distinct characters of the algebra they span
    (P_l(d) = 1, P_l(v) P_l(w) = sum_u p^u_vw P_l(u)) whose multiplicities
    satisfy n = m_l sum_v P_l(v)^2 / k_v. Then charpoly(sum_v x_v A_v) =
    prod_l (lambda - E_l)^{m_l} identically; see _certificate_failure.

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
    failed = _certificate_failure(matrix.levels, matrix.min_level, forms)
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


# every (k <= 6, s) fits: the largest, (6, 2), has side 856, and (7, 0),
# side 877, is the smallest k = 7 shape that does not
MAX_CONGRUENCE_CELLS = 750_000


def gram_det_side(k: int, s: int, max_size: int = gram_partition.DEFAULT_MAX_SIZE) -> int:
    """Side n of G_s on k points, computed without enumerating. Raises
    SizeCapExceeded when n passes max_size or when the n^2 cells that
    verify_gram_det compares pass MAX_CONGRUENCE_CELLS."""
    n = gram_partition.gram_side(k, s, max_size)
    if n * n > MAX_CONGRUENCE_CELLS:
        raise SizeCapExceeded(
            f"congruence cells of G_{s} on {k} points", n * n, MAX_CONGRUENCE_CELLS
        )
    return n


def _congruence_failure(g: gram_partition.GramMatrix) -> dict | None:
    """The first entry where G_s and Z^T D Z differ, as a failure entry, or
    None when they agree everywhere.

    (Z^T D Z)[(p,P),(q,Q)] sums D_t[T_P, T_Q] over the partitions t that are
    p or coarser and q or coarser, i.e. the coarsenings of the join p v q,
    on which P and Q each land on s distinct blocks. It is 0 when P or Q
    already shares a join block. Otherwise, in terms of the c join blocks, P
    and Q meet s distinct ones each, o of them in common; a permutation of
    the join blocks carries the coarsenings of one such configuration onto
    those of another with the same c and o, keeping block counts and
    overlaps, so the sum depends on (c, o) only and is computed once for
    each (c, o), at a canonical configuration.
    """
    s, rows = g.s, g.entries
    xsub = gram_partition.x_substitution_poly

    @functools.cache
    def congruence_entry(c: int, o: int) -> Polynomial:
        # flag bit 1 marks a join block that P meets, bit 2 one that Q meets
        flags = [3] * o + [1] * (s - o) + [2] * (s - o) + [0] * (c - 2 * s + o)
        terms = Counter((len(u), u.count(3)) for _, u in restricted_growth(flags))
        acc = ZERO
        for (blocks, shared), count in terms.items():
            acc = acc + xsub(s, blocks - s, s - shared).scale(count)
        return acc

    for c, masks_p, masks_q in gram_partition.join_masks(g.diagrams):
        for i, mask in masks_p:
            for j, other in masks_q:
                if mask.bit_count() == s == other.bit_count():
                    want = congruence_entry(c, (mask & other).bit_count())
                else:
                    want = ZERO
                for row, col in ((i, j), (j, i)):
                    if rows[row][col] != want:
                        return {
                            "step": "congruence",
                            "row": row,
                            "column": col,
                            "expected": want.to_json(),
                            "got": rows[row][col].to_json(),
                        }
    return None


def _unitriangular_failure(g: gram_partition.GramMatrix, k: int, s: int, n: int) -> dict | None:
    """Check that Z is upper unitriangular in the row order of G_s.

    Z[(t,T),(p,P)] = 1 exactly when t is a coarsening of p on which the
    through blocks P land on s distinct blocks, T. The identity coarsening
    gives the entry at ((p,P),(p,P)), and any other coarsening of p has
    fewer blocks than p. So Z is upper unitriangular when the rows are the
    n = gram_side(k, s) half diagrams of shape (k, s), each once, and their
    block counts never decrease: then every row of Z is a row of G_s, and a
    coarsening other than the identity sits above the diagonal. Any other
    order fails here, even one in which Z happens to be triangular.
    (k, s) is the shape being certified, so G_s of another shape fails
    here. Returns the first failure entry, or None.
    """
    distinct = {(d.partition.block_assignment, d.through_blocks.elements) for d in g.diagrams}
    if len(distinct) != n or any(d.k != k or d.s != s for d in g.diagrams):
        detail = f"the {len(g.diagrams)} rows are not the {n} half diagrams of shape ({k}, {s})"
        return {"step": "unitriangular", "row": None, "column": None, "detail": detail}
    counts = [d.partition.block_count for d in g.diagrams]
    for j in range(1, n):
        if counts[j] < counts[j - 1]:
            detail = f"rows {j - 1}, {j}: block counts fall, so a coarsening may be not above it"
            return {"step": "unitriangular", "row": j, "column": j - 1, "detail": detail}
    return None


def verify_gram_det(
    k: int,
    s: int,
    max_size: int = gram_partition.DEFAULT_MAX_SIZE,
    *,
    gram: gram_partition.GramMatrix | None = None,
) -> VerifyReport:
    """Certify det G_s = prod_{r,l} E_{r,l}^{mult} symbolically, sign +1
    included, through the congruence G_s = Z^T D Z.

    Four checks, none of which evaluates a determinant:
    1. build G_s (build_gram, capped by max_size and gram_det_side);
    2. congruence: every entry of G_s equals that of Z^T D Z;
    3. unitriangular: the rows are the half diagrams of shape (k, s), each
       once, with block counts that never decrease, so Z is unitriangular,
       det Z = 1 and det G_s = det D = prod_t det D_t;
    4. for each r, the Bose-Mesner certificate of A^{s+r,s}
       (_certificate_failure) proves det D_t = prod_l E_l^{m_l} for each of
       the stirling2(k,s+r) partitions t with s+r blocks, where E_l =
       sum_v P_l(v) X_v is formed from the certified rows; each E_l and its
       total multiplicity must equal block_spectrum's.

    Every check is against (k, s): the rows of gram, when given, must be
    the half diagrams of shape (k, s), or check 3 fails, and every r of
    0..k-s is checked in 4. The report carries epsilon = 1 and det on a
    pass (None on a failure), method "congruence", the side of G_s and
    z_nnz = nnz(Z); each failed check gives one failure entry naming its
    step.
    """
    n = gram_det_side(k, s, max_size)
    g = gram_partition.build_gram(k, s, max_size=max_size) if gram is None else gram
    failures = []
    for failed in (_congruence_failure(g), _unitriangular_failure(g, k, s, n)):
        if failed is not None:
            failures.append(failed)
    # nnz(Z): a column (p, P), p with b blocks, has one entry per coarsening
    # of p that keeps the s blocks of P apart, N(b, s) of them
    z_nnz = sum(
        stirling2(k, b)
        * binomial(b, s)
        * sum(1 for _ in restricted_growth([1] * s + [0] * (b - s)))
        for b in range(s, k + 1)
    )
    det = ONE
    for r in range(k - s + 1):
        copies = stirling2(k, s + r)
        if not copies:
            # s + r = 0: no partition of k >= 1 points has 0 blocks
            continue
        matrix = sdm.build(s, r)
        forms = spectrum.distinct_eigenvalues(s, r)
        failed = _certificate_failure(matrix.levels, matrix.min_level, forms)
        if failed is not None:
            failures.append({"step": failed[0], "r": r, "detail": failed[1]})
            continue
        d = matrix.min_level
        xs = [gram_partition.x_substitution_poly(s, r, d - v) for v in range(d + 1)]
        certified = []
        for f in forms:
            e_l = ZERO
            for c, x_v in zip(f.coeffs, xs):
                e_l = e_l + x_v.scale(c)
            certified.append((f.l, e_l, copies * f.multiplicity))
        spec_r = gram_partition.block_spectrum(k, s, r)
        if list(spec_r.eigenpolys) != certified:
            got = [[l, e.to_json(), m] for l, e, m in spec_r.eigenpolys]
            want = [[l, e.to_json(), m] for l, e, m in certified]
            failures.append({"step": "block spectrum", "r": r, "expected": want, "got": got})
            continue
        for _, e_l, mult in certified:
            det = det * e_l.pow(mult)
    passed = not failures
    return VerifyReport(
        target="gram_det",
        params={"k": k, "s": s},
        trials=1,
        passed=passed,
        failures=failures,
        extra={
            "epsilon": 1 if passed else None,
            "det": det.to_json() if passed else None,
            "method": "congruence",
            "side": g.n,
            "z_nnz": z_nnz,
        },
    )
