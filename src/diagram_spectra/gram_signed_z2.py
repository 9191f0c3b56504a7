"""Reduced block spectra for Z2-stable relation algebras and the signed
partition algebra.

Diagrams here carry two kinds of structure: {e}-classes, which occur in
pairs (r1 pairs of horizontal edges, s1 pairs of through classes), and
Z2-classes (r2 horizontal, s2 through). After the same kind of paired
row/column reduction as in the plain partition case, each block is a tensor
product of two substituted symmetric diagram matrices: an e-part A^{2r1,2r1}
pattern with entries

    X_{min(s1,r1)-t} = (-1)^t * 2^t * t! * prod_{i=t}^{r1-1} (x^2 - x - 2(s1+i))

and a Z2-part identical in shape to the partition-algebra substitution with
parameters (s2, r2). Eigenpolynomials of a tensor block are therefore the
pairwise products of the two families' eigenpolynomials, with per-copy
multiplicity m_{l1}(s1,r1) * m_{l2}(s2,r2). Both are formed from linear
factors: the Z2 one is product_form(s2, r2, l2), and as X_{e,t}(x) =
2^{r1} X_t((x^2 - x)/2), X_t the partition substitution at (s1, r1), the e
one is product_form(s1, r1, l1) with each x - a made x^2 - x - 2a. How many
copies of each (r1,r2) block occur inside the full Gram matrix is not
determined here (no usable closed form is available for the Z2-stable
analogue of the Stirling copy count), so callers supply copy counts when
they aggregate.

Block ranges, with K = k - s1 - s2: Z2-relations mode allows
0 <= r1, r2 <= K; signed mode additionally requires r2 <= K - 1.
_block_ranges is the one place that states this rule and its errors, for
SignedBlockKey.validate and to_json_dict alike. to_json_dict counts the
coefficients its report would hold from the shape alone, in closed form,
and raises SizeCapExceeded past MAX_REPORT_COEFFS before forming any
polynomial.

The signed case has one extra block with no tensor structure, built by
build_exceptional_block: it collects the diagrams whose underlying partition
is all singletons with s1+s2+r'1+r'2 = k and r'1 >= 1. Its rows come in two
copies per r'1 value (dimension 2K). Within this block every diagram shares
the same singleton through classes, so the propagating number never drops
and every off-diagonal entry takes the sign-flip form
(-1)^{r1+r'1} * prod_{m=0}^{K-1} (x - (s2+m)). No closed-form spectrum is
offered for this block; use the oracle's determinant on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SizeCapExceeded
from .gram_partition import family_sums, product_form, product_form_roots, x_substitution_poly
from .poly import Polynomial, factor_product
from .spectrum import multiplicities


def _quadratic_factor(c: int) -> Polynomial:
    """x^2 - x - 2c."""
    return Polynomial.of([-2 * c, -1, 1])


def x_e_poly(s1: int, r1: int, t: int) -> Polynomial:
    """E-class substitution: (-1)^t 2^t t! prod_{i=t}^{r1-1}(x^2-x-2(s1+i))."""
    if not (0 <= t <= min(s1, r1)):
        raise ValueError(f"t={t} out of range 0..{min(s1, r1)}")
    prod = factor_product(_quadratic_factor(s1 + i) for i in range(t, r1))
    return prod.scale((-1) ** t * 2**t * math.factorial(t))


# Z2-class substitution; same arithmetic as the partition-algebra one
x_z2_poly = x_substitution_poly


def _block_ranges(k: int, s1: int, s2: int, mode: str) -> tuple[int, int]:
    """The largest r1 and r2 of the mode's blocks: K and K, or K and K - 1
    in signed mode. Raises ValueError on a bad mode or a negative k, s1, s2 or K."""
    if mode not in ("z2", "signed"):
        raise ValueError(f"mode must be 'z2' or 'signed', got {mode!r}")
    cap = k - s1 - s2
    if min(k, s1, s2) < 0 or cap < 0:
        raise ValueError(f"invalid parameters k={k}, s1={s1}, s2={s2}")
    return cap, cap - 1 if mode == "signed" else cap


@dataclass(frozen=True)
class SignedBlockKey:
    k: int
    s1: int
    s2: int
    r1: int
    r2: int

    def validate(self, mode: str) -> None:
        cap, r2_cap = _block_ranges(self.k, self.s1, self.s2, mode)
        if not 0 <= self.r1 <= cap:
            raise ValueError(f"r1={self.r1} out of range 0..{cap}")
        if not 0 <= self.r2 <= r2_cap:
            raise ValueError(f"r2={self.r2} out of range 0..{r2_cap} in {mode} mode")


def block_spectrum_tensor(
    key: SignedBlockKey, mode: str
) -> list[tuple[int, int, Polynomial, int]]:
    """Per-copy spectrum of one tensor block: (l1, l2, eigenpoly, mult)."""
    key.validate(mode)
    e_fam = [
        factor_product(map(_quadratic_factor, product_form_roots(key.s1, key.r1, l)))
        for l in range(min(key.s1, key.r1) + 1)
    ]
    z_fam = [product_form(key.s2, key.r2, l) for l in range(min(key.s2, key.r2) + 1)]
    return [
        (l1, l2, p1 * p2, m1 * m2)
        for l1, (p1, m1) in enumerate(zip(e_fam, multiplicities(key.s1, key.r1)))
        for l2, (p2, m2) in enumerate(zip(z_fam, multiplicities(key.s2, key.r2)))
    ]


def exceptional_diag_poly(k: int, s1: int, s2: int, rp1: int) -> Polynomial:
    """Diagonal entry of the exceptional signed block for e-pair count rp1."""
    cap = k - s1 - s2
    if not (1 <= rp1 <= cap):
        raise ValueError(f"rp1={rp1} out of range 1..{cap}")
    rp2 = cap - rp1
    head = factor_product(_quadratic_factor(s1 + j) for j in range(rp1))
    return head * x_z2_poly(s2, rp2, 0) + x_z2_poly(s2, cap, 0)


def build_exceptional_block(k: int, s1: int, s2: int) -> list[list[Polynomial]]:
    """The signed-mode block with all-singleton underlying partition.

    Rows are (rp1, copy) for rp1 = 1..K and copy in {0,1}, K = k-s1-s2, so
    the dimension is 2K. Diagonals follow exceptional_diag_poly; all
    off-diagonals carry (-1)^{rp1_i + rp1_j} times the full linear run,
    because the shared singleton through classes keep the propagating number
    at its maximum between any two diagrams of this block.
    """
    if min(k, s1, s2) < 0:
        raise ValueError("all parameters must be nonnegative")
    cap = k - s1 - s2
    if cap < 1:
        raise ValueError(f"need s1+s2 < k, got s1+s2={s1 + s2}, k={k}")
    run = x_z2_poly(s2, cap, 0)
    row_rp1 = [rp1 for rp1 in range(1, cap + 1) for _ in (0, 1)]
    n = 2 * cap
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(exceptional_diag_poly(k, s1, s2, row_rp1[i]))
            else:
                row.append(run.scale((-1) ** (row_rp1[i] + row_rp1[j])))
        out.append(row)
    return out


# every k <= 6 shape is far under (at most 621); (30, 8, 8) has 265 518
MAX_REPORT_COEFFS = 300_000


def _report_coeffs(s1: int, s2: int, cap: int, r2_cap: int) -> int:
    """The number of coefficients to_json_dict emits for r1 <= cap and
    r2 <= r2_cap, the sum over its blocks of (min(s1,r1)+1)(min(s2,r2)+1)
    (2r1+r2+1): families times the coefficients of an eigenpoly of degree
    2r1+r2. The sum factors into sums over r1 and over r2 alone, each in
    closed form by family_sums, so the count costs the same at any k."""
    a0, a1 = family_sums(s1, cap)
    b0, b1 = family_sums(s2, r2_cap)
    return 2 * a1 * b0 + a0 * b1 + a0 * b0


def to_json_dict(k: int, s1: int, s2: int, mode: str) -> dict:
    """Spectrum report over all (r1, r2) blocks valid for the mode. Raises
    SizeCapExceeded, before any polynomial is formed, when the report would
    hold more than MAX_REPORT_COEFFS coefficients."""
    cap, r2_cap = _block_ranges(k, s1, s2, mode)
    coeffs = _report_coeffs(s1, s2, cap, r2_cap)
    if coeffs > MAX_REPORT_COEFFS:
        raise SizeCapExceeded(f"gram {mode} report coefficients", coeffs, MAX_REPORT_COEFFS)
    blocks = []
    for r1 in range(0, cap + 1):
        for r2 in range(0, r2_cap + 1):
            key = SignedBlockKey(k=k, s1=s1, s2=s2, r1=r1, r2=r2)
            spec = block_spectrum_tensor(key, mode)
            blocks.append(
                {
                    "r1": r1,
                    "r2": r2,
                    "eigen": [
                        {
                            "l1": l1,
                            "l2": l2,
                            "poly": p.to_json(),
                            "multiplicity_per_copy": m,
                        }
                        for l1, l2, p, m in spec
                    ],
                }
            )
    return {"mode": mode, "k": k, "s1": s1, "s2": s2, "blocks": blocks}
