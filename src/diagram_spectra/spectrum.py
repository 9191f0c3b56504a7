"""Closed-form spectra of symmetric diagram matrices.

A^{s+r,s} has exactly min(s,r)+1 distinct eigenvalues. Family l
(l = 0..min(s,r)) is the integer combination

    E_l = sum_t  e(s,r,l,t) * x_{min(s,r)-t},
    e(s,r,l,t) = sum_{j=0}^{l} (-1)^j C(l,j) C(s-l,t-j) C(r-l,t-j),

an Eberlein-type coefficient (the same shape as Johnson-scheme eigenvalue
formulas, which is no accident: the level of an entry depends only on the
overlap of two s-subsets).

Multiplicities are not part of the closed form; the hook-shaped assignment

    m_l = C(s+r,l) - C(s+r,l-1)

is used here and is certified, together with the forms, for every x at once
by the oracle (see verify_sdm_spectrum): read by distance, each row of
coefficients must meet the three-term recurrence of the Johnson graph's
intersection array (Brouwer, Cohen & Neumaier 4.1 and 9.1), and the d+1
distinct rows must meet its orthogonality relation with these m_l.

distinct_eigenvalues forms the (d+1)^2 Eberlein coefficients, d = min(s,r),
by finite differences, the production path: e(s,r,l,.) is the l-fold
difference a_t -> a_t - a_{t-1} of the sequence b_l(t) = C(s-l,t) C(r-l,t)
(Delsarte 1973), and each b_l follows from the ratio C(n, t+1) =
C(n, t)(n - t)/(t + 1). That is d+1 binomial rows and about (d+1)^3/2
subtractions, where the direct sums take (d+1)^3 binomial products. It
raises SizeCapExceeded past MAX_EBERLEIN_TERMS coefficients.

eberlein_coefficient, the direct alternating-binomial sum, and
difference_transform, the l-fold difference in the same direct form, stay
public as independent references for the tests.

Every Gram family here substitutes polynomials for the x_{min(s,r)-t}; the
Gram modules report each from its linear factors, and only the oracle forms
the substituted sums, to certify them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul, sub
from typing import Sequence

from .combinat import binomial
from .errors import SizeCapExceeded
from .poly import format_terms


# (d+1)^2 coefficients at d = 127: (127, 127) takes 0.06-0.07 s on a 2-core
# host, Python 3.11, where the direct sums took 0.6-1.1 s. The cap still
# counts coefficients, not their digits, which grow with log r
MAX_EBERLEIN_TERMS = 16_384


def eberlein_coefficient(s: int, r: int, l: int, t: int) -> int:
    lo = min(s, r)
    if not (0 <= l <= lo):
        raise ValueError(f"l={l} out of range 0..{lo}")
    if not (0 <= t <= lo):
        raise ValueError(f"t={t} out of range 0..{lo}")
    return sum(
        (-1) ** j * binomial(l, j) * binomial(s - l, t - j) * binomial(r - l, t - j)
        for j in range(l + 1)
    )


def multiplicities(s: int, r: int) -> list[int]:
    """Eigenvalue multiplicities m_l for l = 0..min(s,r)."""
    n = s + r
    return [binomial(n, l) - binomial(n, l - 1) for l in range(min(s, r) + 1)]


@dataclass(frozen=True)
class EigenvalueForm:
    """One distinct eigenvalue: sum_v coeffs[v] * x_v, with its multiplicity."""

    l: int
    coeffs: tuple[int, ...]
    multiplicity: int

    def eval_at(self, values: Sequence[int]) -> int:
        if len(values) != len(self.coeffs):
            raise ValueError(f"expected {len(self.coeffs)} values, got {len(values)}")
        return sum(c * v for c, v in zip(self.coeffs, values))

    def __str__(self) -> str:
        return format_terms((c, f"x{v}") for v, c in reversed(list(enumerate(self.coeffs))))


def distinct_eigenvalues(s: int, r: int) -> list[EigenvalueForm]:
    """All min(s,r)+1 distinct eigenvalue forms of A^{s+r,s}."""
    lo = _check_shape(s, r)
    forms = []
    for l, mult in enumerate(multiplicities(s, r)):
        seq = list(map(mul, _binomial_row(s - l, lo), _binomial_row(r - l, lo)))
        for _ in range(l):
            seq = list(map(sub, seq, [0] + seq[:-1]))
        # x_{lo-t} carries e(s, r, l, t)
        forms.append(EigenvalueForm(l=l, coeffs=tuple(reversed(seq)), multiplicity=mult))
    return forms


def _check_shape(s: int, r: int) -> int:
    """min(s,r), once s, r >= 0, s + r >= 1 and the table fits the cap."""
    if s < 0 or r < 0 or s + r < 1:
        raise ValueError(f"need s, r >= 0 with s + r >= 1, got ({s}, {r})")
    lo = min(s, r)
    if (lo + 1) ** 2 > MAX_EBERLEIN_TERMS:
        raise SizeCapExceeded("Eberlein terms (min(s,r)+1)^2", (lo + 1) ** 2, MAX_EBERLEIN_TERMS)
    return lo


def table_bounds(s: int, r: int) -> list[int]:
    """The valencies C(s,t) C(r,t) = e(s,r,0,t) and multiplicities m_t of
    distinct_eigenvalues(s, r), after its checks and without its table,
    whose entries they bound: a valency bounds its eigenvalues."""
    lo = _check_shape(s, r)
    return [*map(mul, _binomial_row(s, lo), _binomial_row(r, lo)), *multiplicities(s, r)]


def _binomial_row(n: int, top: int) -> list[int]:
    """C(n, t) for t = 0..top, n >= 0, by C(n, t+1) = C(n, t)(n - t)/(t + 1);
    past t = n the factor n - t = 0 keeps the row at 0."""
    row = [1]
    for t in range(top):
        row.append(row[-1] * (n - t) // (t + 1))
    return row


def difference_transform(base: Sequence[int], l: int) -> list[int]:
    """Apply the difference a_t -> a_t - a_{t-1} l times (direct sum form)."""
    if l < 0:
        raise ValueError(f"need l >= 0, got {l}")
    return [
        sum(
            (-1) ** j * binomial(l, j) * base[t - j]
            for j in range(l + 1)
            if 0 <= t - j < len(base)
        )
        for t in range(len(base))
    ]


def to_json_dict(s: int, r: int) -> dict:
    return {
        "s": s,
        "r": r,
        "eigenvalues": [
            {"l": f.l, "coeffs": list(f.coeffs), "multiplicity": f.multiplicity}
            for f in distinct_eigenvalues(s, r)
        ],
    }
