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
by the oracle module's Bose-Mesner check (see verify_sdm_spectrum): the
rows of coefficients must be the d+1 characters of the Johnson scheme's
algebra and meet its orthogonality relation with these m_l. The test suite
gates on that.

distinct_eigenvalues computes (d+1)^2 Eberlein coefficients, d = min(s,r),
each an alternating sum of up to d+1 binomial products, and raises
SizeCapExceeded past MAX_EBERLEIN_TERMS of them.

substituted_spectrum evaluates the families with each x_{min(s,r)-t}
replaced by a polynomial; every Gram family here is one such substitution.

difference_transform is the finite-difference identity that generates the
families: applying a^{l+1}_t = a^l_t - a^l_{t-1} to a base sequence l times
equals the direct alternating-binomial sum. It is kept as an independent
property, not as the production evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .combinat import binomial
from .errors import SizeCapExceeded
from .poly import ZERO, Polynomial, format_terms


# (d+1)^2 coefficients at d = 127, about a second of work for s = r
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
    if s < 0 or r < 0 or s + r < 1:
        raise ValueError(f"need s, r >= 0 with s + r >= 1, got ({s}, {r})")
    lo = min(s, r)
    if (lo + 1) ** 2 > MAX_EBERLEIN_TERMS:
        raise SizeCapExceeded("Eberlein terms (min(s,r)+1)^2", (lo + 1) ** 2, MAX_EBERLEIN_TERMS)
    mults = multiplicities(s, r)
    forms = []
    for l in range(lo + 1):
        coeffs = [0] * (lo + 1)
        for t in range(lo + 1):
            coeffs[lo - t] = eberlein_coefficient(s, r, l, t)
        forms.append(EigenvalueForm(l=l, coeffs=tuple(coeffs), multiplicity=mults[l]))
    return forms


def substituted_spectrum(
    s: int, r: int, x_poly: Callable[[int, int, int], Polynomial]
) -> list[tuple[int, Polynomial, int]]:
    """(l, E_l, m_l) for l = 0..min(s,r), with x_{min(s,r)-t} replaced by
    x_poly(s, r, t). Unlike distinct_eigenvalues it accepts the shape (0, 0),
    which occurs as a Gram block."""
    xs = [x_poly(s, r, t) for t in range(min(s, r) + 1)]
    out = []
    for l, mult in enumerate(multiplicities(s, r)):
        e_l = ZERO
        for t, x_t in enumerate(xs):
            e_l = e_l + x_t.scale(eberlein_coefficient(s, r, l, t))
        out.append((l, e_l, mult))
    return out


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
