"""Dense univariate polynomials over Python integers.

Coefficients are stored ascending by degree with trailing zeros trimmed, so
the zero polynomial is the empty tuple and the degree of a nonzero
polynomial is len(coeffs) - 1. Every polynomial that appears in this package
has integer coefficients (block eigenvalues are monic integer products, and
the oracle's determinants are integer determinants read back as
coefficients), so there is no rational fallback and no polynomial division
anywhere.

degree() of the zero polynomial returns the marker NEG_INF rather than -1,
to keep accidental arithmetic on it from looking like a valid degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

NEG_INF = float("-inf")


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use Polynomial.of()")

    @staticmethod
    def of(coeffs: Iterable[int]) -> "Polynomial":
        return Polynomial(_trim(list(coeffs)))

    @staticmethod
    def x_minus(a: int) -> "Polynomial":
        """The linear factor x - a."""
        return Polynomial.of([-a, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial.of(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Polynomial(_trim(out))

    def scale(self, c: int) -> "Polynomial":
        if c == 0:
            return ZERO
        return Polynomial(tuple(c * a for a in self.coeffs))

    def pow(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative exponent")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def eval_at(self, a: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def __str__(self) -> str:
        terms = reversed(list(enumerate(self.coeffs)))
        return format_terms((c, {0: "", 1: "x"}.get(d, f"x^{d}")) for d, c in terms)

    def to_json(self) -> list[str]:
        """Decimal strings ascending by degree, safe for any JSON reader."""
        return [str(c) for c in self.coeffs]


def format_terms(terms: Iterable[tuple[int, str]]) -> str:
    """Join (coefficient, name) terms, highest first, as "3x^2 - x + 1".

    Zero terms are skipped, a unit coefficient is dropped before a nonempty
    name, and an all-zero input gives "0"."""
    parts: list[str] = []
    for c, name in terms:
        if c:
            mag = abs(c)
            term = name if mag == 1 and name else f"{mag}{name}"
            sign = ("+ " if c > 0 else "- ") if parts else ("" if c > 0 else "-")
            parts.append(sign + term)
    return " ".join(parts) or "0"


ZERO = Polynomial(())
ONE = Polynomial((1,))
X = Polynomial((0, 1))


def factor_product(factors: Iterable[Polynomial]) -> Polynomial:
    """Product of the given polynomials; empty input yields the constant 1."""
    result = ONE
    for f in factors:
        result = result * f
    return result


def integer_roots(p: Polynomial) -> set[int]:
    """All integer roots of a nonzero polynomial.

    Strips powers of x, then tests the divisors of the trailing nonzero
    coefficient (any integer root divides it), scanning no further than
    Fujiwara's root bound.
    """
    if p.is_zero():
        raise ValueError("integer_roots: zero polynomial has every root")
    coeffs = list(p.coeffs)
    roots: set[int] = set()
    low = 0
    while coeffs[low] == 0:
        low += 1
    if low > 0:
        roots.add(0)
        coeffs = coeffs[low:]
    if len(coeffs) == 1:
        return roots
    tail = abs(coeffs[0])
    stripped = Polynomial.of(coeffs)
    # Fujiwara: every root has |z| <= 2 max_i |c_{n-i} / c_n|^(1/i) < limit,
    # as |c_n| >= 1. A root with |z| <= sqrt(tail) is met at d = |z|; one past
    # sqrt(tail) needs limit > sqrt(tail), so its cofactor d is met as well
    n = len(coeffs) - 1
    limit = 2 << max(-(-abs(coeffs[n - i]).bit_length() // i) for i in range(1, n + 1))
    d = 1
    while d * d <= tail and d < limit:
        if tail % d == 0:
            for cand in (d, -d, tail // d, -(tail // d)):
                if abs(cand) < limit and stripped.eval_at(cand) == 0:
                    roots.add(cand)
        d += 1
    return roots
