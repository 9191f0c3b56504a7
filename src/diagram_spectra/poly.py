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

import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import SizeCapExceeded

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

    @staticmethod
    def x_minus_pow(a: int, e: int) -> "Polynomial":
        """(x - a)^e by the binomial theorem: the coefficient C(e,j) (-a)^(e-j)
        of x^j follows from that of x^(j+1), with no polynomial product."""
        coeffs = [0] * e + [1]
        for j in range(e, 0, -1):
            # exact: (e-j+1) divides C(e,j) j, and C(e,j) j / (e-j+1) = C(e,j-1)
            coeffs[j - 1] = coeffs[j] * -a * j // (e - j + 1)
        return Polynomial.of(coeffs)

    @staticmethod
    def from_roots(roots: Iterable[int]) -> "Polynomial":
        """The product of x - a over the roots, with repeats, grown in one
        coefficient list: times x - a, the coefficient of x^j becomes
        c_{j-1} - a c_j. Monic, so nothing is trimmed; no roots give ONE."""
        coeffs = [1]
        for a in roots:
            coeffs = [lo - a * hi for lo, hi in zip([0] + coeffs, coeffs + [0])]
        return Polynomial(tuple(coeffs))

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
        """Decimal strings ascending by degree, safe for any JSON reader.
        Raises SizeCapExceeded when a coefficient has more decimal digits
        than the interpreter converts, sys.get_int_max_str_digits()."""
        try:
            return [str(c) for c in self.coeffs]
        except ValueError:
            check_str_digits("decimal digits of a coefficient", max(map(abs, self.coeffs)))
            raise


def check_str_digits(what: str, value: int) -> None:
    """Raises SizeCapExceeded when |value| has more decimal digits than str()
    converts, sys.get_int_max_str_digits() (0, or no such function: any)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    top = abs(value)
    # 1233 / 4096 < log10(2), so this starts at or below the digit count
    digits = top.bit_length() * 1233 >> 12
    while 10**digits <= top:
        digits += 1
    if limit and digits > limit:
        raise SizeCapExceeded(what, digits, limit)


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

