import sys

import pytest
from hypothesis import example, given, strategies as st

from diagram_spectra.errors import SizeCapExceeded
from diagram_spectra.poly import (
    NEG_INF,
    ONE,
    X,
    ZERO,
    Polynomial,
    factor_product,
    format_terms,
)

polys = st.builds(
    Polynomial.of,
    st.lists(st.integers(min_value=-99, max_value=99), min_size=0, max_size=9),
)
points = st.integers(min_value=-50, max_value=50)


def test_construction_normalizes():
    assert Polynomial.of([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial.of([0, 0]).coeffs == ()
    assert Polynomial.of([]) == ZERO
    with pytest.raises(ValueError):
        Polynomial((1, 0))


def test_degree():
    assert ZERO.degree() == NEG_INF
    assert ONE.degree() == 0
    assert X.degree() == 1
    assert (X * X - X).degree() == 2


def test_mul_example():
    assert Polynomial.x_minus(1) * Polynomial.x_minus(2) == Polynomial.of([2, -3, 1])


def test_eval_at_root():
    p = Polynomial.of([2, -3, 1])  # x^2 - 3x + 2
    assert p.eval_at(2) == 0
    assert p.eval_at(1) == 0
    assert p.eval_at(0) == 2


def test_add_identity():
    p = Polynomial.of([5, -1, 3])
    assert p + ZERO == p
    assert ZERO + p == p


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys, points)
def test_eval_is_ring_homomorphism(p, q, a):
    assert (p * q).eval_at(a) == p.eval_at(a) * q.eval_at(a)
    assert (p + q).eval_at(a) == p.eval_at(a) + q.eval_at(a)


def test_factor_product():
    assert factor_product([]) == ONE
    assert factor_product([Polynomial.x_minus(1), Polynomial.x_minus(2)]) == Polynomial.of(
        [2, -3, 1]
    )
    a = Polynomial.of([-2, -1, 1])  # x^2 - x - 2
    b = Polynomial.of([-4, -1, 1])  # x^2 - x - 4
    assert factor_product([a, b]) == Polynomial.of([8, 6, -5, -2, 1])


@given(st.lists(st.integers(min_value=-40, max_value=40), max_size=12))
@example([])
def test_from_roots_is_the_product_of_linear_factors(roots):
    # no roots give factor_product's empty product, ONE
    assert Polynomial.from_roots(roots) == factor_product(map(Polynomial.x_minus, roots))


def test_factor_product_degree():
    n = 7
    p = factor_product(Polynomial.x_minus(i) for i in range(n))
    assert p.degree() == n


def test_pow():
    assert Polynomial.x_minus(1).pow(0) == ONE
    assert Polynomial.x_minus(1).pow(2) == Polynomial.of([1, -2, 1])
    with pytest.raises(ValueError):
        X.pow(-1)


@pytest.mark.parametrize("a", [-7, -1, 0, 1, 2, 5])
def test_x_minus_pow_is_the_power(a):
    for e in range(13):
        assert Polynomial.x_minus_pow(a, e) == Polynomial.x_minus(a).pow(e), (a, e)


def test_to_json_past_the_digit_limit_is_a_cap():
    limit = sys.get_int_max_str_digits()
    assert Polynomial.of([10**limit - 1]).to_json() == ["9" * limit]
    message = f"decimal digits of a coefficient: size {limit + 1} exceeds cap {limit}"
    with pytest.raises(SizeCapExceeded, match=message):
        Polynomial.of([1, -(10**limit)]).to_json()


def test_str():
    assert str(ZERO) == "0"
    assert str(Polynomial.of([6, -5, 1])) == "x^2 - 5x + 6"
    assert str(Polynomial.of([0, -1])) == "-x"
    assert str(Polynomial.of([0, 0, 3])) == "3x^2"


def test_format_terms():
    assert format_terms([]) == "0"
    assert format_terms([(0, "x"), (0, "")]) == "0"
    assert format_terms([(1, "")]) == "1"
    assert format_terms([(-1, "")]) == "-1"
    assert format_terms([(-1, "x2"), (0, "x1"), (3, "x0")]) == "-x2 + 3x0"
    assert format_terms([(2, "x^3"), (-1, "x"), (-7, "")]) == "2x^3 - x - 7"
    assert str(ONE) == "1"
    assert str(Polynomial.of([-1, 0, -1])) == "-x^2 - 1"


def test_json_roundtrip():
    p = Polynomial.of([10**40, -2, 0, 5])
    assert p.to_json() == [str(10**40), "-2", "0", "5"]
    assert Polynomial.of(int(c) for c in p.to_json()) == p
