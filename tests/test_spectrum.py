import pytest
from hypothesis import given, strategies as st

from diagram_spectra import spectrum
from diagram_spectra.combinat import binomial
from diagram_spectra.errors import SizeCapExceeded
from diagram_spectra.spectrum import (
    EigenvalueForm,
    difference_transform,
    distinct_eigenvalues,
    eberlein_coefficient,
    multiplicities,
    substituted_spectrum,
    to_json_dict,
)
from diagram_spectra.poly import Polynomial


def _forms_as_strings(s, r):
    return {str(f) for f in distinct_eigenvalues(s, r)}


def test_eberlein_examples():
    assert eberlein_coefficient(4, 3, 1, 1) == 5
    assert eberlein_coefficient(3, 2, 2, 1) == -2
    assert eberlein_coefficient(2, 2, 1, 1) == 0


def test_eberlein_l_zero_is_row_composition():
    for s in range(0, 6):
        for r in range(0, 6):
            for t in range(min(s, r) + 1):
                assert eberlein_coefficient(s, r, 0, t) == binomial(s, t) * binomial(r, t)


def test_eberlein_range_checks():
    with pytest.raises(ValueError):
        eberlein_coefficient(2, 2, 3, 0)
    with pytest.raises(ValueError):
        eberlein_coefficient(2, 2, 0, -1)


def test_golden_spectra():
    assert _forms_as_strings(1, 1) == {"x1 + x0", "x1 - x0"}
    assert _forms_as_strings(2, 2) == {"x2 + 4x1 + x0", "x2 - x0", "x2 - 2x1 + x0"}
    assert _forms_as_strings(3, 2) == {"x2 + 6x1 + 3x0", "x2 + x1 - 2x0", "x2 - 2x1 + x0"}
    assert _forms_as_strings(4, 3) == {
        "x3 + 12x2 + 18x1 + 4x0",
        "x3 + 5x2 - 3x1 - 3x0",
        "x3 - 3x1 + 2x0",
        "x3 - 3x2 + 3x1 - x0",
    }


def test_multiplicities_examples():
    assert multiplicities(1, 1) == [1, 1]
    assert multiplicities(2, 2) == [1, 3, 2]
    assert multiplicities(4, 3) == [1, 6, 14, 14]
    assert multiplicities(3, 2) == [1, 4, 5]


def test_multiplicities_sum_to_matrix_size():
    for s in range(0, 8):
        for r in range(0, 8):
            if s + r == 0:
                continue
            assert sum(multiplicities(s, r)) == binomial(s + r, s)


def test_top_coefficient_is_one():
    for s in range(0, 7):
        for r in range(0, 7):
            if s + r == 0:
                continue
            for f in distinct_eigenvalues(s, r):
                assert f.coeffs[-1] == 1


def test_trace_identity():
    # sum_l m_l * c_l[v] must equal n for v = min(s,r) and 0 otherwise,
    # because the matrix trace is n * x_min
    for m in range(1, 11):
        for s in range(0, m + 1):
            r = m - s
            forms = distinct_eigenvalues(s, r)
            lo = min(s, r)
            for v in range(lo + 1):
                total = sum(f.multiplicity * f.coeffs[v] for f in forms)
                assert total == (binomial(m, s) if v == lo else 0)


def test_duality():
    for s in range(0, 6):
        for r in range(0, 6):
            if s + r == 0:
                continue
            a = {(f.coeffs, f.multiplicity) for f in distinct_eigenvalues(s, r)}
            b = {(f.coeffs, f.multiplicity) for f in distinct_eigenvalues(r, s)}
            assert a == b


def test_distinct_eigenvalues_are_distinct_forms():
    for s in range(0, 7):
        for r in range(0, 7):
            if s + r == 0:
                continue
            forms = distinct_eigenvalues(s, r)
            assert len({f.coeffs for f in forms}) == len(forms)


def test_distinct_eigenvalues_work_cap(monkeypatch):
    # the cap counts (min(s,r)+1)^2 Eberlein coefficients, whatever the side
    monkeypatch.setattr(spectrum, "MAX_EBERLEIN_TERMS", 16)
    assert len(distinct_eigenvalues(3, 50)) == 4
    with pytest.raises(SizeCapExceeded, match="Eberlein terms"):
        distinct_eigenvalues(4, 4)


def test_substituted_spectrum_at_constants_is_the_closed_form():
    values = [3, -1, 4, 1, -5]
    for s in range(0, 5):
        for r in range(0, 5):
            lo = min(s, r)
            got = substituted_spectrum(s, r, lambda s_, r_, t: Polynomial.of([values[lo - t]]))
            if s + r == 0:
                assert got == [(0, Polynomial.of([values[0]]), 1)]
                continue
            assert got == [
                (f.l, Polynomial.of([f.eval_at(values[: lo + 1])]), f.multiplicity)
                for f in distinct_eigenvalues(s, r)
            ]


def test_difference_transform_examples():
    assert difference_transform([4, 7, -2], 0) == [4, 7, -2]
    assert difference_transform([1, 2, 0], 1) == [1, 1, -2]
    assert difference_transform([1, 0, 0], 2) == [1, -2, 1]


@given(
    st.lists(st.integers(min_value=-999, max_value=999), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=6),
)
def test_difference_transform_recurrence(base, l):
    # a^{l+1}_t = a^l_t - a^l_{t-1}
    al = difference_transform(base, l)
    al1 = difference_transform(base, l + 1)
    shifted = [0] + al[:-1]
    assert al1 == [a - b for a, b in zip(al, shifted)]


def test_eval_at():
    f = EigenvalueForm(l=0, coeffs=(1, 4, 1), multiplicity=1)  # x2 + 4x1 + x0
    assert f.eval_at([0, 1, 2]) == 6
    with pytest.raises(ValueError):
        f.eval_at([1, 2])


def test_json_dict():
    d = to_json_dict(1, 1)
    assert d == {
        "s": 1,
        "r": 1,
        "eigenvalues": [
            {"l": 0, "coeffs": [1, 1], "multiplicity": 1},
            {"l": 1, "coeffs": [-1, 1], "multiplicity": 1},
        ],
    }
