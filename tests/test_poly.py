"""Polynomial layer: exact interpolation over prime fields, the bounded
representability search over composite rings, and the deliberately
simplified derivative-gcd permutation test.

Interpolation and the derivative-gcd test are computed in closed form;
poly_oracle keeps the Lagrange products and the Euclidean gcd they
replaced, and the tests below hold the two forms equal.

The derivative-gcd test is kept in its plain form on purpose, so a few
tests below pin down inputs where it disagrees with the exhaustive
permutation check. Those disagreements are data, not bugs; the criteria
layer reports them as discrepancies.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from ca_verify.caps import CapExceeded, Caps, DEFAULT_CAPS
from ca_verify.poly import (
    Poly,
    hermite_criterion,
    interpolate_prime,
    is_permutation_poly,
    poly_text,
    representability_search,
)
from ca_verify.zmod import kempner
from poly_oracle import (
    gcd_hermite_criterion,
    lagrange_interpolate,
    poly_add,
    poly_gcd,
    poly_mul,
)
from representability_oracle import enumerated_representability

primes = st.sampled_from((2, 3, 5, 7))


def test_poly_make_normalizes():
    assert Poly.make(5, (6, 0, 10)).coeffs == (1,)
    assert Poly.make(3, ()).coeffs == ()
    assert Poly.make(3, (0, 0, 0)).is_zero()


def test_evaluate_horner():
    f = Poly.make(5, (1, 2, 3))
    assert [f.evaluate(x) for x in range(5)] == [1, 1, 2, 4, 2]


def test_poly_text_descending_order():
    assert poly_text(Poly.make(3, (1, 0, 2))) == "2*x^2 + 1"
    assert poly_text(Poly.make(3, (0,))) == "0"
    assert poly_text(Poly.make(3, (2,))) == "2"
    assert poly_text(Poly.make(3, (0, 1))) == "x"
    assert poly_text(Poly.make(7, (0, 3, 0, 0, 1))) == "x^4 + 3*x"


def test_interpolate_prime_known_value():
    f = interpolate_prime((1, 0, 0), 3)
    assert f.coeffs == (1, 0, 2)
    assert poly_text(f) == "2*x^2 + 1"


def test_interpolate_prime_rejects_composite_modulus():
    with pytest.raises(ValueError):
        interpolate_prime((0, 1, 2, 3), 4)


@given(primes, st.data())
def test_interpolate_prime_round_trips(p, data):
    values = tuple(data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(p))
    f = interpolate_prime(values, p)
    assert f.table() == values
    assert f.degree < p


@pytest.mark.parametrize("p", (2, 3, 5))
def test_interpolate_prime_matches_lagrange_exhaustive(p):
    for values in itertools.product(range(p), repeat=p):
        assert interpolate_prime(values, p) == lagrange_interpolate(values, p)


@given(st.sampled_from((7, 11, 13)), st.data())
def test_interpolate_prime_matches_lagrange(p, data):
    """Values outside [0, p) are drawn too: both forms reduce them."""
    entries = st.integers(min_value=-2 * p, max_value=2 * p)
    values = data.draw(st.lists(entries, min_size=p, max_size=p))
    assert interpolate_prime(values, p) == lagrange_interpolate(values, p)


def test_representability_search_known_values():
    f = representability_search((0, 1, 0, 1), 4)
    assert f is not None and f.coeffs == (0, 0, 1)
    assert representability_search((1, 0, 0, 0), 4) is None


def test_representability_search_respects_caps():
    tight = Caps(
        table_entries=DEFAULT_CAPS.table_entries,
        subset_states=DEFAULT_CAPS.subset_states,
        pair_vertices=DEFAULT_CAPS.pair_vertices,
        poly_search=10,
        family_rules=DEFAULT_CAPS.family_rules,
    )
    with pytest.raises(CapExceeded):
        representability_search((0, 1, 0, 1), 4, tight)


@given(st.sampled_from((2, 3, 4, 5, 6)), st.data())
def test_representability_search_is_sound(m, data):
    """A found polynomial reproduces the table and obeys the degree
    bound. None is only correct when no bounded-degree polynomial
    matches, which the brute sweep below confirms; on prime moduli that
    never happens because the field represents every function.
    """
    values = tuple(data.draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(m))
    f = representability_search(values, m)
    if f is None:
        assert m in (4, 6)
        assert all(
            Poly.make(m, cs).table() != values
            for cs in itertools.product(range(m), repeat=kempner(m))
        )
    else:
        assert f.table() == values
        assert f.degree < kempner(m)


def test_representability_search_matches_enumeration_exhaustive_z4():
    for values in itertools.product(range(4), repeat=4):
        assert representability_search(values, 4) == enumerated_representability(values, 4)


@given(st.sampled_from((6, 8)), st.data())
def test_representability_search_matches_enumeration(m, data):
    """Half the draws are polynomial tables, which uniform draws over
    Z_6 and Z_8 rarely are.
    """
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(min_value=0, max_value=m - 1), max_size=6))
        values = Poly.make(m, coeffs).table()
    else:
        values = tuple(data.draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(m))
    assert representability_search(values, m) == enumerated_representability(values, m)


def test_poly_gcd_and_mul_agree_with_structure():
    f = poly_mul(Poly.make(5, (1, 1)), Poly.make(5, (2, 0, 1)))
    g = poly_mul(Poly.make(5, (1, 1)), Poly.make(5, (3, 1)))
    d = poly_gcd(f, g)
    assert d.coeffs == (1, 1)  # monic common factor x + 1


def test_derivative_gcd_test_simplified_form():
    """x^3 over Z_5 permutes but the simplified test rejects it; x^3 over
    Z_7 does not permute and is rejected for the same formal reason; and
    x^4 + 3x permutes Z_7 while its derivative 4x^3 + 3 vanishes at the
    cube roots of unity, so the test rejects it too. Only the exhaustive
    check tells these apart.
    """
    cubic5 = Poly.make(5, (0, 0, 0, 1))
    assert is_permutation_poly(cubic5)
    assert not hermite_criterion(cubic5)

    cubic7 = Poly.make(7, (0, 0, 0, 1))
    assert not is_permutation_poly(cubic7)
    assert not hermite_criterion(cubic7)

    quartic7 = Poly.make(7, (0, 3, 0, 0, 1))
    assert is_permutation_poly(quartic7)
    assert not hermite_criterion(quartic7)


def test_derivative_gcd_test_accepts_linear_permutations():
    assert hermite_criterion(Poly.make(5, (3, 1)))  # x + 3
    assert hermite_criterion(Poly.make(7, (1, 2)))  # 2x + 1
    assert is_permutation_poly(Poly.make(7, (1, 2)))


def test_derivative_gcd_test_degree_gate():
    # degree >= p fails the test even when the function permutes
    assert not hermite_criterion(Poly.make(5, (0, 0, 0, 0, 0, 1)))
    assert is_permutation_poly(Poly.make(5, (0, 0, 0, 0, 0, 1)))


@pytest.mark.parametrize("p", (2, 3))
def test_derivative_gcd_test_matches_gcd_form_exhaustive(p):
    """Every coefficient tuple up to degree p + 1, so the degree gate and
    the zero derivative (f constant, or f = x**p) are both reached.
    """
    for coeffs in itertools.product(range(p), repeat=p + 2):
        f = Poly.make(p, coeffs)
        assert hermite_criterion(f) == gcd_hermite_criterion(f), f


@given(st.sampled_from((5, 7, 11, 13)), st.data())
def test_derivative_gcd_test_matches_gcd_form(p, data):
    digits = st.integers(min_value=0, max_value=p - 1)
    coeffs = data.draw(st.lists(digits, max_size=p + 2))
    f = Poly.make(p, coeffs)
    assert hermite_criterion(f) == gcd_hermite_criterion(f)


def test_derivative_gcd_test_needs_prime_modulus():
    with pytest.raises(ValueError):
        hermite_criterion(Poly.make(4, (0, 1)))


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5))
def test_add_mul_consistency_with_evaluation(coeffs):
    f = Poly.make(5, coeffs)
    g = Poly.make(5, (2, 3))
    for x in range(5):
        assert poly_add(f, g).evaluate(x) == (f.evaluate(x) + g.evaluate(x)) % 5
        assert poly_mul(f, g).evaluate(x) == (f.evaluate(x) * g.evaluate(x)) % 5
