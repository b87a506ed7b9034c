"""Modular arithmetic helpers: factorization, totient, Kempner bound,
units, and monomial tables. These are the bedrock the criteria lean on,
so most checks here compare against definitional brute force.
"""

import math

import pytest
from hypothesis import given, strategies as st

from ca_verify.zmod import (
    check_modulus,
    exponent_search_bound,
    factorize,
    is_prime,
    kempner,
    monomial_table,
    pow_mod,
    totient,
    units,
)
from bipermutive_oracle import monomial_invert, monomial_is_bijective
from column_oracle import canonical_exponent

moduli = st.integers(min_value=2, max_value=60)


def test_check_modulus_rejects_bad_values():
    for bad in (1, 0, -5, 2.0, True):
        with pytest.raises(ValueError):
            check_modulus(bad)
    assert check_modulus(2) == 2


def test_factorize_known_values():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))


@given(moduli)
def test_factorize_reconstructs(m):
    prod = 1
    for p, e in factorize(m):
        assert is_prime(p)
        prod *= p**e
    assert prod == m


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes)


def test_totient_known_values():
    assert [totient(m) for m in (2, 3, 4, 5, 6, 12)] == [1, 2, 2, 4, 2, 4]


@given(moduli)
def test_totient_counts_units(m):
    assert totient(m) == sum(1 for a in range(1, m) if math.gcd(a, m) == 1)
    assert units(m) == tuple(a for a in range(1, m) if math.gcd(a, m) == 1)


def test_kempner_known_values():
    assert [kempner(m) for m in (2, 3, 4, 5, 8, 9, 12)] == [2, 3, 4, 5, 4, 6, 4]


@given(moduli)
def test_kempner_is_smallest_factorial_divisor(m):
    """kempner(m) is the least k with m | k!, straight from the definition."""
    k = kempner(m)
    assert math.factorial(k) % m == 0
    assert all(math.factorial(j) % m != 0 for j in range(1, k))


@given(moduli, st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=12))
def test_pow_mod_matches_builtin(m, x, q):
    assert pow_mod(x, q, m) == pow(x, q, m)


def test_monomial_table_example():
    assert monomial_table(2, 2, 5) == (0, 2, 3, 3, 2)


@given(moduli, st.integers(min_value=1, max_value=12))
def test_monomial_bijectivity_matches_table(m, q):
    for a in units(m):
        table = monomial_table(a, q, m)
        assert monomial_is_bijective(a, q, m) == (sorted(table) == list(range(m)))


@given(moduli, st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=59))
def test_monomial_invert_finds_all_solutions(m, q, b):
    b %= m
    for a in units(m):
        sols = monomial_invert(a, q, b, m)
        assert sols == tuple(x for x in range(m) if (a * pow(x, q, m)) % m == b)


@given(moduli, st.integers(min_value=1, max_value=14))
def test_canonical_exponent_preserves_the_function(m, q):
    """The canonical exponent induces the same monomial table and no
    smaller exponent does.
    """
    for a in units(m):
        q0 = canonical_exponent(a, q, m)
        assert 1 <= q0 <= q
        assert monomial_table(a, q0, m) == monomial_table(a, q, m)
        for smaller in range(1, q0):
            assert monomial_table(a, smaller, m) != monomial_table(a, q, m)


def test_canonical_exponent_known_values():
    assert canonical_exponent(1, 5, 5) == 1
    assert canonical_exponent(1, 3, 4) == 3
    assert canonical_exponent(2, 12, 7) == 6


@given(moduli)
def test_exponent_search_bound_wraps_all_monomials(m):
    """Beyond the search bound every monomial table repeats one from a
    smaller exponent, so sweeps over [1, bound] see all distinct maps.
    """
    bound = exponent_search_bound(m)
    seen = {monomial_table(1, q, m) for q in range(1, bound + 1)}
    for q in range(bound + 1, bound + 6):
        assert monomial_table(1, q, m) in seen
