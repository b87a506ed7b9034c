"""Exact arithmetic over Z_m: primality, totient, factorial bound, monomial maps.

All functions are integer-exact and sized for desk-scale moduli
(2 <= m <= 2**16, enforced by check_modulus); no probabilistic shortcuts.
"""

from __future__ import annotations

from functools import lru_cache

MODULUS_LIMIT = 1 << 16


def check_modulus(m: int) -> int:
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"modulus must be an int, got {type(m).__name__}")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if m > MODULUS_LIMIT:
        raise ValueError(f"modulus {m} exceeds the supported limit {MODULUS_LIMIT}")
    return m


@lru_cache(maxsize=None)
def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division, as (prime, exponent) pairs."""
    check_modulus(m)
    out = []
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def is_prime(m: int) -> bool:
    fac = factorize(m)
    return len(fac) == 1 and fac[0][1] == 1


@lru_cache(maxsize=None)
def totient(m: int) -> int:
    """Euler's totient, via the factorization of m."""
    result = 1
    for p, e in factorize(m):
        result *= (p - 1) * p ** (e - 1)
    return result


@lru_cache(maxsize=None)
def kempner(m: int) -> int:
    """Smallest k >= 1 with m | k!.

    Used as the degree bound for polynomial representability over Z_m:
    a function table is induced by some polynomial iff it is induced by
    one of degree < kempner(m).
    """
    check_modulus(m)
    acc = 1
    for k in range(1, m + 1):
        acc = acc * k % m
        if acc == 0:
            return k
    raise AssertionError("unreachable: m divides m!")


def units(m: int) -> tuple[int, ...]:
    check_modulus(m)
    from math import gcd

    return tuple(a for a in range(1, m) if gcd(a, m) == 1)


def pow_mod(x: int, q: int, m: int) -> int:
    """x**q mod m with the raw-evaluation convention 0**0 == 1."""
    if q < 0:
        raise ValueError(f"exponent must be >= 0, got {q}")
    return pow(x % m, q, m)


def monomial_table(a: int, q: int, m: int) -> tuple[int, ...]:
    """Value table of x -> a * x**q on Z_m (q >= 1)."""
    check_modulus(m)
    if q < 1:
        raise ValueError(f"monomial exponent must be >= 1, got {q}")
    a %= m
    return tuple(a * pow(x, q, m) % m for x in range(m))


def exponent_search_bound(m: int) -> int:
    """Upper bound for canonical-exponent searches over Z_m.

    x**q and x**(q + totient(m)) agree on Z_m once q exceeds the largest
    prime-power exponent in m, and that threshold sits below kempner(m),
    so every monomial function is realized by some exponent in
    [1, kempner(m) + totient(m)].
    """
    return kempner(m) + totient(m)
