"""Univariate polynomials over Z_m with exact coefficient arithmetic.

Coefficients are stored lowest degree first with no trailing zeros, so
two Poly values are equal iff they are the same reduced polynomial.
Interpolation and the derivative-gcd test need a prime modulus, where
each has a closed form that evaluates values instead of multiplying or
dividing polynomials; everything else works for any modulus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from ca_verify.caps import Caps, CapExceeded, DEFAULT_CAPS
from ca_verify.zmod import check_modulus, is_prime, kempner


@dataclass(frozen=True)
class Poly:
    m: int
    coeffs: tuple[int, ...]  # coeffs[i] multiplies x**i; normalized, no trailing zeros

    @classmethod
    def make(cls, m: int, coeffs: Iterable[int]) -> "Poly":
        check_modulus(m)
        cs = [c % m for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(m, tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the reduced polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x: int) -> int:
        x %= self.m
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.m
        return acc

    def table(self) -> tuple[int, ...]:
        return tuple(self.evaluate(x) for x in range(self.m))

    def derivative(self) -> "Poly":
        return Poly.make(self.m, (i * c for i, c in enumerate(self.coeffs) if i))

    def __str__(self) -> str:
        return poly_text(self)


def is_permutation_poly(f: Poly) -> bool:
    """Exhaustive test: does f permute Z_m?"""
    return len(set(f.table())) == f.m


def hermite_criterion(f: Poly) -> bool:
    """The derivative-gcd permutation test in its textbook simplified form:

        degree(f) < p  and  gcd(f', x**p - x) = 1.

    Kept deliberately in this form, without corrections or strengthening;
    audits compare it against is_permutation_poly, which is ground truth.

    Over Z_p, x**p - x is the product of the linear factors x - a, so the
    gcd is 1 exactly when f'(a) != 0 for every a in Z_p. That holds for
    f' = 0 too, whose gcd with x**p - x is x**p - x.
    """
    p = f.m
    if not is_prime(p):
        raise ValueError(f"the derivative-gcd test needs a prime modulus, got {p}")
    if f.degree >= p:
        return False
    df = f.derivative()
    return all(df.evaluate(a) for a in range(p))


def interpolate_prime(values: Sequence[int], p: int) -> Poly:
    """The unique polynomial of degree < p matching `values` on Z_p.

    As C(p-1, k) = (-1)**k mod p, (x - a)**(p-1) = sum_k x**k * a**(p-1-k)
    with 0**0 = 1, and 1 - (x - a)**(p-1) is the indicator of a. Summing
    f(a) times it over a gives the Lagrange interpolant at 0, ..., p-1:
    c_0 = f(0) and c_k = -sum_a f(a) * a**(p-1-k) for 1 <= k < p.
    """
    if not is_prime(p):
        raise ValueError(f"interpolation needs a prime modulus, got {p}")
    if len(values) != p:
        raise ValueError(f"expected {p} values, got {len(values)}")
    # sums[j] = sum_a f(a) * a**j, so c_k = -sums[p-1-k]
    sums = [sum(v * pow(a, j, p) for a, v in enumerate(values)) for j in range(p - 1)]
    return Poly.make(p, [values[0]] + [-s for s in reversed(sums)])


def representability_search(
    values: Sequence[int], m: int, caps: Caps = DEFAULT_CAPS
) -> Poly | None:
    """Smallest polynomial (lexicographic on coefficient tuples, constant
    term first) of degree < kempner(m) inducing the given value table over
    Z_m, or None when the table is not polynomial.

    Degree kempner(m) - 1 suffices: x(x-1)...(x-k+1) vanishes identically
    on Z_m exactly when m | k!, so higher powers add no new functions.

    The verdict comes first, in O(m^2). Every polynomial is an integer
    combination of the falling factorials x(x-1)...(x-j+1), whose value
    at x = i is i!/(i-j)! for j <= i and 0 for j > i. So the table f is
    polynomial iff, for j = 0, ..., m-1 in turn,

        b_j * j! = f(j) - sum_{i<j} b_i * j!/(j-i)!   (mod m)

    has a solution b_j, that is iff gcd(j!, m) divides the right-hand
    side. Two solutions differ by a multiple of m/gcd(j!, m), and later
    equations multiply b_j by multiples of j!, so which one is taken does
    not matter. A polynomial table then fixes c_0 = f(0) and, from x = 1,
    c_{k-1} = f(1) - c_0 - ... - c_{k-2}; the search enumerates the
    m**(k-2) middle tuples in order, so its first hit is the
    lexicographically first polynomial. It refuses, before either step,
    when those m**(kempner(m)-2) tuples exceed caps.poly_search.
    """
    from math import gcd

    check_modulus(m)
    if len(values) != m:
        raise ValueError(f"expected {m} values, got {len(values)}")
    k = kempner(m)
    total = m ** (k - 2)
    if total > caps.poly_search:
        raise CapExceeded(
            f"representability search over Z_{m} needs {total} candidates, "
            f"cap is {caps.poly_search}"
        )
    target = tuple(v % m for v in values)
    falling: list[int] = []  # b_0, b_1, ... in the falling-factorial basis
    for j in range(m):
        rhs, factor = target[j], 1  # factor = j!/(j-i)! for the current i
        for i, b in enumerate(falling):
            rhs -= b * factor
            factor = factor * (j - i) % m
        g = gcd(factor, m)  # factor is now j! mod m
        if rhs % g:
            return None
        falling.append(rhs // g * pow(factor // g, -1, m // g) % m if g < m else 0)
    powers = [[pow(x, e, m) for e in range(k)] for x in range(2, m)]
    c0 = target[0]
    for middle in itertools.product(range(m), repeat=k - 2):
        coeffs = (c0, *middle, (target[1] - c0 - sum(middle)) % m)
        if all(
            sum(c * xe for c, xe in zip(coeffs, px)) % m == target[x]
            for x, px in enumerate(powers, start=2)
        ):
            return Poly.make(m, coeffs)
    raise AssertionError("unreachable: a polynomial table has a polynomial of degree < k")


def is_permutation_map(values: Sequence[int], m: int, nvars: int) -> bool:
    """Balance test for a map Z_m^nvars -> Z_m given as a flat table:
    every output value must occur exactly m**(nvars - 1) times.
    """
    check_modulus(m)
    if nvars < 1:
        raise ValueError(f"need at least one variable, got {nvars}")
    if len(values) != m**nvars:
        raise ValueError(f"expected {m ** nvars} values, got {len(values)}")
    counts = [0] * m
    for v in values:
        counts[v % m] += 1
    expected = m ** (nvars - 1)
    return all(c == expected for c in counts)


def poly_text(f: Poly) -> str:
    """Render as ``c_k*x^k + ... + c1*x + c0`` with zero terms dropped."""
    if f.is_zero():
        return "0"
    parts = []
    for e in range(f.degree, -1, -1):
        c = f.coeffs[e]
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("x" if c == 1 else f"{c}*x")
        else:
            parts.append(f"x^{e}" if c == 1 else f"{c}*x^{e}")
    return " + ".join(parts)

