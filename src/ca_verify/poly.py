"""Univariate polynomials over Z_m with exact coefficient arithmetic.

Coefficients are stored lowest degree first with no trailing zeros, so
two Poly values are equal iff they are the same reduced polynomial.
Division and gcd are restricted to prime moduli, where Z_m is a field;
everything else works for any modulus.
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

    def is_one(self) -> bool:
        return self.coeffs == (1,)

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


def zero(m: int) -> Poly:
    return Poly.make(m, ())


def one(m: int) -> Poly:
    return Poly.make(m, (1,))


def poly_add(f: Poly, g: Poly) -> Poly:
    _same_modulus(f, g)
    n = max(len(f.coeffs), len(g.coeffs))
    fc = f.coeffs + (0,) * (n - len(f.coeffs))
    gc = g.coeffs + (0,) * (n - len(g.coeffs))
    return Poly.make(f.m, (a + b for a, b in zip(fc, gc)))


def poly_mul(f: Poly, g: Poly) -> Poly:
    _same_modulus(f, g)
    if f.is_zero() or g.is_zero():
        return zero(f.m)
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] = (out[i + j] + a * b) % f.m
    return Poly.make(f.m, out)


def poly_scale(f: Poly, c: int) -> Poly:
    return Poly.make(f.m, (c * a for a in f.coeffs))


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Euclidean division over a prime field; raises for composite moduli."""
    _same_modulus(f, g)
    p = f.m
    if not is_prime(p):
        raise ValueError(f"polynomial division needs a prime modulus, got {p}")
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    quo = [0] * max(0, len(rem) - len(g.coeffs) + 1)
    lead_inv = pow(g.coeffs[-1], -1, p)
    dg = g.degree
    for i in range(len(rem) - 1, dg - 1, -1):
        if rem[i] == 0:
            continue
        factor = rem[i] * lead_inv % p
        quo[i - dg] = factor
        for j, b in enumerate(g.coeffs):
            rem[i - dg + j] = (rem[i - dg + j] - factor * b) % p
    return Poly.make(p, quo), Poly.make(p, rem)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over a prime field; gcd(0, 0) is the zero polynomial."""
    _same_modulus(f, g)
    p = f.m
    if not is_prime(p):
        raise ValueError(f"polynomial gcd needs a prime modulus, got {p}")
    a, b = f, g
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return poly_scale(a, pow(a.coeffs[-1], -1, p))


def frobenius_reduce(f: Poly, p: int | None = None) -> Poly:
    """Reduce exponents with x**p == x on Z_p: replace e >= p by e - (p - 1).

    The result has degree < p and induces the same function on Z_p.
    """
    if p is None:
        p = f.m
    if p != f.m or not is_prime(p):
        raise ValueError(f"frobenius reduction needs the prime modulus of f, got {p}")
    out = [0] * p
    for e, c in enumerate(f.coeffs):
        if c == 0:
            continue
        while e >= p:
            e -= p - 1
        out[e] = (out[e] + c) % p
    return Poly.make(p, out)


def is_permutation_poly(f: Poly) -> bool:
    """Exhaustive test: does f permute Z_m?"""
    return len(set(f.table())) == f.m


def hermite_criterion(f: Poly) -> bool:
    """The derivative-gcd permutation test in its textbook simplified form:

        degree(f) < p  and  gcd(f', x**p - x) = 1.

    Kept deliberately in this form, without corrections or strengthening;
    audits compare it against is_permutation_poly, which is ground truth.
    """
    p = f.m
    if not is_prime(p):
        raise ValueError(f"the derivative-gcd test needs a prime modulus, got {p}")
    if f.degree >= p:
        return False
    xp_minus_x = Poly.make(p, [0, -1] + [0] * (p - 2) + [1])
    return poly_gcd(f.derivative(), xp_minus_x).is_one()


def interpolate_prime(values: Sequence[int], p: int) -> Poly:
    """The unique polynomial of degree < p matching `values` on Z_p.

    Lagrange interpolation at the points 0, 1, ..., p-1.
    """
    check_modulus(p)
    if not is_prime(p):
        raise ValueError(f"interpolation needs a prime modulus, got {p}")
    if len(values) != p:
        raise ValueError(f"expected {p} values, got {len(values)}")
    vals = [v % p for v in values]
    acc = zero(p)
    for i, v in enumerate(vals):
        if v == 0:
            continue
        basis = one(p)
        denom = 1
        for j in range(p):
            if j == i:
                continue
            basis = poly_mul(basis, Poly.make(p, (-j, 1)))
            denom = denom * (i - j) % p
        acc = poly_add(acc, poly_scale(basis, v * pow(denom, -1, p)))
    return acc


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
        c = f.coeffs[e] if e < len(f.coeffs) else 0
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("x" if c == 1 else f"{c}*x")
        else:
            parts.append(f"x^{e}" if c == 1 else f"{c}*x^{e}")
    return " + ".join(parts)


def _same_modulus(f: Poly, g: Poly) -> None:
    if f.m != g.m:
        raise ValueError(f"modulus mismatch: {f.m} vs {g.m}")
