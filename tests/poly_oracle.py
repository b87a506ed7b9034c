"""Lagrange interpolation and the gcd form of the derivative-gcd test,
kept as a test oracle with the polynomial ring arithmetic they need.

The package computes both in closed form over Z_p: the interpolant's
coefficients as power sums of the values, and the gcd test as "f' has no
root in Z_p". These bodies are the earlier ones, unchanged: Lagrange
basis products, and a Euclidean gcd against x**p - x.
"""

from typing import Sequence

from ca_verify.poly import Poly
from ca_verify.zmod import check_modulus, is_prime


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


def gcd_hermite_criterion(f: Poly) -> bool:
    """degree(f) < p and gcd(f', x**p - x) = 1, by a Euclidean gcd."""
    p = f.m
    if not is_prime(p):
        raise ValueError(f"the derivative-gcd test needs a prime modulus, got {p}")
    if f.degree >= p:
        return False
    xp_minus_x = Poly.make(p, [0, -1] + [0] * (p - 2) + [1])
    return poly_gcd(f.derivative(), xp_minus_x).coeffs == (1,)


def lagrange_interpolate(values: Sequence[int], p: int) -> Poly:
    """The unique polynomial of degree < p matching `values` on Z_p,
    by Lagrange interpolation at the points 0, 1, ..., p-1.
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


def _same_modulus(f: Poly, g: Poly) -> None:
    if f.m != g.m:
        raise ValueError(f"modulus mismatch: {f.m} vs {g.m}")
