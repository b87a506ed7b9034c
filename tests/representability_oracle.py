"""The exhaustive representability search, kept as a test oracle.

It walks all m**kempner(m) coefficient tuples in lexicographic order
(constant term first) and returns the first whose polynomial induces
the table. The package decides representability first and enumerates
only m**(kempner(m) - 2) tuples, so this walk is the reference for both
the verdict and the polynomial it returns.
"""

import itertools
from typing import Sequence

from ca_verify.caps import CapExceeded, Caps, DEFAULT_CAPS
from ca_verify.poly import Poly
from ca_verify.zmod import check_modulus, kempner


def enumerated_representability(
    values: Sequence[int], m: int, caps: Caps = DEFAULT_CAPS
) -> Poly | None:
    """Smallest polynomial (lexicographic on coefficient tuples, constant
    term first) of degree < kempner(m) inducing the given value table over
    Z_m, or None when the table is not polynomial.

    Degree kempner(m) - 1 suffices: x(x-1)...(x-k+1) vanishes identically
    on Z_m exactly when m | k!, so higher powers add no new functions.
    The search enumerates m**kempner(m) candidate tuples and refuses when
    that exceeds caps.poly_search.
    """
    check_modulus(m)
    if len(values) != m:
        raise ValueError(f"expected {m} values, got {len(values)}")
    k = kempner(m)
    total = m**k
    if total > caps.poly_search:
        raise CapExceeded(
            f"representability search over Z_{m} needs {total} candidates, "
            f"cap is {caps.poly_search}"
        )
    target = tuple(v % m for v in values)
    xs = range(m)
    powers = [[pow(x, e, m) for e in range(k)] for x in xs]
    for coeffs in itertools.product(range(m), repeat=k):
        for x in xs:
            px = powers[x]
            acc = 0
            for c, xe in zip(coeffs, px):
                if c:
                    acc += c * xe
            if acc % m != target[x]:
                break
        else:
            return Poly.make(m, coeffs)
    return None
