"""The per-position table walks that classification used before the
single column pass, kept as a test oracle.

Each function walks the contexts of one position on its own, reading the
rule table entry by entry; the package reads every position's columns
once, as slices, and answers all three questions from that one walk.
The bodies are the earlier ones, unchanged; `classify` is the earlier
classifier (without its memo) over these walks. `canonical_exponent`
finds the smallest exponent of a monomial map by comparing value tables.
"""

from functools import lru_cache
from typing import Iterable

from ca_verify.rule import MonomialComponent, RuleTable, SeparationClass
from ca_verify.zmod import exponent_search_bound, monomial_table


def _context_bases(size: int, m: int, stride: int) -> Iterable[int]:
    """Table indices whose digit at the given stride is zero."""
    block = stride * m
    for hi in range(0, size, block):
        for lo in range(stride):
            yield hi + lo


def _stride(rule: RuleTable, j: int) -> int:
    if not 1 <= j <= rule.nvars:
        raise ValueError(f"position {j} out of range [1, {rule.nvars}]")
    return rule.m ** (rule.nvars - j)


def essential_positions(rule: RuleTable) -> tuple[int, ...]:
    """1-based positions the rule actually depends on."""
    found = []
    size = len(rule.table)
    for j in range(1, rule.nvars + 1):
        stride = _stride(rule, j)
        for base in _context_bases(size, rule.m, stride):
            first = rule.table[base]
            if any(rule.table[base + v * stride] != first for v in range(1, rule.m)):
                found.append(j)
                break
    return tuple(found)


def is_permutive_at(rule: RuleTable, j: int) -> bool:
    """Brute-force permutivity test: with every other coordinate fixed,
    coordinate j must act as a bijection of Z_m. Ground truth for all
    algebraic permutivity criteria.
    """
    stride = _stride(rule, j)
    size = len(rule.table)
    m = rule.m
    for base in _context_bases(size, m, stride):
        seen = {rule.table[base + v * stride] for v in range(m)}
        if len(seen) != m:
            return False
    return True


def separable_component_at(rule: RuleTable, j: int) -> tuple[int, ...] | None:
    """If f(window) = g(x_j) + rest(other coordinates) for some g with
    g(0) = 0, return g's value table; otherwise None. The decomposition
    exists iff the difference f(..., x, ...) - f(..., 0, ...) does not
    depend on the context.
    """
    stride = _stride(rule, j)
    size = len(rule.table)
    m = rule.m
    component: tuple[int, ...] | None = None
    for base in _context_bases(size, m, stride):
        anchor = rule.table[base]
        diff = tuple(
            (rule.table[base + v * stride] - anchor) % m for v in range(m)
        )
        if component is None:
            component = diff
        elif diff != component:
            return None
    return component


def extract_monomial_at(rule: RuleTable, j: int) -> MonomialComponent | None:
    g = separable_component_at(rule, j)
    if g is None:
        return None
    a = g[1]
    if a == 0:
        return None
    m = rule.m
    for q in range(1, exponent_search_bound(m) + 1):
        if monomial_table(a, q, m) == g:
            return MonomialComponent(j, a, q)
    return None


def classify(rule: RuleTable) -> SeparationClass:
    essential = essential_positions(rule)
    components: list[MonomialComponent | None] = []
    for j in range(1, rule.nvars + 1):
        components.append(extract_monomial_at(rule, j) if j in essential else None)
    if essential:
        ell: int | None = essential[0]
        r: int | None = essential[-1]
        lr = components[ell - 1] is not None and components[r - 1] is not None
    else:
        ell = r = None
        lr = False
    all_separated = all(components[j - 1] is not None for j in essential)
    totally = all_separated and rule.table[0] == 0
    shift_like = totally and len(essential) == 1
    return SeparationClass(
        m=rule.m,
        d=rule.d,
        essential=essential,
        components=tuple(components),
        lr_separated=lr,
        totally_separated=totally,
        shift_like=shift_like,
        ell=ell,
        r=r,
    )


@lru_cache(maxsize=None)
def canonical_exponent(a: int, q: int, m: int) -> int:
    """Smallest q' >= 1 with a*x**q' == a*x**q as functions on Z_m."""
    target = monomial_table(a, q, m)
    bound = exponent_search_bound(m)
    for cand in range(1, min(q, bound) + 1):
        if monomial_table(a, cand, m) == target:
            return cand
    raise AssertionError(f"no exponent <= {bound} matches x**{q} mod {m}")
