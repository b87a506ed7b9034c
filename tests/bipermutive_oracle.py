"""The constructive collision for rules permutive at both end positions,
kept as a test oracle with the monomial helpers it needs.

A rule separated and permutive at its end positions ell < r is never
injective (Hedlund 1969). The package decides that, like any other
injectivity question, on the pair graph; this construction reaches the
same verdict a second way, by solving the end monomials outward from two
different central seeds, and so checks the deciders without sharing
their code.
"""

from dataclasses import dataclass

from ca_verify.rule import RuleTable, SeparationClass, is_permutive_at
from ca_verify.zmod import monomial_table


def monomial_is_bijective(a: int, q: int, m: int) -> bool:
    table = monomial_table(a, q, m)
    return len(set(table)) == m


def monomial_invert(a: int, q: int, b: int, m: int) -> tuple[int, ...]:
    """All x in Z_m with a * x**q == b, in increasing order."""
    table = monomial_table(a, q, m)
    b %= m
    return tuple(x for x in range(m) if table[x] == b)


@dataclass(frozen=True)
class BipermutiveCollision:
    """Two distinct words with the same constant image under the
    finite-word extension map.
    """

    u: tuple[int, ...]
    v: tuple[int, ...]
    image_letter: int

    def validate(self, rule: RuleTable) -> bool:
        image = (self.image_letter,) * (len(self.u) - rule.d)
        return (
            self.u != self.v
            and len(self.u) == len(self.v)
            and rule.f_star(self.u) == image
            and rule.f_star(self.v) == image
        )


def bipermutive_collision(
    rule: RuleTable, cls: SeparationClass, window: int
) -> BipermutiveCollision:
    """Constructive non-injectivity for rules separated and permutive at
    both end positions ell < r: solve the end monomials outward from two
    different central seeds so that every sliding window evaluates to the
    same letter. Returns two words of length 2*window + 1 whose images
    are that constant; requires window >= r - ell + d.
    """
    if not cls.lr_separated or cls.ell is None or cls.r is None or cls.ell >= cls.r:
        raise ValueError("rule is not separated at two distinct end positions")
    ell, r = cls.ell, cls.r
    if not (is_permutive_at(rule, ell) and is_permutive_at(rule, r)):
        raise ValueError("rule is not permutive at both end positions")
    span = r - ell
    if window < span + rule.d:
        raise ValueError(
            f"window {window} too small, need at least {span + rule.d}"
        )
    m = rule.m
    comp_l = cls.component_at(ell)
    comp_r = cls.component_at(r)
    assert comp_l is not None and comp_r is not None
    b_ell = monomial_invert(comp_l.a, comp_l.q, 1 % m, m)[0]
    c_r = monomial_invert(comp_r.a, comp_r.q, (m - 1) % m, m)[0]
    target = rule.table[0]

    length = 2 * window + 1
    seed_at = (2 * window - span) // 2

    def extend(seed: list[int | None]) -> tuple[int, ...]:
        cells = list(seed)

        def window_value(start: int, unknown_offset: int, x: int) -> int:
            win = []
            for k in range(rule.nvars):
                idx = start + k
                if k == unknown_offset:
                    win.append(x)
                elif 0 <= idx < length and cells[idx] is not None:
                    win.append(cells[idx])  # type: ignore[arg-type]
                else:
                    win.append(0)
            return rule.evaluate(win)

        for c in range(seed_at + span + 1, length):
            start = c - (r - 1)
            cells[c] = next(
                x for x in range(m) if window_value(start, r - 1, x) == target
            )
        for c in range(seed_at - 1, -1, -1):
            start = c - (ell - 1)
            cells[c] = next(
                x for x in range(m) if window_value(start, ell - 1, x) == target
            )
        assert all(v is not None for v in cells)
        return tuple(cells)  # type: ignore[arg-type]

    seed_u: list[int | None] = [None] * length
    seed_v: list[int | None] = [None] * length
    for offset in range(span + 1):
        seed_u[seed_at + offset] = 0
        seed_v[seed_at + offset] = 0
    seed_u[seed_at] = b_ell
    seed_u[seed_at + span] = c_r

    u = extend(seed_u)
    v = extend(seed_v)
    collision = BipermutiveCollision(u, v, target)
    if not collision.validate(rule):
        raise AssertionError("unreachable: outward solving produced a bad collision")
    return collision
