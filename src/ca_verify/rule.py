"""Local rules of one-dimensional cellular automata over Z_m.

The canonical representation is the full value table (RuleTable). On top
of that this module provides the finite-word extension map, exact dynamics
on spatially periodic configurations, detection of additively separated
structure, and the two rule front ends (expression strings, table files).

Window positions are 1-based (x1 .. x(d+1)) in every public signature,
matching the variable names of the expression grammar.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from ca_verify.caps import CapExceeded, Caps, DEFAULT_CAPS
from ca_verify.zmod import (
    check_modulus,
    exponent_search_bound,
    monomial_table,
    pow_mod,
)


@dataclass(frozen=True)
class CyclicWord:
    """A spatially periodic configuration, anchored: cell i holds
    cells[i mod n]. Two CyclicWords describe the same configuration
    exactly when their primitive forms are equal (config_equal);
    rotation_equal additionally quotients out the anchor.
    """

    m: int
    cells: tuple[int, ...]

    @classmethod
    def make(cls, m: int, cells: Iterable[int]) -> "CyclicWord":
        check_modulus(m)
        cs = tuple(int(c) for c in cells)
        if not cs:
            raise ValueError("a cyclic word needs at least one letter")
        for c in cs:
            if not 0 <= c < m:
                raise ValueError(f"letter {c} out of range for Z_{m}")
        return cls(m, cs)

    def __len__(self) -> int:
        return len(self.cells)

    def primitive(self) -> "CyclicWord":
        """Shortest word generating the same anchored configuration."""
        n = len(self.cells)
        for p in range(1, n + 1):
            if n % p == 0 and self.cells == self.cells[:p] * (n // p):
                return CyclicWord(self.m, self.cells[:p])
        raise AssertionError("unreachable: n is always a period of itself")

    def rotated(self, k: int) -> "CyclicWord":
        """The configuration shifted left by k cells (new cell i = old cell i+k)."""
        n = len(self.cells)
        k %= n
        return CyclicWord(self.m, self.cells[k:] + self.cells[:k])

    def config_equal(self, other: "CyclicWord") -> bool:
        return (
            self.m == other.m
            and self.primitive().cells == other.primitive().cells
        )

    def rotation_equal(self, other: "CyclicWord") -> bool:
        if self.m != other.m:
            return False
        a = self.primitive().cells
        b = other.primitive().cells
        if len(a) != len(b):
            return False
        doubled = a + a
        return any(doubled[k : k + len(b)] == b for k in range(len(a)))


@dataclass(frozen=True)
class RuleTable:
    """Local rule f: Z_m^(d+1) -> Z_m as a flat value table.

    Window (x1, ..., x(d+1)) lives at index sum(x_i * m^(d+1-i)), i.e.
    x1 is the most significant mixed-radix digit.
    """

    m: int
    d: int
    table: tuple[int, ...]

    @classmethod
    def make(
        cls, m: int, d: int, values: Iterable[int], caps: Caps = DEFAULT_CAPS
    ) -> "RuleTable":
        check_modulus(m)
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise ValueError(f"diameter must be a non-negative integer, got {d!r}")
        size = m ** (d + 1)
        if size > caps.table_entries:
            raise CapExceeded(
                f"rule table needs {size} entries, cap is {caps.table_entries}"
            )
        entries = tuple(int(v) for v in values)
        if len(entries) != size:
            raise ValueError(f"expected {size} table entries, got {len(entries)}")
        for v in entries:
            if not 0 <= v < m:
                raise ValueError(f"table entry {v} out of range for Z_{m}")
        return cls(m, d, entries)

    @property
    def nvars(self) -> int:
        return self.d + 1

    @property
    def radius(self) -> int:
        """Cells of lookback: the output at cell i reads cells
        [i - radius, i - radius + d]. Odd diameters get the extra cell
        on the anticipation side.
        """
        return self.d // 2

    def evaluate(self, window: Sequence[int]) -> int:
        if len(window) != self.nvars:
            raise ValueError(
                f"window length {len(window)} does not match arity {self.nvars}"
            )
        idx = 0
        for x in window:
            idx = idx * self.m + (x % self.m)
        return self.table[idx]

    def f_star(self, word: Sequence[int]) -> tuple[int, ...]:
        """Apply the rule to every length-(d+1) window of a finite word.

        The result has length max(0, len(word) - d).
        """
        n = len(word)
        if n <= self.d:
            return ()
        m, d, table = self.m, self.d, self.table
        out = []
        for i in range(n - d):
            idx = 0
            for k in range(d + 1):
                idx = idx * m + (word[i + k] % m)
            out.append(table[idx])
        return tuple(out)

    def apply_periodic(self, word: CyclicWord) -> CyclicWord:
        """Image configuration of a spatially periodic configuration,
        returned with the same period length and anchor.
        """
        if word.m != self.m:
            raise ValueError(f"modulus mismatch: rule Z_{self.m}, word Z_{word.m}")
        n = len(word.cells)
        rho = self.radius
        out = []
        for i in range(n):
            idx = 0
            for k in range(self.d + 1):
                idx = idx * self.m + word.cells[(i - rho + k) % n]
            out.append(self.table[idx])
        return CyclicWord(self.m, tuple(out))


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


def permutivity_witness(rule: RuleTable, j: int) -> dict | None:
    """A context where coordinate j fails to be a bijection: two window
    values with equal outputs. None when the rule is permutive at j.
    """
    stride = _stride(rule, j)
    size = len(rule.table)
    m = rule.m
    for base in _context_bases(size, m, stride):
        byval: dict[int, int] = {}
        for v in range(m):
            out = rule.table[base + v * stride]
            if out in byval:
                context = _index_to_window(base, m, rule.nvars)
                return {
                    "position": j,
                    "context": [c for i, c in enumerate(context) if i != j - 1],
                    "colliding_values": [byval[out], v],
                    "output": out,
                }
            byval[out] = v
    return None


def _index_to_window(idx: int, m: int, nvars: int) -> tuple[int, ...]:
    digits = []
    for _ in range(nvars):
        idx, rem = divmod(idx, m)
        digits.append(rem)
    return tuple(reversed(digits))


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


@dataclass(frozen=True)
class MonomialComponent:
    """Separated summand a * x_j^q at 1-based position j; q is stored in
    canonical (smallest table-equivalent) form.
    """

    position: int
    a: int
    q: int


@dataclass(frozen=True)
class SeparationClass:
    m: int
    d: int
    essential: tuple[int, ...]
    components: tuple[MonomialComponent | None, ...]  # slot per position 1..d+1
    lr_separated: bool
    totally_separated: bool
    shift_like: bool
    ell: int | None
    r: int | None

    def component_at(self, j: int) -> MonomialComponent | None:
        if not 1 <= j <= self.d + 1:
            raise ValueError(f"position {j} out of range [1, {self.d + 1}]")
        return self.components[j - 1]


def extract_monomial_at(rule: RuleTable, j: int) -> MonomialComponent | None:
    """Monomial summand at position j: succeeds iff
    f(window) = a * x_j^q + rest(other coordinates) with a != 0, q >= 1.

    The coefficient is forced (a = g(1) for the difference table g); the
    exponent is the smallest one reproducing g, searched up to the sound
    bound from zmod.exponent_search_bound.
    """
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


@functools.lru_cache(maxsize=1 << 16)
def classify(rule: RuleTable) -> SeparationClass:
    """Detected additive structure of a rule.

    lr_separated: monomial summands exist at both the leftmost and the
    rightmost essential position (equal for single-variable rules).
    totally_separated: every essential position carries a monomial
    summand and the leftover constant is zero, i.e. the rule is exactly
    a sum of monomials.
    shift_like: totally separated with a single essential position.
    """
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
    # When every essential position is separated, the residual is the
    # constant f(0, ..., 0); total separation additionally requires it
    # to vanish so the rule is a bare sum of monomials. The zero rule is
    # the empty sum and counts as totally separated.
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


def interior_table(rule: RuleTable, ell: int, r: int) -> tuple[int, ...]:
    """Value table of the rule over the positions strictly between ell
    and r, with both end positions pinned to zero. This is the residual
    map of an LR-separated rule, constants folded in.
    """
    if not 1 <= ell < r <= rule.nvars:
        raise ValueError(f"need 1 <= ell < r <= {rule.nvars}, got ({ell}, {r})")
    interior = range(ell + 1, r)
    m = rule.m
    values = []
    for assignment in itertools.product(range(m), repeat=len(interior)):
        window = [0] * rule.nvars
        for pos, val in zip(interior, assignment):
            window[pos - 1] = val
        values.append(rule.evaluate(window))
    return tuple(values)


# --- rule builders -----------------------------------------------------------


def build_rule(
    m: int,
    d: int,
    fn: Callable[[tuple[int, ...]], int],
    caps: Caps = DEFAULT_CAPS,
) -> RuleTable:
    """RuleTable from a window callable; values are reduced mod m."""
    check_modulus(m)
    size = m ** (d + 1)
    if size > caps.table_entries:
        raise CapExceeded(
            f"rule table needs {size} entries, cap is {caps.table_entries}"
        )
    return RuleTable.make(
        m,
        d,
        (fn(w) % m for w in itertools.product(range(m), repeat=d + 1)),
        caps,
    )


def monomial_rule(
    m: int, d: int, j: int, a: int, q: int, caps: Caps = DEFAULT_CAPS
) -> RuleTable:
    """f(window) = a * x_j^q."""
    if not 1 <= j <= d + 1:
        raise ValueError(f"position {j} out of range [1, {d + 1}]")
    if q < 1:
        raise ValueError(f"monomial exponent must be >= 1, got {q}")
    return build_rule(m, d, lambda w: a * pow_mod(w[j - 1], q, m), caps)


def sum_rule(
    m: int,
    d: int,
    components: Mapping[int, tuple[int, int]],
    constant: int = 0,
    caps: Caps = DEFAULT_CAPS,
) -> RuleTable:
    """f(window) = constant + sum of a_j * x_j^q_j over the given positions."""
    for j in components:
        if not 1 <= j <= d + 1:
            raise ValueError(f"position {j} out of range [1, {d + 1}]")

    def fn(w: tuple[int, ...]) -> int:
        acc = constant
        for j, (a, q) in components.items():
            acc += a * pow_mod(w[j - 1], q, m)
        return acc

    return build_rule(m, d, fn, caps)


def lr_separated_rule(
    m: int,
    d: int,
    ell: int,
    r: int,
    a_ell: int,
    q_ell: int,
    a_r: int,
    q_r: int,
    interior: Sequence[int],
    caps: Caps = DEFAULT_CAPS,
) -> RuleTable:
    """f = a_ell * x_ell^q_ell + interior(x_(ell+1) .. x_(r-1)) + a_r * x_r^q_r.

    `interior` is a flat table over the positions strictly between ell and
    r (mixed radix, leftmost most significant); for r = ell + 1 it must
    hold a single constant.
    """
    if not 1 <= ell < r <= d + 1:
        raise ValueError(f"need 1 <= ell < r <= {d + 1}, got ({ell}, {r})")
    h = r - ell - 1
    if len(interior) != m**h:
        raise ValueError(f"interior table needs {m ** h} entries, got {len(interior)}")

    def fn(w: tuple[int, ...]) -> int:
        idx = 0
        for pos in range(ell + 1, r):
            idx = idx * m + w[pos - 1]
        return (
            a_ell * pow_mod(w[ell - 1], q_ell, m)
            + interior[idx]
            + a_r * pow_mod(w[r - 1], q_r, m)
        )

    return build_rule(m, d, fn, caps)


def rule_from_code(m: int, d: int, code: int, caps: Caps = DEFAULT_CAPS) -> RuleTable:
    """Decode a whole rule table from one integer: entry i is the i-th
    base-m digit of `code` (least significant first). Used by exhaustive
    sweeps so that rule identifiers stay compact and reproducible.
    """
    size = m ** (d + 1)
    if not 0 <= code < m**size:
        raise ValueError(f"code {code} out of range for {size} base-{m} digits")
    entries = []
    for _ in range(size):
        code, rem = divmod(code, m)
        entries.append(rem)
    return RuleTable.make(m, d, entries, caps)


# --- expression front end ----------------------------------------------------


class RuleParseError(ValueError):
    """Parse failure with the character offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True)
class RuleExpression:
    """Parsed rule source: modulus, diameter, and a flat sum of terms.

    Each term is (coefficient, position or None, exponent); constant
    terms use position None. The expression remembers enough syntax for
    criteria to be evaluated on exponents exactly as written.
    """

    m: int
    d: int
    terms: tuple[tuple[int, int | None, int], ...]
    source: str

    def evaluate(self, window: Sequence[int]) -> int:
        acc = 0
        for coeff, pos, exp in self.terms:
            if pos is None:
                acc += coeff
            else:
                acc += coeff * pow_mod(window[pos - 1], exp, self.m)
        return acc % self.m

    def raw_exponents(self) -> dict[int, tuple[int, int]]:
        """Position -> (coefficient, exponent) for variables written as a
        single monomial term. Variables that appear in several terms, only
        with exponent zero, or with a vanishing coefficient get no entry.
        """
        occurrences: dict[int, list[tuple[int, int]]] = {}
        for coeff, pos, exp in self.terms:
            if pos is not None:
                occurrences.setdefault(pos, []).append((coeff, exp))
        out: dict[int, tuple[int, int]] = {}
        for pos, terms in occurrences.items():
            if len(terms) != 1:
                continue
            coeff, exp = terms[0]
            if exp >= 1 and coeff % self.m != 0:
                out[pos] = (coeff % self.m, exp)
        return out

    def table(self, caps: Caps = DEFAULT_CAPS) -> RuleTable:
        return build_rule(self.m, self.d, self.evaluate, caps)


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<var>x\d+)|(?P<name>[A-Za-wyz])|(?P<punct>[=;+*^])"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise RuleParseError(f"unexpected character {source[pos]!r}", pos)
        pos = match.end()
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(), match.start()))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind or (text is not None and tok[1] != text):
            wanted = text if text is not None else kind
            raise RuleParseError(f"expected {wanted!r}, found {tok[1] or 'end'!r}", tok[2])
        return self.advance()

    def read_int(self) -> tuple[int, int]:
        tok = self.expect("int")
        return int(tok[1]), tok[2]

    def parse(self) -> RuleExpression:
        self.expect("name", "m")
        self.expect("punct", "=")
        m, mpos = self.read_int()
        try:
            check_modulus(m)
        except ValueError as exc:
            raise RuleParseError(str(exc), mpos) from exc
        self.expect("punct", ";")
        self.expect("name", "d")
        self.expect("punct", "=")
        d, _ = self.read_int()
        self.expect("punct", ";")
        self.expect("name", "f")
        self.expect("punct", "=")
        terms = [self._term(m, d)]
        while self.peek()[:2] == ("punct", "+"):
            self.advance()
            terms.append(self._term(m, d))
        tok = self.peek()
        if tok[0] != "end":
            raise RuleParseError(f"trailing input {tok[1]!r}", tok[2])
        return RuleExpression(m, d, tuple(terms), self.source)

    def _term(self, m: int, d: int) -> tuple[int, int | None, int]:
        tok = self.peek()
        if tok[0] == "int":
            coeff = int(self.advance()[1])
            if self.peek()[:2] == ("punct", "*"):
                self.advance()
                pos, exp = self._factor(d)
                return (coeff, pos, exp)
            return (coeff, None, 0)
        if tok[0] == "var":
            pos, exp = self._factor(d)
            return (1, pos, exp)
        raise RuleParseError(
            f"expected a term, found {tok[1] or 'end'!r}", tok[2]
        )

    def _factor(self, d: int) -> tuple[int, int]:
        tok = self.expect("var")
        index = int(tok[1][1:])
        if not 1 <= index <= d + 1:
            raise RuleParseError(
                f"variable {tok[1]} outside x1..x{d + 1}", tok[2]
            )
        if self.peek()[:2] == ("punct", "^"):
            self.advance()
            exp, _ = self.read_int()
            return (index, exp)
        return (index, 1)


def parse_rule(
    source: str, caps: Caps = DEFAULT_CAPS
) -> tuple[RuleTable, RuleExpression]:
    """Parse ``m=INT; d=INT; f=EXPR`` and build the full table."""
    expression = _Parser(source).parse()
    return expression.table(caps), expression


# --- table file front end ----------------------------------------------------


def parse_table_text(text: str, caps: Caps = DEFAULT_CAPS) -> RuleTable:
    """Rule from the table file format: a header line ``m d`` followed by
    m^(d+1) whitespace-separated entries in window order.
    """
    fields = [(match.group(), match.start()) for match in re.finditer(r"\S+", text)]
    if len(fields) < 2:
        raise RuleParseError("table file needs a header line 'm d'", 0)
    values = []
    for token, pos in fields:
        try:
            values.append(int(token))
        except ValueError:
            raise RuleParseError(f"not an integer: {token!r}", pos) from None
    m, d = values[0], values[1]
    try:
        check_modulus(m)
        if d < 0:
            raise ValueError(f"diameter must be non-negative, got {d}")
        size = m ** (d + 1)
        if size > caps.table_entries:
            raise CapExceeded(
                f"rule table needs {size} entries, cap is {caps.table_entries}"
            )
    except CapExceeded:
        raise
    except ValueError as exc:
        raise RuleParseError(str(exc), fields[0][1]) from exc
    entries = values[2:]
    if len(entries) != size:
        raise RuleParseError(
            f"expected {size} table entries, got {len(entries)}", fields[-1][1]
        )
    for (token, pos), value in zip(fields[2:], entries):
        if not 0 <= value < m:
            raise RuleParseError(f"table entry {value} out of range for Z_{m}", pos)
    return RuleTable.make(m, d, entries, caps)


def table_file_text(rule: RuleTable, per_line: int = 20) -> str:
    lines = [f"{rule.m} {rule.d}"]
    for start in range(0, len(rule.table), per_line):
        lines.append(" ".join(str(v) for v in rule.table[start : start + per_line]))
    return "\n".join(lines) + "\n"
