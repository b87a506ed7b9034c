"""Local rules of one-dimensional cellular automata over Z_m.

The canonical representation is the full value table (RuleTable). On top
of that this module provides the finite-word extension map, exact dynamics
on spatially periodic configurations, detection of additively separated
structure, and the two rule front ends (expression strings, table files).
Separated structure comes from one walk per position over its columns
(the m outputs as x_j runs, other coordinates fixed), each read as a table
slice: essential, permutive (brute force) and the separable difference
table. classify and the per-position functions only read that result.

Window positions are 1-based (x1 .. x(d+1)) in every public signature,
matching the variable names of the expression grammar.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
        entries = tuple(map(int, values))
        if len(entries) != size:
            raise ValueError(f"expected {size} table entries, got {len(entries)}")
        if min(entries) < 0 or max(entries) >= m:
            bad = next(v for v in entries if not 0 <= v < m)
            raise ValueError(f"table entry {bad} out of range for Z_{m}")
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
        return self.f_star(window)[0]

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
        padded = [word.cells[(i - self.radius) % n] for i in range(n + self.d)]
        return CyclicWord(self.m, self.f_star(padded))


def _columns(rule: RuleTable, j: int) -> list[tuple[int, ...]]:
    """Position j's columns as table slices, one per context (the other
    coordinates in window order, leftmost most significant)."""
    m, table = rule.m, rule.table
    stride = m ** (rule.nvars - j)
    span = stride * m
    return [
        table[base : base + span : stride]
        for hi in range(0, len(table), span)
        for base in range(hi, hi + stride)
    ]


class ColumnFacts(NamedTuple):
    """essential: some column is not constant. permutive: every column is
    a bijection (brute force, the criteria's ground truth, never derived
    from `difference`). difference: g with g(0) = 0 when every column is a
    translate of g, i.e. f = g(x_j) + rest; else None."""

    essential: bool
    permutive: bool
    difference: tuple[int, ...] | None


def _position_facts(rule: RuleTable, j: int) -> ColumnFacts:
    m = rule.m
    first, *rest = _columns(rule, j)
    difference = tuple([(v - first[0]) % m for v in first])
    separable = True
    distinct = len(set(first))
    essential, permutive = distinct > 1, distinct == m
    for column in rest:
        if separable:
            c = column[0]
            separable = column == tuple([(c + v) % m for v in difference])
        if permutive or not essential:
            distinct = len(set(column))
            essential = essential or distinct > 1
            permutive = permutive and distinct == m
        elif not separable:
            break
    return ColumnFacts(essential, permutive, difference if separable else None)


@functools.lru_cache(maxsize=256)
def _column_pass(rule: RuleTable) -> tuple[ColumnFacts, ...]:
    """Column facts per position, memoised for the rule just classified."""
    return tuple(_position_facts(rule, j) for j in range(1, rule.nvars + 1))


def _facts_at(rule: RuleTable, j: int) -> ColumnFacts:
    if not 1 <= j <= rule.nvars:
        raise ValueError(f"position {j} out of range [1, {rule.nvars}]")
    return _column_pass(rule)[j - 1]


def is_permutive_at(rule: RuleTable, j: int) -> bool:
    """Brute-force permutivity test: with every other coordinate fixed,
    coordinate j must act as a bijection of Z_m. Ground truth for all
    algebraic permutivity criteria.
    """
    return _facts_at(rule, j).permutive


def permutivity_witness(rule: RuleTable, j: int) -> dict | None:
    """A context where coordinate j fails to be a bijection: two window
    values with equal outputs. None when the rule is permutive at j.
    """
    if _facts_at(rule, j).permutive:
        return None
    m = rule.m
    for k, column in enumerate(_columns(rule, j)):
        byval: dict[int, int] = {}
        for v, out in enumerate(column):
            if out in byval:
                return {
                    "position": j,
                    # column k's context: the other coordinates, k's base-m digits
                    "context": [k // m**e % m for e in reversed(range(rule.nvars - 1))],
                    "colliding_values": [byval[out], v],
                    "output": out,
                }
            byval[out] = v
    raise AssertionError("unreachable: a non-permutive position has a collision")


def separable_component_at(rule: RuleTable, j: int) -> tuple[int, ...] | None:
    """If f(window) = g(x_j) + rest(other coordinates) for some g with
    g(0) = 0, return g's value table; otherwise None. The decomposition
    exists iff the difference f(..., x, ...) - f(..., 0, ...) does not
    depend on the context.
    """
    return _facts_at(rule, j).difference


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


def _monomial(m: int, j: int, g: tuple[int, ...] | None) -> MonomialComponent | None:
    if g is None or g[1] == 0:
        return None
    for q in range(1, exponent_search_bound(m) + 1):
        if monomial_table(g[1], q, m) == g:
            return MonomialComponent(j, g[1], q)
    return None


@functools.lru_cache(maxsize=256)
def classify(rule: RuleTable) -> SeparationClass:
    """Detected additive structure of a rule.

    lr_separated: monomial summands exist at both the leftmost and the
    rightmost essential position (equal for single-variable rules).
    totally_separated: every essential position carries a monomial
    summand and the leftover constant is zero, i.e. the rule is exactly
    a sum of monomials.
    shift_like: totally separated with a single essential position.
    """
    facts = _column_pass(rule)
    essential = tuple(j for j, f in enumerate(facts, 1) if f.essential)
    components = [
        _monomial(rule.m, j, f.difference) if f.essential else None
        for j, f in enumerate(facts, 1)
    ]
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
    # the windows that are zero outside (ell, r) sit at the multiples of
    # the stride of position r - 1 below the stride of position ell
    m, n = rule.m, rule.nvars
    return rule.table[: m ** (n - ell) : m ** (n - r + 1)]


# --- rule builders -----------------------------------------------------------
#
# Every sum-of-monomials front end (sum_rule, lr_separated_rule,
# RuleExpression.table) builds its table in build_rule, as an outer sum
# of one value table per position: no window is evaluated on its own.
# Each front end checks its positions first; build_rule then leaves the
# modulus, the diameter and the table cap to RuleTable.make, before any
# part is built, and _outer_sum checks the block's length as it reads it.


def build_rule(
    m: int,
    d: int,
    terms: Iterable[tuple[int, int | None, int]],
    block: tuple[int, int, Sequence[int]] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> RuleTable:
    """RuleTable of a sum of monomials, reduced mod m.

    Each term is (coefficient, position, exponent) as in
    RuleExpression.terms: position None for a constant, positions may
    repeat, and 0**0 == 1. `block` = (j, h, values) adds a function of
    the h positions j .. j+h-1, given by its flat table of m**h values
    (leftmost most significant); with h = 0 it is the constant values[0].
    """
    return RuleTable.make(m, d, _outer_sum(m, d, terms, block), caps)


def _outer_sum(
    m: int,
    d: int,
    terms: Iterable[tuple[int, int | None, int]],
    block: tuple[int, int, Sequence[int]] | None,
) -> Iterator[int]:
    """The table of build_rule, as a generator: RuleTable.make checks m,
    d and the table cap before the first part table is built. A position's
    part holds the m values of its monomials summed (zeros without one),
    the block's part its m**h values; the table over positions 1 .. j is
    the outer sum of the table over 1 .. j-1 and the part at j.
    """
    constant = 0
    sums: dict[int, list[int]] = {}
    for coeff, j, q in terms:
        if j is None:
            constant += coeff
            continue
        values = sums.setdefault(j, [0] * m)
        for x in range(m):
            values[x] += coeff * pow_mod(x, q, m)
    # first position -> (width, values)
    parts: dict[int, tuple[int, Sequence[int]]] = {j: (1, v) for j, v in sums.items()}
    if block is not None:
        j, h, values = block
        if len(values) != m**h:
            raise ValueError(f"interior table needs {m ** h} entries, got {len(values)}")
        if h:
            parts[j] = (h, values)
        else:
            constant += values[0]
    zeros = (1, (0,) * m)
    table = [constant]
    j = 1
    while j <= d + 1:
        width, values = parts.get(j, zeros)
        table = [t + v for t in table for v in values]
        j += width
    for t in table:
        yield t % m


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
    terms = [(constant, None, 0), *((a, j, q) for j, (a, q) in components.items())]
    return build_rule(m, d, terms, caps=caps)


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
    terms = [(a_ell, ell, q_ell), (a_r, r, q_r)]
    return build_rule(m, d, terms, (ell + 1, r - ell - 1, interior), caps)


def rule_from_code(m: int, d: int, code: int, caps: Caps = DEFAULT_CAPS) -> RuleTable:
    """Decode a whole rule table from one integer: entry i is the i-th
    base-m digit of `code` (least significant first). Used by exhaustive
    sweeps so that rule identifiers stay compact and reproducible. The
    digits come from a generator, so RuleTable.make checks m, d and the
    table cap before the first is taken.
    """

    def digits() -> Iterator[int]:
        size, rest = m ** (d + 1), code
        for _ in range(size if code >= 0 else 0):
            rest, digit = divmod(rest, m)
            yield digit
        if rest:
            raise ValueError(f"code {code} out of range for {size} base-{m} digits")

    return RuleTable.make(m, d, digits(), caps)


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
        """The value at one window, term by term: the reference that the
        tables build_rule sums from per-position parts are tested against.
        """
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
        return build_rule(self.m, self.d, self.terms, caps=caps)


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
        terms = [self._term(d)]
        while self.peek()[:2] == ("punct", "+"):
            self.advance()
            terms.append(self._term(d))
        tok = self.peek()
        if tok[0] != "end":
            raise RuleParseError(f"trailing input {tok[1]!r}", tok[2])
        return RuleExpression(m, d, tuple(terms), self.source)

    def _term(self, d: int) -> tuple[int, int | None, int]:
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

