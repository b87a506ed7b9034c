"""Ground-truth deciders for global injectivity and surjectivity.

Everything here works on the full rule table, with no algebraic
assumptions; the criteria module audits its closed-form predictions
against these verdicts.

Both deciders rest on the pair graph, whose vertices are ordered pairs
of length-d words and whose edges are letter pairs with equal images
(Amoroso & Patt 1972). A path that leaves the diagonal along an unequal
letter pair and returns to it spells a diamond. By the Garden-of-Eden
theorem (Moore 1962, Myhill 1963) a rule is surjective iff it has no
diamond. The graph is symmetric under swapping its two tracks, so one
breadth-first search over the unordered off-diagonal pairs, at most
n(n-1)/2 of them for n = m^d, decides surjectivity and spells the
shortest diamond. A surjective rule is non-injective iff some
off-diagonal pair vertex lies on a cycle. Such a cycle never meets the
diagonal, so a peel of the unordered off-diagonal pairs drops those no
cycle reaches, and probes from the pairs left find and spell a cycle.

Every rule is decided along one path. By the balance theorem (Hedlund
1969) a surjective rule gives every letter exactly m^d of its m^(d+1)
windows, so one count of the table's letters refutes surjectivity for
every unbalanced table; the diamond search decides the rest. An
injective rule is surjective (Hedlund 1969), so injectivity starts from
that verdict: a negative one answers "not injective", a positive one
runs the cycle search. Each decider has one call shape, (rule, caps):
decide_injective asks decide_surjective itself. The surjectivity
verdict, the pair tables and the diamond search are memoised for the
rule at hand, so each runs at most once per rule and caps; their callers
share the result and read it, never mutate it. Only decide_surjective
refuses a rule with more de Bruijn vertices than caps.pair_vertices;
every diamond search comes after it.

A witness is held at once only when the deciding step has it in hand:
the first letter whose count is off, or the cycle found. Every other
one, the shortest unbalanced word of a balanced table and the shortest
diamond of any non-surjective rule, is a functools.partial of its
search, run on the first read of `witness` (CapExceeded past its cap).

Negative verdicts come with finite witnesses that re-validate against
the rule:

  * UnbalancedWord  - a finite word whose preimage count under the
                      finite-word extension map differs from m^d;
  * Diamond         - two distinct equal-length words sharing their
                      first d and last d letters with equal images;
  * PeriodicPair    - two distinct spatially periodic configurations
                      with equal image configurations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, compress
from typing import Sequence

from ca_verify.caps import CapExceeded, Caps, DEFAULT_CAPS
from ca_verify.rule import CyclicWord, RuleTable


@dataclass(frozen=True)
class UnbalancedWord:
    word: tuple[int, ...]
    count: int
    expected: int

    def validate(self, rule: RuleTable) -> bool:
        return (
            self.expected == rule.m**rule.d
            and self.count != self.expected
            and count_preimages(rule, self.word) == self.count
        )


@dataclass(frozen=True)
class Diamond:
    u: tuple[int, ...]
    v: tuple[int, ...]

    def validate(self, rule: RuleTable) -> bool:
        d = rule.d
        n = len(self.u)
        return (
            self.u != self.v
            and n == len(self.v)
            and n > d
            and self.u[:d] == self.v[:d]
            and self.u[n - d :] == self.v[n - d :]
            and rule.f_star(self.u) == rule.f_star(self.v)
        )


@dataclass(frozen=True)
class PeriodicPair:
    x: CyclicWord
    y: CyclicWord

    def validate(self, rule: RuleTable) -> bool:
        return not self.x.config_equal(self.y) and rule.apply_periodic(
            self.x
        ).config_equal(rule.apply_periodic(self.y))


class _Witness:
    """The witness field of a decider result. It holds a witness, or a
    deferred search, held as a functools.partial (no witness is one),
    that its first read replaces by the witness found; a search that
    raises stays, so every read raises the same way. A search is
    deferred only where the verdict proves a witness exists.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, result, owner=None):
        if result is None:  # class access: tells dataclass there is no default
            raise AttributeError(self.slot)
        value = result.__dict__[self.slot]
        if isinstance(value, partial):
            found = value()
            if found is None:
                raise AssertionError("unreachable: a deferred search finds its witness")
            value = result.__dict__[self.slot] = found
        return value

    def __set__(self, result, value) -> None:
        result.__dict__[self.slot] = value


@dataclass(frozen=True)
class SurjectivityResult:
    """The surjectivity verdict and, when negative, the shortest
    unbalanced word. For a balanced table the word is a deferred balance
    search, run on the first read of `witness`; == and repr read it too.
    """

    surjective: bool
    witness: UnbalancedWord | None = _Witness()


@dataclass(frozen=True)
class InjectivityResult:
    """The injectivity verdict and its witness. For a non-surjective rule
    the witness is a deferred diamond search, run on the first read of
    `witness`; == and repr read it too.
    """

    injective: bool
    witness: Diamond | PeriodicPair | None = _Witness()


def _count_step(rule: RuleTable, counts: Sequence[int], letter: int) -> list[int]:
    """Preimage counts one letter on: counts[v] is the number of preimages
    ending in the de Bruijn vertex v (the last d letters), and the result
    counts those extended by one window whose image is `letter`.
    """
    m, table = rule.m, rule.table
    n = len(counts)
    nxt = [0] * n
    for v in range(n):
        c = counts[v]
        if not c:
            continue
        base = v * m
        for a in range(m):
            if table[base + a] == letter:
                nxt[(base + a) % n] += c
    return nxt


def count_preimages(rule: RuleTable, word: Sequence[int]) -> int:
    """Number of words of length len(word) + d mapping onto `word` under
    the finite-word extension map. Surjective rules give exactly m^d for
    every word (balance); any other count certifies non-surjectivity.
    """
    if len(word) < 1:
        raise ValueError("preimage counting needs a non-empty word")
    counts = [1] * rule.m**rule.d
    for letter in word:
        if not 0 <= letter < rule.m:
            raise ValueError(f"letter {letter} out of range for Z_{rule.m}")
        counts = _count_step(rule, counts, letter)
    return sum(counts)


def decide_surjective(rule: RuleTable, caps: Caps = DEFAULT_CAPS) -> SurjectivityResult:
    """Exact surjectivity. A rule with more than caps.pair_vertices de
    Bruijn vertices is refused first, before the letter count, for every
    diamond search follows this call with the same caps. A table in
    which some letter has other than m^d windows is not surjective
    (balance, Hedlund 1969), and that letter is its shortest unbalanced
    word. Otherwise the rule is surjective iff _shortest_diamond,
    memoised and shared with decide_injective, finds no diamond (Moore
    1962, Myhill 1963); the shortest unbalanced word of a rule with one
    is searched for, within caps.subset_states, on the first read of
    `witness`. Memoised on (rule, caps), caps passed or not, so the same
    call from decide_injective is a memo hit; a refusal is raised again.
    """
    return _decide_surjective(rule, caps)


@lru_cache(maxsize=1)
def _decide_surjective(rule: RuleTable, caps: Caps) -> SurjectivityResult:
    """decide_surjective, with caps always passed, so one memo key per call."""
    m, table = rule.m, rule.table
    n = m**rule.d
    if n > caps.pair_vertices:
        raise CapExceeded(f"pair search needs {n} vertices, cap is {caps.pair_vertices}")
    for letter in range(m):
        count = table.count(letter)
        if count != n:
            return SurjectivityResult(False, UnbalancedWord((letter,), count, n))
    if _shortest_diamond(rule, caps) is None:
        return SurjectivityResult(True, None)
    return SurjectivityResult(False, partial(shortest_unbalanced_word, rule, caps))


def shortest_unbalanced_word(
    rule: RuleTable, caps: Caps = DEFAULT_CAPS
) -> UnbalancedWord | None:
    """Breadth-first search over preimage-count vectors for the shortest
    word whose preimage count differs from m^d; ties break to the
    lexicographically smallest word. None when every reachable count is
    balanced (i.e. the rule is surjective).
    """
    expected = rule.m**rule.d
    start = (1,) * expected
    seen = {start}
    frontier: deque[tuple[tuple[int, ...], tuple[int, ...]]] = deque([(start, ())])
    while frontier:
        counts, word = frontier.popleft()
        for letter in range(rule.m):
            nxt = _count_step(rule, counts, letter)
            if sum(nxt) != expected:
                return UnbalancedWord(word + (letter,), sum(nxt), expected)
            key = tuple(nxt)
            if key not in seen:
                seen.add(key)
                if len(seen) > caps.subset_states:
                    raise CapExceeded(
                        f"balance search exceeded {caps.subset_states} states"
                    )
                frontier.append((key, word + (letter,)))
    return None


_PairTables = tuple[list[list[tuple[int, int]]], list[list[list[tuple[int, int]]]]]


@lru_cache(maxsize=1)
def _pair_tables(rule: RuleTable) -> _PairTables:
    """Flat successor tables of the pair graph. Vertex u*n + v is the
    ordered pair of de Bruijn vertices (length-d words, most significant
    letter first) u and v; an edge (a, b) leaves it when the windows ua
    and vb have equal images, and enters the pair of their length-d
    suffixes. rows[u][a] is (suffix of ua, image of ua), and
    tails[v][label] lists (b, suffix of vb), b ascending, for the letters
    b that give vb that image (b is kept, as the suffix drops it when
    d = 0). Reading rows[u] in order, then tails[v][label], gives the
    edges out of u*n + v in ascending (a, b), which keeps every search
    over them deterministic. Memoised for the rule at hand and shared by
    both searches, which read the tables and never mutate them.
    """
    m, table = rule.m, rule.table
    n = m**rule.d
    rows = [[(w % n, table[w]) for w in range(u * m, u * m + m)] for u in range(n)]
    tails: list[list[list[tuple[int, int]]]] = [[[] for _ in range(m)] for _ in range(n)]
    for w, label in enumerate(table):
        tails[w // m][label].append((w % m, w % n))
    return rows, tails


def _vertex_word(v: int, m: int, d: int) -> tuple[int, ...]:
    digits = []
    for _ in range(d):
        v, rem = divmod(v, m)
        digits.append(rem)
    return tuple(reversed(digits))


def _letter_path(
    parents: dict[int, int], m: int, n: int, pid: int, a: int, b: int, unordered: bool
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Follow `parents`, which maps each vertex the breadth-first search
    reached (with `unordered`, the key x*n + y, x < y, of its unordered
    pair) to the vertex it was reached from, back from the edge (a, b)
    out of pid to the root, the first vertex without a parent. Returns
    the root and the two letter tracks of the path from it. The edge into
    a pair vertex (x, y) carries the last letters of x and y, (x mod m,
    y mod m); only d = 0 has no such letters, and then n = 1 and no
    search records a parent.
    """
    letters = [(a, b)]
    while True:
        x, y = divmod(pid, n)
        key = y * n + x if unordered and x > y else pid
        if key not in parents:
            break
        letters.append((x % m, y % m))
        pid = parents[key]
    u, v = zip(*reversed(letters))
    return pid, u, v


@lru_cache(maxsize=1)
def _shortest_diamond(rule: RuleTable, caps: Caps) -> Diamond | None:
    """The shortest diamond, or None if the rule has none. Breadth-first
    search of the pair graph, expanded on demand from the diagonal: out
    of every diagonal vertex (in order) along an unequal letter pair,
    then along any edge, until the diagonal is met again. A path that has
    left the diagonal ends at its first return, so the diagonal vertices
    in the frontier are exactly the starts. The first return is a
    shortest diamond; sorted expansion makes it lexicographically least
    on (shared prefix, letter pairs) among those.

    The graph is symmetric under swapping its two tracks, so the search
    records each unordered pair {x, y} once, under the key x*n + y,
    x < y, and expands only the orientation it met first; a diagonal
    start leaves along a < b only, as a > b gives the mirror images. An
    ordered search would meet the mirror of every such vertex later, from
    the mirror of its parent, and its first return to the diagonal would
    leave a first-met vertex. So this search returns the ordered search's
    diamond, and as the letters on the edge into a vertex are its own,
    `parents` maps each key to a vertex alone. The count n + (pairs
    recorded) is never above the ordered search's count, and a search
    that runs out without a diamond has reached n + 2 * (pairs recorded)
    ordered vertices, so it refuses past caps.pair_vertices exactly where
    the ordered search did (decide_surjective checks n first). Memoised on
    (rule, caps), so the verdict and the deferred witness share one search.
    """
    m, d = rule.m, rule.d
    n = m**d
    rows, tails = _pair_tables(rule)
    parents: dict[int, int] = {}
    frontier = list(range(0, n * n, n + 1))
    for pid in frontier:  # the list grows as it is read: breadth-first
        u, v = divmod(pid, n)
        leaving = u == v
        by_label = tails[v]
        for a, (x, label) in enumerate(rows[u]):
            for b, y in by_label[label]:
                if leaving and a >= b:
                    continue
                if x == y:
                    root, left, right = _letter_path(parents, m, n, pid, a, b, True)
                    prefix = _vertex_word(root // n, m, d)
                    return Diamond(prefix + left, prefix + right)
                key = x * n + y if x < y else y * n + x
                if key in parents:
                    continue
                parents[key] = pid
                if n + len(parents) > caps.pair_vertices:
                    raise CapExceeded(
                        f"pair search exceeded {caps.pair_vertices} vertices"
                    )
                frontier.append(x * n + y)
    if n + 2 * len(parents) > caps.pair_vertices:
        raise CapExceeded(f"pair search exceeded {caps.pair_vertices} vertices")
    return None


def _offdiagonal_cycle_pair(rule: RuleTable, caps: Caps) -> PeriodicPair | None:
    """PeriodicPair of a rule without a diamond, None if it is injective.
    Kahn's peel of the swap quotient (see decide_injective) counts every
    key's in-degree, then drops each key whose in-degree falls to zero,
    listing its heads again (none are stored). The keys left are those
    reachable from a quotient cycle, none for an injective rule. Each key
    left u*n + v, u < v, is probed in ascending order by the breadth-first
    search for the shortest cycle through (u, v), which closes iff {u, v}
    is on a quotient cycle. So the first probe that closes starts at the
    smallest off-diagonal pair vertex on a cycle (its mirror has the
    larger key), and spells the witness; neither depends on the order of
    quotient edges, nor on their repeats.
    """
    m, n = rule.m, rule.m**rule.d
    total = n * n
    if total > caps.pair_vertices:
        raise CapExceeded(f"pair graph needs {total} vertices, cap is {caps.pair_vertices}")
    rows, tails = _pair_tables(rule)

    def quotient(key: int) -> list[int]:
        """Keys x*n + y, x < y, of the off-diagonal heads (x, y) or (y, x)."""
        u, v = divmod(key, n)
        by_label = tails[v]
        return [
            x * n + y if x < y else y * n + x
            for x, label in rows[u]
            for _, y in by_label[label]
            if x != y
        ]

    def cycle_through(start: int) -> PeriodicPair | None:
        """Tracks of the shortest cycle through the pair vertex start, or None."""
        parents: dict[int, int] = {}
        frontier = deque([start])
        while frontier:
            pid = frontier.popleft()
            u, v = divmod(pid, n)
            by_label = tails[v]
            for a, (x, label) in enumerate(rows[u]):
                for b, y in by_label[label]:
                    head = x * n + y
                    if head == start:
                        _, left, right = _letter_path(parents, m, n, pid, a, b, False)
                        return PeriodicPair(CyclicWord(m, left), CyclicWord(m, right))
                    if head not in parents:
                        parents[head] = pid
                        frontier.append(head)
        return None

    keys = [range(u * n + u + 1, u * n + n) for u in range(n)]
    indegree = [0] * total  # 0 at every x*n + y, x >= y
    for key in chain.from_iterable(keys):
        for head in quotient(key):
            indegree[head] += 1
    dropped = [key for key in chain.from_iterable(keys) if not indegree[key]]
    while dropped:
        for head in quotient(dropped.pop()):
            degree = indegree[head] - 1
            indegree[head] = degree
            if not degree:
                dropped.append(head)
    for key in compress(range(total), indegree):
        pair = cycle_through(key)
        if pair is not None:
            return pair
    return None


def decide_injective(rule: RuleTable, caps: Caps = DEFAULT_CAPS) -> InjectivityResult:
    """Exact injectivity, from decide_surjective(rule, caps): a memo hit
    when the caller has just decided the rule's surjectivity.

    An injective rule is surjective (Hedlund 1969), so a negative verdict
    answers "not injective". The witness is then the shortest diamond:
    paste its two words into a common background and the images agree
    everywhere. That memoised search runs once per rule and caps, on the
    first read of `witness`, and past caps.pair_vertices raises CapExceeded.

    A surjective rule has no diamond, and two distinct configurations
    with equal images then differ at infinitely many cells, so their
    bi-infinite pair-graph path keeps returning to some off-diagonal
    vertex: the rule is non-injective iff an off-diagonal vertex lies on
    a cycle, whose two tracks are a PeriodicPair. Such a cycle never
    touches the diagonal, since leaving it and coming back spells a
    diamond, so diagonal vertices are dropped. The graph is symmetric
    under the swap (u, v) <-> (v, u), (a, b) <-> (b, a), and (u, v) lies
    on a cycle iff {u, v} lies on a cycle of the quotient over the
    n(n-1)/2 pairs u < v: a quotient cycle lifts to a path from (u, v) to
    (u, v) or to (v, u), and the mirror image of that path closes the
    cycle. So a quotient self-loop counts, even one whose only edge is
    (u, v) -> (v, u): the peel counts it in the key's in-degree, so the
    key is never dropped, and the probe from (u, v) closes through (v, u).
    """
    if not decide_surjective(rule, caps).surjective:
        return InjectivityResult(False, partial(_shortest_diamond, rule, caps))
    pair = _offdiagonal_cycle_pair(rule, caps)
    return InjectivityResult(pair is None, pair)
