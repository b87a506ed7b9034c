"""Ground-truth deciders for global injectivity and surjectivity.

Everything here works on the full rule table, with no algebraic
assumptions; the criteria module audits its closed-form predictions
against these verdicts.

Both deciders share one search over the pair graph, whose vertices are
ordered pairs of length-d words and whose edges are letter pairs with
equal images. A path that leaves the diagonal along an unequal letter
pair and returns to it spells a diamond. By the Garden-of-Eden theorem
(Moore 1962, Myhill 1963) a rule is surjective iff it has no diamond,
so a breadth-first search over at most m^(2d) pair vertices decides
surjectivity. A diamond also rules out injectivity; a rule without one
is non-injective iff some off-diagonal pair vertex lies on a cycle.

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
from typing import Sequence

from ca_verify.caps import CapExceeded, Caps, DEFAULT_CAPS
from ca_verify.rule import CyclicWord, RuleTable, SeparationClass, is_permutive_at
from ca_verify.zmod import monomial_invert


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


@dataclass(frozen=True)
class SurjectivityResult:
    surjective: bool
    witness: UnbalancedWord | None


@dataclass(frozen=True)
class InjectivityResult:
    injective: bool
    witness: Diamond | PeriodicPair | None


def count_preimages(rule: RuleTable, word: Sequence[int]) -> int:
    """Number of words of length len(word) + d mapping onto `word` under
    the finite-word extension map. Surjective rules give exactly m^d for
    every word (balance); any other count certifies non-surjectivity.
    """
    if len(word) < 1:
        raise ValueError("preimage counting needs a non-empty word")
    m, d, table = rule.m, rule.d, rule.table
    n = m**d
    counts = [1] * n
    for letter in word:
        if not 0 <= letter < m:
            raise ValueError(f"letter {letter} out of range for Z_{m}")
        nxt = [0] * n
        for v in range(n):
            c = counts[v]
            if not c:
                continue
            base = v * m
            for a in range(m):
                if table[base + a] == letter:
                    nxt[(base + a) % n] += c
        counts = nxt
    return sum(counts)


def decide_surjective(rule: RuleTable, caps: Caps = DEFAULT_CAPS) -> SurjectivityResult:
    """Exact surjectivity by the Garden-of-Eden theorem (Moore 1962,
    Myhill 1963): a rule is surjective iff it has no diamond, that is iff
    no path of the pair graph leaves the diagonal along an unequal letter
    pair and comes back to it. The breadth-first diamond search visits at
    most m^(2d) pair vertices. Negative verdicts carry the shortest
    unbalanced word, found by a separate search bounded by subset_states.
    """
    if _shortest_diamond(rule, caps) is None:
        return SurjectivityResult(True, None)
    witness = shortest_unbalanced_word(rule, caps)
    if witness is None:
        raise AssertionError("unreachable: non-surjective rules are unbalanced")
    return SurjectivityResult(False, witness)


def shortest_unbalanced_word(
    rule: RuleTable, caps: Caps = DEFAULT_CAPS
) -> UnbalancedWord | None:
    """Breadth-first search over preimage-count vectors for the shortest
    word whose preimage count differs from m^d; ties break to the
    lexicographically smallest word. None when every reachable count is
    balanced (i.e. the rule is surjective).
    """
    m, d, table = rule.m, rule.d, rule.table
    n = m**d
    expected = n
    start = (1,) * n
    seen = {start}
    frontier: deque[tuple[tuple[int, ...], tuple[int, ...]]] = deque([(start, ())])
    while frontier:
        counts, word = frontier.popleft()
        for letter in range(m):
            nxt = [0] * n
            for v in range(n):
                c = counts[v]
                if not c:
                    continue
                base = v * m
                for a in range(m):
                    if table[base + a] == letter:
                        nxt[(base + a) % n] += c
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


def _pair_successors(rule: RuleTable):
    """Successor function of the pair graph. Vertex u*n + v is the
    ordered pair of de Bruijn vertices (length-d words, most significant
    letter first) u and v; an edge (a, b) leaves it when the windows ua
    and vb have equal images, and enters the pair of their length-d
    suffixes. successors(pid) lists (a, b, head) with (a, b) ascending,
    which keeps every search over it deterministic.
    """
    m, table = rule.m, rule.table
    n = m**rule.d
    # heads[v][label] = [(b, suffix of vb)] for the letters b with f(vb) = label
    heads: list[list[list[tuple[int, int]]]] = []
    for v in range(n):
        by_label: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        for b in range(m):
            w = v * m + b
            by_label[table[w]].append((b, w % n))
        heads.append(by_label)

    def successors(pid: int) -> list[tuple[int, int, int]]:
        u, v = divmod(pid, n)
        by_label = heads[v]
        base = u * m
        return [
            (a, b, (base + a) % n * n + tail)
            for a in range(m)
            for b, tail in by_label[table[base + a]]
        ]

    return successors


def _vertex_word(v: int, m: int, d: int) -> tuple[int, ...]:
    digits = []
    for _ in range(d):
        v, rem = divmod(v, m)
        digits.append(rem)
    return tuple(reversed(digits))


def _shortest_diamond(rule: RuleTable, caps: Caps) -> Diamond | None:
    """Breadth-first search of the pair graph, expanded on demand from
    the diagonal: out of every diagonal vertex (in order) along an
    unequal letter pair, then along any edge, until the diagonal is met
    again. A path that has left the diagonal ends at its first return, so
    the diagonal vertices in the frontier are exactly the starts and no
    vertex needs a "has left" flag. The first return is a shortest
    diamond; sorted expansion makes it lexicographically least on (shared
    prefix, letter pairs) among those. Every distinct pair vertex reached
    counts against caps.pair_vertices.
    """
    m, d = rule.m, rule.d
    n = m**d
    diagonal = n + 1  # pid u*n + u is a multiple of n + 1
    if n > caps.pair_vertices:
        raise CapExceeded(f"pair search needs {n} vertices, cap is {caps.pair_vertices}")
    successors = _pair_successors(rule)
    parents: dict[int, tuple[int, int, int]] = {}
    frontier = deque(range(0, n * n, diagonal))
    while frontier:
        pid = frontier.popleft()
        leaving = pid % diagonal == 0
        for a, b, head in successors(pid):
            if leaving and a == b:
                continue
            if head % diagonal == 0:
                letters = [(a, b)]
                while pid % diagonal:
                    pid, a, b = parents[pid]
                    letters.append((a, b))
                letters.reverse()
                prefix = _vertex_word(pid // n, m, d)
                return Diamond(
                    prefix + tuple(a for a, _ in letters),
                    prefix + tuple(b for _, b in letters),
                )
            if head in parents:
                continue
            parents[head] = (pid, a, b)
            if n + len(parents) > caps.pair_vertices:
                raise CapExceeded(
                    f"pair search exceeded {caps.pair_vertices} vertices"
                )
            frontier.append(head)
    return None


def _pair_graph(rule: RuleTable, caps: Caps) -> list[list[tuple[int, int, int]]]:
    """The whole pair graph, as the successor list of every vertex."""
    total = (rule.m**rule.d) ** 2
    if total > caps.pair_vertices:
        raise CapExceeded(f"pair graph needs {total} vertices, cap is {caps.pair_vertices}")
    successors = _pair_successors(rule)
    return [successors(pid) for pid in range(total)]


def _strongly_connected_components(edges: list[list[tuple[int, int, int]]]) -> list[int]:
    """Kosaraju's algorithm, iterative. Returns the component id of every
    vertex; ids are assigned deterministically from the vertex order.
    """
    total = len(edges)
    order: list[int] = []
    seen = [False] * total
    for root in range(total):
        if seen[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        seen[root] = True
        while stack:
            v, i = stack.pop()
            if i < len(edges[v]):
                stack.append((v, i + 1))
                head = edges[v][i][2]
                if not seen[head]:
                    seen[head] = True
                    stack.append((head, 0))
            else:
                order.append(v)
    pred: list[list[int]] = [[] for _ in range(total)]
    for tail in range(total):
        for _, _, head in edges[tail]:
            pred[head].append(tail)
    component = [-1] * total
    current = 0
    for v in reversed(order):
        if component[v] != -1:
            continue
        component[v] = current
        stack2 = [v]
        while stack2:
            w = stack2.pop()
            for tail in pred[w]:
                if component[tail] == -1:
                    component[tail] = current
                    stack2.append(tail)
        current += 1
    return component


def _offdiagonal_cycle_pair(
    rule: RuleTable, edges: list[list[tuple[int, int, int]]]
) -> PeriodicPair | None:
    """A pair-graph cycle through an off-diagonal vertex. Such a cycle
    necessarily passes an unequal letter pair, so its two letter tracks
    are distinct periodic configurations with equal images. The start is
    the smallest off-diagonal vertex lying on any cycle and the cycle is
    the breadth-first shortest through it, so the result is deterministic.
    """
    n = rule.m**rule.d
    component = _strongly_connected_components(edges)
    comp_size: dict[int, int] = {}
    for cid in component:
        comp_size[cid] = comp_size.get(cid, 0) + 1
    start = None
    for v0 in range(n * n):
        if v0 % n == v0 // n:
            continue
        if comp_size[component[v0]] > 1 or any(head == v0 for _, _, head in edges[v0]):
            start = v0
            break
    if start is None:
        return None
    cid = component[start]
    parents: dict[int, tuple[int, int, int] | None] = {start: None}
    frontier = deque([start])
    letters: list[tuple[int, int]] | None = None
    while frontier and letters is None:
        pid = frontier.popleft()
        for a, b, head in edges[pid]:
            if head == start:
                chain = [(a, b)]
                state = pid
                while parents[state] is not None:
                    prev, pa, pb = parents[state]  # type: ignore[misc]
                    chain.append((pa, pb))
                    state = prev
                chain.reverse()
                letters = chain
                break
            if component[head] == cid and head not in parents:
                parents[head] = (pid, a, b)
                frontier.append(head)
    if letters is None:
        raise AssertionError("unreachable: SCC vertices lie on cycles")
    x = CyclicWord(rule.m, tuple(a for a, _ in letters))
    y = CyclicWord(rule.m, tuple(b for _, b in letters))
    return PeriodicPair(x, y)


def decide_injective(rule: RuleTable, caps: Caps = DEFAULT_CAPS) -> InjectivityResult:
    """Exact injectivity via the pair graph.

    A diamond makes a rule non-injective: paste its two words into a
    common background and the images agree everywhere. So the diamond
    search runs first, and a diamond it finds is the witness; this covers
    every non-surjective rule (Moore-Myhill). Without a diamond, two
    distinct configurations with equal images must differ at infinitely
    many cells, so their bi-infinite pair-graph path keeps returning to
    some off-diagonal vertex: the rule is non-injective iff an
    off-diagonal vertex lies on a cycle of the full pair graph, and that
    cycle's two tracks are a PeriodicPair witness.
    """
    diamond = _shortest_diamond(rule, caps)
    if diamond is not None:
        return InjectivityResult(False, diamond)
    pair = _offdiagonal_cycle_pair(rule, _pair_graph(rule, caps))
    return InjectivityResult(pair is None, pair)


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
