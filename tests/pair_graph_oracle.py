"""The full pair-graph injectivity search, kept as a test oracle.

Without a diamond, a rule is non-injective iff some off-diagonal vertex
of the pair graph lies on a cycle. This oracle materialises all m^(2d)
pair vertices with their successor lists, labels every vertex with its
strongly connected component (Kosaraju) and takes the smallest
off-diagonal vertex on a cycle; the package answers the same question
with one cycle search over unordered off-diagonal pairs. The edge
relation and the diamond search are the oracle's own copies, so the
package's successor tables are checked, not shared.
"""

from collections import deque

from ca_verify.caps import CapExceeded, Caps, DEFAULT_CAPS
from ca_verify.decide import Diamond, InjectivityResult, PeriodicPair
from ca_verify.rule import CyclicWord, RuleTable


def _pair_successors(rule: RuleTable):
    """Successor function of the pair graph. Vertex u*n + v is the
    ordered pair of de Bruijn vertices (length-d words, most significant
    letter first) u and v; an edge (a, b) leaves it when the windows ua
    and vb have equal images, and enters the pair of their length-d
    suffixes. successors(pid) lists (a, b, head) with (a, b) ascending.
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
    """Breadth-first search of the pair graph from the diagonal: out of
    every diagonal vertex (in order) along an unequal letter pair, then
    along any edge, until the diagonal is met again. The first return is
    the shortest diamond, lexicographically least on (shared prefix,
    letter pairs).
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
                u, v = zip(*reversed(letters))
                prefix = _vertex_word(pid // n, m, d)
                return Diamond(prefix + u, prefix + v)
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


def pair_graph_injective(rule: RuleTable, caps: Caps = DEFAULT_CAPS) -> InjectivityResult:
    """Injectivity with the diamond search first, then the full pair
    graph: the decision procedure of the package before the cycle search
    moved to unordered pairs.
    """
    diamond = _shortest_diamond(rule, caps)
    if diamond is not None:
        return InjectivityResult(False, diamond)
    pair = _offdiagonal_cycle_pair(rule, _pair_graph(rule, caps))
    return InjectivityResult(pair is None, pair)
