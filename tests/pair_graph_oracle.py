"""The full pair-graph injectivity search, kept as a test oracle.

Without a diamond, a rule is non-injective iff some off-diagonal vertex
of the pair graph lies on a cycle. This oracle materialises all m^(2d)
pair vertices with their successor lists, labels every vertex with its
strongly connected component (Kosaraju) and takes the smallest
off-diagonal vertex on a cycle; the package answers the same question
with one cycle search over unordered off-diagonal pairs. The edge
relation and the diamond search are the oracle's own copies, so the
package's successor tables are checked, not shared.

tarjan_cycle_pair runs the package's cycle search over unordered pairs,
on the package's own tables, as an iterative Tarjan, so the package's
peel and probes are checked witness for witness.
"""

from collections import deque

from ca_verify.caps import CapExceeded, Caps, DEFAULT_CAPS
from ca_verify.decide import (
    Diamond,
    InjectivityResult,
    PeriodicPair,
    _letter_path,
    _pair_tables,
)
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


def tarjan_cycle_pair(rule: RuleTable, caps: Caps = DEFAULT_CAPS) -> PeriodicPair | None:
    """PeriodicPair of a rule without a diamond, None if it is injective.
    Tarjan's algorithm on the swap quotient (see
    ca_verify.decide.decide_injective) finds `start`, the smallest key
    u*n + v, u < v, on a quotient cycle, which is the smallest
    off-diagonal pair vertex on any cycle: its mirror has the larger key.
    It stops at the first root above a start found, as every component
    reachable from a root is emitted before the next. So `start` does
    not depend on the order of quotient edges, nor on their repeats,
    which Tarjan takes. The witness is the breadth-first shortest cycle
    through start.
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

    order, low = [0] * total, [0] * total  # depth-first index, total once finished
    stack: list[int] = []
    count, start = 0, total  # total: no start yet
    for root in (k for u in range(n) for k in range(u * n + u + 1, u * n + n)):
        if start < root:
            break
        if order[root]:
            continue
        calls: list[tuple] = []  # (key, heads, pending heads, stack position)
        head = root
        while head is not None or calls:
            if head is not None:  # enter it
                count += 1
                order[head] = low[head] = count
                heads = quotient(head)
                calls.append((head, heads, iter(heads), len(stack)))
                stack.append(head)
            key, heads, pending, pos = calls[-1]
            for head in pending:
                if not order[head]:
                    break
                if order[head] < low[key]:
                    low[key] = order[head]
            else:
                head = None
                calls.pop()
                if calls and low[key] < low[calls[-1][0]]:
                    low[calls[-1][0]] = low[key]
                if low[key] == order[key]:
                    component = stack[pos:]
                    del stack[pos:]
                    for w in component:
                        order[w] = total
                    if len(component) > 1 or key in heads:
                        start = min(start, *component)
    if start == total:
        return None
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
    raise AssertionError("unreachable: start lies on a cycle")
