"""The subset-construction surjectivity decider, kept as a test oracle.

It explores subsets of de Bruijn vertices from the full vertex set: the
empty subset is reachable iff some finite word has no preimage iff the
rule is not surjective. Its state space is 2^(m^d), so it runs only on
small rules; the package decides surjectivity by the diamond search.
"""

from collections import deque

from ca_verify.caps import CapExceeded, Caps, DEFAULT_CAPS
from ca_verify.rule import RuleTable


def _successor_masks(rule: RuleTable) -> list[list[int]]:
    """mask[v][letter] = bitmask of de Bruijn successors of v under edges
    emitting `letter`. Vertex v encodes a length-d word, most significant
    letter first, so the window index of (v, a) is simply v*m + a.
    """
    m, d, table = rule.m, rule.d, rule.table
    n = m**d
    masks = [[0] * m for _ in range(n)]
    for v in range(n):
        base = v * m
        for a in range(m):
            w = base + a
            masks[v][table[w]] |= 1 << (w % n)
    return masks


def subset_surjective(rule: RuleTable, caps: Caps = DEFAULT_CAPS) -> bool:
    """Exact surjectivity via the subset construction on the de Bruijn
    graph, starting from the full vertex set.
    """
    masks = _successor_masks(rule)
    n = rule.m**rule.d
    full = (1 << n) - 1
    seen = {full}
    frontier = deque([full])
    surjective = True
    while frontier:
        subset = frontier.popleft()
        for letter in range(rule.m):
            nxt = 0
            rest = subset
            while rest:
                low = rest & -rest
                nxt |= masks[low.bit_length() - 1][letter]
                rest ^= low
            if nxt == 0:
                surjective = False
                frontier.clear()
                break
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > caps.subset_states:
                    raise CapExceeded(
                        f"subset construction exceeded {caps.subset_states} states"
                    )
                frontier.append(nxt)
    return surjective
