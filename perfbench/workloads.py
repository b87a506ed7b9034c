"""Seeded inputs for the three benchmark workloads.

The program under test only ever sees plain CLI argument lists and a
family spec file. The rule and value-table pools are fixed, built from
their own constant seed, so that an output reference can be recorded
once per pool entry (see record_reference.py); the workload seed decides
what is requested from the pools and in which order.
"""

from __future__ import annotations

import bisect
import itertools
import random

POOL_SEED = 20250421
# Sized so that every pool entry, down to the least popular, is requested
# at least once in a 20 s run: the run's mix is then the same for every
# seed, instead of depending on which rare heavy rules a seed happens to
# reach (one m=11, d=2 rule alone adds 40 MiB of peak RSS and 0.4 s).
POOL_RULES = 128
POOL_TABLES = 24
MAX_PAIR_VERTICES = 16384
ZIPF_EXPONENT = 0.8

# request_mix: share of each command in the stream, as cut points of [0, 1)
COMMAND_CUTS = ((0.85, "analyze"), (0.95, "witness"), (1.0, "interpolate"))
# Kronecker-sequence steps: the fractional parts of i * alpha spread evenly
# over [0, 1) for every prefix, so each run's mix of commands and of pool
# popularity matches the target shares closely instead of drifting with
# the sampling noise of independent draws.
RULE_STEP = 0.6180339887498949  # golden ratio - 1
COMMAND_STEP = 0.4142135623730951  # sqrt(2) - 1

AUDIT_FAMILY = "kind=all_tables\nmoduli=3\nd=1\n"
AUDIT_ROWS = 3 ** (3**2)

SCAN_ARGS = ("--p", "5", "--d", "2", "--q-max", "4", "--pi", "sample:1")
SCAN_JOBS = 2
SCAN_SEEDS = (0, 1, 2)


def _shapes() -> list[tuple[int, int]]:
    return [
        (m, d)
        for d in (1, 2, 3)
        for m in range(2, 14)
        if m ** (2 * d) <= MAX_PAIR_VERTICES
    ]


def rule_pool() -> list[str]:
    """Distinct sum-of-monomial rule sources: (m, d) uniform over the
    shapes with m in 2..13, d in 1..3 and at most MAX_PAIR_VERTICES
    pair-graph vertices; 1..d+1 terms at distinct positions; nonzero
    coefficients; exponents 1..6.
    """
    rng = random.Random(POOL_SEED)
    shapes = _shapes()
    pool: list[str] = []
    seen: set[str] = set()
    while len(pool) < POOL_RULES:
        m, d = rng.choice(shapes)
        positions = sorted(rng.sample(range(1, d + 2), rng.randint(1, d + 1)))
        terms = []
        for j in positions:
            a = rng.randrange(1, m)
            q = rng.randint(1, 6)
            coeff = "" if a == 1 else f"{a}*"
            power = "" if q == 1 else f"^{q}"
            terms.append(f"{coeff}x{j}{power}")
        source = f"m={m}; d={d}; f=" + "+".join(terms)
        if source not in seen:
            seen.add(source)
            pool.append(source)
    return pool


def table_pool() -> list[tuple[int, tuple[int, ...]]]:
    """Value tables for `interpolate` over the primes up to 13 and the
    composites up to 12: alternately drawn from a random cubic (always
    representable) and uniformly (over a composite, usually not).
    """
    rng = random.Random(POOL_SEED + 1)
    moduli = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)
    pool = []
    for i in range(POOL_TABLES):
        m = moduli[i % len(moduli)]
        if i // len(moduli) % 2 == 0:
            coeffs = [rng.randrange(m) for _ in range(4)]
            values = tuple(
                sum(c * x**e for e, c in enumerate(coeffs)) % m for x in range(m)
            )
        else:
            values = tuple(rng.randrange(m) for _ in range(m))
        pool.append((m, values))
    return pool


class ZipfPopularity:
    """Zipf-like popularity over a pool: the entry at rank k (from 1) is
    requested with weight 1/k**ZIPF_EXPONENT. Which entry holds which
    rank is fixed by the pool seed, so every workload seed sees the same
    popularity and the per-run mix does not depend on where the heavy
    rules happen to rank.
    """

    def __init__(self, size: int, salt: int):
        self.order = list(range(size))
        random.Random(POOL_SEED + salt).shuffle(self.order)
        self.cumulative = list(
            itertools.accumulate(
                1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(size)
            )
        )

    def index(self, u: float) -> int:
        """Pool index for a point u in [0, 1)."""
        rank = bisect.bisect_right(self.cumulative, u * self.cumulative[-1])
        return self.order[min(rank, len(self.order) - 1)]


def request_stream(seed: int):
    """Endless stream of (command, pool key, argv) requests. The seed sets
    the starting points of the two Kronecker sequences, so different
    seeds request different rules in a different order with the same
    long-run shares.
    """
    rng = random.Random(seed)
    u, v = rng.random(), rng.random()
    rules = rule_pool()
    tables = table_pool()
    rule_pop = ZipfPopularity(len(rules), 2)
    table_pop = ZipfPopularity(len(tables), 3)
    while True:
        command = next(name for cut, name in COMMAND_CUTS if v < cut)
        if command == "interpolate":
            index = table_pop.index(u)
            m, values = tables[index]
            yield command, f"t{index}", [
                "interpolate", ",".join(map(str, values)), "--m", str(m),
            ]
        else:
            index = rule_pop.index(u)
            yield command, f"r{index}", [command, rules[index]]
        u = (u + RULE_STEP) % 1.0
        v = (v + COMMAND_STEP) % 1.0


def scan_order(seed: int) -> list[int]:
    """The conjecture seeds of one scan cycle, in the workload seed's
    order. The set is fixed: the cost of one interior table varies about
    tenfold between conjecture seeds, so a run of a few tables drawn per
    workload seed would measure the draw rather than the program.
    """
    order = list(SCAN_SEEDS)
    random.Random(seed).shuffle(order)
    return order


def scan_argv(conjecture_seed: int, jobs: int) -> list[str]:
    return [
        "conjecture", *SCAN_ARGS, "--seed", str(conjecture_seed), "--jobs", str(jobs),
    ]


def audit_argv(family_path: str) -> list[str]:
    return ["audit", "--family", family_path, "--jobs", "1"]
