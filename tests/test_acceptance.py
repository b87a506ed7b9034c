"""Acceptance gate: the ten end-to-end checks the package must pass.

One test per criterion, numbered AC01..AC10, each printing a single
PASS/FAIL line with its elapsed time (run pytest with -s to see the
lines as they happen). Checks with a stated runtime budget assert it.

The two exhaustive sweeps (AC04, AC05) compare the deciders against
oracles built from nothing but the rule table:

* surjectivity: direct preimage counting, a rule is surjective exactly
  when every word of length 1..4 has 3*3 = 9 preimage words, i.e.
  count_preimages == 3 per word after fixing the first window;
* injectivity: exhaustive collision search, periodic pairs up to
  period 9 plus diamonds up to word length 20. For m=3, d=1 these
  bounds are complete: a pair of distinct configurations with equal
  images yields a walk through the 9-vertex pair graph of letter
  pairs along equal-output edges, so either it closes into an
  off-diagonal cycle of length at most 9 (a periodic pair) or a
  shortest diagonal-to-diagonal excursion repeats no (vertex, diverged)
  state and spans at most 18 edges, giving a diamond of at most 19
  letters.
"""

import contextlib
import io
import itertools
import json
import random
import time
from collections import deque

import numpy as np

from ca_verify.cli import main as cli_main
from ca_verify.criteria import (
    HOLDS,
    FamilySpec,
    analyze,
    audit,
    conjecture_scan,
    criterion_totient_permutivity,
)
from ca_verify.decide import (
    count_preimages,
    decide_injective,
    decide_surjective,
)
from ca_verify.poly import (
    Poly,
    interpolate_prime,
    is_permutation_poly,
    representability_search,
)
from ca_verify.rule import (
    CyclicWord,
    classify,
    is_permutive_at,
    lr_separated_rule,
    parse_rule,
    rule_from_code,
    sum_rule,
)
from ca_verify.zmod import units
from bipermutive_oracle import bipermutive_collision, monomial_is_bijective


@contextlib.contextmanager
def _criterion(number: int, label: str, budget: float | None = None):
    """Print one verdict line for an acceptance check and enforce its
    runtime budget when one is stated.
    """
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"AC{number:02d} FAIL {label} ({time.monotonic() - start:.2f} s)")
        raise
    elapsed = time.monotonic() - start
    within = budget is None or elapsed < budget
    print(f"AC{number:02d} {'PASS' if within else 'FAIL'} {label} ({elapsed:.2f} s)")
    assert within, f"AC{number:02d} took {elapsed:.2f} s, budget {budget:.0f} s"


def test_ac01_quadratic_ends_report():
    """Worked rule over Z_4: surjective, yet not permutive at either end,
    and the sufficiency criterion fails without raising a discrepancy
    (it is one-sided, so fails + surjective is consistent).
    """
    with _criterion(1, "quadratic-ends rule over Z_4", budget=1.0):
        rule, expr = parse_rule("m=4; d=2; f=x1^2+x2+x3^2")
        assert not is_permutive_at(rule, 1)
        assert not is_permutive_at(rule, 3)
        report = analyze(rule, expression=expr)
        assert report["surjective"]["verdict"] is True
        permutive = {row["position"]: row["verdict"] for row in report["permutive"]}
        assert permutive[1] is False and permutive[3] is False
        sufficiency = [
            c for c in report["criteria"]
            if c["criterion"] == "surjectivity_sufficient"
        ]
        assert len(sufficiency) == 1 and sufficiency[0]["value"] == "fails"
        assert report["discrepancies"] == []


def test_ac02_quartic_linear_collision():
    """Worked rule over Z_7: x^4 + 3x permutes Z_7, yet the rule is not
    injective, and two named periodic inputs share the image (6,2)^inf.
    """
    with _criterion(2, "quartic-plus-linear rule over Z_7", budget=1.0):
        assert is_permutation_poly(Poly.make(7, (0, 3, 0, 0, 1)))
        rule, _ = parse_rule("m=7; d=2; f=x1^4+3*x2")
        verdict = decide_injective(rule)
        assert verdict.injective is False
        assert verdict.witness is not None and verdict.witness.validate(rule)
        target = CyclicWord.make(7, (6, 2))
        image_a = rule.apply_periodic(CyclicWord.make(7, (5, 6)))
        image_b = rule.apply_periodic(CyclicWord.make(7, (4, 3)))
        assert image_a.rotation_equal(target)
        assert image_b.rotation_equal(target)
        assert image_a.config_equal(image_b)


def test_ac03_cubic_quadratic_recomputation():
    """Worked rule over Z_5: (1,0)^inf and (3)^inf both map to 2^inf
    exactly, while recomputing the (3,0)/(4,1) pair contradicts the
    claimed common image (3,4)^inf, so the examples command must flag
    exactly those two claims as discrepancies.
    """
    with _criterion(3, "cubic-quadratic rule over Z_5", budget=1.0):
        rule, _ = parse_rule("m=5; d=2; f=x1^3+2*x2+x3^2")
        two = CyclicWord.make(5, (2,))
        assert rule.apply_periodic(CyclicWord.make(5, (1, 0))).config_equal(two)
        assert rule.apply_periodic(CyclicWord.make(5, (3,))).config_equal(two)

        image_30 = rule.apply_periodic(CyclicWord.make(5, (3, 0)))
        image_41 = rule.apply_periodic(CyclicWord.make(5, (4, 1)))
        assert image_30.cells == (1, 1)
        assert image_41.cells == (0, 2)
        claimed = CyclicWord.make(5, (3, 4))
        assert not image_30.config_equal(image_41)
        assert not image_30.rotation_equal(claimed)
        assert not image_41.rotation_equal(claimed)

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert cli_main(["examples"]) == 0
        document = json.loads(buffer.getvalue())
        flagged = [
            check["claim"]
            for check in document["report"]["checks"]
            if check["status"] == "DISCREPANCY"
        ]
        assert flagged == [
            "images of (3,0)^inf and (4,1)^inf coincide",
            "those images equal (3,4)^inf",
        ]


def test_ac04_balance_oracle_exhaustive():
    """All 19683 rules with m=3, d=1: decide_surjective must agree with
    preimage counting on every word of length 1..4.
    """
    with _criterion(4, "balance oracle sweep, 19683 rules", budget=300.0):
        words = [
            word
            for length in range(1, 5)
            for word in itertools.product(range(3), repeat=length)
        ]
        for code in range(3**9):
            rule = rule_from_code(3, 1, code)
            balanced = all(count_preimages(rule, word) == 3 for word in words)
            assert decide_surjective(rule).surjective == balanced, f"code {code}"


def _periodic_window_tables() -> dict:
    """For each period p in 1..9: every length-p word, the window index
    of each cell (for d=1 the window at cell i is (x_i, x_{i+1 mod p})),
    and base-3 weights for packing image rows into single codes.
    """
    tables = {}
    for p in range(1, 10):
        words = np.array(
            list(itertools.product(range(3), repeat=p)), dtype=np.int64
        )
        window_index = 3 * words + np.roll(words, -1, axis=1)
        weights = 3 ** np.arange(p, dtype=np.int64)
        tables[p] = (words, window_index, weights)
    return tables


def _periodic_collision(table: np.ndarray, tables: dict):
    """Two distinct words of some common period <= 9 with equal anchored
    images, or None. Distinct words of the same period are distinct
    configurations, so a hit is a genuine non-injectivity witness.
    """
    for p in range(1, 10):
        words, window_index, weights = tables[p]
        codes = table[window_index] @ weights
        counts = np.bincount(codes, minlength=3**p)
        if (counts > 1).any():
            duplicated = np.flatnonzero(counts > 1)[0]
            hits = np.flatnonzero(codes == duplicated)[:2]
            return tuple(words[hits[0]]), tuple(words[hits[1]])
    return None


def _diamond_pair(table):
    """Shortest diamond by breadth-first search over pairs of trailing
    letters: two words sharing first and last letter, differing in
    between, every window pair mapping to the same letter. Returns the
    word pair or None; the state space bounds the length by 19 < 20.
    """
    seeds = [(a, a, False) for a in range(3)]
    parents = {state: None for state in seeds}
    queue = deque(seeds)
    while queue:
        state = queue.popleft()
        u_prev, v_prev, diverged = state
        for u_next in range(3):
            out = table[3 * u_prev + u_next]
            for v_next in range(3):
                if table[3 * v_prev + v_next] != out:
                    continue
                nxt = (u_next, v_next, diverged or u_next != v_next)
                if nxt in parents:
                    continue
                parents[nxt] = state
                if nxt[2] and u_next == v_next:
                    u, v = [u_next], [v_next]
                    back = state
                    while back is not None:
                        u.append(back[0])
                        v.append(back[1])
                        back = parents[back]
                    return tuple(reversed(u)), tuple(reversed(v))
                queue.append(nxt)
    return None


def test_ac05_collision_oracle_exhaustive():
    """All 19683 rules with m=3, d=1: decide_injective must agree with
    the bounded collision oracle, and every non-injective verdict's
    witness must revalidate against the rule.
    """
    with _criterion(5, "collision oracle sweep, 19683 rules", budget=600.0):
        tables = _periodic_window_tables()
        for code in range(3**9):
            rule = rule_from_code(3, 1, code)
            pair = _periodic_collision(np.asarray(rule.table, dtype=np.int64), tables)
            diamond = None if pair is not None else _diamond_pair(rule.table)
            collides = pair is not None or diamond is not None
            verdict = decide_injective(rule)
            assert verdict.injective == (not collides), f"code {code}"
            if not verdict.injective:
                assert verdict.witness is not None, f"code {code}"
                assert verdict.witness.validate(rule), f"code {code}"
            if diamond is not None:
                u, v = diamond
                assert len(u) <= 20 and u != v and u[0] == v[0] and u[-1] == v[-1]
                assert rule.f_star(u) == rule.f_star(v), f"code {code}"
            if pair is not None and code % 500 == 0:
                # spot-check the oracle itself against the rule
                u_word = CyclicWord.make(3, pair[0])
                v_word = CyclicWord.make(3, pair[1])
                assert not u_word.config_equal(v_word)
                image_u = rule.apply_periodic(u_word)
                assert image_u.config_equal(rule.apply_periodic(v_word))


def test_ac06_totient_equivalence_and_mod4_audit():
    """Monomial rules a*x^q: over the prime moduli 3, 5, 7 the totient
    criterion on the canonical exponent matches brute-force permutivity
    for every unit a and q in 1..12. Over Z_4 the audit must flag the
    q=3 rules, where the criterion holds but a*x^3 is not a bijection;
    every flagged row reduces to that same cube table (odd q >= 3).
    """
    with _criterion(6, "totient criterion vs brute force"):
        for m in (3, 5, 7):
            for a in units(m):
                for q in range(1, 13):
                    rule = sum_rule(m, 0, {1: (a, q)})
                    verdict = criterion_totient_permutivity(rule, classify(rule), 1)
                    assert verdict.applicable
                    predicted = verdict.canonical_value == HOLDS
                    assert predicted == is_permutive_at(rule, 1), (m, a, q)

        spec = FamilySpec(kind="shift_like", moduli=(4,), d=0, q_min=1, q_max=12)
        rows = list(audit(spec))
        assert len(rows) == 24
        flagged = [row["id"] for row in rows if row["discrepancies"]]
        assert flagged == [
            f"m4-d0-j1-a{a}-q{q}" for a in (1, 3) for q in (3, 5, 7, 9, 11)
        ]
        for a in (1, 3):
            assert f"m4-d0-j1-a{a}-q3" in flagged
            assert not monomial_is_bijective(a, 3, 4)
            row = next(r for r in rows if r["id"] == f"m4-d0-j1-a{a}-q3")
            criteria = {d["criterion"] for d in row["discrepancies"]}
            assert "totient_permutivity" in criteria


def _even_exponent_space(m: int) -> list:
    """Every (d, per-position (a, q)) choice with d <= 2, unit a, and
    q in {2, 4}.
    """
    per_position = [(a, q) for a in units(m) for q in (2, 4)]
    return [
        (d, choices)
        for d in range(3)
        for choices in itertools.product(per_position, repeat=d + 1)
    ]


def test_ac07_even_exponent_obstruction():
    """Totally separated rules whose exponents are all even are never
    surjective and never injective: exhaustive over m=3 (84 rules),
    seeded sample of 200 out of 584 for m=5.
    """
    with _criterion(7, "even-exponent obstruction"):
        space_3 = _even_exponent_space(3)
        assert len(space_3) == 84
        space_5 = _even_exponent_space(5)
        assert len(space_5) == 584
        sampled_5 = random.Random(0).sample(space_5, 200)
        for m, instances in ((3, space_3), (5, sampled_5)):
            for d, choices in instances:
                components = {j + 1: choices[j] for j in range(d + 1)}
                rule = sum_rule(m, d, components)
                assert decide_surjective(rule).surjective is False, (m, d, choices)
                assert decide_injective(rule).injective is False, (m, d, choices)


def test_ac08_bipermutive_collisions():
    """Every rule in the m=3, d <= 2 outer-separated enumeration that is
    brute-force permutive at both ends admits a constructed collision:
    two distinct words with the same constant image, hence not injective.
    """
    with _criterion(8, "bipermutive collision construction"):
        enumerated = 0
        collided = 0
        for d in (1, 2):
            for ell in range(1, d + 1):
                for r in range(ell + 1, d + 2):
                    interior_cells = 3 ** (r - ell - 1)
                    for a_ell, a_r in itertools.product(units(3), repeat=2):
                        for q_ell, q_r in itertools.product((1, 2, 3), repeat=2):
                            for interior in itertools.product(
                                range(3), repeat=interior_cells
                            ):
                                rule = lr_separated_rule(
                                    3, d, ell, r, a_ell, q_ell, a_r, q_r, interior
                                )
                                enumerated += 1
                                if not (
                                    is_permutive_at(rule, ell)
                                    and is_permutive_at(rule, r)
                                ):
                                    continue
                                cls = classify(rule)
                                window = r - ell + d + 2
                                collision = bipermutive_collision(rule, cls, window)
                                assert collision.u != collision.v
                                image = rule.f_star(collision.u)
                                assert image == rule.f_star(collision.v)
                                assert len(set(image)) == 1
                                assert collision.validate(rule)
                                assert decide_injective(rule).injective is False
                                collided += 1
        assert enumerated == 1296
        assert collided == 576


def test_ac09_outer_separated_scan():
    """Scan p=3, d=2, unit outer coefficients, exponents 1..4, all 27
    interior tables: zero sufficiency violations is a hard requirement;
    the necessity counterexample count is reported, never asserted.
    """
    with _criterion(9, "outer-separated surjectivity scan", budget=600.0):
        report = conjecture_scan(3, 2, q_min=1, q_max=4, pi="all")
        assert report["total_rules"] == 1728
        violations = report["sufficiency_violations"]
        assert violations["count"] == 0, violations["ids"]
        necessity = report["necessity_counterexamples"]["count"]
        print(f"AC09 INFO necessity counterexamples: {necessity}")


def test_ac10_interpolation_round_trip():
    """All 27 maps Z_3 -> Z_3 come back from prime interpolation exactly;
    the Kronecker delta at 0 over Z_4 is not representable within the
    Kempner degree bound.
    """
    with _criterion(10, "interpolation round trip", budget=1.0):
        for values in itertools.product(range(3), repeat=3):
            assert interpolate_prime(values, 3).table() == values
        assert representability_search((1, 0, 0, 0), 4) is None
