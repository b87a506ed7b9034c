"""Exact deciders for surjectivity and injectivity, their finite
witnesses, the constructive collision for rules permutive at two
separated end positions (bipermutive_oracle.py), the closed-form
verdicts of linear rules, and three symmetries that keep both verdicts.

Soundness is tested in both directions: every negative verdict must
carry a witness that revalidates against the rule from scratch, and
positive verdicts must survive independent bounded brute force. The
exhaustive decider-vs-oracle equivalences over complete rule spaces live
in test_acceptance, except those against the subset-construction oracle
(subset_oracle.py) and the full pair-graph oracle (pair_graph_oracle.py),
which live here.
"""

import contextlib
import dataclasses
import inspect
import itertools
import math
import sys
from operator import getitem

import pytest
from hypothesis import given, strategies as st

from ca_verify.caps import CapExceeded, Caps, DEFAULT_CAPS
from ca_verify.criteria import analyze, audit_row
from ca_verify.decide import (
    Diamond,
    PeriodicPair,
    SurjectivityResult,
    UnbalancedWord,
    _decide_surjective,
    _offdiagonal_cycle_pair,
    _pair_tables,
    _shortest_diamond,
    count_preimages,
    decide_injective,
    decide_surjective,
    shortest_unbalanced_word,
)
from ca_verify.rule import (
    CyclicWord,
    RuleTable,
    classify,
    is_permutive_at,
    lr_separated_rule,
    parse_rule,
    rule_from_code,
    sum_rule,
)
from ca_verify.zmod import factorize, units
import pair_graph_oracle
from bipermutive_oracle import BipermutiveCollision, bipermutive_collision
from pair_graph_oracle import pair_graph_injective, tarjan_cycle_pair
from subset_oracle import subset_surjective


def su(src):
    rule, _ = parse_rule(src)
    return rule


@st.composite
def small_rules(draw):
    """Tables with m in {2, 3} and d <= 2, or m in {4, 5} and d <= 1. A
    uniform code over Z_4 or Z_5 almost never gives a balanced table, so
    there half the draws shuffle a balanced letter multiset instead, and
    the pair searches run at the moduli the conjecture scan uses.
    """
    m = draw(st.sampled_from((2, 3, 4, 5)))
    d = draw(st.integers(min_value=0, max_value=2 if m < 4 else 1))
    if m > 3 and draw(st.booleans()):
        letters = [letter for letter in range(m) for _ in range(m**d)]
        return RuleTable.make(m, d, draw(st.permutations(letters)))
    size = m ** (d + 1)
    code = draw(st.integers(min_value=0, max_value=m**size - 1))
    return rule_from_code(m, d, code)


@st.composite
def end_permutive_rules(draw):
    """Rules with a bijective monomial at an outermost window position,
    arbitrary monomial junk elsewhere.
    """
    m = draw(st.sampled_from((3, 4, 5)))
    d = draw(st.integers(min_value=1, max_value=2))
    end = draw(st.sampled_from((1, d + 1)))
    a = draw(st.sampled_from(units(m)))
    q = draw(st.sampled_from(tuple(
        e for e in range(1, 7)
        if sorted(pow(x, e, m) for x in range(m)) == list(range(m))
    )))
    components = {end: (a, q)}
    for j in range(1, d + 2):
        if j == end or not draw(st.booleans()):
            continue
        components[j] = (
            draw(st.integers(min_value=1, max_value=m - 1)),
            draw(st.integers(min_value=1, max_value=4)),
        )
    constant = draw(st.integers(min_value=0, max_value=m - 1))
    return sum_rule(m, d, components, constant=constant)


# --- preimage counting -----------------------------------------------------------


def test_count_preimages_brute_force_agreement():
    rule = su("m=3; d=1; f=x1^2+x2^2")
    for length in (1, 2, 3):
        for w in itertools.product(range(3), repeat=length):
            brute = sum(
                1
                for u in itertools.product(range(3), repeat=length + 1)
                if rule.f_star(u) == w
            )
            assert count_preimages(rule, w) == brute


def test_count_preimages_known_values():
    balanced = su("m=3; d=1; f=x1+x2")
    assert [count_preimages(balanced, (w,)) for w in range(3)] == [3, 3, 3]
    skew = su("m=3; d=1; f=x1^2+x2^2")
    assert [count_preimages(skew, (w,)) for w in range(3)] == [1, 4, 4]


# --- surjectivity ----------------------------------------------------------------


def test_surjective_known_verdicts():
    assert decide_surjective(su("m=3; d=1; f=x1+x2")).surjective
    assert decide_surjective(su("m=4; d=2; f=x1^2+x2+x3^2")).surjective
    assert decide_surjective(su("m=5; d=2; f=x1^3+2*x2+x3^2")).surjective
    assert decide_surjective(su("m=7; d=2; f=x1^4+3*x2")).surjective


def test_surjective_witness_even_exponents():
    res = decide_surjective(su("m=3; d=1; f=x1^2+x2^2"))
    assert not res.surjective
    assert res.witness == UnbalancedWord(word=(0,), count=1, expected=3)
    assert res.witness.validate(su("m=3; d=1; f=x1^2+x2^2"))


def test_surjective_d0_doubling():
    res = decide_surjective(su("m=4; d=0; f=2*x1"))
    assert not res.surjective
    assert res.witness == UnbalancedWord(word=(0,), count=2, expected=1)


def test_middle_permutivity_does_not_give_surjectivity():
    """Permutivity strictly inside the window carries no surjectivity
    guarantee: this rule is a bijection in its middle coordinate yet
    fails the balance condition at length two. The same expression over
    Z_4 is balanced, so the obstruction is arithmetic, not structural.
    """
    rule = su("m=3; d=2; f=x1^2+x2+x3^2")
    assert is_permutive_at(rule, 2)
    res = decide_surjective(rule)
    assert not res.surjective
    assert res.witness == UnbalancedWord(word=(0, 0), count=10, expected=9)
    assert res.witness.validate(rule)

    assert decide_surjective(su("m=4; d=2; f=x1^2+x2+x3^2")).surjective


@given(end_permutive_rules())
def test_end_permutivity_gives_surjectivity(rule):
    """A bijective dependence at either outermost window position forces
    every word to be reachable. The verdict comes from the polynomial
    diamond search; the tight subset_states budget bounds only the
    balance search, which runs when a negative verdict's witness is read.
    """
    assert is_permutive_at(rule, 1) or is_permutive_at(rule, rule.nvars)
    assert decide_surjective(rule, Caps(subset_states=1 << 14)).surjective


@given(small_rules())
def test_surjectivity_verdicts_are_sound(rule):
    res = decide_surjective(rule)
    if res.surjective:
        for length in (1, 2):
            for w in itertools.product(range(rule.m), repeat=length):
                assert count_preimages(rule, w) == rule.m**rule.d
    else:
        assert res.witness is not None
        assert res.witness.validate(rule)
        assert count_preimages(rule, res.witness.word) == res.witness.count
        assert res.witness.count != rule.m**rule.d


def assert_surjectivity_matches_subset_oracle(rule, label=""):
    """The verdict, whether read off the letter counts or decided by the
    diamond search, is the subset oracle's, and the witness, read after
    the verdict, is the balance search's shortest unbalanced word.
    """
    res = decide_surjective(rule)
    assert res.surjective == subset_surjective(rule), label
    assert res.witness == shortest_unbalanced_word(rule), label


def test_surjectivity_matches_subset_oracle_exhaustive_m3_d1():
    for code in range(3**9):
        assert_surjectivity_matches_subset_oracle(rule_from_code(3, 1, code), f"code {code}")


def test_surjectivity_matches_subset_oracle_exhaustive_m2_d2():
    for code in range(2**8):
        assert_surjectivity_matches_subset_oracle(rule_from_code(2, 2, code), f"code {code}")


@given(small_rules())
def test_surjectivity_matches_subset_oracle(rule):
    assert_surjectivity_matches_subset_oracle(rule)


def assert_quotient_verdict_matches_ordered_search(rule, label=""):
    """The search over unordered pairs finds the diamond that the ordered
    search of the oracle finds, or none when it finds none, on any table,
    balanced or not: deferred witness reads search unbalanced ones too.
    """
    found = _shortest_diamond(rule, DEFAULT_CAPS)
    assert found == pair_graph_oracle._shortest_diamond(rule, DEFAULT_CAPS), label


def test_quotient_verdict_matches_ordered_search_exhaustive():
    for m, d in ((3, 1), (2, 2)):
        for code in range(m ** (m ** (d + 1))):
            rule = rule_from_code(m, d, code)
            assert_quotient_verdict_matches_ordered_search(rule, f"m={m} d={d} code {code}")


@given(small_rules())
def test_quotient_verdict_matches_ordered_search(rule):
    assert_quotient_verdict_matches_ordered_search(rule)


@given(small_rules().filter(lambda rule: rule.d == 0))
def test_quotient_verdict_matches_ordered_search_d0(rule):
    assert_quotient_verdict_matches_ordered_search(rule)


def ordered_decide_surjective(rule, caps):
    """decide_surjective with the oracle's ordered diamond search: the
    letter counts, then pair_graph_oracle._shortest_diamond, then the
    balance search.
    """
    n = rule.m**rule.d
    if n > caps.pair_vertices:
        raise CapExceeded(f"pair search needs {n} vertices, cap is {caps.pair_vertices}")
    for letter in range(rule.m):
        count = rule.table.count(letter)
        if count != n:
            return SurjectivityResult(False, UnbalancedWord((letter,), count, n))
    if pair_graph_oracle._shortest_diamond(rule, caps) is None:
        return SurjectivityResult(True, None)
    return SurjectivityResult(False, shortest_unbalanced_word(rule, caps))


def decision(decide, rule, caps):
    """The result of decide, with a deferred witness read, or the message
    of the refusal met on the way.
    """
    try:
        result = decide(rule, caps)
        getattr(result, "witness", None)
        return result
    except CapExceeded as exc:
        return str(exc)


def test_quotient_verdict_keeps_verdicts_and_refusals_at_every_cap():
    """pair_vertices from n to m^(2d) + 1 on every 9th balanced m=3, d=1
    table and every balanced m=2, d=2 table. Where the oracle's ordered
    search decided, the decision is the same, witness included; where the
    search over unordered pairs refuses, the ordered search refused with
    the same message. A diamond found below the cap by the search over
    unordered pairs, which counts fewer vertices, may turn a refusal of
    the ordered search into the verdict found without a cap, as an
    unbalanced table's letter counts do.
    """
    cases = [(3, 1, code) for code in range(3**9)] + [(2, 2, code) for code in range(2**8)]
    checked = refusals = 0
    for m, d, code in cases:
        rule = rule_from_code(m, d, code)
        n = m**d
        if any(rule.table.count(letter) != n for letter in range(m)):
            continue
        checked += 1
        if m == 3 and checked % 9:
            continue
        uncapped = decide_surjective(rule)
        for cap in range(n, n * n + 2):
            caps = dataclasses.replace(DEFAULT_CAPS, pair_vertices=cap)
            new = decision(decide_surjective, rule, caps)
            old = decision(ordered_decide_surjective, rule, caps)
            label = f"m={m} d={d} code {code} pair_vertices={cap}"
            if isinstance(old, SurjectivityResult):
                assert new == old, label
            elif isinstance(new, str):
                assert new == old, label
                refusals += 1
            else:
                assert new == uncapped, label
    assert checked == 1680 + 70
    assert refusals > 0


def read_deferred_witness(rule, caps):
    """The diamond of a non-surjective rule, read from its injectivity
    result, decided right after its surjectivity verdict.
    """
    surjectivity = decide_surjective(rule, caps)
    assert not surjectivity.surjective
    return decide_injective(rule, caps).witness


def test_injectivity_paths_keep_witnesses_and_refusals_at_every_cap():
    """pair_vertices from n to m^(2d) + 1 on every 9th m=3, d=1 table and
    every m=2, d=2 table, unbalanced ones included. Standalone
    decide_injective is held to the oracle's ordered searches, and the
    deferred witness of every non-surjective table to the oracle's
    ordered diamond search: each either matches, witness or refusal
    message, or decides, as without a cap, where the oracle refused.
    """
    cases = [(3, 1, code) for code in range(0, 3**9, 9)] + [
        (2, 2, code) for code in range(2**8)
    ]
    refusals = rescued = 0
    for m, d, code in cases:
        rule = rule_from_code(m, d, code)
        n = m**d
        paths = [(decide_injective, pair_graph_injective)]
        if not decide_surjective(rule).surjective:
            paths.append((read_deferred_witness, pair_graph_oracle._shortest_diamond))
        for new_path, old_path in paths:
            uncapped = new_path(rule, DEFAULT_CAPS)
            for cap in range(n, n * n + 2):
                caps = dataclasses.replace(DEFAULT_CAPS, pair_vertices=cap)
                label = f"m={m} d={d} code {code} pair_vertices={cap} {new_path.__name__}"
                new = decision(new_path, rule, caps)
                old = decision(old_path, rule, caps)
                if isinstance(new, str):
                    refusals += 1
                elif isinstance(old, str):
                    rescued += 1
                    old = uncapped
                assert new == old, label
    assert refusals > 0 and rescued > 0


def test_unbalanced_word_validate_rejects_wrong_count():
    rule = su("m=3; d=1; f=x1^2+x2^2")
    assert not UnbalancedWord(word=(0,), count=2, expected=3).validate(rule)
    assert not UnbalancedWord(word=(0,), count=3, expected=3).validate(rule)


# --- injectivity -----------------------------------------------------------------


def test_injective_known_verdicts():
    assert decide_injective(su("m=3; d=0; f=2*x1")).injective
    assert decide_injective(su("m=5; d=1; f=x1^3")).injective
    assert not decide_injective(su("m=3; d=1; f=x1+x2")).injective


def test_injectivity_diamond_witness():
    rule = su("m=3; d=1; f=x1^2+x2^2")
    res = decide_injective(rule)
    assert not res.injective
    assert res.witness == Diamond(u=(0, 1, 0), v=(0, 2, 0))
    assert res.witness.validate(rule)


def test_injectivity_diamond_d0():
    res = decide_injective(su("m=4; d=0; f=2*x1"))
    assert not res.injective
    assert res.witness == Diamond(u=(0,), v=(2,))


def test_injectivity_periodic_pair_witness():
    rule = su("m=7; d=2; f=x1^4+3*x2")
    res = decide_injective(rule)
    assert not res.injective
    assert res.witness == PeriodicPair(
        x=CyclicWord(m=7, cells=(0, 0, 0)), y=CyclicWord(m=7, cells=(4, 1, 2))
    )
    assert res.witness.validate(rule)


def test_injectivity_periodic_pair_skew_shift():
    rule = su("m=3; d=2; f=x1+x3")
    res = decide_injective(rule)
    assert not res.injective
    assert res.witness.validate(rule)


def test_diamond_validate_rejects_mismatched_frames():
    rule = su("m=3; d=1; f=x1^2+x2^2")
    assert not Diamond(u=(0, 1, 0), v=(0, 1, 0)).validate(rule)  # equal words
    assert not Diamond(u=(0, 1, 0), v=(1, 2, 1)).validate(rule)  # frames differ
    assert not Diamond(u=(0, 1, 0), v=(0, 2, 2)).validate(rule)  # last letters differ


def test_periodic_pair_validate_rejects_equal_configs():
    rule = su("m=3; d=1; f=x1+x2")
    same = PeriodicPair(
        x=CyclicWord(m=3, cells=(0, 1)), y=CyclicWord(m=3, cells=(0, 1, 0, 1))
    )
    assert not same.validate(rule)


@given(small_rules())
def test_injectivity_verdicts_are_sound(rule):
    res = decide_injective(rule)
    if res.injective:
        # no short diamond: scan all pairs with shared length-d frames
        d, m = rule.d, rule.m
        for length in range(d + 1, d + 5):
            images = {}
            for u in itertools.product(range(m), repeat=length):
                key = (u[:d], u[-d:] if d else (), rule.f_star(u))
                if key in images and images[key] != u:
                    pytest.fail(f"diamond missed: {images[key]} / {u}")
                images[key] = u
        # no short periodic pair
        for period in (1, 2, 3):
            seen = {}
            for cells in itertools.product(range(m), repeat=period):
                img = rule.apply_periodic(CyclicWord.make(m, cells)).cells
                if img in seen:
                    pytest.fail(f"periodic pair missed: {seen[img]} / {cells}")
                seen[img] = cells
    else:
        assert res.witness is not None
        assert res.witness.validate(rule)


def assert_injectivity_matches_pair_graph_oracle(rule, label=""):
    expected = repr(pair_graph_injective(rule))
    assert repr(decide_injective(rule)) == expected, label
    assert repr(decide_injective(rule)) == expected, label  # from the memoised verdict


def test_injectivity_matches_pair_graph_oracle_exhaustive():
    """Verdict and witness, decided standalone and again from the memoised
    verdict and diamond search, on every rule with m=3, d=1 and with m=2, d=2.
    """
    for m, d in ((3, 1), (2, 2)):
        for code in range(m ** (m ** (d + 1))):
            rule = rule_from_code(m, d, code)
            assert_injectivity_matches_pair_graph_oracle(rule, f"m={m} d={d} code {code}")


@given(small_rules())
def test_injectivity_matches_pair_graph_oracle(rule):
    assert_injectivity_matches_pair_graph_oracle(rule)


@st.composite
def surjective_sum_rules(draw):
    """Sums of monomials with a bijective monomial at an outermost window
    position, so surjective (Hedlund 1969), on up to 16384 pair vertices:
    m^(2d) <= 2^14. The other end holds a bijective monomial too, any
    monomial, or none, so the cycle search meets injective rules and
    rules with cycles at every depth of the quotient.
    """
    m = draw(st.integers(min_value=2, max_value=16))
    max_d = max(d for d in range(1, 8) if m ** (2 * d) <= 2**14)
    d = draw(st.integers(min_value=1, max_value=max_d))
    bijective = tuple(
        q for q in range(1, 7) if sorted(pow(x, q, m) for x in range(m)) == list(range(m))
    )
    end, other = draw(st.sampled_from(((1, d + 1), (d + 1, 1))))
    components = {end: (draw(st.sampled_from(units(m))), draw(st.sampled_from(bijective)))}
    for j in range(1, d + 2):
        if j != end and draw(st.booleans()):
            exponents = bijective if j == other and draw(st.booleans()) else range(1, 7)
            components[j] = (
                draw(st.integers(min_value=1, max_value=m - 1)),
                draw(st.sampled_from(exponents)),
            )
    return sum_rule(m, d, components, constant=draw(st.integers(0, m - 1)))


def assert_cycle_search_matches_tarjan(rule, label=""):
    assert _offdiagonal_cycle_pair(rule, DEFAULT_CAPS) == tarjan_cycle_pair(rule), label


def test_cycle_search_matches_tarjan_exhaustive():
    """The peel and the ascending probes against Tarjan's algorithm,
    witness for witness, on every surjective rule with m=3, d=1 and with
    m=2, d <= 2.
    """
    surjective = 0
    for m, d in ((3, 1), (2, 0), (2, 1), (2, 2)):
        for code in range(m ** (m ** (d + 1))):
            rule = rule_from_code(m, d, code)
            if decide_surjective(rule, DEFAULT_CAPS).surjective:
                surjective += 1
                assert_cycle_search_matches_tarjan(rule, f"m={m} d={d} code {code}")
    assert surjective == 420 + 2 + 6 + 30


@given(surjective_sum_rules())
def test_cycle_search_matches_tarjan(rule):
    assert decide_surjective(rule, DEFAULT_CAPS).surjective
    assert_cycle_search_matches_tarjan(rule)


def test_cycle_search_takes_a_mirror_self_loop():
    """m=3, d=1 code 4223 is surjective, and its smallest quotient key on
    a cycle, {0, 1}, lies on a self-loop alone: the only edge from (0, 1)
    into (0, 1) or (1, 0) is the mirror edge (0, 1) -> (1, 0), letters
    (1, 0), as f(0, 1) = f(1, 0) but f(0, 0) != f(1, 1). The other
    quotient cycle, through {0, 2} and {1, 2}, never reaches {0, 1}. So
    the peel must count the self-loop to keep {0, 1}, whose probe spells
    the two shifts of (10)^infinity. (No surjective rule has such a
    self-loop as its only cycle: it would merge two points of period 2
    and leave some point of period 2 with two preimages of a longer
    period, another collision.)
    """
    rule = rule_from_code(3, 1, 4223)
    edges = pair_graph_oracle._pair_graph(rule, DEFAULT_CAPS)
    component = pair_graph_oracle._strongly_connected_components(edges)
    assert [(a, b, head) for a, b, head in edges[1] if head in (1, 3)] == [(1, 0, 3)]
    assert [v for v in range(9) if component[v] == component[1]] == [1, 3]
    assert decide_surjective(rule, DEFAULT_CAPS).surjective
    pair = PeriodicPair(CyclicWord(3, (1, 0)), CyclicWord(3, (0, 1)))
    assert decide_injective(rule).witness == pair == tarjan_cycle_pair(rule)
    assert pair.validate(rule)


def test_non_surjective_rules_get_diamond_witnesses_exhaustive_m3_d1():
    """Moore-Myhill: every non-surjective rule has a diamond, and the
    injectivity decider prefers it over a periodic pair.
    """
    for code in range(3**9):
        rule = rule_from_code(3, 1, code)
        if subset_surjective(rule):
            continue
        witness = decide_injective(rule).witness
        assert isinstance(witness, Diamond), f"code {code}"
        assert witness.validate(rule), f"code {code}"


@given(small_rules())
def test_injective_implies_surjective(rule):
    if decide_injective(rule).injective:
        assert decide_surjective(rule).surjective


# --- constructive collisions -------------------------------------------------------


def test_bipermutive_collision_linear():
    rule = su("m=3; d=1; f=x1+x2+1")
    cls = classify(rule)
    col = bipermutive_collision(rule, cls, cls.r - cls.ell + rule.d + 2)
    assert col == BipermutiveCollision(
        u=(2, 1, 2, 1, 2, 1, 2, 1, 2), v=(0, 0, 0, 0, 0, 0, 0, 0, 0), image_letter=1
    )
    assert col.validate(rule)


def test_bipermutive_collision_with_interior():
    interior = [0, 1, 0]  # not a monomial, middle position unseparated
    rule = lr_separated_rule(3, 2, 1, 3, 1, 1, 2, 1, interior)
    cls = classify(rule)
    assert is_permutive_at(rule, 1) and is_permutive_at(rule, 3)
    col = bipermutive_collision(rule, cls, cls.r - cls.ell + rule.d + 2)
    assert col.validate(rule)
    assert not decide_injective(rule).injective


def test_bipermutive_collision_rejects_one_sided_rules():
    rule = su("m=3; d=1; f=x1^2+x2")
    cls = classify(rule)
    with pytest.raises(ValueError):
        bipermutive_collision(rule, cls, 5)


def test_bipermutive_collision_rejects_small_window():
    rule = su("m=3; d=1; f=x1+x2")
    cls = classify(rule)
    with pytest.raises(ValueError):
        bipermutive_collision(rule, cls, 1)


@given(
    st.sampled_from((3, 4, 5, 7, 8)),
    st.integers(min_value=1, max_value=2),
    st.data(),
)
def test_bipermutive_rules_are_never_injective(m, d, data):
    """Separated bijective monomials at two distinct end positions always
    admit a collision, whatever sits between them.
    """
    bijective_exponents = tuple(
        e for e in range(1, 6)
        if sorted(pow(x, e, m) for x in range(m)) == list(range(m))
    )
    ell = 1
    r = data.draw(st.integers(min_value=2, max_value=d + 1))
    a_l = data.draw(st.sampled_from(units(m)))
    a_r = data.draw(st.sampled_from(units(m)))
    q_l = data.draw(st.sampled_from(bijective_exponents))
    q_r = data.draw(st.sampled_from(bijective_exponents))
    interior = [
        data.draw(st.integers(min_value=0, max_value=m - 1))
        for _ in range(m ** (r - ell - 1))
    ]
    rule = lr_separated_rule(m, d, ell, r, a_l, q_l, a_r, q_r, interior)
    cls = classify(rule)
    col = bipermutive_collision(rule, cls, cls.r - cls.ell + rule.d + 2)
    assert col.validate(rule)
    assert not decide_injective(rule).injective


@given(small_rules())
def test_injective_rules_are_not_end_bipermutive(rule):
    """The collision construction contrapositive: an injective rule can
    never be permutive at two distinct separated end positions.
    """
    if not decide_injective(rule).injective:
        return
    cls = classify(rule)
    if cls.lr_separated and cls.ell is not None and cls.ell < cls.r:
        assert not (is_permutive_at(rule, cls.ell) and is_permutive_at(rule, cls.r))


# --- linear rules ---------------------------------------------------------------


def linear_verdicts(m, coeffs):
    """Ito, Osato & Nasu (1983): f = sum a_j x_j (plus any constant) over
    Z_m is surjective iff gcd(m, a_1, ..., a_(d+1)) = 1, and injective
    iff for every prime p | m exactly one a_j is not divisible by p.
    """
    surjective = math.gcd(m, *coeffs) == 1
    injective = all(
        sum(a % p != 0 for a in coeffs) == 1 for p, _ in factorize(m)
    )
    return surjective, injective


def assert_linear_rule_matches_closed_form(m, coeffs, constant=0):
    components = {j: (a, 1) for j, a in enumerate(coeffs, 1)}
    rule = sum_rule(m, len(coeffs) - 1, components, constant)
    verdicts = decide_surjective(rule).surjective, decide_injective(rule).injective
    assert verdicts == linear_verdicts(m, coeffs), (m, coeffs, constant)


@pytest.mark.parametrize("m", [4, 6, 8, 9, 10, 12])
def test_linear_rules_match_closed_form_exhaustive(m):
    for coeffs in itertools.product(range(m), repeat=2):
        assert_linear_rule_matches_closed_form(m, coeffs)


@given(st.sampled_from((4, 6)), st.data())
def test_linear_rules_match_closed_form(m, data):
    coeffs = data.draw(st.lists(st.integers(0, m - 1), min_size=3, max_size=3))
    constant = data.draw(st.integers(0, m - 1))
    assert_linear_rule_matches_closed_form(m, coeffs, constant)


# --- symmetries -----------------------------------------------------------------


@st.composite
def wide_rules(draw, max_d=2):
    """Tables at m in {4, 6, 7, 8, 9}, d <= max_d, past the sizes the
    oracles reach. Half are sums of one value table per position, each
    zero, a permutation or any map, so that every pair of verdicts
    occurs; half shuffle a balanced letter multiset, whose negative
    verdicts defer both witnesses.
    """
    m = draw(st.sampled_from((4, 6, 7, 8, 9)))
    d = draw(st.integers(min_value=0, max_value=max_d))
    if draw(st.booleans()):
        letters = [letter for letter in range(m) for _ in range(m**d)]
        return RuleTable.make(m, d, draw(st.permutations(letters)))
    kinds = {
        "zero": st.just((0,) * m),
        "permutation": st.permutations(range(m)),
        "map": st.lists(st.integers(0, m - 1), min_size=m, max_size=m),
    }
    parts = [draw(kinds[draw(st.sampled_from(sorted(kinds)))]) for _ in range(d + 1)]
    windows = itertools.product(range(m), repeat=d + 1)
    return RuleTable.make(m, d, [sum(map(getitem, parts, w)) % m for w in windows])


def map_words(witness, word_map):
    """`witness` with word_map applied to each of its words."""
    if isinstance(witness, UnbalancedWord):
        return dataclasses.replace(witness, word=word_map(witness.word))
    if isinstance(witness, Diamond):
        return Diamond(word_map(witness.u), word_map(witness.v))
    x, y = (CyclicWord(c.m, word_map(c.cells)) for c in (witness.x, witness.y))
    return PeriodicPair(x, y)


def assert_symmetry_keeps_decisions(rule, mapped, witness_map):
    """Hedlund (1969): `mapped` is conjugate to `rule` (or `rule` composed
    with a shift), so both verdicts agree, and each witness of `rule`,
    taken through witness_map, validates on `mapped`. Validity, not
    bytes: a mapped least witness need not be least. The rule is decided
    injectivity first, and the mapped rule surjectivity first.
    """
    injectivity, surjectivity = decide_injective(rule), decide_surjective(rule, DEFAULT_CAPS)
    mapped_surjectivity = decide_surjective(mapped, DEFAULT_CAPS)
    mapped_injectivity = decide_injective(mapped)
    assert (mapped_surjectivity.surjective, mapped_injectivity.injective) == (
        surjectivity.surjective,
        injectivity.injective,
    )
    for result in (surjectivity, injectivity):
        if result.witness is not None:
            assert witness_map(result.witness).validate(mapped), result.witness


@given(wide_rules(), st.data())
def test_relabelled_rules_keep_decisions(rule, data):
    """sigma o F o sigma^-1 for a permutation sigma of the letters."""
    m, d = rule.m, rule.d
    sigma = data.draw(st.permutations(range(m)))
    table = [0] * len(rule.table)
    for window, value in zip(itertools.product(range(m), repeat=d + 1), rule.table):
        index = 0
        for letter in window:
            index = index * m + sigma[letter]
        table[index] = sigma[value]
    assert_symmetry_keeps_decisions(
        rule,
        RuleTable.make(m, d, table),
        lambda witness: map_words(witness, lambda word: tuple(sigma[a] for a in word)),
    )


@given(wide_rules())
def test_mirrored_rules_keep_decisions(rule):
    """F read with its window reversed; witnesses are read backwards."""
    m, d = rule.m, rule.d
    windows = itertools.product(range(m), repeat=d + 1)
    table = [rule.evaluate(window[::-1]) for window in windows]
    assert_symmetry_keeps_decisions(
        rule,
        RuleTable.make(m, d, table),
        lambda witness: map_words(witness, lambda word: tuple(reversed(word))),
    )


@given(wide_rules(max_d=1), st.booleans())
def test_padded_rules_keep_decisions(rule, pad_left):
    """F on a window one cell wider, whose first or last cell it ignores.
    Every preimage count grows m-fold, a diamond's words gain a letter at
    each end to share d + 1 letters there, and a periodic pair stays.
    """
    m = rule.m
    table = list(rule.table) * m if pad_left else [v for v in rule.table for _ in range(m)]

    def padded(witness):
        if isinstance(witness, UnbalancedWord):
            return UnbalancedWord(witness.word, witness.count * m, witness.expected * m)
        if isinstance(witness, Diamond):
            return map_words(witness, lambda word: (0, *word, 0))
        return witness

    assert_symmetry_keeps_decisions(rule, RuleTable.make(m, rule.d + 1, table), padded)


# --- caps -----------------------------------------------------------------------


def test_deciders_respect_caps():
    # the balance search counts states actually visited, so use a rule
    # whose shortest unbalanced word is longer than one letter
    rule = su("m=3; d=2; f=x1^2+x2+x3^2")
    tight = dataclasses.replace(DEFAULT_CAPS, subset_states=2)
    verdict = decide_surjective(rule, tight)
    assert not verdict.surjective
    with pytest.raises(CapExceeded, match="balance search exceeded 2 states"):
        verdict.witness
    rule = su("m=3; d=1; f=x1^2+x2^2")
    tighter = dataclasses.replace(DEFAULT_CAPS, pair_vertices=2)
    with pytest.raises(CapExceeded):
        decide_surjective(rule, tighter)
    with pytest.raises(CapExceeded):
        decide_injective(rule, tighter)
    # the diamond search counts the pair vertices it reaches past the diagonal
    surjective = su("m=3; d=1; f=x1+x2^2")
    with pytest.raises(CapExceeded, match="pair search exceeded 8 vertices"):
        decide_surjective(surjective, dataclasses.replace(DEFAULT_CAPS, pair_vertices=8))
    assert decide_surjective(surjective, dataclasses.replace(DEFAULT_CAPS, pair_vertices=9)).surjective


def test_caps_only_turn_refusals_into_verdicts():
    """An unbalanced table is decided by its letter counts. The diamond
    search, which used to run first and was refused part-way, now runs
    only when the injectivity witness is read, and is refused then, with
    the same message, at every read, whether decide_injective decides the
    surjectivity verdict itself or finds it memoised.
    """
    rule = su("m=3; d=1; f=x1^2+x2^2")
    caps = dataclasses.replace(DEFAULT_CAPS, pair_vertices=3)
    standalone = decide_injective(rule, caps)
    assert not standalone.injective
    with pytest.raises(CapExceeded, match="pair search exceeded 3 vertices"):
        standalone.witness
    surjectivity = decide_surjective(rule, caps)
    assert surjectivity == SurjectivityResult(False, UnbalancedWord((0,), 1, 3))
    injectivity = decide_injective(rule, caps)
    assert not injectivity.injective
    for _ in range(2):
        with pytest.raises(CapExceeded, match="pair search exceeded 3 vertices"):
            injectivity.witness
    row = audit_row(rule, rule_id="x", caps=caps)
    assert (row["surjective"], row["injective"], row["discrepancies"]) == (False, False, [])
    assert decide_injective(rule, DEFAULT_CAPS).witness == Diamond(
        u=(0, 1, 0), v=(0, 2, 0)
    )


# --- one pair search per rule ---------------------------------------------------


@contextlib.contextmanager
def pair_search_runs():
    """Counts of the pair-table builds, diamond searches and surjectivity
    decisions run inside the block: entries into the bodies of
    _pair_tables, _shortest_diamond and _decide_surjective, so an answer
    from a memo is not counted. The memos first get another rule's
    search, so no earlier test's rule is held in them.
    """
    decide_injective(rule_from_code(2, 1, 1)).witness
    memoised = (_pair_tables, _shortest_diamond, _decide_surjective)
    bodies = {inspect.unwrap(f).__code__: f.__name__ for f in memoised}
    runs = dict.fromkeys(bodies.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in bodies:
            runs[bodies[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield runs
    finally:
        sys.setprofile(previous)


def test_one_pair_search_per_rule():
    """Each call shape decides surjectivity once, builds the pair tables
    once and searches for the diamond once: code 395 is a balanced m=3,
    d=1 table with a diamond, so its verdict and its injectivity witness
    both need the search; x1 + x2 is surjective, so its verdict and its
    cycle search both need the tables. Injectivity decided first leaves
    its surjectivity verdict memoised for the call that asks for it, and
    a surjectivity verdict asked for without caps is the one memo entry
    that decide_injective, which passes them, finds.
    """
    balanced, surjective = rule_from_code(3, 1, 395), su("m=3; d=1; f=x1+x2")
    runs = {}
    with pair_search_runs() as runs["witness of code 395"]:
        witness = decide_injective(balanced).witness
    with pair_search_runs() as runs["injectivity of x1 + x2"]:
        injectivity = decide_injective(surjective)
    with pair_search_runs() as runs["analyze of code 395"]:
        report = analyze(balanced)
    with pair_search_runs() as runs["injectivity, then surjectivity, of code 395"]:
        decide_injective(balanced)
        decide_surjective(balanced, DEFAULT_CAPS)
    with pair_search_runs() as runs["surjectivity without caps, then injectivity, of code 395"]:
        decide_surjective(balanced)
        decide_injective(balanced)
    once = {"_pair_tables": 1, "_shortest_diamond": 1, "_decide_surjective": 1}
    assert runs == dict.fromkeys(runs, once)
    assert witness == pair_graph_oracle._shortest_diamond(balanced, DEFAULT_CAPS)
    assert report["injective"]["witness"]["u"] == list(witness.u)
    assert isinstance(injectivity.witness, PeriodicPair)
    assert injectivity.witness.validate(surjective)


def test_pair_search_memo_keys_on_rule_and_caps():
    """A deferred witness read after another rule was decided is the
    first rule's diamond, and a search refused under a tight cap is
    refused again after the same rule was decided under the default caps.
    """
    first, second = rule_from_code(3, 1, 395), su("m=3; d=1; f=x1^2+x2^2")
    deferred = decide_injective(first)
    assert not deferred.injective
    assert decide_injective(second).witness == Diamond(u=(0, 1, 0), v=(0, 2, 0))
    assert deferred.witness == pair_graph_oracle._shortest_diamond(first, DEFAULT_CAPS)
    tight = dataclasses.replace(DEFAULT_CAPS, pair_vertices=3)
    assert not decide_surjective(first).surjective
    with pytest.raises(CapExceeded, match="pair search exceeded 3 vertices"):
        decide_surjective(first, tight)
    with pytest.raises(CapExceeded, match="pair search exceeded 3 vertices"):
        decide_injective(second, tight).witness
