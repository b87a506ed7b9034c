"""Rule tables, the expression front end, periodic application, and the
additive-structure classifier.

Window indexing convention checked throughout: x1 is the most
significant mixed-radix digit of the table index, and the output cell
anchors at radius d // 2 cells of lookback.
"""

import itertools
import time

import pytest
from hypothesis import given, strategies as st

import column_oracle
from ca_verify.caps import CapExceeded, Caps, DEFAULT_CAPS
from ca_verify.rule import (
    CyclicWord,
    RuleParseError,
    RuleTable,
    classify,
    interior_table,
    is_permutive_at,
    lr_separated_rule,
    parse_rule,
    parse_table_text,
    permutivity_witness,
    rule_from_code,
    separable_component_at,
    sum_rule,
)
from ca_verify.zmod import pow_mod

@st.composite
def small_rules(draw):
    m = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(min_value=0, max_value=2))
    size = m ** (d + 1)
    code = draw(st.integers(min_value=0, max_value=m**size - 1))
    return rule_from_code(m, d, code)


def su(src):
    rule, _ = parse_rule(src)
    return rule


# --- table basics -------------------------------------------------------------


def test_table_make_validates():
    with pytest.raises(ValueError):
        RuleTable.make(3, 1, (0, 1, 2))  # 9 entries needed
    with pytest.raises(ValueError, match=r"^table entry 3 out of range for Z_3$"):
        RuleTable.make(3, 0, (0, 3, 1))  # too large
    with pytest.raises(ValueError, match=r"^table entry -1 out of range for Z_3$"):
        RuleTable.make(3, 0, (0, 1, -1))  # negative
    with pytest.raises(ValueError, match=r"^table entry 7 out of range for Z_3$"):
        RuleTable.make(3, 0, (7, -2, 5))  # the first of several offenders
    with pytest.raises(CapExceeded):
        tight = Caps(
            table_entries=8,
            subset_states=DEFAULT_CAPS.subset_states,
            pair_vertices=DEFAULT_CAPS.pair_vertices,
            poly_search=DEFAULT_CAPS.poly_search,
            family_rules=DEFAULT_CAPS.family_rules,
        )
        RuleTable.make(3, 1, [0] * 9, tight)


def test_evaluate_index_convention():
    # f(x1, x2) = x1 stored with x1 most significant
    rule = sum_rule(3, 1, {1: (1, 1)})
    assert rule.table == (0, 0, 0, 1, 1, 1, 2, 2, 2)
    assert rule.evaluate((2, 0)) == 2
    assert rule.evaluate((0, 2)) == 0


def test_radius_anchor():
    assert sum_rule(3, 0, {1: (1, 1)}).radius == 0
    assert sum_rule(3, 1, {1: (1, 1)}).radius == 0
    assert sum_rule(3, 2, {1: (1, 1)}).radius == 1
    assert sum_rule(3, 3, {1: (1, 1)}).radius == 1


def test_f_star_shrinks_by_diameter():
    rule = su("m=4; d=2; f=x1^2+x2+x3^2")
    assert rule.f_star((1, 0, 1, 0)) == (2, 1)
    assert rule.f_star((1, 0)) == ()


def test_rule_from_code_least_significant_first():
    rule = rule_from_code(3, 0, 5)  # 5 = 2 + 1*3 -> entries (2, 1, 0)
    assert rule.table == (2, 1, 0)
    with pytest.raises(ValueError, match=r"^code 27 out of range for 3 base-3 digits$"):
        rule_from_code(3, 0, 27)
    with pytest.raises(ValueError, match=r"^code -1 out of range for 9 base-3 digits$"):
        rule_from_code(3, 1, -1)
    with pytest.raises(ValueError, match=r"^code 19683 out of range for 9 base-3 digits$"):
        rule_from_code(3, 1, 3**9)


def test_rule_from_code_refuses_a_table_past_the_cap_at_once():
    """The table cap is checked before any digit is taken from the code,
    so no number of 3^(3^16) digits is built on the way to the refusal.
    """
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"^rule table needs 43046721 entries, cap is 16777216$"):
        rule_from_code(3, 15, 0)
    assert time.perf_counter() - start < 1.0


# --- cyclic words -------------------------------------------------------------


def test_cyclic_word_equalities():
    a = CyclicWord.make(7, (6, 2))
    b = CyclicWord.make(7, (2, 6))
    assert a.rotation_equal(b)
    assert not a.config_equal(b)
    assert a.config_equal(CyclicWord.make(7, (6, 2, 6, 2)))


def test_apply_periodic_known_images():
    rule_b = su("m=7; d=2; f=x1^4+3*x2")
    assert rule_b.apply_periodic(CyclicWord.make(7, (5, 6))).cells == (2, 6)
    assert rule_b.apply_periodic(CyclicWord.make(7, (4, 3))).cells == (2, 6)

    rule_c = su("m=5; d=2; f=x1^3+2*x2+x3^2")
    assert rule_c.apply_periodic(CyclicWord.make(5, (1, 0))).cells == (2, 2)
    assert rule_c.apply_periodic(CyclicWord.make(5, (3,))).cells == (2,)
    assert rule_c.apply_periodic(CyclicWord.make(5, (3, 0))).cells == (1, 1)
    assert rule_c.apply_periodic(CyclicWord.make(5, (4, 1))).cells == (0, 2)


@given(small_rules(), st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6))
def test_apply_periodic_consistent_with_f_star(rule, cells):
    """Unrolling a periodic word far enough and sliding f over it must
    reproduce the periodic image, window for window.
    """
    word = CyclicWord.make(rule.m, [c % rule.m for c in cells])
    image = rule.apply_periodic(word)
    n = len(word.cells)
    reps = 4 + (rule.d // n + 2)
    unrolled = word.cells * reps
    flat = rule.f_star(unrolled)
    rho = rule.radius
    start = 2 * n  # deep inside, away from the cut
    for i in range(n):
        assert image.cells[(start + i + rho) % n] == flat[start + i]


# --- expression front end -----------------------------------------------------


def test_parse_rule_grammar():
    rule, expr = parse_rule("m=5; d=2; f=x1^3+2*x2+x3^2")
    assert (rule.m, rule.d) == (5, 2)
    assert expr.source == "m=5; d=2; f=x1^3+2*x2+x3^2"
    assert expr.raw_exponents() == {1: (1, 3), 2: (2, 1), 3: (1, 2)}


def test_parse_rule_constant_and_spacing():
    rule, _ = parse_rule("m=3; d=1;  f = 2*x1 + x2 + 1")
    assert rule.evaluate((0, 0)) == 1
    assert rule.evaluate((1, 1)) == 1  # 2 + 1 + 1 = 4 = 1 mod 3


def test_parse_rule_errors_carry_positions():
    for src in (
        "m=3; d=1; f=x1^",
        "m=3; f=x1",
        "m=3; d=1; f=x9",
        "m=1; d=1; f=x1",
        "m=3; d=1; f=x1**2",
    ):
        with pytest.raises(RuleParseError) as info:
            parse_rule(src)
        assert info.value.position >= 0


def test_raw_exponents_skips_repeated_variables():
    """A variable occurring twice is not a clean monomial occurrence, so
    it contributes no raw reading; the classifier's canonical view still
    sees the combined function.
    """
    _, expr = parse_rule("m=5; d=1; f=x1^2+x1+x2")
    assert 1 not in expr.raw_exponents()
    assert expr.raw_exponents()[2] == (1, 1)


def table_file_text(rule: RuleTable, per_line: int = 20) -> str:
    lines = [f"{rule.m} {rule.d}"]
    for start in range(0, len(rule.table), per_line):
        lines.append(" ".join(str(v) for v in rule.table[start : start + per_line]))
    return "\n".join(lines) + "\n"


def test_table_file_round_trip():
    rule = su("m=4; d=1; f=x1^3+x2^3")
    text = table_file_text(rule)
    parsed = parse_table_text(text)
    assert parsed == rule
    bad = "3 1\n0 1 2\n"
    with pytest.raises(RuleParseError):
        parse_table_text(bad)


def test_table_file_refusals():
    """Each malformed table file is refused with its message and the
    offset of the token at fault; a table past the cap is refused as such.
    """
    cases = [
        ("", "table file needs a header line 'm d'", 0),
        ("3", "table file needs a header line 'm d'", 0),
        ("3 x", "not an integer: 'x'", 2),
        ("1 1", "modulus must be >= 2, got 1", 0),
        ("3 -1", "diameter must be non-negative, got -1", 0),
        ("3 1\n0 1 2\n", "expected 9 table entries, got 3", 8),
        ("3 1\n0 1 2 0 1 2 0 5 2\n", "table entry 5 out of range for Z_3", 18),
    ]
    for text, message, position in cases:
        with pytest.raises(RuleParseError) as info:
            parse_table_text(text)
        assert str(info.value) == f"{message} (at offset {position})", text
        assert info.value.position == position, text
    with pytest.raises(CapExceeded, match=r"^rule table needs 62748517 entries, cap is 16777216$"):
        parse_table_text("13 6\n")


# --- permutivity and essential positions ----------------------------------------


def test_permutive_positions_quadratic_example():
    rule = su("m=4; d=2; f=x1^2+x2+x3^2")
    assert not is_permutive_at(rule, 1)
    assert is_permutive_at(rule, 2)
    assert not is_permutive_at(rule, 3)
    w = permutivity_witness(rule, 1)
    assert w is not None
    assert w["colliding_values"][0] != w["colliding_values"][1]


def test_essential_positions_detects_dummies():
    rule = su("m=7; d=2; f=x1^4+3*x2")
    assert classify(rule).essential == (1, 2)
    rule0 = su("m=3; d=2; f=1")
    assert classify(rule0).essential == ()


@given(small_rules())
def test_permutive_positions_are_essential(rule):
    for j in range(1, rule.nvars + 1):
        if is_permutive_at(rule, j):
            assert j in classify(rule).essential


# --- classification -------------------------------------------------------------


def assert_column_pass_matches_oracle(rule):
    """The single column pass answers every per-position question, and
    classify as a whole, exactly as the separate walks did.
    """
    for j in range(1, rule.nvars + 1):
        permutive = column_oracle.is_permutive_at(rule, j)
        assert is_permutive_at(rule, j) == permutive, j
        assert separable_component_at(rule, j) == column_oracle.separable_component_at(
            rule, j
        ), j
        witness = permutivity_witness(rule, j)
        assert (witness is None) == permutive, j
        if witness is not None:
            context = witness["context"]
            for v in witness["colliding_values"]:
                window = context[: j - 1] + [v] + context[j - 1 :]
                assert rule.evaluate(window) == witness["output"], j
    assert classify(rule).essential == column_oracle.essential_positions(rule)
    assert classify(rule) == column_oracle.classify(rule)


@pytest.mark.parametrize("m, d", [(3, 1), (2, 2)])
def test_column_pass_matches_oracle_exhaustive(m, d):
    for code in range(m ** (m ** (d + 1))):
        assert_column_pass_matches_oracle(rule_from_code(m, d, code))


@given(small_rules())
def test_column_pass_matches_oracle(rule):
    assert_column_pass_matches_oracle(rule)


def test_classify_quadratic_example():
    cls = classify(su("m=4; d=2; f=x1^2+x2+x3^2"))
    assert cls.essential == (1, 2, 3)
    assert (cls.ell, cls.r) == (1, 3)
    assert cls.lr_separated and cls.totally_separated and not cls.shift_like
    comp = cls.component_at(2)
    assert (comp.a, comp.q) == (1, 1)


def test_classify_shift_like():
    cls = classify(sum_rule(5, 2, {2: (3, 2)}))
    assert cls.shift_like
    assert cls.essential == (2,)
    assert (cls.ell, cls.r) == (2, 2)


def test_classify_constant_rules():
    zero = classify(su("m=3; d=1; f=0"))
    assert zero.essential == ()
    assert zero.totally_separated and not zero.lr_separated
    constant = classify(su("m=3; d=1; f=2"))
    assert not constant.totally_separated


def test_classify_nonseparated_middle():
    # g = (0, 1, 0) is no monomial table over Z_3 (those are (0,1,2),
    # (0,1,1), (0,2,1), (0,2,2) up to the absorbed constant), so the
    # middle position stays unseparated.
    rule = lr_separated_rule(3, 2, 1, 3, 1, 1, 1, 1, [0, 1, 0])
    cls = classify(rule)
    assert cls.lr_separated
    assert not cls.totally_separated
    assert cls.component_at(2) is None
    assert 2 in cls.essential


def test_extract_monomial_with_constant_absorption():
    """Monomial summands are detected up to the additive constant, which
    stays in the residual rather than in the component.
    """
    rule = sum_rule(5, 1, {1: (2, 3), 2: (1, 1)}, constant=4)
    comp = classify(rule).component_at(1)
    assert comp is not None and (comp.a, comp.q) == (2, 3)


def test_interior_table_pins_ends():
    rule = lr_separated_rule(3, 2, 1, 3, 1, 1, 1, 2, [0, 1, 2])
    assert interior_table(rule, 1, 3) == (0, 1, 2)
    rule_c = lr_separated_rule(3, 2, 1, 3, 1, 1, 1, 2, [2, 0, 1])
    assert interior_table(rule_c, 1, 3) == (2, 0, 1)


@given(
    st.sampled_from((3, 4, 5)),
    st.integers(min_value=1, max_value=2),
    st.data(),
)
def test_classify_reconstructs_separated_rules(m, d, data):
    """Building a rule from monomial components and classifying it gets
    the same components back, exponents taken canonically.
    """
    from ca_verify.zmod import units
    from column_oracle import canonical_exponent

    positions = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=d + 1),
            min_size=1,
            max_size=d + 1,
            unique=True,
        )
    )
    components = {}
    for j in positions:
        a = data.draw(st.sampled_from(units(m)))
        q = data.draw(st.integers(min_value=1, max_value=6))
        components[j] = (a, q)
    rule = sum_rule(m, d, components)
    cls = classify(rule)
    assert cls.totally_separated
    assert cls.essential == tuple(sorted(components))
    for j in cls.essential:
        a, q = components[j]
        comp = cls.component_at(j)
        assert comp.a == a % m
        assert comp.q == canonical_exponent(a, q, m)


# --- rule builders against per-window evaluation ----------------------------------
#
# build_rule sums one value table per position; the oracle evaluates every
# window on its own, with pow_mod and RuleExpression.evaluate.


def windows(m, d):
    return itertools.product(range(m), repeat=d + 1)


def window_table(m, d, fn):
    return tuple(fn(w) % m for w in windows(m, d))


BUILDER_SHAPES = [(m, d) for m in (2, 3, 4, 5) for d in (0, 1, 2)]


@pytest.mark.parametrize("m, d", BUILDER_SHAPES)
def test_monomial_rule_matches_window_evaluation(m, d):
    for j in range(1, d + 2):
        for a in range(m):
            for q in range(1, 7):
                expected = window_table(m, d, lambda w: a * pow_mod(w[j - 1], q, m))
                assert sum_rule(m, d, {j: (a, q)}).table == expected, (j, a, q)


@pytest.mark.parametrize("m, d", BUILDER_SHAPES)
def test_sum_rule_matches_window_evaluation(m, d):
    """Every set of positions, each with a coefficient in {1, m - 1, m + 2}
    and an exponent in 0..3 (0**0 == 1), over two constants.
    """
    choices = [None] + [(a, q) for a in (1, m - 1, m + 2) for q in range(4)]
    for picks in itertools.product(choices, repeat=d + 1):
        components = {j: pick for j, pick in enumerate(picks, 1) if pick is not None}
        for constant in (0, 2 * m - 1):
            expected = window_table(
                m,
                d,
                lambda w: constant
                + sum(a * pow_mod(w[j - 1], q, m) for j, (a, q) in components.items()),
            )
            assert sum_rule(m, d, components, constant).table == expected, (
                components,
                constant,
            )


@pytest.mark.parametrize("m, d", [(m, d) for m, d in BUILDER_SHAPES if d >= 1])
def test_lr_separated_rule_matches_window_evaluation(m, d):
    """Every end pair ell < r (r = ell + 1, and at d = 2 both an inner
    ell > 1 and an inner r < d + 1), a few end monomials, and every
    interior table for m <= 3 (every seventh of them above).
    """
    for ell in range(1, d + 1):
        for r in range(ell + 1, d + 2):
            h = r - ell - 1
            interiors = list(itertools.product(range(m), repeat=m**h))
            if m > 3:
                interiors = interiors[::7]
            for (a_l, q_l), (a_r, q_r) in itertools.product(
                [(1, 1), (m - 1, 2), (2, 3)], repeat=2
            ):
                for interior in interiors:

                    def fn(w):
                        idx = 0
                        for pos in range(ell + 1, r):
                            idx = idx * m + w[pos - 1]
                        return (
                            a_l * pow_mod(w[ell - 1], q_l, m)
                            + interior[idx]
                            + a_r * pow_mod(w[r - 1], q_r, m)
                        )

                    rule = lr_separated_rule(m, d, ell, r, a_l, q_l, a_r, q_r, interior)
                    assert rule.table == window_table(m, d, fn), (ell, r, interior)


@st.composite
def expression_sources(draw):
    """Rule sources with repeated positions, exponent 0 and constants."""
    m = draw(st.integers(min_value=2, max_value=7))
    d = draw(st.integers(min_value=0, max_value=2))
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        coeff = draw(st.integers(min_value=0, max_value=3 * m))
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            terms.append(str(coeff))
            continue
        j = draw(st.integers(min_value=1, max_value=d + 1))
        q = draw(st.integers(min_value=0, max_value=5))
        terms.append(f"{coeff}*x{j}^{q}")
    return f"m={m}; d={d}; f=" + " + ".join(terms)


@given(expression_sources())
def test_parsed_expression_table_matches_evaluate(source):
    rule, expression = parse_rule(source)
    assert rule.table == tuple(expression.evaluate(w) for w in windows(rule.m, rule.d))


def test_builders_keep_their_error_messages():
    with pytest.raises(ValueError, match=r"^position 3 out of range \[1, 2\]$"):
        sum_rule(3, 1, {3: (1, 1)})
    with pytest.raises(ValueError, match=r"^position 0 out of range \[1, 2\]$"):
        sum_rule(3, 1, {0: (1, 1)})
    with pytest.raises(ValueError, match=r"^exponent must be >= 0, got -1$"):
        sum_rule(3, 1, {1: (1, -1)})
    with pytest.raises(ValueError, match=r"^exponent must be >= 0, got -2$"):
        lr_separated_rule(3, 1, 1, 2, 1, -2, 1, 1, [0])
    with pytest.raises(ValueError, match=r"^interior table needs 3 entries, got 2$"):
        lr_separated_rule(3, 2, 1, 3, 1, 1, 1, 1, [0, 1])
    with pytest.raises(ValueError, match=r"^interior table needs 1 entries, got 0$"):
        lr_separated_rule(3, 1, 1, 2, 1, 1, 1, 1, [])
    with pytest.raises(ValueError, match=r"^need 1 <= ell < r <= 3, got \(2, 2\)$"):
        lr_separated_rule(3, 2, 2, 2, 1, 1, 1, 1, [0])
    # the modulus is checked before the interior's length
    with pytest.raises(ValueError, match=r"^modulus must be an int, got float$"):
        lr_separated_rule(2.0, 1, 1, 2, 1, 1, 1, 1, ())
    with pytest.raises(RuleParseError, match=r"^variable x3 outside x1\.\.x2 \(at offset 12\)$"):
        parse_rule("m=3; d=1; f=x3")
    # the diameter and the table cap are checked before any value is built
    with pytest.raises(ValueError, match=r"^diameter must be a non-negative integer, got -1$"):
        sum_rule(3, -1, {}, constant=1)
    with pytest.raises(CapExceeded, match=r"^rule table needs 81 entries, cap is 27$"):
        sum_rule(3, 3, {1: (1, -1)}, caps=Caps(table_entries=27))
