"""Algebraic criteria, their applicability gates, and honest
criterion-versus-oracle auditing.

Every criterion is evaluated exactly as stated, including the ones that
are wrong on specific inputs; those inputs are frozen here with the
discrepancy records the audit must produce for them. A criterion test
never gets to overrule the deciders.
"""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from ca_verify.caps import CapExceeded, Caps, DEFAULT_CAPS
from ca_verify.criteria import (
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    CriterionVerdict,
    FamilySpec,
    analyze,
    audit,
    audit_row,
    conjecture_scan,
    criterion_even_exponents,
    criterion_surjectivity_sufficient,
    criterion_totient_permutivity,
    enumerate_family,
    family_size,
    parse_family,
    permutive_bruteforce,
    run_criteria,
    sufficiency_violation_on_prime,
)
from ca_verify.decide import decide_surjective
from ca_verify.rule import classify, parse_rule, sum_rule
from ca_verify.zmod import units


def verdicts(src):
    rule, expr = parse_rule(src)
    cls = classify(rule)
    out = {}
    for v in run_criteria(rule, cls, expr.raw_exponents()):
        out[(v.criterion, v.position)] = v
    return out


def report(src):
    rule, expr = parse_rule(src)
    return analyze(rule, expression=expr, rule_id=expr.source)


# --- verdict plumbing ------------------------------------------------------------


def test_verdict_requires_note_when_not_applicable():
    with pytest.raises(ValueError):
        CriterionVerdict("totient_permutivity", 1, NOT_APPLICABLE)
    v = CriterionVerdict("totient_permutivity", 1, NOT_APPLICABLE, note="x")
    assert not v.applicable
    assert set(v.as_dict()) == {
        "criterion", "position", "value", "raw_value", "canonical_value", "note",
    }


def test_permutive_bruteforce_bounds():
    rule, _ = parse_rule("m=3; d=1; f=x1+x2")
    assert permutive_bruteforce(rule, 1)
    with pytest.raises(ValueError):
        permutive_bruteforce(rule, 3)


# --- frozen verdicts on the worked rules ------------------------------------------


def test_quadratic_mod4_verdicts():
    vs = verdicts("m=4; d=2; f=x1^2+x2+x3^2")
    assert vs[("totient_permutivity", 1)].value == FAILS
    assert vs[("totient_permutivity", 2)].value == HOLDS
    assert vs[("totient_permutivity", 3)].value == FAILS
    assert vs[("hermite_permutivity", 1)].note == "modulus is not prime"
    assert vs[("surjectivity_sufficient", None)].value == FAILS
    assert vs[("pp_interior_characterization", None)].note == "modulus is not prime"
    assert vs[("injectivity_characterization", None)].value == FAILS
    assert vs[("bijectivity_characterization", None)].value == FAILS
    assert "totient reading" in vs[("bijectivity_characterization", None)].note
    assert vs[("even_exponents_obstruction", None)].note == "modulus is not an odd prime"


def test_quadratic_mod3_verdicts():
    vs = verdicts("m=3; d=2; f=x1^2+x2+x3^2")
    assert vs[("hermite_permutivity", 2)].value == HOLDS
    assert vs[("surjectivity_sufficient", None)].value == FAILS
    assert (
        vs[("pp_interior_characterization", None)].note
        == "interior map is a multivariate permutation map"
    )
    assert vs[("pp_totally_separated_necessity", None)].value == HOLDS
    assert vs[("even_exponents_obstruction", None)].value == FAILS


def test_mod5_example_verdicts():
    vs = verdicts("m=5; d=2; f=x1^3+2*x2+x3^2")
    assert vs[("totient_permutivity", 1)].value == HOLDS
    assert vs[("surjectivity_sufficient", None)].value == HOLDS
    assert vs[("injectivity_characterization", None)].value == FAILS


def test_mod7_example_gates():
    vs = verdicts("m=7; d=2; f=x1^4+3*x2")
    assert vs[("totient_permutivity", 3)].note == "not separated at this position"
    assert (
        vs[("pp_interior_characterization", None)].note
        == "no interior coordinates between the outer positions"
    )
    assert vs[("surjectivity_sufficient", None)].value == HOLDS


def test_zero_rule_vacuous_even_exponents():
    vs = verdicts("m=3; d=1; f=0")
    even = vs[("even_exponents_obstruction", None)]
    assert even.value == HOLDS
    assert even.note == "vacuously satisfied: no monomial terms"
    constant = verdicts("m=3; d=1; f=2")[("even_exponents_obstruction", None)]
    assert constant.value == NOT_APPLICABLE
    assert constant.note == "not a pure monomial sum"


def test_raw_and_canonical_split_on_high_degree():
    """x^5 over Z_5 is the identity map, so the canonical reading of the
    derivative-gcd test accepts it while the literal degree-5 reading is
    rejected by the degree gate. The headline value follows the literal
    reading and the oracle contradicts it, which is exactly what the
    discrepancy channel is for.
    """
    vs = verdicts("m=5; d=0; f=x1^5")
    h = vs[("hermite_permutivity", 1)]
    assert h.raw_value == FAILS
    assert h.canonical_value == HOLDS
    assert h.value == FAILS

    rep = report("m=5; d=0; f=x1^5")
    recs = [r for r in rep["discrepancies"] if r["criterion"] == "hermite_permutivity"]
    assert len(recs) == 1
    assert recs[0]["expected"] is False and recs[0]["observed"] is True


# --- frozen discrepancy classes ----------------------------------------------------


def test_no_discrepancies_on_the_worked_rules():
    for src in (
        "m=4; d=2; f=x1^2+x2+x3^2",
        "m=3; d=2; f=x1^2+x2+x3^2",
        "m=3; d=1; f=0",
    ):
        assert report(src)["discrepancies"] == []


def test_mod5_example_carries_one_hermite_discrepancy():
    """The left end of the Z_5 worked rule is x^3, a permutation the
    derivative-gcd test rejects, so analyzing the rule must surface
    exactly that one disagreement and nothing else.
    """
    rep = report("m=5; d=2; f=x1^3+2*x2+x3^2")
    assert [
        (r["criterion"], r["position"], r["expected"], r["observed"])
        for r in rep["discrepancies"]
    ] == [("hermite_permutivity", 1, False, True)]


def test_cubic_sum_mod4_sufficiency_discrepancy():
    """gcd(3, phi(4)) = 1, so the sufficiency statement read over Z_4
    predicts surjectivity; the decider refutes it. The audit must record
    the failure instead of hiding it.
    """
    rep = report("m=4; d=1; f=x1^3+x2^3")
    assert rep["surjective"]["verdict"] is False
    by_criterion = {r["criterion"] for r in rep["discrepancies"]}
    assert by_criterion == {"totient_permutivity", "surjectivity_sufficient"}
    suff = next(
        r for r in rep["discrepancies"] if r["criterion"] == "surjectivity_sufficient"
    )
    assert suff["expected"] is True and suff["observed"] is False
    assert suff["witness"]["kind"] == "unbalanced_word"


def test_cubic_monomial_mod4_flags_four_criteria():
    rep = report("m=4; d=0; f=x1^3")
    assert {r["criterion"] for r in rep["discrepancies"]} == {
        "totient_permutivity",
        "surjectivity_sufficient",
        "injectivity_characterization",
        "bijectivity_characterization",
    }


# --- prime-side soundness properties -----------------------------------------------

# Surjective verdicts come from the polynomial diamond search, but a
# negative verdict also needs the shortest unbalanced word, whose
# count-vector search can be far too expensive on a drawn rule. That
# search runs only after a diamond has proved the rule non-surjective,
# so a draw that exceeds the tight budget is read as "not surjective".
DRAW_CAPS = Caps(subset_states=1 << 14)


def surjective_within_draw_caps(rule):
    try:
        return decide_surjective(rule, DRAW_CAPS).surjective
    except CapExceeded as exc:
        assert "balance search" in str(exc)
        return False


@given(
    st.sampled_from((3, 5, 7)),
    st.integers(min_value=1, max_value=2),
    st.data(),
)
def test_sufficiency_criterion_sound_on_primes(p, d, data):
    """Over a prime field the gcd reading of the end exponents is exact,
    so a Holds verdict must always be confirmed by the decider.
    """
    positions = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=1, max_value=d + 1),
                min_size=1,
                max_size=d + 1,
                unique=True,
            )
        )
    )
    components = {
        j: (
            data.draw(st.sampled_from(units(p))),
            data.draw(st.integers(min_value=1, max_value=8)),
        )
        for j in positions
    }
    rule = sum_rule(p, d, components, constant=data.draw(st.integers(min_value=0, max_value=p - 1)))
    cls = classify(rule)
    verdict = criterion_surjectivity_sufficient(rule, cls)
    if verdict.value == HOLDS:
        assert surjective_within_draw_caps(rule)


@given(st.sampled_from((3, 5)), st.data())
def test_even_exponents_criterion_sound_on_odd_primes(p, data):
    d = data.draw(st.integers(min_value=0, max_value=2))
    components = {
        j: (
            data.draw(st.sampled_from(units(p))),
            2 * data.draw(st.integers(min_value=1, max_value=3)),
        )
        for j in range(1, d + 2)
    }
    rule = sum_rule(p, d, components)
    cls = classify(rule)
    verdict = criterion_even_exponents(rule, cls)
    assert verdict.value == HOLDS
    assert verdict.raw_value == verdict.canonical_value
    assert surjective_within_draw_caps(rule) is False


@given(st.sampled_from((3, 4, 5, 6, 7, 9)), st.integers(min_value=1, max_value=9))
def test_totient_criterion_one_sided_everywhere_exact_on_primes(m, q):
    """gcd(q, phi(m)) != 1 always refutes permutivity, because phi and
    the unit-group exponent share their prime factors. The converse is a
    prime-field fact only; composite moduli can over-promise (m=4, q=3
    being the canonical offender, frozen elsewhere).
    """
    from ca_verify.zmod import is_prime

    from ca_verify.rule import monomial_rule

    for a in units(m):
        rule = monomial_rule(m, 0, 1, a, q)
        cls = classify(rule)
        verdict = criterion_totient_permutivity(rule, cls, 1, raw_exponents={1: (a, q)})
        oracle = permutive_bruteforce(rule, 1)
        if verdict.canonical_value == FAILS:
            assert not oracle
        if is_prime(m):
            assert (verdict.canonical_value == HOLDS) == oracle


# --- analyze report shape -----------------------------------------------------------


def test_analyze_report_shape():
    rep = report("m=3; d=1; f=x1+x2")
    assert set(rep) == {
        "id", "rule", "classification", "permutive",
        "surjective", "injective", "criteria", "discrepancies", "timings",
    }
    assert rep["id"] == "m=3; d=1; f=x1+x2"
    assert rep["rule"]["m"] == 3 and rep["rule"]["d"] == 1
    assert len(rep["rule"]["table"]) == 9
    assert rep["permutive"] == [
        {"position": 1, "verdict": True},
        {"position": 2, "verdict": True},
    ]
    assert rep["surjective"] == {"verdict": True, "witness": None}
    assert rep["injective"]["verdict"] is False
    assert rep["timings"] is None


def test_analyze_timings_opt_in():
    rule, expr = parse_rule("m=3; d=1; f=x1+x2")
    rep = analyze(rule, expression=expr, with_timings=True)
    assert isinstance(rep["timings"]["seconds"], float)


# --- family parsing and enumeration --------------------------------------------------


def test_parse_family_round_trip():
    spec = parse_family(
        "# shift-like sweep\nkind=shift_like\nmoduli=4\nq_min=1\nq_max=4\n"
    )
    assert spec == FamilySpec(kind="shift_like", moduli=(4,), q_min=1, q_max=4)
    rules = list(enumerate_family(spec))
    assert family_size(spec) == len(rules) == 8
    assert rules[0].rule_id == "m4-d0-j1-a1-q1"


def test_parse_family_errors():
    cases = {
        "kind=bogus\nmoduli=3\nq_max=2\n": "unknown family kind",
        "kind=shift_like\nmoduli=4\nq_max=2\nwhat=3\n": "unknown key",
        "kind=shift_like\nmoduli=4\n": "needs q_max",
        "kind=shift_like\nmoduli=4\nq_max=2\nq_max=3\n": "repeated key",
        "kind=lr_separated\nmoduli=3\nq_max=2\n": "diameter at least 1",
    }
    for text, needle in cases.items():
        with pytest.raises(ValueError, match=needle):
            parse_family(text)


def test_family_sampling_is_seeded():
    def tables(seed):
        spec = parse_family(
            f"kind=lr_separated\nmoduli=3\nd=2\nq_max=1\npi=sample:2\nseed={seed}\n"
        )
        return [r.rule.table for r in enumerate_family(spec)]

    assert tables(5) == tables(5)
    assert tables(5) != tables(6)


def test_enumerate_family_respects_cap():
    spec = parse_family("kind=all_tables\nmoduli=3\nd=1\n")
    tight = dataclasses.replace(DEFAULT_CAPS, family_rules=100)
    with pytest.raises(CapExceeded):
        list(enumerate_family(spec, tight))


# --- audit -------------------------------------------------------------------------


def test_audit_flags_only_the_cubic_shift_rules_mod4():
    spec = parse_family("kind=shift_like\nmoduli=4\nq_min=1\nq_max=4\n")
    rows = list(audit(spec, DEFAULT_CAPS, jobs=1))
    assert [row["id"] for row in rows] == [
        f"m4-d0-j1-a{a}-q{q}" for a in (1, 3) for q in (1, 2, 3, 4)
    ]
    flagged = {row["id"] for row in rows if row["discrepancies"]}
    assert flagged == {"m4-d0-j1-a1-q3", "m4-d0-j1-a3-q3"}
    for row in rows:
        assert not sufficiency_violation_on_prime(row)  # composite modulus


def test_audit_row_and_analyze_render_one_evaluation():
    """The audit row and the full report of a rule carry the same
    verdicts, criteria and discrepancies, on families where some written
    exponents differ from the canonical ones.
    """
    specs = (
        "kind=shift_like\nmoduli=4\nq_max=6\n",
        "kind=lr_separated\nmoduli=5\nd=2\nq_min=4\nq_max=5\npi=sample:2\n",
    )
    for text in specs:
        rewritten = discrepancies = 0
        for fr in enumerate_family(parse_family(text)):
            raw = {j: (a, q) for j, a, q in fr.raw}
            row = audit_row(fr.rule, rule_id=fr.rule_id, raw_exponents=raw)
            rep = analyze(fr.rule, raw_exponents=raw, rule_id=fr.rule_id)
            assert row["surjective"] == rep["surjective"]["verdict"]
            assert row["injective"] == rep["injective"]["verdict"]
            for key in ("permutive", "criteria", "discrepancies"):
                assert row[key] == rep[key]
            cls = classify(fr.rule)
            rewritten += any(cls.component_at(j).q != q for j, _, q in fr.raw)
            discrepancies += bool(row["discrepancies"])
        assert rewritten and discrepancies


def test_audit_parallel_equals_serial():
    spec = parse_family("kind=lr_separated\nmoduli=3\nd=1\nq_max=2\n")
    serial = list(audit(spec, DEFAULT_CAPS, jobs=1))
    parallel = list(audit(spec, DEFAULT_CAPS, jobs=3))
    assert serial == parallel


def test_sufficiency_violation_predicate():
    row = {
        "m": 3,
        "discrepancies": [
            {
                "criterion": "surjectivity_sufficient",
                "property": "surjective",
                "expected": True,
                "observed": False,
            }
        ],
    }
    assert sufficiency_violation_on_prime(row)
    assert not sufficiency_violation_on_prime({**row, "m": 4})
    assert not sufficiency_violation_on_prime({"m": 3, "discrepancies": []})


# --- conjecture scan ----------------------------------------------------------------


def test_conjecture_scan_small_prime():
    rep = conjecture_scan(3, 1, q_min=1, q_max=2)
    assert rep["total_rules"] == 48
    assert rep["surjective_rules"] == 36
    assert rep["sufficiency_violations"] == {"count": 0, "ids": []}
    assert rep["necessity_counterexamples"]["count"] == 0
    assert rep["runtime"] is None


def test_conjecture_scan_rejects_non_odd_primes():
    with pytest.raises(ValueError):
        conjecture_scan(4, 1)
    with pytest.raises(ValueError):
        conjecture_scan(2, 1)


def test_conjecture_scan_jobs_equivalence():
    assert conjecture_scan(3, 1, q_max=2, jobs=2) == conjecture_scan(3, 1, q_max=2)
