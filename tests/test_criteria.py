"""Algebraic criteria, their applicability gates, and honest
criterion-versus-oracle auditing.

Every criterion is evaluated exactly as stated, including the ones that
are wrong on specific inputs; those inputs are frozen here with the
discrepancy records the audit must produce for them. A criterion test
never gets to overrule the deciders.
"""

import dataclasses
import hashlib
import os
import random
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from ca_verify import criteria
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
    parse_family,
    run_criteria,
    sufficiency_violation_on_prime,
)
from ca_verify.decide import decide_surjective
from ca_verify.criteria import _family_map, _family_rule_count, _hermite_verdict
from ca_verify.rule import (
    RuleTable,
    classify,
    is_permutive_at,
    parse_rule,
    rule_from_code,
    separable_component_at,
    sum_rule,
)
from ca_verify.zmod import units

SRC = str(Path(criteria.__file__).resolve().parent.parent)


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
    assert is_permutive_at(rule, 1)
    with pytest.raises(ValueError):
        is_permutive_at(rule, 3)


# --- frozen verdicts on the worked rules ------------------------------------------


# Both rules have the component table (0, 1, 2, 3, 4) at position 1; only
# the written exponent separates their raw Hermite readings (x^5 fails the
# degree clause over Z_5, while its canonical form x holds).
SHARED_HERMITE_COMPONENT = {
    "m=5; d=1; f=x1+x2": (HOLDS, HOLDS),
    "m=5; d=1; f=x1^5+x2": (FAILS, HOLDS),
}


@pytest.mark.parametrize("order", [1, -1], ids=["x1-first", "x1^5-first"])
def test_hermite_memo_keys_on_the_written_exponent(order):
    _hermite_verdict.cache_clear()
    for src, (raw, canonical) in list(SHARED_HERMITE_COMPONENT.items())[::order]:
        rule, expr = parse_rule(src)
        assert separable_component_at(rule, 1) == (0, 1, 2, 3, 4)
        row = audit_row(rule, rule_id=src, raw_exponents=expr.raw_exponents())
        for rendered in (report(src), row):
            (entry,) = [
                c
                for c in rendered["criteria"]
                if c["criterion"] == "hermite_permutivity" and c["position"] == 1
            ]
            assert entry["value"] == entry["raw_value"] == raw, src
            assert entry["canonical_value"] == canonical, src


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

# Surjective verdicts come from the polynomial diamond search. A
# negative verdict's shortest unbalanced word comes from a count-vector
# search that can be far too expensive on a drawn rule; it runs only
# when that witness is read, which these tests never do, and a refusal
# there would still mean "not surjective".
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

    for a in units(m):
        rule = sum_rule(m, 0, {1: (a, q)})
        cls = classify(rule)
        verdict = criterion_totient_permutivity(rule, cls, 1, raw_exponents={1: (a, q)})
        oracle = is_permutive_at(rule, 1)
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
    assert _family_rule_count(spec, DEFAULT_CAPS) == len(rules) == 8
    assert rules[0].rule_id == "m4-d0-j1-a1-q1"


def test_parse_family_errors():
    cases = {
        "kind=bogus\nmoduli=3\nq_max=2\n": "unknown family kind",
        "kind=shift_like\nmoduli=4\nq_max=2\nwhat=3\n": "unknown key",
        "kind=shift_like\nmoduli=4\nq_max=2\ncoefficients=units\n": "unknown key",
        "kind=shift_like\nmoduli=4\n": "needs q_max",
        "kind=shift_like\nmoduli=4\nq_max=2\nq_max=3\n": "repeated key",
        "kind=lr_separated\nmoduli=3\nq_max=2\n": "diameter at least 1",
        "kind=shift_like\nmoduli=3,5,3\nq_max=2\n": "repeated modulus 3",
        "kind=all_tables\nmoduli=2,2\n": "repeated modulus 2",
        "kind=all_tables\nmoduli=2\npi=sample:3\n": "kind=all_tables has no interior",
        "kind=shift_like\nmoduli=5\nq_max=2\npi=sample:1\n": "kind=shift_like has no",
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
    # counts far past str()'s 4300-digit limit are refused before they are built
    for text in (
        "kind=all_tables\nmoduli=13\nd=3\n",
        "kind=lr_separated\nmoduli=13\nd=5\nq_max=1\n",
    ):
        with pytest.raises(CapExceeded, match="family enumerates more than"):
            list(enumerate_family(parse_family(text)))


def test_enumeration_keeps_ids_and_tables(monkeypatch):
    """Ids, written exponents and tables of a sampled and an exhaustive
    outer-separated family, pinned from an enumeration that drew the
    sampled interiors again for every outer exponent pair. The sample is
    drawn once per modulus.
    """
    draws = []

    def counted(seed):
        draws.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(criteria, "random", SimpleNamespace(Random=counted))
    expected = {
        "kind=lr_separated\nmoduli=3,5\nd=2\nq_max=2\npi=sample:3\nseed=7\n": (
            240,
            "eab2ff4a69a629b8ab0c0704532061bacc33c66bdea1c246901a9ce159d0b5f3",
        ),
        "kind=lr_separated\nmoduli=3\nd=2\nq_max=2\n": (
            432,
            "949be13616bfbc1f3a52be581cdaaebef44a880255ebb06f7f7fe2c1dd44cb8c",
        ),
    }
    for text, (count, digest) in expected.items():
        h = hashlib.sha256()
        rules = list(enumerate_family(parse_family(text)))
        for fr in rules:
            h.update(f"{fr.rule_id} {fr.raw} {fr.params} {list(fr.rule.table)}\n".encode())
        assert (len(rules), h.hexdigest()) == (count, digest)
    assert draws == [7, 7]  # one draw per modulus of the sampled family


def test_enumeration_builds_only_the_tables_read(monkeypatch):
    built, make = [], RuleTable.make
    monkeypatch.setattr(RuleTable, "make", lambda *args: built.append(args) or make(*args))
    rules = list(enumerate_family(parse_family("kind=all_tables\nmoduli=2\nd=2\n")))
    assert len(rules) == 256 and built == []
    table = rules[40].rule.table
    assert rules[40].rule is rules[40].rule
    assert built == [(2, 2, table, DEFAULT_CAPS)]
    assert table == rule_from_code(2, 2, 40).table


def test_enumeration_walks_interior_tables_lazily():
    """The first rule of a pi=all family comes before its interior tables
    are listed: the 65536 of m=2, d=5 would take about 16 MiB.
    """
    spec = parse_family("kind=lr_separated\nmoduli=2\nd=5\nq_max=1\n")
    tracemalloc.start()
    try:
        next(enumerate_family(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_all_tables_walk_matches_the_code_decoder():
    """Table i of an all_tables family is rule_from_code's table of code
    i: the walk lists digits most significant first, the table stores
    them least significant first.
    """
    for m, d in ((2, 2), (3, 1)):
        rules = list(enumerate_family(FamilySpec("all_tables", (m,), d)))
        assert len(rules) == m ** (m ** (d + 1))
        for code, fr in enumerate(rules):
            assert (fr.rule_id, fr.params) == (f"m{m}-d{d}-t{code}", (("code", code),))
            assert fr.rule == rule_from_code(m, d, code), fr.rule_id


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


# --- forked workers -----------------------------------------------------------------

FORK = pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
    reason="needs os.fork and /proc/self/fd",
)
TABLES_M2_D2 = parse_family("kind=all_tables\nmoduli=2\nd=2\n")


def rule_id_or_fail(caps, fr):
    if fr.rule_id == "m2-d2-t20":
        raise ValueError("refused t20")
    return fr.rule_id


def assert_no_children_and_fds(count):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == count


@FORK
def test_forked_map_leaves_no_children_or_pipes():
    """A normal end, an error frame, and close() after one value each
    leave no child unreaped and no pipe end open.
    """
    ids = [f"m2-d2-t{code}" for code in range(256)]
    fds = len(os.listdir("/proc/self/fd"))
    worker = lambda caps, fr: fr.rule_id  # noqa: E731 (forked, never pickled)
    assert list(_family_map(worker, TABLES_M2_D2, DEFAULT_CAPS, 3)) == ids
    assert_no_children_and_fds(fds)

    values = []
    with pytest.raises(ValueError, match="refused t20"):
        for value in _family_map(rule_id_or_fail, TABLES_M2_D2, DEFAULT_CAPS, 2):
            values.append(value)
    assert values == ids[:20]
    assert_no_children_and_fds(fds)

    stream = _family_map(worker, TABLES_M2_D2, DEFAULT_CAPS, 2)
    assert next(stream) == ids[0]
    stream.close()
    assert_no_children_and_fds(fds)


@FORK
def test_dead_worker_raises_instead_of_hanging():
    """A worker that dies on a rule fails the run, naming its pid and
    signal, instead of leaving the parent waiting for its chunk.
    """
    script = (
        "import os, signal\n"
        "from ca_verify import criteria\n"
        "def worker(caps, fr):\n"
        "    if fr.rule_id.endswith('-t40'):\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return fr.rule_id\n"
        "spec = criteria.parse_family('kind=all_tables\\nmoduli=2\\nd=2\\n')\n"
        "try:\n"
        "    list(criteria._family_map(worker, spec, criteria.DEFAULT_CAPS, 2))\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the run hung on a dead worker")
    assert proc.returncode == 0
    assert re.fullmatch(r"worker \d+ was killed by signal 9\n", out)


def test_jobs_run_serially_where_forking_is_unsafe(monkeypatch):
    """Without os.fork, or beside another thread, --jobs N runs serially
    with the same rows."""
    serial = list(audit(TABLES_M2_D2, DEFAULT_CAPS, jobs=1))
    monkeypatch.setattr(criteria, "_forked_map", None)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert list(audit(TABLES_M2_D2, DEFAULT_CAPS, jobs=3)) == serial
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(criteria.os, "fork", raising=False)
    assert list(audit(TABLES_M2_D2, DEFAULT_CAPS, jobs=3)) == serial


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
