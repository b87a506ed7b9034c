"""Command-line behavior: exit codes, canonical JSON documents, schema
conformance, and the PGM tracer.

Everything runs in-process through main(argv) so the tests see the same
code path as the installed entry point without subprocess overhead.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from ca_verify import decide, schema
from ca_verify.cli import build_parser, main
from ca_verify.criteria import audit, parse_family

RULE_A = "m=4; d=2; f=x1^2+x2+x3^2"
SRC = str(Path(schema.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# --- analyze -----------------------------------------------------------------


def test_analyze_document_is_canonical_and_valid(capsys):
    code, out, _ = run(capsys, "analyze", RULE_A)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema.DOCUMENT)
    jsonschema.validate(doc["report"], schema.ANALYSIS_REPORT)
    assert doc["schema_version"] == schema.SCHEMA_VERSION
    assert doc["command"] == {"name": "analyze", "argv": ["analyze", RULE_A]}
    assert doc["exit_status"] == 0
    # canonical form: reserializing the parsed document is byte-identical
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out


def test_analyze_is_deterministic(capsys):
    _, first, _ = run(capsys, "analyze", RULE_A)
    _, second, _ = run(capsys, "analyze", RULE_A)
    assert first == second


def test_analyze_expect_mismatch_exits_3(capsys):
    code, doc, err = run_json(
        capsys, "analyze", RULE_A, "--expect", "surjective,injective"
    )
    assert code == 3
    assert doc["exit_status"] == 3
    assert "injective" in err


def test_analyze_expect_satisfied(capsys):
    code, doc, _ = run_json(
        capsys, "analyze", RULE_A, "--expect", "surjective,non-injective"
    )
    assert code == 0
    assert doc["report"]["surjective"]["verdict"] is True


def test_analyze_unknown_expectation_exits_1(capsys):
    code, _, err = run(capsys, "analyze", RULE_A, "--expect", "reversible")
    assert code == 1
    assert "unknown expectation" in err
    # an expectation list that names nothing is refused, not passed
    for expect in ("", ",", " ", "surjective,"):
        code, out, err = run(capsys, "analyze", "m=3; d=1; f=x1+x2", "--expect", expect)
        assert (code, out) == (1, ""), repr(expect)
        assert err == (
            "error: unknown expectation ''; choose from "
            "injective, non-injective, non-surjective, surjective\n"
        )


def test_analyze_table_file(tmp_path, capsys):
    table = tmp_path / "rule.tbl"
    table.write_text("3 0\n0 1 2\n", encoding="ascii")
    code, doc, _ = run_json(capsys, "analyze", "--table-file", str(table))
    assert code == 0
    assert doc["report"]["rule"]["table"] == [0, 1, 2]
    assert doc["report"]["rule"]["expression"] is None


def test_analyze_rule_and_table_file_conflict(tmp_path, capsys):
    table = tmp_path / "rule.tbl"
    table.write_text("3 0\n0 1 2\n", encoding="ascii")
    code, _, err = run(capsys, "analyze", RULE_A, "--table-file", str(table))
    assert code == 1
    assert "not both" in err
    # an empty expression is given, not absent
    code, _, err = run(capsys, "analyze", "", "--table-file", str(table))
    assert code == 1
    assert err == "error: give either a rule expression or --table-file, not both\n"
    code, _, err = run(capsys, "analyze", "")
    assert code == 1
    assert err == (
        "error: rule parse error at position 0:"
        " expected 'm', found 'end' (at offset 0)\n"
    )


def test_analyze_missing_rule_exits_1(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 1


def test_analyze_parse_error_exits_1(capsys):
    code, _, err = run(capsys, "analyze", "m=3; d=1; f=x1^")
    assert code == 1
    assert "parse error" in err


def test_analyze_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", RULE_A, "--output", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text(encoding="ascii"))
    jsonschema.validate(doc, schema.DOCUMENT)


def test_analyze_text_format(capsys):
    code, out, _ = run(capsys, "analyze", RULE_A, "--format", "text")
    assert code == 0
    assert "surjective: True" in out
    assert "discrepancies: none" in out


def test_caps_env_exceeded_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CA_VERIFY_CAPS", "table_entries=10")
    code, _, err = run(capsys, "analyze", RULE_A)
    assert code == 2
    assert "cap exceeded" in err


def test_caps_env_malformed_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("CA_VERIFY_CAPS", "tables=nope")
    code, _, err = run(capsys, "analyze", RULE_A)
    assert code == 1


# --- examples -----------------------------------------------------------------


def test_examples_reproduces_published_claims(capsys):
    code, doc, _ = run_json(capsys, "examples")
    assert code == 0
    jsonschema.validate(doc, schema.DOCUMENT)
    jsonschema.validate(doc["report"], schema.EXAMPLES_REPORT)
    checks = doc["report"]["checks"]
    assert len(checks) == 13
    assert doc["report"]["discrepancy_count"] == 2
    flagged = [c["claim"] for c in checks if c["status"] == "DISCREPANCY"]
    assert flagged == [
        "images of (3,0)^inf and (4,1)^inf coincide",
        "those images equal (3,4)^inf",
    ]
    for check in checks:
        if check["claim"] == "common image is (6,2)^inf":
            assert check["status"] == "CONFIRMED"


# --- audit ---------------------------------------------------------------------


def test_audit_streams_schema_valid_rows(tmp_path, capsys):
    fam = tmp_path / "family.txt"
    fam.write_text("kind=shift_like\nmoduli=4\nq_min=1\nq_max=4\n", encoding="ascii")
    code, out, _ = run(capsys, "audit", "--family", str(fam))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    for line in lines:
        row = json.loads(line)
        jsonschema.validate(row, schema.AUDIT_ROW)
        # compact one-object-per-line framing
        assert json.dumps(row, sort_keys=True, separators=(",", ":")) == line
    flagged = [json.loads(l)["id"] for l in lines if json.loads(l)["discrepancies"]]
    assert flagged == ["m4-d0-j1-a1-q3", "m4-d0-j1-a3-q3"]

    # At either job count, each line is the canonical compact encoding of
    # the row that criteria.audit yields; the first two families carry
    # discrepancy records with witnesses.
    specs = (
        "kind=shift_like\nmoduli=4\nq_max=6\n",
        "kind=lr_separated\nmoduli=5\nd=2\nq_min=4\nq_max=5\npi=sample:2\n",
        "kind=all_tables\nmoduli=2\nd=2\n",
    )
    validator = jsonschema.validators.validator_for(schema.AUDIT_ROW)(schema.AUDIT_ROW)
    for text in specs:
        fam.write_text(text, encoding="ascii")
        rows = list(audit(parse_family(text)))
        expected = [json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows]
        if "all_tables" not in text:
            assert any(row["discrepancies"] for row in rows)
        for row in rows:
            validator.validate(row)
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "audit", "--family", str(fam), "--jobs", jobs)
            assert code == 0
            assert out.splitlines() == expected


def test_audit_searches_only_balanced_tables(tmp_path, capsys, monkeypatch):
    """Of the 19683 m=3, d=1 tables, 18003 are unbalanced and decided by
    their letter counts; no audit row reads their witnesses. The diamond
    search decides each balanced table (1680). No row reads the witness of
    a balanced table with a diamond, so the balance search never runs, and
    no row reads a diamond, so the diamond search runs for no other table.
    """
    calls = {"_shortest_diamond": 0, "shortest_unbalanced_word": 0}

    def counted(name):
        search = getattr(decide, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return search(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(decide, name, counted(name))
    fam = tmp_path / "family.txt"
    fam.write_text("kind=all_tables\nmoduli=3\nd=1\n", encoding="ascii")
    code, out, _ = run(capsys, "audit", "--family", str(fam), "--jobs", "1")
    assert code == 0
    assert out.count("\n") == 3**9
    assert calls == {"_shortest_diamond": 1680, "shortest_unbalanced_word": 0}

    # a report renders both witnesses, the deferred diamond among them
    code, out, _ = run(capsys, "analyze", "m=3; d=1; f=x1^2+x2^2")
    assert code == 0
    assert calls == {"_shortest_diamond": 1681, "shortest_unbalanced_word": 0}
    # sha256 of the report as built when every witness was searched eagerly
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "def554475c6d92a18d9c20d76911343d529cfd4d5d838df23dcaf9cbdd46d47b"
    )


def test_audit_missing_family_file_exits_1(capsys):
    code, _, err = run(capsys, "audit", "--family", "/nonexistent/family.txt")
    assert code == 1


def test_audit_bad_family_exits_1(tmp_path, capsys):
    fam = tmp_path / "family.txt"
    cases = {
        "kind=bogus\nmoduli=3\nq_max=2\n": "unknown family kind",
        "kind=shift_like\nmoduli=3,3\nq_max=2\n": "repeated modulus 3",
        "kind=all_tables\nmoduli=2\npi=sample:3\n": "kind=all_tables has no interior tables",
    }
    for text, needle in cases.items():
        fam.write_text(text, encoding="ascii")
        code, out, err = run(capsys, "audit", "--family", str(fam))
        assert (code, out) == (1, "")
        assert needle in err


def test_audit_oversized_family_exits_2(tmp_path, capsys):
    fam = tmp_path / "family.txt"
    fam.write_text("kind=all_tables\nmoduli=13\nd=3\n")
    code, out, err = run(capsys, "audit", "--family", str(fam))
    assert code == 2 and out == ""
    assert err.startswith("cap exceeded: family enumerates")


def test_audit_refusals_keep_their_bytes_at_any_jobs(tmp_path, capsys, monkeypatch):
    """A cap refusal mid-family prints the rows before it, then the
    refusal, at every --jobs; so does a family refused before its first
    rule.
    """
    fam = tmp_path / "family.txt"
    fam.write_text("kind=all_tables\nmoduli=2\nd=2\n", encoding="ascii")
    monkeypatch.setenv("CA_VERIFY_CAPS", "pair_vertices=6")
    runs = [run(capsys, "audit", "--family", str(fam), "--jobs", j) for j in "123"]
    code, out, err = runs[0]
    assert code == 2 and out.count("\n") == 15
    assert err == "cap exceeded: pair search exceeded 6 vertices\n"
    assert runs == [runs[0]] * 3

    monkeypatch.delenv("CA_VERIFY_CAPS")
    fam.write_text("kind=all_tables\nmoduli=13\nd=3\n", encoding="ascii")
    runs = [run(capsys, "audit", "--family", str(fam), "--jobs", j) for j in "12"]
    assert runs[0][0] == 2 and runs == [runs[0]] * 2


def test_audit_prime_sufficiency_violation_exits_4(tmp_path, capsys, monkeypatch):
    """The hard-alarm path: a sufficiency break on a prime modulus must
    flip the exit code. No real rule is known to do this, so the
    predicate is stubbed to fire.
    """
    import ca_verify.cli as cli_module

    fam = tmp_path / "family.txt"
    fam.write_text("kind=shift_like\nmoduli=3\nq_max=2\n", encoding="ascii")
    monkeypatch.setattr(
        cli_module, "sufficiency_violation_on_prime", lambda row: True
    )
    code, out, _ = run(capsys, "audit", "--family", str(fam))
    assert code == 4
    assert len(out.splitlines()) == 4  # rows still streamed


# --- conjecture -----------------------------------------------------------------


def test_conjecture_single_line_document(capsys):
    code, out, _ = run(capsys, "conjecture", "--p", "3", "--d", "1", "--q-max", "2")
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    doc = json.loads(out)
    jsonschema.validate(doc, schema.DOCUMENT)
    jsonschema.validate(doc["report"], schema.SCAN_REPORT)
    assert doc["report"]["total_rules"] == 48
    assert doc["report"]["sufficiency_violations"]["count"] == 0


def test_conjecture_jobs_never_loads_multiprocessing():
    """--jobs N forks its own workers: the run never imports
    multiprocessing, whose import alone costs more than a small scan.
    """
    script = (
        "import contextlib, io, sys\n"
        "from ca_verify.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['conjecture', '--p', '3', '--d', '1', '--q-max', '2',"
        " '--jobs', '2'])\n"
        "print(code, 'multiprocessing' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout == "0 False\n", proc.stderr


def test_conjecture_composite_modulus_exits_1(capsys):
    code, _, err = run(capsys, "conjecture", "--p", "4", "--d", "1")
    assert code == 1
    assert "odd prime" in err


def test_jobs_below_one_exits_1(tmp_path, capsys):
    fam = tmp_path / "family.txt"
    fam.write_text("kind=all_tables\nmoduli=2\nd=0\n", encoding="ascii")
    commands = (
        ("audit", "--family", str(fam)),
        ("conjecture", "--p", "3", "--d", "1", "--q-max", "2"),
    )
    for command in commands:
        for jobs in ("0", "-1"):
            assert run(capsys, *command, "--jobs", jobs) == (
                1, "", "error: --jobs must be at least 1\n"
            )


def test_conjecture_violation_exits_4(capsys, monkeypatch):
    import ca_verify.cli as cli_module

    def fake_scan(*args, **kwargs):
        return {
            "modulus": 3,
            "diameter": 1,
            "exponent_min": 1,
            "exponent_max": 2,
            "pi": "all",
            "seed": 0,
            "total_rules": 1,
            "surjective_rules": 0,
            "sufficiency_violations": {"count": 1, "ids": ["m3-x"]},
            "necessity_counterexamples": {"count": 0, "ids": []},
            "runtime": None,
        }

    monkeypatch.setattr(cli_module, "conjecture_scan", fake_scan)
    code, doc, _ = run_json(capsys, "conjecture", "--p", "3", "--d", "1")
    assert code == 4
    assert doc["exit_status"] == 4


# --- witness --------------------------------------------------------------------


def test_witness_document(capsys):
    code, doc, _ = run_json(capsys, "witness", "m=7; d=2; f=x1^4+3*x2")
    assert code == 0
    jsonschema.validate(doc, schema.DOCUMENT)
    jsonschema.validate(doc["report"], schema.WITNESS_REPORT)
    assert doc["report"]["injective"] is False
    assert doc["report"]["validated"] is True
    assert doc["report"]["witness"]["kind"] == "periodic_pair"
    assert doc["witnesses"] == [doc["report"]["witness"]]


def test_witness_injective_rule_has_null_witness(capsys):
    code, doc, _ = run_json(capsys, "witness", "m=5; d=1; f=x1^3")
    assert code == 0
    assert doc["report"]["injective"] is True
    assert doc["report"]["witness"] is None
    assert doc["report"]["validated"] is None


# --- trace ----------------------------------------------------------------------


def test_trace_pgm_structure(capsys):
    code, out, _ = run(
        capsys, "trace", "m=5; d=2; f=x1^3+2*x2+x3^2",
        "--steps", "3", "--initial", "3,0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "P2"
    assert lines[1].startswith("# rule:")
    assert lines[2].startswith("# anchor:")
    assert lines[3] == "# seed: none"
    assert lines[4] == "2 4"
    assert lines[5] == "255"
    assert lines[6:] == ["191 0", "63 63", "255 255", "191 191"]


def test_trace_random_row_is_seeded(capsys):
    args = ("trace", "m=3; d=1; f=x1+x2", "--steps", "2", "--width", "8", "--seed", "7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.splitlines()[3] == "# seed: 7"
    _, other, _ = run(capsys, "trace", "m=3; d=1; f=x1+x2",
                      "--steps", "2", "--width", "8", "--seed", "8")
    assert other != first


def test_trace_argument_validation(capsys):
    base = ("trace", "m=3; d=1; f=x1+x2")
    assert run(capsys, *base, "--steps", "0", "--width", "4")[0] == 1
    assert run(capsys, *base, "--steps", "2")[0] == 1
    assert run(capsys, *base, "--steps", "2", "--initial", "1,2", "--width", "4")[0] == 1
    assert run(capsys, *base, "--steps", "2", "--initial", "1,9")[0] == 1
    assert run(capsys, *base, "--steps", "2", "--initial", "a,b")[0] == 1
    for width in ("0", "-1"):
        assert run(capsys, *base, "--steps", "1", "--width", width) == (
            1, "", "error: --width must be at least 1\n"
        )
    code, out, err = run(capsys, *base, "--steps", "1", "--width", "4", "--format", "json")
    assert (code, out) == (1, "") and "--format" in err
    # an empty --initial is given, not absent
    assert run(capsys, *base, "--steps", "1", "--initial", "") == (
        1, "", "error: bad --initial ''\n"
    )
    assert run(capsys, *base, "--steps", "1", "--initial", "", "--width", "3") == (
        1, "", "error: give either --initial or --width, not both\n"
    )


def test_trace_output_file(tmp_path, capsys):
    target = tmp_path / "orbit.pgm"
    code, out, _ = run(
        capsys, "trace", "m=3; d=1; f=x1+x2",
        "--steps", "1", "--initial", "0,1,2", "--output", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text(encoding="ascii").startswith("P2\n")


# --- interpolate -----------------------------------------------------------------


def test_interpolate_prime_document(capsys):
    code, doc, _ = run_json(capsys, "interpolate", "--m", "3", "1,0,0")
    assert code == 0
    jsonschema.validate(doc, schema.DOCUMENT)
    jsonschema.validate(doc["report"], schema.INTERPOLATE_REPORT)
    assert doc["report"] == {
        "m": 3,
        "values": [1, 0, 0],
        "representable": True,
        "polynomial": "2*x^2 + 1",
        "coefficients": [1, 0, 2],
    }


def test_interpolate_composite_gap(capsys):
    code, doc, _ = run_json(capsys, "interpolate", "--m", "4", "1,0,0,0")
    assert code == 0
    assert doc["report"]["representable"] is False
    assert doc["report"]["polynomial"] is None
    assert doc["report"]["coefficients"] is None


def test_interpolate_table_file(tmp_path, capsys):
    values = tmp_path / "values.txt"
    values.write_text("0 1 0 1\n", encoding="ascii")
    code, doc, _ = run_json(capsys, "interpolate", "--m", "4", "--table-file", str(values))
    assert code == 0
    assert doc["report"]["coefficients"] == [0, 0, 1]


def test_interpolate_validation_errors(tmp_path, capsys):
    assert run(capsys, "interpolate", "--m", "3", "1,0")[0] == 1
    assert run(capsys, "interpolate", "--m", "3", "1,0,5")[0] == 1
    assert run(capsys, "interpolate", "--m", "3")[0] == 1
    # an empty value list is given, not absent
    assert run(capsys, "interpolate", "", "--m", "3") == (1, "", "error: bad values ''\n")
    values = tmp_path / "values.txt"
    values.write_text("0 1 0\n", encoding="ascii")
    assert run(capsys, "interpolate", "", "--m", "3", "--table-file", str(values)) == (
        1,
        "",
        "error: give either inline values or --table-file, not both\n",
    )
    # a bad modulus is refused as such, not as a table of the wrong length
    for m in ("0", "-3"):
        assert run(capsys, "interpolate", "1,2", "--m", m) == (
            1,
            "",
            f"error: modulus must be >= 2, got {m}\n",
        )


def test_interpolate_z14_within_default_cap(capsys, monkeypatch):
    """The search over Z_14 enumerates 14^5 tuples, within the default
    cap, although its full tuple space 14^7 is not.
    """
    monkeypatch.delenv("CA_VERIFY_CAPS", raising=False)
    squares = [x * x % 14 for x in range(14)]
    code, doc, _ = run_json(
        capsys, "interpolate", "--m", "14", ",".join(map(str, squares))
    )
    assert code == 0
    coeffs = doc["report"]["coefficients"]
    assert len(coeffs) <= 7  # kempner(14)
    assert [
        sum(c * x**e for e, c in enumerate(coeffs)) % 14 for x in range(14)
    ] == squares


def test_interpolate_caps_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("CA_VERIFY_CAPS", "poly_search=10")
    code, _, err = run(capsys, "interpolate", "--m", "4", "0,1,0,1")
    assert code == 2


# --- top-level parser -------------------------------------------------------------


def test_unknown_subcommand_exits_1(capsys):
    assert run(capsys, "nonsense")[0] == 1


def test_no_subcommand_exits_1(capsys):
    assert run(capsys)[0] == 1


def test_parser_is_built_once_and_keeps_no_state(capsys):
    """Later calls in one process reuse the parser of the first: a
    failed expectation or an unknown flag must not leak into the next.
    """
    build_parser.cache_clear()
    first = run(capsys, "analyze", RULE_A)
    assert first[0] == 0
    assert run(capsys, "analyze", RULE_A, "--expect", "injective")[0] == 3
    assert run(capsys, "analyze", RULE_A, "--no-such-flag")[0] == 1
    assert run(capsys, "analyze", RULE_A) == first
    assert build_parser.cache_info().misses == 1
