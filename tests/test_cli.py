"""Command-line behavior: exit codes, canonical JSON documents, schema
conformance, and the PGM tracer.

Everything runs in-process through main(argv) so the tests see the same
code path as the installed entry point without subprocess overhead.
"""

import json

import jsonschema
import pytest

from ca_verify import schema
from ca_verify.cli import main

RULE_A = "m=4; d=2; f=x1^2+x2+x3^2"


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


def test_audit_missing_family_file_exits_1(capsys):
    code, _, err = run(capsys, "audit", "--family", "/nonexistent/family.txt")
    assert code == 1


def test_audit_bad_family_exits_1(tmp_path, capsys):
    fam = tmp_path / "family.txt"
    fam.write_text("kind=bogus\nmoduli=3\nq_max=2\n", encoding="ascii")
    code, _, err = run(capsys, "audit", "--family", str(fam))
    assert code == 1
    assert "unknown family kind" in err


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


def test_conjecture_composite_modulus_exits_1(capsys):
    code, _, err = run(capsys, "conjecture", "--p", "4", "--d", "1")
    assert code == 1
    assert "odd prime" in err


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


def test_interpolate_validation_errors(capsys):
    assert run(capsys, "interpolate", "--m", "3", "1,0")[0] == 1
    assert run(capsys, "interpolate", "--m", "3", "1,0,5")[0] == 1
    assert run(capsys, "interpolate", "--m", "3")[0] == 1


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
