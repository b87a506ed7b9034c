"""Output checks, run after the timed region.

Every output is reduced to a signature (verdicts, criterion values,
counts, witness kinds, a digest of the rule table) and compared with the
signature recorded for the same input by record_reference.py. Witnesses
are rebuilt from their JSON and re-validated against the rule with the
package's own validate().
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os

from ca_verify.decide import Diamond, PeriodicPair, UnbalancedWord
from ca_verify.rule import CyclicWord, RuleTable, parse_rule

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def load_reference(name: str) -> dict:
    with gzip.open(os.path.join(REFERENCE_DIR, name), "rt", encoding="ascii") as fh:
        return json.load(fh)


def save_reference(name: str, data: dict) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, name)
    # mtime=0: recording the same content again gives the same bytes
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(data, sort_keys=True, separators=(",", ":")).encode("ascii"))


def witness_from_dict(m: int, data: dict):
    """The decide witness object a JSON witness describes."""
    kind = data["kind"]
    if kind == "unbalanced_word":
        return UnbalancedWord(tuple(data["word"]), data["count"], data["expected"])
    if kind == "diamond":
        return Diamond(tuple(data["u"]), tuple(data["v"]))
    if kind == "periodic_pair":
        return PeriodicPair(CyclicWord.make(m, data["x"]), CyclicWord.make(m, data["y"]))
    raise ValueError(f"unknown witness kind {kind!r}")


def witness_ok(rule: RuleTable, data: dict | None) -> bool:
    """True when the JSON witness is absent or re-validates on `rule`."""
    if data is None:
        return True
    if data["kind"] == "permutivity_collision":
        context = list(data["context"])
        outputs = set()
        for value in data["colliding_values"]:
            window = context[: data["position"] - 1] + [value] + context[data["position"] - 1 :]
            outputs.add(rule.evaluate(window))
        return outputs == {data["output"]} and len(set(data["colliding_values"])) == 2
    try:
        witness = witness_from_dict(rule.m, data)
    except (KeyError, TypeError, ValueError):
        return False
    return witness.validate(rule)


def _kind(witness: dict | None) -> str | None:
    return None if witness is None else witness["kind"]


def _criteria(verdicts: list[dict]) -> list:
    return [
        [v["criterion"], v["position"], v["value"], v["raw_value"], v["canonical_value"]]
        for v in verdicts
    ]


def table_digest(table: list[int]) -> str:
    return hashlib.sha1(",".join(map(str, table)).encode("ascii")).hexdigest()[:16]


def analyze_signature(report: dict) -> list:
    return [
        table_digest(report["rule"]["table"]),
        report["surjective"]["verdict"],
        report["injective"]["verdict"],
        [p["verdict"] for p in report["permutive"]],
        _criteria(report["criteria"]),
        [
            [d["criterion"], d["position"], d["property"], d["expected"], d["observed"]]
            for d in report["discrepancies"]
        ],
        _kind(report["surjective"]["witness"]),
        _kind(report["injective"]["witness"]),
    ]


def analyze_witnesses(report: dict) -> list[dict | None]:
    return [
        report["surjective"]["witness"],
        report["injective"]["witness"],
        *(d["witness"] for d in report["discrepancies"]),
    ]


def witness_signature(report: dict) -> list:
    return [
        table_digest(report["rule"]["table"]),
        report["injective"],
        _kind(report["witness"]),
        report["validated"],
    ]


def interpolate_signature(report: dict) -> list:
    return [report["representable"], report["coefficients"]]


def interpolation_holds(report: dict) -> bool:
    """The returned coefficients reproduce the value table."""
    coeffs = report["coefficients"]
    if coeffs is None:
        return True
    m = report["m"]
    return all(
        sum(c * x**e for e, c in enumerate(coeffs)) % m == v
        for x, v in enumerate(report["values"])
    )


def audit_signature(row: dict) -> list:
    return [
        row["surjective"],
        row["injective"],
        [p["verdict"] for p in row["permutive"]],
        _criteria(row["criteria"]),
        len(row["discrepancies"]),
    ]


def scan_signature(report: dict) -> list:
    return [
        report["total_rules"],
        report["surjective_rules"],
        report["sufficiency_violations"]["count"],
        report["necessity_counterexamples"]["ids"],
    ]


def check_request(
    kind: str, status: int, stdout: str, reference: dict, rule_source: str | None
) -> str | None:
    """None when a request's output matches its reference, else the reason.

    `reference` is {"status": exit code, "signature": ...}. A nonzero exit
    equal to the recorded one is a failed request but not a wrong answer.
    """
    if status != reference["status"]:
        return f"exit status {status}, reference {reference['status']}"
    if status != 0:
        return None
    report = json.loads(stdout)["report"]
    if kind == "interpolate":
        if not interpolation_holds(report):
            return "coefficients do not reproduce the table"
        signature = interpolate_signature(report)
    else:
        rule, _ = parse_rule(rule_source)
        if kind == "analyze":
            witnesses = analyze_witnesses(report)
            signature = analyze_signature(report)
        else:
            witnesses = [report["witness"]]
            signature = witness_signature(report)
        if not all(witness_ok(rule, w) for w in witnesses):
            return "witness does not validate"
    if signature != reference["signature"]:
        return "verdicts differ from the reference"
    return None
