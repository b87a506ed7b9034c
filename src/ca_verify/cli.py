"""Command-line surface: analyze, examples, audit, conjecture, witness,
trace, interpolate.

Exit codes are part of the contract: 0 success, 1 parse or usage error,
2 resource cap exceeded, 3 --expect mismatch, 4 sufficiency violation on
a prime modulus. JSON output is canonical (sorted keys) so identical
invocations are byte-identical; streaming commands emit one compact JSON
object per line.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections.abc import Sequence

from .caps import CapExceeded, Caps, DEFAULT_CAPS, caps_from_env
from .criteria import (
    analyze,
    audit,
    conjecture_scan,
    parse_family,
    rule_to_dict,
    sufficiency_violation_on_prime,
    witness_to_dict,
)
from .decide import decide_injective, decide_surjective
from .poly import (
    Poly,
    interpolate_prime,
    is_permutation_poly,
    poly_text,
    representability_search,
)
from .rule import (
    CyclicWord,
    RuleParseError,
    is_permutive_at,
    parse_rule,
    parse_table_text,
)
from .schema import SCHEMA_VERSION
from .zmod import is_prime

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPS = 2
EXIT_EXPECT = 3
EXIT_SUFFICIENCY = 4


class _UsageError(Exception):
    """Raised instead of argparse's SystemExit so usage problems map to
    exit code 1 (code 2 is reserved for cap overruns).
    """


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


# --- output helpers -----------------------------------------------------------


def _document(
    name: str,
    argv: Sequence[str],
    report: dict,
    witnesses: list,
    exit_status: int,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": {"name": name, "argv": list(argv)},
        "report": report,
        "witnesses": witnesses,
        "exit_status": exit_status,
    }


def _write_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _write_line(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _write_text(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


# --- rule loading ---------------------------------------------------------------


def _load_rule(ns, caps: Caps):
    """Rule from the positional expression or --table-file; returns
    (table, expression-or-None, identifier).
    """
    if getattr(ns, "rule", None) and getattr(ns, "table_file", None):
        raise _UsageError("give either a rule expression or --table-file, not both")
    if getattr(ns, "rule", None):
        rule, expr = parse_rule(ns.rule, caps)
        return rule, expr, expr.source
    if getattr(ns, "table_file", None):
        with open(ns.table_file, encoding="ascii") as fh:
            rule = parse_table_text(fh.read(), caps)
        return rule, None, ns.table_file
    raise _UsageError("a rule expression or --table-file is required")


# --- analyze ---------------------------------------------------------------------

_EXPECTATIONS = {
    "surjective": ("surjective", True),
    "non-surjective": ("surjective", False),
    "injective": ("injective", True),
    "non-injective": ("injective", False),
}


def _check_expectations(report: dict, expect: str) -> list[str]:
    mismatches = []
    for token in expect.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in _EXPECTATIONS:
            raise _UsageError(
                f"unknown expectation {token!r}; choose from "
                + ", ".join(sorted(_EXPECTATIONS))
            )
        key, wanted = _EXPECTATIONS[token]
        if report[key]["verdict"] != wanted:
            mismatches.append(token)
    return mismatches


def _analysis_text(report: dict) -> list[str]:
    rule = report["rule"]
    cls = report["classification"]
    lines = [
        f"rule: m={rule['m']} d={rule['d']}"
        + (f" {rule['expression']}" if rule["expression"] else ""),
        "classification: essential="
        + ",".join(str(j) for j in cls["essential_positions"])
        + f" lr_separated={cls['lr_separated']}"
        + f" totally_separated={cls['totally_separated']}"
        + f" shift_like={cls['shift_like']}",
        "permutive: "
        + " ".join(f"{p['position']}={p['verdict']}" for p in report["permutive"]),
        f"surjective: {report['surjective']['verdict']}",
        f"injective: {report['injective']['verdict']}",
        "criteria:",
    ]
    for c in report["criteria"]:
        where = f"@{c['position']}" if c["position"] is not None else ""
        detail = ""
        if c["value"] != "not_applicable":
            detail = f" (raw={c['raw_value']} canonical={c['canonical_value']})"
        elif c["note"]:
            detail = f" ({c['note']})"
        lines.append(f"  {c['criterion']}{where}: {c['value']}{detail}")
    if report["discrepancies"]:
        lines.append("discrepancies:")
        for rec in report["discrepancies"]:
            where = f"@{rec['position']}" if rec["position"] is not None else ""
            lines.append(
                f"  {rec['criterion']}{where}: expected {rec['property']}="
                f"{rec['expected']}, oracle says {rec['observed']}"
            )
    else:
        lines.append("discrepancies: none")
    return lines


def cmd_analyze(ns, caps: Caps, argv: Sequence[str]) -> int:
    rule, expr, rule_id = _load_rule(ns, caps)
    report = analyze(
        rule,
        expression=expr,
        rule_id=rule_id,
        caps=caps,
        with_timings=ns.timings,
    )
    status = EXIT_OK
    mismatches: list[str] = []
    if ns.expect:
        mismatches = _check_expectations(report, ns.expect)
        if mismatches:
            status = EXIT_EXPECT
    if ns.format == "json":
        witnesses = [
            w
            for w in (
                report["surjective"]["witness"],
                report["injective"]["witness"],
            )
            if w is not None
        ]
        _write_json(_document("analyze", argv, report, witnesses, status), ns.output)
    else:
        lines = _analysis_text(report)
        if mismatches:
            lines.append("expectation mismatches: " + ", ".join(mismatches))
        _write_text(lines, ns.output)
    if mismatches:
        print(
            "expectation failed: " + ", ".join(mismatches),
            file=sys.stderr,
        )
    return status


# --- examples ---------------------------------------------------------------------


def _cells_text(cells: Sequence[int]) -> str:
    return "(" + ",".join(str(c) for c in cells) + ")"


def _examples_checks(caps: Caps) -> list[dict]:
    checks: list[dict] = []

    def add(rule: str, claim: str, expected: str, computed: str, ok: bool) -> None:
        checks.append(
            {
                "rule": rule,
                "claim": claim,
                "expected": expected,
                "computed": computed,
                "status": "CONFIRMED" if ok else "DISCREPANCY",
            }
        )

    # quadratic-ends rule over Z_4: surjective but not permutive at the ends
    src_a = "m=4; d=2; f=x1^2+x2+x3^2"
    rule_a, _ = parse_rule(src_a, caps)
    p1 = is_permutive_at(rule_a, 1)
    p3 = is_permutive_at(rule_a, 3)
    add(
        src_a,
        "not permutive at the outermost positions",
        "permutive(1)=False permutive(3)=False",
        f"permutive(1)={p1} permutive(3)={p3}",
        not p1 and not p3,
    )
    surj_a = decide_surjective(rule_a, caps)
    add(src_a, "surjective", "True", str(surj_a.surjective), surj_a.surjective)

    # quartic-plus-linear rule over Z_7
    src_b = "m=7; d=2; f=x1^4+3*x2"
    rule_b, _ = parse_rule(src_b, caps)
    img_56 = rule_b.apply_periodic(CyclicWord.make(7, (5, 6)))
    img_43 = rule_b.apply_periodic(CyclicWord.make(7, (4, 3)))
    add(
        src_b,
        "images of (5,6)^inf and (4,3)^inf coincide",
        "equal configurations",
        f"F(5,6)={_cells_text(img_56.cells)} F(4,3)={_cells_text(img_43.cells)}",
        img_56.config_equal(img_43),
    )
    add(
        src_b,
        "common image is (6,2)^inf",
        "(6,2) up to rotation",
        _cells_text(img_56.cells),
        img_56.rotation_equal(CyclicWord.make(7, (6, 2))),
    )
    inj_b = decide_injective(rule_b, caps)
    witness_ok = inj_b.witness is not None and inj_b.witness.validate(rule_b)
    add(
        src_b,
        "not injective",
        "injective=False with a validated witness",
        f"injective={inj_b.injective} witness_validates={witness_ok}",
        not inj_b.injective and witness_ok,
    )
    pp_b = is_permutation_poly(Poly.make(7, (0, 3, 0, 0, 1)))
    add(
        src_b,
        "x^4 + 3*x permutes Z_7",
        "True",
        str(pp_b),
        pp_b,
    )

    # cubic-quadratic rule over Z_5
    src_c = "m=5; d=2; f=x1^3+2*x2+x3^2"
    rule_c, _ = parse_rule(src_c, caps)
    img_10 = rule_c.apply_periodic(CyclicWord.make(5, (1, 0)))
    img_3 = rule_c.apply_periodic(CyclicWord.make(5, (3,)))
    two = CyclicWord.make(5, (2,))
    add(
        src_c,
        "images of (1,0)^inf and (3)^inf are both 2^inf",
        "F(1,0)=F(3)=(2)",
        f"F(1,0)={_cells_text(img_10.cells)} F(3)={_cells_text(img_3.cells)}",
        img_10.config_equal(two) and img_3.config_equal(two),
    )
    img_30 = rule_c.apply_periodic(CyclicWord.make(5, (3, 0)))
    img_41 = rule_c.apply_periodic(CyclicWord.make(5, (4, 1)))
    add(
        src_c,
        "images of (3,0)^inf and (4,1)^inf coincide",
        "equal configurations",
        f"F(3,0)={_cells_text(img_30.cells)} F(4,1)={_cells_text(img_41.cells)}",
        img_30.config_equal(img_41),
    )
    claimed = CyclicWord.make(5, (3, 4))
    add(
        src_c,
        "those images equal (3,4)^inf",
        "(3,4) up to rotation",
        f"F(3,0)={_cells_text(img_30.cells)} F(4,1)={_cells_text(img_41.cells)}",
        img_30.rotation_equal(claimed) and img_41.rotation_equal(claimed),
    )
    inj_c = decide_injective(rule_c, caps)
    add(
        src_c,
        "not injective",
        "injective=False",
        f"injective={inj_c.injective}",
        not inj_c.injective,
    )
    pp_c = is_permutation_poly(Poly.make(5, (0, 2, 1, 1)))
    add(src_c, "x^3 + x^2 + 2*x permutes Z_5", "True", str(pp_c), pp_c)
    pp_c1 = is_permutation_poly(Poly.make(5, (0, 2, 0, 1)))
    add(src_c, "x^3 + 2*x does not permute Z_5", "False", str(pp_c1), not pp_c1)
    pp_c2 = is_permutation_poly(Poly.make(5, (0, 0, 1)))
    add(src_c, "x^2 does not permute Z_5", "False", str(pp_c2), not pp_c2)
    return checks


def cmd_examples(ns, caps: Caps, argv: Sequence[str]) -> int:
    checks = _examples_checks(caps)
    count = sum(1 for c in checks if c["status"] == "DISCREPANCY")
    report = {"checks": checks, "discrepancy_count": count}
    if ns.format == "json":
        _write_json(_document("examples", argv, report, [], EXIT_OK), None)
    else:
        lines = []
        for c in checks:
            lines.append(f"[{c['status']}] {c['rule']} :: {c['claim']}")
            lines.append(f"    expected: {c['expected']}")
            lines.append(f"    computed: {c['computed']}")
        lines.append(f"discrepancies: {count}")
        _write_text(lines, None)
    return EXIT_OK


# --- audit and conjecture -----------------------------------------------------------


def cmd_audit(ns, caps: Caps, argv: Sequence[str]) -> int:
    try:
        with open(ns.family, encoding="ascii") as fh:
            spec = parse_family(fh.read())
    except OSError as exc:
        return _fail(f"cannot read family file: {exc}")
    except ValueError as exc:
        return _fail(str(exc))
    violation = False
    for row in audit(spec, caps, jobs=ns.jobs):
        if ns.format == "json":
            _write_line(row)
        else:
            flags = sorted({rec["criterion"] for rec in row["discrepancies"]})
            summary = f" discrepancies={','.join(flags)}" if flags else ""
            sys.stdout.write(
                f"{row['id']} surjective={row['surjective']}"
                f" injective={row['injective']}{summary}\n"
            )
        if sufficiency_violation_on_prime(row):
            violation = True
    return EXIT_SUFFICIENCY if violation else EXIT_OK


def cmd_conjecture(ns, caps: Caps, argv: Sequence[str]) -> int:
    try:
        report = conjecture_scan(
            ns.p,
            ns.d,
            q_min=ns.q_min,
            q_max=ns.q_max,
            pi=ns.pi,
            seed=ns.seed,
            caps=caps,
            jobs=ns.jobs,
            with_timings=ns.timings,
        )
    except ValueError as exc:
        return _fail(str(exc))
    violations = report["sufficiency_violations"]["count"]
    status = EXIT_SUFFICIENCY if violations and is_prime(ns.p) else EXIT_OK
    if ns.format == "json":
        _write_line(_document("conjecture", argv, report, [], status))
    else:
        lines = [
            f"modulus {report['modulus']}, diameter {report['diameter']},"
            f" exponents [{report['exponent_min']}, {report['exponent_max']}],"
            f" pi={report['pi']}",
            f"total rules: {report['total_rules']}",
            f"surjective rules: {report['surjective_rules']}",
            f"sufficiency violations: {violations}",
            "necessity counterexamples: "
            + str(report["necessity_counterexamples"]["count"]),
        ]
        _write_text(lines, None)
    return status


# --- witness --------------------------------------------------------------------


def cmd_witness(ns, caps: Caps, argv: Sequence[str]) -> int:
    rule, expr, rule_id = _load_rule(ns, caps)
    result = decide_injective(rule, caps)
    witness = witness_to_dict(result.witness)
    validated = result.witness.validate(rule) if result.witness else None
    report = {
        "rule": rule_to_dict(rule, expr),
        "injective": result.injective,
        "witness": witness,
        "validated": validated,
    }
    if ns.format == "json":
        witnesses = [witness] if witness else []
        _write_json(_document("witness", argv, report, witnesses, EXIT_OK), None)
    else:
        lines = [f"injective: {result.injective}"]
        if witness:
            lines.append(f"witness: {json.dumps(witness, sort_keys=True)}")
            lines.append(f"validated: {validated}")
        _write_text(lines, None)
    return EXIT_OK


# --- trace ----------------------------------------------------------------------


def cmd_trace(ns, caps: Caps, argv: Sequence[str]) -> int:
    rule, expr, rule_id = _load_rule(ns, caps)
    if ns.steps < 1:
        raise _UsageError("--steps must be at least 1")
    if ns.initial and ns.width:
        raise _UsageError("give either --initial or --width, not both")
    seed: int | None = None
    if ns.initial:
        try:
            cells = tuple(int(part) for part in ns.initial.split(","))
        except ValueError:
            raise _UsageError(f"bad --initial {ns.initial!r}") from None
        if not cells or any(not 0 <= c < rule.m for c in cells):
            raise _UsageError(f"--initial letters must lie in [0, {rule.m})")
    elif ns.width:
        if ns.width < 1:
            raise _UsageError("--width must be at least 1")
        seed = ns.seed
        rng = random.Random(seed)
        cells = tuple(rng.randrange(rule.m) for _ in range(ns.width))
    else:
        raise _UsageError("an initial row is required: --initial or --width")

    rows = [CyclicWord.make(rule.m, cells)]
    for _ in range(ns.steps):
        rows.append(rule.apply_periodic(rows[-1]))
    descriptor = expr.source if expr else f"table with {len(rule.table)} entries"
    lines = [
        "P2",
        f"# rule: m={rule.m} d={rule.d} {descriptor}",
        f"# anchor: cell i reads window [i-{rule.radius}, i+{rule.d - rule.radius}]",
        f"# seed: {'none' if seed is None else seed}",
        f"{len(cells)} {len(rows)}",
        "255",
    ]
    denominator = rule.m - 1
    for row in rows:
        lines.append(" ".join(str(255 * c // denominator) for c in row.cells))
    _write_text(lines, ns.output)
    return EXIT_OK


# --- interpolate -----------------------------------------------------------------


def cmd_interpolate(ns, caps: Caps, argv: Sequence[str]) -> int:
    if ns.values and ns.table_file:
        raise _UsageError("give either inline values or --table-file, not both")
    if ns.values:
        try:
            values = tuple(int(part) for part in ns.values.split(","))
        except ValueError:
            raise _UsageError(f"bad values {ns.values!r}") from None
    elif ns.table_file:
        with open(ns.table_file, encoding="ascii") as fh:
            try:
                values = tuple(int(tok) for tok in fh.read().split())
            except ValueError as exc:
                return _fail(f"bad table file: {exc}")
    else:
        raise _UsageError("a value table is required: inline values or --table-file")
    m = ns.m
    if len(values) != m:
        raise _UsageError(f"expected {m} values for Z_{m}, got {len(values)}")
    if any(not 0 <= v < m for v in values):
        raise _UsageError(f"values must lie in [0, {m})")
    if is_prime(m):
        poly = interpolate_prime(values, m)
    else:
        poly = representability_search(values, m, caps)
    report = {
        "m": m,
        "values": list(values),
        "representable": poly is not None,
        "polynomial": poly_text(poly) if poly is not None else None,
        "coefficients": list(poly.coeffs) if poly is not None else None,
    }
    if ns.format == "json":
        _write_json(_document("interpolate", argv, report, [], EXIT_OK), None)
    else:
        if poly is None:
            _write_text(["not representable"], None)
        else:
            _write_text([poly_text(poly)], None)
    return EXIT_OK


# --- parser and entry point --------------------------------------------------------


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="ca-verify",
        description="Exact deciders and algebraic criteria for one-dimensional "
        "cellular automata over Z_m.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_rule_args(p) -> None:
        p.add_argument("rule", nargs="?", help="rule source, e.g. 'm=3; d=1; f=x1+x2'")
        p.add_argument("--table-file", help="rule table file ('m d' header plus entries)")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("analyze", help="full report on one rule")
    common_rule_args(p)
    p.add_argument("--expect", help="comma list: surjective, non-surjective, injective, non-injective")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p.add_argument("--output", help="write the report to a file instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("examples", help="recompute the published worked examples")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("audit", help="stream criterion-vs-oracle audit rows for a family")
    p.add_argument("--family", required=True, help="family spec file (key=value lines)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("conjecture", help="sweep outer-separated rules over a prime field")
    p.add_argument("--p", type=int, required=True, help="odd prime modulus")
    p.add_argument("--d", type=int, required=True, help="diameter (outer positions 1 and d+1)")
    p.add_argument("--q-min", type=int, default=1)
    p.add_argument("--q-max", type=int, default=4)
    p.add_argument("--pi", default="all", help="interior tables: all or sample:N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("witness", help="extract a non-injectivity witness")
    common_rule_args(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("trace", help="render a periodic orbit as an ASCII PGM image")
    common_rule_args(p)
    p.add_argument("--steps", type=int, required=True, help="time steps (at least 1)")
    p.add_argument("--initial", help="initial row, e.g. '5,6'")
    p.add_argument("--width", type=int, help="random initial row of this width")
    p.add_argument("--seed", type=int, default=0, help="seed for the random row")
    p.add_argument("--output", help="write the PGM to a file instead of stdout")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("interpolate", help="represent a value table as a polynomial")
    p.add_argument("values", nargs="?", help="comma list of m values, e.g. '1,0,0'")
    p.add_argument("--m", type=int, required=True, help="modulus")
    p.add_argument("--table-file", help="file with m whitespace-separated values")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_interpolate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(args)
    except _UsageError as exc:
        return _fail(str(exc))
    try:
        caps = caps_from_env(DEFAULT_CAPS)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        return ns.func(ns, caps, args)
    except _UsageError as exc:
        return _fail(str(exc))
    except RuleParseError as exc:
        return _fail(f"rule parse error at position {exc.position}: {exc}")
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except OSError as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
