"""Record the output references the benchmark checks against.

    python3 perfbench/record_reference.py [request_mix] [audit_exhaustive] [scan_sampled]

Runs every pool entry, the whole audit family and every scan seed once
through ca_verify.cli.main with the default caps, and stores the output
signatures under perfbench/reference/. Run it only on a commit whose
outputs are trusted: a later change is checked against what this
recorded.
"""

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
os.environ.pop("CA_VERIFY_CAPS", None)

from ca_verify.cli import main  # noqa: E402
from ca_verify.rule import parse_rule, rule_from_code  # noqa: E402

from perfbench import checks, workloads  # noqa: E402


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    return status, out.getvalue()


def record_request_mix() -> dict:
    ref: dict[str, dict] = {"analyze": {}, "witness": {}, "interpolate": {}}
    for index, source in enumerate(workloads.rule_pool()):
        rule, _ = parse_rule(source)
        for kind in ("analyze", "witness"):
            status, stdout = run([kind, source])
            entry = {"status": status, "signature": None}
            if status == 0:
                report = json.loads(stdout)["report"]
                if kind == "analyze":
                    entry["signature"] = checks.analyze_signature(report)
                    witnesses = checks.analyze_witnesses(report)
                else:
                    entry["signature"] = checks.witness_signature(report)
                    witnesses = [report["witness"]]
                if not all(checks.witness_ok(rule, w) for w in witnesses):
                    raise SystemExit(f"{kind} {source}: witness does not validate")
            else:
                print(f"r{index} {kind} {source}: exit {status}", file=sys.stderr)
            ref[kind][f"r{index}"] = entry
    for index, (m, values) in enumerate(workloads.table_pool()):
        status, stdout = run(["interpolate", ",".join(map(str, values)), "--m", str(m)])
        report = json.loads(stdout)["report"]
        if status != 0 or not checks.interpolation_holds(report):
            raise SystemExit(f"interpolate t{index}: exit {status}")
        ref["interpolate"][f"t{index}"] = {
            "status": status, "signature": checks.interpolate_signature(report),
        }
    return ref


def record_audit() -> dict:
    path = os.path.join(ROOT, ".perfbench_work", "audit-family.txt")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(workloads.AUDIT_FAMILY)
    status, stdout = run(workloads.audit_argv(path))
    rows = [json.loads(line) for line in stdout.splitlines()]
    if status != 0 or len(rows) != workloads.AUDIT_ROWS:
        raise SystemExit(f"audit exited {status} after {len(rows)} rows")
    for code, row in enumerate(rows):
        rule = rule_from_code(3, 1, code)
        if not all(checks.witness_ok(rule, d["witness"]) for d in row["discrepancies"]):
            raise SystemExit(f"audit row {code}: witness does not validate")
    return {"rows": [checks.audit_signature(row) for row in rows]}


def record_scan() -> dict:
    ref = {}
    for seed in workloads.SCAN_SEEDS:
        status, stdout = run(workloads.scan_argv(seed, workloads.SCAN_JOBS))
        report = json.loads(stdout)["report"]
        if status != 0 or report["sufficiency_violations"]["count"]:
            raise SystemExit(f"conjecture --seed {seed}: exit {status}")
        ref[str(seed)] = checks.scan_signature(report)
    return ref


RECORDERS = {
    "request_mix": record_request_mix,
    "audit_exhaustive": record_audit,
    "scan_sampled": record_scan,
}


if __name__ == "__main__":
    for name in sys.argv[1:] or list(RECORDERS):
        checks.save_reference(f"{name}.json.gz", RECORDERS[name]())
        print(f"recorded {name}", file=sys.stderr)
