"""One measuring process of the benchmark.

    python3 perfbench/session.py '<json config>'

run.py starts one of these per unit of work, so every audit sweep and
every conjecture call begins from a fresh interpreter with cold caches,
the way a user's separate command-line invocations would. The session
times its work with tracing on or off, then checks every output against
the recorded references outside the timed region, and prints one JSON
summary as the last line of its standard output.

Modes: "setup" (import and input generation only), "request_mix",
"audit" (one sweep), "scan" (one conjecture call).
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from ca_verify import cli  # noqa: E402
from ca_verify import rule as rule_module  # noqa: E402

from perfbench import checks, tracer, workloads  # noqa: E402

MAX_REASONS = 5


class RowClock(io.TextIOBase):
    """Captured stdout that notes when each write (one audit row) lands."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.times = array("d")

    def write(self, text: str) -> int:
        self.times.append(time.perf_counter())
        self.parts.append(text)
        return len(text)


def call_main(argv, out, trace: "tracer.Tracer | None", request: int) -> int:
    """cli.main(argv) with stdout into `out`, as one span when tracing."""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if trace is None:
            return cli.main(argv)
        trace.request = request
        sid = trace.open("cli.main")
        try:
            return cli.main(argv)
        finally:
            trace.close(sid)


def peak_rss_kib() -> int:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own + children


def run_request_mix(cfg: dict, trace) -> dict:
    stream = workloads.request_stream(cfg["seed"])
    records = []
    start = time.perf_counter()
    for i, (kind, key, argv) in enumerate(stream):
        if cfg.get("requests") is not None:
            if i >= cfg["requests"]:
                break
        elif time.perf_counter() - start >= cfg["seconds"]:
            break
        out = io.StringIO()
        t0 = time.perf_counter()
        status = call_main(argv, out, trace, i)
        latency = time.perf_counter() - t0
        records.append((kind, key, argv, status, out.getvalue(), latency))
    wall = time.perf_counter() - start
    rss = peak_rss_kib()

    reference = checks.load_reference("request_mix.json.gz")
    seen: set[str] = set()
    result = {
        "unit": None, "ops": len(records), "wall_s": wall, "rss_kib": rss,
        "latencies": [r[5] for r in records], "failed": 0, "mismatches": 0,
        "reasons": [], "repeats": 0, "output_bytes": 0,
    }
    for kind, key, argv, status, stdout, latency in records:
        result["output_bytes"] += len(stdout)
        result["repeats"] += key in seen
        seen.add(key)
        ref = reference[kind][key]
        source = argv[1] if kind != "interpolate" else None
        reason = checks.check_request(kind, status, stdout, ref, source)
        if status != 0 or reason is not None:
            result["failed"] += 1
        if reason is not None:
            result["mismatches"] += 1
            if len(result["reasons"]) < MAX_REASONS:
                result["reasons"].append(f"{kind} {key}: {reason}")
    return result


def run_audit(trace, family_path: str) -> dict:
    out = RowClock()
    start = time.perf_counter()
    status = call_main(workloads.audit_argv(family_path), out, trace, 0)
    wall = time.perf_counter() - start
    rss = peak_rss_kib()
    times = [start, *out.times]
    latencies = [b - a for a, b in zip(times, times[1:])]

    reference = checks.load_reference("audit_exhaustive.json.gz")["rows"]
    result = {
        "unit": "audit", "ops": workloads.AUDIT_ROWS, "wall_s": wall, "rss_kib": rss,
        "latencies": latencies,
        "failed": 0, "mismatches": 0, "reasons": [], "repeats": 0,
        "output_bytes": sum(map(len, out.parts)),
    }
    text = "".join(out.parts)
    del out
    rows = [json.loads(line) for line in text.splitlines()]
    if status != 0 or len(rows) != workloads.AUDIT_ROWS:
        result["reasons"].append(f"audit exited {status} after {len(rows)} rows")
    for code, row in enumerate(rows):
        reason = None
        if row["id"] != f"m3-d1-t{code}":
            reason = f"row {code} has id {row['id']}"
        elif checks.audit_signature(row) != reference[code]:
            reason = f"row {code}: verdicts differ from the reference"
        elif row["discrepancies"]:
            rule = rule_module.rule_from_code(3, 1, code)
            if not all(checks.witness_ok(rule, d["witness"]) for d in row["discrepancies"]):
                reason = f"row {code}: witness does not validate"
        if reason is not None:
            result["mismatches"] += 1
            if len(result["reasons"]) < MAX_REASONS:
                result["reasons"].append(reason)
    missing = workloads.AUDIT_ROWS - len(rows)
    result["failed"] = result["mismatches"] + max(missing, 0)
    result["mismatches"] += max(missing, 0)
    return result


def run_scan(cfg: dict, trace) -> dict:
    seed = cfg["conjecture_seed"]
    out = io.StringIO()
    start = time.perf_counter()
    status = call_main(workloads.scan_argv(seed, cfg["jobs"]), out, trace, 0)
    wall = time.perf_counter() - start
    rss = peak_rss_kib()

    reference = checks.load_reference("scan_sampled.json.gz")[str(seed)]
    rows = reference[0]
    reason = None
    if status != 0:
        reason = f"conjecture --seed {seed} exited {status}"
    else:
        report = json.loads(out.getvalue())["report"]
        if report["sufficiency_violations"]["count"] != 0:
            reason = f"conjecture --seed {seed}: sufficiency violations"
        elif checks.scan_signature(report) != reference:
            reason = f"conjecture --seed {seed}: counts differ from the reference"
    return {
        "unit": f"scan{seed}", "ops": rows, "wall_s": wall, "rss_kib": rss, "latencies": [wall],
        "failed": rows if reason else 0, "mismatches": rows if reason else 0,
        "reasons": [reason] if reason else [], "repeats": 0,
        "output_bytes": len(out.getvalue()),
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    mode = cfg["mode"]
    workload = cfg["workload"]
    family_path = os.path.join(cfg["work_dir"], "audit-family.txt")
    # input generation, the last part of set-up
    if workload == "request_mix":
        next(workloads.request_stream(cfg["seed"]))
    elif workload == "audit_exhaustive":
        with open(family_path, "w", encoding="ascii") as fh:
            fh.write(workloads.AUDIT_FAMILY)
    else:
        workloads.scan_order(cfg["seed"])
    setup_s = time.perf_counter() - STARTED
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    trace = None
    if cfg["trace"]:
        trace = tracer.Tracer()
        tracer.install(trace)
    hits_before = rule_module.classify.cache_info()
    if workload == "request_mix":
        result = run_request_mix(cfg, trace)
    elif workload == "audit_exhaustive":
        result = run_audit(trace, family_path)
    else:
        result = run_scan(cfg, trace)
    if trace is not None:
        hits_after = rule_module.classify.cache_info()
        layers = tracer.layer_metrics(trace)
        layers["rule.classify_hits"] = hits_after.hits - hits_before.hits
        layers["rule.classify_misses"] = hits_after.misses - hits_before.misses
        layers["traced_busy_s"] = sum(
            span[tracer.END] - span[tracer.START]
            for span in trace.spans
            if span[tracer.NAME] == "cli.main"
        )
        result["layers"] = layers
        if cfg.get("spans_path"):
            trace.write_spans(cfg["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
