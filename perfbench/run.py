"""The ca_verify benchmark.

    python3 perfbench/run.py --workload request_mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
./src). Workloads: request_mix, audit_exhaustive, scan_sampled; see
README.md in this directory for what each measures and why. Each unit of
work runs in its own session process (session.py), which checks every
output against perfbench/reference/ after its timed region.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
repeats that run, then replays a fixed amount of the same work with the
layer boundaries wrapped (tracer.py) and reports the per-layer metrics.
Human-readable lines come first; the last line is one JSON object with
"correct", "attempted", "failed" and "metrics".
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import stats, workloads  # noqa: E402

SESSION = os.path.join(ROOT, "perfbench", "session.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("request_mix", "audit_exhaustive", "scan_sampled")
SETUP_SAMPLES = 7
TRACE_REQUESTS = 300
SESSION_TIMEOUT_S = 150.0

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "rule.parse_s": "s",
    "rule.build_s": "s",
    "rule.table_entries": "count",
    "rule.classify_s": "s",
    "rule.classify_hit_ratio": "ratio",
    "rule.permutive_s": "s",
    "decide.surjective_s": "s",
    "decide.surjective_calls": "count",
    "decide.surjective_share": "ratio",
    "decide.injective_s": "s",
    "decide.injective_calls": "count",
    "decide.pair_vertices": "count",
    "decide.cap_exceeded": "count",
    "decide.witness_letters": "count",
    "criteria.enumerate_s": "s",
    "criteria.run_criteria_s": "s",
    "criteria.discrepancies_s": "s",
    "criteria.self_s": "s",
    "criteria.discrepancy_records": "count",
    "criteria.pool_efficiency": "ratio",
    "poly.interpolate_s": "s",
    "poly.hermite_s": "s",
    "poly.representability_s": "s",
    "poly.representability_calls": "count",
    "zmod.monomial_table_calls": "count",
    "trace.overhead_ratio": "ratio",
    "workload.repeat_share": "ratio",
}
COMPUTED = ("rule.table_entries", "decide.pair_vertices")


class SessionError(RuntimeError):
    pass


def session(config: dict) -> dict:
    """Run one session process to completion and return its summary."""
    env = dict(os.environ)
    env.pop("CA_VERIFY_CAPS", None)  # the references hold for the default caps
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(
        [sys.executable, SESSION, json.dumps({"work_dir": WORK_DIR, **config})],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SessionError(f"session {config} ran past {SESSION_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise SessionError(f"session {config} exited {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Untraced: units of work until `seconds` of measured time, whole
    sweeps and scan cycles only. Traced: a fixed amount of the same work,
    at --jobs 1.
    """
    base = {"mode": "measure", "workload": workload, "seed": seed, "trace": trace}
    results: list[dict] = []

    def run(config: dict) -> None:
        if trace:
            # one file per session, replaced by the next traced run
            name = f"spans-{workload}-{len(results)}.tsv"
            config = {**config, "spans_path": os.path.join(WORK_DIR, name)}
        results.append(session(config))

    if workload == "request_mix":
        run({**base, "requests": TRACE_REQUESTS} if trace else {**base, "seconds": seconds})
        return results
    order = workloads.scan_order(seed)
    if trace:
        if workload == "audit_exhaustive":
            run(base)
        else:
            run({**base, "conjecture_seed": order[0], "jobs": 1})
        return results
    while sum(r["wall_s"] for r in results) < seconds:
        if workload == "audit_exhaustive":
            run(base)
        else:
            for conjecture_seed in order:
                run({**base, "conjecture_seed": conjecture_seed, "jobs": workloads.SCAN_JOBS})
    return results


def cycles(workload: str, results: list[dict]) -> list[list[dict]]:
    """The run's sessions grouped into units that each do the same work:
    one sweep, one scan cycle, or the single request_mix session.
    """
    size = len(workloads.SCAN_SEEDS) if workload == "scan_sampled" else 1
    return [results[i : i + size] for i in range(0, len(results), size)]


def end_to_end(workload: str, results: list[dict], setup: list[float]) -> dict:
    latencies = [t for r in results for t in r["latencies"]]
    rates = [
        sum(r["ops"] for r in cycle) / sum(r["wall_s"] for r in cycle)
        for cycle in cycles(workload, results)
    ]
    return {
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": 1000 * stats.percentile(latencies, 50),
        "latency_p95_ms": 1000 * stats.percentile(latencies, 95),
        "peak_rss_mib": max(r["rss_kib"] for r in results) / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(workload: str, untraced: list[dict], traced: list[dict]) -> dict:
    layers: dict[str, float] = {}
    for r in traced:
        for key, value in r["layers"].items():
            layers[key] = layers.get(key, 0) + value
    out = {name: float(layers.get(name, 0)) for name in LAYER_UNITS}
    out["cli.output_bytes"] = float(sum(r["output_bytes"] for r in traced))
    lookups = layers["rule.classify_hits"] + layers["rule.classify_misses"]
    out["rule.classify_hit_ratio"] = layers["rule.classify_hits"] / lookups if lookups else 0.0
    busy = layers["traced_busy_s"]
    out["decide.surjective_share"] = out["decide.surjective_s"] / busy if busy else 0.0
    traced_wall = sum(r["wall_s"] for r in traced)
    if workload == "request_mix":
        n = min(len(traced[0]["latencies"]), len(untraced[0]["latencies"]))
        out["trace.overhead_ratio"] = sum(traced[0]["latencies"][:n]) / sum(
            untraced[0]["latencies"][:n]
        )
    elif workload == "audit_exhaustive":
        out["trace.overhead_ratio"] = traced_wall / statistics.median(
            r["wall_s"] for r in untraced
        )
    else:
        call = traced[0]["unit"]
        pooled_wall = statistics.median(r["wall_s"] for r in untraced if r["unit"] == call)
        out["criteria.pool_efficiency"] = traced_wall / (workloads.SCAN_JOBS * pooled_wall)
    out["workload.repeat_share"] = repeat_shares(untraced)[0]
    return out


def repeat_shares(results: list[dict]) -> tuple[float, float]:
    """Share of operations whose rule appeared earlier in the same session
    process (what an in-process cache can reuse), and earlier anywhere in
    the run (sessions that repeat a whole unit of work, such as a second
    audit sweep, repeat every rule in it).
    """
    ops = sum(r["ops"] for r in results)
    within = sum(r["repeats"] for r in results)
    seen: set[str] = set()
    across = within
    for r in results:
        if r["unit"] is not None:
            across += r["ops"] if r["unit"] in seen else 0
            seen.add(r["unit"])
    return within / ops, across / ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ca_verify", "__init__.py")):
        print(f"error: no ca_verify sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)

    started = time.perf_counter()
    setup_base = {"mode": "setup", "workload": args.workload, "seed": args.seed}
    setup = [session(setup_base)["setup_s"] for _ in range(SETUP_SAMPLES)]
    untraced = measure(args.workload, args.seed, args.seconds, trace=False)
    runs = list(untraced)
    report = [(end_to_end(args.workload, untraced, setup), E2E_UNITS)]
    if args.trace:
        traced = measure(args.workload, args.seed, args.seconds, trace=True)
        runs += traced
        report.append((per_layer(args.workload, untraced, traced), LAYER_UNITS))
    metrics, units = report[-1]

    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    mismatches = sum(r["mismatches"] for r in runs)
    latencies = [t for r in untraced for t in r["latencies"]]
    tail = stats.tail_percentile(len(latencies))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace} sessions {len(runs)}"
          f" wall {time.perf_counter() - started:.1f} s")
    for values, value_units in report:
        for name, value in values.items():
            note = " (computed)" if name in COMPUTED else ""
            print(f"{name} {value:.6g} {value_units[name]}{note}")
    print(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    within, across = repeat_shares(untraced)
    print(f"repeat_share {within:.6g} ratio within a session, {across:.6g} across the run")
    if tail is None:
        print(f"latency samples {len(latencies)}: too few for any tail percentile")
    else:
        print(f"latency_p{tail:g}_ms {1000 * stats.percentile(latencies, tail):.6g} ms"
              f" (highest percentile with >= {stats.MIN_BEYOND} of {len(latencies)}"
              " samples beyond)")
    for r in runs:
        for reason in r["reasons"]:
            print(f"check failed: {reason}")

    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
