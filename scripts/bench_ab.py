"""Compare the benchmark between a base commit and this checkout, in
alternating runs.

The benchmark box drifts by more than most gains within one session, so
figures recorded at another time say little. This script exports the
base commit with `git archive` into a temporary directory (no network,
nothing written under .git), and copies this checkout's tracked files,
as the working tree holds them, into the same directory, so that an edit
made during the run changes neither side. It then runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace T

(S is the run_seconds of BENCHMARK.json) alternately in the base tree
and in the candidate copy, both runs of a pair with the same seed. The side
that runs first alternates from pair to pair (base, candidate,
candidate, base, ...), so a drift of the machine during the session
does not favour one side. For every metric of the
runs' final JSON line it prints the median and quartile spread
(IQR / median) of each side, the median and quartiles of the per-pair
ratios candidate / base, and in how many pairs the candidate was
better. For every end-to-end metric it also prints two gate verdicts
against that metric's bound in BENCHMARK.json:

  * regression: "worse" when the candidate's median is worse than the
    base's by more than the bound (a share of the base median),
    "unresolved" when either side's spread exceeds the bound, else
    "within bound";
  * gain: whether the candidate won at least 9 of every 10 pairs and its
    median is better than the base's by more than the base's IQR.

Before the first pair, both trees are compiled once with
`python -m compileall -q src perfbench`. Neither copy has bytecode, and
where PYTHONDONTWRITEBYTECODE is set no run would write any, so every
run would otherwise recompile the package inside its setup_s;
compileall writes bytecode even under that variable.

With --trace 1, compare the traced per-layer values of the two sides
directly. A traced audit_exhaustive run covers one fixed sweep however
fast either side is, so dividing by `attempted` skews the comparison.

The raw runs and the summary go to --out as JSON. Workloads,
checks and bounds are those of the checkout's BENCHMARK.json, unchanged.

Example:
    python3 scripts/bench_ab.py --base HEAD --workloads scan_sampled \\
        --pairs 10 --out BENCH_3.json
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, target: str) -> None:
    archive = os.path.join(target, "base.tar")
    git("archive", "--output", archive, rev)
    tree = os.path.join(target, "tree")
    os.mkdir(tree)
    subprocess.run(["tar", "-xf", archive, "-C", tree], check=True)
    os.remove(archive)


def snapshot(tree: str) -> None:
    """Copy every tracked file of this checkout, as the working tree holds
    it, to the same path under `tree`; a file deleted there is left out.
    """
    for path in git("ls-files", "-z").split("\0"):
        source = os.path.join(ROOT, path)
        if path and os.path.isfile(source):
            os.makedirs(os.path.dirname(os.path.join(tree, path)), exist_ok=True)
            shutil.copy2(source, os.path.join(tree, path))


def compile_tree(tree: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=tree, check=True,
    )


def bench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def regression(base: list[float], cand: list[float], sign: int, bound: float) -> str:
    if max(spread(base), spread(cand)) > bound:
        return "unresolved"
    bmed = statistics.median(base)
    worse_by = sign * (bmed - statistics.median(cand)) / bmed if bmed else 0.0
    return "worse" if worse_by > bound else "within bound"


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    out = {}
    for name, entry in pairs[0]["base"]["metrics"].items():
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        cand = [p["candidate"]["metrics"][name]["value"] for p in pairs]
        ratios = [c / b for b, c in zip(base, cand) if b]
        direction = better.get(name)
        sign = 1 if direction == "higher" else -1
        wins = None
        if direction is not None:
            wins = sum(sign * (c - b) > 0 for b, c in zip(base, cand))
        bq1, bmed, bq3 = quartiles(base)
        out[name] = {
            "unit": entry["unit"],
            "better": direction,
            "base_median": bmed,
            "base_spread": spread(base),
            "candidate_median": statistics.median(cand),
            "candidate_spread": spread(cand),
            "median_ratio": statistics.median(ratios) if ratios else None,
            "ratio_quartiles": list(quartiles(ratios)[::2]) if ratios else None,
            "candidate_better_pairs": wins,
            "median_gap_exceeds_base_iqr": abs(statistics.median(cand) - bmed) > bq3 - bq1,
        }
        if name in bounds:
            out[name]["bound"] = bounds[name]
            out[name]["regression"] = regression(base, cand, sign, bounds[name])
            out[name]["gain_holds"] = (
                10 * wins >= 9 * len(pairs)
                and sign * (statistics.median(cand) - bmed) > bq3 - bq1
            )
    return out


def report(workload: str, pairs: list[dict], summary: dict) -> None:
    failed = [(p["base"]["failed"], p["candidate"]["failed"]) for p in pairs]
    correct = all(p["base"]["correct"] and p["candidate"]["correct"] for p in pairs)
    print(f"== {workload}: {len(pairs)} pairs, all correct: {correct}, "
          f"failed base/candidate: {sum(f[0] for f in failed)}/{sum(f[1] for f in failed)}")
    for name, s in summary.items():
        ratio = "n/a" if s["median_ratio"] is None else (
            f"{s['median_ratio']:.3f} [{s['ratio_quartiles'][0]:.3f}, "
            f"{s['ratio_quartiles'][1]:.3f}]"
        )
        wins = "" if s["candidate_better_pairs"] is None else (
            f" better in {s['candidate_better_pairs']}/{len(pairs)}"
        )
        gates = "" if "bound" not in s else (
            f"; bound {s['bound']:g}: {s['regression']}, "
            f"gain {'holds' if s['gain_holds'] else 'does not hold'}"
        )
        print(f"{name} ({s['unit']}): base {s['base_median']:.6g} "
              f"(spread {s['base_spread']:.2f}), candidate {s['candidate_median']:.6g} "
              f"(spread {s['candidate_spread']:.2f}), ratio {ratio}{wins}{gates}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    better = {m["name"]: m["better"]
              for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    base_rev = git("rev-parse", args.base)
    result = {
        "base": base_rev,
        "candidate": {"head": git("rev-parse", "HEAD"),
                      "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {seconds:g} --trace {args.trace}",
        "order": "base first in even-numbered pairs (from 0), candidate first in odd",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as scratch:
        export(base_rev, scratch)
        base_tree = os.path.join(scratch, "tree")
        candidate_tree = os.path.join(scratch, "candidate")
        snapshot(candidate_tree)
        for tree in (base_tree, candidate_tree):
            compile_tree(tree)
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(range(args.first_seed, args.first_seed + args.pairs)):
                pair = {"seed": seed}
                sides = [("base", base_tree), ("candidate", candidate_tree)]
                for side, tree in sides[:: -1 if i % 2 else 1]:
                    pair[side] = bench(tree, workload, seed, seconds, args.trace)
                    print(f"{workload} seed {seed} {side} done", file=sys.stderr, flush=True)
                pairs.append(pair)
            summary = summarize(pairs, better, bounds)
            report(workload, pairs, summary)
            result["workloads"][workload] = {"summary": summary, "runs": pairs}
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
