"""Compare the command line's outputs between a base commit and this
checkout, byte for byte.

The script exports the base commit with `bench_ab.export` (`git archive`
into a temporary directory; no network, nothing written under .git) and
then runs itself once per tree, each time in a fresh process with that
tree's `src` first on sys.path. That run calls `ca_verify.cli.main` in
process on a fixed battery and prints one line per call: the sha256 of
(exit code, stdout, stderr), the exit code, then the argv as JSON. The
battery is this checkout's, for both trees:

  * `analyze` and `witness`, json and text, on every rule of
    `perfbench.workloads.rule_pool()`, and on the first pool rules again
    under `CA_VERIFY_CAPS=pair_vertices=64`, right after the same call
    under the default caps. That cap is passed by some of those rules and
    exceeded by others (exit 2). The setting leads the argv printed for
    these calls; every other call runs with CA_VERIFY_CAPS unset;
  * `interpolate`, json and text, on `table_pool()` and on 40 seeded
    random tables for each prime up to 13;
  * `examples` in both formats;
  * `trace` with `--width` and with `--initial` on the first pool rules;
  * `audit`, at `--jobs 1` and `--jobs 2` (forked children walk the
    family themselves), of all m=3, d=1 tables, of all d=0 tables over 2
    and 3, of a `shift_like` family over 5, 7 and 11 with exponents up to
    12, of a sampled `lr_separated` family over 3, 5 and 7, and of an
    `lr_separated` family over 3 with every interior table;
  * the three `scan_sampled` conjecture calls at `--jobs 1` and `--jobs 2`;
  * refusals: `analyze` of malformed table files and expressions and of a
    table past the cap, `interpolate` with a bad `--m` or a table of the
    wrong length, `conjecture` with a bad modulus, diameter or sample
    size, and `audit` of malformed families and of one past the cap.

Table and family files are written to one directory shared by both
runs, so their argv match. The script prints the number of calls per
subcommand and every argv whose line differs, and exits 1 on any
difference, or when the capped calls do not hold both an answer and a
refusal.

Example:
    python3 scripts/compare_outputs.py --base HEAD~1
"""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

from bench_ab import ROOT, export, git

FAMILIES = {
    "all_tables": "kind=all_tables\nmoduli=3\nd=1\n",
    "all_tables_d0": "kind=all_tables\nmoduli=2,3\nd=0\n",
    "shift_like": "kind=shift_like\nmoduli=5,7,11\nd=2\nq_max=12\n",
    "lr_separated": "kind=lr_separated\nmoduli=3,5,7\nd=2\nq_max=3\npi=sample:2\nseed=7\n",
    "lr_separated_all": "kind=lr_separated\nmoduli=3\nd=2\nq_max=2\n",
}
RANDOM_TABLES = 40  # per prime
RANDOM_SEED = 20250421
TRACED_RULES = 16
CAPPED_RULES = 16
CAPS_ENV, CAPS_VALUE = "CA_VERIFY_CAPS", "pair_vertices=64"
CAPPED = f"{CAPS_ENV}={CAPS_VALUE}"
BAD_TABLES = {
    "empty": "",
    "no_diameter": "3",
    "bad_diameter": "3 x",
    "bad_modulus": "1 1",
    "negative_diameter": "3 -1",
    "short": "3 1\n0 1 2\n",
    "entry_out_of_range": "3 1\n0 1 2 0 1 2 0 5 2\n",
    "over_table_cap": "13 6\n",
}
BAD_RULES = ("m=1; d=1; f=x1", "m=3; d=1; f=x3", "m=3; d=1; f=x1 x2", "m=3; d=1; f=x1+")
BAD_INTERPOLATIONS = (("1,2", "0"), ("1,2", "-3"), ("1,2", "1"), ("1,2,3", "4"))
BAD_SCANS = (("4", "1", "all"), ("5", "0", "all"), ("5", "1", "sample:0"))
BAD_FAMILIES = {
    "no_kind": "moduli=3\nd=1\n",
    "unknown_kind": "kind=bogus\nmoduli=3\nd=1\n",
    "repeated_modulus": "kind=all_tables\nmoduli=3,3\nd=0\n",
    "over_family_cap": "kind=all_tables\nmoduli=3\nd=2\n",
}


def write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def battery(workdir: str):
    """Every argv of the battery, in a fixed order; the capped calls'
    argv start with the CAPPED setting.
    """
    from perfbench.workloads import rule_pool, scan_argv, table_pool, SCAN_SEEDS

    rules = rule_pool()
    for i, source in enumerate(rules):
        for command in ("analyze", "witness"):
            for fmt in ("json", "text"):
                yield [command, source, "--format", fmt]
            if i < CAPPED_RULES:  # after the same call under the default caps
                yield [CAPPED, command, source]
    rng = random.Random(RANDOM_SEED)
    tables = table_pool() + [
        (p, tuple(rng.randrange(p) for _ in range(p)))
        for p in (2, 3, 5, 7, 11, 13)
        for _ in range(RANDOM_TABLES)
    ]
    for m, values in tables:
        for fmt in ("json", "text"):
            yield ["interpolate", ",".join(map(str, values)), "--m", str(m), "--format", fmt]
    for fmt in ("json", "text"):
        yield ["examples", "--format", fmt]
    for i, source in enumerate(rules[:TRACED_RULES]):
        m = int(source.split(";")[0].removeprefix("m="))
        row = ",".join(str(rng.randrange(m)) for _ in range(5 + i % 7))
        yield ["trace", source, "--steps", "6", "--width", str(4 + i), "--seed", str(i)]
        yield ["trace", source, "--steps", "6", "--initial", row]
    for name, spec in FAMILIES.items():
        path = write(workdir, f"{name}.family", spec)
        for jobs in ("1", "2"):
            yield ["audit", "--family", path, "--jobs", jobs]
    for seed in SCAN_SEEDS:
        for jobs in (1, 2):
            yield scan_argv(seed, jobs)
    for name, text in BAD_TABLES.items():
        yield ["analyze", "--table-file", write(workdir, f"{name}.table", text)]
    for source in BAD_RULES:
        yield ["analyze", source]
    for values, m in BAD_INTERPOLATIONS:
        yield ["interpolate", values, "--m", m]
    for p, d, pi in BAD_SCANS:
        yield ["conjecture", "--p", p, "--d", d, "--pi", pi]
    for name, spec in BAD_FAMILIES.items():
        yield ["audit", "--family", write(workdir, f"{name}.family", spec)]


def emit(src: str, workdir: str) -> None:
    """Run the battery against the package in `src` and print its lines."""
    sys.path[:0] = [src, ROOT]
    from ca_verify import cli

    for call in battery(workdir):
        capped = call[0] == CAPPED
        if capped:
            os.environ[CAPS_ENV] = CAPS_VALUE
        else:
            os.environ.pop(CAPS_ENV, None)
        argv = call[1:] if capped else call
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        record = json.dumps([code, out.getvalue(), err.getvalue()])
        digest = hashlib.sha256(record.encode()).hexdigest()
        print(digest, code, json.dumps(call), flush=True)


def run_tree(tree: str, workdir: str) -> list[tuple[str, str, str]]:
    argv = [sys.executable, os.path.abspath(__file__),
            "--emit", os.path.join(tree, "src"), "--workdir", workdir]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the battery failed in {tree} (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return [tuple(line.split(" ", 2)) for line in proc.stdout.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.emit, args.workdir)
        return 0

    base_rev = git("rev-parse", args.base)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        export(base_rev, scratch)
        workdir = os.path.join(scratch, "families")
        os.mkdir(workdir)
        base = run_tree(os.path.join(scratch, "tree"), workdir)
        candidate = run_tree(ROOT, workdir)
    if [a for *_, a in base] != [a for *_, a in candidate]:
        raise SystemExit("the two runs called different argv lists")
    calls = [json.loads(a) for *_, a in candidate]
    counts = collections.Counter(
        " ".join(call[:2]) if call[0] == CAPPED else call[0] for call in calls
    )
    differing = [a for (b, _, a), (c, _, _) in zip(base, candidate) if b != c]
    print(f"base {base_rev}: {len(candidate)} calls "
          + ", ".join(f"{name} {n}" for name, n in sorted(counts.items())))
    for a in differing:
        print(f"differs: {a}")
    print(f"{len(differing)} differences")
    capped_exits = {code for (_, code, _), call in zip(candidate, calls) if call[0] == CAPPED}
    if not {"0", "2"} <= capped_exits:
        print(f"the capped calls exit with {sorted(capped_exits)}: no answer or no refusal")
        return 1
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
