"""Exhaustively sweep every rule table for a small (m, d) and
cross-check both deciders against brute-force oracles.

The surjectivity oracle counts preimages of every word up to a given
length, so it sees only unbalanced words that short: a "surjective"
verdict must never coexist with an unbalanced word it finds, and a "not
surjective" verdict whose validating unbalanced word is longer is out of
its reach, counted on its own summary line rather than as a
disagreement. Injectivity is checked one-sidedly: an "injective" verdict
must never coexist with a periodic collision. Every "not surjective" and
every "not injective" verdict must carry a witness that validates; the
witnesses are read after the verdicts, so a witness the deciders search
for only on its first read is searched for and checked too.
Disagreements are printed and make the script exit nonzero.

Example:
    python3 scripts/sweep_small_rules.py --m 3 --d 1 --word-length 4
"""

import argparse
import itertools
import sys
import time

from ca_verify.caps import DEFAULT_CAPS
from ca_verify.decide import count_preimages, decide_injective, decide_surjective
from ca_verify.rule import rule_from_code


def periodic_collision(rule, max_period: int) -> bool:
    """True when two distinct words of a common period <= max_period map
    to the same image word under the anchored periodic action.
    """
    m, d = rule.m, rule.d
    rho = d // 2
    for period in range(1, max_period + 1):
        seen = {}
        for word in itertools.product(range(m), repeat=period):
            image = tuple(
                rule.evaluate([word[(i - rho + k) % period] for k in range(d + 1)])
                for i in range(period)
            )
            if image in seen and seen[image] != word:
                return True
            seen.setdefault(image, word)
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=3, help="modulus (default 3)")
    parser.add_argument("--d", type=int, default=1, help="diameter (default 1)")
    parser.add_argument(
        "--word-length", type=int, default=4,
        help="max word length for the balance oracle (default 4)",
    )
    parser.add_argument(
        "--max-period", type=int, default=9,
        help="max period for the collision oracle (default 9)",
    )
    parser.add_argument(
        "--progress", type=int, default=5000,
        help="print a progress line every N rules (0 disables)",
    )
    args = parser.parse_args(argv)

    table_size = args.m ** (args.d + 1)
    total = args.m**table_size
    words = [
        w
        for length in range(1, args.word_length + 1)
        for w in itertools.product(range(args.m), repeat=length)
    ]
    expected = args.m**args.d

    print(f"sweeping {total} rules with m={args.m}, d={args.d}")
    started = time.monotonic()
    surjective = injective = disagreements = beyond_oracle = 0
    for code in range(total):
        rule = rule_from_code(args.m, args.d, code)
        balanced = all(count_preimages(rule, w) == expected for w in words)
        # caps passed as decide_injective passes them, so its call is a memo hit
        surj_verdict = decide_surjective(rule, DEFAULT_CAPS)
        surj = surj_verdict.surjective
        word = surj_verdict.witness
        if (
            balanced
            and not surj
            and word is not None
            and len(word.word) > args.word_length
            and word.validate(rule)
        ):
            beyond_oracle += 1
        elif surj != balanced:
            disagreements += 1
            print(f"SURJECTIVITY DISAGREEMENT at code {code}: "
                  f"decider={surj} balance={balanced}")
        verdict = decide_injective(rule, DEFAULT_CAPS)
        inj = verdict.injective
        if inj and periodic_collision(rule, args.max_period):
            disagreements += 1
            print(f"INJECTIVITY DISAGREEMENT at code {code}: "
                  f"decider=True but a periodic collision exists")
        for prop, holds, result in (("surjective", surj, surj_verdict),
                                    ("injective", inj, verdict)):
            if not holds and not (result.witness and result.witness.validate(rule)):
                disagreements += 1
                print(f"WITNESS FAILURE at code {code}: "
                      f"non-{prop} verdict without a validating witness")
        surjective += surj
        injective += inj
        if args.progress and code and code % args.progress == 0:
            print(f"  ... {code}/{total} ({time.monotonic() - started:.1f} s)")

    elapsed = time.monotonic() - started
    print(f"done in {elapsed:.1f} s: {surjective} surjective, "
          f"{injective} injective, {disagreements} disagreements")
    print(f"{beyond_oracle} not surjective with a validating unbalanced word "
          f"longer than --word-length {args.word_length}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
