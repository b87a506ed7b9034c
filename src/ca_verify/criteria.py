"""Algebraic criterion verdicts, the criterion-vs-oracle audit, and the
coprimality conjecture scan.

Each criterion evaluates one published algebraic condition exactly as
printed, under its stated hypotheses. Hypotheses that a rule fails turn
into NotApplicable verdicts instead of guesses. Exponent-based criteria
are evaluated twice, once on the exponents as written in the rule source
(raw) and once on the canonical table-equivalent exponents; the headline
value follows the raw reading and falls back to canonical when the rule
came from a bare table.

Every rule is evaluated once, along one path (_evaluate): classify,
brute-force permutivity, both exact deciders, the criterion battery, and
the disagreements between its predictions and those oracles, as
discrepancy records carrying the oracle witness. Discrepancies are never
auto-resolved. `analyze` renders the evaluation as the full report and
`audit_row` as the slim audit row. Audits and conjecture scans map one
worker over the validated rules of a family, serially or on a process
pool, in enumeration order.
"""

from __future__ import annotations

import itertools
import multiprocessing
import random
import time
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd

from .caps import Caps, DEFAULT_CAPS, CapExceeded
from .decide import (
    BipermutiveCollision,
    Diamond,
    InjectivityResult,
    PeriodicPair,
    SurjectivityResult,
    UnbalancedWord,
    decide_injective,
    decide_surjective,
)
from .poly import Poly, hermite_criterion, interpolate_prime, is_permutation_map
from .rule import (
    RuleTable,
    SeparationClass,
    classify,
    interior_table,
    is_permutive_at,
    lr_separated_rule,
    permutivity_witness,
    rule_from_code,
    separable_component_at,
    sum_rule,
)
from .zmod import check_modulus, is_prime, totient, units

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"

TOTIENT_PERMUTIVITY = "totient_permutivity"
HERMITE_PERMUTIVITY = "hermite_permutivity"
SURJECTIVITY_SUFFICIENT = "surjectivity_sufficient"
PP_INTERIOR = "pp_interior_characterization"
PP_NECESSITY = "pp_totally_separated_necessity"
INJECTIVITY = "injectivity_characterization"
BIJECTIVITY = "bijectivity_characterization"
EVEN_EXPONENTS = "even_exponents_obstruction"


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one criterion on one rule.

    `value` is the headline verdict (raw reading); `raw_value` and
    `canonical_value` are the two exponent sub-verdicts, None when the
    criterion is not applicable. NotApplicable always carries a note.
    """

    criterion: str
    position: int | None
    value: str
    raw_value: str | None = None
    canonical_value: str | None = None
    note: str | None = None

    def __post_init__(self) -> None:
        if self.value == NOT_APPLICABLE and not self.note:
            raise ValueError("not_applicable verdicts need a note")

    @property
    def applicable(self) -> bool:
        return self.value != NOT_APPLICABLE

    def as_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "position": self.position,
            "value": self.value,
            "raw_value": self.raw_value,
            "canonical_value": self.canonical_value,
            "note": self.note,
        }


# Verdicts are frozen and few distinct ones exist (criterion, position,
# note or flags), so each is built once per process and then shared.
@lru_cache(maxsize=None)
def _na(criterion: str, position: int | None, note: str) -> CriterionVerdict:
    return CriterionVerdict(criterion, position, NOT_APPLICABLE, note=note)


def _verdict(flag: bool) -> str:
    return HOLDS if flag else FAILS


@lru_cache(maxsize=None)
def _two_readings(
    criterion: str,
    position: int | None,
    raw_flag: bool,
    canonical_flag: bool,
    note: str | None = None,
) -> CriterionVerdict:
    return CriterionVerdict(
        criterion,
        position,
        _verdict(raw_flag),
        raw_value=_verdict(raw_flag),
        canonical_value=_verdict(canonical_flag),
        note=note,
    )


def _raw_q(
    raw: Mapping[int, tuple[int, int]] | None, j: int, canonical_q: int
) -> int:
    """Exponent at position j as written, defaulting to the canonical one."""
    if raw and j in raw:
        return raw[j][1]
    return canonical_q


def _coprime_readings(
    cls: SeparationClass,
    positions: Iterable[int],
    phi: int,
    raw_exponents: Mapping[int, tuple[int, int]] | None,
) -> tuple[bool, bool]:
    """Whether the exponent at some of the (separated) positions is
    coprime to phi, read raw and canonically; (False, False) for none.
    """
    raw_ok = canonical_ok = False
    for j in positions:
        q = cls.component_at(j).q
        raw_ok = raw_ok or gcd(_raw_q(raw_exponents, j, q), phi) == 1
        canonical_ok = canonical_ok or gcd(q, phi) == 1
    return raw_ok, canonical_ok


def _outer_separated_gate(
    criterion: str, rule: RuleTable, cls: SeparationClass
) -> CriterionVerdict | None:
    """NotApplicable for a rule outside the hypotheses shared by the
    outer-separated criteria (modulus at least 3, some essential
    position, separated at both outer ones); None inside them.
    """
    if rule.m < 3:
        return _na(criterion, None, "modulus must be at least 3")
    if not cls.essential:
        return _na(criterion, None, "no essential positions")
    if not cls.lr_separated:
        return _na(criterion, None, "not separated at the outer essential positions")
    return None


# --- permutivity criteria -----------------------------------------------------


def permutive_bruteforce(rule: RuleTable, j: int) -> bool:
    """Ground truth for every permutivity criterion: exhaustive check that
    x_j -> f(...) is a bijection in every context.
    """
    if not 1 <= j <= rule.nvars:
        raise ValueError(f"position {j} out of range [1, {rule.nvars}]")
    return is_permutive_at(rule, j)


def criterion_totient_permutivity(
    rule: RuleTable,
    cls: SeparationClass,
    j: int,
    raw_exponents: Mapping[int, tuple[int, int]] | None = None,
) -> CriterionVerdict:
    """gcd(q_j, totient(m)) = 1 at a separated position with unit coefficient."""
    comp = cls.component_at(j)
    if comp is None:
        return _na(TOTIENT_PERMUTIVITY, j, "not separated at this position")
    if gcd(comp.a, rule.m) != 1:
        return _na(TOTIENT_PERMUTIVITY, j, "coefficient is not a unit")
    readings = _coprime_readings(cls, (j,), totient(rule.m), raw_exponents)
    return _two_readings(TOTIENT_PERMUTIVITY, j, *readings)


def criterion_hermite_permutivity(
    rule: RuleTable,
    cls: SeparationClass,
    j: int,
    raw_exponents: Mapping[int, tuple[int, int]] | None = None,
) -> CriterionVerdict:
    """deg(pi) < p and gcd(pi', x^p - x) = 1 for the additive component pi
    at position j, over a prime modulus.

    The canonical reading interpolates the component, so its degree is
    always below p and only the gcd can fail. The raw reading keeps the
    written monomial, where an exponent >= p fails the degree clause.
    """
    p = rule.m
    if not is_prime(p):
        return _na(HERMITE_PERMUTIVITY, j, "modulus is not prime")
    component = separable_component_at(rule, j)
    if component is None:
        return _na(
            HERMITE_PERMUTIVITY, j, "no additive univariate component at this position"
        )
    canonical_ok = hermite_criterion(interpolate_prime(component, p))
    raw_ok = canonical_ok
    if raw_exponents and j in raw_exponents:
        a, q = raw_exponents[j]
        if q >= p:
            raw_ok = False
        else:
            written = Poly.make(p, [0] * q + [a])
            raw_ok = hermite_criterion(written)
    return _two_readings(HERMITE_PERMUTIVITY, j, raw_ok, canonical_ok)


# --- surjectivity criteria ----------------------------------------------------


def criterion_surjectivity_sufficient(
    rule: RuleTable,
    cls: SeparationClass,
    raw_exponents: Mapping[int, tuple[int, int]] | None = None,
) -> CriterionVerdict:
    """gcd(q_ell, totient(m)) = 1 or gcd(q_r, totient(m)) = 1 implies
    surjectivity, for rules separated at both outer essential positions
    over a modulus of at least 3. Sufficient only; Fails predicts nothing.
    """
    gate = _outer_separated_gate(SURJECTIVITY_SUFFICIENT, rule, cls)
    if gate is not None:
        return gate
    readings = _coprime_readings(cls, (cls.ell, cls.r), totient(rule.m), raw_exponents)
    return _two_readings(SURJECTIVITY_SUFFICIENT, None, *readings)


def criterion_pp_interior(
    rule: RuleTable,
    cls: SeparationClass,
    raw_exponents: Mapping[int, tuple[int, int]] | None = None,
) -> CriterionVerdict:
    """Over an odd prime field, when the interior map between the outer
    separated positions is not a multivariate permutation map, the rule is
    surjective exactly when one outer exponent is coprime to p - 1.

    The boundary case of adjacent outer positions has no interior
    coordinates and its behavior is unstated, so it is NotApplicable.
    """
    p = rule.m
    if not is_prime(p):
        return _na(PP_INTERIOR, None, "modulus is not prime")
    gate = _outer_separated_gate(PP_INTERIOR, rule, cls)
    if gate is not None:
        return gate
    if cls.ell == cls.r:
        return _na(PP_INTERIOR, None, "single essential position: no interior map")
    if cls.r == cls.ell + 1:
        return _na(
            PP_INTERIOR, None, "no interior coordinates between the outer positions"
        )
    interior = interior_table(rule, cls.ell, cls.r)
    if is_permutation_map(interior, p, cls.r - cls.ell - 1):
        return _na(PP_INTERIOR, None, "interior map is a multivariate permutation map")
    readings = _coprime_readings(cls, (cls.ell, cls.r), p - 1, raw_exponents)
    return _two_readings(PP_INTERIOR, None, *readings)


def criterion_pp_necessity(
    rule: RuleTable,
    cls: SeparationClass,
    raw_exponents: Mapping[int, tuple[int, int]] | None = None,
) -> CriterionVerdict:
    """For a surjective pure monomial sum over an odd prime field, some
    exponent must be coprime to p - 1. Necessary only: Fails predicts
    non-surjectivity, Holds predicts nothing.
    """
    p = rule.m
    if not is_prime(p):
        return _na(PP_NECESSITY, None, "modulus is not prime")
    if p < 3:
        return _na(PP_NECESSITY, None, "modulus must be at least 3")
    if not cls.totally_separated:
        return _na(PP_NECESSITY, None, "not a pure monomial sum")
    if not cls.essential:
        return _na(PP_NECESSITY, None, "no essential positions")
    readings = _coprime_readings(cls, cls.essential, p - 1, raw_exponents)
    return _two_readings(PP_NECESSITY, None, *readings)


# --- injectivity and bijectivity criteria --------------------------------------


def _single_position_criterion(
    criterion: str,
    rule: RuleTable,
    cls: SeparationClass,
    raw_exponents: Mapping[int, tuple[int, int]] | None,
    note: str | None = None,
) -> CriterionVerdict:
    """Holds when there is a single essential position and its exponent is
    coprime to totient(m), for outer-separated rules over m >= 3.
    """
    gate = _outer_separated_gate(criterion, rule, cls)
    if gate is not None:
        return gate
    single = (cls.ell,) if cls.ell == cls.r else ()
    readings = _coprime_readings(cls, single, totient(rule.m), raw_exponents)
    return _two_readings(criterion, None, *readings, note)


def criterion_injectivity(
    rule: RuleTable,
    cls: SeparationClass,
    raw_exponents: Mapping[int, tuple[int, int]] | None = None,
) -> CriterionVerdict:
    """Injective exactly when there is a single essential position and its
    exponent is coprime to totient(m), for outer-separated rules over a
    modulus of at least 3.
    """
    return _single_position_criterion(INJECTIVITY, rule, cls, raw_exponents)


def criterion_bijectivity(
    rule: RuleTable,
    cls: SeparationClass,
    raw_exponents: Mapping[int, tuple[int, int]] | None = None,
) -> CriterionVerdict:
    """Bijectivity via the same single-position coprimality predicate.

    The printed statement names its gcd modulus with the same symbol used
    elsewhere for the neighborhood radius; every applicable verdict
    carries an as-printed-ambiguous note and evaluates the totient reading.
    """
    note = "as-printed ambiguous; evaluated with the totient reading"
    return _single_position_criterion(BIJECTIVITY, rule, cls, raw_exponents, note)


def criterion_even_exponents(
    rule: RuleTable,
    cls: SeparationClass,
    raw_exponents: Mapping[int, tuple[int, int]] | None = None,
) -> CriterionVerdict:
    """All exponents even in a pure monomial sum over an odd prime field
    obstructs both surjectivity and injectivity.
    """
    p = rule.m
    if not is_prime(p) or p == 2:
        return _na(EVEN_EXPONENTS, None, "modulus is not an odd prime")
    if not cls.totally_separated:
        return _na(EVEN_EXPONENTS, None, "not a pure monomial sum")
    if not cls.essential:
        return _two_readings(
            EVEN_EXPONENTS, None, True, True, "vacuously satisfied: no monomial terms"
        )
    raw_ok = all(
        _raw_q(raw_exponents, j, cls.component_at(j).q) % 2 == 0
        for j in cls.essential
    )
    canonical_ok = all(cls.component_at(j).q % 2 == 0 for j in cls.essential)
    return _two_readings(EVEN_EXPONENTS, None, raw_ok, canonical_ok)


def run_criteria(
    rule: RuleTable,
    cls: SeparationClass,
    raw_exponents: Mapping[int, tuple[int, int]] | None = None,
) -> list[CriterionVerdict]:
    """Every criterion on one rule, in fixed report order."""
    out: list[CriterionVerdict] = []
    for j in range(1, rule.nvars + 1):
        out.append(criterion_totient_permutivity(rule, cls, j, raw_exponents))
    for j in range(1, rule.nvars + 1):
        out.append(criterion_hermite_permutivity(rule, cls, j, raw_exponents))
    out.append(criterion_surjectivity_sufficient(rule, cls, raw_exponents))
    out.append(criterion_pp_interior(rule, cls, raw_exponents))
    out.append(criterion_pp_necessity(rule, cls, raw_exponents))
    out.append(criterion_injectivity(rule, cls, raw_exponents))
    out.append(criterion_bijectivity(rule, cls, raw_exponents))
    out.append(criterion_even_exponents(rule, cls, raw_exponents))
    return out


# --- predictions and discrepancies ---------------------------------------------

# property names used in discrepancy records
PERMUTIVE = "permutive"
SURJECTIVE = "surjective"
INJECTIVE = "injective"
BIJECTIVE = "bijective"


def predicted_facts(verdict: CriterionVerdict) -> list[tuple[str, bool]]:
    """What the headline verdict claims about the rule; empty when the
    criterion is one-directional and landed on its silent side.
    """
    if not verdict.applicable:
        return []
    holds = verdict.value == HOLDS
    c = verdict.criterion
    if c in (TOTIENT_PERMUTIVITY, HERMITE_PERMUTIVITY):
        return [(PERMUTIVE, holds)]
    if c == SURJECTIVITY_SUFFICIENT:
        return [(SURJECTIVE, True)] if holds else []
    if c == PP_INTERIOR:
        return [(SURJECTIVE, holds)]
    if c == PP_NECESSITY:
        return [] if holds else [(SURJECTIVE, False)]
    if c == INJECTIVITY:
        return [(INJECTIVE, holds)]
    if c == BIJECTIVITY:
        return [(BIJECTIVE, holds)]
    if c == EVEN_EXPONENTS:
        return [(SURJECTIVE, False), (INJECTIVE, False)] if holds else []
    raise ValueError(f"unknown criterion {c!r}")


def witness_to_dict(witness) -> dict | None:
    if witness is None:
        return None
    if isinstance(witness, UnbalancedWord):
        return {
            "kind": "unbalanced_word",
            "word": list(witness.word),
            "count": witness.count,
            "expected": witness.expected,
        }
    if isinstance(witness, Diamond):
        return {"kind": "diamond", "u": list(witness.u), "v": list(witness.v)}
    if isinstance(witness, PeriodicPair):
        return {
            "kind": "periodic_pair",
            "x": list(witness.x.cells),
            "y": list(witness.y.cells),
        }
    if isinstance(witness, BipermutiveCollision):
        return {
            "kind": "bipermutive_collision",
            "u": list(witness.u),
            "v": list(witness.v),
            "image_letter": witness.image_letter,
        }
    raise TypeError(f"unknown witness type {type(witness).__name__}")


def find_discrepancies(
    rule: RuleTable,
    verdicts: Iterable[CriterionVerdict],
    surjective,
    injective,
    permutive: Mapping[int, bool],
) -> list[dict]:
    """Disagreements between applicable criterion predictions and the
    oracle verdicts, each carrying the oracle witness where one exists.
    """
    records: list[dict] = []
    for verdict in verdicts:
        for prop, expected in predicted_facts(verdict):
            if prop == PERMUTIVE:
                observed = permutive[verdict.position]
                witness = None
                if not observed:
                    collision = permutivity_witness(rule, verdict.position)
                    witness = {"kind": "permutivity_collision", **collision}
            elif prop == SURJECTIVE:
                observed = surjective.surjective
                witness = None if observed else witness_to_dict(surjective.witness)
            elif prop == INJECTIVE:
                observed = injective.injective
                witness = None if observed else witness_to_dict(injective.witness)
            else:
                observed = injective.injective and surjective.surjective
                witness = None
                if not injective.injective:
                    witness = witness_to_dict(injective.witness)
                elif not surjective.surjective:
                    witness = witness_to_dict(surjective.witness)
            if observed != expected:
                records.append(
                    {
                        "criterion": verdict.criterion,
                        "position": verdict.position,
                        "property": prop,
                        "expected": expected,
                        "observed": observed,
                        "witness": witness,
                    }
                )
    return records


# --- analysis reports -----------------------------------------------------------


def classification_to_dict(cls: SeparationClass) -> dict:
    return {
        "essential_positions": list(cls.essential),
        "components": [
            {"position": c.position, "coefficient": c.a, "exponent": c.q}
            for c in cls.components
            if c is not None
        ],
        "lr_separated": cls.lr_separated,
        "totally_separated": cls.totally_separated,
        "shift_like": cls.shift_like,
        "leftmost": cls.ell,
        "rightmost": cls.r,
    }


def rule_to_dict(rule: RuleTable, expression=None) -> dict:
    return {
        "m": rule.m,
        "d": rule.d,
        "expression": expression.source if expression is not None else None,
        "table": list(rule.table),
    }


def _evaluate(
    rule: RuleTable,
    raw_exponents: Mapping[int, tuple[int, int]] | None,
    caps: Caps,
) -> tuple[SeparationClass, SurjectivityResult, InjectivityResult, dict]:
    """The evaluation behind both the report and the audit row: classify,
    brute-force permutivity, both deciders (one diamond search between
    them), the criterion battery and its discrepancies against those
    oracles. Returns the class, both decider results, and the fields the
    two renderings share.
    """
    cls = classify(rule)
    permutive = {j: is_permutive_at(rule, j) for j in range(1, rule.nvars + 1)}
    surjective = decide_surjective(rule, caps)
    injective = decide_injective(rule, caps, surjective)
    verdicts = run_criteria(rule, cls, raw_exponents)
    shared = {
        "permutive": [
            {"position": j, "verdict": verdict} for j, verdict in permutive.items()
        ],
        "criteria": [v.as_dict() for v in verdicts],
        "discrepancies": find_discrepancies(
            rule, verdicts, surjective, injective, permutive
        ),
    }
    return cls, surjective, injective, shared


def analyze(
    rule: RuleTable,
    *,
    expression=None,
    raw_exponents: Mapping[int, tuple[int, int]] | None = None,
    rule_id: str | None = None,
    caps: Caps = DEFAULT_CAPS,
    with_timings: bool = False,
) -> dict:
    """Full report on one rule: classification, criteria (raw and
    canonical readings), decider verdicts with witnesses, and the
    discrepancy list. Deterministic; `timings` stays null unless asked
    for, so reports compare byte-for-byte.
    """
    started = time.perf_counter()
    if raw_exponents is None and expression is not None:
        raw_exponents = expression.raw_exponents()
    if rule_id is None and expression is not None:
        rule_id = expression.source
    cls, surjective, injective, shared = _evaluate(rule, raw_exponents, caps)
    return {
        "id": rule_id,
        "rule": rule_to_dict(rule, expression),
        "classification": classification_to_dict(cls),
        "surjective": {
            "verdict": surjective.surjective,
            "witness": witness_to_dict(surjective.witness),
        },
        "injective": {
            "verdict": injective.injective,
            "witness": witness_to_dict(injective.witness),
        },
        **shared,
        "timings": (
            {"seconds": time.perf_counter() - started} if with_timings else None
        ),
    }


# --- rule families ---------------------------------------------------------------

FAMILY_KINDS = ("shift_like", "lr_separated", "all_tables")


@dataclass(frozen=True)
class FamilySpec:
    """Deterministic enumeration recipe for a sweep of rules."""

    kind: str
    moduli: tuple[int, ...]
    d: int = 0
    q_min: int = 1
    q_max: int = 1
    coefficients: str = "units"
    pi: str = "all"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not self.moduli:
            raise ValueError("family needs at least one modulus")
        for m in self.moduli:
            check_modulus(m)
        if self.d < 0:
            raise ValueError("diameter must be nonnegative")
        if self.q_min < 1:
            raise ValueError("exponents start at 1")
        if self.q_max < self.q_min:
            raise ValueError("empty exponent range")
        if self.coefficients != "units":
            raise ValueError("only coefficients=units is supported")
        if self.pi != "all" and self._sample_size() is None:
            raise ValueError(f"pi must be 'all' or 'sample:N', got {self.pi!r}")
        if self.kind == "lr_separated" and self.d < 1:
            raise ValueError("outer-separated families need diameter at least 1")

    def _sample_size(self) -> int | None:
        if self.pi.startswith("sample:"):
            tail = self.pi.removeprefix("sample:")
            if tail.isdigit() and int(tail) >= 1:
                return int(tail)
        return None


_FAMILY_KEYS = ("kind", "moduli", "d", "q_min", "q_max", "coefficients", "pi", "seed")


def parse_family(text: str) -> FamilySpec:
    """Parse the line-oriented key=value family format.

    Recognized keys: kind, moduli (comma-separated), d, q_min, q_max,
    coefficients, pi (all | sample:N), seed. Blank lines and `#` comments
    are skipped. Unknown or repeated keys are errors.
    """
    seen: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FAMILY_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: repeated key {key!r}")
        seen[key] = value
    if "kind" not in seen:
        raise ValueError("family spec needs a kind")
    if "moduli" not in seen:
        raise ValueError("family spec needs moduli")
    kind = seen["kind"]
    try:
        moduli = tuple(int(part) for part in seen["moduli"].split(","))
    except ValueError:
        raise ValueError(f"bad moduli list {seen['moduli']!r}") from None
    if kind in ("shift_like", "lr_separated") and "q_max" not in seen:
        raise ValueError(f"kind={kind} needs q_max")

    def integer(key: str, default: int) -> int:
        if key not in seen:
            return default
        try:
            return int(seen[key])
        except ValueError:
            raise ValueError(f"bad integer for {key}: {seen[key]!r}") from None

    return FamilySpec(
        kind=kind,
        moduli=moduli,
        d=integer("d", 0),
        q_min=integer("q_min", 1),
        q_max=integer("q_max", 1),
        coefficients=seen.get("coefficients", "units"),
        pi=seen.get("pi", "all"),
        seed=integer("seed", 0),
    )


@dataclass(frozen=True)
class FamilyRule:
    """One enumerated rule: identifier, validated table, and how it was
    built.

    `raw` holds (position, coefficient, exponent) triples exactly as
    enumerated, so criteria can evaluate the written exponents even
    though the rule travels as a bare table.
    """

    rule_id: str
    rule: RuleTable
    raw: tuple[tuple[int, int, int], ...]
    params: tuple[tuple[str, int], ...]


def family_size(spec: FamilySpec) -> int:
    """Exact number of rules `spec` enumerates, computed arithmetically
    so cap checks never have to walk a huge family.
    """
    total = 0
    nq = spec.q_max - spec.q_min + 1
    for m in spec.moduli:
        nu = len(units(m))
        if spec.kind == "shift_like":
            total += (spec.d + 1) * nu * nq
        elif spec.kind == "lr_separated":
            cells = m ** (spec.d - 1)
            n_pi = spec._sample_size() or m**cells
            total += nu * nu * nq * nq * n_pi
        else:
            total += m ** (m ** (spec.d + 1))
    return total


def _interior_tables(
    m: int, cells: int, spec: FamilySpec
) -> Iterator[tuple[int, tuple[int, ...]]]:
    sample = spec._sample_size()
    if sample is None:
        for index, table in enumerate(itertools.product(range(m), repeat=cells)):
            yield index, table
    else:
        rng = random.Random(spec.seed)
        for index in range(sample):
            yield index, tuple(rng.randrange(m) for _ in range(cells))


def enumerate_family(
    spec: FamilySpec, caps: Caps = DEFAULT_CAPS
) -> Iterator[FamilyRule]:
    """Yield the family in deterministic order (moduli as given, then
    positions, coefficients, exponents, interior tables).
    """
    size = family_size(spec)
    if size > caps.family_rules:
        raise CapExceeded(
            f"family enumerates {size} rules, cap is {caps.family_rules}"
        )
    qs = range(spec.q_min, spec.q_max + 1)
    for m in spec.moduli:
        if spec.kind == "shift_like":
            for j in range(1, spec.d + 2):
                for a in units(m):
                    for q in qs:
                        rule = sum_rule(m, spec.d, {j: (a, q)}, caps=caps)
                        yield FamilyRule(
                            rule_id=f"m{m}-d{spec.d}-j{j}-a{a}-q{q}",
                            rule=rule,
                            raw=((j, a, q),),
                            params=(("position", j), ("a", a), ("q", q)),
                        )
        elif spec.kind == "lr_separated":
            r = spec.d + 1
            cells = m ** (spec.d - 1)
            for a_ell in units(m):
                for q_ell in qs:
                    for a_r in units(m):
                        for q_r in qs:
                            for index, interior in _interior_tables(m, cells, spec):
                                rule = lr_separated_rule(
                                    m, spec.d, 1, r, a_ell, q_ell, a_r, q_r,
                                    interior, caps,
                                )
                                yield FamilyRule(
                                    rule_id=(
                                        f"m{m}-d{spec.d}-al{a_ell}-ql{q_ell}"
                                        f"-ar{a_r}-qr{q_r}-pi{index}"
                                    ),
                                    rule=rule,
                                    raw=((1, a_ell, q_ell), (r, a_r, q_r)),
                                    params=(
                                        ("a_ell", a_ell),
                                        ("q_ell", q_ell),
                                        ("a_r", a_r),
                                        ("q_r", q_r),
                                        ("pi_index", index),
                                    ),
                                )
        else:
            for code in range(m ** (m ** (spec.d + 1))):
                yield FamilyRule(
                    rule_id=f"m{m}-d{spec.d}-t{code}",
                    rule=rule_from_code(m, spec.d, code, caps),
                    raw=(),
                    params=(("code", code),),
                )


# --- audit -----------------------------------------------------------------------


def audit_row(
    rule: RuleTable,
    *,
    rule_id: str,
    raw_exponents: Mapping[int, tuple[int, int]] | None = None,
    params: Mapping[str, int] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> dict:
    """Slim per-rule audit record: decider verdicts, criterion verdicts,
    and exactly the applicable-criterion-vs-oracle disagreements.
    """
    _, surjective, injective, shared = _evaluate(rule, raw_exponents, caps)
    return {
        "id": rule_id,
        "m": rule.m,
        "d": rule.d,
        "params": dict(params) if params else {},
        "surjective": surjective.surjective,
        "injective": injective.injective,
        **shared,
    }


def _family_map(
    worker: Callable[[Caps, FamilyRule], object],
    spec: FamilySpec,
    caps: Caps,
    jobs: int,
) -> Iterator:
    """worker(caps, rule) for every rule of the family, in enumeration
    order, serially or on a pool of `jobs` processes.
    """
    task = partial(worker, caps)
    rules = enumerate_family(spec, caps)
    if jobs <= 1:
        yield from map(task, rules)
        return
    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(task, rules, chunksize=16)


def _audit_worker(caps: Caps, fr: FamilyRule) -> dict:
    return audit_row(
        fr.rule,
        rule_id=fr.rule_id,
        raw_exponents={j: (a, q) for j, a, q in fr.raw},
        params=dict(fr.params),
        caps=caps,
    )


def audit(
    spec: FamilySpec, caps: Caps = DEFAULT_CAPS, jobs: int = 1
) -> Iterator[dict]:
    """Stream audit rows for the family, in enumeration order regardless
    of worker count.
    """
    return _family_map(_audit_worker, spec, caps, jobs)


def sufficiency_violation_on_prime(row: Mapping) -> bool:
    """True when an audit row contradicts the proved sufficiency direction
    on a prime modulus: that criterion said surjective, the decider said
    otherwise. Such a row is an implementation-bug signal.
    """
    if not is_prime(row["m"]):
        return False
    return any(
        rec["criterion"] == SURJECTIVITY_SUFFICIENT
        and rec["property"] == SURJECTIVE
        and rec["expected"] is True
        and rec["observed"] is False
        for rec in row["discrepancies"]
    )


# --- conjecture scan ---------------------------------------------------------------


def _scan_worker(caps: Caps, fr: FamilyRule) -> tuple[str, bool, bool]:
    (_, _, q_ell), (_, _, q_r) = fr.raw
    p = fr.rule.m
    surjective = decide_surjective(fr.rule, caps).surjective
    disjunction = gcd(q_ell, p - 1) == 1 or gcd(q_r, p - 1) == 1
    return fr.rule_id, surjective, disjunction


def conjecture_scan(
    p: int,
    d: int,
    q_min: int = 1,
    q_max: int = 4,
    pi: str = "all",
    seed: int = 0,
    caps: Caps = DEFAULT_CAPS,
    jobs: int = 1,
    with_timings: bool = False,
) -> dict:
    """Sweep outer-separated rules over an odd prime field and compare the
    exact surjectivity decider against the outer-exponent coprimality
    disjunction, on the exponents as enumerated.

    Sufficiency violations (disjunction holds, decider says no) are bugs
    on prime fields and fail the run downstream. Necessity counterexamples
    (decider says yes, disjunction fails) are reported, never asserted
    away: their existence is exactly the open question the scan probes.
    """
    if not is_prime(p) or p < 3:
        raise ValueError(f"scan needs an odd prime modulus, got {p}")
    started = time.perf_counter()
    spec = FamilySpec(
        kind="lr_separated",
        moduli=(p,),
        d=d,
        q_min=q_min,
        q_max=q_max,
        pi=pi,
        seed=seed,
    )
    total = 0
    surjective_count = 0
    sufficiency: list[str] = []
    necessity: list[str] = []
    for rule_id, surjective, disjunction in _family_map(_scan_worker, spec, caps, jobs):
        total += 1
        if surjective:
            surjective_count += 1
        if disjunction and not surjective:
            sufficiency.append(rule_id)
        if surjective and not disjunction:
            necessity.append(rule_id)
    return {
        "modulus": p,
        "diameter": d,
        "exponent_min": q_min,
        "exponent_max": q_max,
        "pi": pi,
        "seed": seed,
        "total_rules": total,
        "surjective_rules": surjective_count,
        "sufficiency_violations": {"count": len(sufficiency), "ids": sufficiency},
        "necessity_counterexamples": {"count": len(necessity), "ids": necessity},
        "runtime": (
            {"seconds": time.perf_counter() - started} if with_timings else None
        ),
    }
