"""Spans and counters recorded from outside the package.

install() replaces the names that one ca_verify module looks up to call
another (for example ca_verify.criteria.decide_surjective) with wrappers
that record a span per call. Spans carry a name, start, end, the span
that was open when they started, and the request id current at the
time; they stay in memory until write_spans(). Nothing under ca_verify
is edited: the wrappers sit at the module boundaries, so every metric
here is the time spent between two such boundaries.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from collections.abc import Callable, Iterable

NAME, PARENT, REQUEST, START, END = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.request: int | None = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, self.request, time.perf_counter(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        # a span whose callee raised is still closed, so pop down to it
        while self.stack and self.stack.pop() != sid:
            pass

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tname\tparent\trequest\tstart_s\tend_s\n")
            for sid, (name, parent, request, start, end) in enumerate(self.spans):
                fh.write(
                    f"{sid}\t{name}\t{'' if parent is None else parent}\t"
                    f"{'' if request is None else request}\t{start:.9f}\t{end:.9f}\n"
                )


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans
    cover; overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = _covered(children.get(sid, ()), start, end)
        out.append(end - start - covered)
    return out


def span_wrapper(
    tracer: Tracer,
    name: str,
    fn: Callable,
    on_result: Callable | None = None,
    on_error: Callable | None = None,
) -> Callable:
    """fn wrapped in a span; on_result(args, result) and on_error(exc)
    record counts from the public return value or exception.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            tracer.close(sid)
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def generator_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A generator function wrapped so that each step it takes (not the
    consumer's work between steps) is one span.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            sid = tracer.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(sid)
            yield item

    return wrapper


def counter_wrapper(tracer: Tracer, key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _witness_letters(witness) -> int:
    if witness is None:
        return 0
    letters = 0
    for field in ("word", "u", "v"):
        letters += len(getattr(witness, field, ()))
    for field in ("x", "y"):
        cyclic = getattr(witness, field, None)
        if cyclic is not None:
            letters += len(cyclic.cells)
    return letters


# span name -> metric group; a group's time is the sum of its spans' self times
SPAN_GROUPS = {
    "cli.main": "cli.self_s",
    "rule.parse_rule": "rule.parse_s",
    "rule.build_rule": "rule.build_s",
    "rule.rule_from_code": "rule.build_s",
    "rule.RuleTable.make": "rule.build_s",
    "rule.classify": "rule.classify_s",
    "rule.is_permutive_at": "rule.permutive_s",
    "rule.permutivity_witness": "rule.permutive_s",
    "decide.decide_surjective": "decide.surjective_s",
    "decide.decide_injective": "decide.injective_s",
    "criteria.analyze": "criteria.self_s",
    "criteria.audit": "criteria.self_s",
    "criteria.audit_row": "criteria.self_s",
    "criteria.conjecture_scan": "criteria.self_s",
    "criteria.enumerate_family": "criteria.enumerate_s",
    "criteria.run_criteria": "criteria.run_criteria_s",
    "criteria.find_discrepancies": "criteria.discrepancies_s",
    "poly.interpolate_prime": "poly.interpolate_s",
    "poly.hermite_criterion": "poly.hermite_s",
    "poly.representability_search": "poly.representability_s",
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layer boundaries of ca_verify; returns a function that
    puts every replaced name back.
    """
    from ca_verify import caps, cli, criteria, rule

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(owner, attr: str, name: str, **hooks) -> None:
        patch(owner, attr, span_wrapper(tracer, name, getattr(owner, attr), **hooks))

    def count(key: str, amount: Callable) -> Callable:
        def hook(args, result) -> None:
            tracer.counts[key] += amount(args, result)

        return hook

    def decide_hooks(kind: str, extra: Callable | None = None) -> dict:
        def on_result(args, result) -> None:
            tracer.counts[f"decide.{kind}_calls"] += 1
            tracer.counts["decide.witness_letters"] += _witness_letters(result.witness)
            if extra is not None:
                extra(args, result)

        def on_error(exc: Exception) -> None:
            if isinstance(exc, caps.CapExceeded):
                tracer.counts["decide.cap_exceeded"] += 1

        return {"on_result": on_result, "on_error": on_error}

    def pair_vertices(args, result) -> None:
        r = args[0]
        tracer.counts["decide.pair_vertices"] += (r.m**r.d) ** 2

    table_entries = count("rule.table_entries", lambda args, result: len(result.table))

    # cli -> rule, criteria, decide, poly
    span(cli, "parse_rule", "rule.parse_rule")
    span(cli, "analyze", "criteria.analyze")
    patch(cli, "audit", generator_wrapper(tracer, "criteria.audit", cli.audit))
    span(cli, "conjecture_scan", "criteria.conjecture_scan")
    injective_hooks = decide_hooks("injective", pair_vertices)
    span(cli, "decide_injective", "decide.decide_injective", **injective_hooks)
    span(cli, "interpolate_prime", "poly.interpolate_prime")
    span(
        cli,
        "representability_search",
        "poly.representability_search",
        on_result=count("poly.representability_calls", lambda args, result: 1),
    )
    # criteria -> rule, decide, poly
    patch(
        criteria,
        "enumerate_family",
        generator_wrapper(tracer, "criteria.enumerate_family", criteria.enumerate_family),
    )
    span(criteria, "audit_row", "criteria.audit_row")
    span(criteria, "run_criteria", "criteria.run_criteria")
    span(
        criteria,
        "find_discrepancies",
        "criteria.find_discrepancies",
        on_result=count("criteria.discrepancy_records", lambda args, result: len(result)),
    )
    span(criteria, "rule_from_code", "rule.rule_from_code")
    span(criteria, "classify", "rule.classify")
    span(criteria, "is_permutive_at", "rule.is_permutive_at")
    span(criteria, "permutivity_witness", "rule.permutivity_witness")
    span(criteria, "decide_surjective", "decide.decide_surjective", **decide_hooks("surjective"))
    span(criteria, "decide_injective", "decide.decide_injective", **injective_hooks)
    span(criteria, "interpolate_prime", "poly.interpolate_prime")
    span(criteria, "hermite_criterion", "poly.hermite_criterion")
    # rule -> zmod, and the table builders every front end reaches
    span(rule, "build_rule", "rule.build_rule")
    make = rule.RuleTable.__dict__["make"].__func__
    patch(
        rule.RuleTable,
        "make",
        classmethod(span_wrapper(tracer, "rule.RuleTable.make", make, on_result=table_entries)),
    )
    patch(
        rule,
        "monomial_table",
        counter_wrapper(tracer, "zmod.monomial_table_calls", rule.monomial_table),
    )

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-group self time plus the counters, keyed by metric name."""
    out: dict[str, float] = {group: 0.0 for group in SPAN_GROUPS.values()}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        group = SPAN_GROUPS.get(span[NAME])
        if group is not None:
            out[group] += own
    out.update(tracer.counts)
    return out
