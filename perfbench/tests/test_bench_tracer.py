import pytest

from perfbench import tracer


def span(name, parent, start, end):
    return [name, parent, None, start, end]


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", None, 0.0, 10.0),
        span("child", 0, 1.0, 4.0),
        span("grandchild", 1, 2.0, 3.0),
        span("child", 0, 5.0, 6.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", 0, 1.0, 5.0),
        span("b", 0, 3.0, 7.0),  # overlaps a: together they cover 1..7
        span("c", 0, 6.5, 8.0),  # overlaps b: coverage extends to 8
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span("root", None, 2.0, 4.0), span("late", 0, 3.0, 9.0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_wrappers_nest_spans_and_exclude_the_consumer():
    t = tracer.Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.span_wrapper(t, "leaf", leaf)

    def gen():
        for i in range(3):
            yield wrapped_leaf(i)

    wrapped_gen = tracer.generator_wrapper(t, "gen", gen)
    root = t.open("root")
    assert list(wrapped_gen()) == [1, 2, 3]
    t.close(root)
    names = [s[tracer.NAME] for s in t.spans]
    # one span per step, plus the final step that ends the generator
    assert names.count("gen") == 4
    assert names.count("leaf") == 3
    for s in t.spans:
        if s[tracer.NAME] == "leaf":
            assert t.spans[s[tracer.PARENT]][tracer.NAME] == "gen"
        if s[tracer.NAME] == "gen":
            assert s[tracer.PARENT] == root
    assert t.stack == []


def test_span_is_closed_when_the_callee_raises():
    t = tracer.Tracer()

    def boom():
        raise ValueError("no")

    errors = []
    wrapped = tracer.span_wrapper(t, "boom", boom, on_error=errors.append)
    with pytest.raises(ValueError):
        wrapped()
    assert t.stack == [] and t.spans[0][tracer.END] is not None
    assert len(errors) == 1


def test_install_and_uninstall_restore_the_package():
    from ca_verify import cli, criteria, rule

    originals = (cli.analyze, criteria.decide_surjective, rule.RuleTable.__dict__["make"])
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        rule_table, _ = cli.parse_rule("m=3; d=1; f=x1+x2")
        criteria.decide_surjective(rule_table)
    finally:
        uninstall()
    assert (cli.analyze, criteria.decide_surjective, rule.RuleTable.__dict__["make"]) == originals
    metrics = tracer.layer_metrics(t)
    assert metrics["decide.surjective_calls"] == 1
    assert metrics["rule.table_entries"] == 9
    assert metrics["rule.parse_s"] > 0 and metrics["rule.build_s"] > 0
