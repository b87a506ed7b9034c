import pytest

from ca_verify.criteria import witness_to_dict
from ca_verify.decide import decide_injective, decide_surjective
from ca_verify.rule import parse_rule

from perfbench import checks


def rule(source):
    return parse_rule(source)[0]


CASES = [
    # (rule source, decider, expected witness kind)
    ("m=3; d=1; f=x1^2+x2^2", decide_surjective, "unbalanced_word"),
    ("m=3; d=1; f=x1^2+x2^2", decide_injective, "diamond"),
    ("m=7; d=2; f=x1^4+3*x2", decide_injective, "periodic_pair"),
]


@pytest.mark.parametrize("source, decider, kind", CASES)
def test_json_witness_round_trips_through_validate(source, decider, kind):
    r = rule(source)
    data = witness_to_dict(decider(r).witness)
    assert data["kind"] == kind
    rebuilt = checks.witness_from_dict(r.m, data)
    assert rebuilt.validate(r)
    assert checks.witness_ok(r, data)


def _corrupt(data):
    data = dict(data)
    if data["kind"] == "unbalanced_word":
        data["count"] = data["expected"]
    elif data["kind"] == "diamond":
        data["v"] = list(data["u"])
    else:
        data["y"] = list(data["x"])
    return data


@pytest.mark.parametrize("source, decider, kind", CASES)
def test_corrupted_witness_fails(source, decider, kind):
    r = rule(source)
    data = _corrupt(witness_to_dict(decider(r).witness))
    assert not checks.witness_ok(r, data)


def test_witness_of_another_rule_fails():
    data = witness_to_dict(decide_injective(rule("m=7; d=2; f=x1^4+3*x2")).witness)
    assert not checks.witness_ok(rule("m=7; d=2; f=x1"), data)


def test_permutivity_collision_is_checked_against_the_rule():
    r = rule("m=4; d=1; f=x1^2+x2")
    data = {
        "kind": "permutivity_collision", "position": 1, "context": [0],
        "colliding_values": [0, 2], "output": 0,
    }
    assert checks.witness_ok(r, data)
    assert not checks.witness_ok(r, {**data, "colliding_values": [0, 1]})


def test_interpolation_check_rejects_wrong_coefficients():
    report = {"m": 5, "values": [1, 2, 0, 0, 0], "coefficients": [1, 1]}
    assert not checks.interpolation_holds(report)
    assert checks.interpolation_holds({**report, "values": [1, 2, 3, 4, 0]})
