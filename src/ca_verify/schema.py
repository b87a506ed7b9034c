"""JSON schemas for every report the command line emits.

The schemas are plain draft-07 dictionaries so tests can validate
reports with the jsonschema package without this module importing it.
SCHEMA_VERSION increments on any breaking shape change.
"""

from __future__ import annotations

SCHEMA_VERSION = 1

_VERDICT_VALUES = ["holds", "fails", "not_applicable"]

_INT_ARRAY = {"type": "array", "items": {"type": "integer"}}


def _closed(properties: dict) -> dict:
    """An object with exactly these properties, every one of them required."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


_WITNESS = {
    "oneOf": [
        {"type": "null"},
        _closed({
            "kind": {"const": "unbalanced_word"},
            "word": _INT_ARRAY,
            "count": {"type": "integer"},
            "expected": {"type": "integer"},
        }),
        _closed({
            "kind": {"const": "diamond"},
            "u": _INT_ARRAY,
            "v": _INT_ARRAY,
        }),
        _closed({
            "kind": {"const": "periodic_pair"},
            "x": _INT_ARRAY,
            "y": _INT_ARRAY,
        }),
        _closed({
            "kind": {"const": "permutivity_collision"},
            "position": {"type": "integer"},
            "context": _INT_ARRAY,
            "colliding_values": _INT_ARRAY,
            "output": {"type": "integer"},
        }),
    ]
}

_CRITERION = _closed({
    "criterion": {"type": "string"},
    "position": {"type": ["integer", "null"]},
    "value": {"enum": _VERDICT_VALUES},
    "raw_value": {"enum": _VERDICT_VALUES + [None]},
    "canonical_value": {"enum": _VERDICT_VALUES + [None]},
    "note": {"type": ["string", "null"]},
})

_DISCREPANCY = _closed({
    "criterion": {"type": "string"},
    "position": {"type": ["integer", "null"]},
    "property": {"enum": ["permutive", "surjective", "injective", "bijective"]},
    "expected": {"type": "boolean"},
    "observed": {"type": "boolean"},
    "witness": _WITNESS,
})

_CLASSIFICATION = _closed({
    "essential_positions": _INT_ARRAY,
    "components": {
        "type": "array",
        "items": _closed({
            "position": {"type": "integer"},
            "coefficient": {"type": "integer"},
            "exponent": {"type": "integer"},
        }),
    },
    "lr_separated": {"type": "boolean"},
    "totally_separated": {"type": "boolean"},
    "shift_like": {"type": "boolean"},
    "leftmost": {"type": ["integer", "null"]},
    "rightmost": {"type": ["integer", "null"]},
})

_PERMUTIVE_LIST = {
    "type": "array",
    "items": _closed({
        "position": {"type": "integer"},
        "verdict": {"type": "boolean"},
    }),
}

_DECIDED = _closed({"verdict": {"type": "boolean"}, "witness": _WITNESS})

_TIMINGS = {
    "oneOf": [
        {"type": "null"},
        _closed({"seconds": {"type": "number"}}),
    ]
}

_RULE = _closed({
    "m": {"type": "integer"},
    "d": {"type": "integer"},
    "expression": {"type": ["string", "null"]},
    "table": _INT_ARRAY,
})

ANALYSIS_REPORT = _closed({
    "id": {"type": ["string", "null"]},
    "rule": _RULE,
    "classification": _CLASSIFICATION,
    "permutive": _PERMUTIVE_LIST,
    "surjective": _DECIDED,
    "injective": _DECIDED,
    "criteria": {"type": "array", "items": _CRITERION},
    "discrepancies": {"type": "array", "items": _DISCREPANCY},
    "timings": _TIMINGS,
})

AUDIT_ROW = _closed({
    "id": {"type": "string"},
    "m": {"type": "integer"},
    "d": {"type": "integer"},
    "params": {"type": "object", "additionalProperties": {"type": "integer"}},
    "surjective": {"type": "boolean"},
    "injective": {"type": "boolean"},
    "permutive": _PERMUTIVE_LIST,
    "criteria": {"type": "array", "items": _CRITERION},
    "discrepancies": {"type": "array", "items": _DISCREPANCY},
})

_ID_LIST = _closed({
    "count": {"type": "integer"},
    "ids": {"type": "array", "items": {"type": "string"}},
})

SCAN_REPORT = _closed({
    "modulus": {"type": "integer"},
    "diameter": {"type": "integer"},
    "exponent_min": {"type": "integer"},
    "exponent_max": {"type": "integer"},
    "pi": {"type": "string"},
    "seed": {"type": "integer"},
    "total_rules": {"type": "integer"},
    "surjective_rules": {"type": "integer"},
    "sufficiency_violations": _ID_LIST,
    "necessity_counterexamples": _ID_LIST,
    "runtime": _TIMINGS,
})

EXAMPLE_CHECK = _closed({
    "rule": {"type": "string"},
    "claim": {"type": "string"},
    "expected": {"type": "string"},
    "computed": {"type": "string"},
    "status": {"enum": ["CONFIRMED", "DISCREPANCY"]},
})

EXAMPLES_REPORT = _closed({
    "checks": {"type": "array", "items": EXAMPLE_CHECK},
    "discrepancy_count": {"type": "integer"},
})

WITNESS_REPORT = _closed({
    "rule": _RULE,
    "injective": {"type": "boolean"},
    "witness": _WITNESS,
    "validated": {"type": ["boolean", "null"]},
})

INTERPOLATE_REPORT = _closed({
    "m": {"type": "integer"},
    "values": _INT_ARRAY,
    "representable": {"type": "boolean"},
    "polynomial": {"type": ["string", "null"]},
    "coefficients": {"oneOf": [{"type": "null"}, _INT_ARRAY]},
})

DOCUMENT = _closed({
    "schema_version": {"const": SCHEMA_VERSION},
    "command": _closed({
        "name": {"type": "string"},
        "argv": {"type": "array", "items": {"type": "string"}},
    }),
    "report": {"type": "object"},
    "witnesses": {"type": "array", "items": _WITNESS},
    "exit_status": {"type": "integer"},
})
