"""JSON schemas for every report the command line emits.

The schemas are plain draft-07 dictionaries so tests can validate
reports with the jsonschema package without this module importing it.
SCHEMA_VERSION increments on any breaking shape change.
"""

from __future__ import annotations

SCHEMA_VERSION = 1

_VERDICT_VALUES = ["holds", "fails", "not_applicable"]

_INT_ARRAY = {"type": "array", "items": {"type": "integer"}}

_WITNESS = {
    "oneOf": [
        {"type": "null"},
        {
            "type": "object",
            "properties": {
                "kind": {"const": "unbalanced_word"},
                "word": _INT_ARRAY,
                "count": {"type": "integer"},
                "expected": {"type": "integer"},
            },
            "required": ["kind", "word", "count", "expected"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "diamond"},
                "u": _INT_ARRAY,
                "v": _INT_ARRAY,
            },
            "required": ["kind", "u", "v"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "periodic_pair"},
                "x": _INT_ARRAY,
                "y": _INT_ARRAY,
            },
            "required": ["kind", "x", "y"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "permutivity_collision"},
                "position": {"type": "integer"},
                "context": _INT_ARRAY,
                "colliding_values": _INT_ARRAY,
                "output": {"type": "integer"},
            },
            "required": ["kind", "position", "context", "colliding_values", "output"],
            "additionalProperties": False,
        },
    ]
}

_CRITERION = {
    "type": "object",
    "properties": {
        "criterion": {"type": "string"},
        "position": {"type": ["integer", "null"]},
        "value": {"enum": _VERDICT_VALUES},
        "raw_value": {"enum": _VERDICT_VALUES + [None]},
        "canonical_value": {"enum": _VERDICT_VALUES + [None]},
        "note": {"type": ["string", "null"]},
    },
    "required": ["criterion", "position", "value", "raw_value", "canonical_value", "note"],
    "additionalProperties": False,
}

_DISCREPANCY = {
    "type": "object",
    "properties": {
        "criterion": {"type": "string"},
        "position": {"type": ["integer", "null"]},
        "property": {"enum": ["permutive", "surjective", "injective", "bijective"]},
        "expected": {"type": "boolean"},
        "observed": {"type": "boolean"},
        "witness": _WITNESS,
    },
    "required": ["criterion", "position", "property", "expected", "observed", "witness"],
    "additionalProperties": False,
}

_CLASSIFICATION = {
    "type": "object",
    "properties": {
        "essential_positions": _INT_ARRAY,
        "components": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "position": {"type": "integer"},
                    "coefficient": {"type": "integer"},
                    "exponent": {"type": "integer"},
                },
                "required": ["position", "coefficient", "exponent"],
                "additionalProperties": False,
            },
        },
        "lr_separated": {"type": "boolean"},
        "totally_separated": {"type": "boolean"},
        "shift_like": {"type": "boolean"},
        "leftmost": {"type": ["integer", "null"]},
        "rightmost": {"type": ["integer", "null"]},
    },
    "required": [
        "essential_positions",
        "components",
        "lr_separated",
        "totally_separated",
        "shift_like",
        "leftmost",
        "rightmost",
    ],
    "additionalProperties": False,
}

_PERMUTIVE_LIST = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "position": {"type": "integer"},
            "verdict": {"type": "boolean"},
        },
        "required": ["position", "verdict"],
        "additionalProperties": False,
    },
}

_DECIDED = {
    "type": "object",
    "properties": {"verdict": {"type": "boolean"}, "witness": _WITNESS},
    "required": ["verdict", "witness"],
    "additionalProperties": False,
}

_TIMINGS = {
    "oneOf": [
        {"type": "null"},
        {
            "type": "object",
            "properties": {"seconds": {"type": "number"}},
            "required": ["seconds"],
            "additionalProperties": False,
        },
    ]
}

ANALYSIS_REPORT = {
    "type": "object",
    "properties": {
        "id": {"type": ["string", "null"]},
        "rule": {
            "type": "object",
            "properties": {
                "m": {"type": "integer"},
                "d": {"type": "integer"},
                "expression": {"type": ["string", "null"]},
                "table": _INT_ARRAY,
            },
            "required": ["m", "d", "expression", "table"],
            "additionalProperties": False,
        },
        "classification": _CLASSIFICATION,
        "permutive": _PERMUTIVE_LIST,
        "surjective": _DECIDED,
        "injective": _DECIDED,
        "criteria": {"type": "array", "items": _CRITERION},
        "discrepancies": {"type": "array", "items": _DISCREPANCY},
        "timings": _TIMINGS,
    },
    "required": [
        "id",
        "rule",
        "classification",
        "permutive",
        "surjective",
        "injective",
        "criteria",
        "discrepancies",
        "timings",
    ],
    "additionalProperties": False,
}

AUDIT_ROW = {
    "type": "object",
    "properties": {
        "id": {"type": "string"},
        "m": {"type": "integer"},
        "d": {"type": "integer"},
        "params": {"type": "object", "additionalProperties": {"type": "integer"}},
        "surjective": {"type": "boolean"},
        "injective": {"type": "boolean"},
        "permutive": _PERMUTIVE_LIST,
        "criteria": {"type": "array", "items": _CRITERION},
        "discrepancies": {"type": "array", "items": _DISCREPANCY},
    },
    "required": [
        "id",
        "m",
        "d",
        "params",
        "surjective",
        "injective",
        "permutive",
        "criteria",
        "discrepancies",
    ],
    "additionalProperties": False,
}

_ID_LIST = {
    "type": "object",
    "properties": {
        "count": {"type": "integer"},
        "ids": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["count", "ids"],
    "additionalProperties": False,
}

SCAN_REPORT = {
    "type": "object",
    "properties": {
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
    },
    "required": [
        "modulus",
        "diameter",
        "exponent_min",
        "exponent_max",
        "pi",
        "seed",
        "total_rules",
        "surjective_rules",
        "sufficiency_violations",
        "necessity_counterexamples",
        "runtime",
    ],
    "additionalProperties": False,
}

EXAMPLE_CHECK = {
    "type": "object",
    "properties": {
        "rule": {"type": "string"},
        "claim": {"type": "string"},
        "expected": {"type": "string"},
        "computed": {"type": "string"},
        "status": {"enum": ["CONFIRMED", "DISCREPANCY"]},
    },
    "required": ["rule", "claim", "expected", "computed", "status"],
    "additionalProperties": False,
}

EXAMPLES_REPORT = {
    "type": "object",
    "properties": {
        "checks": {"type": "array", "items": EXAMPLE_CHECK},
        "discrepancy_count": {"type": "integer"},
    },
    "required": ["checks", "discrepancy_count"],
    "additionalProperties": False,
}

WITNESS_REPORT = {
    "type": "object",
    "properties": {
        "rule": {
            "type": "object",
            "properties": {
                "m": {"type": "integer"},
                "d": {"type": "integer"},
                "expression": {"type": ["string", "null"]},
                "table": _INT_ARRAY,
            },
            "required": ["m", "d", "expression", "table"],
            "additionalProperties": False,
        },
        "injective": {"type": "boolean"},
        "witness": _WITNESS,
        "validated": {"type": ["boolean", "null"]},
    },
    "required": ["rule", "injective", "witness", "validated"],
    "additionalProperties": False,
}

INTERPOLATE_REPORT = {
    "type": "object",
    "properties": {
        "m": {"type": "integer"},
        "values": _INT_ARRAY,
        "representable": {"type": "boolean"},
        "polynomial": {"type": ["string", "null"]},
        "coefficients": {"oneOf": [{"type": "null"}, _INT_ARRAY]},
    },
    "required": ["m", "values", "representable", "polynomial", "coefficients"],
    "additionalProperties": False,
}

DOCUMENT = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {
            "type": "object",
            "properties": {
                "name": {"type": "string"},
                "argv": {"type": "array", "items": {"type": "string"}},
            },
            "required": ["name", "argv"],
            "additionalProperties": False,
        },
        "report": {"type": "object"},
        "witnesses": {"type": "array", "items": _WITNESS},
        "exit_status": {"type": "integer"},
    },
    "required": ["schema_version", "command", "report", "witnesses", "exit_status"],
    "additionalProperties": False,
}
