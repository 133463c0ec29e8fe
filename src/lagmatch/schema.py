"""The versioned JSON Schema for ``lagmatch`` input documents.

Input documents are JSON objects with a mandatory ``schema`` version tag
and one or more sections; each CLI subcommand reads the sections it needs
(``dim`` and ``gradings`` read ``fibration``/``spinc``/``query``,
``tqft-eval`` reads ``morse_cycle``, ``cz`` reads ``cz``).

Integers may be written as JSON numbers or as digit strings ("-123") so
that values beyond 53 bits survive JSON round trips; floating point
numbers are rejected everywhere except inside ``cz`` sample matrices.
That float rule is enforced by the CLI after validation, since JSON Schema
alone cannot distinguish 2 from 2.0.

Valid documents are accepted by ``conforms``, a standard-library walk of
the few draft-07 keywords this schema uses; it is conservative, so a
document it accepts is one jsonschema accepts too.  Only a document it
does not accept goes to jsonschema, which words every rejection (and
accepts what the walk was too strict for, such as the number 2.0 where
an integer is due).

To print the schema document:

    python -c "import json, lagmatch.schema as s; print(json.dumps(s.INPUT_SCHEMA, indent=2))"
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import Any, Callable

SCHEMA_VERSION = "lagmatch-input@1"

_INTLIKE = {
    "anyOf": [
        {"type": "integer"},
        {"type": "string", "pattern": "^-?[0-9]+$"},
    ]
}

_INT_ARRAY = {"type": "array", "items": _INTLIKE}

_INT_MATRIX = {"type": "array", "items": _INT_ARRAY}

_NUM_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "items": {"type": "number"}},
}

_MATRIX_PATH = {"type": "array", "minItems": 1, "items": _NUM_MATRIX}

INPUT_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": SCHEMA_VERSION,
    "type": "object",
    "additionalProperties": False,
    "required": ["schema"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "fibration": {
            "type": "object",
            "additionalProperties": False,
            "required": ["regions", "h2"],
            "properties": {
                "regions": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["chi_base", "fibers"],
                        "properties": {
                            "chi_base": _INTLIKE,
                            "fibers": {
                                "type": "array",
                                "minItems": 1,
                                "maxItems": 2,
                                "items": {
                                    "type": "object",
                                    "additionalProperties": False,
                                    "required": ["genus"],
                                    "properties": {
                                        "genus": _INTLIKE,
                                        "class": _INT_ARRAY,
                                    },
                                },
                            },
                        },
                    },
                },
                "round_circles": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["orientable"],
                        "properties": {"orientable": {"type": "boolean"}},
                    },
                },
                "lefschetz_points": _INTLIKE,
                "signature": _INTLIKE,
                "h2": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["form", "canonical"],
                    "properties": {
                        "form": _INT_MATRIX,
                        "canonical": _INT_ARRAY,
                    },
                },
            },
        },
        "spinc": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "minProperties": 1,
                "maxProperties": 1,
                "properties": {
                    "c1": _INT_ARRAY,
                    "beta": _INT_ARRAY,
                },
            },
        },
        "morse_cycle": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n0", "fibers", "moves"],
            "properties": {
                "n0": _INTLIKE,
                "fibers": {"type": "array", "minItems": 1, "items": _INTLIKE},
                "moves": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["kind"],
                        "properties": {
                            "kind": {"enum": ["down", "up", "twist"]},
                            "circle": _INT_ARRAY,
                            "matrix": _INT_MATRIX,
                        },
                    },
                },
            },
        },
        "cz": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "samples": _MATRIX_PATH,
                "paths": {"type": "array", "minItems": 1, "items": _MATRIX_PATH},
            },
        },
        "query": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_gamma": _INTLIKE,
                "n": _INTLIKE,
                "g": _INTLIKE,
            },
        },
    },
}


_DRAFT_07 = "http://json-schema.org/draft-07/schema#"

# Exact Python types per JSON type: a bool is neither an integer nor a
# number here, and 2.0 is not an integer, which is stricter than jsonschema.
_EXACT_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
}


def _types(rule: Any) -> tuple[type, ...]:
    return _EXACT_TYPES.get(rule, ()) if type(rule) is str else ()


def _all_conform(values: list, schema: dict) -> bool:
    if schema.keys() == {"type"}:  # the common leaf: a row of numbers, say
        types = _types(schema["type"])
        return all(type(x) in types for x in values)
    return all(map(_conforms, values, repeat(schema)))


# Each keyword's check of (value, rule, enclosing schema).  Like jsonschema,
# a keyword about one JSON type holds vacuously for values of other types.
KEYWORDS: dict[str, Callable[[Any, Any, dict], bool]] = {
    "type": lambda v, rule, s: type(v) in _types(rule),
    "const": lambda v, rule, s: type(v) is str and type(rule) is str and v == rule,
    "enum": lambda v, rule, s: type(v) is str and any(type(o) is str and v == o for o in rule),
    "pattern": lambda v, rule, s: not isinstance(v, str) or re.search(rule, v) is not None,
    "anyOf": lambda v, rule, s: any(_conforms(v, sub) for sub in rule),
    "required": lambda v, rule, s: not isinstance(v, dict) or all(k in v for k in rule),
    "properties": lambda v, rule, s: not isinstance(v, dict) or all(
        _conforms(v[k], sub) for k, sub in rule.items() if k in v),
    "additionalProperties": lambda v, rule, s: rule is False and (
        not isinstance(v, dict) or all(k in s.get("properties", ()) for k in v)),
    "items": lambda v, rule, s: type(rule) is dict and (
        not isinstance(v, list) or _all_conform(v, rule)),
    "minItems": lambda v, rule, s: not isinstance(v, list) or len(v) >= rule,
    "maxItems": lambda v, rule, s: not isinstance(v, list) or len(v) <= rule,
    "minProperties": lambda v, rule, s: not isinstance(v, dict) or len(v) >= rule,
    "maxProperties": lambda v, rule, s: not isinstance(v, dict) or len(v) <= rule,
}


def _unknown(value: Any, rule: Any, schema: dict) -> bool:
    return False


def _conforms(value: Any, schema: dict) -> bool:
    # The type first: it is the cheapest refusal and the most common one.
    if "type" in schema and type(value) not in _types(schema["type"]):
        return False
    for key, rule in schema.items():
        if not KEYWORDS.get(key, _unknown)(value, rule, schema):
            return False
    return True


def conforms(value: Any, schema: dict = INPUT_SCHEMA) -> bool:
    """True only if jsonschema finds ``value`` valid against ``schema``.

    False for any keyword outside ``KEYWORDS`` (``$schema``, draft-07 only,
    and ``$id`` are read at the root), and whenever the exact types above
    are stricter than jsonschema; a False says nothing about validity.
    """
    if schema.get("$schema", _DRAFT_07) != _DRAFT_07:
        return False
    return _conforms(value, {k: r for k, r in schema.items() if k not in ("$schema", "$id")})
