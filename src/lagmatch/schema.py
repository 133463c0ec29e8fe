"""The versioned JSON Schema for ``lagmatch`` input documents.

Input documents are JSON objects with a mandatory ``schema`` version tag
and one or more sections; each CLI subcommand reads the sections it needs
(``dim`` and ``gradings`` read ``fibration``/``spinc``/``query``,
``tqft-eval`` reads ``morse_cycle``, ``cz`` reads ``cz``).

Integers may be written as JSON numbers or as digit strings ("-123") so
that values beyond 53 bits survive JSON round trips; floating point
numbers are rejected everywhere except inside ``cz`` sample matrices.
JSON Schema alone cannot tell 2 from 2.0, and ``conforms`` takes exact
ints, so the CLI enforces that float rule on the documents that
jsonschema accepts and ``conforms`` does not.

Valid documents are accepted by ``conforms``, a standard-library check
against ``INPUT_SCHEMA`` alone, of the few draft-07 keywords it uses,
compiled into closures on first use.  It is conservative, so a document
it accepts is one jsonschema accepts too.  Only a document it does not accept goes to
jsonschema, which words every rejection (and accepts what the check was
too strict for, such as the number 2.0 where an integer is due).

To print the schema document:

    python -c "import json, lagmatch.schema as s; print(json.dumps(s.INPUT_SCHEMA, indent=2))"
"""

from __future__ import annotations

import functools
import re
from itertools import chain
from typing import Any, Callable, NamedTuple

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
            "required": ["n_gamma", "n", "g"],
            "additionalProperties": False,
            "properties": {
                "n_gamma": _INTLIKE,
                "n": _INTLIKE,
                "g": _INTLIKE,
            },
        },
    },
}


# Exact Python types per JSON type: a bool is neither an integer nor a
# number here, and 2.0 is not an integer, which is stricter than jsonschema.
_EXACT_TYPES = {
    "object": frozenset({dict}),
    "array": frozenset({list}),
    "string": frozenset({str}),
    "integer": frozenset({int}),
    "number": frozenset({int, float}),
    "boolean": frozenset({bool}),
}

Check = Callable[[Any], bool]


class _Compiled(NamedTuple):
    one: Check  # does this value conform
    every: Callable[[list], bool]  # does every value of this list conform


def _compile(schema: dict) -> _Compiled:
    """The schema as closures: one check per keyword, built once.

    ``every`` answers for a whole list at once.  For a bare type that is one
    set of the values' types; for an array schema, the arrays' types and
    lengths and then ``every`` of its items over all their elements chained
    together, so a matrix of numbers is checked without a call per row.
    """
    # The type first: it is the cheapest refusal and the most common one.
    checks = [KEYWORDS[key](rule, schema)
              for key, rule in sorted(schema.items(), key=lambda item: item[0] != "type")]

    def one(value: Any) -> bool:
        for check in checks:
            if not check(value):
                return False
        return True

    if schema.keys() == {"type"}:
        types = _EXACT_TYPES[schema["type"]]
        return _Compiled(checks[0], lambda values: set(map(type, values)) <= types)
    if (schema.get("type") == "array"
            and schema.keys() <= {"type", "items", "minItems", "maxItems"}):
        return _Compiled(one, _every_array(schema))
    if schema.keys() == {"anyOf"}:
        alternatives = [_compile(sub).every for sub in schema["anyOf"]]

        def every_any(values: list) -> bool:
            # One alternative that takes them all decides; else value by value.
            return any(every(values) for every in alternatives) or all(map(one, values))

        return _Compiled(one, every_any)
    return _Compiled(one, lambda values: all(map(one, values)))


def _every_array(schema: dict) -> Callable[[list], bool]:
    items = _compile(schema["items"]).every
    lo, hi = schema.get("minItems"), schema.get("maxItems")

    def every(values: list) -> bool:
        if not set(map(type, values)) <= _EXACT_TYPES["array"]:
            return False
        if values and (lo is not None or hi is not None):
            lengths = set(map(len, values))
            if (lo is not None and min(lengths) < lo) or (hi is not None and max(lengths) > hi):
                return False
        return items(list(chain.from_iterable(values)))

    return every


def _type(rule: Any, schema: dict) -> Check:
    types = _EXACT_TYPES[rule]
    return lambda v: type(v) in types


def _pattern(rule: Any, schema: dict) -> Check:
    search = re.compile(rule).search
    return lambda v: not isinstance(v, str) or search(v) is not None


def _properties(rule: Any, schema: dict) -> Check:
    subs = [(key, _compile(sub).one) for key, sub in rule.items()]
    return lambda v: not isinstance(v, dict) or all(check(v[k]) for k, check in subs if k in v)


def _additional(rule: Any, schema: dict) -> Check:
    known = frozenset(schema.get("properties", ()))
    return lambda v: not isinstance(v, dict) or v.keys() <= known


def _items(rule: Any, schema: dict) -> Check:
    every = _compile(rule).every
    return lambda v: not isinstance(v, list) or every(v)


def _any_of(rule: Any, schema: dict) -> Check:
    alternatives = [_compile(sub).one for sub in rule]
    return lambda v: any(check(v) for check in alternatives)


# Each keyword's compiler: (rule, enclosing schema) -> check of one value.
# Like jsonschema, a keyword about one JSON type holds vacuously for values
# of other types.  They read the rules as INPUT_SCHEMA writes them: a type
# is one name, const and enum options are strings, items is one schema and
# additionalProperties is false.
KEYWORDS: dict[str, Callable[[Any, dict], Check]] = {
    "type": _type,
    "const": lambda rule, s: lambda v: type(v) is str and v == rule,
    "enum": lambda rule, s: lambda v: type(v) is str and v in rule,
    "pattern": _pattern,
    "anyOf": _any_of,
    "required": lambda rule, s: lambda v: not isinstance(v, dict) or all(k in v for k in rule),
    "properties": _properties,
    "additionalProperties": _additional,
    "items": _items,
    "minItems": lambda rule, s: lambda v: not isinstance(v, list) or len(v) >= rule,
    "maxItems": lambda rule, s: lambda v: not isinstance(v, list) or len(v) <= rule,
    "minProperties": lambda rule, s: lambda v: not isinstance(v, dict) or len(v) >= rule,
    "maxProperties": lambda rule, s: lambda v: not isinstance(v, dict) or len(v) <= rule,
}


@functools.cache
def _input_check() -> Check:
    """INPUT_SCHEMA compiled, on first use; ``$schema`` and ``$id`` name it."""
    return _compile({k: r for k, r in INPUT_SCHEMA.items() if k not in ("$schema", "$id")}).one


def conforms(value: Any) -> bool:
    """True only if jsonschema finds ``value`` valid against ``INPUT_SCHEMA``.

    The exact types above are stricter than jsonschema, so a False says
    nothing about validity.
    """
    return _input_check()(value)
