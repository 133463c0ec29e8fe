"""The interpreted schema walk that ``lagmatch.schema.conforms`` was before it
was compiled, kept as the oracle the compiled check must agree with.

It reads ``schema`` afresh for every value: one call per node and per
array element.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import Any, Callable

from lagmatch.schema import INPUT_SCHEMA

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


def walk_conforms(value: Any, schema: dict = INPUT_SCHEMA) -> bool:
    """What ``lagmatch.schema.conforms`` answers, by walking ``schema`` node by node."""
    if schema.get("$schema", _DRAFT_07) != _DRAFT_07:
        return False
    return _conforms(value, {k: r for k, r in schema.items() if k not in ("$schema", "$id")})
