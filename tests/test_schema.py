"""The stdlib schema check: whatever ``conforms`` accepts, jsonschema accepts.

``conforms`` is the CLI's fast accept; jsonschema stays the oracle and words
every rejection.  The property tests draw mutated fixtures and hostile
documents shaped like ``INPUT_SCHEMA`` and check the one-sided contract,
and that the CLI's message for a rejected document is jsonschema's own.
The compiled check answers what the interpreted walk in ``schema_walk``
answers, on those documents and on the benchmark's documents.
"""

import contextlib
import copy
import io
import json
import os
import random
import sys
from unittest import mock

import jsonschema
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lagmatch import cli
from lagmatch.fixtures import FIXTURES
from lagmatch.schema import INPUT_SCHEMA, KEYWORDS, SCHEMA_VERSION, conforms
from schema_walk import walk_conforms

VALIDATOR = jsonschema.Draft7Validator(INPUT_SCHEMA)
PROPERTY = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _subschemas(schema):
    yield schema
    for key, rule in schema.items():
        if key == "properties":
            for sub in rule.values():
                yield from _subschemas(sub)
        elif key == "anyOf":
            for sub in rule:
                yield from _subschemas(sub)
        elif key == "items":
            yield from _subschemas(rule)


def _schema_error(doc):
    return jsonschema.exceptions.best_match(VALIDATOR.iter_errors(doc))


def test_every_fixture_conforms():
    for name, doc in FIXTURES.items():
        assert conforms(doc), name


def test_conforms_reads_every_keyword_of_the_schema():
    """A keyword the walk does not read would send every document to jsonschema."""
    root = {k for k in INPUT_SCHEMA if k not in ("$schema", "$id")}
    used = root.union(*(sub.keys() for sub in list(_subschemas(INPUT_SCHEMA))[1:]))
    assert used <= KEYWORDS.keys(), used - KEYWORDS.keys()


def test_conforms_is_stricter_than_jsonschema_on_types():
    """A bool is not an integer and 2.0 is not one either; jsonschema takes the 2.0."""
    base = copy.deepcopy(FIXTURES["sphere-cycle"])
    for n0, valid in ((True, False), (2.0, True), ("12", True), ("12\n", True), ("1.5", False)):
        base["morse_cycle"]["n0"] = n0
        assert conforms(base) == (valid and type(n0) is str), n0
        assert (_schema_error(base) is None) == valid, n0


# -- hypothesis: mutated fixtures and schema-shaped documents ---------------

NAMES = sorted({k for sub in _subschemas(INPUT_SCHEMA) for k in sub.get("properties", {})})
KEYS = st.sampled_from(NAMES) | st.text(max_size=3)
LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, 1.0, 2.0, -1.0])
    | st.sampled_from(["", "0", "-7", "12\n", "1.5", " 3", "-", SCHEMA_VERSION, "down", "twist"])
    | st.text(max_size=4)
)
HOSTILE = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8,
)


def shaped(schema, depth=0):
    """Values that mostly follow ``schema``, with hostile values mixed in."""
    hostile = HOSTILE if depth < 6 else LEAVES
    if "anyOf" in schema:
        follow = st.one_of([shaped(sub, depth + 1) for sub in schema["anyOf"]])
    elif "const" in schema:
        follow = st.just(schema["const"])
    elif "enum" in schema:
        follow = st.sampled_from(schema["enum"])
    elif schema.get("type") == "object":
        props = schema.get("properties", {}) if depth < 6 else {}
        required = [k for k in schema.get("required", ()) if k in props]
        follow = st.fixed_dictionaries(
            {k: shaped(props[k], depth + 1) for k in required},
            optional={k: shaped(sub, depth + 1) for k, sub in props.items() if k not in required},
        )
    elif schema.get("type") == "array":
        lo = schema.get("minItems", 0)
        follow = st.lists(shaped(schema["items"], depth + 1), min_size=max(lo - 1, 0),
                          max_size=schema.get("maxItems", lo + 2) + 1) if depth < 6 else st.just([])
    elif schema.get("type") == "string":
        follow = st.from_regex(schema["pattern"]) if "pattern" in schema else st.text(max_size=3)
    elif schema.get("type") == "integer":
        follow = st.integers(-5, 5) | st.sampled_from([0.0, 2.0, -1.0])
    elif schema.get("type") == "number":
        follow = st.floats(-2, 2) | st.integers(-2, 2)
    elif schema.get("type") == "boolean":
        follow = st.booleans()
    else:
        follow = HOSTILE
    return st.integers(0, 15).flatmap(lambda n: hostile if n == 0 else follow)


@st.composite
def mutated_fixtures(draw):
    """A fixture with one entry somewhere replaced, deleted or added."""
    doc = copy.deepcopy(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    node = doc
    while True:
        children = list(node.items()) if isinstance(node, dict) else list(enumerate(node))
        key, child = draw(st.sampled_from(children))
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            node[key] = draw(HOSTILE)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(KEYS)] = draw(HOSTILE)
        else:
            node.append(draw(HOSTILE))
        return doc


DOCUMENTS = mutated_fixtures() | shaped(INPUT_SCHEMA).filter(lambda d: isinstance(d, dict))


@PROPERTY
@given(doc=DOCUMENTS)
def test_conforms_implies_jsonschema_accepts(doc):
    """jsonschema accepts a conforming document, and the float walk, which
    the CLI skips on one, finds nothing in it."""
    if conforms(doc):
        assert _schema_error(doc) is None
        cli._reject_floats(doc)


def test_numbers_are_due_only_under_cz():
    """``conforms`` takes exact ints, so only a ``"number"`` rule lets a float
    through, and the float walk skips ``cz``: on a conforming document the
    walk has nothing to find."""
    sections = INPUT_SCHEMA["properties"]
    types = {name: {sub.get("type") for sub in _subschemas(rule)} for name, rule in sections.items()}
    assert "number" in types["cz"]
    assert [name for name, found in types.items() if "number" in found] == ["cz"]


@PROPERTY
@given(doc=DOCUMENTS)
def test_rejected_documents_get_the_jsonschema_message(doc):
    text = json.dumps(doc)
    err = _schema_error(json.loads(text))
    if err is None:
        return
    where = "/".join(str(p) for p in err.absolute_path) or "(root)"
    out, errout = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(errout):
        code = cli.main(["dim", "--input", "-"])
    assert (code, out.getvalue()) == (2, "")
    assert errout.getvalue() == f"error: schema violation at {where}: {err.message}\n"


# -- the compiled check against the interpreted walk -------------------------

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@PROPERTY
@given(doc=DOCUMENTS)
def test_compiled_check_answers_what_the_walk_answers(doc):
    assert conforms(doc) == walk_conforms(doc)


def _benchmark_documents(workdir):
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    for seed in (1, 2):
        for make in (workloads.doc_batch, workloads.cycle_eval):
            for op in make(seed, 0, str(workdir)):
                if op.doc_path is not None:
                    with open(op.doc_path, encoding="utf-8") as fh:
                        yield json.load(fh)


def _leaves(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _leaves(child, path + (key,))


def test_compiled_check_answers_what_the_walk_answers_on_benchmark_documents(tmp_path):
    """Every generated document and fixture, and each with one node replaced or dropped."""
    rng = random.Random(12)
    docs = list(_benchmark_documents(tmp_path)) + [copy.deepcopy(d) for d in FIXTURES.values()]
    for doc in docs:
        assert conforms(doc) and walk_conforms(doc)
        paths = list(_leaves(doc))
        for path in rng.sample(paths, min(len(paths), 12)):
            mutated = copy.deepcopy(doc)
            *parents, last = path
            node = mutated
            for key in parents:
                node = node[key]
            replacement = rng.choice([None, True, 1.5, 2, "x", "-3", [], [[]], {}, {"kind": "up"}])
            if rng.random() < 0.2:
                del node[last]
            else:
                node[last] = replacement
            assert conforms(mutated) == walk_conforms(mutated), path
