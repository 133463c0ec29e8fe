"""Spans around lagmatch's layers, installed from outside the package.

``install`` replaces each layer's public functions with wrappers in the
namespace where their caller looks them up (``ext_power_action`` as
``tqft`` sees it, ``jsonschema.validate`` as ``cli`` sees it), and
``Tracer.restore`` puts the originals back.  Spans (name, start, end,
parent, op) stay in memory until the run writes them out; a layer's self
time is its spans' durations minus the part covered by child spans.

Hot leaf functions (``wedge``, the genus-0 quantum U-step, ``SymSpace``
construction) are counted, not timed, so their cost stays inside the
enclosing span and the tracing overhead stays small.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

_MISSING = object()

# span name -> per-layer metric of its self time
SELF_MS = {
    "op": "cli.main.ms",
    "load": "load.ms",
    "validate": "validate.ms",
    "check_schema": "validate.check_schema_ms",
    "float_walk": "float_walk.ms",
    "parse": "parse.ms",
    "render": "render.ms",
    "spinc": "spinc.ms",
    "czindex": "czindex.ms",
    "tqft.evaluate": "tqft.supertrace.ms",
    "tqft.alexander": "tqft.alexander.ms",
    "tqft.example": "tqft.example.ms",
    "tqft.move_matrix": "tqft.move_matrix.ms",
    "tqft.compose": "tqft.compose.ms",
    "exterior.ext_power_action": "exterior.ext_power_action.ms",
    "exterior.contract": "exterior.contract.ms",
    "exterior.adapted_basis": "exterior.adapted_basis.ms",
    "symprod.basis": "symprod.basis.ms",
}

# span name -> per-layer metric counting its spans
CALLS = {
    "validate": "validate.calls",
    "tqft.move_matrix": "tqft.move_matrix.calls",
    "tqft.compose": "tqft.compose.calls",
    "exterior.ext_power_action": "exterior.ext_power_action.calls",
    "symprod.basis": "symprod.basis.calls",
}

# counters kept by the wrappers themselves
COUNTS = (
    "exterior.wedge.calls",
    "symprod.quantum_u.calls",
    "tqft.compose.mults",
    "tqft.state_dim.sum",
    "tqft.state_dim.max",
    "spinc.entries",
    "czindex.samples",
    "czindex.crossings",
    "load.doc_bytes",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Any] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][1] == name:
                # A recursive call stays inside its caller's span.
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1][0] if stack else -1, self.op)
            if after is not None:
                after(self.counts, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round self times (ms) and counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {metric: 0.0 for metric in SELF_MS.values()}
        out.update({metric: 0 for metric in CALLS.values()})
        out.update({metric: 0 for metric in COUNTS})
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[SELF_MS[name]] += (end - start - child) * 1e3
            if name in CALLS:
                out[CALLS[name]] += 1
        for metric, value in self.counts.items():
            out[metric] += value
        return {k: (v if k == "tqft.state_dim.max" else v / rounds) for k, v in out.items()}

    def absorb(self, spans: list, counts: dict) -> None:
        """Add the spans and counts written by a traced child process."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, self.op))
        for metric, value in counts.items():
            if metric == "tqft.state_dim.max":
                self.counts[metric] = max(self.counts[metric], value)
            else:
                self.counts[metric] += value

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _after_compose(counts: Counter, args: tuple, result: Any) -> None:
    left, right = args
    counts["tqft.compose.mults"] += left.dst.dim * left.src.dim * right.src.dim


def _after_spinc_entries(counts: Counter, args: tuple, result: Any) -> None:
    counts["spinc.entries"] += len(result)


def _after_cz(counts: Counter, args: tuple, result: Any) -> None:
    counts["czindex.samples"] += len(args[0])
    counts["czindex.crossings"] += result.crossings


def _counted(counts: Counter, name: str, fn: Callable) -> Callable:
    def counted(*args: Any, **kwargs: Any) -> Any:
        counts[name] += 1
        return fn(*args, **kwargs)

    return functools.update_wrapper(counted, fn)


class _ModuleView:
    """Stands in for a module in one caller's namespace, overriding some names."""

    def __init__(self, module: Any, **overrides: Any) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def install(tracer: Tracer) -> None:
    import jsonschema
    import jsonschema.validators

    from lagmatch import cli, exterior, schema, tqft

    t = tracer
    t.patch(cli, "jsonschema", _ModuleView(jsonschema, validate=t.wrap("validate", jsonschema.validate)))
    validator = jsonschema.validators.validator_for(schema.INPUT_SCHEMA)
    check_schema = next(vars(k)["check_schema"] for k in validator.__mro__ if "check_schema" in vars(k))
    t.patch(validator, "check_schema", classmethod(t.wrap("check_schema", check_schema.__func__)))

    for name, layer in (
        ("_load_document", "load"),
        ("_reject_floats", "float_walk"),
        ("_parse_cycle", "parse"),
        ("_parse_descriptor", "parse"),
        ("_render", "render"),
        ("evaluate_cycle", "tqft.evaluate"),
        ("alexander_fibered", "tqft.alexander"),
        ("alexander_cycle_value", "tqft.alexander"),
        ("worked_example", "tqft.example"),
        ("euler_characteristic", "spinc"),
        ("common_fiber_pairing", "spinc"),
        ("nu_function", "spinc"),
        ("admissibility", "spinc"),
        ("c1_squared", "spinc"),
        ("formal_dimension", "spinc"),
        ("taubes_convert", "spinc"),
        ("grading_modulus", "spinc"),
        ("divisibility_check", "spinc"),
    ):
        t.patch(cli, name, t.wrap(layer, getattr(cli, name)))
    t.patch(cli, "_parse_spinc_entries", t.wrap("parse", cli._parse_spinc_entries, _after_spinc_entries))
    t.patch(cli, "conley_zehnder", t.wrap("czindex", cli.conley_zehnder, _after_cz))

    for name, layer in (
        ("move_matrix", "tqft.move_matrix"),
        ("ext_power_action", "exterior.ext_power_action"),
        ("contract", "exterior.contract"),
        ("adapted_basis", "exterior.adapted_basis"),
        ("basis", "symprod.basis"),
    ):
        t.patch(tqft, name, t.wrap(layer, getattr(tqft, name)))
    t.patch(tqft.SymLinearMap, "__matmul__",
            t.wrap("tqft.compose", tqft.SymLinearMap.__matmul__, _after_compose))
    t.patch(tqft, "cap_U_quantum_g0", _counted(t.counts, "symprod.quantum_u.calls", tqft.cap_U_quantum_g0))
    t.patch(exterior, "wedge", _counted(t.counts, "exterior.wedge.calls", exterior.wedge))

    init = tqft.SymSpace.__init__
    counts = t.counts

    def space_init(space: Any, *args: Any, **kwargs: Any) -> None:
        init(space, *args, **kwargs)
        counts["tqft.state_dim.sum"] += space.dim
        counts["tqft.state_dim.max"] = max(counts["tqft.state_dim.max"], space.dim)

    t.patch(tqft.SymSpace, "__init__", functools.update_wrapper(space_init, init))


def traced_cli(argv: list[str]) -> int:
    """Run one traced ``lagmatch`` command and write its spans to $PERFBENCH_SPANS."""
    from lagmatch import cli

    tracer = Tracer()
    install(tracer)
    try:
        code = tracer.wrap("op", cli.main)(argv)
    finally:
        tracer.restore()
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    sys.stdout.flush()
    return code
