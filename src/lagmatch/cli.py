"""The ``lagmatch`` command line interface.

Subcommands::

    lagmatch dim       --input FILE   formal dimensions and admissibility
    lagmatch tqft-eval --input FILE   evaluate a closed cycle of moves
    lagmatch example NAME --m M --n N run a built-in closed-manifold example
    lagmatch cz        --input FILE   Conley-Zehnder indices of sampled paths
    lagmatch gradings  --input FILE   grading moduli and divisibility checks

``--input`` accepts a path, ``-`` for stdin, or ``fixture:NAME`` for one of
the embedded documents.  Documents are validated against the published
JSON Schema (see ``lagmatch.schema``); every subcommand writes its report
to stdout (``--json`` for JSON, key/value lines otherwise) and diagnostics
to stderr.

Exit codes: 0 success; 2 malformed input (bad JSON, schema violations,
unknown examples or fixtures, bad parameters); 3 inconsistent mathematics
(descriptor inconsistencies, non-closing cycles, degenerate endpoints);
4 resolution guard (sampling too coarse to certify a crossing count).

Output is byte-identical across runs.  LAGMATCH_THREADS is validated (a
positive integer, default 1) but the exact arithmetic engine is
sequential, so the value never changes any output.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Any, Sequence

import jsonschema

from .czindex import DegenerateEndpoint, ResolutionError, conley_zehnder
from .exterior import SpMatrix, SymplecticLattice
from .fixtures import FIXTURES
from .schema import INPUT_SCHEMA
from .spinc import (
    DescriptorError,
    FiberComponent,
    FibrationDescriptor,
    H2Model,
    InadmissibleError,
    Region,
    SpinC,
    admissibility,
    c1_squared,
    common_fiber_pairing,
    divisibility_check,
    euler_characteristic,
    formal_dimension,
    grading_modulus,
    nu_function,
    taubes_convert,
)
from .symprod import RegimeViolation, RelationNeeded, poincare_polynomial_dimension
from .tqft import (
    ElementaryMove,
    MorseCycle,
    NonClosingCycle,
    alexander_cycle_value,
    alexander_fibered,
    evaluate_cycle,
    worked_example,
)

_MAX_JSON_INT = 2**53 - 1


class _Exit(Exception):
    """Internal control flow: carry an exit code and a diagnostic."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _as_int(value: Any, what: str) -> int:
    if isinstance(value, bool):
        raise _Exit(2, f"{what}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        try:
            return int(value)
        except ValueError:  # longer than the interpreter's int_max_str_digits
            raise _Exit(2, f"{what}: digit string too long ({len(value)} characters)") from None
    raise _Exit(2, f"{what}: expected an integer or digit string, got {value!r}")


def _as_int_list(values: Any, what: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise _Exit(2, f"{what}: expected a list")
    return tuple(_as_int(v, f"{what}[{i}]") for i, v in enumerate(values))


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _jsonable(int(value))
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value if abs(value) <= _MAX_JSON_INT else str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    raise TypeError(f"unrenderable report value {value!r}")


def _reject_floats(value: Any, path: tuple[Any, ...] = ()) -> None:
    """Floats are only legal inside the cz section's sample matrices."""
    if isinstance(value, float):
        if path and path[0] == "cz":
            return
        dotted = ".".join(str(p) for p in path) or "(root)"
        raise _Exit(2, f"floating point value at {dotted}: only cz samples may be floats")
    if isinstance(value, list):
        for i, v in enumerate(value):
            _reject_floats(v, path + (i,))
    elif isinstance(value, dict):
        for k, v in value.items():
            _reject_floats(v, path + (k,))


@functools.cache
def _schema_validator() -> Any:
    """A validator for INPUT_SCHEMA, built on first use.

    The constant schema is checked against its meta-schema once per
    process; ``jsonschema.validate`` would repeat that on every document.
    """
    cls = jsonschema.validators.validator_for(INPUT_SCHEMA)
    cls.check_schema(INPUT_SCHEMA)
    return cls(INPUT_SCHEMA)


def _load_document(source: str | None) -> dict:
    if source is None:
        raise _Exit(2, "an input document is required: --input FILE, --input -, "
                       "or --input fixture:NAME")
    if source.startswith("fixture:"):
        name = source[len("fixture:"):]
        if name not in FIXTURES:
            known = ", ".join(sorted(FIXTURES))
            raise _Exit(2, f"unknown fixture {name!r}; known fixtures: {known}")
        doc = copy.deepcopy(FIXTURES[name])
    else:
        try:
            text = sys.stdin.read() if source == "-" else open(source, "r", encoding="utf-8").read()
        except OSError as err:
            raise _Exit(2, f"cannot read input: {err}") from err
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise _Exit(2, f"malformed JSON: {err}") from err
    if not isinstance(doc, dict):
        raise _Exit(2, "input document must be a JSON object")
    err = jsonschema.exceptions.best_match(_schema_validator().iter_errors(doc))
    if err is not None:
        where = "/".join(str(p) for p in err.absolute_path) or "(root)"
        raise _Exit(2, f"schema violation at {where}: {err.message}")
    _reject_floats(doc)
    return doc


def _section(doc: dict, name: str) -> Any:
    if name not in doc:
        raise _Exit(2, f"this subcommand needs the {name!r} section in the input document")
    return doc[name]


# -- document -> domain objects ----------------------------------------


def _parse_descriptor(raw: dict) -> FibrationDescriptor:
    h2_raw = raw["h2"]
    form = tuple(_as_int_list(row, "h2.form row") for row in h2_raw["form"])
    h2 = H2Model(form=form, canonical=_as_int_list(h2_raw["canonical"], "h2.canonical"))
    regions = []
    for r, region in enumerate(raw["regions"]):
        fibers = []
        for f in region["fibers"]:
            cls = _as_int_list(f["class"], f"region {r} class") if "class" in f else None
            fibers.append(FiberComponent(genus=_as_int(f["genus"], f"region {r} genus"),
                                         h2_class=cls))
        regions.append(Region(chi_base=_as_int(region["chi_base"], f"region {r} chi_base"),
                              fibers=tuple(fibers)))
    circles = tuple(bool(c["orientable"]) for c in raw.get("round_circles", []))
    return FibrationDescriptor(
        regions=regions,
        round_circles=circles,
        lefschetz_points=_as_int(raw.get("lefschetz_points", 0), "lefschetz_points"),
        signature=_as_int(raw.get("signature", 0), "signature"),
        h2=h2,
    )


def _parse_cycle(raw: dict) -> MorseCycle:
    fibers = _as_int_list(raw["fibers"], "morse_cycle.fibers")
    moves = []
    for j, move in enumerate(raw["moves"]):
        kind = move["kind"]
        if kind == "twist":
            if "matrix" not in move:
                raise _Exit(2, f"move {j}: twist moves need a matrix")
            g = fibers[j] if j < len(fibers) else 0
            rows = [_as_int_list(row, f"move {j} matrix row") for row in move["matrix"]]
            moves.append(ElementaryMove.twist(SpMatrix(SymplecticLattice(g), rows)))
        else:
            if "circle" not in move:
                raise _Exit(2, f"move {j}: {kind} moves need a circle")
            circle = _as_int_list(move["circle"], f"move {j} circle")
            moves.append(ElementaryMove(kind, circle=circle))
    return MorseCycle(fibers=fibers, moves=moves, n0=_as_int(raw["n0"], "morse_cycle.n0"))


def _parse_spinc_entries(
    doc: dict, descriptor: FibrationDescriptor | None
) -> list[tuple[SpinC, tuple[int, ...] | None]]:
    entries = []
    for k, entry in enumerate(_section(doc, "spinc")):
        if "c1" in entry:
            c1 = _as_int_list(entry["c1"], f"spinc[{k}].c1")
            if descriptor is not None and len(c1) != descriptor.h2.rank:
                raise _Exit(3, "coordinate lengths differ")
            entries.append((SpinC(c1), None))
        else:
            beta = _as_int_list(entry["beta"], f"spinc[{k}].beta")
            if descriptor is None:
                raise _Exit(2, f"spinc[{k}]: beta entries need the fibration section")
            entries.append((taubes_convert(beta, descriptor), beta))
    return entries


# -- subcommands --------------------------------------------------------


def cmd_dim(args: argparse.Namespace) -> dict:
    doc = _load_document(args.input)
    descriptor = _parse_descriptor(_section(doc, "fibration"))
    chi = euler_characteristic(descriptor)
    report: dict[str, Any] = {
        "command": "dim",
        "chi": chi,
        "signature": descriptor.signature,
        "spinc": [],
    }
    for spinc, beta in _parse_spinc_entries(doc, descriptor):
        two_d = common_fiber_pairing(spinc, descriptor)
        fiber_chis = [
            sum(2 - 2 * comp.genus for comp in region.fibers)
            for region in descriptor.regions
        ]
        nu = nu_function(fiber_chis, two_d)
        adm = admissibility(spinc, descriptor)
        entry = {
            "c1": list(spinc.c1),
            "c1_squared": c1_squared(spinc, descriptor.h2),
            "formal_dimension": formal_dimension(spinc, descriptor),
            "fiber_pairing": two_d,
            "nu": nu,
            "admissibility": {
                "regime": adm.regime,
                "regions": [
                    {"region": v.index, "verdict": v.verdict, "detail": v.detail}
                    for v in adm.regions
                ],
            },
            "notes": [
                "formal dimension (c1^2 - 2 chi - 3 sigma)/4",
                "fiber pairing verified constant across regions",
            ],
        }
        if beta is not None:
            entry["beta"] = list(beta)
            entry["notes"].append("c1 obtained from beta through the Taubes map")
        report["spinc"].append(entry)
    return report


def cmd_gradings(args: argparse.Namespace) -> dict:
    doc = _load_document(args.input)
    descriptor = _parse_descriptor(doc["fibration"]) if "fibration" in doc else None
    query = doc.get("query", {})
    have_query = all(k in query for k in ("n_gamma", "n", "g"))
    report: dict[str, Any] = {"command": "gradings", "spinc": []}
    if have_query:
        report["query"] = {
            "n_gamma": _as_int(query["n_gamma"], "query.n_gamma"),
            "n": _as_int(query["n"], "query.n"),
            "g": _as_int(query["g"], "query.g"),
        }
    for spinc, beta in _parse_spinc_entries(doc, descriptor):
        div = grading_modulus(spinc.c1)
        entry: dict[str, Any] = {"c1": list(spinc.c1), "grading_modulus": div}
        if beta is not None:
            entry["beta"] = list(beta)
        notes = []
        if div == 0:
            notes.append("zero modulus: c1 is torsion, the grading is unreduced")
        if have_query:
            q = report["query"]
            entry["divisibility_ok"] = divisibility_check(
                spinc.c1, q["n_gamma"], q["n"], q["g"]
            )
            notes.append("divisibility: modulus | 2 n_gamma and n_gamma | n + 1 - g")
        if notes:
            entry["notes"] = notes
        report["spinc"].append(entry)
    return report


def cmd_tqft_eval(args: argparse.Namespace) -> dict:
    doc = _load_document(args.input)
    cycle = _parse_cycle(_section(doc, "morse_cycle"))
    value = evaluate_cycle(cycle)
    dims = [poincare_polynomial_dimension(cycle.nu(j), g) for j, g in enumerate(cycle.fibers)]
    report: dict[str, Any] = {
        "command": "tqft-eval",
        "n0": cycle.n0,
        "fibers": list(cycle.fibers),
        "moves": [m.kind for m in cycle.moves],
        "state_space_dims": dims,
        "value_abs": abs(value),
        "value": value,
        "notes": ["the value is canonical up to one overall sign"],
    }
    separating = [
        j
        for j, m in enumerate(cycle.moves)
        if m.kind in ("down", "up") and m.circle is not None and not any(m.circle)
    ]
    if separating:
        j = separating[0]
        report["separating_move"] = j
        report["notes"].append(
            f"move {j} is surgery along a nullhomologous circle: zero map, zero value"
        )
    if len(cycle.moves) == 1 and cycle.moves[0].kind == "twist":
        matrix = cycle.moves[0].matrix
        assert matrix is not None
        form = alexander_fibered(matrix)
        wsum = alexander_cycle_value(form, cycle.n0, cycle.fibers[0])
        report["fibered_crosscheck"] = {
            "alexander_coefficients": list(form.coeffs),
            "weighted_coefficient_sum": wsum,
            "agrees": abs(wsum) == abs(value),
        }
        report["notes"].append(
            "single-twist cycle: cross-checked against the Alexander form of the monodromy"
        )
    return report


def cmd_example(args: argparse.Namespace) -> dict:
    try:
        result = worked_example(args.name, args.m, args.n)
    except KeyError as err:
        raise _Exit(2, str(err.args[0])) from err
    except ValueError as err:
        raise _Exit(2, str(err)) from err
    return {
        "command": "example",
        "name": result.name,
        "m": result.m,
        "n": result.n,
        "value": result.value,
        "monomial": result.monomial,
        "notes": list(result.notes),
    }


def cmd_cz(args: argparse.Namespace) -> dict:
    doc = _load_document(args.input)
    section = _section(doc, "cz")
    paths = section["paths"] if "paths" in section else [section["samples"]]
    for p, path in enumerate(paths):
        for i, sample in enumerate(path):
            if len({len(row) for row in sample}) > 1:
                where = f"cz.paths[{p}][{i}]" if "paths" in section else f"cz.samples[{i}]"
                raise _Exit(2, f"{where}: rows of different lengths")
    results = []
    total = 0
    for path in paths:
        res = conley_zehnder(path)
        total += res.index
        results.append(
            {
                "index": res.index,
                "parity": res.parity,
                "det_end_sign": res.det_end_sign,
                "half_dim": res.half_dim,
                "interior_crossings": res.crossings,
            }
        )
    report: dict[str, Any] = {"command": "cz", "paths": results, "total_index": total}
    if len(results) > 1:
        report["notes"] = ["total_index is the index of the concatenated path"]
    return report


# -- rendering and entry point ------------------------------------------


def _human_lines(value: Any, prefix: str, out: list[str]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _human_lines(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for i, v in enumerate(value):
            _human_lines(v, f"{prefix}[{i}]", out)
    elif isinstance(value, list):
        out.append(f"{prefix}: [{', '.join(str(v) for v in value)}]")
    else:
        out.append(f"{prefix}: {value}")


def _render(report: dict, as_json: bool) -> str:
    try:
        data = _jsonable(report)
    except ValueError:  # an int longer than the interpreter's int_max_str_digits
        raise _Exit(2, "result too long to print: an integer has too many digits") from None
    if as_json:
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    lines: list[str] = []
    _human_lines(data, "", lines)
    return "\n".join(lines) + "\n"


def _validate_threads() -> int:
    raw = os.environ.get("LAGMATCH_THREADS", "1")
    if not re.fullmatch(r"[0-9]+", raw) or int(raw) < 1:
        raise _Exit(2, f"LAGMATCH_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagmatch",
        description="Exact invariants of broken fibrations on four-manifolds.",
        epilog="Embedded fixtures: " + ", ".join(sorted(FIXTURES)),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="input document: a path, '-' for stdin, or fixture:NAME")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")

    add_io(sub.add_parser("dim", help="formal dimensions and admissibility"))
    add_io(sub.add_parser("tqft-eval", help="evaluate a closed cycle of elementary moves"))
    p_ex = sub.add_parser("example", help="run a built-in closed-manifold example")
    p_ex.add_argument("name", help="example name (s2xs2 or s1s3-sum)")
    p_ex.add_argument("--m", type=int, required=True)
    p_ex.add_argument("--n", type=int, required=True)
    p_ex.add_argument("--json", action="store_true", help="emit the report as JSON")
    add_io(sub.add_parser("cz", help="Conley-Zehnder indices of sampled symplectic paths"))
    add_io(sub.add_parser("gradings", help="grading moduli and divisibility checks"))
    return parser


_COMMANDS = {
    "dim": cmd_dim,
    "tqft-eval": cmd_tqft_eval,
    "example": cmd_example,
    "cz": cmd_cz,
    "gradings": cmd_gradings,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _validate_threads()
        text = _render(_COMMANDS[args.command](args), args.json)
    except _Exit as err:
        print(f"error: {err.message}", file=sys.stderr)
        return err.code
    except (DegenerateEndpoint, NonClosingCycle, DescriptorError, InadmissibleError,
            RelationNeeded, RegimeViolation, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ResolutionError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
