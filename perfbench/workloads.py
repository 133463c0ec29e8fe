"""Seeded operations for the three workloads, each with its output check.

A workload is a function ``(seed, round_index, workdir) -> list[Op]``.
Every round of a workload has the same make-up (the same shapes, sizes
and subcommands in the same order); the seed and the round index choose
the matrices, circles, classes and paths.  Fresh inputs per round keep a
result cache in the program from turning later rounds into repeats.

An Op is one invocation of the ``lagmatch`` command line.  Its check
receives the parsed report and a per-round dict (rotations of a cycle
compare against the base word evaluated earlier in the same round) and
raises Wrong on any mismatch with the oracles.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Any, Callable, Sequence

import oracles

SCHEMA = "lagmatch-input@1"


class Wrong(Exception):
    """The program answered, and the answer disagrees with the oracle."""


class Op:
    __slots__ = ("argv", "doc_path", "check", "label")

    def __init__(self, argv: list[str], check: Callable, label: str, doc_path: str | None = None):
        self.argv = argv
        self.check = check
        self.label = label
        self.doc_path = doc_path


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


# -- reading a report -----------------------------------------------------


class Report:
    """Field access over a ``--json`` report or the flat ``key: value`` format."""

    def __init__(self, stdout: str, as_json: bool):
        self.data = json.loads(stdout) if as_json else None
        self.flat = None if as_json else dict(
            line.split(": ", 1) for line in stdout.splitlines() if ": " in line
        )

    def has(self, *path: Any) -> bool:
        """Whether the report holds ``path``, as a field or as a prefix of fields."""
        if self.data is not None:
            try:
                self.get(*path)
            except (KeyError, IndexError):
                return False
            return True
        key = _flat_key(path)
        return any(k == key or k.startswith((key + ".", key + "[")) for k in self.flat)

    def get(self, *path: Any) -> Any:
        if self.data is not None:
            node = self.data
            for p in path:
                node = node[p]
            return node
        return _parse_flat(self.flat[_flat_key(path)])


def _flat_key(path: Sequence[Any]) -> str:
    key = ""
    for p in path:
        key = f"{key}[{p}]" if isinstance(p, int) else (f"{key}.{p}" if key else p)
    return key


def _parse_flat(text: str) -> Any:
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [_parse_flat(x.strip()) for x in inner.split(",")] if inner else []
    if text in ("True", "False"):
        return text == "True"
    try:
        return int(text)
    except ValueError:
        return text


# -- checks -----------------------------------------------------------------


def check_cycle(doc: dict, value_rule: Callable[[int, Report, dict], None]) -> Callable:
    cyc = doc["morse_cycle"]
    n0, fibers = cyc["n0"], cyc["fibers"]
    dims = oracles.cycle_dims(n0, fibers)

    def check(r: Report, ctx: dict) -> None:
        expect(r.get("n0") == n0, "n0")
        expect(r.get("fibers") == fibers, "fibers")
        expect(r.get("state_space_dims") == dims, f"state_space_dims {r.get('state_space_dims')} != {dims}")
        value = r.get("value")
        expect(r.get("value_abs") == abs(value), "value_abs")
        value_rule(value, r, ctx)

    return check


def macdonald_rule(matrices: Sequence, g: int, n0: int) -> Callable:
    """Twist-only words: the Macdonald coefficient of the product monodromy.

    The program's documented global sign is the one that makes the value
    equal the coefficient itself (the sphere at n0 = 2 gives 3, not -3),
    so the value must match with its sign.
    """
    product = [[int(i == j) for j in range(2 * g)] for i in range(2 * g)]
    for m in matrices:
        product = oracles.matmul(m, product)
    want = oracles.macdonald_coefficient(product, n0)
    alex = oracles.alexander_coefficients(product) if len(matrices) == 1 else None
    wsum_want = oracles.alexander_weighted_sum(alex, n0, g) if alex is not None else None

    def rule(value: int, r: Report, ctx: dict) -> None:
        expect(value == want, f"value {value} != {want} (Macdonald)")
        if alex is not None:
            expect(r.get("fibered_crosscheck", "agrees") is True, "fibered crosscheck disagrees")
            expect(r.get("fibered_crosscheck", "alexander_coefficients") == alex, "Alexander form")
            wsum = r.get("fibered_crosscheck", "weighted_coefficient_sum")
            expect(wsum == wsum_want, f"weighted sum {wsum} != {wsum_want}")

    return rule


def zero_rule(separating_move: int | None) -> Callable:
    def rule(value: int, r: Report, ctx: dict) -> None:
        expect(value == 0, f"value {value} != 0")
        if separating_move is None:
            expect(not r.has("separating_move"), "unexpected separating_move")
        else:
            expect(r.get("separating_move") == separating_move, "separating_move")

    return rule


def rotation_rule(group: str, rotation: int, sign: int) -> Callable:
    """Graded cyclicity: rotating past a surgery move flips the sign."""

    def rule(value: int, r: Report, ctx: dict) -> None:
        if rotation == 0:
            ctx[group] = value
            return
        expect(group in ctx, "base word of the rotation group did not answer")
        want = sign * ctx[group]
        expect(value == want, f"rotation {rotation}: {value} != {want}")

    return rule


def check_dim(doc: dict) -> Callable:
    fib = doc["fibration"]
    chi = oracles.euler_characteristic(fib)
    wants = [oracles.dim_entry(e, fib) for e in doc["spinc"]]

    def check(r: Report, ctx: dict) -> None:
        expect(r.get("chi") == chi, "chi")
        expect(r.get("signature") == int(fib.get("signature", 0)), "signature")
        for k, (entry, want) in enumerate(zip(doc["spinc"], wants)):
            for field, value in want.items():
                got = r.get("spinc", k, field)
                expect(got == value, f"spinc[{k}].{field}: {got} != {value}")
            if "beta" in entry:
                expect(r.get("spinc", k, "beta") == entry["beta"], f"spinc[{k}].beta")
        expect(not r.has("spinc", len(wants)), "extra spinc entries")

    return check


def check_gradings(doc: dict) -> Callable:
    fib = doc.get("fibration")
    query = doc.get("query")

    def check(r: Report, ctx: dict) -> None:
        for k, entry in enumerate(doc["spinc"]):
            c1 = oracles.c1_of(entry, fib)
            expect(r.get("spinc", k, "c1") == c1, f"spinc[{k}].c1")
            modulus = oracles.grading_modulus(c1)
            expect(r.get("spinc", k, "grading_modulus") == modulus, f"spinc[{k}].grading_modulus")
            if query is not None:
                ok = oracles.divisibility_ok(c1, query["n_gamma"], query["n"], query["g"])
                expect(r.get("spinc", k, "divisibility_ok") == ok, f"spinc[{k}].divisibility_ok")
        expect(not r.has("spinc", len(doc["spinc"])), "extra spinc entries")

    return check


def check_cz(parts: Sequence[Sequence[tuple[str, int]]]) -> Callable:
    """parts[p] lists the closed-form factors of path p."""
    indices = [oracles.cz_index(p) for p in parts]

    def check(r: Report, ctx: dict) -> None:
        for p, (want, factors) in enumerate(zip(indices, parts)):
            got = r.get("paths", p, "index")
            expect(got == want, f"path {p}: index {got} != {want}")
            half = r.get("paths", p, "half_dim")
            expect(half == len(factors), f"path {p}: half_dim")
            parity = r.get("paths", p, "parity")
            expect(parity == (want + half) % 2, f"path {p}: parity")
            expect(r.get("paths", p, "det_end_sign") == (1 if parity == 0 else -1), "det_end_sign")
        expect(r.get("total_index") == sum(indices), "total_index")

    return check


def check_example(name: str, m: int, n: int) -> Callable:
    def check(r: Report, ctx: dict) -> None:
        expect(r.get("m") == m and r.get("n") == n, "parameters echoed")
        if name == "s2xs2":
            expect(r.get("value") == 1, f"value {r.get('value')} != 1")
            expect(r.get("monomial") == f"U^{n}", "monomial")
        else:
            expect(abs(r.get("value")) == 1, f"|value| {r.get('value')} != 1")
            expect(r.get("monomial") == f"U^{n - 1} lambda", "monomial")

    return check


# -- input generators -------------------------------------------------------


def primitive(rng: random.Random, rank: int, spread: int = 2) -> list[int]:
    while True:
        v = [rng.randint(-spread, spread) for _ in range(rank)]
        if any(v) and math.gcd(*v) == 1:
            return v


def symplectic(rng: random.Random, g: int) -> list[list[int]]:
    """A product of 2g + 2 random transvections along primitive vectors."""
    m = [[int(i == j) for j in range(2 * g)] for i in range(2 * g)]
    for _ in range(2 * g + 2 if g else 0):
        t = oracles.transvection(g, primitive(rng, 2 * g, spread=1), rng.choice((-1, 1)))
        m = oracles.matmul(t, m)
    return m


def cycle_doc(n0: int, fibers: list[int], moves: list[dict]) -> dict:
    return {"schema": SCHEMA, "morse_cycle": {"n0": n0, "fibers": fibers, "moves": moves}}


def twist(m: list[list[int]]) -> dict:
    return {"kind": "twist", "matrix": m}


class DocWriter:
    """Writes each round's documents as files for ``--input``."""

    def __init__(self, workdir: str, workload: str, round_index: int):
        self.prefix = os.path.join(workdir, f"{workload}-r{round_index}")
        self.count = 0

    def op(self, command: str, doc: dict, check: Callable, label: str) -> Op:
        path = f"{self.prefix}-{self.count}.json"
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return Op([command, "--input", path, "--json"], check, label, doc_path=path)


# cycle-eval: the make-up of one round.  Two-twist words and surgery words
# stop where one dense composite would cost seconds: (g, n0) = (3, 4),
# (4, 3), (4, 4) for two twists and (3, 3) for surgery are left out so a
# run still holds more than a hundred operations.
TWIST1 = [(g, n0) for g in (2, 3, 4) for n0 in (1, 2, 3, 4)]
TWIST2 = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
SURGERY = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
SEPARATING = [(2, 1), (2, 2), (3, 1), (3, 2)]
DOWN_UP = [(2, 1), (2, 2), (3, 1), (3, 2)]


def cycle_eval(seed: int, round_index: int, workdir: str) -> list[Op]:
    rng = random.Random(f"cycle-eval:{seed}:{round_index}")
    w = DocWriter(workdir, "cycle-eval", round_index)
    ops = []
    for count, shapes in ((1, TWIST1), (2, TWIST2)):
        for g, n0 in shapes:
            mats = [symplectic(rng, g) for _ in range(count)]
            doc = cycle_doc(n0, [g] * count, [twist(m) for m in mats])
            ops.append(w.op("tqft-eval", doc, check_cycle(doc, macdonald_rule(mats, g, n0)),
                            f"twist x{count} g={g} n0={n0}"))
    for g, n0 in SURGERY:
        fibers = [g, g - 1, g - 1, g]
        moves = [
            {"kind": "down", "circle": primitive(rng, 2 * g)},
            twist(symplectic(rng, g - 1)),
            {"kind": "up", "circle": primitive(rng, 2 * g)},
            twist(symplectic(rng, g)),
        ]
        group = f"surgery g={g} n0={n0}"
        sign = 1
        for r in range(4):
            if r:
                sign *= -1 if moves[r - 1]["kind"] in ("down", "up") else 1
            doc = cycle_doc(n0 + fibers[r] - fibers[0], fibers[r:] + fibers[:r], moves[r:] + moves[:r])
            ops.append(w.op("tqft-eval", doc, check_cycle(doc, rotation_rule(group, r, sign)),
                            f"{group} rotation {r}"))
    for g, n0 in SEPARATING:
        moves = [twist(symplectic(rng, g)), {"kind": "down", "circle": [0] * (2 * g)},
                 {"kind": "up", "circle": primitive(rng, 2 * g)}]
        doc = cycle_doc(n0, [g, g, g - 1], moves)
        ops.append(w.op("tqft-eval", doc, check_cycle(doc, zero_rule(1)),
                        f"separating g={g} n0={n0}"))
    for g, n0 in DOWN_UP:
        circle = primitive(rng, 2 * g)
        moves = [{"kind": "down", "circle": circle}, {"kind": "up", "circle": circle}]
        doc = cycle_doc(n0, [g, g - 1], moves)
        ops.append(w.op("tqft-eval", doc, check_cycle(doc, zero_rule(None)),
                        f"down-up g={g} n0={n0}"))
    return ops


# doc-batch: many small documents and a few large ones.
DIM_GRIDS = [1, 1, 1, 2, 4, 8, 16, 64, 256]
GRADINGS_GRIDS = [1, 1, 2, 4, 16, 64, 256]
DESCRIPTOR_FIXTURES = ("torus-section-sum", "sphere-double-section", "s2xs2-product")
TQFT_FIXTURES = ("anosov-cycle", "sphere-cycle", "separating-surgery")


def product_doc(rng: random.Random, entries: int, with_query: bool) -> dict:
    """S^2 fibers over a base of Euler characteristic 2, 0 or -2, with a beta grid.

    The fiber pairing of every entry is 2 + 2n > 0, so each entry is
    admissible (monotone) and nu = n >= 0.
    """
    chi_base = rng.choice((2, 0, -2))
    spinc = []
    for _ in range(entries):
        m, n = rng.randint(-20, 20), rng.randint(0, 20)
        if rng.random() < 0.25:
            spinc.append({"c1": [chi_base + 2 * m, 2 + 2 * n]})
        else:
            spinc.append({"beta": [m, n]})
    doc = {
        "schema": SCHEMA,
        "fibration": {
            "regions": [{"chi_base": chi_base, "fibers": [{"genus": 0, "class": [0, 1]}]}],
            "round_circles": [],
            "lefschetz_points": 0,
            "signature": 0,
            "h2": {"form": [[0, 1], [1, 0]], "canonical": [chi_base, 2]},
        },
        "spinc": spinc,
    }
    if with_query:
        doc["query"] = {"n_gamma": rng.randint(0, 6), "n": rng.randint(0, 20), "g": rng.randint(0, 4)}
    return doc


def cz_docs(rng: random.Random) -> list[tuple[dict, list[list[tuple[str, int]]]]]:
    """(document, closed-form factors per path) for the cz documents of a round."""

    def rot(k: int, count: int) -> tuple[list, list]:
        k = k * rng.choice((-1, 1))
        return oracles.rotation_path(k, count), [("rotation", k)]

    def hyp(count: int) -> tuple[list, list]:
        return oracles.hyperbolic_path(rng.uniform(0.4, 1.2), count), [("hyperbolic", 0)]

    def summed(k: int, count: int) -> tuple[list, list]:
        (a, fa), (b, fb) = rot(k, count), hyp(count)
        return [oracles.direct_sum(x, y) for x, y in zip(a, b)], fa + fb

    singles = [rot(1, 41), rot(3, 401), rot(5, 4001), hyp(101), hyp(1001), summed(rng.choice((1, 3)), 401)]
    out = [({"schema": SCHEMA, "cz": {"samples": path}}, [parts]) for path, parts in singles]
    multi = [rot(1, 41), hyp(41), rot(3, 201)]
    out.append(({"schema": SCHEMA, "cz": {"paths": [p for p, _ in multi]}}, [f for _, f in multi]))
    return out


def doc_batch(seed: int, round_index: int, workdir: str) -> list[Op]:
    from lagmatch.fixtures import FIXTURES

    rng = random.Random(f"doc-batch:{seed}:{round_index}")
    w = DocWriter(workdir, "doc-batch", round_index)
    ops = []
    for name in DESCRIPTOR_FIXTURES:
        ops.append(w.op("dim", FIXTURES[name], check_dim(FIXTURES[name]), f"dim {name}"))
    for k, name in enumerate(DESCRIPTOR_FIXTURES):
        doc = dict(FIXTURES[name])
        if k == 0:
            doc["query"] = {"n_gamma": rng.randint(0, 6), "n": rng.randint(0, 20), "g": rng.randint(0, 4)}
        ops.append(w.op("gradings", doc, check_gradings(doc), f"gradings {name}"))
    for size in DIM_GRIDS:
        doc = product_doc(rng, size, with_query=False)
        ops.append(w.op("dim", doc, check_dim(doc), f"dim product x{size}"))
    for k, size in enumerate(GRADINGS_GRIDS):
        doc = product_doc(rng, size, with_query=bool(k % 2))
        ops.append(w.op("gradings", doc, check_gradings(doc), f"gradings product x{size}"))
    for doc, parts in cz_docs(rng):
        samples = sum(len(p) for p in (doc["cz"].get("paths") or [doc["cz"].get("samples")]))
        ops.append(w.op("cz", doc, check_cz(parts), f"cz {len(parts)} path(s), {samples} samples"))
    for name in TQFT_FIXTURES:
        doc = FIXTURES[name]
        ops.append(w.op("tqft-eval", doc, check_cycle(doc, fixture_value_rule(name, doc)),
                        f"tqft-eval {name}"))
    for name, low_n in (("s2xs2", 0), ("s1s3-sum", 1), ("s2xs2", 0), ("s1s3-sum", 1)):
        m, n = rng.randint(0, 60), rng.randint(low_n, 60)
        ops.append(Op(["example", name, "--m", str(m), "--n", str(n), "--json"],
                      check_example(name, m, n), f"example {name} m={m} n={n}"))
    return ops


def fixture_value_rule(name: str, doc: dict) -> Callable:
    moves = doc["morse_cycle"]["moves"]
    if name == "separating-surgery":
        return zero_rule(0)
    g = doc["morse_cycle"]["fibers"][0]
    return macdonald_rule([m["matrix"] for m in moves], g, doc["morse_cycle"]["n0"])


# cold-cli: the command line battery of the acceptance suite, one process each.
CLI_BATTERY = [
    ["dim", "--input", "fixture:torus-section-sum"],
    ["dim", "--input", "fixture:sphere-double-section", "--json"],
    ["dim", "--input", "fixture:s2xs2-product", "--json"],
    ["tqft-eval", "--input", "fixture:anosov-cycle", "--json"],
    ["tqft-eval", "--input", "fixture:sphere-cycle"],
    ["tqft-eval", "--input", "fixture:separating-surgery", "--json"],
    ["cz", "--input", "fixture:rotation-path", "--json"],
    ["gradings", "--input", "fixture:torus-section-sum", "--json"],
    ["example", "s2xs2", "--m", "1", "--n", "2", "--json"],
    ["example", "s1s3-sum", "--m", "0", "--n", "3"],
]


def battery_check(argv: list[str]) -> Callable:
    from lagmatch.fixtures import FIXTURES

    command = argv[0]
    if command == "example":
        return check_example(argv[1], int(argv[3]), int(argv[5]))
    name = argv[2][len("fixture:"):]
    doc = FIXTURES[name]
    if command == "dim":
        return check_dim(doc)
    if command == "gradings":
        return check_gradings(doc)
    if command == "tqft-eval":
        return check_cycle(doc, fixture_value_rule(name, doc))
    # The rotation-path fixture is one half-turn.
    return check_cz([[("rotation", 1)]])


def battery() -> list[Op]:
    return [Op(list(argv), battery_check(argv), " ".join(argv)) for argv in CLI_BATTERY]


def cold_cli(seed: int, round_index: int, workdir: str) -> list[Op]:
    ops = battery()
    random.Random(f"cold-cli:{seed}:{round_index}").shuffle(ops)
    return ops


WORKLOADS = {"cycle-eval": cycle_eval, "doc-batch": doc_batch, "cold-cli": cold_cli}
