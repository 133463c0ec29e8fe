"""The traced benchmark's hooks still find every name they patch.

``perfbench/tracing.py`` wraps functions in the namespaces of ``lagmatch.cli``
and ``lagmatch.tqft`` by name; a refactor that renames one of them breaks
traced runs, and these tests fail first.  They only read ``perfbench/``.
"""

import json
import os
import sys

from lagmatch.exterior import SpMatrix, SymplecticLattice
from reference import cycle_composite

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return tracing


def test_import_split_finds_every_import():
    """``perfbench/run.py:import_split`` takes the median of each module's
    -X importtime rows, and a module that ``lagmatch.cli`` stops importing
    eagerly leaves an empty list there (StatisticsError).  This guards the
    eager numpy and jsonschema imports until the benchmark's import split
    copes with a missing row; the change that mends it removes this test."""
    sys.path.insert(0, PERFBENCH)
    try:
        import run
    finally:
        sys.path.remove(PERFBENCH)
    src = os.path.join(os.path.dirname(PERFBENCH), "src")
    split = run.import_split(dict(os.environ, PYTHONPATH=src))
    assert set(split) == {"import.lagmatch_cli_ms", "import.numpy_ms", "import.jsonschema_ms"}
    assert all(ms > 0 for ms in split.values())


def _namespaces():
    from lagmatch import cli, tqft

    return [dict(vars(x)) for x in (cli, tqft, tqft.SymSpace, tqft.SymLinearMap)]


def test_tracing_installs_and_restores():
    tracing = _tracing()
    from lagmatch import cli

    before = _namespaces()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert cli.main(["tqft-eval", "--input", "fixture:sphere-cycle", "--json"]) == 0
    finally:
        tracer.restore()
    assert _namespaces() == before
    assert tracer.spans


def test_tracing_drives_the_cz_layer(tmp_path, capsys):
    """The hooks on conley_zehnder and _reject_floats read the cz samples and
    result, and the float walk runs only on a document that jsonschema
    accepts and ``conforms`` refuses."""
    tracing = _tracing()
    from lagmatch import cli
    from lagmatch.fixtures import FIXTURES

    with_float = dict(FIXTURES["rotation-path"], query={"n_gamma": 1, "n": 1.0, "g": 1})
    path = tmp_path / "float.json"
    path.write_text(json.dumps(with_float))
    before = _namespaces()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert cli.main(["cz", "--input", "fixture:rotation-path", "--json"]) == 0
        valid = {span[0] for span in tracer.spans}
        assert cli.main(["cz", "--input", str(path), "--json"]) == 2
    finally:
        tracer.restore()
    assert _namespaces() == before
    names = {span[0] for span in tracer.spans}
    assert "czindex" in valid and "float_walk" not in valid
    assert "float_walk" in names
    (samples,) = FIXTURES["rotation-path"]["cz"]["paths"]
    assert tracer.counts["czindex.samples"] == len(samples)
    assert tracer.counts["czindex.crossings"] == 0
    captured = capsys.readouterr()
    assert '"interior_crossings": 0' in captured.out
    assert captured.err == "error: floating point value at query.n: only cz samples may be floats\n"


def test_tracing_drives_the_composite():
    """The hooks on move_matrix, SymLinearMap.__matmul__ and SymSpace read the lifts."""
    tracing = _tracing()
    from lagmatch import tqft

    cycle = tqft.MorseCycle(
        [1, 0, 0],
        [
            tqft.ElementaryMove.down((1, 1)),
            tqft.ElementaryMove.twist(SpMatrix.identity(SymplecticLattice(0))),
            tqft.ElementaryMove.up((0, 1)),
        ],
        2,
    )
    before = _namespaces()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        composite = cycle_composite(cycle)
    finally:
        tracer.restore()
    assert _namespaces() == before
    assert composite.src == composite.dst
    assert tracer.counts["tqft.compose.mults"] > 0
    assert tracer.counts["tqft.state_dim.max"] == composite.src.dim
    names = {span[0] for span in tracer.spans}
    assert {"tqft.compose", "tqft.move_matrix"} <= names


def test_tracing_times_the_frames_of_a_surgery_word(tmp_path, capsys):
    """The bordered determinant builds each down frame through the name
    ``adapted_basis`` in ``tqft``, so a traced surgery word still has
    ``exterior.adapted_basis`` spans inside its evaluation.  Frames are
    memoized per circle, so the word runs twice: the second run, whose
    frames are all memo hits, still has a span of its own."""
    tracing = _tracing()
    from lagmatch import cli

    cycle = {
        "n0": 2,
        "fibers": [2, 1, 1, 2],
        "moves": [
            {"kind": "down", "circle": [1, 0, 1, 0]},
            {"kind": "twist", "matrix": [[2, 1], [1, 1]]},
            {"kind": "up", "circle": [0, 1, 1, 0]},
            {"kind": "twist", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]},
        ],
    }
    path = tmp_path / "surgery.json"
    path.write_text(json.dumps({"schema": "lagmatch-input@1", "morse_cycle": cycle}))
    before = _namespaces()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        for _ in range(2):
            assert cli.main(["tqft-eval", "--input", str(path), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["command"] == "tqft-eval"
    finally:
        tracer.restore()
    assert _namespaces() == before
    spans = tracer.spans
    frames = [span for span in spans if span[0] == "exterior.adapted_basis"]
    assert all(spans[span[3]][0] == "tqft.evaluate" for span in frames)
    runs = [i for i, span in enumerate(spans) if span[0] == "tqft.evaluate"]
    assert len(runs) == 2
    assert all(any(span[3] == run for span in frames) for run in runs)
