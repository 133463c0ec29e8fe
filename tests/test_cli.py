"""End-to-end command line checks: reports, exit codes, determinism."""

import collections
import enum
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from typing import Any, NamedTuple
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagmatch import cli
from lagmatch.cli import main
from lagmatch.fixtures import FIXTURES


def run_cli(args, stdin=None, env_extra=None):
    env = dict(os.environ)
    env.pop("LAGMATCH_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "lagmatch", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


def doc(**sections):
    payload = {"schema": "lagmatch-input@1"}
    payload.update(sections)
    return json.dumps(payload)


# -- happy paths ----------------------------------------------------------


def test_dim_fixture_golden():
    out = run_cli(["dim", "--input", "fixture:torus-section-sum", "--json"])
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["spinc"][0]["formal_dimension"] == 1
    assert report["spinc"][0]["admissibility"]["regime"] == "monotone"


def test_dim_fixture_klein_style():
    out = run_cli(["dim", "--input", "fixture:sphere-double-section", "--json"])
    report = json.loads(out.stdout)
    assert report["spinc"][0]["formal_dimension"] == 4


def test_dim_fixture_beta_entry():
    out = run_cli(["dim", "--input", "fixture:s2xs2-product", "--json"])
    report = json.loads(out.stdout)
    entry = report["spinc"][0]
    assert entry["beta"] == [1, 1]
    assert entry["c1"] == [4, 4]
    assert entry["formal_dimension"] == 6


def test_tqft_eval_fixtures():
    out = run_cli(["tqft-eval", "--input", "fixture:anosov-cycle", "--json"])
    report = json.loads(out.stdout)
    assert report["value_abs"] == 1
    assert report["fibered_crosscheck"]["agrees"] is True

    out = run_cli(["tqft-eval", "--input", "fixture:sphere-cycle", "--json"])
    assert json.loads(out.stdout)["value"] == 3

    out = run_cli(["tqft-eval", "--input", "fixture:separating-surgery", "--json"])
    report = json.loads(out.stdout)
    assert report["value"] == 0
    assert report["separating_move"] == 0


def test_fibered_crosscheck_compares_the_weighted_sum_with_the_value(capsys, monkeypatch):
    """agrees is computed: a weighted sum one off the value is reported as
    disagreeing, and the command still answers."""
    real = cli.alexander_cycle_value
    monkeypatch.setattr(cli, "alexander_cycle_value", lambda *args: real(*args) + 1)
    assert main(["tqft-eval", "--input", "fixture:anosov-cycle", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    crosscheck = report["fibered_crosscheck"]
    assert crosscheck["agrees"] is False
    assert crosscheck["weighted_coefficient_sum"] == report["value"] + 1


def test_cz_fixture():
    out = run_cli(["cz", "--input", "fixture:rotation-path", "--json"])
    report = json.loads(out.stdout)
    assert report["total_index"] == 1
    assert report["paths"][0]["parity"] == 0


def test_gradings_with_query():
    payload = doc(
        spinc=[{"c1": [4, 6]}], query={"n_gamma": 2, "n": 3, "g": 2}
    )
    out = run_cli(["gradings", "--input", "-", "--json"], stdin=payload)
    report = json.loads(out.stdout)
    assert report["spinc"][0]["grading_modulus"] == 2
    assert report["spinc"][0]["divisibility_ok"] is True


def test_gradings_query_missing_a_key_exits_2():
    """A query carries all of n_gamma, n and g: one that lacks any is refused."""
    for query in ({"n": 1}, {}):
        payload = doc(spinc=[{"c1": [4, 6]}], query=query)
        out = run_cli(["gradings", "--input", "-"], stdin=payload)
        assert out.returncode == 2, query
        assert out.stdout == ""
        assert out.stderr == "error: schema violation at query: 'n_gamma' is a required property\n"


def test_example_subcommand():
    out = run_cli(["example", "s2xs2", "--m", "2", "--n", "3", "--json"])
    report = json.loads(out.stdout)
    assert report["value"] == 1
    assert report["monomial"] == "U^3"

    out = run_cli(["example", "s1s3-sum", "--m", "0", "--n", "2", "--json"])
    report = json.loads(out.stdout)
    assert abs(report["value"]) == 1
    assert report["monomial"] == "U^1 lambda"


def test_digit_string_integers_accepted():
    payload = doc(spinc=[{"c1": ["4", "6"]}])
    out = run_cli(["gradings", "--input", "-", "--json"], stdin=payload)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["spinc"][0]["grading_modulus"] == 2


def test_huge_integers_render_as_strings():
    big = 2**60
    payload = doc(spinc=[{"c1": [str(big), str(2 * big)]}])
    out = run_cli(["gradings", "--input", "-", "--json"], stdin=payload)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["spinc"][0]["c1"] == [str(big), str(2 * big)]
    assert report["spinc"][0]["grading_modulus"] == str(big)


def test_human_format_is_flat_text():
    out = run_cli(["dim", "--input", "fixture:torus-section-sum"])
    assert out.returncode == 0
    assert "spinc[0].formal_dimension: 1" in out.stdout
    assert not out.stderr


# -- exit codes -----------------------------------------------------------


def test_malformed_json_exits_2():
    out = run_cli(["dim", "--input", "-"], stdin="{nope")
    assert out.returncode == 2
    assert "malformed" in out.stderr
    assert not out.stdout


def test_schema_violation_exits_2():
    out = run_cli(["dim", "--input", "-"], stdin='{"schema": "other@9"}')
    assert out.returncode == 2
    out = run_cli(["dim", "--input", "-"], stdin=doc(unknown_section=1))
    assert out.returncode == 2


def test_unknown_fixture_exits_2():
    out = run_cli(["dim", "--input", "fixture:missing"])
    assert out.returncode == 2
    assert "unknown fixture" in out.stderr


def test_unknown_example_exits_2():
    out = run_cli(["example", "nope", "--m", "0", "--n", "0"])
    assert out.returncode == 2


def test_argv_errors_are_one_line_and_exit_2():
    for args, message in (
        (["example", "s2xs2", "--m", "1.5", "--n", "2"], "argument --m: invalid int value: '1.5'"),
        ([], "the following arguments are required: command"),
        (["dim", "--input"], "argument --input: expected one argument"),
        (["dim", "--input", "--json"], "argument --input: expected one argument"),
        (["tqft-eval", "--input", "x.json", "--json", "extra"], "unrecognized arguments: extra"),
        (["nope", "--input", "x"], "argument command: invalid choice: 'nope' "
                                   "(choose from 'dim', 'tqft-eval', 'example', 'cz', 'gradings')"),
    ):
        out = run_cli(args)
        assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {message}\n"), args


def test_bad_example_parameters_exit_2():
    out = run_cli(["example", "s1s3-sum", "--m", "1", "--n", "0"])
    assert out.returncode == 2


def test_missing_section_exits_2():
    out = run_cli(["tqft-eval", "--input", "-"], stdin=doc())
    assert out.returncode == 2


def test_float_outside_cz_exits_2():
    payload = doc(query={"n_gamma": 1, "n": 2.5, "g": 1}, spinc=[{"c1": [2, 2]}])
    out = run_cli(["gradings", "--input", "-"], stdin=payload)
    assert out.returncode == 2


def test_threads_validation_exits_2():
    out = run_cli(
        ["example", "s2xs2", "--m", "0", "--n", "0"],
        env_extra={"LAGMATCH_THREADS": "zero"},
    )
    assert out.returncode == 2
    out = run_cli(
        ["example", "s2xs2", "--m", "0", "--n", "0"],
        env_extra={"LAGMATCH_THREADS": "0"},
    )
    assert out.returncode == 2
    # Positivity is read from the digits: no int() past the digit limit.
    out = run_cli(
        ["example", "s2xs2", "--m", "0", "--n", "0"],
        env_extra={"LAGMATCH_THREADS": "9" * 5000},
    )
    assert out.returncode == 0
    out = run_cli(
        ["example", "s2xs2", "--m", "0", "--n", "0"],
        env_extra={"LAGMATCH_THREADS": "0" * 5000},
    )
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == f"error: LAGMATCH_THREADS must be a positive integer, got {'0' * 5000!r}\n"


def test_non_closing_cycle_exits_3():
    payload = doc(
        morse_cycle={
            "fibers": [1, 1],
            "n0": 1,
            "moves": [
                {"kind": "down", "circle": [1, 0]},
                {"kind": "up", "circle": [1, 0]},
            ],
        }
    )
    out = run_cli(["tqft-eval", "--input", "-"], stdin=payload)
    assert out.returncode == 3


def test_inconsistent_descriptor_exits_3():
    fix = json.loads(json.dumps(FIXTURES["torus-section-sum"]))
    fix["spinc"] = [{"c1": [3, 2]}]  # not characteristic
    out = run_cli(["dim", "--input", "-"], stdin=json.dumps(fix))
    assert out.returncode == 3
    assert "inconsistent" in out.stderr


def test_degenerate_endpoint_exits_3():
    samples = []
    for k in range(41):
        th = 2 * math.pi * k / 40
        samples.append([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    out = run_cli(["cz", "--input", "-"], stdin=doc(cz={"samples": samples}))
    assert out.returncode == 3


def test_resolution_guard_exits_4():
    samples = []
    for k in range(5):
        th = 3 * math.pi * k / 4
        samples.append([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    out = run_cli(["cz", "--input", "-"], stdin=doc(cz={"samples": samples}))
    assert out.returncode == 4
    assert "refine" in out.stderr


def test_ragged_cz_sample_exits_2():
    samples = [[[1, 0], [0]]] + [[[1.0, 0.1 * k], [0.0, 1.0]] for k in range(1, 5)]
    out = run_cli(["cz", "--input", "-"], stdin=doc(cz={"samples": samples}))
    assert out.returncode == 2
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "cz.samples[0]" in lines[0]


def test_gradings_c1_of_wrong_length_exits_3():
    fix = json.loads(json.dumps(FIXTURES["s2xs2-product"]))
    fix["spinc"] = [{"c1": [2, 2, 2]}]
    out = run_cli(["gradings", "--input", "-"], stdin=json.dumps(fix))
    assert out.returncode == 3
    assert "coordinate lengths differ" in out.stderr


def test_tqft_eval_huge_n0_stays_bounded():
    """A 21-digit n0 costs no more than a small one: no memory or time blowup."""
    import resource

    limit = 2**30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    n0 = "100000000000000000000"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("LAGMATCH_THREADS", None)
    for fibers, matrix, expected in (
        ([0], [], int(n0) + 1),
        ([1], [[2, 1], [1, 1]], -int(n0)),
    ):
        cycle = {"n0": n0, "fibers": fibers, "moves": [{"kind": "twist", "matrix": matrix}]}
        out = subprocess.run(
            [sys.executable, "-m", "lagmatch", "tqft-eval", "--input", "-", "--json"],
            input=doc(morse_cycle=cycle),
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            preexec_fn=cap_memory,
        )
        assert out.returncode == 0, out.stderr
        assert int(json.loads(out.stdout)["value"]) == expected


# -- determinism ----------------------------------------------------------


INVOCATIONS = [
    ["dim", "--input", "fixture:torus-section-sum"],
    ["dim", "--input", "fixture:sphere-double-section", "--json"],
    ["dim", "--input", "fixture:s2xs2-product", "--json"],
    ["tqft-eval", "--input", "fixture:anosov-cycle", "--json"],
    ["tqft-eval", "--input", "fixture:separating-surgery"],
    ["cz", "--input", "fixture:rotation-path", "--json"],
    ["gradings", "--input", "fixture:torus-section-sum"],
    ["example", "s2xs2", "--m", "1", "--n", "1", "--json"],
]


def test_output_byte_identical_across_thread_env():
    for args in INVOCATIONS:
        outs = set()
        for threads in ("1", "4"):
            r = run_cli(args, env_extra={"LAGMATCH_THREADS": threads})
            assert r.returncode == 0, (args, r.stderr)
            outs.add(r.stdout)
        assert len(outs) == 1, args


def test_repeat_runs_identical():
    for args in INVOCATIONS[:4]:
        a = run_cli(args).stdout
        b = run_cli(args).stdout
        assert a == b


# -- renderer unit checks ---------------------------------------------------

_MAX_JSON_INT = 2**53 - 1


def _jsonable(value):
    """The copy both formats once rendered from: ints beyond 2^53 - 1 as
    strings, tuples as lists, and a TypeError on anything else."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value if abs(value) <= _MAX_JSON_INT else str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    raise TypeError(f"unrenderable report value {value!r}")


def _human_lines(value, prefix, out):
    """The key/value renderer as first written, over a ``_jsonable`` copy."""
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


def _oracle_text(report):
    lines = []
    _human_lines(_jsonable(report), "", lines)
    return "\n".join(lines) + "\n"


def test_jsonable_big_ints():
    assert _jsonable(2**53 - 1) == 2**53 - 1
    assert _jsonable(2**53) == str(2**53)
    assert _jsonable(-(2**60)) == str(-(2**60))


def test_main_returns_exit_code():
    assert main(["example", "s2xs2", "--m", "0", "--n", "0"]) == 0
    assert main(["example", "zzz", "--m", "0", "--n", "0"]) == 2


def test_schema_checked_once_per_process(tmp_path):
    """Valid documents never build the jsonschema validator; rejections build it once."""
    validator = jsonschema.validators.validator_for(cli.INPUT_SCHEMA)
    original = validator.check_schema
    calls = []

    def counted(cls, schema, *args, **kwargs):
        calls.append(schema)
        return original(schema, *args, **kwargs)

    cli._schema_validator.cache_clear()
    with mock.patch.object(validator, "check_schema", classmethod(counted)):
        for name in sorted(FIXTURES) * 2:
            cli._load_document(f"fixture:{name}")
        assert len(calls) == 0
        for k, bad in enumerate([doc(extra=1), doc(cz={"samples": []})]):
            path = tmp_path / f"bad{k}.json"
            path.write_text(bad)
            with pytest.raises(cli._Exit, match="schema violation"):
                cli._load_document(str(path))
    assert len(calls) == 1


def test_undecodable_input_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema": "lagmatch-input@1", "note": "\xff"}')
    assert main(["dim", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read input: 'utf-8' codec"), lines


def _half_turn(count=41):
    return [[[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
            for t in (math.pi * k / (count - 1) for k in range(count))]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("form", ["samples", "paths"])
def test_non_finite_cz_sample_exits_2(tmp_path, capsys, literal, form):
    """The first sample with a non-finite entry is named, and numpy stays quiet."""
    samples = _half_turn()
    samples[3][0][1] = samples[7][1][1] = "X"
    section = {"samples": samples} if form == "samples" else {"paths": [_half_turn(), samples]}
    path = tmp_path / "cz.json"
    path.write_text(doc(cz=section).replace('"X"', literal))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["cz", "--input", str(path)]) == 2
    where = "cz.samples[3]" if form == "samples" else "cz.paths[1][3]"
    assert capsys.readouterr() == ("", f"error: {where}: entries must be finite numbers\n")


@pytest.mark.parametrize("nan_at, first", [(None, 5), (2, 2)])
def test_cz_integer_past_the_float_range_exits_2(capsys, nan_at, first):
    """An integer that no float holds is non-finite too, named in sample order."""
    samples = _half_turn()
    samples[5][0][0] = "X"
    if nan_at is not None:
        samples[nan_at][1][0] = float("nan")
    text = doc(cz={"samples": samples}).replace('"X"', "1" + "0" * 400)
    with mock.patch("sys.stdin", io.StringIO(text)):
        assert main(["cz", "--input", "-"]) == 2
    assert capsys.readouterr() == ("", f"error: cz.samples[{first}]: entries must be finite numbers\n")


def _cz_case(case):
    """Documents whose cz paths break several rules at once."""
    base = _half_turn()
    if case == "ragged after non-finite":
        nan, ragged = json.loads(json.dumps(base)), json.loads(json.dumps(base))
        nan[3][0][1], ragged[5][1] = "NAN", [0.0]
        return {"paths": [nan, ragged]}
    if case == "past the float range":
        big = json.loads(json.dumps(base))
        big[6][0][0] = "BIG"
        return {"paths": [base, big]}
    if case == "mixed shapes":
        return {"samples": base[:10] + [[[float(i == j) for j in range(4)] for i in range(4)]] + base[11:]}
    if case == "too few":
        return {"samples": base[:4]}
    if case == "too few, then ragged":
        return {"paths": [base[:4], base[:5] + [[[1.0, 0.0], [0.0]]]]}
    raise KeyError(case)


@pytest.mark.parametrize("case, code, message", [
    ("ragged after non-finite", 2, "cz.paths[1][5]: rows of different lengths"),
    ("past the float range", 2, "cz.paths[1][6]: entries must be finite numbers"),
    ("mixed shapes", 3, "samples must all have the same shape"),
    ("too few", 4, "need at least 5 samples, got 4"),
    ("too few, then ragged", 2, "cz.paths[1][5]: rows of different lengths"),
])
def test_cz_errors_keep_their_order(capsys, case, code, message):
    """Ragged rows in any path come first, then each path's errors in turn."""
    text = doc(cz=_cz_case(case)).replace('"NAN"', "NaN").replace('"BIG"', "1" + "0" * 400)
    with mock.patch("sys.stdin", io.StringIO(text)):
        assert main(["cz", "--input", "-"]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("c1, message", [
    ([1, 0], "c_1^2 = 2/3 is not an integer in this H^2 model"),
    ([3, 0], "c_1 is not characteristic for the intersection form"),
])
def test_dim_reports_c1_squared_before_the_characteristic_check(capsys, c1, message):
    fibration = {
        "regions": [{"chi_base": 2, "fibers": [{"genus": 1, "class": [0, 0]}]}],
        "h2": {"form": [[2, 1], [1, 2]], "canonical": [0, 0]},
    }
    with mock.patch("sys.stdin", io.StringIO(doc(fibration=fibration, spinc=[{"c1": c1}]))):
        assert main(["dim", "--input", "-"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_parser_built_once_per_process(capsys):
    """Document command lines build no parser; any other argv builds it once."""
    parser_class = cli.argparse.ArgumentParser
    cli._build_parser.cache_clear()
    with mock.patch.object(parser_class, "add_subparsers", autospec=True,
                           side_effect=parser_class.add_subparsers) as built:
        for _ in range(3):
            assert main(["dim", "--input", "fixture:torus-section-sum"]) == 0
        assert built.call_count == 0
        for _ in range(3):
            assert main(["example", "s2xs2", "--m", "0", "--n", "0"]) == 0
    assert built.call_count == 1


@pytest.mark.parametrize("spelling", [
    ["--input=fixture:sphere-cycle"],
    ["--input=fixture:sphere-cycle", "--json"],
    ["--inp", "fixture:sphere-cycle"],
    ["--inp", "fixture:sphere-cycle", "--json"],
    ["--json", "--input", "fixture:sphere-cycle"],
    ["--input", "fixture:nope", "--input", "fixture:sphere-cycle"],
    ["--input", "fixture:nope", "--input", "fixture:sphere-cycle", "--json"],
])
def test_other_spellings_match_the_document_command_line(capsys, spelling):
    fmt = ["--json"] if "--json" in spelling else []
    assert main(["tqft-eval", "--input", "fixture:sphere-cycle", *fmt]) == 0
    expected = capsys.readouterr()
    assert cli._direct_args(["tqft-eval", *spelling]) is None
    assert main(["tqft-eval", *spelling]) == 0
    assert capsys.readouterr() == expected


def test_input_that_looks_like_a_negative_number_is_a_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli._direct_args(["dim", "--input", "-5"]) is None
    assert main(["dim", "--input", "-5"]) == 2
    assert capsys.readouterr() == (
        "", "error: cannot read input: [Errno 2] No such file or directory: '-5'\n")


_ARGV_TOKEN = st.sampled_from(["dim", "tqft-eval", "example", "cz", "gradings", "--input",
                                "--json", "-", "--", "-5", "-h", "", "a=b", "--input=x",
                                "x.json", "fixture:sphere-cycle"])
# Random lists rarely take the document shape, so half the draws start from it.
_ARGV = st.one_of(
    st.lists(_ARGV_TOKEN, max_size=5),
    st.builds(lambda command, source, tail: [command, "--input", source, *tail],
              _ARGV_TOKEN, _ARGV_TOKEN, st.lists(_ARGV_TOKEN, max_size=1)),
)


@settings(max_examples=500, deadline=None)
@given(argv=_ARGV)
def test_direct_args_agree_with_argparse(argv):
    """Wherever the direct reading answers, argparse gives the same namespace."""
    direct = cli._direct_args(argv)
    if direct is not None:
        assert vars(direct) == vars(cli._build_parser().parse_args(argv))


def test_direct_args_read_the_document_command_lines():
    for command in ("dim", "tqft-eval", "cz", "gradings"):
        for source in ("-", "", "x.json", "a=b"):
            for fmt in ([], ["--json"]):
                argv = [command, "--input", source, *fmt]
                assert vars(cli._direct_args(argv)) == vars(cli._build_parser().parse_args(argv))


def test_singular_intersection_form_exits_3():
    fix = json.loads(json.dumps(FIXTURES["s2xs2-product"]))
    fix["fibration"]["h2"] = {"form": [[2, 2], [2, 2]], "canonical": [0, 0]}
    out = run_cli(["dim", "--input", "-"], stdin=json.dumps(fix))
    assert out.returncode == 3
    assert (out.stdout, out.stderr) == ("", "error: intersection form must be nonsingular\n")


@pytest.mark.parametrize("digits", [4300, 4301])
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_huge_integers_exit_2_with_one_line(tmp_path, capsys, digits, fmt):
    """A 4300-digit n0 gives a 4301-digit value; a 4301-digit n0 cannot be read."""
    fix = json.loads(json.dumps(FIXTURES["sphere-cycle"]))
    fix["morse_cycle"]["n0"] = "9" * digits
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(fix))
    assert main(["tqft-eval", "--input", str(path), *fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_overlong_integer_literal_is_malformed_json(tmp_path, capsys, monkeypatch):
    """json.loads refuses an integer literal past the interpreter's digit limit
    with a plain ValueError; that is malformed input, from a file or stdin."""
    fix = json.loads(json.dumps(FIXTURES["sphere-cycle"]))
    fix["morse_cycle"]["n0"] = 0
    text = json.dumps(fix).replace('"n0": 0', '"n0": ' + "9" * 5000)
    path = tmp_path / "cycle.json"
    path.write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    for source in (str(path), "-"):
        assert main(["tqft-eval", "--input", source]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: malformed JSON: "), lines


def test_separating_down_then_non_primitive_up_exits_3(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(doc(morse_cycle={
        "n0": 1,
        "fibers": [2, 1],
        "moves": [
            {"kind": "down", "circle": [0, 0, 0, 0]},
            {"kind": "up", "circle": [2, 0, 0, 2]},
        ],
    }))
    assert main(["tqft-eval", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: circle class must be primitive\n")


_TWIST = {"kind": "twist", "matrix": [[2, 1], [1, 1]]}


@pytest.mark.parametrize("fibers, moves, message", [
    ([1, 1], [_TWIST, {**_TWIST, "circle": [1, 0]}], "move 1: twist moves carry no circle"),
    ([1, 0], [{"kind": "down", "circle": [1, 0], "matrix": [[1, 0], [0, 1]]},
              {"kind": "up", "circle": [0, 1]}],
     "move 0: down moves carry no matrix"),
    ([1, 0], [{"kind": "down", "circle": [1, 0]},
              {"kind": "up", "circle": [0, 1], "matrix": [[0, 1], [-1, 0]]}],
     "move 1: up moves carry no matrix"),
])
def test_stray_move_fields_exit_2(tmp_path, capsys, fibers, moves, message):
    """A field that a move kind does not carry is refused, not dropped."""
    path = tmp_path / "cycle.json"
    path.write_text(doc(morse_cycle={"n0": 1, "fibers": fibers, "moves": moves}))
    for extra in ([], ["--json"]):
        assert main(["tqft-eval", "--input", str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


_DOUBLE = [[2, 0], [0, 1]]  # det 2: not symplectic


@pytest.mark.parametrize("fibers, moves", [
    ([1], [{"kind": "twist", "matrix": _DOUBLE}]),
    ([1, 1], [_TWIST, {"kind": "twist", "matrix": _DOUBLE}]),
    ([2, 1, 1, 2], [{"kind": "down", "circle": [1, 0, 0, 0]}, {"kind": "twist", "matrix": _DOUBLE},
                    {"kind": "up", "circle": [0, 1, 0, 0]},
                    {"kind": "twist", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}]),
])
def test_non_symplectic_twist_exits_3(tmp_path, capsys, fibers, moves):
    """A parsed twist matrix is checked, whatever the word around it."""
    path = tmp_path / "cycle.json"
    path.write_text(doc(morse_cycle={"n0": 2, "fibers": fibers, "moves": moves}))
    for extra in ([], ["--json"]):
        assert main(["tqft-eval", "--input", str(path), *extra]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: matrix does not preserve the symplectic form\n")


def test_more_moves_than_fibers_exits_3_before_reading_matrices(tmp_path, capsys):
    """The lengths are compared before any twist matrix is built for a fiber."""
    path = tmp_path / "cycle.json"
    twist = {"kind": "twist", "matrix": [[1, 0], [0, 1]]}
    path.write_text(doc(morse_cycle={"n0": 1, "fibers": [1], "moves": [twist, twist]}))
    assert main(["tqft-eval", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: need one move per fiber, cyclically\n")


def test_examples_at_a_million_answer_quickly(capsys):
    for argv, monomial in (
        (["example", "s2xs2", "--m", "0", "--n", "1000000", "--json"], "U^1000000"),
        (["example", "s1s3-sum", "--m", "1", "--n", "1000000", "--json"], "U^999999 lambda"),
    ):
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 1.0, argv
        report = json.loads(capsys.readouterr().out)
        assert report["monomial"] == monomial
        assert abs(report["value"]) == 1


def _deep_cz(depth):
    samples = "[" * depth + "0" + "]" * depth
    return '{"schema": "lagmatch-input@1", "cz": {"samples": %s}}' % samples


@pytest.mark.parametrize("text", [
    pytest.param("[" * 100_000 + "]" * 100_000, id="bare-100000"),
    *(pytest.param(_deep_cz(depth), id=f"cz-{depth}") for depth in range(900, 1000, 2)),
])
@pytest.mark.parametrize("command", ["dim", "cz"])
def test_deeply_nested_json_exits_2_with_one_line(tmp_path, capsys, monkeypatch, text, command):
    """Nesting past the interpreter's recursion limit, in the parser or in the
    schema message, is malformed input: exit 2 and one line, from a file or stdin."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    for source in (str(path), "-"):
        assert main([command, "--input", source]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines[:1]
        if text.startswith("["):
            assert lines == ["error: malformed JSON: arrays or objects nested too deeply"]


@pytest.mark.parametrize("section, value, message", [
    pytest.param("signature", "9" * 4300,
                 "formal dimension (c1^2 - 2chi - 3sigma)/4 = -299999...999993 (4301 digits)/4"
                 " is not an integer", id="signature"),
    pytest.param("lefschetz_points", "9" * 4300,
                 "formal dimension (c1^2 - 2chi - 3sigma)/4 = -199999...999994 (4301 digits)/4"
                 " is not an integer", id="lefschetz_points"),
    pytest.param("spinc", [{"beta": ["9" * 4300, "0"]}],
                 "<c_1, fiber> differs across regions: [199999...999998 (4301 digits), "
                 "199999...999998 (4301 digits), 2]; descriptor and c_1 are inconsistent",
                 id="beta"),
])
def test_huge_descriptor_integers_keep_the_module_message(tmp_path, capsys, section, value, message):
    fix = json.loads(json.dumps(FIXTURES["torus-section-sum"]))
    if section == "spinc":
        fix["spinc"] = value
    else:
        fix["fibration"][section] = value
    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps(fix))
    assert main(["dim", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# -- the one-pass JSON writer against the stdlib encoder ---------------------


def _stdlib_json(report):
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


class _Pair(NamedTuple):
    first: Any
    second: Any


class _Name(str):
    pass


class _Kind(enum.IntEnum):
    ONE = 1
    BIG = 2**53 + 1


_EDGE_INTS = [2**53 - 1, 2**53, 2**53 + 1, -(2**53 - 1), -(2**53), -(2**53 + 1), 0, -1]
_EDGE_TEXT = ["", '"', "\\", "\x00", "\x1f", "\n\t", "\x7f", "é", "\u2028", "\U0001f600", 'a"b\\c']
_LEAVES = (st.none() | st.booleans() | st.integers() | st.sampled_from(_EDGE_INTS)
           | st.text(max_size=6) | st.sampled_from(_EDGE_TEXT)
           | st.builds(_Name, st.text(max_size=3)) | st.sampled_from(list(_Kind)))
_KEYS = st.text(max_size=4) | st.sampled_from(_EDGE_TEXT)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.builds(_Pair, inner, inner) | st.dictionaries(_KEYS, inner, max_size=4)
                   | st.dictionaries(_KEYS, inner, max_size=3).map(collections.OrderedDict)),
    max_leaves=40,
)


# 300 examples of up to 40 leaves each take a few seconds.
@settings(max_examples=300, deadline=None)
@given(report=st.dictionaries(_KEYS, _VALUES, max_size=5))
def test_json_writer_matches_the_stdlib_encoder(report):
    assert cli._render(report, True) == _stdlib_json(report)


def test_json_writer_matches_on_every_report(capsys):
    """Every fixture through every subcommand, and both examples."""
    reports = []
    render = cli._render

    def keep(report, as_json):
        reports.append(report)
        return render(report, as_json)

    runs = [[command, "--input", f"fixture:{name}", "--json"]
            for name in sorted(FIXTURES) for command in ("dim", "tqft-eval", "cz", "gradings")]
    runs += [["example", name, "--m", "3", "--n", "2", "--json"] for name in ("s2xs2", "s1s3-sum")]
    with mock.patch.object(cli, "_render", keep):
        for argv in runs:
            before = len(reports)
            if main(argv) == 0:
                assert capsys.readouterr().out == _stdlib_json(reports[before]), argv
    capsys.readouterr()
    assert {r["command"] for r in reports} == {"dim", "tqft-eval", "cz", "gradings", "example"}


# 300 examples of up to 40 leaves each take a few seconds.
@settings(max_examples=300, deadline=None)
@given(report=st.dictionaries(_KEYS, _VALUES, max_size=5))
def test_text_renderer_matches_the_jsonable_oracle(report):
    assert cli._render(report, False) == _oracle_text(report)


def test_json_writer_refuses_what_jsonable_refuses():
    for bad in ({"a": [1, 2.5]}, {"b": {"c": {1, 2}}}, {"d": (object,)}, {"e": [[1], 2.5]}):
        with pytest.raises(TypeError) as from_jsonable:
            _jsonable(bad)
        for as_json in (True, False):
            with pytest.raises(TypeError) as from_writer:
                cli._render(bad, as_json)
            assert str(from_writer.value) == str(from_jsonable.value), as_json


@pytest.mark.parametrize("as_json", [True, False])
def test_integer_too_long_to_print_exits_2(as_json):
    with pytest.raises(cli._Exit) as err:
        cli._render({"value": [1, 10**5000]}, as_json)
    assert (err.value.code, err.value.message) == (
        2, "result too long to print: an integer has too many digits")


# -- the float walk names the first float by its dotted path -----------------


def _with_float(name, edit):
    fixture = json.loads(json.dumps(FIXTURES[name]))
    edit(fixture)
    return fixture


@pytest.mark.parametrize("command, document, where", [
    pytest.param("tqft-eval", _with_float(
        "anosov-cycle", lambda d: d["morse_cycle"]["moves"][0]["matrix"].__setitem__(1, [1, 2.0])),
        "morse_cycle.moves.0.matrix.1.1", id="twist-matrix-row"),
    pytest.param("dim", _with_float(
        "s2xs2-product", lambda d: d["fibration"]["h2"]["form"].__setitem__(1, [1, 2.0])),
        "fibration.h2.form.1.1", id="h2-form"),
    pytest.param("dim", _with_float(
        "s2xs2-product", lambda d: d.__setitem__("spinc", [{"beta": [1, 1]}] * 3 + [{"beta": [1, 2.0]}])),
        "spinc.3.beta.1", id="spinc-beta"),
])
def test_float_walk_messages(tmp_path, capsys, command, document, where):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: floating point value at {where}: only cz samples may be floats\n")


def test_float_walk_descends_into_nested_lists():
    with pytest.raises(cli._Exit) as err:
        cli._reject_floats({"a": [[1, "2"], [1, [2, None, 2.0]]], "b": 3.0})
    assert err.value.message == "floating point value at a.1.1.2: only cz samples may be floats"
    cli._reject_floats({"a": [[1, "2", True, None], []], "cz": {"samples": [[[0.5]]]}})
