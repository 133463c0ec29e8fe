"""End-to-end command line checks: reports, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import jsonschema
import pytest

from lagmatch import cli
from lagmatch.cli import _jsonable, main
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


def test_jsonable_fractions():
    assert _jsonable(Fraction(3, 2)) == "3/2"
    assert _jsonable(Fraction(4, 2)) == 2
    assert _jsonable(Fraction(-7, 3)) == "-7/3"


def test_jsonable_big_ints():
    assert _jsonable(2**53 - 1) == 2**53 - 1
    assert _jsonable(2**53) == str(2**53)
    assert _jsonable(-(2**60)) == str(-(2**60))


def test_main_returns_exit_code():
    assert main(["example", "s2xs2", "--m", "0", "--n", "0"]) == 0
    assert main(["example", "zzz", "--m", "0", "--n", "0"]) == 2


def test_schema_checked_once_per_process():
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
    assert len(calls) == 1


def test_parser_built_once_per_process(capsys):
    parser_class = cli.argparse.ArgumentParser
    cli._build_parser.cache_clear()
    with mock.patch.object(parser_class, "add_subparsers", autospec=True,
                           side_effect=parser_class.add_subparsers) as built:
        for _ in range(3):
            assert main(["dim", "--input", "fixture:torus-section-sum"]) == 0
    assert built.call_count == 1


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
