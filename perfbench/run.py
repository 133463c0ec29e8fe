"""lagmatch benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lagmatch checkout; the package is imported from
its ``src`` directory.  With ``--trace 0`` the last line of stdout holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  The line before it records the machine.  See
perfbench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

from worker import run_child

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cycle-eval", "doc-batch", "cold-cli")
# Fresh interpreters timed per traced run for the import split.
IMPORT_SAMPLES = 5
IMPORTED = {"lagmatch.cli": "import.lagmatch_cli_ms", "numpy": "import.numpy_ms",
            "jsonschema": "import.jsonschema_ms"}
# The worker measures for --seconds and then finishes its round; a whole
# run must end within 180 s.
WORKER_GRACE_S = 120


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_quiet(cmd: list[str], env: dict) -> tuple[float, str]:
    """Wall seconds and stderr of a child that must succeed."""
    elapsed, code, _, err, _ = run_child(cmd, env)
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {code}: {err.strip()}")
    return elapsed, err


def import_split(env: dict) -> dict[str, float]:
    """Cumulative -X importtime of lagmatch.cli, numpy and jsonschema (medians)."""
    samples: dict[str, list[float]] = {metric: [] for metric in IMPORTED.values()}
    for _ in range(IMPORT_SAMPLES):
        _, err = run_quiet([sys.executable, "-X", "importtime", "-c", "import lagmatch.cli"], env)
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in IMPORTED:
                samples[IMPORTED[fields[2].strip()]].append(int(fields[1]) / 1e3)
    return {metric: statistics.median(values) for metric, values in samples.items()}


def declared_units(trace: int) -> dict[str, str]:
    """The metrics a run reports, with their units, as BENCHMARK.json lists them."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lagmatch", "cli.py")):
        return fail(f"no lagmatch sources under {src}; run from the root of a lagmatch checkout")
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.pop("LAGMATCH_THREADS", None)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    metrics = {}
    try:
        # The first import in a fresh checkout writes the bytecode cache;
        # setup_s is measured by the worker, between its rounds.
        run_quiet([sys.executable, "-c", "import lagmatch.cli"], env)
        if args.trace:
            metrics = import_split(env)
            metrics["process.interpreter_ms"] = statistics.median(
                run_quiet([sys.executable, "-c", "pass"], env)[0] * 1e3 for _ in range(IMPORT_SAMPLES))
    except RuntimeError as err:
        return fail(f"set-up failed: {err}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "src": src, "out": out,
           "trace_path": os.path.join(out, f"trace-{args.workload}-seed{args.seed}.jsonl")}
    worker = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
                              env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = worker.communicate(timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        return fail("the worker did not finish in time")
    if worker.returncode != 0 or not stdout.strip():
        return fail(f"the worker exited {worker.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])
    units = declared_units(args.trace)
    if metrics.keys() != units.keys():
        return fail(f"the run measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}")

    final = {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    record = {"machine": machine(), "run": {k: cfg[k] for k in ("workload", "seed", "seconds", "trace")},
              "rounds": result["rounds"], **final}
    with open(os.path.join(out, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"machine": record["machine"], "rounds": result["rounds"]}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
