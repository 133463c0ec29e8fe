"""Runs one workload in a process of its own and prints its figures as JSON.

Started by run.py as ``python worker.py CONFIG_JSON``.  One client, closed
loop: the next operation starts when the previous one has returned.
In-process workloads call ``lagmatch.cli.main``; cold-cli starts one
``python -m lagmatch`` process per operation and waits for it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from time import perf_counter

from tracing import Tracer, install
from workloads import CLI_BATTERY, WORKLOADS, Report, Wrong, battery

HERE = os.path.dirname(os.path.abspath(__file__))

# A run keeps going until it has this many operations, so that the 90th
# percentile has at least ten operations beyond it.
MIN_OPS = 100
# setup_s samples are spread over the run, one between rounds at most this
# often, so that a few seconds of a busy host do not decide the median.
SETUP_EVERY_S = 2.5
CHILD_TIMEOUT_S = 60
TRACED_CHILD = "import sys; sys.path.insert(0, sys.argv.pop(1)); import tracing; sys.exit(tracing.traced_cli(sys.argv[1:]))"


def run_child(cmd: list[str], env: dict | None = None) -> tuple[float, int, str, str, float]:
    """Run a process to its end.

    Returns (wall seconds, exit code, stdout, stderr, peak RSS in MB).  The
    child is reaped with ``os.wait4``, a blocking wait that also gives the
    child's own resource usage; ``subprocess``'s timed wait polls in sleeps
    of up to 50 ms and would round the wall time up to that grain.  A timer
    kills a child that hangs.
    """
    with tempfile.TemporaryFile("w+", encoding="utf-8") as err_file:
        start = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=err_file, text=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - start
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read()
    return elapsed, proc.returncode, out, err, usage.ru_maxrss / 1024


class InProcess:
    def __init__(self) -> None:
        from lagmatch import cli

        self.cli = cli

    def run(self, op, tracer=None) -> tuple[float, int, str]:
        main = self.cli.main if tracer is None else tracer.wrap("op", self.cli.main)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = main(op.argv)
            elapsed = perf_counter() - start
        if tracer is not None and op.doc_path is not None:
            tracer.counts["load.doc_bytes"] += os.path.getsize(op.doc_path)
        return elapsed, code, out.getvalue() if code == 0 else err.getvalue()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ColdCli:
    def __init__(self, workdir: str) -> None:
        self.spans_path = os.path.join(workdir, "spans.json")
        self.peak_mb = 0.0

    def run(self, op, tracer=None) -> tuple[float, int, str]:
        env = dict(os.environ)
        if tracer is None:
            cmd = [sys.executable, "-m", "lagmatch", *op.argv]
        else:
            cmd = [sys.executable, "-c", TRACED_CHILD, HERE, *op.argv]
            env["PERFBENCH_SPANS"] = self.spans_path
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.spans_path)
        elapsed, code, out, err, rss_mb = run_child(cmd, env)
        self.peak_mb = max(self.peak_mb, rss_mb)
        if tracer is not None:
            with open(self.spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            tracer.absorb(child["spans"], child["counts"])
        return elapsed, code, out if code == 0 else err

    def peak_rss_mb(self) -> float:
        """The largest lagmatch process this runner has waited for."""
        return self.peak_mb


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.latencies: list[float] = []
        self.wall = 0.0

    def run_round(self, runner, ops, tracer=None) -> float:
        """Run and check one round; returns the time spent inside the program.

        ``wall`` adds up the wall time of the rounds, operations and checks
        together: the timed phase, without the input generation and the
        set-up samples that fall between rounds.
        """
        ctx: dict = {}
        spent = 0.0
        round_start = perf_counter()
        for op in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op += 1
            try:
                elapsed, code, text = runner.run(op, tracer)
            except Exception:  # a crash of the program is a failed operation
                self.failed += 1
                log_failure(op, traceback.format_exc())
                continue
            spent += elapsed
            if code != 0:
                self.failed += 1
                log_failure(op, f"exit {code}: {text.strip()}")
                continue
            try:
                op.check(Report(text, "--json" in op.argv), ctx)
            except (Wrong, KeyError, IndexError, TypeError, ValueError) as err:
                self.failed += 1
                self.wrong += 1
                log_failure(op, f"wrong answer: {err!r}")
                continue
            self.latencies.append(elapsed)
        self.wall += perf_counter() - round_start
        return spent


def discard(ops) -> None:
    for op in ops:
        if op.doc_path is not None:
            os.remove(op.doc_path)


def log_failure(op, message: str) -> None:
    print(f"perfbench: {op.label}: {message}", file=sys.stderr)


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing lagmatch.cli."""
    elapsed, code, _, err, _ = run_child([sys.executable, "-c", "import lagmatch.cli"])
    if code != 0:
        raise RuntimeError(f"importing lagmatch.cli exited {code}: {err.strip()}")
    return elapsed


def timed_run(runner, make_round, seconds: float) -> dict:
    tally = Tally()
    setup = [setup_sample()]
    last_setup = start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < seconds or tally.attempted < MIN_OPS:
        ops = make_round(r)
        tally.run_round(runner, ops)
        discard(ops)
        r += 1
        if perf_counter() - last_setup >= SETUP_EVERY_S:
            setup.append(setup_sample())
            last_setup = perf_counter()
    lat_ms = [x * 1e3 for x in tally.latencies]
    metrics = {"setup_s": statistics.median(setup)}
    if lat_ms:
        metrics.update({
            "latency_ms_p50": statistics.median(lat_ms),
            "latency_ms_p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
            if len(lat_ms) > 1 else lat_ms[0],
            "throughput_ops_per_s": len(lat_ms) / tally.wall,
            "peak_rss_mb": runner.peak_rss_mb(),
        })
    return {"attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
            "rounds": r, "ops": len(lat_ms), "setup_samples": len(setup), "metrics": metrics}


def traced_run(runner, make_round, seconds: float, trace_path: str) -> dict:
    """Pairs of rounds on the same inputs, one untraced and one traced.

    Which of the two goes first alternates, so warm-up and heap growth
    fall on both sides.  An in-process round is followed by the command
    line battery, so every layer has spans in every traced run.
    """
    in_process = isinstance(runner, InProcess)
    tally = Tally()
    tracer = Tracer()
    plain = traced = 0.0

    def traced_round(ops) -> float:
        if in_process:
            install(tracer)
        try:
            return tally.run_round(runner, ops, tracer)
        finally:
            tracer.restore()

    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        ops = make_round(r) + (battery() if in_process else [])
        if r % 2:
            traced += traced_round(ops)
            plain += tally.run_round(runner, ops)
        else:
            plain += tally.run_round(runner, ops)
            traced += traced_round(ops)
        discard(ops)
        r += 1
    tracer.dump(trace_path)
    metrics = tracer.layer_metrics(r)
    metrics["trace.overhead_pct"] = (traced / plain - 1) * 100
    return {"attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
            "rounds": r, "spans": len(tracer.spans), "metrics": metrics}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    import lagmatch

    if not os.path.abspath(lagmatch.__file__).startswith(cfg["src"] + os.sep):
        print(f"perfbench: lagmatch was imported from {lagmatch.__file__}, not {cfg['src']}",
              file=sys.stderr)
        return 2
    make = WORKLOADS[cfg["workload"]]
    os.makedirs(cfg["out"], exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cfg["out"], prefix="work-") as workdir:
        if cfg["workload"] == "cold-cli":
            runner = ColdCli(workdir)
        else:
            runner = InProcess()
            # Let first-call set-up (argparse, jsonschema, numpy paths) finish before timing.
            for argv in CLI_BATTERY:
                with contextlib.redirect_stdout(io.StringIO()):
                    runner.cli.main(argv)

        def make_round(r: int):
            return make(cfg["seed"], r, workdir)

        if cfg["trace"]:
            result = traced_run(runner, make_round, cfg["seconds"], cfg["trace_path"])
        else:
            result = timed_run(runner, make_round, cfg["seconds"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
