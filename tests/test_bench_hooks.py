"""The traced benchmark's hooks still find every name they patch.

``perfbench/tracing.py`` wraps functions in the namespaces of ``lagmatch.cli``
and ``lagmatch.tqft`` by name; a refactor that renames one of them breaks
traced runs, and this test fails first.  It only reads ``perfbench/``.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracing_installs_and_restores():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    from lagmatch import cli, tqft

    before = (dict(vars(cli)), dict(vars(tqft)))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert cli.main(["tqft-eval", "--input", "fixture:sphere-cycle", "--json"]) == 0
    finally:
        tracer.restore()
    assert (dict(vars(cli)), dict(vars(tqft))) == before
    assert tracer.spans
