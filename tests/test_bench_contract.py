"""The benchmark's use of the package, checked without timing anything.

``bench/`` calls ``cones.cone_from_link`` and ``suite`` runners through
module attributes, reads fields of the reports (``combined.link``,
``candidates_tried``), and wraps functions by their dotted names.  A rename
in ``src/`` would fail the benchmark's runs, and a traced name that
disappears would silently drop its per-layer metrics; these tests fail
first.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_ops_pass_their_checks(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    w = workloads.WORKLOADS[name](1, str(tmp_path), env)
    w.setup()
    if name == "cli-cold":
        ops = [w.op(0)] + [w.traced_op(i) for i in range(1, w.round_size)]
    else:
        ops = [w.op(0), w.op(1)]
    for i, out in enumerate(ops):
        assert w.check(out) is None, (name, i)
        assert w.fingerprint(out)


def test_every_traced_name_exists():
    for probe in (tracing.Tracer(), tracing.MemoryProbe()):
        restore, absent = probe.install()
        try:
            assert absent == [], type(probe).__name__
        finally:
            restore()
