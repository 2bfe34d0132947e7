"""One smoke-size pass of each benchmark workload, in process, through the
benchmark's own checks: a change that breaks the shape of an output the
benchmark reads fails here, not first as outputs_incorrect in a benchmark
run.  It reads perfbench/ and writes nothing there."""

import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SEED = 5


@pytest.fixture(scope="module")
def workloads():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = saved
        for name in ("workloads", "oracle"):
            sys.modules.pop(name, None)


def test_smoke_pass_passes_the_benchmark_checks(workloads):
    failures = []
    for name, wl_class in sorted(workloads.WORKLOADS.items()):
        wl = wl_class(SEED, ROOT, True)
        ops = wl.first_ops() + wl.ops()
        assert ops, name
        outputs = [op.run() for op in ops]
        ref = wl.reference(ROOT)
        for op, out in zip(ops, outputs):
            reason = wl.check(op, out, ref)
            if reason is not None:
                failures.append("%s %s: %s" % (name, op.label, reason))
    assert not failures
