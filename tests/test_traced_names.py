import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_name_resolves():
    # perfbench/tracing.py rebinds each "module.function" of its TRACED
    # list by name; a renamed or removed function crashes every traced run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name in tracing.TRACED:
        module, function = name.split(".")
        fn = getattr(importlib.import_module("hermeq." + module), function,
                     None)
        assert callable(fn), name
