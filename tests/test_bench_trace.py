"""The benchmark's traced layers still exist: a target that no longer
resolves would break every traced round, and only a traced round would
show it."""

import importlib
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "bench_trace.py")
_SPEC = importlib.util.spec_from_file_location("bench_trace_targets", _PATH)
bench_trace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trace)


@pytest.mark.parametrize("module, attr", [target[:2] for target in bench_trace.TARGETS])
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)
