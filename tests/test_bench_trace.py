"""The benchmark's traced layers still exist: a target that no longer
resolves would break every traced round, and only a traced round would
show it."""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from anivex import tent
from anivex.dilation import new_dilation
from anivex.errors import EmptyMask
from anivex.exponents import constant_exponent
from anivex.grid import uniform_grid
from anivex.search import BallConfiguration, default_scale_window, supremum_search

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


# A counter that reads a return value breaks when that value's type
# changes, and nothing but a traced round would call it: each one is
# applied here to what the traced call really returns on a small input.


def _containment_call():
    d = new_dilation([[2.0, 1.0], [0.0, 2.0]])
    offsets = np.array([[0.0, 0.0], [0.1, -0.2], [5.0, 5.0]])
    result = d.containment_max_values(-1, 1, offsets)
    return (d, -1, 1, offsets), result, {"rows": 3, "contained": 2}


def _search_call():
    d = new_dilation([[2.0]])
    stream = [BallConfiguration([(d.ball([float(x)], 0), 1.0)]) for x in range(4)]

    def value(config):
        x = float(config.entries[0][0].center[0])
        if x == 3.0:
            raise EmptyMask("a candidate the search skips")
        return -x

    result = supremum_search(value, stream)
    return (value, stream), result, {"candidates": 4, "evaluations": 3}


def _blobs():
    d = new_dilation([[2.0, 1.0], [0.0, 2.0]])
    g = uniform_grid([-2.0, -2.0], [2.0, 2.0], 16)
    r2 = (g.meshes()[0] - 0.3) ** 2 + g.meshes()[1] ** 2
    return d, g, np.exp(-r2) * (r2 < 4.0)


def _whitney_call():
    d, g, blob = _blobs()
    mask, window = blob > 0.0, default_scale_window(d, g, min_points=1)
    result = tent.whitney_cover(mask, d, g, window)
    guarded = [cb for cb in result if cb.guarded]
    assert 0 < len(guarded) < len(result)
    return (mask, d, g, window), result, {"balls": len(result), "guarded": len(guarded)}


def _decomposition_call():
    d, g, blob = _blobs()
    G = tent.ScaleFunction(g, -2, 0, np.stack([blob, 0.5 * blob, 0.25 * blob]))
    p = constant_exponent(g, 1.0)
    result = tent.tent_atomic_decomposition(G, p, d, leakage_bound=1.0)
    assert result.entries
    return (G, p, d), result, {"atoms": len(result.entries)}


_RESULT_COUNTERS = {
    "Dilation.containment_max_values": _containment_call,
    "supremum_search": _search_call,
    "whitney_cover": _whitney_call,
    "tent_atomic_decomposition": _decomposition_call,
}
# Counters that read only the call's arguments.
_ARGUMENT_COUNTERS = {
    "Dilation.step_levels", "luxemburg_norm", "save_grid_function", "save_scale_function",
    "save_tent_atoms", "run_config",
}


def test_every_counter_is_classified():
    counted = {target[1] for target in bench_trace.TARGETS if target[3] is not None}
    assert counted == set(_RESULT_COUNTERS) | _ARGUMENT_COUNTERS


@pytest.mark.parametrize("attr", sorted(_RESULT_COUNTERS))
def test_counter_reads_a_real_return_value(attr):
    [counter] = [target[3] for target in bench_trace.TARGETS if target[1] == attr]
    args, result, want = _RESULT_COUNTERS[attr]()
    assert counter(args, {}, result) == want
