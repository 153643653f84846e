"""Span tracing around calls into anivex's layers, from outside the package.

Each traced function is replaced by a wrapper at every place it is bound:
methods on their class, module functions in every anivex module that holds
them by name (``from .exponents import indicator_norm`` binds a second name
in each importing module).  Spans (name, start, end, parent, counts) stay
in memory until the round ends; per-layer metrics are derived from them
afterwards, so the wrappers only read the clock and a few sizes.
"""

import functools
import os
import sys
import time

import numpy as np


def _rows(offsets):
    return int(np.atleast_2d(np.asarray(offsets)).shape[0])


def _containment_counts(args, kwargs, result):
    d = args[0]
    vals = np.asarray(result)
    return {"rows": vals.size, "contained": int(np.count_nonzero(vals <= d.level_c * (1.0 + 1e-9)))}


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _save_counts(args, kwargs, result):
    path = str(args[1])
    return {"bytes": _file_bytes(path, path + ".json")}


def _save_manifest_counts(args, kwargs, result):
    return {"bytes": _file_bytes(f"{args[1]}.manifest.json")}


# (module, attribute, span name, counter).  A span name is the metric
# prefix "<module>.<function>"; several functions may share one name.
TARGETS = (
    ("anivex.dilation", "Dilation.containment_max_values", "dilation.containment_max_values",
     _containment_counts),
    ("anivex.dilation", "Dilation.step_levels", "dilation.step_levels",
     lambda a, k, r: {"points": _rows(a[1])}),
    ("anivex.dilation", "new_dilation", "dilation.new_dilation", None),
    ("anivex.grid", "ball_lattice_mask", "grid.ball_lattice_mask", None),
    ("anivex.grid", "convolve_scaled", "grid.convolve_scaled", None),
    ("anivex.exponents", "luxemburg_norm", "exponents.luxemburg_norm",
     lambda a, k, r: {"cells": int(np.size(a[0].values))}),
    ("anivex.exponents", "indicator_norm", "exponents.indicator_norm", None),
    ("anivex.exponents", "check_log_holder", "exponents.check_log_holder", None),
    ("anivex.polyproj", "minimizing_polynomial", "polyproj.minimizing_polynomial", None),
    ("anivex.polyproj", "refine_lq", "polyproj.refine_lq", None),
    ("anivex.campanato", "aggregate_norm", "campanato.aggregate_norm", None),
    ("anivex.search", "supremum_search", "search.supremum_search",
     lambda a, k, r: {"candidates": r.candidates_seen, "evaluations": r.evaluations}),
    ("anivex.hardy", "make_atom", "hardy.make_atom", None),
    ("anivex.tent", "lusin_area", "tent.lusin_area", None),
    ("anivex.tent", "maximal_dilate", "tent.maximal_dilate", None),
    ("anivex.tent", "whitney_cover", "tent.whitney_cover",
     lambda a, k, r: {"balls": len(r), "guarded": sum(1 for b in r if b.guarded)}),
    ("anivex.tent", "tent_atomic_decomposition", "tent.tent_atomic_decomposition",
     lambda a, k, r: {"atoms": len(r.entries)}),
    ("anivex.tent", "tent_atom_validate", "tent.tent_atom_validate", None),
    ("anivex.carleson", "tent_mass", "carleson.tent_mass", None),
    ("anivex.carleson", "carleson_duality_check", "carleson.carleson_duality_check", None),
    ("anivex.carleson", "carleson_functional", "carleson.carleson_functional", None),
    ("anivex.carleson", "carleson_from_function", "carleson.carleson_from_function", None),
    ("anivex.carleson", "build_analyzing_function", "carleson.build_analyzing_function", None),
    ("anivex.serialization", "save_grid_function", "serialization.save", _save_counts),
    ("anivex.serialization", "save_scale_function", "serialization.save", _save_counts),
    ("anivex.serialization", "save_tent_atoms", "serialization.save", _save_manifest_counts),
    ("anivex.serialization", "load_grid_function", "serialization.load", None),
    ("anivex.serialization", "load_scale_function", "serialization.load", None),
    ("anivex.cli", "run_config", "cli.run_config",
     lambda a, k, r: {"report_bytes": _file_bytes(str(a[1]))}),
    ("anivex.config", "ExperimentConfig.__init__", "config.ExperimentConfig", None),
)


class Tracer:
    """Single-threaded span recorder; parent is the innermost open span."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, counts]
        self._stack = []
        self.enabled = True

    def wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target at each of its bindings in loaded anivex modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "anivex" or n.startswith("anivex.")]
        for module_name, attr, name, counter in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), counter))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


# Set-up-time layers are reported as their whole span time over set-up and
# run; every other metric covers the run window only.
_WHOLE_SPAN = {"dilation.new_dilation", "carleson.build_analyzing_function", "config.ExperimentConfig"}


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


# Quantities summed over the spans of one name.
_SUMMED = ("calls", "self_s", "s", "rows", "points", "candidates", "evaluations",
           "balls", "atoms", "bytes", "report_bytes")
_SPAN_NAMES = {target[2] for target in TARGETS}


def layer_metrics(spans, run_start, run_end, names):
    """The per-layer metrics ``names`` of one traced round.

    A name this module cannot derive (``trace.overhead_s`` needs the
    untraced round too) is left out.  ``trace.unattributed_s`` is the part
    of ``trace.run_s`` that no reported ``*.self_s`` metric holds: code
    outside every span, and the self time of spans reported only by a
    count or a whole ``*.s`` time.  The reported self times plus the
    unattributed time therefore add up to ``trace.run_s``.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)

    agg = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        in_run = start >= run_start
        if not in_run and name not in _WHOLE_SPAN:
            continue
        duration = end - start
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "leaf_calls": 0})
        a["s"] += duration
        if not in_run:
            continue
        a["calls"] += 1
        a["self_s"] += duration - sum(spans[c][2] - spans[c][1] for c in children[i])
        a["leaf_calls"] += 0 if children[i] else 1
        for key, value in (counts or {}).items():
            a[key] = a.get(key, 0) + value

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    derived = {
        "dilation.containment_max_values.rows_per_s": _ratio(
            get("dilation.containment_max_values", "rows"), get("dilation.containment_max_values", "self_s")),
        "dilation.containment_max_values.contained_ratio": _ratio(
            get("dilation.containment_max_values", "contained"), get("dilation.containment_max_values", "rows")),
        "exponents.luxemburg_norm.cells_per_s": _ratio(
            get("exponents.luxemburg_norm", "cells"), get("exponents.luxemburg_norm", "self_s")),
        # A cache hit returns without a child span (no mask, no Luxemburg norm).
        "exponents.indicator_norm.hit_ratio": _ratio(
            get("exponents.indicator_norm", "leaf_calls"), get("exponents.indicator_norm", "calls")),
        "search.supremum_search.eval_ratio": _ratio(
            get("search.supremum_search", "evaluations"), get("search.supremum_search", "candidates")),
        "search.supremum_search.evals_per_s": _ratio(
            get("search.supremum_search", "evaluations"), get("search.supremum_search", "s")),
        "tent.whitney_cover.guarded_ratio": _ratio(
            get("tent.whitney_cover", "guarded"), get("tent.whitney_cover", "balls")),
    }
    out = {}
    for metric in names:
        prefix, _, quantity = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif prefix in _SPAN_NAMES and quantity in _SUMMED:
            out[metric] = float(get(prefix, quantity))
    run_s = run_end - run_start
    if "trace.run_s" in names:
        out["trace.run_s"] = run_s
    if "trace.unattributed_s" in names:
        out["trace.unattributed_s"] = run_s - sum(v for k, v in out.items() if k.endswith(".self_s"))
    return out
