"""Command-line front door: run experiment configs, sweep parameters, and
execute verification suites.

Reports are canonical JSON (sorted keys, repr floats), so identical
(config, seed, version) runs produce byte-identical files; wall-clock timing
goes to a .timing.json sidecar, marked cached on cache hits, to keep the
report deterministic.
Completed runs are cached under a SHA-256 of the canonicalized config and
the package source, so a code change never serves a stale report; a cache
file that does not parse as a report for the same config is a miss, and is
recomputed and rewritten.  Reports, sidecars and cache files are written
atomically.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from . import __version__
from . import campanato as camp
from . import carleson as carl
from . import hardy
from .config import ExperimentConfig, _integer, _number, _numbers, _require, load_raw
from .errors import ConfigError, ToolkitError
from .exponents import check_log_holder, luxemburg_norm
from .serialization import write_atomic
from .suites import SUITE_NAMES, fubini_residual, run_suite

REPORT_SCHEMA = "anivex-report/1"


def _cache_dir():
    return os.environ.get("ANIVEX_CACHE_DIR", os.path.join(".", ".anivex-cache"))


def _canonical_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@functools.cache
def _source_digest():
    """SHA-256 over the names and bytes of the package's *.py files."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _read_cache(path, config_hash):
    """(text, report) of a cached report for this config, or None when the
    file is missing, unreadable, or not such a report (a miss)."""
    try:
        with open(path) as fh:
            text = fh.read()
        report = json.loads(text)
    except (OSError, ValueError):
        return None
    if not (
        isinstance(report, dict)
        and report.get("schema") == REPORT_SCHEMA
        and report.get("config_hash") == config_hash
        and isinstance(report.get("all_passed"), bool)
    ):
        return None
    return text, report


def _luxemburg_norm(cfg, spec, f):
    return luxemburg_norm(f, cfg.exponent)


def _campanato_functional(cfg, spec, f):
    d, prm = cfg.dilation, cfg.campanato
    config = camp.BallConfiguration(
        [
            (d.ball(e["center"], int(e["scale"])), float(e.get("weight", 1.0)))
            for e in spec["configuration"]
        ]
    )
    out = {
        "value": camp.campanato_type_functional(f, config, prm, d),
        "inf_variant": camp.variant_inf_functional(f, config, prm, d),
    }
    if prm.epsilon is not None:
        out["kernel_variant"] = camp.variant_eps_functional(f, config, prm, d)
    return out


def _campanato_norm(cfg, spec, f):
    res = camp.campanato_type_norm(f, cfg.campanato, cfg.dilation, budget=cfg.budget, seed=cfg.seed)
    return {"value": res.value, "evaluations": res.evaluations}


def _classic_functional(cfg, spec, f):
    d, prm = cfg.dilation, cfg.campanato
    ball = d.ball(spec["center"], int(spec["scale"]))
    res = camp.classic_functional(f, d, ball, prm.p, prm.q, prm.s)
    return {"projection": res.projection_value, "refined": res.refined_value}


def _hardy_estimate(cfg, spec, f):
    window = tuple(cfg.params.get("scale_window", (-6, 4)))
    bump = hardy.maximal_bump(cfg.grid.spacing, 0.5)
    return hardy.hardy_norm_estimate(f, bump, cfg.exponent, cfg.dilation, window, margin=1.0)


def _carleson_norm(cfg, spec, f):
    d, prm = cfg.dilation, cfg.campanato
    phi, _ = carl.build_analyzing_function(d, prm.s, cfg.grid)
    window = tuple(cfg.params.get("scale_window", (-4, 2)))
    mu = carl.carleson_from_function(f, phi, d, window, moment_cancel=prm.s)
    res = carl.carleson_functional(mu, prm.p, d, eta=prm.eta, budget=cfg.budget, seed=cfg.seed)
    return {"value": res.value, "evaluations": res.evaluations}


def _log_holder(cfg, spec, f):
    report = check_log_holder(cfg.exponent, cfg.dilation, sample_pairs=int(spec.get("pairs", 4000)))
    return {
        "c_log": report.c_log,
        "c_infinity": report.c_infinity,
        "unstable": report.unstable,
    }


def _fubini_residual(cfg, spec, f):
    window = tuple(cfg.params.get("scale_window", (-3, 1)))
    residual, lhs, rhs = fubini_residual(cfg.grid, cfg.dilation, window)
    return {"residual": residual, "cone_side": lhs, "layer_side": rhs}


# op -> (handler(cfg, spec, the spec's function or None), keys the spec must carry)
_OPS = {
    "luxemburg_norm": (_luxemburg_norm, ("function",)),
    "campanato_functional": (_campanato_functional, ("function", "configuration")),
    "campanato_norm": (_campanato_norm, ("function",)),
    "classic_functional": (_classic_functional, ("function", "center", "scale")),
    "hardy_estimate": (_hardy_estimate, ("function",)),
    "carleson_norm": (_carleson_norm, ("function",)),
    "log_holder": (_log_holder, ()),
    "fubini_residual": (_fubini_residual, ()),
}


def _validate_compute(cfg):
    """Check every compute spec against the op table before any op runs."""
    for i, spec in enumerate(cfg.raw.get("compute", [])):
        field = f"compute[{i}]"
        if not isinstance(spec, dict):
            raise ConfigError("a compute spec must be an object", field=field)
        op = spec.get("op")
        # Membership is tested in lists: a JSON value may be an unhashable array.
        if op not in list(_OPS):
            raise ConfigError(f"unknown op {op!r}; choose from {sorted(_OPS)}", field=f"{field}.op")
        for key in _OPS[op][1]:
            if key not in spec:
                raise ConfigError(f"missing key {key!r}", field=f"{field}.{key}")
        if "function" in spec and spec["function"] not in list(cfg.functions):
            raise ConfigError(f"unknown function {spec['function']!r}", field=f"{field}.function")
        if op == "log_holder":
            _integer(spec.get("pairs", 4000), f"{field}.pairs", lowest=1)
        balls = [(spec, field)] if op == "classic_functional" else []
        if op == "campanato_functional":
            if not isinstance(spec["configuration"], list):
                raise ConfigError(f"expected a list of balls, got {spec['configuration']!r}", field=f"{field}.configuration")
            balls = [(entry, f"{field}.configuration[{j}]") for j, entry in enumerate(spec["configuration"])]
        for ball, at in balls:
            _numbers(_require(ball, "center", f"{at}.center"), f"{at}.center", cfg.grid.n)
            _integer(_require(ball, "scale", f"{at}.scale"), f"{at}.scale")
            _number(ball.get("weight", 1.0), f"{at}.weight")


def run_config(config_path, out_path, seed=None, budget=None, resolution=None, use_cache=True):
    raw = load_raw(config_path)
    grid = raw.get("grid")
    # A malformed grid skips the override and fails validation below.  A
    # list of bounds keeps a list; a bare resolution stands for every axis.
    if resolution is not None and isinstance(grid, dict):
        lower = grid.get("lower")
        grid["resolution"] = [int(resolution)] * len(lower) if isinstance(lower, list) else int(resolution)
    if seed is not None:
        raw["seed"] = int(seed)
    if budget is not None:
        raw["budget"] = int(budget)
    cfg = ExperimentConfig(raw)
    _validate_compute(cfg)
    digest_src = dict(cfg.raw)
    digest_src["__version__"] = __version__
    digest = hashlib.sha256(
        json.dumps(digest_src, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    cache_key = hashlib.sha256((digest + _source_digest()).encode()).hexdigest()
    cache_file = os.path.join(_cache_dir(), f"{cache_key}.json")
    started = time.perf_counter()
    hit = _read_cache(cache_file, digest) if use_cache else None
    text, report = hit if hit is not None else _compute_report(cfg, digest)
    write_atomic(out_path, text)
    # A hit writes its sidecar too, so none is left over from an earlier run.
    timing = {"cached": hit is not None, "seconds": time.perf_counter() - started}
    write_atomic(f"{out_path}.timing.json", json.dumps(timing))
    if hit is None:
        os.makedirs(_cache_dir(), exist_ok=True)
        write_atomic(cache_file, text)
    return report, hit is not None


def _compute_report(cfg, digest):
    """(canonical text, report) of running every compute spec and check."""
    values = {}
    errors = []
    for i, spec in enumerate(cfg.raw.get("compute", [])):
        name = spec.get("name", f"compute{i}")
        try:
            handler, _ = _OPS[spec["op"]]
            values[name] = handler(cfg, spec, cfg.functions.get(spec.get("function")))
        except ToolkitError as exc:
            errors.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})

    checks = [res.as_dict() for suite_name in cfg.checks for res in run_suite(suite_name)]

    report = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "config": cfg.raw,
        "config_hash": digest,
        "seed": cfg.seed,
        "values": values,
        "checks": checks,
        "errors": errors,
        "all_passed": bool(all(c["passed"] for c in checks)) and not errors,
    }
    return _canonical_json(report), report


def sweep_config(config_path, parameter, values, out_path, seed=None, budget=None):
    """Run the config across a parameter grid; emit a CSV comparison table.

    'resolution' sweeps the grid's samples per axis; any other parameter is
    a dotted path into the config (e.g. params.epsilon).
    """
    rows = []
    for value in values:
        cfg_raw = load_raw(config_path)
        resolution = None
        if parameter == "resolution":
            resolution = int(value)
        else:
            target = cfg_raw
            *path, leaf = parameter.split(".")
            for key in path:
                target = target.setdefault(key, {})
                if not isinstance(target, dict):
                    raise ConfigError(f"{key!r} does not hold an object", field=parameter)
            target[leaf] = value
        with tempfile.TemporaryDirectory() as tmp:
            point_config = os.path.join(tmp, "config.json")
            with open(point_config, "w") as fh:
                json.dump(cfg_raw, fh)
            report, _ = run_config(
                point_config, os.path.join(tmp, "report.json"),
                seed=seed, budget=budget, resolution=resolution,
            )
        flat = {"parameter": parameter, "value": value, "all_passed": report["all_passed"]}
        for name, val in report["values"].items():
            if isinstance(val, dict):
                for k, v in val.items():
                    flat[f"{name}.{k}"] = v
            else:
                flat[name] = val
        for check in report["checks"]:
            flat[f"check.{check['name']}"] = check["residual"]
        rows.append(flat)

    keys = ["parameter", "value"]
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    lines = [",".join(keys)] + [",".join(repr(row.get(k, "")) for k in keys) for row in rows]
    write_atomic(out_path, "\n".join(lines) + "\n")
    return rows


def _number_list(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def main(argv=None):
    parser = argparse.ArgumentParser(prog="anivex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--budget", type=int, default=None)
    p_run.add_argument("--resolution", type=int, default=None, help="override samples per axis")
    p_run.add_argument("--no-cache", action="store_true")

    p_sweep = sub.add_parser("sweep", help="run a config across a parameter grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--parameter", required=True, help="dotted path, e.g. params.epsilon")
    p_sweep.add_argument("--values", required=True, type=_number_list, help="comma-separated numbers")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--budget", type=int, default=None)

    p_verify = sub.add_parser("verify", help="run a module invariant suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITE_NAMES))

    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            report, cached = run_config(
                args.config, args.out, seed=args.seed, budget=args.budget,
                resolution=args.resolution, use_cache=not args.no_cache,
            )
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        status = "cached" if cached else "computed"
        print(f"{status}: {args.out} (hash {report['config_hash'][:12]})")
        return 0 if report["all_passed"] else 1

    if args.command == "sweep":
        try:
            rows = sweep_config(
                args.config, args.parameter, args.values, args.out,
                seed=args.seed, budget=args.budget,
            )
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
        return 0 if all(row["all_passed"] for row in rows) else 1

    # verify: the only other subcommand
    results = run_suite(args.suite)
    failed = 0
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{mark}] {res.name}  residual={res.residual:.3e} {res.note}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
