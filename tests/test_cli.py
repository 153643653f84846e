import builtins
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HalfWriter

from anivex import cli, hardy
from anivex.cli import main, run_config, sweep_config
from anivex.config import (
    _FUNCTIONS,
    ExperimentConfig,
    build_exponent,
    build_function,
    compile_expression,
    load_raw,
)
from anivex.grid import uniform_grid
from anivex.errors import ConfigError, UnknownSuite
from anivex.suites import run_suite


QUICK = os.path.join(os.path.dirname(__file__), "..", "configs", "quick.json")
PAPER_SUITE = os.path.join(os.path.dirname(__file__), "..", "configs", "paper_suite.json")


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ANIVEX_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


class TestExpressionGrammar:
    def test_basic_arithmetic(self):
        fn = compile_expression("2 + sin(x)**2 / 4", 1)
        x = np.linspace(-1, 1, 5)
        assert np.allclose(fn(x), 2 + np.sin(x) ** 2 / 4)

    def test_2d_names(self):
        fn = compile_expression("x0 * x1 - 1", 2)
        a, b = np.ones(3), np.full(3, 2.0)
        assert np.allclose(fn(a, b), 1.0)

    def test_rejects_attribute_access(self):
        with pytest.raises(ConfigError):
            compile_expression("().__class__", 1)

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigError):
            compile_expression("open('x')", 1)
        with pytest.raises(ConfigError):
            compile_expression("y + 1", 1)

    def test_where_comparison(self):
        fn = compile_expression("where(x < 0.5, 1.0, 2.0)", 1)
        assert np.allclose(fn(np.array([0.0, 1.0])), [1.0, 2.0])


# Formulas that parse but cannot be sampled.
_BAD_FORMULAS = ["sin()", "1/0 + x", "where(x < 0)", "x < 1 < 2"]

_LEAVES = st.sampled_from(["x", "x0", "pi", "e", "0", "1", "2", "0.5", "1e308", "123456789"]) | st.floats(
    -1e3, 1e3, allow_nan=False
).map(repr)


def _compound(children):
    binary = st.tuples(
        children, st.sampled_from(["+", "-", "*", "/", "**", "<", "<=", ">", ">="]), children
    ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
    call = st.tuples(st.sampled_from(sorted(_FUNCTIONS)), st.lists(children, max_size=3)).map(
        lambda t: f"{t[0]}({', '.join(t[1])})"
    )
    chain = st.tuples(children, children, children).map(lambda t: f"({t[0]} < {t[1]} < {t[2]})")
    return binary | call | chain | children.map(lambda c: f"(-{c})")


_FORMULAS = st.recursive(_LEAVES, _compound, max_leaves=10)


class TestFormulaErrors:
    @pytest.mark.parametrize("formula", _BAD_FORMULAS)
    @pytest.mark.parametrize("where", ["functions", "exponent"])
    def test_bad_formula_is_config_error(self, cache_env, tmp_path, formula, where):
        raw = json.loads(open(QUICK).read())
        if where == "functions":
            raw["functions"]["f"]["formula"] = formula
            field = "functions.f.formula"
        else:
            raw["exponent"]["formula"] = formula
            field = "exponent.formula"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(load_raw(str(path)))
        assert info.value.field == field
        assert main(["run", "--config", str(path), "--out", str(cache_env / "bad.json")]) == 2

    @pytest.mark.parametrize("where", ["functions", "exponent"])
    def test_non_finite_samples_are_config_error(self, cache_env, tmp_path, where):
        raw = json.loads(open(QUICK).read())
        raw["grid"]["upper"] = [-1.0]  # log(x) is nan on every cell
        spec = raw["functions"]["f"] if where == "functions" else raw["exponent"]
        spec["formula"] = "log(x)"
        path = tmp_path / "log.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(load_raw(str(path)))
        assert info.value.field == ("functions.f.formula" if where == "functions" else "exponent.formula")
        assert main(["run", "--config", str(path), "--out", str(cache_env / "log.json")]) == 2

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(formula=_FORMULAS)
    def test_fuzzed_formula_samples_finite_or_config_error(self, formula):
        grid = uniform_grid([-2.0], [2.0], 16)
        spec = {"kind": "expression", "formula": formula}
        try:
            f = build_function(spec, grid, None, None, field="functions.f")
        except ConfigError as exc:
            assert exc.field == "functions.f.formula"
        else:
            assert f.values.shape == grid.resolution and np.all(np.isfinite(f.values))
        try:
            p = build_exponent(spec, grid)
        except ConfigError as exc:
            assert exc.field in ("exponent", "exponent.formula")
        else:
            assert np.all(np.isfinite(p.values.values)) and p.p_minus > 0.0


class TestConfig:
    def test_parse_quick(self):
        cfg = ExperimentConfig(load_raw(QUICK))
        assert cfg.dilation.b == 2.0
        assert cfg.grid.resolution == (1024,)
        assert "f" in cfg.functions
        assert cfg.exponent.p_infinity == 1.625

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": {}}))
        with pytest.raises(ConfigError):
            ExperimentConfig(load_raw(str(path)))

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError):
            ExperimentConfig(load_raw(str(path)))

    def test_piecewise_exponent(self, tmp_path):
        raw = json.loads(open(QUICK).read())
        raw["exponent"] = {
            "kind": "piecewise",
            "breakpoints": [0.0],
            "values": [1.0, 2.0],
        }
        path = tmp_path / "pw.json"
        path.write_text(json.dumps(raw))
        cfg = ExperimentConfig(load_raw(str(path)))
        assert cfg.exponent.p_minus == 1.0
        assert cfg.exponent.p_plus == 2.0


def _quick_params():
    return json.loads(open(QUICK).read())["params"]


def _piecewise(**changes):
    return {"kind": "piecewise", "breakpoints": [0.0], "values": [1.0, 2.0], **changes}


def _write_config(tmp_path, **changes):
    raw = json.loads(open(QUICK).read())
    raw.update(changes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestValidation:
    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"name": "v", "op": "luxemburg_norm", "function": "nope"}, "compute[0].function"),
            ({"name": "v", "op": "bogus", "function": "f"}, "compute[0].op"),
            ({"name": "v", "op": "classic_functional", "function": "f", "center": [0.0]},
             "compute[0].scale"),
            ({"name": "v", "op": "classic_functional", "function": "f", "center": [0.0, 0.0], "scale": 0},
             "compute[0].center"),
            ({"name": "v", "op": "classic_functional", "function": "f", "center": ["0"], "scale": 0},
             "compute[0].center"),
            ({"name": "v", "op": "classic_functional", "function": "f", "center": [0.0], "scale": "big"},
             "compute[0].scale"),
            ({"name": "v", "op": "campanato_functional", "function": "f", "configuration": {"center": [0.0]}},
             "compute[0].configuration"),
            ({"name": "v", "op": "campanato_functional", "function": "f", "configuration": [[0.0]]},
             "compute[0].configuration[0].center"),
            ({"name": "v", "op": "campanato_functional", "function": "f",
              "configuration": [{"center": [0.0], "scale": 0}, {"center": [1.0], "scale": 1, "weight": "heavy"}]},
             "compute[0].configuration[1].weight"),
            ({"name": "v", "op": "campanato_functional", "function": "f",
              "configuration": [{"center": [0.0], "scale": 0.5}]},
             "compute[0].configuration[0].scale"),
            ({"name": "v", "op": "log_holder", "pairs": "many"}, "compute[0].pairs"),
            ({"name": "v", "op": "log_holder", "pairs": 0}, "compute[0].pairs"),
        ],
    )
    def test_bad_compute_spec_is_config_error(self, cache_env, tmp_path, spec, field):
        path = _write_config(tmp_path, compute=[spec])
        with pytest.raises(ConfigError) as info:
            run_config(path, str(cache_env / "bad.json"))
        assert info.value.field == field
        assert main(["run", "--config", path, "--out", str(cache_env / "bad.json")]) == 2
        assert not (cache_env / "bad.json").exists()

    @pytest.mark.parametrize("check", [{"randomized": True}, "nonsense"])
    def test_unknown_check_rejected_at_load(self, tmp_path, check):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(load_raw(_write_config(tmp_path, checks=[check])))
        assert info.value.field == "checks[0]"

    def test_invalid_params_rejected_at_load(self, cache_env, tmp_path):
        path = _write_config(tmp_path, params={**_quick_params(), "q": 0.5})
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(load_raw(path))
        assert info.value.field == "params.q"
        assert main(["run", "--config", path, "--out", str(cache_env / "bad.json")]) == 2

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"budget": "many"}, "budget"),
            ({"budget": 0}, "budget"),
            ({"budget": 2.5}, "budget"),
            ({"seed": [1]}, "seed"),
            ({"seed": "7"}, "seed"),
            ({"seed": 10**400}, "seed"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_scalar_fields_checked_at_load(self, cache_env, tmp_path, changes, field):
        path = _write_config(tmp_path, **changes)
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(load_raw(path))
        assert info.value.field == field
        assert main(["run", "--config", path, "--out", str(cache_env / "bad.json")]) == 2

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda raw: raw["functions"]["a"]["ball"].pop("center"), "functions.a.ball.center"),
            (lambda raw: raw["functions"]["a"]["ball"].pop("scale"), "functions.a.ball.scale"),
            (lambda raw: raw["functions"]["a"]["ball"].update(center=[0.0, 1.0]), "functions.a.ball.center"),
            (lambda raw: raw["functions"]["a"]["ball"].update(center=["0"]), "functions.a.ball.center"),
            (lambda raw: raw["functions"]["a"]["ball"].update(scale=0.5), "functions.a.ball.scale"),
            (lambda raw: raw["functions"]["a"].pop("ball"), "functions.a.ball"),
            (lambda raw: raw["functions"]["a"].update(q="two"), "functions.a.q"),
            (lambda raw: raw["functions"]["a"].update(s=-1), "functions.a.s"),
            # A seed that is a polynomial on its ball has no atom.
            (lambda raw: raw["functions"]["a"].update(formula="1.0"), "functions.a"),
            (lambda raw: raw["exponent"].update(p_infinity="abc"), "exponent.p_infinity"),
            (lambda raw: raw["exponent"].update(p_infinity=float("nan")), "exponent.p_infinity"),
            (lambda raw: raw["exponent"].update(value="abc"), "exponent.value"),
            (lambda raw: raw["grid"].update(resolution=["a"]), "grid.resolution"),
            (lambda raw: raw["grid"].update(resolution=[1]), "grid.resolution"),
            (lambda raw: raw["grid"].update(resolution=[64, 64]), "grid.resolution"),
            (lambda raw: raw["grid"].update(lower=["a"]), "grid.lower"),
            (lambda raw: raw["grid"].update(lower=[9.0]), "grid.upper"),
            (lambda raw: raw["dilation"].update(matrix=[[2.0, 0.0], [0.0, 3.0]]), "grid.lower"),
            (lambda raw: raw.update(exponent=_piecewise(breakpoints=1.0)), "exponent.breakpoints"),
            (lambda raw: raw.update(exponent=_piecewise(axis=0.5)), "exponent.axis"),
            (lambda raw: raw.update(exponent=_piecewise(axis=1)), "exponent.axis"),
            (lambda raw: raw.update(exponent=_piecewise(values=[1.0, "x"])), "exponent.values"),
            (lambda raw: raw["params"].update(q="abc"), "params.q"),
            (lambda raw: raw["params"].update(s=1.5), "params.s"),
            (lambda raw: raw["params"].update(eta="x"), "params.eta"),
            (lambda raw: raw["params"].update(eta=0.0), "params.eta"),
            (lambda raw: raw["params"].update(epsilon="abc"), "params.epsilon"),
        ],
        ids=[
            "no-center", "no-scale", "center-length", "center-string", "scale-fraction", "no-ball",
            "q-string", "s-negative", "polynomial-seed", "p_infinity-string", "p_infinity-nan", "value-string",
            "resolution-string", "resolution-one", "resolution-length", "lower-string", "lower-above-upper",
            "grid-dimension", "breakpoints-number", "axis-fraction", "axis-range", "values-string",
            "params-q-string", "params-s-fraction", "params-eta-string", "params-eta-zero",
            "params-epsilon-string",
        ],
    )
    def test_paper_suite_fields_checked_at_load(self, cache_env, tmp_path, capsys, edit, field):
        raw = json.loads(open(PAPER_SUITE).read())
        edit(raw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(load_raw(str(path)))
        assert info.value.field == field
        assert main(["run", "--config", str(path), "--out", str(cache_env / "bad.json")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}:" in err and "Traceback" not in err

    def test_grid_span_overflow_is_config_error_without_warning(self, tmp_path):
        path = _write_config(tmp_path, grid={"lower": [-1e308], "upper": [1e308], "resolution": [1024]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as info:
                ExperimentConfig(load_raw(path))
        assert info.value.field == "grid.upper"

    def test_budget_option_zero_is_config_error(self, cache_env):
        with pytest.raises(ConfigError) as info:
            run_config(QUICK, str(cache_env / "bad.json"), budget=0)
        assert info.value.field == "budget"
        assert main(["run", "--config", QUICK, "--out", str(cache_env / "bad.json"), "--budget", "0"]) == 2

    def test_negative_seed_option_is_config_error(self, cache_env):
        with pytest.raises(ConfigError) as info:
            run_config(QUICK, str(cache_env / "bad.json"), seed=-1)
        assert info.value.field == "seed"
        assert main(["run", "--config", QUICK, "--out", str(cache_env / "bad.json"), "--seed", "-1"]) == 2

    @pytest.mark.parametrize("window", [5, [3], [2, 1], [0.5, 2], ["a", 1]])
    def test_scale_window_checked_at_load(self, cache_env, tmp_path, window):
        path = _write_config(
            tmp_path,
            params={**_quick_params(), "scale_window": window},
            compute=[{"name": "mu", "op": "carleson_norm", "function": "f"}],
        )
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(load_raw(path))
        assert info.value.field == "params.scale_window"
        assert main(["run", "--config", path, "--out", str(cache_env / "bad.json")]) == 2

    def test_integral_floats_are_integers(self, tmp_path):
        # A sweep sets every value as a float.
        path = _write_config(tmp_path, seed=4.0, budget=30.0,
                             params={**_quick_params(), "scale_window": [-3.0, 1]})
        cfg = ExperimentConfig(load_raw(path))
        assert (cfg.seed, cfg.budget, cfg.params["scale_window"]) == (4, 30, (-3, 1))

    def test_failed_op_exits_nonzero(self, cache_env, tmp_path):
        path = _write_config(
            tmp_path,
            params={**_quick_params(), "scale_window": [-60, 60]},
            compute=[{"name": "mu", "op": "carleson_norm", "function": "f"}],
        )
        out = cache_env / "fail.json"
        assert main(["run", "--config", path, "--out", str(out), "--no-cache"]) == 1
        errors = json.loads(out.read_text())["errors"]
        assert [e["name"] for e in errors] == ["mu"]
        assert errors[0]["error"].startswith("ScaleOverflow")


class TestRun:
    def test_run_and_cache(self, cache_env):
        out1 = cache_env / "r1.json"
        out2 = cache_env / "r2.json"
        report1, cached1 = run_config(QUICK, str(out1))
        report2, cached2 = run_config(QUICK, str(out2))
        assert not cached1 and cached2
        assert out1.read_bytes() == out2.read_bytes()
        assert report1["config_hash"] == report2["config_hash"]
        assert "f_luxemburg" in report1["values"]
        assert report1["values"]["f_campanato"]["value"] > 0

    def test_cache_is_keyed_on_the_source(self, cache_env, monkeypatch):
        out = cache_env / "out"
        out.mkdir()
        report, _ = run_config(QUICK, str(out / "r1.json"))
        # A report cached under the config hash alone, as an older build of
        # the code would have left it, must not be served.
        stale = dict(report, values={"f_luxemburg": -1.0})
        (cache_env / "cache" / f"{report['config_hash']}.json").write_text(json.dumps(stale))
        again, cached = run_config(QUICK, str(out / "r2.json"))
        assert cached and again["values"] == report["values"]
        monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
        changed, cached = run_config(QUICK, str(out / "r3.json"))
        assert not cached and changed["values"] == report["values"]
        # Atomic writes leave no temporary files behind.
        assert sorted(os.listdir(out)) == [
            "r1.json", "r1.json.timing.json", "r2.json", "r2.json.timing.json", "r3.json", "r3.json.timing.json",
        ]
        assert len(os.listdir(cache_env / "cache")) == 3

    def test_cache_hit_replaces_the_timing_sidecar(self, cache_env):
        out = cache_env / "r.json"
        sidecar = cache_env / "r.json.timing.json"
        run_config(QUICK, str(out))
        assert json.loads(sidecar.read_text())["cached"] is False
        # A sidecar left by an earlier run must not describe the cached one.
        sidecar.write_text(json.dumps({"seconds": 1e9}))
        _, cached = run_config(QUICK, str(out))
        timing = json.loads(sidecar.read_text())
        assert cached and timing["cached"] is True and 0.0 <= timing["seconds"] < 1e9

    def test_timing_ignores_wall_clock_steps(self, cache_env, monkeypatch):
        # The wall clock stepping back an hour between two reads (an NTP or
        # manual adjustment) must not reach the recorded duration.
        steps = iter(range(0, -3600 * 1000, -3600))
        monkeypatch.setattr(cli.time, "time", lambda: 1.8e9 + next(steps))
        run_config(QUICK, str(cache_env / "r.json"))
        timing = json.loads((cache_env / "r.json.timing.json").read_text())
        assert 0.0 <= timing["seconds"] < 600.0

    def test_corrupt_cache_is_a_miss(self, cache_env, capsys):
        out = cache_env / "out"
        out.mkdir()
        assert main(["run", "--config", QUICK, "--out", str(out / "r1.json")]) == 0
        (cache_file,) = (cache_env / "cache").iterdir()
        cache_file.write_bytes(cache_file.read_bytes()[:100])
        capsys.readouterr()
        assert main(["run", "--config", QUICK, "--out", str(out / "r2.json")]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("computed:") and "Traceback" not in captured.err
        assert (out / "r2.json").read_bytes() == (out / "r1.json").read_bytes()
        # The cache is rewritten whole, and the next run is served from it.
        assert cache_file.read_bytes() == (out / "r1.json").read_bytes()
        assert main(["run", "--config", QUICK, "--out", str(out / "r3.json")]) == 0
        assert capsys.readouterr().out.startswith("cached:")
        assert sorted(os.listdir(cache_env / "cache")) == [cache_file.name]

    def test_reports_byte_identical_without_cache(self, cache_env):
        out1 = cache_env / "a.json"
        out2 = cache_env / "b.json"
        run_config(QUICK, str(out1), use_cache=False)
        run_config(QUICK, str(out2), use_cache=False)
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_hash(self, cache_env):
        out1 = cache_env / "s1.json"
        out2 = cache_env / "s2.json"
        r1, _ = run_config(QUICK, str(out1), seed=1)
        r2, _ = run_config(QUICK, str(out2), seed=2)
        assert r1["config_hash"] != r2["config_hash"]

    def test_cli_exit_codes(self, cache_env, capsys):
        out = cache_env / "cli.json"
        assert main(["run", "--config", QUICK, "--out", str(out)]) == 0
        assert main(["verify", "--suite", "projection"]) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out

    def test_rank_deficient_ball_is_skipped(self, cache_env, tmp_path):
        # On the 12 x 12 shear grid at s = 2 a scale-1 sweep ball holds six
        # lattice points on two rows, which fix no quadratic: the search
        # skips it, and the run reports its value.
        raw = {
            "dilation": {"matrix": [[2.0, 1.0], [0.0, 2.0]]},
            "grid": {"lower": [-4.0, -4.0], "upper": [4.0, 4.0], "resolution": [12, 12]},
            "exponent": {"kind": "expression", "formula": "0.8 + 0.4 * sin(x0) * cos(x1)"},
            "functions": {"f": {"kind": "expression",
                                "formula": "sin(1.1 * x0 + 0.3) * cos(0.9 * x1) * exp(-(x0**2 + x1**2) / 10) + 0.2 * x0 * x1"}},
            "params": {"q": 1.5, "s": 2},
            "seed": 1,
            "budget": 700,
            "compute": [{"name": "f_campanato", "op": "campanato_norm", "function": "f"}],
        }
        path = tmp_path / "shear12.json"
        path.write_text(json.dumps(raw))
        out = cache_env / "shear12_out.json"
        assert main(["run", "--config", str(path), "--out", str(out), "--no-cache"]) == 0
        report = json.loads(out.read_text())
        assert report["errors"] == []
        assert report["values"]["f_campanato"] == {"evaluations": 619, "value": 0.15683082681038665}

    def test_empty_checks_echo_only(self, cache_env):
        report, _ = run_config(QUICK, str(cache_env / "echo.json"))
        assert report["checks"] == []
        assert report["all_passed"]


def test_cli_loads_no_scipy(tmp_path):
    # The whole of anivex runs on numpy; scipy's import is most of a start-up.
    out = str(tmp_path / "quick.json")
    code = (
        "import sys\n"
        "import anivex.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded(), loaded()\n"
        f"assert anivex.cli.main(['run', '--config', {os.path.abspath(QUICK)!r}, '--out', {out!r}, '--no-cache']) == 0\n"
        "assert not loaded(), loaded()\n"
        # nor numpy.ma, which np.unique imports on first use; quick.json has a
        # log_holder op, whose step quasi-norms group points by level.
        "assert 'numpy.ma' not in sys.modules\n"
        # The campanato suite refines at q = 4.
        "assert anivex.cli.main(['verify', '--suite', 'campanato']) == 0\n"
        "assert not loaded(), loaded()\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env["ANIVEX_CACHE_DIR"] = str(tmp_path / "cache")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def _hardy_2d_config(tmp_path, params):
    raw = {
        "dilation": {"matrix": [[2.0, 0.0], [0.0, 3.0]]},
        "grid": {"lower": [-4.0, -4.0], "upper": [4.0, 4.0], "resolution": [32, 32]},
        "exponent": {"kind": "constant", "value": 1.5},
        "functions": {"f": {"kind": "expression", "formula": "sin(x0) * exp(-(x0**2 + x1**2) / 4)"}},
        "params": params,
        "compute": [{"name": "h", "op": "hardy_estimate", "function": "f"}],
    }
    path = tmp_path / "hardy2d.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestHardyEstimate:
    def test_2d_runs(self, cache_env, tmp_path):
        path = _hardy_2d_config(tmp_path, {"s": 0, "scale_window": [-3, 1]})
        out = cache_env / "h2d.json"
        assert main(["run", "--config", path, "--out", str(out), "--no-cache"]) == 0
        value = json.loads(out.read_text())["values"]["h"]
        assert np.isfinite(value) and value > 0.0

    def test_2d_default_window_is_typed_error(self, cache_env, tmp_path, capsys):
        # Scale -6 shrinks the bump below one cell of the 32^2 grid.
        path = _hardy_2d_config(tmp_path, {"s": 0})
        out = cache_env / "h2d_fine.json"
        assert main(["run", "--config", path, "--out", str(out), "--no-cache"]) == 1
        errors = json.loads(out.read_text())["errors"]
        assert [e["name"] for e in errors] == ["h"]
        assert errors[0]["error"].startswith("ScaleTooFine")
        assert "Traceback" not in capsys.readouterr().err

    def test_1d_equals_hardy_norm_estimate(self, cache_env, tmp_path):
        path = _write_config(
            tmp_path,
            params={**_quick_params(), "scale_window": [-3, 2]},
            compute=[{"name": "h", "op": "hardy_estimate", "function": "f"}],
        )
        report, _ = run_config(path, str(cache_env / "h1d.json"), use_cache=False)
        cfg = ExperimentConfig(load_raw(path))
        bump = hardy.maximal_bump(cfg.grid.spacing, 0.5)
        expect = hardy.hardy_norm_estimate(
            cfg.functions["f"], bump, cfg.exponent, cfg.dilation, (-3, 2), margin=1.0
        )
        assert report["values"]["h"] == expect


class TestSweep:
    def test_epsilon_sweep(self, cache_env):
        out = cache_env / "sweep.csv"
        rows = sweep_config(QUICK, "params.epsilon", [2.0, 4.0], str(out))
        assert len(rows) == 2
        text = out.read_text().splitlines()
        assert text[0].startswith("parameter,value")
        assert len(text) == 3

    def test_sweep_leaves_only_the_csv(self, cache_env):
        out_dir = cache_env / "sweep_out"
        out_dir.mkdir()
        sweep_config(QUICK, "params.epsilon", [2.0, 4.0], str(out_dir / "sweep.csv"))
        assert sorted(os.listdir(out_dir)) == ["sweep.csv"]

    def test_failed_csv_write_keeps_the_old_file(self, cache_env, monkeypatch):
        out = cache_env / "sweep.csv"
        out.write_text("parameter,value\n'old',1\n")
        before = out.read_bytes()
        real_open = builtins.open

        def half_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return HalfWriter(fh) if str(file).startswith(str(out)) and "w" in mode else fh

        monkeypatch.setattr(builtins, "open", half_open)
        with pytest.raises(OSError):
            sweep_config(QUICK, "params.epsilon", [4.0], str(out))
        assert out.read_bytes() == before
        assert sorted(p.name for p in cache_env.iterdir() if p.name.startswith("sweep")) == ["sweep.csv"]

    @pytest.mark.parametrize("parameter", ["grid.lower.0", "seed.x"])
    def test_path_through_a_non_object_is_config_error(self, cache_env, parameter):
        out = cache_env / "bad.csv"
        with pytest.raises(ConfigError) as info:
            sweep_config(QUICK, parameter, [1.0], str(out))
        assert info.value.field == parameter
        args = ["sweep", "--config", QUICK, "--parameter", parameter, "--values", "1", "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()

    @pytest.mark.parametrize("values", ["abc", "1,x", ""])
    def test_values_that_are_not_numbers_are_a_usage_error(self, cache_env, capsys, values):
        out = cache_env / "bad.csv"
        args = ["sweep", "--config", QUICK, "--parameter", "params.epsilon", "--values", values, "--out", str(out)]
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --values" in err and "Traceback" not in err
        assert not out.exists()

    def test_failed_point_exits_nonzero_after_writing_the_csv(self, cache_env, tmp_path):
        far = {"center": [100.0], "scale": -9}
        path = _write_config(tmp_path, compute=[
            {"name": "far", "op": "campanato_functional", "function": "f", "configuration": [far]}
        ])
        out = cache_env / "fail.csv"
        args = ["sweep", "--config", path, "--parameter", "params.epsilon", "--values", "4", "--out", str(out)]
        assert main(args) == 1
        header, row = out.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["all_passed"] == "False"

    def test_single_value_sweep_matches_run(self, cache_env):
        out_csv = cache_env / "one.csv"
        rows = sweep_config(QUICK, "params.epsilon", [4.0], str(out_csv))
        report, _ = run_config(QUICK, str(cache_env / "direct.json"))
        assert rows[0]["f_luxemburg"] == report["values"]["f_luxemburg"]


class TestVerify:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("nonsense")

    def test_geometry_suite_passes(self):
        results = run_suite("geometry")
        assert all(r.passed for r in results)

    def test_cli_unknown_suite_exit(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nonsense"])


class TestCompletedInterfaces:
    def test_resolution_override(self, cache_env):
        out_lo = cache_env / "lo.json"
        out_hi = cache_env / "hi.json"
        r_lo, _ = run_config(QUICK, str(out_lo), resolution=512)
        r_hi, _ = run_config(QUICK, str(out_hi), resolution=1024)
        assert r_lo["config"]["grid"]["resolution"] == [512]
        assert r_lo["config_hash"] != r_hi["config_hash"]

    def test_resolution_override_with_scalar_bounds(self, cache_env, tmp_path):
        # Scalar bounds on a 2-D grid: the override is a bare resolution,
        # which stands for every axis, for run and for a resolution sweep.
        raw = {
            "dilation": {"matrix": [[2.0, 0.0], [0.0, 3.0]]},
            "grid": {"lower": -4.0, "upper": 4.0, "resolution": [16, 16]},
            "exponent": {"kind": "constant", "value": 1.0},
            "functions": {"f": {"kind": "expression", "formula": "x0 * exp(-x1**2)"}},
            "compute": [{"name": "f_lux", "op": "luxemburg_norm", "function": "f"}],
        }
        path = tmp_path / "scalar2d.json"
        path.write_text(json.dumps(raw))
        report, _ = run_config(str(path), str(cache_env / "scalar2d_out.json"), resolution=24)
        assert report["config"]["grid"]["resolution"] == 24
        assert ExperimentConfig(report["config"]).grid.resolution == (24, 24)
        assert main(["run", "--config", str(path), "--out", str(cache_env / "cli.json"), "--resolution", "24"]) == 0
        rows = sweep_config(str(path), "resolution", [16, 24], str(cache_env / "scalar2d.csv"))
        assert rows[1]["f_lux"] == report["values"]["f_lux"]

    def test_campanato_functional_configuration_block(self, cache_env, tmp_path):
        raw = json.loads(open(QUICK).read())
        raw["compute"] = [
            {
                "name": "cfg_value",
                "op": "campanato_functional",
                "function": "f",
                "configuration": [
                    {"center": [0.0], "scale": 0, "weight": 1.0},
                    {"center": [1.5], "scale": 1, "weight": 0.5},
                ],
            }
        ]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        report, _ = run_config(str(path), str(cache_env / "cfg_out.json"))
        vals = report["values"]["cfg_value"]
        assert vals["value"] > 0
        assert vals["inf_variant"] <= vals["value"] + 1e-8

    def test_resolution_sweep_fubini_decreasing(self, cache_env, tmp_path):
        raw = json.loads(open(QUICK).read())
        raw["compute"] = [{"name": "fub", "op": "fubini_residual"}]
        path = tmp_path / "fub.json"
        path.write_text(json.dumps(raw))
        out = cache_env / "fub.csv"
        rows = sweep_config(str(path), "resolution", [1024, 2048, 4096], str(out))
        residuals = [row["fub.residual"] for row in rows]
        assert residuals[0] > residuals[1] > residuals[2]

    def test_fubini_residual_2d_scalar_centres(self, cache_env, tmp_path):
        # The op's blob centres are scalars: each stands for the same
        # coordinate on every axis of a 2-D grid.
        raw = {
            "dilation": {"matrix": [[2.0, 0.0], [0.0, 3.0]]},
            "grid": {"lower": [-4.0, -4.0], "upper": [4.0, 4.0], "resolution": [24, 24]},
            "exponent": {"kind": "constant", "value": 1.0},
            "compute": [{"name": "fub", "op": "fubini_residual"}],
        }
        path = tmp_path / "fub2d.json"
        path.write_text(json.dumps(raw))
        report, _ = run_config(str(path), str(cache_env / "fub2d_out.json"))
        x0, x1 = np.meshgrid(*[np.linspace(-4.0, 4.0, 25)[:-1] + 1.0 / 6.0] * 2, indexing="ij")
        blob = 0.0
        for c, sd in ((0.5, 0.6), (-1.0, 0.9)):
            r2 = (x0 - c) ** 2 + (x1 - c) ** 2
            blob = blob + np.exp(-r2 / (2 * sd**2)) * (np.sqrt(r2) < 3 * sd)
        cell = (8.0 / 24) ** 2
        expected = sum(np.sum((w * blob) ** 2) * cell for w in (0.6, 0.8, 1.0, 0.5))
        assert report["values"]["fub"]["layer_side"] == pytest.approx(expected, rel=1e-12)

    def test_epsilon_sweep_kernel_ratio(self, cache_env, tmp_path):
        raw = json.loads(open(QUICK).read())
        raw["params"]["q"] = 1.0
        raw["params"]["s"] = 0
        raw["compute"] = [
            {
                "name": "v",
                "op": "campanato_functional",
                "function": "f",
                "configuration": [
                    {"center": [0.0], "scale": 0, "weight": 1.0},
                    {"center": [-2.0], "scale": 1, "weight": 0.7},
                ],
            }
        ]
        path = tmp_path / "eps.json"
        path.write_text(json.dumps(raw))
        rows = sweep_config(str(path), "params.epsilon", [2.0, 4.0, 8.0], str(cache_env / "eps.csv"))
        for row in rows:
            assert row["v.kernel_variant"] >= 0.5 * row["v.value"] - 1e-8
