"""Experiment configuration: JSON schema, a small expression grammar, and
construction of the runtime objects (dilation, grid, exponent, functions).

Expression grammar: arithmetic over the coordinate names x (alias x0) and
x1, ..., with + - * / ** and unary minus, numeric literals, the constants pi
and e, and the functions sin, cos, tan, exp, log, sqrt, abs, sign, where.
Parsed through the ast module with a strict whitelist; nothing else
evaluates.  Literals are floats.  A formula that fails to evaluate, or whose
samples are not one finite value per point, is a ConfigError.
"""

import ast
import json

import numpy as np

from .campanato import CampanatoParams
from .dilation import new_dilation
from .errors import ConfigError, ToolkitError
from .exponents import Exponent
from .grid import GridFunction, sample, uniform_grid
from .suites import SUITE_NAMES

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": np.sign,
    "where": np.where,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Call,
    ast.Load,
    ast.Compare,
    ast.Lt,
    ast.LtE,
    ast.Gt,
    ast.GtE,
)


def compile_expression(formula, n, field="formula"):
    """Compile a formula string into a vectorized callable of mesh arrays."""
    try:
        tree = ast.parse(formula, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # Deep nesting overflows the parser's stack: a MemoryError with no message.
        reason = str(exc) or "nested too deeply"
        raise ConfigError(f"cannot parse expression: {reason}", field=field) from None
    names = {"x", *(f"x{i}" for i in range(n))}
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(
                f"disallowed syntax element {type(node).__name__!r}", field=field
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ConfigError("only whitelisted functions may be called", field=field)
        if isinstance(node, ast.Name):
            if node.id not in names and node.id not in _FUNCTIONS and node.id not in _CONSTANTS:
                raise ConfigError(f"unknown name {node.id!r}", field=field)
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float) or not abs(node.value) <= np.finfo(float).max:
                raise ConfigError(f"literal {node.value!r} is not a finite float", field=field)
            node.value = float(node.value)
    code = compile(tree, "<formula>", "eval")

    def fn(*meshes):
        env = dict(_FUNCTIONS)
        env.update(_CONSTANTS)
        env["x"] = meshes[0]
        for i, m in enumerate(meshes):
            env[f"x{i}"] = m
        try:
            with np.errstate(all="ignore"):
                out = np.asarray(eval(code, {"__builtins__": {}}, env), dtype=float)
                out = out + np.zeros_like(meshes[0])
        except (ArithmeticError, TypeError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot evaluate {formula!r}: {exc}", field=field) from None
        if out.shape != np.shape(meshes[0]) or not np.all(np.isfinite(out)):
            raise ConfigError(f"{formula!r} is not one finite value per point", field=field)
        return out

    return fn


def _require(mapping, key, field):
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise ConfigError(f"missing key {key!r}", field=field) from None


def _sample_formula(spec, grid, field):
    formula = _require(spec, "formula", field)
    return sample(grid, compile_expression(formula, grid.n, field=f"{field}.formula"))


def _number(value, field, lowest=None, above=None):
    """value as a float, from a finite JSON number, at least lowest and
    strictly above above."""
    if type(value) not in (int, float) or not abs(value) <= np.finfo(float).max:
        raise ConfigError(f"expected a finite number, got {value!r}", field=field)
    if lowest is not None and value < lowest:
        raise ConfigError(f"expected at least {lowest}, got {value!r}", field=field)
    if above is not None and value <= above:
        raise ConfigError(f"expected a number above {above}, got {value!r}", field=field)
    return float(value)


def _integer(value, field, lowest=None):
    """value as an int (a JSON integer or an integral float), at least lowest."""
    if type(value) not in (int, float) or not (abs(value) < 2**63 and float(value).is_integer()):
        raise ConfigError(f"expected an integer, got {value!r}", field=field)
    if lowest is not None and value < lowest:
        raise ConfigError(f"expected at least {lowest}, got {value!r}", field=field)
    return int(value)


def _numbers(value, field, length=None):
    """value as a list of floats, from a JSON list of finite numbers."""
    if not isinstance(value, list) or length not in (None, len(value)):
        count = "" if length is None else f"{length} "
        raise ConfigError(f"expected a list of {count}finite numbers, got {value!r}", field=field)
    return [_number(v, field) for v in value]


def _per_axis(spec, key, n, parse):
    """One parsed value per axis from grid.<key>; a bare value stands for
    that value on every axis."""
    field = f"grid.{key}"
    value = _require(spec, key, field)
    value = value if isinstance(value, list) else [value] * n
    if len(value) != n:
        raise ConfigError(f"expected one value per axis ({n}), got {value!r}", field=field)
    return [parse(v, field) for v in value]


def build_grid(spec, n):
    """The n-dimensional grid of a "grid" object."""
    lower, upper = (_per_axis(spec, key, n, _number) for key in ("lower", "upper"))
    resolution = _per_axis(spec, "resolution", n, lambda r, field: _integer(r, field, lowest=2))
    try:
        return uniform_grid(lower, upper, resolution)
    except ValueError as exc:  # upper not above lower, or a span beyond the float range
        raise ConfigError(str(exc), field="grid.upper") from None


def build_exponent(spec, grid, field="exponent"):
    kind = _require(spec, "kind", field)
    p_inf = spec.get("p_infinity")
    if p_inf is not None:
        p_inf = _number(p_inf, f"{field}.p_infinity")
    if kind == "constant":
        value = _number(_require(spec, "value", field), f"{field}.value")
        vals = np.full(grid.resolution, value)
    elif kind == "piecewise":
        axis = _integer(spec.get("axis", 0), f"{field}.axis", lowest=0)
        if axis >= grid.n:
            raise ConfigError(f"expected an axis below {grid.n}, got {axis}", field=f"{field}.axis")
        breaks = _numbers(_require(spec, "breakpoints", field), f"{field}.breakpoints")
        values = _numbers(_require(spec, "values", field), f"{field}.values", len(breaks) + 1)
        coords = grid.meshes()[axis]
        vals = np.full(grid.resolution, values[0])
        for brk, val in zip(breaks, values[1:]):
            vals = np.where(coords >= brk, val, vals)
    elif kind == "expression":
        vals = _sample_formula(spec, grid, field).values
    else:
        raise ConfigError(f"unknown exponent kind {kind!r}", field=field)
    if np.any(vals <= 0):
        raise ConfigError("exponent must be strictly positive", field=field)
    return Exponent(GridFunction(grid, vals), p_infinity=p_inf)


def build_function(spec, grid, d, p, field="functions"):
    kind = _require(spec, "kind", field)
    if kind == "expression":
        return _sample_formula(spec, grid, field)
    if kind == "piecewise":
        exp_like = build_exponent({**spec, "kind": "piecewise"}, grid, field=field)
        return exp_like.values
    if kind == "atom_seed":
        from .hardy import make_atom

        seed = _sample_formula(spec, grid, field)
        ball_spec = _require(spec, "ball", f"{field}.ball")
        cfield, sfield = f"{field}.ball.center", f"{field}.ball.scale"
        center = _numbers(_require(ball_spec, "center", cfield), cfield, grid.n)
        ball = d.ball(center, _integer(_require(ball_spec, "scale", sfield), sfield))
        q = _number(spec.get("q", 2.0), f"{field}.q")
        s = _integer(spec.get("s", 0), f"{field}.s", lowest=0)
        try:
            return make_atom(seed, d, ball, q, p, s).values
        except ToolkitError as exc:  # a seed that is a polynomial on the ball, too few cells
            raise ConfigError(f"{type(exc).__name__}: {exc}", field=field) from None
    raise ConfigError(f"unknown function kind {kind!r}", field=field)


class ExperimentConfig:
    """Parsed experiment description plus the constructed runtime objects."""

    def __init__(self, raw):
        self.raw = raw
        try:
            matrix = _require(_require(raw, "dilation", "dilation"), "matrix", "dilation.matrix")
            self.dilation = new_dilation(matrix)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(str(exc), field="dilation") from None
        self.grid = build_grid(_require(raw, "grid", "grid"), self.dilation.n)
        self.exponent = build_exponent(_require(raw, "exponent", "exponent"), self.grid)
        self.functions = {}
        for name, spec in raw.get("functions", {}).items():
            self.functions[name] = build_function(
                spec, self.grid, self.dilation, self.exponent, field=f"functions.{name}"
            )
        self.params = dict(raw.get("params", {}))
        if "scale_window" in self.params:
            window, field = self.params["scale_window"], "params.scale_window"
            if not isinstance(window, list) or len(window) != 2:
                raise ConfigError(f"expected two integers [lo, hi], got {window!r}", field=field)
            lo = _integer(window[0], field)
            self.params["scale_window"] = (lo, _integer(window[1], field, lowest=lo))
        eta, epsilon = (
            None if self.params.get(key) is None else _number(self.params[key], f"params.{key}", above=bound)
            for key, bound in (("eta", 0.0), ("epsilon", None))
        )
        # CampanatoParams refuses none of these: a default eta is the
        # exponent's underline_p, which is positive.
        self.campanato = CampanatoParams(
            p=self.exponent,
            q=_number(self.params.get("q", 2.0), "params.q", lowest=1.0),
            s=_integer(self.params.get("s", 0), "params.s", lowest=0),
            eta=eta,
            epsilon=epsilon,
        )
        self.checks = list(raw.get("checks", []))
        for i, name in enumerate(self.checks):
            if not isinstance(name, str) or name not in SUITE_NAMES:
                raise ConfigError(
                    f"unknown suite {name!r}; choose from {sorted(SUITE_NAMES)}",
                    field=f"checks[{i}]",
                )
        self.seed = _integer(raw.get("seed", 0), "seed", lowest=0)
        self.budget = _integer(raw.get("budget", 120), "budget", lowest=1)


def load_raw(path):
    """The JSON object of a config file, before any runtime object is built."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: {exc.msg}", field=str(path)) from None
    except OSError as exc:
        raise ConfigError(str(exc), field=str(path)) from None
    if not isinstance(raw, dict):
        raise ConfigError("a config must be a JSON object", field=str(path))
    return raw
