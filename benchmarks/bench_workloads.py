"""The three benchmark workloads: inputs from a seed, the timed calls into
anivex, and the checks of their outputs.

Every workload is a closed loop: one caller issues each call after the
previous one returns.  ``setup`` builds the inputs (the program receives
only these), ``run`` makes the timed calls through ``Ops``, and ``check``
judges each output against bench_checks, after the clock has stopped.
Calls go through module attributes (``carl.tent_mass``), never through
names imported at load time, so the traced run sees every call.
"""

import json
import math
import os

import numpy as np

import bench_checks as bc
from anivex import carleson as carl
from anivex import cli
from anivex import dilation as dil
from anivex import exponents as ex
from anivex import grid as gr
from anivex import hardy
from anivex import serialization as ser
from anivex import tent


class Ops:
    """Status of each named operation of a round: ok, raised or wrong."""

    def __init__(self, names):
        self.status = {name: "not run" for name in names}
        self.judged = set()

    def ok(self, name):
        return self.status[name] == "ok"

    def call(self, name, fn, *args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            self.status[name] = f"raised {type(exc).__name__}: {exc}"
            return None
        self.status[name] = "ok"
        return out

    def skip(self, name, needs):
        self.status[name] = f"raised: needs {needs}, which failed"

    def check(self, name, fn):
        if not self.ok(name):
            return
        self.judged.add(name)
        try:
            fn()
        except Exception as exc:  # any error while judging an output marks it wrong
            self.status[name] = f"wrong {type(exc).__name__}: {exc}"

    def judge(self, check, ctx):
        """Run a workload's ``check``.  If it breaks outside ``Ops.check``,
        every output it had not judged yet counts as wrong."""
        try:
            check(ctx, self)
        except Exception as exc:
            for name, status in self.status.items():
                if status == "ok" and name not in self.judged:
                    self.status[name] = f"wrong: the check broke first ({type(exc).__name__}: {exc})"

    @property
    def failed(self):
        return sum(1 for s in self.status.values() if s != "ok")

    @property
    def wrong(self):
        return sum(1 for s in self.status.values() if s.startswith("wrong"))


def _geometry(d):
    return d.matrix, d.shape, d.level_c


# -- carleson-1d -----------------------------------------------------------------

C1_WINDOW = (-4, 2)  # scales of the duality chain and of the density
C1_BUDGET = 128  # 8 of the 13 sweep scales; the first 4 have zero tent mass
C1_OPS = (
    "make_atom",
    "carleson_duality_check",
    "carleson_from_function",
    "carleson_functional",
    "carleson_from_function_3b",
    "carleson_functional_3b",
    "save_scale_function",
    "load_scale_function",
)


def carleson_setup(rng, in_dir, out_dir):
    d = dil.new_dilation([[2.0]])
    g = gr.uniform_grid([-8.0], [8.0], 4096)
    p = ex.constant_exponent(g, 1.0)
    phi, _ = carl.build_analyzing_function(d, 1, g)
    # A fixed carrier keeps the work per pair steady across seeds; the seed
    # moves the envelope centres and the phase.
    f, b = carl.band_limited_pair(g, seed=int(rng.integers(2**31)), correlated=True, mode_span=(0.6, 0.6))
    return {
        "d": d, "g": g, "p": p, "phi": phi, "f": f, "b": b,
        "b3": b.with_values(3.0 * b.values),
        "search_seed": int(rng.integers(2**31)),
        "density_path": os.path.join(out_dir, "density.avxs"),
    }


def carleson_run(c, ops):
    d, p, phi = c["d"], c["p"], c["phi"]
    atom = ops.call("make_atom", hardy.make_atom, c["f"], d, d.ball([0.0], 3), 2.0, p, 0)
    if atom is None:
        ops.skip("carleson_duality_check", "make_atom")
    else:
        c["atom"] = atom
        c["chain"] = ops.call(
            "carleson_duality_check", carl.carleson_duality_check,
            hardy.FiniteAtomicRep([(1.0, atom)]), c["b"], phi, d, p, C1_WINDOW, moment_cancel=1,
        )
    for suffix, b in (("", c["b"]), ("_3b", c["b3"])):
        mu = ops.call("carleson_from_function" + suffix, carl.carleson_from_function,
                      b, phi, d, C1_WINDOW, moment_cancel=1)
        c["mu" + suffix] = mu
        if mu is None:
            ops.skip("carleson_functional" + suffix, "carleson_from_function" + suffix)
            continue
        c["value" + suffix] = ops.call(
            "carleson_functional" + suffix, carl.carleson_functional,
            mu, p, d, eta=1.0, budget=C1_BUDGET, seed=c["search_seed"],
        )
    if c["mu"] is None:
        ops.skip("save_scale_function", "carleson_from_function")
        ops.skip("load_scale_function", "carleson_from_function")
        return
    ops.call("save_scale_function", ser.save_scale_function, c["mu"], c["density_path"])
    if ops.ok("save_scale_function"):
        c["loaded"] = ops.call("load_scale_function", ser.load_scale_function, c["density_path"])
    else:
        ops.skip("load_scale_function", "save_scale_function")


def _carleson_sweep(c):
    """The swept single balls within budget and their interval-arithmetic values."""
    g = c["g"]
    h = g.cell_volume
    axis = bc.lattice_axes(g.lower, g.upper, g.resolution)[0]
    window = bc.scale_window(2.0, h, 16.0, min_points=1)
    out = []
    for center, k in bc.canonical_sweep([axis], window)[:C1_BUDGET]:
        x = float(center[0])
        # Lattice points can sit exactly on the boundary |y - x| = 2^(k-1);
        # counting them (the closed ball) gives the smaller value, so the
        # bound holds whichever way the program decides them.
        n_closed = int(np.count_nonzero(np.abs(axis - x) <= 2.0 ** (k - 1)))
        mass = bc.tent_mass_1d(c["mu"].values, C1_WINDOW[0], axis, h, x, k)
        # Single ball, p = 1: |B|^(1/2) / ||1_B|| * mass^(1/2), aggregate norm one.
        out.append((x, k, math.sqrt(2.0**k) / (n_closed * h) * math.sqrt(mass)))
    return axis, out


def carleson_check(c, ops):
    d, g = c["d"], c["g"]
    h = g.cell_volume
    A, P, lvl = _geometry(d)

    def atom():
        vals = c["atom"].values.values
        x = bc.lattice_axes(g.lower, g.upper, g.resolution)[0]
        inside = np.abs(x) < 4.0
        bc.require(not np.any(vals[~inside]), "make_atom: values outside the ball")
        l2 = math.sqrt(float(np.sum(vals**2)) * h)
        bc.require_close(l2, math.sqrt(8.0) / (np.count_nonzero(inside) * h), 1e-9, "make_atom L2 size")
        bc.require(abs(float(vals.sum()) * h) <= 1e-12 * float(np.abs(vals).sum()) * h, "make_atom: mean not zero")

    def chain():
        pairing = float(np.sum(c["atom"].values.values * c["b"].values)) * h
        bc.check_chain(c["chain"], pairing)

    def density(suffix):
        mu = c["mu" + suffix].values
        nscales = C1_WINDOW[1] - C1_WINDOW[0] + 1
        bc.require(mu.shape == (nscales, 4096), f"density shape {mu.shape}")
        bc.require(bool(np.all(np.isfinite(mu)) and np.all(mu >= 0.0)), "density is not finite and nonnegative")
        if suffix:
            # |phi * 3b|^2 = 9 |phi * b|^2 up to rounding of the linear convolution.
            err = float(np.max(np.abs(mu - 9.0 * c["mu"].values)))
            bc.require(err <= 1e-10 * 9.0 * float(c["mu"].values.max()), f"density of 3b is not 9x: {err!r}")

    def functional():
        value = c["value"].value
        bc.require(value > 0.0, "carleson_functional: value 0, the search never left the zero-mass scales")
        axis, swept = _carleson_sweep(c)
        bc.check_search_dominates(value, [v for _, _, v in swept], "carleson_functional")
        # Tent masses and containment values on a sample of the swept balls.
        balls = [(float(b.center[0]), int(b.scale)) for b, _ in c["value"].config.entries]
        balls += [(x, k) for x, k, _ in swept[::8] if k >= C1_WINDOW[0]]
        for x, k in balls:
            ball = d.ball([x], k)
            bc.check_tent_mass(carl.tent_mass(c["mu"], d, ball), c["mu"].values,
                               C1_WINDOW[0], axis, h, x, k)
            offs = (axis[np.abs(axis - x) < 2.0 ** (k - 1)] - x)[:, None]
            for ell in range(C1_WINDOW[0], min(k, C1_WINDOW[1]) + 1):
                vals = d.containment_max_values(ell, k, offs)
                ref = bc.sampled_containment_max(A, P, lvl, ell, k, offs)
                bc.check_containment_upper_bound(vals, ref, lvl, f"containment B_{ell} in B_{k}")

    def homogeneity():
        bc.check_homogeneity(c["value"].value, c["value_3b"].value, 3.0, "carleson_functional")

    def saved():
        size = os.path.getsize(c["density_path"])
        bc.check_file_size(size, bc.avxs_size(1, 7, (4096,)), "density AVXS block")
        bc.require(os.path.exists(c["density_path"] + ".json"), "density sidecar missing")

    def loaded():
        bc.check_bitwise(c["loaded"].values, c["mu"].values, "density")

    ops.check("make_atom", atom)
    ops.check("carleson_duality_check", chain)
    ops.check("carleson_from_function", lambda: density(""))
    ops.check("carleson_from_function_3b", lambda: density("_3b"))
    ops.check("carleson_functional", functional)
    ops.check("carleson_functional_3b", homogeneity)
    ops.check("save_scale_function", saved)
    ops.check("load_scale_function", loaded)


# -- run-2d ----------------------------------------------------------------------

R2_MATRIX = [[2.0, 0.0], [0.0, 3.0]]
R2_HALF = 5.0
R2_RES = 48
R2_S = 1
R2_EPSILON = 10.0  # admissible threshold (2/r - 1) ln 6 / ln 2 = 7.75 at r = 1/2
R2_COMPUTE = ("f_luxemburg", "f_campanato", "f_configuration", "f_classic", "exponent_log_holder")
R2_OPS = R2_COMPUTE + ("cached_rerun",)


def _r2_fields(a0, a1, w0, w1, phase):
    """The exponent and function formulas, as config text and as numpy."""
    p_text = f"1.4 + 0.3 * sin({a0!r} * x0) * cos({a1!r} * x1)"
    f_text = f"sin({w0!r} * x0 + {phase!r}) * cos({w1!r} * x1) * exp(-(x0**2 + x1**2) / 10)"

    def p_fn(x0, x1):
        return 1.4 + 0.3 * np.sin(a0 * x0) * np.cos(a1 * x1)

    def f_fn(x0, x1):
        return np.sin(w0 * x0 + phase) * np.cos(w1 * x1) * np.exp(-(x0**2 + x1**2) / 10)

    return p_text, f_text, p_fn, f_fn


def _r2_sweep_budget():
    h2 = (2 * R2_HALF / R2_RES) ** 2
    window = bc.scale_window(6.0, h2, (2 * R2_HALF) ** 2, min_points=4 + 2 * R2_S)
    return (window[1] - window[0] + 1) * 16 * 16, window


def run2d_setup(rng, in_dir, out_dir):
    coeffs = [float(v) for v in rng.uniform([0.5, 0.5, 0.8, 0.8, 0.0], [0.9, 0.9, 1.3, 1.3, np.pi])]
    p_text, f_text, _, _ = _r2_fields(*coeffs)
    axes = bc.lattice_axes([-R2_HALF] * 2, [R2_HALF] * 2, [R2_RES] * 2)

    def lattice_point():
        return [float(ax[int(rng.integers(8, R2_RES - 8))]) for ax in axes]

    sweep, _ = _r2_sweep_budget()
    raw = {
        "dilation": {"matrix": R2_MATRIX},
        "grid": {"lower": [-R2_HALF] * 2, "upper": [R2_HALF] * 2, "resolution": [R2_RES] * 2},
        "exponent": {"kind": "expression", "formula": p_text, "p_infinity": 1.4},
        "functions": {"f": {"kind": "expression", "formula": f_text}},
        "params": {"q": 2.0, "s": R2_S, "eta": 1.0, "epsilon": R2_EPSILON},
        "seed": int(rng.integers(1000)),
        # Past the canonical sweep (16 x 16 centres per scale) into the
        # random configurations and weight ascent.
        "budget": sweep + 64,
        "compute": [
            {"name": "f_luxemburg", "op": "luxemburg_norm", "function": "f"},
            {"name": "f_campanato", "op": "campanato_norm", "function": "f"},
            {"name": "f_configuration", "op": "campanato_functional", "function": "f",
             "configuration": [
                 {"center": lattice_point(), "scale": int(rng.integers(0, 2)),
                  "weight": float(rng.uniform(0.5, 1.0))}
                 for _ in range(3)
             ]},
            {"name": "f_classic", "op": "classic_functional", "function": "f",
             "center": lattice_point(), "scale": 1},
            {"name": "exponent_log_holder", "op": "log_holder"},
        ],
        "checks": [],
    }
    config_path = os.path.join(in_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(raw, fh)
    os.environ["ANIVEX_CACHE_DIR"] = os.path.join(out_dir, "cache")
    return {
        "raw": raw, "coeffs": coeffs, "config_path": config_path,
        "out1": os.path.join(out_dir, "report.json"),
        "out2": os.path.join(out_dir, "report_again.json"),
    }


def run2d_run(c, ops):
    try:
        report, _ = cli.run_config(c["config_path"], c["out1"], use_cache=False)
    except Exception as exc:  # the whole run failed: every compute op fails
        for name in R2_OPS:
            ops.status[name] = f"raised {type(exc).__name__}: {exc}"
        return
    errors = {e["name"]: e["error"] for e in report["errors"]}
    for name in R2_COMPUTE:
        ops.status[name] = "ok" if name in report["values"] else f"raised {errors.get(name, 'missing')}"
    c["report"] = report
    c["again"] = ops.call("cached_rerun", cli.run_config, c["config_path"], c["out2"], use_cache=True)


class _Run2dReference:
    """Own numpy evaluation of the run-2d inputs."""

    def __init__(self, c):
        raw = c["raw"]
        _, _, p_fn, f_fn = _r2_fields(*c["coeffs"])
        lower, upper, res = raw["grid"]["lower"], raw["grid"]["upper"], raw["grid"]["resolution"]
        self.points = bc.lattice_points(lower, upper, res)
        self.f = f_fn(self.points[:, 0], self.points[:, 1])
        self.p = p_fn(self.points[:, 0], self.points[:, 1])
        self.cv = float(np.prod([(u - l) / r for l, u, r in zip(lower, upper, res)]))
        d = dil.new_dilation(R2_MATRIX)  # for the shape matrix and level only
        self.A, self.P, self.level = _geometry(d)
        self.b = float(abs(np.linalg.det(self.A)))
        self.q = raw["params"]["q"]

    def ball(self, center, k, closed):
        """(lattice mask, |B|, ||1_B||) with the indicator norm bisected here.

        Points within 1e-10 of the boundary count as inside when closed is
        set; the program may decide them either way by rounding.
        """
        band = 1.0 + 1e-10 if closed else 1.0 - 1e-10
        mask = bc.ball_mask(self.points, center, k, self.A, self.P, self.level * band)
        norm = bc.luxemburg(np.ones(int(mask.sum())), self.p[mask], self.cv)
        return mask, self.b**k, norm

    def per_ball(self, center, k, closed):
        """|B| / ||1_B|| (avg_B |f - P f|^q)^(1/q), or None if too few points."""
        mask, vol, norm = self.ball(center, k, closed)
        if mask.sum() < 3:
            return None
        resid = bc.projection_residual(self.points[mask], self.f[mask], center, k, self.A, R2_S)
        osc = (float(np.sum(resid**self.q)) * self.cv / vol) ** (1.0 / self.q)
        return vol / norm * osc

    def per_ball_range(self, center, k):
        vals = [self.per_ball(center, k, closed) for closed in (False, True)]
        return min(vals), max(vals)


def run2d_check(c, ops):
    if "report" not in c:  # run_config raised: every op is already marked
        return
    values = c["report"]["values"]
    ref = _Run2dReference(c)

    def luxemburg():
        bc.check_unit_modular(values["f_luxemburg"], ref.f, ref.p, ref.cv)

    def campanato():
        out = values["f_campanato"]
        budget = c["raw"]["budget"]
        bc.require(out["evaluations"] <= budget, f"campanato_norm: {out['evaluations']} evaluations > budget")
        _, window = _r2_sweep_budget()
        axes = bc.lattice_axes(c["raw"]["grid"]["lower"], c["raw"]["grid"]["upper"], c["raw"]["grid"]["resolution"])
        sweep = bc.canonical_sweep(axes, window)[:budget]
        singles = [ref.per_ball(center, k, closed) for center, k in sweep[::8] for closed in (False, True)]
        singles = [v for v in singles if v is not None]
        bc.require(len(singles) >= len(sweep[::8]), "campanato_norm: too few sampled balls could be scored")
        bc.check_search_dominates(out["value"], singles, "campanato_norm")

    def configuration():
        out = values["f_configuration"]
        entries = next(s for s in c["raw"]["compute"] if s["name"] == "f_configuration")["configuration"]
        expected = []
        for closed in (False, True):
            acc = np.zeros(len(ref.f))
            total = 0.0
            for e in entries:
                mask, _, norm = ref.ball(e["center"], e["scale"], closed)
                acc[mask] += e["weight"] / norm  # eta = 1
                total += e["weight"] * ref.per_ball(e["center"], e["scale"], closed)
            expected.append(total / bc.luxemburg(acc, ref.p, ref.cv))
        bc.require_within(out["value"], min(expected), max(expected), 1e-8, "campanato_functional value")
        bc.check_not_above(out["inf_variant"], out["value"], "campanato_functional")
        bc.require(math.isfinite(out["kernel_variant"]) and out["kernel_variant"] > 0.0,
                   f"campanato_functional: kernel variant {out['kernel_variant']!r}")

    def classic():
        out = values["f_classic"]
        spec = next(s for s in c["raw"]["compute"] if s["name"] == "f_classic")
        lo, hi = ref.per_ball_range(spec["center"], spec["scale"])
        bc.require_within(out["projection"], lo, hi, 1e-8, "classic_functional projection")
        bc.check_not_above(out["refined"], out["projection"], "classic_functional")

    def log_holder():
        out = values["exponent_log_holder"]
        bc.require(out["unstable"] is False, "log_holder: a smooth exponent was flagged unstable")
        bc.require(math.isfinite(out["c_log"]) and out["c_log"] >= 0.0, f"log_holder: c_log {out['c_log']!r}")
        # rho(x) = b^k on B_{k+1} \ B_k; bracket the level where x sits
        # within 1e-9 of a boundary.
        p_inf = c["raw"]["exponent"]["p_infinity"]
        bounds = []
        for slack in (1.0 + 1e-9, 1.0 - 1e-9):
            level = np.full(len(ref.points), np.nan)
            for m in range(-39, 40):
                inside = bc.form_values(ref.points, ref.A, ref.P, m) < ref.level * slack
                level[np.isnan(level) & inside] = m - 1
            rho = ref.b**level
            bounds.append(float(np.max(np.abs(ref.p - p_inf) * np.log(np.e + rho))))
        lo, hi = bounds
        got = out["c_infinity"]
        bc.require(lo * (1 - 1e-12) <= got <= hi * (1 + 1e-12),
                   f"log_holder: c_infinity {got!r} outside [{lo!r}, {hi!r}]")

    def cached():
        with open(c["out1"], "rb") as a, open(c["out2"], "rb") as b:
            bc.check_cache_hit(c["again"][1], a.read(), b.read())

    ops.check("f_luxemburg", luxemburg)
    ops.check("f_campanato", campanato)
    ops.check("f_configuration", configuration)
    ops.check("f_classic", classic)
    ops.check("exponent_log_holder", log_holder)
    ops.check("cached_rerun", cached)


# -- tent-2d ---------------------------------------------------------------------

T2_MATRIX = [[2.0, 1.0], [0.0, 2.0]]  # a shear: not diagonalizable
T2_HALF = 4.0
T2_RES = 32
T2_WINDOW = (-3, 0)
T2_WEIGHTS = {-3: 1.0, -2: 0.6, -1: 0.8, 0: 0.4}
T2_CENTERS = ((-1.5, -1.0), (1.2, 0.8))
T2_OPS = ("tent_atomic_decomposition", "tent_atom_validate", "save_tent_atoms", "load_scale_function")


def tent_setup(rng, in_dir, out_dir):
    d = dil.new_dilation(T2_MATRIX)
    g = gr.uniform_grid([-T2_HALF] * 2, [T2_HALF] * 2, T2_RES)
    p = ex.constant_exponent(g, 1.0)
    # Two truncated Gaussian blobs at four scales.  The seed jitters
    # centres, widths and amplitudes a little, so the atom count (and the
    # work) stays nearly the same from seed to seed.
    centers = np.array(T2_CENTERS) + rng.uniform(-0.1, 0.1, size=(len(T2_CENTERS), 2))
    widths = 0.5 + rng.uniform(-0.03, 0.03, size=len(T2_CENTERS))
    amps = rng.uniform(0.8, 1.2, size=len(T2_CENTERS))
    x0, x1 = np.meshgrid(*bc.lattice_axes(g.lower, g.upper, g.resolution), indexing="ij")
    layers = []
    for ell in range(T2_WINDOW[0], T2_WINDOW[1] + 1):
        layer = np.zeros(g.resolution)
        for (c0, c1), sd, amp in zip(centers, widths, amps):
            r2 = (x0 - c0) ** 2 + (x1 - c1) ** 2
            layer += amp * T2_WEIGHTS[ell] * np.exp(-r2 / (2 * sd**2)) * (np.sqrt(r2) < 3 * sd)
        layers.append(layer)
    G = tent.ScaleFunction(g, T2_WINDOW[0], T2_WINDOW[1], np.stack(layers))
    return {"d": d, "g": g, "p": p, "G": G, "prefix": os.path.join(out_dir, "atoms")}


def tent_run(c, ops):
    d, p = c["d"], c["p"]
    atoms = ops.call("tent_atomic_decomposition", tent.tent_atomic_decomposition, c["G"], p, d)
    if atoms is None:
        for name in T2_OPS[1:]:
            ops.skip(name, "tent_atomic_decomposition")
        return
    c["atoms"] = atoms
    c["reports"] = ops.call(
        "tent_atom_validate",
        lambda: [tent.tent_atom_validate(e.atom, e.ball, p, d) for e in atoms.entries],
    )
    ops.call("save_tent_atoms", ser.save_tent_atoms, atoms, c["prefix"])
    if not ops.ok("save_tent_atoms"):
        ops.skip("load_scale_function", "save_tent_atoms")
        return
    c["loaded"] = ops.call(
        "load_scale_function",
        lambda: [ser.load_scale_function(f"{c['prefix']}.atom{i:04d}.avxs") for i in range(len(atoms.entries))],
    )


def tent_check(c, ops):
    d, g, G = c["d"], c["g"], c["G"]
    A, P, lvl = _geometry(d)
    points = bc.lattice_points(g.lower, g.upper, g.resolution)
    ncells = points.shape[0]
    nscales = T2_WINDOW[1] - T2_WINDOW[0] + 1

    def decomposition():
        atoms = c["atoms"]
        bc.require(len(atoms.entries) > 0, "tent decomposition produced no atoms")
        bc.check_tent_atoms(
            G.values,
            [(e.node_indices, e.g_values, e.weight, e.amplitude) for e in atoms.entries],
            atoms.leakage_ratio, g.cell_volume,
        )
        for i, e in enumerate(atoms.entries):
            layer, cell = np.divmod(e.node_indices, ncells)
            for li in np.unique(layer):
                ell = T2_WINDOW[0] + int(li)
                offs = points[cell[layer == li]] - e.ball.center
                sampled = bc.sampled_containment_max(A, P, lvl, ell, e.ball.scale, offs, angles=360)
                bc.require(bool(np.all(sampled <= lvl * (1.0 + 1e-9))),
                           f"tent atom {i}: a claimed node's ball leaves the atom's ball")
                if i % 4 == 0:
                    vals = d.containment_max_values(ell, e.ball.scale, offs)
                    bc.check_containment_upper_bound(vals, sampled, lvl, f"atom {i} containment")

    def validate():
        reports = c["reports"]
        bc.require(len(reports) == len(c["atoms"].entries), "tent_atom_validate: missing reports")
        for i, r in enumerate(reports):
            bc.require(r.support_exact, f"tent_atom_validate: atom {i} support not inside its tent")
            bc.require(all(math.isfinite(v) and v > 0.0 for v in r.size_ratios.values()),
                       f"tent_atom_validate: atom {i} size ratios {r.size_ratios}")

    def saved():
        with open(f"{c['prefix']}.manifest.json") as fh:
            manifest = json.load(fh)
        bc.require(len(manifest["entries"]) == len(c["atoms"].entries), "manifest entry count")
        want = bc.avxs_size(2, nscales, g.resolution)
        for i in range(len(c["atoms"].entries)):
            path = f"{c['prefix']}.atom{i:04d}.avxs"
            bc.check_file_size(os.path.getsize(path), want, f"atom {i} AVXS block")
            bc.require(os.path.exists(path + ".json"), f"atom {i} sidecar missing")

    def loaded():
        blocks = c["loaded"]
        bc.require(len(blocks) == len(c["atoms"].entries), "load_scale_function: block count")
        for i, (block, e) in enumerate(zip(blocks, c["atoms"].entries)):
            bc.require((block.l_min, block.l_max) == T2_WINDOW, f"atom {i}: scale window")
            bc.check_bitwise(block.values, e.atom.values, f"atom {i}")

    ops.check("tent_atomic_decomposition", decomposition)
    ops.check("tent_atom_validate", validate)
    ops.check("save_tent_atoms", saved)
    ops.check("load_scale_function", loaded)


WORKLOADS = {
    "carleson-1d": (C1_OPS, carleson_setup, carleson_run, carleson_check),
    "run-2d": (R2_OPS, run2d_setup, run2d_run, run2d_check),
    "tent-2d": (T2_OPS, tent_setup, tent_run, tent_check),
}
