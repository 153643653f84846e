"""Variable exponents p(.), the modular, and the Luxemburg quasi-norm.

The Luxemburg norm inf{lam > 0: modular(f/lam) <= 1} is found by Newton's
method on g(t) = log modular(f/e^t), a log-sum-exp of decreasing lines:
convex for every p(.) > 0, p < 1 included, and a line for constant p.  Only
the cells where f != 0 enter, and a guard sums the modular over those cells,
as modular() does, so the unit-modular property is exact.

The solver takes a stack of rows and solves each row as it would alone,
bit for bit: luxemburg_norm passes it one row of nonzero cells, and
stack_indicator_norms (under indicator_norm and fill_indicator_norms) the
indicators of a grid.scale_stacks stack, 0 where the box clips a ball; a
stack holds only balls that meet the lattice, so every row has a 1.
Log-Holder checking is diagnostic only and never gates any other operation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask, NonFinite, NotConjugable
from .grid import GridFunction, sample, scale_stacks


@dataclass
class LogHolderReport:
    c_log: float
    c_infinity: float | None
    shell_constants: dict
    unstable: bool
    sample_pairs: int


class Exponent:
    """A variable exponent sampled on a grid.

    p_infinity is user-declared (the asymptotic condition is invisible on a
    bounded box); underline_p = min(p_minus, 1).
    """

    def __init__(self, values, p_infinity=None):
        if not isinstance(values, GridFunction):
            raise TypeError("values must be a GridFunction")
        arr = np.asarray(values.values, dtype=float)
        if np.any(arr <= 0.0):
            raise ValueError("exponent values must be strictly positive")
        self.values = values
        self.grid = values.grid
        self.p_minus = float(arr.min())
        self.p_plus = float(arr.max())
        self.p_infinity = None if p_infinity is None else float(p_infinity)
        self.underline_p = min(self.p_minus, 1.0)
        self._indicator_cache = {}


def constant_exponent(grid, q):
    return Exponent(GridFunction(grid, np.full(grid.resolution, float(q))), q)


def exponent_from_callable(grid, fn, p_infinity=None):
    return Exponent(sample(grid, fn), p_infinity)


def modular(f, p):
    """integral of |f(x)|^p(x) over the box, summed over the cells where
    f != 0 in C order (the others contribute 0^p = 0)."""
    if f.grid.key() != p.grid.key():
        raise ValueError("function and exponent live on different grids")
    a, q = _nonzero_cells(f, p)
    return float(_modular_of_scaled(a, q, f.grid.cell_volume, 1.0))


def _nonzero_cells(f, p):
    """|f| and p on the cells where f != 0, as 1-D arrays in C order."""
    a = np.abs(np.asarray(f.values)).ravel()
    keep = a > 0.0
    return a[keep], p.values.values.ravel()[keep]


def _modular_of_scaled(abs_vals, p_vals, cell_volume, lam):
    """modular(f/lam) from |f| and p on the nonzero cells, summed along the
    last axis, so a stack of rows gives one modular per row."""
    with np.errstate(over="ignore", divide="ignore"):
        return np.add.reduce((abs_vals / lam) ** p_vals, axis=-1) * cell_volume


def luxemburg_norm(f, p):
    """inf{lam > 0: modular(f/lam) <= 1}; 0 iff f vanishes on the lattice.

    Newton steps -g/g' from where one cell's term alone is one (g >= 0) rise
    onto the root of the convex, decreasing g without passing it; the guard
    then raises the resulting lam by 4 eps, 8 eps, ... until modular(f/lam),
    summed over the nonzero cells in C order, is <= 1, so the unit-modular
    property holds by construction.
    """
    if f.grid.key() != p.grid.key():
        raise ValueError("function and exponent live on different grids")
    a, q = _nonzero_cells(f, p)
    if a.size == 0:
        return 0.0
    return float(_luxemburg(a[None], q[None], f.grid.cell_volume)[0])


def _luxemburg(a, q, cell):
    """luxemburg_norm of each row of the (rows, cells) arrays a = |f| and
    q = p, in C order; a row needs a nonzero cell, and a zero cell adds 0.

    The cell sums run over the whole stack; each row's Newton step, its
    stopping test and its guard nudges are scalar arithmetic on that row
    alone, so a row's norm is the one it has when solved alone.
    """
    # t is measured from log max|f|, so its rounding does not grow with |f|.
    top = np.maximum.reduce(a, axis=1)
    with np.errstate(divide="ignore"):  # log 0 = -inf: the cell's terms are exactly 0
        log_w = q * np.log(a / top[:, None]) + np.log(cell)
    t = np.maximum.reduce(log_w / q, axis=1).tolist()
    tiny = 4.0 * np.finfo(float).eps
    live, e = range(len(t)), np.empty_like(log_w)  # one buffer for every step
    for _ in range(60):  # a safety net: Newton converges in a handful of steps
        np.subtract(log_w, np.multiply(q, np.array(t)[:, None], out=e), out=e)
        z_max = np.maximum.reduce(e, axis=1)
        np.exp(np.subtract(e, z_max[:, None], out=e), out=e)
        total = np.add.reduce(e, axis=1)
        slope = (q[:, None, :] @ e[:, :, None])[:, 0, 0].tolist()  # one dot product per row
        z_max, log_total, total = z_max.tolist(), np.log(total).tolist(), total.tolist()
        still = []
        for i in live:
            step = (z_max[i] + log_total[i]) * total[i] / slope[i]
            if 0.0 < step < np.inf:
                t[i] += step
                if step > tiny * max(abs(t[i]), 1.0):
                    still.append(i)
        live = still
        if not live:
            break

    lam = top * np.exp(t)
    sums = _modular_of_scaled(a, q, cell, lam[:, None]).tolist()
    over = [i for i, (x, m) in enumerate(zip(lam.tolist(), sums)) if 0.0 < x < np.inf and m > 1.0]
    nudge = tiny  # a row still over one has been nudged as often as any other
    while over:
        lam[over] *= 1.0 + nudge
        nudge *= 2.0
        sums = _modular_of_scaled(a[over], q[over], cell, lam[over, None]).tolist()
        over = [i for i, m in zip(over, sums) if m > 1.0]
    for x in lam.tolist():
        if not 0.0 < x < np.inf:
            raise NonFinite(f"Luxemburg norm {x!r} is not a finite positive number")
    return lam


def _indicator_key(d, ball):
    return (d.matrix.tobytes(), ball.key())


def indicator_norm(d, ball, p):
    """Luxemburg norm of the ball indicator, cached per (dilation, ball) on
    the exponent: the ball's one-row stack of fill_indicator_norms."""
    key = _indicator_key(d, ball)
    if key not in p._indicator_cache and not fill_indicator_norms(d, [ball], p):
        raise EmptyMask(f"ball at scale {ball.scale} misses every lattice point")
    return p._indicator_cache[key]


# The largest stack, in entries, that fill_indicator_norms solves at once;
# a larger scale is solved in chunks.
_STACK_ENTRIES = 1 << 12


def fill_indicator_norms(d, balls, p):
    """Put indicator_norm of each ball into its cache a stack of
    grid.scale_stacks at a time and return the balls that meet the lattice;
    one that misses it gets no norm, so indicator_norm still raises on it."""
    live = []
    for _, group, rows, inside, _ in scale_stacks(p.grid, d, balls, _STACK_ENTRIES):
        stack_indicator_norms(d, group, rows, inside, p)
        live += group
    return live


def stack_indicator_norms(d, balls, rows, inside, p):
    """indicator_norm of the balls of one grid.scale_stacks stack, cached
    and returned: one solve of the uncached rows' indicators (1 inside)."""
    cache = p._indicator_cache
    keys = [_indicator_key(d, ball) for ball in balls]
    todo = [i for i, key in enumerate(keys) if key not in cache]
    if todo:
        cache.update(zip([keys[i] for i in todo], _indicator_norms(p, rows[todo], inside[todo])))
    return [cache[key] for key in keys]


def _indicator_norms(p, rows, inside):
    return _luxemburg(inside.astype(float), p.values.values.ravel()[rows], p.grid.cell_volume).tolist()


def conjugate(p):
    """Pointwise conjugate p' = p/(p-1); requires p_minus > 1."""
    if p.p_minus <= 1.0:
        raise NotConjugable(f"p_minus = {p.p_minus} <= 1")
    vals = p.values.values
    conj_vals = vals / (vals - 1.0)
    p_inf = None
    if p.p_infinity is not None and p.p_infinity > 1.0:
        p_inf = p.p_infinity / (p.p_infinity - 1.0)
    return Exponent(GridFunction(p.grid, conj_vals), p_inf)


def check_log_holder(p, d, sample_pairs=4000, seed=20):
    """Smallest observed constants in the two log-Holder inequalities.

    Shell constants track pairs at lattice separations of 1, 4, 16, and 64
    cells; a jump discontinuity shows up as constants that keep growing as
    the separation shrinks, which sets the unstable flag.  Everything here is
    a truncated-domain diagnostic, never an assertion about the exponent.
    """
    rng = np.random.default_rng(seed)
    pts = p.grid.points()
    vals = p.values.values.ravel()
    npts = pts.shape[0]

    i = rng.integers(0, npts, size=sample_pairs)
    j = rng.integers(0, npts, size=sample_pairs)
    keep = i != j
    i, j = i[keep], j[keep]
    rho = d.step_quasi_norm_many(pts[i] - pts[j])
    c_log = float(np.max(np.abs(vals[i] - vals[j]) * np.log(np.e + 1.0 / rho)))

    # Shell constants scan every axis-aligned pair at fixed lattice offsets,
    # so even a single straddling pair at a jump is seen.
    shells = {}
    grid_vals = p.values.values
    res = np.array(p.grid.resolution)
    for cells in (1, 4, 16, 64):
        if np.any(cells >= res):
            continue
        worst = 0.0
        for axis in range(p.grid.n):
            sl_lo = [slice(None)] * p.grid.n
            sl_hi = [slice(None)] * p.grid.n
            sl_lo[axis] = slice(None, -cells)
            sl_hi[axis] = slice(cells, None)
            diff = np.max(np.abs(grid_vals[tuple(sl_hi)] - grid_vals[tuple(sl_lo)]))
            offset = np.zeros(p.grid.n)
            offset[axis] = cells * p.grid.spacing[axis]
            rho_off = d.step_quasi_norm_many(offset[None, :])[0]
            worst = max(worst, diff * np.log(np.e + 1.0 / rho_off))
        shells[cells] = float(worst)

    keys = sorted(shells)
    unstable = (
        len(keys) >= 3
        and shells[keys[0]] > 1.15 * shells[keys[1]]
        and shells[keys[1]] > 1.15 * shells[keys[2]]
    )

    c_inf = None
    if p.p_infinity is not None:
        rho_x = d.step_quasi_norm_many(pts)
        c_inf = float(np.max(np.abs(vals - p.p_infinity) * np.log(np.e + rho_x)))

    return LogHolderReport(
        c_log=c_log,
        c_infinity=c_inf,
        shell_constants=shells,
        unstable=bool(unstable),
        sample_pairs=int(sample_pairs),
    )
