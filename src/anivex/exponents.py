"""Variable exponents p(.), the modular, and the Luxemburg quasi-norm.

The Luxemburg norm inf{lam > 0: modular(f/lam) <= 1} is found by Newton's
method on g(t) = log modular(f/e^t), a log-sum-exp of decreasing lines:
convex for every p(.) > 0, p < 1 included, and a line for constant p.  Only
the cells where f != 0 enter, and a guard sums the modular over those cells,
as modular() does, so the unit-modular property is exact.

The solver takes a stack of equal-length rows and solves each row as it
would alone, bit for bit: luxemburg_norm and indicator_norm pass it one row,
and the Campanato search the balls of its fixed candidate stream a scale
at a time (cache_indicator_norms), so the search's candidate order and
counters are unchanged.  fill_indicator_norms stacks the indicator norms
of any list of balls the same way: the atom balls of a tent decomposition
and the balls of the Carleson search's stream.
Log-Holder checking is diagnostic only and never gates any other operation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask, NonFinite, NotConjugable
from .grid import GridFunction, ball_support, sample


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
    """luxemburg_norm of each row of the (rows, cells) arrays a = |f| > 0
    and q = p on the nonzero cells, in C order.

    The cell sums run over the whole stack; each row's Newton step, its
    stopping test and its guard nudges are scalar arithmetic on that row
    alone, so a row's norm is the one it has when solved alone.
    """
    # t is measured from log max|f|, so its rounding does not grow with |f|.
    top = np.maximum.reduce(a, axis=1)
    log_w = q * np.log(a / top[:, None]) + np.log(cell)
    t = np.maximum.reduce(log_w / q, axis=1).tolist()
    tiny = 4.0 * np.finfo(float).eps
    live = range(len(t))
    for _ in range(60):  # a safety net: Newton converges in a handful of steps
        z = log_w - q * np.array(t)[:, None]
        z_max = np.maximum.reduce(z, axis=1)
        e = np.exp(z - z_max[:, None])
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
    the exponent; computed on the ball's lattice support."""
    key = _indicator_key(d, ball)
    cache = p._indicator_cache
    if key not in cache:
        idx = ball_support(p.grid, d, ball)
        if idx.size == 0:
            raise EmptyMask(f"ball at scale {ball.scale} misses every lattice point")
        cache[key] = _indicator_norms(p, idx[None])[0]
    return cache[key]


def cache_indicator_norms(d, balls, supports, p):
    """indicator_norm of each ball from one stacked solve, put into its
    cache and returned; supports holds the balls' nonempty lattice supports
    as equal-length rows.  Each norm is the one indicator_norm computes
    alone."""
    norms = _indicator_norms(p, supports)
    for ball, norm in zip(balls, norms):
        p._indicator_cache[_indicator_key(d, ball)] = norm
    return norms


# The largest stack, in entries, that fill_indicator_norms solves at once;
# a larger group of balls is solved in chunks.
_STACK_ENTRIES = 1 << 12


def support_groups(grid, d, balls):
    """{(scale, support size): [(ball, lattice support), ...]} over the balls
    whose lattice support is nonempty, in the balls' order."""
    groups = {}
    for ball in balls:
        idx = ball_support(grid, d, ball)
        if idx.size:
            groups.setdefault((ball.scale, idx.size), []).append((ball, idx))
    return groups


def fill_indicator_norms(d, balls, p):
    """Put indicator_norm of each ball with a nonempty lattice support into
    its cache: balls not cached yet are solved by cache_indicator_norms a
    group of equal scale and support size at a time, at most _STACK_ENTRIES
    cells per stack.  A ball that misses the lattice gets no norm, so
    indicator_norm still raises on it."""
    cache = p._indicator_cache
    todo = {_indicator_key(d, ball): ball for ball in balls}
    todo = [ball for key, ball in todo.items() if key not in cache]
    for (_, size), members in support_groups(p.grid, d, todo).items():
        chunk = max(_STACK_ENTRIES // size, 1)
        for start in range(0, len(members), chunk):
            group, supports = zip(*members[start : start + chunk])
            cache_indicator_norms(d, group, np.stack(supports), p)


def _indicator_norms(p, supports):
    return _luxemburg(np.ones(supports.shape), p.values.values.ravel()[supports], p.grid.cell_volume).tolist()


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
