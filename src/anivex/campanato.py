"""Campanato-type oscillation functionals over weighted ball configurations.

The central object is the quotient

    sum_j (lambda_j |B_j| / ||1_{B_j}||) (avg_{B_j} |f - P_{B_j}^s f|^q)^(1/q)
    -----------------------------------------------------------------------
    || { sum_i [lambda_i / ||1_{B_i}||]^eta 1_{B_i} }^(1/eta) ||

together with its classical single-ball reduction, the per-ball
infimum-over-polynomials variant, and the global kernel variant whose
summands dominate half of the plain ones.  Ball measures |B| = b^k are
analytic; only integrals are lattice quadrature.

A configuration with one nonzero weight lambda has denominator exactly
lambda, since the Luxemburg norm is positively homogeneous, and
aggregate_norm returns lambda without a solve.  The single-ball quotient is
then |B| osc / N_B with N_B the computed indicator_norm, which is the value
classic_functional reports.  N_B passed the unit-modular guard, so
N_B >= ||1_B|| up to the rounding of the modular sum, and the value stays a
lower bound of the true quotient.

campanato_type_norm scores every ball of the search's fixed candidate
stream (the sweep and the random configurations) before the search, a
scale at a time: one stacked Luxemburg solve and one stacked projection per
group of balls of equal scale and lattice support size fill the caches the
search reads.  A stacked value is bit for bit the ball's own, so the
search's candidate order, the values it compares and its counters are
unchanged.
"""

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InsufficientSamples, ZeroDenominator
from .exponents import cache_indicator_norms, indicator_norm, luxemburg_norm, support_groups
from .grid import GridFunction, ball_support
from .polyproj import _project, lq_norm, minimizing_polynomial, multi_indices, project_stack, refine_lq
from .search import BallConfiguration, candidate_stream, default_scale_window, supremum_search

__all__ = [
    "BallConfiguration",
    "CampanatoParams",
    "aggregate_norm",
    "minimal_admissible_degree",
    "classic_functional",
    "campanato_type_functional",
    "campanato_type_norm",
    "variant_inf_functional",
    "variant_eps_functional",
    "eps_kernel_summand",
    "plain_summand",
    "countable_limit_check",
    "aggregation_vs_total_weight",
]


def minimal_admissible_degree(p, d):
    """Smallest degree floor((1/p_minus - 1) ln b / ln lambda_minus), >= 0."""
    raw = (1.0 / p.p_minus - 1.0) * np.log(d.b) / np.log(d.lambda_minus)
    return max(int(np.floor(raw)), 0)


@dataclass
class CampanatoParams:
    p: object
    q: float = 2.0
    s: int = 0
    eta: float | None = None
    epsilon: float | None = None
    r_aux: float | None = None

    def __post_init__(self):
        if self.q < 1.0:
            raise ValueError("q must be >= 1")
        if self.s < 0:
            raise ValueError("s must be >= 0")
        if self.eta is None:
            self.eta = self.p.underline_p
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.r_aux is None:
            self.r_aux = self.p.underline_p / 2.0

    def epsilon_threshold(self, d):
        return (2.0 / self.r_aux - 1.0) * np.log(d.b) / np.log(d.lambda_minus)


def _aggregate(acc, ball, weight, p, eta, d):
    """acc += [weight / ||1_B||]^eta 1_B; indicator_norm raises EmptyMask for
    a ball that misses every lattice point."""
    acc.ravel()[ball_support(p.grid, d, ball)] += (weight / indicator_norm(d, ball, p)) ** eta


def _aggregate_value(acc, p, eta):
    return luxemburg_norm(GridFunction(p.grid, acc ** (1.0 / eta)), p)


def aggregate_norm(config, p, eta, d):
    """Luxemburg norm of the eta-aggregated weighted indicator sum; exactly
    the weight when only one weight is nonzero."""
    live = [(ball, weight) for ball, weight in config.entries if weight != 0.0]
    if len(live) == 1:
        ball, weight = live[0]
        indicator_norm(d, ball, p)  # raises EmptyMask for a ball with no lattice point
        return weight
    acc = np.zeros(p.grid.resolution)
    for ball, weight in live:
        _aggregate(acc, ball, weight, p, eta, d)
    return _aggregate_value(acc, p, eta)


def per_ball_cache(term, cache=None):
    """Memoize a per-ball term by ball key, in cache if one is given; a ball
    with too few lattice points is remembered too, and raises
    InsufficientSamples again on every hit."""
    cache = {} if cache is None else cache

    def cached(ball):
        key = ball.key()
        if key not in cache:
            try:
                cache[key] = term(ball)
            except InsufficientSamples as exc:
                cache[key] = exc
        value = cache[key]
        if isinstance(value, InsufficientSamples):
            raise value.with_traceback(None)
        return value

    return cached


def config_quotient(config, term, p, eta, d):
    """sum_j w_j term(B_j) / aggregate_norm(config), summed in entry order
    and skipping zero weights as aggregate_norm does."""
    denom = aggregate_norm(config, p, eta, d)
    if denom == 0.0:
        raise ZeroDenominator("aggregate norm vanished")
    return sum(w * term(ball) for ball, w in config.entries if w != 0.0) / denom


def prefix_quotients(entries, term, p, eta, d):
    """config_quotient of every prefix of a truncated countable family (0.0
    while the numerator is zero), and the largest fluctuation of the last
    20 values about the final one."""
    term = per_ball_cache(term)
    acc = np.zeros(p.grid.resolution)
    numer = 0.0
    values = []
    for ball, weight in entries:
        if weight != 0.0:
            numer += weight * term(ball)
            _aggregate(acc, ball, weight, p, eta, d)
        values.append(numer / _aggregate_value(acc, p, eta) if numer != 0.0 else 0.0)
    values = np.array(values)
    tail = float(np.max(np.abs(values[-20:] - values[-1]))) if len(values) else 0.0
    return values, tail


def search_objective(term, p, eta, d, known=None):
    """config -> config_quotient(config, term, p, eta, d), with term memoized
    per ball across the configurations of a search; known maps ball keys to
    term values already computed."""
    return partial(config_quotient, term=per_ball_cache(term, known), p=p, eta=eta, d=d)


@dataclass
class ClassicResult:
    projection_value: float
    refined_value: float
    ball: object

    def __float__(self):
        return self.projection_value


def _mean_oscillation(resid, q, vol, cell):
    """(avg_B |f - P|^q)^(1/q) with analytic |B| = vol, per residual row."""
    return lq_norm(resid, q, cell) * vol ** (-1.0 / q)


def _oscillation(f, d, ball, q, s, refine=False):
    """(avg_B |f - P|^q)^(1/q) with analytic |B|; optionally the refined inf."""
    poly, resid = _project(f, d, ball, s)
    vol = d.ball_volume(ball)
    out = _mean_oscillation(resid, q, vol, f.grid.cell_volume)
    if not refine:
        return out, out
    _, ref_err = refine_lq(f, d, ball, s, q, start=poly)  # never above the projection's
    return out, ref_err * vol ** (-1.0 / q)


def classic_functional(f, d, ball, p, q, s):
    """Single-ball Campanato value (|B|/||1_B||) (avg_B |f-P|^q)^(1/q).

    Reports both the minimizing-polynomial value (the primary one) and the
    IRLS-refined infimum.
    """
    proj_avg, ref_avg = _oscillation(f, d, ball, q, s, refine=True)
    factor = d.ball_volume(ball) / indicator_norm(d, ball, p)
    return ClassicResult(factor * proj_avg, factor * ref_avg, ball)


def plain_summand(f, d, ball, p, s):
    """(1/||1_B||) int_B |f - P_B^s f|, the q = 1 per-ball term."""
    _, resid = _project(f, d, ball, s)
    return lq_norm(resid, 1.0, f.grid.cell_volume) / indicator_norm(d, ball, p)


def _oscillation_term(f, prm, d, refine=False):
    """ball -> (|B|/||1_B||) (avg_B |f - P|^q)^(1/q), P projected or refined."""

    def term(ball):
        proj_avg, ref_avg = _oscillation(f, d, ball, prm.q, prm.s, refine=refine)
        avg = ref_avg if refine else proj_avg
        return d.ball_volume(ball) / indicator_norm(d, ball, prm.p) * avg

    return term


def campanato_type_functional(f, config, prm, d):
    """The configuration quotient with per-ball minimizing polynomials."""
    return config_quotient(config, _oscillation_term(f, prm, d), prm.p, prm.eta, d)


def variant_inf_functional(f, config, prm, d):
    """The configuration quotient with per-ball refined infima over P."""
    return config_quotient(config, _oscillation_term(f, prm, d, refine=True), prm.p, prm.eta, d)


def eps_kernel_summand(f, d, ball, p, s, epsilon):
    """Per-ball global kernel term of the epsilon variant.

    (|B|/||1_B||) int b^(eps l beta) |f - P_B^s f|
                      / (b^(l(1+eps beta)) + rho(x - x_j)^(1+eps beta)) dx
    with beta = ln lambda_minus / ln b, integrated over the grid box.
    """
    beta = np.log(d.lambda_minus) / np.log(d.b)
    ell = ball.scale
    poly = minimizing_polynomial(f, d, ball, s)
    pts = f.grid.points()
    rho = d.step_quasi_norm_many(pts - ball.center)
    expo = 1.0 + epsilon * beta
    kernel = d.b ** (epsilon * ell * beta) / (d.b ** (ell * expo) + rho**expo)
    resid = np.abs(np.asarray(f.values).ravel() - poly.evaluate(pts))
    integral = float(np.sum(kernel * resid) * f.grid.cell_volume)
    return d.ball_volume(ball) / indicator_norm(d, ball, p) * integral


def variant_eps_functional(f, config, prm, d):
    """Configuration quotient built from the global epsilon-kernel summands."""
    if prm.epsilon is None:
        raise ValueError("params.epsilon is required for the kernel variant")
    threshold = prm.epsilon_threshold(d)
    if prm.epsilon <= threshold:
        warnings.warn(
            f"epsilon={prm.epsilon} is at or below the admissible threshold "
            f"{threshold:.4g}; the value is still computed",
            stacklevel=2,
        )
    return config_quotient(
        config,
        lambda ball: eps_kernel_summand(f, d, ball, prm.p, prm.s, prm.epsilon),
        prm.p,
        prm.eta,
        d,
    )


def campanato_type_norm(f, prm, d, budget=200, seed=0):
    """Certified lower bound of the configuration supremum.

    Canonical single-ball sweep, random small configurations, and greedy
    weight ascent, deterministic for a fixed seed; doubling the budget can
    only grow the record.  Every ball of the fixed stream is scored a scale
    at a time before the search starts (_score_sweep), bit for bit as one at
    a time, so the candidate order and the counters are unchanged; the
    ascent variants reweight balls of the stream.
    """
    scale_window = default_scale_window(d, f.grid, min_points=4 + 2 * prm.s)
    stream = candidate_stream(d, f.grid, budget, seed, scale_window)
    balls = {ball.key(): ball for config in stream if config is not None for ball in config.balls()}
    terms = _score_sweep(f, prm, d, balls.values())
    config_value = search_objective(_oscillation_term(f, prm, d), prm.p, prm.eta, d, terms)
    return supremum_search(config_value, stream)


# The largest stacked design matrix, in entries, that _score_sweep builds;
# a larger group of balls is scored in chunks.
_STACK_ENTRIES = 1 << 16


def _score_sweep(f, prm, d, balls):
    """Oscillation terms of distinct balls by ball key, one stacked Luxemburg
    solve (which fills indicator_norm's cache) and one stacked projection
    per group of balls of equal scale and lattice support size; each value
    is bit for bit the ball's own.  A ball that misses the lattice gets no
    norm, and one with fewer lattice points than coefficients no term, so
    the search still raises on them and skips them.
    """
    coefficients = len(multi_indices(f.grid.n, prm.s))
    terms = {}
    for (scale, size), members in support_groups(f.grid, d, balls).items():
        chunk = max(_STACK_ENTRIES // (size * coefficients), 1)
        for start in range(0, len(members), chunk):
            group, supports = zip(*members[start : start + chunk])
            supports = np.stack(supports)
            norms = cache_indicator_norms(d, group, supports, prm.p)
            if size < coefficients:
                continue
            centers = np.stack([ball.center for ball in group])
            _, resid = project_stack(f, d, scale, centers, supports, prm.s)
            vol = d.ball_volume(group[0])
            avgs = _mean_oscillation(resid, prm.q, vol, f.grid.cell_volume)
            for ball, norm, avg in zip(group, norms, avgs.tolist()):
                terms[ball.key()] = vol / norm * avg
    return terms


@dataclass
class LimitReport:
    values: np.ndarray
    converged: bool
    tail: float
    stabilized_at: int | None


def countable_limit_check(f, entries, prm, d, tol=1e-6):
    """Prefix values of the functional along a countable configuration.

    entries is a finite truncation [(ball, weight), ...] of the family; the
    report carries every prefix value, the largest fluctuation over the last
    20 prefixes, and the first index after which nothing changes.
    """
    values, tail = prefix_quotients(entries, _oscillation_term(f, prm, d), prm.p, prm.eta, d)
    stabilized = None
    for m in range(len(values)):
        if np.all(values[m:] == values[-1]):
            stabilized = m
            break
    return LimitReport(
        values=values,
        converged=bool(tail < tol),
        tail=tail,
        stabilized_at=stabilized,
    )


def aggregation_vs_total_weight(config, p, eta, d):
    """Measured ratio aggregate_norm / sum(weights), the first link of the
    concave-range comparison; reported, never asserted."""
    total = float(sum(w for _, w in config.entries))
    return aggregate_norm(config, p, eta, d) / total if total > 0 else np.inf
