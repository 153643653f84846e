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

Every projected term, of campanato_type_norm, campanato_type_functional and
countable_limit_check, is _score_sweep's: one stacked Luxemburg solve and
one stacked projection per grid.scale_stacks stack, looked up by
stacked_term.  Only the refined and the epsilon-kernel variants score one
ball at a time.
"""

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InsufficientSamples, ZeroDenominator
from .exponents import indicator_norm, luxemburg_norm, stack_indicator_norms
from .grid import GridFunction, ball_support, scale_stacks
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


def stacked_term(terms, ball):
    """The ball's term from a stacked score {ball key: term}.  A ball the
    score leaves out is one whose lattice points do not fix its polynomial;
    it raises InsufficientSamples on every lookup (one that misses the
    lattice raises EmptyMask in the aggregate first)."""
    key = ball.key()
    if key not in terms:
        raise InsufficientSamples(f"the lattice points of the scale-{ball.scale} ball do not fix its polynomial")
    return terms[key]


def config_quotient(config, term, p, eta, d):
    """sum_j w_j term(B_j) / aggregate_norm(config), summed in entry order
    and skipping zero weights as aggregate_norm does."""
    denom = aggregate_norm(config, p, eta, d)
    if denom == 0.0:
        raise ZeroDenominator("aggregate norm vanished")
    return sum(w * term(ball) for ball, w in config.entries if w != 0.0) / denom


def prefix_quotients(entries, score, p, eta, d):
    """config_quotient of every prefix of a truncated countable family (0.0
    while the numerator is zero), and the largest fluctuation of the last
    20 values about the final one.  The nonzero-weight balls are scored in
    stacks first, score(balls) -> {ball key: term} as in family_supremum,
    and each ball enters the aggregate before its term is looked up, as in
    config_quotient."""
    term = partial(stacked_term, score([ball for ball, weight in entries if weight != 0.0]))
    acc = np.zeros(p.grid.resolution)
    numer = 0.0
    values = []
    for ball, weight in entries:
        if weight != 0.0:
            _aggregate(acc, ball, weight, p, eta, d)
            numer += weight * term(ball)
        values.append(numer / _aggregate_value(acc, p, eta) if numer != 0.0 else 0.0)
    values = np.array(values)
    tail = float(np.max(np.abs(values[-20:] - values[-1]))) if len(values) else 0.0
    return values, tail


def family_supremum(score, p, eta, d, grid, budget, seed, min_points):
    """supremum_search of config_quotient on the candidate_stream over
    default_scale_window(d, grid, min_points), with every ball of the fixed
    stream scored in stacks before the search: score(balls) -> {ball key:
    term}, each value bit for bit the ball's own term.  The ascent variants
    only reweight balls of the stream, so the search only looks terms up
    (stacked_term), and its candidate order, values and counters are those
    of scoring one candidate at a time."""
    stream = candidate_stream(d, grid, budget, seed, default_scale_window(d, grid, min_points))
    balls = {ball.key(): ball for config in stream if config is not None for ball in config.balls()}
    term = partial(stacked_term, score(balls.values()))
    return supremum_search(partial(config_quotient, term=term, p=p, eta=eta, d=d), stream)


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


def _oscillation(f, d, ball, q, s):
    """(avg_B |f - P|^q)^(1/q) with analytic |B|, for the projection and for
    the refined inf."""
    poly, resid = _project(f, d, ball, s)
    vol = d.ball_volume(ball)
    _, ref_err = refine_lq(f, d, ball, s, q, start=poly)  # never above the projection's
    return _mean_oscillation(resid, q, vol, f.grid.cell_volume), ref_err * vol ** (-1.0 / q)


def classic_functional(f, d, ball, p, q, s):
    """Single-ball Campanato value (|B|/||1_B||) (avg_B |f-P|^q)^(1/q).

    Reports both the minimizing-polynomial value (the primary one) and the
    IRLS-refined infimum.
    """
    proj_avg, ref_avg = _oscillation(f, d, ball, q, s)
    factor = d.ball_volume(ball) / indicator_norm(d, ball, p)
    return ClassicResult(factor * proj_avg, factor * ref_avg, ball)


def plain_summand(f, d, ball, p, s):
    """(1/||1_B||) int_B |f - P_B^s f|, the q = 1 per-ball term."""
    _, resid = _project(f, d, ball, s)
    return lq_norm(resid, 1.0, f.grid.cell_volume) / indicator_norm(d, ball, p)


def campanato_type_functional(f, config, prm, d):
    """The configuration quotient with per-ball minimizing polynomials, the
    terms _score_sweep's."""
    terms = _score_sweep(f, prm, d, [ball for ball, w in config.entries if w != 0.0])
    return config_quotient(config, partial(stacked_term, terms), prm.p, prm.eta, d)


def variant_inf_functional(f, config, prm, d):
    """The configuration quotient with per-ball refined infima over P."""

    def term(ball):
        return d.ball_volume(ball) / indicator_norm(d, ball, prm.p) * _oscillation(f, d, ball, prm.q, prm.s)[1]

    return config_quotient(config, term, prm.p, prm.eta, d)


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
    only grow the record.  The terms are _score_sweep's (family_supremum).
    """
    score = partial(_score_sweep, f, prm, d)
    return family_supremum(score, prm.p, prm.eta, d, f.grid, budget, seed, 4 + 2 * prm.s)


def _score_sweep(f, prm, d, balls):
    """The oscillation terms (|B|/||1_B||) (avg_B |f - P|^q)^(1/q) by ball
    key, P the minimizing polynomial, of every projected quotient: one
    stacked Luxemburg solve (filling indicator_norm's cache) and one stacked
    projection per grid.scale_stacks stack.  A ball that misses the lattice
    gets no norm, and one with fewer lattice points than coefficients, or
    whose points do not fix its polynomial (project_stack's rank decision),
    no term."""
    coefficients = len(multi_indices(f.grid.n, prm.s))
    terms = {}
    for scale, group, rows, inside, shift in scale_stacks(f.grid, d, balls):
        norms = stack_indicator_norms(d, group, rows, inside, prm.p)
        keep = np.flatnonzero(inside.sum(axis=1) >= coefficients)
        if not keep.size:
            continue
        _, resid, ranked = project_stack(f, d, scale, shift, rows[keep], inside[keep], prm.s)
        vol = d.ball_volume(group[0])
        avgs = _mean_oscillation(resid, prm.q, vol, f.grid.cell_volume)
        for i, avg in zip(keep[ranked].tolist(), avgs.tolist()):
            terms[group[i].key()] = vol / norms[i] * avg
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
    values, tail = prefix_quotients(entries, partial(_score_sweep, f, prm, d), prm.p, prm.eta, d)
    # The run of trailing values equal to the last one, read back to front.
    run = int(np.logical_and.accumulate(values[::-1] == values[-1:]).sum())
    return LimitReport(
        values=values,
        converged=bool(tail < tol),
        tail=tail,
        stabilized_at=len(values) - run if run else None,
    )


def aggregation_vs_total_weight(config, p, eta, d):
    """Measured ratio aggregate_norm / sum(weights), the first link of the
    concave-range comparison; reported, never asserted."""
    total = float(sum(w for _, w in config.entries))
    return aggregate_norm(config, p, eta, d) / total if total > 0 else np.inf
