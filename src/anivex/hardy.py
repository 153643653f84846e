"""Atoms, finite atomic representations, maximal functions, and the duality
chain between atomic sums and oscillation functionals.

An atom lives on one dilated ball: supported there, normalized so its L^r
size is |B|^(1/r) / ||1_B||, with vanishing moments up to order s.  The
construction subtracts the minimizing polynomial of a seed and renormalizes,
which attains the size bound with equality on the lattice.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .campanato import CampanatoParams, minimal_admissible_degree, variant_inf_functional
from .errors import DegenerateSeed
from .exponents import indicator_norm, luxemburg_norm
from .grid import (
    GridFunction,
    ball_support,
    boundary_margin,
    bump_kernel,
    convolve_scaled,
    integrate,
)
from .polyproj import _design_matrix, lq_norm, minimizing_polynomial, moments, multi_indices, refine_lq
from .search import BallConfiguration

DEFAULT_SCALE_RANGE = (-10, 6)


@dataclass
class AtomValidation:
    support_exact: bool
    size_ratio: float
    max_moment_residual: float

    @property
    def passed(self):
        return (
            self.support_exact
            and self.size_ratio <= 1.0 + 1e-8
            and self.max_moment_residual <= 1e-8
        )


@dataclass
class Atom:
    ball: object
    values: GridFunction
    r_exponent: float
    s: int
    validation: AtomValidation


def validate_atom(atom, d, p):
    """Recompute the support, size, and moment checks for an atom."""
    grid = atom.values.grid
    vals = atom.values.values
    inside = vals.ravel()[ball_support(grid, d, atom.ball)]
    support_exact = np.count_nonzero(inside) == np.count_nonzero(vals)
    q = atom.r_exponent
    lq = lq_norm(np.abs(inside), q, grid.cell_volume)
    bound = d.ball_volume(atom.ball) ** (1.0 / q) / indicator_norm(d, atom.ball, p)
    mom = moments(atom.values, atom.s)
    scale = max(lq, 1e-300)
    return AtomValidation(
        support_exact=bool(support_exact),
        size_ratio=lq / bound,
        max_moment_residual=float(np.max(np.abs(mom))) / scale,
    )


def make_atom(seed, d, ball, q, p, s):
    """Atom from a seed: |B|^(1/q) (seed - P_B^s seed) 1_B normalized by
    ||1_B|| and the L^q(B) oscillation of the seed."""
    poly = minimizing_polynomial(seed, d, ball, s)
    grid = seed.grid
    idx = ball_support(grid, d, ball)
    resid = np.zeros(grid.resolution)
    inside = seed.values.ravel()[idx] - poly.evaluate(grid.points()[idx])
    resid.ravel()[idx] = inside
    res_norm = lq_norm(np.abs(inside), q, grid.cell_volume)
    if res_norm < 1e-12:
        raise DegenerateSeed("seed is a polynomial on the ball")
    scale = d.ball_volume(ball) ** (1.0 / q) / (indicator_norm(d, ball, p) * res_norm)
    values = GridFunction(grid, scale * resid)
    atom = Atom(ball=ball, values=values, r_exponent=q, s=s, validation=None)
    atom.validation = validate_atom(atom, d, p)
    return atom


@dataclass
class FiniteAtomicRep:
    terms: list  # (weight, Atom)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("representation needs at least one term")

    def function(self):
        grid = self.terms[0][1].values.grid
        acc = np.zeros(grid.resolution)
        for w, atom in self.terms:
            acc = acc + w * atom.values.values
        return GridFunction(grid, acc)

    def configuration(self):
        return BallConfiguration([(atom.ball, w) for w, atom in self.terms])


def finite_atomic_norm(rep, p, d):
    """Aggregation norm of the rep's (ball, weight) family at eta = underline_p."""
    from .campanato import aggregate_norm

    return aggregate_norm(rep.configuration(), p, p.underline_p, d)


def maximal_bump(spacing, halfwidth):
    """Unit-mass bump of radius 0.999 * halfwidth per axis.  An analyzing
    kernel has vanishing integral; the radial maximal function needs this."""
    bump = bump_kernel(spacing, 0.999 * halfwidth, 0)
    return bump.with_values(bump.values / integrate(bump))


def radial_maximal(f, phi, d, k_range=DEFAULT_SCALE_RANGE, margin=0.0):
    """Pointwise max over scales of |f * phi_k|, optionally edge-masked."""
    lo, hi = k_range
    out = None
    for k in range(lo, hi + 1):
        conv = np.abs(convolve_scaled(f, phi, d, k).values)
        out = conv if out is None else np.maximum(out, conv)
    if margin > 0.0:
        out = out * boundary_margin(f.grid, margin).values
    return GridFunction(f.grid, out)


def hardy_norm_estimate(f, phi, p, d, k_range=DEFAULT_SCALE_RANGE, margin=0.0):
    """Luxemburg norm of the truncated-scale radial maximal function."""
    return luxemburg_norm(radial_maximal(f, phi, d, k_range, margin=margin), p)


def dual_pairing(f, g):
    """int f g by midpoint quadrature."""
    return float(integrate(f * g))


@dataclass
class ChainReport:
    pairing: float
    moment_slack: float
    holder_slack: float
    aggregation_slack: float
    ratio: float
    atom_pairings: np.ndarray
    oscillation_bound: float

    @property
    def passed(self):
        return (
            self.moment_slack >= -1e-8
            and self.holder_slack >= -1e-8
            and self.aggregation_slack >= -1e-8
        )


def duality_chain_check(rep, g, prm, d, seed=0):
    """Step-by-step audit of the pairing bound for a finite atomic sum.

    For f = sum lambda_j a_j the chain is: polynomial shifts (5 seeded ones
    per atom) leave each atom pairing unchanged (vanishing moments); the
    Holder inequality bounds each pairing by the atom size times the local
    oscillation of g; summing gives the oscillation functional times the
    atomic aggregation norm.  Slacks are signed so that anything below -1e-8
    is a violation.
    """
    rng = np.random.default_rng(seed)
    q = prm.q
    if q <= 1.0:
        raise ValueError("the chain needs q > 1 so that q' is finite")
    minimal = minimal_admissible_degree(prm.p, d)
    if prm.s < minimal:
        warnings.warn(
            f"s={prm.s} is below the admissible floor {minimal} for this "
            "exponent; the chain is still audited",
            stacklevel=2,
        )
    q_conj = q / (q - 1.0)
    grid = g.grid
    indices = multi_indices(grid.n, prm.s)
    cell_volume = grid.cell_volume

    moment_slack = np.inf
    holder_slack = np.inf
    lhs_sum = 0.0
    rhs_sum = 0.0
    pairings = []

    for weight, atom in rep.terms:
        ball = atom.ball
        idx = ball_support(grid, d, ball)
        pts = grid.points()[idx]
        a_vals = atom.values.values.ravel()[idx]
        g_vals = g.values.ravel()[idx]
        pair = dual_pairing(atom.values, g)
        pairings.append(pair)

        # (a) shifting g by any polynomial of degree <= s leaves the pairing.
        design = _design_matrix(pts, indices)
        for _ in range(5):
            shift = design @ rng.uniform(-10.0, 10.0, size=len(indices))
            shifted = np.sum(a_vals * (g_vals - shift)) * cell_volume
            moment_slack = min(moment_slack, 1e-8 - abs(abs(shifted) - abs(pair)))

        # (b) Holder with the refined infimizing polynomial.
        start = minimizing_polynomial(g, d, ball, prm.s)
        poly_star, err_star = refine_lq(g, d, ball, prm.s, q_conj, start=start)
        resid = g_vals - poly_star.evaluate(pts)
        lhs_b = abs(np.sum(a_vals * resid) * cell_volume)
        a_norm = lq_norm(np.abs(a_vals), q, cell_volume)
        rhs_b = a_norm * err_star
        holder_slack = min(holder_slack, rhs_b - lhs_b)

        # (c) accumulate both sides of the summed bound.
        lhs_sum += weight * abs(pair)
        vol = d.ball_volume(ball)
        rhs_sum += (
            weight
            * vol
            / indicator_norm(d, ball, prm.p)
            * (err_star * vol ** (-1.0 / q_conj))
        )

    aggregation_slack = rhs_sum - lhs_sum

    cfg = rep.configuration()
    osc_prm = CampanatoParams(p=prm.p, q=q_conj, s=prm.s, eta=prm.p.underline_p)
    oscillation = variant_inf_functional(g, cfg, osc_prm, d)
    atomic = finite_atomic_norm(rep, prm.p, d)
    pairing = dual_pairing(rep.function(), g)
    denom = oscillation * atomic
    ratio = abs(pairing) / denom if denom > 0 else np.inf

    return ChainReport(
        pairing=pairing,
        moment_slack=float(moment_slack),
        holder_slack=float(holder_slack),
        aggregation_slack=float(aggregation_slack),
        ratio=float(ratio),
        atom_pairings=np.array(pairings),
        oscillation_bound=float(denom),
    )


@dataclass
class DilationGrowthReport:
    ks: np.ndarray
    norms: np.ndarray
    slope: float
    bound: float

    @property
    def passed(self):
        return self.slope <= self.bound


def dilation_indicator_inequality(config, d, p, k_max=4, r_aux=None):
    """Growth of ||sum_j 1_{x_j + B_(l_j + k)}|| against b^(k/r).

    Fits the empirical log-slope over k = 0..k_max and compares it with
    1/r_aux plus a 5% allowance; the dilated balls are clipped by the grid
    box, which only flattens the growth.
    """
    if r_aux is None:
        r_aux = p.underline_p / 2.0  # CampanatoParams' default
    if not 0.0 < r_aux < p.underline_p + 1e-12:
        raise ValueError("r_aux must lie in (0, min(1, p_minus))")
    ks = np.arange(0, k_max + 1)
    norms = []
    for k in ks:
        acc = np.zeros(p.grid.resolution)
        for ball, _ in config.entries:
            grown = d.ball(ball.center, ball.scale + int(k))
            acc.ravel()[ball_support(p.grid, d, grown)] += 1.0
        norms.append(luxemburg_norm(GridFunction(p.grid, acc), p))
    norms = np.array(norms)
    x = ks * np.log(d.b)
    y = np.log(norms)
    slope = float(np.polyfit(x, y, 1)[0]) if len(ks) > 1 else 0.0
    return DilationGrowthReport(ks=ks, norms=norms, slope=slope, bound=1.0 / r_aux + 0.05)
