"""Least-squares minimizing polynomials on dilated balls.

P_B^s f is the L^2(B) orthogonal projection of f onto polynomials of degree
at most s, computed in ball-local coordinates u = A^-k (x - center) so the
Gram matrix stays well conditioned across scales.  A coordinate-descent
refinement approximates the q != 2 infimum starting from the projection.
"""

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import InsufficientSamples, SingularGram
from .grid import GridFunction, ball_support


def multi_indices(n, s):
    """Multi-indices |gamma| <= s in graded lexicographic order."""
    out = []
    for deg in range(s + 1):
        block = [g for g in product(range(deg + 1), repeat=n) if sum(g) == deg]
        out.extend(sorted(block, reverse=True))
    return tuple(out)


def _design_matrix(local_pts, indices):
    cols = []
    for gamma in indices:
        col = np.ones(local_pts.shape[0])
        for axis, power in enumerate(gamma):
            if power:
                col = col * local_pts[:, axis] ** power
        cols.append(col)
    return np.stack(cols, axis=1)


@dataclass
class Polynomial:
    center: np.ndarray
    transform: np.ndarray  # A^-k, maps global offsets to local coordinates
    indices: tuple
    coefficients: np.ndarray

    def evaluate(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        local = (pts - self.center) @ self.transform.T
        vals = _design_matrix(local, self.indices) @ self.coefficients
        return float(vals[0]) if np.asarray(x).ndim <= 1 else vals

    def on_grid(self, grid):
        return GridFunction(grid, self.evaluate(grid.points()).reshape(grid.resolution))


def _ball_design(f, d, ball, s):
    idx = ball_support(f.grid, d, ball)
    indices = multi_indices(f.grid.n, s)
    if idx.size < len(indices):
        raise InsufficientSamples(
            f"{idx.size} lattice points in the ball but {len(indices)} coefficients"
        )
    local = (f.grid.points()[idx] - ball.center) @ d.power(-ball.scale).T
    return idx, indices, _design_matrix(local, indices)


def minimizing_polynomial(f, d, ball, s):
    """Solve the Gram normal equations for the degree-<=s projection on B."""
    idx, indices, design = _ball_design(f, d, ball, s)
    fvals = f.values.ravel()[idx]
    gram = design.T @ design
    rhs = design.T @ fvals
    # The Cholesky factor is the positive-definiteness test: a Gram matrix
    # that fails it gets a small ridge, and one that fails again is singular.
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        gram = gram + 1e-12 * np.trace(gram) * np.eye(gram.shape[0])
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise SingularGram("Gram matrix singular even with ridge") from None
    coef = np.linalg.solve(gram, rhs)
    return Polynomial(
        center=ball.center,
        transform=d.power(-ball.scale),
        indices=indices,
        coefficients=coef,
    )


def moments(f, s, d=None, ball=None):
    """Global-coordinate moments of f against x^gamma for |gamma| <= s.

    With a ball given, integration restricts to lattice points inside it;
    otherwise the whole box contributes.
    """
    indices = multi_indices(f.grid.n, s)
    idx = slice(None) if ball is None else ball_support(f.grid, d, ball)
    pts = f.grid.points()[idx]
    vals = np.asarray(f.values).ravel()[idx]
    design = _design_matrix(pts, indices)
    return design.T @ vals * f.grid.cell_volume


def lq_error(f, d, ball, poly, q):
    """||f - poly||_{L^q(B)} by lattice quadrature."""
    idx = ball_support(f.grid, d, ball)
    resid = np.abs(f.values.ravel()[idx] - poly.evaluate(f.grid.points()[idx]))
    return float((np.sum(resid**q) * f.grid.cell_volume) ** (1.0 / q))


def refine_lq(f, d, ball, s, q, start=None):
    """Coordinate-descent approximation of inf_P ||f - P||_{L^q(B)}, at most
    20 sweeps over the coefficients.

    Starts at the L^2 projection (already the exact infimum when q == 2) and
    returns the refined polynomial with its error value.
    """
    poly = start if start is not None else minimizing_polynomial(f, d, ball, s)
    if q == 2.0:
        return poly, lq_error(f, d, ball, poly, q)
    from scipy.optimize import minimize_scalar  # deferred: only q != 2 needs it, and it slows start-up

    idx, indices, design = _ball_design(f, d, ball, s)
    fvals = f.values.ravel()[idx]
    cell_volume = f.grid.cell_volume
    coef = poly.coefficients.copy()

    def objective(c):
        return float(np.sum(np.abs(fvals - design @ c) ** q) * cell_volume)

    best = objective(coef)
    for _ in range(20):
        improved = 0.0
        for j in range(len(coef)):

            def along(t, j=j):
                trial = coef.copy()
                trial[j] = t
                return objective(trial)

            step = 1.0 + abs(coef[j])
            res = minimize_scalar(along, bracket=(coef[j] - step, coef[j] + step))
            if res.fun < best:
                improved += best - res.fun
                best = res.fun
                coef[j] = res.x
        if improved <= 1e-13 * max(best, 1e-300):
            break

    return replace(poly, coefficients=coef), best ** (1.0 / q)
