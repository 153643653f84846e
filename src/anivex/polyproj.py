"""Least-squares minimizing polynomials on dilated balls.

P_B^s f is the L^2(B) orthogonal projection of f onto polynomials of degree
at most s, computed in ball-local coordinates u = A^-k (x - center) so the
Gram matrix stays well conditioned across scales.  Balls of one scale and
shift are one footprint at different anchors, so they share one local
design X, the monomials of the footprint's offsets (_local_design).  A stack
of them (project_stack) forms its Gram matrices, right sides and residuals
|f - P| as products of its masks and values with X, one row at a time, so a
row is bit for bit the ball's own projection (_project, the one-row stack on
grid.ball_row, whatever the centre).  A ball whose lattice points do not
fix a polynomial of degree <= s fails an eigenvalue floor on its Gram
matrix, derived from the rounding of its sums, and is refused the same way
in a stack and alone: project_stack leaves it out and _project raises
InsufficientSamples.  lq_error and the iteratively reweighted least squares
towards the q != 2 infimum read a ball on the same row and X.  The module
needs numpy only.
"""

from dataclasses import dataclass, replace
from functools import cache
from itertools import product

import numpy as np

from .errors import InsufficientSamples
from .grid import GridFunction, ball_row, footprint_offsets


@cache
def multi_indices(n, s):
    """Multi-indices |gamma| <= s in graded lexicographic order."""
    out = []
    for deg in range(s + 1):
        block = [g for g in product(range(deg + 1), repeat=n) if sum(g) == deg]
        out.extend(sorted(block, reverse=True))
    return tuple(out)


def _design_matrix(local_pts, indices):
    """Monomials of the points along the last axis, one column per index."""
    out = np.empty(local_pts.shape[:-1] + (len(indices),))
    for j, gamma in enumerate(indices):
        col = out[..., j]
        col[...] = 1.0
        for axis, power in enumerate(gamma):
            if power:
                col *= local_pts[..., axis] ** power
    return out


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


def _local_design(f, d, scale, shift, indices):
    """The footprint's local design X of the balls of one scale and shift:
    the (K, m) monomials of (offsets h - shift) A^-scale^T, one row per
    footprint cell of grid.footprint_offsets, one column per index."""
    offsets = footprint_offsets(d, f.grid, scale, shift)[0].T
    return _design_matrix((offsets * f.grid.spacing - shift) @ d.power(-scale).T, indices)


def _ball_design(f, d, ball, s):
    """The ball's row, its inside mask and its local design weighted by the mask."""
    row, inside, shift = ball_row(f.grid, d, ball)
    return row, inside, _local_design(f, d, ball.scale, shift, multi_indices(f.grid.n, s)) * inside[:, None]


def _residuals(fvals, coef, design, inside):
    """|v - coef X^T| on the mask, one (1, m) @ (m, K) product per row."""
    return np.abs(fvals - (coef[:, None, :] @ design.T)[:, 0]) * inside


def minimizing_polynomial(f, d, ball, s):
    """Solve the Gram normal equations for the degree-<=s projection on B."""
    return _project(f, d, ball, s)[0]


def _project(f, d, ball, s):
    """minimizing_polynomial together with |f - P| on the ball's row, 0
    where the box clips it, from the design the solve used: the ball's
    grid.ball_row as a one-row stack of project_stack."""
    row, inside, shift = ball_row(f.grid, d, ball)
    coef, resid, ranked = project_stack(f, d, ball.scale, shift, row[None], inside[None], s)
    indices = multi_indices(f.grid.n, s)
    if not ranked[0]:
        raise InsufficientSamples(f"{np.count_nonzero(inside)} lattice points in the ball do not fix its {len(indices)} coefficients")
    poly = Polynomial(
        center=ball.center,
        transform=d.power(-ball.scale),
        indices=indices,
        coefficients=coef[0],
    )
    return poly, resid[0]


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def project_stack(f, d, scale, shift, rows, inside, s):
    """Coefficients and residuals |f - P| of the projections on balls of one
    scale and shift, on rows of grid.scale_stacks weighted by inside, and
    the mask of the rows whose points fix a polynomial; coefficients and
    residuals are those of these ranked rows alone.  With X the stack's
    _local_design, w the mask as floats and v the values at the rows, the
    Gram matrices are w (X_j X_l), the right sides (w v) X and the residuals
    |v - coef X^T| w, each a (1, K) @ (K, .) product per row, so a row is
    solved by itself, as _project solves it alone.

    A row is ranked when its Gram eigenvalues satisfy
    lambda_min > tau lambda_max with tau = m (K + m) u, for m coefficients, K
    footprint cells and u the unit roundoff.  Each Gram entry is a K-term
    sum, which rounding moves by at most gamma_K ~ K u times the largest
    diagonal entry, so the matrix moves by at most m K u lambda_max in norm
    and, by Weyl's inequality, so does each eigenvalue; the eigensolver adds
    about m u lambda_max more.  A ball with fewer points than coefficients,
    or whose points all lie on the zero set of a nonzero polynomial of
    degree <= s, has lambda_min = 0 in exact arithmetic, so its computed
    lambda_min stays under the floor and it is refused."""
    design = _local_design(f, d, scale, shift, multi_indices(f.grid.n, s))
    size, m = design.shape
    weight = inside.astype(float)[:, None, :]
    fvals = f.values.ravel().take(rows)
    gram = (weight @ (design[:, :, None] * design[:, None, :]).reshape(size, m * m)).reshape(-1, m, m)
    rhs = (weight * fvals[:, None, :]) @ design
    eigen = np.linalg.eigvalsh(gram)
    ranked = eigen[:, 0] > m * (size + m) * _UNIT_ROUNDOFF * eigen[:, -1]
    if not ranked.all():  # copies of the (rows, K) arrays only when a row is refused
        gram, rhs, fvals, inside = gram[ranked], rhs[ranked], fvals[ranked], inside[ranked]
    try:
        coef = np.linalg.solve(gram, rhs.swapaxes(-1, -2))[..., 0]
    except np.linalg.LinAlgError:  # an exact zero pivot in a ranked row
        raise InsufficientSamples("Gram matrix singular in the solve") from None
    return coef, _residuals(fvals, coef, design, inside), ranked


def moments(f, s):
    """Global-coordinate moments of f against x^gamma for |gamma| <= s over
    the whole box."""
    indices = multi_indices(f.grid.n, s)
    vals = np.asarray(f.values).ravel()
    design = _design_matrix(f.grid.points(), indices)
    return design.T @ vals * f.grid.cell_volume


def lq_norm(resid, q, cell):
    """(sum |r|^q cell)^(1/q) of the residuals |r| along the last axis: a
    float for one row, an array for a stack of rows.  Only where that sum is
    not finite, m (sum (|r|/m)^q cell)^(1/q) with m = max |r| of the row."""
    with np.errstate(over="ignore"):
        totals = np.sum(resid**q, axis=-1) * cell
    if resid.ndim == 1:
        return _lq_root(totals, resid, q, cell)
    return np.array([_lq_root(total, row, q, cell) for total, row in zip(totals, resid)])


def _lq_root(total, resid, q, cell):
    if np.isfinite(total):
        return float(total ** (1.0 / q))
    top = resid.max()
    if not np.isfinite(top):  # an inf or nan residual has no finite error
        return float(total)
    return float(top * (np.sum((resid / top) ** q) * cell) ** (1.0 / q))


def lq_error(f, d, ball, poly, q):
    """||f - poly||_{L^q(B)} by lattice quadrature on the ball's row, poly in its own
    coordinates; for _project's poly on the ball, _project's residual bit for bit."""
    row, inside, shift = ball_row(f.grid, d, ball)
    offsets = footprint_offsets(d, f.grid, ball.scale, shift)[0].T
    local = (offsets * f.grid.spacing - (shift + (poly.center - ball.center))) @ poly.transform.T
    resid = _residuals(f.values.ravel().take(row), poly.coefficients[None], _design_matrix(local, poly.indices), inside)
    return lq_norm(resid[0], q, f.grid.cell_volume)


def refine_lq(f, d, ball, s, q, start=None):
    """Iteratively reweighted least-squares approximation of
    inf_P ||f - P||_{L^q(B)}, at most 100 steps.

    Starts at the L^2 projection (already the exact infimum when q == 2).
    Each step solves the ball's normal equations weighted by |r|^(q-2), with
    |r| floored at 1e-9 of its maximum, and moves 1/(q-1) of the way there
    for q > 2 (the whole way otherwise), halving the move until sum (|r|/m)^q
    falls and doubling it while it falls further; m is the start's largest
    residual, held fixed, so the sums stay finite where sum |r|^q overflows.
    Only such steps are kept, so the value never exceeds the start's; a
    singular or non-finite solve ends the refinement at the best polynomial
    so far.  Returns the refined polynomial with its error value, lq_norm of
    its residual.
    """
    poly = start if start is not None else minimizing_polynomial(f, d, ball, s)
    if q == 2.0:
        return poly, lq_error(f, d, ball, poly, q)

    row, inside, design = _ball_design(f, d, ball, s)
    fvals = np.where(inside, f.values.ravel().take(row), 0.0)  # a clipped entry's residual is 0
    coef = poly.coefficients
    rate = 1.0 / (q - 1.0) if q > 2.0 else 1.0

    resid = np.abs(fvals - design @ coef)
    unit = resid.max()  # held for the whole refinement
    if not 0.0 < unit < np.inf:
        return poly, lq_norm(resid, q, f.grid.cell_volume)

    def objective(c):
        # Residuals in units of the start's largest one keep the sum finite
        # for any finite f; a move whose sum still overflows is inf, not lower.
        with np.errstate(over="ignore"):
            return float(np.sum((np.abs(fvals - design @ c) / unit) ** q))

    best = objective(coef)
    for _ in range(100):
        resid = np.abs(fvals - design @ coef)
        top = resid.max()
        if not 0.0 < top < np.inf:
            break
        weighted = design.T * np.maximum(resid / top, 1e-9) ** (q - 2.0)
        try:
            target = np.linalg.solve(weighted @ design, weighted @ fvals)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(target)):
            break
        move = rate * (target - coef)
        for _ in range(60):
            value = objective(coef + move)
            if value < best:
                break
            move = move / 2.0
        else:
            break
        # Double the move while it keeps lowering the objective: for q < 2 the
        # steps otherwise creep along one direction while small residuals
        # stay pinned at the floor.
        for _ in range(30):
            further = objective(coef + 2.0 * move)
            if not further < value:
                break
            move, value = 2.0 * move, further
        gain = best - value
        coef, best = coef + move, value
        if gain < 1e-15 * best:
            break

    return replace(poly, coefficients=coef), lq_norm(np.abs(fvals - design @ coef), q, f.grid.cell_volume)
