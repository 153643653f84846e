"""Anisotropic dilation geometry.

An expansive matrix A (all eigenvalue moduli > 1) generates a one-parameter
family of ellipsoidal balls B_k = A^k Delta, where Delta = {x: x'Px < c} is
an open ellipsoid of volume one chosen so that Delta subset r*Delta subset
A*Delta for an expansion factor r > 1.  The step quasi-norm rho takes the
value b^k on B_{k+1} \\ B_k, with b = |det A|, and scales exactly by b under
A.  Everything downstream (masks, tents, maximal averages) rides on this
family.

Boundary rule: a point whose computed form value is within a certified
rounding band of c is outside every open ball (ball_contains_many); a ball
whose containment value is at most c(1 + 1e-9) is inside every closed ball
(closed_containment).  Every lattice membership goes through one of these.
"""

from dataclasses import dataclass
from math import gamma, pi

import numpy as np

from .errors import NotExpansive, ScaleOverflow, SeriesDivergence

DEFAULT_LEVEL_CAP = 40

# Safety net for the secular-equation Newton iteration; rows converge in a
# handful of steps, so reaching the cap means something degenerate.
_NEWTON_MAX_STEPS = 60


def unit_ball_volume(n):
    """Volume of the Euclidean unit ball in R^n."""
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class DilatedBall:
    """A translate center + B_k of the canonical ball at scale k."""

    center: np.ndarray
    scale: int

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))

    def key(self):
        """Hashable identity used by norm caches."""
        return (int(self.scale), self.center.tobytes())


class Dilation:
    """An expansive matrix together with its derived ball geometry.

    The geometry is fixed at construction.  An instance memoizes derived
    values on first use, without locks: the forms per scale here, and lattice
    sets per grid in the grid and tent modules (grid.dilation_cache).
    """

    def __init__(self, matrix):
        A = np.asarray(matrix, dtype=float)
        if A.ndim == 0:
            A = A.reshape(1, 1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("dilation matrix must be square")
        if not np.all(np.isfinite(A)):
            raise ValueError("dilation matrix must have finite entries")

        self.matrix = A
        self.n = A.shape[0]
        eigvals = np.linalg.eigvals(A)
        moduli = np.abs(eigvals)
        if moduli.min() <= 1.0:
            raise NotExpansive(f"min eigenvalue modulus {moduli.min():.6g} <= 1")
        self.b = float(abs(np.linalg.det(A)))

        self.lambda_minus, self.lambda_plus = self._eigen_bounds(A, moduli)
        self.level_cap = DEFAULT_LEVEL_CAP

        # Expansion factor: r = s with A'PA - s^2 P = A'A >= 0.
        s = np.sqrt(self.lambda_minus)
        s = min(max(s, 1.05), 0.999 * self.lambda_minus)
        self.r = float(s)

        self.shape = self._lyapunov_shape(A, self.r)
        # |Delta| = c^(n/2) V_n / sqrt(det P) = 1.
        n = self.n
        self.level_c = float(np.linalg.det(self.shape)) ** (1 / n) / unit_ball_volume(n) ** (2 / n)

        gram = A.T @ self.shape @ A - self.r**2 * self.shape
        if np.linalg.eigvalsh(0.5 * (gram + gram.T)).min() < -1e-9 * np.linalg.norm(self.shape):
            raise SeriesDivergence("shape matrix violates the dilation inequality")

        omega = 1
        while self.r**omega < 2.0:
            omega += 1
        self.omega = omega

        self._chol = np.linalg.cholesky(self.shape)  # P = L L'
        self._powers = self._build_powers(A, self.level_cap + self.omega + 2)
        self._bpow = self._build_bpow_chain(self.b, self.level_cap + self.omega + 2)
        self._forms = {}

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _eigen_bounds(A, moduli):
        lo, hi = float(moduli.min()), float(moduli.max())
        # Non-diagonalizable matrices need strict inequalities; nudge by 0.1%.
        _, vecs = np.linalg.eig(A)
        diagonalizable = np.linalg.cond(vecs) < 1e8
        if diagonalizable:
            return lo, hi
        lo_adj = max(0.999 * lo, 1.0 + 0.5 * (lo - 1.0))
        return lo_adj, 1.001 * hi

    @staticmethod
    def _lyapunov_shape(A, s):
        # P = I + a P a' with a = s A^-T, the sum of s^2k A^-kT A^-k, solved
        # directly as the Kronecker system (I - a (x) a) vec P = vec I; so
        # A'PA - s^2 P = A'A.
        n = A.shape[0]
        a = s * np.linalg.inv(A).T
        P = np.linalg.solve(np.eye(n * n) - np.kron(a, a), np.eye(n).ravel()).reshape(n, n)
        return 0.5 * (P + P.T)

    @staticmethod
    def _build_powers(A, cap):
        powers = {0: np.eye(A.shape[0])}
        a_inv = np.linalg.inv(A)
        for k in range(1, cap + 1):
            powers[k] = A @ powers[k - 1]
            powers[-k] = a_inv @ powers[-(k - 1)]
        return powers

    @staticmethod
    def _build_bpow_chain(b, cap):
        # Built upward so that bpow[k+1] == fl(b * bpow[k]) exactly at every
        # level; this is what makes rho(Ax) == b*rho(x) hold with zero float
        # error.  Values drift from b**k by at most ~1e-15 relative.
        vals = np.empty(2 * cap + 1)
        vals[0] = b ** float(-cap)
        for i in range(2 * cap):
            vals[i + 1] = b * vals[i]
        return {k: float(vals[k + cap]) for k in range(-cap, cap + 1)}

    # -- basic queries ---------------------------------------------------------

    def power(self, k):
        """Matrix power A^k from the consistent cached chain."""
        try:
            return self._powers[k]
        except KeyError:
            raise ScaleOverflow(f"scale {k} exceeds level cap {self.level_cap}") from None

    def bpow(self, k):
        """b^k from the homogeneity-exact chain."""
        try:
            return self._bpow[k]
        except KeyError:
            raise ScaleOverflow(f"scale {k} exceeds level cap {self.level_cap}") from None

    def _form(self, k):
        """(M, open level) of B_k, M = L' A^-k: the form is |M x|^2, and the
        open level is c less a forward error bound on the computed form
        against the exact x' A^-k' P A^-k x (Higham, Accuracy and Stability,
        2nd ed., sec. 3.1).  Offset, map, product, sum of squares and L L'
        against P each err by at most gamma_{2n+2} componentwise; with
        |x| <= |M^-1| |M x| that totals gamma_{2n+2} (1 + T)^2 times the
        value, T = || |L'| |A^-k| |M^-1| ||_2; the factor 2 covers the
        second-order terms."""
        if k not in self._forms:
            fmap = self._chol.T @ self.power(-k)
            spread = np.abs(self._chol.T) @ np.abs(self.power(-k)) @ np.abs(np.linalg.inv(fmap))
            mu = (self.n + 1) * np.finfo(float).eps  # (2n + 2) u
            band = 2.0 * mu / (1.0 - mu) * (1.0 + np.linalg.norm(spread, 2)) ** 2
            self._forms[k] = (fmap, self.level_c * (1.0 - band))
        return self._forms[k]

    def _form_map(self, k):
        return self._form(k)[0]

    def form_values(self, points, scale):
        """Quadratic-form values of points against the ball B_scale."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        w = pts @ self._form_map(scale).T
        return np.einsum("ij,ij->i", w, w)

    def ball(self, center, scale):
        """center + B_scale; the centre needs one coordinate per axis."""
        ball = DilatedBall(center, int(scale))
        if ball.center.shape != (self.n,):
            raise ValueError(f"a ball centre needs {self.n} coordinates, got shape {ball.center.shape}")
        return ball

    def ball_volume(self, ball):
        """|center + B_k| = b^k, analytic."""
        return self.b ** float(ball.scale)

    def ball_contains_many(self, ball, points):
        """Strict membership of each point in center + B_k; the one place
        that decides lattice points on a ball's boundary.  Inside means a
        form value below _form's open level, so boundary points are out."""
        pts = np.asarray(points, dtype=float) - ball.center
        return self.form_values(pts, ball.scale) < self._form(ball.scale)[1]

    def ball_bounding_halfwidths(self, scale):
        """Per-axis half-widths of the bounding box of B_scale."""
        q_inv = np.linalg.inv(self._form_map(scale).T @ self._form_map(scale))
        return np.sqrt(self.level_c * np.diag(q_inv))

    # -- step quasi-norm -------------------------------------------------------

    def step_levels(self, points):
        """Integer levels k with x in B_{k+1} \\ B_k, vectorized.

        The balls nest in the scale, so a bisection over [-cap + 1, cap]
        finds the first scale whose ball holds any point, and an upward scan
        from there gives each point the first scale whose ball holds it.
        Returns (levels, zero_mask); levels are undefined where zero_mask is
        set (the origin has rho = 0 by convention).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        zero = np.all(pts == 0.0, axis=1)
        levels = np.zeros(pts.shape[0], dtype=int)
        idx = np.nonzero(~zero)[0]
        cap = self.level_cap
        origin = np.zeros(self.n)

        def inside(m):
            return self.ball_contains_many(self.ball(origin, m), pts[idx])

        m = -cap + 1
        if idx.size:
            if inside(-cap).any():
                raise ScaleOverflow("point inside B_k at the bottom of the level cap")
            hi = cap + 1
            while m < hi:
                mid = (m + hi) // 2
                if inside(mid).any():
                    hi = mid
                else:
                    m = mid + 1
        while m <= cap and idx.size:
            hit = inside(m)
            levels[idx[hit]] = m - 1
            idx = idx[~hit]
            m += 1
        if idx.size:
            raise ScaleOverflow("point outside B_k for every k within the level cap")
        return levels, zero

    def step_quasi_norm_many(self, points):
        """rho at each point: 0 at the origin, else b^k on B_{k+1} \\ B_k."""
        levels, zero = self.step_levels(points)
        out = np.empty(len(levels))
        for k in set(levels.tolist()):
            out[levels == k] = self.bpow(k)
        out[zero] = 0.0
        return out

    # -- containment of dilated balls ------------------------------------------

    def containment_max_values(self, inner_scale, outer_scale, offsets):
        """Max of the outer ball's quadratic form over closures of inner balls.

        offsets holds inner-center minus outer-center, one row per query; the
        result is comparable against level_c: value <= c iff the closed inner
        ball sits inside the closed outer ball.
        """
        offs = np.atleast_2d(np.asarray(offsets, dtype=float))
        m = inner_scale - outer_scale
        c_map = self._form_map(0)  # L'
        e = offs @ (c_map @ self.power(-outer_scale)).T
        mat = c_map @ self.power(m) @ np.linalg.inv(c_map)
        lam, vecs = np.linalg.eigh(mat.T @ mat)
        ghat = e @ (mat @ vecs)
        return _max_shifted_quadratic(lam, ghat, np.sqrt(self.level_c)) + np.einsum(
            "ij,ij->i", e, e
        )

    def closed_containment(self, inner_scale, outer_scale, offsets):
        """Booleans, one per offset row: closure(offset + B_inner) inside
        closure(B_outer).

        The closed side of the boundary rule, and the only place a
        containment value meets the level: the relative slack 1e-9 keeps
        boundary-touching balls inside despite rounding, and the values
        themselves are upper bounds.
        """
        vals = self.containment_max_values(inner_scale, outer_scale, offsets)
        return vals <= self.level_c * (1.0 + 1e-9)

    # -- quasi-triangle estimate -----------------------------------------------

    def estimate_quasi_triangle(self, pairs=4000, seed=2718):
        """Empirical H = max rho(x+y) / (rho(x)+rho(y)) over sampled pairs."""
        rng = np.random.default_rng(seed)
        half = self.ball_bounding_halfwidths(min(3, self.level_cap))
        x = rng.uniform(-1.0, 1.0, size=(pairs, self.n)) * half
        y = rng.uniform(-1.0, 1.0, size=(pairs, self.n)) * half
        rx = self.step_quasi_norm_many(x)
        ry = self.step_quasi_norm_many(y)
        rs = self.step_quasi_norm_many(x + y)
        denom = rx + ry
        ok = denom > 0
        return float(np.max(rs[ok] / denom[ok]))


def _max_shifted_quadratic(lam, ghat, radius):
    """Vectorized max of w'diag(lam)w + 2 ghat.w over ||w|| <= radius.

    lam is ascending (from eigh); ghat has one row per query.  By weak
    duality, every nu > lam_max gives the upper bound
        nu radius^2 + sum_i ghat_i^2 / (nu - lam_i),
    which is tight at the root of the secular equation ||w(nu)|| = radius,
    w_i = ghat_i / (nu - lam_i).  So any iterate above lam_max yields a value
    no smaller than the true maximum, and containment is never over-claimed.

    The root is found by Newton steps on phi(nu) = 1/||w(nu)|| - 1/radius
    (More & Sorensen, SIAM J. Sci. Stat. Comput. 4, 1983), started at the
    probe lam_max + 1e-13 scale, where phi < 0.  phi is increasing and
    concave on (lam_max, inf), so the iterates rise monotonically and never
    pass the root.  A row stops when its next step is below 4 eps nu (a few
    ulps) or is not a finite positive number; a fixed step cap is only a
    safety net, and a row stopped by it still returns its dual bound.  When
    ||w|| is already within the radius at the probe, the maximizer pads the
    top eigenspace and nu = lam_max.
    """
    lam = np.asarray(lam, dtype=float)
    ghat = np.atleast_2d(np.asarray(ghat, dtype=float))
    lmax = lam[-1]
    scale = max(abs(lmax), 1e-280)
    g2 = ghat * ghat
    rr = radius * radius

    probe = lmax + 1e-13 * scale
    nu = np.full(ghat.shape[0], lmax)
    w2 = g2 / (probe - lam) ** 2
    newton = w2.sum(axis=1) > rr
    if newton.any():
        rows = np.nonzero(newton)[0]
        nu[rows] = probe
        tiny = 4.0 * np.finfo(float).eps
        for _ in range(_NEWTON_MAX_STEPS):
            gap = nu[rows, None] - lam[None, :]
            w2 = g2[rows] / (gap * gap)
            norm2 = w2.sum(axis=1)
            norm = np.sqrt(norm2)
            # -phi/phi' with phi' = sum(w^2/gap) / ||w||^3.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = (norm / radius - 1.0) * norm2 / (w2 / gap).sum(axis=1)
            moving = np.isfinite(step) & (step > tiny * nu[rows])
            nu[rows[moving]] += step[moving]
            rows = rows[moving]
            if rows.size == 0:
                break

    denom = nu[:, None] - lam[None, :]
    safe = denom > 1e-250
    contrib = np.where(safe, g2 / np.where(safe, denom, 1.0), 0.0)
    return nu * rr + contrib.sum(axis=1)


def new_dilation(matrix):
    """Validate an expansive matrix and build its ball geometry."""
    return Dilation(matrix)
