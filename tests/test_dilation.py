import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_lyapunov

from anivex.dilation import _max_shifted_quadratic, new_dilation, unit_ball_volume
from anivex.errors import NotExpansive, ScaleOverflow
from anivex.grid import ball_footprint, ball_support, uniform_grid


@pytest.fixture(scope="module")
def d1():
    return new_dilation([[2.0]])


@pytest.fixture(scope="module")
def d2():
    return new_dilation([[2.0, 0.0], [0.0, 3.0]])


class TestConstruction:
    def test_scalar_doubling(self, d1):
        # Closed form: P = sum 2^k 4^-k = 2, Delta = (-1/2, 1/2), r = sqrt(2).
        assert d1.b == 2.0
        assert d1.shape[0, 0] == pytest.approx(2.0, rel=1e-12)
        assert d1.r == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert d1.omega == 2
        # Delta = {x: 2x^2 < c} has length sqrt(2c) = 1.
        assert d1.level_c == pytest.approx(0.5, rel=1e-12)
        half = d1.ball_bounding_halfwidths(0)
        assert half[0] == pytest.approx(0.5, rel=1e-12)

    def test_diagonal_area_one(self, d2):
        assert d2.b == pytest.approx(6.0, rel=1e-14)
        # |Delta| = c * pi / sqrt(det P) must equal 1.
        area = d2.level_c * unit_ball_volume(2) / np.sqrt(np.linalg.det(d2.shape))
        assert area == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "mat",
        [
            [[2.0]],
            [[2.0, 0.0], [0.0, 3.0]],
            [[2.0, 1.0], [0.0, 2.0]],
            [[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]],
        ],
    )
    def test_shape_solves_lyapunov_equation(self, mat):
        d = new_dilation(mat)
        A = d.matrix
        residual = A.T @ d.shape @ A - d.r**2 * d.shape - A.T @ A
        assert np.linalg.norm(residual) <= 1e-14 * np.linalg.norm(A.T @ A)
        assert np.array_equal(d.shape, d.shape.T)

    @pytest.mark.parametrize(
        "mat, ulps",
        [
            ([[2.0]], 0),
            ([[3.0]], 0),
            ([[2.0, 0.0], [0.0, 3.0]], 0),
            ([[2.0, 1.0], [0.0, 2.0]], 0),
            ([[2.5, 0.7], [-0.3, 1.9]], 0),
            ([[1.5, -1.0], [1.0, 1.5]], 0),
            ([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]], 4),
            ([[3.0, 0.2, 0.1], [0.4, 2.5, 0.0], [0.0, 0.3, 2.2]], 4),
        ],
    )
    def test_shape_matches_scipy_lyapunov(self, mat, ulps):
        # Bitwise in 1-D and 2-D; the 3x3 solve may round differently.
        d = new_dilation(mat)
        want = solve_discrete_lyapunov(d.r * np.linalg.inv(d.matrix).T, np.eye(d.n))
        want = 0.5 * (want + want.T)
        assert np.all(np.abs(d.shape - want) <= ulps * np.spacing(np.abs(want)))

    def test_not_expansive(self):
        with pytest.raises(NotExpansive):
            new_dilation([[1.0]])
        with pytest.raises(NotExpansive):
            new_dilation([[0.5, 0.0], [0.0, 3.0]])

    def test_dilation_inequality_matrix(self, d2):
        gram = d2.matrix.T @ d2.shape @ d2.matrix - d2.r**2 * d2.shape
        assert np.linalg.eigvalsh(gram).min() >= -1e-12

    def test_omega_bracketing(self, d1, d2):
        for d in (d1, d2):
            assert d.r**d.omega >= 2.0
            assert d.r ** (d.omega - 1) < 2.0

    def test_shear_non_diagonalizable(self):
        d = new_dilation([[2.0, 1.0], [0.0, 2.0]])
        assert 1.0 < d.lambda_minus <= 2.0
        assert d.lambda_plus >= 2.0
        gram = d.matrix.T @ d.shape @ d.matrix - d.r**2 * d.shape
        assert np.linalg.eigvalsh(gram).min() >= -1e-9


class TestBalls:
    def test_contains_interval(self, d1):
        b0 = d1.ball([0.0], 0)
        assert d1.ball_contains_many(b0, [[0.0], [0.49], [0.51]]).tolist() == [True, True, False]
        b1 = d1.ball([0.0], 1)
        assert d1.ball_contains_many(b1, [[0.75]]).tolist() == [True]

    def test_volume_powers(self, d1, d2):
        assert d1.ball_volume(d1.ball([0.0], 0)) == 1.0
        assert d1.ball_volume(d1.ball([0.0], 3)) == 8.0
        assert d2.ball_volume(d2.ball([0.0, 0.0], -1)) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_monotone_nesting(self, d2):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(200, 2)) * 2.0
        for k in (-2, 0, 1):
            inner = d2.ball([0.3, -0.1], k)
            outer = d2.ball([0.3, -0.1], k + 1)
            in_small = d2.ball_contains_many(inner, pts)
            in_big = d2.ball_contains_many(outer, pts)
            assert np.all(in_big[in_small])

    def test_monte_carlo_volume(self, d2):
        rng = np.random.default_rng(11)
        for k in (-1, 0, 2):
            ball = d2.ball([0.0, 0.0], k)
            half = d2.ball_bounding_halfwidths(k)
            pts = rng.uniform(-1.0, 1.0, size=(1_000_000, 2)) * half
            frac = d2.ball_contains_many(ball, pts).mean()
            est = frac * np.prod(2.0 * half)
            assert est == pytest.approx(d2.b ** float(k), rel=0.01)


class TestBoundaryRule:
    """On A=[2] every dyadic lattice has points on ball boundaries, and
    boundary points are outside the open balls."""

    @pytest.mark.parametrize("cell", [1500, 2048, 2600])
    def test_lattice_centred_interval_counts(self, d1, cell):
        g = uniform_grid([-8.0], [8.0], 4096)
        center = g.points()[cell]
        for k in range(-7, 4):
            # B_k = (-2^(k-1), 2^(k-1)) around a lattice point: 2^k/h - 1 points.
            expected = 2 ** (k + 8) - 1
            assert ball_support(g, d1, d1.ball(center, k)).size == expected
            assert np.count_nonzero(ball_footprint(d1, g, k)) == expected

    def test_boundary_point_takes_the_outer_level(self, d1):
        for k in range(-30, 31):
            x = np.array([[-(2.0 ** (k - 1))], [2.0 ** (k - 1)]])
            # x lies on the boundary of B_k, so in B_{k+1} \ B_k.
            assert np.array_equal(d1.step_quasi_norm_many(x), [d1.bpow(k)] * 2)
            assert np.array_equal(d1.step_quasi_norm_many(2.0 * x), d1.b * d1.step_quasi_norm_many(x))


class TestStepQuasiNorm:
    def test_origin(self, d1):
        assert d1.step_quasi_norm_many([[0.0]]).tolist() == [0.0]

    def test_interval_levels(self, d1):
        # 0.75 sits in B_1 \ B_0 = (-1,1) \ (-1/2,1/2).
        assert d1.step_quasi_norm_many([[0.75], [1.5]]).tolist() == [1.0, 2.0]
        rho = d1.step_quasi_norm_many([[2 * 0.75], [0.75]])
        assert rho[0] == 2 * rho[1]

    @pytest.mark.parametrize("mat", [[[2.0]], [[2.0, 0.0], [0.0, 3.0]]])
    def test_exact_homogeneity(self, mat):
        d = new_dilation(mat)
        rng = np.random.default_rng(123)
        pts = rng.uniform(-8.0, 8.0, size=(10_000, d.n))
        r_x = d.step_quasi_norm_many(pts)
        r_ax = d.step_quasi_norm_many(pts @ d.matrix.T)
        assert np.array_equal(r_ax, d.b * r_x)

    def test_symmetry(self, d2):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(500, 2)) * 3.0
        assert np.array_equal(d2.step_quasi_norm_many(pts), d2.step_quasi_norm_many(-pts))

    def test_scale_overflow(self, d1):
        tiny = np.array([[2.0 ** (-d1.level_cap - 6)]])
        with pytest.raises(ScaleOverflow, match="bottom"):
            d1.step_levels(tiny)
        with pytest.raises(ScaleOverflow, match="bottom"):
            d1.step_levels(np.vstack([tiny, [[0.0], [0.75]]]))

    def test_scale_overflow_at_the_top(self, d1):
        huge = np.array([[0.75], [2.0 ** (d1.level_cap + 2)]])
        with pytest.raises(ScaleOverflow, match="every k"):
            d1.step_levels(huge)
        with pytest.raises(ScaleOverflow, match="every k"):
            _linear_step_levels(d1, huge)

    def test_quasi_triangle_stable(self, d2):
        h1 = d2.estimate_quasi_triangle(pairs=4000, seed=99)
        h2 = d2.estimate_quasi_triangle(pairs=8000, seed=99)
        assert np.isfinite(h1) and np.isfinite(h2)
        assert h2 <= 2.0 * h1 + 1.0


def _linear_step_levels(d, points):
    """step_levels by a scan of every level upward from the bottom of the cap."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    zero = np.all(pts == 0.0, axis=1)
    levels = np.zeros(pts.shape[0], dtype=int)
    undecided = ~zero
    origin = np.zeros(d.n)
    cap = d.level_cap
    if undecided.any() and d.ball_contains_many(d.ball(origin, -cap), pts[undecided]).any():
        raise ScaleOverflow("point inside B_k at the bottom of the level cap")
    for m in range(-cap + 1, cap + 1):
        idx = np.nonzero(undecided)[0]
        if not idx.size:
            break
        hit = idx[d.ball_contains_many(d.ball(origin, m), pts[idx])]
        levels[hit] = m - 1
        undecided[hit] = False
    if undecided.any():
        raise ScaleOverflow("point outside B_k for every k within the level cap")
    return levels, zero


_LEVEL_MATRICES = {
    "[2]": [[2.0]],
    "diag(2,3)": [[2.0, 0.0], [0.0, 3.0]],
    "shear": [[2.0, 1.0], [0.0, 2.0]],
    "jordan3": [[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]],
}


def _check_levels(d, pts):
    levels, zero = d.step_levels(pts)
    ref_levels, ref_zero = _linear_step_levels(d, pts)
    assert np.array_equal(zero, ref_zero)
    assert np.array_equal(levels[~zero], ref_levels[~zero])
    ref_rho = np.array([0.0 if z else d.bpow(int(k)) for k, z in zip(ref_levels, ref_zero)])
    assert np.array_equal(d.step_quasi_norm_many(pts), ref_rho)


class TestBisectedLevels:
    """step_levels bisects to the first level that holds a point, then scans;
    every level equals the full scan's."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(sorted(_LEVEL_MATRICES)),
        data=st.data(),
    )
    def test_equals_linear_scan(self, name, data):
        d = new_dilation(_LEVEL_MATRICES[name])
        count = data.draw(st.integers(1, 40), label="points")
        exps = data.draw(st.lists(st.floats(-6.0, 3.0), min_size=count, max_size=count), label="log10 radius")
        dirs = data.draw(
            st.lists(st.lists(st.floats(-1.0, 1.0), min_size=d.n, max_size=d.n), min_size=count, max_size=count),
            label="directions",
        )
        pts = []
        for e, v in zip(exps, dirs):
            v = np.asarray(v)
            norm = np.linalg.norm(v)
            pts.append(v / norm * 10.0**e if norm > 1e-3 else np.zeros(d.n))
        if data.draw(st.booleans(), label="with origin"):
            pts.append(np.zeros(d.n))
        _check_levels(d, np.array(pts))

    @pytest.mark.parametrize("name", sorted(_LEVEL_MATRICES))
    def test_spread_and_single_points(self, name):
        d = new_dilation(_LEVEL_MATRICES[name])
        rng = np.random.default_rng(17)
        dirs = rng.normal(size=(400, d.n))
        radii = 10.0 ** rng.uniform(-6.0, 3.0, size=400)
        pts = dirs / np.linalg.norm(dirs, axis=1)[:, None] * radii[:, None]
        _check_levels(d, np.vstack([pts, np.zeros((1, d.n))]))
        for x in pts[:40]:
            _check_levels(d, x[None])
        _check_levels(d, np.zeros((3, d.n)))

    def test_dyadic_boundaries(self, d1):
        # Lattice points of a dyadic grid on A=[2] lie exactly on the
        # boundaries of B_k = (-2^(k-1), 2^(k-1)).
        g = uniform_grid([-8.0], [8.0], 4096)
        pts = g.points()
        on_boundary = np.array([[s * 2.0 ** (k - 1)] for k in range(-12, 10) for s in (-1.0, 1.0)])
        _check_levels(d1, np.vstack([pts, on_boundary, [[0.0]]]))
        _check_levels(d1, pts - pts[1500])  # the origin among them

    def test_run_2d_grid_pass_count(self, d2, monkeypatch):
        # The 48 x 48 grid on [-5, 5]^2 under diag(2,3) lives on levels
        # -2..3: one bottom check, seven bisection steps at most over the 80
        # levels of the cap, then six scan passes; the full scan makes 45.
        g = uniform_grid([-5.0, -5.0], [5.0, 5.0], 48)
        calls = []
        contains = type(d2).ball_contains_many
        monkeypatch.setattr(type(d2), "ball_contains_many", lambda self, *a: calls.append(1) or contains(self, *a))
        levels, _ = d2.step_levels(g.points())
        assert (levels.min(), levels.max()) == (-2, 3)
        assert len(calls) == 13
        calls.clear()
        _linear_step_levels(d2, g.points())
        assert len(calls) == 45


def _closed_inside(d, inner, outer):
    """closure(inner) inside closure(outer), by one closed_containment row."""
    offset = (inner.center - outer.center)[None, :]
    return bool(d.closed_containment(inner.scale, outer.scale, offset)[0])


class TestContainment:
    def test_identity(self, d1, d2):
        for d in (d1, d2):
            ball = d.ball(np.zeros(d.n), 1)
            assert _closed_inside(d, ball, ball)

    def test_nested_scales(self, d1):
        b0 = d1.ball([0.0], 0)
        b1 = d1.ball([0.0], 1)
        assert _closed_inside(d1, b0, b1)
        assert not _closed_inside(d1, b1, b0)

    def test_shifted_interval(self, d1):
        inner = d1.ball([0.9], 0)  # (0.4, 1.4)
        outer = d1.ball([0.0], 1)  # (-1, 1)
        assert not _closed_inside(d1, inner, outer)
        assert _closed_inside(d1, d1.ball([0.4], 0), outer)

    def test_interval_oracle(self, d1):
        # 1D oracle: centers/half-lengths reduce containment to arithmetic.
        rng = np.random.default_rng(17)
        for _ in range(300):
            ki, ko = rng.integers(-3, 4, size=2)
            ci, co = rng.uniform(-2, 2, size=2)
            ri, ro = 0.5 * 2.0 ** float(ki), 0.5 * 2.0 ** float(ko)
            expected = abs(ci - co) + ri <= ro * (1 + 1e-12)
            got = _closed_inside(d1, d1.ball([ci], int(ki)), d1.ball([co], int(ko)))
            assert got == expected, (ci, ki, co, ko)

    def test_ellipse_oracle_by_sampling(self, d2):
        # Boundary sampling of the inner ellipse bounds the exact maximizer.
        rng = np.random.default_rng(23)
        theta = np.linspace(0, 2 * np.pi, 4001)
        circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        chol = np.linalg.cholesky(d2.shape)
        sphere_to_delta = np.linalg.inv(chol.T) * np.sqrt(d2.level_c)
        for _ in range(60):
            ki, ko = rng.integers(-2, 3, size=2)
            ci = rng.uniform(-1, 1, size=2)
            co = rng.uniform(-1, 1, size=2)
            inner = d2.ball(ci, int(ki))
            outer = d2.ball(co, int(ko))
            boundary = ci + circle @ (d2.power(int(ki)) @ sphere_to_delta).T
            vals = d2.form_values(boundary - co, int(ko))
            sampled_max = vals.max()
            exact = d2.containment_max_values(int(ki), int(ko), (ci - co)[None, :])[0]
            assert exact >= sampled_max * (1 - 1e-9)
            assert exact <= sampled_max * (1 + 1e-3) + 1e-12


def _bisection_max_shifted_quadratic(lam, ghat, radius):
    """Reference solver: 90 fixed bisection steps on the secular equation,
    returning the dual bound at the upper end of the bracket."""
    lam = np.asarray(lam, dtype=float)
    ghat = np.atleast_2d(np.asarray(ghat, dtype=float))
    lmax = lam[-1]
    scale = max(abs(lmax), 1e-280)
    g2 = ghat * ghat
    total = g2.sum(axis=1)
    rr = radius * radius

    def w_norm2(nu, rows):
        denom = np.maximum(nu[:, None] - lam[None, :], 1e-300)
        return (g2[rows] / (denom * denom)).sum(axis=1)

    probe = lmax + 1e-13 * scale
    nu = np.full(ghat.shape[0], lmax)
    bis = w_norm2(np.full_like(total, probe), np.arange(ghat.shape[0])) > rr
    if bis.any():
        rows = np.nonzero(bis)[0]
        a_lo = np.full(rows.shape, probe)
        a_hi = np.maximum(lmax + np.sqrt(total[rows]) / radius, a_lo)
        for _ in range(90):
            mid = 0.5 * (a_lo + a_hi)
            grow = w_norm2(mid, rows) > rr
            a_lo = np.where(grow, mid, a_lo)
            a_hi = np.where(grow, a_hi, mid)
        nu[rows] = a_hi
    denom = nu[:, None] - lam[None, :]
    safe = denom > 1e-250
    contrib = np.where(safe, g2 / np.where(safe, denom, 1.0), 0.0)
    return nu * rr + contrib.sum(axis=1)


def _secular_inputs(d, inner_scale, outer_scale, offsets):
    """(lam, ghat, radius) exactly as containment_max_values sets them up."""
    c_map = d._form_map(0)
    e = offsets @ (c_map @ d.power(-outer_scale)).T
    mat = c_map @ d.power(inner_scale - outer_scale) @ np.linalg.inv(c_map)
    lam, vecs = np.linalg.eigh(mat.T @ mat)
    return lam, e @ (mat @ vecs), np.sqrt(d.level_c)


@st.composite
def expansive_matrices(draw):
    """Rotated upper-triangular matrices with eigenvalue moduli in [1.2, 3].

    Repeated diagonal entries with a nonzero coupling give Jordan blocks
    (shears such as [[2,1],[0,2]]), so non-diagonalizable cases are common.
    """
    n = draw(st.sampled_from((2, 3)))
    diag = [draw(st.sampled_from((1.2, 1.5, 2.0, 3.0, -2.0))) for _ in range(n)]
    mat = np.diag(diag)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = draw(st.sampled_from((0.0, 1.0, -0.7, 1.5)))
    theta = draw(st.floats(0.0, np.pi))
    rot = np.eye(n)
    c, s = np.cos(theta), np.sin(theta)
    rot[:2, :2] = [[c, -s], [s, c]]
    return rot @ mat @ rot.T


class TestSecularSolver:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        mat=expansive_matrices(),
        inner=st.integers(-3, 2),
        outer=st.integers(-2, 3),
        seed=st.integers(0, 2**16),
    )
    @example(mat=np.array([[2.0, 1.0], [0.0, 2.0]]), inner=-3, outer=0, seed=31)
    @example(mat=np.array([[2.0, 1.0], [0.0, 2.0]]), inner=0, outer=0, seed=32)
    def test_matches_bisection_and_never_below(self, mat, inner, outer, seed):
        d = new_dilation(mat)
        rng = np.random.default_rng(seed)
        half = d.ball_bounding_halfwidths(outer)
        offsets = rng.uniform(-1.5, 1.5, size=(40, d.n)) * half
        offsets[0] = 0.0  # no linear term: the maximizer pads the top eigenspace
        lam, ghat, radius = _secular_inputs(d, inner, outer, offsets)
        got = _max_shifted_quadratic(lam, ghat, radius)
        ref = _bisection_max_shifted_quadratic(lam, ghat, radius)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
        assert np.all(got >= ref * (1.0 - 4.0 * np.finfo(float).eps))


class TestBpowChain:
    def test_links_exact(self, d2):
        cap = d2.level_cap
        for k in range(-cap, cap - 1):
            assert d2.b * d2.bpow(k) == d2.bpow(k + 1)

    def test_close_to_true_powers(self, d2):
        for k in range(-30, 30):
            assert d2.bpow(k) == pytest.approx(d2.b ** float(k), rel=1e-13)
