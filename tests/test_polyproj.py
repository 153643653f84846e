import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from anivex.campanato import classic_functional
from anivex.dilation import new_dilation
from anivex.errors import InsufficientSamples
from anivex.exponents import constant_exponent
from anivex.grid import (
    GridFunction,
    ball_lattice_mask,
    ball_row,
    ball_support,
    footprint_offsets,
    footprint_rows,
    lattice_anchors,
    sample,
    scale_stacks,
    uniform_grid,
)
from anivex.polyproj import (
    _ball_design,
    _project,
    lq_error,
    lq_norm,
    minimizing_polynomial,
    moments,
    multi_indices,
    project_stack,
    refine_lq,
)
from anivex.search import _canonical_sweep, default_scale_window


@pytest.fixture(scope="module")
def d1():
    return new_dilation([[2.0]])


@pytest.fixture(scope="module")
def g1():
    return uniform_grid([-8.0], [8.0], 4096)


@pytest.fixture(scope="module")
def d2():
    return new_dilation([[2.0, 0.0], [0.0, 3.0]])


def test_multi_index_count():
    assert len(multi_indices(1, 3)) == comb(1 + 3, 3) == 4
    assert len(multi_indices(2, 2)) == comb(2 + 2, 2) == 6
    assert multi_indices(2, 1)[0] == (0, 0)
    assert multi_indices(2, 2) is multi_indices(2, 2)


class TestProjection:
    def test_square_onto_linear(self, d1, g1):
        # <x^2, 1>/<1, 1> on (-1, 1) is 1/3; the linear coefficient vanishes.
        f = sample(g1, lambda x: x**2)
        ball = d1.ball([0.0], 1)
        poly = minimizing_polynomial(f, d1, ball, 1)
        mask = ball_lattice_mask(g1, d1, ball)
        discrete_mean = f.values[mask].mean()
        assert poly.coefficients[0] == pytest.approx(discrete_mean, rel=1e-12)
        assert poly.coefficients[0] == pytest.approx(1.0 / 3.0, abs=1e-5)
        assert abs(poly.coefficients[1]) < 1e-10

    def test_reproduces_polynomials(self, d1, g1):
        f = sample(g1, lambda x: 3.0 * x + 1.0)
        poly = minimizing_polynomial(f, d1, d1.ball([0.3], 1), 1)
        pts = np.linspace(-0.5, 1.1, 7)[:, None]
        assert np.allclose(poly.evaluate(pts), 3.0 * pts[:, 0] + 1.0, atol=1e-10)

    def test_abs_mean(self, d1, g1):
        f = sample(g1, lambda x: np.abs(x))
        poly = minimizing_polynomial(f, d1, d1.ball([0.0], 1), 0)
        assert poly.coefficients[0] == pytest.approx(0.5, abs=1e-5)

    def test_insufficient_samples(self, d1, g1):
        with pytest.raises(InsufficientSamples):
            minimizing_polynomial(sample(g1, lambda x: x), d1, d1.ball([0.0], -9), 3)

    def test_evaluate_constant_and_center(self, d1, g1):
        f = sample(g1, lambda x: x**2)
        poly = minimizing_polynomial(f, d1, d1.ball([0.0], 1), 1)
        assert poly.evaluate(np.array([0.5])) == pytest.approx(1.0 / 3.0, abs=1e-5)

    @pytest.mark.parametrize("case", range(6))
    def test_orthogonality_idempotence_optimality(self, d1, g1, case):
        rng = np.random.default_rng(100 + case)
        freq = rng.uniform(0.5, 3.0)
        f = sample(g1, lambda x: np.sin(freq * x) + 0.2 * x**3)
        s = int(rng.integers(0, 4))
        ball = d1.ball([rng.uniform(-2, 2)], int(rng.integers(-1, 3)))
        poly = minimizing_polynomial(f, d1, ball, s)

        mask = ball_lattice_mask(g1, d1, ball)
        pts = g1.points()[mask.ravel()]
        resid = f.values[mask] - poly.evaluate(pts)
        h = g1.cell_volume
        f_norm = np.sqrt(np.sum(f.values[mask] ** 2) * h)

        # Orthogonality against every basis monomial in local coordinates.
        local = (pts - ball.center) @ poly.transform.T
        for gamma in poly.indices:
            col = np.ones(len(pts))
            for axis, power in enumerate(gamma):
                col = col * local[:, axis] ** power
            h_norm = np.sqrt(np.sum(col**2) * h)
            assert abs(np.sum(resid * col) * h) <= 1e-8 * max(f_norm * h_norm, 1e-12)

        # Idempotence.
        again = minimizing_polynomial(poly.on_grid(g1), d1, ball, s)
        assert np.allclose(again.coefficients, poly.coefficients, atol=1e-10 * (1 + f_norm))

        # Optimality among random competitors.
        base = np.sum(resid**2) * h
        for _ in range(50):
            competitor = poly.coefficients + rng.normal(size=poly.coefficients.shape) * 0.1
            cand = np.sum((f.values[mask] - _eval_coeffs(poly, competitor, pts)) ** 2) * h
            assert base <= cand + 1e-12

    def test_2d_reproduction(self, d2):
        g = uniform_grid([-4.0, -4.0], [4.0, 4.0], (128, 128))
        f = sample(g, lambda x, y: 1.0 + 2.0 * x - y + 0.5 * x * y)
        poly = minimizing_polynomial(f, d2, d2.ball([0.0, 0.0], 2), 2)
        pts = np.random.default_rng(1).uniform(-0.5, 0.5, size=(20, 2))
        want = 1.0 + 2.0 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 1]
        assert np.allclose(poly.evaluate(pts), want, atol=1e-9)


def _one_row_ball(d2):
    """A function linear in x and y, and a ball whose five lattice points lie
    on one row: the y column of the degree-1 design is zero, so the Gram
    matrix is singular."""
    g = uniform_grid([-4.0, -4.0], [4.0, 4.0], (64, 8))
    ball = d2.ball([g.spacing[0] / 2, g.spacing[1] / 2], -1)
    assert len(set(g.points()[ball_support(g, d2, ball)][:, 1])) == 1
    return sample(g, lambda x, y: 1.0 + 2.0 * x + 3.0 * y), ball


def _assert_refused(f, d, ball, s, points, coefficients):
    """The ball is refused alone, naming its point and coefficient counts,
    and as both rows of a two-row stack."""
    with pytest.raises(InsufficientSamples, match=f"^{points} lattice points .* {coefficients} coefficients$"):
        _project(f, d, ball, s)
    [(_, _, rows, inside, shift)] = scale_stacks(f.grid, d, [ball], 1)
    coef, resid, ranked = project_stack(f, d, ball.scale, shift, np.repeat(rows, 2, 0), np.repeat(inside, 2, 0), s)
    assert not ranked.any()
    assert coef.shape == (0, coefficients) and resid.shape == (0, rows.shape[1])


class TestSingularGram:
    def test_one_row_ball_is_refused(self, d2):
        # A row fixes no y coefficient: the ball is refused, not fitted.
        f, ball = _one_row_ball(d2)
        _assert_refused(f, d2, ball, 1, 5, 3)

    def test_zero_pivot_in_the_solve(self):
        # Six lattice points on two rows, one per degree-2 coefficient: the
        # quadratic (y - 3)(y - 11/3) vanishes on all of them, so the Gram
        # matrix is singular.  Rounding leaves a Cholesky factor on both
        # grids, and whether an LU solve meets an exact zero pivot depends
        # on the grid; the rank decision refuses the ball on both.
        d = new_dilation([[2.0, 1.0], [0.0, 2.0]])
        for resolution in ((11, 12), (12, 12)):
            g = uniform_grid([-4.0, -4.0], [4.0, 4.0], resolution)
            f = sample(g, lambda x, y: np.sin(1.1 * x + 0.3) * np.cos(0.9 * y) * np.exp(-(x**2 + y**2) / 10) + 0.2 * x * y)
            center = g.points()[8 * 12 + 11]
            assert np.allclose(center, [-4.0 + 8.5 * 8.0 / resolution[0], 11.0 / 3.0])
            ball = d.ball(center, 1)
            idx, inside, design = _ball_design(f, d, ball, 2)
            assert np.count_nonzero(inside) == design.shape[1] == 6
            assert np.allclose(np.unique(g.points()[idx[inside]][:, 1].round(9)), [3.0, 11.0 / 3.0])
            np.linalg.cholesky(design.T @ design)
            _assert_refused(f, d, ball, 2, 6, 6)


def _eval_coeffs(poly, coeffs, pts):
    local = (pts - poly.center) @ poly.transform.T
    out = np.zeros(len(pts))
    for gamma, c in zip(poly.indices, coeffs):
        col = np.ones(len(pts))
        for axis, power in enumerate(gamma):
            col = col * local[:, axis] ** power
        out += c * col
    return out


def _on_footprint(f, d, ball, poly):
    """poly at the cells of the ball's footprint row, in its own coordinates:
    a lattice point x = anchor + offset h and the centre = anchor + shift, so
    x - center is offset h - shift, then A^-k as poly.transform, the
    monomials and one (1, m) @ (m, K) product.  Built here from the lattice
    geometry alone, not from the module's design helpers."""
    _, shifts = lattice_anchors(f.grid, ball.center[None])
    offsets = footprint_offsets(d, f.grid, ball.scale, shifts[0])[0].T
    local = (offsets * f.grid.spacing - shifts[0]) @ poly.transform.T
    design = np.ones((len(local), len(poly.indices)))
    for j, gamma in enumerate(poly.indices):
        for axis, power in enumerate(gamma):
            design[:, j] *= local[:, axis] ** power
    return (poly.coefficients[None, None, :] @ design.T)[0, 0]


def _assert_near_global(resid, f, ball, poly, row, inside):
    """The residual agrees with poly evaluated at the global lattice points,
    to rounding in the local coordinates."""
    want = np.abs(f.values.ravel()[row] - poly.evaluate(f.grid.points()[row])) * inside
    assert np.allclose(resid, want, rtol=0.0, atol=1e-12 * (1.0 + np.abs(f.values).max()))


class TestProjectStack:
    @pytest.mark.parametrize(
        "matrix, resolution, s, refused",
        [
            ([[2.0]], (256,), 2, False),
            ([[2.0, 0.0], [0.0, 3.0]], (48, 48), 1, False),
            # Coarse in y: a few sweep balls hold one lattice row, so they are
            # refused inside a stack of balls that are not.
            ([[2.0, 1.0], [0.0, 2.0]], (32, 8), 1, True),
        ],
    )
    def test_rows_are_one_ball_projections(self, matrix, resolution, s, refused):
        d = new_dilation(matrix)
        n = len(resolution)
        g = uniform_grid([-4.0] * n, [4.0] * n, resolution)
        f = sample(g, lambda *x: np.sin(1.3 * x[0] + 0.2) * np.cos(0.7 * x[-1]) + 0.1 * x[0] * x[-1])
        groups = {}
        for ball in _canonical_sweep(d, g, default_scale_window(d, g, 4 + 2 * s)):
            if ball_support(g, d, ball).size >= len(multi_indices(n, s)):
                groups.setdefault(ball.scale, []).append(ball)
        refused_in_stack = False
        for k, balls in groups.items():
            index, shifts = lattice_anchors(g, [b.center for b in balls])
            assert not shifts.any()
            rows, inside = footprint_rows(g, d, k, index, shifts[0])
            coef, resid, ranked = project_stack(f, d, k, shifts[0], rows, inside, s)
            for ball, coef_row, resid_row in zip([b for b, r in zip(balls, ranked) if r], coef, resid):
                poly, alone = _project(f, d, ball, s)
                assert np.array_equal(coef_row, poly.coefficients)
                assert np.array_equal(resid_row, alone)
            for ball in [b for b, r in zip(balls, ranked) if not r]:
                with pytest.raises(InsufficientSamples):
                    _project(f, d, ball, s)
            refused_in_stack |= ranked.any() and not ranked.all()
        assert max(len(balls) for balls in groups.values()) > 1
        assert refused_in_stack == refused


# Dilations on grids of 24 cells per axis, or of 6 in y, at scales from
# balls too small to fix a polynomial of degree s <= 2 to balls that hold
# enough lattice points; on the grids coarse in y some balls hold one row.
_ORACLE_CASES = {
    "[2]": ([[2.0]], (24,), (-1, 1, 2, 3)),
    "shear": ([[2.0, 1.0], [0.0, 2.0]], (24, 24), (-1, 1, 2)),
    "diag(2,3)": ([[2.0, 0.0], [0.0, 3.0]], (24, 24), (-1, 1, 2)),
    "shear-24x6": ([[2.0, 1.0], [0.0, 2.0]], (24, 6), (0, 1, 2)),
    "diag(2,3)-24x6": ([[2.0, 0.0], [0.0, 3.0]], (24, 6), (0, 1, 2)),
}


class TestLstsqOracle:
    @pytest.mark.parametrize("s", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
    def test_stack_matches_lstsq_on_the_support(self, case, s):
        # Independent of the footprint layout: each ball's own lattice points
        # in global coordinates minus its centre.  np.linalg.matrix_rank of
        # their design decides which balls the projection refuses, stacked
        # and alone, and np.linalg.lstsq is the projection of the others.
        matrix, resolution, scales = _ORACLE_CASES[case]
        d = new_dilation(matrix)
        n = len(resolution)
        g = uniform_grid([-4.0] * n, [4.0] * n, resolution)
        f = sample(g, lambda *x: np.sin(1.3 * x[0] + 0.2) * np.cos(0.7 * x[-1]) + 0.1 * x[0] * x[-1] ** 2)
        rng = np.random.default_rng(7)
        lattice = g.points()[rng.choice(len(g.points()), 8, replace=False)]
        corners = g.points()[[0, -1]]  # balls the box clips
        # Off-lattice centres: a stack of several at one shift, and loose ones.
        shifted = lattice + 0.37 * g.spacing
        centres = np.concatenate([lattice, corners, shifted, rng.uniform(-3.5, 3.5, (4, n))])
        indices = multi_indices(n, s)
        seen = {"clipped": 0, "off-lattice": 0, "stacked": 0, "refused": 0, "one row": 0}
        balls = [d.ball(c, k) for k in scales for c in centres]
        for scale, group, rows, inside, shift in scale_stacks(g, d, balls, 1 << 12):
            coef, resid, ranked = project_stack(f, d, scale, shift, rows, inside, s)
            fits = zip(coef, resid)
            for i, ball in enumerate(group):
                support = ball_support(g, d, ball)
                local = (g.points()[support] - ball.center) @ np.linalg.inv(np.linalg.matrix_power(d.matrix, scale)).T
                design = np.stack([np.prod(local ** np.array(gamma), axis=1) for gamma in indices], axis=1)
                assert ranked[i] == (np.linalg.matrix_rank(design) == len(indices))
                if not ranked[i]:
                    with pytest.raises(InsufficientSamples):
                        _project(f, d, ball, s)
                    seen["refused"] += 1
                    seen["one row"] += support.size >= len(indices) and len(set(g.points()[support][:, -1])) == 1
                    continue
                coef_row, resid_row = next(fits)
                assert np.array_equal(_project(f, d, ball, s)[0].coefficients, coef_row)
                values = f.values.ravel()[support]
                want = np.linalg.lstsq(design, values, rcond=None)[0]
                assert np.allclose(coef_row, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())
                assert np.allclose(resid_row[inside[i]], np.abs(values - design @ want), rtol=0.0, atol=1e-9 * np.abs(values).max())
                assert not resid_row[~inside[i]].any()
                seen["clipped"] += not inside[i].all()
                seen["off-lattice"] += bool(shift.any())
                seen["stacked"] += ranked.sum() > 1 and bool(shift.any())
            assert next(fits, None) is None
        # Every ball with a lattice point fixes a constant; on the coarse
        # grids some linear fits see one row only.
        wanted = {"clipped", "off-lattice", "stacked"} | ({"refused"} if s else set())
        wanted |= {"one row"} if s == 1 and "24x6" in case else set()
        assert all(seen[kind] for kind in wanted), seen


class TestMoments:
    def test_odd_function_symmetric_ball(self, g1):
        # The whole box (-8, 8) is symmetric about 0.
        f = sample(g1, lambda x: x**3)
        vals = moments(f, 0)
        assert abs(vals[0]) < 1e-8

    def test_unit_interval(self, g1):
        x = g1.axes()[0]
        f = GridFunction(g1, np.where((x > 0.0) & (x < 1.0), 1.0, 0.0))
        vals = moments(f, 1)
        assert vals[0] == pytest.approx(1.0, rel=1e-12)
        assert vals[1] == pytest.approx(0.5, rel=1e-12)


class TestRefinement:
    def test_q2_keeps_projection(self, d1, g1):
        f = sample(g1, lambda x: np.cos(x))
        ball = d1.ball([0.0], 1)
        poly = minimizing_polynomial(f, d1, ball, 1)
        refined, value = refine_lq(f, d1, ball, 1, 2.0, start=poly)
        assert np.array_equal(refined.coefficients, poly.coefficients)
        assert value == pytest.approx(lq_error(f, d1, ball, poly, 2.0), rel=1e-12)

    def test_q4_improves(self, d1, g1):
        f = sample(g1, lambda x: np.sign(x) * np.abs(x) ** 0.5)
        ball = d1.ball([0.4], 1)
        poly = minimizing_polynomial(f, d1, ball, 1)
        start_err = lq_error(f, d1, ball, poly, 4.0)
        _, refined_err = refine_lq(f, d1, ball, 1, 4.0, start=poly)
        assert refined_err <= start_err + 1e-12

    def test_q1_median_property(self, d1, g1):
        # For s=0 and q=1 the optimum is the lattice median, not the mean.
        f = sample(g1, lambda x: np.where(x > 0.1, 1.0, 0.0))
        ball = d1.ball([0.0], 1)
        poly, err = refine_lq(f, d1, ball, 0, 1.0)
        mask = ball_lattice_mask(g1, d1, ball)
        med = np.median(f.values[mask])
        med_err = np.sum(np.abs(f.values[mask] - med)) * g1.cell_volume
        assert err <= med_err * (1 + 1e-6)

    def test_overflowing_residuals_return(self, d1):
        # sum |r|^6 overflows, so the error is scaled by max |r|, and the
        # line search compares sums of (|r|/m)^6 with m the start's max |r|,
        # so the refinement moves as it does on the unscaled input.
        g = uniform_grid([-8.0], [8.0], 256)
        ball = d1.ball([0.03125], 1)
        small = sample(g, lambda x: np.sin(3.0 * x))
        f = small.with_values(1e160 * small.values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            poly = minimizing_polynomial(f, d1, ball, 1)
            proj_err = lq_error(f, d1, ball, poly, 6.0)
            _, err = refine_lq(f, d1, ball, 1, 6.0, start=poly)
            classic = classic_functional(f, d1, ball, constant_exponent(g, 1.0), 6.0, 1)
        small_poly = minimizing_polynomial(small, d1, ball, 1)
        small_err = lq_error(small, d1, ball, small_poly, 6.0)
        _, small_refined = refine_lq(small, d1, ball, 1, 6.0, start=small_poly)
        assert np.isfinite(proj_err)
        assert proj_err == pytest.approx(1e160 * small_err, rel=1e-12)
        assert err == pytest.approx(1e160 * small_refined, rel=1e-12)
        assert err < proj_err
        assert np.isfinite(classic.projection_value)
        assert classic.refined_value <= classic.projection_value

    @pytest.mark.parametrize("q", [1.5, 2.0, 4.0])
    def test_clipped_ball_on_its_one_row(self, q):
        # Balls the box clips: the projection's residual, lq_error and the
        # refinement all read the ball's one row, zeros where it is clipped,
        # so at q = 2 the refined value is the projection's, bit for bit.
        d = new_dilation([[2.0, 0.0], [0.0, 3.0]])
        g = uniform_grid([-5.0, -5.0], [5.0, 5.0], (48, 48))
        f = sample(g, lambda x, y: np.sin(1.1 * x + 0.3) * np.cos(0.9 * y) + 0.2 * x * y)
        p = constant_exponent(g, 1.5)
        for idx, scale in [((0, 0), 0), ((1, 47), 1), ((47, 20), 1), ((3, 2), 2), ((24, 24), 2)]:
            ball = d.ball(g.points()[np.ravel_multi_index(idx, g.resolution)], scale)
            row, inside, _ = ball_row(g, d, ball)
            assert not inside.all()
            poly, resid = _project(f, d, ball, 1)
            want = np.abs(f.values.ravel()[row] - _on_footprint(f, d, ball, poly)) * inside
            assert np.array_equal(resid, want)
            _assert_near_global(resid, f, ball, poly, row, inside)
            assert lq_norm(resid, q, g.cell_volume) == lq_error(f, d, ball, poly, q)
            classic = classic_functional(f, d, ball, p, q, 1)
            assert classic.refined_value <= classic.projection_value
            if q == 2.0:
                assert classic.refined_value == classic.projection_value

    @pytest.mark.parametrize("q", [1.0, 1.5, 4.0])
    def test_polynomial_on_the_ball(self, d2, q):
        g = uniform_grid([-4.0, -4.0], [4.0, 4.0], (48, 48))
        f = sample(g, lambda x, y: 1.0 - 2.0 * x + 0.5 * x * y + y**2)
        _, err = refine_lq(f, d2, d2.ball([0.3, -0.2], 1), 2, q)
        assert err <= 1e-10


def _brent_refine_lq(f, d, ball, s, q, start):
    """The error value of the coordinate descent refine_lq replaced, kept as
    the reference: up to 20 sweeps of a Brent line search over each
    coefficient in turn."""
    idx, inside, design = _ball_design(f, d, ball, s)
    fvals = f.values.ravel()[idx] * inside
    coef = start.coefficients.copy()

    def objective(c):
        return float(np.sum(np.abs(fvals - design @ c) ** q) * f.grid.cell_volume)

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
    return best ** (1.0 / q)


# Grids whose balls at the drawn scales hold enough lattice points for s <= 2.
_REFINE_CASES = {
    "[2]": (new_dilation([[2.0]]), uniform_grid([-8.0], [8.0], 1024), (-1, 3)),
    "diag(2,3)": (new_dilation([[2.0, 0.0], [0.0, 3.0]]), uniform_grid([-4.0, -4.0], [4.0, 4.0], (48, 48)), (0, 2)),
    "shear": (new_dilation([[2.0, 1.0], [0.0, 2.0]]), uniform_grid([-4.0, -4.0], [4.0, 4.0], (48, 48)), (0, 2)),
}

_FAMILIES = {
    "wave": lambda x, a, c: np.sin(a * x[0] + c) + 0.3 * x[-1] ** 2,
    "bump": lambda x, a, c: np.exp(-a * sum((xi - c) ** 2 for xi in x)) * (1.0 + x[0]) ** 3,
    "jump": lambda x, a, c: np.where(x[0] + 0.5 * x[-1] > c, 1.0, 0.0) + 0.2 * a * x[0],
}


class TestRefinementAgainstReference:
    @settings(max_examples=60)
    @given(
        case=st.sampled_from(sorted(_REFINE_CASES)),
        family=st.sampled_from(sorted(_FAMILIES)),
        s=st.integers(0, 2),
        q=st.sampled_from([1.0, 1.25, 1.5, 3.0, 4.0, 6.0]),
        a=st.floats(0.5, 3.0),
        c=st.floats(-0.5, 0.5),
        data=st.data(),
    )
    def test_never_above_projection_or_reference(self, case, family, s, q, a, c, data):
        d, g, (k_lo, k_hi) = _REFINE_CASES[case]
        f = GridFunction(g, _FAMILIES[family](g.meshes(), a, c))
        center = [data.draw(st.floats(-1.0, 1.0)) for _ in range(g.n)]
        ball = d.ball(center, data.draw(st.integers(k_lo, k_hi)))
        start = minimizing_polynomial(f, d, ball, s)
        poly, err = refine_lq(f, d, ball, s, q, start=start)
        assert err <= lq_error(f, d, ball, start, q)
        assert err <= _brent_refine_lq(f, d, ball, s, q, start) * (1.0 + 1e-6)
        assert err == pytest.approx(lq_error(f, d, ball, poly, q), rel=1e-12)


class TestProjectionResidual:
    @settings(max_examples=60)
    @given(
        case=st.sampled_from(sorted(_REFINE_CASES)),
        family=st.sampled_from(sorted(_FAMILIES)),
        s=st.integers(0, 2),
        q=st.sampled_from([1.0, 1.5, 2.0, 6.0]),
        a=st.floats(0.5, 3.0),
        c=st.floats(-0.5, 0.5),
        data=st.data(),
    )
    def test_residual_is_lq_errors(self, case, family, s, q, a, c, data):
        """The residual a projection returns is, bitwise, the one lq_error
        takes from the polynomial, and so gives the same L^q error."""
        d, g, (k_lo, k_hi) = _REFINE_CASES[case]
        f = GridFunction(g, _FAMILIES[family](g.meshes(), a, c))
        center = [data.draw(st.floats(-1.0, 1.0)) for _ in range(g.n)]
        ball = d.ball(center, data.draw(st.integers(k_lo, k_hi)))
        poly, resid = _project(f, d, ball, s)
        assert np.array_equal(poly.coefficients, minimizing_polynomial(f, d, ball, s).coefficients)
        row, inside, _ = ball_row(g, d, ball)
        assert np.array_equal(row[inside], ball_support(g, d, ball))
        assert np.array_equal(resid, np.abs(f.values.ravel()[row] - _on_footprint(f, d, ball, poly)) * inside)
        _assert_near_global(resid, f, ball, poly, row, inside)
        assert lq_norm(resid, q, g.cell_volume) == lq_error(f, d, ball, poly, q)

    @pytest.mark.parametrize("case", sorted(_REFINE_CASES))
    def test_lq_error_of_another_balls_polynomial(self, case):
        # A polynomial of another centre and scale is read in its own
        # coordinates: its error on the ball is the quadrature of f - poly
        # evaluated at the ball's lattice points.
        d, g, (k_lo, k_hi) = _REFINE_CASES[case]
        f = GridFunction(g, _FAMILIES["wave"](g.meshes(), 1.3, 0.2))
        ball = d.ball([0.31] * g.n, k_hi)
        poly = minimizing_polynomial(f, d, d.ball([-0.47] * g.n, k_lo + 1), 2)
        support = ball_support(g, d, ball)
        want = np.sum(np.abs(f.values.ravel()[support] - poly.evaluate(g.points()[support])) ** 1.5 * g.cell_volume) ** (1 / 1.5)
        assert lq_error(f, d, ball, poly, 1.5) == pytest.approx(want, rel=1e-12)
