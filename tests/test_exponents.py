from functools import cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anivex.dilation import new_dilation
from anivex.errors import NotConjugable
from anivex.exponents import (
    Exponent,
    _luxemburg,
    check_log_holder,
    conjugate,
    constant_exponent,
    exponent_from_callable,
    indicator_norm,
    luxemburg_norm,
    modular,
)
from anivex.grid import GridFunction, ball_lattice_mask, uniform_grid


def indicator(grid, d, ball):
    """1_B on the lattice: the mask of the ball's lattice support."""
    return GridFunction(grid, ball_lattice_mask(grid, d, ball).astype(float))


@pytest.fixture(scope="module")
def g1():
    return uniform_grid([-8.0], [8.0], 4096)


@pytest.fixture(scope="module")
def d1():
    return new_dilation([[2.0]])


def unit_indicator(grid, value=1.0):
    x = grid.axes()[0]
    return GridFunction(grid, np.where((x > 0.0) & (x < 1.0), value, 0.0))


class TestModular:
    def test_indicator_any_exponent(self, g1):
        f = unit_indicator(g1)
        for q in (0.5, 1.0, 2.0, 3.7):
            assert modular(f, constant_exponent(g1, q)) == pytest.approx(1.0, rel=1e-12)

    def test_scaled_indicator(self, g1):
        f = unit_indicator(g1, 2.0)
        assert modular(f, constant_exponent(g1, 2.0)) == pytest.approx(4.0, rel=1e-12)

    def test_zero(self, g1):
        f = GridFunction(g1, np.zeros(g1.resolution))
        assert modular(f, constant_exponent(g1, 1.3)) == 0.0


class TestLuxemburg:
    def test_classical_l2(self, g1):
        f = unit_indicator(g1)
        assert luxemburg_norm(f, constant_exponent(g1, 2.0)) == pytest.approx(1.0, rel=1e-10)

    def test_piecewise_closed_form(self):
        g = uniform_grid([0.0], [1.0], 4096)
        x = g.axes()[0]
        p = Exponent(GridFunction(g, np.where(x < 0.5, 1.0, 2.0)))
        f = GridFunction(g, np.full(g.resolution, 2.0))
        # modular(f/lam) = 1/lam + 2/lam^2 = 1 has root lam = 2.
        assert luxemburg_norm(f, p) == pytest.approx(2.0, rel=1e-8)

    def test_zero_function(self, g1):
        f = GridFunction(g1, np.zeros(g1.resolution))
        assert luxemburg_norm(f, constant_exponent(g1, 1.7)) == 0.0

    def test_constant_exponent_oracle(self, g1):
        rng = np.random.default_rng(42)
        for q in (1.0, 1.5, 2.0, 4.0):
            p = constant_exponent(g1, q)
            for _ in range(20):
                f = GridFunction(g1, rng.normal(size=g1.resolution))
                classical = (np.sum(np.abs(f.values) ** q) * g1.cell_volume) ** (1.0 / q)
                assert luxemburg_norm(f, p) == pytest.approx(classical, rel=1e-8)

    def test_homogeneity(self, g1):
        rng = np.random.default_rng(9)
        p = exponent_from_callable(g1, lambda x: 1.5 + 0.5 * np.sin(x) ** 2)
        f = GridFunction(g1, rng.normal(size=g1.resolution))
        base = luxemburg_norm(f, p)
        for c in (0.25, 3.0, 17.5):
            assert luxemburg_norm(f.with_values(c * f.values), p) == pytest.approx(
                c * base, rel=1e-8
            )

    def test_monotone_in_function(self, g1):
        rng = np.random.default_rng(10)
        p = exponent_from_callable(g1, lambda x: 1.0 + 0.75 * np.cos(x) ** 2)
        for _ in range(5):
            f = np.abs(rng.normal(size=g1.resolution))
            g = f + np.abs(rng.normal(size=g1.resolution))
            nf = luxemburg_norm(GridFunction(g1, f), p)
            ng = luxemburg_norm(GridFunction(g1, g), p)
            assert nf <= ng * (1 + 1e-10)

    def test_unit_modular(self, g1):
        rng = np.random.default_rng(11)
        p = exponent_from_callable(g1, lambda x: 0.8 + 0.6 / (1.0 + x**2))
        for _ in range(5):
            f = GridFunction(g1, rng.normal(size=g1.resolution))
            norm = luxemburg_norm(f, p)
            val = modular(f.with_values(f.values / norm), p)
            assert 1.0 - 1e-6 <= val <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3), q=st.floats(min_value=0.5, max_value=4.0))
    def test_indicator_scaling_property(self, scale, q):
        g = uniform_grid([0.0], [1.0], 256)
        p = constant_exponent(g, q)
        f = GridFunction(g, np.full(g.resolution, scale))
        assert luxemburg_norm(f, p) == pytest.approx(scale, rel=1e-9)


def _bisection_luxemburg(f, p):
    """Reference: exponential bracketing, then bisection to 1e-15 of the
    upper end, over the full array with the formula modular() uses."""
    a = np.abs(f.values)
    pv = p.values.values
    cv = f.grid.cell_volume

    def mod(lam):
        with np.errstate(over="ignore", divide="ignore"):
            return float(np.sum((a / lam) ** pv) * cv)

    lo = hi = float(a.max())
    while mod(lo) <= 1.0:
        lo /= 2.0
    while mod(hi) > 1.0:
        hi *= 2.0
    for _ in range(400):
        if hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        if mod(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def _solver_case(ndim, kind, p_lo, p_hi, log_amp, support, seed):
    """A grid, an exponent of the given kind with values in [p_lo, p_hi],
    and a function of magnitude about 10**log_amp on the given support."""
    g = uniform_grid([-8.0], [8.0], 512) if ndim == 1 else uniform_grid([-4.0, 0.0], [4.0, 6.0], (24, 20))
    rng = np.random.default_rng(seed)
    x = g.meshes()[0]
    if kind == "constant":
        pv = np.full(g.resolution, p_lo)
    elif kind == "smooth":
        pv = p_lo + (p_hi - p_lo) * np.sin(x + sum(g.meshes()[1:])) ** 2
    else:  # a jump across x = 0.3
        pv = np.where(x < 0.3, p_lo, p_hi)
    vals = 10.0**log_amp * rng.normal(size=g.resolution) * 10.0 ** rng.uniform(-3, 3, size=g.resolution)
    if support == "single":
        keep = np.zeros(vals.size, dtype=bool)
        keep[rng.integers(vals.size)] = True
        vals = np.where(keep.reshape(g.resolution), vals, 0.0)
    elif support == "sparse":
        vals = np.where(rng.random(g.resolution) < 0.05, vals, 0.0)
    return GridFunction(g, vals), Exponent(GridFunction(g, pv))


class TestNewtonSolver:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        ndim=st.sampled_from((1, 2)),
        kind=st.sampled_from(("constant", "smooth", "jump")),
        p_pair=st.tuples(st.floats(0.3, 8.0), st.floats(0.3, 8.0)).map(sorted),
        log_amp=st.floats(-100.0, 100.0),
        support=st.sampled_from(("full", "sparse", "single")),
        seed=st.integers(0, 2**16),
    )
    @example(ndim=1, kind="jump", p_pair=[0.3, 8.0], log_amp=100.0, support="full", seed=1)
    @example(ndim=2, kind="smooth", p_pair=[0.3, 8.0], log_amp=-100.0, support="single", seed=2)
    def test_unit_modular_bracket_and_reference(self, ndim, kind, p_pair, log_amp, support, seed):
        f, p = _solver_case(ndim, kind, *p_pair, log_amp, support, seed)
        norm = luxemburg_norm(f, p)
        assert modular(f.with_values(f.values / norm), p) <= 1.0
        assert modular(f.with_values(f.values / (norm * (1.0 - 1e-12))), p) > 1.0
        ref = _bisection_luxemburg(f, p)
        assert abs(norm - ref) <= 1e-11 * ref

    def test_constant_exponent_closed_form(self, g1):
        rng = np.random.default_rng(12)
        for q in (0.3, 0.7, 1.0, 2.5, 8.0):
            p = constant_exponent(g1, q)
            for amp in 10.0 ** rng.uniform(-100.0, 100.0, size=10):
                vals = rng.normal(size=g1.resolution) * 10.0 ** rng.uniform(-2, 2, size=g1.resolution)
                closed = amp * (np.sum(np.abs(vals) ** q) * g1.cell_volume) ** (1.0 / q)
                vals = amp * vals
                assert luxemburg_norm(GridFunction(g1, vals), p) == pytest.approx(closed, rel=1e-14, abs=0)

    def test_diag_indicator_matches_reference(self):
        d = new_dilation([[2.0, 0.0], [0.0, 3.0]])
        g = uniform_grid([-4.0, -4.0], [4.0, 4.0], (64, 64))
        p = exponent_from_callable(g, lambda x, y: 1.2 + 0.8 * np.sin(x) ** 2 + 0.5 * (y > 0.3))
        for center, k in (([0.0, 0.0], 0), ([0.7, -1.1], 1), ([-1.3, 0.4], -1), ([0.0, 0.0], 2)):
            ball = d.ball(center, k)
            got = indicator_norm(d, ball, p)
            ref = _bisection_luxemburg(indicator(g, d, ball), p)
            assert abs(got - ref) <= 1e-11 * ref


class TestStackedRows:
    @settings(max_examples=60)
    @given(rows=st.integers(2, 6), cells=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
    # A stop shared by all rows of the stack, and guard nudges shared by all
    # rows, each change a row of these stacks.
    @example(rows=6, cells=18, seed=13)
    @example(rows=6, cells=60, seed=55)
    @example(rows=6, cells=82, seed=677)
    @example(rows=6, cells=70, seed=1115)
    def test_row_of_a_stack_is_its_own_norm(self, rows, cells, seed):
        # Rows of their own amplitude and exponent range (p below and above
        # 1, some constant) take different numbers of Newton steps and guard
        # nudges; each is still luxemburg_norm of that row alone, bit for bit.
        rng = np.random.default_rng(seed)
        g = uniform_grid([0.0], [1.0], cells)
        a = 10.0 ** rng.uniform(-100, 100, size=(rows, 1)) * 10.0 ** rng.uniform(-3, 3, size=(rows, cells))
        lo = rng.uniform(0.3, 8.0, size=(rows, 1))
        q = lo * (1.0 + rng.choice([0.0, 0.5, 3.0], size=(rows, 1)) * rng.random((rows, cells)))
        stacked = _luxemburg(a, q, g.cell_volume)
        for i in range(rows):
            assert stacked[i] == luxemburg_norm(GridFunction(g, a[i]), Exponent(GridFunction(g, q[i])))


class TestIndicatorNorm:
    def test_constant_exponent(self, d1, g1):
        h = g1.spacing[0]
        for q, k in ((1.0, 0), (2.0, 2)):
            p = constant_exponent(g1, q)
            want = (2.0 ** float(k)) ** (1.0 / q)
            got = indicator_norm(d1, d1.ball([0.0], k), p)
            assert got == pytest.approx(want, abs=2 * h)

    def test_b0_l1_is_exactly_one(self, d1, g1):
        # B_0 = (-1/2, 1/2) holds exactly 256 cells of this grid.
        p = constant_exponent(g1, 1.0)
        assert indicator_norm(d1, d1.ball([0.0], 0), p) == pytest.approx(1.0, rel=1e-11)

    def test_cache_hit(self, d1, g1):
        p = constant_exponent(g1, 1.5)
        ball = d1.ball([0.25], 1)
        first = indicator_norm(d1, ball, p)
        assert indicator_norm(d1, ball, p) == first
        assert len(p._indicator_cache) == 1

    def test_cache_keyed_on_dilation(self):
        # One exponent, two dilations, the same centre and scale: the second
        # norm must not be the first one read back from the cache.
        g = uniform_grid([-4.0, -4.0], [4.0, 4.0], 64)
        diag = new_dilation([[2.0, 0.0], [0.0, 3.0]])
        shear = new_dilation([[2.0, 1.0], [0.0, 2.0]])
        center = [0.0625, 0.0625]
        alone = indicator_norm(shear, shear.ball(center, 1), constant_exponent(g, 1.0))
        assert alone == 3.921875  # 251 cells of volume 1/64

        p = constant_exponent(g, 1.0)
        assert indicator_norm(diag, diag.ball(center, 1), p) == pytest.approx(6.109375, rel=1e-15)
        assert indicator_norm(shear, shear.ball(center, 1), p) == alone

    @settings(max_examples=60)
    @given(
        shear=st.booleans(),
        center=st.tuples(st.floats(-3.5, 3.5), st.floats(-3.5, 3.5)),
        scale=st.integers(-1, 2),
    )
    def test_support_path_keeps_unit_modular(self, shear, center, scale):
        d, g, p = _variable_2d_case(shear)
        ball = d.ball(center, scale)
        ind = indicator(g, d, ball)
        assume(ind.values.any())
        lam = indicator_norm(d, ball, p)
        assert modular(ind.with_values(ind.values / lam), p) <= 1.0
        assert modular(ind.with_values(ind.values / (lam * (1.0 - 1e-12))), p) > 1.0
        assert abs(luxemburg_norm(ind, p) - lam) <= 1e-15 * lam


@cache
def _variable_2d_case(shear):
    """A 2-D dilation, a 48x48 grid, and an exponent ranging over
    [0.6, 2.0] with a jump across y = 0.3."""
    d = new_dilation([[2.0, 1.0], [0.0, 2.0]] if shear else [[2.0, 0.0], [0.0, 3.0]])
    g = uniform_grid([-4.0, -4.0], [4.0, 4.0], 48)
    p = exponent_from_callable(g, lambda x, y: 0.6 + 0.9 * np.sin(x) ** 2 + 0.5 * (y > 0.3))
    return d, g, p


class TestConjugate:
    def test_self_conjugate(self, g1):
        p = constant_exponent(g1, 2.0)
        assert conjugate(p).p_minus == pytest.approx(2.0)

    def test_four_thirds(self, g1):
        p = constant_exponent(g1, 4.0)
        pc = conjugate(p)
        assert pc.p_plus == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_boundary_rejected(self, g1):
        with pytest.raises(NotConjugable):
            conjugate(constant_exponent(g1, 1.0))

    def test_involution(self, g1):
        p = exponent_from_callable(g1, lambda x: 2.0 + np.sin(x) ** 2)
        back = conjugate(conjugate(p))
        assert np.allclose(back.values.values, p.values.values, rtol=1e-12)


class TestLogHolder:
    def test_constant_exponent(self, d1, g1):
        p = constant_exponent(g1, 2.0)
        report = check_log_holder(p, d1, sample_pairs=1000)
        assert report.c_log == 0.0
        assert report.c_infinity == 0.0
        assert not report.unstable

    def test_smooth_exponent_stable(self, d1, g1):
        p = exponent_from_callable(g1, lambda x: 2.0 + np.sin(x) ** 2 / 4.0, p_infinity=2.125)
        r1 = check_log_holder(p, d1, sample_pairs=2000, seed=5)
        r2 = check_log_holder(p, d1, sample_pairs=4000, seed=5)
        assert np.isfinite(r1.c_log) and np.isfinite(r2.c_log)
        assert r2.c_log <= 1.5 * r1.c_log + 1e-9
        assert not r2.unstable

    def test_jump_flags_instability(self, d1, g1):
        p = exponent_from_callable(g1, lambda x: np.where(x < 0.3, 1.0, 2.0))
        report = check_log_holder(p, d1, sample_pairs=4000, seed=6)
        assert report.unstable
        # Constants grow as pairs straddle the jump at shrinking separation.
        shells = report.shell_constants
        keys = sorted(shells)
        assert shells[keys[0]] > shells[keys[-1]]
