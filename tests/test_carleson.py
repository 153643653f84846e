import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import memoized, recorded

from anivex import campanato as campanato_module
from anivex import carleson as carleson_module
from anivex import grid as grid_module
from anivex.campanato import config_quotient
from anivex.carleson import (
    _fft_frequencies,
    _fourier_at,
    band_limited_pair,
    build_analyzing_function,
    carleson_from_function,
    carleson_functional,
    carleson_prefix_check,
    carleson_duality_check,
    tent_mass,
    tent_masses,
)
from anivex.dilation import new_dilation
from anivex.exponents import Exponent, constant_exponent, exponent_from_callable, indicator_norm
from anivex.grid import (
    GridFunction,
    ball_footprint,
    ball_support,
    integrate,
    lattice_anchors,
    sample,
    uniform_grid,
)
from anivex.hardy import FiniteAtomicRep, make_atom
from anivex.search import BallConfiguration, candidate_stream, default_scale_window, supremum_search
from anivex.suites import DENSITY_BUDGET, density_homogeneity
from anivex.tent import tent_offset_mask, zero_scale_function


@pytest.fixture(scope="module")
def d1():
    return new_dilation([[2.0]])


@pytest.fixture(scope="module")
def g1():
    return uniform_grid([-8.0], [8.0], 2048)


@pytest.fixture(scope="module")
def p1(g1):
    return constant_exponent(g1, 1.0)


@pytest.fixture(scope="module")
def phi1(d1, g1):
    phi, report = build_analyzing_function(d1, 1, g1)
    assert report.fourier_lower_bound >= 1e-6
    return phi


def test_analyzing_function_loads_no_sympy():
    code = (
        "import sys\n"
        "from anivex.carleson import build_analyzing_function\n"
        "from anivex.dilation import new_dilation\n"
        "from anivex.grid import uniform_grid\n"
        "build_analyzing_function(new_dilation([[2.0]]), 1, uniform_grid([-8.0], [8.0], 512))\n"
        "assert 'sympy' not in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestTentMass:
    def test_zero_density(self, d1, g1):
        mu = zero_scale_function(g1, (-4, 1))
        assert tent_mass(mu, d1, d1.ball([0.0], 1)) == 0.0

    def test_point_mass_inside(self, d1, g1):
        mu = zero_scale_function(g1, (-6, 1))
        center = 1024  # x = 0.0039..., deep inside B_0
        mu.values[0, center] = 4.0 / g1.cell_volume
        mass = tent_mass(mu, d1, d1.ball([0.0], 0))
        assert mass == pytest.approx(4.0, rel=1e-12)

    def test_node_outside_tent_excluded(self, d1, g1):
        mu = zero_scale_function(g1, (0, 1))
        mu.values[1] = 1.0  # scale 1 nodes can never tent inside B_0
        assert tent_mass(mu, d1, d1.ball([0.0], 0)) == 0.0

    def test_monotone_in_density(self, d1, g1):
        rng = np.random.default_rng(1)
        mu = zero_scale_function(g1, (-4, 0))
        mu.values[:] = rng.uniform(size=mu.values.shape)
        bigger = mu.with_values(mu.values + 0.5)
        ball = d1.ball([0.5], 2)
        assert tent_mass(mu, d1, ball) <= tent_mass(bigger, d1, ball)


def _walked_tent(grid, d, ball, ell):
    """(cells, in_box): the ball's scale-ell tent cells as multi-indices in
    C order, walking the footprint of its (scale, shift) from its anchor and
    keeping the offsets the unpasted tent_offset_mask puts in the tent, and
    which of them lie in the box."""
    [anchor], [shift] = lattice_anchors(grid, [ball.center])
    footprint = ball_footprint(d, grid, ball.scale, shift)
    stamp = tent_offset_mask(d, grid, ell, ball.scale, shift)
    offsets = np.argwhere(footprint) - np.array(footprint.shape) // 2
    at = offsets + np.array(stamp.shape) // 2
    on_stamp = ((at >= 0) & (at < stamp.shape)).all(axis=1)
    cells = anchor + offsets[on_stamp][stamp[tuple(at[on_stamp].T)]]
    return cells, ((cells >= 0) & (cells < grid.resolution)).all(axis=1)


def _pasted_tent_mass(mu, d, ball):
    """The tent mass by its definition, the reference for tent_masses: per
    scale, one np.sum of mu over the ball's _walked_tent cells, with mu 0.0
    where a cell leaves the box."""
    total = 0.0
    for ell in mu.scales():
        cells, in_box = _walked_tent(mu.grid, d, ball, ell)
        kept = np.zeros(len(cells))
        kept[in_box] = mu.layer(ell)[tuple(cells[in_box].T)]
        total += float(np.sum(kept))
    return total * mu.grid.cell_volume


# (dilation, grid, density window) for the stacked tent masses.
_MASS_CASES = {
    "A=[2]": (new_dilation([[2.0]]), uniform_grid([-8.0], [8.0], 512), (-5, 1)),
    "shear": (new_dilation([[2.0, 1.0], [0.0, 2.0]]), uniform_grid([-4.0, -4.0], [4.0, 4.0], 24), (-3, 1)),
}


def _holed_density(grid, window, seed):
    """Positive values with exact zeros: scattered holes, one empty scale."""
    rng = np.random.default_rng(seed)
    mu = zero_scale_function(grid, window)
    mu.values[:] = rng.uniform(0.1, 1.0, size=mu.values.shape)
    mu.values[rng.random(mu.values.shape) < 0.02] = 0.0
    mu.values[1] = 0.0
    return mu


class TestTentMasses:
    @given(case=st.sampled_from(sorted(_MASS_CASES)), data=st.data())
    def test_equals_tent_mass_bitwise(self, case, data):
        d, g, window = _MASS_CASES[case]
        mu = _holed_density(g, window, data.draw(st.integers(0, 3)))
        k_lo, k_hi = default_scale_window(d, g, min_points=1)
        cells = st.tuples(*(st.one_of(st.sampled_from([0, 1, r - 1]), st.integers(0, r - 1)) for r in g.resolution))
        balls = []
        for idx, scale in data.draw(st.lists(st.tuples(cells, st.integers(k_lo, k_hi)), max_size=30)):
            balls.append(d.ball([ax[i] for ax, i in zip(g.axes(), idx)], scale))
        if data.draw(st.booleans()):  # an off-lattice centre
            balls.append(d.ball([0.3 * h for h in g.spacing], data.draw(st.integers(k_lo, k_hi))))
        balls += balls[: data.draw(st.integers(0, 3))]  # repeats
        want = [tent_mass(mu, d, ball) for ball in balls]
        with pytest.MonkeyPatch.context() as mp:
            # Small stacks, so groups split into several chunks.
            mp.setattr(grid_module, "_STACK_ENTRIES", data.draw(st.sampled_from([64, 1 << 12])))
            assert tent_masses(mu, d, balls) == want
        assert want == [_pasted_tent_mass(mu, d, ball) for ball in balls]

    @pytest.mark.parametrize("case", sorted(_MASS_CASES))
    def test_every_ball_takes_the_stacked_path(self, case, monkeypatch):
        d, g, window = _MASS_CASES[case]
        mu = _holed_density(g, window, 5)
        k_lo, k_hi = default_scale_window(d, g, min_points=1)
        stream = candidate_stream(d, g, 400, 1, (k_lo, k_hi))
        balls = [ball for config in stream if config is not None for ball in config.balls()]
        balls.append(d.ball([0.3 * h for h in g.spacing], k_hi))
        balls.append(d.ball([ax[0] for ax in g.axes()], k_hi))  # at the box's corner
        balls.append(d.ball([u + 0.7 * h for u, h in zip(g.upper, g.spacing)], k_lo))  # beyond the box
        shifts = lattice_anchors(g, [ball.center for ball in balls])[1]
        lattice = [ball for ball, shift in zip(balls, shifts) if not shift.any()]
        assert len(lattice) < len(balls)  # an off-lattice ball
        assert any(ball_support(g, d, ball).size < np.count_nonzero(ball_footprint(d, g, ball.scale)) for ball in lattice)
        support_values = [mu.values.reshape(len(mu.values), -1)[0, ball_support(g, d, ball)] for ball in balls]
        assert any(0 < np.count_nonzero(values) < values.size for values in support_values)  # holed balls

        def alone(mu, d, ball):
            raise AssertionError(f"tent_masses took the one-ball path for {ball}")

        monkeypatch.setattr(carleson_module, "tent_mass", alone)
        got = tent_masses(mu, d, balls)
        monkeypatch.undo()
        assert got == [_pasted_tent_mass(mu, d, ball) for ball in balls]

    def test_empty_list(self, d1, g1):
        assert tent_masses(zero_scale_function(g1, (-2, 0)), d1, []) == []

    @settings(max_examples=40)
    @given(case=st.sampled_from(sorted(_MASS_CASES)), data=st.data())
    def test_walked_tent_equals_the_exact_test(self, case, data):
        # The walk's cells in the box are the ball's lattice points that the
        # exact test, on offsets from the centre itself, puts in the tent.
        d, g, window = _MASS_CASES[case]
        k_lo, k_hi = default_scale_window(d, g, min_points=1)
        centre = [data.draw(st.floats(lo - 1.0, hi + 1.0)) for lo, hi in zip(g.lower, g.upper)]
        ball = d.ball(centre, data.draw(st.integers(k_lo, k_hi)))
        support = ball_support(g, d, ball)
        for ell in range(window[0], window[1] + 1):
            cells, in_box = _walked_tent(g, d, ball, ell)
            exact = support[d.closed_containment(ell, ball.scale, g.points()[support] - ball.center)]
            assert np.array_equal(np.sort(np.ravel_multi_index(cells[in_box].T, g.resolution)), exact)

    def test_ball_missing_the_lattice_has_zero_mass(self, d1, g1):
        mu = zero_scale_function(g1, (-2, 0))
        mu.values[:] = 1.0
        # Far off the box the anchored footprint is empty; just beyond its
        # edge it is not, but every cell of it lies outside the box.
        far, beyond = d1.ball([100.0], -8), d1.ball([8.5], 0)
        shifts = lattice_anchors(g1, [far.center, beyond.center])[1]
        assert not ball_footprint(d1, g1, far.scale, shifts[0]).any()
        assert ball_footprint(d1, g1, beyond.scale, shifts[1]).any()
        assert tent_mass(mu, d1, far) == tent_mass(mu, d1, beyond) == 0.0
        assert tent_masses(mu, d1, [beyond, d1.ball([0.0], 0)])[0] == 0.0


class TestCarlesonFunctional:
    def test_zero(self, d1, g1, p1):
        mu = zero_scale_function(g1, (-4, 1))
        res = carleson_functional(mu, p1, d1, eta=1.0, budget=40, seed=0)
        assert res.value == 0.0

    def test_single_ball_algebraic_reduction(self, d1, g1, p1):
        from anivex.campanato import aggregate_norm

        mu = zero_scale_function(g1, (-6, 1))
        mu.values[0, 1024] = 4.0 / g1.cell_volume
        ball = d1.ball([0.0], 0)
        cfg = BallConfiguration([(ball, 0.6)])
        term = (
            np.sqrt(d1.ball_volume(ball))
            / indicator_norm(d1, ball, p1)
            * np.sqrt(tent_mass(mu, d1, ball))
        )
        quotient = 0.6 * term / aggregate_norm(cfg, p1, 1.0, d1)
        assert quotient == pytest.approx(term, rel=1e-10)
        assert term == pytest.approx(2.0, rel=1e-9)

    def test_functional_monotone_in_mu(self, d1, p1):
        g = uniform_grid([-8.0], [8.0], 512)
        p = constant_exponent(g, 1.0)
        rng = np.random.default_rng(3)
        mu = zero_scale_function(g, (-3, 0))
        mu.values[:] = rng.uniform(size=mu.values.shape)
        bigger = mu.with_values(mu.values * 1.7)
        lo = carleson_functional(mu, p, d1, eta=1.0, budget=50, seed=2)
        hi = carleson_functional(bigger, p, d1, eta=1.0, budget=50, seed=2)
        assert lo.value <= hi.value + 1e-12

    @pytest.mark.parametrize("case", sorted(_MASS_CASES))
    @pytest.mark.parametrize("past", [-1, 1, 9])
    def test_stacked_scores_match_one_ball_at_a_time(self, case, past, monkeypatch):
        # Budget half the sweep (past = -1), one past it, and nine past it.
        monkeypatch.setattr(grid_module, "_STACK_ENTRIES", 256)
        d, g, window = _MASS_CASES[case]
        mu = _holed_density(g, window, 7)
        p = exponent_from_callable(g, lambda x, *y: 0.7 + 0.25 * np.sin(x) ** 2)
        scales = default_scale_window(d, g, min_points=1)
        sweep = (scales[1] - scales[0] + 1) * 16**g.n
        budget = sweep // 2 if past < 0 else sweep + past
        stacked, reference = [], []
        search = campanato_module.supremum_search
        monkeypatch.setattr(
            campanato_module, "supremum_search", lambda value, *args: search(recorded(value, stacked), *args)
        )
        got = carleson_functional(mu, p, d, eta=1.0, budget=budget, seed=3)
        fresh = Exponent(p.values, p.p_infinity)
        # The reference scores each ball by itself: its tent_mass and its
        # indicator_norm on a fresh cache.
        term = memoized(
            lambda ball: np.sqrt(d.ball_volume(ball)) / indicator_norm(d, ball, fresh) * np.sqrt(tent_mass(mu, d, ball))
        )
        ref = supremum_search(
            recorded(partial(config_quotient, term=term, p=fresh, eta=1.0, d=d), reference),
            candidate_stream(d, g, budget, 3, scales),
        )
        assert stacked == reference  # every candidate's value or skip, in order
        assert got.value > 0.0
        assert (got.value, got.evaluations, got.candidates_seen) == (ref.value, ref.evaluations, ref.candidates_seen)
        assert [(b.key(), w) for b, w in got.config.entries] == [(b.key(), w) for b, w in ref.config.entries]

    def test_prefix_agreement(self, d1, p1, g1):
        mu = zero_scale_function(g1, (-4, 0))
        mu.values[1, 900:1100] = 0.3
        entries = [
            (d1.ball([((j * 29) % 40 - 20) / 4.0], j % 2), 0.7**j) for j in range(60)
        ]
        values, converged, tail = carleson_prefix_check(mu, entries, p1, d1, eta=1.0)
        assert converged
        assert np.all(np.isfinite(values))


class TestAnalyzingFunction:
    def test_moments_vanish(self, d1, g1):
        for s in (0, 1, 2):
            phi, report = build_analyzing_function(d1, s, g1)
            assert np.max(np.abs(report.moments)) < 1e-10
            assert abs(integrate(phi)) < 1e-10

    def test_support_inside_unit_ball(self, d1, g1, phi1):
        pts = phi1.grid.points()
        hit = pts[np.abs(phi1.values.ravel()) > 0]
        assert np.all(d1.form_values(hit, 0) < d1.level_c)

    def test_fourier_bound_positive(self, d1, g1):
        phi, report = build_analyzing_function(d1, 1, g1)
        assert report.fourier_lower_bound >= 1e-6
        lo, hi = report.annulus
        assert lo == pytest.approx(1.0 / (2.0 * 2.0))  # Frobenius norm of [2]
        assert hi == 1.0

    def test_2d_moments(self):
        d2 = new_dilation([[2.0, 0.0], [0.0, 3.0]])
        g2 = uniform_grid([-4.0, -4.0], [4.0, 4.0], (128, 128))
        phi, report = build_analyzing_function(d2, 1, g2)
        assert np.max(np.abs(report.moments)) < 1e-10


def _dense_fourier_at(phi, freqs):
    """Reference transform: the full (kernel points x frequencies) matrix of
    exp(-2 pi i x . xi)."""
    phase = np.exp(-2j * np.pi * (phi.grid.points() @ np.atleast_2d(freqs).T))
    return phase.T @ phi.values.ravel() * phi.grid.cell_volume


def _scaled_fft_frequencies(d, grid, window):
    """The grid's FFT frequencies dilated by (A^T)^l for every l in the window."""
    freqs = _fft_frequencies(grid)
    return np.concatenate(
        [freqs @ np.linalg.matrix_power(d.matrix.T, ell).T for ell in range(window[0], window[1] + 1)]
    )


class TestFourierHorner:
    def _assert_matches_dense(self, phi, freqs):
        scale = float(np.sum(np.abs(phi.values))) * phi.grid.cell_volume
        err = np.max(np.abs(_fourier_at(phi, freqs) - _dense_fourier_at(phi, freqs)))
        assert err <= 1e-12 * scale

    def test_1d_fft_and_annulus_frequencies(self, d1):
        grid = uniform_grid([-8.0], [8.0], 4096)
        phi, report = build_analyzing_function(d1, 1, grid)
        assert phi.values.shape == (233,)
        self._assert_matches_dense(phi, _scaled_fft_frequencies(d1, grid, (-4, 2)))
        rng = np.random.default_rng(5)
        xi = rng.uniform(-1.0, 1.0, size=(4096, 1)) * d1.ball_bounding_halfwidths(1)
        rho = d1.step_quasi_norm_many(xi)
        annulus = xi[(rho >= report.annulus[0]) & (rho <= report.annulus[1])][:64]
        assert len(annulus) == 64
        self._assert_matches_dense(phi, annulus)

    def test_2d_shear_fft_frequencies(self):
        d = new_dilation([[2.0, 1.0], [0.0, 2.0]])
        grid = uniform_grid([-4.0, -4.0], [4.0, 4.0], 128)
        phi, _ = build_analyzing_function(d, 1, grid)
        assert phi.values.shape == (11, 11)
        self._assert_matches_dense(phi, _scaled_fft_frequencies(d, grid, (-2, 1)))

    def test_2d_asymmetric_kernel(self):
        # Unequal axes and spacings tell the axes apart, which the
        # symmetric tensor-product kernels cannot.
        rng = np.random.default_rng(3)
        grid = uniform_grid([-0.6, -1.1], [0.4, 2.0], (5, 9))
        phi = GridFunction(grid, rng.normal(size=grid.resolution))
        self._assert_matches_dense(phi, rng.normal(scale=4.0, size=(200, 2)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_single_point_kernel_is_exact(self, n):
        # Horner adds only zeros to the first coefficient, so what is left
        # is the base phase.  Dyadic points and frequencies make x . xi
        # exact, so the phase is the dense form's to the last bit.
        grid = uniform_grid([-0.5] * n, [0.5] * n, 4)
        values = np.zeros(grid.resolution)
        values[(0,) * n] = 1.7
        phi = GridFunction(grid, values)
        freqs = np.random.default_rng(n).integers(-64, 64, size=(50, n)) / 8.0
        assert np.array_equal(_fourier_at(phi, freqs), _dense_fourier_at(phi, freqs))


class TestCarlesonFromFunction:
    def test_zero_function(self, d1, g1, phi1):
        b = GridFunction(g1, np.zeros(g1.resolution))
        mu = carleson_from_function(b, phi1, d1, (-4, 2))
        assert np.all(mu.values == 0.0)

    def test_polynomial_annihilated(self, d1, g1, phi1):
        from anivex.grid import boundary_margin

        b = sample(g1, lambda x: 0.3 * x - 1.2)
        mu = carleson_from_function(b, phi1, d1, (-4, 2), moment_cancel=1)
        # Zero extension truncates the polynomial at the box edge; away from
        # the kernel-width margin the density vanishes identically.
        interior = boundary_margin(g1, 2.0).values > 0
        assert np.max(mu.values[:, interior]) < 1e-10

    def test_atom_density_localized(self, d1, g1, p1, phi1):
        atom = make_atom(sample(g1, lambda x: x), d1, d1.ball([0.0], 0), 2.0, p1, 0)
        mu = carleson_from_function(atom.values, phi1, d1, (-6, 4), moment_cancel=1)
        per_scale = mu.values.reshape(mu.values.shape[0], -1).sum(axis=1)
        assert per_scale.sum() > 0
        peak_scale = np.arange(-6, 5)[np.argmax(per_scale)]
        assert -4 <= peak_scale <= 2

    def test_homogeneity(self, d1, g1, p1, phi1):
        b = sample(g1, lambda x: np.exp(-(x**2)) * np.sin(2 * x))
        mu1 = carleson_from_function(b, phi1, d1, (-4, 2), moment_cancel=1)
        mu3 = carleson_from_function(
            b.with_values(3.0 * b.values), phi1, d1, (-4, 2), moment_cancel=1
        )
        assert np.allclose(mu3.values, 9.0 * mu1.values, rtol=1e-8, atol=1e-12)
        res1 = carleson_functional(mu1, p1, d1, eta=1.0, budget=40, seed=4)
        res3 = carleson_functional(mu3, p1, d1, eta=1.0, budget=40, seed=4)
        assert res3.value == pytest.approx(3.0 * res1.value, rel=1e-8)


class TestDualityCheck:
    def test_symmetric_zero_pairing(self, d1, g1, p1, phi1):
        atom = make_atom(sample(g1, lambda x: x), d1, d1.ball([0.0], 0), 2.0, p1, 0)
        rep = FiniteAtomicRep([(1.0, atom)])
        b = sample(g1, lambda x: np.exp(-(x**2)))  # even; atom odd
        report = carleson_duality_check(rep, b, phi1, d1, p1, (-6, 3), moment_cancel=1)
        assert abs(report.pairing) <= 1e-8
        assert report.passed

    def test_polynomial_b_kills_phi_side(self, d1, g1, p1, phi1):
        atom = make_atom(sample(g1, lambda x: x), d1, d1.ball([0.0], 0), 2.0, p1, 0)
        rep = FiniteAtomicRep([(1.0, atom)])
        b = sample(g1, lambda x: 0.5 * x + 0.1)
        report = carleson_duality_check(rep, b, phi1, d1, p1, (-6, 3), moment_cancel=1)
        # Vanishing moments kill the polynomial wherever the kernel window
        # stays inside the box; only zero-extension edge effects survive.
        assert report.phi_side_interior_max <= 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_band_limited_pair_chain(self, d1, g1, p1, phi1, seed):
        f_fn, b = band_limited_pair(g1, seed=seed, correlated=True)
        atom = make_atom(f_fn, d1, d1.ball([0.0], 3), 2.0, p1, 0)
        rep = FiniteAtomicRep([(1.0, atom)])
        report = carleson_duality_check(rep, b, phi1, d1, p1, (-5, 4), moment_cancel=1)
        assert report.passed
        assert report.defect <= 0.05
        assert report.defect_normalized <= 0.05
        assert report.fubini_ratio_range[0] > 0.5
        assert report.fubini_ratio_range[1] < 2.0

    def test_2d_shear_chain(self):
        d = new_dilation([[2.0, 1.0], [0.0, 2.0]])
        grid = uniform_grid([-4.0, -4.0], [4.0, 4.0], 64)
        p = constant_exponent(grid, 1.0)
        phi, _ = build_analyzing_function(d, 1, grid)
        f_fn, b = band_limited_pair(grid, seed=1, correlated=True)
        atom = make_atom(f_fn, d, d.ball([0.0, 0.0], 2), 2.0, p, 0)
        report = carleson_duality_check(
            FiniteAtomicRep([(1.0, atom)]), b, phi, d, p, (-2, 1), moment_cancel=1
        )
        assert report.passed
        fields = [getattr(report, name) for name in report.__dataclass_fields__]
        assert np.all(np.isfinite(np.hstack(fields)))


class TestDensityHomogeneity:
    def test_zero_value_fails(self, d1, g1, p1):
        # A density without tent mass gives 0 and 0, which must not count as
        # a homogeneity witness.
        mu = zero_scale_function(g1, (-4, 2))
        result = density_homogeneity(mu, mu, p1, d1)
        assert result.residual == 0.0
        assert not result.passed

    def test_suite_budget_reaches_tent_mass(self, d1, g1, p1, phi1):
        b = sample(g1, lambda t: np.exp(-(t**2)) * np.sin(2 * t))
        mu1 = carleson_from_function(b, phi1, d1, (-4, 2), moment_cancel=1)
        mu3 = carleson_from_function(b.with_values(3.0 * b.values), phi1, d1, (-4, 2), moment_cancel=1)
        assert carleson_functional(mu1, p1, d1, eta=1.0, budget=DENSITY_BUDGET, seed=4).value > 0.0
        assert density_homogeneity(mu1, mu3, p1, d1).passed
