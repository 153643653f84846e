import dataclasses
import itertools
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.ndimage import map_coordinates
from scipy.signal import fftconvolve

from conftest import shifted_footprint_sum

from anivex import grid as gr
from anivex.dilation import new_dilation
from anivex.errors import EmptyMask, ScaleTooFine
from anivex.exponents import constant_exponent, indicator_norm
from anivex.grid import (
    Grid,
    GridFunction,
    _fast_len,
    _interpolate_linear,
    ball_footprint,
    ball_lattice_mask,
    ball_support,
    boundary_margin,
    constant,
    convolve_scaled,
    fftconvolve_same,
    footprint_sum,
    integrate,
    kernel_grid,
    lattice_anchors,
    sample,
    scale_stacks,
    scaled_kernel_samples,
    uniform_grid,
)
from anivex.polyproj import multi_indices
from anivex.serialization import load_grid_function, save_grid_function
from anivex.search import _canonical_sweep, _random_config, default_scale_window


@pytest.fixture(scope="module")
def d1():
    return new_dilation([[2.0]])


@pytest.fixture(scope="module")
def g1():
    return uniform_grid([-8.0], [8.0], 4096)


def bump_kernel(spacing, halfwidth, normalize=True):
    kg = kernel_grid(spacing, halfwidth)
    w = 0.999 * halfwidth

    def f(x):
        u = np.clip(x / w, -1.0, 1.0)
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    gf = sample(kg, f)
    if normalize:
        gf = gf.with_values(gf.values / integrate(gf))
    return gf


class TestBumpFamily:
    """psi(u) = exp(-1/(1-u^2)) and its derivatives from the polynomial
    recurrence, checked against closed forms and finite differences."""

    def test_orders_1_and_2_match_closed_forms(self):
        u = np.linspace(-0.999, 0.999, 20001)
        gap = 1.0 - u**2
        psi = np.exp(-1.0 / gap)
        closed = {1: -2.0 * u / gap**2 * psi, 2: (6.0 * u**4 - 2.0) / gap**4 * psi}
        for order, expect in closed.items():
            got = gr._bump_derivative(order)(u)
            # Relative to the peak: order 2 changes sign, where pointwise
            # relative error is meaningless.
            assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))

    def test_order_3_is_derivative_of_order_2(self):
        u = np.linspace(-0.95, 0.95, 2001)
        h = 1e-5
        d2 = gr._bump_derivative(2)
        fd = (d2(u + h) - d2(u - h)) / (2.0 * h)
        got = gr._bump_derivative(3)(u)
        assert np.max(np.abs(got - fd)) <= 1e-6 * np.max(np.abs(got))

    @pytest.mark.parametrize("order", range(7))
    def test_finite_towards_the_edge(self, order):
        edge = 1.0 - np.logspace(-1, -15, 300)
        u = np.concatenate([edge, -edge, [1.0, -1.0, 1.5, -2.0]])
        vals = gr._bump_derivative(order)(u)
        assert np.all(np.isfinite(vals))
        assert np.all(vals[-4:] == 0.0)

    def test_2d_kernel_factorises_with_unit_mass(self):
        spacing = np.array([0.05, 0.1])
        phi = gr.bump_kernel(spacing, 0.6, 0)
        x, y = phi.grid.axes()
        psi = gr._bump_derivative(0)
        assert np.array_equal(phi.values, np.multiply.outer(psi(x / 0.6), psi(y / 0.6)))
        unit = phi.with_values(phi.values / integrate(phi))
        assert integrate(unit) == pytest.approx(1.0, rel=1e-14)
        assert phi.grid.key() == kernel_grid(spacing, 0.6).key()

    def test_maximal_bump_equals_reference_bump_in_1d(self, g1):
        from anivex.hardy import maximal_bump

        ref = bump_kernel(g1.spacing, 0.5)
        got = maximal_bump(g1.spacing, 0.5)
        assert got.grid.key() == ref.grid.key()
        assert np.array_equal(got.values, ref.values)


class TestIntegrate:
    def test_constant(self, g1):
        assert integrate(constant(g1, 1.0)) == pytest.approx(16.0, rel=1e-14)

    def test_zero(self, g1):
        assert integrate(constant(g1, 0.0)) == 0.0

    def test_quadratic(self):
        g = uniform_grid([0.0], [1.0], 1024)
        f = sample(g, lambda x: x**2)
        assert integrate(f) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_linearity_and_monotonicity(self, g1):
        rng = np.random.default_rng(3)
        a = GridFunction(g1, rng.normal(size=g1.resolution))
        b = GridFunction(g1, rng.normal(size=g1.resolution))
        lhs = integrate(GridFunction(g1, 2.0 * a.values - 3.0 * b.values))
        assert lhs == pytest.approx(2 * integrate(a) - 3 * integrate(b), rel=1e-10, abs=1e-12)
        lo = GridFunction(g1, np.minimum(a.values, b.values))
        assert integrate(lo) <= integrate(a) + 1e-12


def _integrate_on_ball(f, d, ball):
    """Midpoint quadrature over the lattice points strictly inside the ball."""
    return f.values.ravel()[ball_support(f.grid, d, ball)].sum() * f.grid.cell_volume


class TestBallQuadrature:
    def test_indicator_mass(self, d1, g1):
        ball = d1.ball([0.0], 0)
        h = g1.spacing[0]
        val = _integrate_on_ball(constant(g1, 1.0), d1, ball)
        assert val == pytest.approx(1.0, abs=2 * h)

    def test_odd_symmetry(self, d1, g1):
        f = sample(g1, lambda x: x)
        assert _integrate_on_ball(f, d1, d1.ball([0.0], 0)) == pytest.approx(0.0, abs=1e-8)

    def test_abs_value(self, d1, g1):
        f = sample(g1, lambda x: np.abs(x))
        h = g1.spacing[0]
        assert _integrate_on_ball(f, d1, d1.ball([0.0], 0)) == pytest.approx(0.25, abs=2 * h)

    def test_empty_mask(self, d1, g1):
        far = d1.ball([100.0], -8)
        assert ball_support(g1, d1, far).size == 0
        assert _integrate_on_ball(constant(g1, 1.0), d1, far) == 0.0

    def test_first_order_convergence(self, d1):
        errs = []
        for res in (512, 1024, 2048):
            g = uniform_grid([-8.0], [8.0], res)
            val = _integrate_on_ball(constant(g, 1.0), d1, d1.ball([0.13], 2))
            errs.append(abs(val - 4.0))
        assert errs[2] <= 0.75 * errs[0] + 1e-12


# name -> (dilation matrix, grid lower, upper, resolution, ball scales)
_SUPPORT_CASES = {
    "1d": ([[2.0]], [-8.0], [8.0], 4096, (-8, 3)),
    "diag": ([[2.0, 0.0], [0.0, 3.0]], [-4.0, -4.0], [4.0, 4.0], 48, (-3, 2)),
    "diag5": ([[2.0, 0.0], [0.0, 3.0]], [-5.0, -5.0], [5.0, 5.0], 48, (-3, 2)),
    "shear": ([[2.0, 1.0], [0.0, 2.0]], [-4.0, -4.0], [4.0, 4.0], 32, (-3, 3)),
    "box": ([[2.0, 1.0], [0.0, 2.0]], [-4.0, -3.0], [4.0, 6.0], (40, 56), (-3, 3)),
}


@cache
def _support_case(name):
    matrix, lower, upper, res, scales = _SUPPORT_CASES[name]
    return new_dilation(matrix), uniform_grid(lower, upper, res), scales


class TestBallSupport:
    @settings(max_examples=120)
    @given(
        name=st.sampled_from(sorted(_SUPPORT_CASES)),
        aligned=st.booleans(),
        u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        t=st.floats(0.0, 1.0),
    )
    def test_support_and_mask_equal_direct_test(self, name, aligned, u, t):
        d, g, (k_lo, k_hi) = _support_case(name)
        if aligned:
            cells = [min(int(ui * r), r - 1) for ui, r in zip(u, g.resolution)]
            center = [lo + (i + 0.5) * h for lo, i, h in zip(g.lower, cells, g.spacing)]
        else:
            center = [lo + ui * (hi - lo) for lo, hi, ui in zip(g.lower, g.upper, u)]
        ball = d.ball(center, k_lo + int(t * (k_hi - k_lo)))
        direct = d.ball_contains_many(ball, g.points())

        support = ball_support(g, d, ball)
        mask = ball_lattice_mask(g, d, ball)
        assert np.array_equal(support, np.flatnonzero(direct))
        assert mask.shape == g.resolution
        assert np.array_equal(mask.ravel(), direct)
        assert not support.flags.writeable
        assert not mask.flags.writeable
        assert ball_support(g, d, ball) is support

    @settings(max_examples=120)
    @given(
        name=st.sampled_from(["1d", "diag5", "shear"]),
        u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        t=st.floats(0.0, 1.0),
        edge=st.booleans(),
    )
    def test_aligned_support_equals_pasted_footprint(self, name, u, t, edge):
        # Lattice centres take the pasted footprint; it must equal the
        # full-grid test bitwise, also for balls clipped at the box edge.
        d, g, (k_lo, k_hi) = _support_case(name)
        cells = [min(int(ui * r), r - 1) for ui, r in zip(u, g.resolution)]
        if edge:
            cells[0] = 0 if u[0] < 0.5 else g.resolution[0] - 1
        center = [lo + (i + 0.5) * h for lo, i, h in zip(g.lower, cells, g.spacing)]
        index, shift = lattice_anchors(g, [center])
        assert index[0].tolist() == cells and not shift.any()
        ball = d.ball(center, k_lo + int(t * (k_hi - k_lo)))
        want = np.flatnonzero(d.ball_contains_many(ball, g.points()))
        assert np.array_equal(ball_support(g, d, ball), want)

    @pytest.mark.parametrize("name", ["1d", "diag5", "shear"])
    def test_corner_balls_are_clipped_like_the_direct_test(self, name):
        d, g, (_, k_hi) = _support_case(name)
        for cells in itertools.product(*[(0, r - 1) for r in g.resolution]):
            center = [lo + (i + 0.5) * h for lo, i, h in zip(g.lower, cells, g.spacing)]
            for k in (k_hi - 1, k_hi):
                ball = d.ball(center, k)
                direct = d.ball_contains_many(ball, g.points())
                assert 0 < direct.sum() < direct.size
                assert np.array_equal(ball_support(g, d, ball), np.flatnonzero(direct))

    @pytest.mark.parametrize("name", ["1d", "diag"])
    def test_search_centres_are_lattice_points(self, name):
        # Every centre the search emits takes the pasted-footprint path.
        d, g, _ = _support_case(name)
        window = default_scale_window(d, g, min_points=1)
        centres = [ball.center for ball in _canonical_sweep(d, g, window)]
        rng = np.random.default_rng(5)
        for _ in range(200):
            centres += [ball.center for ball, _ in _random_config(rng, d, g, window, 8).entries]
        assert not lattice_anchors(g, centres)[1].any()

    def test_short_centre_is_refused(self):
        # A one-coordinate centre on a 2-D grid would broadcast over both
        # axes; no ball is made of it, so it is never anchored.
        d, g, _ = _support_case("diag")
        for center in ([g.lower[0] + 17.5 * g.spacing[0]], [0.0, 0.0, 0.0], [[0.0, 0.0]]):
            with pytest.raises(ValueError, match="2 coordinates"):
                d.ball(center, 0)

    def test_balls_missing_the_lattice(self, d1, g1, monkeypatch):
        # Far off the box the anchored footprint is empty (K = 0); just past
        # its edge it is not, but each of its cells lies beyond the box.
        # Neither ball has a lattice point, a stack, or an indicator norm.
        far, beyond = d1.ball([100.0], -8), d1.ball([8.5], 0)
        shifts = lattice_anchors(g1, [far.center, beyond.center])[1]
        assert not ball_footprint(d1, g1, far.scale, shifts[0]).any()
        assert ball_footprint(d1, g1, beyond.scale, shifts[1]).any()
        p = constant_exponent(g1, 1.0)
        monkeypatch.setattr(gr, "_STACK_ENTRIES", 64)
        for ball in (far, beyond):
            assert ball_support(g1, d1, ball).size == 0
            assert list(scale_stacks(g1, d1, [ball])) == []
            with pytest.raises(EmptyMask):
                indicator_norm(d1, ball, p)
        [(_, group, _, _, _)] = scale_stacks(g1, d1, [far, beyond, d1.ball([7.99], 0)])
        assert [ball.center.tolist() for ball in group] == [[7.99]]

    def test_lattice_aligned_centres_hit_lattice_points(self):
        d, g, _ = _support_case("diag")
        center = [lo + (i + 0.5) * h for lo, i, h in zip(g.lower, (17, 30), g.spacing)]
        support = ball_support(g, d, d.ball(center, -3))
        assert np.array_equal(support, [17 * 48 + 30])


class TestFootprintSum:
    @settings(max_examples=90)
    @given(
        name=st.sampled_from(["1d", "diag", "shear"]),
        data=st.data(),
        integral=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_equals_shifted_oracle(self, name, data, integral, seed):
        # Values on a random sub-box, often flush with an edge of the grid,
        # so that the footprint is clipped there.  Integer values sum
        # exactly in any order, so those must agree bitwise.
        d, g, (k_lo, k_hi) = _support_case(name)
        scale = data.draw(st.integers(k_lo, k_hi))
        box = []
        for r in g.resolution:
            lo = data.draw(st.integers(0, r - 1) | st.just(0))
            hi = data.draw(st.integers(lo + 1, r) | st.just(r))
            box.append(slice(lo, hi))
        rng = np.random.default_rng(seed)
        values = np.zeros(g.resolution)
        sub = values[tuple(box)]
        sub[...] = rng.integers(0, 4, sub.shape) if integral else rng.random(sub.shape)
        sub[rng.random(sub.shape) < 0.5] = 0.0
        got = footprint_sum(values, d, g, scale)
        want = shifted_footprint_sum(values, ball_footprint(d, g, scale))
        assert got.shape == g.resolution
        if integral:
            assert np.array_equal(got, want)
        else:
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.max(np.abs(got - want)) <= 1e-14 * max(np.max(want), 1.0)

    @pytest.mark.parametrize("name", ["1d", "diag", "shear"])
    def test_every_footprint_holds_its_centre(self, name):
        # Offset 0 has form value 0, below every level: no footprint is
        # empty, however fine the scale.
        d, g, (k_lo, k_hi) = _support_case(name)
        for k in range(k_lo - 12, k_hi + 4):
            fp = ball_footprint(d, g, k)
            assert fp[tuple(s // 2 for s in fp.shape)]
        assert ball_footprint(d, g, k_lo - 12).sum() == 1

    def test_zero_input_is_zero(self):
        d, g, _ = _support_case("shear")
        assert np.all(footprint_sum(np.zeros(g.resolution), d, g, 2) == 0.0)


class TestGridDerivedValues:
    def test_spacing_computed_once_and_read_only(self):
        g = uniform_grid([-4.0, -3.0], [4.0, 6.0], (40, 56))
        assert g.spacing is g.spacing
        assert not g.spacing.flags.writeable
        with pytest.raises(ValueError):
            g.spacing[0] = 1.0
        assert np.array_equal(g.spacing, [8.0 / 40, 9.0 / 56])
        assert g.cell_volume == float(np.prod(g.spacing))

    def test_equality_and_hash_stay_on_the_fields(self):
        a = uniform_grid([-4.0, -3.0], [4.0, 6.0], (40, 56))
        b = uniform_grid([-4.0, -3.0], [4.0, 6.0], (40, 56))
        a.spacing, a.points()  # derived values on one grid only
        assert [f.name for f in dataclasses.fields(Grid)] == ["lower", "upper", "resolution"]
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        assert a != uniform_grid([-4.0, -3.0], [4.0, 6.0], (40, 57))
        assert hash(a) == hash(((-4.0, -3.0), (4.0, 6.0), (40, 56)))


class TestFftconvolveSame:
    @settings(max_examples=200)
    @given(
        # At most 16 cells per axis in 3-D keeps the transforms small.
        shapes=st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                *[st.lists(st.just(1) | st.integers(1, 70 if n < 3 else 16), min_size=n, max_size=n)] * 2
            )
        ),
        seed=st.integers(0, 2**16),
    )
    # Length-1 axes in either operand (multiplied, not transformed) and
    # kernels larger than the input.
    @example(shapes=([1, 37], [5, 9]), seed=0)
    @example(shapes=([12, 13], [5, 1]), seed=0)
    @example(shapes=([1], [9]), seed=0)
    @example(shapes=([9, 1], [1, 9]), seed=0)
    @example(shapes=([20, 7], [45, 31]), seed=0)
    # Three transformed axes, where numpy's rfftn and irfftn move the last bits.
    @example(shapes=([5, 6, 7], [3, 4, 5]), seed=0)
    @example(shapes=([12, 11, 10], [7, 5, 3]), seed=1)
    @example(shapes=([4, 1, 9], [3, 6, 2]), seed=2)
    def test_bitwise_equal_to_scipy_signal(self, shapes, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.standard_normal(s) for s in shapes)
        got = fftconvolve_same(a, b)
        want = fftconvolve(a, b, mode="same")
        assert got.shape == want.shape == a.shape
        assert np.array_equal(got, want)

    def test_fast_len_is_scipy_next_fast_len(self):
        assert [_fast_len(n) for n in range(1, 5001)] == [next_fast_len(n, True) for n in range(1, 5001)]


class TestInterpolateLinear:
    @settings(max_examples=60)
    @given(
        shape=st.lists(st.integers(2, 9), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_to_map_coordinates(self, shape, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(shape)
        coords = np.stack([rng.uniform(-1.5, n + 0.5, 300) for n in shape])
        # Integer coordinates, both edges, and the nearest floats on either side of them.
        for axis, n in enumerate(shape):
            edges = [0.0, n - 1.0, np.nextafter(0.0, -1.0), np.nextafter(n - 1.0, n), np.nextafter(n - 1.0, 0.0), -1e-300]
            picks = rng.permutation(300)[: 10 + 5 * len(edges)]
            coords[axis, picks[:10]] = rng.integers(0, n, 10)
            for j, edge in enumerate(edges):
                coords[axis, picks[10 + 5 * j : 15 + 5 * j]] = edge
        got = _interpolate_linear(values, coords)
        assert np.array_equal(got, map_coordinates(values, coords, order=1, cval=0.0))


class TestConvolveScaled:
    def test_zero_function(self, d1, g1):
        phi = bump_kernel(g1.spacing, 0.5)
        out = convolve_scaled(constant(g1, 0.0), phi, d1, 0)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("k", [0, 1, 2, -1])
    def test_approximate_identity(self, d1, g1, k):
        phi = bump_kernel(g1.spacing, 0.5)
        out = convolve_scaled(constant(g1, 1.0), phi, d1, k)
        interior = boundary_margin(g1, 2.0).values > 0
        assert np.max(np.abs(out.values[interior] - 1.0)) < 1e-3

    def test_vanishing_integral(self, d1, g1):
        phi = bump_kernel(g1.spacing, 0.5, normalize=False)
        phi = phi.with_values(phi.values - phi.values.sum() / phi.values.size)
        # Exact discrete cancellation: sum of kernel samples is ~0.
        out = convolve_scaled(constant(g1, 1.0), phi, d1, 0)
        interior = boundary_margin(g1, 2.0).values > 0
        assert np.max(np.abs(out.values[interior])) < 1e-6

    def test_moment_cancel_kills_polynomials(self, d1, g1):
        phi = bump_kernel(g1.spacing, 0.5)
        f = sample(g1, lambda x: 1.0 + 0.5 * x)
        out = convolve_scaled(f, phi, d1, 0, moment_cancel=1)
        interior = boundary_margin(g1, 2.0).values > 0
        assert np.max(np.abs(out.values[interior])) < 1e-10

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_moment_cancel_2d_shear_order_2(self, k):
        # Every discrete moment of degree <= 2 of the corrected samples
        # vanishes on the offset lattice, under a non-diagonalizable A.
        d = new_dilation([[2.0, 1.0], [0.0, 2.0]])
        g = uniform_grid([-4.0, -4.0], [4.0, 4.0], 64)
        kernel = sample(
            kernel_grid(g.spacing, 0.5),
            lambda x, y: np.exp(-8.0 * (x**2 + 2.0 * y**2)) * (1.0 + x + 0.5 * y),
        )
        vals = scaled_kernel_samples(kernel, d, k, g, moment_cancel=2)
        axes = [(np.arange(n) - (n - 1) // 2) * h for n, h in zip(vals.shape, g.spacing)]
        xs, ys = np.meshgrid(*axes, indexing="ij")
        for gx, gy in multi_indices(2, 2):
            mono = xs**gx * ys**gy
            moment = np.sum(vals * mono)
            assert abs(moment) <= 1e-10 * np.sum(np.abs(vals * mono))

    def test_translation_equivariance(self, d1):
        g = uniform_grid([-8.0], [8.0], 1024)
        phi = bump_kernel(g.spacing, 0.5)
        f = sample(g, lambda x: np.exp(-(x**2)))
        out = convolve_scaled(f, phi, d1, 0)
        shift = 16
        f_shift = GridFunction(g, np.roll(f.values, shift))
        out_shift = convolve_scaled(f_shift, phi, d1, 0)
        inner = slice(100, 900)
        assert np.allclose(np.roll(out.values, shift)[inner], out_shift.values[inner], atol=1e-10)

    def test_scale_too_fine(self, d1, g1):
        phi = bump_kernel(g1.spacing, 0.5)
        with pytest.raises(ScaleTooFine):
            convolve_scaled(constant(g1, 1.0), phi, d1, 12)


class TestBoundaryMargin:
    def test_zero_width(self, g1):
        assert np.all(boundary_margin(g1, 0.0).values == 1.0)

    def test_full_width(self, g1):
        assert np.all(boundary_margin(g1, 8.5).values == 0.0)

    def test_interval(self):
        g = uniform_grid([0.0], [1.0], 64)
        mask = boundary_margin(g, 0.25)
        x = g.axes()[0]
        assert np.array_equal(mask.values, ((x >= 0.25) & (x <= 0.75)).astype(float))

    def test_2d_product(self):
        g = uniform_grid([-1.0, -1.0], [1.0, 1.0], (16, 32))
        mask = boundary_margin(g, 0.5)
        xs, ys = g.meshes()
        expect = ((np.abs(xs) <= 0.5) & (np.abs(ys) <= 0.5)).astype(float)
        assert np.array_equal(mask.values, expect)


class TestSerialization:
    def test_roundtrip_1d(self, g1, tmp_path):
        rng = np.random.default_rng(1)
        f = GridFunction(g1, rng.normal(size=g1.resolution))
        path = tmp_path / "f.avxg"
        save_grid_function(f, path)
        back = load_grid_function(path)
        assert back.grid.key() == g1.key()
        assert np.array_equal(back.values, f.values)
        assert (tmp_path / "f.avxg.json").exists()

    def test_roundtrip_complex_2d(self, tmp_path):
        g = uniform_grid([-1.0, 0.0], [1.0, 2.0], (8, 12))
        vals = np.arange(96, dtype=float).reshape(8, 12) * (1 + 2j)
        f = GridFunction(g, vals)
        path = tmp_path / "c.avxg"
        save_grid_function(f, path)
        back = load_grid_function(path)
        assert np.array_equal(back.values, vals)
