from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from conftest import paste_centered, shifted_footprint_sum

from anivex import carleson as carleson_module
from anivex import exponents as exponents_module
from anivex import tent as tent_module
from anivex.campanato import aggregate_norm
from anivex.carleson import band_limited_pair, build_analyzing_function, carleson_duality_check
from anivex.dilation import new_dilation
from anivex.errors import CoverFailure
from anivex.exponents import (
    Exponent,
    constant_exponent,
    exponent_from_callable,
    fill_indicator_norms,
    indicator_norm,
    luxemburg_norm,
)
from anivex.grid import (
    GridFunction,
    ball_footprint,
    ball_lattice_mask,
    ball_support,
    lattice_anchors,
    uniform_grid,
)
from anivex.hardy import FiniteAtomicRep, make_atom
from anivex.search import BallConfiguration, default_scale_window
from anivex.tent import (
    CoverBall,
    ScaleFunction,
    TentAtomEntry,
    TentAtomSet,
    _anchored_nodes,
    _binary_erode,
    _minimal_tent_expansion,
    _stamp_lookup,
    area_l2_weights,
    lusin_area,
    maximal_dilate,
    tent_atom_validate,
    tent_atomic_decomposition,
    tent_offset_mask,
    whitney_cover,
    zero_scale_function,
)


@pytest.fixture(scope="module")
def d1():
    return new_dilation([[2.0]])


@pytest.fixture(scope="module")
def g1():
    return uniform_grid([-8.0], [8.0], 2048)


@pytest.fixture(scope="module")
def p1(g1):
    return constant_exponent(g1, 1.0)


def blob_scale_function(grid, window, centers, widths, scale_weights, amp=1.0):
    xs = grid.meshes()
    layers = []
    for ell in range(window[0], window[1] + 1):
        w = scale_weights.get(ell, 0.0)
        layer = np.zeros(grid.resolution)
        if w != 0.0:
            for c, sd in zip(centers, widths):
                r2 = sum((m - ci) ** 2 for m, ci in zip(xs, np.atleast_1d(c)))
                layer += amp * w * np.exp(-r2 / (2 * sd**2)) * (np.sqrt(r2) < 3 * sd)
        layers.append(layer)
    return ScaleFunction(grid, window[0], window[1], np.stack(layers))


def _fft_lusin_area(G, d):
    """The area function by one full-grid FFT convolution per scale: the
    reference the lattice sum must agree with to rounding."""
    grid = G.grid
    acc = np.zeros(grid.resolution)
    for ell in G.scales():
        fp = ball_footprint(d, grid, ell)
        if not fp.any():
            continue
        sq = np.abs(G.layer(ell)) ** 2
        acc += (1.0 / d.bpow(ell)) * fftconvolve(sq, fp.astype(float), mode="same")
    acc *= grid.cell_volume
    return np.sqrt(np.maximum(acc, 0.0))


def _shifted_area_sq(G, d):
    """A(G)^2 summed one footprint offset at a time on a zero-padded copy of
    each layer: an oracle that shares no code with lusin_area."""
    grid = G.grid
    acc = np.zeros(grid.resolution)
    for ell in G.scales():
        fp = ball_footprint(d, grid, ell)
        acc += shifted_footprint_sum(np.abs(G.layer(ell)) ** 2, fp) / d.bpow(ell)
    return acc * grid.cell_volume


# The FFT forms the tent layer used before grid.footprint_sum, kept as
# references: each count was an FFT value rounded back to an integer.


def _fft_erode(mask, fp):
    conv = fftconvolve(mask.astype(float), fp.astype(float), mode="same")
    return conv > fp.sum() - 0.5


def _fft_area_l2_weights(d, grid, window):
    box = np.ones(grid.resolution)
    return np.concatenate([
        np.rint(fftconvolve(box, ball_footprint(d, grid, ell).astype(float), mode="same")).ravel()
        / d.bpow(ell)
        for ell in range(window[0], window[1] + 1)
    ])


def _fft_averages(values, d, grid, window):
    for k in range(window[0], window[1] + 1):
        fp = ball_footprint(d, grid, k).astype(float)
        yield fp, fftconvolve(values, fp, mode="same") / fp.sum()


def _fft_maximal_dilate(mask, d, grid, window, gamma):
    out = mask.copy()
    thr = (1.0 - gamma) * (1.0 + 1e-12) + 1e-12
    for fp, avg in _fft_averages(mask.astype(float), d, grid, window):
        centers = avg > thr
        if centers.any():
            out |= fftconvolve(centers.astype(float), fp, mode="same") > 0.5
    return out


def _shear_blobs(grid):
    """The two truncated Gaussian blobs of the tent benchmark, at scales -3..0."""
    return blob_scale_function(
        grid, (-3, 0), [[-1.5, -1.0], [1.2, 0.8]], [0.5, 0.5], {-3: 1.0, -2: 0.6, -1: 0.8, 0: 0.4}
    )


class _Captured(Exception):
    pass


@lru_cache(maxsize=None)
def _duality_psi_side(case):
    """The psi side (the synthesis partner applied to f) that
    carleson_duality_check hands to the decomposition, with its dilation and
    exponent: the carleson-1d pair at 1024 cells, or the 2-D shear chain's
    pair at 32 x 32."""
    if case == "1d":
        d, g = new_dilation([[2.0]]), uniform_grid([-8.0], [8.0], 1024)
        window, atom_ball, span = (-4, 2), d.ball([0.0], 3), (0.6, 0.6)
    else:
        d, g = new_dilation([[2.0, 1.0], [0.0, 2.0]]), uniform_grid([-4.0, -4.0], [4.0, 4.0], (32, 32))
        window, atom_ball, span = (-2, 1), d.ball([0.0, 0.0], 2), (0.3, 1.0)
    p = constant_exponent(g, 1.0)
    phi, _ = build_analyzing_function(d, 1, g)
    f, b = band_limited_pair(g, seed=1, correlated=True, mode_span=span)
    rep = FiniteAtomicRep([(1.0, make_atom(f, d, atom_ball, 2.0, p, 0))])

    def capture(G, *args, **kwargs):
        raise _Captured(G)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(carleson_module, "tent_atomic_decomposition", capture)
        with pytest.raises(_Captured) as caught:
            carleson_duality_check(rep, b, phi, d, p, window, moment_cancel=1)
    return caught.value.args[0], d, p


def _cover_ball(d, grid, cb, extra=0):
    """The DilatedBall of a cover ball, grown by extra scales."""
    return d.ball(grid.points()[cb.cell], cb.scale + extra)


def _every_level_decomposition(G, p, d, level_floor, leakage_bound):
    """tent_atomic_decomposition as it was before the stop at the first
    level whose dilated set fills the box: every level down to j_lo runs
    unless every node is claimed."""
    grid = G.grid
    window = default_scale_window(d, grid, min_points=1)
    template = G.with_values(np.zeros_like(G.values, dtype=float))
    total_mass = G.mass()
    area = lusin_area(G, d).values
    positive = area[area > 0.0]
    j_lo = j_hi = 0
    if positive.size:
        j_hi = int(np.ceil(np.log2(float(positive.max()))))
        j_lo = max(int(np.floor(np.log2(float(positive.min())))) - 1, j_hi - level_floor)
    nscales = G.l_max - G.l_min + 1
    assigned = np.zeros((nscales,) + tuple(grid.resolution), dtype=bool)
    entries, cover_sizes, unguarded = [], {}, 0
    prev_tent = np.zeros_like(assigned)
    support = G.values != 0.0
    flat_assigned = assigned.reshape(nscales, -1)
    flat_values = G.values.reshape(nscales, -1)
    ncells = flat_values.shape[1]
    for j in range(j_hi, j_lo - 1, -1):
        if assigned[support].all():
            break
        level_mask = area > 2.0**j
        if not level_mask.any():
            prev_tent = np.zeros_like(prev_tent)
            continue
        dilated = tent_module.maximal_dilate(level_mask, d, grid, window, gamma=0.5)
        tent_j = np.stack([_binary_erode(dilated, d, grid, ell) for ell in G.scales()])
        telescope = tent_j & ~prev_tent
        prev_tent = tent_j
        if not (telescope & support).any():
            continue
        balls = whitney_cover(dilated, d, grid, window)
        cover_sizes[j] = len(balls)
        unguarded += sum(1 for cb in balls if not cb.guarded)
        remaining = (telescope & support & ~assigned).reshape(nscales, -1)
        claimed_base = np.zeros(ncells, dtype=bool)
        for k_index, cover in enumerate(balls):
            if not remaining.any():
                break
            cells = ball_support(grid, d, _cover_ball(d, grid, cover))
            piece = cells[~claimed_base[cells]]
            claimed_base[cells] = True
            layers, cols = np.nonzero(remaining[:, piece])
            if not layers.size:
                continue
            flat = piece[cols]
            remaining[layers, flat] = False
            expansion = _minimal_tent_expansion(d, grid, cover, (G.l_min, G.l_max), layers, flat)
            if expansion is None:
                remaining[layers, flat] = True
                continue
            flat_assigned[layers, flat] = True
            ball = _cover_ball(d, grid, cover, expansion)
            entries.append(TentAtomEntry(None, ball, j, k_index, flat + layers * ncells, flat_values[layers, flat], None, template))
    fill_indicator_norms(d, [e.ball for e in entries], p)
    for e in entries:
        norm_1b = indicator_norm(d, e.ball, p)
        e.weight = float(2.0**e.level * norm_1b)
        e.amplitude = float(2.0**-e.level / norm_1b)
    leaked = float(np.sum(np.abs(G.values)[support & ~assigned]) * grid.cell_volume)
    ratio = leaked / total_mass if total_mass else 0.0
    assert ratio <= leakage_bound
    return TentAtomSet(entries, ratio, (j_lo, j_hi), cover_sizes, unguarded, template)


def _fft_agreement_case(name):
    rng = np.random.default_rng(11)
    shear = new_dilation([[2.0, 1.0], [0.0, 2.0]])
    g32 = uniform_grid([-4.0, -4.0], [4.0, 4.0], (32, 32))
    if name == "A=[2] dense 4096":
        g = uniform_grid([-8.0], [8.0], 4096)
        return new_dilation([[2.0]]), ScaleFunction(g, -4, 2, rng.normal(size=(7, 4096)))
    if name == "diag(2,3) dense 48^2":
        g = uniform_grid([-4.0, -4.0], [4.0, 4.0], (48, 48))
        return new_dilation([[2.0, 0.0], [0.0, 3.0]]), ScaleFunction(g, -2, 1, rng.normal(size=(4, 48, 48)))
    if name == "shear blobs 32^2":
        return shear, _shear_blobs(g32)
    G = zero_scale_function(g32, (-3, 0))
    G.values[2, 16, 11] = 2.5
    return shear, G


# Sparse supports for the exact-zero property: (dilation, grid, scale window).
_SPARSE_CASES = {
    "A=[2]": (new_dilation([[2.0]]), uniform_grid([-4.0], [4.0], 64), (-3, 1)),
    "diag(2,3)": (new_dilation([[2.0, 0.0], [0.0, 3.0]]), uniform_grid([-4.0, -4.0], [4.0, 4.0], 24), (-2, 0)),
    "shear": (new_dilation([[2.0, 1.0], [0.0, 2.0]]), uniform_grid([-4.0, -4.0], [4.0, 4.0], 24), (-3, 0)),
}


class TestLusinArea:
    def test_zero(self, d1, g1):
        G = zero_scale_function(g1, (-3, 2))
        assert np.all(lusin_area(G, d1).values == 0.0)

    @pytest.mark.parametrize(
        "case", ["A=[2] dense 4096", "diag(2,3) dense 48^2", "shear blobs 32^2", "single node"]
    )
    def test_matches_fft_reference(self, case):
        d, G = _fft_agreement_case(case)
        got = lusin_area(G, d).values ** 2
        want = _fft_lusin_area(G, d) ** 2
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_matches_shifted_oracle(self):
        d, G = _fft_agreement_case("shear blobs 32^2")
        want = _shifted_area_sq(G, d)
        got = lusin_area(G, d).values ** 2
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)
        assert np.array_equal(got == 0.0, want == 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=st.sampled_from(sorted(_SPARSE_CASES)), data=st.data())
    def test_exactly_zero_off_the_reach(self, case, data):
        d, grid, window = _SPARSE_CASES[case]
        G = zero_scale_function(grid, window)
        reach = np.zeros(grid.resolution, dtype=bool)
        for _ in range(data.draw(st.integers(1, 5))):
            ell = data.draw(st.integers(*window))
            idx = tuple(data.draw(st.integers(0, r - 1)) for r in grid.resolution)
            G.values[(ell - window[0],) + idx] = data.draw(
                st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)
            )
            center = [ax[i] for ax, i in zip(grid.axes(), idx)]
            reach |= ball_lattice_mask(grid, d, d.ball(center, ell))
        area = lusin_area(G, d).values
        assert np.all(area[~reach] == 0.0)
        assert np.all(area[reach] > 0.0)

    def test_indicator_overlap_formula(self, d1, g1):
        # G = 1_{B_0}(y) at scale 0: A(G)(x)^2 = max(0, 1 - |x|).
        G = zero_scale_function(g1, (0, 0))
        x = g1.axes()[0]
        G.values[0] = (np.abs(x) < 0.5).astype(float)
        area = lusin_area(G, d1)
        expect = np.sqrt(np.maximum(0.0, 1.0 - np.abs(x)))
        h = g1.spacing[0]
        assert np.max(np.abs(area.values - expect) * (expect > 0.1)) < np.sqrt(2 * h)
        total = np.sum(area.values**2) * g1.cell_volume
        assert total == pytest.approx(1.0, rel=0.02)

    def test_brute_force_oracle(self, d1):
        g = uniform_grid([-2.0], [2.0], 64)
        rng = np.random.default_rng(2)
        G = ScaleFunction(g, -2, 1, rng.normal(size=(4, 64)))
        area = lusin_area(G, d1)
        pts = g.points()
        brute = np.zeros(64)
        for i, x in enumerate(pts):
            total = 0.0
            for ell in range(-2, 2):
                ball = d1.ball(x, ell)
                inside = d1.ball_contains_many(ball, pts)
                total += (
                    np.sum(np.abs(G.layer(ell)).ravel()[inside] ** 2)
                    * g.cell_volume
                    / d1.bpow(ell)
                )
            brute[i] = np.sqrt(total)
        assert np.allclose(area.values, brute, atol=1e-10)

    def test_fubini_identity(self, d1):
        residuals = []
        for res, tol in ((2048, 0.02), (4096, 0.01)):
            g = uniform_grid([-8.0], [8.0], res)
            G = blob_scale_function(
                g, (-3, 1), [0.5, -1.0], [0.6, 0.9], {-2: 0.6, -1: 0.8, 0: 1.0, 1: 0.5}
            )
            lhs = np.sum(lusin_area(G, d1).values ** 2) * g.cell_volume
            rhs = np.sum(np.abs(G.values) ** 2) * g.cell_volume
            residuals.append(abs(lhs - rhs) / rhs)
            assert lhs == pytest.approx(rhs, rel=tol)
        # First-order convergence: doubling the resolution halves the residual.
        assert residuals[1] <= 0.65 * residuals[0]


def _tent_contains(d, ball, y, ell):
    """y + B_ell inside the closed ball, by one closed_containment row."""
    offset = np.atleast_2d(np.asarray(y, dtype=float) - ball.center)
    return bool(d.closed_containment(ell, ball.scale, offset)[0])


# (dilation, grid, window) for the FFT-reference comparisons.
_REFERENCE_CASES = {
    "A=[2] 4096": (new_dilation([[2.0]]), uniform_grid([-8.0], [8.0], 4096), (-4, 2)),
    "diag(2,3) 48^2": (new_dilation([[2.0, 0.0], [0.0, 3.0]]), uniform_grid([-4.0, -4.0], [4.0, 4.0], 48), (-2, 1)),
    "shear 32^2": (new_dilation([[2.0, 1.0], [0.0, 2.0]]), uniform_grid([-4.0, -4.0], [4.0, 4.0], 32), (-3, 0)),
    "shear 64^2": (new_dilation([[2.0, 1.0], [0.0, 2.0]]), uniform_grid([-4.0, -4.0], [4.0, 4.0], 64), (-3, 0)),
}


def _reference_masks(grid):
    """A blob-shaped mask and a mask flush with the box edge."""
    r2 = sum(m**2 for m in grid.meshes())
    edge = np.zeros(grid.resolution, dtype=bool)
    edge[(slice(0, grid.resolution[0] // 3),) + (slice(None),) * (grid.n - 1)] = True
    return r2 < 4.0, edge


class TestFFTReferences:
    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_erosion_equals_fft_form(self, case):
        d, g, (k_lo, k_hi) = _REFERENCE_CASES[case]
        blob, edge = _reference_masks(g)
        # Guard scales up to k + omega: the largest footprints fit nowhere.
        for mask in (blob, edge, blob | edge):
            for k in range(k_lo, k_hi + d.omega + 1):
                got = tent_module._binary_erode(mask, d, g, k)
                assert np.array_equal(got, _fft_erode(mask, ball_footprint(d, g, k)))

    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_dilation_equals_fft_form(self, case):
        d, g, window = _REFERENCE_CASES[case]
        blob, edge = _reference_masks(g)
        for mask in (blob, edge):
            for gamma in (0.25, 0.5, 0.9):
                got = maximal_dilate(mask, d, g, window, gamma)
                assert np.array_equal(got, _fft_maximal_dilate(mask, d, g, window, gamma))

    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_area_weights_equal_fft_form(self, case):
        d, g, window = _REFERENCE_CASES[case]
        assert np.array_equal(area_l2_weights(d, g, window), _fft_area_l2_weights(d, g, window))


class TestTentContains:
    def test_tiny_ball_deep_inside(self, d1):
        ball = d1.ball([0.3], 1)
        assert _tent_contains(d1, ball, [0.3], -8)

    def test_interval_cases(self, d1):
        b1 = d1.ball([0.0], 1)
        assert _tent_contains(d1, b1, [0.0], 1)
        assert not _tent_contains(d1, b1, [0.9], 0)

    def test_scale_exceeds_ball(self, d1):
        b1 = d1.ball([0.0], 1)
        assert not _tent_contains(d1, b1, [0.0], 2)


# The stamp path must decide every node like the point query it replaces.
_STAMP_CASES = {
    "A=[2]": (new_dilation([[2.0]]), uniform_grid([-4.0], [4.0], 64)),
    "shear": (new_dilation([[2.0, 1.0], [0.0, 2.0]]), uniform_grid([-2.0, -2.0], [2.0, 2.0], 16)),
}


def _tent_members(d, grid, ball, window, layers, flat):
    """The stamp lookup of the nodes (flat[i], window[0] + layers[i]) at
    their offsets from the ball's anchor."""
    return _stamp_lookup(d, grid, ball.scale, window, layers, *_anchored_nodes(grid, ball.center, flat))


def _one_scale(d, grid, ball, ell, flat):
    """_tent_members over the one-scale window (ell, ell): y + B_ell inside the
    closed ball, one boolean per flat lattice index y."""
    return _tent_members(d, grid, ball, (ell, ell), np.zeros(len(flat), dtype=int), flat)


class TestTentMembers:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        case=st.sampled_from(sorted(_STAMP_CASES)),
        data=st.data(),
        ball_scale=st.integers(-2, 3),
        depth=st.integers(-1, 5),
    )
    def test_stamp_matches_point_queries(self, case, data, ball_scale, depth):
        d, grid = _STAMP_CASES[case]
        idx = tuple(data.draw(st.integers(0, r - 1)) for r in grid.resolution)
        center = np.array([ax[i] for ax, i in zip(grid.axes(), idx)])
        ball = d.ball(center, ball_scale)
        ell = ball_scale - depth
        every = np.arange(int(np.prod(grid.resolution)))
        stamped = _one_scale(d, grid, ball, ell, every)
        pointwise = d.closed_containment(ell, ball_scale, grid.points() - center)
        assert np.array_equal(stamped, pointwise)

    def test_off_lattice_center_uses_exact_test(self, d1):
        grid = uniform_grid([-4.0], [4.0], 64)
        ball = d1.ball([0.01], 1)
        every = np.arange(64)
        got = _one_scale(d1, grid, ball, -1, every)
        # Interval oracle: |y - 0.01| + 1/4 <= 1 for B_-1 inside B_1.
        want = np.abs(grid.axes()[0] - 0.01) + 0.25 <= 1.0
        assert np.array_equal(got, want)


def _pasted_tent_members(d, grid, ball, ell, flat):
    """The pasted form of _one_scale, the reference for the stamp rows: a
    full-grid copy of the ball's stamp placed at its anchor, read at the
    flat indices."""
    [anchor], [shift] = lattice_anchors(grid, [ball.center])
    stamp = paste_centered(grid.resolution, tent_offset_mask(d, grid, ell, ball.scale, shift), anchor)
    return stamp.ravel()[np.asarray(flat, dtype=int)]


# Ball scales up to 6 give stamps wider than each grid: the offset lattice
# is capped at the grid's difference range.
_ROW_CASES = {
    "A=[2]": (new_dilation([[2.0]]), uniform_grid([-4.0], [4.0], 64)),
    "diag(2,3)": (new_dilation([[2.0, 0.0], [0.0, 3.0]]), uniform_grid([-2.0, -2.0], [2.0, 2.0], (12, 10))),
    "shear": (new_dilation([[2.0, 1.0], [0.0, 2.0]]), uniform_grid([-2.0, -2.0], [2.0, 2.0], 16)),
}


def _edge_biased_centre(data, grid):
    """A lattice point, often on or next to the box edge, so balls clip."""
    idx = [data.draw(st.one_of(st.sampled_from([0, 1, r - 2, r - 1]), st.integers(0, r - 1))) for r in grid.resolution]
    return np.array([ax[i] for ax, i in zip(grid.axes(), idx)])


def _anchor_test_centre(data, grid):
    """A centre whose coordinates are each random in or near the box, on a
    cell edge, on a lattice point, or far outside the box."""
    centre = []
    for lo, hi, h, r in zip(grid.lower, grid.upper, grid.spacing, grid.resolution):
        centre.append(data.draw(st.one_of(
            st.floats(lo - 1.0, hi + 1.0),
            st.integers(0, r).map(lambda i, lo=lo, h=h: lo + i * h),
            st.integers(0, r - 1).map(lambda i, lo=lo, h=h: lo + (i + 0.5) * h),
            st.floats(-100.0, 100.0),
        )))
    return centre


class TestAnchoredBalls:
    # Every ball is a footprint row at its anchor: its lattice points and its
    # tent at each scale equal the full-grid tests on offsets from the centre.
    @settings(max_examples=100)
    @given(case=st.sampled_from(sorted(_ROW_CASES)), data=st.data(), scale=st.integers(-10, 3), depth=st.integers(-1, 4))
    def test_support_and_tent_equal_full_grid_tests(self, case, data, scale, depth):
        d, grid = _ROW_CASES[case]
        ball = d.ball(_anchor_test_centre(data, grid), scale)
        points = grid.points()
        assert np.array_equal(ball_support(grid, d, ball), np.flatnonzero(d.ball_contains_many(ball, points)))
        every = np.arange(len(points))
        for ell in (scale - depth, scale - depth - 2):
            want = d.closed_containment(ell, scale, points - ball.center)
            assert np.array_equal(_one_scale(d, grid, ball, ell, every), want)


class TestStampRows:
    @given(
        case=st.sampled_from(sorted(_ROW_CASES)),
        data=st.data(),
        ball_scale=st.integers(-2, 6),
        window_lo=st.integers(-4, 3),
        width=st.integers(0, 3),
    )
    def test_lookup_matches_pasted_stamps(self, case, data, ball_scale, window_lo, width):
        d, grid = _ROW_CASES[case]
        ball = d.ball(_edge_biased_centre(data, grid), ball_scale)
        window = (window_lo, window_lo + width)
        size = int(np.prod(grid.resolution))
        # Nodes in any order, repeats allowed, each at its own scale.
        flat = np.array(data.draw(st.lists(st.integers(0, size - 1), max_size=40)), dtype=int)
        layers = np.array(data.draw(st.lists(st.integers(0, width), min_size=len(flat), max_size=len(flat))), dtype=int)
        got = _tent_members(d, grid, ball, window, layers, flat)
        want = [bool(_pasted_tent_members(d, grid, ball, window[0] + l, [f])[0]) for f, l in zip(flat, layers)]
        assert got.tolist() == want
        every = np.arange(size)
        for ell in range(window[0], window[1] + 1):
            want = _pasted_tent_members(d, grid, ball, ell, every)
            assert np.array_equal(_one_scale(d, grid, ball, ell, every), want)

    @pytest.mark.parametrize("case", sorted(_ROW_CASES))
    def test_stamp_wider_than_the_grid(self, case):
        d, grid = _ROW_CASES[case]
        capped = tuple(2 * r - 1 for r in grid.resolution)
        assert tent_offset_mask(d, grid, 0, 6).shape == capped
        every = np.arange(int(np.prod(grid.resolution)))
        for corner in ([0] * grid.n, [r - 1 for r in grid.resolution]):
            ball = d.ball([ax[i] for ax, i in zip(grid.axes(), corner)], 6)
            for ell in (-2, 0, 3, 6):
                want = _pasted_tent_members(d, grid, ball, ell, every)
                assert np.array_equal(_one_scale(d, grid, ball, ell, every), want)

    def test_offsets_beyond_the_stamp_are_outside(self):
        # B_0 fits at every offset of the capped B_6 stamp, up to its edge
        # at 63 cells, and nowhere beyond it.
        d, grid = _ROW_CASES["A=[2]"]
        offsets = np.array([[63], [-63], [64], [-64], [500]])
        got = _stamp_lookup(d, grid, 6, (0, 0), np.zeros(len(offsets), dtype=int), offsets, np.zeros(1))
        assert got.tolist() == [True, True, False, False, False]

    @given(case=st.sampled_from(sorted(_ROW_CASES)), data=st.data(), ball_scale=st.integers(-3, 2))
    def test_minimal_expansion_matches_pasted_stamps(self, case, data, ball_scale):
        # Expansions start from cover balls, which sit on lattice points.
        d, grid = _ROW_CASES[case]
        centre = _edge_biased_centre(data, grid)
        cell = int(np.flatnonzero((grid.points() == centre).all(axis=1))[0])
        window = (-3, 0)
        size = int(np.prod(grid.resolution))
        flat = np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=12)), dtype=int)
        layers = np.array(data.draw(st.lists(st.integers(0, 3), min_size=len(flat), max_size=len(flat))), dtype=int)
        want = None
        for extra in range(min(10, d.level_cap - ball_scale - 1) + 1):
            grown = d.ball(centre, ball_scale + extra)
            if all(_pasted_tent_members(d, grid, grown, window[0] + l, [f])[0] for f, l in zip(flat, layers)):
                want = extra
                break
        cover = CoverBall(cell, ball_scale, True, np.zeros(0, dtype=int))
        assert _minimal_tent_expansion(d, grid, cover, window, layers, flat) == want


class TestMaximalDilate:
    def test_contains_original(self, d1, g1):
        x = g1.axes()[0]
        mask = np.abs(x - 1.0) < 0.7
        out = maximal_dilate(mask, d1, g1, (-3, 2), 0.5)
        assert np.all(out[mask])

    def test_interval_doubling(self, d1, g1):
        x = g1.axes()[0]
        mask = np.abs(x) < 0.5
        out = maximal_dilate(mask, d1, g1, (-6, 3), 0.5)
        # With gamma = 1/2 the dilation reaches about twice the interval.
        assert np.all(out[np.abs(x) < 0.95])
        assert not np.any(out[np.abs(x) > 2.5])


class TestWhitneyCover:
    def test_cover_is_complete_and_guarded(self, d1, g1):
        x = g1.axes()[0]
        mask = (np.abs(x - 0.3) < 1.1) | (np.abs(x + 3.0) < 0.4)
        balls = whitney_cover(mask, d1, g1, (-8, 3))
        covered = np.zeros(g1.resolution, dtype=bool)
        for cb in balls:
            covered |= ball_lattice_mask(g1, d1, _cover_ball(d1, g1, cb))
        assert np.all(covered[mask])
        for cb in balls:
            if cb.guarded:
                guard = _cover_ball(d1, g1, cb, d1.omega)
                assert np.all(mask[ball_lattice_mask(g1, d1, guard)])

    def test_bounded_overlap(self, d1, g1):
        x = g1.axes()[0]
        mask = np.abs(x) < 2.0
        balls = whitney_cover(mask, d1, g1, (-8, 3))
        counts = np.zeros(g1.resolution)
        for cb in balls:
            counts += ball_lattice_mask(g1, d1, _cover_ball(d1, g1, cb))
        assert counts.max() <= 8

    @settings(max_examples=60, derandomize=True)
    @given(case=st.sampled_from(sorted(_ROW_CASES)), seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
    def test_pieces_split_the_cover(self, case, seed, density):
        # Each piece is the ball's support less every earlier ball's, in C
        # order, at the first uncovered cell of the mask; the pieces are
        # disjoint and their union covers the mask.
        d, grid = _ROW_CASES[case]
        mask = np.random.default_rng(seed).random(grid.resolution) < density
        balls = whitney_cover(mask, d, grid, default_scale_window(d, grid, min_points=1))
        covered = np.zeros(mask.size, dtype=bool)
        for cb in balls:
            assert cb.cell == np.flatnonzero(mask.ravel() & ~covered)[0]
            support = ball_support(grid, d, _cover_ball(d, grid, cb))
            assert np.array_equal(cb.piece, np.setdiff1d(support, np.flatnonzero(covered)))
            covered[support] = True
        pieces = np.concatenate([cb.piece for cb in balls] + [np.zeros(0, dtype=int)])
        assert len(np.unique(pieces)) == len(pieces)
        assert np.array_equal(np.sort(pieces), np.flatnonzero(covered))
        assert covered[mask.ravel()].all()


class TestDecomposition:
    def test_zero_input(self, d1, g1, p1):
        G = zero_scale_function(g1, (-3, 1))
        atoms = tent_atomic_decomposition(G, p1, d1)
        assert atoms.entries == []
        assert atoms.leakage_ratio == 0.0

    def test_single_node(self, d1, g1, p1):
        G = zero_scale_function(g1, (-4, 1))
        idx = 1024
        G.values[2, idx] = 3.0  # scale -2 node
        atoms = tent_atomic_decomposition(G, p1, d1, leakage_bound=0.02)
        recon = atoms.reconstruction()
        assert recon.values[2, idx] == pytest.approx(3.0, rel=1e-12)
        assert atoms.leakage_ratio <= 0.02
        total_weight = sum(e.weight for e in atoms.entries)
        peak = lusin_area(G, d1).values.max()
        assert total_weight > 0
        assert np.log2(total_weight) == pytest.approx(np.log2(peak), abs=4.0)

    @pytest.mark.parametrize("case", range(4))
    def test_random_blobs_reconstruct(self, d1, g1, p1, case):
        rng = np.random.default_rng(200 + case)
        centers = rng.uniform(-3, 3, size=2)
        G = blob_scale_function(
            g1,
            (-5, 1),
            centers,
            rng.uniform(0.3, 0.8, size=2),
            {-4: 1.0, -2: rng.uniform(0.3, 1.0), 0: rng.uniform(0.2, 0.6)},
        )
        atoms = tent_atomic_decomposition(G, p1, d1)
        covered = atoms.covered_mask()
        recon = atoms.reconstruction()
        # Exact reconstruction on covered nodes, in value and in modulus.
        assert np.array_equal(recon.values[covered], G.values[covered])
        node_count = np.zeros(G.values.size)
        for e in atoms.entries:
            node_count[e.node_indices] += 1
        assert np.array_equal(np.abs(recon.values)[covered], np.abs(G.values)[covered])
        assert node_count.max() <= 1  # disjoint supports
        assert atoms.leakage_ratio <= 0.01
        # Pointwise bound with equality on the support.
        for e in atoms.entries[:10]:
            expect = (2.0 ** float(-e.level)) / luxemburg_norm(
                _indicator_of(e.ball, d1, g1), p1
            )
            got = np.abs(e.node_values) / np.maximum(
                np.abs(G.values.ravel()[e.node_indices]), 1e-300
            )
            assert np.allclose(got, expect, rtol=1e-9)

    def test_support_validates_exactly(self, d1, g1, p1):
        G = blob_scale_function(g1, (-4, 0), [0.0], [0.5], {-3: 1.0, -1: 0.5})
        atoms = tent_atomic_decomposition(G, p1, d1)
        for e in atoms.entries[:12]:
            report = tent_atom_validate(e.atom, e.ball, p1, d1)
            assert report.support_exact

    def test_scaling_family_stability(self, d1, g1, p1):
        G = blob_scale_function(g1, (-4, 0), [0.5], [0.6], {-3: 1.0, -1: 0.4})
        ratios = []
        for c in (1.0, 2.0, 4.0):
            scaled = G.with_values(c * G.values)
            atoms = tent_atomic_decomposition(scaled, p1, d1)
            cfg = BallConfiguration([(e.ball, e.weight) for e in atoms.entries])
            agg = aggregate_norm(cfg, p1, p1.underline_p, d1)
            tnorm = luxemburg_norm(lusin_area(scaled, d1), p1)
            ratios.append(agg / tnorm)
        mid = np.median(ratios)
        assert np.all(np.abs(np.array(ratios) / mid - 1.0) <= 0.3)

    def test_levels_start_below_the_smallest_area(self):
        # The lowest level sits one below the smallest positive area, taken
        # from an oracle sum: no level is spent on values no node reaches.
        d = new_dilation([[2.0, 1.0], [0.0, 2.0]])
        g = uniform_grid([-4.0, -4.0], [4.0, 4.0], (32, 32))
        G = _shear_blobs(g)
        area_sq = _shifted_area_sq(G, d)
        j_lo = int(np.floor(np.log2(np.sqrt(area_sq[area_sq > 0.0].min())))) - 1
        atoms = tent_atomic_decomposition(G, constant_exponent(g, 1.0), d)
        assert atoms.levels[0] == j_lo
        assert min(atoms.cover_sizes) >= atoms.levels[0]

    def test_no_level_is_dilated_once_every_node_is_claimed(self, monkeypatch):
        masks = []
        real = tent_module.maximal_dilate

        def counting(mask, *args, **kwargs):
            masks.append(mask)
            return real(mask, *args, **kwargs)

        monkeypatch.setattr(tent_module, "maximal_dilate", counting)
        d = new_dilation([[2.0, 1.0], [0.0, 2.0]])
        g = uniform_grid([-4.0, -4.0], [4.0, 4.0], (32, 32))
        G = _shear_blobs(g)
        # The blobs' dilated sets never fill the box, and every node is
        # claimed above the lowest level; the 1-D psi side leaks, and its
        # dilated set fills the box above the lowest level.
        cases = [
            (G, d, constant_exponent(g, 1.0), {}, True),
            _duality_psi_side("1d") + ({"level_floor": 40, "leakage_bound": np.inf}, False),
        ]
        for G, d, p, kwargs, claims_all in cases:
            masks.clear()
            atoms = tent_atomic_decomposition(G, p, d, **kwargs)
            assert np.array_equal(atoms.covered_mask(), G.values != 0.0) == claims_all
            last = min(e.level for e in atoms.entries)
            # One dilation per nonempty level from the top down to whichever
            # comes first: the first level whose dilated set is the whole
            # box, or the last atom's level once every node is claimed.
            area = lusin_area(G, d).values
            window = default_scale_window(d, G.grid, min_points=1)
            want, filled = [], False
            for j in range(atoms.levels[1], (last if claims_all else atoms.levels[0]) - 1, -1):
                mask = area > 2.0**j
                if mask.any():
                    want.append(mask)
                    filled = bool(real(mask, d, G.grid, window, gamma=0.5).all())
                    if filled:
                        break
            assert filled != claims_all
            assert atoms.levels[0] < (last if claims_all else j)
            assert len(masks) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(masks, want))

    @pytest.mark.parametrize("case", ("1d psi side", "shear psi side", "shear blobs"))
    def test_same_atoms_as_every_level(self, case, monkeypatch):
        if case == "shear blobs":
            d, g = new_dilation([[2.0, 1.0], [0.0, 2.0]]), uniform_grid([-4.0, -4.0], [4.0, 4.0], (32, 32))
            G, p, kwargs = _shear_blobs(g), constant_exponent(g, 1.0), {"level_floor": 60, "leakage_bound": 0.01}
        else:
            G, d, p = _duality_psi_side(case.split()[0])
            kwargs = {"level_floor": 40, "leakage_bound": np.inf}
        dilations = []
        real = tent_module.maximal_dilate
        monkeypatch.setattr(tent_module, "maximal_dilate", lambda *a, **k: dilations.append(1) or real(*a, **k))
        got = tent_atomic_decomposition(G, Exponent(p.values, p.p_infinity), d, **kwargs)
        stopped = len(dilations)
        want = _every_level_decomposition(G, Exponent(p.values, p.p_infinity), d, **kwargs)
        every = len(dilations) - stopped
        # The psi sides stop levels early; the blobs never fill the box.
        assert (stopped < every) == (case != "shear blobs")
        assert len(got.entries) == len(want.entries) > 0
        for a, b in zip(got.entries, want.entries):
            assert np.array_equal(a.node_indices, b.node_indices)
            assert np.array_equal(a.g_values, b.g_values)
            assert (a.weight, a.amplitude, a.level, a.cover_index) == (b.weight, b.amplitude, b.level, b.cover_index)
            assert a.ball.scale == b.ball.scale and np.array_equal(a.ball.center, b.ball.center)
        assert (got.levels, got.cover_sizes, got.unguarded_balls) == (want.levels, want.cover_sizes, want.unguarded_balls)
        assert got.leakage_ratio == want.leakage_ratio

    @pytest.mark.parametrize("case", ("1d", "shear"))
    def test_weights_from_stacked_norms(self, d1, case, monkeypatch):
        # Small stacks, so the atom balls' norms are solved in several chunks.
        monkeypatch.setattr(exponents_module, "_STACK_ENTRIES", 64)
        if case == "1d":
            d, g = d1, uniform_grid([-8.0], [8.0], 1024)
            G = blob_scale_function(g, (-4, 0), [-1.0, 1.5], [0.5, 0.7], {-3: 1.0, -1: 0.5, 0: 0.3})
        else:
            d, g = new_dilation([[2.0, 1.0], [0.0, 2.0]]), uniform_grid([-4.0, -4.0], [4.0, 4.0], (32, 32))
            G = _shear_blobs(g)
        p = exponent_from_callable(g, lambda x, *y: 0.7 + 0.25 * np.sin(x) ** 2)
        atoms = tent_atomic_decomposition(G, p, d, leakage_bound=np.inf)
        assert len({e.ball.scale for e in atoms.entries}) > 1
        for e in atoms.entries:
            alone = indicator_norm(d, e.ball, Exponent(p.values, p.p_infinity))  # a fresh cache
            assert e.weight == float(2.0**e.level * alone)
            assert e.amplitude == float(2.0**-e.level / alone)

    def test_cover_failure_raised(self, d1, g1, p1):
        # A node at the box edge whose ball sticks outside can never be
        # tented, so its mass must leak.
        G = zero_scale_function(g1, (0, 1))
        G.values[1, 2] = 1.0
        with pytest.raises(CoverFailure):
            tent_atomic_decomposition(G, p1, d1, leakage_bound=0.01)


def _indicator_of(ball, d, grid):
    return GridFunction(grid, ball_lattice_mask(grid, d, ball).astype(float))


class TestAreaFubini:
    @pytest.mark.parametrize("case", ("1d", "shear"))
    def test_weights_match_lusin_area_of_each_atom(self, d1, g1, p1, case):
        if case == "1d":
            d, g, p = d1, g1, p1
            G = blob_scale_function(g, (-5, 1), [-1.5, 2.0], [0.5, 0.7], {-4: 1.0, -2: 0.6, 0: 0.3})
        else:
            d = new_dilation([[2.0, 1.0], [0.0, 2.0]])
            g = uniform_grid([-4.0, -4.0], [4.0, 4.0], (32, 32))
            p = constant_exponent(g, 1.5)
            G = blob_scale_function(g, (-2, 1), [[0.5, -0.5]], [1.0], {-2: 1.0, -1: 0.7, 1: 0.4})
        atoms = tent_atomic_decomposition(G, p, d, leakage_bound=np.inf)
        assert len(atoms.entries) >= 5
        weights = area_l2_weights(d, g, (G.l_min, G.l_max))
        for e in atoms.entries:
            want = np.sqrt(np.sum(lusin_area(e.atom, d).values ** 2) * g.cell_volume)
            got = g.cell_volume * np.sqrt(np.dot(np.abs(e.node_values) ** 2, weights[e.node_indices]))
            assert got == pytest.approx(want, rel=1e-12)


class TestLazyAtom:
    def test_atom_built_on_access(self, d1, g1, p1):
        G = blob_scale_function(g1, (-4, 0), [0.0], [0.5], {-3: 1.0, -1: 0.5})
        atoms = tent_atomic_decomposition(G, p1, d1)
        for e in atoms.entries[:8]:
            stored = [v for v in vars(e).values() if isinstance(v, ScaleFunction)]
            assert all(v is atoms.template for v in stored)
            want = np.zeros(G.values.shape)
            want.ravel()[e.node_indices] = e.amplitude * e.g_values
            assert np.array_equal(e.atom.values, want)
            assert (e.atom.l_min, e.atom.l_max) == (G.l_min, G.l_max)


class TestAtomValidate:
    def test_zero_atom_passes(self, d1, g1, p1):
        a = zero_scale_function(g1, (-3, 0))
        report = tent_atom_validate(a, d1.ball([0.0], 1), p1, d1)
        assert report.support_exact
        assert report.infinity_atom

    def test_oversized_atom_fails(self, d1, g1, p1):
        G = blob_scale_function(g1, (-4, 0), [0.0], [0.4], {-3: 1.0})
        atoms = tent_atomic_decomposition(G, p1, d1)
        entry = max(atoms.entries, key=lambda e: np.abs(e.node_values).max())
        big = entry.atom.with_values(entry.atom.values * 1e4)
        report = tent_atom_validate(big, entry.ball, p1, d1)
        assert not report.infinity_atom
        assert any(r > 1.0 for r in report.size_ratios.values())


class Test2DSmoke:
    def test_decomposition_diag_matrix(self):
        d2 = new_dilation([[2.0, 0.0], [0.0, 3.0]])
        g2 = uniform_grid([-4.0, -4.0], [4.0, 4.0], (64, 64))
        p2 = constant_exponent(g2, 1.0)
        xs, ys = g2.meshes()
        G = zero_scale_function(g2, (-3, 0))
        r2 = xs**2 + ys**2
        G.values[1] = np.exp(-r2) * (r2 < 4.0)
        G.values[3] = 0.5 * np.exp(-2 * r2) * (r2 < 2.0)
        atoms = tent_atomic_decomposition(G, p2, d2, leakage_bound=0.05)
        covered = atoms.covered_mask()
        assert np.array_equal(atoms.reconstruction().values[covered], G.values[covered])
        assert atoms.leakage_ratio <= 0.05
        for e in atoms.entries[:4]:
            assert tent_atom_validate(e.atom, e.ball, p2, d2).support_exact

    def test_lusin_area_fubini_2d(self):
        d2 = new_dilation([[2.0, 0.0], [0.0, 3.0]])
        g2 = uniform_grid([-4.0, -4.0], [4.0, 4.0], (128, 128))
        xs, ys = g2.meshes()
        G = zero_scale_function(g2, (0, 1))
        G.values[0] = np.exp(-(xs**2 + ys**2))
        G.values[1] = 0.5 * np.exp(-2 * (xs**2 + ys**2))
        lhs = np.sum(lusin_area(G, d2).values ** 2) * g2.cell_volume
        rhs = np.sum(np.abs(G.values) ** 2) * g2.cell_volume
        assert lhs == pytest.approx(rhs, rel=0.05)
