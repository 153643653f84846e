import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from conftest import shifted_footprint_sum

from anivex import exponents as exponents_module
from anivex import tent as tent_module
from anivex.campanato import aggregate_norm
from anivex.dilation import new_dilation
from anivex.errors import CoverFailure
from anivex.exponents import Exponent, constant_exponent, exponent_from_callable, indicator_norm, luxemburg_norm
from anivex.grid import GridFunction, _lattice_index, _paste_centered, ball_footprint, ball_lattice_mask, uniform_grid
from anivex.search import BallConfiguration
from anivex.tent import (
    ScaleFunction,
    _in_tent,
    _lattice_offsets,
    _minimal_tent_expansion,
    _stamp_lookup,
    area_l2_weights,
    lusin_area,
    maximal_dilate,
    tent_atom_validate,
    tent_atomic_decomposition,
    tent_members,
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
        stamped = tent_members(d, grid, ball, ell, every)
        pointwise = d.closed_containment(ell, ball_scale, grid.points() - center)
        assert np.array_equal(stamped, pointwise)

    def test_off_lattice_center_uses_exact_test(self, d1):
        grid = uniform_grid([-4.0], [4.0], 64)
        ball = d1.ball([0.01], 1)
        every = np.arange(64)
        got = tent_members(d1, grid, ball, -1, every)
        # Interval oracle: |y - 0.01| + 1/4 <= 1 for B_-1 inside B_1.
        want = np.abs(grid.axes()[0] - 0.01) + 0.25 <= 1.0
        assert np.array_equal(got, want)


def _pasted_tent_members(d, grid, ball, ell, flat):
    """The pasted form of tent_members, the reference for the stamp rows: a
    full-grid copy of the stamp placed at the lattice centre, read at the
    flat indices."""
    centre = _lattice_index(grid, ball.center)
    stamp = _paste_centered(grid.resolution, tent_offset_mask(d, grid, ell, ball.scale), centre)
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
        got = _in_tent(d, grid, ball, window, layers, flat, _lattice_offsets(grid, ball.center, flat))
        want = [bool(_pasted_tent_members(d, grid, ball, window[0] + l, [f])[0]) for f, l in zip(flat, layers)]
        assert got.tolist() == want
        every = np.arange(size)
        for ell in range(window[0], window[1] + 1):
            want = _pasted_tent_members(d, grid, ball, ell, every)
            assert np.array_equal(tent_members(d, grid, ball, ell, every), want)

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
                assert np.array_equal(tent_members(d, grid, ball, ell, every), want)

    def test_offsets_beyond_the_stamp_are_outside(self):
        # B_0 fits at every offset of the capped B_6 stamp, up to its edge
        # at 63 cells, and nowhere beyond it.
        d, grid = _ROW_CASES["A=[2]"]
        offsets = np.array([[63], [-63], [64], [-64], [500]])
        got = _stamp_lookup(d, grid, 6, (0, 0), np.zeros(len(offsets), dtype=int), offsets)
        assert got.tolist() == [True, True, False, False, False]

    @given(case=st.sampled_from(sorted(_ROW_CASES)), data=st.data(), ball_scale=st.integers(-3, 2))
    def test_minimal_expansion_matches_pasted_stamps(self, case, data, ball_scale):
        d, grid = _ROW_CASES[case]
        ball = d.ball(_edge_biased_centre(data, grid), ball_scale)
        window = (-3, 0)
        size = int(np.prod(grid.resolution))
        flat = np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=12)), dtype=int)
        layers = np.array(data.draw(st.lists(st.integers(0, 3), min_size=len(flat), max_size=len(flat))), dtype=int)
        want = None
        for extra in range(min(10, d.level_cap - ball_scale - 1) + 1):
            grown = d.ball(ball.center, ball_scale + extra)
            if all(_pasted_tent_members(d, grid, grown, window[0] + l, [f])[0] for f, l in zip(flat, layers)):
                want = extra
                break
        assert _minimal_tent_expansion(d, grid, ball, window, layers, flat) == want


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
            covered |= ball_lattice_mask(g1, d1, cb.ball)
        assert np.all(covered[mask])
        for cb in balls:
            if cb.guarded:
                guard = d1.ball(cb.ball.center, cb.ball.scale + d1.omega)
                assert np.all(mask[ball_lattice_mask(g1, d1, guard)])

    def test_bounded_overlap(self, d1, g1):
        x = g1.axes()[0]
        mask = np.abs(x) < 2.0
        balls = whitney_cover(mask, d1, g1, (-8, 3))
        counts = np.zeros(g1.resolution)
        for cb in balls:
            counts += ball_lattice_mask(g1, d1, cb.ball)
        assert counts.max() <= 8


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
        d = new_dilation([[2.0, 1.0], [0.0, 2.0]])
        g = uniform_grid([-4.0, -4.0], [4.0, 4.0], (32, 32))
        G = _shear_blobs(g)
        masks = []
        real = tent_module.maximal_dilate

        def counting(mask, *args, **kwargs):
            masks.append(mask)
            return real(mask, *args, **kwargs)

        monkeypatch.setattr(tent_module, "maximal_dilate", counting)
        atoms = tent_atomic_decomposition(G, constant_exponent(g, 1.0), d)
        assert np.array_equal(atoms.covered_mask(), G.values != 0.0)
        last = min(e.level for e in atoms.entries)
        assert atoms.levels[0] < last
        # One dilation per nonempty level from the top down to the last
        # atom's level, and none below it.
        area = lusin_area(G, d).values
        want = [area > 2.0**j for j in range(atoms.levels[1], last - 1, -1)]
        want = [m for m in want if m.any()]
        assert len(masks) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(masks, want))

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
