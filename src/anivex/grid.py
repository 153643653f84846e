"""Uniform-lattice functions, quadrature, lattice sets of balls, footprint
sums, and scaled convolution.

Lattice points sit at cell midpoints; all integrals are midpoint sums, which
are exact for cell-aligned indicators and second order for smooth integrands.
Functions are zero outside their box.  This module alone decides which
lattice points lie in a ball (ball_support).  Every ball is anchored at its
nearest lattice point in the box (lattice_anchors), shifted from it by
centre - anchor, exactly 0.0 for a lattice centre; its lattice points are the
inside entries of the footprint row of its (scale, shift) at the anchor.
footprint_sum is the one, exact, correlation with a ball footprint;
fftconvolve_same, called by convolve_scaled alone, is the one FFT, on
numpy.fft.
"""

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .errors import ScaleTooFine


@dataclass(frozen=True)
class Grid:
    lower: tuple
    upper: tuple
    resolution: tuple

    def __post_init__(self):
        if any(r < 2 for r in self.resolution):
            raise ValueError("resolution must be >= 2 per axis")
        # The span in Python floats: numpy's subtraction warns when it overflows.
        if not all(np.isfinite(float(u) - float(l)) and u > l for l, u in zip(self.lower, self.upper)):
            raise ValueError("bounds must be finite, with upper exceeding lower, per axis")
        # Derived once, outside the fields, so equality and hashing stay on them.
        spacing = np.array([(u - l) / r for l, u, r in zip(self.lower, self.upper, self.resolution)])
        spacing.setflags(write=False)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "cell_volume", float(np.prod(spacing)))

    @property
    def n(self):
        return len(self.resolution)

    def axes(self):
        return [
            l + (np.arange(r) + 0.5) * h
            for l, r, h in zip(self.lower, self.resolution, self.spacing)
        ]

    def meshes(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    def points(self):
        """All lattice points as an (N, n) array in C order (memoized)."""
        cached = getattr(self, "_points", None)
        if cached is None:
            meshes = self.meshes()
            cached = np.stack([m.ravel() for m in meshes], axis=1)
            cached.setflags(write=False)
            object.__setattr__(self, "_points", cached)
        return cached

    def key(self):
        return (self.lower, self.upper, self.resolution)


def uniform_grid(lower, upper, resolution):
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if np.isscalar(resolution) or np.ndim(resolution) == 0:
        resolution = (int(resolution),) * len(lower)
    return Grid(tuple(lower), tuple(upper), tuple(int(r) for r in resolution))


@dataclass
class GridFunction:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != tuple(self.grid.resolution):
            raise ValueError(
                f"values shape {self.values.shape} != resolution {self.grid.resolution}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function values must be finite")

    def with_values(self, values):
        return GridFunction(self.grid, values)

    def __add__(self, other):
        return GridFunction(self.grid, self.values + _coerce(other, self.grid))

    def __sub__(self, other):
        return GridFunction(self.grid, self.values - _coerce(other, self.grid))

    def __mul__(self, other):
        return GridFunction(self.grid, self.values * _coerce(other, self.grid))

    __rmul__ = __mul__

    def __abs__(self):
        return GridFunction(self.grid, np.abs(self.values))


def _coerce(other, grid):
    if isinstance(other, GridFunction):
        if other.grid.key() != grid.key():
            raise ValueError("grid mismatch")
        return other.values
    return other


def sample(grid, fn):
    """Sample a vectorized callable of the mesh coordinate arrays."""
    return GridFunction(grid, np.asarray(fn(*grid.meshes()), dtype=float))


def constant(grid, value=1.0):
    return GridFunction(grid, np.full(grid.resolution, float(value)))


def integrate(f):
    """Midpoint quadrature over the whole box."""
    return f.values.sum() * f.grid.cell_volume


def dilation_cache(d):
    """The per-dilation memo of lattice sets: footprints, footprint blocks
    and ball supports here, tent stamps in the tent module.  Keys start with
    a kind tag and the grid key."""
    cache = getattr(d, "_lattice_cache", None)
    if cache is None:
        cache = {}
        d._lattice_cache = cache
    return cache


def anchored_offsets(d, grid, scale, shift):
    """(offsets, shape): z*h - shift in C order for the centred integer z
    covering B_scale's half-widths plus |shift|, capped at the grid's
    difference range: a ball's centre to the lattice points near its anchor."""
    offsets, shape = _offset_lattice(grid, d.ball_bounding_halfwidths(scale) + np.abs(shift))
    return offsets - shift, shape


def ball_footprint(d, grid, scale, shift=0.0):
    """Centred boolean array of integer offsets z with z*h - shift inside
    B_scale: the footprint of the balls shifted by shift from their anchors."""
    shift = np.zeros(grid.n) + shift  # one value per axis, and -0.0 as 0.0
    cache = dilation_cache(d)
    key = ("fp", grid.key(), scale, shift.tobytes())
    if key not in cache:
        offsets, shape = anchored_offsets(d, grid, scale, shift)
        cache[key] = d.ball_contains_many(d.ball(np.zeros(d.n), scale), offsets).reshape(shape)
    return cache[key]


def _footprint_blocks(d, grid, scale):
    """(half-widths, blocks) of the footprint of B_scale, cut into blocks of
    2^k cells along the last axis.

    Each run of footprint cells along the last axis splits by the binary
    digits of its length.  blocks[k] lists, for every block of 2^k cells, its
    corner in the source array that footprint_sum pads by the half-widths.
    The centre (form value 0) is in every footprint.  Cached beside it.
    """
    cache = dilation_cache(d)
    key = ("blocks", grid.key(), scale)
    if key not in cache:
        fp = ball_footprint(d, grid, scale)
        blocks = [[] for _ in range(fp.shape[-1].bit_length())]
        for lead in np.ndindex(fp.shape[:-1]):
            corner = tuple(s - 1 - i for s, i in zip(fp.shape, lead))
            edges = np.flatnonzero(np.diff(fp[lead], prepend=False, append=False))
            for first, stop in zip(edges[0::2], edges[1::2]):
                width, start = int(stop - first), fp.shape[-1] - int(stop)
                for k in range(width.bit_length()):
                    if width >> k & 1:
                        blocks[k].append(corner + (start,))
                        start += 1 << k
        while not blocks[-1]:
            blocks.pop()
        cache[key] = ([s // 2 for s in fp.shape], blocks)
    return cache[key]


def footprint_sum(values, d, grid, scale):
    """s(x) = sum_{v in footprint(B_scale)} values(x - v) for nonnegative
    grid values, zero beyond the box, and exactly 0.0 outside the reach box
    (the nonzero values' bounding box widened by the footprint's half-widths).

    The nonzero part is copied into a zero array padded by the half-widths,
    so every block of every reached cell lies inside it.  Pairwise sums in
    place along the last axis turn entry j into the sum of the 2^k cells
    from j on; each block then adds one shifted slice.  Only nonnegative
    terms are added, so integer values give exact counts.
    """
    out = np.zeros(grid.resolution)
    hit = np.nonzero(values)
    if not hit[0].size:
        return out
    half, blocks = _footprint_blocks(d, grid, scale)
    lo = [int(i.min()) for i in hit]
    hi = [int(i.max()) + 1 for i in hit]
    reach = tuple(slice(max(l - h, 0), min(u + h, n)) for l, u, h, n in zip(lo, hi, half, out.shape))
    shape = tuple(r.stop - r.start for r in reach)
    src = np.zeros(tuple(n + 2 * h for n, h in zip(shape, half)))
    inner = tuple(slice(l - r.start + h, u - r.start + h) for l, u, r, h in zip(lo, hi, reach, half))
    src[inner] = values[tuple(slice(l, u) for l, u in zip(lo, hi))]
    total = out[reach]  # a view: the blocks add into out
    for k, corners in enumerate(blocks):
        if k:  # numpy buffers the overlapping operands
            step = 1 << (k - 1)
            src[..., :-step] += src[..., step:]
        for corner in corners:
            total += src[tuple(slice(c, c + n) for c, n in zip(corner, shape))]
    return out


def lattice_anchors(grid, centres):
    """(index, shift) of the (m, n) centres: the multi-index of each one's
    anchor, its nearest lattice point in the box, and shift = centre - anchor,
    exactly 0.0 on every axis for a lattice point."""
    centres = np.asarray(centres, dtype=float)
    index = np.minimum(np.maximum(np.rint((centres - grid.lower) / grid.spacing - 0.5), 0), np.subtract(grid.resolution, 1)).astype(int)
    return index, centres - (grid.lower + (index + 0.5) * grid.spacing)


def _c_strides(shape):
    """Flat-index step of one unit along each axis of a C-order array."""
    return np.array([prod(shape[i + 1 :]) for i in range(len(shape))])


def ball_row(grid, d, ball):
    """The ball's footprint row at its anchor, the mask of its inside and
    its shift from the anchor: footprint_rows of the one ball."""
    index, shift = lattice_anchors(grid, ball.center[None])
    rows, inside = footprint_rows(grid, d, ball.scale, index, shift[0])
    return rows[0], inside[0], shift[0]


def ball_support(grid, d, ball):
    """Read-only flat C-order indices of the lattice points strictly inside
    the dilated ball, the inside entries of its ball_row; memoized per
    (grid, ball) and dilation."""
    cache = dilation_cache(d)
    key = ("support", grid.key(), ball.key())
    if key not in cache:
        row, inside, _ = ball_row(grid, d, ball)
        support = row[inside]
        support.setflags(write=False)
        cache[key] = support
    return cache[key]


def footprint_offsets(d, grid, scale, shift):
    """(offsets, steps, lo, hi): the footprint cells of B_scale shifted by
    shift (one lattice_anchors row) in C order as (n, K) integer offsets,
    one row per axis, and as flat C-order steps, and the box [lo, hi) of the
    anchors whose ball the box does not clip.  Cached."""
    cache = dilation_cache(d)
    key = ("offsets", grid.key(), scale, shift.tobytes())
    if key not in cache:
        fp = ball_footprint(d, grid, scale, shift)
        half = np.array(fp.shape) // 2
        offsets = np.argwhere(fp) - half
        cache[key] = (offsets.T.copy(), offsets @ _c_strides(grid.resolution), half, grid.resolution - half)
    return cache[key]


def footprint_rows(grid, d, scale, index, shift):
    """The balls of B_scale shifted by shift from the anchors at the (m, n)
    lattice multi-indices as rows of flat C-order indices, entry j the
    anchor plus the j-th footprint step (the anchor itself where the box
    clips it), and the mask of the inside."""
    offsets, steps, lo, hi = footprint_offsets(d, grid, scale, shift)
    centres = (index @ _c_strides(grid.resolution))[:, None]
    inside = np.ones((len(index), len(steps)), dtype=bool)
    if ((index >= lo) & (index < hi)).all():  # the box clips no row
        return centres + steps, inside
    for size, centre, offset in zip(grid.resolution, index.T, offsets):
        cells = centre[:, None] + offset
        inside &= (cells >= 0) & (cells < size)
    return np.where(inside, centres + steps, centres), inside


# The most footprint cells, rows times K, that one scale_stacks stack holds:
# its (rows, K) arrays set the peak memory of every stacked pass.  Each row
# is solved by itself, so the bound moves no bit.
_STACK_ENTRIES = 1 << 14


def scale_stacks(grid, d, balls):
    """The distinct balls that meet the lattice in stacks (scale, balls,
    rows, inside, shift): the balls of one scale and shift as footprint_rows
    at their anchors, at most _STACK_ENTRIES // K a stack for K footprint
    cells."""
    balls = list({ball.key(): ball for ball in balls}.values())
    index, shifts = lattice_anchors(grid, np.reshape([ball.center for ball in balls], (len(balls), grid.n)))
    stacks, memo = {}, dilation_cache(d)
    for i, ball in enumerate(balls):
        stacks.setdefault((ball.scale, shifts[i].tobytes()), []).append(i)
    for members in stacks.values():
        scale, shift = balls[members[0]].scale, shifts[members[0]]
        step = max(_STACK_ENTRIES // max(len(footprint_offsets(d, grid, scale, shift)[1]), 1), 1)
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            rows, inside = footprint_rows(grid, d, scale, index[chunk], shift)
            met = inside.any(axis=1)  # a shifted ball may miss every lattice point
            if not met.all():
                chunk, rows, inside = np.array(chunk)[met].tolist(), rows[met], inside[met]
            group = [balls[i] for i in chunk]
            for member, row, mask in zip(group, rows, inside):  # ball_support's memo, as it would fill it
                memo.setdefault(("support", grid.key(), member.key()), row[mask]).setflags(write=False)
            if group:
                yield scale, group, rows, inside, shift


def ball_lattice_mask(grid, d, ball):
    """Read-only boolean mask of lattice points strictly inside the dilated
    ball: the dense view of ball_support."""
    mask = np.zeros(grid.resolution, dtype=bool)
    mask.ravel()[ball_support(grid, d, ball)] = True
    mask.setflags(write=False)
    return mask


def boundary_margin(grid, width):
    """Indicator of lattice points at distance >= width from the box boundary."""
    masks = []
    for ax, l, u in zip(grid.axes(), grid.lower, grid.upper):
        masks.append((ax >= l + width) & (ax <= u - width))
    full = masks[0]
    for m in masks[1:]:
        full = np.multiply.outer(full, m)
    return GridFunction(grid, full.reshape(grid.resolution).astype(float))


def kernel_grid(spacing, halfwidth):
    """Symmetric grid with the given spacing whose midpoints are integer
    multiples of it; required for exact alignment in convolutions."""
    spacing = np.atleast_1d(np.asarray(spacing, dtype=float))
    halfwidth = np.broadcast_to(np.atleast_1d(np.asarray(halfwidth, dtype=float)), spacing.shape)
    m = np.maximum(np.ceil(halfwidth / spacing).astype(int), 1)
    lower = -(m + 0.5) * spacing
    upper = (m + 0.5) * spacing
    return Grid(tuple(lower), tuple(upper), tuple(2 * m + 1))


def _bump_derivative(order):
    """order-th derivative of the bump psi(u) = exp(-1/(1-u^2)) on (-1, 1),
    zero outside.

    psi^(n) = P_n psi / (1-u^2)^(2n) with P_0 = 1 and the exact recurrence
    P_{n+1} = (1-u^2)^2 P_n' + (4n u (1-u^2) - 2u) P_n.  On |u| < 1 - 1e-9
    the value is P_n(u) exp(-1/(1-u^2) - 2n log(1-u^2)): the vanishing
    factor and the blowing-up one share one exponent, so no inf * 0 arises.
    """
    u = np.polynomial.Polynomial([0.0, 1.0])
    gap = 1.0 - u**2
    poly = np.polynomial.Polynomial([1.0])
    for n in range(order):
        poly = gap**2 * poly.deriv() + (4 * n * u * gap - 2 * u) * poly

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0 - 1e-9
        t = x[inside]
        g = 1.0 - t**2
        out[inside] = poly(t) * np.exp(-1.0 / g - 2 * order * np.log(g))
        return out

    return fn


def bump_kernel(spacing, radius, order):
    """prod_i psi^(order)(x_i / radius), sampled on kernel_grid(spacing, radius)."""
    deriv = _bump_derivative(order)

    def tensor(*axes):
        out = np.ones_like(axes[0])
        for ax in axes:
            out = out * deriv(ax / radius)
        return out

    return sample(kernel_grid(spacing, radius), tensor)


def _offset_lattice(grid, halfwidths, pad=0):
    """Centred integer-offset lattice covering the halfwidths plus pad cells,
    capped at the full difference range of the grid.

    Returns the (N, n) offset points in C order and the array shape.
    """
    counts = [
        min(int(np.ceil(hw / h)) + pad, r - 1)
        for h, hw, r in zip(grid.spacing, halfwidths, grid.resolution)
    ]
    axes = [np.arange(-c, c + 1) for c in counts]
    meshes = np.meshgrid(*[a * h for a, h in zip(axes, grid.spacing)], indexing="ij")
    return np.stack([m.ravel() for m in meshes], axis=1), tuple(len(a) for a in axes)


def _box_corners(kernel):
    """Corners of a kernel's centred box, one per column."""
    half = [0.5 * (u - l) for l, u in zip(kernel.grid.lower, kernel.grid.upper)]
    return np.array(np.meshgrid(*[(-w, w) for w in half], indexing="ij")).reshape(len(half), -1)


def _cancel_discrete_moments(kernel_vals, offset_points, order):
    """Subtract a polynomial on the kernel support so that all discrete
    moments up to the given order vanish exactly on the lattice."""
    from .polyproj import _design_matrix, multi_indices

    support = kernel_vals.ravel() != 0.0
    if not support.any():
        return kernel_vals
    pts = offset_points[support]
    basis = _design_matrix(pts, multi_indices(pts.shape[1], order))
    gram = basis.T @ basis
    moments = basis.T @ kernel_vals.ravel()[support]
    coef, *_ = np.linalg.lstsq(gram, moments, rcond=None)
    corrected = kernel_vals.ravel().copy()
    corrected[support] -= basis @ coef
    return corrected.reshape(kernel_vals.shape)


def scaled_kernel_samples(kernel, d, k, grid, moment_cancel=None):
    """Sample b^k * kernel(A^k z) on the integer-offset lattice of the grid."""
    scaled_corners = np.linalg.solve(d.power(k), _box_corners(kernel))
    halfwidths = np.abs(scaled_corners).max(axis=1)
    if np.max(2.0 * halfwidths) < np.min(grid.spacing):
        raise ScaleTooFine(f"support of the scale-{k} kernel is below one cell")

    offsets, shape = _offset_lattice(grid, halfwidths, pad=1)
    mapped = offsets @ d.power(k).T
    idx = [
        (mapped[:, i] - kernel.grid.lower[i]) / kernel.grid.spacing[i] - 0.5
        for i in range(grid.n)
    ]
    vals = (d.bpow(k) * _interpolate_linear(kernel.values, np.stack(idx))).reshape(shape)
    if moment_cancel is not None:
        vals = _cancel_discrete_moments(vals, offsets, moment_cancel)
    return vals


def _interpolate_linear(values, coords):
    """Multilinear interpolation of values at the fractional indices coords
    (one row per axis), 0.0 where a coordinate lies outside [0, len - 1].

    Each point adds up its 2^n corner terms ((value * w_0) * w_1) ... in
    product((0, 1), ...) order from 0.0, as
    scipy.ndimage.map_coordinates(order=1, cval=0.0) does, so the bits are
    the same.
    """
    top = np.array(values.shape) - 1
    inside = np.all((coords >= 0.0) & (coords <= top[:, None]), axis=0)
    coords = coords[:, inside]
    base = np.floor(coords)
    frac = coords - base
    base = base.astype(int)
    total = np.zeros(coords.shape[1])
    for corner in product((0, 1), repeat=values.ndim):
        # The upper neighbour of an index on the top edge has weight 0.
        term = values[tuple(np.minimum(b + c, t) for b, c, t in zip(base, corner, top))]
        for w, c in zip(frac, corner):
            term = term * (w if c else 1.0 - w)
        total += term
    out = np.zeros(inside.shape)
    out[inside] = total
    return out


def _fast_len(n):
    """Smallest 5-smooth integer 2^i 3^j 5^k >= n: scipy.fft.next_fast_len(n, real=True)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def fftconvolve_same(a, b):
    """Linear convolution of real arrays a and b, centre-cropped to a's shape.

    An axis where either operand has length 1 is multiplied by broadcasting;
    the others are transformed at 5-smooth sizes, then the full product is
    cropped.  The transforms are the one-axis numpy.fft calls that
    scipy.signal.fftconvolve(a, b, mode="same") makes through scipy.fft, in
    its order, so the bits are the same (numpy's rfftn and irfftn, which
    differ in order and scaling, move the last bits): rfft on the last axis,
    then fft on the others ascending; unscaled ifft on all but the last
    ascending, unscaled irfft on the last, then one multiply by 1/size.
    """
    axes = [i for i in range(a.ndim) if a.shape[i] != 1 and b.shape[i] != 1]
    full = [m + n - 1 if i in axes else max(m, n) for i, (m, n) in enumerate(zip(a.shape, b.shape))]
    start = [(m - n) // 2 for m, n in zip(full, a.shape)]
    crop = tuple(slice(s, s + n) for s, n in zip(start, a.shape))
    if not axes:
        return (a * b)[crop].copy()
    fshape = [_fast_len(full[i]) for i in axes]

    def spectrum(x):
        x = np.fft.rfft(x, fshape[-1], axis=axes[-1])
        for i, n in zip(axes[:-1], fshape[:-1]):
            x = np.fft.fft(x, n, axis=i)
        return x

    ret = spectrum(a) * spectrum(b)
    for i in axes[:-1]:
        ret = np.fft.ifft(ret, axis=i, norm="forward")
    ret = np.fft.irfft(ret, fshape[-1], axis=axes[-1], norm="forward")
    return ret[crop] * (1.0 / prod(fshape))


def convolve_scaled(f, kernel, d, k, moment_cancel=None):
    """Discrete f * phi_k with phi_k(x) = b^k * kernel(A^k x).

    The kernel is resampled on the grid's offset lattice by linear
    interpolation and the sum is scaled by the cell volume.  With
    moment_cancel=s the resampled kernel is corrected to annihilate sampled
    polynomials of degree <= s exactly.
    """
    vals = scaled_kernel_samples(kernel, d, k, f.grid, moment_cancel=moment_cancel)
    conv = fftconvolve_same(f.values, vals) * f.grid.cell_volume
    return GridFunction(f.grid, conv)
