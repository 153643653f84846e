"""Independent checks for the benchmark workloads.

Nothing here calls into anivex: every reference value is recomputed with
plain numpy from the generated inputs and the geometry's defining data
(matrix A, shape matrix P, level c, so that B_k = {x : x' M_k x < c} with
M_k = A^-k' P A^-k), or is a property the method must have.  A check
raises CheckFailure with a message naming what disagreed.
"""

import math

import numpy as np


class CheckFailure(Exception):
    """A program output disagreed with its independent check."""


def require(condition, message):
    if not condition:
        raise CheckFailure(message)


def require_close(actual, expected, rtol, what):
    actual = float(actual)
    expected = float(expected)
    require(
        math.isfinite(actual) and abs(actual - expected) <= rtol * max(abs(expected), 1e-300),
        f"{what}: {actual!r} differs from the reference {expected!r} (rtol {rtol:g})",
    )


def require_within(actual, lo, hi, rtol, what):
    """lo <= actual <= hi up to rtol; lo == hi unless the reference is ambiguous."""
    actual = float(actual)
    require(
        math.isfinite(actual) and lo - rtol * abs(lo) <= actual <= hi + rtol * abs(hi),
        f"{what}: {actual!r} outside the reference [{lo!r}, {hi!r}] (rtol {rtol:g})",
    )


# -- lattice and geometry ------------------------------------------------------


def lattice_axes(lower, upper, resolution):
    """Cell midpoints per axis."""
    return [
        lo + (np.arange(r) + 0.5) * ((hi - lo) / r)
        for lo, hi, r in zip(lower, upper, resolution)
    ]


def lattice_points(lower, upper, resolution):
    meshes = np.meshgrid(*lattice_axes(lower, upper, resolution), indexing="ij")
    return np.stack([m.ravel() for m in meshes], axis=1)


def form_matrix(matrix, shape, k):
    """M_k = A^-k' P A^-k, the quadratic form of B_k."""
    inv = np.linalg.matrix_power(np.asarray(matrix, dtype=float), -int(k))
    return inv.T @ np.asarray(shape, dtype=float) @ inv


def form_values(points, matrix, shape, k):
    m = form_matrix(matrix, shape, k)
    pts = np.atleast_2d(points)
    return np.einsum("ij,jk,ik->i", pts, m, pts)


def ball_mask(points, center, scale, matrix, shape, level_c):
    """Lattice points strictly inside center + B_scale."""
    return form_values(points - np.asarray(center, dtype=float), matrix, shape, scale) < level_c


def boundary_samples(matrix, shape, level_c, scale, angles=720):
    """Points on the boundary of B_scale: A^l u with u'Pu = c."""
    shape = np.asarray(shape, dtype=float)
    n = shape.shape[0]
    if n == 1:
        dirs = np.array([[-1.0], [1.0]])
    elif n == 2:
        t = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
        dirs = np.stack([np.cos(t), np.sin(t)], axis=1)
    else:
        raise ValueError("boundary sampling is implemented for n <= 2")
    chol = np.linalg.cholesky(shape)  # P = L L'
    u = np.sqrt(level_c) * np.linalg.solve(chol.T, dirs.T).T
    return u @ np.linalg.matrix_power(np.asarray(matrix, dtype=float), int(scale)).T


def sampled_containment_max(matrix, shape, level_c, inner_scale, outer_scale, offsets, angles=720):
    """Max of the outer form over sampled boundary points of each inner ball.

    offsets are inner-centre minus outer-centre rows.  In 1-D the two
    endpoints give the exact maximum; in 2-D it is a lower bound of it.
    """
    bnd = boundary_samples(matrix, shape, level_c, inner_scale, angles)
    m = form_matrix(matrix, shape, outer_scale)
    offs = np.atleast_2d(np.asarray(offsets, dtype=float))
    pts = offs[:, None, :] + bnd[None, :, :]
    vals = np.einsum("qsi,ij,qsj->qs", pts, m, pts)
    return vals.max(axis=1)


def check_containment_upper_bound(values, sampled_max, level_c, what="containment"):
    """Containment values must bound the sampled outer form from above."""
    values = np.asarray(values, dtype=float)
    slack = values - sampled_max * (1.0 - 1e-9) + 1e-12 * level_c
    require(values.shape == sampled_max.shape, f"{what}: {values.shape} values for {sampled_max.shape} queries")
    worst = int(np.argmin(slack)) if slack.size else 0
    require(
        slack.size == 0 or slack[worst] >= 0.0,
        f"{what}: value {values.flat[worst]!r} is below the sampled boundary maximum "
        f"{sampled_max.flat[worst]!r}, so containment is over-claimed",
    )


# -- Luxemburg norm ------------------------------------------------------------


def modular(abs_values, p_values, cell_volume, lam):
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.sum((abs_values / lam) ** p_values) * cell_volume)


def check_unit_modular(norm, values, p_values, cell_volume, what="luxemburg_norm"):
    """norm must close the unit-modular bracket: modular(f/norm) <= 1 < modular(f/(norm(1-1e-9)))."""
    a = np.abs(np.asarray(values, dtype=float)).ravel()
    pv = np.broadcast_to(np.asarray(p_values, dtype=float), np.shape(values)).ravel()
    norm = float(norm)
    require(math.isfinite(norm) and norm > 0.0, f"{what}: norm {norm!r} is not a positive number")
    at = modular(a, pv, cell_volume, norm)
    below = modular(a, pv, cell_volume, norm * (1.0 - 1e-9))
    require(at <= 1.0 + 1e-12, f"{what}: modular(f/norm) = {at!r} > 1")
    require(below > 1.0, f"{what}: modular(f/(norm(1-1e-9))) = {below!r} <= 1, so the norm is too large")


def luxemburg(values, p_values, cell_volume):
    """inf{lam: modular(f/lam) <= 1}, bracketed and bisected to 1e-14."""
    a = np.abs(np.asarray(values, dtype=float)).ravel()
    keep = a > 0.0
    if not keep.any():
        return 0.0
    a = a[keep]
    pv = np.broadcast_to(np.asarray(p_values, dtype=float), np.shape(values)).ravel()[keep]
    lo = hi = float(a.max())
    while modular(a, pv, cell_volume, lo) <= 1.0:
        lo /= 2.0
    while modular(a, pv, cell_volume, hi) > 1.0:
        hi *= 2.0
    for _ in range(200):
        if hi - lo <= 1e-14 * hi:
            break
        mid = 0.5 * (lo + hi)
        if modular(a, pv, cell_volume, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


# -- projections ---------------------------------------------------------------


def monomial_design(local_points, degree):
    """Columns x^gamma for |gamma| <= degree (any order)."""
    n = local_points.shape[1]
    cols = []
    for gamma in np.ndindex(*([degree + 1] * n)):
        if sum(gamma) <= degree:
            col = np.ones(local_points.shape[0])
            for axis, power in enumerate(gamma):
                col = col * local_points[:, axis] ** power
            cols.append(col)
    return np.stack(cols, axis=1)


def projection_residual(points, values, center, scale, matrix, degree):
    """|f - P f| on the ball's lattice points for the L^2 projection P,
    solved by least squares in ball-local coordinates."""
    a_inv = np.linalg.matrix_power(np.asarray(matrix, dtype=float), -int(scale))
    local = (points - np.asarray(center, dtype=float)) @ a_inv.T
    design = monomial_design(local, degree)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return np.abs(values - design @ coef)


# -- search ----------------------------------------------------------------------


def scale_window(b, cell_volume, box_volume, min_points, level_cap=40):
    """Ball scales from min_points cells up to the box volume."""
    k_min = math.ceil(math.log(min_points * cell_volume) / math.log(b))
    k_max = math.floor(math.log(box_volume) / math.log(b))
    k_min = max(k_min, -(level_cap - 1))
    return k_min, min(max(k_max, k_min), level_cap - 1)


def canonical_sweep(axes, window, strides=16):
    """Single-ball candidates in the search's documented scan order: scale
    by scale, grid-aligned centres in C order."""
    picks = []
    for ax in axes:
        step = max(len(ax) // strides, 1)
        picks.append(ax[step // 2 :: step])
    meshes = np.meshgrid(*picks, indexing="ij")
    centers = np.stack([m.ravel() for m in meshes], axis=1)
    return [(c, k) for k in range(window[0], window[1] + 1) for c in centers]


def check_search_dominates(value, single_values, what="search"):
    """A certified lower bound over a stream that starts with the single
    balls must be at least every single-ball value it swept."""
    best = max(single_values) if single_values else -math.inf
    require(
        math.isfinite(value) and value >= best * (1.0 - 1e-9),
        f"{what}: value {value!r} is below the swept single-ball value {best!r}",
    )


# -- 1-D tents -------------------------------------------------------------------


def tent_mass_1d(mu_values, l_min, axis, cell_volume, center, scale):
    """Mass of mu over the closed tent of center + B_scale for A = [2].

    B_k is the interval of half-width 2^(k-1), so (y, l) lies in the tent
    iff |y - x| + 2^(l-1) <= 2^(k-1).  Lattice points, centres and radii are
    dyadic rationals with few bits, so the float comparison is exact; that
    is asserted rather than assumed.
    """
    dist = np.abs(axis - center)
    require(np.all(dist * 2.0**20 == np.round(dist * 2.0**20)), "tent arithmetic needs dyadic lattice points")
    total = 0.0
    for i, layer in enumerate(mu_values):
        ell = l_min + i
        inside = dist + 2.0 ** (ell - 1) <= 2.0 ** (scale - 1)
        total += float(layer[inside].sum())
    return total * cell_volume


def check_tent_mass(program_mass, mu_values, l_min, axis, cell_volume, center, scale):
    ref = tent_mass_1d(mu_values, l_min, axis, cell_volume, center, scale)
    require(
        abs(program_mass - ref) <= 1e-12 * max(abs(ref), 1e-300) + 1e-300,
        f"tent_mass at centre {center!r}, scale {scale}: {program_mass!r} != interval arithmetic {ref!r}",
    )


# -- tent atoms ------------------------------------------------------------------


def check_tent_atoms(values, entries, leakage_ratio, cell_volume, leakage_bound=0.01):
    """entries: (node_indices, g_values, weight, amplitude) per atom.

    Supports must be disjoint, the claimed samples must be G's own samples
    (so the reconstruction is bitwise), weight * amplitude must be one, and
    the reported leakage must equal the uncovered share of the mass.
    """
    flat = np.asarray(values).ravel()
    counts = np.zeros(flat.size, dtype=np.int64)
    recon = np.zeros(flat.size)
    for nodes, g_values, weight, amplitude in entries:
        counts[nodes] += 1
        recon[nodes] = g_values
        require(
            abs(weight * amplitude - 1.0) <= 1e-12,
            f"tent atom weight * amplitude = {weight * amplitude!r}, not one",
        )
    require(counts.max(initial=0) <= 1, "tent atoms overlap: some node is claimed twice")
    covered = counts > 0
    require(
        np.array_equal(recon[covered], flat[covered]),
        "tent atom reconstruction is not bitwise equal to G on covered nodes",
    )
    support = flat != 0.0
    total = float(np.abs(flat).sum() * cell_volume)
    leaked = float(np.abs(flat[support & ~covered]).sum() * cell_volume)
    ref = leaked / total if total > 0 else 0.0
    require(
        abs(leakage_ratio - ref) <= 1e-12 * max(ref, 1e-300) + 1e-15,
        f"leakage ratio {leakage_ratio!r} != uncovered mass share {ref!r}",
    )
    require(ref <= leakage_bound, f"leakage {ref!r} above the bound {leakage_bound}")


# -- properties of single outputs ------------------------------------------------


def check_slack(value, what, floor=-1e-8):
    require(math.isfinite(value) and value >= floor, f"{what}: slack {value!r} < {floor:g}")


def check_not_above(refined, projection, what):
    """A refined infimum may not exceed the projection value it started from."""
    require(
        math.isfinite(refined) and refined <= projection * (1.0 + 1e-12),
        f"{what}: refined value {refined!r} exceeds the projection value {projection!r}",
    )


def check_homogeneity(value, scaled_value, factor, what):
    """Degree-one homogeneity; a zero value would make the check vacuous."""
    require(value > 0.0, f"{what}: value {value!r} is not positive, homogeneity would be vacuous")
    require(
        abs(scaled_value - factor * value) <= 1e-8 * factor * value,
        f"{what}: value for {factor:g}x the input is {scaled_value!r}, not {factor:g} x {value!r}",
    )


def check_chain(report, pairing):
    """Reproducing-pair chain: finite fields, signed slacks >= -1e-8, exact
    reconstruction on covered nodes, and the pairing recomputed here."""
    for field in ("pairing", "truncated_pairing", "triangle_slack", "cauchy_schwarz_slack",
                  "reconstruction_residual", "defect_normalized"):
        require(math.isfinite(getattr(report, field)), f"duality chain: {field} is not finite")
    check_slack(report.triangle_slack, "duality chain triangle")
    check_slack(report.cauchy_schwarz_slack, "duality chain Cauchy-Schwarz")
    require(report.reconstruction_residual == 0.0,
            f"duality chain: reconstruction residual {report.reconstruction_residual!r} on covered nodes")
    require(report.defect_normalized <= 0.05, f"duality chain: defect {report.defect_normalized!r} > 0.05")
    require_close(report.pairing, pairing, 1e-12, "duality chain pairing")


# -- serialization ---------------------------------------------------------------


def avxs_size(ndim, nscales, resolution):
    """AVXS v1: 15-byte header, 20 bytes per axis, float64 values."""
    return 15 + 20 * ndim + 8 * nscales * int(np.prod(resolution))


def check_file_size(path_size, expected, what):
    require(path_size == expected, f"{what}: file has {path_size} bytes, layout says {expected}")


def check_bitwise(loaded, saved, what):
    loaded = np.asarray(loaded)
    saved = np.asarray(saved)
    require(
        loaded.shape == saved.shape and loaded.dtype == saved.dtype
        and loaded.tobytes() == saved.tobytes(),
        f"{what}: loaded block is not bitwise equal to the saved one",
    )


def check_cache_hit(was_cached, first, second):
    """A repeated run must be served from the cache with the same bytes."""
    require(was_cached is True, "repeated run_config was not served from the cache")
    require(first == second, f"cached report differs from the computed one ({len(first)} vs {len(second)} bytes)")
