"""Carleson functionals on scale-space densities, analyzing functions, and
the reproducing-pair checks tying pairings to tent masses.

The Carleson value of a density mu is the supremum over weighted ball
configurations of the aggregation quotient built from square roots of tent
masses; as with the oscillation norms, the search reports a certified lower
bound.  Analyzing functions are derivative tensors of the smooth bump
psi(u) = exp(-1/(1-u^2)), so their moments vanish analytically, and their
Fourier transforms stay bounded below on the step-norm annulus by
construction (measured, with one retry at a narrower width).  The
derivatives come from the exact recurrence psi^(n) = P_n psi / (1-u^2)^(2n),
P_0 = 1, P_{n+1} = (1-u^2)^2 P_n' + (4n u (1-u^2) - 2u) P_n
(grid._bump_derivative).

The kernel's transform phi-hat, at the annulus samples and at the dilated
FFT frequencies (A^T)^l xi of every scale of the duality check, is one
polynomial in z_i = exp(-2 pi i h_i xi_i) on the kernel's lattice, summed
by nested Horner (_fourier_at): n + 1 exponentials per frequency, none per
kernel point.

Every Carleson term, of carleson_functional (campanato.family_supremum)
and of carleson_prefix_check (campanato.prefix_quotients), is
_carleson_terms': fill_indicator_norms, then tent_masses.  tent_masses
reads every ball's tent columns from the stamp rows of its scale and shift
(tent module), whatever the centre; tent_mass is its one-ball stack.  The
duality check's Cauchy-Schwarz loop reads its atoms' tent masses from it.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .campanato import family_supremum, prefix_quotients
from .errors import FourierBoundFailure
from .exponents import fill_indicator_norms, indicator_norm
from .grid import (
    _box_corners,
    _cancel_discrete_moments,
    boundary_margin,
    bump_kernel,
    convolve_scaled,
    footprint_offsets,
    integrate,
    sample,
    scale_stacks,
)
from .polyproj import moments as poly_moments
from .tent import (
    ScaleFunction,
    _stamp_lookup,
    area_l2_weights,
    tent_atomic_decomposition,
)

__all__ = [
    "tent_mass",
    "tent_masses",
    "carleson_functional",
    "carleson_prefix_check",
    "build_analyzing_function",
    "carleson_from_function",
    "carleson_duality_check",
    "band_limited_pair",
]


def tent_mass(mu, d, ball):
    """integral of mu over the tent of the ball (counting x Lebesgue): the
    one-ball stack of tent_masses."""
    return tent_masses(mu, d, [ball])[0]


def tent_masses(mu, d, balls):
    """The tent masses of a list of balls, a (scale, shift) at a time on the
    stacks of grid.scale_stacks: per layer, mu over the tent columns of each
    ball's row, summed in row order, a column the box clips counting 0.0.
    A ball that meets no lattice point has mass 0.0.

    A stack's tent columns are one stamp-row lookup at its footprint
    offsets, shared by every row; each layer is one gather of the tent
    columns and one row sum.
    """
    grid = mu.grid
    layer_values = mu.values.reshape(mu.values.shape[0], -1)
    layers = np.arange(layer_values.shape[0])[:, None]
    masses, tents = {}, {}
    for scale, group, rows, inside, shift in scale_stacks(grid, d, balls):
        key = (scale, shift.tobytes())
        if key not in tents:  # each layer's tent columns of the footprint rows
            offsets = footprint_offsets(d, grid, scale, shift)[0].T
            tents[key] = [np.flatnonzero(stamp) for stamp in _stamp_lookup(d, grid, scale, (mu.l_min, mu.l_max), layers, offsets, shift)]
        totals = np.zeros(len(group))
        for values, cols in zip(layer_values, tents[key]):
            totals += (values.take(rows.take(cols, axis=1)) * inside.take(cols, axis=1)).sum(axis=1)
        totals *= grid.cell_volume
        masses.update(zip((ball.key() for ball in group), totals.tolist()))
    return [masses.get(ball.key(), 0.0) for ball in balls]


def _carleson_terms(mu, p, d, balls):
    """sqrt(|B|) / ||1_B|| * sqrt(tent mass of mu over B) by ball key, for
    the balls that meet the lattice, from stacks."""
    live = fill_indicator_norms(d, balls, p)
    return {
        ball.key(): np.sqrt(d.ball_volume(ball)) / indicator_norm(d, ball, p) * np.sqrt(mass)
        for ball, mass in zip(live, tent_masses(mu, d, live))
    }


def carleson_functional(mu, p, d, eta=None, budget=200, seed=0):
    """Certified lower bound of the Carleson configuration supremum for a
    nonnegative density mu; the terms are _carleson_terms' (family_supremum)."""
    if np.any(mu.values < 0.0):
        raise ValueError("carleson density must be nonnegative")
    if eta is None:
        eta = p.underline_p
    return family_supremum(partial(_carleson_terms, mu, p, d), p, eta, d, mu.grid, budget, seed, 1)


def carleson_prefix_check(mu, entries, p, d, eta=None):
    """Finite-vs-countable agreement along a truncated configuration family:
    converged when the last 20 prefix values stay within 1e-6 of the final one."""
    if eta is None:
        eta = p.underline_p
    values, tail = prefix_quotients(entries, partial(_carleson_terms, mu, p, d), p, eta, d)
    return values, bool(tail < 1e-6), tail


# -- analyzing functions --------------------------------------------------------

@dataclass
class AnalyzingReport:
    moments: np.ndarray
    fourier_lower_bound: float
    annulus: tuple
    width: float


def _fourier_at(phi, freqs):
    """Semidiscrete transform cell * sum_j v_j exp(-2 pi i x_j . xi) of a
    kernel at the rows of freqs, summed by nested Horner on its lattice.

    With x_j = x_0 + j o h the sum is exp(-2 pi i x_0 . xi) times the
    polynomial sum_j v_j prod_i z_i^(j_i) in z_i = exp(-2 pi i h_i xi_i),
    evaluated one axis at a time from the last: n + 1 exponentials per
    frequency and one complex multiply-add per kernel point.  The
    frequencies need not lie on any lattice.

    Forward error, for m_i points per axis, K = prod m_i points and
    J = sum (m_i - 1) the largest power: with |z_i| = 1 Horner perturbs each
    term by at most gamma_2J <= gamma_2K (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 5.1; complex products add a small
    constant factor), and a relative error delta in each computed z_i
    perturbs z^j by at most J * delta.  Together
    |computed - exact| <~ (gamma_2K + J * delta) * cell * sum_j |v_j|,
    where delta is a few ulps times (1 + 2 pi max_i |h_i xi_i|).
    """
    freqs = np.atleast_2d(freqs)
    grid = phi.grid
    x0 = np.array([ax[0] for ax in grid.axes()])
    z = np.exp(-2j * np.pi * freqs * grid.spacing)
    acc = phi.values[None]
    for axis in reversed(range(grid.n)):
        step = z[:, axis].reshape((-1,) + (1,) * axis)
        total = np.empty(np.broadcast_shapes(step.shape, acc.shape[:-1]), dtype=complex)
        total[...] = acc[..., -1]
        for j in range(acc.shape[-1] - 2, -1, -1):
            total *= step
            total += acc[..., j]
        acc = total
    return acc * np.exp(-2j * np.pi * (freqs @ x0)) * grid.cell_volume


def build_analyzing_function(d, s, grid):
    """Compactly supported kernel with s vanishing moments and a measured
    Fourier lower bound on the step-norm annulus, the minimum over 64 seeded
    annulus samples.

    The kernel is a tensor product of (s+1)-fold bump derivatives scaled
    into the unit ball B_0; moments through order s vanish analytically per
    axis, and the sampled kernel is corrected so the discrete moments vanish
    exactly on its own lattice.
    """
    a_norm = float(np.linalg.norm(d.matrix))  # Frobenius
    rho_lo = 1.0 / (2.0 * a_norm)

    lam_max = float(np.linalg.eigvalsh(d.shape).max())
    base_width = 0.9 * np.sqrt(d.level_c / (d.n * lam_max))

    last_error = None
    for shrink in (1.0, 0.7):
        w = base_width * shrink
        phi = bump_kernel(grid.spacing, w, s + 1)
        peak = float(np.max(np.abs(phi.values)))
        if peak == 0.0:
            raise FourierBoundFailure("kernel sampled to zero; grid too coarse")
        phi = phi.with_values(phi.values / peak)
        phi = phi.with_values(_cancel_discrete_moments(phi.values, phi.grid.points(), s))

        rng = np.random.default_rng(77)
        half1 = d.ball_bounding_halfwidths(1)
        # Batches of draws, kept in order: the same samples as one draw each.
        kept = []
        while sum(map(len, kept)) < 64:
            xi = rng.uniform(-1.0, 1.0, size=(64, d.n)) * half1
            rho = d.step_quasi_norm_many(xi)
            kept.append(xi[(rho_lo <= rho) & (rho <= 1.0)])
        samples = np.concatenate(kept)[:64]
        c_measured = float(np.min(np.abs(_fourier_at(phi, samples))))
        if c_measured >= 1e-6:
            report = AnalyzingReport(
                moments=poly_moments(phi, s),
                fourier_lower_bound=c_measured,
                annulus=(rho_lo, 1.0),
                width=w,
            )
            return phi, report
        last_error = c_measured
    raise FourierBoundFailure(
        f"Fourier lower bound {last_error:.3g} < 1e-6 after width retry"
    )


def _convolution_layers(b, phi, d, scale_window, moment_cancel):
    """Scale function (y, l) -> (phi_-l * b)(y) over the window."""
    l_min, l_max = scale_window
    layers = [
        convolve_scaled(b, phi, d, -ell, moment_cancel=moment_cancel).values
        for ell in range(l_min, l_max + 1)
    ]
    return ScaleFunction(b.grid, l_min, l_max, np.stack(layers))


def carleson_from_function(b, phi, d, scale_window, moment_cancel=None):
    """Density (y, l) -> |(phi_-l * b)(y)|^2 as a scale function."""
    conv = _convolution_layers(b, phi, d, scale_window, moment_cancel)
    return conv.with_values(np.abs(conv.values) ** 2)


# -- reproducing pair check -----------------------------------------------------


def _fft_frequencies(grid):
    axes = [np.fft.fftfreq(r, d=h) for r, h in zip(grid.resolution, grid.spacing)]
    meshes = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in meshes], axis=1)


def _semidiscrete_fft(f):
    """Transform values at the grid's FFT frequencies, with midpoint phases."""
    grid = f.grid
    freqs = _fft_frequencies(grid)
    spectrum = np.fft.fftn(f.values).ravel()
    x0 = np.array([ax[0] for ax in grid.axes()])
    phase = np.exp(-2j * np.pi * (freqs @ x0))
    return spectrum * phase * grid.cell_volume, freqs


def _synthesize(grid, coefficients):
    """Inverse of _semidiscrete_fft for coefficient arrays on FFT frequencies."""
    freqs = _fft_frequencies(grid)
    x0 = np.array([ax[0] for ax in grid.axes()])
    phase = np.exp(2j * np.pi * (freqs @ x0))
    shaped = (coefficients * phase).reshape(grid.resolution)
    return np.fft.ifftn(shaped) / grid.cell_volume


def band_limited_pair(grid, seed=0, mode_span=(0.3, 1.0), correlated=False):
    """Two modulated Gaussian bumps (standard deviation 1.8) with spectra
    concentrated in a mid band.

    With correlated=True the second function shares the first one's carrier,
    which keeps the pairing itself well away from zero.
    """
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-0.5, 0.5, size=grid.n)
    x1 = rng.uniform(-0.5, 0.5, size=grid.n)
    f0 = rng.uniform(*mode_span)
    f1 = f0 if correlated else rng.uniform(*mode_span)

    def envelope(meshes, center):
        r2 = sum((m - c) ** 2 for m, c in zip(meshes, center))
        return np.exp(-r2 / (2.0 * 1.8**2))

    def make(center, freq, phase):
        def fn(*meshes):
            wave = np.cos(2 * np.pi * freq * sum(meshes) + phase)
            return envelope(meshes, center) * wave

        return sample(grid, fn)

    phase0 = rng.uniform(0, np.pi)
    phase1 = phase0 if correlated else rng.uniform(0, np.pi)
    return make(x0, f0, phase0), make(x1, f1, phase1)


@dataclass
class ReproducingReport:
    pairing: float
    truncated_pairing: float
    defect: float
    defect_normalized: float
    triangle_slack: float
    cauchy_schwarz_slack: float
    reconstruction_residual: float
    leak_fraction: float
    fubini_ratio_range: tuple
    size_ratio_max: float
    tent_bound_total: float
    leakage_ratio: float
    phi_side_interior_max: float

    @property
    def passed(self):
        return (
            self.triangle_slack >= -1e-8
            and self.cauchy_schwarz_slack >= -1e-8
            and self.reconstruction_residual <= 1e-8
        )


def carleson_duality_check(f_rep, b, phi, d, p, scale_window, moment_cancel=None):
    """Reproducing defect and pairing-vs-tent-mass chain for a pair (f, b).

    The synthesis partner is built in the discrete frequency domain as
    conj(phi-hat) over the windowed squared sum, zero where that sum is at
    most 1e-8 of its maximum, so the measured defect is exactly the
    truncation error of the window.  The chain steps asserted with signed
    slack are the ones that are identities or finite-sum inequalities on the
    lattice; Fubini and atom-size ratios are measured and reported.
    """
    grid = b.grid
    f = f_rep.function()
    l_min, l_max = scale_window

    pairing = float(integrate(f * b))

    # phi side: physical convolutions (these also define the density d-mu).
    phi_side = _convolution_layers(b, phi, d, scale_window, moment_cancel)
    mu = phi_side.with_values(np.abs(phi_side.values) ** 2)

    # Interior maximum of the phi-side field, outside all convolution edges.
    corners = _box_corners(phi)
    extent = max(float(np.abs(d.power(ell) @ corners).max()) for ell in range(l_min, l_max + 1))
    box_half = 0.5 * float(
        np.min(np.asarray(grid.upper) - np.asarray(grid.lower))
    )
    interior = boundary_margin(grid, min(1.05 * extent, 0.9 * box_half)).values > 0
    phi_interior_max = float(np.max(np.abs(phi_side.values[:, interior]), initial=0.0))

    # psi side: truncated frequency-domain partner applied to f.
    # phi-hat at (A^T)^l xi for every scale, in one transform call.
    f_hat, freqs = _semidiscrete_fft(f)
    scaled = np.concatenate(
        [freqs @ np.linalg.matrix_power(d.matrix.T, ell).T for ell in range(l_min, l_max + 1)]
    )
    phi_hat = _fourier_at(phi, scaled).reshape(l_max - l_min + 1, len(freqs))
    window_sq = np.sum(np.abs(phi_hat) ** 2, axis=0)
    floor = 1e-8 * float(window_sq.max())
    usable = window_sq > floor

    psi_layers = []
    for vals in phi_hat:
        psi_hat = np.zeros(len(freqs), dtype=complex)
        psi_hat[usable] = np.conj(vals[usable]) / window_sq[usable]
        psi_layers.append(np.real(_synthesize(grid, f_hat * psi_hat)))
    psi_side = ScaleFunction(grid, l_min, l_max, np.stack(psi_layers))

    cv = grid.cell_volume
    truncated = float(np.sum(psi_side.values * np.conj(phi_side.values)).real * cv)
    # Two defect scales: relative to the pairing itself (meaningful when the
    # pairing is nontrivial) and to the Cauchy-Schwarz bound (always finite).
    cs_scale = float(
        np.sqrt(np.sum(f.values**2) * cv) * np.sqrt(np.sum(b.values**2) * cv)
    )
    defect = abs(pairing - truncated) / max(abs(pairing), 1e-12)
    defect_normalized = abs(pairing - truncated) / max(cs_scale, 1e-12)

    # Chain: |T| <= S1 (triangle) = covered + leaked (atoms rebuild G there),
    # and each covered piece obeys Cauchy-Schwarz against its tent mass.
    s1 = float(np.sum(np.abs(psi_side.values) * np.abs(phi_side.values)) * cv)
    triangle_slack = s1 - abs(truncated)

    atoms = tent_atomic_decomposition(psi_side, p, d, level_floor=40, leakage_bound=np.inf)
    covered = atoms.covered_mask()
    recon = atoms.reconstruction().values
    reconstruction_residual = float(
        np.max(np.abs(recon[covered] - psi_side.values[covered]), initial=0.0)
    )
    s1_covered = float(np.sum(np.abs(psi_side.values)[covered] * np.abs(phi_side.values)[covered]) * cv)
    leak_fraction = (s1 - s1_covered) / s1 if s1 > 0 else 0.0

    cs_slack = np.inf
    tent_bound_total = 0.0
    fub_lo, fub_hi = np.inf, -np.inf
    size_max = 0.0
    abs_phi = np.abs(phi_side.values)
    area_weights = area_l2_weights(d, grid, scale_window)
    masses = tent_masses(mu, d, [entry.ball for entry in atoms.entries])
    for entry, mass in zip(atoms.entries, masses):
        lhs = float(
            np.sum(np.abs(entry.node_values) * abs_phi.ravel()[entry.node_indices]) * cv
        )
        a_l2 = float(np.sqrt(np.sum(np.abs(entry.node_values) ** 2) * cv))
        rhs = a_l2 * np.sqrt(mass)
        cs_slack = min(cs_slack, entry.weight * (rhs - lhs))
        tent_bound_total += entry.weight * rhs

        area_sq = np.dot(np.abs(entry.node_values) ** 2, area_weights[entry.node_indices])
        area_l2 = cv * float(np.sqrt(area_sq))
        if a_l2 > 0:
            ratio = area_l2 / a_l2
            fub_lo, fub_hi = min(fub_lo, ratio), max(fub_hi, ratio)
        bound = np.sqrt(d.ball_volume(entry.ball)) / indicator_norm(d, entry.ball, p)
        size_max = max(size_max, area_l2 / bound)

    if not atoms.entries:
        cs_slack = 0.0
        fub_lo, fub_hi = 1.0, 1.0

    return ReproducingReport(
        pairing=pairing,
        truncated_pairing=truncated,
        defect=float(defect),
        defect_normalized=float(defect_normalized),
        triangle_slack=float(triangle_slack),
        cauchy_schwarz_slack=float(cs_slack),
        reconstruction_residual=float(reconstruction_residual),
        leak_fraction=float(leak_fraction),
        fubini_ratio_range=(float(fub_lo), float(fub_hi)),
        size_ratio_max=float(size_max),
        tent_bound_total=float(tent_bound_total),
        leakage_ratio=float(atoms.leakage_ratio),
        phi_side_interior_max=phi_interior_max,
    )
