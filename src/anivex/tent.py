"""Scale functions on the lattice times integer scales, the discrete Lusin
area function, tents, the anisotropic maximal operator, and a constructive
tent atomic decomposition.

A tent over a ball B collects the nodes (y, l) whose ball y + B_l sits
inside B.  Tents of set masks are realized by erosion with the ball
footprints of the grid module.  Tents of single balls are read from stamp
rows: for each ball scale, the tent_offset_mask stamps of every scale of a
window, each computed once with the exact ellipsoid containment test
(Dilation.closed_containment), flattened into the rows of one cached array.
For a ball centred on a lattice point, membership of any set of nodes, at
any mix of scales, is one gather from those rows at the nodes' integer
offsets from the centre, found once per ball; no query builds a grid-sized
array.  For any other centre the exact test runs on the queried nodes, one
call per scale.  tent_members is the one-scale form.  Atom expansions read
one gather per grown scale, atom validation one per atom, and the Carleson
module's tent masses one per ball, or one per scale and chunk of balls
(carleson.tent_masses).  The lattice cells of a ball, cover balls included,
come from grid.ball_support.

The decomposition fills its atoms' weights and amplitudes once every atom
ball is known, from indicator norms solved in stacks
(exponents.fill_indicator_norms), each bit for bit the norm solved alone.

Every footprint correlation (the area function and its Fubini weights,
ball averages, erosions and dilations) is an exact grid.footprint_sum over
the input's reach box, with no FFT: every mask and count is an exact
lattice count, the area function is exactly 0.0 on every cell no node
reaches, and atom validation costs what the atom's few nodes reach.

The decomposition follows dyadic level sets of the area function, dilates
them through the maximal operator, covers them greedily with guard-expanded
balls, and carves the function into disjointly supported atoms that rebuild
it exactly on every covered node; whatever escapes (the discrete stand-in
for the construction's null set) is reported as leakage mass.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CoverFailure
from .exponents import fill_indicator_norms, indicator_norm
from .grid import (
    GridFunction,
    _c_strides,
    _lattice_index,
    _offset_lattice,
    ball_footprint,
    ball_support,
    dilation_cache,
    footprint_sum,
)
from .search import default_scale_window

__all__ = [
    "ScaleFunction",
    "zero_scale_function",
    "lusin_area",
    "tent_members",
    "tent_offset_mask",
    "maximal_dilate",
    "whitney_cover",
    "tent_atomic_decomposition",
    "tent_atom_validate",
    "TentAtomSet",
    "TentAtomEntry",
]


@dataclass
class ScaleFunction:
    """Samples G(y, l) on lattice x integer scale window [l_min, l_max]."""

    grid: object
    l_min: int
    l_max: int
    values: np.ndarray

    def __post_init__(self):
        if self.l_max < self.l_min:
            raise ValueError(f"empty scale window [{self.l_min}, {self.l_max}]")
        self.values = np.asarray(self.values)
        want = (self.l_max - self.l_min + 1,) + tuple(self.grid.resolution)
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape} != {want}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scale function values must be finite")

    def scales(self):
        return range(self.l_min, self.l_max + 1)

    def layer(self, ell):
        return self.values[ell - self.l_min]

    def with_values(self, values):
        return ScaleFunction(self.grid, self.l_min, self.l_max, values)

    def mass(self):
        """Total |G| against counting measure in l and Lebesgue in y."""
        return float(np.sum(np.abs(self.values)) * self.grid.cell_volume)


def zero_scale_function(grid, window):
    l_min, l_max = window
    shape = (l_max - l_min + 1,) + tuple(grid.resolution)
    return ScaleFunction(grid, l_min, l_max, np.zeros(shape))


# -- footprints and tents ------------------------------------------------------


def tent_offset_mask(d, grid, ell, ball_scale):
    """Centered boolean array of offsets z with z*h + B_ell inside B_ball_scale,
    on the offset lattice of the ball's bounding box, capped at the grid's
    difference range; _stamp_rows caches it."""
    offsets, shape = _offset_lattice(grid, d.ball_bounding_halfwidths(ball_scale))
    if d.bpow(ell) > d.bpow(ball_scale) * (1.0 + 1e-12):
        return np.zeros(shape, dtype=bool)
    return d.closed_containment(ell, ball_scale, offsets).reshape(shape)


def _stamp_rows(d, grid, ball_scale, window):
    """(half, strides, rows): row i is the tent_offset_mask stamp of scale
    window[0] + i in B_ball_scale, flattened in C order, so an offset z
    within the half-widths sits in column z @ strides + (row length) // 2,
    the centre's column.  Cached per window."""
    cache = dilation_cache(d)
    key = ("tent rows", grid.key(), ball_scale, window)
    if key not in cache:
        stamps = [tent_offset_mask(d, grid, ell, ball_scale) for ell in range(window[0], window[1] + 1)]
        shape = stamps[0].shape
        cache[key] = (np.array(shape) // 2, _c_strides(shape), np.stack([s.ravel() for s in stamps]))
    return cache[key]


def _lattice_offsets(grid, center, flat):
    """Integer offsets of the flat lattice indices from a lattice centre, one
    row each; None when the centre is off the lattice."""
    idx = _lattice_index(grid, center)
    if idx is None:
        return None
    return np.array(np.unravel_index(flat, grid.resolution)).T - idx


def _stamp_lookup(d, grid, ball_scale, window, layers, offsets):
    """Tent membership of the nodes at lattice offsets from a ball's centre,
    read from the stamp rows of its scale in one gather: layers holds each
    node's row (window[0] + row is its scale), or a column of rows to read
    every node at each of them.  Offsets beyond the stamp are outside."""
    half, strides, rows = _stamp_rows(d, grid, ball_scale, window)
    within = (np.abs(offsets) <= half).all(axis=1)
    return rows[layers, np.clip(offsets, -half, half) @ strides + rows.shape[1] // 2] & within


def _in_tent(d, grid, ball, window, layers, flat, offsets):
    """Booleans, one per node (flat[i], window[0] + layers[i]): y + B_ell
    inside the closed ball.  offsets come from _lattice_offsets; an
    off-lattice centre (None) runs the exact test, one call per scale."""
    if offsets is not None:
        return _stamp_lookup(d, grid, ball.scale, window, layers, offsets)
    out = np.zeros(len(flat), dtype=bool)
    points = grid.points()
    for layer in np.unique(layers).tolist():
        sel = layers == layer
        out[sel] = d.closed_containment(window[0] + layer, ball.scale, points[flat[sel]] - ball.center)
    return out


def tent_members(d, grid, ball, ell, flat):
    """Booleans, one per flat lattice index y: y + B_ell inside the closed ball.

    Lattice-aligned centres (search sweeps, cover and atom balls) read the
    stamp rows at the nodes' offsets from the centre; other centres run the
    exact test.
    """
    flat = np.asarray(flat)
    layers = np.zeros(len(flat), dtype=int)
    return _in_tent(d, grid, ball, (ell, ell), layers, flat, _lattice_offsets(grid, ball.center, flat))


def _binary_erode(mask, d, grid, scale):
    """Cells x whose footprint x + B_scale lies in mask.  Cells beyond the
    box are outside, so balls sticking out never pass."""
    count = ball_footprint(d, grid, scale).sum()
    if count > mask.sum():  # no footprint fits: skip the sum
        return np.zeros(mask.shape, dtype=bool)
    return footprint_sum(mask, d, grid, scale) == count


# -- area function and maximal operator ---------------------------------------


def lusin_area(G, d):
    """A(G)(x) = [sum_l b^-l int_{y in x+B_l} |G(y,l)|^2 dy]^(1/2), summed on
    the lattice: A(G)(x)^2 = cell * sum_l b^-l sum_{v in footprint_l} |G_l(x-v)|^2.

    Each layer is one footprint_sum, so A is exactly 0.0 wherever no node reaches.
    """
    grid = G.grid
    acc = np.zeros(grid.resolution)
    for ell in G.scales():
        acc += (1.0 / d.bpow(ell)) * footprint_sum(np.abs(G.layer(ell)) ** 2, d, grid, ell)
    acc *= grid.cell_volume
    return GridFunction(grid, np.sqrt(acc))


def area_l2_weights(d, grid, scale_window):
    """Weights w, flat over (scales x lattice), with ||A(G)||_2^2 = cell^2 sum |G|^2 w:
    by lattice Fubini and symmetric footprints, node (y, l) counts b^-l once
    for each box point x with y in x + B_l (box indicator * footprint)."""
    box = np.ones(grid.resolution)
    return np.concatenate([
        footprint_sum(box, d, grid, ell).ravel() / d.bpow(ell)
        for ell in range(scale_window[0], scale_window[1] + 1)
    ])


def maximal_dilate(mask, d, grid, scale_window, gamma):
    """{x: some window-scale ball through x has |f| average > 1-gamma} for
    f = 1_mask, including mask itself (the degenerate point scale)."""
    out = mask.copy()
    thr = (1.0 - gamma) * (1.0 + 1e-12) + 1e-12
    for k in range(scale_window[0], scale_window[1] + 1):
        centers = footprint_sum(mask, d, grid, k) / ball_footprint(d, grid, k).sum() > thr
        out |= footprint_sum(centers, d, grid, k) > 0.0
    return out


# -- Whitney-type cover --------------------------------------------------------


@dataclass
class CoverBall:
    ball: object  # a DilatedBall centred on a lattice point
    guarded: bool


def whitney_cover(mask, d, grid, cover_window):
    """Greedy cover of a lattice set by balls whose omega-expanded guards stay
    inside it.

    Scans lattice points in C order; each uncovered point receives the
    largest admissible ball centered there (falling back to the smallest
    window scale, flagged unguarded, when no guard fits).  Deterministic.
    """
    k_lo, k_hi = cover_window
    # Largest window scale whose guard fits around each point; k_lo - 1 if none.
    best_scale = np.full(mask.size, k_lo - 1)
    for k in range(k_lo, k_hi + 1):
        best_scale[_binary_erode(mask, d, grid, k + d.omega).ravel()] = k

    covered = np.zeros(mask.size, dtype=bool)
    balls = []
    for flat in np.flatnonzero(mask):
        if covered[flat]:
            continue
        guarded = bool(best_scale[flat] >= k_lo)
        ball = d.ball(grid.points()[flat], max(int(best_scale[flat]), k_lo))
        covered[ball_support(grid, d, ball)] = True
        balls.append(CoverBall(ball, guarded))
    return balls


# -- atomic decomposition ------------------------------------------------------


@dataclass
class TentAtomEntry:
    weight: float  # 2^j ||1_B||
    ball: object
    level: int
    cover_index: int
    node_indices: np.ndarray  # flat indices into the (nscales, *res) array
    g_values: np.ndarray  # raw samples of G on the claimed nodes
    amplitude: float  # 2^-j / ||1_B||; atom samples are amplitude * g_values
    template: ScaleFunction = field(repr=False, compare=False)  # zeros shared by the set

    @property
    def node_values(self):
        return self.amplitude * self.g_values

    @property
    def atom(self):
        """The atom as a full scale function, built from the template on access."""
        vals = np.zeros(self.template.values.shape, dtype=float)
        vals.ravel()[self.node_indices] = self.node_values
        return self.template.with_values(vals)


@dataclass
class TentAtomSet:
    entries: list
    leakage_ratio: float
    levels: tuple
    cover_sizes: dict
    unguarded_balls: int
    template: ScaleFunction = field(repr=False, default=None)

    def reconstruction(self):
        """Sum of weight * atom; weight * amplitude is exactly one in exact
        arithmetic, so covered nodes reproduce G bitwise."""
        acc = np.zeros(self.template.values.shape)
        for e in self.entries:
            acc.ravel()[e.node_indices] += e.g_values
        return self.template.with_values(acc)

    def covered_mask(self):
        mask = np.zeros(self.template.values.size, dtype=bool)
        for e in self.entries:
            mask[e.node_indices] = True
        return mask.reshape(self.template.values.shape)


def _minimal_tent_expansion(d, grid, ball, window, layers, flat):
    """Smallest e <= 10 such that every claimed node (flat[i], window[0] +
    layers[i]) satisfies y + B_l inside the cover ball grown to scale + e.

    The nodes' offsets from a lattice centre are found once; a grown scale
    whose stamp they overrun fails at once, any other is one gather.
    """
    cap = min(10, d.level_cap - ball.scale - 1)
    offsets = _lattice_offsets(grid, ball.center, flat)
    reach = None if offsets is None else np.abs(offsets).max(axis=0)
    for extra in range(0, cap + 1):
        scale = ball.scale + extra
        if offsets is None:
            inside = _in_tent(d, grid, d.ball(ball.center, scale), window, layers, flat, None).all()
        else:
            half, strides, rows = _stamp_rows(d, grid, scale, window)
            inside = (reach <= half).all() and rows[layers, offsets @ strides + rows.shape[1] // 2].all()
        if inside:
            return extra
    return None


def tent_atomic_decomposition(G, p, d, level_floor=60, leakage_bound=0.01):
    """Split G into weighted tent atoms along dyadic area-function levels.

    Level sets are dilated at gamma = 1/2 and covered over one scale window,
    default_scale_window(min_points=1).  Atoms are 2^-j ||1_B||^-1 G
    restricted to disjoint tent pieces; weights are 2^j ||1_B||, so the
    weighted sum rebuilds G exactly on covered nodes and the weighted
    absolute sum rebuilds |G|.  Mass on uncovered nodes is returned as the
    leakage ratio and must stay below leakage_bound.
    """
    grid = G.grid
    window = default_scale_window(d, grid, min_points=1)

    template = G.with_values(np.zeros_like(G.values, dtype=float))
    total_mass = G.mass()
    area = lusin_area(G, d).values
    positive = area[area > 0.0]
    j_lo = j_hi = 0  # without a positive area value no level claims a node
    if positive.size:
        j_hi = int(np.ceil(np.log2(float(positive.max()))))
        j_lo = max(int(np.floor(np.log2(float(positive.min())))) - 1, j_hi - level_floor)

    nscales = G.l_max - G.l_min + 1
    assigned = np.zeros((nscales,) + tuple(grid.resolution), dtype=bool)
    entries = []
    cover_sizes = {}
    unguarded = 0

    prev_tent = np.zeros((nscales,) + tuple(grid.resolution), dtype=bool)
    support = G.values != 0.0
    # (scale, flat cell) views of the node arrays, for the sparse cover pieces.
    flat_assigned = assigned.reshape(nscales, -1)
    flat_values = G.values.reshape(nscales, -1)
    ncells = flat_values.shape[1]
    layer_window = (G.l_min, G.l_max)

    for j in range(j_hi, j_lo - 1, -1):
        if assigned[support].all():
            break  # no telescope can claim a node any more
        level_mask = area > 2.0**j
        if not level_mask.any():
            prev_tent = np.zeros_like(prev_tent)
            continue
        dilated = maximal_dilate(level_mask, d, grid, window, gamma=0.5)
        tent_j = np.stack([_binary_erode(dilated, d, grid, ell) for ell in G.scales()])
        telescope = tent_j & ~prev_tent
        prev_tent = tent_j
        if not (telescope & support).any():
            continue

        balls = whitney_cover(dilated, d, grid, window)
        cover_sizes[j] = len(balls)
        unguarded += sum(1 for cb in balls if not cb.guarded)

        # Nodes are split by the base point y across the disjointified cover
        # pieces, then each atom's ball is the cover ball expanded just
        # enough to tent every node it claims.
        remaining = (telescope & support & ~assigned).reshape(nscales, -1)
        claimed_base = np.zeros(ncells, dtype=bool)
        for k_index, cover in enumerate(balls):
            if not remaining.any():
                break
            cells = ball_support(grid, d, cover.ball)
            piece = cells[~claimed_base[cells]]
            claimed_base[cells] = True
            layers, cols = np.nonzero(remaining[:, piece])
            if not layers.size:
                continue
            flat = piece[cols]
            remaining[layers, flat] = False
            expansion = _minimal_tent_expansion(d, grid, cover.ball, layer_window, layers, flat)
            if expansion is None:
                # Geometry refused a bounded expansion; give the nodes back
                # and let them count as leakage.
                remaining[layers, flat] = True
                continue
            flat_assigned[layers, flat] = True
            entries.append(
                TentAtomEntry(
                    weight=None,  # filled once every atom ball is known
                    ball=d.ball(cover.ball.center, cover.ball.scale + expansion),
                    level=j,
                    cover_index=k_index,
                    node_indices=flat + layers * ncells,
                    g_values=flat_values[layers, flat],
                    amplitude=None,
                    template=template,
                )
            )

    # Every atom ball's indicator norm in stacks; each is the one
    # indicator_norm solves alone.
    fill_indicator_norms(d, [e.ball for e in entries], p)
    for e in entries:
        norm_1b = indicator_norm(d, e.ball, p)
        e.weight = float(2.0**e.level * norm_1b)
        e.amplitude = float(2.0**-e.level / norm_1b)

    leaked = float(np.sum(np.abs(G.values)[support & ~assigned]) * grid.cell_volume)
    ratio = leaked / total_mass if total_mass else 0.0
    atom_set = TentAtomSet(
        entries=entries,
        leakage_ratio=ratio,
        levels=(j_lo, j_hi),
        cover_sizes=cover_sizes,
        unguarded_balls=unguarded,
        template=template,
    )
    if ratio > leakage_bound:
        raise CoverFailure(
            f"decomposition leaked {ratio:.3%} of the mass (bound {leakage_bound:.1%})"
        )
    return atom_set


# -- atom validation -----------------------------------------------------------


@dataclass
class TentAtomReport:
    support_exact: bool
    size_ratios: dict
    infinity_atom: bool


def tent_atom_validate(a, ball, p, d):
    """Support and size checks against the tent of the ball.

    The size bound ||A(a)||_{L^q} <= |B|^(1/q) / ||1_B|| is witnessed at
    q = 2 and q = 4; exact support with both ratios at most 1 + 1e-8 is
    reported as infinity-atom status.  Support is checked in one stamp
    lookup over every node of the atom.
    """
    grid = a.grid
    layers, flat = np.nonzero(a.values.reshape(len(a.scales()), -1) != 0.0)
    offsets = _lattice_offsets(grid, ball.center, flat)
    support_exact = bool(_in_tent(d, grid, ball, (a.l_min, a.l_max), layers, flat, offsets).all())

    area = lusin_area(a, d).values
    ratios = {}
    norm_1b = indicator_norm(d, ball, p)
    for q in (2.0, 4.0):
        lq = (np.sum(area**q) * grid.cell_volume) ** (1.0 / q)
        bound = d.ball_volume(ball) ** (1.0 / q) / norm_1b
        ratios[q] = float(lq / bound)
    infinity = support_exact and all(r <= 1.0 + 1e-8 for r in ratios.values())
    return TentAtomReport(
        support_exact=bool(support_exact), size_ratios=ratios, infinity_atom=bool(infinity)
    )
