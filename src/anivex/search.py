"""Deterministic supremum search over weighted ball configurations.

The search only ever reports the maximum over configurations it actually
evaluated, so results are certified lower bounds of the true suprema.  The
candidate stream is a deterministic function of (seed, prefix), which makes
the record monotone in the budget and byte-reproducible across runs.

candidate_stream draws the fixed part of the stream once, before the
search: the canonical single-ball sweep, then rounds of three random
configurations and one ascent slot.  Only the ascent slots depend on the
values; their variants reweight balls the incumbent already holds, so every
ball the search meets is in the fixed stream, and campanato.family_supremum
scores all of them in stacks before the search starts.
"""

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import EmptyMask, InsufficientSamples, ToolkitError, ZeroDenominator


@dataclass
class BallConfiguration:
    """Finite list of (ball, weight) entries; at least one weight positive."""

    entries: list

    def __post_init__(self):
        if not self.entries:
            raise ValueError("configuration needs at least one entry")
        if not any(w > 0 for _, w in self.entries):
            raise ValueError("configuration needs a positive weight")

    def balls(self):
        return [b for b, _ in self.entries]


@dataclass
class SearchResult:
    value: float
    config: BallConfiguration
    evaluations: int
    candidates_seen: int


def default_scale_window(d, grid, min_points):
    """Ball scales from min_points lattice cells up to the box volume, kept
    omega + 1 levels inside the level cap so omega-expanded guards exist."""
    box_volume = float(np.prod(np.asarray(grid.upper) - np.asarray(grid.lower)))
    logb = np.log(d.b)
    k_min = int(np.ceil(np.log(min_points * grid.cell_volume) / logb))
    k_max = int(np.floor(np.log(box_volume) / logb))
    cap = d.level_cap - d.omega - 1
    k_min = max(k_min, -cap)
    k_max = min(max(k_max, k_min), cap)
    return (k_min, k_max)


def _canonical_sweep(d, grid, scale_window):
    """Grid-aligned single-ball candidates, about 16 per axis, in a fixed scan order."""
    axes = grid.axes()
    picks = []
    for ax in axes:
        step = max(len(ax) // 16, 1)
        picks.append(ax[step // 2 :: step])
    meshes = np.meshgrid(*picks, indexing="ij")
    centers = np.stack([m.ravel() for m in meshes], axis=1)
    for k in range(scale_window[0], scale_window[1] + 1):
        for c in centers:
            yield d.ball(c, k)


def _random_lattice_point(rng, grid):
    """A uniform point of the box snapped to the lattice point of its cell:
    rng.uniform(lower, upper)'s own draws and arithmetic, lower + (upper -
    lower) u, and the cell index clipped to the box, on floats."""
    snapped = []
    draws = rng.random(grid.n).tolist()
    for u, l, hi, h, r in zip(draws, grid.lower, grid.upper, grid.spacing.tolist(), grid.resolution):
        x = l + (hi - l) * u
        i = min(max(math.floor((x - l) / h), 0), r - 1)
        snapped.append(l + (i + 0.5) * h)
    return np.array(snapped)


def _random_config(rng, d, grid, scale_window, max_balls):
    m = int(rng.integers(2, max_balls + 1))
    entries = []
    for _ in range(m):
        center = _random_lattice_point(rng, grid)
        scale = int(rng.integers(scale_window[0], scale_window[1] + 1))
        weight = 0.25 + 0.75 * rng.random()  # rng.uniform(0.25, 1.0)
        entries.append((d.ball(center, scale), weight))
    return BallConfiguration(entries)


def _ascent_variant(best_config, step_index):
    """Deterministic multiplicative weight perturbation of the incumbent."""
    entries = list(best_config.entries)
    j = step_index % len(entries)
    factor = 1.25 if (step_index // len(entries)) % 2 == 0 else 0.8
    ball, w = entries[j]
    entries[j] = (ball, w * factor)
    try:
        return BallConfiguration(entries)
    except ValueError:
        return None


def candidate_stream(d, grid, budget, seed, scale_window):
    """The first budget candidates of the search, with None at each ascent
    slot: the canonical sweep, then rounds of three random configurations,
    drawn in order from the seeded rng, and one ascent slot."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    stream = [BallConfiguration([(ball, 1.0)]) for ball in islice(_canonical_sweep(d, grid, scale_window), budget)]
    rng = np.random.default_rng(seed)
    for slot in range(budget - len(stream)):
        stream.append(None if slot % 4 == 3 else _random_config(rng, d, grid, scale_window, max_balls=8))
    return stream


def supremum_search(config_value, stream):
    """Maximize config_value over a candidate_stream, in its order.

    config_value(BallConfiguration) -> float, raising EmptyMask /
    InsufficientSamples / ZeroDenominator for configurations it cannot
    score; those candidates are skipped but still consume budget.  An
    ascent slot holds the next weight variant of the incumbent, and is
    spent unscored while there is none.
    """
    best_value = -np.inf
    best_config = None
    evaluations = 0
    ascent_step = 0
    for config in stream:
        if config is None and best_config is not None:
            config = _ascent_variant(best_config, ascent_step)
            ascent_step += 1
        if config is None:
            continue
        try:
            value = config_value(config)
        except (EmptyMask, InsufficientSamples, ZeroDenominator):
            continue
        evaluations += 1
        if value > best_value:
            best_value = value
            best_config = config

    if best_config is None:
        raise ToolkitError("no configuration could be evaluated within the budget")
    return SearchResult(
        value=float(best_value),
        config=best_config,
        evaluations=evaluations,
        candidates_seen=len(stream),
    )
