"""Deterministic supremum search over weighted ball configurations.

The search only ever reports the maximum over configurations it actually
evaluated, so results are certified lower bounds of the true suprema.  The
candidate stream is a deterministic function of (seed, prefix), which makes
the record monotone in the budget and byte-reproducible across runs.
"""

from dataclasses import dataclass

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


def _snap_to_lattice(grid, point):
    snapped = []
    for x, l, h, r in zip(point, grid.lower, grid.spacing, grid.resolution):
        i = int(np.clip(np.floor((x - l) / h), 0, r - 1))
        snapped.append(l + (i + 0.5) * h)
    return np.array(snapped)


def _random_config(rng, d, grid, scale_window, max_balls):
    m = int(rng.integers(2, max_balls + 1))
    lo = np.asarray(grid.lower)
    hi = np.asarray(grid.upper)
    entries = []
    for _ in range(m):
        center = _snap_to_lattice(grid, rng.uniform(lo, hi))
        scale = int(rng.integers(scale_window[0], scale_window[1] + 1))
        weight = float(rng.uniform(0.25, 1.0))
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


def supremum_search(config_value, d, grid, budget, seed, scale_window):
    """Maximize config_value over a deterministic candidate stream.

    config_value(BallConfiguration) -> float, raising EmptyMask /
    InsufficientSamples / ZeroDenominator for configurations it cannot
    score; those candidates are skipped but still consume budget.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    best_value = -np.inf
    best_config = None
    evaluations = 0
    seen = 0

    def consider(config):
        nonlocal best_value, best_config, evaluations, seen
        seen += 1
        try:
            value = config_value(config)
        except (EmptyMask, InsufficientSamples, ZeroDenominator):
            return
        evaluations += 1
        if value > best_value:
            best_value = value
            best_config = config

    for ball in _canonical_sweep(d, grid, scale_window):
        if seen >= budget:
            break
        consider(BallConfiguration([(ball, 1.0)]))

    ascent_step = 0
    while seen < budget:
        for _ in range(3):
            if seen >= budget:
                break
            consider(_random_config(rng, d, grid, scale_window, max_balls=8))
        if seen >= budget:
            break
        if best_config is not None:
            variant = _ascent_variant(best_config, ascent_step)
            ascent_step += 1
            if variant is not None:
                consider(variant)
            else:
                seen += 1
        else:
            seen += 1

    if best_config is None:
        raise ToolkitError("no configuration could be evaluated within the budget")
    return SearchResult(
        value=float(best_value),
        config=best_config,
        evaluations=evaluations,
        candidates_seen=seen,
    )
