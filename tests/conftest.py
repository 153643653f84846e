"""Session-wide test settings.

Every hypothesis property test draws the same examples on every run: the
profile seeds the search from each test's own source and keeps no example
database between runs.  A test's own @settings still overrides the rest.
"""

import errno

import numpy as np
from hypothesis import settings

from anivex.errors import EmptyMask, InsufficientSamples, ZeroDenominator

settings.register_profile("anivex", derandomize=True, deadline=None, database=None)
settings.load_profile("anivex")


class HalfWriter:
    """A file that writes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def shifted_footprint_sum(values, footprint):
    """sum_{v in footprint} values(x - v), one offset at a time on a
    zero-padded copy of values: an oracle that shares no code with
    grid.footprint_sum."""
    half = [s // 2 for s in footprint.shape]
    padded = np.pad(np.asarray(values, dtype=float), [(h, h) for h in half])
    out = np.zeros(np.shape(values))
    for v in np.argwhere(footprint) - np.array(half):
        out += padded[tuple(slice(h - vi, h - vi + r) for h, vi, r in zip(half, v, out.shape))]
    return out


def paste_centered(mask_shape, centered, idx):
    """Place a centered boolean stamp at a lattice index, clipped to the box:
    a full-grid reference for stamp and footprint lookups."""
    out = np.zeros(mask_shape, dtype=bool)
    src, dst = [], []
    for size, stamp, i in zip(mask_shape, centered.shape, idx):
        lo = i - stamp // 2  # stamps have odd widths
        s_lo, s_hi = max(0, -lo), min(stamp, size - lo)
        if s_lo >= s_hi:
            return out
        src.append(slice(s_lo, s_hi))
        dst.append(slice(lo + s_lo, lo + s_hi))
    out[tuple(dst)] = centered[tuple(src)]
    return out


def recorded(config_value, record):
    """config_value, appending each candidate's value or skip to record."""
    if record is None:
        return config_value

    def value(config):
        try:
            out = config_value(config)
        except (EmptyMask, InsufficientSamples, ZeroDenominator) as exc:
            record.append(type(exc).__name__)
            raise
        record.append(out)
        return out

    return value
