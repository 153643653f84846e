"""Binary serialization for lattice data.

Layout (little-endian), documented here and mirrored in the JSON sidecar:

grid function (magic AVXG, version 1):
    4s magic | u8 version | u8 dtype (0=float64, 1=complex128) | u8 ndim
    per axis: u32 resolution | f64 lower | f64 upper
    raw values, C order

scale function (magic AVXS, version 1):
    4s magic | u8 version | u8 dtype | u8 ndim | i32 l_min | i32 l_max
    per axis: u32 resolution | f64 lower | f64 upper
    raw values, C order, scale index first

Both are written and read by one header codec.  A load checks the magic,
version, header length, dtype code and payload size, then builds the grid
and the function; it raises CorruptFile naming the file when any check
fails or the constructors reject the bounds, resolution or samples.

Every file gets a "<path>.json" sidecar with the same metadata.  Tent atom
sets are stored as a JSON manifest next to one stacked AVXS block per atom.
Every file is written atomically (write_atomic).  The atoms of a set share
its grid and scale window, so their sidecars hold the same bytes; where the
filesystem allows it they are hard links of one written file, which saves
a new file, the costliest step of a save, per atom.
"""

import contextlib
import json
import math
import os
import struct

import numpy as np

from .errors import CorruptFile
from .grid import Grid, GridFunction

_DTYPES = {0: np.float64, 1: np.complex128}
_CODES = {np.dtype(np.float64): 0, np.dtype(np.complex128): 1}
# Fixed header per magic; the AVXS header adds the scale window.
_HEADERS = {b"AVXG": "<4sBBB", b"AVXS": "<4sBBBii"}
_AXIS = "<Idd"


def _dtype_code(values):
    try:
        return _CODES[values.dtype]
    except KeyError:
        raise ValueError(f"unsupported dtype {values.dtype}") from None


@contextlib.contextmanager
def _removed_on_failure(tmp):
    """Remove the temporary name tmp, if it exists, when the block raises,
    then re-raise."""
    try:
        yield
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_atomic(path, data):
    """Write text or bytes to a temporary file beside path, then rename it
    over path: a failed write leaves neither a partial target nor the
    temporary file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with _removed_on_failure(tmp):
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)


def _link_atomic(source, path):
    """Hard-link source to a temporary name beside path, then rename it over
    path, as write_atomic does with a written file.  Returns False, leaving
    path as it was, when the filesystem refuses the link: EMLINK past its
    link limit, EPERM where it has no hard links."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.link(source, tmp)
    except OSError:
        return False
    with _removed_on_failure(tmp):
        os.replace(tmp, path)
    return True


def _write_sidecar(path, meta):
    write_atomic(str(path) + ".json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _write_block(path, magic, kind, grid, values, **window):
    """Header, axes and raw values; returns the metadata for the sidecar."""
    code = _dtype_code(values)
    header = struct.pack(_HEADERS[magic], magic, 1, code, grid.n, *window.values())
    axes = [struct.pack(_AXIS, r, l, u) for r, l, u in zip(grid.resolution, grid.lower, grid.upper)]
    write_atomic(path, b"".join([header, *axes, np.ascontiguousarray(values).tobytes()]))
    meta = {"kind": kind, "dtype": int(code), **window, "resolution": list(grid.resolution)}
    return {**meta, "lower": list(grid.lower), "upper": list(grid.upper)}


def _read_block(path, magic, make):
    """make(grid, window, values) from a file written by _write_block."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:5] != magic + b"\x01":
        raise CorruptFile(f"{path}: not an {magic.decode()} v1 file")
    offset = struct.calcsize(_HEADERS[magic])
    step = struct.calcsize(_AXIS)
    try:
        _, _, code, ndim, *window = struct.unpack_from(_HEADERS[magic], data)
        axes = [struct.unpack_from(_AXIS, data, offset + i * step) for i in range(ndim)]
    except struct.error:
        raise CorruptFile(f"{path}: truncated header") from None
    if code not in _DTYPES:
        raise CorruptFile(f"{path}: unknown dtype code {code}")
    offset += ndim * step
    res = [a[0] for a in axes]
    shape = ([window[1] - window[0] + 1] if window else []) + res
    dtype = np.dtype(_DTYPES[code])
    if len(data) - offset != math.prod(shape) * dtype.itemsize:
        raise CorruptFile(f"{path}: {len(data) - offset} payload bytes do not fit shape {shape}")
    values = np.frombuffer(data, dtype=dtype, offset=offset).reshape(shape).copy()
    # A header or payload the constructors reject (bounds, resolution,
    # non-finite samples) is a damaged file too.
    try:
        grid = Grid(tuple(a[1] for a in axes), tuple(a[2] for a in axes), tuple(res))
        return make(grid, window, values)
    except ValueError as exc:
        raise CorruptFile(f"{path}: {exc}") from None


def save_grid_function(f, path):
    _write_sidecar(path, _write_block(path, b"AVXG", "grid_function", f.grid, f.values))


def load_grid_function(path):
    return _read_block(path, b"AVXG", lambda grid, _, values: GridFunction(grid, values))


def _write_scale_block(sf, path):
    window = {"l_min": sf.l_min, "l_max": sf.l_max}
    return _write_block(path, b"AVXS", "scale_function", sf.grid, sf.values, **window)


def save_scale_function(sf, path):
    _write_sidecar(path, _write_scale_block(sf, path))


def load_scale_function(path):
    from .tent import ScaleFunction

    return _read_block(path, b"AVXS", lambda grid, window, values: ScaleFunction(grid, *window, values))


def save_tent_atoms(atom_set, path_prefix):
    """Manifest JSON, naming each block relative to itself, plus one AVXS
    block per atom under a shared prefix, each with its sidecar.

    Every sidecar holds the bytes save_scale_function would write for its
    atom.  Atoms with the same metadata (all of a set's atoms: they share
    its template) get their sidecars as hard links of the first one, since
    a new file costs the kernel far more than a link.  When the filesystem
    refuses a link, that sidecar is written and the atoms after it link to
    it instead.
    """
    manifest = {
        "kind": "tent_atom_set",
        "leakage_ratio": atom_set.leakage_ratio,
        "entries": [],
    }
    linked = None  # (metadata, path) of the sidecar later atoms link to
    for i, entry in enumerate(atom_set.entries):
        blob = f"{path_prefix}.atom{i:04d}.avxs"
        meta = _write_scale_block(entry.atom, blob)
        if linked is None or linked[0] != meta or not _link_atomic(linked[1], blob + ".json"):
            _write_sidecar(blob, meta)
            linked = (meta, blob + ".json")
        manifest["entries"].append(
            {
                "weight": entry.weight,
                "ball_center": list(entry.ball.center),
                "ball_scale": entry.ball.scale,
                "level": entry.level,
                "cover_index": entry.cover_index,
                "values": os.path.basename(blob),
            }
        )
    _write_sidecar(f"{path_prefix}.manifest", manifest)
