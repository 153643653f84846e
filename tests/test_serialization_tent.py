import errno
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HalfWriter

from anivex import serialization
from anivex.dilation import new_dilation
from anivex.errors import CorruptFile, ToolkitError
from anivex.exponents import constant_exponent
from anivex.grid import GridFunction, uniform_grid
from anivex.serialization import (
    load_grid_function,
    load_scale_function,
    save_grid_function,
    save_scale_function,
    save_tent_atoms,
    write_atomic,
)
from anivex.tent import ScaleFunction, tent_atomic_decomposition


@pytest.fixture(scope="module")
def setup():
    d = new_dilation([[2.0]])
    g = uniform_grid([-8.0], [8.0], 1024)
    p = constant_exponent(g, 1.0)
    return d, g, p


def test_scale_function_roundtrip(setup, tmp_path):
    _, g, _ = setup
    rng = np.random.default_rng(0)
    sf = ScaleFunction(g, -3, 2, rng.normal(size=(6,) + g.resolution))
    path = tmp_path / "sf.avxs"
    save_scale_function(sf, path)
    back = load_scale_function(path)
    assert back.l_min == -3 and back.l_max == 2
    assert back.grid.key() == g.key()
    assert np.array_equal(back.values, sf.values)


@pytest.fixture(scope="module")
def atoms(setup):
    d, g, p = setup
    x = g.axes()[0]
    G = ScaleFunction(g, -4, 0, np.zeros((5,) + g.resolution))
    G.values[1] = np.exp(-(x**2)) * (np.abs(x) < 2.0)
    return tent_atomic_decomposition(G, p, d)


@pytest.fixture(scope="module")
def shear_atoms():
    d = new_dilation([[2.0, 1.0], [0.0, 2.0]])
    g = uniform_grid([-4.0, -4.0], [4.0, 4.0], 12)
    x0, x1 = np.meshgrid(*g.axes(), indexing="ij")
    r2 = x0**2 + x1**2
    G = ScaleFunction(g, -2, 0, np.zeros((3,) + g.resolution))
    G.values[1] = np.exp(-r2) * (r2 < 4.0)
    return tent_atomic_decomposition(G, constant_exponent(g, 1.0), d)


def test_tent_atom_manifest(atoms, tmp_path):
    prefix = str(tmp_path / "atoms")
    save_tent_atoms(atoms, prefix)

    with open(prefix + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["kind"] == "tent_atom_set"
    assert len(manifest["entries"]) == len(atoms.entries)
    assert manifest["leakage_ratio"] == atoms.leakage_ratio

    first = manifest["entries"][0]
    blob = load_scale_function(tmp_path / first["values"])
    assert np.array_equal(blob.values, atoms.entries[0].atom.values)
    assert first["weight"] == atoms.entries[0].weight


def test_tent_atom_manifest_is_relocatable(atoms, tmp_path):
    # The same set saved under two directories: the manifests are the same
    # bytes, and each names its blocks relative to its own directory.
    manifests = []
    for name in ("one", "two"):
        (tmp_path / name).mkdir()
        save_tent_atoms(atoms, str(tmp_path / name / "atoms"))
        manifests.append((tmp_path / name / "atoms.manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    moved = tmp_path / "moved"
    (tmp_path / "one").rename(moved)
    entries = json.loads(manifests[0])["entries"]
    for entry, atom in zip(entries, atoms.entries):
        assert np.array_equal(load_scale_function(moved / entry["values"]).values, atom.atom.values)


def _files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def _solo_sidecars(atom_set, directory):
    """The sidecar save_scale_function writes for each atom saved alone."""
    directory.mkdir()
    for i, entry in enumerate(atom_set.entries):
        save_scale_function(entry.atom, directory / f"solo{i}.avxs")
    return [(directory / f"solo{i}.avxs.json").read_bytes() for i in range(len(atom_set.entries))]


def _sidecars(prefix, count):
    return [f"{prefix}.atom{i:04d}.avxs.json" for i in range(count)]


@pytest.mark.parametrize("name", ["atoms", "shear_atoms"])
def test_tent_atom_sidecars_are_links_of_one_file(name, request, tmp_path):
    atom_set = request.getfixturevalue(name)
    count = len(atom_set.entries)
    assert count > 3
    solo = _solo_sidecars(atom_set, tmp_path / "solo")
    out = tmp_path / "out"
    out.mkdir()
    save_tent_atoms(atom_set, str(out / "atoms"))
    sidecars = _sidecars(out / "atoms", count)
    assert [open(path, "rb").read() for path in sidecars] == solo
    assert len({os.stat(path).st_ino for path in sidecars}) == 1
    names = list(out.iterdir())
    assert len(names) == 2 * count + 1
    assert len({os.stat(path).st_ino for path in names}) == count + 2

    # Saving again over the same prefix replaces every name with the same bytes.
    first = _files(out)
    save_tent_atoms(atom_set, str(out / "atoms"))
    assert _files(out) == first
    assert len({os.stat(path).st_ino for path in sidecars}) == 1


@pytest.mark.parametrize("refused", [(errno.EMLINK, 3), (errno.EPERM, 1)], ids=["EMLINK-every-third", "EPERM-always"])
def test_refused_links_fall_back_to_written_sidecars(shear_atoms, tmp_path, monkeypatch, refused):
    # Every `every`-th link fails as past the link limit (EMLINK) or on a
    # filesystem without hard links (EPERM): that sidecar is written, and
    # the atoms after it link to it.
    code, every = refused
    count = len(shear_atoms.entries)
    solo = _solo_sidecars(shear_atoms, tmp_path / "solo")
    real_link = os.link
    calls = []

    def link(src, dst):
        calls.append(dst)
        if len(calls) % every == 0:
            raise OSError(code, os.strerror(code))
        real_link(src, dst)

    monkeypatch.setattr(serialization.os, "link", link)
    out = tmp_path / "out"
    out.mkdir()
    save_tent_atoms(shear_atoms, str(out / "atoms"))
    assert len(calls) == count - 1
    sidecars = _sidecars(out / "atoms", count)
    assert [open(path, "rb").read() for path in sidecars] == solo
    assert not [path.name for path in out.iterdir() if path.name.endswith(".tmp")]
    # Atom i (i >= 1) makes the i-th link call; a refused one starts a new file.
    inodes = [os.stat(path).st_ino for path in sidecars]
    starts = [i for i in range(1, count) if inodes[i] != inodes[i - 1]]
    assert starts == [i for i in range(1, count) if i % every == 0]
    assert len(set(inodes)) == 1 + len(starts)


def _saved_blocks(setup, tmp_path):
    """One saved AVXG and one saved AVXS file, each with its loader."""
    _, g, _ = setup
    rng = np.random.default_rng(2)
    grid_path = tmp_path / "f.avxg"
    save_grid_function(GridFunction(g, rng.normal(size=g.resolution)), grid_path)
    scale_path = tmp_path / "sf.avxs"
    save_scale_function(ScaleFunction(g, -2, 1, rng.normal(size=(4,) + g.resolution)), scale_path)
    return [(grid_path, load_grid_function), (scale_path, load_scale_function)]


def _assert_corrupt(load, path):
    with pytest.raises(CorruptFile) as info:
        load(path)
    assert isinstance(info.value, ToolkitError) and isinstance(info.value, ValueError)
    assert str(path) in str(info.value)


def test_truncated_header_is_corrupt_file(setup, tmp_path):
    for path, load in _saved_blocks(setup, tmp_path):
        path.write_bytes(path.read_bytes()[:10])
        _assert_corrupt(load, path)


def test_unknown_dtype_code_is_corrupt_file(setup, tmp_path):
    for path, load in _saved_blocks(setup, tmp_path):
        data = bytearray(path.read_bytes())
        data[5] = 7  # the u8 dtype code after magic and version
        path.write_bytes(bytes(data))
        _assert_corrupt(load, path)


def test_payload_size_mismatch_is_corrupt_file(setup, tmp_path):
    for path, load in _saved_blocks(setup, tmp_path):
        path.write_bytes(path.read_bytes()[:-4])
        _assert_corrupt(load, path)


def test_empty_scale_window_is_corrupt_file(tmp_path):
    # A header-only AVXS block whose window ends before it starts fits an
    # empty payload; it is still not a scale function.
    path = tmp_path / "empty.avxs"
    path.write_bytes(struct.pack("<4sBBBii", b"AVXS", 1, 0, 1, 3, 2) + struct.pack("<Idd", 8, 0.0, 1.0))
    _assert_corrupt(load_scale_function, path)


def test_failed_write_leaves_no_partial_file(setup, atoms, tmp_path, monkeypatch):
    _, g, _ = setup
    f = GridFunction(g, np.linspace(-1.0, 1.0, 1024))
    save_grid_function(f, tmp_path / "kept.avxg")
    save_tent_atoms(atoms, str(tmp_path / "atoms"))
    before = _files(tmp_path)
    assert len(before) == 2 + 2 * len(atoms.entries) + 1
    real_open = open
    monkeypatch.setattr(serialization, "open", lambda *a, **k: HalfWriter(real_open(*a, **k)), raising=False)
    with pytest.raises(OSError):
        save_grid_function(f.with_values(2.0 * f.values), tmp_path / "kept.avxg")
    with pytest.raises(OSError):
        save_scale_function(ScaleFunction(g, 0, 1, np.ones((2,) + g.resolution)), tmp_path / "new.avxs")
    with pytest.raises(OSError):
        write_atomic(tmp_path / "kept.avxg.json", "{}\n" * 64)
    # Saving the set again fails midway: at the fifth file opened (atom
    # 3's block), after atoms 1 and 2 got their sidecars as links.
    opened = []

    def failing_open(*args, **kwargs):
        opened.append(args[0])
        fh = real_open(*args, **kwargs)
        return HalfWriter(fh) if len(opened) >= 5 else fh

    monkeypatch.setattr(serialization, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        save_tent_atoms(atoms, str(tmp_path / "atoms"))
    assert len(opened) == 5
    # A link whose rename fails: atom 1's sidecar, the second rename into
    # a sidecar name.
    monkeypatch.setattr(serialization, "open", real_open, raising=False)
    real_replace = os.replace
    renamed = []

    def failing_replace(src, dst):
        if str(dst).endswith(".avxs.json"):
            renamed.append(dst)
            if len(renamed) == 2:
                raise OSError(errno.EIO, "I/O error")
        real_replace(src, dst)

    monkeypatch.setattr(serialization.os, "replace", failing_replace)
    with pytest.raises(OSError):
        save_tent_atoms(atoms, str(tmp_path / "atoms"))
    assert renamed[-1].endswith(".atom0001.avxs.json")
    # The old files are untouched, and no new or temporary file is left.
    assert _files(tmp_path) == before


_FUZZ_GRID = uniform_grid([-1.0, -2.0], [1.0, 2.0], (4, 3))
_FUZZ_BLOCKS = {
    "avxg": (save_grid_function, load_grid_function,
             GridFunction(_FUZZ_GRID, np.arange(12.0).reshape(4, 3))),
    "avxs": (save_scale_function, load_scale_function,
             ScaleFunction(_FUZZ_GRID, -1, 0, np.arange(24.0).reshape(2, 4, 3))),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(_FUZZ_BLOCKS)),
    cut=st.one_of(st.just(0), st.integers(1, 250)),
    flips=st.lists(
        st.tuples(st.integers(0, 246), st.sampled_from([0x01, 0x08, 0x40, 0x7F, 0x80, 0xFF])),
        max_size=3,
    ),
)
def test_damaged_block_loads_or_is_corrupt_file(kind, cut, flips):
    """A truncated or byte-flipped block either loads or raises CorruptFile
    naming the file, never another exception."""
    save, load, value = _FUZZ_BLOCKS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"f.{kind}")
        save(value, path)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        for at, mask in flips:
            if at < len(data):
                data[at] ^= mask
        with open(path, "wb") as fh:
            fh.write(bytes(data[: max(len(data) - cut, 0)]))
        try:
            loaded = load(path)
        except CorruptFile as exc:
            assert path in str(exc)
        else:
            assert isinstance(loaded, type(value))
            assert np.all(np.isfinite(loaded.grid.lower)) and np.all(np.isfinite(loaded.grid.upper))
