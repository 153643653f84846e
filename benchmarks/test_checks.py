"""Each benchmark check must accept the program's real output and reject a
deliberately corrupted one, so that no check passes vacuously.

    python3 -m pytest benchmarks/test_checks.py -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import bench_checks as bc  # noqa: E402
import bench_workloads as bw  # noqa: E402
from anivex import carleson as carl  # noqa: E402
from anivex import dilation as dil  # noqa: E402
from anivex import exponents as ex  # noqa: E402
from anivex import grid as gr  # noqa: E402
from anivex import serialization as ser  # noqa: E402
from anivex import tent  # noqa: E402


@pytest.fixture(scope="module")
def line():
    d = dil.new_dilation([[2.0]])
    g = gr.uniform_grid([-8.0], [8.0], 512)
    return d, g


def test_tent_mass_matches_program_and_rejects_perturbation(line):
    d, g = line
    rng = np.random.default_rng(0)
    mu = tent.ScaleFunction(g, -4, 1, rng.uniform(0.0, 1.0, size=(6, 512)))
    axis = g.axes()[0]
    for center, k in ((axis[256], 0), (axis[100], -2), (axis[300], 1)):
        mass = carl.tent_mass(mu, d, d.ball([center], k))
        bc.check_tent_mass(mass, mu.values, -4, axis, g.cell_volume, center, k)
        with pytest.raises(bc.CheckFailure):
            bc.check_tent_mass(mass * (1.0 + 1e-9), mu.values, -4, axis, g.cell_volume, center, k)


@pytest.mark.parametrize("matrix", [[[2.0]], [[2.0, 1.0], [0.0, 2.0]]])
def test_containment_rejects_over_claim(matrix):
    d = dil.new_dilation(matrix)
    rng = np.random.default_rng(1)
    offsets = rng.uniform(-1.0, 1.0, size=(40, d.n))
    values = d.containment_max_values(-1, 1, offsets)
    sampled = bc.sampled_containment_max(d.matrix, d.shape, d.level_c, -1, 1, offsets)
    bc.check_containment_upper_bound(values, sampled, d.level_c)
    over = values.copy()
    over[7] = sampled[7] * (1.0 - 1e-6)
    with pytest.raises(bc.CheckFailure):
        bc.check_containment_upper_bound(over, sampled, d.level_c)


def test_unit_modular_rejects_wrong_norm():
    g = gr.uniform_grid([-2.0, -2.0], [2.0, 2.0], 24)
    x0, x1 = g.meshes()
    p = ex.Exponent(gr.GridFunction(g, 1.5 + 0.3 * np.sin(x0) * np.cos(x1)))
    f = gr.GridFunction(g, np.sin(x0 + 0.3) * np.exp(-x1**2))
    norm = ex.luxemburg_norm(f, p)
    bc.check_unit_modular(norm, f.values, p.values.values, g.cell_volume)
    assert abs(bc.luxemburg(f.values, p.values.values, g.cell_volume) / norm - 1.0) < 1e-10
    for bad in (norm * 1.001, norm * 0.999):
        with pytest.raises(bc.CheckFailure):
            bc.check_unit_modular(bad, f.values, p.values.values, g.cell_volume)


def test_search_dominance_rejects_low_value():
    singles = [0.2, 0.5, 0.4]
    bc.check_search_dominates(0.5, singles)
    with pytest.raises(bc.CheckFailure):
        bc.check_search_dominates(0.5 * (1.0 - 1e-6), singles)


def test_property_checks_reject_violations():
    bc.check_homogeneity(1.0, 3.0, 3.0, "h")
    with pytest.raises(bc.CheckFailure):
        bc.check_homogeneity(1.0, 3.0 * (1.0 + 1e-6), 3.0, "h")
    with pytest.raises(bc.CheckFailure):
        bc.check_homogeneity(0.0, 0.0, 3.0, "h")  # a zero value proves nothing
    bc.check_not_above(0.9, 1.0, "r")
    with pytest.raises(bc.CheckFailure):
        bc.check_not_above(1.0 + 1e-9, 1.0, "r")
    bc.check_slack(0.0, "s")
    with pytest.raises(bc.CheckFailure):
        bc.check_slack(-1e-6, "s")


def _chain_fields(**over):
    fields = {"pairing": 0.3, "truncated_pairing": 0.31, "triangle_slack": 0.01, "cauchy_schwarz_slack": 0.0,
              "reconstruction_residual": 0.0, "defect_normalized": 0.01}
    fields.update(over)
    return type("Report", (), fields)()


def test_chain_check_rejects_slack_and_residual():
    bc.check_chain(_chain_fields(), 0.3)
    for bad in ({"triangle_slack": -1e-6}, {"cauchy_schwarz_slack": -1e-6},
                {"reconstruction_residual": 1e-300}, {"defect_normalized": 0.2}, {"pairing": 0.3 + 1e-9},
                {"truncated_pairing": float("nan")}):
        with pytest.raises(bc.CheckFailure):
            bc.check_chain(_chain_fields(**bad), 0.3)


def test_tent_atom_checks_reject_overlap_and_bit_flip():
    rng = np.random.default_rng(2)
    values = rng.uniform(0.1, 1.0, size=(3, 16))
    values[:, :2] = 0.0
    flat = values.ravel()
    nodes = np.nonzero(flat)[0]
    parts = np.array_split(nodes, 5)
    entries = [(n, flat[n].copy(), 2.0, 0.5) for n in parts[:-1]]
    leaked = np.abs(flat[parts[-1]]).sum() / np.abs(flat).sum()
    bc.check_tent_atoms(values, entries, leaked, 1.0, leakage_bound=1.0)

    overlap = entries + [(parts[0][:1], flat[parts[0][:1]], 2.0, 0.5)]
    flipped = [(n, v.copy(), w, a) for n, v, w, a in entries]
    flipped[1][1][0] = np.nextafter(flipped[1][1][0], 2.0)
    unnormalized = [(n, v, w, a * 1.001) for n, v, w, a in entries]
    for bad, leak in ((overlap, leaked), (flipped, leaked), (unnormalized, leaked), (entries, leaked * 0.5)):
        with pytest.raises(bc.CheckFailure):
            bc.check_tent_atoms(values, bad, leak, 1.0, leakage_bound=1.0)


def test_serialization_checks_reject_size_and_bits(tmp_path):
    g = gr.uniform_grid([-1.0, -1.0], [1.0, 1.0], 6)
    sf = tent.ScaleFunction(g, -2, 0, np.random.default_rng(3).normal(size=(3, 6, 6)))
    path = str(tmp_path / "block.avxs")
    ser.save_scale_function(sf, path)
    bc.check_file_size(os.path.getsize(path), bc.avxs_size(2, 3, (6, 6)), "block")
    with pytest.raises(bc.CheckFailure):
        bc.check_file_size(os.path.getsize(path) - 8, bc.avxs_size(2, 3, (6, 6)), "block")
    loaded = ser.load_scale_function(path)
    bc.check_bitwise(loaded.values, sf.values, "block")
    bad = loaded.values.copy()
    bad.view(np.uint64)[1, 2, 3] ^= 1
    with pytest.raises(bc.CheckFailure):
        bc.check_bitwise(bad, sf.values, "block")


def test_cache_check_rejects_flipped_byte_and_miss():
    report = json.dumps({"values": {"x": 1.5}}, sort_keys=True).encode()
    bc.check_cache_hit(True, report, report)
    flipped = bytearray(report)
    flipped[3] ^= 1
    with pytest.raises(bc.CheckFailure):
        bc.check_cache_hit(True, report, bytes(flipped))
    with pytest.raises(bc.CheckFailure):
        bc.check_cache_hit(False, report, report)


def test_tent_workload_round_passes_then_rejects_corruption(tmp_path):
    """A whole tent-2d round passes its checks; corrupting one loaded block
    or one atom's claimed sample then fails exactly that operation."""
    _, setup, run, check = bw.WORKLOADS["tent-2d"]
    os.makedirs(tmp_path / "out")
    ctx = setup(np.random.default_rng([5, 0]), str(tmp_path), str(tmp_path / "out"))
    ops = bw.Ops(bw.T2_OPS)
    run(ctx, ops)
    check(ctx, ops)
    assert ops.failed == 0, ops.status

    ctx["loaded"][0].values.view(np.uint64).flat[-1] ^= 1
    ctx["atoms"].entries[3].g_values[0] *= 1.0 + 1e-12
    ops = bw.Ops(bw.T2_OPS)
    ops.status = {name: "ok" for name in bw.T2_OPS}
    check(ctx, ops)
    assert ops.status["tent_atomic_decomposition"].startswith("wrong")
    assert ops.status["load_scale_function"].startswith("wrong")
    assert ops.status["tent_atom_validate"] == "ok"
    assert ops.wrong == 2 and ops.failed == 2


def test_run2d_round_counts_a_raising_run_config_as_failed(tmp_path, monkeypatch):
    """A run_config that raises fails all six run-2d ops; the check then
    judges nothing and does not crash."""
    monkeypatch.setenv("ANIVEX_CACHE_DIR", str(tmp_path / "cache"))
    _, setup, run, check = bw.WORKLOADS["run-2d"]
    os.makedirs(tmp_path / "out")
    ctx = setup(np.random.default_rng([5, 0]), str(tmp_path), str(tmp_path / "out"))

    def broken(*args, **kwargs):
        raise TypeError("f() takes 1 positional argument but 2 were given")

    monkeypatch.setattr(bw.cli, "run_config", broken)
    ops = bw.Ops(bw.R2_OPS)
    run(ctx, ops)
    ops.judge(check, ctx)
    assert ops.failed == len(bw.R2_OPS) and ops.wrong == 0, ops.status


def test_judge_marks_unjudged_outputs_wrong_when_the_check_breaks():
    ops = bw.Ops(("a", "b", "c"))
    ops.status = {"a": "ok", "b": "ok", "c": "raised ValueError: x"}

    def check(ctx, ops):
        ops.check("a", lambda: None)
        raise KeyError("report")

    ops.judge(check, {})
    assert ops.status["a"] == "ok"
    assert ops.status["b"].startswith("wrong")
    assert ops.status["c"].startswith("raised")
    assert ops.failed == 2 and ops.wrong == 1
