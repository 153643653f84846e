import numpy as np
import pytest

from anivex.campanato import CampanatoParams
from anivex.dilation import new_dilation
from anivex.errors import DegenerateSeed
from anivex.grid import (
    GridFunction,
    boundary_margin,
    integrate,
    kernel_grid,
    sample,
    uniform_grid,
)
from anivex.exponents import constant_exponent
from anivex.hardy import (
    FiniteAtomicRep,
    dilation_indicator_inequality,
    dual_pairing,
    duality_chain_check,
    finite_atomic_norm,
    hardy_norm_estimate,
    make_atom,
    radial_maximal,
)
from anivex.polyproj import moments
from anivex.search import BallConfiguration


@pytest.fixture(scope="module")
def d1():
    return new_dilation([[2.0]])


@pytest.fixture(scope="module")
def g1():
    return uniform_grid([-8.0], [8.0], 4096)


@pytest.fixture(scope="module")
def p1(g1):
    return constant_exponent(g1, 1.0)


@pytest.fixture(scope="module")
def sqrt12_atom(d1, g1, p1):
    seed = sample(g1, lambda x: x)
    return make_atom(seed, d1, d1.ball([0.0], 0), 2.0, p1, 0)


def bump(spacing, halfwidth, normalize=True):
    kg = kernel_grid(spacing, halfwidth)
    w = 0.999 * halfwidth

    def f(x):
        u = np.clip(x / w, -1.0, 1.0)
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    gf = sample(kg, f)
    if normalize:
        gf = gf.with_values(gf.values / integrate(gf))
    return gf


class TestMakeAtom:
    def test_sqrt12_construction(self, d1, g1, sqrt12_atom):
        # Seed x on (-1/2, 1/2) with s=0 gives a(x) = sqrt(12) x.
        x = g1.axes()[0]
        inside = np.abs(x) < 0.5
        assert np.allclose(
            sqrt12_atom.values.values[inside], np.sqrt(12.0) * x[inside], rtol=1e-3, atol=1e-8
        )
        assert np.all(sqrt12_atom.values.values[~inside] == 0.0)
        l2 = np.sqrt(np.sum(sqrt12_atom.values.values**2) * g1.cell_volume)
        assert l2 == pytest.approx(1.0, rel=1e-10)

    def test_constant_seed_degenerate(self, d1, g1, p1):
        with pytest.raises(DegenerateSeed):
            make_atom(sample(g1, lambda x: 0 * x + 3.0), d1, d1.ball([0.0], 0), 2.0, p1, 0)

    def test_huge_seed_is_the_unit_seed_atom(self, d1):
        # The seed's squared residuals overflow: the L^q norms rescale
        # instead of turning inf and zeroing the atom.
        g = uniform_grid([-8.0], [8.0], 256)
        p = constant_exponent(g, 1.0)
        ball = d1.ball([0.5], 1)
        unit = make_atom(sample(g, lambda x: np.sin(3.0 * x)), d1, ball, 2.0, p, 0)
        huge = make_atom(sample(g, lambda x: 1e160 * np.sin(3.0 * x)), d1, ball, 2.0, p, 0)
        assert np.max(np.abs(huge.values.values - unit.values.values)) <= 1e-12 * np.max(np.abs(unit.values.values))
        assert huge.validation.size_ratio == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("case", range(5))
    def test_random_atoms_validate(self, d1, g1, p1, case):
        rng = np.random.default_rng(40 + case)
        freq = rng.uniform(0.5, 4.0)
        seed = sample(g1, lambda x: np.sin(freq * x) + 0.1 * x**2)
        ball = d1.ball([rng.uniform(-2, 2)], int(rng.integers(-1, 3)))
        q = float(rng.choice([2.0, 3.0, 4.0]))
        s = int(rng.integers(0, 3))
        atom = make_atom(seed, d1, ball, q, p1, s)
        v = atom.validation
        assert v.passed
        assert v.size_ratio == pytest.approx(1.0, abs=1e-10)
        # All moments through order s vanish.
        assert np.max(np.abs(moments(atom.values, s))) <= 1e-8

    def test_vanishing_moment_pairing(self, d1, g1, p1, sqrt12_atom):
        rng = np.random.default_rng(3)
        pts = g1.points()
        for _ in range(10):
            c0, c1 = rng.uniform(-10, 10, size=2)
            # s = 0 atom: only constants must be annihilated.
            poly = GridFunction(g1, np.full(g1.resolution, c0))
            assert abs(dual_pairing(sqrt12_atom.values, poly)) <= 1e-8


class TestFiniteAtomicNorm:
    def test_single_atom_weight(self, d1, g1, p1, sqrt12_atom):
        rep = FiniteAtomicRep([(0.7, sqrt12_atom)])
        assert finite_atomic_norm(rep, p1, d1) == pytest.approx(0.7, rel=1e-9)

    def test_two_disjoint_atoms(self, d1, g1, p1):
        a1 = make_atom(sample(g1, lambda x: x), d1, d1.ball([-3.0], 0), 2.0, p1, 0)
        a2 = make_atom(sample(g1, lambda x: x), d1, d1.ball([3.0], 0), 2.0, p1, 0)
        rep = FiniteAtomicRep([(0.5, a1), (0.5, a2)])
        assert finite_atomic_norm(rep, p1, d1) == pytest.approx(1.0, rel=1e-8)

    def test_zero_weights_reduce(self, d1, g1, p1, sqrt12_atom):
        other = make_atom(sample(g1, lambda x: x), d1, d1.ball([2.0], 1), 2.0, p1, 0)
        rep = FiniteAtomicRep([(1.3, sqrt12_atom), (0.0, other)])
        assert finite_atomic_norm(rep, p1, d1) == pytest.approx(1.3, rel=1e-9)


class TestRadialMaximal:
    def test_zero(self, d1, g1):
        phi = bump(g1.spacing, 0.5)
        f = GridFunction(g1, np.zeros(g1.resolution))
        out = radial_maximal(f, phi, d1, (-4, 4))
        assert np.all(out.values == 0.0)

    def test_dominates_smooth_function(self, d1, g1):
        phi = bump(g1.spacing, 0.5)
        f = sample(g1, lambda x: np.exp(-(x**2) / 4.0))
        out = radial_maximal(f, phi, d1, (-4, 6))
        interior = boundary_margin(g1, 2.0).values > 0
        assert np.all(out.values[interior] >= (1 - 1e-2) * f.values[interior])

    def test_indicator_center(self, d1, g1):
        phi = bump(g1.spacing, 0.5)
        x = g1.axes()[0]
        f = GridFunction(g1, (np.abs(x) < 0.5).astype(float))
        out = radial_maximal(f, phi, d1, (-4, 6))
        center = np.argmin(np.abs(x))
        assert out.values[center] >= 0.99

    def test_norm_monotone_in_window(self, d1, g1, p1, sqrt12_atom):
        phi = bump(g1.spacing, 0.5)
        small = hardy_norm_estimate(sqrt12_atom.values, phi, p1, d1, (-2, 2))
        big = hardy_norm_estimate(sqrt12_atom.values, phi, p1, d1, (-4, 4))
        assert big >= small - 1e-12

    def test_atomic_synthesis_direction(self, d1, g1, p1):
        # Hardy estimates of atomic sums stay within a stable multiple of the
        # atomic norm across a small family.
        phi = bump(g1.spacing, 0.5)
        rng = np.random.default_rng(8)
        ratios = []
        for i in range(4):
            atoms = []
            for _ in range(int(rng.integers(1, 4))):
                seed = sample(g1, lambda x: np.sin(rng.uniform(0.5, 3) * x))
                ball = d1.ball([rng.uniform(-2, 2)], int(rng.integers(0, 2)))
                atoms.append((rng.uniform(0.3, 1.0), make_atom(seed, d1, ball, 2.0, p1, 0)))
            rep = FiniteAtomicRep(atoms)
            est = hardy_norm_estimate(rep.function(), phi, p1, d1, (-6, 4), margin=1.0)
            ratios.append(est / finite_atomic_norm(rep, p1, d1))
        ratios = np.array(ratios)
        assert np.all(np.isfinite(ratios))
        mid = np.median(ratios)
        assert np.all(ratios <= 1.25 * mid * 2.0) and np.all(ratios >= mid * 0.75 / 2.0)


class TestDualPairing:
    def test_odd_even_orthogonal(self, g1):
        f = sample(g1, lambda x: x)
        g = sample(g1, lambda x: np.exp(-(x**2)))
        assert abs(dual_pairing(f, g)) <= 1e-8

    def test_atom_self_pairing(self, d1, g1, sqrt12_atom):
        assert dual_pairing(sqrt12_atom.values, sqrt12_atom.values) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_bilinearity(self, g1):
        rng = np.random.default_rng(4)
        a = GridFunction(g1, rng.normal(size=g1.resolution))
        b = GridFunction(g1, rng.normal(size=g1.resolution))
        c = GridFunction(g1, rng.normal(size=g1.resolution))
        lhs = dual_pairing(a.with_values(2 * a.values + b.values), c)
        assert lhs == pytest.approx(2 * dual_pairing(a, c) + dual_pairing(b, c), rel=1e-10)


class TestDualityChain:
    def test_worked_equality_case(self, d1, g1, p1, sqrt12_atom):
        rep = FiniteAtomicRep([(1.0, sqrt12_atom)])
        prm = CampanatoParams(p=p1, q=2.0, s=0, eta=1.0)
        report = duality_chain_check(rep, sqrt12_atom.values, prm, d1)
        assert report.passed
        assert report.pairing == pytest.approx(1.0, abs=1e-6)
        assert report.oscillation_bound == pytest.approx(1.0, abs=1e-6)
        assert report.ratio == pytest.approx(1.0, abs=1e-6)
        # Every chain step is an equality here.
        assert abs(report.aggregation_slack) <= 1e-6

    def test_polynomial_g_annihilates(self, d1, g1, p1, sqrt12_atom):
        rep = FiniteAtomicRep([(1.0, sqrt12_atom)])
        g = sample(g1, lambda x: 0 * x + 2.0)
        assert abs(dual_pairing(rep.function(), g)) <= 1e-8

    @pytest.mark.parametrize("case", range(5))
    def test_random_chain_holds(self, d1, g1, p1, case):
        rng = np.random.default_rng(60 + case)
        atoms = []
        for _ in range(int(rng.integers(1, 4))):
            seed = sample(g1, lambda x: np.sin(rng.uniform(0.5, 3) * x) + 0.2 * x)
            ball = d1.ball([rng.uniform(-2, 2)], int(rng.integers(-1, 2)))
            atoms.append((rng.uniform(0.2, 1.0), make_atom(seed, d1, ball, 2.0, p1, 0)))
        rep = FiniteAtomicRep(atoms)
        g = sample(g1, lambda x: np.cos(rng.uniform(0.5, 2) * x) * np.exp(-(x**2) / 8))
        prm = CampanatoParams(p=p1, q=2.0, s=0, eta=1.0)
        report = duality_chain_check(rep, g, prm, d1, seed=case)
        assert report.passed
        assert report.ratio <= 1.0 + 1e-8


class TestDilationInequality:
    def test_single_ball_exact_growth(self, d1, g1, p1):
        cfg = BallConfiguration([(d1.ball([0.0], -2), 1.0)])
        report = dilation_indicator_inequality(cfg, d1, p1, k_max=4, r_aux=0.5)
        assert report.passed
        assert report.slope == pytest.approx(1.0, abs=0.02)
        assert report.norms[0] == pytest.approx(0.25, abs=2 * g1.spacing[0])

    def test_multi_ball_l1_additive(self, d1, g1, p1):
        cfg = BallConfiguration(
            [(d1.ball([-2.0], -1), 1.0), (d1.ball([1.0], 0), 1.0), (d1.ball([3.0], -2), 1.0)]
        )
        report = dilation_indicator_inequality(cfg, d1, p1, k_max=3, r_aux=0.5)
        assert report.passed
        assert report.slope <= 1.0 + 0.05

    def test_k_zero_ratio_one(self, d1, g1, p1):
        cfg = BallConfiguration([(d1.ball([0.0], 0), 1.0)])
        report = dilation_indicator_inequality(cfg, d1, p1, k_max=2, r_aux=0.5)
        assert report.norms[0] == pytest.approx(1.0, rel=1e-9)

    def test_default_r_aux_is_the_campanato_default(self, d1, g1):
        # r_aux defaults to underline_p / 2 and must lie below underline_p.
        p = constant_exponent(g1, 0.8)
        cfg = BallConfiguration([(d1.ball([0.0], 0), 1.0)])
        report = dilation_indicator_inequality(cfg, d1, p, k_max=1)
        assert report.bound == 1.0 / CampanatoParams(p=p).r_aux + 0.05 == 1.0 / 0.4 + 0.05
        with pytest.raises(ValueError, match="r_aux"):
            dilation_indicator_inequality(cfg, d1, p, k_max=1, r_aux=0.81)


def test_chain_warns_below_admissible_degree(d1, g1):
    from anivex.exponents import constant_exponent
    from anivex.grid import sample

    p_small = constant_exponent(g1, 0.5)  # admissible floor is s = 1
    atom = make_atom(sample(g1, lambda x: x**2), d1, d1.ball([0.0], 0), 2.0, p_small, 1)
    rep = FiniteAtomicRep([(1.0, atom)])
    g = sample(g1, lambda x: np.exp(-(x**2)))
    prm = CampanatoParams(p=p_small, q=2.0, s=0, eta=1.0)
    with pytest.warns(UserWarning):
        duality_chain_check(rep, g, prm, d1)
