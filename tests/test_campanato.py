from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import paste_centered, recorded

from anivex import campanato, carleson, exponents
from anivex.campanato import (
    BallConfiguration,
    CampanatoParams,
    _oscillation_term,
    _score_sweep,
    aggregate_norm,
    aggregation_vs_total_weight,
    campanato_type_functional,
    campanato_type_norm,
    classic_functional,
    config_quotient,
    countable_limit_check,
    eps_kernel_summand,
    minimal_admissible_degree,
    per_ball_cache,
    plain_summand,
    variant_eps_functional,
    variant_inf_functional,
)
from anivex.dilation import new_dilation
from anivex.errors import EmptyMask, InsufficientSamples, ZeroDenominator
from anivex.exponents import (
    Exponent,
    _indicator_key,
    constant_exponent,
    exponent_from_callable,
    indicator_norm,
    luxemburg_norm,
)
from anivex.grid import GridFunction, ball_footprint, ball_support, lattice_anchors, sample, scale_stacks, uniform_grid
from anivex.polyproj import multi_indices, project_stack
from anivex.search import (
    SearchResult,
    _ascent_variant,
    _canonical_sweep,
    _random_config,
    candidate_stream,
    default_scale_window,
    supremum_search,
)
from anivex.tent import zero_scale_function


@pytest.fixture(scope="module")
def d1():
    return new_dilation([[2.0]])


@pytest.fixture(scope="module")
def g1():
    return uniform_grid([-8.0], [8.0], 4096)


@pytest.fixture(scope="module")
def p1(g1):
    return constant_exponent(g1, 1.0)


def single(d, center, scale, weight=1.0):
    return BallConfiguration([(d.ball(center, scale), weight)])


class TestAggregateNorm:
    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("lam", [0.3, 1.0, 4.0])
    def test_single_ball_reduces_to_weight(self, d1, g1, p1, eta, lam):
        cfg = single(d1, [0.0], 0, lam)
        assert aggregate_norm(cfg, p1, eta, d1) == lam

    def test_two_disjoint_balls(self, d1, g1, p1):
        lam = 0.7
        cfg = BallConfiguration(
            [(d1.ball([-3.0], 0), lam), (d1.ball([3.0], 0), lam)]
        )
        assert aggregate_norm(cfg, p1, 1.0, d1) == pytest.approx(2 * lam, rel=1e-8)

    def test_zero_weights_ignored(self, d1, g1, p1):
        cfg = BallConfiguration(
            [(d1.ball([0.0], 0), 2.5), (d1.ball([1.0], 1), 0.0)]
        )
        assert aggregate_norm(cfg, p1, 1.0, d1) == pytest.approx(2.5, rel=1e-9)

    def test_empty_ball_raises(self, d1, g1, p1):
        ball = d1.ball([0.0], -10)  # between the lattice points at +-2^-9
        assert ball_support(g1, d1, ball).size == 0
        cfg = BallConfiguration([(ball, 1.0), (d1.ball([1.0], 0), 0.0)])
        with pytest.raises(EmptyMask):
            aggregate_norm(cfg, p1, 1.0, d1)
        with pytest.raises(EmptyMask):
            campanato_type_functional(sample(g1, np.sin), cfg, CampanatoParams(p=p1), d1)


def _grid_aggregate(config, p, eta, d):
    """The aggregate as one Luxemburg solve on the grid, for any number of
    balls: the reference for the single-ball identity."""
    acc = np.zeros(p.grid.resolution)
    for ball, weight in config.entries:
        if weight != 0.0:
            acc.ravel()[ball_support(p.grid, d, ball)] += (weight / indicator_norm(d, ball, p)) ** eta
    return luxemburg_norm(GridFunction(p.grid, acc ** (1.0 / eta)), p)


def _exponents(g):
    """p = 1, p = 0.6, and variable exponents below and above 1."""
    return [
        constant_exponent(g, 1.0),
        constant_exponent(g, 0.6),
        exponent_from_callable(g, lambda x, *_: 0.6 + 0.35 * np.sin(x) ** 2),
        exponent_from_callable(g, lambda x, *_: 1.5 + 0.25 * np.sin(x) ** 2),
    ]


def _case(matrix, grid, scales):
    return new_dilation(matrix), grid, _exponents(grid), scales


_SINGLE_BALL_CASES = {
    "[2]": _case([[2.0]], uniform_grid([-8.0], [8.0], 1024), (-9, 4)),
    "diag(2,3)": _case([[2.0, 0.0], [0.0, 3.0]], uniform_grid([-4.0, -4.0], [4.0, 4.0], (48, 48)), (-4, 2)),
    "shear": _case([[2.0, 1.0], [0.0, 2.0]], uniform_grid([-4.0, -4.0], [4.0, 4.0], (48, 48)), (-5, 3)),
}


class TestSingleBallDenominator:
    @settings(max_examples=200)
    @given(
        case=st.sampled_from(sorted(_SINGLE_BALL_CASES)),
        which_p=st.integers(0, 3),
        eta=st.sampled_from([0.5, 1.0, 2.0]),
        weight=st.floats(1e-3, 1e3),
        dead=st.integers(0, 2),
        data=st.data(),
    )
    def test_weight_is_exact(self, case, which_p, eta, weight, dead, data):
        d, g, ps, (k_lo, k_hi) = _SINGLE_BALL_CASES[case]
        p = ps[which_p]
        if data.draw(st.booleans(), label="on lattice"):
            # Lattice centres, the edge cells among them, so balls are clipped.
            index = [data.draw(st.one_of(st.sampled_from([0, r - 1]), st.integers(0, r - 1))) for r in g.resolution]
            center = [lo + (i + 0.5) * h for lo, i, h in zip(g.lower, index, g.spacing)]
        else:
            center = [data.draw(st.floats(lo, hi)) for lo, hi in zip(g.lower, g.upper)]
        ball = d.ball(center, data.draw(st.integers(k_lo, k_hi)))
        entries = [(d.ball(center, k_hi), 0.0)] * dead
        entries.insert(data.draw(st.integers(0, dead)), (ball, weight))
        cfg = BallConfiguration(entries)
        if ball_support(g, d, ball).size == 0:
            with pytest.raises(EmptyMask):
                aggregate_norm(cfg, p, eta, d)
            return
        assert aggregate_norm(cfg, p, eta, d) == weight
        assert _grid_aggregate(cfg, p, eta, d) == pytest.approx(weight, rel=1e-14, abs=0.0)


def _fresh(p):
    """p with an empty indicator-norm cache, so every norm is solved alone."""
    return Exponent(p.values, p.p_infinity)


def _params(prm, p):
    return CampanatoParams(p=p, q=prm.q, s=prm.s, eta=prm.eta)


def _wavy(g):
    return sample(g, lambda x, *y: np.sin(1.3 * x + 0.4) * np.cos(0.9 * (y[0] if y else x)) + 0.2 * x)


def _check_stacks(f, prm, d, balls):
    """_score_sweep's norms and terms equal the one-ball calls bit for bit,
    and a ball the search skips gets no norm or no term; returns the count
    of balls per (scale, support size) group."""
    terms = _score_sweep(f, prm, d, balls)
    alone = _params(prm, _fresh(prm.p))
    term = _oscillation_term(f, alone, d)
    coefficients = len(multi_indices(f.grid.n, prm.s))
    groups = {}
    for ball in balls:
        size = ball_support(f.grid, d, ball).size
        if size == 0:
            assert _indicator_key(d, ball) not in prm.p._indicator_cache
            with pytest.raises(EmptyMask):
                config_quotient(single(d, ball.center, ball.scale), term, alone.p, prm.eta, d)
            continue
        groups[(ball.scale, size)] = groups.get((ball.scale, size), 0) + 1
        assert prm.p._indicator_cache[_indicator_key(d, ball)] == indicator_norm(d, ball, alone.p)
        if size < coefficients:
            assert ball.key() not in terms
            with pytest.raises(InsufficientSamples):
                term(ball)
            continue
        assert terms[ball.key()] == term(ball)
    return groups


class TestStackedSweep:
    @settings(max_examples=60)
    @given(
        case=st.sampled_from(sorted(_SINGLE_BALL_CASES)),
        which_p=st.sampled_from([0, 2, 3]),
        q=st.sampled_from([1.0, 2.0, 3.0]),
        s=st.integers(0, 1),
        data=st.data(),
    )
    def test_stack_equals_one_ball_calls(self, case, which_p, q, s, data):
        d, g, ps, (k_lo, k_hi) = _SINGLE_BALL_CASES[case]
        # k_hi's footprint is wider than the box.
        assert any(w > r for w, r in zip(ball_footprint(d, g, k_hi).shape, g.resolution))
        scale = data.draw(st.one_of(st.just(k_hi), st.integers(k_lo, k_hi)), label="scale")
        # Lattice centres, edge and corner cells and their neighbours among
        # them, so one scale holds clipped balls of several support sizes.
        index = st.tuples(*(st.one_of(st.sampled_from([0, 1, r - 2, r - 1]), st.integers(0, r - 1)) for r in g.resolution))
        centers = [
            [lo + (i + 0.5) * h for lo, i, h in zip(g.lower, idx, g.spacing)]
            for idx in data.draw(st.lists(index, min_size=2, max_size=12), label="lattice centres")
        ]
        if data.draw(st.booleans(), label="off-lattice centre"):
            centers.append([data.draw(st.floats(lo, hi)) for lo, hi in zip(g.lower, g.upper)])
        balls = [d.ball(c, scale) for c in centers]
        # A row's inside entries, in order, are its ball's lattice points, bit
        # for bit: ball_support on a fresh dilation, and the footprint of the
        # stack's shift pasted at the ball's anchor.
        fresh, unclipped = new_dilation(d.matrix), []
        for _, group, rows, inside, shift in scale_stacks(g, d, balls, data.draw(st.sampled_from([64, 1 << 12]))):
            for ball, row, mask in zip(group, rows, inside):
                [anchor], [ball_shift] = lattice_anchors(g, [ball.center])
                assert np.array_equal(shift, ball_shift)
                assert np.array_equal(row[mask], ball_support(g, fresh, ball))
                pasted = paste_centered(g.resolution, ball_footprint(d, g, scale, shift), anchor)
                assert np.array_equal(row[mask], np.flatnonzero(pasted))
                if mask.all() and mask.size:
                    unclipped.append(ball)
        prm = CampanatoParams(p=_fresh(ps[which_p]), q=q, s=s)
        f = _wavy(g)
        _check_stacks(f, prm, d, balls)
        # A ball the box does not clip keeps the norm and term of its compact
        # support, bit for bit: the indicator solve on ones and the one-row
        # projection of the support that indicator_norm and _project made
        # before the footprint layout.
        coefficients = len(multi_indices(g.n, s))
        for ball in unclipped:
            support = ball_support(g, d, ball)
            compact = np.ones((1, support.size))
            norm = exponents._luxemburg(compact, prm.p.values.values.ravel()[support][None], g.cell_volume)[0]
            assert prm.p._indicator_cache[_indicator_key(d, ball)] == norm
            if support.size >= coefficients:
                shift = lattice_anchors(g, [ball.center])[1][0]
                _, resid, _ = project_stack(f, d, scale, shift, support[None], compact.astype(bool), s)
                vol = d.ball_volume(ball)
                term = vol / norm * campanato._mean_oscillation(resid, q, vol, g.cell_volume)[0]
                assert _oscillation_term(f, prm, d)(ball) == term

    def test_one_solve_and_one_projection_per_scale_and_chunk(self, monkeypatch):
        # A run-2d-like input: the sweep and the random stage hold clipped
        # balls of many support sizes, over 60 (scale, size) pairs, yet each
        # scale is one solve and one projection per chunk of its balls.
        d = new_dilation([[2.0, 0.0], [0.0, 3.0]])
        g = uniform_grid([-5.0, -5.0], [5.0, 5.0], (48, 48))
        p = exponent_from_callable(g, lambda x, y: 1.4 + 0.3 * np.sin(0.7 * x) * np.cos(0.6 * y))
        f = sample(g, lambda x, y: np.sin(1.1 * x + 0.3) * np.cos(0.9 * y) * np.exp(-(x**2 + y**2) / 10))
        prm = CampanatoParams(p=p, q=2.0, s=1, eta=1.0)
        window = default_scale_window(d, g, min_points=4 + 2 * prm.s)
        stream = candidate_stream(d, g, _sweep_length(f, prm, d) + 64, 1, window)
        balls = list({ball.key(): ball for config in stream if config is not None for ball in config.balls()}.values())
        off_lattice = [d.ball([0.1, -0.2], window[1]), d.ball([-1.3, 2.05], window[0])]
        counts = {"_luxemburg": 0, "project_stack": 0}
        for module, name in ((exponents, "_luxemburg"), (campanato, "project_stack")):
            monkeypatch.setattr(module, name, _counting(counts, name, getattr(module, name)))
        _score_sweep(f, prm, d, balls + off_lattice)
        chunks = 0
        for k in range(window[0], window[1] + 1):
            per_chunk = max(campanato._STACK_ENTRIES // np.count_nonzero(ball_footprint(d, g, k)), 1)
            chunks += -(-sum(ball.scale == k for ball in balls) // per_chunk)
        assert not lattice_anchors(g, [ball.center for ball in balls])[1].any()
        assert max(counts.values()) <= chunks + len(off_lattice) < 30
        assert len({(ball.scale, ball_support(g, d, ball).size) for ball in balls}) > 60

    @pytest.mark.parametrize("case", sorted(_SINGLE_BALL_CASES))
    def test_whole_sweep(self, case):
        d, g, ps, _ = _SINGLE_BALL_CASES[case]
        prm = CampanatoParams(p=_fresh(ps[2]), q=2.0, s=1)
        window = default_scale_window(d, g, min_points=4 + 2 * prm.s)
        groups = _check_stacks(_wavy(g), prm, d, list(_canonical_sweep(d, g, window)))
        assert max(groups.values()) > 1  # a real stack
        assert len({k for k, _ in groups}) < len(groups)  # mixed sizes in a scale


def _counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


_CROSSING = {
    # p from 0.4 to 1.2, across 1
    "diag(2,3)": (new_dilation([[2.0, 0.0], [0.0, 3.0]]), 2.0, 1),
    "shear": (new_dilation([[2.0, 1.0], [0.0, 2.0]]), 1.5, 0),
}


def _crossing_case(case, resolution=(32, 32)):
    d, q, s = _CROSSING[case]
    g = uniform_grid([-4.0, -4.0], [4.0, 4.0], resolution)
    p = exponent_from_callable(g, lambda x, y: 0.8 + 0.4 * np.sin(x) * np.cos(y))
    f = sample(g, lambda x, y: np.sin(1.1 * x + 0.3) * np.cos(0.9 * y) * np.exp(-(x**2 + y**2) / 10) + 0.2 * x * y)
    return f, CampanatoParams(p=p, q=q, s=s), d


def _drawn_config(rng, d, grid, window, max_balls):
    """A random configuration drawn as rng.uniform and np.clip draw it."""
    m = int(rng.integers(2, max_balls + 1))
    entries = []
    for _ in range(m):
        point = rng.uniform(np.asarray(grid.lower), np.asarray(grid.upper))
        center = [
            lo + (int(np.clip(np.floor((x - lo) / h), 0, r - 1)) + 0.5) * h
            for x, lo, h, r in zip(point, grid.lower, grid.spacing, grid.resolution)
        ]
        scale = int(rng.integers(window[0], window[1] + 1))
        entries.append((d.ball(center, scale), float(rng.uniform(0.25, 1.0))))
    return BallConfiguration(entries)


def _one_at_a_time(config_value, d, grid, budget, seed, window):
    """The search drawing and scoring each candidate as it comes: the sweep,
    then three random configurations and one ascent slot per round."""
    rng = np.random.default_rng(seed)
    best_value, best_config, evaluations, seen = -np.inf, None, 0, 0

    def consider(config):
        nonlocal best_value, best_config, evaluations
        try:
            value = config_value(config)
        except (EmptyMask, InsufficientSamples, ZeroDenominator):
            return
        evaluations += 1
        if value > best_value:
            best_value, best_config = value, config

    for ball in _canonical_sweep(d, grid, window):
        if seen >= budget:
            break
        seen += 1
        consider(BallConfiguration([(ball, 1.0)]))
    ascent_step = 0
    while seen < budget:
        for _ in range(3):
            if seen >= budget:
                break
            seen += 1
            consider(_drawn_config(rng, d, grid, window, max_balls=8))
        if seen >= budget:
            break
        seen += 1
        if best_config is not None:
            variant = _ascent_variant(best_config, ascent_step)
            ascent_step += 1
            if variant is not None:
                consider(variant)
    return SearchResult(float(best_value), best_config, evaluations, seen)


def _reference_search(f, prm, d, budget, seed, record=None):
    """campanato_type_norm one candidate at a time: config_quotient on each
    candidate as it is drawn, with no stacks and a fresh cache."""
    alone = _params(prm, _fresh(prm.p))
    term = per_ball_cache(_oscillation_term(f, alone, d))
    window = default_scale_window(d, f.grid, min_points=4 + 2 * prm.s)

    def value(config):
        return config_quotient(config, term, alone.p, alone.eta, d)

    return _one_at_a_time(recorded(value, record), d, f.grid, budget, seed, window)


def _keys_of(config):
    return [(ball.key(), w) for ball, w in config.entries]


def _keys(result):
    return _keys_of(result.config)


def _sweep_length(f, prm, d):
    window = default_scale_window(d, f.grid, min_points=4 + 2 * prm.s)
    return sum(1 for _ in _canonical_sweep(d, f.grid, window))


class TestStackedSearch:
    @pytest.mark.parametrize("case", sorted(_CROSSING))
    def test_results_equal_one_candidate_at_a_time(self, case, monkeypatch):
        f, prm, d = _crossing_case(case)
        sweep = _sweep_length(f, prm, d)
        stacked, reference = [], []
        search = campanato.supremum_search
        monkeypatch.setattr(
            campanato, "supremum_search", lambda value, *args: search(recorded(value, stacked), *args)
        )
        values = []
        # Into the sweep, to its end, and past it into the random stage: one
        # random configuration, three, a full round of four with its ascent
        # slot, and many rounds.
        for budget in (100, 200, sweep, sweep + 1, sweep + 3, sweep + 4, sweep + 64, sweep + 301):
            stacked.clear()
            reference.clear()
            res = campanato_type_norm(f, _params(prm, _fresh(prm.p)), d, budget=budget, seed=5)
            ref = _reference_search(f, prm, d, budget, 5, reference)
            assert stacked == reference  # every candidate's value, in order
            assert res.value == ref.value
            assert _keys(res) == _keys(ref)
            assert (res.evaluations, res.candidates_seen) == (ref.evaluations, ref.candidates_seen)
            again = campanato_type_norm(f, _params(prm, _fresh(prm.p)), d, budget=budget, seed=5)
            assert (again.value, _keys(again), again.evaluations) == (res.value, _keys(res), res.evaluations)
            values.append(res.value)
        assert values == sorted(values)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stream_search_equals_one_at_a_time(self, seed):
        # A synthetic objective that grows with the weights, so the ascent
        # variants take the lead, and that cannot score balls at the
        # smallest scale, so candidates are skipped.
        d = new_dilation([[2.0, 1.0], [0.0, 2.0]])
        g = uniform_grid([-4.0, -4.0], [4.0, 4.0], [32, 24])
        window = default_scale_window(d, g, min_points=4)

        def value(config):
            if any(ball.scale == window[0] for ball in config.balls()):
                raise InsufficientSamples("smallest scale")
            return sum(w * (1.0 + abs(ball.center[0])) for ball, w in config.entries) / len(config.entries)

        sweep = sum(1 for _ in _canonical_sweep(d, g, window))
        for budget in (sweep - 1, sweep, sweep + 1, sweep + 3, sweep + 4, sweep + 5, sweep + 120):
            got, want = [], []
            res = supremum_search(recorded(value, got), candidate_stream(d, g, budget, seed, window))
            ref = _one_at_a_time(recorded(value, want), d, g, budget, seed, window)
            assert got == want
            assert (res.value, _keys(res), res.evaluations, res.candidates_seen) == (
                ref.value, _keys(ref), ref.evaluations, ref.candidates_seen
            )
        assert max(w for _, w in res.config.entries) > 1.0  # an ascent variant leads
        with pytest.raises(ValueError):
            candidate_stream(d, g, 0, seed, window)

    def test_random_draws_equal_rng_uniform(self):
        grids = [
            uniform_grid([-8.0], [8.0], 4096),
            uniform_grid([-3.7, 0.2], [5.1, 9.9], [37, 21]),
            uniform_grid([-1.0, -2.0, 0.5], [1.0, 2.0, 3.5], [5, 9, 7]),
        ]
        matrices = {1: [[2.0]], 2: [[2.0, 1.0], [0.0, 2.0]], 3: np.diag([2.0, 3.0, 2.5])}
        for g in grids:
            d = new_dilation(matrices[g.n])
            for seed in range(20):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(10):
                    got = _random_config(ours, d, g, (-3, 2), 8)
                    want = _drawn_config(theirs, d, g, (-3, 2), 8)
                    assert _keys_of(got) == _keys_of(want)
                assert ours.random() == theirs.random()  # the same draws were used

    @pytest.mark.parametrize("functional", ["campanato", "carleson"])
    def test_no_single_ball_work_inside_the_search(self, functional, monkeypatch):
        # Every ball of the fixed stream is scored before the search: inside
        # it no indicator norm is solved, no ball is projected and no tent
        # mass is summed, and the only Luxemburg solves are the denominators
        # of multi-ball candidates.
        f, prm, d = _crossing_case("diag(2,3)")
        if functional == "campanato":
            budget = _sweep_length(f, prm, d) + 301
            run = partial(campanato_type_norm, f, _params(prm, _fresh(prm.p)), d)
        else:
            mu = zero_scale_function(f.grid, (-3, 0))
            mu.values[:] = np.abs(f.values)
            window = default_scale_window(d, f.grid, min_points=1)
            budget = sum(1 for _ in _canonical_sweep(d, f.grid, window)) + 301
            run = partial(carleson.carleson_functional, mu, _fresh(prm.p), d)
        inside, counts = [False], {"project": 0, "indicator": 0, "tent": 0, "luxemburg": 0, "multi": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += inside[0]
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(campanato, "_project", counted("project", campanato._project))
        monkeypatch.setattr(exponents, "_indicator_norms", counted("indicator", exponents._indicator_norms))
        monkeypatch.setattr(carleson, "tent_masses", counted("tent", carleson.tent_masses))
        monkeypatch.setattr(exponents, "_luxemburg", counted("luxemburg", exponents._luxemburg))
        search = campanato.supremum_search

        def traced_search(config_value, stream):
            def value(config):
                counts["multi"] += sum(1 for _, w in config.entries if w != 0.0) > 1
                return config_value(config)

            inside[0] = True
            try:
                return search(value, stream)
            finally:
                inside[0] = False

        monkeypatch.setattr(campanato, "supremum_search", traced_search)
        res = run(budget=budget, seed=3)
        assert (res.evaluations, res.candidates_seen) == (budget, budget)
        assert counts["project"] == counts["indicator"] == counts["tent"] == 0
        assert counts["luxemburg"] == counts["multi"] > 200


def test_per_ball_cache_remembers_too_few_samples():
    calls = []

    def term(ball):
        calls.append(ball)
        raise InsufficientSamples("too few lattice points")

    cached = per_ball_cache(term)
    ball = new_dilation([[2.0]]).ball([0.0], 0)
    for _ in range(3):
        with pytest.raises(InsufficientSamples):
            cached(ball)
    assert len(calls) == 1


class TestStackedSkips:
    def test_skipped_candidates_match(self, monkeypatch):
        # s = 2 on a 24 x 24 shear grid: clipped balls of the smallest scale
        # hold fewer lattice points than the six coefficients.
        f, prm, d = _crossing_case("shear", (24, 24))
        prm = CampanatoParams(p=prm.p, q=prm.q, s=2)
        stacked, reference = [], []
        search = campanato.supremum_search
        monkeypatch.setattr(
            campanato, "supremum_search", lambda value, *args: search(recorded(value, stacked), *args)
        )
        res = campanato_type_norm(f, _params(prm, _fresh(prm.p)), d, budget=700, seed=2)
        ref = _reference_search(f, prm, d, 700, 2, reference)
        assert stacked == reference
        assert stacked.count("InsufficientSamples") > 0
        assert (res.evaluations, res.candidates_seen) == (ref.evaluations, ref.candidates_seen)
        assert res.evaluations == 700 - stacked.count("InsufficientSamples")

    def test_too_small_balls_project_once(self, monkeypatch):
        # On 16 x 16 at s = 2 two sweep balls hold fewer lattice points than
        # coefficients, and the random stage draws them again and again.
        # One candidate at a time projects each of them once, and its cache
        # raises InsufficientSamples again on every later hit; the stacked
        # search leaves them out of its terms and projects no ball at all.
        f, prm, d = _crossing_case("shear", (16, 16))
        prm = CampanatoParams(p=prm.p, q=prm.q, s=2)
        projected, searching, stacked = [], [], []
        project, search = campanato._project, campanato.supremum_search

        def counted(f, d, ball, s):
            if searching:
                projected.append(ball)
            return project(f, d, ball, s)

        def searched(value, *args):
            searching.append(True)
            try:
                return search(recorded(value, stacked), *args)
            finally:
                searching.clear()

        monkeypatch.setattr(campanato, "_project", counted)
        monkeypatch.setattr(campanato, "supremum_search", searched)
        res = campanato_type_norm(f, _params(prm, _fresh(prm.p)), d, budget=2000, seed=1)
        assert projected == []
        assert stacked.count("InsufficientSamples") > 2
        searching.append(True)  # the reference projects each ball as it meets it
        ref = _reference_search(f, prm, d, 2000, 1)
        coefficients = len(multi_indices(2, 2))
        small = [ball.key() for ball in projected if ball_support(f.grid, d, ball).size < coefficients]
        assert len(small) == len(set(small)) == 2
        assert (res.value, res.evaluations, res.candidates_seen) == (ref.value, ref.evaluations, ref.candidates_seen)

    def test_ball_off_the_lattice_gets_nothing(self):
        f, prm, d = _crossing_case("diag(2,3)")
        g = f.grid
        window = default_scale_window(d, g, min_points=4 + 2 * prm.s)
        missing = d.ball([g.lower[0] + g.spacing[0], g.lower[1] + g.spacing[1]], -4)
        assert ball_support(g, d, missing).size == 0
        balls = list(_canonical_sweep(d, g, window))[:300]
        balls.insert(150, missing)
        _check_stacks(f, _params(prm, _fresh(prm.p)), d, balls)

    def test_singular_gram_is_skipped(self):
        # A ball whose lattice points do not fix its polynomial is skipped
        # like a too-small one, stacked as one candidate at a time.  Coarse
        # in y: some s = 1 sweep balls hold one lattice row.
        f, prm, d = _crossing_case("shear", (32, 8))
        prm = CampanatoParams(p=prm.p, q=prm.q, s=1)
        res = campanato_type_norm(f, _params(prm, _fresh(prm.p)), d, budget=200, seed=1)
        ref = _reference_search(f, prm, d, 200, 1)
        assert (res.value, _keys(res), res.evaluations) == (ref.value, _keys(ref), ref.evaluations)
        assert (res.value, res.evaluations) == (0.2595543133846653, 196)
        # A 12-by-12 grid at s = 2: a scale-1 sweep ball holds six lattice
        # points on two rows, so its Gram matrix is singular whatever
        # rounding does to a solve.
        f12, prm12, d12 = _crossing_case("shear", (12, 12))
        prm12 = CampanatoParams(p=prm12.p, q=1.5, s=2)
        res = campanato_type_norm(f12, _params(prm12, _fresh(prm12.p)), d12, budget=700, seed=1)
        ref = _reference_search(f12, prm12, d12, 700, 1)
        assert (res.value, _keys(res), res.evaluations) == (ref.value, _keys(ref), ref.evaluations)
        assert (res.value, res.evaluations) == (0.15683082681038665, 619)


class TestClassicFunctional:
    def test_linear_oscillation(self, d1, g1, p1):
        f = sample(g1, lambda x: x)
        res = classic_functional(f, d1, d1.ball([0.0], 0), p1, 1.0, 0)
        assert res.projection_value == pytest.approx(0.25, abs=1e-4)

    def test_polynomials_annihilated(self, d1, g1, p1):
        f = sample(g1, lambda x: 2.0 - 0.3 * x)
        res = classic_functional(f, d1, d1.ball([0.5], 1), p1, 2.0, 1)
        assert res.projection_value <= 1e-10
        assert res.refined_value <= 1e-10

    def test_quadratic_q2_closed_form(self, d1, g1, p1):
        f = sample(g1, lambda x: x**2)
        res = classic_functional(f, d1, d1.ball([0.0], 1), p1, 2.0, 1)
        assert res.projection_value == pytest.approx(np.sqrt(4.0 / 45.0), abs=1e-4)
        # For q = 2 the projection is the exact infimum.
        assert res.refined_value == pytest.approx(res.projection_value, rel=1e-10)


class TestConfigurationFunctional:
    def test_single_ball_reduction_identity(self, d1, g1, p1):
        f = sample(g1, lambda x: np.sin(x))
        prm = CampanatoParams(p=p1, q=2.0, s=1, eta=0.8)
        for center, scale, lam in [([0.0], 0, 1.0), ([1.3], 1, 0.4), ([-2.0], 2, 5.0)]:
            cfg = single(d1, center, scale, lam)
            via_config = campanato_type_functional(f, cfg, prm, d1)
            via_classic = classic_functional(
                f, d1, d1.ball(center, scale), p1, prm.q, prm.s
            ).projection_value
            assert via_config == pytest.approx(via_classic, rel=1e-10)

    def test_polynomial_gives_zero(self, d1, g1, p1):
        f = sample(g1, lambda x: 1.0 + 0.5 * x)
        prm = CampanatoParams(p=p1, q=1.0, s=1, eta=1.0)
        cfg = BallConfiguration(
            [(d1.ball([0.0], 0), 1.0), (d1.ball([2.0], 1), 0.5)]
        )
        assert campanato_type_functional(f, cfg, prm, d1) <= 1e-10

    def test_worked_quarter(self, d1, g1, p1):
        f = sample(g1, lambda x: x)
        prm = CampanatoParams(p=p1, q=1.0, s=0, eta=1.0)
        assert campanato_type_functional(f, single(d1, [0.0], 0), prm, d1) == pytest.approx(
            0.25, abs=1e-4
        )

    def test_homogeneity(self, d1, g1, p1):
        f = sample(g1, lambda x: np.cos(2 * x) + x)
        prm = CampanatoParams(p=p1, q=2.0, s=0, eta=1.0)
        cfg = BallConfiguration(
            [(d1.ball([0.0], 1), 1.0), (d1.ball([1.0], 0), 2.0)]
        )
        base = campanato_type_functional(f, cfg, prm, d1)
        scaled = campanato_type_functional(f.with_values(7.0 * f.values), cfg, prm, d1)
        assert scaled == pytest.approx(7.0 * base, rel=1e-8)


class TestVariants:
    def test_inf_variant_q2_matches(self, d1, g1, p1):
        f = sample(g1, lambda x: np.sin(3 * x))
        prm = CampanatoParams(p=p1, q=2.0, s=0, eta=1.0)
        cfg = BallConfiguration(
            [(d1.ball([0.0], 0), 1.0), (d1.ball([0.5], 1), 0.3)]
        )
        a = campanato_type_functional(f, cfg, prm, d1)
        b = variant_inf_functional(f, cfg, prm, d1)
        assert b == pytest.approx(a, abs=1e-8 * max(a, 1.0))

    def test_inf_variant_never_larger(self, d1, g1, p1):
        f = sample(g1, lambda x: np.abs(np.sin(2 * x)) ** 1.5)
        prm = CampanatoParams(p=p1, q=4.0, s=1, eta=1.0)
        cfg = single(d1, [0.2], 1)
        a = campanato_type_functional(f, cfg, prm, d1)
        b = variant_inf_functional(f, cfg, prm, d1)
        assert b <= a + 1e-8

    def test_eps_polynomial_zero(self, d1, g1, p1):
        f = sample(g1, lambda x: 3.0 * x - 2.0)
        prm = CampanatoParams(p=p1, q=1.0, s=1, eta=1.0, epsilon=4.0)
        assert variant_eps_functional(f, single(d1, [0.0], 0), prm, d1) <= 1e-9

    def test_eps_brute_force_oracle(self, d1):
        # Independent scalar-loop evaluation of the kernel summand.
        g = uniform_grid([-8.0], [8.0], 512)
        p = constant_exponent(g, 1.0)
        f = sample(g, lambda x: x)
        eps = 4.0
        ball = d1.ball([0.0], 0)
        got = eps_kernel_summand(f, d1, ball, p, 0, eps)

        from anivex.exponents import indicator_norm
        from anivex.polyproj import minimizing_polynomial

        poly = minimizing_polynomial(f, d1, ball, 0)
        beta = np.log(d1.lambda_minus) / np.log(d1.b)
        total = 0.0
        for x, fx in zip(g.points()[:, 0], f.values):
            rho = float(d1.step_quasi_norm_many([[x]])[0])
            kern = d1.b ** (eps * 0 * beta) / (
                d1.b ** (0 * (1 + eps * beta)) + rho ** (1 + eps * beta)
            )
            total += kern * abs(fx - poly.evaluate(np.array([x]))) * g.cell_volume
        expected = 1.0 / indicator_norm(d1, ball, p) * total
        assert got == pytest.approx(expected, rel=1e-10)

    def test_eps_warns_below_threshold(self, d1, g1, p1):
        f = sample(g1, lambda x: x)
        prm = CampanatoParams(p=p1, q=1.0, s=0, eta=1.0, epsilon=1e-3, r_aux=0.5)
        with pytest.warns(UserWarning):
            variant_eps_functional(f, single(d1, [0.0], 0), prm, d1)

    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_dominates_half_of_plain(self, d1, g1, p1, seed):
        rng = np.random.default_rng(seed)
        f = sample(g1, lambda x: np.sin(rng.uniform(0.5, 3.0) * x) + rng.normal() * x**2)
        eps = 4.0
        for _ in range(5):
            ball = d1.ball([rng.uniform(-3, 3)], int(rng.integers(-2, 3)))
            iv = eps_kernel_summand(f, d1, ball, p1, 0, eps)
            ii = plain_summand(f, d1, ball, p1, 0)
            assert iv >= 0.5 * ii - 1e-8 * max(ii, 1.0)


class TestNormSearch:
    def test_polynomial_norm_zero(self, d1, p1):
        g = uniform_grid([-8.0], [8.0], 1024)
        p = constant_exponent(g, 1.0)
        f = sample(g, lambda x: 2.0 * x + 1.0)
        prm = CampanatoParams(p=p, q=1.0, s=1, eta=1.0)
        res = campanato_type_norm(f, prm, d1, budget=60, seed=1)
        assert res.value <= 1e-9

    def test_dominates_single_ball(self, d1, g1, p1):
        f = sample(g1, lambda x: np.sin(x))
        prm = CampanatoParams(p=p1, q=2.0, s=0, eta=1.0)
        res = campanato_type_norm(f, prm, d1, budget=250, seed=3)
        probe = classic_functional(f, d1, d1.ball([0.0], 1), p1, 2.0, 0).projection_value
        assert res.value >= probe * (1 - 1e-9)

    def test_budget_monotone_and_deterministic(self, d1):
        g = uniform_grid([-8.0], [8.0], 512)
        p = constant_exponent(g, 1.0)
        f = sample(g, lambda x: np.sign(np.sin(2 * x)))
        prm = CampanatoParams(p=p, q=1.0, s=0, eta=1.0)
        r1 = campanato_type_norm(f, prm, d1, budget=80, seed=7)
        r1_again = campanato_type_norm(f, prm, d1, budget=80, seed=7)
        r2 = campanato_type_norm(f, prm, d1, budget=160, seed=7)
        assert r1.value == r1_again.value
        assert [b.key() for b in r1.config.balls()] == [
            b.key() for b in r1_again.config.balls()
        ]
        assert r2.value >= r1.value


class TestCountableLimit:
    def test_constant_tail_stabilizes(self, d1, g1, p1):
        f = sample(g1, lambda x: np.sin(x))
        prm = CampanatoParams(p=p1, q=1.0, s=0, eta=1.0)
        entries = [(d1.ball([0.1 * j], 0), 1.0 if j < 5 else 0.0) for j in range(40)]
        report = countable_limit_check(f, entries, prm, d1)
        assert report.stabilized_at == 4
        assert report.converged

    def test_geometric_weights_converge(self, d1, p1):
        g = uniform_grid([-8.0], [8.0], 1024)
        p = constant_exponent(g, 1.0)
        f = sample(g, lambda x: np.sin(x))
        prm = CampanatoParams(p=p, q=1.0, s=0, eta=1.0)
        entries = [
            (d1.ball([((j * 37) % 64 - 32) / 8.0], -(j % 3)), 0.8**j) for j in range(200)
        ]
        report = countable_limit_check(f, entries, prm, d1, tol=1e-6)
        assert report.converged
        assert np.all(np.isfinite(report.values))

    def test_repeated_single_ball_constant(self, d1, g1, p1):
        f = sample(g1, lambda x: np.sin(x))
        prm = CampanatoParams(p=p1, q=1.0, s=0, eta=1.0)
        entries = [(d1.ball([0.0], 0), 0.5)] * 10
        report = countable_limit_check(f, entries, prm, d1)
        assert np.allclose(report.values, report.values[0], rtol=1e-9)


class TestAggregationReport:
    def test_ratio_measured(self, d1, g1):
        p = constant_exponent(g1, 1.0)
        rng = np.random.default_rng(5)
        ratios = []
        for _ in range(10):
            m = int(rng.integers(1, 6))
            cfg = BallConfiguration(
                [
                    (d1.ball([rng.uniform(-4, 4)], int(rng.integers(-1, 2))), rng.uniform(0.2, 1))
                    for _ in range(m)
                ]
            )
            ratios.append(aggregation_vs_total_weight(cfg, p, 1.0, d1))
        assert min(ratios) > 0.1


def test_minimal_degree(d1, g1):
    p_small = constant_exponent(g1, 0.5)
    assert minimal_admissible_degree(p_small, d1) == 1  # (1/0.5 - 1) * ln2/ln2 = 1
    p_big = constant_exponent(g1, 2.0)
    assert minimal_admissible_degree(p_big, d1) == 0
