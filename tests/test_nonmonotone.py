"""Double greedy and the repeated-rounds wrapper."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityls import nonmonotone, seeding
from parityls.bench import generate_instance
from parityls.kparity import KParityConstraint
from parityls.matroid import GraphicMatroid, UniformMatroid
from parityls.nonmonotone import RepetitionsConfig, double_greedy, repetitions_with_trace
from parityls.objective import (
    CoverageObjective,
    CutObjective,
    ModularObjective,
    ValueContext,
    ValueOracle,
    check_monotone,
)
from parityls.seeding import Stream, seed_pool
from parityls.solver import SolverConfig
from util import (
    WEIGHT_GRID,
    analysis_instance,
    context_classes,
    double_greedy_exact_expectation,
    reference_double_greedy,
    reference_repetitions,
    regridded,
    rng_for,
    solver_instance,
    subsets,
)


class Constant(ValueOracle):
    def __init__(self, c):
        super().__init__()
        self.c = c

    def _value(self, s):
        return self.c


def brute_force_subset_max(f, elems):
    return max(f.value(s) for s in subsets(elems))


def singleton_parity(matroid):
    return KParityConstraint(matroid, [[v] for v in sorted(matroid.ground)], 1)


def test_mixed_sign_modular_is_deterministic():
    f = ModularObjective({0: 2, 1: -1})
    for seed in range(10):
        assert double_greedy(f.context({0, 1}), rng_for(seed)) == (frozenset({0}), 1.0)
    assert double_greedy_exact_expectation(f, {0, 1}) == 2.0


def test_constant_function():
    f = Constant(3.5)
    assert double_greedy_exact_expectation(f, {0, 1, 2}) == 3.5
    zero = Constant(0.0)
    out, value = double_greedy(zero.context({0, 1}), rng_for(0))
    assert zero.value(out) == value == 0.0


def test_single_cut_link_expectation():
    f = CutObjective([(0, 1, 1.0)])
    exact = double_greedy_exact_expectation(f, {0, 1})
    assert exact == Fraction(1)
    assert exact >= Fraction(brute_force_subset_max(f, {0, 1})) / 2


def test_expectation_cap():
    f = Constant(1.0)
    with pytest.raises(ValueError):
        double_greedy_exact_expectation(f, range(15))


def test_half_guarantee_on_desk_instances():
    cases = [
        CutObjective([(0, 1, 3), (1, 2, 1), (2, 3, 2), (3, 0, 5), (0, 2, 2)]),
        ModularObjective({i: w for i, w in enumerate([4, 0, 7, 2, 1])}),
    ]
    grounds = [range(4), range(5)]
    for seed in range(8):
        cons, f = solver_instance(seed, families=("coverage", "cut"), max_edges=6)
        cases.append(f)
        grounds.append(cons.edge_ids)
    for f, ground in zip(cases, grounds):
        exact = double_greedy_exact_expectation(f, ground)
        best = max(Fraction(f.value(s)) for s in subsets(ground))
        assert exact >= best / 2


def test_empirical_mean_matches_exact_expectation():
    f = CutObjective([(0, 1, 3), (1, 2, 1), (2, 3, 2), (3, 0, 5)])
    ground = frozenset(range(4))
    exact = double_greedy_exact_expectation(f, ground)
    rng = rng_for(2)
    runs = 10_000
    values = np.array([f.value(double_greedy(f.context(ground), rng)[0]) for _ in range(runs)])
    se = values.std(ddof=1) / np.sqrt(runs)
    assert abs(values.mean() - exact) <= 3 * se


def test_repetitions_single_round_keeps_solver_output():
    cons, f = solver_instance(3, families=("modular",))
    best, trace = repetitions_with_trace(
        f, cons, RepetitionsConfig(ell=1, epsilon=0.5, seed=9)
    )
    assert len(trace.rounds) == 1
    round0 = trace.rounds[0]
    assert best == round0.selected
    assert f.value(round0.refined) <= f.value(round0.selected)


def test_repetitions_zero_function():
    cons = singleton_parity(UniformMatroid(3, 2))
    best, _ = repetitions_with_trace(Constant(0.0), cons, RepetitionsConfig(seed=2))
    assert best == frozenset()


def test_repetitions_beats_each_round_on_cut_cycle():
    f = CutObjective([(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    cons = singleton_parity(UniformMatroid(4, 2))
    best, trace = repetitions_with_trace(
        f, cons, RepetitionsConfig(ell=2, epsilon=0.5, seed=5)
    )
    assert len(trace.rounds) == 2
    for rec in trace.rounds:
        assert f.value(best) >= f.value(rec.selected)
        assert f.value(best) >= f.value(rec.refined)


def test_round_invariants():
    for seed in range(12):
        cons, f = solver_instance(seed, families=("cut", "coverage"), max_edges=7)
        config = RepetitionsConfig(epsilon=0.5, seed=seed)
        best, trace = repetitions_with_trace(f, cons, config)
        assert cons.feasible(best)
        assert len(trace.rounds) == config.rounds_for(cons.k)
        ground = set(cons.edge_ids)
        seen = set()
        for rec in trace.rounds:
            assert set(rec.ground) == ground
            assert rec.refined <= rec.selected
            assert cons.feasible(rec.selected) and cons.feasible(rec.refined)
            assert not (rec.selected & seen)
            seen |= rec.selected
            ground -= rec.selected


def test_default_round_counts():
    assert RepetitionsConfig().rounds_for(1) == 4
    assert RepetitionsConfig().rounds_for(2) == 7
    assert RepetitionsConfig().rounds_for(3) == 9
    assert RepetitionsConfig(ell=3).rounds_for(3) == 3


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"ell": 2.5}, "ell"),
        ({"ell": True}, "ell"),
        ({"ell": "3"}, "ell"),
        ({"seed": 1.5}, "seed"),
        ({"seed": False}, "seed"),
        ({"seed": None}, "seed"),
        ({"ell": -1}, "ell"),
        ({"seed": -1}, "seed"),
    ],
)
def test_config_rejects_non_integer_ell_and_seed(kwargs, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
        RepetitionsConfig(**kwargs)


def test_config_accepts_numpy_integers():
    config = RepetitionsConfig(ell=np.int64(3), seed=np.int32(2))
    assert config.rounds_for(2) == 3


def test_config_is_a_solver_config_checked_once():
    # epsilon and the seed are SolverConfig's, checked by its __post_init__
    config = RepetitionsConfig(ell=2, epsilon=0.25, seed=7)
    assert isinstance(config, SolverConfig)
    assert (config.epsilon, config.seed, config.ell) == (0.25, 7, 2)
    assert RepetitionsConfig().epsilon == SolverConfig().epsilon == 0.5
    for epsilon in (0, 1, 7, float("nan")):
        with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\), got "):
            RepetitionsConfig(epsilon=epsilon)


def test_every_round_runs_the_wrappers_own_config(monkeypatch):
    # round 0 takes two opposite nodes of the cycle, round 1 the other two
    f = CutObjective([(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    cons = singleton_parity(UniformMatroid(4, 2))
    config = RepetitionsConfig(ell=3, epsilon=0.25, seed=3)
    got = []

    def spy(f, cons, round_config, rng=None):
        got.append(round_config)
        return run(f, cons, round_config, rng=rng)

    run = nonmonotone.run_efficient
    monkeypatch.setattr(nonmonotone, "run_efficient", spy)
    _, trace = repetitions_with_trace(f, cons, config)
    assert len(got) == 3 and all(c is config for c in got)
    assert trace.rounds == reference_repetitions(f, cons, config)[1].rounds


def test_rounds_survive_exhausted_ground():
    # one positive element: round 1 takes it, later rounds see smaller or
    # empty grounds and must still run cleanly
    f = ModularObjective({0: 3, 1: 1})
    cons = singleton_parity(UniformMatroid(2, 2))
    best, trace = repetitions_with_trace(
        f, cons, RepetitionsConfig(ell=4, epsilon=0.5, seed=0)
    )
    assert best == frozenset({0, 1})
    assert len(trace.rounds) == 4
    assert trace.rounds[-1].ground == ()
    assert trace.rounds[-1].selected == frozenset()


def test_rounds_reproducible_per_seed():
    cons, f = solver_instance(17, families=("cut",))
    a = repetitions_with_trace(f, cons, RepetitionsConfig(seed=11))[1]
    b = repetitions_with_trace(f, cons, RepetitionsConfig(seed=11))[1]
    assert [(r.selected, r.refined) for r in a.rounds] == [
        (r.selected, r.refined) for r in b.rounds
    ]


def settling_instances():
    """Instances whose rounds stop selecting early, as (cons, f)."""
    # mixed-sign modular: once 0 and 4 are taken, every gain left is <= 0
    yield singleton_parity(UniformMatroid(5, 5)), ModularObjective({0: 3, 1: -1, 2: 0, 3: -2, 4: 5})
    # graphic self-loops: every singleton is dependent, so round 0 selects nothing
    loops = GraphicMatroid(2, [(0, 0), (1, 1), (0, 0)])
    yield singleton_parity(loops), ModularObjective({0: 2, 1: 1, 2: 4})
    # a self-loop beside a positive link: round 1 sees only the dependent loop
    yield singleton_parity(GraphicMatroid(2, [(0, 0), (0, 1)])), CutObjective([(0, 1, 2.0)])
    # exhausted ground: round 0 takes every edge, later rounds see ()
    yield singleton_parity(UniformMatroid(2, 2)), ModularObjective({0: 3, 1: 1})


def refining_instance():
    """Edges 3 to 5 are self-loops, so round 0 takes {0, 1, 2}; dropping
    0 from it raises the cut from 11 to 12, which double greedy does at
    some seeds (2 and 4 among 0 to 9)."""
    cons = singleton_parity(GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (0, 0), (0, 0), (0, 0)]))
    return cons, CutObjective([(0, 1, 2.0), (0, 2, 2.0), (0, 3, 3.0), (1, 4, 4.0), (2, 5, 4.0)])


def wrapper_cases():
    yield from settling_instances()
    yield refining_instance()
    for family in ("modular", "coverage", "cut"):
        for seed in range(25):
            yield solver_instance(seed, families=(family,))


def round_facts(trace):
    return [(r.index, r.alpha.hex(), r.selected, r.refined, r.ground) for r in trace.rounds]


def test_wrapper_matches_the_plain_round_loop():
    # seeds 0 and 3, a numpy seed and, per case, a seed of its own; the
    # plain loop draws from Generators over spawned children
    for case, (cons, f) in enumerate(wrapper_cases()):
        for seed in (0, 3, np.int64(5), 7_000_003 + 101 * case):
            for ell in (0, 6):
                config = RepetitionsConfig(ell=ell, epsilon=0.5, seed=seed)
                best, trace = repetitions_with_trace(f, cons, config)
                ref_best, ref = reference_repetitions(f, cons, config)
                assert best == ref_best
                assert round_facts(trace) == round_facts(ref)


def test_no_solve_after_the_first_empty_round(monkeypatch):
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(nonmonotone, "run_efficient", counting("solve", nonmonotone.run_efficient))
    monkeypatch.setattr(nonmonotone, "double_greedy", counting("refine", nonmonotone.double_greedy))
    settled = 0
    for cons, f in wrapper_cases():
        calls.clear()
        _, trace = repetitions_with_trace(f, cons, RepetitionsConfig(ell=6, seed=3))
        assert len(trace.rounds) == 6
        first_empty = next((r.index for r in trace.rounds if not r.selected), 5)
        assert calls == ["solve", "refine"] * (first_empty + 1)
        settled += 5 - first_empty
    assert settled > 0


def test_a_solved_round_binds_only_its_runs_value_context(monkeypatch):
    # each solved round binds the run's context on the empty set, which
    # double greedy then refines; the one other bind is double greedy's
    # growing side, on the elements below the first whose removal would
    # raise f. Coverage is monotone; the cut seeds bind that side at least
    # once. No run trace keeps the context once the wrapper has taken it
    events, traces = [], []
    bind, run = ValueOracle.context, nonmonotone.run_efficient

    def counted(self, edge_set):
        events[-1].append(frozenset(edge_set))
        return bind(self, edge_set)

    def solve(f, cons, config, rng=None):
        events.append([])
        final, trace = run(f, cons, config, rng)
        traces.append((trace, getattr(trace, "context", None)))
        return final, trace

    monkeypatch.setattr(ValueOracle, "context", counted)
    monkeypatch.setattr(nonmonotone, "run_efficient", solve)
    cases = [
        ("coverage", solver_instance(seed, families=("coverage",))) for seed in range(8)
    ] + [("cut", solver_instance(seed, families=("cut",))) for seed in range(8)]
    cases.append(("cut", refining_instance()))
    grown = Counter()
    for family, (cons, f) in cases:
        for seed in (0, 3):
            events.clear()
            _, trace = repetitions_with_trace(f, cons, RepetitionsConfig(ell=6, seed=seed))
            solved = next((r.index + 1 for r in trace.rounds if not r.selected), 6)
            assert len(events) == solved
            for binds, r in zip(events, trace.rounds):
                f_s = f.value(r.selected)
                raising = [e for e in sorted(r.selected) if f.value(r.selected - {e}) > f_s]
                expected = [frozenset()]
                if raising:
                    expected.append(frozenset(x for x in r.selected if x < raising[0]))
                    grown[family] += 1
                assert binds == expected, (family, r.index)
    assert grown["coverage"] == 0 and grown["cut"] > 0
    assert traces and all(held is not None and t.context is None for t, held in traces)


@pytest.mark.parametrize("family", ["modular", "coverage", "cut"])
def test_grid_weight_rounds_match_the_plain_round_loop(family):
    # non-dyadic weights with ties, mixed-sign for modular: f of a round's
    # set is the run context's value, which is f.value of that set bit for
    # bit, so the records and the best value must match the plain loop
    # exactly. The solver
    # never keeps a negative modular weight, so only the cuts drop edges:
    # the refining instance on grid links (0.7, 0.7, 1.1, 1.1, 1.1) takes
    # {0, 1, 2}, from which dropping 0 gains 0.3
    rng = rng_for(29)
    signs = (1.0, -1.0) if family == "modular" else (1.0,)

    def grid(n):
        return [WEIGHT_GRID[i] * signs[j] for i, j in zip(
            rng.integers(len(WEIGHT_GRID), size=n), rng.integers(len(signs), size=n)
        )]

    cases = [solver_instance(seed, families=(family,)) for seed in range(15)]
    cases = [(cons, regridded(f, grid)) for cons, f in cases]
    if family == "cut":
        cons, f = refining_instance()
        cases.append((cons, regridded(f, lambda n: [0.7, 0.7, 1.1, 1.1, 1.1])))
    dropped = 0
    for cons, f in cases:
        for run_seed in range(6):
            config = RepetitionsConfig(ell=6, epsilon=0.5, seed=run_seed)
            best, trace = repetitions_with_trace(f, cons, config)
            ref_best, ref = reference_repetitions(f, cons, config)
            assert round_facts(trace) == round_facts(ref)
            assert f.value(best) == f.value(ref_best), run_seed
            dropped += sum(r.refined != r.selected for r in trace.rounds)
    assert (dropped > 0) == (family == "cut")


@settings(max_examples=300, deadline=None)
@given(
    seed=st.one_of(
        st.integers(0, 2**256 - 1),
        st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128, 2**130 + 5]),
        st.integers(0, 2**63 - 1).map(np.int64),
        st.integers(0, 2**32 - 1).map(np.uint32),
        st.integers(0, 2**64 - 1).map(np.uint64),
    ),
    j=st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 64)),
)
def test_streams_are_numpys_seeded_streams(seed, j):
    # seeds of one to eight 32-bit words (those past the pool are mixed
    # in after it), numpy integer seeds, and keys of one or two words;
    # draws 1 to 40, so a stream that only seeds right fails too
    pooled = seed_pool(seed)
    child = np.random.SeedSequence(seed, spawn_key=(j,))
    for stream, rng in [
        (Stream(pooled, j), np.random.Generator(np.random.PCG64(child))),
        (Stream(pooled), np.random.Generator(np.random.PCG64(seed))),
    ]:
        expected = rng.random(40)
        assert [stream.random().hex() for _ in range(40)] == [x.hex() for x in expected]


@pytest.mark.parametrize(
    "seed, key, error",
    [(-1, None, ValueError), (1.0, None, TypeError), ("3", None, TypeError),
     (0, -1, ValueError), (0, 1.0, TypeError)],
)
def test_streams_reject_what_numpy_rejects(seed, key, error):
    with pytest.raises(error):
        np.random.SeedSequence(seed, spawn_key=(() if key is None else (key,))).generate_state(4)
    with pytest.raises(error):
        Stream(seed_pool(seed), key).random()  # a key is read at the first draw


def test_alphas_build_no_numpy_bit_generator(monkeypatch):
    # with no numpy object to build, the wrapper must still give the
    # plain loop's rounds, coins included, and a seeded solver run the
    # alpha numpy's Generator(PCG64(seed)) draws. A monotone f decides
    # every coin; the refining instance and the cuts draw some
    cases = [
        solver_instance(seed, families=(family,))
        for family in ("modular", "coverage", "cut") for seed in range(4)
    ] + list(settling_instances())[:2] + [refining_instance()]
    refine = nonmonotone.double_greedy
    for seed in (0, 3, 2**32 + 5, 2**130 + 1):
        configs = [RepetitionsConfig(ell=6, epsilon=0.5, seed=seed) for _ in cases]
        expected = [reference_repetitions(f, cons, c) for (cons, f), c in zip(cases, configs)]
        alpha = 1.0 - np.random.Generator(np.random.PCG64(seed)).random()
        coins = []

        def refuse(*args, **kwargs):
            raise AssertionError("a numpy object was built for a draw")

        def counted(context, rng):
            coins.append(CountedDraws(rng))
            return refine(context, coins[-1])

        with monkeypatch.context() as patched:
            for name in ("SeedSequence", "PCG64", "Generator"):
                patched.setattr(np.random, name, refuse)
            patched.setattr(nonmonotone, "double_greedy", counted)
            got = [repetitions_with_trace(f, cons, c) for (cons, f), c in zip(cases, configs)]
            cons, f = cases[0]
            _, run = nonmonotone.run_efficient(f, cons, SolverConfig(epsilon=0.5, seed=seed))
        for (best, trace), (ref_best, ref) in zip(got, expected):
            assert best == ref_best
            assert round_facts(trace) == round_facts(ref)
        assert run.alpha.hex() == alpha.hex()
        assert sum(c.count for c in coins) > 0


def test_seed_3_round_alphas_are_pinned():
    # fixed bits of numpy's SeedSequence/PCG64 child streams: a change in
    # their semantics changes every seeded answer, and shows here first.
    # Round 0 takes edge 0; rounds 1 and 2 are settled
    cons, f = singleton_parity(UniformMatroid(2, 1)), ModularObjective({0: 1, 1: -1})
    _, trace = repetitions_with_trace(f, cons, RepetitionsConfig(ell=3, seed=3))
    assert [(r.selected, r.alpha.hex()) for r in trace.rounds] == [
        ({0}, "0x1.d5a331d577884p-2"),
        (set(), "0x1.e38673783c333p-1"),
        (set(), "0x1.bcf32ca960680p-3"),
    ]
    assert Stream(seed_pool(3), 1).random().hex() == "0x1.9af9f39b64b80p-4"


class CountedDraws:
    """The draws of an rng, counted."""

    def __init__(self, rng):
        self.rng, self.count = rng, 0

    def random(self):
        self.count += 1
        return self.rng.random()


def test_decided_coins_are_drawn_only_before_an_undecided_one():
    # a positive modular f decides every coin (b' = 0): nothing is drawn
    draws = CountedDraws(rng_for(0))
    f = ModularObjective({0: 2, 1: 3, 2: 1})
    assert double_greedy(f.context({0, 1, 2}), draws) == ({0, 1, 2}, 6.0) and draws.count == 0
    # edges 0 and 1 gain nothing (p = 1); edge 2 is undecided (a' = b' =
    # 1) and reads draw 2, after their draws; then edge 4 is decided and
    # its draw is never taken
    f = CutObjective([(2, 4, 1.0)])
    for seed in range(20):
        draws = CountedDraws(rng_for(seed))
        expected = {0, 1, 2} if rng_for(seed).random(3)[2] < 0.5 else {0, 1, 4}
        assert double_greedy(f.context({0, 1, 2, 4}), draws) == (expected, 0.0)
        assert draws.count == 3


def test_a_round_builds_its_coin_stream_only_to_draw(monkeypatch):
    hashed = []

    def counted(pool, h, words):
        hashed.append(words)
        return mix_in(pool, h, words)

    mix_in = seeding._mix_in
    monkeypatch.setattr(seeding, "_mix_in", counted)
    cons = singleton_parity(UniformMatroid(3, 3))
    f = ModularObjective({0: 3, 1: 1, 2: 2})  # monotone: every coin decided
    _, trace = repetitions_with_trace(f, cons, RepetitionsConfig(ell=3, seed=3))
    assert trace.rounds[0].refined == {0, 1, 2}
    # the seed's pool (no words past it), then the keys of the three
    # alphas; no coin stream is hashed
    assert hashed == [[], [0], [2], [4]]
    pooled = seed_pool(3)
    hashed.clear()
    stream = Stream(pooled, 1)
    assert hashed == []  # building a stream hashes nothing
    expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3, spawn_key=(1,))))
    assert [stream.random() for _ in range(3)] == list(expected.random(3))
    assert hashed == [[1]]  # its first draw hashes its key, once


@st.composite
def double_greedy_cases(draw):
    """(f, edge set): a generated instance of any family, a mixed-sign
    modular f, or a cut whose links all lie among the top ids, so b' > 0
    only late in the scan."""
    kind = draw(st.sampled_from(["instance", "mixed-modular", "late-cut"]))
    if kind == "instance":
        family = draw(st.sampled_from(["modular", "coverage", "cut"]))
        cons, f = solver_instance(draw(st.integers(0, 2**31)), families=(family,), max_edges=12)
        ground = cons.edge_ids
    elif kind == "mixed-modular":
        weight = st.sampled_from([-2.5, -1.0, 0.0, 0.5, 1.0, 3.0])
        ground = range(draw(st.integers(0, 10)))
        f = ModularObjective({e: draw(weight) for e in ground})
    else:
        n = draw(st.integers(2, 12))
        start = draw(st.integers(0, n - 1))
        node = st.integers(start, n - 1)
        link = st.tuples(node, node, st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        ground = range(n)
        f = CutObjective(draw(st.lists(link, max_size=12)))
    edge_set = draw(st.sets(st.sampled_from(sorted(ground)))) if len(ground) else set()
    return f, frozenset(edge_set)


@settings(max_examples=300, deadline=None)
@given(case=double_greedy_cases(), seed=st.integers(0, 2**31))
def test_double_greedy_matches_the_two_context_loop(case, seed):
    f, edge_set = case
    draws, ref_draws = CountedDraws(rng_for(seed)), CountedDraws(rng_for(seed))
    refined, value = double_greedy(f.context(edge_set), draws)
    assert refined == reference_double_greedy(f, edge_set, ref_draws)
    assert draws.count == ref_draws.count
    assert value == f.value(edge_set)  # Y's value at its bind is f(S)


def bound_bases(f):
    """Make ``f`` record the base of each context it binds; returns the list."""
    bases, bind = [], f.context
    f.context = lambda edge_set: bases.append(frozenset(edge_set)) or bind(edge_set)
    return bases


def test_a_monotone_set_binds_one_context_and_asks_no_gain():
    f = CoverageObjective([1.0, 2.0, 0.5, 4.0], {0: {0, 1}, 1: {1}, 2: {2, 3}, 3: {0}, 5: {3}})
    edge_set = frozenset({0, 1, 2, 3, 5})
    bases = bound_bases(f)
    calls = f.calls
    draws = CountedDraws(rng_for(0))
    refined, value = double_greedy(f.context(edge_set), draws)
    assert refined is edge_set and value == f.value(edge_set)
    assert bases == [edge_set]
    assert f.calls - calls == 2  # the bind, and the whole-set value above
    assert draws.count == 0


def test_a_handed_context_is_moved_and_no_other_is_taken():
    # on the refining instance's cut, dropping 0 from {0, 1, 2} gains 1:
    # a handed context on the set answers as a fresh one and ends on T,
    # and double greedy binds no other on the set
    _, f = refining_instance()
    edge_set = frozenset({0, 1, 2})
    expected = [double_greedy(f.context(edge_set), rng_for(seed)) for seed in range(10)]
    handed = [f.context(edge_set) for _ in expected]
    bases = bound_bases(f)
    got = [double_greedy(ctx, rng_for(seed)) for seed, ctx in enumerate(handed)]
    assert got == expected and [ctx.base for ctx in handed] == [t for t, _ in expected]
    assert edge_set not in bases and {t for t, _ in expected} != {edge_set}


def desk_objectives():
    """(f, ground) of seeded desk instances of every family, and modular
    ones drawn with negative weights allowed."""
    for family in ("modular", "coverage", "cut"):
        for seed in range(20):
            cons, f = analysis_instance(seed, families=(family,))
            yield f, cons.edge_ids
    for seed in range(20):
        params = {"objective": "modular", "n_edges": 8, "weight_lo": -3, "weight_hi": 5}
        cons, f = generate_instance("random-parity", params, seed)
        yield f, cons.edge_ids


def test_a_monotone_objective_passes_the_monotonicity_check():
    # the flag claims monotonicity only where the exhaustive check finds
    # it; each family that declares nothing has instances that fail it
    declared = Counter()
    failing = Counter()
    for f, ground in desk_objectives():
        ok = check_monotone(f, ground).ok
        if f.monotone:
            assert ok, type(f).__name__
            declared[type(f).__name__] += 1
        if not ok:
            failing[type(f).__name__] += 1
    assert set(declared) == {"CoverageObjective", "ModularObjective"}
    assert set(failing) == {"CutObjective", "ModularObjective"}


def test_double_greedy_asks_a_monotone_f_no_gain(monkeypatch):
    asked = []

    def spy(cls, name):
        method = getattr(cls, name)

        def watched(self, *args):
            asked.append((name, args))
            return method(self, *args)

        monkeypatch.setattr(cls, name, watched)

    for name in ("gain", "gain_of"):
        for cls in context_classes(ValueContext, name):
            spy(cls, name)
    for family in ("modular", "coverage"):
        for seed in range(20):
            cons, f = solver_instance(seed, families=(family,))
            assert f.monotone
            draws = CountedDraws(rng_for(seed))
            asked.clear()
            refined, _ = double_greedy(f.context(cons.edge_ids), draws)
            assert asked == [] and draws.count == 0
            assert refined == frozenset(cons.edge_ids)
    # the spy sees a cut f's questions: Y's remove gain of every element
    f = CutObjective([(0, 1, 1.0), (1, 2, 2.0)])
    double_greedy(f.context({0, 1, 2}), CountedDraws(rng_for(0)))
    assert [args for name, args in asked if name == "gain"] == [((), (e,)) for e in range(3)]


def test_one_negative_weight_runs_the_double_greedy_loop():
    f = ModularObjective({0: 2.0, 1: -1.0, 2: 3.0, 3: 0.0})
    assert not f.monotone
    assert ModularObjective({0: 2.0, 1: 0.0, 2: 3.0}).monotone
    edge_set = frozenset(range(4))
    calls = f.calls
    draws = CountedDraws(rng_for(0))
    refined, value = double_greedy(f.context(edge_set), draws)
    assert refined == {0, 2, 3} and value == 4.0
    # Y's bind and its remove gain of each element; X's bind at edge 1,
    # the first with b' > 0, and its add gain of edge 1; the move that
    # drops edge 1 and the two that take edges 2 and 3
    assert f.calls - calls == 1 + 4 + 2 + 3
    assert draws.count == 0  # every p is 0 or 1
    assert refined == reference_double_greedy(f, edge_set, CountedDraws(rng_for(0)))


def test_the_growing_side_is_bound_at_the_first_positive_b():
    # 0, 1 and 2 have no links (b' = 0 and they are kept); 3 is the first
    # element whose removal from Y = S would cut a link
    f = CutObjective([(3, 5, 1.0), (5, 6, 2.0), (1, 9, 1.0)])
    edge_set = frozenset({0, 1, 2, 3, 5, 6})
    first = min(e for e in edge_set if f.value(edge_set - {e}) > f.value(edge_set))
    assert first == 3
    bases = bound_bases(f)
    for seed in range(10):
        bases.clear()
        double_greedy(f.context(edge_set), CountedDraws(rng_for(seed)))
        assert bases == [edge_set, frozenset({0, 1, 2})]


def test_each_distinct_round_candidate_is_valued_once():
    # f(selected) is the run context's value, so the only whole-set
    # queries are of refined sets that differ from their round's set
    refined_some = unrefined = 0
    for cons, f in wrapper_cases():
        valued, value = [], f.value
        f.value = lambda edge_set: valued.append(edge_set) or value(edge_set)
        for seed in (2, 3):
            valued.clear()
            _, trace = repetitions_with_trace(f, cons, RepetitionsConfig(ell=6, seed=seed))
            expected = []
            for rec in trace.rounds:
                if rec.refined != rec.selected:
                    expected.append(rec.refined)
                    refined_some += 1
                else:
                    unrefined += 1
                if not rec.selected:
                    break
            assert valued == expected
    assert refined_some and unrefined
