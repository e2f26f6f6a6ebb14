"""Double greedy and the repeated-rounds wrapper."""

from fractions import Fraction

import numpy as np
import pytest

from parityls.kparity import KParityConstraint
from parityls.matroid import UniformMatroid
from parityls.nonmonotone import RepetitionsConfig, double_greedy, repetitions_with_trace
from parityls.objective import CutObjective, ModularObjective, ValueOracle
from util import double_greedy_exact_expectation, rng_for, solver_instance, subsets


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
        assert double_greedy(f, {0, 1}, rng_for(seed)) == frozenset({0})
    assert double_greedy_exact_expectation(f, {0, 1}) == 2.0


def test_constant_function():
    f = Constant(3.5)
    assert double_greedy_exact_expectation(f, {0, 1, 2}) == 3.5
    zero = Constant(0.0)
    out = double_greedy(zero, {0, 1}, rng_for(0))
    assert zero.value(out) == 0.0


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
    values = np.array([f.value(double_greedy(f, ground, rng)) for _ in range(runs)])
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
