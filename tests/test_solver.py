"""Solver: thresholds, improvement scan, both drivers, and run invariants.

The heavy differential oracles live here: an exhaustive enumerator of
valid improving moves (checked against the production scan) and a
branching explorer of every possible improvement sequence (checked
against the drivers' outputs).
"""

import copy
import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityls import bench, solver
from parityls.bench import generate_instance, greedy_baseline
from parityls.kparity import FeasibilityContext, KParityConstraint
from parityls.matroid import PartitionMatroid, UniformMatroid
from parityls.nonmonotone import RepetitionsConfig, repetitions_with_trace
from parityls.objective import CoverageObjective, CutObjective, ModularObjective, ValueOracle
from parityls.seeding import Stream, seed_pool
from parityls.solver import (
    Improvement,
    RunTrace,
    SolverConfig,
    Thresholds,
    best_feasible,
    find_improvement,
    max_singleton_marginal,
    run_efficient,
    run_reference,
    sample_alpha,
)
from util import regridded, rng_for, solver_instance


def singleton_parity(matroid):
    return KParityConstraint(matroid, [[v] for v in sorted(matroid.ground)], 1)


def weights_531():
    f = ModularObjective({0: 5, 1: 3, 2: 1})
    cons = singleton_parity(UniformMatroid(3, 2))
    return f, cons


def contexts(f, cons, base):
    """The value and feasibility contexts a run carries, bound on ``base``."""
    return f.context(base), cons.context(base)


class FixedDraw:
    """Stand-in rng whose single uniform draw pins alpha = 1 - u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


# ---------------------------------------------------------------- oracles


def enumerate_improvements(f, cons, settled, current, theta, eps):
    """Every valid improving move, independent of the production scan,
    in the documented scan order."""
    base = frozenset(settled) | frozenset(current)
    outside = [e for e in cons.edge_ids if e not in base]
    removable = sorted(current)
    found = []
    for x in outside:
        if cons.feasible(base | {x}) and f.value(base | {x}) - f.value(base) >= theta:
            found.append(Improvement(1, (x,), ()))
    for x in outside:
        for y in removable:
            cand = (base | {x}) - {y}
            if (
                cons.feasible(cand)
                and f.value(base | {x}) - f.value(base) >= theta
                and f.value(cand) >= f.value(base) + eps * theta
            ):
                found.append(Improvement(2, (x,), (y,)))
    for p, q in combinations(outside, 2):
        for y in removable:
            if not cons.feasible((base | {p, q}) - {y}):
                continue
            for x1, x2 in ((p, q), (q, p)):
                first = f.value(base | {x1}) - f.value(base)
                second = f.value(base | {p, q}) - f.value(base | {x1})
                if first >= theta and second >= theta:
                    found.append(Improvement(3, (x1, x2), (y,)))
                    break
    return found


def explore_terminal_sets(f, cons, eps, alpha, limit=200000):
    """Every output reachable by some improvement-selection policy.

    Branches over all valid moves at every step; level indices advance by
    the same bracket jump the fast driver uses (levels above the best
    feasible gain admit no move: additions need gain >= threshold, and
    removals need a non-empty current level).
    """
    scale, _ = max_singleton_marginal(f.context(frozenset()), cons.edge_ids)
    if not math.isfinite(scale) or scale <= 0:
        return {frozenset()}
    thresholds = Thresholds(scale, alpha)
    terminals = set()
    seen = set()
    steps = 0

    def best_gain(settled):
        best = None
        for e in cons.edge_ids:
            if e in settled or not cons.feasible(settled | {e}):
                continue
            gain = f.value(settled | {e}) - f.value(settled)
            if best is None or gain > best:
                best = gain
        return best

    def outer(settled, index):
        nonlocal steps
        steps += 1
        assert steps < limit, "state space too large for the explorer"
        gain = best_gain(settled)
        if gain is None or gain <= 0:
            terminals.add(settled)
            return
        nxt = thresholds.index_at_most(gain)
        assert nxt > index
        inner(settled, frozenset(), nxt)

    def inner(settled, current, index):
        key = (settled, current, index)
        if key in seen:
            return
        seen.add(key)
        moves = enumerate_improvements(
            f, cons, settled, current, thresholds.level(index), eps
        )
        if not moves:
            outer(settled | current, index)
            return
        for imp in moves:
            inner(settled, (current - frozenset(imp.removed)) | frozenset(imp.added), index)

    outer(frozenset(), 0)
    return terminals


# ----------------------------------------------------------- scale & shift


def test_max_singleton_marginal():
    f, cons = weights_531()
    vals = f.context(frozenset())
    assert max_singleton_marginal(vals, cons.edge_ids) == (5, {0: 5, 1: 3, 2: 1})
    assert f.calls == 4  # f(empty) once, then one query per edge
    assert max_singleton_marginal(vals, []) == (float("-inf"), {})


def test_max_singleton_marginal_coverage():
    from parityls.objective import CoverageObjective

    f = CoverageObjective([2, 3, 5], {0: {0, 1}, 1: {2}, 2: {0, 2}})
    # direct scan: edge 2 covers items worth 2 + 5
    assert max_singleton_marginal(f.context(frozenset()), [0, 1, 2]) == (7, {0: 5, 1: 5, 2: 7})


def test_all_negative_weights_solve_to_empty():
    f = ModularObjective({0: -2, 1: -5})
    cons = singleton_parity(UniformMatroid(2, 2))
    for runner in (run_reference, run_efficient):
        out, trace = runner(f, cons, SolverConfig(epsilon=0.5, seed=3))
        assert out == frozenset()
        assert trace.iterations == []


def test_best_feasible_takes_the_largest_gain_ties_to_the_smaller_id():
    # edges 0..4 over a uniform matroid of rank 2: on the base {4} one more fits
    cons = singleton_parity(UniformMatroid(5, 2))
    fits = cons.context({4})
    gain = {0: 2.0, 1: 3.0, 2: 3.0, 3: 0.0}
    assert best_feasible(fits, gain) == 1
    calls = cons.feasibility_calls
    assert best_feasible(fits, {0: 2.0, 1: 2.0, 2: -1.0}) == 0
    assert cons.feasibility_calls - calls == 1  # stops at the first feasible edge
    assert best_feasible(fits, {0: 0.0, 1: -3.0}) is None
    assert best_feasible(fits, {}) is None
    full = cons.context({3, 4})  # nothing fits: every positive gain is asked
    calls = cons.feasibility_calls
    assert best_feasible(full, gain) is None
    assert cons.feasibility_calls - calls == 3
    # the pick is the first edge of (-gain, id) order with a positive gain
    # that fits, on memos with mixed signs and ties, keyed out of id order;
    # three capacity-1 blocks of four edges, each held or free at random
    rng = rng_for(5)
    cons = singleton_parity(PartitionMatroid([range(0, 4), range(4, 8), range(8, 12)], [1] * 3))
    for _ in range(200):
        base = {4 * b + int(rng.integers(4)) for b in range(3) if rng.random() < 0.5}
        outside = [int(e) for e in rng.permutation(12) if e not in base]
        keyed = outside[: rng.integers(1, len(outside) + 1)]
        gain = {e: float(rng.integers(-3, 4)) for e in keyed}
        fits = cons.context(base)
        order = sorted(gain, key=lambda e: (-gain[e], e))
        want = next((e for e in order if gain[e] > 0 and fits.feasible((e,))), None)
        assert best_feasible(fits, gain) == want


@pytest.mark.parametrize("seed", [1.5, "3", None, True, np.float64(2.0), -1, np.int64(-2)])
def test_solver_config_seed_must_be_an_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        SolverConfig(epsilon=0.5, seed=seed)


def test_solver_config_accepts_numpy_integer_seeds():
    f, cons = weights_531()
    config = SolverConfig(epsilon=0.5, seed=np.int64(3))
    assert run_efficient(f, cons, config) == run_efficient(f, cons, SolverConfig(0.5, 3))


@pytest.mark.parametrize("runner", [run_reference, run_efficient])
def test_trace_counts_every_query_of_the_run(runner):
    config = SolverConfig(epsilon=0.5, seed=3)
    instances = [
        generate_instance(kind, {"k": 2, "objective": objective}, seed)
        for kind in ("k-partition-intersection", "random-parity")
        for objective in ("modular", "coverage", "cut")
        for seed in range(3)
    ]
    instances.append((KParityConstraint(UniformMatroid(2, 1), [], 1), ModularObjective({})))
    f = ModularObjective({0: -2, 1: -5})
    instances.append((singleton_parity(UniformMatroid(2, 2)), f))
    for cons, f in instances:
        before = f.calls + cons.feasibility_calls
        _, trace = runner(f, cons, config)
        assert trace.value_calls + trace.feasibility_calls == (
            f.calls + cons.feasibility_calls - before
        )


def test_sample_alpha_boundaries():
    assert 0 < sample_alpha(np.random.Generator(np.random.PCG64(0))) <= 1
    assert sample_alpha(FixedDraw(0.0)) == 1.0
    assert sample_alpha(FixedDraw(0.5)) == 0.5


def test_sample_alpha_of_a_seed_is_the_seeded_generators_draw():
    for seed in [*range(30), np.int64(31), np.uint16(32), 2**70]:
        expected = 1.0 - np.random.Generator(np.random.PCG64(seed)).random()
        assert sample_alpha(Stream(seed_pool(seed))).hex() == expected.hex()


def test_seed_3_alpha_is_pinned():
    # fixed bits of numpy's PCG64 stream: a change in its semantics
    # changes every seeded answer, and shows here first
    assert sample_alpha(Stream(seed_pool(3))).hex() == "0x1.d425cad860828p-1"


def cut_instance():
    """The 12-edge cut instance CI solves (``parityls gen`` at seed 20)."""
    return generate_instance("random-parity", {"objective": "cut", "n_edges": 12}, 20)


@pytest.mark.parametrize("runner", [run_efficient, run_reference])
@pytest.mark.parametrize("rng", [5, object()])
def test_an_rng_is_not_a_seed(runner, rng):
    # a seed goes through SolverConfig, which checks it; an int or any
    # other object without random() given as rng fails at the draw
    cons, f = cut_instance()
    with pytest.raises(AttributeError, match="random"):
        runner(f, cons, SolverConfig(epsilon=0.5), rng=rng)


@pytest.mark.parametrize("runner", [run_efficient, run_reference])
def test_a_config_seed_draws_numpys_alpha(runner):
    cons, f = cut_instance()
    _, trace = runner(f, cons, SolverConfig(epsilon=0.5, seed=5))
    expected = 1.0 - np.random.Generator(np.random.PCG64(5)).random()
    assert trace.alpha.hex() == expected.hex()


def test_sample_alpha_uniformity():
    rng = rng_for(20240817)
    alphas = np.sort(1.0 - rng.random(100_000))
    n = len(alphas)
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(grid - alphas), np.max(alphas - (grid - 1.0 / n)))
    assert ks < 0.01


def test_threshold_examples():
    t = Thresholds(1.0, 1.0)
    assert (t.level(0), t.level(1), t.level(2)) == (2.0, 1.0, 0.5)
    for i in range(1, 61):
        assert t.level(i - 1) == 2.0 * t.level(i)
    t2 = Thresholds(5.0, 0.5)
    assert abs(t2.level(1) - 5.0 * 2.0 ** (-0.5)) < 1e-12
    with pytest.raises(ValueError):
        t.level(-1)
    with pytest.raises(ValueError):
        Thresholds(1.0, 0.0)


# ------------------------------------------------------------ fast forward


def bracket_by_scan(scale, shift, gain):
    """Oracle: smallest index whose threshold drops to at most the gain."""
    i = 0
    while scale * shift * 2.0 ** (-i) > gain:
        i += 1
    return i


def test_fast_forward_examples():
    t = Thresholds(1.0, 1.0)  # shift 2
    assert t.index_at_most(1.0) == 1
    assert t.index_at_most(0.3) == bracket_by_scan(1.0, 2.0, 0.3) == 3
    assert t.index_at_most(0.5) == bracket_by_scan(1.0, 2.0, 0.5) == 2
    with pytest.raises(ValueError):
        t.index_at_most(0.0)


def test_fast_forward_brackets_random_inputs():
    rng = rng_for(11)
    for _ in range(500):
        scale = float(rng.uniform(0.1, 50.0))
        alpha = 1.0 - rng.random()
        shift = 2.0 ** alpha
        gain = float(rng.uniform(1e-6, 1.0)) * scale
        i = Thresholds(scale, alpha).index_at_most(gain)
        assert i == bracket_by_scan(scale, shift, gain)
        assert scale * shift * 2.0 ** (-i) <= gain
        if i >= 1:
            assert gain < scale * shift * 2.0 ** (-(i - 1))


def test_dependent_singles_are_recorded_and_skipped():
    # the context remembers each single add it found dependent: two picks
    # and one scan on one context ask each of 0, 1 and 2 once
    cons = singleton_parity(UniformMatroid(5, 2))
    full = cons.context({3, 4})
    calls = cons.feasibility_calls
    assert best_feasible(full, {0: 2.0, 1: 3.0, 2: 1.0}) is None
    assert cons.feasibility_calls - calls == 3
    assert best_feasible(full, {1: 3.0}) is None
    f = ModularObjective({e: 1.0 for e in range(5)})
    assert find_improvement(f.context({3, 4}), full, set(), 0.5, 0.5, {}) is None
    assert cons.feasibility_calls - calls == 3
    # the remembered answers cost nothing; the checked query always asks
    assert not any(full.fits(e) for e in (0, 1, 2))
    assert cons.feasibility_calls - calls == 3
    assert not full.feasible((0,))
    assert cons.feasibility_calls - calls == 4


def test_a_dependent_single_is_not_asked_again_until_a_removal():
    # per feasibility context, the single adds found dependent since the
    # last move that removed an edge; none of them may be asked of the
    # matroid again, through the checked or the unchecked query. A call
    # asks when it raises its constraint's count (nonmonotone's rounds
    # ask restricted copies)
    feasible, fits_of = FeasibilityContext.feasible, FeasibilityContext.fits
    move = FeasibilityContext.move
    dead = {}  # keyed by the context itself, so no id is reused
    repeats = []

    def watch_single(self, x, call):
        calls = self.cons.feasibility_calls
        fits = call()
        known = dead.setdefault(self, set())
        if x in known and self.cons.feasibility_calls > calls:
            repeats.append(x)
        if not fits:
            known.add(x)
        return fits

    def watched_feasible(self, add, remove=()):
        if len(add) == 1 and not remove:
            return watch_single(self, add[0], lambda: feasible(self, add, remove))
        return feasible(self, add, remove)

    def watched_fits(self, x, y=None):
        if y is None:
            return watch_single(self, x, lambda: fits_of(self, x))
        return fits_of(self, x, y)

    def watching_removals(method):
        def watched(self, add, remove=()):
            method(self, add, remove)
            if remove:
                dead.pop(self, None)

        return watched

    with mock.patch.object(FeasibilityContext, "feasible", watched_feasible), \
            mock.patch.object(FeasibilityContext, "fits", watched_fits), \
            mock.patch.object(FeasibilityContext, "move", watching_removals(move)):
        for seed in range(60):
            cons, f = solver_instance(seed)
            for u in (0.0, 0.5, 0.9):
                for runner in (run_reference, run_efficient):
                    runner(f, cons, SolverConfig(epsilon=0.5), rng=FixedDraw(u))
            repetitions_with_trace(f, cons, RepetitionsConfig(epsilon=0.5, seed=seed))
            greedy_baseline(f, cons)
            dead.clear()
    assert repeats == []


# ------------------------------------------------------- improvement scan


def test_kind1_found_on_empty_solution():
    f, cons = weights_531()
    imp = find_improvement(*contexts(f, cons, frozenset()), frozenset(), 1.0, 0.5, {})
    assert imp == Improvement(1, (0,), ())


def test_kind2_swap_example():
    f = ModularObjective({0: 1.0, 1: 1.2})
    cons = singleton_parity(UniformMatroid(2, 1))
    imp = find_improvement(*contexts(f, cons, {0}), {0}, 1.0, 0.1, {})
    assert imp == Improvement(2, (1,), (0,))
    oracle = enumerate_improvements(f, cons, frozenset(), {0}, 1.0, 0.1)
    assert oracle == [Improvement(2, (1,), (0,))]


def test_no_improvement_at_local_optimum():
    f, cons = weights_531()
    gain = {}  # the run's memo: a None leaves every outside edge's gain in it
    assert find_improvement(*contexts(f, cons, {0, 1}), {0, 1}, 3.0, 0.5, gain) is None
    assert gain == {2: 1}


def test_scan_at_the_same_set_reads_the_memo():
    # the next level's first scan sees the set the last scan ended at, so
    # every singleton gain it needs is in the memo that scan left
    f, cons = weights_531()
    vals, fits = contexts(f, cons, {0, 1})
    gain = {}
    assert find_improvement(vals, fits, {0, 1}, 3.0, 0.5, gain) is None
    calls = f.calls
    assert find_improvement(vals, fits, set(), 1.5, 0.5, gain) is None
    assert f.calls == calls
    assert gain == {2: 1}


def test_kind3_labeling_tiebreak():
    # edge 0 blocks edges 1 and 2 through different partition blocks, so
    # neither single addition is feasible and the equal-weight swap gains
    # nothing; removing edge 0 frees both. Both labelings qualify, so the
    # smaller id must be inserted first.
    from parityls.matroid import PartitionMatroid
    from parityls.kparity import Edge

    matroid = PartitionMatroid([[0, 2], [1, 3]], [1, 1])
    cons = KParityConstraint(
        matroid, [Edge(0, {0, 1}), Edge(1, {2}), Edge(2, {3})], 2
    )
    f = ModularObjective({0: 2.0, 1: 2.0, 2: 2.0})
    imp = find_improvement(*contexts(f, cons, {0}), {0}, 2.0, 0.5, {})
    assert imp == Improvement(3, (1, 2), (0,))
    oracle = enumerate_improvements(f, cons, frozenset(), {0}, 2.0, 0.5)
    assert oracle[0] == Improvement(3, (1, 2), (0,))


def test_scan_matches_enumeration_on_random_states():
    for seed in range(120):
        cons, f = solver_instance(seed, max_edges=6)
        rng = rng_for(9000 + seed)
        chosen = frozenset()
        for e in rng.permutation(list(cons.edge_ids)).tolist():
            if rng.random() < 0.6 and cons.feasible(chosen | {e}):
                chosen = chosen | {e}
        split = frozenset(
            e for e in chosen if rng.random() < 0.5
        )
        theta = float(rng.uniform(0.5, 8.0))
        eps = float(rng.choice([0.1, 0.5]))
        gain = {}
        got = find_improvement(*contexts(f, cons, chosen), split, theta, eps, gain)
        oracle = enumerate_improvements(f, cons, chosen - split, split, theta, eps)
        assert got == (oracle[0] if oracle else None)
        if got is None:  # a failed scan leaves the gain of every outside edge
            assert gain == {
                x: f.value(chosen | {x}) - f.value(chosen)
                for x in cons.edge_ids if x not in chosen
            }


def test_scan_skips_pair_checks_through_a_dead_swap():
    # k = 2 over partition blocks A = {0, 2}, B = {1, 3}, C = {4, 5}, all
    # of capacity 1. The level holds edges 0 = {0, 1} and 4 = {4}; edge
    # 1 = {5} shares C with edge 4, and edges 2 = {2} and 3 = {3} share A
    # and B with edge 0. Every single addition is dependent and every
    # feasible swap gains nothing, so the swaps (1, 0), (2, 4) and (3, 4)
    # are dead. Down-closedness then answers the pairs {1, 2} and {1, 3}
    # for both y, and {2, 3} needs only its y = 0 check, which succeeds.
    from parityls.matroid import PartitionMatroid
    from parityls.kparity import Edge

    matroid = PartitionMatroid([[0, 2], [1, 3], [4, 5]], [1, 1, 1])
    cons = KParityConstraint(
        matroid,
        [Edge(0, {0, 1}), Edge(1, {5}), Edge(2, {2}), Edge(3, {3}), Edge(4, {4})],
        2,
    )
    f = ModularObjective({e: 2.0 for e in range(5)})
    vals, fits = contexts(f, cons, {0, 4})
    asked = []
    feasible, fits_of = fits.feasible, fits.fits

    def recording(add, remove=()):
        asked.append((tuple(add), tuple(remove)))
        return feasible(add, remove)

    def recording_fits(x, y=None):
        asked.append(((x,), () if y is None else (y,)))
        return fits_of(x, y)

    fits.feasible, fits.fits = recording, recording_fits
    calls = cons.feasibility_calls
    imp = find_improvement(vals, fits, {0, 4}, 2.0, 0.5, {})
    # 3 single additions and 3 x 2 swaps, then one pair check
    assert cons.feasibility_calls - calls == len(asked) == 3 + 6 + 1
    assert [q for q in asked if len(q[0]) == 2] == [((2, 3), (0,))]
    assert imp == Improvement(3, (2, 3), (0,))
    oracle = enumerate_improvements(f, cons, frozenset(), {0, 4}, 2.0, 0.5)
    assert oracle[0] == imp


# dyadic float weights: every sum is exact, so a context gain equals the
# whole-set difference and a tie at theta is a tie for the scan and for
# the enumerator alike
DYADIC_POOL = (0.125, 0.25, 0.375, 0.5, 0.75, 1.0, 1.5, 2.5, 4.0)


def dyadic_objective(cons, rng, family=None):
    """Modular (0), coverage (1) or cut (2) objective on dyadic weights,
    drawn from ``rng`` unless ``family`` is given."""
    pick = lambda: float(rng.choice(DYADIC_POOL))
    ids = list(cons.edge_ids)
    if family is None:
        family = int(rng.integers(3))
    if family == 0:
        return ModularObjective({e: pick() for e in ids})
    if family == 1:
        n_items = int(rng.integers(1, 7))
        size = lambda: int(rng.integers(1, n_items + 1))
        covers = {e: frozenset(rng.choice(n_items, size(), replace=False).tolist()) for e in ids}
        return CoverageObjective([pick() for _ in range(n_items)], covers)
    pick_id = lambda: ids[int(rng.integers(len(ids)))]
    return CutObjective([(pick_id(), pick_id(), pick()) for _ in range(2 * len(ids))])


def test_scan_matches_enumeration_with_ties_at_theta():
    # theta equals the gain of one outside edge, so the >= theta ties
    # decide which edges are high and which swaps are recorded dead; the
    # chosen set is built heaviest edge first, as a level would, so that
    # many scans reach the pair loop
    pair_scans = 0
    for seed in range(300):
        cons, _ = solver_instance(seed, max_edges=8)
        rng = rng_for(7000 + seed)
        f = dyadic_objective(cons, rng)
        chosen = frozenset()
        for e in sorted(cons.edge_ids, key=lambda e: (-f.value({e}), e)):
            if rng.random() < 0.8 and cons.feasible(chosen | {e}):
                chosen = chosen | {e}
        split = frozenset(e for e in chosen if rng.random() < 0.8)
        whole = {
            x: f.value(chosen | {x}) - f.value(chosen)
            for x in cons.edge_ids if x not in chosen
        }
        positive = sorted(x for x, g in whole.items() if g > 0)
        if not positive:
            continue
        theta = whole[positive[int(rng.integers(len(positive)))]]
        eps = float(rng.choice([0.25, 0.5]))
        gain = {}
        got = find_improvement(*contexts(f, cons, chosen), split, theta, eps, gain)
        oracle = enumerate_improvements(f, cons, chosen - split, split, theta, eps)
        assert got == (oracle[0] if oracle else None)
        if got is None:
            assert gain == whole
        pair_scans += bool(split) and (got is None or got.kind == 3)
    assert pair_scans >= 50


@st.composite
def dyadic_instances(draw):
    """A generated uniform, partition, graphic or intersection instance
    with a modular, coverage or cut objective on dyadic weights."""
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31))
    kind = draw(st.sampled_from(["uniform", "partition", "graphic", "intersection"]))
    if kind == "intersection":
        n = draw(st.integers(3, 10))
        cons, _ = generate_instance("k-partition-intersection", {"k": k, "n_elements": n}, seed)
    else:
        params = {"k": k, "n_vertices": draw(st.integers(4, 14)),
                  "n_edges": draw(st.integers(2, 10)), "matroid": kind}
        cons, _ = generate_instance("random-parity", params, seed)
    family = draw(st.sampled_from([0, 1, 2]))
    return cons, dyadic_objective(cons, rng_for(draw(st.integers(0, 2**31))), family)


def greedy_settling_nothing(f, cons):
    """Greedy on whole-set queries that asks every outside edge each
    round: the largest positive feasible gain, ties to the smaller id."""
    chosen = frozenset()
    while True:
        f_chosen = f.value(chosen)
        gain = {e: f.value(chosen | {e}) - f_chosen for e in cons.edge_ids if e not in chosen}
        ranked = sorted((e for e in gain if gain[e] > 0), key=lambda e: (-gain[e], e))
        pick = next((e for e in ranked if cons.feasible(chosen | {e})), None)
        if pick is None:
            return chosen
        chosen = chosen | {pick}


@settings(max_examples=200, deadline=None)
@given(
    instance=dyadic_instances(),
    u=st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53]), st.floats(0.0, 0.999)),
    eps=st.sampled_from([0.1, 0.5]),
)
def test_scan_returns_the_first_enumerated_move_during_whole_runs(instance, u, eps):
    # the scan's shortcuts (high pairs only, singles resumed past the last
    # added edge, the gain memo and the context's dependent singles) leave
    # each answer of a run as the definition gives it, for the state the
    # run is in at that scan
    cons, f = instance
    scan = solver.find_improvement
    scans = []

    def checked(vals, fits, current, theta, epsilon, gain, after=None):
        pairs = []
        feasible = fits.feasible

        def recording(add, remove=()):
            if len(add) == 2:
                pairs.append(add)
            return feasible(add, remove)

        fits.feasible = recording
        try:
            imp = scan(vals, fits, current, theta, epsilon, gain, after)
        finally:
            del fits.feasible
        base = vals.base
        oracle = enumerate_improvements(f, cons, base - current, current, theta, epsilon)
        assert imp == (oracle[0] if oracle else None)
        # both members of every pair checked clear theta
        assert all(min(gain[p], gain[q]) >= theta for p, q in pairs)
        if imp is None:  # the memo holds every outside edge's gain
            f_base = f.value(base)
            assert gain == {
                x: f.value(base | {x}) - f_base for x in cons.edge_ids if x not in base
            }
        scans.append(imp)
        return imp

    config = SolverConfig(epsilon=eps, seed=0)
    with mock.patch.object(solver, "find_improvement", checked):
        for runner in (run_reference, run_efficient):
            runner(f, cons, config, rng=FixedDraw(u))
    # a run scans unless no edge with a positive gain fits alone
    assert scans or not any(
        f.value({e}) > f.value(()) and cons.feasible({e}) for e in cons.edge_ids
    )
    assert greedy_baseline(f, cons) == greedy_settling_nothing(f, cons)


# ------------------------------------------------------------------ runs


def test_531_unique_terminal_for_every_alpha():
    f, cons = weights_531()
    for alpha in np.linspace(0.05, 1.0, 20):
        assert explore_terminal_sets(f, cons, 0.5, float(alpha)) == {
            frozenset({0, 1})
        }
    for seed in range(25):
        out, _ = run_reference(f, cons, SolverConfig(epsilon=0.5, seed=seed))
        assert out == frozenset({0, 1})
        assert f.value(out) == 8


def test_driver_output_is_a_reachable_terminal():
    for seed in range(30):
        cons, f = solver_instance(seed, max_edges=5)
        out, trace = run_efficient(f, cons, SolverConfig(epsilon=0.5, seed=seed))
        terminals = explore_terminal_sets(f, cons, 0.5, trace.alpha)
        assert out in terminals


def test_drivers_agree_small_battery():
    for seed in range(40):
        cons, f = solver_instance(seed)
        for eps in (0.1, 0.5):
            config = SolverConfig(epsilon=eps, seed=seed)
            ref_out, ref_trace = run_reference(f, cons, config)
            eff_out, eff_trace = run_efficient(f, cons, config)
            assert ref_out == eff_out
            assert ref_trace.applied_sequence() == eff_trace.applied_sequence()
            # levels that accept nothing read the gain memo and ask no value
            assert ref_trace.value_calls == eff_trace.value_calls


def test_both_drivers_take_every_level_from_best_feasible(monkeypatch):
    # each level index comes from best_feasible's pick and one index rule:
    # one index on for the stepwise driver, the pick's bracket (and at
    # least one on) for the fast one; the last pick is None. A pick is
    # asked before the first level and after each level that applied a
    # move; a level that applied none keeps its pick
    picks = []

    def recorded(fits, gain):
        e = best_feasible(fits, gain)
        picks.append(None if e is None else gain[e])
        return e

    monkeypatch.setattr(solver, "best_feasible", recorded)
    families = [("k-partition-intersection", {})] + [
        ("random-parity", {"matroid": m}) for m in ("uniform", "partition", "graphic")
    ]
    for kind, params in families:
        for objective in ("modular", "coverage", "cut"):
            for seed in range(3):
                cons, f = generate_instance(
                    kind, dict(params, k=2, objective=objective), seed
                )
                config = SolverConfig(epsilon=0.5, seed=seed)
                picks.clear()
                _, trace = run_reference(f, cons, config)
                indices = [rec.index for rec in trace.iterations]
                assert indices == list(range(1, len(indices) + 1))
                moved = sum(1 for rec in trace.iterations if rec.improvements)
                assert len(picks) == moved + 1 and picks[-1] is None
                assert not trace.iterations or trace.iterations[-1].improvements
                picks.clear()
                _, trace = run_efficient(f, cons, config)
                assert len(picks) == len(trace.iterations) + 1 and picks[-1] is None
                previous = 0
                for top, rec in zip(picks, trace.iterations):
                    index = max(trace.thresholds.index_at_most(top), previous + 1)
                    assert rec.index == index
                    previous = index


def test_drivers_agree_on_exact_threshold_ties():
    # power-of-two weights with alpha = 1 make marginals hit thresholds
    # exactly; the drivers must still agree at the tie boundaries
    f = ModularObjective({0: 4.0, 1: 2.0, 2: 1.0})
    cons = singleton_parity(UniformMatroid(3, 3))
    config = SolverConfig(epsilon=0.5, seed=0)
    ref_out, ref_trace = run_reference(f, cons, config, rng=FixedDraw(0.0))
    eff_out, eff_trace = run_efficient(f, cons, config, rng=FixedDraw(0.0))
    assert ref_trace.alpha == 1.0 and eff_trace.alpha == 1.0
    assert ref_out == eff_out == frozenset({0, 1, 2})
    assert ref_trace.applied_sequence() == eff_trace.applied_sequence()
    assert [rec.index for rec in eff_trace.iterations] == [1, 2, 3]


def test_drivers_agree_across_alpha_grid():
    instances = [solver_instance(seed, max_edges=7) for seed in (3, 11, 27)]
    for cons, f in instances:
        for u in np.linspace(0.0, 0.999, 60):
            config = SolverConfig(epsilon=0.5, seed=0)
            ref_out, ref_trace = run_reference(f, cons, config, rng=FixedDraw(u))
            eff_out, eff_trace = run_efficient(f, cons, config, rng=FixedDraw(u))
            assert ref_out == eff_out
            assert ref_trace.applied_sequence() == eff_trace.applied_sequence()
            # levels that accept nothing read the gain memo and ask no value
            assert ref_trace.value_calls == eff_trace.value_calls


def test_efficient_indices_strictly_increase():
    for seed in range(20):
        cons, f = solver_instance(seed)
        _, trace = run_efficient(f, cons, SolverConfig(epsilon=0.5, seed=seed))
        indices = [rec.index for rec in trace.iterations]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)
        assert all(rec.selected for rec in trace.iterations)


def replay_trace(trace, f, cons):
    """Rebuild the run from its improvement log, checking feasibility and
    the two potentials after every applied move."""
    settled = frozenset()
    order = []
    for rec in trace.iterations:
        current = frozenset()
        for imp in rec.improvements:
            before_size = len(current)
            before_value = f.value(settled | current)
            current = (current - frozenset(imp.removed)) | frozenset(imp.added)
            for y in imp.removed:
                order.remove(y)
            for x in imp.added:
                order.append(x)
            assert cons.feasible(settled | current)
            after_value = f.value(settled | current)
            if imp.kind == 2:
                assert len(current) == before_size
                assert after_value >= before_value + trace.epsilon * rec.threshold - 1e-9
            else:
                assert len(current) == before_size + 1
                assert after_value >= before_value - 1e-9
        assert current == frozenset(rec.selected)
        assert not (settled & current)
        settled = settled | current
    assert settled == trace.final
    assert order == trace.insertion_order


def test_run_invariants_and_certificates():
    for seed in range(30):
        cons, f = solver_instance(seed)
        for eps in (0.1, 0.5):
            out, trace = run_efficient(f, cons, SolverConfig(epsilon=eps, seed=seed))
            assert cons.feasible(out)
            replay_trace(trace, f, cons)
            assert trace.improvement_count <= (1 + 2.0 / eps) * len(cons.edge_ids)

            # termination certificate: no feasible positive addition remains
            for e in cons.edge_ids:
                if e in out or not cons.feasible(out | {e}):
                    continue
                assert f.value(out | {e}) - f.value(out) <= 0

            # per-level local optimality for single additions
            settled = frozenset()
            for rec in trace.iterations:
                settled = settled | frozenset(rec.selected)
                for e in cons.edge_ids:
                    if e in settled or not cons.feasible(settled | {e}):
                        continue
                    assert f.value(settled | {e}) - f.value(settled) < rec.threshold


def test_reference_records_empty_levels():
    f = ModularObjective({0: 8, 1: 1})
    cons = singleton_parity(UniformMatroid(2, 2))
    _, trace = run_reference(f, cons, SolverConfig(epsilon=0.5, seed=1))
    indices = [rec.index for rec in trace.iterations]
    assert indices == list(range(1, len(indices) + 1))
    assert any(not rec.selected for rec in trace.iterations)
    _, eff = run_efficient(f, cons, SolverConfig(epsilon=0.5, seed=1))
    assert all(rec.selected for rec in eff.iterations)
    assert trace.applied_sequence() == eff.applied_sequence()


def test_trace_insertion_order_tracks_last_addition():
    for seed in range(20):
        cons, f = solver_instance(seed)
        out, trace = run_efficient(f, cons, SolverConfig(epsilon=0.1, seed=seed))
        assert frozenset(trace.insertion_order) == out
        assert len(trace.insertion_order) == len(out)


def test_add_level_derives_level_facts_and_rejects_bad_moves():
    trace = RunTrace(scale=4.0, alpha=1.0, epsilon=0.5)
    trace.add_level(1, [Improvement(1, (0,), ()), Improvement(2, (2,), (0,))])
    trace.add_level(3, [Improvement(1, (1,), ())])
    assert [(rec.threshold, rec.selected) for rec in trace.iterations] == [
        (4.0, (2,)),
        (1.0, (1,)),
    ]
    assert trace.insertion_order == [2, 1] and trace.final == {1, 2}
    before = copy.deepcopy(trace)
    for index, moves in [
        (3, []),  # indices must strictly increase
        (4, [Improvement(1, (3,), ()), Improvement(2, (4,), (1,))]),  # 1 is settled
        (4, [Improvement(1, (3,), ()), Improvement(1, (3,), ())]),  # 3 is held
        (4, [Improvement(1, (2,), ())]),  # 2 is settled
        (4.5, []),  # off the threshold lattice
        (True, []),  # a bool is not a level index
        (4, [Improvement(7, (3,), ())]),  # no such move kind
        (4, [Improvement(1, (3, 4), ())]),  # kind 1 adds one edge
        (4, [Improvement(1, (3,), ()), Improvement(2, (4,), ())]),  # a swap removes one
        (4, [Improvement(1, (3,), ()), Improvement(3, (4,), (3,))]),  # kind 3 adds two
    ]:
        with pytest.raises(ValueError):
            trace.add_level(index, moves)
        assert trace == before


def test_budget_guard_trips_on_inconsistent_oracle():
    # every later evaluation looks bigger, so swaps "gain" forever; the
    # move budget must convert that into a loud failure in both drivers
    class Clock(ValueOracle):
        def _value(self, s):
            return float(self.calls) ** 2 if s else 0.0

    cons = singleton_parity(UniformMatroid(2, 1))
    for runner in (run_reference, run_efficient):
        with pytest.raises(RuntimeError, match="improvement budget"):
            runner(Clock(), cons, SolverConfig(epsilon=0.5, seed=0))


def test_non_finite_scale_raises_and_empty_ground_is_empty():
    class Constant(ValueOracle):
        def __init__(self, nonempty):
            super().__init__()
            self.nonempty = nonempty

        def _value(self, s):
            return self.nonempty if s else 0.0

    cons = singleton_parity(UniformMatroid(2, 1))
    config = SolverConfig(epsilon=0.5, seed=0)
    for runner in (run_reference, run_efficient):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="not finite"):
                runner(Constant(bad), cons, config)
        empty = KParityConstraint(UniformMatroid(2, 1), [], 1)
        out, trace = runner(Constant(1.0), empty, config)
        assert out == frozenset() and trace.scale == -math.inf
        assert trace.iterations == []


def test_overflowing_top_threshold_raises_before_any_level():
    # a finite weight whose top threshold W * 2^alpha overflows to inf
    # is refused before any level: past that point index_at_most would
    # overflow, and the stepwise walk would never end, every threshold
    # being inf
    class AlphaOne:
        def random(self):
            return 0.0

    f = ModularObjective({0: 1e308, 1: 1.0})
    cons = singleton_parity(UniformMatroid(2, 2))
    for runner in (run_reference, run_efficient):
        with pytest.raises(ValueError, match="top threshold of inf, which is not finite"):
            runner(f, cons, SolverConfig(epsilon=0.5), rng=AlphaOne())


# float weights drawn from a small pool, so equal gains and gains that hit
# a power-of-two threshold exactly (alpha = 1, dyadic weights) are common
WEIGHT_POOL = (0.1, 0.25, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 4.0)


@st.composite
def float_weight_instances(draw):
    params = {
        "k": draw(st.integers(1, 3)),
        "n_vertices": draw(st.integers(3, 9)),
        "n_edges": draw(st.integers(2, 7)),
        "matroid": draw(st.sampled_from(["uniform", "partition", "graphic"])),
    }
    cons, _ = generate_instance("random-parity", params, draw(st.integers(0, 2**31)))
    weight = st.sampled_from(WEIGHT_POOL)
    family = draw(st.sampled_from(["modular", "coverage", "cut"]))
    if family == "modular":
        return cons, ModularObjective({e: draw(weight) for e in cons.edge_ids})
    if family == "cut":
        ids = st.sampled_from(sorted(cons.edge_ids))
        links = st.lists(st.tuples(ids, ids, weight), min_size=1, max_size=12)
        return cons, CutObjective(draw(links))
    n_items = draw(st.integers(1, 6))
    items = st.frozensets(st.integers(0, n_items - 1), min_size=1)
    covers = {e: draw(items) for e in cons.edge_ids}
    return cons, CoverageObjective([draw(weight) for _ in range(n_items)], covers)


@settings(max_examples=200, deadline=None)
@given(
    instance=float_weight_instances(),
    u=st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53]), st.floats(0.0, 0.999)),
    eps=st.sampled_from([0.1, 0.5]),
)
def test_drivers_agree_on_float_weights_and_ties(instance, u, eps):
    cons, f = instance
    config = SolverConfig(epsilon=eps, seed=0)
    ref_out, ref_trace = run_reference(f, cons, config, rng=FixedDraw(u))
    eff_out, eff_trace = run_efficient(f, cons, config, rng=FixedDraw(u))
    assert ref_out == eff_out
    assert ref_trace.applied_sequence() == eff_trace.applied_sequence()
    assert ref_trace.value_calls == eff_trace.value_calls
    replay_trace(ref_trace, f, cons)
    replay_trace(eff_trace, f, cons)


def test_covered_edges_gain_exactly_nothing_on_float_item_weights():
    # 0.5 + 0.3 - 0.5 - 0.3 is 5.55e-17 in floats: a gain table kept in
    # float sums would let edges 3 and 5 in for a phantom gain
    f = CoverageObjective([0.5, 0.3], {e: {0, 1} if e % 2 else {0} for e in range(6)})
    cons = singleton_parity(UniformMatroid(6, 6))
    vals = f.context(())
    vals.move((1,))
    assert vals.gain((3,)) == 0.0
    config = SolverConfig(epsilon=0.1, seed=0)
    for runner in (run_reference, run_efficient):
        out, trace = runner(f, cons, config, rng=FixedDraw(0.0))
        assert out == frozenset({1})
        assert len(trace.applied_sequence()) == 1


@pytest.mark.parametrize("mode", bench.MODES)
def test_a_swap_below_the_ulp_of_f_is_no_gain(mode):
    # weights 2^-1000, 0.1 and 100.0: at a level with threshold ~6.8e-302
    # a swap of the equal-weight edges 0 and 3 gains exactly 0, below
    # epsilon * theta; added to f(base) = 100.1 both sides would round to
    # the same float, so a whole-set comparison took the swap back and
    # forth until the move budget ran out
    cons, f = generate_instance("random-parity", {"objective": "modular"}, 7)
    f = regridded(f, lambda n: [(2**-1000, 0.1, 100.0)[i % 3] for i in range(n)])
    out, _ = bench.solve(mode, f, cons, epsilon=0.5, seed=3)
    assert out == frozenset({0, 1, 2})


class RandomValues(ValueOracle):
    """Lying oracle: every query, the empty set's too, draws a fresh value."""

    def __init__(self, seed):
        super().__init__()
        self.rng = rng_for(seed)

    def _value(self, s):
        return float(self.rng.uniform(-1.0, 10.0))


class ShrinkingGains(ValueOracle):
    """Lying oracle: modular weights scaled down by ``decay`` on every
    query, so a set looks worth less each time it is asked about."""

    def __init__(self, weights, decay):
        super().__init__()
        self.weights = weights
        self.decay = decay

    def _value(self, s):
        return sum(self.weights[e] for e in s) * self.decay**self.calls


@settings(max_examples=150, deadline=None)
@given(
    params=st.fixed_dictionaries({
        "k": st.integers(1, 3),
        "n_vertices": st.integers(3, 9),
        "n_edges": st.integers(2, 7),
        "matroid": st.sampled_from(["uniform", "partition", "graphic"]),
    }),
    seed=st.integers(0, 2**31),
    shrink=st.one_of(st.none(), st.floats(0.5, 0.999)),
    u=st.one_of(st.sampled_from([0.0, 1.0 - 2.0**-53]), st.floats(0.0, 0.999)),
    eps=st.sampled_from([0.1, 0.5]),
)
def test_lying_value_oracles_end_loudly_or_with_a_consistent_trace(
    params, seed, shrink, u, eps
):
    # the next-level pick asks the oracle nothing, so an inconsistent
    # oracle can only make a run end: with a feasible set whose moves
    # replay, or with the budget error
    cons, weights = generate_instance("random-parity", params, seed)
    for runner in (run_reference, run_efficient):
        if shrink is None:
            f = RandomValues(seed)
        else:
            f = ShrinkingGains(weights.weights, shrink)
        try:
            out, trace = runner(f, cons, SolverConfig(epsilon=eps, seed=0), rng=FixedDraw(u))
        except RuntimeError as exc:
            assert "improvement budget" in str(exc)
            continue
        assert cons.feasible(out)
        replay = RunTrace(trace.scale, trace.alpha, trace.epsilon)
        for rec in trace.iterations:
            replay.add_level(rec.index, rec.improvements)
        assert replay == trace and replay.final == out
