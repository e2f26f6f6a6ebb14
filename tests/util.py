"""Shared helpers for the test suite: subset enumeration, random feasible
sets, a set system that need not be a matroid, the axiom check through
augmentation, hypothesis strategies for matroids, a non-dyadic weight
grid and the reweighting that applies it, the seeded desk-scale instance
batteries, the exact expectation of double greedy, the two-context
double greedy loop, the plain round loop of the non-monotone wrapper,
the whole-set brute force and verifier loops, the closed form of the
threshold/weight ratio, and the context classes a spy must wrap."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from parityls.analysis import _ratio_cap
from parityls.bench import generate_instance
from parityls.kparity import ProductMatroid
from parityls.matroid import (
    AXIOM_CHECK_CAP,
    CheckReport,
    ExplicitMatroid,
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
    _subset,
    _subset_table,
)
from parityls.nonmonotone import RepetitionsTrace, RoundRecord
from parityls.objective import CoverageObjective, CutObjective, ModularObjective
from parityls.solver import SolverConfig, run_efficient

# non-dyadic weights with a repeated value, so that sums cancel and tie
WEIGHT_GRID = (0.1, 0.2, 0.3, 0.7, 1.1, 1.1, 2.3)


def regridded(f, draw):
    """f's family and structure with its weights replaced, in order, by
    ``draw(n)``, a list of n weights."""
    if isinstance(f, ModularObjective):
        return ModularObjective(dict(zip(sorted(f.weights), draw(len(f.weights)))))
    if isinstance(f, CoverageObjective):
        return CoverageObjective(draw(len(f.item_weights)), f.edge_items)
    return CutObjective([(u, v, w) for (u, v, _), w in zip(f.links, draw(len(f.links)))])


def subsets(elems):
    elems = sorted(elems)
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            yield frozenset(combo)


class SetSystem(MatroidOracle):
    """Independence oracle over 0..n-1 listing its independent sets, with
    no axiom check: stands in for a broken (non-matroid) oracle."""

    def __init__(self, n, independent_sets):
        super().__init__(range(n))
        self.independent_sets = frozenset(frozenset(s) for s in independent_sets)

    def _independent(self, s):
        return s in self.independent_sets


def reference_axiom_check(matroid):
    """``matroid.axiom_check`` through the augmentation axiom: the same
    empty-set and down-closed passes, then ("augmentation", S, T) for
    independent S and T, |T| = |S| + 1, where no e of T - S keeps S + e
    independent. Given down-closedness, sizes that differ by one give the
    general property (a larger T can be shrunk to size |S| + 1 first)."""
    elems, independent = _subset_table(
        matroid.is_independent, matroid.ground, "axiom", AXIOM_CHECK_CAP
    )
    n = len(elems)
    report = CheckReport("matroid-axioms")
    if not independent[0]:
        report.violations.append(("empty set dependent",))
    by_size = [[] for _ in range(n + 1)]
    for mask, ok in enumerate(independent):
        if ok:
            by_size[bin(mask).count("1")].append(mask)
            for i in range(n):
                if mask >> i & 1 and not independent[mask ^ 1 << i]:
                    report.violations.append(("down-closed", _subset(elems, mask), elems[i]))
    for smaller, larger in zip(by_size, by_size[1:]):
        for s in smaller:
            grows = sum(1 << i for i in range(n) if not s >> i & 1 and independent[s | 1 << i])
            for t in larger:
                if not t & grows:
                    report.violations.append(("augmentation", _subset(elems, s), _subset(elems, t)))
    return report


@st.composite
def uniform(draw, n):
    return UniformMatroid(n, draw(st.integers(0, n)))


@st.composite
def partition(draw, n):
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    blocks = [[v for v in range(n) if labels[v] == b] for b in range(3)]
    blocks = [b for b in blocks if b]
    caps = draw(st.lists(st.integers(0, 2), min_size=len(blocks), max_size=len(blocks)))
    return PartitionMatroid(blocks, caps)


@st.composite
def graphic(draw, n):
    # few nodes for many links, so parallel links, self-loops and cycles are common
    n_nodes = draw(st.integers(1, 4))
    node = st.integers(0, n_nodes - 1)
    return GraphicMatroid(n_nodes, draw(st.lists(st.tuples(node, node), min_size=n, max_size=n)))


@st.composite
def explicit(draw, n):
    source = draw(st.one_of(uniform(n), partition(n), graphic(n)))
    return ExplicitMatroid(n, [s for s in subsets(range(n)) if source.is_independent(s)])


def concrete(n):
    return st.one_of(uniform(n), partition(n), graphic(n), explicit(n))


@st.composite
def matroids(draw, max_n=6):
    """A concrete matroid, a contraction of one, or a ProductMatroid of
    partition matroids, over at most ``max_n`` elements."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["concrete", "contracted", "product"]))
    if kind == "product":
        slices = draw(st.lists(partition(n), min_size=1, max_size=3))
        return ProductMatroid(slices, n)
    m = draw(concrete(n))
    if kind == "contracted":
        return m.contract(draw(st.sets(st.sampled_from(range(n)))) if n else ())
    return m


def context_classes(base, name):
    """``base`` and its subclasses, at any depth, that define ``name``
    themselves: what a spy on that method must wrap."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if name in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def random_feasible_set(cons, rng, keep_prob=0.7):
    """Greedy random feasible edge set: walk a shuffled order, keep each
    feasible extension with probability keep_prob."""
    chosen = frozenset()
    for e in rng.permutation(list(cons.edge_ids)).tolist():
        if rng.random() < keep_prob and cons.feasible(chosen | {e}):
            chosen = chosen | {e}
    return chosen


def exchange_scale_instance(seed):
    """Small constraint for exchange checks: rank <= 5, so feasible pairs
    have |v(A | B)| <= 10 unless the edges pack k vertices."""
    rng = rng_for(seed)
    kind = ["random-parity", "k-uniform-set-packing-via-parity"][int(rng.integers(2))]
    if kind == "random-parity":
        params = {
            "k": int(rng.integers(1, 4)),
            "n_vertices": int(rng.integers(4, 9)),
            "n_edges": int(rng.integers(2, 7)),
            "matroid": ["uniform", "partition", "graphic"][int(rng.integers(3))],
            "rank": int(rng.integers(1, 5)),
            "n_nodes": int(rng.integers(3, 6)),
        }
    else:
        params = {
            "k": int(rng.integers(2, 4)),
            "n_universe": int(rng.integers(3, 6)),
            "n_edges": int(rng.integers(2, 5)),
        }
    cons, f = generate_instance(kind, params, int(rng.integers(2**31)))
    return cons, f


def analysis_instance(seed, families=("modular", "coverage", "cut")):
    """Instance suitable for full trace verification: k in 1..3, few
    edges (brute force finds the reference) and a small matroid rank."""
    rng = rng_for(seed)
    family = families[int(rng.integers(len(families)))]
    k = int(rng.integers(1, 4))
    if bool(rng.integers(2)):
        params = {
            "k": k,
            "n_vertices": int(rng.integers(4, 9)),
            "n_edges": int(rng.integers(2, 9)),
            "matroid": ["uniform", "partition", "graphic"][int(rng.integers(3))],
            "rank": int(rng.integers(1, 5)),
            "n_nodes": int(rng.integers(3, 6)),
            "objective": family,
        }
        return generate_instance("random-parity", params, int(rng.integers(2**31)))
    params = {
        "k": max(2, k),
        "n_universe": int(rng.integers(3, 6)),
        "n_edges": int(rng.integers(2, 6)),
        "objective": family,
    }
    return generate_instance(
        "k-uniform-set-packing-via-parity", params, int(rng.integers(2**31))
    )


def solver_instance(seed, families=("modular", "coverage", "cut"), max_edges=10):
    """Instance battery for solver equivalence runs: k in 1..3, up to
    ``max_edges`` edges, any of the three objective families."""
    rng = rng_for(seed)
    family = families[int(rng.integers(len(families)))]
    k = int(rng.integers(1, 4))
    kind = ["random-parity", "k-partition-intersection", "k-uniform-set-packing-via-parity"][
        int(rng.integers(3))
    ]
    if kind == "random-parity":
        params = {
            "k": k,
            "n_vertices": int(rng.integers(4, 16)),
            "n_edges": int(rng.integers(2, max_edges + 1)),
            "matroid": ["uniform", "partition", "graphic"][int(rng.integers(3))],
            "objective": family,
        }
    elif kind == "k-partition-intersection":
        params = {
            "k": k,
            "n_elements": int(rng.integers(3, min(10, max_edges) + 1)),
            "objective": family,
        }
    else:
        params = {
            "k": max(2, k),
            "n_universe": int(rng.integers(4, 8)),
            "n_edges": int(rng.integers(2, min(7, max_edges) + 1)),
            "objective": family,
        }
    return generate_instance(kind, params, int(rng.integers(2**31)))


EXPECTATION_CAP = 14


def clipped_gains(f, e, chosen, remaining):
    add_gain = f.value(chosen | {e}) - f.value(chosen)
    drop_gain = f.value(remaining - {e}) - f.value(remaining)
    return max(add_gain, 0.0), max(drop_gain, 0.0)


def double_greedy_exact_expectation(f, edge_set):
    """Exact E[f(T)] of double greedy by branching over every coin flip.

    Probabilities and the expectation are carried as exact rationals
    (clipped gains converted exactly, then divided in Fraction space);
    zero-probability branches are skipped. Returns a Fraction. Capped
    at 14 elements.
    """
    elems = sorted(edge_set)
    if len(elems) > EXPECTATION_CAP:
        raise ValueError(f"exact expectation capped at {EXPECTATION_CAP} elements")

    def walk(pos, chosen, remaining):
        if pos == len(elems):
            return Fraction(f.value(chosen))
        e = elems[pos]
        a, b = clipped_gains(f, e, chosen, remaining)
        a, b = Fraction(a), Fraction(b)
        p = Fraction(1) if a + b == 0 else a / (a + b)
        total = Fraction(0)
        if p > 0:
            total += p * walk(pos + 1, chosen | {e}, remaining)
        if p < 1:
            total += (1 - p) * walk(pos + 1, chosen, remaining - {e})
        return total

    return walk(0, frozenset(), frozenset(elems))


def reference_double_greedy(f, edge_set, rng):
    """Double greedy with both sides bound from the start: a context X on
    the empty set that only grows and one Y on ``edge_set`` that only
    shrinks; each element asks a' of X and b' of Y and moves one of
    them. Draws follow ``nonmonotone.double_greedy``'s rule: one per
    element, taken only up to an element whose probability lies
    strictly between 0 and 1."""
    low = f.context(frozenset())
    high = f.context(edge_set)
    owed = 0
    for e in sorted(edge_set):
        a = max(low.gain((e,)), 0.0)
        b = max(high.gain((), (e,)), 0.0)
        p = 1.0 if a + b == 0 else a / (a + b)
        if 0.0 < p < 1.0:
            for _ in range(owed):
                rng.random()
            owed = 0
            take = rng.random() < p
        else:
            owed += 1
            take = p >= 1.0
        if take:
            low.move((e,))
        else:
            high.move((), (e,))
    return low.base


def reference_repetitions(f, cons, config):
    """The non-monotone wrapper's round loop with nothing skipped: every
    round draws its two streams from Generators over the children of
    ``SeedSequence(seed).spawn(2 * ell)``, restricts the ground, solves,
    refines with ``reference_double_greedy`` and evaluates both sets,
    whatever the rounds before it selected. Returns (best set,
    RepetitionsTrace)."""
    ell = config.rounds_for(cons.k)
    streams = np.random.SeedSequence(config.seed).spawn(2 * ell)
    trace = RepetitionsTrace()
    best, best_value = frozenset(), float("-inf")
    remaining = set(cons.edge_ids)
    for i in range(ell):
        solver_rng = np.random.Generator(np.random.PCG64(streams[2 * i]))
        coin_rng = np.random.Generator(np.random.PCG64(streams[2 * i + 1]))
        ground = tuple(sorted(remaining))
        restricted = cons.restrict_ground(ground)
        selected, run_trace = run_efficient(
            f, restricted, SolverConfig(epsilon=config.epsilon), rng=solver_rng
        )
        refined = reference_double_greedy(f, selected, coin_rng)
        trace.rounds.append(RoundRecord(i, run_trace.alpha, selected, refined, ground))
        for candidate in (selected, refined):
            value = f.value(candidate)
            if value > best_value:
                best, best_value = candidate, value
        remaining -= selected
    return best, trace


def reference_brute_force(f, cons):
    """``bench.brute_force_opt`` as a plain whole-set walk: the same
    visiting order, down-closed pruning and tie rule, with one
    ``cons.feasible`` query per candidate and one ``f.value`` query per
    feasible set plus one for the empty set."""
    ids = list(cons.edge_ids)
    best_set = frozenset()
    best_value = f.value(frozenset())

    def walk(prefix, start):
        nonlocal best_set, best_value
        for pos in range(start, len(ids)):
            grown = prefix | {ids[pos]}
            if not cons.feasible(grown):
                continue
            value = f.value(grown)
            if value > best_value:
                best_set, best_value = frozenset(grown), value
            walk(grown, pos + 1)

    walk(frozenset(), 0)
    return best_set, best_value


def reference_prefix_marginals(f, order):
    """``analysis._prefix_marginals`` asking both sides of every gain:
    two value queries per element."""
    weights = {}
    prefix = frozenset()
    for x in order:
        weights[x] = f.value(prefix | {x}) - f.value(prefix)
        prefix = prefix | {x}
    return weights


def reference_prune_down_monotone(f, reference):
    """``analysis.prune_down_monotone`` asking f(current) again for every
    element it tries: two value queries per tried removal."""
    current = set(reference)
    while True:
        for x in sorted(current):
            if f.value(current) - f.value(current - {x}) <= 0:
                current.remove(x)
                break
        else:
            return frozenset(current)


def shift_log_ratio(scale, u_value, alpha):
    """log2 of the threshold/weight ratio as a function of alpha.

    Piecewise linear in alpha: with a* the unique alpha making some
    threshold hit u exactly, the ratio is 2^(alpha - a* + 1) below a*
    and 2^(alpha - a*) from a* on; the result is uniform on [0, 1) when
    alpha is uniform on (0, 1].
    """
    if not 0 < u_value <= scale:
        raise ValueError("need 0 < u <= scale")
    gap = math.log2(scale) - math.log2(u_value)
    i_star = math.floor(gap) + 1
    alpha_star = i_star - gap
    # below a* the exponent wraps around by one; the boolean adds 0 or 1,
    # so ``alpha`` may also be an array
    return alpha - alpha_star + (alpha < alpha_star)


def simulate_ratios(scale, u_value, alphas, d):
    """Vectorized charge ratios over an array of alpha draws; returns
    (r, rho) arrays. Matches analysis.charge_ratios pointwise."""
    r = 2.0 ** shift_log_ratio(scale, u_value, np.asarray(alphas, dtype=float))
    return r, np.minimum(r, _ratio_cap(r, d))
