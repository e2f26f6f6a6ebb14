"""Non-monotone maximization: randomized double greedy plus a wrapper
that runs the hybrid solver on shrinking grounds and keeps the best of
all produced sets and their double-greedy refinements.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import SolverConfig, _require_count, run_efficient


@dataclass(frozen=True)
class RepetitionsConfig:
    """Wrapper parameters; ``ell`` defaults to ceil(4 * k^(2/3)) when left
    unset. ``epsilon`` feeds the inner solver runs."""

    ell: int = 0  # 0 means derive from k at call time
    epsilon: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _require_count("ell", self.ell)
        _require_count("seed", self.seed)
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")

    def rounds_for(self, k):
        return self.ell if self.ell else math.ceil(4.0 * k ** (2.0 / 3.0))


def double_greedy(f, edge_set, rng):
    """Randomized double greedy over ``edge_set`` in ascending id order.

    Keeps a growing set X and a shrinking set Y = S; for each element the
    inclusion probability is a'/(a' + b') with a' = max(f(e | X), 0) and
    b' = max(f(Y - e) - f(Y), 0), and 1 when both clip to zero. For
    non-negative f the returned subset T satisfies
    E[f(T)] >= max over subsets of S of f / 2. One uniform draw is
    consumed per element regardless of degenerate probabilities.

    X and Y are two value contexts, one on the empty set that only grows
    and one on S that only shrinks; each element asks one gain of each
    and moves one of them.
    """
    low = f.context(frozenset())
    high = f.context(edge_set)
    for e in sorted(edge_set):
        a = max(low.gain((e,)), 0.0)
        b = max(high.gain((), (e,)), 0.0)
        if rng.random() < (1.0 if a + b == 0 else a / (a + b)):
            low.apply((e,))
        else:
            high.apply((), (e,))
    return low.base


@dataclass
class RoundRecord:
    index: int
    alpha: float
    selected: frozenset
    refined: frozenset
    ground: tuple


@dataclass
class RepetitionsTrace:
    rounds: list = field(default_factory=list)


def repetitions_with_trace(f, cons, config: RepetitionsConfig):
    """Run ``ell`` solver rounds on shrinking grounds, refine each round's
    set with double greedy, and return the best candidate plus history.

    Round i removes its solver output from the ground before round i+1,
    so the per-round outputs are disjoint. Each round consumes its own
    pair of child RNG streams (solver alpha draw, double-greedy coins),
    making rounds individually reproducible.
    """
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
        # the restricted copy counts its own queries; charge them to cons
        cons.feasibility_calls += restricted.feasibility_calls
        refined = double_greedy(f, selected, coin_rng)
        trace.rounds.append(
            RoundRecord(i, run_trace.alpha, selected, refined, ground)
        )
        for candidate in (selected, refined):
            value = f.value(candidate)
            if value > best_value:
                best, best_value = candidate, value
        remaining -= selected

    return best, trace
