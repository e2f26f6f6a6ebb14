"""Non-monotone maximization: randomized double greedy plus a wrapper
that runs the hybrid solver on shrinking grounds and keeps the best of
all produced sets and their double-greedy refinements.
"""

import math
from dataclasses import dataclass, field

from .seeding import Stream, seed_pool
from .solver import SolverConfig, _require_count, run_efficient, sample_alpha


@dataclass(frozen=True)
class RepetitionsConfig(SolverConfig):
    """The solver's settings plus the round count ``ell``, which defaults
    to ceil(4 * k^(2/3)) when left 0. Every round's solver run takes this
    config itself."""

    ell: int = 0  # 0 means derive from k at call time

    def __post_init__(self):
        super().__post_init__()
        _require_count("ell", self.ell)

    def rounds_for(self, k):
        return self.ell if self.ell else math.ceil(4.0 * k ** (2.0 / 3.0))


def double_greedy(context, rng):
    """Randomized double greedy over S, the base of the value context
    ``context`` of f, in ascending id order.

    Keeps a growing set X and a shrinking set Y = S; for each element the
    inclusion probability is a'/(a' + b') with a' = max(f(e | X), 0) and
    b' = max(f(Y - e) - f(Y), 0), and 1 when b' is 0 (a'/(a' + 0) = 1,
    and two clipped zeros also give 1). For non-negative f the returned
    subset T satisfies E[f(T)] >= max over subsets of S of f / 2.

    Draw i of ``rng`` decides element i, whatever the probabilities, so
    T is what one uniform draw per element gives. A probability of 0 or
    1 decides its element with no draw: its draw is taken only when a
    later element's probability lies strictly between, to keep draw i on
    element i. So an rng that only such elements meet is never read.

    Y is ``context``, which only shrinks: each element asks it b', and
    double greedy moves it to T. a' is asked only where b' > 0: X is
    bound at the first such element, on Y's base below it (the elements
    kept so far), and from then on grows with each element taken. X
    ends equal to Y, so T is Y's base, and is S itself when nothing is
    dropped. Since a' is not asked where b' = 0, a NaN a' there takes e,
    where a loop asking it would drop e; the shipped families reject
    non-finite weights and never give one.

    A monotone f (``f.monotone``) has b' = 0 for every element, exactly:
    coverage's remove gains are whole units and a non-negative modular
    f's are -w. So p = 1 throughout, nothing is dropped and no draw is
    read, and double greedy returns S from Y alone, asking no gain.

    Returns (T, f(S)). f(S) is Y's value before its first move, so a
    caller that needs f(S) asks no whole-set query for it. Every shipped
    family's context and the generic one hold it as ``f.value(S)``,
    bit for bit, whether bound on S or moved there, as a solver run's
    is (see ValueContext). The b' asked of a moved context are a bound
    context's, bit for bit, since they read the same integer tables (cut
    ``single``, coverage ``counts``, the modular units) or, in the
    generic context, whole-set values.
    """
    high, f = context, context.f
    value = high.value
    if f.monotone:  # b' = 0 throughout (see above)
        return high.base, value
    low = None  # X, bound at the first element with b' > 0
    owed = 0  # draws of decided elements not yet taken from rng
    for e in sorted(high.base):
        b = max(high.gain((), (e,)), 0.0)
        if b == 0.0:
            p = 1.0
        else:
            if low is None:
                low = f.context(frozenset(x for x in high.base if x < e))
            a = max(low.gain_of(e), 0.0)
            p = a / (a + b)
        if 0.0 < p < 1.0:
            for _ in range(owed):
                rng.random()
            owed = 0
            take = rng.random() < p
        else:  # no draw on [0, 1) is below 0, or not below 1
            owed += 1
            take = p >= 1.0
        if not take:
            high.move((), (e,))
        elif low is not None:
            low.move((e,))
    return high.base, value


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
    so the per-round outputs are disjoint. Round i reads its own two
    streams, children 2i and 2i + 1 of ``SeedSequence(seed).spawn(2 *
    ell)``, for the solver's alpha and the double-greedy coins, so each
    round is reproducible on its own. Each round's solver run takes
    ``config`` itself, and draws its alpha from the stream, not from the
    config's seed. Both streams are ``seeding.Stream``s on
    the seed's pool (``seeding.seed_pool``, mixed once per call) with
    keys 2i and 2i + 1; a stream hashes its key only at its first draw,
    so the coin stream costs nothing when double greedy draws no coin,
    as on the empty set or a monotone f. Each round hands its run's value
    context, which ends on the round's set (``RunTrace.context``), to
    double greedy, so a round binds no value context beyond its run's
    (and double greedy's growing side, where it binds one). f of the
    round's set is that context's value, ``f.value`` of it bit for bit.
    Only a refinement that drops something is valued as a whole set.
    The wrapper sets each run trace's ``context`` to None once it has
    taken it.

    Once a round selects nothing, the rounds after it are settled and
    are recorded without a solve, as (i, alpha_i, empty, empty, same
    ground) with alpha_i = 1 - the first draw of stream 2i, which is the
    alpha their solver run would draw. Proof: a round selects nothing
    exactly when no edge of its ground has a positive singleton gain
    and fits alone. If one does, the scale is positive, the next-level
    pick exists, and the scan at the level the driver jumps to adds an
    edge (the level's threshold admits the pick's gain, and no move
    shrinks the set); if none does, the run is empty or the pick ends it
    at once.
    That condition does not depend on alpha, and an empty selection
    leaves the ground, and so the condition, as it was. The settled
    rounds' candidates are empty, which cannot beat the first empty
    round's, so the best candidate is unchanged too.
    """
    ell = config.rounds_for(cons.k)
    trace = RepetitionsTrace()
    best, best_value = frozenset(), float("-inf")
    pooled = seed_pool(config.seed)

    remaining = set(cons.edge_ids)
    for i in range(ell):
        ground = tuple(sorted(remaining))
        restricted = cons.restrict_ground(ground)
        selected, run_trace = run_efficient(f, restricted, config, rng=Stream(pooled, 2 * i))
        # the restricted copy counts its own queries; charge them to cons
        cons.feasibility_calls += restricted.feasibility_calls
        context, run_trace.context = run_trace.context, None
        refined, f_selected = double_greedy(context, Stream(pooled, 2 * i + 1))
        trace.rounds.append(
            RoundRecord(i, run_trace.alpha, selected, refined, ground)
        )
        candidates = [(selected, f_selected)]
        if refined != selected:
            candidates.append((refined, f.value(refined)))
        for candidate, value in candidates:
            if value > best_value:
                best, best_value = candidate, value
        if not selected:  # every later round is settled (see above)
            trace.rounds.extend(
                RoundRecord(
                    j, sample_alpha(Stream(pooled, 2 * j)),
                    frozenset(), frozenset(), ground,
                )
                for j in range(i + 1, ell)
            )
            break
        remaining -= selected

    return best, trace
