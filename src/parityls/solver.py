"""Hybrid greedy/local-search solver for matroid k-parity constraints.

A run draws one random exponent alpha in (0, 1], defines
geometrically decreasing thresholds m_i = W * 2^(alpha - i) from the
largest singleton marginal W, and builds its solution in threshold
levels: within level i it applies constant-size improving moves whose
added elements gain at least m_i, removing only elements added at the
current level.

One level loop, ``_drive``, owns the draw, the per-level search, the
move budget and the run's one value and one feasibility context, which
each applied move moves; ``RunTrace.add_level`` derives each level's
facts from its moves. Before every level the loop takes greedy's next
edge, ``best_feasible``'s pick from the run's memo of one-edge gains
(full when a level ends), asked again only after a level that applied
a move, and the run ends when there is none. The two
drivers differ only in the index rule that turns the pick into the next
level: ``run_reference`` steps one index on, visiting every level
literally, and ``run_efficient`` jumps to the first level whose
threshold admits the pick's gain (``Thresholds.index_at_most``). With
the same seed both return identical solutions and move sequences.
``bench.solve`` dispatches on the solver modes in ``bench.MODES``.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .matroid import _integer
from .seeding import Stream, seed_pool


@dataclass(frozen=True)
class Thresholds:
    """Geometric threshold family m_i = scale * 2^(alpha - i), i >= 0."""

    scale: float
    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")

    def level(self, i):
        # scaling by 2^-i is exact, hence level(i-1) == 2 * level(i)
        if i < 0:
            raise ValueError("threshold index must be non-negative")
        return self.scale * 2.0 ** self.alpha * 2.0 ** (-i)

    def index_at_most(self, gain):
        """Smallest level index whose threshold is at most ``gain``.

        Computed as ceil(log2(m_0) - log2(gain)) and then nudged by one
        step if floating error left gain outside the bracket
        m_i <= gain < m_{i-1}.
        """
        if gain <= 0:
            raise ValueError("the level bracket requires a positive gain")
        i = max(math.ceil(math.log2(self.level(0)) - math.log2(gain)), 0)
        if self.level(i) > gain:
            i += 1
        elif i >= 1 and self.level(i - 1) <= gain:
            i -= 1
        return i


@dataclass(frozen=True)
class Improvement:
    """One applied move: kind 1 adds one edge, kind 2 swaps one edge for
    a value gain, kind 3 adds two edges (in ``added`` order) and removes
    one. ``removed`` elements always come from the current level."""

    kind: int
    added: tuple
    removed: tuple


# (kind, edges added, edges removed) of each move kind
MOVE_SHAPES = ((1, 1, 0), (2, 1, 1), (3, 2, 1))


def _require_count(name, value):
    if not _integer(value) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """A run's settings, checked at construction: ``epsilon`` in (0, 1)
    and a ``seed`` that is an integer >= 0."""

    epsilon: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        _require_count("seed", self.seed)


@dataclass
class IterationRecord:
    index: int
    threshold: float
    improvements: list
    selected: tuple  # final level content, ascending ids


@dataclass
class RunTrace:
    """One run as its draw (scale, alpha, epsilon), each level's index
    with its applied moves, and its query counts (equality ignores them).
    ``thresholds`` is the draw's threshold family; ``add_level`` derives
    the rest: level thresholds and contents, insertion order, final set.
    ``context`` is the run's value context, which the driver leaves on
    ``final`` for a caller that goes on from the run's set (the
    non-monotone wrapper takes it for double greedy and sets it to None);
    it is None on a trace no driver made, a loaded one say. Equality,
    repr and the trace JSON ignore it.

    Construction checks the draw: epsilon must lie in (0, 1), and a
    positive scale must give a finite top threshold ``level(0)``. A
    scale <= 0 (-inf for an empty ground) is the empty run, which has
    no levels."""

    scale: float
    alpha: float
    epsilon: float
    value_calls: int = field(default=0, compare=False)
    feasibility_calls: int = field(default=0, compare=False)
    iterations: list = field(default_factory=list, init=False)
    insertion_order: list = field(default_factory=list, init=False)
    final: frozenset = field(default=frozenset(), init=False)
    thresholds: Thresholds = field(init=False, repr=False, compare=False)
    context: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon {self.epsilon} does not lie in (0, 1)")
        self.thresholds = Thresholds(self.scale, self.alpha)
        # "not <= 0" so that a NaN scale is checked too
        if not self.scale <= 0:
            try:
                top = self.thresholds.level(0)
            except OverflowError:  # an int no float holds
                raise ValueError("scale is too large for a float") from None
            if not math.isfinite(top):
                raise ValueError(
                    f"scale {self.scale} gives a top threshold of {top}, which is not finite"
                )

    def add_level(self, index, moves):
        """Append level ``index`` by replaying its ``moves`` (a list of
        Improvement) from an empty level. Raises ValueError, leaving the
        trace as it was, unless the scale is positive, the index is an
        int >= 0 that exceeds the last one, each removed edge is held by
        the level, each added edge is not yet chosen and each move has
        its kind's shape (MOVE_SHAPES)."""
        if self.scale <= 0:
            raise ValueError(f"scale {self.scale} is not positive; the empty run has no levels")
        if not isinstance(index, int) or isinstance(index, bool):
            raise ValueError(f"level index {index!r} is not an integer")
        if self.iterations and index <= self.iterations[-1].index:
            raise ValueError(f"level index {index} does not exceed the previous one")
        try:
            threshold = self.thresholds.level(index)
        except OverflowError:  # an int no float holds
            raise ValueError("level index is too large for a float") from None
        current = {}  # the level's content in insertion order
        for imp in moves:
            for y in imp.removed:
                if y not in current:
                    raise ValueError(f"level {index}: removes edge {y}, which it does not hold")
                del current[y]
            for x in imp.added:
                if x in current or x in self.final:
                    raise ValueError(f"level {index}: adds edge {x}, which is already chosen")
                current[x] = None
            if (imp.kind, len(imp.added), len(imp.removed)) not in MOVE_SHAPES:
                raise ValueError(
                    f"level {index}: move of kind {imp.kind!r} adding {len(imp.added)} and "
                    f"removing {len(imp.removed)} edges is not a move of the solver"
                )
        selected = tuple(sorted(current))
        self.iterations.append(IterationRecord(index, threshold, moves, selected))
        self.insertion_order.extend(current)
        self.final = self.final.union(current)

    @property
    def improvement_count(self):
        return sum(len(rec.improvements) for rec in self.iterations)

    def applied_sequence(self):
        """Flat (level index, improvement) list; empty levels contribute
        nothing, so the two drivers agree on it exactly."""
        return [
            (rec.index, imp) for rec in self.iterations for imp in rec.improvements
        ]


def max_singleton_marginal(vals, edge_ids):
    """The scale W = largest f({e}) - f(empty) over the ground set, and
    that gain for every edge (ascending ids); feasibility is not
    consulted. The gains are asked of ``vals``, the run's value context
    on the empty set. Empty grounds give (-inf, {}), which shuts the run
    down."""
    edges = sorted(edge_ids)
    gain = {x: vals.gain_of(x) for x in edges}
    return max(gain.values(), default=float("-inf")), gain


def sample_alpha(rng):
    """Draw the threshold exponent: alpha = 1 - U with U the next
    ``random()`` of ``rng``, uniform on [0, 1), so alpha lands in (0, 1]."""
    return 1.0 - rng.random()


def best_feasible(fits, gain):
    """Greedy's pick: the first edge in (-gain, id) order with a positive
    gain that the context ``fits`` accepts, asking ``fits.fits`` until
    one fits; else None. The context answers an edge it already found
    dependent without a query (see ``FeasibilityContext``)."""
    # two stable sorts with a C-level key: (-gain, id) order for finite gains
    for e in sorted(sorted(gain), key=gain.__getitem__, reverse=True):
        if gain[e] <= 0:
            return None
        if fits.fits(e):
            return e
    return None


def find_improvement(vals, fits, current, theta, epsilon, gain, after=None):
    """First improving move at level theta for the base that the value
    context ``vals`` and the feasibility context ``fits`` share, of
    which ``current`` is the part added at this level.

    Deterministic first-improvement scan: single additions over x
    ascending; then swaps over (x, y) lexicographic with y drawn from
    ``current``; then two-for-one moves over unordered pairs {x1, x2}
    lexicographic with y from ``current``, trying the smaller id as the
    first-inserted element before the other labeling. Every feasibility
    check on (base | A) \\ N is asked of ``fits`` and every value query
    is a gain asked of ``vals``, which the comparisons read as they are:
    a swap needs a gain of epsilon * theta, and a pair (p, q) a gain
    that exceeds p's by theta. The scan asks only about edges outside
    the base, so the singles and swaps ask the unchecked ``gain_of``
    and ``fits``, and a swap's ``fits(x, y)`` meets the promise of the
    matroid layer's unchecked path. It walks those edges in ``fits.outside``,
    the ascending list the context keeps as it moves, so a scan does not
    build one. The scan binds and moves nothing.
    Returns None at a local optimum. ``gain`` is the run's memo of
    f(base + x) - f(base): the scan reads the gains it holds, asks and
    stores those it lacks, and never empties or reorders it; after a
    None, it holds the gain of every outside edge.

    Shortcuts that leave every answer as it is. The swap loop tries
    every high edge x (gain >= theta) against every y and records each
    dead swap, one with (base - y) + x dependent. The pair loop skips y
    when a member of the pair has a dead swap with y: feasibility is
    down-closed, so (base - y) + {p, q} is dependent too, for every
    MatroidOracle. With nothing at this level to remove, the scan stops
    after the singles.

    f must be submodular, and the scan skips what that fixes. A non-
    submodular f can make it miss a move, never return an infeasible one.
    - A pair qualifies only if both members are high: after one of them,
      the other gains at most its own gain. So the pair loop enumerates
      only pairs of high edges, in lexicographic order.
    - ``after``, the edge the last move of this level added by itself,
      lets the singles resume past it: every edge before it was low or
      dependent, and stays so while the base only grows. The gains of
      those edges the memo lacks are asked only if the scan goes on to
      swaps or returns None.
    """
    outside = fits.outside
    start = 0 if after is None else bisect_right(outside, after)
    removable = sorted(current)
    for x in outside[start:]:
        if x not in gain:
            gain[x] = vals.gain_of(x)
        if gain[x] >= theta and fits.fits(x):
            return Improvement(1, (x,), ())
    if start:  # the gains the resumed singles skipped
        for x in outside[:start]:
            if x not in gain:
                gain[x] = vals.gain_of(x)
    if not removable:  # swaps and pairs need a level edge to remove
        return None

    # from here on the gain of every outside edge is known
    high = [x for x in outside if gain[x] >= theta]
    dead_swaps = set()  # swaps (x, y) with (base - y) + x dependent
    for x in high:
        for y in removable:
            if not fits.fits(x, y):
                dead_swaps.add((x, y))
                continue
            if vals.gain((x,), (y,)) >= epsilon * theta:
                return Improvement(2, (x,), (y,))

    for i, p in enumerate(high):
        for q in high[i + 1:]:
            for y in removable:
                # down-closed: a dead swap with either member kills the pair
                if (p, y) in dead_swaps or (q, y) in dead_swaps:
                    continue
                if not fits.feasible((p, q), (y,)):
                    continue
                g = vals.gain((p, q))
                if g - gain[p] >= theta:
                    return Improvement(3, (p, q), (y,))
                if g - gain[q] >= theta:
                    return Improvement(3, (q, p), (y,))
                break  # labelings do not depend on y; this pair is dead
    return None


def _drive(f, cons, config, rng, next_level):
    """The level loop both drivers share.

    Binds the run's one value context ``vals`` on the empty set, draws
    the scale (from its singleton gains) and alpha, and, once the scale
    is positive, the run's one feasibility context ``fits``. Alpha reads
    ``rng``, or, with none given, ``seeding.Stream(seed_pool(config.seed))``,
    whose first draw is ``Generator(PCG64(config.seed)).random()``. Then it
    takes ``best_feasible``'s pick, greedy's next edge, before the first
    level and after each level that applied a move; with none left the
    run ends. A level that applies no move, which only the stepwise walk
    visits, keeps its pick for the next level: it leaves ``gain`` as it
    was and every edge ranked ahead of the pick dependent, so a new pick
    would be the same edge. ``next_level(thresholds, index, top)``,
    with ``top`` the pick's gain, gives the next level index, and the
    loop runs the first-improvement local search there
    until no move is left. Each applied move moves both contexts, so
    their base is always the chosen set, and the settled set
    ``trace.final`` when a level ends. ``gain``, the memo of each edge's
    gain against that set, starts as the singleton gains, is filled by
    the scans and cleared right after each applied move, and at no other
    time; so the pick reads a full memo and asks no value query.
    ``fits`` remembers the single adds it found dependent until a kind-2
    or kind-3 move removes an edge, so the scans and the pick ask none
    of them again (see ``FeasibilityContext``). After a kind-1 move adds
    x, the next scan resumes its singles past x (``find_improvement``'s
    ``after``); a new level and every swap or two-for-one move start
    them over. The applied moves are capped at (1 + 2/eps)|E|. Returns
    the final edge set and the trace, which counts every query of the
    run and holds ``vals``, on that set, as its ``context``.
    """
    value_calls_0, feas_calls_0 = f.calls, cons.feasibility_calls
    vals = f.context(frozenset())
    scale, gain = max_singleton_marginal(vals, cons.edge_ids)
    alpha = sample_alpha(rng if rng is not None else Stream(seed_pool(config.seed)))
    trace = RunTrace(scale=scale, alpha=alpha, epsilon=config.epsilon)
    if scale > 0:  # else the empty run (-inf for an empty ground)
        fits = cons.context(frozenset())
        budget = (1.0 + 2.0 / config.epsilon) * len(cons.edge_ids)
        applied = 0
        index = 0
        pick = best_feasible(fits, gain)
        while pick is not None:
            index = next_level(trace.thresholds, index, gain[pick])
            theta = trace.thresholds.level(index)
            current = set()
            moves = []
            after = None
            while imp := find_improvement(
                vals, fits, current, theta, config.epsilon, gain, after
            ):
                vals.move(imp.added, imp.removed)
                fits.move(imp.added, imp.removed)
                gain.clear()
                current.difference_update(imp.removed)
                current.update(imp.added)
                moves.append(imp)
                after = imp.added[0] if imp.kind == 1 else None
                applied += 1
                if applied > budget:
                    raise RuntimeError(
                        "improvement budget (1 + 2/eps)|E| exceeded; value oracle is inconsistent"
                    )
            trace.add_level(index, moves)
            if moves:  # else the pick stays (see above)
                pick = best_feasible(fits, gain)
    trace.context = vals
    trace.value_calls = f.calls - value_calls_0
    trace.feasibility_calls = cons.feasibility_calls - feas_calls_0
    return trace.final, trace


def run_reference(f, cons, config, rng=None):
    """Stepwise driver: walks level indices one by one, including levels
    that accept nothing, exactly as the hybrid scheme is defined, while
    ``best_feasible`` has a pick.
    """
    return _drive(f, cons, config, rng, lambda thresholds, index, top: index + 1)


def run_efficient(f, cons, config, rng=None):
    """Fast driver: jumps straight to the first level whose threshold
    admits the gain of ``best_feasible``'s pick (greedy's next edge;
    ``Thresholds.index_at_most``), and at least one level on, since
    2^alpha can round to 1 and let W equal m_0. It gives the same output
    and move sequence as the stepwise driver for the same seed.
    """
    return _drive(
        f, cons, config, rng,
        lambda thresholds, index, top: max(thresholds.index_at_most(top), index + 1),
    )
