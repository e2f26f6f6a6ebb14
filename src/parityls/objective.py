"""Set-function value oracles, desk-scale submodularity/monotonicity
checkers and the concrete test families (modular, coverage, cut).

``ValueOracle.context`` answers marginal queries around one fixed edge
set, the way the solver's scans, greedy and double greedy ask them: what
f would gain if these edges were added and those removed.
"""

import math
from dataclasses import dataclass, field

CHECK_CAP = 14

LINEAR = "linear"
MONOTONE_SUBMODULAR = "monotone-submodular"
SUBMODULAR = "submodular"


class ValueOracle:
    """Evaluate f over edge sets; ``calls`` counts value queries.

    ``value(S)`` evaluates one whole set. ``context(S)`` fixes S and
    answers marginals around it (see ValueContext). Binding a context
    counts one query, as ``value(S)`` does, and so does each of its
    ``gain`` and ``apply`` calls. A subclass defines ``_value`` and may
    override ``_context`` with a cheaper incremental context.

    ``declared_class`` is one of "linear", "monotone-submodular" or
    "submodular" and selects branches in the run verifier.
    """

    declared_class = SUBMODULAR

    def __init__(self):
        self.calls = 0

    def value(self, edge_set) -> float:
        self.calls += 1
        return self._value(frozenset(edge_set))

    def context(self, edge_set) -> "ValueContext":
        """Marginal queries around the fixed edge set ``edge_set``."""
        self.calls += 1
        return self._context(frozenset(edge_set))

    def _value(self, s: frozenset) -> float:
        raise NotImplementedError

    def _context(self, base):
        return ValueContext(self, base)


def _check_move(base, add, remove):
    for x in add:
        if x in base:
            raise ValueError(f"cannot add edge {x}: it is already in the base")
    for y in remove:
        if y not in base:
            raise ValueError(f"cannot remove edge {y}: it is not in the base")
    if len(add) > 1 and len(set(add)) < len(add):
        raise ValueError("a move adds an edge twice")
    if len(remove) > 1 and len(set(remove)) < len(remove):
        raise ValueError("a move removes an edge twice")


class ValueContext:
    """Value queries around one base edge set of an oracle.

    ``value`` is f(base). ``gain(add, remove=())`` is
    f((base - remove) | add) - f(base), and ``apply(add, remove=())``
    moves the base to that set. Each call counts one query on the
    oracle. A move that adds an edge of the base, removes one outside
    it or names an edge twice raises ValueError.

    This generic context evaluates ``f._value`` on each whole new set,
    and ``apply`` evaluates the new base rather than adding up gains, so
    an oracle without its own context sees the ``_value`` calls that
    whole-set queries would make. The family contexts below add up
    exact marginals instead: on integer weights (sums below 2^53) every
    gain and value equals the whole-set figure; on float weights a gain
    may differ from the whole-set difference in the last ulp.
    """

    def __init__(self, f, base):
        self.f = f
        self.base = base
        self.value = f._value(base)

    def gain(self, add, remove=()) -> float:
        self.f.calls += 1
        _check_move(self.base, add, remove)
        return self._gain(add, remove)

    def apply(self, add, remove=()):
        self.f.calls += 1
        _check_move(self.base, add, remove)
        self._move(add, remove)

    def _gain(self, add, remove):
        return self.f._value(self.base.difference(remove).union(add)) - self.value

    def _move(self, add, remove):
        self.base = self.base.difference(remove).union(add)
        self.value = self.f._value(self.base)


class _SummingContext(ValueContext):
    """A family context: ``apply`` adds the move's gain to the value."""

    def _move(self, add, remove):
        self.value += self._gain(add, remove)
        self.base = self.base.difference(remove).union(add)


class ModularObjective(ValueOracle):
    """f(S) = w0 + sum of per-edge weights; marginals are constant, so the
    analysis treats this family as linear (w0 only shifts values)."""

    declared_class = LINEAR

    def __init__(self, weights, w0=0.0):
        super().__init__()
        if not 0 <= w0 < math.inf:
            raise ValueError("w0 must be finite and non-negative")
        self.w0 = float(w0)
        self.weights = dict(weights)
        for e, w in self.weights.items():
            if not math.isfinite(w):
                raise ValueError(f"edge {e} has non-finite weight {w}")

    def _value(self, s):
        return self.w0 + sum(self.weights[e] for e in s)

    def _context(self, base):
        return _ModularContext(self, base)


class _ModularContext(_SummingContext):
    """A gain is the added weights minus the removed ones."""

    def _gain(self, add, remove):
        weights = self.f.weights
        g = 0.0
        for x in add:
            g += weights[x]
        for y in remove:
            g -= weights[y]
        return g


class CoverageObjective(ValueOracle):
    """Weighted coverage: f(S) = total weight of items covered by S.
    Monotone submodular for non-negative item weights."""

    declared_class = MONOTONE_SUBMODULAR

    def __init__(self, item_weights, edge_items):
        super().__init__()
        self.item_weights = [float(w) for w in item_weights]
        for i, w in enumerate(self.item_weights):
            if not 0 <= w < math.inf:
                raise ValueError(f"item {i} weight {w} is negative or not finite")
        self.edge_items = {e: frozenset(items) for e, items in edge_items.items()}
        for e, items in self.edge_items.items():
            if any(not 0 <= i < len(self.item_weights) for i in items):
                raise ValueError(f"edge {e} covers an unknown item")

    def _value(self, s):
        return self._weight(self._covered(s))

    def _covered(self, s):
        covered = set()
        for e in s:
            covered |= self.edge_items[e]
        return covered

    def _weight(self, items):
        return sum(map(self.item_weights.__getitem__, items))

    def _context(self, base):
        return _CoverageContext(self, base)


class _CoverageContext(_SummingContext):
    """Keeps the set of items the base covers, so an added edge gains the
    weight of its items outside that set, and how many base edges cover
    each item, so a removed edge loses the items no other base edge
    covers and no added edge covers."""

    def __init__(self, f, base):
        self.f = f
        self.base = base
        self.covered = f._covered(base)
        self.value = f._weight(self.covered)
        counts = self.counts = [0] * len(f.item_weights)
        for e in base:
            for i in f.edge_items[e]:
                counts[i] += 1

    def _gain(self, add, remove):
        items, weight = self.f.edge_items, self.f.item_weights.__getitem__
        if len(add) == 1:
            for x in add:
                added = items[x]
        else:
            added = set().union(*map(items.__getitem__, add))
        g = sum(map(weight, added - self.covered), 0.0)
        if remove:
            g -= sum(map(weight, self._lost(remove) - added))
        return g

    def _lost(self, remove):
        """Items covered by the removed edges and by no other base edge."""
        items, counts = self.f.edge_items, self.counts
        tally = {}
        for y in remove:
            for i in items[y]:
                tally[i] = tally.get(i, 0) + 1
        return {i for i, c in tally.items() if counts[i] == c}

    def _move(self, add, remove):
        super()._move(add, remove)
        items, counts, covered = self.f.edge_items, self.counts, self.covered
        for y in remove:
            for i in items[y]:
                counts[i] -= 1
                if not counts[i]:
                    covered.discard(i)
        for x in add:
            for i in items[x]:
                counts[i] += 1
            covered |= items[x]


class CutObjective(ValueOracle):
    """Weighted cut of an undirected graph whose nodes are edge ids:
    f(S) = total weight of graph edges with exactly one endpoint in S.
    Non-negative, non-monotone submodular, f(empty) = 0."""

    declared_class = SUBMODULAR

    def __init__(self, weighted_links):
        super().__init__()
        self.links = [(u, v, float(w)) for u, v, w in weighted_links]
        for u, v, w in self.links:
            if not 0 <= w < math.inf:
                raise ValueError(f"link ({u}, {v}) weight {w} is negative or not finite")
        self._adjacency = None  # node -> links at it, built by the first context

    def _value(self, s):
        total = 0.0
        for u, v, w in self.links:
            if (u in s) != (v in s):
                total += w
        return total

    def _context(self, base):
        if self._adjacency is None:
            # the tuples of ``links`` themselves; a self-loop is never cut
            adjacency = {}
            for link in self.links:
                u, v, _ = link
                if u != v:
                    adjacency.setdefault(u, []).append(link)
                    adjacency.setdefault(v, []).append(link)
            self._adjacency = adjacency
        return _CutContext(self, base)


class _CutContext(_SummingContext):
    """A gain walks only the links at the moved edges. A link whose ends
    both move stays cut or uncut, so it is skipped; every other link at
    a moved edge flips."""

    def _gain(self, add, remove):
        base, adjacency = self.base, self.f._adjacency
        g = 0.0
        for x in add:
            for u, v, w in adjacency.get(x, ()):
                other = v if u == x else u
                if other in add or other in remove:
                    continue
                if other in base:
                    g -= w
                else:
                    g += w
        for y in remove:
            for u, v, w in adjacency.get(y, ()):
                other = v if u == y else u
                if other in add or other in remove:
                    continue
                if other in base:
                    g += w
                else:
                    g -= w
        return g


@dataclass
class CheckReport:
    """Result of an exhaustive property check over a desk-scale ground."""

    property: str
    ground: tuple
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def _subset(elems, mask):
    return frozenset(elems[i] for i in range(len(elems)) if mask >> i & 1)


def _value_table(f, ground, check):
    """Sorted ground plus f of every subset, indexed by bit mask."""
    elems = sorted(ground)
    if len(elems) > CHECK_CAP:
        raise ValueError(f"{check} check capped at {CHECK_CAP} elements")
    fn = f.value if hasattr(f, "value") else f
    return elems, [fn(_subset(elems, mask)) for mask in range(1 << len(elems))]


def check_submodular(f, ground) -> CheckReport:
    """Exhaustively verify f(e | S) >= f(e | T) for all S <= T and e outside T.

    Uses the equivalent single-step form (T = S + e') over a value table;
    any violation of the general definition yields a single-step one.
    Refuses grounds larger than 14 elements.
    """
    elems, table = _value_table(f, ground, "submodularity")
    n = len(elems)
    report = CheckReport(property="submodular", ground=tuple(elems))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bi, bj = 1 << i, 1 << j
            for mask in range(1 << n):
                if mask & bi or mask & bj:
                    continue
                lhs = table[mask | bi] - table[mask]
                rhs = table[mask | bi | bj] - table[mask | bj]
                if lhs < rhs - 1e-12:
                    report.violations.append(
                        (tuple(sorted(_subset(elems, mask))),
                         tuple(sorted(_subset(elems, mask | bj))),
                         elems[i])
                    )
    return report


def check_monotone(f, ground) -> CheckReport:
    """Exhaustively verify f(e | S) >= 0 for every S and e outside S."""
    elems, table = _value_table(f, ground, "monotonicity")
    n = len(elems)
    report = CheckReport(property="monotone", ground=tuple(elems))
    for i in range(n):
        bi = 1 << i
        for mask in range(1 << n):
            if mask & bi:
                continue
            if table[mask | bi] < table[mask] - 1e-12:
                report.violations.append(
                    (tuple(sorted(_subset(elems, mask))), elems[i])
                )
    return report
