"""Set-function value oracles, desk-scale submodularity/monotonicity
checkers and the concrete test families (modular, coverage, cut).

``ValueOracle.context`` answers marginal queries around one edge set,
the way the solver's scans, greedy and double greedy ask them: what f
would gain if these edges were added and those removed. ``move`` moves
that set by such a change.
"""

import math
import numbers

from .matroid import CheckReport, _integer, _leq, _submodular_violations, _subset, _subset_table

CHECK_CAP = 14


class ValueOracle:
    """Evaluate f over edge sets; ``calls`` counts value queries.

    ``value(S)`` evaluates one whole set. ``context(S)`` fixes S and
    answers marginals around it (see ValueContext). Binding a context
    counts one query, as ``value(S)`` does, and so does each of its
    ``gain``, ``gain_of`` and ``move`` calls. A subclass defines
    ``_value`` and may override ``_context`` with a cheaper incremental
    context.

    f must be submodular, as the solver's scan and greedy assume: they
    skip questions whose answer that fixes, so a non-submodular f can
    make them miss moves and picks, never return an infeasible set.
    ``linear``, True for a modular f, tells the run verifier which
    charge ratio applies. ``monotone``, True only where f(S) <= f(S + e)
    for every S and e and every one-edge remove gain is exactly <= 0
    (coverage, and a modular f with no negative weight), lets double
    greedy skip what that fixes; it is False by default.
    """

    linear = False
    monotone = False

    def __init__(self):
        self.calls = 0

    def value(self, edge_set) -> float:
        self.calls += 1
        return self._value(frozenset(edge_set))

    def context(self, edge_set) -> "ValueContext":
        """Marginal queries around the edge set ``edge_set``."""
        self.calls += 1
        return self._context(frozenset(edge_set))

    def _value(self, s: frozenset) -> float:
        raise NotImplementedError

    def _context(self, base):
        return ValueContext(self, base)


_PLAIN = {float, int}  # weight types that skip _real's slower checks


def _real(w, where, *args):
    """float(w) for a real number, numpy scalars included; a str, bool,
    None or other value, or a number too large for a float (an int of
    400 digits, say), raises ValueError naming ``where.format(*args)``."""
    if type(w) not in _PLAIN and (isinstance(w, bool) or not isinstance(w, numbers.Real)):
        raise ValueError(f"{where.format(*args)} weight {w!r} is not a number")
    try:
        return float(w)
    except OverflowError:
        raise ValueError(f"{where.format(*args)} weight is too large for a float") from None


def _dyadic(weights, family):
    """Integer units and one power of two ``den`` with
    units[i] / den == weights[i] exactly (den is 1 for integer weights),
    so sums of units are exact and ``units / den`` rounds once. Raises
    ValueError naming ``family`` unless the sum of the absolute weights
    is a finite float: it bounds every value and gain the family divides."""
    ratios = list(map(float.as_integer_ratio, weights))
    den = max([d for _, d in ratios], default=1)
    units = [n * (den // d) for n, d in ratios]
    try:
        sum(map(abs, units)) / den
    except OverflowError:
        raise ValueError(f"{family} weights sum to more than the largest float") from None
    return units, den


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
    f((base - remove) | add) - f(base), and ``move(add, remove=())``
    moves the base to that set. Each call counts one query on the
    oracle. A move that adds an edge of the base, removes one outside
    it or names an edge twice raises ValueError; a refused ``move``
    counts no query and leaves the context as it was.

    ``gain_of(x)`` is ``gain((x,))``, with the same answer and count
    but no check that x lies outside the base: every caller of a
    one-edge add gain asks it, always about such an edge.

    This generic context evaluates ``f._value`` on each whole new set,
    and ``move`` evaluates the new base rather than adding up gains, so
    an oracle without its own context sees the ``_value`` calls that
    whole-set queries would make. The family contexts below hold f(base)
    and each gain as exact integer sums of units (see ``_dyadic``),
    divided once by the objective's ``den``: ``value`` is
    ``f.value(base)`` and every gain is the exact difference rounded
    once, bit for bit on any weights. Coverage reads its one-edge add
    gains from lanes of one packed integer.
    """

    def __init__(self, f, base):
        self.f = f
        self.base = base
        self.value = f._value(base)

    def gain(self, add, remove=()) -> float:
        self.f.calls += 1
        _check_move(self.base, add, remove)
        return self._gain(add, remove)

    def move(self, add, remove=()):
        _check_move(self.base, add, remove)
        self.f.calls += 1
        self._move(add, remove)

    def gain_of(self, x) -> float:
        self.f.calls += 1
        return self._gain((x,), ())

    def _gain(self, add, remove):
        return self.f._value(self.base.difference(remove).union(add)) - self.value

    def _move(self, add, remove):
        self.base = self.base.difference(remove).union(add)
        self.value = self.f._value(self.base)


class _SummingContext(ValueContext):
    """A family context: f(base) is ``units / den``; ``gain`` divides a
    move's gain in units, ``_delta(add, remove)``, and ``move`` adds it."""

    @property
    def value(self):
        return self.units / self.f._den

    def _gain(self, add, remove):
        return self._delta(add, remove) / self.f._den

    def _move(self, add, remove):
        self.units += self._delta(add, remove)
        self.base = self.base.difference(remove).union(add)


class ModularObjective(ValueOracle):
    """f(S) = w0 + sum of per-edge weights; marginals are constant, so the
    analysis treats this family as linear (w0 only shifts values). It is
    monotone exactly when no weight is negative, as the weights stand at
    construction. ``weights`` keeps the numbers given; f reads each as
    its float."""

    linear = True

    def __init__(self, weights, w0=0.0):
        super().__init__()
        self.w0 = _real(w0, "w0")
        if not 0 <= self.w0 < math.inf:
            raise ValueError("w0 must be finite and non-negative")
        self.weights = dict(weights)
        try:
            for e, w in self.weights.items():
                if type(w) not in _PLAIN:
                    _real(w, "edge {}", e)
                if not math.isfinite(w):
                    raise ValueError(f"edge {e} has non-finite weight {w}")
        except OverflowError:  # a plain int no float holds
            raise ValueError(f"edge {e} weight is too large for a float") from None
        self.monotone = all(w >= 0 for w in self.weights.values())
        (self._w0_units, *units), self._den = _dyadic(
            [self.w0, *map(float, self.weights.values())], "modular"
        )
        self._units = dict(zip(self.weights, units))

    def _value(self, s):
        return math.fsum([self.w0, *map(self.weights.__getitem__, s)])

    def _context(self, base):
        return _ModularContext(self, base)


class _ModularContext(_SummingContext):
    """A gain is the added units minus the removed ones."""

    def __init__(self, f, base):
        self.f = f
        self.base = base
        self.units = f._w0_units + sum(map(f._units.__getitem__, base))

    def gain_of(self, x):
        f = self.f
        f.calls += 1
        return f._units[x] / f._den

    def _delta(self, add, remove):
        units = self.f._units
        return sum(map(units.__getitem__, add)) - sum(map(units.__getitem__, remove))


class CoverageObjective(ValueOracle):
    """Weighted coverage: f(S) = total weight of items covered by S.
    Monotone submodular for non-negative item weights."""

    monotone = True

    def __init__(self, item_weights, edge_items):
        super().__init__()
        try:
            self.item_weights = [
                float(w) if type(w) in _PLAIN else _real(w, "item {}", i)
                for i, w in enumerate(item_weights)
            ]
        except OverflowError:  # a plain int no float holds: _real names it
            for i, w in enumerate(item_weights):
                _real(w, "item {}", i)
        for i, w in enumerate(self.item_weights):
            if not 0 <= w < math.inf:
                raise ValueError(f"item {i} weight {w} is negative or not finite")
        self.edge_items = {e: frozenset(items) for e, items in edge_items.items()}
        n_items = len(self.item_weights)
        for e, items in self.edge_items.items():
            for i in items:
                if not _integer(i):
                    raise ValueError(f"edge {e} covers item id {i!r}, which is not an integer")
                if not 0 <= i < n_items:
                    raise ValueError(f"edge {e} covers an unknown item")
        self._units, self._den = _dyadic(self.item_weights, "coverage")
        # built by the first context: each edge's lane in the packed
        # integers, and per item its units in the lane of every edge that
        # covers it (see _CoverageContext)
        self._lane = self._mask = self._packed = self._total = None

    def _value(self, s):
        return math.fsum(map(self.item_weights.__getitem__, self._covered(s)))

    def _covered(self, s):
        covered = set()
        for e in s:
            covered |= self.edge_items[e]
        return covered

    def _context(self, base):
        if self._packed is None:
            unit = self._units.__getitem__
            top = max((sum(map(unit, items)) for items in self.edge_items.values()), default=0)
            width = top.bit_length() + 1  # a lane never exceeds its edge's total
            self._lane = {e: k * width for k, e in enumerate(self.edge_items)}
            self._mask = (1 << width) - 1
            lanes = [0] * len(self._units)
            for e, items in self.edge_items.items():
                bit = 1 << self._lane[e]
                for i in items:
                    lanes[i] |= bit
            self._packed = [n * b for n, b in zip(self._units, lanes)]
            self._total = sum(self._packed)
        return _CoverageContext(self, base)


class _CoverageContext(_SummingContext):
    """Keeps ``single``, one integer whose lane for edge e (see
    ``CoverageObjective._context``) holds the units of e's items outside
    the base's cover, so adding one edge gains that lane. Each
    lane stays within 0 and the units of all e's items, below its width,
    so no carry or borrow crosses lanes, and a move adds or subtracts
    one packed item integer per item it uncovers or covers. The table
    is built at bind. Other moves use the covered items, so the added
    edges gain the units of theirs outside them, and how many base edges
    cover each item, so the removed edges lose the items no other base
    edge and no added edge covers."""

    def __init__(self, f, base):
        self.f = f
        self.base = base
        self.covered = f._covered(base)
        self.units = sum(map(f._units.__getitem__, self.covered))
        counts = self.counts = [0] * len(f.item_weights)
        for e in base:
            for i in f.edge_items[e]:
                counts[i] += 1
        self.single = f._total - sum(map(f._packed.__getitem__, self.covered))

    def gain_of(self, x):
        f = self.f
        f.calls += 1
        return (self.single >> f._lane[x] & f._mask) / f._den

    def _delta(self, add, remove):
        f = self.f
        if not remove and len(add) == 1:
            (x,) = add
            return self.single >> f._lane[x] & f._mask
        items, unit = f.edge_items, f._units.__getitem__
        if len(add) == 1:
            for x in add:
                added = items[x]
        else:
            added = set().union(*map(items.__getitem__, add))
        g = sum(map(unit, added - self.covered))
        if remove:
            g -= sum(map(unit, self._lost(remove) - added))
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
        counts, covered, single = self.counts, self.covered, self.single
        items, packed = self.f.edge_items, self.f._packed
        for y in remove:
            for i in items[y]:
                counts[i] -= 1
                if not counts[i]:
                    covered.discard(i)
                    single += packed[i]
        for x in add:
            for i in items[x]:
                if not counts[i]:
                    covered.add(i)
                    single -= packed[i]
                counts[i] += 1
        self.single = single


class CutObjective(ValueOracle):
    """Weighted cut of an undirected graph whose nodes are edge ids:
    f(S) = total weight of graph edges with exactly one endpoint in S.
    Non-negative, non-monotone submodular, f(empty) = 0."""

    def __init__(self, weighted_links):
        super().__init__()
        try:
            links = [
                (u, v, float(w) if type(w) in _PLAIN else _real(w, "link ({}, {})", u, v))
                for u, v, w in weighted_links
            ]
        except OverflowError:  # a plain int no float holds: _real names it
            for u, v, w in weighted_links:
                _real(w, "link ({}, {})", u, v)
        for u, v, w in links:
            if not 0 <= w < math.inf:
                raise ValueError(f"link ({u}, {v}) weight {w} is negative or not finite")
        units, self._den = _dyadic([w for _, _, w in links], "cut")
        self._links = [(u, v, n) for (u, v, _), n in zip(links, units)]
        # built by the first context: node -> (neighbours, link units), parallel
        # links merged and self-loops (never cut) left out; units at each node
        self._adjacency = self._degree = None

    @property
    def links(self):
        """The (u, v, weight) links, weights as floats."""
        return [(u, v, n / self._den) for u, v, n in self._links]

    def _value(self, s):
        total = 0
        for u, v, n in self._links:
            if (u in s) != (v in s):
                total += n
        return total / self._den

    def _context(self, base):
        if self._adjacency is None:
            rows = {}
            for u, v, n in self._links:
                if u != v:
                    for a, b in ((u, v), (v, u)):
                        row = rows.setdefault(a, {})
                        row[b] = row.get(b, 0) + n
            self._adjacency = {x: (tuple(row), tuple(row.values())) for x, row in rows.items()}
            self._degree = {x: sum(row.values()) for x, row in rows.items()}
        return _CutContext(self, base)


_NO_LINKS = ((), ())


class _CutContext(_SummingContext):
    """Keeps ``single[x]``, the units of x's links to edges outside the
    base minus those to edges inside, so adding x gains single[x] units
    and removing it loses them; an applied move shifts the entries of the
    moved edges' neighbours. A move of several edges adds up their
    entries and mends each link between two moved edges, which stays cut
    or uncut although both entries count it as flipping."""

    def __init__(self, f, base):
        self.f = f
        self.base = base
        links = f._links if base else ()  # the empty base cuts nothing
        self.units = sum(n for u, v, n in links if (u in base) != (v in base))
        self.single = dict(f._degree)
        self._shift(base, -2)

    def gain_of(self, x):
        f = self.f
        f.calls += 1
        return self.single.get(x, 0) / f._den

    def _delta(self, add, remove):
        single = self.single
        if len(add) + len(remove) == 1:
            for x in add:
                return single.get(x, 0)
            for y in remove:
                return -single.get(y, 0)
        sign = dict.fromkeys(add, 1)
        sign.update(dict.fromkeys(remove, -1))
        g = 0
        for a, s in sign.items():
            g += s * single.get(a, 0)
            for b, n in zip(*self.f._adjacency.get(a, _NO_LINKS)):
                if b in sign:  # met from both ends
                    g -= s * sign[b] * n
        return g

    def _move(self, add, remove):
        super()._move(add, remove)
        self._shift(add, -2)
        self._shift(remove, 2)

    def _shift(self, edges, step):
        """Add ``step`` times each link at ``edges`` to its other end's entry."""
        single, adjacency = self.single, self.f._adjacency
        for x in edges:
            for other, n in zip(*adjacency.get(x, _NO_LINKS)):
                single[other] += step * n


def check_submodular(f, ground) -> CheckReport:
    """Exhaustively verify f(e | S) >= f(e | T) for all S <= T and e outside T.

    Uses the equivalent single-step form (T = S + e') over a value table,
    f(S + e + e') + f(S) <= f(S + e) + f(S + e') up to ``_leq``'s relative
    tolerance; any violation of the general definition yields a
    single-step one. A violation reads (S, S + e', e), e before e' in
    sorted order. Refuses grounds of more than 14 distinct elements.
    """
    elems, table = _subset_table(getattr(f, "value", f), ground, "submodularity", CHECK_CAP)
    return CheckReport("submodular", _submodular_violations(elems, table))


def check_monotone(f, ground) -> CheckReport:
    """Exhaustively verify f(S) <= f(S + e), up to ``_leq``'s relative
    tolerance, for every S and e outside S."""
    elems, table = _subset_table(getattr(f, "value", f), ground, "monotonicity", CHECK_CAP)
    n = len(elems)
    report = CheckReport("monotone")
    for i in range(n):
        bi = 1 << i
        for mask in range(1 << n):
            if mask & bi:
                continue
            if not _leq(table[mask], table[mask | bi]):
                report.violations.append((_subset(elems, mask), elems[i]))
    return report
