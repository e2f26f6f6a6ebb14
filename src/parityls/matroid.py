"""Matroid independence oracles, concrete families, and a contraction view.

Vertices are integer ids (dense 0..n-1 for the concrete families). A
matroid is exposed purely through its independence predicate; maximal
independent subsets and the contraction view are built on top of that
predicate, so they work for any oracle, including other views.

A context (``MatroidOracle.context``) answers independence queries
around one fixed vertex set: each family keeps what it needs about that
set, so a query costs about the size of the change, not of the set.

Every check of the package reports a ``CheckReport`` and allows floats
the relative tolerance ``REL_TOL`` (``_leq``). The desk checks read a
table of every subset of a small ground (``_subset_table``); the axiom
check runs the submodularity loop (``_submodular_violations``) on the
rank table of a down-closed family with the empty set (Whitney; Oxley).
"""

import numbers
from dataclasses import dataclass, field

AXIOM_CHECK_CAP = 16
REL_TOL = 1e-9


def _integer(x):
    """True for an integer, numpy integers included; False for a bool.
    A plain int takes the short path, since the ABC check is slow."""
    return type(x) is int or not isinstance(x, bool) and isinstance(x, numbers.Integral)


def _leq(lhs, rhs):
    """lhs <= rhs up to the relative tolerance every check allows for rounding.
    Below 1 the slack is absolute, and the checks need that: a difference
    of two whole-set values, each rounded once, can be far off a tiny
    threshold. A cut run on grid weights inserts an edge of exact gain
    about 2e-16 at threshold 1.6e-16 whose weight f(S + e) - f(S), from
    two values near 5.7 one ulp apart, is 8.9e-16, 2.7 times the bracket's
    2 * threshold; an exact or purely relative comparison fails that run."""
    return lhs <= rhs + REL_TOL * (1.0 + abs(lhs) + abs(rhs))


@dataclass
class CheckReport:
    """Outcome of one check: its name and its violations, each a tuple
    that says where the checked property fails; ``ok`` when none does."""

    name: str
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def _subset(elems, mask):
    """The elements of ``elems`` whose bits are set in ``mask``, as a tuple."""
    return tuple(elems[i] for i in range(len(elems)) if mask >> i & 1)


def _subset_table(fn, ground, check, cap):
    """Sorted distinct ground plus ``fn`` of every subset (a frozenset), by
    bit mask; more than ``cap`` distinct elements is a ValueError."""
    elems = sorted(set(ground))
    if len(elems) > cap:
        raise ValueError(f"{check} check capped at {cap} elements")
    return elems, [fn(frozenset(_subset(elems, mask))) for mask in range(1 << len(elems))]


def _submodular_violations(elems, table):
    """``check_submodular``'s violations (S, S + e', e) of a table by bit mask.
    An exact ``<=`` decides most steps, and ``_leq`` only those it fails."""
    bits = [1 << i for i in range(len(elems))]
    return [
        (_subset(elems, mask), _subset(elems, mask | bj), elems[i])
        for i, bi in enumerate(bits)
        for bj in bits[i + 1:]  # the form is symmetric in e, e'
        for mask in range(len(table))
        if not (mask & bi or mask & bj)
        and not (
            (lhs := table[mask | bi | bj] + table[mask])
            <= (rhs := table[mask | bi] + table[mask | bj])
            or _leq(lhs, rhs)
        )
    ]


class MatroidOracle:
    """Independence oracle over a fixed ground set of integer vertex ids.

    Subclasses implement ``_independent`` for validated inputs. Answers
    never change after construction; ``ProductMatroid`` memoizes slices.
    """

    def __init__(self, ground):
        self.ground = frozenset(ground)

    @property
    def ground_size(self):
        return len(self.ground)

    def is_independent(self, vertices) -> bool:
        return self._independent(self._in_ground(vertices))

    def _independent(self, s: frozenset) -> bool:
        raise NotImplementedError

    def _in_ground(self, vertices) -> frozenset:
        """``vertices`` as a frozenset; ValueError if any lies outside the ground."""
        s = frozenset(vertices)
        if not s <= self.ground:
            raise ValueError(f"vertices {sorted(s - self.ground)} outside ground set")
        return s

    def context(self, base) -> "MatroidContext":
        """Independence queries around the fixed vertex set ``base``;
        see MatroidContext."""
        return self._context(self._in_ground(base))

    def _context(self, s: frozenset) -> "MatroidContext":
        return MatroidContext(self, s)

    def contract(self, removed) -> "ContractedMatroid":
        return ContractedMatroid(self, removed)

    def max_independent_subset(self, vertices) -> frozenset:
        """Greedy (ascending id) maximal independent subset of ``vertices``;
        its size is the rank of ``vertices``."""
        picked = frozenset()
        for v in sorted(self._in_ground(vertices)):
            grown = picked | {v}
            if self._independent(grown):
                picked = grown
        return picked


class UniformMatroid(MatroidOracle):
    """All sets of size at most ``rank_cap`` over ground 0..n-1."""

    def __init__(self, n, rank_cap):
        if not (_integer(n) and _integer(rank_cap)):
            raise ValueError(f"uniform ground {n!r} and rank {rank_cap!r} must be integers")
        if not 0 <= rank_cap <= n:
            raise ValueError("rank cap must lie in [0, n]")
        super().__init__(range(n))
        self.rank_cap = rank_cap

    def _independent(self, s):
        return len(s) <= self.rank_cap

    def _context(self, s):
        return _SizeContext(self, s)


class PartitionMatroid(MatroidOracle):
    """At most ``capacities[i]`` vertices from each block; blocks cover 0..n-1.

    ``_block_of[v]`` is the index of v's block, a list over the dense
    ground that ``_independent`` and the block context read.
    """

    def __init__(self, blocks, capacities):
        blocks = [frozenset(b) for b in blocks]
        if len(blocks) != len(capacities):
            raise ValueError("one capacity per block required")
        ground = frozenset().union(*blocks) if blocks else frozenset()
        total = sum(len(b) for b in blocks)
        if total != len(ground):
            raise ValueError("blocks must be disjoint")
        if not all(map(_integer, ground)):
            raise ValueError("partition blocks: vertex ids must be integers")
        if ground and ground != frozenset(range(max(ground) + 1)):
            raise ValueError("blocks must cover a dense id range 0..n-1")
        for c in capacities:
            if not _integer(c) or c < 0:
                raise ValueError(f"partition capacity {c!r} is not an integer >= 0")
        super().__init__(ground)
        self.blocks = blocks
        self.capacities = list(capacities)
        self._block_of = [0] * len(ground)
        for idx, b in enumerate(blocks):
            for v in b:
                self._block_of[v] = idx

    def _independent(self, s):
        block_of, capacities = self._block_of, self.capacities
        counts = {}
        for v in s:
            idx = block_of[v]
            n = counts[idx] = counts.get(idx, 0) + 1
            if n > capacities[idx]:
                return False
        return True

    def _context(self, s):
        return _BlockContext(self, s)


class GraphicMatroid(MatroidOracle):
    """Forests of an undirected multigraph; matroid vertices are graph edges.

    ``links`` is a list of (u, v) node pairs; matroid vertex i refers to
    links[i]. Self-loops are dependent singletons.
    """

    def __init__(self, n_nodes, links):
        if not _integer(n_nodes) or n_nodes < 0:
            raise ValueError(f"graphic nodes {n_nodes!r} is not an integer >= 0")
        links = [tuple(l) for l in links]
        for u, v in links:
            if not (_integer(u) and _integer(v) and 0 <= u < n_nodes and 0 <= v < n_nodes):
                raise ValueError(
                    f"graphic link ({u!r}, {v!r}) needs integer endpoints in [0, {n_nodes})"
                )
        super().__init__(range(len(links)))
        self.n_nodes = n_nodes
        self.links = links

    def _independent(self, s):
        return self._forest(s) is not None

    def _forest(self, s):
        """Union-find parent array of the nodes after joining the links
        in ``s``, or None when one of them closes a cycle. A forest has
        fewer links than nodes, so a non-empty ``s`` of at least
        ``n_nodes`` links is None before anything is built. Each find
        halves its path in place; the root of u goes under the root of v."""
        n_nodes = self.n_nodes
        if len(s) >= n_nodes and s:
            return None
        parent = list(range(n_nodes))
        links = self.links
        for i in s:
            u, v = links[i]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]  # binds parent[u], then u
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                return None
            parent[u] = v
        return parent

    def _context(self, s):
        parent = self._forest(s)
        if parent is None:
            return MatroidContext(self, s)
        return _ForestContext(self, s, _flatten(parent))


class ExplicitMatroid(MatroidOracle):
    """Matroid given by the full list of independent sets over 0..n-1:
    ``n`` is an integer in [0, 16] (16 is the axiom check's cap) and each
    vertex id an integer in [0, n); construction validates the matroid
    axioms."""

    def __init__(self, n, independent_sets):
        if not _integer(n) or n < 0:
            raise ValueError(f"explicit ground {n!r} is not an integer >= 0")
        if n > AXIOM_CHECK_CAP:
            raise ValueError(f"explicit matroid capped at ground size {AXIOM_CHECK_CAP}")
        independent_sets = [list(s) for s in independent_sets]
        for v in (v for s in independent_sets for v in s):
            if not _integer(v):
                raise ValueError(f"explicit independent sets: vertex id {v!r} is not an integer")
            if not 0 <= v < n:
                raise ValueError(f"explicit independent sets: vertex id {v} is not in [0, {n})")
        super().__init__(range(n))
        self.independent_sets = frozenset(frozenset(s) for s in independent_sets)
        if violations := axiom_check(self).violations:
            raise ValueError(f"not a matroid: {len(violations)} violations, first {violations[0]}")

    def _independent(self, s):
        return s in self.independent_sets


class ContractedMatroid(MatroidOracle):
    """View of ``base`` after contracting ``removed``.

    A set T is independent iff T together with a fixed maximal
    independent subset of ``removed`` is independent in the base. The
    resulting matroid does not depend on which maximal subset is chosen;
    this one is picked greedily in ascending id order.
    """

    def __init__(self, base, removed):
        removed = frozenset(removed)
        if not removed <= base.ground:
            raise ValueError("contraction set outside base ground")
        super().__init__(base.ground - removed)
        self.base = base
        self.removed = removed
        self.basis = removed if base._independent(removed) else base.max_independent_subset(removed)

    def _independent(self, s):
        return self.base._independent(s | self.basis)


EMPTY = frozenset()


class MatroidContext:
    """Independence queries around one fixed vertex set ``base``.

    ``independent_with(add, remove)`` answers whether
    ``(base - remove) | add`` is independent. ``add`` and ``remove`` are
    frozensets of ground vertices and are not checked, as for
    ``_independent``. This generic form evaluates that set; the
    concrete families keep what they need about ``base`` instead.
    ``moved(add, remove)`` is the context of that set.

    ``fits(add, remove=EMPTY)`` gives the same answer on the caller's
    promise that ``add`` is disjoint from the base and ``remove`` lies
    inside it, disjoint from ``add``: the unchecked path of one-edge
    adds and swaps (``FeasibilityContext.fits``). This form asks
    ``independent_with``; a family may skip the set algebra that the
    promise makes idle.
    """

    def __init__(self, matroid, base):
        self.matroid = matroid
        self.base = base

    def independent_with(self, add=EMPTY, remove=EMPTY):
        return self.matroid._independent((self.base - remove) | add)

    def fits(self, add, remove=EMPTY):
        return self.independent_with(add, remove)

    def moved(self, add=EMPTY, remove=EMPTY) -> "MatroidContext":
        """The context of ``(base - remove) | add``; this form builds it anew."""
        return self.matroid._context((self.base - remove) | add)


class _SizeContext(MatroidContext):
    """Uniform matroids: at most ``rank_cap`` vertices."""

    def independent_with(self, add=EMPTY, remove=EMPTY):
        base = self.base
        size = len(base) + len(add - base) - (len((remove & base) - add) if remove else 0)
        return size <= self.matroid.rank_cap


class _BlockContext(MatroidContext):
    """Partition matroids: the room the base leaves in each block
    (negative when the base is over capacity there), and the blocks
    where it is over."""

    def __init__(self, matroid, base):
        super().__init__(matroid, base)
        room = self.room = list(matroid.capacities)
        over = self.over = []
        block_of = matroid._block_of
        for v in base:
            b = block_of[v]
            room[b] -= 1
            if room[b] == -1:
                over.append(b)

    def independent_with(self, add=EMPTY, remove=EMPTY):
        base, block_of = self.base, self.matroid._block_of
        use = {}  # net vertices the query puts into each block it touches
        for v in add - base:
            b = block_of[v]
            use[b] = use.get(b, 0) + 1
        if remove:
            for v in (remove & base) - add:
                b = block_of[v]
                use[b] = use.get(b, 0) - 1
        for b in self.over:
            if b not in use:
                return False
        room = self.room
        for b, n in use.items():
            if n > room[b]:
                return False
        return True


class _ForestContext(MatroidContext):
    """Graphic matroids whose base is a forest: the component label of
    every node in the base forest, and, built on first use, in the
    forest ``base - removed`` for each removed set asked about, keyed by
    that set. An addition is independent iff its links join distinct
    components without closing a cycle among themselves. ``fits`` reads
    the labels under the caller's own ``remove``, an edge's vertex set
    whose hash Python keeps, and joins ``add`` on them as it is;
    ``independent_with`` and ``moved`` first cut their sets to that
    form. ``moved`` starts from the labels of ``base - removed`` and
    merges the components each added link joins."""

    def __init__(self, matroid, base, labels):
        super().__init__(matroid, base)
        self.labels = {EMPTY: labels}

    def _labels(self, removed):
        """The labels of the forest ``base - removed``, for ``removed`` in the base."""
        labels = self.labels.get(removed)
        if labels is None:
            labels = self.labels[removed] = _flatten(self.matroid._forest(self.base - removed))
        return labels

    def _join(self, labels, added):
        """Component merges of the links ``added`` on ``labels``, each
        label to the one it joins, or None when a link closes a cycle."""
        links = self.matroid.links
        joined = {}
        for v in added:
            u, w = links[v]
            a, b = labels[u], labels[w]
            while a in joined:
                a = joined[a]
            while b in joined:
                b = joined[b]
            if a == b:
                return None
            joined[a] = b
        return joined

    def fits(self, add, remove=EMPTY):
        return self._join(self._labels(remove), add) is not None

    def independent_with(self, add=EMPTY, remove=EMPTY):
        base = self.base
        return self.fits(add - base, (remove & base) - add if remove else EMPTY)

    def moved(self, add=EMPTY, remove=EMPTY):
        base = self.base
        added = add - base
        removed = (remove & base) - add if remove else EMPTY
        labels = self._labels(removed)
        joined = self._join(labels, added)
        base = (base - removed) | added
        if joined is None:  # a dependent base: the generic context
            return MatroidContext(self.matroid, base)
        if joined:
            for a in joined:
                b = joined[a]
                while b in joined:
                    b = joined[b]
                joined[a] = b
            labels = [joined.get(a, a) for a in labels]
        return _ForestContext(self.matroid, base, labels)


def _flatten(parent):
    """Point every node of a union-find parent array at its root, in
    place; the roots then label the components."""
    for x, r in enumerate(parent):
        while parent[r] != r:
            r = parent[r]
        parent[x] = r
    return parent


def axiom_check(matroid) -> CheckReport:
    """Exhaustively verify the matroid axioms. One ascending pass checks
    that the empty set is independent and independence closed downward,
    and fills the rank table: a set's size if independent, else the
    largest rank of the set minus one element. Only if both hold is the
    rank checked for submodularity, which then decides it (Whitney 1935;
    Oxley, *Matroid Theory*, 2011). Tags: ("empty set dependent",),
    ("down-closed", S, v) for an independent S with S - v dependent, and
    ("rank-submodular", S, S + e', e) as in ``check_submodular``.
    Refuses grounds larger than 16 vertices."""
    elems, independent = _subset_table(
        matroid.is_independent, matroid.ground, "axiom", AXIOM_CHECK_CAP
    )
    n = len(elems)
    report = CheckReport("matroid-axioms")
    if not independent[0]:
        report.violations.append(("empty set dependent",))
    rank = [0] * len(independent)
    for mask, ok in enumerate(independent):
        if ok:
            rank[mask] = bin(mask).count("1")
            for i in range(n):
                if mask >> i & 1 and not independent[mask ^ 1 << i]:
                    report.violations.append(("down-closed", _subset(elems, mask), elems[i]))
        elif mask:
            rank[mask] = max(rank[mask ^ 1 << i] for i in range(n) if mask >> i & 1)
    if not report.violations:
        report.violations = [("rank-submodular", *v) for v in _submodular_violations(elems, rank)]
    return report
