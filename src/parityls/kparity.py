"""Matroid k-parity constraints over edges (disjoint vertex groups).

An edge is a group of at most k matroid vertices; a set of edges is
feasible when the union of their vertex groups is independent in the
underlying matroid. Matroid k-intersection reduces to this form via one
vertex copy per (element, matroid) pair.

``KParityConstraint.context`` answers feasibility queries around one
edge set, the way the solver's scans ask them: what if these edges were
added and those removed. ``move`` moves that set by such a change.
"""

from bisect import insort
from dataclasses import dataclass

from .matroid import EMPTY, MatroidContext, MatroidOracle, _integer
from .objective import _check_move


@dataclass(frozen=True)
class Edge:
    """A constraint-ground element: id plus its disjoint vertex group."""

    id: int
    vertices: frozenset

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        if not self.vertices:
            raise ValueError(f"edge {self.id} has no vertices")


class KParityConstraint:
    """Feasibility oracle for edge sets under a matroid k-parity constraint.

    Edges carry stable integer ids; every deterministic scan elsewhere in
    the package walks them in ascending id order. ``feasibility_calls``
    counts oracle queries, one per ``feasible`` call here or on one of
    its contexts, and is the only mutable state.
    """

    def __init__(self, matroid: MatroidOracle, edges, k: int):
        if not _integer(k) or k < 1:
            raise ValueError(f"k {k!r} is not an integer >= 1")
        edges = [e if isinstance(e, Edge) else Edge(i, e) for i, e in enumerate(edges)]
        seen_ids = set()
        used_vertices = set()
        for e in edges:
            if not _integer(e.id):
                raise ValueError(f"edge id {e.id!r} is not an integer")
            if e.id in seen_ids:
                raise ValueError(f"duplicate edge id {e.id}")
            seen_ids.add(e.id)
            if len(e.vertices) > k:
                raise ValueError(f"edge {e.id} has more than k={k} vertices")
            if not all(map(_integer, e.vertices)):
                raise ValueError(f"edge {e.id} has a vertex id that is not an integer")
            if not e.vertices <= matroid.ground:
                raise ValueError(f"edge {e.id} uses vertices outside the matroid ground")
            if e.vertices & used_vertices:
                raise ValueError(f"edge {e.id} overlaps another edge")
            used_vertices |= e.vertices
        self._bind(matroid, edges, k)

    def _bind(self, matroid, edges, k):
        """Set the state over ``edges``, Edge objects that fit ``matroid``
        and ``k``: ``__init__`` checks them, and ``restrict_ground``
        passes edges of a constraint that did."""
        self.matroid = matroid
        self.k = k
        self.edges = {e.id: e for e in edges}
        self.edge_ids = tuple(sorted(self.edges))
        self.feasibility_calls = 0

    def vertices_of(self, edge_set) -> frozenset:
        """Union of the vertex groups of the edge ids in ``edge_set``.
        Contexts ask about one or two edges at a time; those sizes take
        a short path."""
        edges = self.edges
        try:
            if len(edge_set) == 1:
                for eid in edge_set:
                    return edges[eid].vertices
            if len(edge_set) == 2:
                a, b = edge_set
                return edges[a].vertices | edges[b].vertices
            out = set()
            for eid in edge_set:
                out |= edges[eid].vertices
        except KeyError as exc:
            raise ValueError(f"unknown edge id {exc.args[0]}") from None
        return frozenset(out)

    def feasible(self, edge_set) -> bool:
        """Whether the union of the edges' vertex groups is independent;
        one query. An unknown edge id raises ValueError. The vertices were
        checked against the ground at construction, so the matroid's
        whole-set ``_independent`` answers without a second check."""
        self.feasibility_calls += 1
        return self.matroid._independent(self.vertices_of(edge_set))

    def context(self, edge_set) -> "FeasibilityContext":
        """Feasibility queries around the fixed edge set ``edge_set``;
        see FeasibilityContext."""
        return FeasibilityContext(self, edge_set)

    def restrict_ground(self, keep_ids) -> "KParityConstraint":
        """Same matroid, edge list cut down to ``keep_ids``. The kept
        edges were checked when this constraint was built, so they are
        not checked again, and the new ids are theirs, not the caller's
        values (1.0 or True keep edge 1 as edge id 1)."""
        keep = set(keep_ids)
        edges = self.edges
        unknown = keep - edges.keys()
        if unknown:
            raise ValueError(f"unknown edge ids {sorted(unknown)}")
        out = object.__new__(KParityConstraint)
        out._bind(self.matroid, [edges[i] for i in sorted(keep)], self.k)
        return out


class FeasibilityContext:
    """Feasibility queries around one edge set, its ``base``, of a
    constraint.

    ``feasible(add, remove)`` answers ``cons.feasible((base - remove) |
    add)`` and counts one query on the constraint, like that call.
    ``move(add, remove=())`` moves the base to that set, and refuses a
    move that does not fit it as ``ValueContext.move`` does, before
    anything moves. Binding and moving count no query. Binding builds
    the matroid context of the base's vertices, ``move`` moves it
    (``MatroidContext.moved``), and an unknown edge id raises ValueError
    there, before anything moves.

    ``fits(x, y=None)`` is ``feasible((x,), (y,))``, or ``feasible((x,))``
    when y is None, with the same answer but no check: the hot path of
    the solver's scan and greedy, which ask only about known edges. It
    counts one query, except that ``fits(x)`` remembers each x it finds
    dependent and answers False for it without a query until a move
    removes an edge. That is sound for any caller: while the base only
    grows, base + x stays dependent, since feasibility is down-closed.
    ``fits(x, y)`` and ``feasible`` neither read nor record the memo,
    and ``move`` empties it only once a removing move is done. When x
    lies outside the base and y is None or in it, the edges' vertex sets
    meet the promise of ``MatroidContext.fits``, so ``fits`` asks that
    unchecked path; any other x and y take ``independent_with``.

    ``outside`` lists the constraint's edges outside the base in
    ascending id order. It is built on its first read, and from then on
    ``move`` keeps it so in place; a caller that never reads it, such as
    greedy, never pays for it.
    """

    def __init__(self, cons, base):
        self.cons = cons
        base = frozenset(base)
        # edge vertices were checked against the ground at construction
        self._matroid_context = cons.matroid._context(cons.vertices_of(base))
        self.base = base
        self._outside = None  # built on the first read of ``outside``
        self._dependent = set()  # single adds found dependent since the last removal

    @property
    def outside(self):
        if self._outside is None:
            self._outside = [e for e in self.cons.edge_ids if e not in self.base]
        return self._outside

    def feasible(self, add, remove=()) -> bool:
        cons = self.cons
        cons.feasibility_calls += 1
        return self._matroid_context.independent_with(
            cons.vertices_of(add), cons.vertices_of(remove) if remove else EMPTY
        )

    def fits(self, x, y=None) -> bool:
        if y is None and x in self._dependent:
            return False
        cons = self.cons
        cons.feasibility_calls += 1
        edges = cons.edges
        add = edges[x].vertices
        remove = EMPTY if y is None else edges[y].vertices
        base = self.base
        if x not in base and (y is None or y in base):
            fit = self._matroid_context.fits(add, remove)
        else:
            fit = self._matroid_context.independent_with(add, remove)
        if not fit and y is None:
            self._dependent.add(x)
        return fit

    def move(self, add, remove=()):
        _check_move(self.base, add, remove)
        cons = self.cons
        self._matroid_context = self._matroid_context.moved(
            cons.vertices_of(add), cons.vertices_of(remove) if remove else EMPTY
        )
        self.base = self.base.difference(remove).union(add)
        outside = self._outside
        if outside is not None:
            for x in add:
                outside.remove(x)
            for y in remove:
                insort(outside, y)
        if remove:
            self._dependent.clear()


class ProductMatroid(MatroidOracle):
    """Matroid over element copies (x, i) that is independent iff every
    per-matroid slice {x | (x, i) selected} is independent in matroid i.

    Vertex id encoding: copy i of element x is x * k + i. Every matroid
    must have the dense ground 0..n_elements-1, which construction
    checks; a slice of a vertex set in the product's ground then lies in
    that ground, and ``_independent`` asks each slice matroid's own
    ``_independent`` with no second check.
    """

    def __init__(self, matroids, n_elements):
        self.matroids = list(matroids)
        dense = frozenset(range(n_elements))
        for m in self.matroids:
            if m.ground != dense:
                raise ValueError("matroids must share the dense ground set 0..n-1")
        self.n_elements = n_elements
        self.k = len(self.matroids)
        self._split = {}  # memo of _slices for sets of at most 2k vertices
        super().__init__(range(n_elements * self.k))

    def _independent(self, s):
        for m, sl in zip(self.matroids, self._slices(s)):
            if not m._independent(sl):
                return False
        return True

    def _slices(self, s):
        """Per-matroid slices {x | x * k + i in s}, i < k, as a tuple.
        Sets of at most 2k vertices, the one- and two-edge sets that
        context queries ask about, are split once and then read back."""
        small = len(s) <= 2 * self.k
        if small and (hit := self._split.get(s)) is not None:
            return hit
        slices = [set() for _ in range(self.k)]
        for v in s:
            slices[v % self.k].add(v // self.k)
        out = tuple(frozenset(sl) for sl in slices)
        if small:
            self._split[s] = out
        return out

    def _context(self, s):
        return _ProductContext(self, s)


class _ProductContext(MatroidContext):
    """One context per slice matroid; a query splits its sets into
    slices and asks each slice's context. The slices of a set in the
    product's ground lie in the slice grounds, so binding checks none."""

    def __init__(self, matroid, base):
        super().__init__(matroid, base)
        self.slices = [
            m._context(sl) for m, sl in zip(matroid.matroids, matroid._slices(base))
        ]

    def independent_with(self, add=EMPTY, remove=EMPTY):
        m = self.matroid
        return all(
            ctx.independent_with(a, r)
            for ctx, a, r in zip(self.slices, m._slices(add), m._slices(remove))
        )


def from_intersection(matroids) -> KParityConstraint:
    """Encode simultaneous independence in k matroids as a k-parity constraint.

    All matroids must share one ground set 0..n-1. Element x becomes the
    edge with vertex copies {x*k + i | i < k}; feasibility of an edge set
    then coincides with independence of the selected elements in every
    input matroid.
    """
    matroids = list(matroids)
    if not matroids:
        raise ValueError("need at least one matroid")
    n = matroids[0].ground_size
    k = len(matroids)
    product = ProductMatroid(matroids, n)
    edges = [Edge(x, frozenset(x * k + i for i in range(k))) for x in range(n)]
    return KParityConstraint(product, edges, k)
