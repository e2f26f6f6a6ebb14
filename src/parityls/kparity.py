"""Matroid k-parity constraints over edges (disjoint vertex groups).

An edge is a group of at most k matroid vertices; a set of edges is
feasible when the union of their vertex groups is independent in the
underlying matroid. Matroid k-intersection reduces to this form via one
vertex copy per (element, matroid) pair.
"""

from dataclasses import dataclass

from .matroid import MatroidOracle


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
    counts oracle queries and is the only mutable state.
    """

    def __init__(self, matroid: MatroidOracle, edges, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        edges = [e if isinstance(e, Edge) else Edge(i, e) for i, e in enumerate(edges)]
        seen_ids = set()
        used_vertices = set()
        for e in edges:
            if e.id in seen_ids:
                raise ValueError(f"duplicate edge id {e.id}")
            seen_ids.add(e.id)
            if len(e.vertices) > k:
                raise ValueError(f"edge {e.id} has more than k={k} vertices")
            if not e.vertices <= matroid.ground:
                raise ValueError(f"edge {e.id} uses vertices outside the matroid ground")
            if e.vertices & used_vertices:
                raise ValueError(f"edge {e.id} overlaps another edge")
            used_vertices |= e.vertices
        self.matroid = matroid
        self.k = k
        self.edges = {e.id: e for e in edges}
        self.edge_ids = tuple(sorted(self.edges))
        self.feasibility_calls = 0

    def vertices_of(self, edge_set) -> frozenset:
        out = set()
        for eid in edge_set:
            if eid not in self.edges:
                raise ValueError(f"unknown edge id {eid}")
            out |= self.edges[eid].vertices
        return frozenset(out)

    def feasible(self, edge_set) -> bool:
        self.feasibility_calls += 1
        return self.matroid.is_independent(self.vertices_of(edge_set))

    def restrict_ground(self, keep_ids) -> "KParityConstraint":
        """Same matroid, edge list cut down to ``keep_ids``."""
        keep = set(keep_ids)
        unknown = keep - set(self.edges)
        if unknown:
            raise ValueError(f"unknown edge ids {sorted(unknown)}")
        return KParityConstraint(
            self.matroid, [self.edges[i] for i in sorted(keep)], self.k
        )


class ProductMatroid(MatroidOracle):
    """Matroid over element copies (x, i) that is independent iff every
    per-matroid slice {x | (x, i) selected} is independent in matroid i.

    Vertex id encoding: copy i of element x is x * k + i.
    """

    def __init__(self, matroids, n_elements):
        self.matroids = list(matroids)
        self.n_elements = n_elements
        self.k = len(self.matroids)
        super().__init__(range(n_elements * self.k))

    def _independent(self, s):
        slices = [set() for _ in range(self.k)]
        for v in s:
            slices[v % self.k].add(v // self.k)
        return all(
            m.is_independent(sl) for m, sl in zip(self.matroids, slices)
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
    for m in matroids:
        if m.ground_size != n or m.ground != frozenset(range(n)):
            raise ValueError("matroids must share the dense ground set 0..n-1")
    k = len(matroids)
    product = ProductMatroid(matroids, n)
    edges = [Edge(x, frozenset(x * k + i for i in range(k))) for x in range(n)]
    return KParityConstraint(product, edges, k)
