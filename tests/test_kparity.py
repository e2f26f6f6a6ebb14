"""k-parity constraints: feasibility, the intersection reduction, and
ground restriction."""

from itertools import combinations

import numpy as np
import pytest

from parityls.kparity import Edge, KParityConstraint, from_intersection
from parityls.matroid import PartitionMatroid, UniformMatroid, axiom_check


def subsets(elems):
    elems = sorted(elems)
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            yield frozenset(combo)


def singleton_parity(matroid):
    return KParityConstraint(matroid, [[v] for v in sorted(matroid.ground)], 1)


def test_empty_set_feasible():
    cons = singleton_parity(UniformMatroid(3, 2))
    assert cons.feasible(frozenset())


def test_singleton_parity_over_uniform():
    cons = singleton_parity(UniformMatroid(3, 2))
    for pair in combinations(range(3), 2):
        assert cons.feasible(pair)
    assert not cons.feasible({0, 1, 2})


def test_unknown_edge_id_rejected():
    cons = singleton_parity(UniformMatroid(3, 2))
    with pytest.raises(ValueError):
        cons.feasible({0, 9})


def test_construction_validation():
    m = UniformMatroid(4, 2)
    with pytest.raises(ValueError):
        KParityConstraint(m, [[0, 1], [1, 2]], 2)  # overlapping edges
    with pytest.raises(ValueError):
        KParityConstraint(m, [[0, 1, 2]], 2)  # edge larger than k
    with pytest.raises(ValueError):
        KParityConstraint(m, [[0], [9]], 1)  # vertex outside matroid ground
    with pytest.raises(ValueError):
        KParityConstraint(m, [Edge(0, [0]), Edge(0, [1])], 1)  # duplicate id


@pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, "1", None])
def test_edge_ids_must_be_integers(bad):
    with pytest.raises(ValueError, match=f"edge id {bad!r} is not an integer"):
        KParityConstraint(UniformMatroid(4, 2), [Edge(bad, [0]), Edge(7, [1])], 1)


def test_numpy_integer_edge_ids_pass():
    cons = KParityConstraint(UniformMatroid(4, 2), [Edge(np.int64(3), [0]), Edge(np.int32(1), [1])], 1)
    assert cons.edge_ids == (1, 3)
    assert cons.feasible({1, 3})


def test_feasibility_is_down_closed():
    cons = KParityConstraint(
        PartitionMatroid([[0, 1, 2], [3, 4, 5]], [2, 1]),
        [[0, 3], [1], [2, 4], [5]],
        2,
    )
    for s in subsets(cons.edge_ids):
        if cons.feasible(s):
            for t in subsets(s):
                assert cons.feasible(t)


def grid_matching_constraint():
    # rows/columns of a 2x2 grid; elements are the 4 cells
    rows = PartitionMatroid([[0, 1], [2, 3]], [1, 1])
    cols = PartitionMatroid([[0, 2], [1, 3]], [1, 1])
    return from_intersection([rows, cols]), rows, cols


def test_intersection_reduction_on_grid():
    cons, rows, cols = grid_matching_constraint()
    # cells: 0=(r1,c1) 1=(r1,c2) 2=(r2,c1) 3=(r2,c2)
    assert cons.feasible({0, 3})
    assert not cons.feasible({0, 1})
    for s in subsets(range(4)):
        expect = rows.is_independent(s) and cols.is_independent(s)
        assert cons.feasible(s) == expect


def test_intersection_single_matroid_is_identity():
    m = PartitionMatroid([[0, 1], [2]], [1, 1])
    cons = from_intersection([m])
    for s in subsets(range(3)):
        assert cons.feasible(s) == m.is_independent(s)


def test_intersection_three_uniform_ranks():
    cons = from_intersection(
        [UniformMatroid(4, 1), UniformMatroid(4, 2), UniformMatroid(4, 3)]
    )
    for s in subsets(range(4)):
        assert cons.feasible(s) == (len(s) <= 1)


def test_intersection_mismatched_grounds_rejected():
    with pytest.raises(ValueError):
        from_intersection([UniformMatroid(3, 1), UniformMatroid(4, 1)])


def test_product_matroid_passes_axioms():
    cons, _, _ = grid_matching_constraint()
    assert axiom_check(cons.matroid).ok
    small = from_intersection([UniformMatroid(3, 1), UniformMatroid(3, 2)])
    assert axiom_check(small.matroid).ok


def test_restrict_ground():
    cons = singleton_parity(UniformMatroid(5, 3))
    full = cons.restrict_ground(cons.edge_ids)
    for s in subsets(cons.edge_ids):
        assert full.feasible(s) == cons.feasible(s)

    empty = cons.restrict_ground([])
    assert empty.feasible(frozenset())
    assert empty.edge_ids == ()

    sub = cons.restrict_ground({1, 2, 4})
    assert sub.edge_ids == (1, 2, 4)
    for s in subsets({1, 2, 4}):
        assert sub.feasible(s) == cons.feasible(s)
    with pytest.raises(ValueError):
        sub.feasible({0})
    with pytest.raises(ValueError):
        cons.restrict_ground({0, 99})


def test_restrict_ground_takes_ids_from_the_kept_edges():
    cons = singleton_parity(UniformMatroid(5, 3))
    sub = cons.restrict_ground([1.0, True, 3, 3])
    assert sub.edge_ids == (1, 3)
    assert all(type(i) is int and sub.edges[i] is cons.edges[i] for i in sub.edges)
    assert (sub.matroid, sub.k, sub.feasibility_calls) == (cons.matroid, cons.k, 0)
    assert sub.feasible({1, 3}) and sub.feasibility_calls == 1 and cons.feasibility_calls == 0
    with pytest.raises(ValueError, match=r"unknown edge ids \[7\]"):
        cons.restrict_ground([1, 7])
