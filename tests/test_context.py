"""Independence and feasibility contexts: every family's context must
answer exactly what the whole-set oracle answers for the changed set,
including around dependent bases, and count one query per question."""

from hypothesis import given, settings
from hypothesis import strategies as st

from parityls.kparity import Edge, KParityConstraint
from parityls.matroid import GraphicMatroid
from util import matroids, subsets


def ground_subsets(ground):
    ground = sorted(ground)
    if not ground:
        return st.just(frozenset())
    return st.frozensets(st.sampled_from(ground))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_matroid_context_matches_whole_set_oracle(data):
    m = data.draw(matroids())
    base = data.draw(ground_subsets(m.ground))  # may be dependent
    ctx = m.context(base)
    # several questions per context, so cached removal states are reused
    queries = data.draw(
        st.lists(st.tuples(ground_subsets(m.ground), ground_subsets(m.ground)), max_size=6)
    )
    for add, remove in queries + queries:
        assert ctx.independent_with(add, remove) == m._independent((base - remove) | add)
    assert ctx.independent_with() == m._independent(base)


def test_forest_context_with_parallel_links_and_self_loops_exhaustively():
    m = GraphicMatroid(3, [(0, 1), (0, 1), (2, 2), (1, 2), (0, 2)])
    every = list(subsets(m.ground))
    for base in every:
        ctx = m.context(base)
        for add in every:
            for remove in every:
                assert ctx.independent_with(add, remove) == m._independent(
                    (base - remove) | add
                ), (base, add, remove)


@st.composite
def constraints(draw):
    m = draw(matroids())
    k = draw(st.integers(1, 3))
    order = draw(st.permutations(sorted(m.ground)))
    edges, pos = [], 0
    while pos < len(order):
        size = draw(st.integers(1, k))
        edges.append(Edge(len(edges), frozenset(order[pos : pos + size])))
        pos += size
    return KParityConstraint(m, edges, k)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_constraint_context_matches_feasible_and_counts_each_query(data):
    cons = data.draw(constraints())
    ids = data.draw(ground_subsets(cons.edge_ids))
    ctx = cons.context(ids)
    queries = data.draw(
        st.lists(st.tuples(ground_subsets(cons.edge_ids), ground_subsets(cons.edge_ids)),
                 max_size=6)
    )
    for add, remove in queries:
        calls = cons.feasibility_calls
        answer = ctx.feasible(add, remove)
        assert cons.feasibility_calls == calls + 1
        assert answer == cons.feasible((ids - remove) | add)
        assert cons.feasibility_calls == calls + 2
