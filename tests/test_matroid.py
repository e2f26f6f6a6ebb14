"""Matroid oracles: concrete families, the contraction view, axiom checking."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityls.matroid import (
    AXIOM_CHECK_CAP,
    CheckReport,
    ExplicitMatroid,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    axiom_check,
)
from parityls.objective import check_monotone, check_submodular
from util import SetSystem, matroids, reference_axiom_check


def subsets(elems):
    elems = sorted(elems)
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            yield frozenset(combo)


def brute_force_rank(matroid, vertices):
    """Independent oracle for rank: max size over all independent subsets."""
    return max(len(s) for s in subsets(vertices) if matroid.is_independent(s))


def forest_by_union_find(links, picked):
    """Independent cycle check used as the oracle for the graphic family."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for i in picked:
        u, v = links[i]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def test_uniform_is_independent():
    m = UniformMatroid(4, 2)
    assert m.is_independent({0, 1})
    assert not m.is_independent({0, 1, 2})


def test_graphic_triangle_cycle():
    links = [(0, 1), (1, 2), (2, 0)]
    m = GraphicMatroid(3, links)
    for picked in subsets(range(3)):
        assert m.is_independent(picked) == forest_by_union_find(links, picked)
    assert not m.is_independent({0, 1, 2})


def forest_by_count(links, picked):
    """A set of links is a forest iff it has no self-loop and its link
    count is the number of nodes it touches minus its component count
    (components by depth-first search, not union-find)."""
    if any(links[i][0] == links[i][1] for i in picked):
        return False
    adjacent = {}
    for i in picked:
        u, v = links[i]
        adjacent.setdefault(u, []).append(v)
        adjacent.setdefault(v, []).append(u)
    components, seen = 0, set()
    for start in adjacent:
        if start not in seen:
            components += 1
            todo = [start]
            seen.add(start)
            while todo:
                for w in adjacent[todo.pop()]:
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
    return len(picked) == len(adjacent) - components


@st.composite
def multigraphs(draw):
    """0-7 nodes and up to 8 links among them; few nodes make self-loops,
    parallel links and cycles common."""
    n_nodes = draw(st.integers(0, 7))
    if not n_nodes:
        return 0, []
    node = st.integers(0, n_nodes - 1)
    return n_nodes, draw(st.lists(st.tuples(node, node), max_size=8))


@settings(max_examples=300, deadline=None)
@given(graph=multigraphs())
def test_graphic_whole_set_check_matches_the_forest_count(graph):
    n_nodes, links = graph
    m = GraphicMatroid(n_nodes, links)
    for picked in subsets(range(len(links))):
        assert m.is_independent(picked) == forest_by_count(links, picked), (links, picked)


def test_graphic_whole_set_check_at_the_rank_bound():
    assert GraphicMatroid(0, []).is_independent(())
    # a spanning tree of n - 1 links is independent, and n links never are
    links = [(0, 1), (1, 2), (1, 3), (3, 4), (4, 0), (2, 2)]
    m = GraphicMatroid(5, links)
    assert m.is_independent({0, 1, 2, 3})
    for picked in combinations(range(len(links)), 5):
        assert not m.is_independent(picked), picked


def test_out_of_range_vertex_rejected():
    m = UniformMatroid(4, 2)
    with pytest.raises(ValueError):
        m.is_independent({0, 7})


def test_rank_examples():
    assert len(UniformMatroid(4, 2).max_independent_subset({0, 1, 2})) == 2
    part = PartitionMatroid([[0, 1], [2, 3]], [1, 1])
    assert len(part.max_independent_subset({0, 1, 2})) == brute_force_rank(part, {0, 1, 2}) == 2
    assert len(part.max_independent_subset(frozenset())) == 0


def test_rank_matches_brute_force_everywhere():
    matroids = [
        UniformMatroid(5, 3),
        PartitionMatroid([[0, 1, 2], [3, 4]], [2, 1]),
        GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    ]
    for m in matroids:
        for s in subsets(m.ground):
            assert len(m.max_independent_subset(s)) == brute_force_rank(m, s)


def test_contract_single_element_of_uniform():
    contracted = UniformMatroid(4, 2).contract({0})
    # definition oracle: T independent iff T + basis independent in the base
    base = UniformMatroid(4, 2)
    for s in subsets({1, 2, 3}):
        assert contracted.is_independent(s) == base.is_independent(s | {0})
    assert len(contracted.max_independent_subset(contracted.ground)) == 1


def test_contract_empty_is_identity():
    m = PartitionMatroid([[0, 1], [2, 3]], [1, 1])
    same = m.contract(frozenset())
    for s in subsets(m.ground):
        assert same.is_independent(s) == m.is_independent(s)


def test_contract_graphic_path():
    m = GraphicMatroid(3, [(0, 1), (1, 2)]).contract({0})
    assert m.is_independent({1})


def test_contract_agrees_for_every_maximal_basis():
    m = GraphicMatroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
    removed = frozenset({0, 1, 2})
    default = m.contract(removed)
    maximal_bases = [
        s
        for s in subsets(removed)
        if m.is_independent(s)
        and all(not m.is_independent(s | {v}) for v in removed - s)
    ]
    assert len(maximal_bases) > 1
    for basis in maximal_bases:
        # definition oracle: T independent iff T + basis independent in the base
        for s in subsets(m.ground - removed):
            assert default.is_independent(s) == m.is_independent(s | basis)


def test_axiom_check_passes_for_families():
    for m in [
        UniformMatroid(4, 2),
        PartitionMatroid([[0, 1, 2], [3, 4]], [1, 2]),
        GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        ExplicitMatroid(3, [[], [0], [1], [2], [0, 1], [0, 2], [1, 2]]),
    ]:
        assert axiom_check(m) == CheckReport("matroid-axioms", [])


def test_axiom_check_same_size_antichain_passes():
    m = SetSystem(2, [[], [0], [1]])
    assert axiom_check(m).ok


def test_axiom_check_flags_down_closedness():
    m = SetSystem(2, [[], [0, 1]])
    assert axiom_check(m).violations == [("down-closed", (0, 1), 0), ("down-closed", (0, 1), 1)]


def test_axiom_check_flags_augmentation():
    # {0} cannot grow from {1, 2}: r({0, 1, 2}) + r({0}) = 3 > r({0, 1}) + r({0, 2}) = 2
    m = SetSystem(3, [[], [0], [1], [2], [1, 2]])
    report = axiom_check(m)
    assert not report.ok
    assert report.violations == [("rank-submodular", (0,), (0, 2), 1)]


def test_axiom_check_refuses_large_grounds():
    with pytest.raises(ValueError):
        axiom_check(UniformMatroid(AXIOM_CHECK_CAP + 1, 2))


def test_axiom_check_flags_dependent_empty_set():
    assert axiom_check(SetSystem(1, [[0]])).violations == [
        ("empty set dependent",), ("down-closed", (0,), 0)
    ]


@st.composite
def set_families(draw, max_n=7):
    """A SetSystem over at most ``max_n`` elements: a few random sets,
    closed downward or not, with the empty set added or dropped."""
    n = draw(st.integers(0, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    family = {frozenset(v for v in range(n) if mask >> v & 1) for mask in masks}
    if draw(st.booleans()):
        family = {t for s in family for t in subsets(s)}
    family = family | {frozenset()} if draw(st.booleans()) else family - {frozenset()}
    return SetSystem(n, family)


@settings(max_examples=300, deadline=None)
@given(m=st.one_of(set_families(), matroids(max_n=7).filter(lambda m: m.ground_size <= 7)))
def test_axiom_check_agrees_with_augmentation(m):
    # the same verdict and the same first two passes as the augmentation
    # check; the rank violations, only on a down-closed family holding the
    # empty set, are check_submodular's on its rank
    report, reference = axiom_check(m), reference_axiom_check(m)
    assert report.ok == reference.ok
    passes = [v for v in report.violations if v[0] != "rank-submodular"]
    assert passes == [v for v in reference.violations if v[0] != "augmentation"]
    expected = []
    if not passes:
        rank = check_submodular(lambda s: brute_force_rank(m, s), m.ground)
        expected = [("rank-submodular", *v) for v in rank.violations]
    assert report.violations[len(passes):] == expected


def test_explicit_constructor_validates():
    with pytest.raises(ValueError, match=r"not a matroid: 2 violations, first \('down-closed'"):
        ExplicitMatroid(2, [[], [0, 1]])
    for n in (17, 25):
        with pytest.raises(ValueError, match="explicit matroid capped at ground size 16"):
            ExplicitMatroid(n, [[]])


@pytest.mark.parametrize(
    "n, sets, message",
    [
        (True, [[]], "explicit ground True is not an integer >= 0"),
        (-1, [[]], "explicit ground -1 is not an integer >= 0"),
        (2.0, [[]], r"explicit ground 2\.0 is not an integer >= 0"),
        (2, [[], [1.0]], r"explicit independent sets: vertex id 1\.0 is not an integer"),
        (2, [[], [True]], "explicit independent sets: vertex id True is not an integer"),
        (3, [[], [2.5]], r"explicit independent sets: vertex id 2\.5 is not an integer"),
        (2, [[], [2]], r"explicit independent sets: vertex id 2 is not in \[0, 2\)"),
    ],
)
def test_explicit_fields_must_be_integers(n, sets, message):
    with pytest.raises(ValueError, match=message):
        ExplicitMatroid(n, sets)


def test_derived_views_pass_axiom_check():
    m = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert axiom_check(m.contract({0})).ok
    assert axiom_check(m.contract({0, 1, 4})).ok  # a triangle
    assert axiom_check(m.contract({3}).contract({4})).ok


def test_rank_is_monotone_submodular():
    m = PartitionMatroid([[0, 1, 2], [3, 4]], [2, 1])
    assert check_submodular(lambda s: len(m.max_independent_subset(s)), m.ground).ok
    assert check_monotone(lambda s: len(m.max_independent_subset(s)), m.ground).ok


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    rank=st.integers(min_value=0, max_value=7),
    labels=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=7),
    caps=st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
)
def test_family_axioms_hold(n, rank, labels, caps):
    assert axiom_check(UniformMatroid(n, min(rank, n))).ok
    blocks = [
        [i for i, lab in enumerate(labels) if lab == b] for b in range(3)
    ]
    pairs = [(blk, cap) for blk, cap in zip(blocks, caps) if blk]
    m = PartitionMatroid([b for b, _ in pairs], [c for _, c in pairs])
    assert axiom_check(m).ok
