"""Exchange machinery: base partitions and witness-set construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityls.exchange import (
    exchange_claim_violations,
    exchange_structure,
    greene_magnanti,
)
from parityls.kparity import from_intersection
from parityls.matroid import GraphicMatroid, PartitionMatroid, UniformMatroid
from util import (
    SetSystem,
    exchange_scale_instance,
    matroids,
    random_feasible_set,
    rng_for,
)


def is_base(matroid, vertices):
    rank = len(matroid.max_independent_subset(matroid.ground))
    return matroid.is_independent(vertices) and len(vertices) == rank


def test_partition_uniform_matching_sizes():
    m = UniformMatroid(4, 2)
    parts = greene_magnanti(m, {0, 1}, {2, 3}, [{0}, {1}])
    assert parts == [frozenset({2}), frozenset({3})]


def test_partition_identity_exchange():
    m = PartitionMatroid([[0, 1], [2, 3], [4]], [1, 1, 1])
    base = frozenset({0, 2, 4})
    parts = greene_magnanti(m, base, base, [{0}, {2}, {4}])
    assert parts == [frozenset({0}), frozenset({2}), frozenset({4})]


def test_partition_graphic_four_cycle():
    m = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    s, t = frozenset({0, 1, 2}), frozenset({1, 2, 3})
    s_parts = [frozenset({0}), frozenset({1, 2})]
    assigned = greene_magnanti(m, s, t, s_parts)
    # oracle: each one-part swap must stay a base, and the pieces must
    # partition t with matching sizes
    assert frozenset().union(*assigned) == t
    assert sum(len(p) for p in assigned) == len(t)
    for s_i, t_i in zip(s_parts, assigned):
        assert len(t_i) == len(s_i)
        assert is_base(m, (s - s_i) | t_i)


def test_partition_swaps_are_bases_on_random_instances():
    for seed in range(25):
        rng = rng_for(seed)
        n = int(rng.integers(4, 8))
        rank = int(rng.integers(2, min(5, n) + 1))
        m = UniformMatroid(n, rank)
        base_s = frozenset(rng.choice(n, size=rank, replace=False).tolist())
        base_t = frozenset(rng.choice(n, size=rank, replace=False).tolist())
        labels = rng.integers(0, 2, size=rank)
        elems = sorted(base_s)
        s_parts = [
            frozenset(e for e, lab in zip(elems, labels) if lab == b)
            for b in range(2)
        ]
        assigned = greene_magnanti(m, base_s, base_t, s_parts)
        assert frozenset().union(*assigned) == base_t
        for s_i, t_i in zip(s_parts, assigned):
            assert is_base(m, (base_s - s_i) | t_i)


@st.composite
def independent_prefix(draw, m):
    """An independent set of m, grown greedily along a random order and
    listed in the order it grew, so each prefix is independent too."""
    picked = []
    for v in draw(st.permutations(sorted(m.ground))):
        if m.is_independent(picked + [v]):
            picked.append(v)
    return picked


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_partition_swaps_hold_on_random_matroids(data):
    m = data.draw(matroids(max_n=8))
    s, t = data.draw(independent_prefix(m)), data.draw(independent_prefix(m))
    most = min(len(s), len(t))
    size = most - data.draw(st.integers(0, most))  # mostly the largest size
    s, t = frozenset(s[:size]), frozenset(t[:size])  # may overlap
    n_parts = data.draw(st.integers(1 if s else 0, 4))
    labels = data.draw(st.lists(st.integers(0, max(n_parts - 1, 0)),
                                min_size=size, max_size=size))
    s_parts = [frozenset(v for v, lab in zip(sorted(s), labels) if lab == i)
               for i in range(n_parts)]  # some parts may be empty
    pieces = greene_magnanti(m, s, t, s_parts)
    assert len(pieces) == n_parts
    assert frozenset().union(*pieces) == t and sum(map(len, pieces)) == len(t)
    for s_i, t_i in zip(s_parts, pieces):
        assert len(t_i) == len(s_i)
        swapped = (s - s_i) | t_i
        assert len(swapped) == len(s) and m.is_independent(swapped)


def test_partition_input_validation():
    m = UniformMatroid(4, 2)
    with pytest.raises(ValueError):
        greene_magnanti(m, {0}, {2, 3}, [{0}])  # S and T differ in size
    with pytest.raises(ValueError):
        greene_magnanti(m, {0, 1, 2}, {1, 2, 3}, [{0}, {1, 2}])  # not independent
    with pytest.raises(ValueError):
        greene_magnanti(m, {0, 1}, {2, 3}, [{0}])  # parts do not cover S


def test_partition_of_a_large_base_in_one_part():
    m = UniformMatroid(12, 11)
    s, t = frozenset(range(11)), frozenset(range(1, 12))
    assert greene_magnanti(m, s, t, [s]) == [t]


def conflict_instance():
    # two singleton edges competing for one block of a rank-1 partition
    shared = PartitionMatroid([[0, 1]], [1])
    free = PartitionMatroid([[0], [1]], [1, 1])
    return from_intersection([shared, free])


def test_witnesses_on_conflicting_pair():
    cons = conflict_instance()
    witness = exchange_structure(cons, {0}, {1})
    assert witness == {1: frozenset({0})}
    assert exchange_claim_violations(cons, {0}, {1}, witness) == []


def test_witnesses_identity_and_empty():
    cons = conflict_instance()
    assert exchange_structure(cons, {0}, {0}) == {0: frozenset({0})}
    assert exchange_structure(cons, {0}, frozenset()) == {}
    assert exchange_structure(cons, frozenset(), {1}) == {1: frozenset()}


def test_witnesses_infeasible_input_rejected():
    cons = conflict_instance()
    with pytest.raises(ValueError):
        exchange_structure(cons, {0, 1}, {0})


def test_claims_hold_on_random_pairs():
    checked = 0
    for seed in range(80):
        cons, _ = exchange_scale_instance(seed)
        rng = rng_for(1000 + seed)
        a = random_feasible_set(cons, rng)
        b = random_feasible_set(cons, rng)
        witness = exchange_structure(cons, a, b)
        assert exchange_claim_violations(cons, a, b, witness) == []
        checked += 1
    assert checked >= 50


def test_claim_checker_catches_bad_witness():
    cons = conflict_instance()
    bad = {1: frozenset()}  # claims A + {1} feasible, which is false
    assert exchange_claim_violations(cons, {0}, {1}, bad)


def test_partition_search_exhaustion_flags_broken_oracle():
    # not a matroid: {1} cannot augment into {2, 3}, so no valid partition
    # of T exists and the search must fail loudly
    broken = SetSystem(4, [[], [0], [1], [2], [3], [0, 1], [2, 3]])
    with pytest.raises(RuntimeError):
        greene_magnanti(broken, {0, 1}, {2, 3}, [{0}, {1}])
