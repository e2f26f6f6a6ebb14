"""Exchange machinery: base partitions and witness-set construction."""

import pytest

from parityls.exchange import (
    exchange_claim_violations,
    exchange_structure,
    greene_magnanti,
)
from parityls.kparity import KParityConstraint, from_intersection
from parityls.matroid import GraphicMatroid, PartitionMatroid, UniformMatroid
from util import SetSystem, exchange_scale_instance, random_feasible_set, rng_for


def is_base(matroid, vertices):
    return matroid.is_independent(vertices) and len(vertices) == matroid.rank()


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


def test_partition_input_validation():
    m = UniformMatroid(4, 2)
    with pytest.raises(ValueError):
        greene_magnanti(m, {0}, {2, 3}, [{0}])  # S not a base
    with pytest.raises(ValueError):
        greene_magnanti(m, {0, 1}, {2, 3}, [{0}])  # parts do not cover S
    with pytest.raises(ValueError):
        greene_magnanti(UniformMatroid(12, 11), set(range(11)), set(range(1, 12)),
                        [set(range(11))])  # |T| beyond the search cap


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


def test_witnesses_support_cap():
    cons = KParityConstraint(
        UniformMatroid(12, 12), [[v] for v in range(12)], 1
    )
    with pytest.raises(ValueError):
        exchange_structure(cons, set(range(6)), set(range(6, 12)))


def test_claims_hold_on_random_pairs():
    checked = 0
    for seed in range(80):
        cons, _ = exchange_scale_instance(seed)
        rng = rng_for(1000 + seed)
        a = random_feasible_set(cons, rng)
        b = random_feasible_set(cons, rng)
        if len(cons.vertices_of(a | b)) > 10:
            continue
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
