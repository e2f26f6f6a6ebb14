"""Baselines, brute force, generators, and the experiment runner."""

import hashlib
import json

import pytest

from parityls import bench
from parityls.bench import (
    GENERATOR_KINDS,
    MODES,
    brute_force_opt,
    generate_instance,
    greedy_baseline,
    run_experiment,
    rows_to_csv,
    seeded_instances,
    solve,
)
from parityls.instances import instance_to_json, load_instance, save_instance
from parityls.kparity import (
    FeasibilityContext,
    KParityConstraint,
    ProductMatroid,
    from_intersection,
)
from parityls.matroid import MatroidContext, PartitionMatroid, UniformMatroid
from parityls.objective import ModularObjective, ValueContext, ValueOracle
from util import (
    WEIGHT_GRID,
    SetSystem,
    context_classes,
    reference_brute_force,
    regridded,
    rng_for,
    solver_instance,
    subsets,
)


def singleton_parity(matroid):
    return KParityConstraint(matroid, [[v] for v in sorted(matroid.ground)], 1)


def greedy_trap_instance():
    """Element 0 blocks 1 in one matroid and 2 in the other; equal weights
    send greedy to 0 alone while {1, 2} is worth twice as much."""
    m1 = PartitionMatroid([[0, 1], [2]], [1, 1])
    m2 = PartitionMatroid([[0, 2], [1]], [1, 1])
    cons = from_intersection([m1, m2])
    return cons, ModularObjective({0: 2, 1: 2, 2: 2})


def test_greedy_top_weights_under_uniform():
    f = ModularObjective({0: 5, 1: 3, 2: 1})
    cons = singleton_parity(UniformMatroid(3, 2))
    assert greedy_baseline(f, cons) == frozenset({0, 1})


def test_greedy_half_of_opt_on_trap():
    cons, f = greedy_trap_instance()
    chosen = greedy_baseline(f, cons)
    assert chosen == frozenset({0})
    best, opt = brute_force_opt(f, cons)
    assert best == frozenset({1, 2}) and opt == 4
    assert f.value(chosen) * 2 == opt


def test_greedy_empty_on_nonpositive():
    f = ModularObjective({0: -1, 1: 0})
    cons = singleton_parity(UniformMatroid(2, 2))
    assert greedy_baseline(f, cons) == frozenset()


def test_greedy_sanity_floor_on_monotone_instances():
    for seed in range(15):
        cons, f = solver_instance(seed, families=("modular", "coverage"), max_edges=8)
        chosen = greedy_baseline(f, cons)
        assert cons.feasible(chosen)
        _, opt = brute_force_opt(f, cons)
        assert (cons.k + 1) * f.value(chosen) >= opt - 1e-9


def test_brute_force_examples():
    f = ModularObjective({0: 5, 1: 3, 2: 1})
    cons = singleton_parity(UniformMatroid(3, 2))
    assert brute_force_opt(f, cons) == (frozenset({0, 1}), 8)

    zero = ModularObjective({0: 0, 1: 0})
    cons2 = singleton_parity(UniformMatroid(2, 2))
    assert brute_force_opt(zero, cons2) == (frozenset(), 0)

    blocked = singleton_parity(UniformMatroid(2, 0))
    f3 = ModularObjective({0: 4, 1: 4}, w0=1.0)
    assert brute_force_opt(f3, blocked) == (frozenset(), 1.0)


def test_brute_force_matches_exhaustive_scan():
    for seed in range(10):
        cons, f = solver_instance(seed, max_edges=7)
        best, opt = brute_force_opt(f, cons)
        truth = max(
            (f.value(s) for s in subsets(cons.edge_ids) if cons.feasible(s)),
        )
        assert opt == truth
        assert cons.feasible(best) and f.value(best) == opt


def brute_force_battery():
    """Seeded random-parity instances of every matroid x objective family
    and k-partition intersections, at most 12 edges each; every one comes
    twice, the second time with weights from WEIGHT_GRID, whose sums tie
    exactly."""
    rng = rng_for(26)

    def grid(n):
        return [WEIGHT_GRID[i] for i in rng.integers(len(WEIGHT_GRID), size=n)]

    for seed in range(3):
        for matroid in ("uniform", "partition", "graphic"):
            for objective in ("modular", "coverage", "cut"):
                params = {"k": 2, "n_vertices": int(rng.integers(12, 25)),
                          "n_edges": int(rng.integers(6, 13)), "matroid": matroid,
                          "objective": objective}
                cons, f = generate_instance("random-parity", params, seed)
                yield cons, f
                yield cons, regridded(f, grid)
        params = {"k": 2, "n_elements": 10, "objective": "coverage"}
        cons, f = generate_instance("k-partition-intersection", params, seed)
        yield cons, f
        yield cons, regridded(f, grid)


def assert_walks_alike(f, cons):
    """brute_force_opt returns the reference walk's set and value (==)
    and asks as many value and feasibility queries."""
    start = f.calls, cons.feasibility_calls
    got = brute_force_opt(f, cons)
    middle = f.calls, cons.feasibility_calls
    want = reference_brute_force(f, cons)
    end = f.calls, cons.feasibility_calls
    assert got == want
    assert [b - a for a, b in zip(start, middle)] == [b - a for a, b in zip(middle, end)]
    return got


def test_brute_force_matches_the_whole_set_reference():
    sizes = set()
    for cons, f in brute_force_battery():
        assert len(cons.edge_ids) <= 12
        sizes.add(len(cons.edge_ids))
        assert_walks_alike(f, cons)
    assert max(sizes) == 12


def test_brute_force_prunes_a_set_system_like_the_reference():
    # {0, 1} and {0, 1, 2} are independent but {0} is not: both walks stop
    # at {0}, so neither reaches the set worth 7
    system = SetSystem(4, [(), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 1, 2)])
    f = ModularObjective({0: 5, 1: 1, 2: 1, 3: 2})
    assert assert_walks_alike(f, singleton_parity(system)) == (frozenset({2, 3}), 3.0)


def test_brute_force_cap():
    cons = singleton_parity(UniformMatroid(21, 2))
    f = ModularObjective({e: 1 for e in range(21)})
    with pytest.raises(ValueError):
        brute_force_opt(f, cons)


def test_generators_produce_valid_instances():
    for kind, params in [
        ("k-partition-intersection", {"k": 2, "n_elements": 4}),
        ("k-uniform-set-packing-via-parity", {"k": 3, "n_universe": 9, "n_edges": 3}),
        ("random-parity", {"k": 3, "n_vertices": 9, "n_edges": 3}),
        ("random-parity", {"k": 2, "matroid": "partition"}),
        ("random-parity", {"k": 2, "matroid": "graphic", "n_nodes": 4}),
    ]:
        cons, f = generate_instance(kind, params, seed=7)
        assert cons.feasible(frozenset())
        seen = set()
        for e in cons.edge_ids:
            verts = cons.edges[e].vertices
            assert 1 <= len(verts) <= cons.k
            assert not (verts & seen)
            seen |= verts
        assert f.value(frozenset()) >= 0


def test_partition_intersection_is_bipartite_matching_shape():
    cons, _ = generate_instance("k-partition-intersection", {"k": 2, "n_elements": 4}, 3)
    assert cons.k == 2
    assert len(cons.edge_ids) == 4
    assert isinstance(cons.matroid, ProductMatroid)
    assert len(cons.matroid.matroids) == 2


def test_same_seed_identical_instance_bytes():
    for kind in ("k-partition-intersection", "random-parity"):
        a = generate_instance(kind, {"objective": "coverage"}, seed=11)
        b = generate_instance(kind, {"objective": "coverage"}, seed=11)
        assert json.dumps(instance_to_json(*a), sort_keys=True) == json.dumps(
            instance_to_json(*b), sort_keys=True
        )
    c = generate_instance("random-parity", {}, seed=12)
    d = generate_instance("random-parity", {}, seed=13)
    assert json.dumps(instance_to_json(*c), sort_keys=True) != json.dumps(
        instance_to_json(*d), sort_keys=True
    )


SET_PACKING = "k-uniform-set-packing-via-parity"


def test_set_packing_instances_are_pinned():
    # values and sha256 digests of sorted-key instance JSON recorded from
    # the generator before edge e's vertices were built as e*k .. e*k + k - 1
    assert instance_to_json(*generate_instance(SET_PACKING, {}, 0)) == {
        "constraint": {
            "k": 3,
            "matroid": {
                "type": "partition",
                "blocks": [[0, 7, 9], [1, 13], [2, 5, 11, 14], [3], [4, 8, 10], [6], [12]],
                "capacities": [1] * 7,
            },
            "edges": [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], [12, 13, 14]],
        },
        "objective": {"modular": {"w0": 0.0, "weights": [[0, 9], [1, 6], [2, 1], [3, 8], [4, 8]]}},
    }
    wide = {"k": 4, "n_universe": 30, "n_edges": 40}
    for params, seed, digest in [
        ({}, 7, "23c564a1a3bfaba8e3c7f9727bb5f6d106b656c17f7f8a55b4651aad76785a86"),
        (wide | {"objective": "coverage"}, 3,
         "5f67246878f054130beb45f2f237f475be9e376ec1572bdb2363902e619553f5"),
        (wide | {"objective": "cut"}, 5,
         "dd92a36d8ea3779839621b563d6465274517594882aafaa252ad80106e40781c"),
    ]:
        text = json.dumps(instance_to_json(*generate_instance(SET_PACKING, params, seed)),
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generator_rejects_bad_input():
    with pytest.raises(ValueError):
        generate_instance("no-such-kind", {}, 1)
    with pytest.raises(ValueError):
        generate_instance("k-partition-intersection", {"k": 0}, 1)
    with pytest.raises(ValueError):
        generate_instance("random-parity", {"objective": "nope"}, 1)
    for seed in (-1, 1.5, None):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            generate_instance("random-parity", {}, seed)
    for params, rule in [
        ({"k": 0}, "need k >= 1, n_vertices >= 0, n_edges >= 0"),
        ({"n_vertices": -1}, "need k >= 1, n_vertices >= 0, n_edges >= 0"),
        ({"n_edges": -2}, "need k >= 1, n_vertices >= 0, n_edges >= 0"),
        ({"matroid": "graphic", "n_nodes": 1}, "need n_nodes >= 2 for a graphic matroid"),
        ({"k": None}, "need k of type int, got None"),
        ({"k": 2.9}, "need k of type int, got 2.9"),
        ({"k": True}, "need k of type int, got True"),
        ({"n_edges": 3.7}, "need n_edges of type int, got 3.7"),
        ({"k": "3"}, "need k of type int, got '3'"),
        ({"link_prob": True}, "need link_prob of type float, got True"),
    ]:
        with pytest.raises(ValueError, match=rule):
            generate_instance("random-parity", params, 1)
    # objective parameters are checked the same way for every kind
    for params, rule in [
        ({"weight_lo": 5, "weight_hi": 1}, "need weight_lo <= weight_hi"),
        ({"objective": "coverage", "weight_hi": 0}, "need weight_hi >= 1 for a coverage objective"),
        ({"objective": "cut", "weight_hi": 0}, "need weight_hi >= 1 for a cut objective"),
        ({"objective": "coverage", "n_items": 0}, "need n_items >= 1 for a coverage objective"),
        ({"objective": "cut", "link_prob": None}, "need link_prob of type float, got None"),
    ]:
        for kind in GENERATOR_KINDS:
            with pytest.raises(ValueError, match=rule):
                generate_instance(kind, params, 1)


def test_generator_rejects_unknown_parameters():
    for kind in GENERATOR_KINDS:
        with pytest.raises(ValueError, match=r"unknown generator parameters \['n_edge', 'objectiv'\]"):
            generate_instance(kind, {"n_edge": 5, "objectiv": "cut", "k": 2}, 0)


def test_generator_checks_objective_and_matroid_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the parameters")

    monkeypatch.setattr(bench.np.random, "PCG64", no_draw)
    for params, rule in [
        ({"objective": "nope"}, "unknown objective family 'nope'"),
        ({"matroid": "nope"}, "unknown matroid kind 'nope'"),
    ]:
        for kind in GENERATOR_KINDS:
            with pytest.raises(ValueError, match=rule):
                generate_instance(kind, params, 1)


def test_link_prob_must_lie_in_the_unit_interval(monkeypatch):
    params = {"objective": "cut", "n_edges": 6, "n_vertices": 12}
    for prob, n_links in [(0.0, 0), (1.0, 15)]:
        _, f = generate_instance("random-parity", params | {"link_prob": prob}, 0)
        assert len(f.links) == n_links
    monkeypatch.setattr(bench.np.random, "PCG64", None)  # checked before any draw
    for prob in (2.0, -0.5):
        with pytest.raises(ValueError, match=rf"need 0 <= link_prob <= 1, got {prob}"):
            generate_instance("random-parity", params | {"link_prob": prob}, 0)


def test_experiment_deterministic_rows_and_csv(tmp_path):
    def batch():
        instances = seeded_instances("random-parity", {"count": 2, "objective": "coverage"}, 21)
        return run_experiment(instances, "hybrid", seed=21, trials=4, epsilon=0.5)

    first = batch()
    second = batch()
    assert len(first["rows"]) == 8

    def stable(rows):
        return [
            {k: v for k, v in row.items() if k != "millis"} for row in rows
        ]

    assert stable(first["rows"]) == stable(second["rows"])
    csv_text = rows_to_csv(first["rows"])
    header = csv_text.splitlines()[0]
    assert header == (
        "instance_id,seed,alpha,solver,k,n_edges,value,opt_value,ratio,"
        "improvements,oracle_calls,millis"
    )
    assert len(csv_text.splitlines()) == 9


def test_experiment_deterministic_instance_is_opt():
    f = ModularObjective({0: 5, 1: 3, 2: 1})
    cons = singleton_parity(UniformMatroid(3, 2))
    result = run_experiment([("inst", cons, f)], "hybrid", seed=1, trials=1000)
    ratios = {row["ratio"] for row in result["rows"]}
    assert ratios == {"1"}
    assert result["summary"][0]["mean_value"] == 8.0
    assert result["summary"][0]["stddev_value"] == 0.0


@pytest.mark.parametrize(
    "name, value, mode",
    [
        ("seed", -1, "hybrid"),
        ("trials", 2.5, "hybrid"),
        ("trials", "3", "hybrid"),
        ("trials", True, "hybrid"),
        ("ell", -1, "hybrid"),
        ("ell", 1.5, "hybrid"),
        ("epsilon", 0, "greedy"),
        ("epsilon", 2.0, "greedy"),
        ("epsilon", float("nan"), "greedy"),
    ],
)
def test_experiment_rejects_a_negative_seed(name, value, mode):
    # every setting fails before the first instance is taken, naming
    # itself, whatever the mode reads: greedy reads no epsilon, hybrid no ell
    def untouched():
        raise AssertionError("an instance was taken")
        yield

    with pytest.raises(ValueError, match=f"^{name} must"):
        run_experiment(untouched(), mode, **{name: value})


def test_experiment_empty_batch_writes_header_only(tmp_path):
    out = tmp_path / "empty"
    run_experiment([], "greedy", out=str(out))
    text = (tmp_path / "empty.csv").read_text()
    assert text.splitlines() == [
        "instance_id,seed,alpha,solver,k,n_edges,value,opt_value,ratio,"
        "improvements,oracle_calls,millis"
    ]


def test_experiment_modes_run(tmp_path):
    for mode in ("greedy", "hybrid", "hybrid-reference", "nonmonotone"):
        instances = seeded_instances("random-parity", {"objective": "cut", "n_edges": 3}, 3)
        result = run_experiment(instances, mode, seed=3, trials=2)
        assert len(result["rows"]) == 2


def test_experiment_validation():
    with pytest.raises(ValueError, match="^trials must be an integer >= 1, got 0$"):
        run_experiment([], "hybrid", trials=0)
    with pytest.raises(ValueError, match="^unknown solver mode 'annealing'$"):
        run_experiment([], "annealing")


def test_seeded_instances_are_the_batch():
    # instance idx is generate_instance's at _trial_seed(seed, idx, 0) on
    # the other parameters, and count is checked with every other parameter
    # before the first draw; generate_instance itself refuses count
    params = {"objective": "cut", "n_edges": 5}
    batch = seeded_instances("random-parity", dict(params, count=3), 8)
    assert [name for name, _, _ in batch] == [f"random-parity-8-{i}" for i in range(3)]
    for idx, (_, cons, f) in enumerate(batch):
        expected = generate_instance("random-parity", params, bench._trial_seed(8, idx, 0))
        assert instance_to_json(cons, f) == instance_to_json(*expected)
    for count, rule in [(0, "need count >= 1"), (-2, "need count >= 1"),
                        (None, "need count of type int, got None"),
                        (1.5, "need count of type int, got 1.5")]:
        with pytest.raises(ValueError, match=f"^{rule}$"):
            seeded_instances("random-parity", {"count": count}, 0)
    with pytest.raises(ValueError, match="unknown generator parameters"):
        seeded_instances("random-parity", {"count": 0, "n_edge": 5}, 0)
    with pytest.raises(ValueError, match=r"^unknown generator parameters \['count'\]"):
        generate_instance("random-parity", dict(params, count=1), 8)


@pytest.mark.parametrize("mode", MODES)
def test_oracle_calls_column_counts_every_query(mode, tmp_path, monkeypatch):
    # graphic + cut with 20 edges: nonmonotone runs several rounds on
    # restricted copies of the constraint, whose queries must count too
    path = tmp_path / "inst.json"
    params = {"k": 2, "n_vertices": 30, "n_edges": 20, "matroid": "graphic",
              "objective": "cut"}
    save_instance(path, *generate_instance("random-parity", params, seed=4))
    (row,) = run_experiment([("inst", *load_instance(path))], mode, seed=9)["rows"]

    counted = [0]

    def counting(method, into=counted):
        def wrapped(*args):
            into[0] += 1
            return method(*args)

        return wrapped

    cons, f = load_instance(path)
    monkeypatch.setattr(ValueOracle, "value", counting(ValueOracle.value))
    monkeypatch.setattr(ValueOracle, "context", counting(ValueOracle.context))
    monkeypatch.setattr(ValueContext, "gain", counting(ValueContext.gain))
    # the unchecked one-edge gain, in every context class that defines it
    for cls in context_classes(ValueContext, "gain_of"):
        monkeypatch.setattr(cls, "gain_of", counting(cls.gain_of))
    # each applied move counts once
    monkeypatch.setattr(ValueContext, "move", counting(ValueContext.move))
    monkeypatch.setattr(KParityConstraint, "feasible", counting(KParityConstraint.feasible))
    monkeypatch.setattr(FeasibilityContext, "feasible", counting(FeasibilityContext.feasible))
    # fits counts when it asks the matroid, by either path, not when it
    # answers a single add it remembers as dependent; a product context
    # asks its slices'
    asked = [0]
    for name in ("independent_with", "fits"):
        for cls in context_classes(MatroidContext, name):
            monkeypatch.setattr(cls, name, counting(getattr(cls, name), into=asked))
    fits = FeasibilityContext.fits

    def counting_fits(self, *args):
        before = asked[0]
        fit = fits(self, *args)
        counted[0] += asked[0] > before
        return fit

    monkeypatch.setattr(FeasibilityContext, "fits", counting_fits)
    solve(mode, f, cons, epsilon=0.5, seed=row["seed"])
    assert row["oracle_calls"] == counted[0] > 0


# per mode, the value and feasibility queries of bench.solve at seed 3,
# summed over instance seeds 0-4 (a fresh instance per mode)
PINNED_QUERIES = [
    (
        "random-parity",
        {"k": 2, "n_vertices": 56, "n_edges": 32, "matroid": "graphic", "objective": "modular"},
        {"greedy": (2098, 160), "hybrid": (892, 518), "hybrid-reference": (892, 518),
         "nonmonotone": (1221, 650)},
    ),
    (
        "k-partition-intersection",
        {"k": 2, "n_elements": 30, "objective": "coverage"},
        {"greedy": (746, 45), "hybrid": (944, 101), "hybrid-reference": (944, 101),
         "nonmonotone": (2457, 615)},
    ),
    (
        "random-parity",
        {"k": 2, "n_vertices": 40, "n_edges": 24, "matroid": "uniform", "rank": 12,
         "objective": "cut"},
        {"greedy": (867, 84), "hybrid": (552, 151), "hybrid-reference": (552, 151),
         "nonmonotone": (1178, 316)},
    ),
]


@pytest.mark.parametrize("kind, params, pinned", PINNED_QUERIES)
def test_every_mode_asks_its_pinned_query_counts(kind, params, pinned):
    got = {}
    for mode in MODES:
        value_calls = feasibility_calls = 0
        for seed in range(5):
            cons, f = generate_instance(kind, params, seed)
            value_0, feasibility_0 = f.calls, cons.feasibility_calls
            solve(mode, f, cons, epsilon=0.5, seed=3)
            value_calls += f.calls - value_0
            feasibility_calls += cons.feasibility_calls - feasibility_0
        got[mode] = (value_calls, feasibility_calls)
    assert got == pinned


def test_solve_rejects_unknown_mode():
    cons, f = generate_instance("random-parity", {}, seed=1)
    with pytest.raises(ValueError):
        solve("annealing", f, cons, epsilon=0.5, seed=0)


@pytest.mark.parametrize(
    "mode, setting, message",
    [
        ("greedy", {"epsilon": 7}, r"^epsilon must lie in \(0, 1\), got 7$"),
        ("greedy", {"seed": -3}, "^seed must be an integer >= 0, got -3$"),
        ("nonmonotone", {"epsilon": 0.0}, r"^epsilon must lie in \(0, 1\), got 0.0$"),
        ("hybrid", {"ell": -5}, "^ell must be an integer >= 0, got -5$"),
        ("hybrid", {"ell": 2.5}, "^ell must be an integer >= 0, got 2.5$"),
        ("hybrid-reference", {"ell": -5}, "^ell must be an integer >= 0, got -5$"),
        ("hybrid-reference", {"ell": 2.5}, "^ell must be an integer >= 0, got 2.5$"),
    ],
)
def test_solve_checks_every_setting_in_every_mode(mode, setting, message):
    # a mode fails on a setting it does not read, before any query
    cons, f = generate_instance("random-parity", {}, seed=1)
    with pytest.raises(ValueError, match=message):
        solve(mode, f, cons, **({"epsilon": 0.5, "seed": 0} | setting))
    assert f.calls == cons.feasibility_calls == 0
