"""JSON round-trips for matroids, constraints, objectives, and traces."""

import json
from pathlib import Path

import pytest

from parityls.bench import generate_instance
from parityls.instances import (
    constraint_from_json,
    constraint_to_json,
    instance_from_json,
    instance_to_json,
    load_instance,
    load_trace,
    matroid_from_json,
    matroid_to_json,
    save_instance,
    save_trace,
    trace_from_json,
    trace_to_json,
)
from parityls.kparity import KParityConstraint, ProductMatroid, from_intersection
from parityls.matroid import (
    ExplicitMatroid,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
)
from parityls.analysis import prune_down_monotone, verify_run
from parityls.bench import brute_force_opt
from parityls.objective import CutObjective, ModularObjective
from parityls.solver import SolverConfig, run_efficient
from util import solver_instance, subsets

# written by `parityls solve --mode hybrid --seed 3 --out` in the older trace
# format, which also stored shift, final, insertion_order and each level's
# threshold and selected content
DATA = Path(__file__).parent / "data"


def test_matroid_round_trip():
    for m in [
        UniformMatroid(5, 2),
        PartitionMatroid([[0, 1], [2, 3]], [1, 2]),
        GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)]),
        ExplicitMatroid(3, [[], [0], [1], [2], [0, 1], [0, 2], [1, 2]]),
    ]:
        back = matroid_from_json(matroid_to_json(m))
        assert back.ground == m.ground
        for s in subsets(m.ground):
            assert back.is_independent(s) == m.is_independent(s)


def test_explicit_round_trip_validates():
    with pytest.raises(ValueError):
        matroid_from_json({"type": "explicit", "ground": 2, "independent": [[], [0, 1]]})
    with pytest.raises(ValueError):
        matroid_from_json({"type": "fancy"})


@pytest.mark.parametrize(
    "matroid, message",
    [
        ({"ground": True, "independent": [[]]}, "explicit ground True is not an integer >= 0"),
        ({"ground": 2, "independent": [[], [1.0]]}, r"vertex id 1\.0 is not an integer"),
    ],
)
def test_explicit_instance_fields_must_be_integers(tmp_path, matroid, message):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({
        "constraint": {"k": 1, "matroid": dict(matroid, type="explicit"), "edges": [[0]]},
        "objective": {"cut": {"weights": []}},
    }))
    with pytest.raises(ValueError, match=message):
        load_instance(path)


def test_constraint_round_trip_parity_and_intersection():
    for seed in range(6):
        cons, f = solver_instance(seed, max_edges=6)
        back = constraint_from_json(constraint_to_json(cons))
        assert back.k == cons.k
        assert back.edge_ids == cons.edge_ids
        for s in subsets(cons.edge_ids):
            assert back.feasible(s) == cons.feasible(s)


def test_restricted_constraint_keeps_edge_ids():
    cons, _ = solver_instance(2, max_edges=6)
    keep = cons.edge_ids[1:]
    sub = cons.restrict_ground(keep)
    payload = constraint_to_json(sub)
    back = constraint_from_json(payload)
    assert back.edge_ids == tuple(sorted(keep))
    for s in subsets(keep):
        assert back.feasible(s) == sub.feasible(s)


def test_restricted_intersection_round_trip_keeps_edge_ids():
    matroids = [PartitionMatroid([[0, 1], [2, 3, 4]], [1, 2]), UniformMatroid(5, 2)]
    cons = from_intersection(matroids)
    # dense ids: only the matroids are written
    assert constraint_to_json(cons) == {
        "intersection": [matroid_to_json(m) for m in matroids]
    }
    sub = cons.restrict_ground([1, 3, 4])
    f = ModularObjective({1: 2.0, 3: 1.0, 4: 5.0})
    payload = instance_to_json(sub, f)
    assert payload["constraint"]["edge_ids"] == [1, 3, 4]
    assert "intersection" in payload["constraint"]
    back, _ = instance_from_json(payload)
    assert back.k == 2
    assert back.edge_ids == (1, 3, 4)
    for s in subsets(sub.edge_ids):
        assert back.feasible(s) == sub.feasible(s)


def test_product_matroid_outside_the_encoding_cannot_be_saved():
    product = ProductMatroid([UniformMatroid(3, 1), UniformMatroid(3, 2)], 3)
    cons = KParityConstraint(product, [[0, 3], [1], [2]], 2)
    with pytest.raises(ValueError, match="cannot serialize"):
        constraint_to_json(cons)


def _two_edge_instance(objective):
    constraint = {"k": 1, "matroid": {"type": "uniform", "ground": 2, "rank": 1},
                  "edges": [[0], [1]]}
    return {"constraint": constraint, "objective": objective}


@pytest.mark.parametrize(
    "objective, message",
    [
        ({"modular": {"weights": [[0, 1.0]]}},
         "objective modular weights: missing edge ids [1]"),
        ({"modular": {"weights": [[0, 1.0], [1, 2.0], [5, 1.0]]}},
         "objective modular weights: unknown edge ids [5]"),
        ({"coverage": {"item_weights": [1.0], "covers": [[1, [0]]]}},
         "objective coverage covers: missing edge ids [0]"),
        ({"cut": {"weights": [[0, 3, 1.0], [1, 2, 1.0]]}},
         "objective cut weights: unknown edge ids [2, 3]"),
        ({"modular": {"weights": [[0, 5.0], [1, 3.0], [0, 1.0]]}},
         "objective modular weights: duplicate edge ids [0]"),
        ({"coverage": {"item_weights": [1.0], "covers": [[1, [0]], [0, [0]], [1, []]]}},
         "objective coverage covers: duplicate edge ids [1]"),
    ],
)
def test_objective_ids_must_match_the_constraint(objective, message):
    with pytest.raises(ValueError) as info:
        instance_from_json(_two_edge_instance(objective))
    assert str(info.value) == message


_INTERSECTION = {"intersection": [{"type": "uniform", "ground": 3, "rank": 2},
                                   {"type": "uniform", "ground": 3, "rank": 1}]}
_PLAIN = {"k": 1, "matroid": {"type": "uniform", "ground": 2, "rank": 1}, "edges": [[0], [1]]}


@pytest.mark.parametrize(
    "constraint, message",
    [
        (dict(_INTERSECTION, edge_ids=[0, 0, 1]), "constraint edge_ids: duplicate edge ids [0]"),
        (dict(_INTERSECTION, edge_ids=[True, 0]),
         "constraint edge_ids: edge id True is not an integer"),
        (dict(_INTERSECTION, edge_ids=[1.0, 0]),
         "constraint edge_ids: edge id 1.0 is not an integer"),
        (dict(_INTERSECTION, edge_ids=["1", 0]),
         "constraint edge_ids: edge id '1' is not an integer"),
        (dict(_PLAIN, edge_ids=[True, 0]), "edge id True is not an integer"),
        (dict(_PLAIN, edge_ids=[1.0, 0]), "edge id 1.0 is not an integer"),
        (dict(_PLAIN, edge_ids=[1.5, 0]), "edge id 1.5 is not an integer"),
        (dict(_PLAIN, edge_ids=["1", 0]), "edge id '1' is not an integer"),
        (dict(_PLAIN, edge_ids=[3, 3]), "duplicate edge id 3"),
    ],
)
def test_constraint_edge_ids_are_distinct_integers(constraint, message):
    with pytest.raises(ValueError) as info:
        constraint_from_json(constraint)
    assert str(info.value) == message


def test_cut_may_leave_edges_unlinked():
    cons, f = instance_from_json(_two_edge_instance({"cut": {"weights": []}}))
    assert cons.edge_ids == (0, 1)
    assert isinstance(f, CutObjective)


def test_cut_links_may_repeat():
    # parallel links are merged, so a repeated link adds its weight
    objective = {"cut": {"weights": [[0, 1, 1.0], [0, 1, 2.0]]}}
    _, f = instance_from_json(_two_edge_instance(objective))
    assert f.value({0}) == 3.0


def test_instance_file_round_trip(tmp_path):
    for family in ("modular", "coverage", "cut"):
        cons, f = generate_instance("random-parity", {"objective": family}, seed=9)
        path = tmp_path / f"{family}.json"
        save_instance(path, cons, f)
        cons2, f2 = load_instance(path)
        for s in subsets(cons.edge_ids):
            assert cons2.feasible(s) == cons.feasible(s)
            assert f2.value(s) == f.value(s)
        assert type(f2) is type(f) and f2.linear == f.linear


def test_trace_round_trip(tmp_path):
    cons, f = solver_instance(5)
    out, trace = run_efficient(f, cons, SolverConfig(epsilon=0.5, seed=5))
    payload = trace_to_json(trace)
    assert set(payload) == {
        "scale", "alpha", "epsilon", "iterations", "value_calls", "feasibility_calls"
    }
    assert all(set(rec) == {"index", "improvements"} for rec in payload["iterations"])
    back = trace_from_json(payload)
    assert back == trace
    # trace equality ignores the query counts, so check them on their own
    assert (back.value_calls, back.feasibility_calls) == (
        trace.value_calls, trace.feasibility_calls
    )

    path = tmp_path / "trace.json"
    save_trace(path, trace)
    assert load_trace(path).applied_sequence() == trace.applied_sequence()


def test_trace_equality_repr_and_json_ignore_the_run_context(tmp_path):
    # a driver leaves its value context, on the final set, on the trace;
    # a trace without it compares, prints and saves the same
    cons, f = solver_instance(5)
    out, trace = run_efficient(f, cons, SolverConfig(epsilon=0.5, seed=5))
    held = trace.context
    assert held is not None and held.f is f and held.base == out == trace.final
    assert held.value == f.value(out)
    saved, bare = tmp_path / "held.json", tmp_path / "bare.json"
    save_trace(saved, trace)
    text = repr(trace)
    loaded = load_trace(saved)
    assert loaded.context is None and loaded == trace
    trace.context = None
    save_trace(bare, trace)
    assert saved.read_bytes() == bare.read_bytes()
    assert repr(trace) == text and "context" not in text


def test_modular_w0_survives_round_trip():
    f = ModularObjective({0: 2, 3: -1}, w0=1.5)
    from parityls.instances import objective_from_json, objective_to_json

    back = objective_from_json(objective_to_json(f))
    assert back.w0 == 1.5
    assert back.value({0, 3}) == 2.5


def legacy_trace():
    return json.loads((DATA / "trace.json").read_text())


def test_legacy_trace_replays_to_a_fresh_run():
    cons, f = load_instance(DATA / "instance.json")
    out, fresh = run_efficient(f, cons, SolverConfig(epsilon=0.5, seed=3))
    loaded = load_trace(DATA / "trace.json")
    assert loaded.applied_sequence() == fresh.applied_sequence()
    assert loaded.final == fresh.final == out
    assert loaded.insertion_order == fresh.insertion_order
    assert [rec.threshold for rec in loaded.iterations] == [
        rec.threshold for rec in fresh.iterations
    ]
    assert loaded == fresh
    # query counts are observations, not answers: the fixture keeps the
    # counts of the run that wrote it, and a fresh run asks fewer: its
    # next-level rules read the last scan's gains, it binds one value
    # context per run instead of one per scan, and its two-for-one scan
    # skips the pair checks that a dead swap with a pair member already
    # answers (feasibility is down-closed). Its value count covers the
    # whole run: 7 of the 28 are the binding of the value context and the
    # 6 singleton gains that draw the scale, which earlier counts left out.
    # Its scans ask each singleton gain once per chosen set (the run's gain
    # memo), so the first scan of a level asks none. After level 3 adds
    # edge 2, the next scan resumes its singles past it, so it skips one
    # single check of an edge before 2 that was already dependent; the
    # gains of those edges are still asked, as the scan goes on to swaps.
    # No single add found dependent is asked again until a move removes
    # an edge: level 4's first scan skips edge 0, which the pick before
    # level 4 found dependent, and the final pick skips edge 2, which that
    # scan found dependent before it added edge 4
    assert (loaded.value_calls, loaded.feasibility_calls) == (52, 29)
    assert (fresh.value_calls, fresh.feasibility_calls) == (28, 11)
    # the fixture exercises a swap, so the insertion order is not sorted
    assert loaded.insertion_order != sorted(loaded.final)
    reference = prune_down_monotone(f, brute_force_opt(f, cons)[0])
    assert verify_run(loaded, f, cons, reference).ok


@pytest.mark.parametrize(
    "key, tamper",
    [
        ("shift", lambda t: t.update(shift=t["shift"] * 2)),
        ("final", lambda t: t["final"].pop()),
        ("insertion_order", lambda t: t["insertion_order"].reverse()),
        ("threshold", lambda t: t["iterations"][1].update(threshold=1.0)),
        ("selected", lambda t: t["iterations"][2].update(selected=[2])),
    ],
)
def test_tampered_legacy_key_is_rejected(key, tamper):
    obj = legacy_trace()
    tamper(obj)
    with pytest.raises(ValueError, match=f"trace key '{key}'"):
        trace_from_json(obj)


@pytest.mark.parametrize(
    "draw, message",
    [
        ({"epsilon": 1}, r"epsilon 1 does not lie in \(0, 1\)"),
        ({"epsilon": 1e9}, r"epsilon 1000000000.0 does not lie in \(0, 1\)"),
        ({"epsilon": -3}, r"epsilon -3 does not lie in \(0, 1\)"),
        ({"epsilon": float("nan")}, r"epsilon nan does not lie in \(0, 1\)"),
        ({"scale": 1e308}, "top threshold of inf, which is not finite"),
        ({"scale": float("nan")}, "top threshold of nan, which is not finite"),
        ({"scale": -5}, "the empty run has no levels"),
        ({"scale": 0}, "the empty run has no levels"),
        ({"scale": 10**400}, "^scale is too large for a float$"),
    ],
)
def test_bad_draw_is_rejected(draw, message):
    obj = dict(trace_to_json(trace_from_json(legacy_trace())), **draw)
    with pytest.raises(ValueError, match=message):
        trace_from_json(obj)


def test_empty_run_loads_without_levels():
    obj = dict(trace_to_json(trace_from_json(legacy_trace())), scale=-5, iterations=[])
    trace = trace_from_json(obj)
    assert trace.iterations == [] and trace.final == frozenset()


@pytest.mark.parametrize(
    "level, move, change, message",
    [
        (1, None, {"index": 1}, "level index 1 does not exceed"),
        (0, None, {"index": -1}, "non-negative"),
        (1, 1, {"removed": [3]}, "removes edge 3"),
        (2, 0, {"added": [3]}, "adds edge 3"),
        (1, 1, {"added": [2], "removed": []}, "adds edge 2"),
    ],
)
def test_inconsistent_moves_are_rejected(level, move, change, message):
    obj = trace_to_json(trace_from_json(legacy_trace()))
    rec = obj["iterations"][level]
    (rec if move is None else rec["improvements"][move]).update(change)
    with pytest.raises(ValueError, match=message):
        trace_from_json(obj)
