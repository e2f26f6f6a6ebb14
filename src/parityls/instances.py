"""JSON encoding of matroids, constraints, objectives, and run traces.

Instance files look like::

    {"constraint": {"k": 2, "matroid": {...}, "edges": [[vertex ids], ...]},
     "objective": {"modular": {"w0": 0.0, "weights": [[edge id, w], ...]}}}

or, for an intersection-of-matroids constraint over elements 0..n-1::

    {"constraint": {"intersection": [{...matroid...}, ...]},
     "objective": {...}}

Edges listed positionally get ids 0, 1, ...; a parallel "edge_ids" list
overrides that (needed after ground restrictions). Next to
"intersection", an "edge_ids" list names the elements a restriction kept.
Loading rejects an "edge_ids" list that repeats an id, lists one that
is not an integer or does not give exactly one id per edge, an objective
that names an edge id the constraint lacks, and a modular or coverage
objective that leaves an edge out or lists one twice (cut links may
repeat: parallel links are merged).
"""

import json
from dataclasses import asdict

from .kparity import Edge, KParityConstraint, ProductMatroid, from_intersection
from .matroid import (
    ExplicitMatroid,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    _integer,
)
from .objective import CoverageObjective, CutObjective, ModularObjective
from .solver import Improvement, RunTrace


def matroid_to_json(m):
    if isinstance(m, UniformMatroid):
        return {"type": "uniform", "ground": m.ground_size, "rank": m.rank_cap}
    if isinstance(m, PartitionMatroid):
        return {
            "type": "partition",
            "blocks": [sorted(b) for b in m.blocks],
            "capacities": list(m.capacities),
        }
    if isinstance(m, GraphicMatroid):
        return {"type": "graphic", "nodes": m.n_nodes, "links": [list(l) for l in m.links]}
    if isinstance(m, ExplicitMatroid):
        return {
            "type": "explicit",
            "ground": m.ground_size,
            "independent": sorted(sorted(s) for s in m.independent_sets),
        }
    raise ValueError(f"cannot serialize matroid of type {type(m).__name__}")


def matroid_from_json(obj):
    kind = obj["type"]
    if kind == "uniform":
        return UniformMatroid(obj["ground"], obj["rank"])
    if kind == "partition":
        return PartitionMatroid(obj["blocks"], obj["capacities"])
    if kind == "graphic":
        return GraphicMatroid(obj["nodes"], obj["links"])
    if kind == "explicit":
        return ExplicitMatroid(obj["ground"], obj["independent"])
    raise ValueError(f"unknown matroid type {kind!r}")


def _is_intersection(cons):
    """True when ``cons`` has from_intersection's encoding: a product
    matroid, and each edge x made of the vertex copies {x*k + i | i < k}."""
    m = cons.matroid
    return (
        isinstance(m, ProductMatroid)
        and cons.k == m.k
        and all(
            cons.edges[x].vertices == {x * m.k + i for i in range(m.k)}
            for x in cons.edge_ids
        )
    )


def constraint_to_json(cons):
    ids = list(cons.edge_ids)
    if _is_intersection(cons):
        out = {"intersection": [matroid_to_json(m) for m in cons.matroid.matroids]}
        dense = range(cons.matroid.n_elements)
    else:
        out = {
            "k": cons.k,
            "matroid": matroid_to_json(cons.matroid),
            "edges": [sorted(cons.edges[i].vertices) for i in ids],
        }
        dense = range(len(ids))
    if ids != list(dense):
        out["edge_ids"] = ids
    return out


def _kept_ids(obj):
    """The "edge_ids" list next to "intersection"; ValueError names the
    field when an id is not an integer (bools are not) or is listed
    twice. The other form's ids are checked by KParityConstraint."""
    ids = obj["edge_ids"]
    for i in ids:
        if not _integer(i):
            raise ValueError(f"constraint edge_ids: edge id {i!r} is not an integer")
    if len(set(ids)) < len(ids):
        twice = {i for i in ids if ids.count(i) > 1}
        raise ValueError(f"constraint edge_ids: duplicate edge ids {sorted(twice)}")
    return ids


def constraint_from_json(obj):
    if "intersection" in obj:
        cons = from_intersection([matroid_from_json(m) for m in obj["intersection"]])
        return cons.restrict_ground(_kept_ids(obj)) if "edge_ids" in obj else cons
    matroid = matroid_from_json(obj["matroid"])
    vertex_lists = obj["edges"]
    ids = obj.get("edge_ids", list(range(len(vertex_lists))))
    if len(ids) != len(vertex_lists):
        raise ValueError(f"constraint edge_ids: {len(ids)} ids for {len(vertex_lists)} edges")
    edges = [Edge(i, vs) for i, vs in zip(ids, vertex_lists)]
    return KParityConstraint(matroid, edges, obj["k"])


def objective_to_json(f):
    if isinstance(f, ModularObjective):
        return {
            "modular": {
                "w0": f.w0,
                "weights": [[e, w] for e, w in sorted(f.weights.items())],
            }
        }
    if isinstance(f, CoverageObjective):
        return {
            "coverage": {
                "item_weights": list(f.item_weights),
                "covers": [[e, sorted(items)] for e, items in sorted(f.edge_items.items())],
            }
        }
    if isinstance(f, CutObjective):
        return {"cut": {"weights": [[u, v, w] for u, v, w in f.links]}}
    raise ValueError(f"cannot serialize objective of type {type(f).__name__}")


def _by_edge(field, pairs):
    """{edge id: entry} from [edge id, entry] pairs; ValueError names the
    ids listed more than once."""
    out, twice = {}, set()
    for e, entry in pairs:
        if e in out:
            twice.add(e)
        out[e] = entry
    if twice:
        raise ValueError(f"objective {field}: duplicate edge ids {sorted(twice)}")
    return out


def objective_from_json(obj):
    if "modular" in obj:
        spec = obj["modular"]
        return ModularObjective(_by_edge("modular weights", spec["weights"]), spec.get("w0", 0.0))
    if "coverage" in obj:
        spec = obj["coverage"]
        return CoverageObjective(spec["item_weights"], _by_edge("coverage covers", spec["covers"]))
    if "cut" in obj:
        return CutObjective(obj["cut"]["weights"])
    raise ValueError("unknown objective family")


def instance_to_json(cons, f):
    return {"constraint": constraint_to_json(cons), "objective": objective_to_json(f)}


def instance_from_json(obj):
    """Rebuild (constraint, objective); raises ValueError when the
    objective names an edge id the constraint lacks, or when a modular
    or coverage objective leaves one of the constraint's edges out."""
    cons = constraint_from_json(obj["constraint"])
    f = objective_from_json(obj["objective"])
    if isinstance(f, ModularObjective):
        field, named, total = "modular weights", set(f.weights), True
    elif isinstance(f, CoverageObjective):
        field, named, total = "coverage covers", set(f.edge_items), True
    else:
        field, total = "cut weights", False
        named = {x for u, v, _ in f.links for x in (u, v)}
    ids = set(cons.edge_ids)
    if named - ids:
        raise ValueError(f"objective {field}: unknown edge ids {sorted(named - ids)}")
    if total and ids - named:
        raise ValueError(f"objective {field}: missing edge ids {sorted(ids - named)}")
    return cons, f


def save_instance(path, cons, f):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json(cons, f), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path):
    with open(path, encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))


# what a trace stores besides its levels; everything else is derived
_TRACE_KEYS = ("scale", "alpha", "epsilon", "value_calls", "feasibility_calls")


def trace_to_json(trace):
    out = {key: getattr(trace, key) for key in _TRACE_KEYS}
    out["iterations"] = [
        {"index": rec.index, "improvements": [asdict(imp) for imp in rec.improvements]}
        for rec in trace.iterations
    ]
    return out


def trace_from_json(obj):
    """Rebuild a trace by replaying each level's moves (``add_level``).
    Keys of the older format hold derived values (``shift``, ``final``,
    ``insertion_order``, per-level ``threshold`` and ``selected``); each
    one present must equal the derived value, or ValueError names it."""
    trace = RunTrace(**{key: obj[key] for key in _TRACE_KEYS})
    derived = []
    for rec in obj["iterations"]:
        raw = rec["improvements"]
        trace.add_level(
            rec["index"],
            [Improvement(m["kind"], tuple(m["added"]), tuple(m["removed"])) for m in raw],
        )
        level = trace.iterations[-1]
        derived += [(rec, "threshold", level.threshold), (rec, "selected", list(level.selected))]
    derived += [
        (obj, "shift", 2.0 ** trace.alpha),
        (obj, "final", sorted(trace.final)),
        (obj, "insertion_order", trace.insertion_order),
    ]
    for source, key, value in derived:
        if key in source and source[key] != value:
            raise ValueError(f"trace key {key!r} is {source[key]}, but the replay gives {value}")
    return trace


def save_trace(path, trace):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_to_json(trace), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_trace(path):
    with open(path, encoding="utf-8") as fh:
        return trace_from_json(json.load(fh))
