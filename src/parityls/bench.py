"""Baselines, brute-force optimum, seeded instance generators, and the
experiment runner backing the CLI.
"""

import csv
import io
import json
import time

import numpy as np

from .kparity import Edge, KParityConstraint, from_intersection
from .matroid import GraphicMatroid, PartitionMatroid, UniformMatroid, _integer
from .nonmonotone import RepetitionsConfig, repetitions_with_trace
from .objective import CoverageObjective, CutObjective, ModularObjective
from .solver import (
    RunTrace,
    _require_count,
    best_feasible,
    run_efficient,
    run_reference,
)

BRUTE_FORCE_CAP = 20
OPT_COLUMN_CAP = 12

MODES = ("greedy", "hybrid", "hybrid-reference", "nonmonotone")

# numeric generator parameters and the type each is read as; "count" is
# the batch size bench reads, not a generator's
_NUMERIC_PARAMS = {"link_prob": float, "w0": float} | dict.fromkeys((
    "k", "n_elements", "n_universe", "n_edges", "n_vertices", "rank", "n_nodes",
    "weight_lo", "weight_hi", "n_items", "count"), int)

GENERATOR_KINDS = (
    "k-partition-intersection",
    "k-uniform-set-packing-via-parity",
    "random-parity",
)

CSV_COLUMNS = (
    "instance_id",
    "seed",
    "alpha",
    "solver",
    "k",
    "n_edges",
    "value",
    "opt_value",
    "ratio",
    "improvements",
    "oracle_calls",
    "millis",
)


def greedy_baseline(f, cons):
    """Repeatedly add ``solver.best_feasible``'s pick among the marginals
    of the outside edges: the feasible edge with the largest positive one
    (ties to the smaller id), until none remains. One value and one
    feasibility context, moved by each added edge, answer the queries.

    Later rounds ask no gain of what an earlier one settled: the edges
    ranked ahead of a pick were found dependent, and stay so as the set
    only grows, and an edge whose gain was <= 0 stays so too, since f
    must be submodular and its gains only shrink. A non-submodular f can
    make greedy miss a pick, never return an infeasible set."""
    vals = f.context(frozenset())
    fits = cons.context(frozenset())
    gain = {x: vals.gain_of(x) for x in cons.edge_ids}
    while (e := best_feasible(fits, gain)) is not None:
        vals.move((e,))
        fits.move((e,))
        top = gain[e]
        # the edges ranked after the pick, less those with a settled gain <= 0
        left = [d for d, g in gain.items() if (g < top or g == top and d > e) and g > 0]
        gain = {x: vals.gain_of(x) for x in left}
    return vals.base


def brute_force_opt(f, cons):
    """Exhaustive maximum of f over feasible sets, ties resolved to the
    lexicographically first set of sorted ids. Depth-first over prefixes
    with down-closedness pruning; capped at 20 edges.

    Each candidate counts one feasibility query and each feasible set
    one value query, as ``cons.feasible`` and ``f.value`` would, but the
    walk carries the prefix's vertex union down and asks the matroid's
    and f's whole-set oracles directly (the edge vertices were checked
    against the ground when ``cons`` was built). It uses no context, so
    it stays independent of the code the solver runs."""
    ids = cons.edge_ids
    if len(ids) > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_CAP} edges")
    verts = [cons.edges[e].vertices for e in ids]
    ones = [frozenset((e,)) for e in ids]
    independent = cons.matroid._independent
    value_of = f._value

    best_set = frozenset()
    best_value = f.value(best_set)

    def walk(prefix, used, start):
        nonlocal best_set, best_value
        for pos in range(start, len(ids)):
            union = used | verts[pos]
            cons.feasibility_calls += 1
            if not independent(union):
                continue
            grown = prefix | ones[pos]
            f.calls += 1
            value = value_of(grown)
            if value > best_value:
                best_set, best_value = grown, value
            walk(grown, union, pos + 1)

    walk(frozenset(), frozenset(), 0)
    return best_set, best_value


def generate_instance(kind, params, seed):
    """Deterministic seeded instance: returns (constraint, objective).

    Kinds:
      k-partition-intersection       - k random partition matroids over a
                                       common element set, reduced to parity;
      k-uniform-set-packing-via-parity - vertex-disjoint selection of random
                                       k-element subsets of a universe;
      random-parity                  - random disjoint edges of size <= k
                                       over a uniform, partition or graphic
                                       matroid.
    Objectives come from the modular/coverage/cut families with integer
    weights, so all solver comparisons are exact. A seed that is not an
    integer >= 0, a bad parameter, or one no generator reads, is a
    ValueError naming its rule, raised before any random draw, so valid
    parameters draw as they would without the checks.
    """
    params = _checked_params(kind, params, seed)
    if "count" in params:  # only seeded_instances reads it
        raise ValueError("unknown generator parameters ['count'] (count sizes a bench batch)")
    rng = np.random.Generator(np.random.PCG64(seed))

    if kind == "k-partition-intersection":
        cons = _gen_partition_intersection(params, rng)
    elif kind == "k-uniform-set-packing-via-parity":
        cons = _gen_set_packing(params, rng)
    else:
        cons = _gen_random_parity(params, rng)

    f = _gen_objective(params, cons, rng)
    return cons, f


def _checked_params(kind, params, seed):
    """``generate_instance``'s checks of its arguments; returns a copy of
    ``params`` with each numeric parameter cast to its type."""
    _require_count("seed", seed)
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    params = dict(params or {})
    if unknown := sorted(params.keys() - _NUMERIC_PARAMS.keys() - {"objective", "matroid"}):
        raise ValueError(f"unknown generator parameters {unknown}")
    for name, cast in _NUMERIC_PARAMS.items():
        if name in params:
            got = params[name]
            try:
                value = cast(got)
                if isinstance(got, bool) or value != got:
                    raise TypeError  # a bool, or a value the cast would change
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"need {name} of type {cast.__name__}, got {got!r}") from None
            params[name] = value
    if not 0 <= params.get("link_prob", 0.5) <= 1:
        raise ValueError(f"need 0 <= link_prob <= 1, got {params['link_prob']}")
    family = params.get("objective", "modular")
    if family not in ("modular", "coverage", "cut"):
        raise ValueError(f"unknown objective family {family!r}")
    if params.get("matroid", "uniform") not in ("uniform", "partition", "graphic"):
        raise ValueError(f"unknown matroid kind {params['matroid']!r}")
    hi = params.get("weight_hi", 10)
    if family == "modular" and params.get("weight_lo", 1) > hi:
        raise ValueError("need weight_lo <= weight_hi")
    if family in ("coverage", "cut") and hi < 1:
        raise ValueError(f"need weight_hi >= 1 for a {family} objective")
    if family == "coverage" and params.get("n_items", 1) < 1:
        raise ValueError("need n_items >= 1 for a coverage objective")
    return params


def seeded_instances(kind, params, seed):
    """The batch ``bench --generator`` runs, as a list of (id, cons, f):
    params["count"] instances (default 1), instance idx drawn by
    ``generate_instance`` at seed ``_trial_seed(seed, idx, 0)`` and named
    ``{kind}-{seed}-{idx}``. Every parameter is checked before the first
    draw, and a count below 1 is a ValueError too."""
    params = _checked_params(kind, params, seed)
    count = params.pop("count", 1)
    if count < 1:
        raise ValueError("need count >= 1")
    return [
        (f"{kind}-{seed}-{idx}", *generate_instance(kind, params, _trial_seed(seed, idx, 0)))
        for idx in range(count)
    ]


def _gen_partition_intersection(params, rng):
    k = params.get("k", 2)
    n = params.get("n_elements", 6)
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n_elements >= 1")
    return from_intersection([_random_partition_matroid(n, rng) for _ in range(k)])


def _random_partition_matroid(n, rng):
    """Random labels of 0..n-1 into blocks (empty ones dropped, so the
    blocks still cover 0..n-1), each with capacity 1 or 2."""
    n_blocks = int(rng.integers(2, max(3, n // 2 + 1)))
    labels = rng.integers(0, n_blocks, size=n)
    blocks = [[x for x in range(n) if labels[x] == b] for b in range(n_blocks)]
    blocks = [b for b in blocks if b]
    caps = [int(rng.integers(1, 3)) for _ in blocks]
    return PartitionMatroid(blocks, caps)


def _gen_set_packing(params, rng):
    k = params.get("k", 3)
    n_universe = params.get("n_universe", 8)
    n_edges = params.get("n_edges", 5)
    if k < 1 or n_universe < k or n_edges < 1:
        raise ValueError("need k >= 1, n_universe >= k, n_edges >= 1")
    hyperedges = [
        sorted(rng.choice(n_universe, size=k, replace=False).tolist())
        for _ in range(n_edges)
    ]
    # one matroid vertex per (hyperedge, universe point) incidence, so edge
    # e's vertices are e*k .. e*k + k - 1; one block per universe point with
    # capacity 1 enforces disjointness
    blocks = {}
    for e, members in enumerate(hyperedges):
        for j, u in enumerate(members):
            blocks.setdefault(u, []).append(e * k + j)
    matroid = PartitionMatroid(list(blocks.values()), [1] * len(blocks))
    edges = [Edge(e, frozenset(range(e * k, e * k + k))) for e in range(n_edges)]
    return KParityConstraint(matroid, edges, k)


def _gen_random_parity(params, rng):
    k = params.get("k", 2)
    n_vertices = params.get("n_vertices", 8)
    n_edges = params.get("n_edges", 4)
    matroid_kind = params.get("matroid", "uniform")
    if k < 1 or n_vertices < 0 or n_edges < 0:
        raise ValueError("need k >= 1, n_vertices >= 0, n_edges >= 0")
    order = rng.permutation(n_vertices).tolist()
    edges = []
    pos = 0
    while len(edges) < n_edges and pos < n_vertices:
        size = int(rng.integers(1, k + 1))
        size = min(size, n_vertices - pos)
        edges.append(Edge(len(edges), frozenset(order[pos : pos + size])))
        pos += size
    if matroid_kind == "uniform":
        rank = int(params.get("rank", rng.integers(1, max(2, n_vertices // 2 + 1))))
        matroid = UniformMatroid(n_vertices, min(rank, n_vertices))
    elif matroid_kind == "partition":
        matroid = _random_partition_matroid(n_vertices, rng)
    else:  # graphic: one graph link per matroid vertex; rank is at most nodes - 1
        n_nodes = params.get("n_nodes", max(3, n_vertices // 2))
        if n_nodes < 2:
            raise ValueError("need n_nodes >= 2 for a graphic matroid")
        links = [
            tuple(sorted(rng.choice(n_nodes, size=2, replace=False).tolist()))
            for _ in range(n_vertices)
        ]
        matroid = GraphicMatroid(n_nodes, links)
    return KParityConstraint(matroid, edges, k)


def _gen_objective(params, cons, rng):
    family = params.get("objective", "modular")
    ids = cons.edge_ids
    lo = params.get("weight_lo", 1)
    hi = params.get("weight_hi", 10)
    if family == "modular":
        weights = {e: int(rng.integers(lo, hi + 1)) for e in ids}
        return ModularObjective(weights, w0=params.get("w0", 0.0))
    if family == "coverage":
        n_items = params.get("n_items", max(4, 2 * len(ids)))
        item_weights = [int(rng.integers(1, hi + 1)) for _ in range(n_items)]
        edge_items = {}
        for e in ids:
            count = int(rng.integers(1, max(2, n_items // 2 + 1)))
            edge_items[e] = frozenset(
                rng.choice(n_items, size=count, replace=False).tolist()
            )
        return CoverageObjective(item_weights, edge_items)
    links = []  # cut, the family left
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            if rng.random() < params.get("link_prob", 0.5):
                links.append((u, v, int(rng.integers(1, hi + 1))))
    return CutObjective(links)


def _trial_seed(base, instance_idx, trial):
    return int(
        np.random.SeedSequence([int(base), int(instance_idx), int(trial)])
        .generate_state(1)[0]
    )


def run_experiment(instances, mode, *, seed=0, trials=1, epsilon=0.5, ell=0, out=""):
    """Run ``trials`` solves of ``mode`` on each (instance_id, cons, f) of
    ``instances`` and aggregate the results; trial t of the idx-th
    instance runs at seed ``_trial_seed(seed, idx, t + 1)``.

    Every setting is checked, whatever the mode reads, before the first
    instance is taken: ``trials`` must be an integer >= 1, and the rest
    are checked as ``solve`` checks them. Returns a dict with ``rows``
    (one per trial, CSV_COLUMNS order) and ``summary`` (per-instance
    mean/stddev of values and ratios). Rows are deterministic except for
    the wall-time column. When ``out`` is set, writes <out>.csv and
    <out>.json.
    """
    if not _integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    _run_config(mode, epsilon, seed, ell)
    rows = []
    summaries = []
    for idx, (instance_id, cons, f) in enumerate(instances):
        opt_value = None
        if len(cons.edge_ids) <= OPT_COLUMN_CAP:
            _, opt_value = brute_force_opt(f, cons)
        values = []
        for trial in range(trials):
            trial_seed = _trial_seed(seed, idx, trial + 1)
            started = time.perf_counter()
            calls_before = f.calls + cons.feasibility_calls
            chosen, trace = solve(mode, f, cons, epsilon=epsilon, seed=trial_seed, ell=ell)
            calls = f.calls + cons.feasibility_calls - calls_before
            value = f.value(chosen)
            millis = (time.perf_counter() - started) * 1000.0
            alpha, improvements = None, 0
            if isinstance(trace, RunTrace):
                alpha, improvements = trace.alpha, trace.improvement_count
            elif trace is not None and trace.rounds:  # nonmonotone
                alpha = trace.rounds[0].alpha
            if not cons.feasible(chosen):
                raise RuntimeError(f"solver {mode} returned an infeasible set")
            ratio = None
            if opt_value is not None and value > 0:
                ratio = opt_value / value
            rows.append(
                {
                    "instance_id": instance_id,
                    "seed": trial_seed,
                    "alpha": "" if alpha is None else f"{alpha:.12g}",
                    "solver": mode,
                    "k": cons.k,
                    "n_edges": len(cons.edge_ids),
                    "value": f"{value:.12g}",
                    "opt_value": "" if opt_value is None else f"{opt_value:.12g}",
                    "ratio": "" if ratio is None else f"{ratio:.12g}",
                    "improvements": improvements,
                    "oracle_calls": calls,
                    "millis": f"{millis:.3f}",
                }
            )
            values.append(value)
        arr = np.asarray(values, dtype=float)
        summaries.append(
            {
                "instance_id": instance_id,
                "solver": mode,
                "trials": trials,
                "mean_value": float(arr.mean()),
                "stddev_value": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
                "opt_value": opt_value,
            }
        )
    result = {"rows": rows, "summary": summaries}
    if out:
        with open(out + ".csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(rows_to_csv(rows))
        with open(out + ".json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


def _run_config(mode, epsilon, seed, ell):
    """The one config of a run in ``mode``: an unknown mode, or a setting
    that is not valid, is a ValueError naming it, whatever the mode reads."""
    if mode not in MODES:
        raise ValueError(f"unknown solver mode {mode!r}")
    return RepetitionsConfig(epsilon=epsilon, seed=seed, ell=ell)


def solve(mode, f, cons, *, epsilon, seed, ell=0):
    """Run one solver mode; the single dispatch behind ``parityls solve``
    and ``bench``. Returns (chosen, trace): the RunTrace of a hybrid
    mode, the RepetitionsTrace of ``nonmonotone``, None for ``greedy``.
    ``ell`` is the nonmonotone round count (0 derives it from k). Every
    mode checks every setting first, in one ``RepetitionsConfig``, which
    the hybrid modes run as the ``SolverConfig`` it is."""
    config = _run_config(mode, epsilon, seed, ell)
    if mode == "greedy":
        return greedy_baseline(f, cons), None
    if mode == "nonmonotone":
        return repetitions_with_trace(f, cons, config)
    runner = run_efficient if mode == "hybrid" else run_reference
    return runner(f, cons, config)


def rows_to_csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
