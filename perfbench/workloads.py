"""Seeded workload definitions.

Each workload is a list of instance groups: a generator kind and its
parameters, how many instances of it to draw, and whether the group is
small enough for the charging verifier (the exchange construction caps
the vertex support at 10, and brute force caps the ground at 20 edges).
Every instance is solved in every mode; verifiable instances are also
verified. Instance seeds derive from the benchmark seed, the workload and
the position of the instance, so one seed always gives the same inputs.

Instances are many and small rather than few and large: solve time varies
by about 40% from one random instance to the next, and only the sum over
many instances is steady from one seed to another.
"""

from dataclasses import dataclass

import numpy as np

MODES = ("hybrid", "hybrid-reference", "greedy", "nonmonotone")


@dataclass(frozen=True)
class Group:
    kind: str
    params: dict
    count: int
    verify: bool = False


def _desk(matroid, objective, count):
    """Desk-scale random-parity instances: k = 2 over 10 matroid vertices,
    so every vertex support stays within the verifier's cap."""
    params = {"k": 2, "n_vertices": 10, "n_edges": 10, "matroid": matroid,
              "rank": 5, "objective": objective}
    return Group("random-parity", params, count, verify=True)


WORKLOADS = {
    # feasibility-bound: union-find independence queries and vertex unions
    # dominate, solutions fill about half the ground
    "graphic-modular": (
        Group("random-parity", {"k": 2, "n_vertices": 56, "n_edges": 32,
                                "matroid": "graphic", "objective": "modular"}, 300),
        _desk("graphic", "modular", 1000),
    ),
    # value-bound and non-monotone: every cut query walks all links, and
    # double greedy and greedy re-base marginals on moving sets
    "cut-uniform": (
        Group("random-parity", {"k": 2, "n_vertices": 70, "n_edges": 40,
                                "matroid": "uniform", "rank": 20,
                                "objective": "cut"}, 180),
        _desk("uniform", "cut", 1000),
    ),
    # coverage over a 2-partition-matroid intersection and over a partition
    # matroid: small solutions, so failing scans over outside edges dominate
    "coverage-intersection": (
        Group("k-partition-intersection", {"k": 2, "n_elements": 70,
                                           "objective": "coverage"}, 60),
        Group("random-parity", {"k": 2, "n_vertices": 105, "n_edges": 70,
                                "matroid": "partition", "objective": "coverage"}, 60),
        Group("k-partition-intersection", {"k": 2, "n_elements": 5,
                                           "objective": "coverage"}, 500, verify=True),
        _desk("partition", "coverage", 500),
    ),
    # desk scale across all matroid and objective families: the verifier,
    # exchange construction and brute force do the work
    "verify-desk": tuple(
        _desk(matroid, objective, 60)
        for matroid in ("uniform", "partition", "graphic")
        for objective in ("modular", "coverage", "cut")
    ),
}


def instance_seed(seed, workload, group, index):
    """Generator seed of one instance, fixed by (seed, workload, position)."""
    key = [int(seed), sorted(WORKLOADS).index(workload), group, index]
    return int(np.random.SeedSequence(key).generate_state(1)[0])
