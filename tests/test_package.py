"""The package root: exactly the names callers use, each resolving."""

import parityls

ROOT_NAMES = {
    "UniformMatroid", "PartitionMatroid", "GraphicMatroid", "ExplicitMatroid",
    "MatroidOracle", "axiom_check",
    "Edge", "KParityConstraint", "from_intersection",
    "ModularObjective", "CoverageObjective", "CutObjective", "ValueOracle",
    "check_submodular", "check_monotone",
    "SolverConfig", "run_efficient", "run_reference",
    "RepetitionsConfig", "repetitions_with_trace",
    "solve", "MODES", "greedy_baseline", "brute_force_opt", "generate_instance",
    "verify_run", "prune_down_monotone",
}


def test_root_exports_exactly_the_caller_names():
    assert len(parityls.__all__) == len(ROOT_NAMES) == 27
    assert set(parityls.__all__) == ROOT_NAMES
    for name in ROOT_NAMES:
        assert getattr(parityls, name) is not None
