"""Hybrid greedy/local-search maximization of submodular functions under
matroid k-parity constraints, with exchange machinery, baselines, and
per-run verification of the charging structure.

The package root re-exports what callers use; everything else is
imported from its submodule.
"""

from types import ModuleType as _ModuleType

from .analysis import prune_down_monotone, verify_run
from .bench import MODES, brute_force_opt, generate_instance, greedy_baseline, solve
from .kparity import Edge, KParityConstraint, from_intersection
from .matroid import (
    ExplicitMatroid,
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
    axiom_check,
)
from .nonmonotone import RepetitionsConfig, repetitions_with_trace
from .objective import (
    CoverageObjective,
    CutObjective,
    ModularObjective,
    ValueOracle,
    check_monotone,
    check_submodular,
)
from .solver import SolverConfig, run_efficient, run_reference

# every name imported above, minus the submodules the imports bind
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
