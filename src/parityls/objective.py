"""Set-function value oracles, desk-scale submodularity/monotonicity
checkers and the concrete test families (modular, coverage, cut).
"""

import math
from dataclasses import dataclass, field

CHECK_CAP = 14

LINEAR = "linear"
MONOTONE_SUBMODULAR = "monotone-submodular"
SUBMODULAR = "submodular"


class ValueOracle:
    """Evaluate f over edge sets; ``calls`` counts value queries.

    ``declared_class`` is one of "linear", "monotone-submodular" or
    "submodular" and selects branches in the run verifier.
    """

    declared_class = SUBMODULAR

    def __init__(self):
        self.calls = 0

    def value(self, edge_set) -> float:
        self.calls += 1
        return self._value(frozenset(edge_set))

    def _value(self, s: frozenset) -> float:
        raise NotImplementedError


class ModularObjective(ValueOracle):
    """f(S) = w0 + sum of per-edge weights; marginals are constant, so the
    analysis treats this family as linear (w0 only shifts values)."""

    declared_class = LINEAR

    def __init__(self, weights, w0=0.0):
        super().__init__()
        if not 0 <= w0 < math.inf:
            raise ValueError("w0 must be finite and non-negative")
        self.w0 = float(w0)
        self.weights = dict(weights)
        for e, w in self.weights.items():
            if not math.isfinite(w):
                raise ValueError(f"edge {e} has non-finite weight {w}")

    def _value(self, s):
        return self.w0 + sum(self.weights[e] for e in s)


class CoverageObjective(ValueOracle):
    """Weighted coverage: f(S) = total weight of items covered by S.
    Monotone submodular for non-negative item weights."""

    declared_class = MONOTONE_SUBMODULAR

    def __init__(self, item_weights, edge_items):
        super().__init__()
        self.item_weights = [float(w) for w in item_weights]
        for i, w in enumerate(self.item_weights):
            if not 0 <= w < math.inf:
                raise ValueError(f"item {i} weight {w} is negative or not finite")
        self.edge_items = {e: frozenset(items) for e, items in edge_items.items()}
        for e, items in self.edge_items.items():
            if any(not 0 <= i < len(self.item_weights) for i in items):
                raise ValueError(f"edge {e} covers an unknown item")

    def _value(self, s):
        covered = set()
        for e in s:
            covered |= self.edge_items[e]
        return sum(self.item_weights[i] for i in covered)


class CutObjective(ValueOracle):
    """Weighted cut of an undirected graph whose nodes are edge ids:
    f(S) = total weight of graph edges with exactly one endpoint in S.
    Non-negative, non-monotone submodular, f(empty) = 0."""

    declared_class = SUBMODULAR

    def __init__(self, weighted_links):
        super().__init__()
        self.links = [(u, v, float(w)) for u, v, w in weighted_links]
        for u, v, w in self.links:
            if not 0 <= w < math.inf:
                raise ValueError(f"link ({u}, {v}) weight {w} is negative or not finite")

    def _value(self, s):
        total = 0.0
        for u, v, w in self.links:
            if (u in s) != (v in s):
                total += w
        return total


@dataclass
class CheckReport:
    """Result of an exhaustive property check over a desk-scale ground."""

    property: str
    ground: tuple
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def _subset(elems, mask):
    return frozenset(elems[i] for i in range(len(elems)) if mask >> i & 1)


def _value_table(f, ground, check):
    """Sorted ground plus f of every subset, indexed by bit mask."""
    elems = sorted(ground)
    if len(elems) > CHECK_CAP:
        raise ValueError(f"{check} check capped at {CHECK_CAP} elements")
    fn = f.value if hasattr(f, "value") else f
    return elems, [fn(_subset(elems, mask)) for mask in range(1 << len(elems))]


def check_submodular(f, ground) -> CheckReport:
    """Exhaustively verify f(e | S) >= f(e | T) for all S <= T and e outside T.

    Uses the equivalent single-step form (T = S + e') over a value table;
    any violation of the general definition yields a single-step one.
    Refuses grounds larger than 14 elements.
    """
    elems, table = _value_table(f, ground, "submodularity")
    n = len(elems)
    report = CheckReport(property="submodular", ground=tuple(elems))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bi, bj = 1 << i, 1 << j
            for mask in range(1 << n):
                if mask & bi or mask & bj:
                    continue
                lhs = table[mask | bi] - table[mask]
                rhs = table[mask | bi | bj] - table[mask | bj]
                if lhs < rhs - 1e-12:
                    report.violations.append(
                        (tuple(sorted(_subset(elems, mask))),
                         tuple(sorted(_subset(elems, mask | bj))),
                         elems[i])
                    )
    return report


def check_monotone(f, ground) -> CheckReport:
    """Exhaustively verify f(e | S) >= 0 for every S and e outside S."""
    elems, table = _value_table(f, ground, "monotonicity")
    n = len(elems)
    report = CheckReport(property="monotone", ground=tuple(elems))
    for i in range(n):
        bi = 1 << i
        for mask in range(1 << n):
            if mask & bi:
                continue
            if table[mask | bi] < table[mask] - 1e-12:
                report.violations.append(
                    (tuple(sorted(_subset(elems, mask))), elems[i])
                )
    return report
