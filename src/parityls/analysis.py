"""Per-run verification of the solver's charging structure.

Given a run trace, the constraint, and a strictly down-monotone
reference solution, this module rebuilds the analysis artifacts (the
reference partition across levels, witness sets, and the three weight
families) and asserts every deterministic inequality the approximation
argument rests on. A failed check means either an implementation bug or
a broken oracle, so the report carries explicit witnesses.

Weight families, all telescoping marginals:
  insertion weights  - value added by each output element, in the order
                       elements were last inserted;
  residual weights   - value a reference element still adds on top of
                       the full output (clamped at zero);
  reference weights  - value added along the reference alone, which is
                       independent of the run's randomness.
"""

import math
from dataclasses import dataclass, field

from .exchange import exchange_structure
from .matroid import REL_TOL, CheckReport, _leq
from .solver import Thresholds


def prune_down_monotone(f, reference):
    """Drop elements contributing nothing: repeatedly remove the smallest
    id x with f(x | O - x) <= 0. The result is strictly down-monotone and
    worth at least as much as the input. Each pass asks f(O) once."""
    current = set(reference)
    while True:
        whole = f.value(current)
        for x in sorted(current):
            if whole - f.value(current - {x}) <= 0:
                current.remove(x)
                break
        else:
            return frozenset(current)


def _prefix_marginals(f, order):
    """Telescoping marginals: each element's gain over those before it.
    Each prefix's value is asked once, len(order) + 1 queries in all."""
    weights = {}
    prefix = frozenset()
    before = f.value(prefix)
    for x in order:
        prefix = prefix | {x}
        after = f.value(prefix)
        weights[x] = after - before
        before = after
    return weights


def insertion_weights(trace, f):
    """Marginal value of each output element along the insertion order."""
    return _prefix_marginals(f, trace.insertion_order)


def reference_weights(f, reference):
    """Marginal value of each reference element along ascending ids."""
    return _prefix_marginals(f, sorted(reference))


def residual_weights(f, solution, reference):
    """Clamped marginal of each reference element on top of the solution
    (minus the element itself) plus the preceding reference elements."""
    solution = frozenset(solution)
    weights = {}
    prefix = frozenset()
    for o in sorted(reference):
        context = (solution - {o}) | prefix
        weights[o] = max(0.0, f.value(context | {o}) - f.value(context))
        prefix = prefix | {o}
    return weights


def partition_reference(trace, cons, reference):
    """Split the reference across the run's levels via exchange witnesses.

    Level i receives the still-unassigned reference elements whose
    witness set against the solution-so-far is non-empty. Returns
    (parts by level index, witness set per assigned element, leftover
    elements never assigned). Verifies along the way that each level
    keeps the settled solution feasible and that the settled solution
    plus the unassigned reference stays feasible and disjoint; a
    failure raises RuntimeError.
    """
    reference = frozenset(reference)
    settled = frozenset()
    remaining = set(reference)
    parts = {}
    witness = {}

    if not cons.feasible(reference):
        raise ValueError("reference set is not feasible")

    for rec in trace.iterations:
        if not rec.selected:
            continue
        grown = settled | set(rec.selected)
        if not cons.feasible(grown):
            raise RuntimeError(f"settled solution plus level {rec.index} infeasible")
        other = settled | remaining
        sets = exchange_structure(cons, grown, other)
        assigned = {o for o in remaining if sets[o]}
        for o in assigned:
            witness[o] = sets[o]
        parts[rec.index] = frozenset(assigned)
        remaining -= assigned
        settled = grown
        if settled & remaining:
            raise RuntimeError("settled solution overlaps unassigned reference")
        if not cons.feasible(settled | remaining):
            raise RuntimeError("settled solution plus unassigned reference infeasible")
    return parts, witness, frozenset(remaining)


def charge_ratios(u_value, thresholds: Thresholds, d, linear=False):
    """Bracket a reference weight by the threshold family.

    Returns (m, r, rho): the smallest threshold m >= u, the ratio
    r = m / u in [1, 2), and the charge ratio rho, which is r for linear
    objectives and min(r, (1 - (1 - 1/d)/2) / (1 - (1 - 1/d)/r))
    otherwise. The submodular branch requires d >= 2.
    """
    if u_value <= 0:
        raise ValueError("reference weight must be positive")
    if thresholds.level(0) < u_value:
        raise ValueError("reference weight exceeds the top threshold")
    j = thresholds.index_at_most(u_value)
    bracket = thresholds.level(j if thresholds.level(j) == u_value else j - 1)
    ratio = bracket / u_value
    if linear:
        return bracket, ratio, ratio
    if d < 2:
        raise ValueError("the submodular charge ratio requires d >= 2")
    return bracket, ratio, min(ratio, _ratio_cap(ratio, d))


def _ratio_cap(ratio, d):
    """(1 - (1 - 1/d)/2) / (1 - (1 - 1/d)/r), the submodular cap on the
    charge ratio r; works elementwise on arrays."""
    keep = 1.0 - 1.0 / d
    return (1.0 - keep / 2.0) / (1.0 - keep / ratio)


@dataclass
class ChargingReport:
    """All rebuilt artifacts plus one pass/fail entry per inequality."""

    parts: dict
    witness: dict
    leftover: frozenset
    singly_charged: frozenset
    insertion: dict
    residual: dict
    reference: dict
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.ok]

    def to_json(self):
        return {
            "ok": self.ok,
            "parts": {str(i): sorted(p) for i, p in self.parts.items()},
            "witness": {str(o): sorted(n) for o, n in self.witness.items()},
            "leftover": sorted(self.leftover),
            "singly_charged": sorted(self.singly_charged),
            "insertion_weights": {str(a): v for a, v in self.insertion.items()},
            "residual_weights": {str(o): v for o, v in self.residual.items()},
            "reference_weights": {str(o): v for o, v in self.reference.items()},
            "checks": [
                {"name": c.name, "ok": c.ok, "witnesses": [str(w) for w in c.violations[:10]]}
                for c in self.checks
            ],
        }


def verify_run(trace, f, cons, reference, d=None):
    """Rebuild the charging artifacts for one run and assert every
    deterministic inequality of the analysis.

    ``reference`` must be feasible and strictly down-monotone; ``d`` is
    the discrepancy weight (finite, >= 2, default 2 * sqrt(k)). Returns a
    ChargingReport whose ``ok`` is True iff every check passed. A draw
    with scale <= 0 against a non-empty reference, and a trace that
    builds an infeasible set, each end the report early with one failed
    check: ``scale-positive`` and ``partition-feasible``. So does a draw
    whose top threshold does not cover every reference weight, or a
    reference weight that is not positive: ``scale-covers-reference``.
    """
    if d is None:
        d = 2.0 * math.sqrt(cons.k)
    if not 2 <= d < math.inf:
        raise ValueError(f"discrepancy weight d must be a finite number >= 2, got {d}")
    reference = frozenset(reference)
    solution = trace.final
    eps = trace.epsilon
    k = cons.k
    linear = f.linear

    w = insertion_weights(trace, f)
    u = reference_weights(f, reference)
    ow = residual_weights(f, solution, reference)

    def failed_early(name, reason):
        return ChargingReport(
            parts={},
            witness={},
            leftover=reference,
            singly_charged=frozenset(),
            insertion=w,
            residual=ow,
            reference=u,
            checks=[CheckReport(name, [reason])],
        )

    if reference and trace.scale <= 0:
        # a strictly down-monotone reference has some o with
        # 0 < u(o) <= f({o}) - f(empty) <= W, so this draw cannot come
        # from a run on this instance
        return failed_early(
            "scale-positive", f"scale {trace.scale} is not positive, but the reference is not empty"
        )
    # the charge ratios bracket each weight by a threshold, and a run on
    # this instance has m_0 >= W >= f({o}) - f(empty) >= u(o) > 0
    top = trace.thresholds.level(0)
    if outside := [(o, u[o]) for o in sorted(reference) if not 0 < u[o] <= top]:
        return failed_early(
            "scale-covers-reference",
            f"reference weights (edge, weight) {outside} lie outside (0, {top}]",
        )
    try:
        parts, witness, leftover = partition_reference(trace, cons, reference)
    except RuntimeError as err:
        # the settled-plus-unassigned feasibility invariant broke; report
        # it as a failed check instead of escaping
        return failed_early("partition-feasible", str(err))
    level_of = {}
    threshold_of = {rec.index: rec.threshold for rec in trace.iterations}
    for i, members in parts.items():
        for o in members:
            level_of[o] = i

    singly = frozenset(
        o
        for o, i in level_of.items()
        if ow[o] > threshold_of[i] and len(witness[o]) == 1
    )

    checks = []

    def record(name, violations):
        checks.append(CheckReport(name, violations))

    record("partition-feasible", [])

    # the threshold side bounds w[a] below with the tolerance every check
    # uses; a strict w[a] > 0 on top would reject a pick whose gain is of
    # float resolution, which the whole-set sums can give back as 0.0
    bad = []
    for rec in trace.iterations:
        for a in rec.selected:
            if not (_leq(rec.threshold, w[a]) and _leq(w[a], 2 * rec.threshold)):
                bad.append((rec.index, a, w[a], rec.threshold))
    record("level-weight-bracket", bad)

    bad = []
    for o, i in level_of.items():
        if not _leq(ow[o], 2 * threshold_of[i]):
            bad.append((o, ow[o], 2 * threshold_of[i]))
    record("reference-weight-cap", bad)

    record(
        "leftover-weight-zero",
        [(o, ow[o]) for o in leftover if ow[o] > REL_TOL * (1.0 + abs(ow[o]))],
    )

    bad = [
        (o, ow[o], w[o])
        for o in reference & solution
        if not _leq(ow[o], w[o])
    ]
    record("shared-weight-order", bad)

    bad = []
    for o in sorted(reference):
        if not u[o] > 0 or not _leq(ow[o], u[o]):
            bad.append((o, u[o], ow[o]))
        if linear and abs(u[o] - ow[o]) > REL_TOL * (1.0 + abs(u[o])):
            bad.append((o, "linear equality", u[o], ow[o]))
    record("reference-weight-positive", bad)

    bad = []
    for o, i in level_of.items():
        if not witness[o] <= set(
            next(rec.selected for rec in trace.iterations if rec.index == i)
        ):
            bad.append((o, sorted(witness[o]), i))
    record("witness-in-level", bad)

    gap_sum = sum(u[o] - ow[o] for o in reference)
    f_sol = f.value(solution)
    f_join = f.value(solution | reference)
    f_ref = f.value(reference)
    alt_bound = f_sol - (f_join - f_ref)
    record(
        "discrepancy-bound",
        [] if _leq(gap_sum, alt_bound) else [(gap_sum, alt_bound)],
    )

    bad = []
    for o in singly:
        wn = sum(w[a] for a in witness[o])
        if not _leq(ow[o], (1.0 + eps) * wn):
            bad.append((o, ow[o], (1.0 + eps) * wn))
    record("single-witness-value", bad)

    bad = []
    singly_sorted = sorted(singly)
    for idx, o in enumerate(singly_sorted):
        for o2 in singly_sorted[idx + 1 :]:
            if witness[o] & witness[o2]:
                bad.append((o, o2, sorted(witness[o] & witness[o2])))
    record("single-witness-disjoint", bad)

    hits = {}
    for o in level_of:
        for a in witness[o]:
            hits[a] = hits.get(a, 0) + 1
    record(
        "witness-multiplicity",
        [(a, n, k) for a, n in hits.items() if n > k],
    )

    singly_total = sum(sum(w[a] for a in witness[o]) for o in singly)
    f_empty = f.value(frozenset())
    record(
        "single-witness-total",
        [] if _leq(singly_total, f_sol - f_empty) else [(singly_total, f_sol - f_empty)],
    )

    rho = {}
    for o in sorted(reference):  # each weight lies in (0, level(0)] here
        _, _, rho[o] = charge_ratios(u[o], trace.thresholds, d, linear=linear)

    bad = []
    for o, i in level_of.items():
        if o in singly:
            continue
        wn = sum(w[a] for a in witness[o])
        if not _leq(rho[o] * u[o], wn + d * (u[o] - ow[o])):
            bad.append((o, rho[o] * u[o], wn + d * (u[o] - ow[o])))
    record("capped-ratio-element", bad)

    chain_lhs = sum(rho[o] * u[o] for o in reference)
    chain_rhs = (k + 1 + 2 * eps) * (f_sol - f_empty) + d * gap_sum
    record(
        "charging-chain",
        [] if _leq(chain_lhs, chain_rhs) else [(chain_lhs, chain_rhs)],
    )

    return ChargingReport(
        parts=parts,
        witness=witness,
        leftover=leftover,
        singly_charged=singly,
        insertion=w,
        residual=ow,
        reference=u,
        checks=checks,
    )
