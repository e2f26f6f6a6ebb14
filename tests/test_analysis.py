"""Trace analysis: pruning, the three weight families, the reference
partition, charge ratios, and the full per-run verifier."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityls import analysis
from parityls.analysis import (
    charge_ratios,
    insertion_weights,
    partition_reference,
    prune_down_monotone,
    reference_weights,
    residual_weights,
    verify_run,
)
from parityls.bench import brute_force_opt, generate_instance, greedy_baseline
from parityls.exchange import exchange_claim_violations, exchange_structure
from parityls.instances import trace_from_json, trace_to_json
from parityls.kparity import KParityConstraint
from parityls.matroid import CheckReport, UniformMatroid
from parityls.objective import CoverageObjective, ModularObjective, ValueOracle
from parityls.solver import (
    Improvement,
    RunTrace,
    SolverConfig,
    Thresholds,
    run_efficient,
    run_reference,
)
from util import (
    WEIGHT_GRID,
    SetSystem,
    analysis_instance,
    reference_prefix_marginals,
    reference_prune_down_monotone,
    regridded,
    rng_for,
    shift_log_ratio,
    simulate_ratios,
)


def singleton_parity(matroid):
    return KParityConstraint(matroid, [[v] for v in sorted(matroid.ground)], 1)


def pruned_optimum(f, cons):
    best, _ = brute_force_opt(f, cons)
    return prune_down_monotone(f, best)


def solved(f, cons, seed=0, eps=0.5):
    return run_efficient(f, cons, SolverConfig(epsilon=eps, seed=seed))


# ----------------------------------------------------------------- pruning


def test_prune_keeps_positive_modular():
    f = ModularObjective({0: 1, 1: 2})
    assert prune_down_monotone(f, {0, 1}) == frozenset({0, 1})


def test_prune_drops_zero_weight():
    f = ModularObjective({0: 1, 1: 0})
    assert prune_down_monotone(f, {0, 1}) == frozenset({0})


def test_prune_drops_redundant_coverage_edge():
    f = CoverageObjective([5, 2], {0: {0, 1}, 1: {0}})
    pruned = prune_down_monotone(f, {0, 1})
    assert pruned == frozenset({0})
    assert f.value(pruned) == f.value({0, 1})


# ----------------------------------------------------------------- weights


def test_insertion_weights_modular_and_telescoping():
    f = ModularObjective({0: 5, 1: 3, 2: 1})
    cons = singleton_parity(UniformMatroid(3, 2))
    out, trace = solved(f, cons)
    w = insertion_weights(trace, f)
    assert w == {e: f.weights[e] for e in out}
    assert sum(w.values()) + f.value(frozenset()) == f.value(out)


def test_telescoping_on_random_runs():
    for seed in range(15):
        cons, f = analysis_instance(seed)
        out, trace = solved(f, cons, seed=seed)
        w = insertion_weights(trace, f)
        assert abs(sum(w.values()) + f.value(frozenset()) - f.value(out)) < 1e-9


def test_reference_weights_telescope():
    f = CoverageObjective([3, 1, 4], {0: {0, 1}, 1: {1, 2}, 2: {0}})
    u = reference_weights(f, {0, 1, 2})
    assert abs(sum(u.values()) - (f.value({0, 1, 2}) - f.value(frozenset()))) < 1e-12


def test_residual_weights_modular():
    f = ModularObjective({0: 5, 1: -2, 2: 3})
    ow = residual_weights(f, frozenset({0}), {0, 1, 2})
    assert ow == {0: 5, 1: 0, 2: 3}


def test_weight_inequalities_on_traces():
    for seed in range(15):
        cons, f = analysis_instance(seed)
        out, trace = solved(f, cons, seed=seed)
        reference = pruned_optimum(f, cons)
        u = reference_weights(f, reference)
        ow = residual_weights(f, out, reference)
        w = insertion_weights(trace, f)
        for o in reference:
            assert u[o] > 0
            assert ow[o] <= u[o] + 1e-9
        for o in reference & out:
            assert ow[o] <= w[o] + 1e-9


# --------------------------------------------------------------- partition


def test_partition_when_reference_is_solution():
    f = ModularObjective({0: 9, 1: 2, 2: 1})
    cons = singleton_parity(UniformMatroid(3, 2))
    out, trace = solved(f, cons, seed=2)
    reference = prune_down_monotone(f, out)
    assert reference == out
    parts, witness, leftover = partition_reference(trace, cons, reference)
    assert leftover == frozenset()
    level_content = {rec.index: frozenset(rec.selected) for rec in trace.iterations}
    for i, members in parts.items():
        for o in members:
            assert o in level_content[i]
            assert witness[o] == frozenset({o})


def test_partition_covers_and_is_disjoint():
    for seed in range(20):
        cons, f = analysis_instance(seed)
        out, trace = solved(f, cons, seed=seed)
        reference = pruned_optimum(f, cons)
        parts, witness, leftover = partition_reference(trace, cons, reference)
        assigned = [o for members in parts.values() for o in members]
        assert len(assigned) == len(set(assigned))
        assert frozenset(assigned) | leftover == reference
        assert frozenset(assigned) & leftover == frozenset()
        assert set(witness) == set(assigned)


def test_partition_rejects_infeasible_reference():
    f = ModularObjective({0: 5, 1: 3, 2: 1})
    cons = singleton_parity(UniformMatroid(3, 2))
    _, trace = solved(f, cons)
    with pytest.raises(ValueError):
        partition_reference(trace, cons, {0, 1, 2})


# ------------------------------------------------------------ charge ratios


def test_charge_ratio_example():
    thresholds = Thresholds(1.0, 1.0)  # levels 2, 1, 0.5, 0.25, ...
    bracket, ratio, rho = charge_ratios(0.3, thresholds, 2.0)
    assert bracket == 0.5
    assert abs(ratio - 5.0 / 3.0) < 1e-12
    assert abs(rho - min(5.0 / 3.0, 0.75 / 0.7)) < 1e-12
    assert abs(rho - 15.0 / 14.0) < 1e-12


def test_charge_ratio_at_one():
    thresholds = Thresholds(1.0, 1.0)
    for d in (2.0, 3.0, 10.0):
        _, ratio, rho = charge_ratios(0.5, thresholds, d)
        assert ratio == 1.0
        assert rho == 1.0


def test_charge_ratio_linear_branch_ignores_d():
    thresholds = Thresholds(1.0, 1.0)
    _, ratio, rho = charge_ratios(0.3, thresholds, 1.0, linear=True)
    assert rho == ratio


def test_charge_ratio_errors():
    thresholds = Thresholds(1.0, 1.0)
    with pytest.raises(ValueError):
        charge_ratios(0.0, thresholds, 2.0)
    with pytest.raises(ValueError):
        charge_ratios(5.0, thresholds, 2.0)  # above the top threshold
    with pytest.raises(ValueError):
        charge_ratios(0.3, thresholds, 1.5)  # submodular branch needs d >= 2


def test_charge_ratio_bracket_matches_level_walk():
    # the bracket comes from Thresholds.index_at_most; the walk down the
    # levels is the definition: the smallest threshold >= u. Odd draws put
    # u exactly on a threshold.
    rng = rng_for(4242)
    for n in range(20_000):
        t = Thresholds(float(rng.uniform(0.1, 50.0)), 1.0 - rng.random())
        if n % 2:
            u = t.level(int(rng.integers(0, 40)))
        else:
            u = float(rng.uniform(1e-9, 1.0)) * t.level(0)
        i = 0
        while t.level(i + 1) >= u:
            i += 1
        assert charge_ratios(u, t, 2.0)[0] == t.level(i)


def test_shift_log_ratio_examples():
    gap = math.log2(1.0) - math.log2(0.3)
    alpha_star = 2 - gap
    assert abs(alpha_star - 0.2630344058337937) < 1e-12
    assert abs(shift_log_ratio(1.0, 0.3, alpha_star)) < 1e-12
    assert abs(shift_log_ratio(1.0, 0.3, 0.1) - 0.8369655941662063) < 1e-12
    # weight equal to the scale: the ratio exponent equals the shift itself
    for alpha in (0.2, 0.7, 0.999):
        assert abs(shift_log_ratio(5.0, 5.0, alpha) - alpha) < 1e-12


def test_shift_log_ratio_matches_threshold_scan():
    rng = rng_for(77)
    for _ in range(300):
        scale = float(rng.uniform(0.5, 20.0))
        u = float(rng.uniform(0.01, 1.0)) * scale
        alpha = 1.0 - rng.random()
        beta = shift_log_ratio(scale, u, alpha)
        assert 0.0 <= beta < 1.0
        _, ratio, _ = charge_ratios(u, Thresholds(scale, alpha), 2.0)
        assert abs(2.0 ** beta - ratio) < 1e-9 * ratio


def test_simulate_ratios_matches_pointwise():
    rng = rng_for(5)
    alphas = 1.0 - rng.random(200)
    r, rho = simulate_ratios(4.0, 1.3, alphas, 3.0)
    thresholds = [Thresholds(4.0, a) for a in alphas]
    for i, t in enumerate(thresholds):
        _, ri, rhoi = charge_ratios(1.3, t, 3.0)
        assert abs(r[i] - ri) < 1e-9
        assert abs(rho[i] - rhoi) < 1e-9


def test_mean_capped_ratio_matches_closed_form():
    # E[min(2^B, c1 / (1 - c2 * 2^-B))] over uniform B has the closed form
    # (1 - 1/d) / (2 ln 2) + (d + 1) / (2 d)
    alphas = 1.0 - rng_for(31337).random(100_000)
    for d in (2.0, 2.0 * math.sqrt(3.0), 5.0):
        _, rho = simulate_ratios(1.0, 0.3, alphas, d)
        target = (1.0 - 1.0 / d) / (2.0 * math.log(2.0)) + (d + 1.0) / (2.0 * d)
        assert abs(rho.mean() - target) <= 0.01 * target


# ---------------------------------------------------------------- verifier


def test_verify_run_battery():
    for seed in range(40):
        cons, f = analysis_instance(seed)
        out, trace = solved(f, cons, seed=seed, eps=0.5)
        reference = pruned_optimum(f, cons)
        for d in (2.0, 2.0 * math.sqrt(cons.k)):
            report = verify_run(trace, f, cons, reference, d=d)
            assert report.ok, (seed, d, [c.name for c in report.failed()])


LADDER = (
    ("random-parity", {"k": 2, "n_vertices": 56, "n_edges": 32,
                       "matroid": "graphic", "objective": "modular"}),
    ("random-parity", {"k": 2, "n_vertices": 105, "n_edges": 70,
                       "matroid": "partition", "objective": "coverage"}),
    ("k-partition-intersection", {"k": 3, "n_elements": 40, "objective": "cut"}),
)


def test_verify_run_at_ladder_scale_against_greedy():
    # brute force cannot reach 32-70 edges; any feasible, strictly
    # down-monotone reference will do, here the pruned greedy answer
    runs = 0
    for kind, params in LADDER:
        for seed in range(8):
            cons, f = generate_instance(kind, params, seed)
            out, trace = solved(f, cons, seed=seed)
            reference = prune_down_monotone(f, greedy_baseline(f, cons))
            report = verify_run(trace, f, cons, reference)
            assert report.ok, (kind, seed, [c.name for c in report.failed()])
            witness = exchange_structure(cons, out, reference)
            assert exchange_claim_violations(cons, out, reference, witness) == []
            runs += 1
    assert runs >= 20


def test_verify_run_accepts_stepwise_traces():
    from parityls.solver import run_reference

    for seed in range(10):
        cons, f = analysis_instance(seed)
        config = SolverConfig(epsilon=0.5, seed=seed)
        _, ref_trace = run_reference(f, cons, config)
        _, eff_trace = run_efficient(f, cons, config)
        reference = pruned_optimum(f, cons)
        ref_report = verify_run(ref_trace, f, cons, reference, d=2.0)
        eff_report = verify_run(eff_trace, f, cons, reference, d=2.0)
        assert ref_report.ok and eff_report.ok
        assert ref_report.parts == eff_report.parts
        assert ref_report.singly_charged == eff_report.singly_charged


def test_verify_run_linear_equality():
    for seed in range(10):
        cons, f = analysis_instance(seed, families=("modular",))
        out, trace = solved(f, cons, seed=seed)
        reference = pruned_optimum(f, cons)
        report = verify_run(trace, f, cons, reference)
        assert report.ok
        for o in reference:
            assert report.reference[o] == report.residual[o]


def test_verify_run_empty_ground():
    cons = KParityConstraint(UniformMatroid(0, 0), [], 1)
    f = ModularObjective({})
    out, trace = solved(f, cons)
    report = verify_run(trace, f, cons, frozenset(), d=2.0)
    assert report.ok
    assert report.parts == {}


def test_verify_run_reports_tampered_trace():
    # recorded weight sits below its level threshold; the bracket check
    # must flag it
    cons = singleton_parity(UniformMatroid(3, 2))
    f = ModularObjective({0: 4, 1: 3, 2: 2})
    fake = RunTrace(scale=4.0, alpha=1.0, epsilon=0.5)
    fake.add_level(1, [Improvement(1, (0,), ()), Improvement(1, (1,), ())])
    assert fake.iterations[0].threshold == 4.0
    report = verify_run(fake, f, cons, frozenset({2}), d=2.0)
    assert not report.ok
    assert "level-weight-bracket" in [c.name for c in report.failed()]


def test_verify_run_reports_broken_partition():
    # non-matroid oracle: neither of the reference vertices can augment
    # the recorded solution, so the partition's feasibility invariant
    # breaks and must land in the report, not escape as an exception
    from parityls.solver import Improvement, RunTrace

    broken = SetSystem(3, [[], [0], [1], [2], [1, 2]])
    cons = KParityConstraint(broken, [[0], [1], [2]], 1)
    f = ModularObjective({0: 4, 1: 3, 2: 2})
    fake = RunTrace(scale=4.0, alpha=1.0, epsilon=0.5)
    fake.add_level(1, [Improvement(1, (0,), ())])
    report = verify_run(fake, f, cons, frozenset({1, 2}), d=2.0)
    assert not report.ok
    assert [c.name for c in report.failed()] == ["partition-feasible"]


def test_verify_run_reports_infeasible_level():
    # a trace whose second level breaks the constraint: the verifier
    # reports a failed partition check instead of raising
    from parityls.solver import Improvement, RunTrace

    cons = singleton_parity(UniformMatroid(3, 1))
    f = ModularObjective({0: 4, 1: 3, 2: 2})
    fake = RunTrace(scale=4.0, alpha=1.0, epsilon=0.5)
    fake.add_level(1, [Improvement(1, (0,), ())])
    fake.add_level(2, [Improvement(1, (1,), ())])
    with pytest.raises(RuntimeError, match="level 2 infeasible"):
        partition_reference(fake, cons, frozenset({0}))
    report = verify_run(fake, f, cons, frozenset({0}), d=2.0)
    assert [c.name for c in report.failed()] == ["partition-feasible"]


def test_verify_run_reports_empty_run_against_nonempty_reference():
    # an empty run (scale <= 0, no levels) cannot come from an instance
    # with a non-empty strictly down-monotone reference, whose weights
    # force W > 0; that is one failed check, not an exception
    from parityls.solver import RunTrace

    cons = singleton_parity(UniformMatroid(3, 1))
    f = ModularObjective({0: 4, 1: 3, 2: 2})
    for scale in (-5.0, 0.0, -math.inf):
        empty = RunTrace(scale=scale, alpha=1.0, epsilon=0.5)
        report = verify_run(empty, f, cons, frozenset({0}), d=2.0)
        assert [c.name for c in report.failed()] == ["scale-positive"]
        assert report.leftover == frozenset({0}) and report.reference == {0: 4.0}
        assert verify_run(empty, f, cons, frozenset(), d=2.0).ok


def test_verify_run_reports_a_scale_that_does_not_cover_the_reference():
    # the fixture run with its scale cut from 48 to 6: its top threshold
    # 6 * 2^alpha < 12 lies below the reference's largest weight, which a
    # run on this instance cannot draw; that is one failed check, not the
    # charge ratios' ValueError
    from pathlib import Path

    from parityls.instances import load_instance, load_trace
    from parityls.solver import Improvement, RunTrace

    data = Path(__file__).parent / "data"
    cons, f = load_instance(data / "instance.json")
    fixture = load_trace(data / "trace.json")
    small = RunTrace(scale=6.0, alpha=fixture.alpha, epsilon=fixture.epsilon)
    for rec in fixture.iterations:
        small.add_level(rec.index, rec.improvements)
    reference = pruned_optimum(f, cons)
    assert max(reference_weights(f, reference).values()) > small.thresholds.level(0)
    report = verify_run(small, f, cons, reference)
    assert [c.name for c in report.failed()] == ["scale-covers-reference"]
    assert report.leftover == reference
    # so does a reference weight that is not positive (edge 1 adds nothing)
    cons = singleton_parity(UniformMatroid(3, 2))
    f = ModularObjective({0: 4, 1: 0, 2: 2})
    trace = RunTrace(scale=4.0, alpha=1.0, epsilon=0.5)
    trace.add_level(1, [Improvement(1, (0,), ())])
    trace.add_level(3, [Improvement(1, (2,), ())])
    assert verify_run(trace, f, cons, frozenset({0, 2})).ok
    report = verify_run(trace, f, cons, frozenset({0, 1}))
    assert [c.name for c in report.failed()] == ["scale-covers-reference"]


def test_verify_run_rejects_small_d():
    # and a d that is not finite: inf * 0 is NaN, which fails checks that
    # hold at every finite d
    cons, f = analysis_instance(1)
    out, trace = solved(f, cons, seed=1)
    for d in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="d must be a finite number >= 2"):
            verify_run(trace, f, cons, pruned_optimum(f, cons), d=d)


def test_verify_report_json_shape():
    cons, f = analysis_instance(4)
    out, trace = solved(f, cons, seed=4)
    report = verify_run(trace, f, cons, pruned_optimum(f, cons))
    payload = report.to_json()
    assert payload["ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "charging-chain" in names and "discrepancy-bound" in names
    assert all(type(c) is CheckReport and c.violations == [] for c in report.checks)


# ------------------------------------------------------- float grid weights

DESK_PARITY = {"k": 2, "n_vertices": 10, "n_edges": 10, "rank": 5}


def test_float_cut_gain_of_rounding_size_verifies():
    # the pick's exact gain is ~2e-16 where the float weights cancel, so
    # the run jumps to level 55 (threshold 1.6e-16) and adds edge 5, whose
    # insertion weight, the difference of two whole-set values each rounded
    # once, is 4 times that; the bracket must accept it
    params = DESK_PARITY | {"matroid": "graphic", "objective": "cut"}
    cons, f = generate_instance("random-parity", params, 34)
    weights = [0.7, 0.1, 2.3, 0.3, 0.7, 0.7, 0.3, 1.1, 0.7, 0.3, 0.3]
    assert len(f.links) == len(weights)
    f = regridded(f, lambda n: weights)
    _, trace = solved(f, cons, seed=3)
    top = trace.iterations[-1]
    assert (top.index, top.selected) == (55, (5,))
    assert insertion_weights(trace, f)[5] == 8.881784197001252e-16
    assert 0.0 < top.threshold < 1e-15
    report = verify_run(trace, f, cons, pruned_optimum(f, cons))
    assert report.ok, [(c.name, c.violations) for c in report.failed()]


def test_zero_insertion_weight_fails_the_bracket():
    # edge 0 adds nothing at a level whose threshold is 4
    cons = singleton_parity(UniformMatroid(2, 2))
    f = ModularObjective({0: 0, 1: 4})
    fake = RunTrace(scale=4.0, alpha=1.0, epsilon=0.5)
    fake.add_level(1, [Improvement(1, (0,), ())])
    assert fake.iterations[0].threshold == 4.0
    report = verify_run(fake, f, cons, frozenset({1}), d=2.0)
    (bracket,) = [c for c in report.failed() if c.name == "level-weight-bracket"]
    assert bracket.violations == [(1, 0, 0.0, 4.0)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 299),
    matroid=st.sampled_from(("uniform", "partition", "graphic")),
    objective=st.sampled_from(("modular", "coverage", "cut")),
    solver_seed=st.sampled_from((3, 11)),
    data=st.data(),
)
def test_float_grid_weights_agree_and_verify(seed, matroid, objective, solver_seed, data):
    params = DESK_PARITY | {"matroid": matroid, "objective": objective}
    cons, f = generate_instance("random-parity", params, seed)
    grid = st.sampled_from(WEIGHT_GRID)
    f = regridded(f, lambda n: data.draw(st.lists(grid, min_size=n, max_size=n)))
    config = SolverConfig(epsilon=0.5, seed=solver_seed)
    ref_out, ref = run_reference(f, cons, config)
    out, trace = run_efficient(f, cons, config)
    assert out == ref_out
    assert trace.applied_sequence() == ref.applied_sequence()
    assert trace.improvement_count <= (1 + 2 / config.epsilon) * len(cons.edge_ids)
    replayed = trace_from_json(json.loads(json.dumps(trace_to_json(trace))))
    assert replayed == trace
    assert (replayed.final, replayed.insertion_order) == (trace.final, trace.insertion_order)
    report = verify_run(trace, f, cons, pruned_optimum(f, cons))
    assert report.ok, [(c.name, c.violations) for c in report.failed()]


# ------------------------------------------------------- whole-set queries


def float_battery():
    """Desk-scale runs of every matroid x objective family with weights
    from WEIGHT_GRID, as (cons, f, trace, brute-force best)."""
    rng = rng_for(26)
    out = []
    for seed in range(3):
        for matroid in ("uniform", "partition", "graphic"):
            for objective in ("modular", "coverage", "cut"):
                params = DESK_PARITY | {"matroid": matroid, "objective": objective}
                cons, f = generate_instance("random-parity", params, seed)
                f = regridded(
                    f, lambda n: [WEIGHT_GRID[i] for i in rng.integers(len(WEIGHT_GRID), size=n)]
                )
                _, trace = solved(f, cons, seed=3)
                out.append((cons, f, trace, brute_force_opt(f, cons)[0]))
    return out


def spy_on_values(monkeypatch):
    """The list of edge sets ``ValueOracle.value`` is asked from now on."""
    asked = []
    value = ValueOracle.value

    def spy(f, edge_set):
        asked.append(frozenset(edge_set))
        return value(f, edge_set)

    monkeypatch.setattr(ValueOracle, "value", spy)
    return asked


def test_weights_and_pruning_ask_each_whole_set_once(monkeypatch):
    battery = float_battery()
    asked = spy_on_values(monkeypatch)
    for cons, f, trace, best in battery:
        for order, weights in [
            (trace.insertion_order, lambda: insertion_weights(trace, f)),
            (sorted(best), lambda: reference_weights(f, best)),
        ]:
            asked.clear()
            got = weights()
            # each prefix once, the empty one first
            assert asked == [frozenset(order[:i]) for i in range(len(order) + 1)]
            assert got == reference_prefix_marginals(f, order)

        # the whole ground is not feasible, but it has more to prune
        for start in (best, frozenset(cons.edge_ids)):
            asked.clear()
            want = reference_prune_down_monotone(f, start)
            tried = len(asked) // 2  # the reference asks f(O) again per tried element
            asked.clear()
            pruned = prune_down_monotone(f, start)
            assert pruned == want
            passes = len(start) - len(pruned) + 1  # each pass but the last removes one
            assert len(asked) == passes + tried
            assert asked.count(start) == 1


def test_verifier_reports_equal_the_whole_set_loops(monkeypatch):
    for cons, f, trace, best in float_battery():
        reference = prune_down_monotone(f, best)
        assert reference == reference_prune_down_monotone(f, best)
        report = verify_run(trace, f, cons, reference).to_json()
        with monkeypatch.context() as patched:
            patched.setattr(analysis, "_prefix_marginals", reference_prefix_marginals)
            assert verify_run(trace, f, cons, reference).to_json() == report
