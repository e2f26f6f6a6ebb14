"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see
them all). Batteries are seeded, so the suite is deterministic.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from parityls.analysis import prune_down_monotone, verify_run
from parityls.bench import brute_force_opt, generate_instance
from parityls.exchange import exchange_claim_violations, exchange_structure
from parityls.nonmonotone import RepetitionsConfig, repetitions_with_trace
from parityls.objective import CutObjective, ModularObjective
from parityls.solver import SolverConfig, run_efficient, run_reference
from util import (
    analysis_instance,
    double_greedy_exact_expectation,
    exchange_scale_instance,
    random_feasible_set,
    rng_for,
    simulate_ratios,
    solver_instance,
    subsets,
)

LN2 = math.log(2.0)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def quality_factor(d):
    return (1.0 - 1.0 / d) / (2.0 * LN2) + (d + 1.0) / (2.0 * d)


@pytest.fixture(scope="module")
def equivalence_battery():
    """200 seeded instances (k in 1..3, up to 10 edges, all families),
    each solved by both drivers at eps 0.1 or 0.5."""
    runs = []
    solver_seconds = 0.0
    for seed in range(200):
        cons, f = solver_instance(seed)
        eps = 0.1 if seed % 2 else 0.5
        config = SolverConfig(epsilon=eps, seed=seed)
        started = time.monotonic()
        ref_out, ref_trace = run_reference(f, cons, config)
        eff_out, eff_trace = run_efficient(f, cons, config)
        solver_seconds += time.monotonic() - started
        runs.append((cons, f, eps, ref_out, ref_trace, eff_out, eff_trace))
    return runs, solver_seconds


def test_criterion_1_simulation_equivalence(equivalence_battery):
    runs, solver_seconds = equivalence_battery
    mismatches = [
        i
        for i, (_, _, _, ref_out, ref_trace, eff_out, eff_trace) in enumerate(runs)
        if ref_out != eff_out
        or ref_trace.applied_sequence() != eff_trace.applied_sequence()
    ]
    ks = {cons.k for cons, *_ in runs}
    families = {type(f) for _, f, *_ in runs}
    sizes = {len(cons.edge_ids) for cons, *_ in runs}
    ok = (
        not mismatches
        and solver_seconds < 60.0
        and len(runs) >= 200
        and ks == {1, 2, 3}
        and len(families) == 3
        and max(sizes) <= 10
    )
    report(
        1,
        ok,
        f"{len(runs)} instances (k {sorted(ks)}, {len(families)} families, "
        f"max {max(sizes)} edges), {len(mismatches)} mismatches, "
        f"{solver_seconds:.2f}s solver time",
    )


def test_criterion_2_local_optimality(equivalence_battery):
    runs, _ = equivalence_battery
    violations = 0
    for cons, f, _, ref_out, ref_trace, _, _ in runs:
        f_out = f.value(ref_out)
        for e in cons.edge_ids:
            if e in ref_out or not cons.feasible(ref_out | {e}):
                continue
            if f.value(ref_out | {e}) - f_out > 0:
                violations += 1
        settled = frozenset()
        for rec in ref_trace.iterations:
            settled = settled | frozenset(rec.selected)
            f_settled = f.value(settled)
            for e in cons.edge_ids:
                if e in settled or not cons.feasible(settled | {e}):
                    continue
                if not f.value(settled | {e}) - f_settled < rec.threshold:
                    violations += 1
    report(2, violations == 0, f"{len(runs)} runs, {violations} violations")


def test_criterion_3_improvement_budget(equivalence_battery):
    runs, _ = equivalence_battery
    breaches = []
    eps_seen = set()
    for cons, _, eps, _, ref_trace, _, eff_trace in runs:
        eps_seen.add(eps)
        budget = (1.0 + 2.0 / eps) * len(cons.edge_ids)
        for trace in (ref_trace, eff_trace):
            if trace.improvement_count > budget:
                breaches.append((eps, trace.improvement_count, budget))
    ok = not breaches and eps_seen == {0.1, 0.5}
    report(3, ok, f"eps {sorted(eps_seen)}, {len(breaches)} budget breaches")


def test_criterion_4_charging_suite():
    instances = 0
    failures = []
    for seed in range(500):
        cons, f = analysis_instance(seed)
        eps = 0.1 if seed % 5 == 0 else 0.5
        _, trace = run_efficient(f, cons, SolverConfig(epsilon=eps, seed=seed))
        best, _ = brute_force_opt(f, cons)
        reference = prune_down_monotone(f, best)
        for d in (2.0, 2.0 * math.sqrt(cons.k)):
            rep = verify_run(trace, f, cons, reference, d=d)
            if not rep.ok:
                failures.append((seed, d, [c.name for c in rep.failed()]))
        instances += 1
    report(4, instances >= 500 and not failures, f"{instances} instances, {failures[:3]} failures")


def test_criterion_5_exchange_claims():
    checked = 0
    broken = []
    seed = 0
    while checked < 300 and seed < 1500:
        cons, _ = exchange_scale_instance(seed)
        rng = rng_for(50_000 + seed)
        a = random_feasible_set(cons, rng)
        b = random_feasible_set(cons, rng)
        seed += 1
        witness = exchange_structure(cons, a, b)
        problems = exchange_claim_violations(cons, a, b, witness)
        if problems:
            broken.append((seed, problems))
        checked += 1
    report(5, checked >= 300 and not broken, f"{checked} pairs, {len(broken)} with violations")


def test_criterion_6_ratio_distribution():
    scale, weight = 1.0, 0.3
    alphas = 1.0 - rng_for(60_915).random(100_000)
    r, rho = simulate_ratios(scale, weight, alphas, d=2.0)

    beta = np.sort(np.log2(r))
    n = len(beta)
    grid = np.arange(1, n + 1) / n
    ks = float(max(np.max(grid - beta), np.max(beta - (grid - 1.0 / n))))

    mean_r = float(r.mean())
    mean_rho = float(rho.mean())
    target_r = 1.0 / LN2
    target_rho = quality_factor(2.0)
    assert abs(target_rho - 1.1107) < 5e-5

    ok = (
        ks < 0.01
        and abs(mean_r - target_r) <= 0.01 * target_r
        and abs(mean_rho - target_rho) <= 0.01 * target_rho
    )
    report(
        6,
        ok,
        f"KS {ks:.4f}, mean r {mean_r:.4f} (target {target_r:.4f}), "
        f"mean rho {mean_rho:.4f} (target {target_rho:.4f})",
    )


def test_criterion_7_double_greedy_guarantee():
    cases = [
        (CutObjective([(i, (i + 1) % 12, (i % 3) + 1) for i in range(12)]), range(12)),
        (ModularObjective({i: w for i, w in enumerate([4, 0, 7, 2, 1, 9])}), range(6)),
    ]
    for seed in range(20):
        cons, f = solver_instance(seed, families=("coverage", "cut"), max_edges=8)
        cases.append((f, cons.edge_ids))
    checked = 0
    worst = None
    for f, ground in cases:
        assert len(list(ground)) <= 12
        exact = double_greedy_exact_expectation(f, ground)
        best = max(Fraction(f.value(s)) for s in subsets(ground))
        assert exact >= best / 2  # exact rational comparison, no tolerance
        slack = float(exact - best / 2)
        if worst is None or slack < worst:
            worst = slack
        checked += 1
    report(7, checked == len(cases), f"{checked} functions, min slack {worst:.4f}")


def _monte_carlo_ratio_ok(cons, f, runner, trials, bound):
    best, opt = brute_force_opt(f, cons)
    assert opt > 0
    values = np.empty(trials)
    for trial in range(trials):
        chosen = runner(trial)
        assert cons.feasible(chosen)
        values[trial] = f.value(chosen)
    mean = values.mean()
    se = values.std(ddof=1) / math.sqrt(trials)
    return opt <= bound * (mean + 3.0 * se), opt / mean, mean, se


def test_criterion_8_linear_ratio():
    eps = 0.1
    k = 2
    bound = (k + 1 + 2 * eps) * LN2
    results = []
    for inst_seed in (1, 2, 3):
        cons, f = generate_instance(
            "k-partition-intersection",
            {"k": k, "n_elements": 6, "objective": "modular"},
            seed=inst_seed,
        )

        def runner(trial):
            out, _ = run_efficient(
                f, cons, SolverConfig(epsilon=eps, seed=10_000 * inst_seed + trial)
            )
            return out

        ok, ratio, mean, se = _monte_carlo_ratio_ok(cons, f, runner, 2000, bound)
        results.append((ok, ratio))
    all_ok = all(ok for ok, _ in results)
    report(
        8,
        all_ok,
        f"bound {bound:.3f}, observed ratios "
        + ", ".join(f"{r:.3f}" for _, r in results),
    )


def test_criterion_9_monotone_submodular_ratio():
    eps = 0.1
    k = 2
    d = 2.0 * math.sqrt(k)
    bound = (k + d + 1 + 2 * eps) / quality_factor(d)
    results = []
    for inst_seed in (4, 5, 6):
        cons, f = generate_instance(
            "k-partition-intersection",
            {"k": k, "n_elements": 6, "objective": "coverage"},
            seed=inst_seed,
        )

        def runner(trial):
            out, _ = run_efficient(
                f, cons, SolverConfig(epsilon=eps, seed=20_000 * inst_seed + trial)
            )
            return out

        ok, ratio, mean, se = _monte_carlo_ratio_ok(cons, f, runner, 2000, bound)
        results.append((ok, ratio))
    all_ok = all(ok for ok, _ in results)
    report(
        9,
        all_ok,
        f"bound {bound:.3f}, observed ratios "
        + ", ".join(f"{r:.3f}" for _, r in results),
    )


def test_criterion_10_nonmonotone_wrapper():
    eps = 0.5
    results = []
    for k, inst_seed in ((2, 7), (2, 8), (3, 9)):
        ell = math.ceil(4.0 * k ** (2.0 / 3.0))
        d = 2.0 * k ** (1.0 / 3.0)
        quality = quality_factor(d)
        bound = ell * (k + d + quality * (ell - 1) + 1 + 2 * eps) / (quality * ell - d)
        cons, f = generate_instance(
            "random-parity",
            {
                "k": k,
                "n_vertices": 9,
                "n_edges": 6,
                "objective": "cut",
                "link_prob": 0.7,
                "rank": 4,
            },
            seed=inst_seed,
        )

        def runner(trial):
            config = RepetitionsConfig(ell=ell, epsilon=eps, seed=30_000 * inst_seed + trial)
            best, trace = repetitions_with_trace(f, cons, config)
            for rec in trace.rounds:
                assert cons.feasible(rec.selected) and cons.feasible(rec.refined)
            return best

        ok, ratio, mean, se = _monte_carlo_ratio_ok(cons, f, runner, 200, bound)
        results.append((ok, k, bound, ratio))
    all_ok = all(ok for ok, *_ in results)
    report(
        10,
        all_ok,
        "; ".join(f"k={k} bound {b:.2f} observed {r:.3f}" for _, k, b, r in results),
    )
