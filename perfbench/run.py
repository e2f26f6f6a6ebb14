"""Benchmark for the parityls solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The seed fixes the workload's instances (see workloads.py).
Set-up generates them and round-trips each through instance JSON, as
``parityls gen`` followed by ``parityls solve`` would. A pass then solves
every instance in every mode (epsilon 0.5, solver seed 3) and runs the
verifier on the desk-scale ones. Passes repeat for about ``--seconds``
seconds, at least once; timings are medians over passes.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported.
With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones (see tracer.py).

Every pass is checked: each returned set must be feasible, the two
hybrid drivers must return the same set through the same moves, the
answers must match the previous pass and, for the default seed, the
digests committed in digests.json, and every verifier report must be ok.
An operation (one solve in one mode, or one verification) that breaks a
check, or raises, counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from workloads import MODES, WORKLOADS, instance_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

EPSILON = 0.5
SOLVER_SEED = 3
DEFAULT_SEED = 0
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 25
SETUP_MIN_S = 1.0
# calibration loop time on an unloaded x86_64 core, and how much measured
# work runs between two calibrations
CAL_REF_S = 0.002
CHUNK_S = 0.025


def load_package():
    """Import parityls from this checkout's sources and nowhere else."""
    if not (SRC / "parityls" / "__init__.py").is_file():
        raise SystemExit(f"error: no parityls sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import parityls

    if Path(parityls.__file__).resolve().parent != SRC / "parityls":
        raise SystemExit(f"error: parityls imported from {parityls.__file__}")


def calibration_loop():
    """Fixed pure-Python work shaped like the solver's inner loops: set
    unions, sorting, dict lookups and a union-find. It never touches the
    package, so no change to the package can speed it up."""
    table = {i: (i * 7919) % 101 for i in range(256)}
    base = frozenset(range(0, 90, 3))
    acc = 0
    for r in range(250):
        grown = base | {r % 256, (r * 5) % 256}
        parent = list(range(48))
        for x in sorted(grown):
            u, v = x % 48, (x * 7 + 1) % 48
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u != v:
                parent[u] = v
            acc += table[x]
        acc -= sum(1 for x in grown if table[x] > 50)
    return acc


def calibrate():
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


class ScaledClock:
    """Sums of measured intervals, rescaled to a reference core speed.

    The speed of one core of a shared host drifts, by up to 2x within a
    minute, with the load of other tenants. So the calibration loop runs
    between chunks of about CHUNK_S of measured work, and each chunk is
    scaled by CAL_REF_S over the mean of the calibrations around it: a
    slowdown that hits the host hits both and cancels. ``raw`` keeps the
    unscaled sums.
    """

    def __init__(self):
        self.scaled = {}
        self.raw = {}
        self.factors = []
        self._chunk = []
        self._chunk_s = 0.0
        self._cal = calibrate()

    def add(self, key, seconds):
        self._chunk.append((key, seconds))
        self._chunk_s += seconds
        if self._chunk_s >= CHUNK_S:
            self.flush()

    def flush(self):
        """Close the current chunk; call before reading the sums."""
        if not self._chunk:
            return
        cal = calibrate()
        factor = 2.0 * CAL_REF_S / (self._cal + cal)
        self.factors.append(factor)
        for key, seconds in self._chunk:
            self.scaled[key] = self.scaled.get(key, 0.0) + seconds * factor
            self.raw[key] = self.raw.get(key, 0.0) + seconds
        self._cal = cal
        self._chunk = []
        self._chunk_s = 0.0


@dataclass
class Instance:
    cons: object
    f: object
    verify: bool


def set_up(workload, seed, clock=None, tracer=None):
    """Generate the workload's instances and round-trip each through
    instance JSON; ``clock`` collects the time per instance as "setup"."""
    from parityls import bench, instances
    from tracer import ROUNDTRIP

    out = []
    for g, group in enumerate(WORKLOADS[workload]):
        for i in range(group.count):
            t0 = time.perf_counter()
            cons, f = bench.generate_instance(
                group.kind, group.params, instance_seed(seed, workload, g, i)
            )
            with tracer.span(ROUNDTRIP) if tracer else nullcontext():
                text = json.dumps(instances.instance_to_json(cons, f), indent=2, sort_keys=True)
                cons, f = instances.instance_from_json(json.loads(text))
            if clock:
                clock.add("setup", time.perf_counter() - t0)
            out.append(Instance(cons, f, group.verify))
    return out


def solve(mode, inst):
    """One solve, dispatched the way ``parityls solve --mode`` does."""
    from parityls import bench, nonmonotone, solver

    if mode == "greedy":
        return bench.greedy_baseline(inst.f, inst.cons), None
    if mode == "nonmonotone":
        config = nonmonotone.RepetitionsConfig(epsilon=EPSILON, seed=SOLVER_SEED)
        return nonmonotone.repetitions_with_trace(inst.f, inst.cons, config)
    driver = solver.run_efficient if mode == "hybrid" else solver.run_reference
    return driver(inst.f, inst.cons, solver.SolverConfig(epsilon=EPSILON, seed=SOLVER_SEED))


def verify(inst, trace):
    """What ``parityls verify`` does after loading its inputs."""
    from parityls import analysis, bench

    best, _ = bench.brute_force_opt(inst.f, inst.cons)
    reference = analysis.prune_down_monotone(inst.f, best)
    return analysis.verify_run(trace, inst.f, inst.cons, reference)


def _guarded(call, *args):
    try:
        return call(*args)
    except Exception:  # one failed operation must not stop the run
        traceback.print_exc(file=sys.stderr)
        return None


def _outcome(mode, result):
    final, trace = result
    if mode == "greedy":
        return [sorted(final)]
    if mode == "nonmonotone":
        return [sorted(final), [[sorted(r.selected), sorted(r.refined)] for r in trace.rounds]]
    moves = [[i, m.kind, list(m.added), list(m.removed)] for i, m in trace.applied_sequence()]
    return [sorted(final), moves]


def committed_digests(workload, seed):
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text())["digests"].get(workload)


def record_digests(workload, found):
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {
        "seed": DEFAULT_SEED, "digests": {}
    }
    data["digests"][workload] = found
    DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class Gate:
    """Correctness checks, run on each instance as soon as it is solved so
    that no pass keeps its answers alive (a growing heap would make the
    collector's pauses part of the timings).

    An operation is one solve in one mode, or one verification. It fails
    when it raises, returns an infeasible set, when the two hybrid drivers
    differ in final set or applied moves, when a verifier report is not
    ok, or when its mode's digest over the pass differs from the expected
    one: the committed digest on the first pass, the first pass's after.
    """

    def __init__(self, insts, expected):
        self.insts = insts
        self.expected = expected
        self.first = None  # digests of the first pass
        self.values = None  # per-mode sums of f over the first pass's answers
        self.attempted = 0
        self.failed = 0

    def start_pass(self):
        self._hashes = {mode: hashlib.sha256() for mode in MODES}
        self._values = dict.fromkeys(MODES, 0.0)
        self._failed = set()

    def check(self, i, row, report):
        inst = self.insts[i]
        for mode in MODES:
            self.attempted += 1
            res = row[mode]
            self._hashes[mode].update(
                json.dumps(None if res is None else _outcome(mode, res)).encode()
            )
            if res is None or not inst.cons.feasible(res[0]):
                self._failed.add((i, mode))
            else:
                self._values[mode] += inst.f.value(res[0])
        fast, ref = row["hybrid"], row["hybrid-reference"]
        if fast and ref and (
            fast[0] != ref[0] or fast[1].applied_sequence() != ref[1].applied_sequence()
        ):
            self._failed.update({(i, "hybrid"), (i, "hybrid-reference")})
        if inst.verify:
            self.attempted += 1
            if report is None or not report.ok:
                self.failed += 1

    def end_pass(self):
        found = {mode: h.hexdigest()[:16] for mode, h in self._hashes.items()}
        expected = self.expected if self.first is None else self.first
        for mode in MODES:
            if expected is not None and found[mode] != expected[mode]:
                print(f"answers of mode {mode} differ from digest {expected[mode]}",
                      file=sys.stderr)
                self._failed.update((i, mode) for i in range(len(self.insts)))
        if self.first is None:
            self.first, self.values = found, self._values
        self.failed += len(self._failed)


@dataclass
class Pass:
    wall: float  # unscaled, for pacing the run
    clock: ScaledClock  # per mode and "verify"

    @property
    def measured(self):
        return sum(self.clock.scaled.values())


def run_pass(insts, gate, tracer=None):
    """Solve every instance in every mode and verify the verifiable ones."""
    gc.collect()
    clock = ScaledClock()
    gate.start_pass()
    started = time.perf_counter()
    for i, inst in enumerate(insts):
        row = {}
        for mode in MODES:
            t0 = time.perf_counter()
            with tracer.phase_span(mode) if tracer else nullcontext():
                row[mode] = _guarded(solve, mode, inst)
            clock.add(mode, time.perf_counter() - t0)
        report = None
        if inst.verify and row["hybrid"] is not None:
            t0 = time.perf_counter()
            with tracer.phase_span("verify") if tracer else nullcontext():
                report = _guarded(verify, inst, row["hybrid"][1])
            clock.add("verify", time.perf_counter() - t0)
        gate.check(i, row, report)
    clock.flush()
    gate.end_pass()
    return Pass(time.perf_counter() - started, clock)


def run_untraced(args):
    """Set up several times, then run passes; returns the gate, the passes
    and the end-to-end metrics."""
    from tracer import assert_unwrapped

    setup_times, raw_total = [], 0.0
    while len(setup_times) < SETUP_MIN_REPS or (
        raw_total < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS
    ):
        gc.collect()
        clock = ScaledClock()
        insts = set_up(args.workload, args.seed, clock)
        clock.flush()
        setup_times.append(clock.scaled["setup"])
        raw_total += clock.raw["setup"]
    gc.freeze()  # the instances live all run; keep them out of every collection
    gate = Gate(insts, committed_digests(args.workload, args.seed))

    passes = []
    started = time.perf_counter()
    while True:
        assert_unwrapped()
        passes.append(run_pass(insts, gate))
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - started + typical > args.seconds:
            break

    metrics = {"setup_s": statistics.median(setup_times)}
    for mode in MODES:
        metrics[f"{mode}.solve_s"] = statistics.median(p.clock.scaled[mode] for p in passes)
    metrics["verify_s"] = statistics.median(p.clock.scaled["verify"] for p in passes)
    for mode in ("hybrid", "nonmonotone"):
        metrics[f"{mode}.value_vs_greedy"] = gate.values[mode] / gate.values["greedy"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return gate, passes, metrics


def run_traced(args):
    """Alternate untraced and traced passes; returns the gate, the passes
    and the per-layer metrics (medians over the traced passes)."""
    from tracer import Tracer, assert_unwrapped, layer_metrics

    tracer = Tracer()
    with tracer.installed(), tracer.phase_span("setup"):
        insts = set_up(args.workload, args.seed, tracer=tracer)
    setup = layer_metrics(tracer, ())
    gc.freeze()
    gate = Gate(insts, committed_digests(args.workload, args.seed))

    plain, traced, layers = [], [], []
    started = time.perf_counter()
    while True:
        assert_unwrapped()
        plain.append(run_pass(insts, gate))
        tracer = Tracer()
        with tracer.installed():
            traced.append(run_pass(insts, gate, tracer))
        layers.append(layer_metrics(tracer, MODES))
        tracer = None
        typical = statistics.median(p.wall for p in plain) + statistics.median(
            p.wall for p in traced
        )
        if time.perf_counter() - started + typical > args.seconds:
            break

    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    for k in ("bench.generate_instance.s", "instances.json_roundtrip.s"):
        metrics[k] = setup[k]
    metrics["trace.overhead_frac"] = (
        statistics.median(p.measured for p in traced)
        / statistics.median(p.measured for p in plain)
        - 1.0
    )
    return gate, plain + traced, metrics


def environment():
    import numpy

    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}, {platform.machine()}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help=f"store this run's answer digests as the reference (seed {DEFAULT_SEED} only)",
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_package()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")

    runner = run_traced if args.trace else run_untraced
    gate, passes, metrics = runner(args)
    if args.record_digests:
        record_digests(args.workload, gate.first)
    attempted, failed = gate.attempted, gate.failed

    listed = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in listed} != set(metrics):
        raise SystemExit(
            "error: metrics differ from BENCHMARK.json: "
            f"{sorted({m['name'] for m in listed} ^ set(metrics))}"
        )
    factor = statistics.median(f for p in passes for f in p.clock.factors)
    print(f"workload {args.workload}, seed {args.seed}, {len(gate.insts)} instances, "
          f"{len(passes)} passes; {environment()}; times scaled by {factor:.3f} "
          "(calibration loop)")
    for m in listed:
        print(f"  {m['name']:<52} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<52} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
