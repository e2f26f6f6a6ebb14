"""Outside-in tracer for the parityls layers.

The tracer wraps public functions and oracle methods of the package from
the outside (the package itself is never edited) and records one span per
call: the layer function's name, the span that called it, the phase it
ran in (a solver mode, ``verify`` or ``setup``), its duration, its self
time (duration minus the time covered by its child spans) and a small
integer tag (the move kind a scan returned, or whether a feasibility
query accepted). Spans stay in memory as flat arrays and are folded into
per-layer metrics by ``layer_metrics``.

Query counts come only from these wrappers; the counters the package
keeps on its own objects are never read.
"""

import time
from array import array
from contextlib import contextmanager

import numpy as np

from parityls import analysis, bench, exchange, nonmonotone, solver
from parityls.kparity import KParityConstraint
from parityls.matroid import MatroidOracle
from parityls.objective import ValueOracle

VALUE = "objective.value"
INDEPENDENT = "matroid.is_independent"
FEASIBLE = "kparity.feasible"
SCAN = "solver.find_improvement"
SINGLETON = "solver.max_singleton_marginal"
DRIVER = "solver.driver"
DOUBLE_GREEDY = "nonmonotone.double_greedy"
EXCHANGE = "analysis.exchange_structure"
GREENE_MAGNANTI = "exchange.greene_magnanti"
BRUTE_FORCE = "bench.brute_force_opt"
VERIFY_RUN = "analysis.verify_run"
GENERATE = "bench.generate_instance"
ROUNDTRIP = "instances.json_roundtrip"
PHASE = "phase"

# (owner, attribute, span name); the owner is a class for oracle methods
# and a module for functions looked up through module globals at call time
TARGETS = (
    (ValueOracle, "value", VALUE),
    (MatroidOracle, "is_independent", INDEPENDENT),
    (KParityConstraint, "feasible", FEASIBLE),
    (solver, "find_improvement", SCAN),
    (solver, "max_singleton_marginal", SINGLETON),
    (solver, "run_efficient", DRIVER),
    (solver, "run_reference", DRIVER),
    (nonmonotone, "run_efficient", DRIVER),
    (nonmonotone, "double_greedy", DOUBLE_GREEDY),
    (analysis, "exchange_structure", EXCHANGE),
    (exchange, "greene_magnanti", GREENE_MAGNANTI),
    (bench, "brute_force_opt", BRUTE_FORCE),
    (analysis, "verify_run", VERIFY_RUN),
    (bench, "generate_instance", GENERATE),
)

ORIGINALS = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in TARGETS}


def assert_unwrapped():
    """Raise unless every traced attribute holds the package's own code."""
    for (owner, attr), original in ORIGINALS.items():
        if owner.__dict__[attr] is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped")


def _scan_tag(result):
    return 0 if result is None else result.kind


def _feasible_tag(result):
    return 1 if result else 0


TAGGERS = {SCAN: _scan_tag, FEASIBLE: _feasible_tag}


class Tracer:
    """Span store plus the wrappers that feed it.

    Spans are appended when they open, so a child can name its parent by
    index before the parent closes. ``phases`` are the root spans the
    benchmark opens around each solve, verification and set-up step.
    """

    def __init__(self):
        self.names = [PHASE]
        self.phases = [None]
        self.name_ids = {PHASE: 0}
        self.phase_ids = {None: 0}
        self.name = array("H")
        self.parent = array("q")
        self.phase = array("H")
        self.dur = array("d")
        self.self_time = array("d")
        self.tag = array("b")
        self._stack = []
        self._starts = []
        self._child = []
        self._cur_phase = 0
        # per phase: [driver runs, levels, improvements, improvement budget]
        self.runs = {}

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase.append(self._cur_phase)
        self.dur.append(0.0)
        self.self_time.append(0.0)
        self.tag.append(0)
        self._stack.append(idx)
        self._child.append(0.0)
        self._starts.append(time.perf_counter())
        return idx

    def _close(self, idx, tag):
        end = time.perf_counter()
        self._stack.pop()
        d = end - self._starts.pop()
        self.dur[idx] = d
        self.self_time[idx] = d - self._child.pop()
        self.tag[idx] = tag
        if self._child:
            self._child[-1] += d

    @contextmanager
    def phase_span(self, phase):
        """Root span for one step of the benchmark, e.g. one solve in a mode."""
        if self._stack:
            raise RuntimeError("phase spans must not nest")
        if phase not in self.phase_ids:
            self.phase_ids[phase] = len(self.phases)
            self.phases.append(phase)
        self._cur_phase = self.phase_ids[phase]
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx, 0)
            self._cur_phase = 0

    @contextmanager
    def span(self, name):
        """Span opened by the benchmark itself around a step it performs."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx, 0)

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        tagger = TAGGERS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            tag = -1
            try:
                result = fn(*args, **kwargs)
                tag = tagger(result) if tagger else 0
            finally:
                self._close(idx, tag)
            return result

        if name != DRIVER:
            return traced

        def traced_driver(f, cons, config, rng=None):
            final, trace = traced(f, cons, config, rng)
            stats = self.runs.setdefault(self.phases[self._cur_phase], [0, 0, 0, 0.0])
            stats[0] += 1
            stats[1] += len(trace.iterations)
            stats[2] += trace.improvement_count
            stats[3] += (1.0 + 2.0 / config.epsilon) * len(cons.edge_ids)
            return final, trace

        return traced_driver

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        assert_unwrapped()
        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self._wrap(name, ORIGINALS[(owner, attr)]))
            yield self
        finally:
            for (owner, attr), original in ORIGINALS.items():
                setattr(owner, attr, original)
        assert_unwrapped()

    def columns(self):
        """Span arrays as numpy views: name, parent name, phase, dur, self, tag."""
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        return (
            name,
            parent_name,
            np.frombuffer(self.phase, dtype=np.uint16),
            np.frombuffer(self.dur, dtype=np.float64),
            np.frombuffer(self.self_time, dtype=np.float64),
            np.frombuffer(self.tag, dtype=np.int8),
        )


def layer_metrics(tracer, modes):
    """Fold the recorded spans into the per-layer metrics (see README.md)."""
    name, parent_name, phase, dur, self_time, tag = tracer.columns()
    # a layer or phase that recorded no span gets an id no span carries
    nid = {n: tracer.name_ids.get(n, -1) for n in (
        VALUE, INDEPENDENT, FEASIBLE, SCAN, DRIVER, DOUBLE_GREEDY, EXCHANGE,
        GREENE_MAGNANTI, BRUTE_FORCE, VERIFY_RUN, GENERATE, ROUNDTRIP,
    )}
    is_ = {n: name == i for n, i in nid.items()}

    def in_phase(p):
        return phase == tracer.phase_ids.get(p, -1)

    def count(mask):
        return int(np.count_nonzero(mask))

    def total(values, mask):
        return float(values[mask].sum())

    out = {}
    for mode in modes:
        here = in_phase(mode)
        value = is_[VALUE] & here
        top = is_[INDEPENDENT] & here & (parent_name != nid[INDEPENDENT])
        feasible = is_[FEASIBLE] & here
        calls = count(feasible)
        out[f"{mode}.objective.value.calls"] = count(value)
        out[f"{mode}.objective.value.s"] = total(dur, value)
        out[f"{mode}.matroid.is_independent.calls"] = count(top)
        out[f"{mode}.matroid.is_independent.slice_calls"] = count(
            is_[INDEPENDENT] & here & (parent_name == nid[INDEPENDENT])
        )
        out[f"{mode}.matroid.is_independent.s"] = total(dur, top)
        out[f"{mode}.kparity.feasible.calls"] = calls
        out[f"{mode}.kparity.feasible.self_s"] = total(self_time, feasible)
        out[f"{mode}.kparity.feasible.accept_ratio"] = (
            count(feasible & (tag == 1)) / calls if calls else 0.0
        )
        if mode == "greedy":
            continue
        scan = is_[SCAN] & here
        for kind, label in ((1, "kind1"), (2, "kind2"), (3, "kind3"), (0, "none")):
            out[f"{mode}.solver.scan.calls.{label}"] = count(scan & (tag == kind))
            out[f"{mode}.solver.scan.s.{label}"] = total(dur, scan & (tag == kind))
        out[f"{mode}.solver.scan.self_s"] = total(self_time, scan)
        # the next-level search runs inline in the drivers, so it is every
        # oracle query whose direct caller is a driver span
        under_driver = here & (parent_name == nid[DRIVER])
        next_value = is_[VALUE] & under_driver
        next_feasible = is_[FEASIBLE] & under_driver
        out[f"{mode}.solver.next_level.s"] = total(dur, next_value | next_feasible)
        out[f"{mode}.solver.next_level.value_calls"] = count(next_value)
        out[f"{mode}.solver.next_level.feasibility_calls"] = count(next_feasible)
        runs, levels, improvements, budget = tracer.runs.get(mode, [0, 0, 0, 0.0])
        out[f"{mode}.solver.levels"] = levels
        out[f"{mode}.solver.improvements"] = improvements
        out[f"{mode}.solver.budget_used"] = improvements / budget if budget else 0.0

    here = in_phase("nonmonotone")
    out["nonmonotone.rounds"] = tracer.runs.get("nonmonotone", [0])[0]
    out["nonmonotone.double_greedy.s"] = total(dur, is_[DOUBLE_GREEDY] & here)
    out["nonmonotone.double_greedy.value_calls"] = count(
        is_[VALUE] & here & (parent_name == nid[DOUBLE_GREEDY])
    )

    here = in_phase("verify")
    out["exchange.exchange_structure.calls"] = count(is_[EXCHANGE] & here)
    out["exchange.exchange_structure.s"] = total(dur, is_[EXCHANGE] & here)
    out["exchange.greene_magnanti.calls"] = count(is_[GREENE_MAGNANTI] & here)
    out["exchange.greene_magnanti.s"] = total(dur, is_[GREENE_MAGNANTI] & here)
    out["analysis.verify_run.self_s"] = total(self_time, is_[VERIFY_RUN] & here)
    out["bench.brute_force_opt.s"] = total(dur, is_[BRUTE_FORCE] & here)

    here = in_phase("setup")
    out["bench.generate_instance.s"] = total(dur, is_[GENERATE] & here)
    out["instances.json_roundtrip.s"] = total(dur, is_[ROUNDTRIP] & here)
    return out
