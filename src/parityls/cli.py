"""Command-line front end: solve an instance, verify a trace against the
charging inequalities, run experiment batches, or generate instances.
"""

import argparse
import json
import math
import sys

from .analysis import prune_down_monotone, verify_run
from .bench import (
    BRUTE_FORCE_CAP,
    GENERATOR_KINDS,
    MODES,
    brute_force_opt,
    generate_instance,
    run_experiment,
    seeded_instances,
    solve,
)
from .instances import (
    instance_to_json,
    load_instance,
    load_trace,
    save_instance,
    save_trace,
)
from .solver import RunTrace


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A bad command line ends with one line on stderr and exit
        status 2, like a bad input file."""
        self.exit(2, f"error: {message}\n")


def _checked(convert, ok, rule):
    """argparse type: ``convert`` the text, then require ``ok(value)``."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")

    return parse


_EPSILON = _checked(float, lambda x: 0 < x < 1, "a number in (0, 1)")
_COUNT = _checked(int, lambda x: x >= 0, "an integer >= 0")
_PARAMS = _checked(json.loads, lambda x: isinstance(x, dict), "a JSON object")


def build_parser():
    parser = _Parser(
        prog="parityls",
        description=(
            "Hybrid greedy/local-search maximization of submodular functions "
            "under matroid k-parity constraints"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--mode", default="hybrid", choices=MODES)
    solve.add_argument("--epsilon", type=_EPSILON, default=0.5)
    solve.add_argument("--seed", type=_COUNT, default=0)
    solve.add_argument("--ell", type=_COUNT, default=0)
    solve.add_argument(
        "--out", default="", help="write the run trace here (JSON; hybrid modes only)"
    )

    verify = sub.add_parser("verify", help="check a trace against an instance")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--trace", required=True)
    verify.add_argument(
        "--d",
        type=_checked(float, lambda x: 2 <= x < math.inf, "a number >= 2"),
        help="discrepancy weight, finite and at least 2 (default 2*sqrt(k))",
    )
    verify.add_argument(
        "--reference",
        default="",
        help="JSON list of edge ids to verify against (default: pruned brute-force optimum)",
    )
    verify.add_argument("--out", default="", help="write the report here (JSON)")

    bench = sub.add_parser("bench", help="run a batch of trials, write CSV + JSON")
    bench.add_argument("--instance", default="")
    bench.add_argument("--generator", default="", choices=GENERATOR_KINDS)
    bench.add_argument("--params", type=_PARAMS, default="{}", help="generator params as JSON")
    bench.add_argument("--mode", default="hybrid", choices=MODES)
    bench.add_argument(
        "--trials", type=_checked(int, lambda x: x >= 1, "an integer >= 1"), default=1
    )
    bench.add_argument("--epsilon", type=_EPSILON, default=0.5)
    bench.add_argument("--seed", type=_COUNT, default=0)
    bench.add_argument("--ell", type=_COUNT, default=0)
    bench.add_argument("--out", required=True)

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    gen.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    gen.add_argument("--params", type=_PARAMS, default="{}", help="generator params as JSON")
    gen.add_argument("--seed", type=_COUNT, default=0)
    gen.add_argument("--out", default="", help="output path (default stdout)")

    return parser


def _fail(where, reason):
    print(f"error: {where}: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _load(loader, path):
    """``loader(path)``; a file that cannot be read or parsed (a
    json.JSONDecodeError is a ValueError) ends the command with one line
    on stderr and exit status 2 instead of a traceback."""
    try:
        return loader(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        _fail(path, f"missing key {exc}" if isinstance(exc, KeyError) else exc)


def _generate(draw, kind, params, seed):
    """``draw(kind, params, seed)``, ``generate_instance`` or
    ``seeded_instances``; generator parameters it rejects end the command
    with one line on stderr and exit status 2."""
    try:
        return draw(kind, params, seed)
    except ValueError as exc:
        _fail("--params", exc)


def _read_ids(path):
    with open(path, encoding="utf-8") as fh:
        ids = json.load(fh)
    if not isinstance(ids, list) or not all(type(x) is int for x in ids):
        raise ValueError("need a JSON list of edge ids")
    return frozenset(ids)


def _cmd_solve(args):
    if args.out and args.mode in ("greedy", "nonmonotone"):
        _fail("--out", f"mode {args.mode} keeps no run trace to write")
    cons, f = _load(load_instance, args.instance)
    chosen, trace = solve(
        args.mode, f, cons, epsilon=args.epsilon, seed=args.seed, ell=args.ell
    )
    if args.mode == "nonmonotone":
        print(f"rounds: {len(trace.rounds)}")
    print(f"selected: {sorted(chosen)}")
    print(f"value: {f.value(chosen):.12g}")
    if isinstance(trace, RunTrace):
        print(f"alpha: {trace.alpha:.12g}")
        print(f"improvements: {trace.improvement_count}")
        if args.out:
            save_trace(args.out, trace)
            print(f"trace written to {args.out}")
    return 0


def _cmd_verify(args):
    cons, f = _load(load_instance, args.instance)
    trace = _load(load_trace, args.trace)
    unknown = {x for _, imp in trace.applied_sequence() for x in imp.added} - set(cons.edge_ids)
    if unknown:
        _fail(args.trace, f"unknown edge ids {sorted(unknown)}")
    if args.reference:
        reference = _load(_read_ids, args.reference)
        unknown = reference - set(cons.edge_ids)
        if unknown:
            _fail(args.reference, f"unknown edge ids {sorted(unknown)}")
        if not cons.feasible(reference):
            _fail(args.reference, "reference set is not feasible")
    elif len(cons.edge_ids) > BRUTE_FORCE_CAP:
        _fail(args.instance, f"{len(cons.edge_ids)} edges, more than brute force "
              f"reaches ({BRUTE_FORCE_CAP}); pass --reference ids.json")
    else:
        reference, _ = brute_force_opt(f, cons)
    reference = prune_down_monotone(f, reference)
    report = verify_run(trace, f, cons, reference, d=args.d)
    payload = report.to_json()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if not report.ok:
        failed = ", ".join(c.name for c in report.failed())
        print(f"FAILED checks: {failed}", file=sys.stderr)
        return 1
    print("all checks passed", file=sys.stderr)
    return 0


def _cmd_bench(args):
    if bool(args.instance) == bool(args.generator):
        _fail("bench", "needs exactly one of --instance / --generator")
    # the whole batch is loaded or drawn, or fails cleanly, before it runs
    if args.instance:
        instances = [(args.instance, *_load(load_instance, args.instance))]
    else:
        instances = _generate(seeded_instances, args.generator, args.params, args.seed)
    result = run_experiment(
        instances,
        args.mode,
        seed=args.seed,
        trials=args.trials,
        epsilon=args.epsilon,
        ell=args.ell,
        out=args.out,
    )
    print(f"wrote {len(result['rows'])} rows to {args.out}.csv")
    return 0


def _cmd_gen(args):
    cons, f = _generate(generate_instance, args.kind, args.params, args.seed)
    if args.out:
        save_instance(args.out, cons, f)
        print(f"instance written to {args.out}")
    else:
        print(json.dumps(instance_to_json(cons, f), indent=2, sort_keys=True))
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:  # _load reports reads, so an --out that cannot be written
        _fail(exc.filename or args.command, exc.strerror or exc)


if __name__ == "__main__":
    raise SystemExit(main())
