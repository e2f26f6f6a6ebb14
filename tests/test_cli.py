"""End-to-end CLI flows: gen, solve, verify, bench."""

import json
from pathlib import Path

import pytest

from parityls import bench
from parityls.analysis import prune_down_monotone
from parityls.bench import greedy_baseline
from parityls.cli import main
from parityls.instances import load_instance, load_trace, trace_to_json


def test_gen_solve_verify_roundtrip(tmp_path, capsys):
    instance = tmp_path / "instance.json"
    trace = tmp_path / "trace.json"
    report = tmp_path / "report.json"

    assert main(
        [
            "gen",
            "--kind",
            "random-parity",
            "--params",
            '{"objective": "coverage", "n_edges": 4, "n_vertices": 6, "rank": 3}',
            "--seed",
            "5",
            "--out",
            str(instance),
        ]
    ) == 0
    assert instance.exists()

    assert main(
        [
            "solve",
            "--instance",
            str(instance),
            "--mode",
            "hybrid",
            "--epsilon",
            "0.5",
            "--seed",
            "3",
            "--out",
            str(trace),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "selected:" in out and "value:" in out
    assert trace.exists()

    assert main(
        [
            "verify",
            "--instance",
            str(instance),
            "--trace",
            str(trace),
            "--out",
            str(report),
        ]
    ) == 0
    payload = json.loads(report.read_text())
    assert payload["ok"] is True
    assert any(c["name"] == "charging-chain" for c in payload["checks"])


def test_solve_reference_and_nonmonotone(tmp_path, capsys):
    instance = tmp_path / "cut.json"
    main(
        [
            "gen",
            "--kind",
            "random-parity",
            "--params",
            '{"objective": "cut", "n_edges": 4}',
            "--seed",
            "2",
            "--out",
            str(instance),
        ]
    )
    assert main(["solve", "--instance", str(instance), "--mode", "hybrid-reference"]) == 0
    assert main(["solve", "--instance", str(instance), "--mode", "nonmonotone"]) == 0
    out = capsys.readouterr().out
    assert "rounds:" in out


def test_bench_writes_csv_and_json(tmp_path, capsys):
    out = tmp_path / "batch"
    assert main(
        [
            "bench",
            "--generator",
            "random-parity",
            "--params",
            '{"count": 2, "objective": "modular"}',
            "--mode",
            "hybrid",
            "--trials",
            "3",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    ) == 0
    lines = (tmp_path / "batch.csv").read_text().splitlines()
    assert lines[0].startswith("instance_id,seed,alpha,solver")
    assert len(lines) == 7
    payload = json.loads((tmp_path / "batch.json").read_text())
    assert len(payload["rows"]) == 6
    assert len(payload["summary"]) == 2


def test_bench_requires_one_source(tmp_path, capsys):
    instance = tmp_path / "instance.json"
    main(["gen", "--kind", "random-parity", "--seed", "1", "--out", str(instance)])
    capsys.readouterr()
    out = str(tmp_path / "x")
    for sources in ([], ["--instance", str(instance), "--generator", "random-parity"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--out", out] + sources)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            "error: bench: needs exactly one of --instance / --generator\n"
        )
    assert not list(tmp_path.glob("x*"))


def test_gen_prints_to_stdout_without_out(capsys):
    assert main(["gen", "--kind", "k-partition-intersection", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "constraint" in payload and "objective" in payload


@pytest.mark.parametrize(
    "text, reason",
    [
        (
            '{"constraint": {"k": 2, "edges": []}, "objective": {}}',
            "missing key 'matroid'",
        ),
        ("{not json", "Expecting property name"),
        ('{"constraint": {"k": 2, "matroid": {"type": "uniform", "ground": 2, '
         '"rank": 1}, "edges": [[0]]}, "objective": {"modular": {"weights": '
         '[[0, NaN]]}}}', "non-finite weight"),
        ('{"constraint": {"k": 1, "matroid": {"type": "uniform", "ground": 2, '
         '"rank": 1}, "edges": [[0], [1]]}, "objective": {"modular": {"weights": '
         '[[0, 1.0]]}}}', "objective modular weights: missing edge ids [1]"),
        ('{"constraint": {"k": 1, "matroid": {"type": "uniform", "ground": 2, '
         '"rank": 1}, "edges": [[0], [1]], "edge_ids": [4]}, "objective": '
         '{"cut": {"weights": []}}}', "constraint edge_ids: 1 ids for 2 edges"),
        ('{"constraint": {"k": 1, "matroid": {"type": "uniform", "ground": 2, '
         '"rank": 1}, "edges": [[0], [1]], "edge_ids": [4, 5, 6]}, "objective": '
         '{"cut": {"weights": []}}}', "constraint edge_ids: 3 ids for 2 edges"),
        ('{"constraint": {"k": 1, "matroid": {"type": "uniform", "ground": 2, '
         '"rank": 1}, "edges": [[0], [1]]}, "objective": {"modular": {"weights": '
         '[[0, 5], [1, 3], [0, 1]]}}}', "objective modular weights: duplicate edge ids [0]"),
        ('{"constraint": {"intersection": [{"type": "uniform", "ground": 3, "rank": 1}], '
         '"edge_ids": [0, 0, 1]}, "objective": {"cut": {"weights": []}}}',
         "constraint edge_ids: duplicate edge ids [0]"),
        # integer fields: a bool or a fraction fails at load, not in solve
        ('{"constraint": {"k": 1, "matroid": {"type": "graphic", "nodes": 3, "links": '
         '[[0, 1.5]]}, "edges": [[0]]}, "objective": {"cut": {"weights": []}}}',
         "graphic link (0, 1.5) needs integer endpoints in [0, 3)"),
        ('{"constraint": {"k": 1, "matroid": {"type": "graphic", "nodes": 4.5, "links": '
         '[[0, 1]]}, "edges": [[0]]}, "objective": {"cut": {"weights": []}}}',
         "graphic nodes 4.5 is not an integer"),
        # a negative node count, even with no link or edge to trip on
        ('{"constraint": {"k": 1, "matroid": {"type": "graphic", "nodes": -4, "links": []}, '
         '"edges": []}, "objective": {"cut": {"weights": []}}}',
         "graphic nodes -4 is not an integer >= 0"),
        ('{"constraint": {"k": 1, "matroid": {"type": "uniform", "ground": 1, "rank": 1}, '
         '"edges": [[0]]}, "objective": {"coverage": {"item_weights": [1.0, 2.0], '
         '"covers": [[0, [1.5]]]}}}', "edge 0 covers item id 1.5, which is not an integer"),
        ('{"constraint": {"k": 1, "matroid": {"type": "uniform", "ground": 1, "rank": 1}, '
         '"edges": [[0]]}, "objective": {"coverage": {"item_weights": [1.0, 2.0], '
         '"covers": [[0, [true]]]}}}', "edge 0 covers item id True, which is not an integer"),
        ('{"constraint": {"k": 2.5, "matroid": {"type": "uniform", "ground": 1, "rank": 1}, '
         '"edges": [[0]]}, "objective": {"cut": {"weights": []}}}', "k 2.5 is not an integer >= 1"),
        ('{"constraint": {"k": true, "matroid": {"type": "uniform", "ground": 1, "rank": 1}, '
         '"edges": [[0]]}, "objective": {"cut": {"weights": []}}}', "k True is not an integer >= 1"),
        ('{"constraint": {"k": 1, "matroid": {"type": "partition", "blocks": [[0]], '
         '"capacities": [1.5]}, "edges": [[0]]}, "objective": {"cut": {"weights": []}}}',
         "partition capacity 1.5 is not an integer >= 0"),
        ('{"constraint": {"k": 1, "matroid": {"type": "partition", "blocks": [[0, true]], '
         '"capacities": [1]}, "edges": [[0]]}, "objective": {"cut": {"weights": []}}}',
         "partition blocks: vertex ids must be integers"),
        ('{"constraint": {"k": 1, "matroid": {"type": "uniform", "ground": 3, "rank": 1.5}, '
         '"edges": [[0]]}, "objective": {"cut": {"weights": []}}}',
         "uniform ground 3 and rank 1.5 must be integers"),
        ('{"constraint": {"k": 1, "matroid": {"type": "graphic", "nodes": 3, "links": '
         '[[0, 1], [1, 2]]}, "edges": [[0], [1.0]]}, "objective": {"cut": {"weights": []}}}',
         "edge 1 has a vertex id that is not an integer"),
        ('{"constraint": {"k": 1, "matroid": {"type": "explicit", "ground": true, '
         '"independent": [[], [0]]}, "edges": [[0]]}, "objective": {"cut": {"weights": []}}}',
         "explicit ground True is not an integer >= 0"),
        # finite link weights whose total no float holds
        ('{"constraint": {"k": 1, "matroid": {"type": "uniform", "ground": 3, "rank": 3}, '
         '"edges": [[0], [1], [2]]}, "objective": {"cut": {"weights": '
         '[[0, 1, 1e308], [0, 2, 1e308], [1, 2, 1.0]]}}}',
         "cut weights sum to more than the largest float"),
        # an integer weight no float holds, in each family and as w0
        *[
            pytest.param(json.dumps({"constraint": {"k": 1, "matroid": {"type": "uniform",
                         "ground": 2, "rank": 2}, "edges": [[0], [1]]}, "objective": objective}),
                         reason, id=f"huge-{name}")
            for name, objective, reason in [
                ("modular", {"modular": {"weights": [[0, 1], [1, 10**400]]}},
                 "edge 1 weight is too large for a float"),
                ("w0", {"modular": {"weights": [[0, 1], [1, 2]], "w0": 10**400}},
                 "w0 weight is too large for a float"),
                ("coverage", {"coverage": {"item_weights": [1, 10**400],
                                           "covers": [[0, [0]], [1, [1]]]}},
                 "item 1 weight is too large for a float"),
                ("cut", {"cut": {"weights": [[0, 1, 2], [1, 0, 10**400]]}},
                 "link (1, 0) weight is too large for a float"),
            ]
        ],
    ],
)
def test_malformed_instance_is_one_line_error(tmp_path, capsys, text, reason):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good_trace = tmp_path / "trace.json"
    good_trace.write_text("[]")
    for argv in (
        ["solve", "--instance", str(bad)],
        ["verify", "--instance", str(bad), "--trace", str(good_trace)],
        ["bench", "--instance", str(bad), "--out", str(tmp_path / "out")],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and reason in err
        assert err.count("\n") == 1


def test_string_cut_weight_is_one_line_error(tmp_path, capsys):
    instance = tmp_path / "instance.json"
    params = '{"objective": "cut", "n_edges": 4, "n_vertices": 6}'
    main(["gen", "--kind", "random-parity", "--params", params, "--out", str(instance)])
    payload = json.loads(instance.read_text())
    payload["objective"]["cut"]["weights"][0][2] = "5"
    instance.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--instance", str(instance)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {instance}: link (") and "weight '5' is not a number" in err
    assert err.count("\n") == 1


def test_malformed_trace_is_one_line_error(tmp_path, capsys):
    instance = tmp_path / "instance.json"
    main(["gen", "--kind", "random-parity", "--seed", "1", "--out", str(instance)])
    trace = tmp_path / "trace.json"
    trace.write_text('{"scale": 1.0}')
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--instance", str(instance), "--trace", str(trace)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"error: {trace}: missing key 'alpha'\n"


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["solve", "--epsilon", "1.5"], "argument --epsilon: '1.5' is not a number in (0, 1)"),
        (["solve", "--epsilon", "nan"], "argument --epsilon: 'nan' is not a number in (0, 1)"),
        (["solve", "--ell", "-1"], "argument --ell: '-1' is not an integer >= 0"),
        (["verify", "--trace", "t.json", "--d", "1"], "argument --d: '1' is not a number >= 2"),
        (["verify", "--trace", "t.json", "--d", "-5"], "argument --d: '-5' is not a number >= 2"),
        (["bench", "--out", "x", "--trials", "0"], "argument --trials: '0' is not an integer >= 1"),
        (["bench", "--out", "x", "--params", "{bad"], "argument --params: '{bad' is not a JSON"),
        (["gen", "--kind", "bogus"], "argument --kind: invalid choice: 'bogus'"),
        (["gen", "--kind", "random-parity", "--params", "[1]"], "is not a JSON object"),
        (["solve", "--seed", "-1"], "argument --seed: '-1' is not an integer >= 0"),
        (["solve", "--mode", "nonmonotone", "--seed", "-1"], "argument --seed: '-1' is not"),
        (["bench", "--out", "x", "--instance", "i.json", "--seed", "-1"],
         "argument --seed: '-1' is not an integer >= 0"),
        (["bench", "--out", "x", "--generator", "random-parity", "--seed", "-1"],
         "argument --seed: '-1' is not an integer >= 0"),
        (["gen", "--kind", "random-parity", "--seed", "-1"],
         "argument --seed: '-1' is not an integer >= 0"),
        (["verify", "--trace", "t.json", "--d", "inf"], "argument --d: 'inf' is not a number >= 2"),
    ],
)
def test_bad_option_is_one_line_error(capsys, argv, reason):
    if argv[0] in ("solve", "verify"):
        argv = argv + ["--instance", str(DATA / "instance.json")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("mode", ["greedy", "nonmonotone"])
def test_solve_out_needs_a_run_trace(tmp_path, capsys, mode):
    out = tmp_path / "trace.json"
    argv = ["solve", "--instance", str(DATA / "instance.json"), "--mode", mode, "--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"error: --out: mode {mode} keeps no run trace to write\n"
    assert not out.exists()


def test_solve_out_writes_the_committed_trace(tmp_path, capsys):
    # data/solve-seed3.json is what this command wrote before the trace
    # held its run's value context; the context must not reach the file
    out = tmp_path / "trace.json"
    argv = ["solve", "--instance", str(DATA / "instance.json"), "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / "solve-seed3.json").read_bytes()


def test_verify_checks_trace_edges_and_legacy_keys(tmp_path, capsys):
    instance = str(DATA / "instance.json")
    assert main(["verify", "--instance", instance, "--trace", str(DATA / "trace.json")]) == 0
    capsys.readouterr()
    unknown = trace_to_json(load_trace(DATA / "trace.json"))
    unknown["iterations"][2]["improvements"][0]["added"] = [99]
    tampered = dict(json.loads((DATA / "trace.json").read_text()), shift=1.0)
    for payload, reason in [
        (unknown, "unknown edge ids [99]"),
        (tampered, "trace key 'shift' is 1.0"),
    ]:
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--instance", instance, "--trace", str(path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {reason}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "params, rule",
    [
        ('{"k": 0}', "need k >= 1, n_vertices >= 0, n_edges >= 0"),
        ('{"n_edges": -1}', "need k >= 1, n_vertices >= 0, n_edges >= 0"),
        ('{"matroid": "graphic", "n_nodes": 1}', "need n_nodes >= 2 for a graphic matroid"),
        ('{"objective": "nope"}', "unknown objective family 'nope'"),
        ('{"weight_lo": 5, "weight_hi": 1}', "need weight_lo <= weight_hi"),
        ('{"objective": "cut", "weight_hi": 0}', "need weight_hi >= 1 for a cut objective"),
        ('{"objective": "coverage", "n_items": 0}', "need n_items >= 1 for a coverage objective"),
        ('{"k": null}', "need k of type int, got None"),
        ('{"objective": "cut", "link_prob": null}', "need link_prob of type float, got None"),
        ('{"objective": "cut", "link_prob": 2}', "need 0 <= link_prob <= 1, got 2.0"),
        ('{"n_edge": 5}', "unknown generator parameters ['n_edge']"),
        ('{"k": 2.9}', "need k of type int, got 2.9"),
        ('{"k": true}', "need k of type int, got True"),
        ('{"n_edges": 3.7}', "need n_edges of type int, got 3.7"),
    ],
)
def test_bad_generator_params_are_one_line_error(tmp_path, capsys, params, rule):
    for argv in (
        ["gen", "--kind", "random-parity", "--params", params],
        ["bench", "--generator", "random-parity", "--params", params,
         "--out", str(tmp_path / "out")],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"error: --params: {rule}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda t: t["iterations"][1].update(index=3.5), "level index 3.5 is not an integer"),
        (lambda t: t["iterations"][0].update(index=True), "level index True is not an integer"),
        (lambda t: t["iterations"][2].update(index=10**400),
         "level index is too large for a float"),
        (lambda t: t["iterations"][0]["improvements"][0].update(kind=7),
         "level 1: move of kind 7 adding 1 and removing 0 edges is not a move"),
        (lambda t: t["iterations"][1]["improvements"][1].update(removed=[]),
         "level 3: move of kind 2 adding 1 and removing 0 edges is not a move"),
    ],
)
def test_trace_off_the_lattice_or_with_a_foreign_move_is_one_line_error(
    tmp_path, capsys, edit, reason
):
    payload = json.loads((DATA / "trace.json").read_text())
    edit(payload)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--instance", str(DATA / "instance.json"), "--trace", str(path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {reason}") and err.count("\n") == 1


def fresh_trace():
    """The fixture trace without its legacy keys."""
    return trace_to_json(load_trace(DATA / "trace.json"))


@pytest.mark.parametrize(
    "draw, reason",
    [
        ({"epsilon": 1e9}, "epsilon 1000000000.0 does not lie in (0, 1)"),
        ({"epsilon": float("nan")}, "epsilon nan does not lie in (0, 1)"),
        ({"scale": -5}, "scale -5 is not positive; the empty run has no levels"),
        ({"scale": 0}, "scale 0 is not positive; the empty run has no levels"),
        ({"scale": 1e308}, "scale 1e+308 gives a top threshold of inf, which is not finite"),
        ({"scale": 10**400}, "scale is too large for a float"),
    ],
)
def test_trace_with_a_bad_draw_is_one_line_error(tmp_path, capsys, draw, reason):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(dict(fresh_trace(), **draw)))
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--instance", str(DATA / "instance.json"), "--trace", str(path)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"


def test_infeasible_trace_is_a_failed_check(tmp_path, capsys):
    # level 4 adds edge 0 instead of 4; edges 0 and 3 then share a
    # partition block of capacity 1
    payload = fresh_trace()
    payload["iterations"][2]["improvements"][0]["added"] = [0]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", "--instance", str(DATA / "instance.json"), "--trace", str(path)]) == 1
    out, err = capsys.readouterr()
    assert [c["name"] for c in json.loads(out)["checks"] if not c["ok"]] == ["partition-feasible"]
    assert err == "FAILED checks: partition-feasible\n"


def test_empty_run_against_nonempty_reference_is_a_failed_check(tmp_path, capsys):
    # an empty run (scale <= 0, no levels) loads, but the instance's
    # pruned reference is not empty, so no run on it can draw scale -5
    payload = dict(fresh_trace(), scale=-5, iterations=[])
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", "--instance", str(DATA / "instance.json"), "--trace", str(path)]) == 1
    out, err = capsys.readouterr()
    assert [c["name"] for c in json.loads(out)["checks"] if not c["ok"]] == ["scale-positive"]
    assert err == "FAILED checks: scale-positive\n"


@pytest.mark.parametrize(
    "ids, reason",
    [
        ("[999]", "unknown edge ids [999]"),
        ('{"a": 1}', "need a JSON list of edge ids"),
        ("[0, 1, 2, 3, 4, 5]", "reference set is not feasible"),
    ],
)
def test_bad_reference_is_one_line_error(tmp_path, capsys, ids, reason):
    reference = tmp_path / "ids.json"
    reference.write_text(ids)
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--instance", str(DATA / "instance.json"),
              "--trace", str(DATA / "trace.json"), "--reference", str(reference)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"error: {reference}: {reason}\n"


def test_verify_beyond_brute_force_needs_a_reference(tmp_path, capsys):
    instance, trace, reference = (tmp_path / name for name in ("i.json", "t.json", "r.json"))
    params = '{"k": 2, "n_vertices": 56, "n_edges": 32, "matroid": "graphic"}'
    main(["gen", "--kind", "random-parity", "--params", params, "--out", str(instance)])
    main(["solve", "--instance", str(instance), "--out", str(trace)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--instance", str(instance), "--trace", str(trace)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        f"error: {instance}: 32 edges, more than brute force reaches (20); "
        "pass --reference ids.json\n"
    )
    cons, f = load_instance(instance)
    reference.write_text(json.dumps(sorted(prune_down_monotone(f, greedy_baseline(f, cons)))))
    assert main(["verify", "--instance", str(instance), "--trace", str(trace),
                 "--reference", str(reference), "--out", str(tmp_path / "report.json")]) == 0


@pytest.mark.parametrize(
    "params, rule",
    [('{"count": null}', "need count of type int, got None"), ('{"count": 0}', "need count >= 1")],
)
def test_bad_bench_count_is_one_line_error(tmp_path, capsys, params, rule):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--generator", "random-parity", "--params", params,
              "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"error: --params: {rule}\n"
    assert not list(tmp_path.iterdir())


def test_gen_refuses_the_bench_batch_size(capsys):
    # only bench --generator reads count; gen would ignore it and write one
    # instance
    with pytest.raises(SystemExit) as exit_info:
        main(["gen", "--kind", "random-parity", "--params", '{"count": 5}'])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        "error: --params: unknown generator parameters ['count'] (count sizes a bench batch)\n"
    )


def refuse(*args, **kwargs):
    raise AssertionError("bench ran a solve before it opened its --out files")


@pytest.mark.parametrize("command", ["gen", "solve", "verify", "bench"])
def test_out_into_a_missing_directory_is_one_line_error(tmp_path, capsys, monkeypatch, command):
    # verify must not end with its status 1 of failed checks, nor any
    # command with a traceback; bench names the <out>.csv it opens first,
    # before it solves anything or takes a brute-force reference
    if command == "bench":
        for name in ("solve", "brute_force_opt"):
            monkeypatch.setattr(bench, name, refuse)
    out = tmp_path / "missing" / "out.json"
    instance = str(DATA / "instance.json")
    argv = {
        "gen": ["gen", "--kind", "random-parity"],
        "solve": ["solve", "--instance", instance],
        "verify": ["verify", "--instance", instance, "--trace", str(DATA / "trace.json")],
        "bench": ["bench", "--instance", instance],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}") and err.endswith(": No such file or directory\n")
    assert err.count("\n") == 1
