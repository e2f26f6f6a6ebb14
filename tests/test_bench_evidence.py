"""Committed benchmark evidence: every ``BENCH_*.json`` at the repo root
holds only passing perfbench results whose metrics are finite numbers
with units. Results are found by shape (an object with a ``correct``
key), not by the metric list of the current benchmark, so files written
for an older benchmark stay valid."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def results(node):
    """Every perfbench result object in a parsed JSON tree."""
    if isinstance(node, dict):
        if "correct" in node:
            yield node
            return
        for value in node.values():
            yield from results(value)
    elif isinstance(node, list):
        for value in node:
            yield from results(value)


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_committed_results_pass_with_finite_metrics(path):
    found = list(results(json.loads(path.read_text())))
    assert found, "no perfbench result"
    for result in found:
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        assert result["metrics"]
        for name, metric in result["metrics"].items():
            value = metric["value"]
            assert type(value) in (int, float) and math.isfinite(value), name
            assert isinstance(metric["unit"], str) and metric["unit"], name
