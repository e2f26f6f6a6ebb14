"""Value oracles: marginals, telescoping, and the exhaustive property
checkers on the three concrete families."""

import math
import random
import sys
from itertools import combinations

import numpy as np
import pytest

from parityls.matroid import CheckReport
from parityls.objective import (
    CHECK_CAP,
    CoverageObjective,
    CutObjective,
    ModularObjective,
    check_monotone,
    check_submodular,
)


def subsets(elems):
    elems = sorted(elems)
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            yield frozenset(combo)


def test_modular_marginals():
    f = ModularObjective({0: 3, 1: 5, 2: -1})
    assert f.value({0, 1}) - f.value({0}) == 5
    assert f.value({0, 1, 2}) == 7


def test_coverage_marginal_excludes_shared_item():
    # item 0 sits in both edges, so the second edge only adds item 2
    f = CoverageObjective([4.0, 1.0, 2.0], {0: {0, 1}, 1: {0, 2}})
    assert f.value({0, 1}) - f.value({0}) == 2.0
    assert f.value({0, 1}) == 7.0


@pytest.mark.parametrize("covers", [{0: {0, 1}, 1: {0, 2}}, {0: set()}, {}])
def test_an_empty_cover_weighs_a_float(covers):
    # an empty set, and a set of edges that cover no item, weigh 0.0
    f = CoverageObjective([4.0, 1.0, 2.0], covers)
    for s in (frozenset(), frozenset(e for e, items in covers.items() if not items)):
        for value in (f.value(s), f.context(s).value):
            assert type(value) is float and float.hex(value) == "0x0.0p+0"


def test_cut_single_link():
    f = CutObjective([(0, 1, 1.0)])
    assert f.value({0}) == 1.0
    assert f.value({0, 1}) == 0.0
    assert f.value(frozenset()) == 0.0


def test_value_telescopes_along_any_order():
    f = CoverageObjective([2, 3, 5, 1], {0: {0, 1}, 1: {1, 2}, 2: {3}})
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        total = f.value(frozenset())
        prefix = frozenset()
        for e in order:
            total += f.value(prefix | {e}) - f.value(prefix)
            prefix = prefix | {e}
        assert total == f.value(prefix)


def test_query_counter():
    f = ModularObjective({0: 1})
    before = f.calls
    f.value({0})
    f.value({0}) - f.value(frozenset())
    assert f.calls == before + 3


def test_modular_checks():
    f = ModularObjective({0: 3, 1: 5, 2: -1})
    assert check_submodular(f, [0, 1, 2]) == CheckReport("submodular", [])
    assert check_monotone(f, [0, 1, 2]) == CheckReport(
        "monotone", [((), 2), ((0,), 2), ((1,), 2), ((0, 1), 2)]
    )
    assert check_monotone(ModularObjective({0: 3, 1: 5, 2: 0}), [0, 1, 2]).ok


def test_coverage_checks():
    f = CoverageObjective(
        [3, 1, 4, 1, 5], {0: {0, 1}, 1: {1, 2, 3}, 2: {0, 4}, 3: {2}}
    )
    assert check_submodular(f, range(4)).ok
    assert check_monotone(f, range(4)).ok


def test_cut_triangle_checks():
    f = CutObjective([(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
    assert check_submodular(f, range(3)).ok
    assert not check_monotone(f, range(3)).ok


def test_checker_flags_supermodular_function():
    table = {frozenset(): 0.0, frozenset({0}): 0.0, frozenset({1}): 0.0,
             frozenset({0, 1}): 5.0}
    report = check_submodular(lambda s: table[s], [0, 1])
    assert not report.ok
    assert ((), (1,), 0) in report.violations or ((), (0,), 1) in report.violations


@pytest.mark.parametrize("seed", range(5))
def test_checkers_allow_rounding_of_large_float_weights(seed):
    # a coverage and a cut objective on 9 edges with weights near 1e6..1e7
    # are submodular (and the coverage monotone), though their whole-set
    # float sums round differently; scaled by 1e6, the supermodular table
    # of test_checker_flags_supermodular_function is still flagged
    rng = random.Random(seed)
    coverage = CoverageObjective(
        [rng.uniform(1e6, 1e7) for _ in range(12)],
        {e: set(rng.sample(range(12), 4)) for e in range(9)},
    )
    cut = CutObjective(
        [(u, v, rng.uniform(1e6, 1e7)) for u in range(9) for v in range(u + 1, 9)
         if rng.random() < 0.5]
    )
    assert check_submodular(coverage, range(9)).ok
    assert check_monotone(coverage, range(9)).ok
    assert check_submodular(cut, range(9)).ok
    table = {frozenset(): 0.0, frozenset({0}): 0.0, frozenset({1}): 0.0,
             frozenset({0, 1}): 5e6}
    assert check_submodular(lambda s: table[s], [0, 1]).violations == [((), (1,), 0)]


def test_checkers_read_a_repeated_element_once():
    # a cut is submodular on any ground, and fifteen copies of one id are
    # a ground of one element, within the cap
    assert check_submodular(CutObjective([(0, 1, 1.0)]), [0, 0, 1]) == CheckReport("submodular", [])
    f = ModularObjective({0: 1.0})
    assert check_submodular(f, [0] * 15) == CheckReport("submodular", [])
    assert check_monotone(f, [0] * 15) == CheckReport("monotone", [])


def test_checker_refuses_large_grounds():
    f = ModularObjective({i: 1 for i in range(CHECK_CAP + 1)})
    with pytest.raises(ValueError):
        check_submodular(f, range(CHECK_CAP + 1))
    with pytest.raises(ValueError):
        check_monotone(f, range(CHECK_CAP + 1))


def test_family_validation():
    with pytest.raises(ValueError):
        ModularObjective({0: 1}, w0=-1.0)
    with pytest.raises(ValueError):
        CoverageObjective([-1.0], {0: {0}})
    with pytest.raises(ValueError):
        CoverageObjective([1.0], {0: {3}})
    with pytest.raises(ValueError):
        CutObjective([(0, 1, -2.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_name_the_culprit(bad):
    with pytest.raises(ValueError, match="edge 1"):
        ModularObjective({0: 1.0, 1: bad})
    with pytest.raises(ValueError, match="w0"):
        ModularObjective({0: 1.0}, w0=bad)
    with pytest.raises(ValueError, match="item 1"):
        CoverageObjective([1.0, bad], {0: {0, 1}})
    with pytest.raises(ValueError, match=r"link \(0, 2\)"):
        CutObjective([(0, 1, 1.0), (0, 2, bad)])


def test_weights_whose_total_overflows_a_float_are_refused():
    # each weight is finite, but no float holds the sum of their sizes,
    # which bounds every value and gain a family divides out of its units
    with pytest.raises(ValueError, match="modular weights sum to more than the largest float"):
        ModularObjective({0: 1e308, 1: -1e308})
    with pytest.raises(ValueError, match="modular weights"):
        ModularObjective({0: 1e308}, w0=1e308)
    with pytest.raises(ValueError, match="coverage weights"):
        CoverageObjective([1e308, 1e308], {0: {0}, 1: {1}})
    with pytest.raises(ValueError, match="cut weights"):
        CutObjective([(0, 1, 1e308), (0, 2, 1e308), (1, 2, 1.0)])
    # weights that sum to the largest float are kept, and every value and
    # gain they give is finite
    half = sys.float_info.max / 2
    for f in (
        ModularObjective({0: half, 1: -half}),
        CoverageObjective([half, half], {0: {0}, 1: {1}}),
        CutObjective([(0, 1, half), (0, 2, half)]),
    ):
        vals = f.context(())
        vals.move((0,))
        assert math.isfinite(vals.value) and math.isfinite(vals.gain((1,), (0,)))
    assert f.value({0}) == sys.float_info.max  # the cut of {0} takes both links


NOT_NUMBERS = ["3", True, None, [1.0]]


@pytest.mark.parametrize("bad", NOT_NUMBERS)
def test_modular_weights_must_be_numbers(bad):
    with pytest.raises(ValueError, match=r"edge 1 weight .* is not a number"):
        ModularObjective({0: 1.0, 1: bad})
    with pytest.raises(ValueError, match=r"w0 weight .* is not a number"):
        ModularObjective({0: 1.0}, w0=bad)
    f = ModularObjective({0: np.float64(2.5), 1: np.int64(3)}, w0=np.float32(1.0))
    assert f.value({0, 1}) == 6.5


@pytest.mark.parametrize("bad", NOT_NUMBERS)
def test_coverage_weights_must_be_numbers(bad):
    with pytest.raises(ValueError, match=r"item 1 weight .* is not a number"):
        CoverageObjective([1.0, bad], {0: {0, 1}})
    f = CoverageObjective([np.float64(0.5), np.int64(2)], {0: {0, 1}})
    assert f.value({0}) == 2.5


@pytest.mark.parametrize("bad", NOT_NUMBERS)
def test_cut_weights_must_be_numbers(bad):
    with pytest.raises(ValueError, match=r"link \(0, 2\) weight .* is not a number"):
        CutObjective([(0, 1, 1.0), (0, 2, bad)])
    f = CutObjective([(0, 1, np.float64(0.5)), (0, 2, np.int64(2))])
    assert f.value({0}) == f.context({0}).value == 2.5
