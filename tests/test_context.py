"""Independence, feasibility and value contexts: every family's context
must answer what the whole-set oracle answers for the changed set,
including around dependent bases, and count one query per question.
A feasibility context moved by ``move`` answers for the moved set, and
both kinds of context refuse a move that does not fit their base.
Every value and every gain, of any shape, is the exact figure rounded
once on any weights; the unchecked ``gain_of`` answers what ``gain``
answers for each edge, bit for bit, and ``fits`` what ``feasible``
answers, with the same counts but for a single add it found dependent
since the last removal, which it answers without a query; greedy and
double greedy, which ask value contexts, pick what their whole-set
loops pick, and the drivers and greedy bind each kind of context once
per run."""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityls.bench import generate_instance, greedy_baseline
from parityls.kparity import Edge, KParityConstraint
from parityls.matroid import GraphicMatroid
from parityls.nonmonotone import double_greedy
from parityls.objective import (
    CoverageObjective,
    CutObjective,
    ModularObjective,
    ValueOracle,
)
from parityls.solver import SolverConfig, run_efficient, run_reference
from util import WEIGHT_GRID, clipped_gains, matroids, solver_instance, subsets


def ground_subsets(ground):
    ground = sorted(ground)
    if not ground:
        return st.just(frozenset())
    return st.frozensets(st.sampled_from(ground))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_matroid_context_matches_whole_set_oracle(data):
    m = data.draw(matroids())
    base = data.draw(ground_subsets(m.ground))  # may be dependent
    ctx = m.context(base)
    # several questions per context, so cached removal states are reused
    queries = data.draw(
        st.lists(st.tuples(ground_subsets(m.ground), ground_subsets(m.ground)), max_size=6)
    )
    for add, remove in queries + queries:
        assert ctx.independent_with(add, remove) == m._independent((base - remove) | add)
    assert ctx.independent_with() == m._independent(base)


def test_forest_context_with_parallel_links_and_self_loops_exhaustively():
    m = GraphicMatroid(3, [(0, 1), (0, 1), (2, 2), (1, 2), (0, 2)])
    every = list(subsets(m.ground))
    for base in every:
        ctx = m.context(base)
        for add in every:
            for remove in every:
                assert ctx.independent_with(add, remove) == m._independent(
                    (base - remove) | add
                ), (base, add, remove)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_forest_context_moved_equals_a_fresh_context(data):
    # random multigraphs on few nodes, so parallel links, self-loops and
    # cycles are common; the base starts as a random forest
    n_nodes = data.draw(st.integers(1, 6))
    node = st.integers(0, n_nodes - 1)
    m = GraphicMatroid(n_nodes, data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=12)))
    ground = sorted(m.ground)
    base = m.max_independent_subset(data.draw(ground_subsets(ground)))
    ctx = m.context(base)
    probes = st.tuples(ground_subsets(ground), ground_subsets(ground))
    kinds = {"add": (1, 0), "swap": (1, 1), "two-for-one": (2, 1)}
    for _ in range(data.draw(st.integers(1, 6))):
        n_add, n_remove = kinds[data.draw(st.sampled_from(sorted(kinds)))]
        outside = [v for v in ground if v not in base]
        if len(outside) < n_add or len(base) < n_remove:
            break
        # adds may close a cycle; the removal's labels are cached or not
        add = frozenset(data.draw(st.permutations(outside))[:n_add])
        remove = frozenset(data.draw(st.permutations(sorted(base)))[:n_remove])
        if data.draw(st.booleans()):
            ctx.independent_with(add, remove)
        ctx = ctx.moved(add, remove)
        base = (base - remove) | add
        fresh = m._context(base)
        assert ctx.base == base and type(ctx) is type(fresh)
        for p_add, p_remove in data.draw(st.lists(probes, min_size=1, max_size=6)):
            assert ctx.independent_with(p_add, p_remove) == fresh.independent_with(
                p_add, p_remove
            ), (base, p_add, p_remove)


@st.composite
def constraints(draw):
    m = draw(matroids())
    k = draw(st.integers(1, 3))
    order = draw(st.permutations(sorted(m.ground)))
    edges, pos = [], 0
    while pos < len(order):
        size = draw(st.integers(1, k))
        edges.append(Edge(len(edges), frozenset(order[pos : pos + size])))
        pos += size
    return KParityConstraint(m, edges, k)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_constraint_context_matches_feasible_and_counts_each_query(data):
    cons = data.draw(constraints())
    ids = data.draw(ground_subsets(cons.edge_ids))
    ctx = cons.context(ids)
    queries = data.draw(
        st.lists(st.tuples(ground_subsets(cons.edge_ids), ground_subsets(cons.edge_ids)),
                 max_size=6)
    )
    for add, remove in queries:
        calls = cons.feasibility_calls
        answer = ctx.feasible(add, remove)
        assert cons.feasibility_calls == calls + 1
        assert answer == cons.feasible((ids - remove) | add)
        assert cons.feasibility_calls == calls + 2


# ------------------------------------------------------------ value contexts

# (edges added, edges removed) of each move shape the scans ask about
MOVE_SHAPES = ((1, 0), (1, 1), (2, 0), (2, 1), (0, 1))


@st.composite
def objectives(
    draw, integer=True, families=("modular", "coverage", "cut"), weight=None, signed=None
):
    """A modular (with w0) or coverage objective over edges 0..n-1, or a
    cut objective over nodes 0..n+1 with a self-loop and a parallel
    link; ``weight`` draws the weights if given, and ``signed`` the
    modular edge weights (``weight`` unless given)."""
    n = draw(st.integers(1, 8))
    if weight is None and integer:
        weight, signed = st.integers(0, 50), st.integers(-50, 50)
    elif weight is None:
        weight = st.floats(0, 1000, allow_nan=False, allow_infinity=False)
        signed = st.floats(-1000, 1000)
    elif signed is None:
        signed = weight
    family = draw(st.sampled_from(families))
    if family == "modular":
        return ModularObjective({e: draw(signed) for e in range(n)}, w0=draw(weight))
    if family == "coverage":
        n_items = draw(st.integers(1, 8))
        covers = st.frozensets(st.integers(0, n_items - 1))
        return CoverageObjective(
            [draw(weight) for _ in range(n_items)], {e: draw(covers) for e in range(n)}
        )
    node = st.integers(0, n + 1)
    links = draw(st.lists(st.tuples(node, node, weight), min_size=1, max_size=14))
    loop = draw(node)
    return CutObjective(links + [(loop, loop, draw(weight)), links[0]])


def ground_of(f):
    if isinstance(f, CutObjective):
        nodes = {x for u, v, _ in f.links for x in (u, v)}
        return sorted(nodes | {max(nodes) + 1})  # and a node with no link
    return sorted(f.weights if isinstance(f, ModularObjective) else f.edge_items)


@st.composite
def moves(draw, ground, base):
    """A move of one of MOVE_SHAPES around ``base``, or None if ``base``
    leaves too few edges inside or outside for the drawn shape."""
    n_add, n_remove = draw(st.sampled_from(MOVE_SHAPES))
    outside = sorted(set(ground) - base)
    inside = sorted(base)
    if len(outside) < n_add or len(inside) < n_remove:
        return None
    add = draw(st.permutations(outside))[:n_add]
    remove = draw(st.permutations(inside))[:n_remove]
    return tuple(add), tuple(remove)


def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


@settings(max_examples=300, deadline=None)
@given(integer=st.booleans(), data=st.data())
def test_value_context_gain_matches_whole_set_difference(integer, data):
    f = data.draw(objectives(integer))
    ground = ground_of(f)
    base = data.draw(ground_subsets(ground))
    calls = f.calls
    ctx = f.context(base)
    assert f.calls == calls + 1
    assert ctx.value == f.value(base)
    for _ in range(6):
        move = data.draw(moves(ground, base))
        if move is None:
            continue
        add, remove = move
        calls = f.calls
        gain = ctx.gain(add, remove)
        assert f.calls == calls + 1
        whole = f.value((base - set(remove)) | set(add)) - f.value(base)
        if integer:
            assert gain == whole, (add, remove)
        else:
            assert close(gain, whole), (add, remove, gain, whole)
    assert ctx.base == base


@settings(max_examples=300, deadline=None)
@given(integer=st.booleans(), data=st.data())
def test_value_context_move_chain_tracks_the_whole_set_value(integer, data):
    f = data.draw(objectives(integer))
    ground = ground_of(f)
    base = data.draw(ground_subsets(ground))
    ctx = f.context(base)
    for _ in range(8):
        move = data.draw(moves(ground, base))
        if move is None:
            continue
        add, remove = move
        if data.draw(st.booleans()):
            ctx.gain(add, remove)  # queries between moves reuse and drop caches
        calls = f.calls
        ctx.move(add, remove)
        assert f.calls == calls + 1
        base = (base - set(remove)) | set(add)
        assert ctx.base == base
        assert ctx.value == f.value(base)


@settings(max_examples=300, deadline=None)
@given(integer=st.booleans(), data=st.data())
def test_a_moved_context_keeps_f_of_its_base(integer, data):
    """Double greedy reads f(S) from the run's context, which the run's
    moves carried there: after a random sequence of them, the value is
    ``f.value`` of the base bit for bit, on integer weights and on the
    non-dyadic grid, mixed-sign modular included."""
    grid = st.sampled_from(WEIGHT_GRID)
    signed = st.builds(lambda w, s: s * w, grid, st.sampled_from((1.0, -1.0)))
    f = data.draw(objectives(integer) if integer else objectives(False, weight=grid, signed=signed))
    ground = ground_of(f)
    base = data.draw(ground_subsets(ground))
    ctx = f.context(base)
    for _ in range(data.draw(st.integers(1, 10))):
        move = data.draw(moves(ground, base))
        if move is None:
            continue
        ctx.move(*move)
        base = (base - set(move[1])) | set(move[0])
        got, want = ctx.value, f.value(base)
        assert float(got).hex() == float(want).hex(), (base, got, want)


def exact_value(f, s):
    """f(s) of a shipped family as an exact Fraction."""
    if isinstance(f, ModularObjective):
        weights = [f.w0, *(float(f.weights[e]) for e in s)]
    elif isinstance(f, CutObjective):
        weights = [w for u, v, w in f.links if (u in s) != (v in s)]
    else:
        weights = [f.item_weights[i] for i in set().union(*map(f.edge_items.get, s))]
    return sum(map(Fraction, weights), Fraction(0))


# float weights that are not dyadic, so float sums of them round
NON_DYADIC = (0.1, 0.3, 0.7, 2.2, 4.4, 8.8)


@settings(max_examples=300, deadline=None)
@given(integer=st.booleans(), data=st.data())
def test_every_value_and_gain_is_the_exact_figure_rounded_once(integer, data):
    """In every family, mixed-sign modular included: f.value(S) and the
    context's value are float(exact f(S)), and every gain of every shape
    the contexts answer, one-edge adds and removes, two adds, swaps and
    the applied moves, is float(exact difference), as the context moves."""
    weight = None if integer else st.one_of(st.sampled_from(NON_DYADIC), st.floats(0, 100))
    signed = None if integer else st.one_of(weight, weight.map(lambda w: -w))
    f = data.draw(objectives(integer, weight=weight, signed=signed))
    ground = ground_of(f)
    base = data.draw(ground_subsets(ground))
    ctx = f.context(base)
    for _ in range(6):
        before = exact_value(f, base)
        assert f.value(base) == float(before) == ctx.value, base
        outside = [x for x in ground if x not in base]
        shapes = [((x,), ()) for x in outside] + [((), (y,)) for y in sorted(base)]
        shapes += [((x, z), ()) for i, x in enumerate(outside) for z in outside[i + 1:]]
        shapes += [((x,), (y,)) for x in outside for y in sorted(base)]
        for add, remove in shapes:
            exact = exact_value(f, (base - set(remove)) | set(add)) - before
            assert ctx.gain(add, remove) == float(exact), (add, remove, base)
        move = data.draw(moves(ground, base))
        if move is None:
            continue
        add, remove = move
        after = (base - set(remove)) | set(add)
        assert ctx.gain(add, remove) == float(exact_value(f, after) - before), (move, base)
        ctx.move(add, remove)
        base = after


class WholeSets(ValueOracle):
    """``inner``'s values through the generic context, which evaluates
    each whole new set."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner

    def _value(self, s):
        return self.inner._value(s)


def bad_moves(base, outside, x, y):
    """Moves that do not fit ``base``, for y an edge of it and x one
    ``outside`` it: adding y, removing y twice, removing x and adding x
    twice."""
    bad = []
    if base:
        bad += [((y,), ()), ((), (y, y))]
    if outside:
        bad += [((), (x,)), ((x, x), ())]
    return bad


@settings(max_examples=200, deadline=None)
@given(integer=st.booleans(), generic=st.booleans(), data=st.data())
def test_the_unchecked_value_path_matches_the_checked_one(integer, generic, data):
    """On integer weights and on the non-dyadic grid, in each family's
    context and in the generic one, before and after moves: ``gain_of(x)``
    is ``gain((x,))`` bit for bit, counts one query and leaves the same
    base, value and tables, and ``gain`` and ``move`` still refuse a
    move that does not fit the base."""
    f = data.draw(objectives(integer, weight=None if integer else st.sampled_from(WEIGHT_GRID)))
    ground = ground_of(f)
    if generic:
        f = WholeSets(f)
    base = data.draw(ground_subsets(ground))
    checked, unchecked = f.context(base), f.context(base)
    for _ in range(4):
        outside = sorted(set(ground) - base)
        for x in outside:
            calls = f.calls
            got = unchecked.gain_of(x)
            assert f.calls == calls + 1
            assert repr(got) == repr(checked.gain((x,))), (x, base)
        x = data.draw(st.sampled_from(outside)) if outside else None
        y = data.draw(st.sampled_from(sorted(base))) if base else None
        for add, remove in bad_moves(base, outside, x, y):
            for ctx in (checked, unchecked):
                with pytest.raises(ValueError):
                    ctx.gain(add, remove)
                with pytest.raises(ValueError):
                    ctx.move(add, remove)
        assert vars(checked) == vars(unchecked) and unchecked.base == base
        move = data.draw(moves(ground, base))
        if move is None:
            continue
        add, remove = move
        calls = f.calls
        checked.move(add, remove)
        assert f.calls == calls + 1
        unchecked.move(add, remove)
        assert f.calls == calls + 2
        base = (base - set(remove)) | set(add)
        assert vars(checked) == vars(unchecked) and unchecked.base == base


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_unchecked_feasibility_path_matches_the_checked_one(data):
    """Before and after moves, ``fits(x, y)`` is ``feasible((x,), (y,))``
    (``feasible((x,))`` for y None). A repeated ``fits(x)`` of a single
    found dependent since the last removal counts no query, and every
    other call counts one. ``move`` still refuses a move that does not
    fit the base, and forgets nothing then, and ``feasible`` refuses an
    unknown edge id."""
    cons = data.draw(constraints())
    ground = cons.edge_ids
    moved = data.draw(ground_subsets(ground))
    checked, unchecked = cons.context(moved), cons.context(moved)
    dependent = set()  # single adds found dependent since the last removal
    for _ in range(4):
        for x in ground:
            for y in (None, *sorted(moved)):
                calls = cons.feasibility_calls
                got = unchecked.fits(x, y)
                repeat = y is None and x in dependent
                assert cons.feasibility_calls == calls + (not repeat), (x, y, moved)
                assert got == checked.feasible((x,), () if y is None else (y,)), (x, y, moved)
                if y is None and not got:
                    dependent.add(x)
        outside = sorted(set(ground) - moved)
        x = data.draw(st.sampled_from(outside)) if outside else None
        y = data.draw(st.sampled_from(sorted(moved))) if moved else None
        for add, remove in bad_moves(moved, outside, x, y):
            for ctx in (checked, unchecked):
                with pytest.raises(ValueError):
                    ctx.move(add, remove)
                assert ctx.base == moved
        with pytest.raises(ValueError, match="unknown edge id"):
            unchecked.feasible((len(ground),))  # ids are 0..n-1
        add = data.draw(ground_subsets(outside))
        remove = data.draw(ground_subsets(moved))
        calls = cons.feasibility_calls
        checked.move(add, remove)
        unchecked.move(add, remove)
        assert cons.feasibility_calls == calls
        moved = (moved - remove) | add
        if remove:
            dependent.clear()
        assert checked.base == unchecked.base == moved


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_dependent_singles_memo_is_sound(data):
    """Along a random chain of adding, swapping and removing moves, asked
    twice after each move, ``fits(x)`` is ``cons.feasible(base | {x})``
    for every outside edge x. The first ask of a dependent x since the
    last removal counts one query and a repeat counts none; after a move
    that removes an edge, the first ask counts again. Swaps, asked first,
    count one query each and leave the singles to count as they would."""
    cons = data.draw(constraints())
    ground = cons.edge_ids
    base = data.draw(ground_subsets(ground))
    fits = cons.context(base)
    dependent = set()  # single adds found dependent since the last removal
    for _ in range(data.draw(st.integers(1, 6))):
        outside = sorted(set(ground) - base)
        for x in outside:
            for y in sorted(base):
                calls = cons.feasibility_calls
                assert fits.fits(x, y) == cons.feasible((base - {y}) | {x}), (x, y, base)
                assert cons.feasibility_calls == calls + 2
        for _ in range(2):
            for x in outside:
                calls = cons.feasibility_calls
                got = fits.fits(x)
                asked = cons.feasibility_calls - calls
                assert got == cons.feasible(base | {x}), (x, base)
                assert asked == (0 if x in dependent else 1), (x, base, dependent)
                if not got:
                    dependent.add(x)
        add = data.draw(ground_subsets(outside))
        remove = data.draw(st.one_of(st.just(frozenset()), ground_subsets(base)))
        fits.move(add, remove)
        base = (base - remove) | add
        if remove:
            dependent.clear()


def test_cut_context_with_parallel_links_and_self_loops_exhaustively():
    # 0-1 linked three times, both ways round; self-loops at 2 and at 6,
    # which has no other link; 5 has no link at all. Integer weights, so
    # every gain and every carried value is exact
    f = CutObjective([(0, 1, 3), (1, 0, 5), (0, 1, 2), (1, 2, 4), (2, 2, 7), (2, 3, 6),
                      (3, 4, 8), (4, 0, 9), (6, 6, 2), (3, 1, 1)])
    ground = frozenset(range(7))
    for base in subsets(ground):
        value = f.value(base)
        table = f.context(base).single
        for add, remove in product(subsets(ground - base), subsets(base)):
            if not 2 <= len(add) + len(remove) <= 4:
                continue
            moved = (base - remove) | add
            add, remove = tuple(add), tuple(remove)
            ctx = f.context(base)
            assert ctx.gain(add, remove) == f.value(moved) - value, (base, add, remove)
            ctx.move(add, remove)
            assert ctx.value == f.value(moved), (base, add, remove)
            ctx.move(remove, add)  # and back again
            assert (ctx.value, ctx.single) == (value, table), (base, add, remove)


def coverage_with_empty_and_shared_items(weights, empty):
    """Edges 0..6 over items 0..6: item 5 is held by every edge but 4,
    which holds no item if ``empty`` and item 5 otherwise."""
    covers = {0: {0, 1, 5}, 1: {1, 2, 5}, 2: {2, 3, 4, 5}, 3: {0, 5, 6}, 4: set() if empty else {5},
              5: {4, 5, 6}, 6: {5}}
    return CoverageObjective([weights[i % len(weights)] for i in range(7)], covers)


@pytest.mark.parametrize("empty", [True, False])
def test_coverage_context_with_empty_and_shared_items_exhaustively(empty):
    # item 0 weighs 0; integer weights, so every gain and every carried
    # value is exact
    f = coverage_with_empty_and_shared_items([0, 3, 5, 2, 7, 4, 1], empty)
    ground = frozenset(range(7))
    for base in subsets(ground):
        value = f.value(base)
        fresh = f.context(base)
        outside, inside = sorted(ground - base), sorted(base)
        gains = list(map(fresh.gain_of, outside))
        losses = [fresh.gain((), (y,)) for y in inside]
        assert gains == [f.value(base | {x}) - value for x in outside], base
        assert losses == [f.value(base - {y}) - value for y in inside], base
        for add, remove in product(subsets(ground - base), subsets(base)):
            if not 2 <= len(add) + len(remove) <= 4:
                continue
            moved = (base - remove) | add
            add, remove = tuple(add), tuple(remove)
            ctx = f.context(base)
            assert ctx.gain(add, remove) == f.value(moved) - value, (base, add, remove)
            ctx.move(add, remove)
            assert ctx.value == f.value(moved), (base, add, remove)
            ctx.move(remove, add)  # and back again
            restored = (ctx.value, ctx.covered, ctx.counts)
            assert restored == (value, fresh.covered, fresh.counts), (base, add, remove)
            assert list(map(ctx.gain_of, outside)) == gains, (base, add, remove)
            assert ctx.single == fresh.single, (base, add, remove)
            assert [ctx.gain((), (y,)) for y in inside] == losses, (base, add, remove)


@pytest.mark.parametrize("empty", [True, False])
def test_coverage_gains_in_wide_lanes_are_exact(empty):
    """Item weights 2**-1000 and 100.0 put 2**1000 units in one unit of
    weight, so each edge's lane is over 1,000 bits wide; one-edge gains
    still equal the exact difference rounded once, before and after
    moves of several edges."""
    f = coverage_with_empty_and_shared_items([2.0**-1000, 100.0, 0.0], empty)
    ground = frozenset(range(7))

    def check(ctx):
        base = ctx.base
        before = exact_value(f, base)
        for x in sorted(ground - base):
            exact = exact_value(f, base | {x}) - before
            assert ctx.gain((x,)) == float(exact), ("add", x, base)
        for y in sorted(base):
            exact = exact_value(f, base - {y}) - before
            assert ctx.gain((), (y,)) == float(exact), ("remove", y, base)

    for base in subsets(ground):
        ctx = f.context(base)
        check(ctx)
        ctx.move(tuple(sorted(ground - base))[:2], tuple(sorted(base))[:2])
        check(ctx)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_constraint_context_move_chain_tracks_the_moved_set(data):
    cons = data.draw(constraints())
    moved = data.draw(ground_subsets(cons.edge_ids))
    ctx = cons.context(moved)
    for _ in range(6):
        add = data.draw(ground_subsets(set(cons.edge_ids) - moved))
        remove = data.draw(ground_subsets(moved))
        calls = cons.feasibility_calls
        ctx.move(add, remove)
        assert cons.feasibility_calls == calls  # moving is not a query
        moved = (moved - remove) | add
        assert ctx.base == moved
        queries = data.draw(
            st.lists(st.tuples(ground_subsets(cons.edge_ids), ground_subsets(cons.edge_ids)),
                     max_size=3)
        )
        for q_add, q_remove in queries:
            assert ctx.feasible(q_add, q_remove) == cons.feasible((moved - q_remove) | q_add)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_value_context_refuses_moves_that_do_not_fit_the_base(data):
    f = data.draw(objectives())
    ground = ground_of(f)
    base = data.draw(ground_subsets(ground))
    ctx = f.context(base)
    value = ctx.value
    outside = sorted(set(ground) - base)
    bad = []
    if base:
        y = data.draw(st.sampled_from(sorted(base)))
        bad.append(((y,), ()))  # adds an edge of the base
        bad.append(((), (y, y)))  # removes an edge twice
    if outside:
        x = data.draw(st.sampled_from(outside))
        bad.append(((), (x,)))  # removes an edge outside the base
        bad.append(((x, x), ()))  # adds an edge twice
    for add, remove in bad:
        with pytest.raises(ValueError):
            ctx.gain(add, remove)
        calls = f.calls
        with pytest.raises(ValueError):
            ctx.move(add, remove)
        assert f.calls == calls
        assert ctx.base == base and ctx.value == value


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_feasibility_context_refuses_moves_that_do_not_fit_the_base(data):
    cons = data.draw(constraints())
    ground = cons.edge_ids
    base = data.draw(ground_subsets(ground))
    fits = cons.context(base)
    outside = sorted(set(ground) - base)
    bad = []
    if base:
        y = data.draw(st.sampled_from(sorted(base)))
        bad.append(((y,), ()))  # adds an edge of the base
        bad.append(((), (y, y)))  # removes an edge twice
    if outside:
        x = data.draw(st.sampled_from(outside))
        bad.append(((), (x,)))  # removes an edge outside the base
        bad.append(((x, x), ()))  # adds an edge twice
    probes = [(e,) for e in ground]
    answers = [fits.feasible(p) for p in probes]
    for add, remove in bad:
        calls = cons.feasibility_calls
        with pytest.raises(ValueError):
            fits.move(add, remove)
        assert cons.feasibility_calls == calls
        assert fits.base == base
        assert [fits.feasible(p) for p in probes] == answers


def greedy_whole_set(f, cons):
    """The greedy loop on whole-set value and feasibility queries, asked
    in greedy's order: the gain of every outside edge no earlier round
    settled, then feasibility from the largest positive gain down (ties
    to the smaller id) until one edge fits. A round settles the edges it
    found dependent and those whose gain was not positive."""
    chosen = frozenset()
    left = list(cons.edge_ids)
    while True:
        f_chosen = f.value(chosen)
        gain = {e: f.value(chosen | {e}) - f_chosen for e in left}
        ranked = sorted((e for e in gain if gain[e] > 0), key=lambda e: (-gain[e], e))
        best_edge = next((e for e in ranked if cons.feasible(chosen | {e})), None)
        if best_edge is None:
            return chosen
        chosen = chosen | {best_edge}
        dependent = ranked[: ranked.index(best_edge)]
        left = [e for e in left if e not in chosen and e not in dependent and gain[e] > 0]


def double_greedy_whole_set(f, edge_set, rng):
    """The double-greedy loop on whole-set value queries."""
    chosen = frozenset()
    remaining = frozenset(edge_set)
    for e in sorted(edge_set):
        a, b = clipped_gains(f, e, chosen, remaining)
        if rng.random() < (1.0 if a + b == 0 else a / (a + b)):
            chosen = chosen | {e}
        else:
            remaining = remaining - {e}
    return chosen


class Coins:
    """Replays a fixed sequence of uniform draws."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), data=st.data())
def test_greedy_and_double_greedy_match_whole_set_loops(seed, data):
    cons, f = solver_instance(seed, max_edges=14)
    calls, feas = f.calls, cons.feasibility_calls
    expected = greedy_whole_set(f, cons)
    whole_calls, calls = f.calls - calls, f.calls
    whole_feas, feas = cons.feasibility_calls - feas, cons.feasibility_calls
    assert greedy_baseline(f, cons) == expected
    # the counting rule keeps greedy's counts: the whole-set loop asks the
    # same questions in the same order
    assert f.calls - calls == whole_calls
    assert cons.feasibility_calls - feas == whole_feas
    edge_set = data.draw(ground_subsets(cons.edge_ids))
    coin = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0, exclude_max=True))
    coins = data.draw(st.lists(coin, min_size=len(edge_set), max_size=len(edge_set)))
    refined, value = double_greedy(f.context(edge_set), Coins(coins))
    assert refined == double_greedy_whole_set(f, edge_set, Coins(coins))
    assert value == f.value(edge_set)


# (generator kind, matroid of random-parity) of every generated family
FAMILIES = (
    ("k-partition-intersection", None),
    ("k-uniform-set-packing-via-parity", None),
    ("random-parity", "uniform"),
    ("random-parity", "partition"),
    ("random-parity", "graphic"),
)


def test_each_run_binds_one_value_and_one_feasibility_context(monkeypatch):
    binds = Counter()

    def count_binds(cls, name):
        bind = cls.context

        def counted(self, edge_set):
            binds[name] += 1
            return bind(self, edge_set)

        monkeypatch.setattr(cls, "context", counted)

    count_binds(ValueOracle, "value")
    count_binds(KParityConstraint, "feasibility")
    runs = (
        lambda f, cons: run_efficient(f, cons, SolverConfig(epsilon=0.5, seed=3)),
        lambda f, cons: run_reference(f, cons, SolverConfig(epsilon=0.5, seed=3)),
        greedy_baseline,
    )
    for kind, matroid in FAMILIES:
        for objective in ("modular", "coverage", "cut"):
            params = {"k": 2, "objective": objective}
            if matroid:
                params["matroid"] = matroid
            cons, f = generate_instance(kind, params, 1)
            for run in runs:
                binds.clear()
                run(f, cons)
                assert binds == {"value": 1, "feasibility": 1}, (kind, matroid, objective)
