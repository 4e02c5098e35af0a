"""The coverage kernel against plain itertools and frozensets: the quota
tuple enumerator with its pool and budget checks, the table builder's
rows, and GreedyState's coverage count."""

import math
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircover import unweighted
from faircover.errors import BudgetExceeded, InsufficientColor
from faircover.model import SetSystem, union_of
from faircover.unweighted import GreedyState, _ids, _split, _tuples_of

from support import brute_quota_tuples


@st.composite
def systems(draw):
    """Small colored systems whose sets may list ids outside [0, n)."""
    n = draw(st.integers(0, 10))
    k = draw(st.integers(1, 3))
    num = draw(st.integers(k, 9))
    sets = draw(
        st.lists(st.lists(st.integers(-2, n + 2), max_size=6), min_size=num, max_size=num)
    )
    extra = draw(st.lists(st.integers(0, k - 1), min_size=num - k, max_size=num - k))
    return SetSystem(n, sets, list(range(k)) + extra)


def _bits(elements):
    return sum(1 << e for e in elements)


# Any finite weight: the builder sums whatever it is given.
WEIGHTS = st.floats(allow_nan=False, allow_infinity=False)


def _fold(weights, ids):
    """The weights of ids added left to right from 0.0, as sum() adds
    floats before Python 3.12 (which compensates its float sums)."""
    w = 0.0
    for i in ids:
        w += weights[i]
    return w


def _exact(rows):
    """rows with each weight as its exact bits."""
    return [(combo, m, w.hex()) for combo, m, w in rows]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_quota_tuples_match_itertools_reference(data):
    sys_ = data.draw(systems())
    kept = data.draw(st.lists(st.booleans(), min_size=sys_.num_sets, max_size=sys_.num_sets))
    pools = [[i for i in g if kept[i]] for g in sys_.sets_by_color]
    # Counts may name fewer colors than the system has, or more.
    counts = data.draw(st.lists(st.integers(0, 3), max_size=len(pools) + 1))
    # A weight scan's rows carry weights; the others do not.
    weights = data.draw(st.none() | st.lists(WEIGHTS, min_size=sys_.num_sets,
                                             max_size=sys_.num_sets))
    ref = brute_quota_tuples(sys_, pools, counts)
    budget = data.draw(st.integers(0, 2 * len(ref) + 1))
    with patch.object(unweighted, "TUPLE_BUDGET", budget):
        if not ref:
            # No tuple exists only when a pool is short, which is refused
            # before any table is built whatever the budget.
            with pytest.raises(InsufficientColor):
                _split(sys_.masks, pools, counts, weights)
            return
        if len(ref) > budget:
            # The refusal comes before any table is built.
            with pytest.raises(BudgetExceeded):
                _split(sys_.masks, pools, counts, weights)
            return
        prefix_tables, completions = _split(sys_.masks, pools, counts, weights)
    got = [(prefix + (part,), pm | part[1], pw)
           for prefix, pm, pw in _tuples_of(prefix_tables) for part in completions]
    # Each part is one combination with the bits its sets cover in [0, n)
    # and, given weights, its weight summed in the combination's order; a
    # prefix's weight adds its parts' in table order.
    for parts, _, pw in got:
        for part in parts:
            combo, m = part[:2]
            assert m == _bits({e for i in combo for e in sys_.sets[i] if 0 <= e < sys_.n})
            assert len(part) == (2 if weights is None else 3)
            if weights is not None:
                assert part[2].hex() == _fold(weights, combo).hex()
        want = 0.0
        for part in parts[:-1] if weights is not None else ():
            want += part[2]
        assert pw.hex() == want.hex()
    ids_to_mask = [(_ids(parts), mask) for parts, mask, _ in got]
    assert len(ids_to_mask) == len(ref)
    assert all(list(ids) == sorted(ids) for ids, _ in ids_to_mask)
    assert dict(ids_to_mask) == {ids: _bits(elems) for ids, elems in ref.items()}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_table_rows_match_itertools_reference(data):
    # Pools of up to 10 ids and every size from 0 to len(pool): a size up
    # to len(pool) / 2 is grown one id at a time, from the empty
    # combination or from the pool's last rows (latest), and a larger one
    # is built directly. Either way the rows are the itertools reference,
    # in order, with the same masks and the same weight bits.
    num = data.draw(st.integers(0, 12))
    masks = data.draw(st.lists(st.integers(0, 2**10 - 1), min_size=num, max_size=num))
    weights = data.draw(st.lists(WEIGHTS, min_size=num, max_size=num))
    pool = sorted(data.draw(st.sets(st.integers(0, num - 1), max_size=10))) if num else []
    latest = [None]
    for size in range(len(pool) + 1):
        want = [(c, union_of(masks, c), _fold(weights, c)) for c in combinations(pool, size)]
        for kept in (None, latest):
            _, rows = _split(masks, [pool], [size], weights, kept)
            assert _exact(rows) == _exact(want), (size, kept is latest)
        assert latest[0] is (rows if size else None)
    # A table is not grown from rows of more ids than it holds.
    size = data.draw(st.integers(0, len(pool)))
    want = [(c, union_of(masks, c), _fold(weights, c)) for c in combinations(pool, size)]
    assert _exact(_split(masks, [pool], [size], weights, latest)[1]) == _exact(want)
    # A refusal comes before any row is built, and leaves latest as it was.
    before = latest[0]
    with patch.object(unweighted, "_table", lambda *args: pytest.fail("rows built")):
        with pytest.raises(InsufficientColor):
            _split(masks, [pool], [len(pool) + 1], weights, latest)
        with patch.object(unweighted, "TUPLE_BUDGET", math.comb(len(pool), size) - 1):
            with pytest.raises(BudgetExceeded):
                _split(masks, [pool], [size], weights, latest)
    assert latest[0] is before


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_new_coverage_counts_the_frozenset_union(data):
    sys_ = data.draw(systems())
    ids = st.lists(st.integers(0, sys_.num_sets - 1), unique=True)
    committed = data.draw(ids)
    scored = data.draw(ids)
    state = GreedyState.fresh(sys_)
    state.commit(sys_, committed)
    universe = frozenset(range(sys_.n))
    covered = frozenset().union(*(frozenset(sys_.sets[i]) for i in committed))
    uncovered = universe - covered
    assert state.uncovered == _bits(uncovered)
    hit = frozenset().union(*(frozenset(sys_.sets[i]) for i in scored))
    assert state.new_coverage(sys_, scored) == len(hit & uncovered)
