"""The coverage kernel against plain itertools and frozensets: the quota
tuple enumerator with its pool and budget checks, and GreedyState's
coverage count."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircover import unweighted
from faircover.errors import BudgetExceeded, InsufficientColor
from faircover.model import SetSystem
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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_quota_tuples_match_itertools_reference(data):
    sys_ = data.draw(systems())
    kept = data.draw(st.lists(st.booleans(), min_size=sys_.num_sets, max_size=sys_.num_sets))
    pools = [[i for i in g if kept[i]] for g in sys_.sets_by_color]
    # Counts may name fewer colors than the system has, or more.
    counts = data.draw(st.lists(st.integers(0, 3), max_size=len(pools) + 1))
    ref = brute_quota_tuples(sys_, pools, counts)
    budget = data.draw(st.integers(0, 2 * len(ref) + 1))
    with patch.object(unweighted, "TUPLE_BUDGET", budget):
        if not ref:
            # No tuple exists only when a pool is short, which is refused
            # before any table is built whatever the budget.
            with pytest.raises(InsufficientColor):
                _split(sys_.masks, pools, counts)
            return
        if len(ref) > budget:
            # The refusal comes before any table is built.
            with pytest.raises(BudgetExceeded):
                _split(sys_.masks, pools, counts)
            return
        prefix_tables, completions = _split(sys_.masks, pools, counts)
    got = [(prefix + (part,), pm | part[1])
           for prefix, pm in _tuples_of(prefix_tables) for part in completions]
    # Each part is one combination with the bits its sets cover in [0, n).
    for parts, _ in got:
        for combo, m in parts:
            assert m == _bits({e for i in combo for e in sys_.sets[i] if 0 <= e < sys_.n})
    ids_to_mask = [(_ids(parts), mask) for parts, mask in got]
    assert len(ids_to_mask) == len(ref)
    assert all(list(ids) == sorted(ids) for ids, _ in ids_to_mask)
    assert dict(ids_to_mask) == {ids: _bits(elems) for ids, elems in ref.items()}


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
