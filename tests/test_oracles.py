"""Exhaustive reference solvers: hand-checkable examples plus budget walls."""

import math

import pytest

from faircover import oracles, unweighted
from faircover.errors import BudgetExceeded, InsufficientColor, NoProgress
from faircover.io_generators import gen_synthetic
from faircover.model import FairnessSpec, SetSystem, count_parity
from faircover.multicover import MulticoverInstance
from faircover.oracles import (
    opt_fair_cover,
    opt_fair_multicover,
    opt_mkcc,
    opt_set_cover,
)

from faircover.unweighted import greedy_allpick, greedy_set_cover

from support import all_covers, fair_covers


def square_system(weights=None):
    return SetSystem(6, [[0, 1, 2], [3, 4], [3, 4, 5], [0, 5]], [0, 0, 1, 1], weights)


# -------------------------------------------------------------- opt_set_cover


def test_opt_set_cover_chain():
    sys_ = SetSystem(4, [[0, 1, 2], [2, 3], [3]], [0, 0, 0])
    cover = opt_set_cover(sys_)
    assert cover.selected == (0, 1)
    assert cover.size == 2


def test_opt_set_cover_prefers_lexicographic_minimum():
    # Two optimal pairs exist; (0, 2) beats (1, 2).
    sys_ = SetSystem(4, [[0, 1], [0, 1], [2, 3]], [0, 0, 0])
    assert opt_set_cover(sys_).selected == (0, 2)


def test_opt_set_cover_matches_independent_enumeration():
    sys_ = gen_synthetic(10, 5, 2, coverage_dist=("uniform", 0.35), seed=5)
    cover = opt_set_cover(sys_)
    sizes = [len(c) for c in all_covers(sys_)]
    assert cover.size == min(sizes)


def test_opt_set_cover_budget_wall():
    sys_ = SetSystem(1, [[0]] * 23, [0] * 23)
    with pytest.raises(BudgetExceeded):
        opt_set_cover(sys_)


def test_opt_set_cover_reports_an_uncoverable_universe_as_greedy_does(monkeypatch):
    # This is no refused enumeration: one OR of every mask answers before
    # any selection is tried, so the 22-set system, whose 4.2 million
    # selections a scan would walk first, raises at once.
    monkeypatch.setattr(oracles, "combinations", lambda *args: pytest.fail("selections tried"))
    for sys_ in (SetSystem(3, [[0], [1]], [0, 0]), SetSystem(2, [[0]] * 22, [0] * 22)):
        with pytest.raises(NoProgress) as oracle:
            opt_set_cover(sys_)
        with pytest.raises(NoProgress) as greedy:
            greedy_set_cover(sys_)
        assert str(oracle.value) == str(greedy.value)


# ------------------------------------------------------------- opt_fair_cover


def test_opt_fair_cover_square():
    cover = opt_fair_cover(square_system(), count_parity(2))
    assert cover.selected == (0, 2)
    assert cover.group_counts == (1, 1)


def test_opt_fair_cover_reports_infeasible_as_none():
    # One pair cannot cover all three elements and color 1 cannot supply two.
    sys_ = SetSystem(3, [[0], [1], [2]], [0, 0, 1])
    assert opt_fair_cover(sys_, count_parity(2)) is None


def test_quota_oracles_answer_an_uncoverable_universe_at_once(monkeypatch):
    # Element 1 is in no set, so no fair cover or multicover exists. One OR
    # of every mask answers before any round count's tables are built; a
    # scan of every t would walk millions of selections first.
    monkeypatch.setattr(oracles, "_split", lambda *args: pytest.fail("tables built"))
    monkeypatch.setattr(oracles, "combinations", lambda *args: pytest.fail("selections tried"))
    sys22 = SetSystem(2, [[0]] * 22, [0] * 22)
    assert opt_fair_cover(sys22, count_parity(1)) is None
    assert opt_fair_cover(sys22, count_parity(1), weighted=True) is None
    inst = MulticoverInstance(SetSystem(2, [[0]] * 20, [0] * 20), [1, 1])
    assert opt_fair_multicover(inst, count_parity(1)) is None


def test_opt_fair_cover_never_beats_unfair_optimum():
    for seed in range(8):
        sys_ = gen_synthetic(9, 4, 2, coverage_dist=("uniform", 0.4), seed=seed)
        fair = opt_fair_cover(sys_, count_parity(2))
        if fair is None:
            continue
        assert fair.size >= opt_set_cover(sys_).size
        assert fair.covers_universe(sys_)
        assert fair.group_counts[0] == fair.group_counts[1]


def test_opt_fair_cover_weighted_can_prefer_more_sets():
    # One heavy pair covers everything; two light pairs also do at less weight.
    sys_ = SetSystem(
        4,
        [[0, 1], [0], [1], [2, 3], [2], [3]],
        [0, 0, 0, 1, 1, 1],
        [10.0, 1.0, 1.0, 10.0, 1.0, 1.0],
    )
    light = opt_fair_cover(sys_, count_parity(2), weighted=True)
    assert light.selected == (1, 2, 4, 5)
    assert light.total_weight == pytest.approx(4.0)
    small = opt_fair_cover(sys_, count_parity(2), weighted=False)
    assert small.size == 2


def final_prefix(sys_, spec, sel):
    """The ids of sel outside the color whose quota table is the largest
    (the first such) at sel's round count: the prefix the oracles scan it
    under."""
    t = len(sel) // spec.p
    sizes = [math.comb(len(g), t * p) for g, p in zip(sys_.sets_by_color, spec.per_round)]
    last = sizes.index(max(sizes))
    return tuple(i for i in sel if sys_.colors[i] != last)


def test_unweighted_oracle_builds_ids_only_for_its_optimal_covers(monkeypatch):
    # Selections are scored on their masks; the sorted ids are built only
    # for optimal-size fair covers (covers first appear at the final t),
    # at most one per prefix, and the cover returned is the least built.
    built = []

    def counting(parts):
        ids = unweighted._ids(parts)
        built.append(ids)
        return ids

    monkeypatch.setattr(oracles, "_ids", counting)
    for seed in range(8):
        k = 2 + seed % 2
        sys_ = gen_synthetic(8 + seed % 3, 5 if k == 2 else 4, k,
                             coverage_dist=("uniform", 0.3), seed=seed)
        built.clear()
        spec = count_parity(k)
        cover = opt_fair_cover(sys_, spec)
        finals = [sel for sel in fair_covers(sys_, (1,) * k) if len(sel) == cover.size]
        assert built and set(built) <= set(finals), seed
        prefixes = [final_prefix(sys_, spec, sel) for sel in built]
        assert len(set(prefixes)) == len(prefixes), seed
        assert cover.selected == min(built) == min(finals), seed
    built.clear()
    assert opt_fair_cover(SetSystem(2, [[0], [0]], [0, 1]), count_parity(2)) is None
    assert built == []


def prefix_counts(sys_, spec, sizes):
    """The number of prefixes the oracles scan over the round counts t in
    sizes: the product of every color's quota table but the largest."""
    out = 0
    for t in sizes:
        tables = [math.comb(len(g), t * p)
                  for g, p in zip(sys_.sets_by_color, spec.per_round) if p > 0]
        out += math.prod(tables) // max(tables)
    return out


@pytest.mark.parametrize("weighted", [False, True])
def test_oracles_build_at_most_one_id_tuple_per_prefix(monkeypatch, weighted):
    # The work as a number: on a fixed corpus of two- and three-color
    # systems with U(1, 5) weights, each oracle builds at most one id tuple
    # per prefix of the round counts it scans (50 unweighted and 15
    # weighted over the corpus, where a scan of every selection built 106
    # unweighted, one per optimal-size fair cover).
    seen, built = [], []
    real_split, real_ids = oracles._split, unweighted._ids

    def split(masks, pools, counts, *weights_and_latest):
        seen.append(tuple(counts))
        return real_split(masks, pools, counts, *weights_and_latest)

    def ids(parts):
        built.append(1)
        return real_ids(parts)

    monkeypatch.setattr(oracles, "_split", split)
    monkeypatch.setattr(oracles, "_ids", ids)
    for seed in range(6):
        k = 2 + seed % 2
        sys_ = gen_synthetic(10 + seed, 7 if k == 2 else 4, k, ("uniform", 0.3),
                             ("uniform", 1.0, 5.0), seed=seed)
        spec = count_parity(k)
        seen.clear()
        built.clear()
        assert opt_fair_cover(sys_, spec, weighted=weighted) is not None, seed
        assert 0 < len(built) <= prefix_counts(sys_, spec, [c[0] for c in seen]), seed


def test_weighted_oracle_builds_each_table_size_once(monkeypatch):
    # The work as a number, on the corpus above: the weighted oracle
    # builds each color's rows of a given size at most once per call, and
    # growing a table one id at a time adds no row beyond the tables it
    # scans: 328 rows over the corpus.
    built, scanned = [], []
    real_table, real_split = unweighted._table, oracles._split

    def table(masks, pool, c, *weights_and_rows):
        rows = real_table(masks, pool, c, *weights_and_rows)
        built.append((tuple(pool), c, len(rows)))
        return rows

    def split(masks, pools, counts, *weights_and_latest):
        scanned.extend(math.comb(len(pool), c) for pool, c in zip(pools, counts) if c > 0)
        return real_split(masks, pools, counts, *weights_and_latest)

    monkeypatch.setattr(unweighted, "_table", table)
    monkeypatch.setattr(oracles, "_split", split)
    total = 0
    for seed in range(6):
        k = 2 + seed % 2
        sys_ = gen_synthetic(10 + seed, 7 if k == 2 else 4, k, ("uniform", 0.3),
                             ("uniform", 1.0, 5.0), seed=seed)
        built.clear()
        scanned.clear()
        assert opt_fair_cover(sys_, count_parity(k), weighted=True) is not None, seed
        sizes = [(pool, c) for pool, c, _ in built]
        assert len(sizes) == len(set(sizes)), seed
        assert sum(rows for *_, rows in built) == sum(scanned), seed
        total += sum(scanned)
    assert total == 328
    # A 20-id pool asked for 19 ids builds its 20 rows directly: no table
    # grown on the way.
    built.clear()
    unweighted._split([1 << i for i in range(20)], [list(range(20))], [19], [1.0] * 20, [None])
    assert [(c, rows) for _, c, rows in built] == [(19, 20)]


def test_oracle_budget_and_pool_errors_come_before_any_scoring(monkeypatch):
    # The table builder refuses before building a table: no combination is
    # unioned and no id tuple is built, and the messages are unchanged.
    unioned = []
    real_union = unweighted.union_of

    def union(masks, ids):
        unioned.append(ids)
        return real_union(masks, ids)

    monkeypatch.setattr(unweighted, "union_of", union)
    monkeypatch.setattr(unweighted, "_table", lambda *args: pytest.fail("rows built"))
    monkeypatch.setattr(oracles, "_ids", lambda parts: pytest.fail("ids built"))
    monkeypatch.setattr(unweighted, "TUPLE_BUDGET", 15)
    sys_ = SetSystem(2, [[0], [1]] * 4, [0, 1] * 4)
    inst = MulticoverInstance(sys_, [1, 1])
    message = "16 candidate tuples exceeds the budget of 15"
    for run in (lambda: opt_fair_cover(sys_, count_parity(2)),
                lambda: opt_fair_cover(sys_, count_parity(2), weighted=True),
                lambda: opt_fair_multicover(inst, count_parity(2)),
                lambda: opt_mkcc(sys_, [0, 1], sys_.sets_by_color, (1, 1)),
                lambda: opt_mkcc(sys_, [0, 1], sys_.sets_by_color, (1, 1), weighted_ratio=True)):
        with pytest.raises(BudgetExceeded, match=f"^{message}$"):
            run()
    for ratio in (False, True):
        with pytest.raises(InsufficientColor,
                           match="^group 1 has 0 unpicked set\\(s\\) but 1 are needed$"):
            opt_mkcc(sys_, [0, 1], [sys_.sets_by_color[0], []], (1, 1), weighted_ratio=ratio)
    assert unioned == []


def scanned_round_counts(monkeypatch, sys_, spec):
    """The per-color counts of every round count t the weighted oracle
    enumerates, and its cover."""
    seen = []
    real = oracles._split

    def counting(masks, pools, counts, *weights_and_latest):
        seen.append(tuple(counts))
        return real(masks, pools, counts, *weights_and_latest)

    monkeypatch.setattr(oracles, "_split", counting)
    return seen, opt_fair_cover(sys_, spec, weighted=True)


@pytest.mark.parametrize(
    "weight, selected",
    [(1.0, (0, 2)), (0.0, (1, 2)), (-1.0, (1, 2)), (math.nan, None)],
)
def test_weighted_oracle_stops_at_its_bound_only_on_positive_weights(
    monkeypatch, weight, selected
):
    # One round of a pair covers everything at weight at most 2, and two
    # rounds take all four sets. With positive weights the two-round bound
    # (1 + weight + 1 + 1 > 2) ends the scan after t = 1; a zero or
    # negative weight keeps the scan going over every t. A NaN weight is
    # refused, naming its set, before any t is scanned.
    sys_ = SetSystem(2, [[0, 1], [0], [0, 1], [1]], [0, 0, 1, 1], [1.0, weight, 1.0, 1.0])
    if selected is None:
        monkeypatch.setattr(oracles, "_split", lambda *args: pytest.fail("a t was scanned"))
        with pytest.raises(ValueError, match="^set 1 has weight NaN$"):
            opt_fair_cover(sys_, count_parity(2), weighted=True)
        return
    seen, cover = scanned_round_counts(monkeypatch, sys_, count_parity(2))
    assert seen == ([(1, 1)] if weight > 0 else [(1, 1), (2, 2)])
    assert cover.selected == selected


def test_opt_fair_cover_respects_uneven_fractions():
    sys_ = SetSystem(6, [[0, 1, 2], [0, 1], [3, 4], [5], [4, 5]],
                     [0, 0, 1, 1, 1])
    spec = FairnessSpec(["1/3", "2/3"])
    cover = opt_fair_cover(sys_, spec)
    assert cover.selected == (0, 2, 3)
    assert cover.group_counts == (1, 2)


# ------------------------------------------------------------------ opt_mkcc


def test_opt_mkcc_square_full_round():
    sys_ = square_system()
    ids, value = opt_mkcc(sys_, range(6), sys_.sets_by_color, (1, 1))
    assert ids == (0, 2)
    assert value == 6.0


def test_opt_mkcc_respects_uncovered_restriction():
    sys_ = square_system()
    ids, value = opt_mkcc(sys_, [5], sys_.sets_by_color, (1, 1))
    assert value == 1.0
    # Both colors must still contribute; ties go lexicographic.
    assert ids == (0, 2)


def test_opt_mkcc_weighted_ratio():
    sys_ = square_system([4.0, 1.0, 1.0, 1.0])
    ids, value = opt_mkcc(
        sys_, range(6), sys_.sets_by_color, (1, 1), weighted_ratio=True
    )
    # (1, 3) covers {0, 3, 4, 5} at weight 2, beating (0, 2)'s 5 over 6.
    assert ids == (1, 3)
    assert value == pytest.approx(0.5)


def test_opt_mkcc_refuses_a_short_pool_as_every_round_does():
    # Color 1 has no set left for its quota of one: no tuple exists at all.
    sys_ = SetSystem(2, [[0], [1]], [0, 1])
    with pytest.raises(InsufficientColor):
        opt_mkcc(sys_, [0, 1], [[0], []], (1, 1))


def test_opt_mkcc_budget_wall():
    sys_ = SetSystem(2, [[0], [1]] * 30, [0, 1] * 30)
    with pytest.raises(BudgetExceeded):
        opt_mkcc(sys_, range(2), sys_.sets_by_color, (10, 10))


# -------------------------------------------------------- opt_fair_multicover


def test_opt_fair_multicover_single_element_double_demand():
    sys_ = SetSystem(1, [[0], [0], [0], [0]], [0, 0, 1, 1])
    inst = MulticoverInstance(sys_, [2])
    cover = opt_fair_multicover(inst, count_parity(2))
    assert cover.selected == (0, 2)
    assert cover.size == 2


def test_opt_fair_multicover_needs_more_rounds():
    sys_ = SetSystem(2, [[0, 1], [0], [1], [0, 1], [0], [1]], [0, 0, 0, 1, 1, 1])
    inst = MulticoverInstance(sys_, [3, 1])
    cover = opt_fair_multicover(inst, count_parity(2))
    assert cover is not None
    counts = [0, 0]
    for i in cover.selected:
        for e in sys_.sets[i]:
            counts[e] += 1
    assert counts[0] >= 3 and counts[1] >= 1
    assert cover.size == 4


def test_opt_fair_multicover_infeasible_is_none():
    sys_ = SetSystem(1, [[0], [0]], [0, 1])
    inst = MulticoverInstance(sys_, [2])
    # A fair selection needs equal counts; both sets cover the element, so
    # (0, 1) works. Tighten demand past the supply and nothing does.
    assert opt_fair_multicover(inst, count_parity(2)) is not None
    inst3 = MulticoverInstance(SetSystem(1, [[0], [0], [0]], [0, 0, 1]), [3])
    assert opt_fair_multicover(inst3, count_parity(2)) is None


# ------------------------------------------------------- out-of-range element ids


def past_n_system():
    # Set 0 lists element 2 of a two-element universe; like the algorithms,
    # the oracles treat it as covering exactly {0, 1}.
    return SetSystem(2, [[0, 1, 2], [0], [1]], [0, 1, 1])


def test_opt_set_cover_ignores_element_ids_past_n():
    sys_ = past_n_system()
    assert opt_set_cover(sys_).selected == greedy_set_cover(sys_).selected == (0,)


def test_opt_fair_cover_ignores_element_ids_past_n():
    sys_ = past_n_system()
    halves = FairnessSpec(["1/2", "1/2"])
    assert opt_fair_cover(sys_, halves).selected == (0, 1)
    assert greedy_allpick(sys_, halves).selected == (0, 1)


def test_oracles_ignore_negative_element_ids():
    sys_ = SetSystem(3, [[0, -1], [1, 5], [2], [0, 2]], [0, 1, 0, 1])
    halves = FairnessSpec(["1/2", "1/2"])
    # No one-round pair covers {0, 1, 2}; two rounds take every set.
    assert opt_fair_cover(sys_, halves).selected == (0, 1, 2, 3)
    assert opt_fair_cover(sys_, halves, weighted=True).selected == (0, 1, 2, 3)
    assert opt_mkcc(sys_, [-1, 0, 1], sys_.sets_by_color, (1, 1)) == ((0, 1), 2.0)
    inst = MulticoverInstance(sys_, [1, 1, 1])
    assert opt_fair_multicover(inst, halves).selected == (0, 1, 2, 3)
