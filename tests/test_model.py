"""Data model: construction, validation, quota specs, fairness scoring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircover.errors import NegativeFraction, SumNotOne, ZeroFractionViolated
from faircover.model import (
    Cover,
    FairnessSpec,
    SetSystem,
    count_parity,
    delta,
    elements_of,
    fairness_report,
    mask_of,
    ratio_parity,
    validate_instance,
)


def make_square():
    # Two colors, four sets, universe of six; fair pair cover exists.
    return SetSystem(6, [[0, 1, 2], [3, 4], [3, 4, 5], [0, 5]], [0, 0, 1, 1])


# ------------------------------------------------------------ construction


def test_sets_are_sorted_and_deduplicated():
    sys_ = SetSystem(4, [[3, 1, 1, 0], [2]], [0, 1])
    assert sys_.sets == ((0, 1, 3), (2,))


def test_structural_mismatch_raises_value_error():
    with pytest.raises(ValueError):
        SetSystem(3, [[0], [1]], [0])
    with pytest.raises(ValueError):
        SetSystem(3, [[0]], [0], weights=[1.0, 2.0])
    with pytest.raises(ValueError):
        SetSystem(-1, [], [])
    with pytest.raises(ValueError):
        SetSystem(2, [[0]], [-1])


def test_derived_views():
    sys_ = make_square()
    assert sys_.num_sets == 4
    assert sys_.num_colors == 2
    assert sys_.sets_by_color == ((0, 1), (2, 3))
    assert sys_.element_sets[0] == (0, 3)
    assert sys_.element_sets[5] == (2, 3)
    assert sys_.group_sizes == (2, 2)
    assert sys_.weight(0) == 1.0


def test_masks_ignore_ids_outside_the_universe():
    sys_ = SetSystem(3, [[0, -1], [1, 5], [2, 0], []], [0, 0, 1, 1])
    assert sys_.masks == (0b001, 0b010, 0b101, 0)
    for j, containing in enumerate(sys_.element_sets):
        assert containing == tuple(i for i, m in enumerate(sys_.masks) if m >> j & 1)
    assert mask_of([4, 2, -3, 0, 2], 3) == 0b101
    assert elements_of(0b101101) == [0, 2, 3, 5]
    assert elements_of(0) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 2000) - 1))
def test_elements_of_lists_the_set_bits_by_definition(mask):
    assert elements_of(mask) == [e for e in range(mask.bit_length()) if mask >> e & 1]


# -------------------------------------------------------------- validation


def test_validation_accepts_covering_instance():
    out = validate_instance(make_square())
    assert out.ok
    assert out.uncovered_elements == ()


def test_validation_reports_uncovered_elements():
    sys_ = SetSystem(4, [[0, 1]], [0])
    out = validate_instance(sys_)
    assert not out.ok
    assert out.uncovered_elements == (2, 3)


def test_validation_reports_out_of_range_and_bad_weights():
    sys_ = SetSystem(2, [[0, 5], [1]], [0, 1], weights=[1.0, 0.0])
    out = validate_instance(sys_)
    assert out.out_of_range_sets == (0,)
    assert out.nonpositive_weight_sets == (1,)


def test_validation_flags_negative_and_past_end_ids():
    sys_ = SetSystem(4, [[-2, 0], [1], [2, 7], [], [-1, 4]], [0, 0, 1, 1, 1])
    out = validate_instance(sys_)
    assert out.out_of_range_sets == (0, 2, 4)
    assert out.uncovered_elements == (3,)


def test_validation_reports_empty_colors():
    sys_ = SetSystem(1, [[0], [0]], [0, 2])
    out = validate_instance(sys_)
    assert out.empty_colors == (1,)


# -------------------------------------------------------------- quota spec


def test_fraction_spec_halves():
    spec = FairnessSpec([Fraction(1, 2), Fraction(1, 2)])
    assert spec.p == 2
    assert spec.per_round == (1, 1)


def test_fraction_spec_thirds():
    spec = FairnessSpec(["1/3", "2/3"])
    assert spec.p == 3
    assert spec.per_round == (1, 2)


def test_fraction_spec_mixed_denominators():
    spec = FairnessSpec([(1, 2), (1, 3), (1, 6)])
    assert spec.p == 6
    assert spec.per_round == (3, 2, 1)


def test_fraction_spec_rejects_bad_sums():
    with pytest.raises(SumNotOne):
        FairnessSpec([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(NegativeFraction):
        FairnessSpec([Fraction(3, 2), Fraction(-1, 2)])


def test_count_parity_and_ratio_parity():
    assert count_parity(3).per_round == (1, 1, 1)
    sys_ = SetSystem(2, [[0], [1], [0, 1], [0], [0], [1], [0], [1]],
                     [0, 0, 1, 1, 1, 1, 1, 1])
    spec = ratio_parity(sys_)
    assert spec.fractions == (Fraction(1, 4), Fraction(3, 4))
    assert spec.p == 4
    assert spec.per_round == (1, 3)


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5)
       .filter(lambda ws: sum(ws) > 0))
def test_fraction_spec_round_shape(weights):
    total = sum(weights)
    spec = FairnessSpec([Fraction(w, total) for w in weights])
    assert sum(spec.per_round) == spec.p
    for f, q in zip(spec.fractions, spec.per_round):
        assert Fraction(q, spec.p) == f


# ------------------------------------------------------------------- delta


def test_delta_weighted_and_unweighted():
    sys_ = make_square()
    assert delta(sys_) == 1.0
    w = SetSystem(6, sys_.sets, sys_.colors, [1.0, 2.0, 8.0, 4.0])
    assert delta(w) == 8.0


# ------------------------------------------------------------------- cover


def test_cover_from_rounds_counts_and_weight():
    sys_ = SetSystem(6, [[0, 1, 2], [3, 4], [3, 4, 5], [0, 5]], [0, 0, 1, 1],
                     [2.0, 1.0, 1.5, 3.0])
    cover = Cover.from_rounds(sys_, [(0, 2), (1, 3)])
    assert cover.selected == (0, 2, 1, 3)
    assert cover.group_counts == (2, 2)
    assert cover.total_weight == pytest.approx(7.5)
    assert cover.covers_universe(sys_)


def test_cover_ignores_element_ids_outside_the_universe():
    # Element 7 lies outside [0, 6) and must not stand in for element 5.
    sys_ = SetSystem(6, [[0, 1, 2, 3, 4, 7]], [0])
    cover = Cover.from_selection(sys_, (0,))
    assert not cover.covers_universe(sys_)
    assert cover.covered_elements(sys_) == frozenset(range(5))


def test_cover_rejects_duplicates_and_bad_ids():
    sys_ = make_square()
    with pytest.raises(ValueError):
        Cover.from_rounds(sys_, [(0, 2), (2, 3)])
    with pytest.raises(ValueError):
        Cover.from_selection(sys_, [0, 9])


# -------------------------------------------------------- fairness scoring


def test_fairness_report_exact_parity():
    sys_ = make_square()
    cover = Cover.from_rounds(sys_, [(0, 2)])
    rep = fairness_report(sys_, count_parity(2), cover)
    assert rep.fairness_ratio == 1
    assert rep.per_group_ratio == (Fraction(2), Fraction(2))


def test_fairness_report_lopsided_cover():
    sys_ = SetSystem(4, [[0], [1], [2], [3]], [0, 0, 0, 1])
    cover = Cover.from_selection(sys_, [0, 1, 2, 3])
    rep = fairness_report(sys_, count_parity(2), cover)
    # counts (3, 1): ratios 6 and 2, spread 1/3
    assert rep.fairness_ratio == Fraction(1, 3)


def test_fairness_report_zero_fraction_group():
    sys_ = make_square()
    spec = FairnessSpec([Fraction(1), Fraction(0)])
    only_red = Cover.from_selection(sys_, [0, 1])
    rep = fairness_report(sys_, spec, only_red)
    assert rep.per_group_ratio[1] is None
    assert rep.fairness_ratio == 1
    with pytest.raises(ZeroFractionViolated):
        fairness_report(sys_, spec, Cover.from_selection(sys_, [0, 2]))


def test_fairness_report_reads_an_unnamed_color_as_share_zero():
    sys_ = SetSystem(3, [[0], [1], [2]], [0, 1, 2])
    named = Cover.from_selection(sys_, [0, 1])
    rep = fairness_report(sys_, count_parity(2), named)
    assert rep == fairness_report(sys_, FairnessSpec(["1/2", "1/2", 0]), named)
    assert rep.per_group_ratio == (Fraction(2), Fraction(2), None)
    assert rep.fairness_ratio == 1
    with pytest.raises(ZeroFractionViolated, match="group 2 has target fraction 0"):
        fairness_report(sys_, count_parity(2), Cover.from_selection(sys_, [0, 1, 2]))


def test_fairness_report_empty_cover_is_trivially_even():
    sys_ = make_square()
    rep = fairness_report(sys_, count_parity(2), Cover.from_selection(sys_, []))
    assert rep.fairness_ratio == 1


@settings(max_examples=200)
@given(
    counts=st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda c: sum(c) > 0)
)
def test_fairness_ratio_is_one_exactly_when_counts_match_shares(counts):
    # Build a system with enough singleton sets of each color to realize counts.
    n = sum(counts)
    sets = [[j] for j in range(n)]
    colors = [0] * counts[0] + [1] * counts[1]
    sys_ = SetSystem(n, sets, colors)
    cover = Cover.from_selection(sys_, range(n))
    spec = count_parity(2)
    rep = fairness_report(sys_, spec, cover)
    exact = all(
        Fraction(c) == f * cover.size for c, f in zip(counts, spec.fractions)
    )
    assert (rep.fairness_ratio == 1) == exact
    assert 0 <= rep.fairness_ratio <= 1
