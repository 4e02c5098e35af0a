"""Unweighted algorithms: plain greedy, padding, round tuples, LP rounding."""

import math
from collections import Counter

import numpy as np
import pytest

from faircover import unweighted
from faircover.errors import (
    AllTauInfeasible,
    AllTuplesZeroCoverage,
    BudgetExceeded,
    InsufficientColor,
    NoProgress,
    ZeroFractionViolated,
)
from faircover.generalized import EpsilonSpec, epsilon_gfsc, gfsc
from faircover.io_generators import gen_synthetic
from faircover.lp import LpProblem, LpSolution, build_mkcc_lp, solve
from faircover.model import FairnessSpec, SetSystem, count_parity, fairness_report
from faircover.multicover import MulticoverInstance, fair_multicover_greedy
from faircover.oracles import opt_fair_cover, opt_mkcc, opt_set_cover
from faircover.unweighted import (
    ZERO_PROGRESS_RESAMPLES,
    GreedyState,
    eff_fsc,
    greedy_allpick,
    greedy_set_cover,
    mkcc_greedy,
    mkcc_lp_round,
    naive_fsc,
)
from faircover.weighted import eff_wfsc, greedy_weighted_allpick, naive_wfsc

from support import brute_best_tuple, replay_states

SPEC2 = count_parity(2)


def square_system():
    return SetSystem(6, [[0, 1, 2], [3, 4], [3, 4, 5], [0, 5]], [0, 0, 1, 1])


def staged_system():
    """Sixteen elements, four red and three blue sets, built so the round
    argmaxes are (0,4), then (2,5), then (3,6), while plain greedy ends up
    three red to one blue."""
    return SetSystem(
        16,
        [
            [0, 1, 2, 3, 4, 5],      # 0 red
            [0, 1, 6],               # 1 red
            [6, 7, 8, 9, 10],        # 2 red
            [11, 12, 13],            # 3 red
            [6, 7, 8, 14, 15],       # 4 blue
            [11],                    # 5 blue
            [12],                    # 6 blue
        ],
        [0, 0, 0, 0, 1, 1, 1],
    )


def assert_fair(system, spec, cover):
    assert cover.covers_universe(system)
    assert fairness_report(system, spec, cover).fairness_ratio == 1


# --------------------------------------------------------- greedy_set_cover


def test_greedy_chain_picks_biggest_then_rest():
    sys_ = SetSystem(4, [[0, 1, 2], [2, 3], [3]], [0, 0, 0])
    cover = greedy_set_cover(sys_)
    assert cover.selected == (0, 1)
    # Independent optimum confirms greedy is exact here.
    assert opt_set_cover(sys_).size == 2


def test_greedy_breaks_ties_toward_lower_ids():
    sys_ = SetSystem(4, [[2, 3], [0, 1], [0, 1]], [0, 0, 0])
    cover = greedy_set_cover(sys_)
    assert cover.selected == (0, 1)


def test_greedy_ignores_colors_and_can_be_lopsided():
    sys_ = staged_system()
    cover = greedy_set_cover(sys_)
    assert cover.selected == (0, 2, 3, 4)
    assert cover.group_counts == (3, 1)
    rep = fairness_report(sys_, SPEC2, cover)
    assert rep.fairness_ratio == pytest.approx(1 / 3)


# ------------------------------------------------------------------ naive_fsc


def test_naive_pads_to_exact_parity():
    sys_ = staged_system()
    cover = naive_fsc(sys_, SPEC2)
    # Greedy lands at counts (3, 1); the smallest parity target is (3, 3).
    assert cover.group_counts == (3, 3)
    assert cover.selected[:4] == (0, 2, 3, 4)
    assert set(cover.selected[4:]) == {5, 6}
    assert_fair(sys_, SPEC2, cover)


def test_naive_no_padding_when_already_fair():
    sys_ = square_system()
    cover = naive_fsc(sys_, SPEC2)
    assert cover.group_counts == (1, 1)
    assert cover.size == 2


def test_naive_respects_uneven_fractions():
    sys_ = SetSystem(6, [[0, 1, 2, 3, 4, 5], [0, 1]] + [[j] for j in range(6)],
                     [0, 0] + [1] * 6)
    spec = FairnessSpec(["1/3", "2/3"])
    cover = naive_fsc(sys_, spec)
    assert cover.group_counts == (1, 2)
    assert_fair(sys_, spec, cover)


def test_naive_insufficient_padding_sets():
    # Greedy needs both red sets; one lonely blue set cannot reach parity.
    sys_ = SetSystem(4, [[0, 1], [2, 3], [0]], [0, 0, 1])
    with pytest.raises(InsufficientColor):
        naive_fsc(sys_, SPEC2)


@pytest.mark.parametrize("naive", [naive_fsc, naive_wfsc])
def test_naive_greedy_pick_of_a_zero_share_color_is_a_zero_fraction_error(naive):
    # Greedy needs set 2, the only blue set, but blue's share is 0: no
    # padding can make that cover fair, and no color is short of sets.
    sys_ = SetSystem(2, [[0], [1], [0, 1]], [0, 0, 1])
    with pytest.raises(ZeroFractionViolated,
                       match=r"^group 1 has target fraction 0 but 1 selected set\(s\)$"):
        naive(sys_, FairnessSpec([1, 0]))


# -------------------------------------------------------------- greedy_allpick


def test_allpick_square_single_round():
    cover = greedy_allpick(square_system(), SPEC2)
    assert cover.rounds == ((0, 2),)
    assert_fair(square_system(), SPEC2, cover)


def test_allpick_staged_round_order():
    sys_ = staged_system()
    cover = greedy_allpick(sys_, SPEC2)
    assert cover.rounds == ((0, 4), (2, 5), (3, 6))
    assert_fair(sys_, SPEC2, cover)


def test_allpick_rounds_are_true_argmaxes():
    for seed in range(6):
        sys_ = gen_synthetic(12, 5, 2, coverage_dist=("uniform", 0.3), seed=seed)
        cover = greedy_allpick(sys_, SPEC2)
        assert_fair(sys_, SPEC2, cover)
        for targets, remaining, ids in replay_states(sys_, cover.rounds):
            value, best_ids = brute_best_tuple(sys_, targets, remaining, (1, 1))
            assert ids == best_ids
            got = len(set().union(*(set(sys_.sets[i]) for i in ids)) & targets)
            assert got == value


def test_allpick_three_colors():
    sys_ = gen_synthetic(15, 5, 3, coverage_dist=("uniform", 0.3), seed=11)
    spec = count_parity(3)
    cover = greedy_allpick(sys_, spec)
    assert_fair(sys_, spec, cover)
    assert cover.size % 3 == 0


def test_allpick_matches_fair_optimum_within_log_bound():
    for seed in range(5):
        sys_ = gen_synthetic(10, 5, 2, coverage_dist=("uniform", 0.35), seed=seed)
        opt = opt_fair_cover(sys_, SPEC2)
        if opt is None:
            continue
        cover = greedy_allpick(sys_, SPEC2)
        assert cover.size <= (math.log(sys_.n) + 1) * opt.size


def test_allpick_insufficient_color():
    sys_ = SetSystem(3, [[0], [1], [2]], [0, 0, 1])
    with pytest.raises(InsufficientColor):
        greedy_allpick(sys_, SPEC2)


def test_allpick_budget_refusal():
    # 4000 * 4000 tuples per round is past TUPLE_BUDGET.
    sys_ = gen_synthetic(10, 4000, 2, coverage_dist=("uniform", 0.4), seed=0)
    with pytest.raises(BudgetExceeded):
        greedy_allpick(sys_, SPEC2)


# --------------------------------------------------------------- mkcc_greedy


def test_mkcc_greedy_square():
    sys_ = square_system()
    state = GreedyState.fresh(sys_)
    assert mkcc_greedy(sys_, state, (1, 1)) == (0, 2)
    # The state is never mutated by the subroutine.
    assert state.uncovered == 0b111111
    assert state.remaining == [[0, 1], [2, 3]]


def test_mkcc_greedy_skips_sets_once_quota_met():
    sys_ = SetSystem(6, [[0, 1, 2, 3], [4, 5], [4]], [0, 0, 1])
    ids = mkcc_greedy(sys_, GreedyState.fresh(sys_), (1, 1))
    # Set 1 has the second-best marginal but red is already served.
    assert ids == (0, 2)


def test_mkcc_greedy_pads_missing_colors():
    sys_ = SetSystem(1, [[0], [], []], [0, 1, 1])
    ids = mkcc_greedy(sys_, GreedyState.fresh(sys_), (1, 1))
    assert ids == (0, 1)


def test_mkcc_greedy_half_of_optimum():
    for seed in range(20):
        sys_ = gen_synthetic(12, 6, 2, coverage_dist=("uniform", 0.3), seed=seed)
        state = GreedyState.fresh(sys_)
        ids = mkcc_greedy(sys_, state, (1, 1))
        got = state.new_coverage(sys_, ids)
        _, best = opt_mkcc(sys_, range(sys_.n), sys_.sets_by_color, (1, 1))
        assert got >= 0.5 * best


def test_mkcc_greedy_respects_larger_quotas():
    sys_ = gen_synthetic(12, 6, 2, coverage_dist=("uniform", 0.3), seed=3)
    ids = mkcc_greedy(sys_, GreedyState.fresh(sys_), (2, 1))
    assert len(ids) == 3
    assert [sys_.colors[i] for i in ids].count(0) == 2


# -------------------------------------------------------------- mkcc_lp_round


def test_lp_round_integral_solution_is_deterministic():
    sys_ = square_system()
    picks = {
        mkcc_lp_round(sys_, GreedyState.fresh(sys_), (1, 1), rng=seed)
        for seed in range(10)
    }
    assert picks == {(0, 2)}


def test_lp_round_is_seed_reproducible():
    sys_ = gen_synthetic(14, 6, 2, coverage_dist=("uniform", 0.25), seed=9)
    state = GreedyState.fresh(sys_)
    a = mkcc_lp_round(sys_, state, (1, 1), rng=123)
    b = mkcc_lp_round(sys_, state, (1, 1), rng=123)
    assert a == b


def test_lp_round_returns_quota_shape():
    sys_ = gen_synthetic(14, 6, 2, coverage_dist=("uniform", 0.25), seed=2)
    ids = mkcc_lp_round(sys_, GreedyState.fresh(sys_), (2, 1), rng=5)
    assert len(ids) == len(set(ids)) == 3
    assert sorted(sys_.colors[i] for i in ids) == [0, 0, 1]


# -------------------------------------------------------------------- eff_fsc


def test_eff_fsc_greedy_square():
    cover = eff_fsc(square_system(), SPEC2, subroutine="greedy")
    assert cover.rounds == ((0, 2),)


def test_eff_fsc_both_subroutines_are_fair():
    for seed in range(6):
        sys_ = gen_synthetic(16, 7, 2, coverage_dist=("uniform", 0.3), seed=seed)
        for sub in ("greedy", "lp"):
            cover = eff_fsc(sys_, SPEC2, subroutine=sub, rng=seed)
            assert_fair(sys_, SPEC2, cover)


def test_eff_fsc_deterministic_per_seed():
    sys_ = gen_synthetic(16, 7, 2, coverage_dist=("uniform", 0.3), seed=4)
    a = eff_fsc(sys_, SPEC2, subroutine="lp", rng=77)
    b = eff_fsc(sys_, SPEC2, subroutine="lp", rng=77)
    assert a == b


def integral_rounds(system, spec, cover):
    """True when every committed round's relaxation optimum was integral."""
    for targets, remaining, _ in replay_states(system, cover.rounds):
        lp = build_mkcc_lp(system, remaining, sorted(targets), spec.per_round)
        sol = solve(lp)
        if any(min(abs(v), abs(v - 1.0)) > 1e-9 for v in sol.values):
            return False
    return True


def test_eff_fsc_lp_equals_allpick_when_rounds_integral():
    # Unique dominant pairs per round force integral relaxations.
    sys_ = SetSystem(
        8, [[0, 1, 2], [5, 6], [3, 4], [7]], [0, 0, 1, 1]
    )
    exhaustive = greedy_allpick(sys_, SPEC2)
    assert integral_rounds(sys_, SPEC2, exhaustive)
    for seed in range(5):
        assert eff_fsc(sys_, SPEC2, subroutine="lp", rng=seed) == exhaustive
    square = square_system()
    assert eff_fsc(square, SPEC2, subroutine="lp", rng=0) == greedy_allpick(
        square, SPEC2
    )


def test_eff_fsc_zero_progress_fallback_via_pluggable_solver(monkeypatch):
    # A legal but unhelpful optimal point: all mass on empty sets. The
    # sampler can never make progress, so after exactly the redraw budget
    # the round must fall back to the marginal greedy and still finish
    # fairly.
    sys_ = SetSystem(1, [[0], [], [0], []], [0, 0, 1, 1])

    def stubborn(problem: LpProblem) -> LpSolution:
        values = [0.0] * problem.num_vars
        values[1] = 1.0  # red mass on the empty set
        values[3] = 1.0  # blue mass on the empty set
        return LpSolution("optimal", tuple(values), 0.0)

    calls = Counter()
    for name in ("sample_round_tuple", "mkcc_greedy"):
        real = getattr(unweighted, name)
        monkeypatch.setattr(
            unweighted, name,
            lambda *args, _name=name, _real=real: calls.update([_name]) or _real(*args),
        )
    cover = eff_fsc(sys_, SPEC2, subroutine="lp", rng=0, lp_solver=stubborn)
    assert cover.rounds == ((0, 2),)
    assert calls == {"sample_round_tuple": 1 + ZERO_PROGRESS_RESAMPLES, "mkcc_greedy": 1}


def test_eff_fsc_sizes_within_doubled_log_bound():
    for seed in range(5):
        sys_ = gen_synthetic(12, 6, 2, coverage_dist=("uniform", 0.35), seed=seed)
        opt = opt_fair_cover(sys_, SPEC2)
        if opt is None:
            continue
        cover = eff_fsc(sys_, SPEC2, subroutine="greedy")
        assert cover.size <= 2 * (math.log(sys_.n) + 1) * opt.size


def test_eff_fsc_rejects_unknown_subroutine():
    with pytest.raises(ValueError):
        eff_fsc(square_system(), SPEC2, subroutine="annealing")


# ------------------------------------------------------------- stuck errors


def stranded_system():
    """Element 2 lies in no set. Three sets per color leave a third round
    available after at most two rounds covering elements 0 and 1, so every
    round loop gets stuck rather than running out of sets."""
    return SetSystem(3, [[0], [1], [], [0], [1], []], [0, 0, 0, 1, 1, 1],
                     weights=[1.0] * 6)


def zero_share_multicover():
    # Only color 1 may be picked, and its one set is empty.
    return MulticoverInstance(SetSystem(1, [[0], [0], []], [0, 0, 1]), (1,))


@pytest.mark.parametrize(
    "run, error",
    [
        (lambda: greedy_set_cover(stranded_system()), NoProgress),
        (lambda: greedy_allpick(stranded_system(), SPEC2), NoProgress),
        (lambda: eff_fsc(stranded_system(), SPEC2, subroutine="greedy"), NoProgress),
        (lambda: eff_fsc(stranded_system(), SPEC2, subroutine="lp", rng=0), NoProgress),
        (lambda: naive_wfsc(stranded_system(), SPEC2), AllTuplesZeroCoverage),
        (lambda: greedy_weighted_allpick(stranded_system(), SPEC2),
         AllTuplesZeroCoverage),
        (lambda: eff_wfsc(stranded_system(), SPEC2, rng=0), AllTauInfeasible),
        (lambda: fair_multicover_greedy(zero_share_multicover(), FairnessSpec([0, 1])),
         NoProgress),
        (lambda: fair_multicover_greedy(zero_share_multicover(), FairnessSpec([0, 1]),
                                        mode="mkcc_sub", rng=0), NoProgress),
    ],
    ids=["sc", "allpick", "eff-greedy", "eff-lp", "wfsc-naive", "wfsc-allpick",
         "wfsc-eff", "multicover", "multicover-lp"],
)
def test_stuck_round_loops_raise_their_typed_error(run, error):
    with pytest.raises(error):
        run()


def test_deterministic_runs_build_no_generator(monkeypatch):
    # Runs that draw nothing give the same cover for any rng, so building a
    # Generator for them (with rng=None, from OS entropy) is waste.
    system = square_system()
    expected = eff_fsc(system, SPEC2, subroutine="greedy", rng=0).rounds
    multicover = MulticoverInstance(system, [1] * system.n)

    def refuse(*args):
        pytest.fail("a run that draws nothing built a Generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for rng in (None, 0):
        assert eff_fsc(system, SPEC2, subroutine="greedy", rng=rng).rounds == expected
        assert gfsc(system, SPEC2, mode="greedy_sub", rng=rng).rounds == expected
        band = EpsilonSpec(SPEC2, "1/2")
        assert epsilon_gfsc(system, band, mode="greedy_sub", rng=rng)[0].rounds == expected
        assert epsilon_gfsc(system, band, rng=rng)[0].rounds == greedy_allpick(system, SPEC2).rounds
        assert fair_multicover_greedy(multicover, SPEC2, rng=rng)[0].rounds
    # The sampled paths still build one from the seed.
    with pytest.raises(pytest.fail.Exception):
        eff_fsc(system, SPEC2, subroutine="lp", rng=0)
    with pytest.raises(pytest.fail.Exception):
        fair_multicover_greedy(multicover, SPEC2, mode="mkcc_sub", rng=0)
