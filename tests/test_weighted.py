"""Weighted algorithms: cheapest-coverage greedy and the target sweep."""

import math

import pytest

from faircover import unweighted
from faircover.errors import (
    AllTauInfeasible,
    AllTuplesZeroCoverage,
    BudgetExceeded,
    InsufficientColor,
    ResampleCapExceeded,
)
from faircover.generalized import gfwsc
from faircover.io_generators import gen_synthetic
from faircover.lp import LpProblem, LpSolution
from faircover.model import SetSystem, count_parity, fairness_report
from faircover.oracles import opt_fair_cover, opt_mkcc
from faircover.unweighted import GreedyState, greedy_allpick, naive_fsc
from faircover.weighted import (
    ACCEPT_FACTOR,
    TauCandidate,
    accept_threshold,
    eff_wfsc,
    greedy_weighted_allpick,
    naive_wfsc,
    resample_cap,
    weighted_mkcc_round,
)

from support import brute_best_tuple, c01_instance, replay_states

SPEC2 = count_parity(2)


def weighted_square(weights=(1.0, 1.0, 10.0, 1.0)):
    return SetSystem(
        6, [[0, 1, 2], [3, 4], [3, 4, 5], [0, 5]], [0, 0, 1, 1], weights=weights
    )


def weighted_instance(seed, n=14, m=6):
    return gen_synthetic(
        n, m, 2,
        coverage_dist=("uniform", 0.3),
        weight_dist=("uniform", 0.5, 4.0),
        seed=seed,
    )


# ------------------------------------------------------------------ naive_wfsc


def test_naive_wfsc_pads_with_cheapest_sets():
    sys_ = SetSystem(
        6,
        [[0, 1, 2], [3, 4], [3, 4, 5], [0, 5], [0]],
        [0, 0, 1, 1, 1],
        weights=[1.0, 1.0, 10.0, 1.0, 2.0],
    )
    cover = naive_wfsc(sys_, SPEC2)
    # Cheapest-per-element greedy lands on sets 0, 1, 3; blue padding then
    # prefers the 2.0 set over the 10.0 one.
    assert cover.selected == (0, 1, 3, 4)
    assert cover.group_counts == (2, 2)
    assert cover.total_weight == pytest.approx(5.0)


def test_naive_wfsc_equals_unweighted_naive_on_unit_weights():
    for seed in range(6):
        plain = gen_synthetic(12, 5, 2, coverage_dist=("uniform", 0.3), seed=seed)
        unit = SetSystem(
            plain.n, plain.sets, plain.colors, weights=[1.0] * plain.num_sets
        )
        got = naive_wfsc(unit, SPEC2)
        want = naive_fsc(plain, SPEC2)
        assert got.rounds == want.rounds


def test_naive_wfsc_untouched_element_is_loud():
    sys_ = SetSystem(2, [[0], [0]], [0, 1], weights=[1.0, 1.0])
    with pytest.raises(AllTuplesZeroCoverage):
        naive_wfsc(sys_, SPEC2)


# ------------------------------------------------------- greedy_weighted_allpick


def test_weighted_allpick_prefers_cheap_ratio():
    cover = greedy_weighted_allpick(weighted_square(), SPEC2)
    # (0, 3) covers four elements at weight 2; (0, 2) covers six at 11.
    assert cover.rounds[0] == (0, 3)
    assert cover.covers_universe(weighted_square())
    assert fairness_report(weighted_square(), SPEC2, cover).fairness_ratio == 1


def test_weighted_allpick_equals_allpick_on_unit_weights():
    for seed in range(6):
        plain = gen_synthetic(12, 5, 2, coverage_dist=("uniform", 0.3), seed=seed)
        unit = SetSystem(
            plain.n, plain.sets, plain.colors, weights=[1.0] * plain.num_sets
        )
        assert greedy_weighted_allpick(unit, SPEC2).rounds == greedy_allpick(
            plain, SPEC2
        ).rounds


def test_weighted_allpick_rounds_are_true_argmins():
    for seed in range(6):
        sys_ = weighted_instance(seed, n=12, m=5)
        cover = greedy_weighted_allpick(sys_, SPEC2)
        assert cover.covers_universe(sys_)
        assert fairness_report(sys_, SPEC2, cover).fairness_ratio == 1
        for targets, remaining, ids in replay_states(sys_, cover.rounds):
            _, best_ids = brute_best_tuple(sys_, targets, remaining, (1, 1),
                                           ratio=True)
            assert ids == best_ids


def test_weighted_allpick_skips_useless_tuples_then_fails_loud():
    sys_ = SetSystem(2, [[0], [], [0], []], [0, 0, 1, 1],
                     weights=[1.0, 1.0, 1.0, 1.0])
    with pytest.raises(AllTuplesZeroCoverage):
        greedy_weighted_allpick(sys_, SPEC2)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("weights", [None, []], ids=["unweighted", "weighted"])
def test_naive_wfsc_without_sets_raises_typed(n, weights):
    # No set touches any element: a typed failure, with no row to probe.
    with pytest.raises(AllTuplesZeroCoverage):
        naive_wfsc(SetSystem(n, [], [], weights), count_parity(1))


def test_weighted_allpick_budget_refusal():
    # 4000 * 4000 tuples per round is past TUPLE_BUDGET.
    sys_ = weighted_instance(0, n=10, m=4000)
    with pytest.raises(BudgetExceeded):
        greedy_weighted_allpick(sys_, SPEC2)


def test_weighted_allpick_rounds_stop_each_prefix_early(monkeypatch):
    # The work as numbers, on a fixed corpus of two- and three-color
    # systems with U(1, 5) weights. Each prefix scans its completions
    # lightest first, so the best is found sooner: the rounds build at most
    # 48 id tuples, where the same skip rule over every tuple in product()
    # order built 66. And each prefix stops once its completions' weight
    # per uncovered element passes the best score by the margin: at most
    # 438 of the rounds' 586 tuples get a coverage test.
    built, scanned, every = [], [], []
    real_ids, real_lightest_first = unweighted._ids, unweighted._lightest_first

    class Counted(list):
        def __iter__(self):
            for part in list.__iter__(self):
                scanned.append(1)
                yield part

    def ids(parts):
        built.append(1)
        return real_ids(parts)

    def lightest_first(split):
        prefix_tables, completions = real_lightest_first(split)
        every.append(math.prod(map(len, prefix_tables)) * len(completions))
        return prefix_tables, Counted(completions)

    monkeypatch.setattr(unweighted, "_ids", ids)
    monkeypatch.setattr(unweighted, "_lightest_first", lightest_first)
    for seed in range(6):
        k = 2 + seed % 2
        sys_ = gen_synthetic(10 + seed, 7 if k == 2 else 4, k, ("uniform", 0.3),
                             ("uniform", 1.0, 5.0), seed=seed)
        before = len(built)
        cover = greedy_weighted_allpick(sys_, count_parity(k))
        assert len(built) - before >= len(cover.rounds), seed
    assert len(built) <= 48
    assert sum(every) == 586
    assert len(scanned) <= 438


# A NaN weight gives a NaN score, which ranks neither above nor below any
# other, so the winner would hang on scan order; so does a tuple holding
# both an infinite and a negatively infinite weight (inf + -inf is NaN).
NAN_WEIGHT = SetSystem(2, [[], [], [0], [1]], [0, 1, 1, 0], [1.5, 1.0, 2.0, math.nan])
# Each system with a non-finite weight, the test id suffix of its rows, and
# the set the weight scans name.
NON_FINITE = [
    (NAN_WEIGHT, "", "set 3 has weight NaN"),
    (SetSystem(2, [[], [], [0], [1]], [0, 1, 1, 0], [1.5, 1.0, 2.0, math.inf]), "-inf",
     "set 3 has weight inf"),
    (SetSystem(2, [[], [], [0], [1]], [0, 1, 1, 0], [1.5, 1.0, -math.inf, 1.0]), "-neginf",
     "set 2 has weight -inf"),
]
SCANS = {
    "naive_wfsc": lambda s: naive_wfsc(s, SPEC2),
    "greedy_weighted_allpick": lambda s: greedy_weighted_allpick(s, SPEC2),
    "gfwsc-exhaustive": lambda s: gfwsc(s, SPEC2, mode="exhaustive"),
    "opt_fair_cover": lambda s: opt_fair_cover(s, SPEC2, weighted=True),
    "opt_mkcc": lambda s: opt_mkcc(s, [0, 1], s.sets_by_color, (1, 1), weighted_ratio=True),
}
LP_RUNS = {
    "eff_wfsc": lambda s: eff_wfsc(s, SPEC2, rng=0),
    "gfwsc-lp_sub": lambda s: gfwsc(s, SPEC2, mode="lp_sub", rng=0),
}


@pytest.mark.parametrize("system, run, message", [
    pytest.param(system, run, f"^{named}$", id=name + suffix)
    for system, suffix, named in NON_FINITE
    for name, run in SCANS.items()
] + [
    pytest.param(system, run, "^objective entries must be finite$", id=name + suffix)
    for system, suffix, _ in NON_FINITE
    for name, run in LP_RUNS.items()
])
def test_every_weight_scan_refuses_a_nan_weight(system, run, message):
    with pytest.raises(ValueError, match=message):
        run(system)


def test_a_tuple_of_both_infinities_is_refused_not_ranked():
    # (0, 2) weighs inf + -inf = NaN and is scanned first; a NaN score is
    # never displaced, so without the gate the round would return it.
    sys_ = SetSystem(2, [[0], [0, 1], [1], [1]], [0, 0, 1, 1], [math.inf, 1.0, -math.inf, 1.0])
    with pytest.raises(ValueError, match="^set 0 has weight inf$"):
        opt_mkcc(sys_, [0, 1], sys_.sets_by_color, (1, 1), weighted_ratio=True)


# ----------------------------------------------------------- sweep ingredients


def test_accept_threshold_values():
    assert math.isclose(ACCEPT_FACTOR, 0.5 * (1 - 1 / math.e))
    assert [accept_threshold(t) for t in (1, 2, 3, 4, 10)] == [1, 1, 1, 2, 4]


def test_resample_cap_values():
    assert resample_cap(1) == 13
    assert resample_cap(10) == 127


def test_weighted_round_candidate_invariants():
    for seed in range(5):
        sys_ = weighted_instance(seed)
        state = GreedyState.fresh(sys_)
        cand = weighted_mkcc_round(sys_, state, (1, 1), rng=seed)
        assert isinstance(cand, TauCandidate)
        assert 1 <= cand.tau <= sys_.n
        assert cand.covered_new >= accept_threshold(cand.tau)
        assert cand.ratio == pytest.approx(cand.lp_objective / cand.covered_new)
        assert sorted(sys_.colors[i] for i in cand.ids) == [0, 1]
        assert state.new_coverage(sys_, cand.ids) == cand.covered_new


def test_weighted_round_is_seed_reproducible():
    sys_ = weighted_instance(3)
    state = GreedyState.fresh(sys_)
    assert weighted_mkcc_round(sys_, state, (1, 1), rng=42) == weighted_mkcc_round(
        sys_, state, (1, 1), rng=42
    )


def test_weighted_round_all_targets_infeasible():
    sys_ = SetSystem(2, [[0], [], [0], []], [0, 0, 1, 1],
                     weights=[1.0, 1.0, 1.0, 1.0])
    state = GreedyState.fresh(sys_)
    state.commit(sys_, (0, 2))
    with pytest.raises(AllTauInfeasible):
        weighted_mkcc_round(sys_, state, (1, 1), rng=0)


def test_weighted_round_stops_sweep_at_unreachable_target():
    # Element 2 is in no set, so targets beyond 2 are infeasible and the
    # sweep must still return the best reachable round.
    sys_ = SetSystem(3, [[0], [1], [0, 1]], [0, 0, 1], weights=[1.0, 1.0, 1.0])
    cand = weighted_mkcc_round(sys_, GreedyState.fresh(sys_), (1, 1), rng=0)
    assert cand.tau <= 2
    assert cand.covered_new >= 1


def test_weighted_round_resample_cap_is_loud(monkeypatch):
    sys_ = SetSystem(1, [[0], [], [0], []], [0, 0, 1, 1],
                     weights=[1.0, 1.0, 1.0, 1.0])

    def stubborn(problem: LpProblem) -> LpSolution:
        values = [0.0] * problem.num_vars
        values[1] = 1.0
        values[3] = 1.0
        return LpSolution("optimal", tuple(values), 0.0)

    draws = []
    real = unweighted.sample_round_tuple
    monkeypatch.setattr(
        unweighted, "sample_round_tuple", lambda *args: draws.append(1) or real(*args)
    )
    with pytest.raises(ResampleCapExceeded):
        weighted_mkcc_round(
            sys_, GreedyState.fresh(sys_), (1, 1), rng=0, lp_solver=stubborn
        )
    assert len(draws) == resample_cap(sys_.n)


def test_weighted_round_rejects_empty_state_before_short_pool():
    sys_ = weighted_instance(0)
    done = GreedyState.fresh(sys_)
    done.uncovered = 0
    with pytest.raises(ValueError):
        weighted_mkcc_round(sys_, done, (1, 1), rng=0)
    with pytest.raises(InsufficientColor):
        weighted_mkcc_round(sys_, GreedyState.fresh(sys_), (1, sys_.n + 1), rng=0)
    # Both at once: the relaxation builder checks emptiness first.
    with pytest.raises(ValueError):
        weighted_mkcc_round(sys_, done, (1, sys_.n + 1), rng=0)


def test_weighted_round_ratio_tie_keeps_smallest_target():
    # A constant stub makes every target produce the same sample and
    # objective, so every ratio ties and the first target must win.
    sys_ = SetSystem(2, [[0, 1], [0, 1]], [0, 0], weights=[1.0, 1.0])

    def constant(problem: LpProblem) -> LpSolution:
        values = [1.0, 0.0] + [1.0] * (problem.num_vars - 2)
        return LpSolution("optimal", tuple(values), 5.0)

    cand = weighted_mkcc_round(
        sys_, GreedyState.fresh(sys_), (1,), rng=0, lp_solver=constant
    )
    assert cand.tau == 1
    assert cand.ids == (0,)
    assert cand.covered_new == 2


# --------------------------------------------------------------------- eff_wfsc


def test_eff_wfsc_covers_fairly():
    for seed in range(5):
        sys_ = weighted_instance(seed)
        cover = eff_wfsc(sys_, SPEC2, rng=seed)
        assert cover.covers_universe(sys_)
        assert fairness_report(sys_, SPEC2, cover).fairness_ratio == 1
        assert cover.total_weight == pytest.approx(
            sum(sys_.weight(i) for i in cover.selected)
        )


def test_eff_wfsc_deterministic_per_seed():
    sys_ = weighted_instance(7)
    assert eff_wfsc(sys_, SPEC2, rng=11) == eff_wfsc(sys_, SPEC2, rng=11)


def test_eff_wfsc_three_colors():
    sys_ = gen_synthetic(
        15, 5, 3,
        coverage_dist=("uniform", 0.3),
        weight_dist=("uniform", 0.5, 2.0),
        seed=2,
    )
    spec = count_parity(3)
    cover = eff_wfsc(sys_, spec, rng=0)
    assert cover.covers_universe(sys_)
    assert fairness_report(sys_, spec, cover).fairness_ratio == 1


def test_eff_wfsc_validates_one_problem_per_round(monkeypatch):
    # Every target of a round's sweep re-targets the round's relaxation,
    # which copies only the rhs, so the constructor's validation runs once
    # per round however many targets are solved.
    from faircover import lp

    built, solved = [], []
    real_init = lp.LpProblem.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    def counting_solve(problem):
        solved.append(1)
        return lp.solve(problem)

    monkeypatch.setattr(lp.LpProblem, "__init__", counting_init)
    sys_, spec = c01_instance(2)
    cover = eff_wfsc(sys_, spec, rng=1, lp_solver=counting_solve)
    assert (len(cover.rounds), len(built), len(solved)) == (3, 3, 29)
