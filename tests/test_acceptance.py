"""Acceptance gate: eleven go/no-go checks, one printed verdict line each.

Verdict lines bypass output capture so a plain ``pytest -v`` shows them.
Every check re-derives its expectation from an independent route:
brute-force oracles, vertex enumeration, or exact rational arithmetic.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from faircover.generalized import EpsilonSpec, epsilon_audit, epsilon_gfsc, gfsc
from faircover.io_generators import gen_biased, gen_synthetic
from faircover.lp import (
    build_mkcc_lp,
    build_weighted_mkcc_lp,
    color_sampling_probs,
    lp_variable_order,
    solve,
)
from faircover.model import (
    Cover,
    FairnessSpec,
    SetSystem,
    count_parity,
    elements_of,
    fairness_report,
)
from faircover.multicover import (
    MulticoverInstance,
    audit_harmonic_bound,
    audit_price_identity,
    fair_multicover_greedy,
)
from faircover.oracles import opt_fair_cover, opt_mkcc
from faircover.unweighted import (
    GreedyState,
    eff_fsc,
    greedy_allpick,
    greedy_set_cover,
    naive_fsc,
    sample_round_tuple,
)
from faircover.weighted import (
    accept_threshold,
    eff_wfsc,
    greedy_weighted_allpick,
    weighted_mkcc_round,
)

from support import enumerate_lp

SPEC2 = count_parity(2)
THIRDS = FairnessSpec(["1/3", "2/3"])


@contextmanager
def verdict(num: int, name: str, capsys):
    # capsys.disabled() routes the verdict to the real terminal; captured
    # output would only surface on failure.
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {num:02d}] {name}: FAIL", flush=True)
        raise
    detail = f" ({info['detail']})" if info["detail"] else ""
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {name}: PASS{detail}", flush=True)


def thirds_system(n, seed, p=0.3, weighted=False):
    """Four sets in color 0, eight in color 1, so (1/3, 2/3) rounds exhaust
    both colors together and termination is structural."""
    base = gen_synthetic(
        n, 4, 3,
        coverage_dist=("uniform", p),
        weight_dist=("uniform", 0.5, 3.0) if weighted else None,
        seed=seed,
    )
    colors = [0] * 4 + [1] * 8
    return SetSystem(base.n, base.sets, colors, base.weights)


def exact_ratio(system, spec, cover):
    return fairness_report(system, spec, cover).fairness_ratio


# --------------------------------------------------------------- criterion 1


def test_c01_fairness_invariant_everywhere(capsys):
    start = time.perf_counter()
    with verdict(1, "fairness ratio is exactly 1 on every fair cover", capsys) as info:
        checked = 0
        for idx in range(200):
            k = 2 if idx % 2 == 0 else 3
            n = 10 + (idx * 7) % 31
            if k == 3:
                sys_ = gen_synthetic(
                    n, 6, 3, coverage_dist=("uniform", 0.35), seed=idx
                )
                spec = count_parity(3)
            elif idx % 4 == 0:
                sys_ = thirds_system(n, seed=idx, p=0.35)
                spec = THIRDS
            else:
                sys_ = gen_synthetic(
                    n, 8, 2,
                    coverage_dist=("uniform", 0.35),
                    weight_dist=("uniform", 0.5, 3.0),
                    seed=idx,
                )
                spec = SPEC2
            covers = [
                naive_fsc(sys_, spec),
                greedy_allpick(sys_, spec),
                eff_fsc(sys_, spec, subroutine="greedy", rng=idx),
                eff_fsc(sys_, spec, subroutine="lp", rng=idx),
                eff_wfsc(sys_, spec, rng=idx),
                gfsc(sys_, spec, mode="lp_sub", rng=idx + 1),
            ]
            reqs = [
                min(2, len(sys_.element_sets[j])) for j in range(sys_.n)
            ]
            mc_cover, _ = fair_multicover_greedy(
                MulticoverInstance(sys_, reqs), spec
            )
            covers.append(mc_cover)
            for cover in covers:
                assert exact_ratio(sys_, spec, cover) == 1
                checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        info["detail"] = f"{checked} covers over 200 instances in {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 2


def test_c02_unweighted_approximation_vs_oracle(capsys):
    with verdict(2, "size bounds vs exact fair optimum", capsys) as info:
        feasible = 0
        seed = 0
        while feasible < 100:
            n = 8 + seed % 5
            sys_ = gen_synthetic(n, 7, 2, coverage_dist=("uniform", 0.35), seed=seed)
            seed += 1
            opt = opt_fair_cover(sys_, SPEC2)
            if opt is None:
                continue
            feasible += 1
            log_bound = math.log(sys_.n) + 1
            assert greedy_allpick(sys_, SPEC2).size <= log_bound * opt.size
            assert (
                eff_fsc(sys_, SPEC2, subroutine="greedy").size
                <= 2 * log_bound * opt.size
            )
        info["detail"] = f"100 feasible instances out of {seed} seeds, 0 violations"


# --------------------------------------------------------------- criterion 3


def test_c03_half_approximation_of_round_greedy(capsys):
    with verdict(3, "round greedy reaches half the exhaustive optimum", capsys) as info:
        for seed in range(50):
            n = 8 + seed % 7
            sys_ = gen_synthetic(n, 8, 2, coverage_dist=("uniform", 0.3), seed=seed)
            per_round = (1, 1) if seed % 2 == 0 else (2, 1)
            state = GreedyState.fresh(sys_)
            from faircover.unweighted import mkcc_greedy

            ids = mkcc_greedy(sys_, state, per_round)
            got = state.new_coverage(sys_, ids)
            _, best = opt_mkcc(sys_, range(sys_.n), sys_.sets_by_color, per_round)
            assert 2 * got >= best
        info["detail"] = "50 instances, 0 violations"


# --------------------------------------------------------------- criterion 4


def test_c04_lp_rounding_expected_coverage(capsys):
    start = time.perf_counter()
    with verdict(4, "rounded coverage within 3 standard errors of (1-1/e)*LP", capsys) as info:
        margins = []
        for seed in range(5):
            sys_ = gen_synthetic(20, 8, 2, coverage_dist=("uniform", 0.3), seed=seed)
            state = GreedyState.fresh(sys_)
            lp = build_mkcc_lp(
                sys_, state.remaining, elements_of(state.uncovered), SPEC2.per_round
            )
            sol = solve(lp)
            assert sol.status == "optimal"
            groups = lp_variable_order(state.remaining, SPEC2.per_round)
            quotas = [p for p in SPEC2.per_round if p > 0]
            probs = color_sampling_probs(sol.values, groups, quotas)
            rng = np.random.default_rng(1000 + seed)
            draws = np.array([
                state.new_coverage(
                    sys_, sample_round_tuple(groups, quotas, probs, rng)
                )
                for _ in range(2000)
            ], dtype=float)
            sem = draws.std(ddof=1) / math.sqrt(len(draws))
            target = (1 - 1 / math.e) * sol.objective
            assert draws.mean() >= target - 3 * sem
            margins.append(draws.mean() - target)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        info["detail"] = (
            f"5 instances x 2000 draws, min margin {min(margins):+.3f}, "
            f"{elapsed:.1f}s"
        )


# --------------------------------------------------------------- criterion 5


def test_c05_weighted_rounding_contracts(capsys):
    with verdict(5, "sweep acceptance threshold and expected sample weight", capsys) as info:
        accepted = 0
        for seed in range(20):
            sys_ = gen_synthetic(
                12, 6, 2,
                coverage_dist=("uniform", 0.3),
                weight_dist=("uniform", 0.5, 4.0),
                seed=seed,
            )
            rng = np.random.default_rng(seed)
            state = GreedyState.fresh(sys_)
            while state.uncovered:
                cand = weighted_mkcc_round(sys_, state, SPEC2.per_round, rng)
                assert cand.covered_new >= accept_threshold(cand.tau)
                accepted += 1
                state.commit(sys_, cand.ids)

        # Pre-rejection draws: the sampled tuple's mean weight must sit
        # within three standard errors of the relaxation objective.
        sys_ = gen_synthetic(
            14, 6, 2,
            coverage_dist=("uniform", 0.3),
            weight_dist=("uniform", 0.5, 4.0),
            seed=1,
        )
        state = GreedyState.fresh(sys_)
        tau = 5
        lp = build_weighted_mkcc_lp(
            sys_, state.remaining, elements_of(state.uncovered), SPEC2.per_round, tau
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        groups = lp_variable_order(state.remaining, SPEC2.per_round)
        quotas = [p for p in SPEC2.per_round if p > 0]
        probs = color_sampling_probs(sol.values, groups, quotas)
        rng = np.random.default_rng(77)
        weights = np.array([
            sum(sys_.weight(i) for i in sample_round_tuple(groups, quotas, probs, rng))
            for _ in range(2000)
        ])
        sem = weights.std(ddof=1) / math.sqrt(len(weights))
        assert abs(weights.mean() - sol.objective) <= 3 * sem
        info["detail"] = (
            f"{accepted} accepted rounds at zero tolerance; "
            f"mean weight {weights.mean():.4f} vs LP {sol.objective:.4f} "
            f"(sem {sem:.4f})"
        )


# --------------------------------------------------------------- criterion 6


def test_c06_weighted_approximation_vs_oracle(capsys):
    with verdict(6, "weight bounds vs exact weighted fair optimum", capsys) as info:
        feasible = 0
        seed = 0
        while feasible < 50:
            n = 8 + seed % 5
            sys_ = gen_synthetic(
                n, 6, 2,
                coverage_dist=("uniform", 0.35),
                weight_dist=("uniform", 1.0, 7.9),
                seed=seed,
            )
            seed += 1
            opt = opt_fair_cover(sys_, SPEC2, weighted=True)
            if opt is None:
                continue
            feasible += 1
            spread = max(sys_.weights) / min(sys_.weights)
            log_bound = math.log(sys_.n) + 1
            assert (
                greedy_weighted_allpick(sys_, SPEC2).total_weight
                <= spread * log_bound * opt.total_weight + 1e-9
            )
            factor = math.e / (math.e - 1)
            assert (
                eff_wfsc(sys_, SPEC2, rng=seed).total_weight
                <= factor * spread * log_bound * opt.total_weight + 1e-9
            )
        info["detail"] = f"50 feasible instances out of {seed} seeds, 0 violations"


# --------------------------------------------------------------- criterion 7


def test_c07_generalized_reduction(capsys):
    with verdict(7, "uniform shares reduce bit-identically; thirds count exactly", capsys) as info:
        half = FairnessSpec(["1/2", "1/2"])
        for seed in range(20):
            sys_ = gen_synthetic(16, 6, 2, coverage_dist=("uniform", 0.3), seed=seed)
            assert gfsc(sys_, half, mode="exhaustive") == greedy_allpick(sys_, SPEC2)
            assert gfsc(sys_, half, mode="greedy_sub", rng=seed) == eff_fsc(
                sys_, SPEC2, subroutine="greedy", rng=seed
            )
            assert gfsc(sys_, half, mode="lp_sub", rng=seed) == eff_fsc(
                sys_, SPEC2, subroutine="lp", rng=seed
            )
        rounds_seen = 0
        seed = 0
        while rounds_seen < 1:
            sys_ = thirds_system(30, seed=seed, p=0.12)
            cover = gfsc(sys_, THIRDS, mode="exhaustive")
            if len(cover.rounds) >= 3:
                rounds_seen = len(cover.rounds)
                size = cover.size
                assert cover.group_counts == (size // 3, 2 * size // 3)
                assert size % 3 == 0
            seed += 1
        info["detail"] = f"20 uniform seeds; thirds run took {rounds_seen} rounds"


# --------------------------------------------------------------- criterion 8


def test_c08_epsilon_band_audits(capsys):
    with verdict(8, "tolerance-band audits pass on outputs, fail on lopsided covers", capsys) as info:
        for seed in range(10):
            sys_ = gen_synthetic(14, 6, 2, coverage_dist=("uniform", 0.3), seed=seed)
            for eps in ("1/10", "1/2"):
                cover, audit = epsilon_gfsc(
                    sys_, EpsilonSpec(SPEC2, eps), mode="exhaustive"
                )
                assert audit.ok
        skew = SetSystem(4, [[0], [1], [2], [3], [0, 1, 2, 3]], [0, 0, 0, 0, 1])
        lopsided = Cover.from_selection(skew, (0, 1, 2, 3))
        for eps in ("1/10", "1/2"):
            assert not epsilon_audit(lopsided, EpsilonSpec(SPEC2, eps)).ok
        mild = SetSystem(4, [[0], [1], [2], [3]], [0, 0, 0, 1])
        three_one = Cover.from_selection(mild, (0, 1, 2, 3))
        assert not epsilon_audit(three_one, EpsilonSpec(SPEC2, "1/10")).ok
        info["detail"] = "10 instances x 2 tolerances pass; counterexamples fail"


# --------------------------------------------------------------- criterion 9


def test_c09_multicover_price_identities(capsys):
    with verdict(9, "pricing identities, demand satisfaction, unit-demand shadow", capsys) as info:
        for idx in range(100):
            n = 8 + idx % 8
            sys_ = gen_synthetic(n, 8, 2, coverage_dist=("uniform", 0.35), seed=idx)
            reqs = [
                min(1 + (j + idx) % 3, len(sys_.element_sets[j]))
                for j in range(sys_.n)
            ]
            inst = MulticoverInstance(sys_, reqs)
            cover, ledger = fair_multicover_greedy(inst, SPEC2)
            assert abs(ledger.total_price() - cover.size) <= 1e-9 * max(1, cover.size)
            audit_price_identity(cover, ledger, SPEC2)
            assert audit_harmonic_bound(inst, cover, ledger, SPEC2) <= 1.0
            counts = [0] * sys_.n
            for i in cover.selected:
                for e in sys_.sets[i]:
                    counts[e] += 1
            assert all(c >= r for c, r in zip(counts, reqs))
            unit, _ = fair_multicover_greedy(
                MulticoverInstance(sys_, [1] * sys_.n), SPEC2
            )
            assert unit.rounds == greedy_allpick(sys_, SPEC2).rounds
        info["detail"] = "100 instances, both identities exact, unit demands match"


# -------------------------------------------------------------- criterion 10


def test_c10_biased_preset_ordering(capsys):
    with verdict(10, "plain greedy is unfair, fair covers cost at most p more", capsys) as info:
        unfair_ratios = []
        unfair_sizes = []
        fair_sizes = []
        for trial in range(20):
            sys_ = gen_biased(60, m_per_color=8, seed=trial)
            plain = greedy_set_cover(sys_)
            unfair_ratios.append(float(exact_ratio(sys_, SPEC2, plain)))
            unfair_sizes.append(plain.size)
            for cover in (
                naive_fsc(sys_, SPEC2),
                greedy_allpick(sys_, SPEC2),
                eff_fsc(sys_, SPEC2, subroutine="greedy", rng=trial),
                eff_fsc(sys_, SPEC2, subroutine="lp", rng=trial),
            ):
                assert exact_ratio(sys_, SPEC2, cover) == 1
            fair_sizes.append(greedy_allpick(sys_, SPEC2).size)
        mean_unfair = sum(unfair_ratios) / len(unfair_ratios)
        mean_size_gap = sum(fair_sizes) / 20 - sum(unfair_sizes) / 20
        assert mean_unfair < 0.9
        assert mean_size_gap <= SPEC2.p
        info["detail"] = (
            f"mean plain-greedy fairness {mean_unfair:.3f}, "
            f"mean size gap {mean_size_gap:+.2f} <= p={SPEC2.p}"
        )


# -------------------------------------------------------------- criterion 11


def _random_lp(seed):
    from faircover.lp import LpProblem

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 9))
    a = rng.integers(-4, 5, size=(m, n)).astype(float)
    x_feas = rng.uniform(0.0, 1.0, size=n)
    relations = []
    rhs = []
    for r in range(m):
        lhs = float(a[r] @ x_feas)
        roll = rng.random()
        if roll < 0.15 and m <= 6:
            relations.append("=")
            rhs.append(lhs)
        elif roll < 0.6:
            slack = abs(rng.normal(0.0, 1.0)) * float(rng.choice([0.0, 1.0]))
            relations.append("<=")
            rhs.append(lhs + slack)
        else:
            slack = abs(rng.normal(0.0, 1.0)) * float(rng.choice([0.0, 1.0]))
            relations.append(">=")
            rhs.append(lhs - slack)
    if rng.random() < 0.25:  # sometimes break feasibility on purpose
        r = int(rng.integers(m))
        rhs[r] += -50.0 if relations[r] == "<=" else 50.0
    c = rng.integers(-5, 6, size=n).astype(float)
    hi = float(rng.choice([1.0, 3.0]))
    sense = "max" if rng.random() < 0.5 else "min"
    return LpProblem(sense, c, a, relations, rhs, bounds=[(0.0, hi)] * n)


def test_c11_simplex_matches_vertex_enumeration(capsys):
    with verdict(11, "simplex agrees with exhaustive vertex enumeration", capsys) as info:
        statuses = {"optimal": 0, "infeasible": 0}
        for seed in range(200):
            problem = _random_lp(seed)
            got = solve(problem)
            want_status, want_obj, _ = enumerate_lp(problem)
            assert got.status == want_status
            statuses[want_status] = statuses.get(want_status, 0) + 1
            if want_status == "optimal":
                tol = 1e-7 * max(1.0, abs(want_obj))
                assert abs(got.objective - want_obj) <= tol

        from faircover.lp import LpProblem

        open_ended = LpProblem(
            "max", [1.0], [[1.0]], [">="], [0.0], bounds=[(0.0, math.inf)]
        )
        assert solve(open_ended).status == "unbounded"
        info["detail"] = (
            f"200 boxed LPs ({statuses['optimal']} optimal, "
            f"{statuses['infeasible']} infeasible) plus an open-bound case"
        )
