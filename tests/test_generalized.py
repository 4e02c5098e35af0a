"""Arbitrary rational shares and the tolerance-band relaxation."""

import math
from fractions import Fraction

import pytest

from faircover.errors import NoProgress, PCapExceeded
from faircover.generalized import (
    MODES,
    EpsilonAudit,
    EpsilonSpec,
    GroupBandCheck,
    approx_factor,
    epsilon_audit,
    epsilon_gfsc,
    gfsc,
    gfwsc,
)
from faircover.io_generators import gen_synthetic
from faircover.model import (
    Cover,
    FairnessSpec,
    SetSystem,
    count_parity,
    fairness_report,
)
from faircover.unweighted import eff_fsc, greedy_allpick
from faircover.weighted import eff_wfsc, greedy_weighted_allpick

from support import all_covers

SPEC2 = count_parity(2)
THIRDS = FairnessSpec(["1/3", "2/3"])


def uneven_system():
    return SetSystem(
        6,
        [[0, 1, 2, 3, 4, 5], [0, 1]] + [[j] for j in range(6)],
        [0, 0] + [1] * 6,
    )


# ------------------------------------------------------------------ dispatch


def test_gfsc_uniform_shares_match_plain_engines():
    for seed in range(4):
        sys_ = gen_synthetic(14, 6, 2, coverage_dist=("uniform", 0.3), seed=seed)
        assert gfsc(sys_, SPEC2, mode="exhaustive") == greedy_allpick(sys_, SPEC2)
        assert gfsc(sys_, SPEC2, mode="greedy_sub") == eff_fsc(
            sys_, SPEC2, subroutine="greedy"
        )
        assert gfsc(sys_, SPEC2, mode="lp_sub", rng=seed) == eff_fsc(
            sys_, SPEC2, subroutine="lp", rng=seed
        )


def test_gfsc_uneven_shares_exact_counts():
    cover = gfsc(uneven_system(), THIRDS, mode="exhaustive")
    assert cover.rounds == ((0, 2, 3),)
    assert cover.group_counts == (1, 2)
    assert fairness_report(uneven_system(), THIRDS, cover).fairness_ratio == 1


def test_gfsc_uneven_shares_all_modes_fair():
    sys_ = gen_synthetic(15, 8, 2, coverage_dist=("uniform", 0.35), seed=5)
    for mode in MODES:
        cover = gfsc(sys_, THIRDS, mode=mode, rng=1)
        assert cover.covers_universe(sys_)
        assert fairness_report(sys_, THIRDS, cover).fairness_ratio == 1
        assert cover.size % 3 == 0


def test_gfsc_zero_share_group_is_never_picked():
    spec = FairnessSpec([0, 1])
    sys_ = SetSystem(2, [[0], [0, 1], [1]], [0, 1, 1])
    cover = gfsc(sys_, spec, mode="exhaustive")
    assert cover.selected == (1,)
    assert cover.group_counts == (0, 1)
    assert fairness_report(sys_, spec, cover).fairness_ratio == 1


def test_gfsc_zero_share_dead_end_is_loud():
    # Element 0 lives only in the zero-share color, so no progress is possible.
    spec = FairnessSpec([0, 1])
    sys_ = SetSystem(1, [[0], []], [0, 1])
    with pytest.raises(NoProgress):
        gfsc(sys_, spec, mode="exhaustive")


def test_round_size_beyond_family_is_refused():
    spec = FairnessSpec(["1/5", "4/5"])
    sys_ = SetSystem(2, [[0], [1], [0], [1]], [0, 0, 1, 1])
    with pytest.raises(PCapExceeded):
        gfsc(sys_, spec)
    with pytest.raises(PCapExceeded):
        gfwsc(sys_, spec)


def test_unknown_modes_are_refused():
    with pytest.raises(ValueError):
        gfsc(uneven_system(), THIRDS, mode="magic")
    with pytest.raises(ValueError):
        gfwsc(uneven_system(), THIRDS, mode="greedy_sub")


def test_gfwsc_dispatch_matches_engines():
    sys_ = gen_synthetic(
        14, 6, 2,
        coverage_dist=("uniform", 0.3),
        weight_dist=("uniform", 0.5, 3.0),
        seed=8,
    )
    assert gfwsc(sys_, SPEC2, mode="exhaustive") == greedy_weighted_allpick(sys_, SPEC2)
    assert gfwsc(sys_, SPEC2, mode="lp_sub", rng=3) == eff_wfsc(sys_, SPEC2, rng=3)
    cover = gfwsc(sys_, THIRDS, mode="lp_sub", rng=3)
    assert fairness_report(sys_, THIRDS, cover).fairness_ratio == 1


def test_approx_factor_table():
    n = 20
    base = math.log(n) + 1
    assert approx_factor("exhaustive", n) == pytest.approx(base)
    assert approx_factor("greedy_sub", n) == pytest.approx(2 * base)
    assert approx_factor("lp_sub", n) == pytest.approx(base * math.e / (math.e - 1))
    with pytest.raises(ValueError):
        approx_factor("magic", n)


# ------------------------------------------------------------ tolerance bands


def test_epsilon_spec_validation():
    assert EpsilonSpec(SPEC2, "1/10").epsilon == Fraction(1, 10)
    assert EpsilonSpec(SPEC2, 0.1).epsilon == Fraction(1, 10)
    for bad in (0, 1, "5/4", -0.2):
        with pytest.raises(ValueError):
            EpsilonSpec(SPEC2, bad)


def test_epsilon_audit_flags_out_of_band_counts():
    sys_ = SetSystem(4, [[0], [1], [2], [3]], [0, 0, 0, 1])
    cover = Cover.from_selection(sys_, (0, 1, 2, 3))
    audit = epsilon_audit(cover, EpsilonSpec(SPEC2, "1/10"))
    assert not audit.ok
    red, blue = audit.per_group
    assert (red.count, blue.count) == (3, 1)
    assert red.lower == Fraction(9, 5) and red.upper == Fraction(11, 5)
    assert not red.ok and not blue.ok


def test_epsilon_audit_band_edges_are_inclusive():
    sys_ = SetSystem(4, [[0], [1], [2], [3]], [0, 0, 0, 1])
    cover = Cover.from_selection(sys_, (0, 1, 2, 3))
    audit = epsilon_audit(cover, EpsilonSpec(SPEC2, "1/2"))
    assert audit.ok  # band is [1, 3] and the counts are exactly 3 and 1


def test_epsilon_audit_fails_an_unnamed_color_as_a_zero_share():
    # Color 2 holds a picked set. Unnamed or named with share zero, its band
    # is [0, 0], so the audit fails on it alone.
    sys_ = SetSystem(4, [[0], [1], [2], [3], [0, 1, 2, 3]], [0, 0, 1, 1, 2])
    cover = Cover.from_selection(sys_, (0, 2, 4))
    eps = "1/2"
    unnamed = epsilon_audit(cover, EpsilonSpec(SPEC2, eps))
    explicit = epsilon_audit(cover, EpsilonSpec(FairnessSpec(["1/2", "1/2", 0]), eps))
    assert unnamed == explicit
    assert [g.ok for g in unnamed.per_group] == [True, True, False]
    assert unnamed.per_group[2] == GroupBandCheck(1, Fraction(0), Fraction(0))


def test_epsilon_audit_exact_cover_always_inside_band():
    sys_ = gen_synthetic(12, 6, 2, coverage_dist=("uniform", 0.3), seed=6)
    cover = greedy_allpick(sys_, SPEC2)
    for eps in ("1/100", "1/10", "9/10"):
        assert epsilon_audit(cover, EpsilonSpec(SPEC2, eps)).ok


def test_epsilon_gfsc_returns_cover_and_passing_audit():
    sys_ = gen_synthetic(14, 6, 2, coverage_dist=("uniform", 0.3), seed=9)
    eps_spec = EpsilonSpec(SPEC2, "1/5")
    cover, audit = epsilon_gfsc(sys_, eps_spec, mode="lp_sub", rng=4)
    assert isinstance(audit, EpsilonAudit)
    assert cover.covers_universe(sys_)
    assert audit.ok
    assert audit.bound_factor == pytest.approx(
        float(1 + Fraction(1, 5)) * approx_factor("lp_sub", sys_.n)
    )


def test_epsilon_gfsc_beats_banded_optimum_times_factor():
    # Tiny instance: enumerate every in-band cover to get the true banded
    # optimum, then check the advertised factor actually holds.
    sys_ = SetSystem(5, [[0, 1], [2, 3], [1, 4], [0, 4], [2]], [0, 0, 1, 1, 1])
    eps_spec = EpsilonSpec(SPEC2, "1/4")
    best = None
    for combo in all_covers(sys_):
        size = len(combo)
        if size == 0:
            continue
        counts = [0, 0]
        for i in combo:
            counts[sys_.colors[i]] += 1
        lo = (1 - eps_spec.epsilon) * Fraction(1, 2) * size
        hi = (1 + eps_spec.epsilon) * Fraction(1, 2) * size
        if all(lo <= c <= hi for c in counts):
            best = size if best is None else min(best, size)
    assert best is not None
    cover, audit = epsilon_gfsc(sys_, eps_spec, mode="exhaustive")
    assert audit.ok
    assert cover.size <= audit.bound_factor * best
