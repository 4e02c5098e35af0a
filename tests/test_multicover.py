"""Multicover rounds, the pricing ledger, and its audit identities."""

import pytest

from faircover.errors import (
    AuditFailure,
    InfeasibleRequirement,
    InsufficientColor,
    NoProgress,
)
from faircover.io_generators import gen_synthetic
from faircover.model import FairnessSpec, SetSystem, count_parity
from faircover.multicover import (
    AuditReport,
    MulticoverInstance,
    PriceEntry,
    PriceLedger,
    audit_harmonic_bound,
    audit_price_identity,
    fair_multicover_greedy,
)
from faircover.oracles import opt_fair_multicover
from faircover.unweighted import greedy_allpick

SPEC2 = count_parity(2)


def demand_two_instance():
    """Two elements; element 0 must be covered twice, element 1 once."""
    base = SetSystem(2, [[0], [0, 1], [1], [0]], [0, 0, 1, 1])
    return MulticoverInstance(base, (2, 1))


def random_instance(seed, n=10, m=8):
    base = gen_synthetic(n, m, 2, coverage_dist=("uniform", 0.35), seed=seed)
    reqs = [min(2, len(base.element_sets[j])) for j in range(base.n)]
    return MulticoverInstance(base, reqs)


# ------------------------------------------------------------- instance model


def test_instance_validation():
    base = SetSystem(2, [[0], [1]], [0, 0])
    with pytest.raises(ValueError):
        MulticoverInstance(base, (1,))
    with pytest.raises(ValueError):
        MulticoverInstance(base, (1, 0))


def test_requirement_beyond_degree_is_loud():
    base = SetSystem(2, [[0], [0, 1]], [0, 1])
    inst = MulticoverInstance(base, (3, 1))
    with pytest.raises(InfeasibleRequirement) as err:
        fair_multicover_greedy(inst, SPEC2)
    assert err.value.element == 0
    assert err.value.required == 3
    assert err.value.available == 2


# ------------------------------------------------------------- worked examples


def test_single_element_double_demand():
    base = SetSystem(1, [[0], [0]], [0, 1])
    inst = MulticoverInstance(base, (2,))
    cover, ledger = fair_multicover_greedy(inst, SPEC2)
    # One round with both sets advances the count by two.
    assert cover.rounds == ((0, 1),)
    assert ledger.entries == (PriceEntry(0, 0, 1, 2.0),)
    assert ledger.alive_history == (1,)
    audit_price_identity(cover, ledger, SPEC2)


def test_two_round_demand_walkthrough():
    inst = demand_two_instance()
    cover, ledger = fair_multicover_greedy(inst, SPEC2)
    assert cover.rounds == ((0, 2), (1, 3))
    assert ledger.entries == (
        PriceEntry(0, 0, 1, 1.0),
        PriceEntry(0, 1, 1, 1.0),
        PriceEntry(1, 0, 2, 2.0),
    )
    assert ledger.alive_history == (2, 1)
    assert ledger.total_price() == pytest.approx(4.0)
    assert ledger.round_prices() == {0: pytest.approx(2.0), 1: pytest.approx(2.0)}
    assert ledger.terminal_price() == {0: pytest.approx(2.0), 1: pytest.approx(1.0)}
    report = audit_price_identity(cover, ledger, SPEC2)
    assert isinstance(report, AuditReport)
    assert report.ok and report.cover_size == 4
    # Set 1 = {0, 1}, committed in round 1 when both its elements reach
    # their demand, pays 1 + 2, exactly the bound 2 * H_2 = 3: inclusive.
    assert audit_harmonic_bound(inst, cover, ledger, SPEC2) == pytest.approx(1.0)


def test_harmonic_bound_counts_prices_up_to_the_round_of_the_set():
    # Set 4 = {0, 1} goes first at 1/2 per element; each element then pays
    # 1 to meet its demand of two. Those later prices sum to 2, past 1 * H_2,
    # but both come after set 4's round, so the bound leaves them out.
    base = SetSystem(2, [[], [], [0], [1], [0, 1]], [0] * 5)
    inst = MulticoverInstance(base, (2, 2))
    spec = count_parity(1)
    cover, ledger = fair_multicover_greedy(inst, spec)
    assert cover.rounds == ((4,), (2,), (3,))
    assert ledger.terminal_price() == {0: 1.0, 1: 1.0}
    assert audit_harmonic_bound(inst, cover, ledger, spec) == 1.0


# -------------------------------------------------------- single-cover shadow


def test_unit_requirements_reproduce_allpick():
    for seed in range(6):
        base = gen_synthetic(12, 6, 2, coverage_dist=("uniform", 0.3), seed=seed)
        inst = MulticoverInstance(base, [1] * base.n)
        cover, ledger = fair_multicover_greedy(inst, SPEC2)
        assert cover.rounds == greedy_allpick(base, SPEC2).rounds
        audit_price_identity(cover, ledger, SPEC2)


# ----------------------------------------------------------- audit identities


def test_identities_hold_on_random_demands():
    for seed in range(8):
        inst = random_instance(seed)
        cover, ledger = fair_multicover_greedy(inst, SPEC2)
        counts = [0] * inst.base.n
        for i in cover.selected:
            for e in inst.base.sets[i]:
                counts[e] += 1
        assert all(c >= r for c, r in zip(counts, inst.requirements))
        report = audit_price_identity(cover, ledger, SPEC2)
        assert report.total_price == pytest.approx(cover.size)
        assert audit_harmonic_bound(inst, cover, ledger, SPEC2) <= 1.0
        occ = {}
        for e in ledger.entries:
            occ[e.element] = occ.get(e.element, 0) + 1
            assert e.occurrence == occ[e.element]


def test_three_color_multicover():
    base = gen_synthetic(12, 6, 3, coverage_dist=("uniform", 0.35), seed=4)
    reqs = [min(2, len(base.element_sets[j])) for j in range(base.n)]
    inst = MulticoverInstance(base, reqs)
    spec = count_parity(3)
    cover, ledger = fair_multicover_greedy(inst, spec)
    assert cover.size % 3 == 0
    audit_price_identity(cover, ledger, spec)


def test_price_identity_catches_tampering():
    inst = demand_two_instance()
    cover, ledger = fair_multicover_greedy(inst, SPEC2)
    bad_round = PriceLedger(
        (
            PriceEntry(0, 0, 1, 1.5),
            PriceEntry(0, 1, 1, 1.0),
            PriceEntry(1, 0, 2, 1.5),
        ),
        ledger.alive_history,
    )
    with pytest.raises(AuditFailure):
        audit_price_identity(cover, bad_round, SPEC2)
    # Round sums kept intact but the total shifted is also caught.
    bad_total = PriceLedger(ledger.entries[:2], ledger.alive_history)
    with pytest.raises(AuditFailure):
        audit_price_identity(cover, bad_total, SPEC2)


def test_harmonic_bound_catches_absurd_prices():
    inst = demand_two_instance()
    cover, _ = fair_multicover_greedy(inst, SPEC2)
    ledger = PriceLedger((PriceEntry(0, 0, 1, 99.0),), (2,))
    with pytest.raises(AuditFailure):
        audit_harmonic_bound(inst, cover, ledger, SPEC2)


# -------------------------------------------------------------- relaxed rounds


def test_mkcc_sub_mode_identities_and_determinism():
    for seed in range(4):
        inst = random_instance(seed, n=9, m=7)
        a, ledger_a = fair_multicover_greedy(inst, SPEC2, mode="mkcc_sub", rng=seed)
        b, _ = fair_multicover_greedy(inst, SPEC2, mode="mkcc_sub", rng=seed)
        assert a == b
        audit_price_identity(a, ledger_a, SPEC2)
        counts = [0] * inst.base.n
        for i in a.selected:
            for e in inst.base.sets[i]:
                counts[e] += 1
        assert all(c >= r for c, r in zip(counts, inst.requirements))


def test_mkcc_sub_matches_exhaustive_on_forced_instance():
    base = SetSystem(6, [[0, 1, 2], [3, 4], [3, 4, 5], [0, 5]], [0, 0, 1, 1])
    inst = MulticoverInstance(base, [1] * 6)
    exact, _ = fair_multicover_greedy(inst, SPEC2, mode="exhaustive")
    sampled, _ = fair_multicover_greedy(inst, SPEC2, mode="mkcc_sub", rng=0)
    assert exact.rounds == sampled.rounds == ((0, 2),)


def test_unknown_mode_is_refused():
    with pytest.raises(ValueError):
        fair_multicover_greedy(demand_two_instance(), SPEC2, mode="magic")


# ------------------------------------------------------------------ dead ends


def test_zero_share_dead_end_raises_no_progress():
    base = SetSystem(1, [[0], [0], []], [0, 0, 1])
    inst = MulticoverInstance(base, (1,))
    with pytest.raises(NoProgress):
        fair_multicover_greedy(inst, FairnessSpec([0, 1]))


def test_color_exhaustion_is_loud():
    base = SetSystem(1, [[0], [0], [0]], [0, 0, 1])
    inst = MulticoverInstance(base, (3,))
    with pytest.raises(InsufficientColor):
        fair_multicover_greedy(inst, SPEC2)


# -------------------------------------------------------------- optimum check


def test_greedy_stays_within_guarantee_of_oracle():
    import math

    inst = demand_two_instance()
    cover, _ = fair_multicover_greedy(inst, SPEC2)
    best = opt_fair_multicover(inst, SPEC2)
    # Sets 1 and 3 alone hit both demands, so greedy's 4 is a true 2x here.
    assert best is not None and best.size == 2
    assert cover.size <= 2 * (math.log(inst.base.n) + 1) * best.size


def test_greedy_exact_on_forced_instance():
    base = SetSystem(1, [[0], [0]], [0, 1])
    inst = MulticoverInstance(base, (2,))
    cover, _ = fair_multicover_greedy(inst, SPEC2)
    best = opt_fair_multicover(inst, SPEC2)
    assert best is not None and best.size == cover.size == 2
