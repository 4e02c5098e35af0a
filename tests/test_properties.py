"""Properties every algorithm keeps on random small instances: a complete,
exactly fair cover or a typed FairCoverError, the same result for the same
seed, the proven size bounds against the exact oracle, relaxations that
bound the best integral round, multicover prices that sum to the cover and
stay within their harmonic bound, and the empty cover of an empty universe."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faircover import lp
from faircover.errors import AllTuplesZeroCoverage, FairCoverError, InsufficientColor
from faircover.generalized import gfsc, gfwsc
from faircover.lp import LpProblem, build_mkcc_lp, build_weighted_mkcc_lp, solve
from faircover.model import FairnessSpec, SetSystem, count_parity, fairness_report, mask_of
from faircover.multicover import (
    MulticoverInstance,
    audit_harmonic_bound,
    audit_price_identity,
    fair_multicover_greedy,
)
from faircover.oracles import (
    opt_fair_cover,
    opt_fair_multicover,
    opt_mkcc,
    opt_set_cover,
)
from faircover.unweighted import (
    _best_candidate,
    _lightest_candidate,
    _scan_weights,
    _split,
    eff_fsc,
    greedy_allpick,
    greedy_set_cover,
    naive_fsc,
    sample_round_tuple,
)
from faircover.weighted import eff_wfsc, greedy_weighted_allpick, naive_wfsc

from support import (
    assert_sweeps_agree,
    brute_best_tuple,
    brute_quota_tuples,
    fair_covers,
    id_order_weight,
    least_fair_multicover,
    lightest_fair_cover,
    lightest_tuple_weight,
    warm_and_cold_sweep,
)


@st.composite
def instances(draw, max_sets=16):
    """(system, spec, seed): n <= 10, up to 3 colors each owning a set, at
    most max_sets sets, weights on half the draws, and shares with small
    denominators for the system's colors, maybe leaving its last color
    unnamed or naming one color it lacks (any color may get share zero)."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 3))
    num = draw(st.integers(k, max_sets))
    sets = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=n), min_size=num,
                         max_size=num))
    colors = list(range(k)) + draw(
        st.lists(st.integers(0, k - 1), min_size=num - k, max_size=num - k)
    )
    weights = draw(st.one_of(
        st.none(),
        st.lists(st.floats(0.5, 3.0), min_size=num, max_size=num),
    ))
    shares = draw(st.lists(st.integers(0, 2), min_size=max(1, k - 1), max_size=k + 1).filter(any))
    spec = FairnessSpec([Fraction(c, sum(shares)) for c in shares])
    return SetSystem(n, sets, colors, weights), spec, draw(st.integers(0, 2**16))


def _requirements(system):
    return [min(2, max(1, len(c))) for c in system.element_sets]


def _multicover(mode):
    def run(system, spec, seed):
        inst = MulticoverInstance(system, _requirements(system))
        return fair_multicover_greedy(inst, spec, mode=mode, rng=seed)[0]
    return run


ALGORITHMS = {
    "naive_fsc": lambda s, spec, seed: naive_fsc(s, spec),
    "greedy_allpick": lambda s, spec, seed: greedy_allpick(s, spec),
    "eff_fsc_greedy": lambda s, spec, seed: eff_fsc(s, spec, "greedy", rng=seed),
    "eff_fsc_lp": lambda s, spec, seed: eff_fsc(s, spec, "lp", rng=seed),
    "naive_wfsc": lambda s, spec, seed: naive_wfsc(s, spec),
    "greedy_weighted_allpick": lambda s, spec, seed: greedy_weighted_allpick(s, spec),
    "eff_wfsc": lambda s, spec, seed: eff_wfsc(s, spec, rng=seed),
    "gfsc_lp_sub": lambda s, spec, seed: gfsc(s, spec, "lp_sub", rng=seed),
    "gfwsc_lp_sub": lambda s, spec, seed: gfwsc(s, spec, "lp_sub", rng=seed),
    "multicover_exhaustive": _multicover("exhaustive"),
    "multicover_mkcc_sub": _multicover("mkcc_sub"),
}


def _outcome(run, system, spec, seed):
    """The cover, or the class of the FairCoverError raised. Any other
    exception fails the test."""
    try:
        return run(system, spec, seed)
    except FairCoverError as exc:
        return type(exc)


def _named(system, spec):
    """spec with a zero share written out for each color of system it does
    not name."""
    return FairnessSpec(spec.fractions + (0,) * (system.num_colors - spec.num_colors))


@settings(max_examples=40, deadline=None)
@given(instances())
# Greedy's first pick, set 4, has a color the spec does not name.
@example((SetSystem(4, [[0], [1], [2], [3], [0, 1, 2, 3]], [0, 0, 1, 1, 2]), count_parity(2), 0))
def test_every_algorithm_covers_fairly_or_fails_typed_and_repeats(case):
    system, spec, seed = case
    named = _named(system, spec)
    for name, run in ALGORITHMS.items():
        got = _outcome(run, system, spec, seed)
        assert _outcome(run, system, spec, seed) == got, name
        if named != spec:
            assert _outcome(run, system, named, seed) == got, name
        if isinstance(got, type):
            continue
        assert fairness_report(system, spec, got).fairness_ratio == 1, name
        if name.startswith("multicover"):
            for e, need in enumerate(_requirements(system)):
                assert sum(e in system.sets[i] for i in got.selected) >= need, name
        else:
            assert got.covers_universe(system), name
    plain = _outcome(lambda s, spec, seed: greedy_set_cover(s), system, spec, seed)
    assert isinstance(plain, type) or plain.covers_universe(system)


EVERY_SOLVER = {
    **ALGORITHMS,
    "greedy_set_cover": lambda s, spec, seed: greedy_set_cover(s),
    "gfsc_exhaustive": lambda s, spec, seed: gfsc(s, spec),
    "gfwsc_exhaustive": lambda s, spec, seed: gfwsc(s, spec),
    "opt_set_cover": lambda s, spec, seed: opt_set_cover(s),
    "opt_fair_cover": lambda s, spec, seed: opt_fair_cover(s, spec),
    "opt_fair_cover_weighted": lambda s, spec, seed: opt_fair_cover(s, spec, weighted=True),
    "opt_fair_multicover": lambda s, spec, seed: opt_fair_multicover(
        MulticoverInstance(s, []), spec
    ),
}


@pytest.mark.parametrize("name", list(EVERY_SOLVER))
def test_an_empty_universe_gets_the_empty_cover(name):
    system = SetSystem(0, [[], [], [], []], [0, 0, 1, 1])
    assert EVERY_SOLVER[name](system, count_parity(2), 0).selected == ()


def test_a_color_the_system_lacks_has_an_empty_pool():
    # Two shares for a one-color system: a positive share for the missing
    # color is InsufficientColor everywhere (no fair cover for the oracle),
    # a zero share covers everywhere. Color 1 of runs_out runs out after
    # one round, and every run reports it the same way.
    # The three runs that round the coverage relaxation take set 1 first:
    # of its optima x = (1, 0) and (0, 1), the dual loop brings x0 in for
    # the quota row, then shifts the mass to x1 for element 1's coverage
    # row. The other runs take set 0 first.
    coverage_lp = ("eff_fsc_lp", "gfsc_lp_sub", "multicover_mkcc_sub")
    want = {name: (1, 0) if name in coverage_lp else (0, 1) for name in ALGORITHMS}
    system = SetSystem(2, [[0], [1]], [0, 0])
    runs_out = SetSystem(3, [[0], [1], [2]], [0, 0, 1])
    once = r"^group 1 has 0 unpicked set\(s\) but 1 are needed$"
    for name, run in ALGORITHMS.items():
        with pytest.raises(InsufficientColor):
            run(system, count_parity(2), 0)
        with pytest.raises(InsufficientColor, match=once):
            run(runs_out, count_parity(2), 0)
        assert run(system, FairnessSpec([1, 0]), 0).selected == want[name], name
    assert opt_fair_cover(system, count_parity(2)) is None
    assert opt_fair_cover(system, FairnessSpec([1, 0])).selected == (0, 1)
    # The mirror: a color the spec does not name has share zero, so each
    # run is the run with that zero share written out.
    system = SetSystem(2, [[0], [1], []], [0, 0, 1])
    for name, run in ALGORITHMS.items():
        got = run(system, FairnessSpec([1]), 0)
        assert got == run(system, FairnessSpec([1, 0]), 0), name
        assert got.selected == want[name], name
    assert opt_fair_cover(system, FairnessSpec([1])).selected == (0, 1)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_quota_greedies_stay_within_their_log_bounds(case):
    system, spec, _ = case
    opt = opt_fair_cover(system, spec)
    if opt is None:
        return
    assert opt.covers_universe(system) and fairness_report(system, spec, opt).fairness_ratio == 1
    bound = math.log(system.n) + 1
    allpick = _outcome(lambda s, spec, seed: greedy_allpick(s, spec), system, spec, 0)
    if not isinstance(allpick, type):
        assert allpick.size <= bound * opt.size
    greedy = _outcome(lambda s, spec, seed: eff_fsc(s, spec, "greedy"), system, spec, 0)
    if not isinstance(greedy, type):
        assert greedy.size <= 2 * bound * opt.size


def _round_state(system, per_round, data):
    """A random round state: some uncovered elements (ascending) and the
    remaining sets of each color, or None when a color is short of its
    quota or a color the system lacks has a positive one."""
    targets = sorted(data.draw(st.sets(st.integers(0, system.n - 1), min_size=1)))
    remaining = [
        sorted(data.draw(st.sets(st.sampled_from(g), min_size=min(p, len(g)))))
        for g, p in zip(system.sets_by_color, per_round)
    ]
    if any(len(r) < p for r, p in zip(remaining, per_round)) or any(per_round[len(remaining):]):
        return None
    return targets, remaining


@settings(max_examples=40, deadline=None)
@given(instances(), st.data())
def test_relaxations_bound_the_best_integral_round(case, data):
    # A random round state: some uncovered elements, and at least the quota
    # of each color still available. The coverage relaxation's optimum is at
    # least the best tuple's coverage; at each target tau the weighted
    # relaxation costs at most the lightest tuple covering tau elements.
    system, spec, _ = case
    per_round = spec.per_round
    state = _round_state(system, per_round, data)
    if state is None:
        return
    targets, remaining = state
    sol = solve(build_mkcc_lp(system, remaining, targets, per_round))
    assert sol.status == "optimal"
    try:
        _, best = opt_mkcc(system, targets, remaining, per_round)
    except AllTuplesZeroCoverage:
        best = 0.0
    assert sol.objective >= best - 1e-9
    for tau in range(1, len(targets) + 1):
        lightest = lightest_tuple_weight(system, targets, remaining, per_round, tau)
        if lightest is None:
            break
        sol = solve(build_weighted_mkcc_lp(system, remaining, targets, per_round, tau))
        assert sol.status == "optimal", tau
        assert sol.objective <= lightest + 1e-9 * (1.0 + lightest), tau


# Weights whose float sums depend on the order of summation
# (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1), so near-ties between candidates
# test that scores are summed in ascending id order and that the weighted
# oracle's unsorted weight filter keeps its margin.
ORDER_SENSITIVE_WEIGHTS = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0])
# The same with zero and negative weights, which turn the weight filters
# and the weighted oracle's round-count bound off.
SIGNED_WEIGHTS = st.sampled_from([-1.0, -0.1, 0.0, 0.1, 0.2, 0.3, 1.0])


@st.composite
def order_sensitive_instances(draw, max_sets=16, weights=ORDER_SENSITIVE_WEIGHTS):
    """instances() with every weight drawn from weights."""
    system, spec, seed = draw(instances(max_sets))
    ws = draw(st.lists(weights, min_size=system.num_sets, max_size=system.num_sets))
    return SetSystem(system.n, system.sets, system.colors, ws), spec, seed


# Each of the four fair covers weighs 0.3 + 0.2 + 0.1 = 0.6 in id order,
# and (0, 1, 4) weighs 0.1 + 0.2 + 0.3 = 0.6000000000000001 color by color
# but is enumerated after (0, 3, 5): a weight filter without its margin,
# or one that skips ties, returns (0, 3, 5).
NEAR_TIE = SetSystem(2, [[], [0], [], [0], [1], [1]], [2, 1, 2, 0, 0, 1],
                     [0.3, 0.2, 0.3, 0.2, 0.1, 0.1])
# (0, 4, 6) and (1, 3, 6) both weigh 0.1 + 0.7 + 0.3 = 1.0999999999999999
# in id order, but 1.1 summed prefix first (0.7 + 0.3, then color 0's
# 0.1); (1, 3, 6) is found first, so a weight cut without its margin
# returns it.
NEAR_TIE_SPLIT = SetSystem(1, [[], [], [], [0], [0], [], []], [0, 1, 2, 0, 1, 0, 2],
                           [0.1, 0.7, 0.3, 0.1, 0.7, 1.0, 0.3])


@settings(max_examples=150, deadline=None)
@given(order_sensitive_instances(max_sets=10))
@example((NEAR_TIE, count_parity(3), 0))
@example((NEAR_TIE_SPLIT, count_parity(3), 0))
def test_weighted_oracle_matches_the_itertools_reference(case):
    # The least (weight in ascending id order, size, selection) over every
    # fair cover, to the bit.
    system, spec, _ = case
    best = lightest_fair_cover(system, spec.per_round)
    cover = opt_fair_cover(system, spec, weighted=True)
    if best is None:
        assert cover is None
    else:
        assert cover is not None and cover.selected == best[2]
        assert id_order_weight(system, cover.selected) == best[0]


@settings(max_examples=100, deadline=None)
@given(order_sensitive_instances(max_sets=10, weights=SIGNED_WEIGHTS))
def test_weighted_oracle_matches_the_reference_on_signed_weights(case):
    system, spec, _ = case
    best = lightest_fair_cover(system, spec.per_round)
    cover = opt_fair_cover(system, spec, weighted=True)
    assert (None if cover is None else cover.selected) == (None if best is None else best[2])


@settings(max_examples=150, deadline=None)
@given(order_sensitive_instances(max_sets=10))
def test_unweighted_oracle_matches_the_itertools_reference(case):
    # The least size, then the least selection, over every fair cover; the
    # instances have up to three colors and may give a color share zero or
    # leave it unnamed.
    system, spec, _ = case
    want = min(fair_covers(system, spec.per_round), key=lambda sel: (len(sel), sel),
               default=None)
    cover = opt_fair_cover(system, spec)
    assert (None if cover is None else cover.selected) == want


@settings(max_examples=100, deadline=None)
@given(instances(max_sets=10), st.data())
def test_multicover_oracle_matches_the_itertools_reference(case, data):
    system, spec, _ = case
    reqs = data.draw(st.lists(st.integers(1, 3), min_size=system.n, max_size=system.n))
    cover = opt_fair_multicover(MulticoverInstance(system, reqs), spec)
    want = least_fair_multicover(system, spec.per_round, reqs)
    assert (None if cover is None else cover.selected) == want


def assert_best_candidate_matches_reference(system, targets, remaining, per_round):
    """_best_candidate and _lightest_candidate over the round's split against
    brute_best_tuple: the most new coverage, and the least weight (ascending
    id order) per new element; ties to the smallest ids, None when no tuple
    covers a target."""
    unc = mask_of(targets, system.n)
    covered = brute_quota_tuples(system, remaining, per_round).values()
    hits = any(c & set(targets) for c in covered)
    for ratio in (False, True):
        # The weight rounds' rows carry the weights _scan_weights gives.
        if ratio:
            weights, positive = _scan_weights(system)
            split = _split(system.masks, remaining, per_round, weights)
            got = _lightest_candidate(split, unc, weights, positive)
        else:
            got = _best_candidate(_split(system.masks, remaining, per_round), unc)
        want = brute_best_tuple(system, targets, remaining, per_round, ratio)[1] if hits else None
        assert got == want, ratio


@settings(max_examples=150, deadline=None)
@given(order_sensitive_instances(), st.data())
def test_best_candidate_matches_the_itertools_reference(case, data):
    system, spec, _ = case
    state = _round_state(system, spec.per_round, data)
    if state is not None:
        assert_best_candidate_matches_reference(system, *state, spec.per_round)


@settings(max_examples=100, deadline=None)
@given(order_sensitive_instances(weights=SIGNED_WEIGHTS), st.data())
def test_best_candidate_matches_the_reference_on_signed_weights(case, data):
    system, spec, _ = case
    state = _round_state(system, spec.per_round, data)
    if state is not None:
        assert_best_candidate_matches_reference(system, *state, spec.per_round)


@settings(max_examples=50, deadline=None)
@given(order_sensitive_instances(weights=SIGNED_WEIGHTS), st.data())
def test_signed_weight_scans_carry_weighted_rows(case, data):
    # Whatever the weights' signs, every row of a weight scan's split is
    # (combination, mask, weight), the weight added in combination order.
    system, spec, _ = case
    state = _round_state(system, spec.per_round, data)
    if state is None:
        return
    prefix_tables, completions = _split(system.masks, state[1], spec.per_round,
                                        _scan_weights(system)[0])
    for rows in (*prefix_tables, completions):
        for combo, mask, w in rows:
            assert mask == mask_of({e for i in combo for e in system.sets[i]}, system.n)
            assert w == id_order_weight(system, combo)


@pytest.mark.parametrize("system", [
    # (2, 6, 7) scores 0.6 / 3, a hair under (1, 2, 7)'s 0.4 / 2; summed
    # color by color, 0.1 + 0.3 + 0.2, it would score a hair over.
    SetSystem(3, [[2], [0, 1], [], [1], [1, 2], [], [2], [0, 1]], [0, 1, 2, 1, 0, 0, 1, 0],
              [0.3, 0.1, 0.2, 0.2, 1.0, 1.0, 0.3, 0.1]),
    # (1, 2, 5) scores (-1.0 - 0.1 + 0.3) / 2 = -0.4 in id order, under
    # (0, 1, 2)'s -0.39999999999999997, but no better summed color by
    # color (0.3 - 1.0 - 0.1); a weight filter left on for negative
    # weights skips it.
    SetSystem(2, [[], [1], [0, 1], [0, 1], [0, 1], [1]], [0, 1, 2, 1, 1, 0],
              [0.3, -1.0, -0.1, 0.0, 0.0, 0.3]),
    # Skipping coverage ties takes (2, 7), enumerated first, not (1, 5).
    SetSystem(4, [[], [], [1, 2, 3], [], [], [0, 1, 2, 3], [0, 1, 2], [0, 2, 3], [3], [3], []],
              [0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1],
              [0.3, 1.0, 0.7, 1.0, 0.7, 1.0, 0.2, 0.2, 0.1, 0.3, 0.7]),
    # (1, 2, 5) ties (1, 3, 4) at 0.6 / 3 in id order and wins on ids. Its
    # prefix (1, 5) weighs 0.2 + 0.1, and completion 2 adds 0.3 to a hair
    # over 0.6, so a round that skipped or stopped without the margin would
    # lose it once (1, 3, 4) is best.
    SetSystem(3, [[], [0, 1], [0, 1, 2], [0, 1, 2], [], [], [0, 1], []], [1, 1, 0, 2, 0, 2, 0, 2],
              [1.0, 0.2, 0.3, 0.3, 0.1, 0.1, 0.3, 1.0]),
])
def test_best_candidate_keeps_near_ties(system):
    remaining = [list(g) for g in system.sets_by_color]
    per_round = count_parity(system.num_colors).per_round
    assert_best_candidate_matches_reference(system, list(range(system.n)), remaining, per_round)


@settings(max_examples=40, deadline=None)
@given(instances(), st.data())
def test_warm_target_sweep_matches_cold_solves(case, data):
    # On a random round state, solving tau = 1, 2, ... warm gives every
    # target the cold solve's status and objective.
    system, spec, _ = case
    per_round = spec.per_round
    state = _round_state(system, per_round, data)
    if state is None:
        return
    targets, remaining = state
    assert_sweeps_agree(warm_and_cold_sweep(system, remaining, targets, per_round))


@st.composite
def small_lps(draw):
    """(sense, objective, A, relations, rhs, bounds) of a random LP with at
    most 3 variables (possibly none) and 1 to 3 rows: any relation on any
    row, rhs of either sign, lower bounds off zero, and upper bounds equal
    to the lower bound, above it or absent."""
    nvar = draw(st.integers(0, 3))
    m = draw(st.integers(1, 3))
    ints = st.integers(-2, 2).map(float)
    A = [draw(st.lists(ints, min_size=nvar, max_size=nvar)) for _ in range(m)]
    relations = draw(st.lists(st.sampled_from(["<=", ">=", "="]), min_size=m, max_size=m))
    rhs = [draw(st.integers(-6, 6)) / 2 for _ in range(m)]
    bounds = []
    for _ in range(nvar):
        lo = float(draw(st.integers(-1, 1)))
        bounds.append((lo, lo + draw(st.sampled_from([0.0, 1.0, 2.0, math.inf]))))
    return (draw(st.sampled_from(["min", "max"])), draw(st.lists(ints, min_size=nvar,
            max_size=nvar)), A, relations, rhs, bounds)


# Three moves of the last rhs after its first solve: the target sweep's
# raise by one, or any half-steps, lowering and repeating targets included.
_HALF_STEP = st.integers(-2, 2).map(lambda k: k / 2)
_TARGET_STEPS = st.just((1.0, 1.0, 1.0)) | st.tuples(_HALF_STEP, _HALF_STEP, _HALF_STEP)


@settings(max_examples=150, deadline=None)
@given(small_lps(), _TARGET_STEPS)
def test_raised_last_row_targets_match_cold_solves(parts, steps):
    # Any LP re-targeted with the last rhs raised one step at a time, or
    # moved by any steps, lowered and repeated targets included, gets the
    # status and objective of a fresh cold solve, whatever the last row's
    # relation and sign. Every cold tableau, and the family's kept tableau
    # after each step, has exact unit vectors as basic columns: the pivot
    # rules rely on it to skip them.
    sense, objective, A, relations, rhs, bounds = parts
    first = LpProblem(sense, objective, A, relations, rhs, bounds)
    real = lp._optimize

    def checked(problem):
        status, tab = real(problem)
        assert_unit_basis(tab)
        return status, tab

    triples = []
    raised = list(rhs)
    with mock.patch.object(lp, "_optimize", checked):
        for step in (0, *steps):
            raised[-1] += step
            warm = solve(first.retarget(raised[-1]))
            kept = first._family[1]
            if kept is not None:
                assert_unit_basis(kept)
            cold = solve(LpProblem(sense, objective, A, relations, raised, bounds))
            triples.append((raised[-1], warm, cold))
    assert_sweeps_agree(triples)


def assert_unit_basis(tab):
    """Column basis[r] of tab is exactly e_r, with no tolerance."""
    assert np.array_equal(tab.T[:, tab.basis], np.eye(len(tab.basis)))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_multicover_prices_sum_to_the_cover(case):
    system, spec, seed = case
    inst = MulticoverInstance(system, _requirements(system))
    for mode in ("exhaustive", "mkcc_sub"):
        try:
            cover, ledger = fair_multicover_greedy(inst, spec, mode=mode, rng=seed)
        except FairCoverError:
            continue
        assert audit_price_identity(cover, ledger, spec).ok, mode


@settings(max_examples=150, deadline=None)
@given(instances(max_sets=10), st.data())
def test_exhaustive_multicover_prices_stay_within_the_harmonic_bound(case, data):
    system, spec, _ = case
    reqs = [data.draw(st.integers(1, max(1, min(3, len(c))))) for c in system.element_sets]
    inst = MulticoverInstance(system, reqs)
    try:
        cover, ledger = fair_multicover_greedy(inst, spec)
    except FairCoverError:
        return
    assert audit_harmonic_bound(inst, cover, ledger, spec) <= 1.0


class _IndexLog(list):
    """A color's group that logs every index read through g[i]. Iterating
    it, as the padding of a short draw does, reads no index."""

    def __init__(self, size, log):
        super().__init__(range(size))
        self.log = log

    def __getitem__(self, i):
        self.log.append(int(i))
        return super().__getitem__(i)


@st.composite
def sampling_laws(draw):
    """(laws, seed): one to three colors, each a (law, quota) pair with a
    law over 1-12 sets, some entries zero but never all, normalized as
    color_sampling_probs does, and a quota of 1-3."""
    laws = []
    for _ in range(draw(st.integers(1, 3))):
        raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                            min_size=1, max_size=12))
        if not any(raw):
            raw[draw(st.integers(0, len(raw) - 1))] = 1.0
        x = np.array(raw)
        laws.append((x / x.sum(), draw(st.integers(1, 3))))
    return laws, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(sampling_laws())
def test_round_draws_are_generator_choice_draws(case):
    # sample_round_tuple follows Generator.choice's recipe without calling
    # it; a numpy release that changes the recipe must fail here rather
    # than silently move the golden covers.
    laws, seed = case
    log = []
    groups = [_IndexLog(len(pr), log) for pr, _ in laws]
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    sample_round_tuple(groups, [q for _, q in laws], [pr for pr, _ in laws], rng)
    want = []
    for pr, q in laws:
        if q == 1:
            want.append(int(ref.choice(len(pr), p=pr)))
        else:
            want.extend(ref.choice(len(pr), size=q, replace=True, p=pr).tolist())
    assert log == want
    assert rng.bit_generator.state == ref.bit_generator.state
