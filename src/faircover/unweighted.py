"""Unweighted cover algorithms, from plain greedy to quota-respecting rounds.

Every cover loop, here and in weighted and multicover, is the _run_rounds
driver with its own round picker; every LP-rounded round, the weighted
target sweep's included, draws its samples through _draw.

Every exhaustive scan, of the rounds here and in weighted and of the
oracles, has one shape, the split _split builds: prefix tables, whose
product (_tuples_of) gives the prefixes, and one table of completions. A
tuple is a prefix plus a completion; a scan ORs each prefix's mask once,
then tests the completions against it. A one-set scan is a split with no
prefix table. _best_candidate takes the argmax of new coverage and
_lightest_candidate the argmin of weight per new element. A weight scan
asks model._weight_gate once per run (_scan_weights), which refuses a NaN
or infinite weight; each row of its tables carries its combination's
weight, summed as the row is built, and it scans the completions
lightest first (_lightest_first). Only when every weight is positive may
it skip a candidate or stop a prefix early.

Determinism contract: all ties break toward the smallest set index (for
single picks) or the lexicographically smallest sorted id tuple (for round
tuples), and every random draw flows through a caller-supplied seed or
numpy Generator. Same instance, same seed, same cover, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import BudgetExceeded, NoProgress, NumericalFailure
from .lp import LpSolver, build_mkcc_lp, round_laws, solve
from .model import (Cover, FairnessSpec, SetSystem, _add_up, _weight_gate, check_pools,
                    elements_of, quota_counts, union_of)

# Refuse any quota-tuple enumeration (exhaustive rounds and the oracles)
# with more candidate tuples than this.
TUPLE_BUDGET = 10_000_000
# One LP sample may be redrawn this many times before falling back to greedy.
ZERO_PROGRESS_RESAMPLES = 16
# The skip margin of every weight scan (the weight-per-element rounds and
# the weighted oracle): a candidate whose weight, summed in another order
# than ascending ids, passes the best by more than this relative margin is
# dropped unweighed. A sum of positive finite weights in any order is within
# a relative few 1e-15 of the ascending-order one, so a dropped candidate
# weighs more than the best, and ties break as in a scan weighing them all.
_SKIP_MARGIN = 1 + 1e-9


def as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass
class GreedyState:
    """Mutable per-run bookkeeping: what is still uncovered (a bitmask over
    the elements, as in SetSystem.masks), which sets are still available per
    color, and the committed audit trail."""

    uncovered: int
    remaining: list[list[int]]
    rounds: list[tuple[int, ...]] = field(default_factory=list)

    @classmethod
    def fresh(cls, system: SetSystem) -> "GreedyState":
        return cls(
            uncovered=(1 << system.n) - 1,
            remaining=[list(g) for g in system.sets_by_color],
        )

    def new_coverage(self, system: SetSystem, ids: Sequence[int]) -> int:
        return (union_of(system.masks, ids) & self.uncovered).bit_count()

    def commit(self, system: SetSystem, ids: Sequence[int]) -> None:
        ids = tuple(sorted(ids))
        for i in ids:
            self.uncovered &= ~system.masks[i]
            self.remaining[system.colors[i]].remove(i)
        self.rounds.append(ids)

    def to_cover(self, system: SetSystem) -> Cover:
        return Cover.from_rounds(system, self.rounds)


def _run_rounds(system: SetSystem, pick, stuck, commit=None) -> Cover:
    """The loop of every greedy cover: while state.uncovered is non-empty,
    take ids = pick(state), raise stuck if they are None or cover nothing
    new, else commit them (GreedyState.commit, or the commit(state, system,
    ids) rule given). Each quota picker checks its pools (check_pools)
    before any other work."""
    state = GreedyState.fresh(system)
    while state.uncovered:
        ids = pick(state)
        if ids is None or state.new_coverage(system, ids) == 0:
            raise stuck
        (commit or GreedyState.commit)(state, system, ids)
    return state.to_cover(system)


def _best_candidate(split, uncovered: int) -> tuple[int, ...] | None:
    """The ids of the tuple of split (see _split) covering the most of
    uncovered; ties go to the smallest ids, and None means no tuple covers
    a new element. Ids are built only for a tuple covering at least as
    much as the best so far."""
    prefix_tables, completions = split
    best_ids, best = None, 0
    for prefix, pm, _ in _tuples_of(prefix_tables):
        for part in completions:
            new = ((pm | part[1]) & uncovered).bit_count()
            if new == 0 or new < best:
                continue
            ids = _ids(prefix + (part,))
            if new > best or best_ids is None or ids < best_ids:
                best_ids, best = ids, new
    return best_ids


def _lightest_candidate(split, uncovered: int, weights: Sequence[float],
                        positive: bool) -> tuple[int, ...] | None:
    """The ids of the tuple of split (see _split; its rows carry weights)
    with the least total weight (weights summed in ascending id order)
    per newly covered element of uncovered; ties go to the smallest ids,
    and None means no tuple covers a new element.

    Each prefix scans the completions lightest first (_lightest_first).
    When every weight is positive, a tuple whose weight, summed row by
    row, is more than _SKIP_MARGIN times the best score per new element
    is skipped unweighed, and the scan of a prefix stops once that weight
    per uncovered element passes the margin, since no later completion
    can score better. Every other tuple that covers a new element is
    weighed."""
    prefix_tables, completions = _lightest_first(split)
    spread = uncovered.bit_count()
    # cut is _SKIP_MARGIN times the best score once positive weights have
    # one, else inf. The checks multiply it by a count rather than divide
    # by one, so an empty uncovered mask needs no guard: inf * 0 is NaN,
    # and no weight passes it.
    best_ids, best, cut = None, 0.0, math.inf
    for prefix, pm, wp in _tuples_of(prefix_tables):
        for part in completions:
            w = wp + part[2]
            if w > cut * spread:
                break
            new = ((pm | part[1]) & uncovered).bit_count()
            if new == 0 or w > cut * new:
                continue
            ids = _ids(prefix + (part,))
            score = _add_up(map(weights.__getitem__, ids)) / new
            if best_ids is None or score < best or (score == best and ids < best_ids):
                best_ids, best = ids, score
                if positive:
                    cut = score * _SKIP_MARGIN
    return best_ids


def _lightest_first(split):
    """split with its completions lightest first. The sort is stable, so
    equal weights keep combinations() order."""
    prefix_tables, completions = split
    return prefix_tables, sorted(completions, key=itemgetter(2))


def _scan_weights(system: SetSystem) -> tuple[tuple[float, ...], bool]:
    """The weights a weight scan's rows carry (see _split), every set's
    weight, 1.0 each when the system has none, and whether
    model._weight_gate says every weight is positive. The gate's
    ValueError for a NaN or infinite weight passes through."""
    positive = _weight_gate(system)
    return system.weights or (1.0,) * system.num_sets, positive


def greedy_set_cover(system: SetSystem) -> Cover:
    """Classic greedy: each round takes the set covering the most new
    elements, ignoring colors entirely. Guarantees (ln n + 1) times the
    optimum size but can be arbitrarily lopsided across groups."""
    sets = ([], _singletons(system))
    stuck = NoProgress("uncovered elements remain but no set touches them")
    return _run_rounds(system, lambda state: _best_candidate(sets, state.uncovered), stuck)


def _pad_to_quotas(system: SetSystem, spec: FairnessSpec, base: Cover, key=None) -> Cover:
    """base plus one round padding every color up to t * per_round[h], t
    being the fewest rounds whose quotas hold base's group counts (zero for
    an empty base). A color pads with its unpicked sets in key order (by id
    when key is None). Raises ZeroFractionViolated when base has a set of a
    zero-share color."""
    quotas = [(int(f * spec.p), c) for f, c in quota_counts(spec, base)]
    t = max([0] + [math.ceil(c / p) for p, c in quotas if p > 0])
    picked = set(base.selected)
    pools = [sorted((i for i in g if i not in picked), key=key) for g in system.sets_by_color]
    needs = [t * p - c for p, c in quotas]
    check_pools(pools, needs)
    pads = [i for pool, need in zip(pools, needs) for i in pool[:need]]
    rounds = list(base.rounds)
    if pads:
        rounds.append(tuple(sorted(pads)))
    return Cover.from_rounds(system, rounds)


def naive_fsc(system: SetSystem, spec: FairnessSpec) -> Cover:
    """Greedy cover, then per-color padding up to the quotas.

    After greedy finishes, the smallest round count t making every group's
    quota t*per_round[h] at least its greedy count is computed, and each
    group is padded with its lowest-index unpicked sets. The result is a
    quota-exact cover of t*p sets; the guarantee degrades to k(ln n + 1)
    because padding can multiply the greedy size by at most the number of
    groups. Raises ZeroFractionViolated when greedy picks a set of a
    zero-share color, one the spec does not name included."""
    return _pad_to_quotas(system, spec, greedy_set_cover(system))


def _split(masks: Sequence[int], pools: Sequence[Sequence[int]], counts: Sequence[int],
           weights: Sequence[float] | None = None, latest: list | None = None):
    """Every way to take counts[h] ids from pools[h] for each color h, as
    (prefix tables, completions). Each color with a positive count has a
    table of rows (see _table) in combinations() order; the completions
    are the first table with the most rows, the prefix tables the others
    in color order, and a tuple is one prefix (_tuples_of) plus one
    completion. With no positive count, the one completion is the empty
    selection. Raises, before building any table, InsufficientColor when a
    pool is short (see check_pools) and BudgetExceeded when the tables'
    product holds more than TUPLE_BUDGET tuples.

    With weights, indexed by set id, each row also carries its
    combination's weight. A table of c ids with c <= len(pool) - c is
    grown one id at a time, from latest[h] (latest holds each color's last
    table, by color, and is updated) when its rows hold at most c ids,
    else from the empty combination; no table on the way holds more rows
    than the last, which the budget covers. A larger c is built directly."""
    check_pools(pools, counts)
    total = math.prod(math.comb(len(pool), c) for pool, c in zip(pools, counts))
    if total > TUPLE_BUDGET:
        raise BudgetExceeded(
            f"{total} candidate tuples exceeds the budget of {TUPLE_BUDGET}"
        )
    tables = []
    for h, (pool, c) in enumerate(zip(pools, counts)):
        if c <= 0:
            continue
        if weights is None or c > len(pool) - c:
            rows = _table(masks, pool, c, weights)
        else:
            rows = latest[h] if latest else None
            if not rows or len(rows[0][0]) > c:
                rows = [((), 0, 0.0)]
            for size in range(len(rows[0][0]) + 1, c + 1):
                rows = _table(masks, pool, size, weights, rows)
        if latest is not None:
            latest[h] = rows
        tables.append(rows)
    if not tables:
        tables = [[((), 0) if weights is None else ((), 0, 0.0)]]
    j = max(range(len(tables)), key=lambda h: len(tables[h]))
    return tables[:j] + tables[j + 1:], tables[j]


def _table(masks: Sequence[int], pool: Sequence[int], c: int,
           weights: Sequence[float] | None = None, rows=None) -> list:
    """The row of every combination of c ids of pool, in combinations()
    order: (combination, mask), or with weights, indexed by set id,
    (combination, mask, weight), the weight summed left to right in the
    combination's order. Given rows, the weighted rows of c - 1 ids of
    pool, each new row extends one of them by one later id of pool, with
    one OR and one add; rows ending in the same id share their extensions,
    so the new rows come in combinations() order too."""
    if rows is None:
        combos = combinations(pool, c)
        if weights is None:
            return [(combo, union_of(masks, combo)) for combo in combos]
        out = []
        for combo in combos:
            m, w = 0, 0.0
            for i in combo:
                m |= masks[i]
                w += weights[i]
            out.append((combo, m, w))
        return out
    items = [((i,), masks[i], weights[i]) for i in pool]
    later = {i: items[k + 1:] for k, i in enumerate(pool)}
    return [(combo + one, m | mi, w + wi) for combo, m, w in rows
            for one, mi, wi in (later[combo[-1]] if combo else items)]


def _tuples_of(tables):
    """Every choice of one row per table, in product() order, as (parts,
    the OR of their masks, the sum of their weights in table order, 0.0
    for rows without weights)."""
    # Each color's combinations carry their union (and weight), so a tuple
    # ORs one mask per color rather than one per set.
    weighed = bool(tables) and len(tables[0][0]) > 2
    if len(tables) == 1:
        # One table's rows are the choices: no product to build.
        for row in tables[0]:
            yield (row,), row[1], row[2] if weighed else 0.0
        return
    for parts in product(*tables):
        mask, w = 0, 0.0
        if weighed:
            for _, m, pw in parts:
                mask |= m
                w += pw
        else:
            for _, m in parts:
                mask |= m
        yield parts, mask, w


def _ids(parts) -> tuple[int, ...]:
    """The ascending ids of a tuple's rows."""
    return tuple(sorted([i for part in parts for i in part[0]]))


def _singletons(system: SetSystem):
    """Every set as a one-set (combination, mask) completion."""
    return [((i,), m) for i, m in enumerate(system.masks)]


def best_coverage_tuple(
    system: SetSystem, state: GreedyState, per_round: Sequence[int]
) -> tuple[int, ...] | None:
    """Exhaustive argmax of new coverage over all quota tuples; ties go to
    the lexicographically smallest tuple, and None means no tuple covers a
    new element."""
    return _best_candidate(_split(system.masks, state.remaining, per_round), state.uncovered)


def greedy_allpick(system: SetSystem, spec: FairnessSpec) -> Cover:
    """Quota-respecting greedy over whole rounds.

    Each round exhaustively scores every way of taking per_round[h] unpicked
    sets from each group and commits the tuple covering the most new
    elements. Covers are quota-exact by construction and at most
    (ln n + 1) times the smallest quota-respecting cover.
    """
    return _run_rounds(
        system, lambda state: best_coverage_tuple(system, state, spec.per_round),
        NoProgress("no quota tuple covers a new element"),
    )


def mkcc_greedy(
    system: SetSystem, state: GreedyState, per_round: Sequence[int]
) -> tuple[int, ...]:
    """Half-approximate single round: repeatedly take the remaining set with
    the best marginal coverage, skipping sets whose color quota is already
    met, then pad under-quota colors with their lowest-index remaining sets.
    Never mutates state; returns exactly sum(per_round) ids."""
    check_pools(state.remaining, per_round)
    working = state.uncovered
    taken: set[int] = set()
    quota_left = list(per_round)
    sets = _singletons(system)
    # A taken set covers nothing of working, so the argmax never re-takes it.
    while working:
        eligible = [sets[i] for g, q in zip(state.remaining, quota_left) if q > 0 for i in g]
        best = _best_candidate(([], eligible), working)
        if best is None:
            break
        (i,) = best
        taken.add(i)
        working &= ~system.masks[i]
        quota_left[system.colors[i]] -= 1
    for g, q in zip(state.remaining, quota_left):
        taken.update([i for i in g if i not in taken][:q])
    return tuple(sorted(taken))


def sample_round_tuple(
    groups: Sequence[Sequence[int]],
    quotas: Sequence[int],
    probs: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Draw one quota tuple from per-color sampling laws.

    Quota one: a single categorical draw. Larger quotas: that many draws
    with replacement, deduplicated, then padded back up with the color's
    lowest-index unchosen sets so the tuple always holds exactly quota
    distinct sets. A color with law p draws as Generator.choice(len(p),
    size, p=p) does, without its per-call validation: cdf = cumsum(p)
    divided by its last entry, then cdf.searchsorted(rng.random(size),
    side="right"). Same generator state, same indices; a property test
    pins this against choice."""
    chosen: list[int] = []
    for g, q, pr in zip(groups, quotas, probs):
        cdf = pr.cumsum()
        cdf /= cdf[-1]
        if q == 1:
            chosen.append(g[int(cdf.searchsorted(rng.random(), side="right"))])
            continue
        draws = cdf.searchsorted(rng.random(q), side="right")
        picked = {g[int(d)] for d in draws}
        chosen.extend(picked)
        chosen.extend([i for i in g if i not in picked][: q - len(picked)])
    return tuple(sorted(chosen))


def _draw(system: SetSystem, state: GreedyState, laws, rng: np.random.Generator,
          tries: int, threshold: int) -> tuple[tuple[int, ...], int] | None:
    """The first of up to tries samples from laws, the (groups, quotas,
    probs) lp.round_laws gives, that newly covers at least threshold
    elements, with that coverage; None when no sample does."""
    for _ in range(tries):
        ids = sample_round_tuple(*laws, rng)
        covered = state.new_coverage(system, ids)
        if covered >= threshold:
            return ids, covered
    return None


def _lp_draw(system: SetSystem, state: GreedyState, per_round: Sequence[int],
             rng: np.random.Generator, lp_solver: LpSolver, tries: int, threshold: int):
    """Solve the round's coverage relaxation once and _draw from its laws."""
    lp = build_mkcc_lp(system, state.remaining, elements_of(state.uncovered), per_round)
    sol = lp_solver(lp)
    if sol.status != "optimal":
        raise NumericalFailure(f"round relaxation came back {sol.status}")
    laws = round_laws(state.remaining, per_round)(sol.values)
    return _draw(system, state, laws, rng, tries, threshold)


def _sampled_round(
    system: SetSystem,
    state: GreedyState,
    per_round: Sequence[int],
    rng: np.random.Generator,
    lp_solver: LpSolver,
) -> tuple[int, ...]:
    """One LP-rounded round: the first of up to 1 + ZERO_PROGRESS_RESAMPLES
    samples that covers a new element, else the marginal greedy round
    (which may cover nothing either; callers check)."""
    hit = _lp_draw(system, state, per_round, rng, lp_solver, 1 + ZERO_PROGRESS_RESAMPLES, 1)
    return hit[0] if hit else mkcc_greedy(system, state, per_round)


def mkcc_lp_round(
    system: SetSystem,
    state: GreedyState,
    per_round: Sequence[int],
    rng: np.random.Generator | int | None = None,
    lp_solver: LpSolver = solve,
) -> tuple[int, ...]:
    """Randomized-rounding single round: solve the coverage relaxation, then
    sample each color's quota by the optimal fractional masses. Expected new
    coverage is at least (1 - 1/e) times the relaxation optimum; integral
    relaxations round to their support with certainty."""
    return _lp_draw(system, state, per_round, as_rng(rng), lp_solver, 1, 0)[0]


def eff_fsc(
    system: SetSystem,
    spec: FairnessSpec,
    subroutine: str = "greedy",
    rng: np.random.Generator | int | None = None,
    lp_solver: LpSolver = solve,
) -> Cover:
    """Quota-respecting greedy with a fast per-round subroutine.

    subroutine='greedy' scores rounds with the half-approximate marginal
    picker (overall guarantee 2(ln n + 1)); subroutine='lp' rounds the
    relaxation (e/(e-1) (ln n + 1) in expectation). A sampled round that
    covers nothing new is redrawn up to ZERO_PROGRESS_RESAMPLES times and
    then replaced by the greedy round; if even that makes no progress the
    run stops with NoProgress rather than looping forever."""
    if subroutine not in ("greedy", "lp"):
        raise ValueError(f"unknown subroutine {subroutine!r}")
    if subroutine == "lp":  # greedy rounds draw nothing, so build no Generator
        rng = as_rng(rng)

    def pick(state: GreedyState) -> tuple[int, ...]:
        if subroutine == "greedy":
            return mkcc_greedy(system, state, spec.per_round)
        return _sampled_round(system, state, spec.per_round, rng, lp_solver)

    stuck = NoProgress("round subroutine could not cover a new element")
    return _run_rounds(system, pick, stuck)
