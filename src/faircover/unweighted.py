"""Unweighted cover algorithms, from plain greedy to quota-respecting rounds.

Determinism contract: all ties break toward the smallest set index (for
single picks) or the lexicographically smallest sorted id tuple (for round
tuples), and every random draw flows through a caller-supplied seed or
numpy Generator. Same instance, same seed, same cover, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    InsufficientColor,
    NoProgress,
    NumericalFailure,
)
from .lp import (
    LpSolver,
    build_mkcc_lp,
    color_sampling_probs,
    lp_variable_order,
    solve,
)
from .model import Cover, FairnessSpec, SetSystem, elements_of

# Refuse any quota-tuple enumeration (exhaustive rounds and the oracles)
# with more candidate tuples than this.
TUPLE_BUDGET = 10_000_000
# One LP sample may be redrawn this many times before falling back to greedy.
ZERO_PROGRESS_RESAMPLES = 16


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
    selected: list[int] = field(default_factory=list)
    rounds: list[tuple[int, ...]] = field(default_factory=list)

    @classmethod
    def fresh(cls, system: SetSystem) -> "GreedyState":
        return cls(
            uncovered=(1 << system.n) - 1,
            remaining=[list(g) for g in system.sets_by_color],
        )

    def new_coverage(self, system: SetSystem, ids: Sequence[int]) -> int:
        return (_union(system.masks, ids) & self.uncovered).bit_count()

    def commit(self, system: SetSystem, ids: Sequence[int]) -> None:
        ids = tuple(sorted(ids))
        for i in ids:
            self.uncovered &= ~system.masks[i]
            self.remaining[system.colors[i]].remove(i)
            self.selected.append(i)
        self.rounds.append(ids)

    def to_cover(self, system: SetSystem) -> Cover:
        return Cover.from_rounds(system, self.rounds)


def greedy_set_cover(system: SetSystem) -> Cover:
    """Classic greedy: each round takes the set covering the most new
    elements, ignoring colors entirely. Guarantees (ln n + 1) times the
    optimum size but can be arbitrarily lopsided across groups."""
    state = GreedyState.fresh(system)
    while state.uncovered:
        # A picked set covers nothing new, so it never wins again.
        best_i = -1
        best_new = 0
        for i, m in enumerate(system.masks):
            new = (m & state.uncovered).bit_count()
            if new > best_new:
                best_new = new
                best_i = i
        if best_i < 0:
            raise NoProgress("uncovered elements remain but no set touches them")
        state.commit(system, (best_i,))
    return state.to_cover(system)


def _pad_to_quotas(system: SetSystem, spec: FairnessSpec, base: Cover, key=None) -> Cover:
    """base plus one round padding every color up to t * per_round[h], t
    being the fewest rounds whose quotas hold base's group counts. A color
    pads with its unpicked sets in key order (by id when key is None)."""
    counts = list(base.group_counts) + [0] * (spec.num_colors - len(base.group_counts))
    t = 1
    for h, p in enumerate(spec.per_round):
        if p == 0:
            if counts[h] > 0:
                raise InsufficientColor(h, 0, 0)
            continue
        t = max(t, math.ceil(counts[h] / p))
    picked = set(base.selected)
    pads: list[int] = []
    for h, p in enumerate(spec.per_round):
        need = t * p - counts[h]
        if need == 0:
            continue
        avail = sorted((i for i in system.sets_by_color[h] if i not in picked), key=key)
        if len(avail) < need:
            raise InsufficientColor(h, need, len(avail))
        pads.extend(avail[:need])
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
    groups."""
    return _pad_to_quotas(system, spec, greedy_set_cover(system))


def _check_availability(
    remaining: Sequence[Sequence[int]], per_round: Sequence[int]
) -> None:
    for h, p in enumerate(per_round):
        if p > 0 and len(remaining[h]) < p:
            raise InsufficientColor(h, p, len(remaining[h]))


def _union(masks: Sequence[int], ids: Sequence[int]) -> int:
    out = 0
    for i in ids:
        out |= masks[i]
    return out


def _quota_tuples(
    masks: Sequence[int], pools: Sequence[Sequence[int]], counts: Sequence[int]
):
    """Every way to take counts[h] ids from pools[h] for each color h, as
    (ids ascending, OR of their masks). Raises BudgetExceeded, before
    yielding anything, when there are more than TUPLE_BUDGET ways."""
    pools = list(pools) + [()] * (len(counts) - len(pools))  # a missing color has no sets
    total = 1
    for pool, c in zip(pools, counts):
        total *= math.comb(len(pool), c)
    if total > TUPLE_BUDGET:
        raise BudgetExceeded(
            f"{total} candidate tuples exceeds the budget of {TUPLE_BUDGET}"
        )
    if total == 0:
        return
    # Each color's combinations carry their union, so a tuple ORs one mask
    # per color rather than one per set.
    choices = [
        [(combo, _union(masks, combo)) for combo in combinations(pool, c)]
        for pool, c in zip(pools, counts)
        if c > 0
    ]
    for parts in product(*choices):
        mask = 0
        for _, m in parts:
            mask |= m
        yield tuple(sorted([i for combo, _ in parts for i in combo])), mask


def best_coverage_tuple(
    system: SetSystem, state: GreedyState, per_round: Sequence[int]
) -> tuple[int, ...]:
    """Exhaustive argmax of new coverage over all quota tuples; ties go to
    the lexicographically smallest tuple."""
    _check_availability(state.remaining, per_round)
    # _check_availability leaves every active color at least its quota of
    # sets, so the tuple product is non-empty and best_ids gets set.
    best_new = -1
    best_ids: tuple[int, ...] = ()
    for ids, mask in _quota_tuples(system.masks, state.remaining, per_round):
        new = (mask & state.uncovered).bit_count()
        if new > best_new or (new == best_new and ids < best_ids):
            best_new = new
            best_ids = ids
    return best_ids


def greedy_allpick(system: SetSystem, spec: FairnessSpec) -> Cover:
    """Quota-respecting greedy over whole rounds.

    Each round exhaustively scores every way of taking per_round[h] unpicked
    sets from each group and commits the tuple covering the most new
    elements. Covers are quota-exact by construction and at most
    (ln n + 1) times the smallest quota-respecting cover.
    """
    state = GreedyState.fresh(system)
    while state.uncovered:
        ids = best_coverage_tuple(system, state, spec.per_round)
        if state.new_coverage(system, ids) == 0:
            raise NoProgress("no quota tuple covers a new element")
        state.commit(system, ids)
    return state.to_cover(system)


def mkcc_greedy(
    system: SetSystem, state: GreedyState, per_round: Sequence[int]
) -> tuple[int, ...]:
    """Half-approximate single round: repeatedly take the remaining set with
    the best marginal coverage, skipping sets whose color quota is already
    met, then pad under-quota colors with their lowest-index remaining sets.
    Never mutates state; returns exactly sum(per_round) ids."""
    _check_availability(state.remaining, per_round)
    masks = system.masks
    working = state.uncovered
    taken: set[int] = set()
    quota_left = list(per_round)
    total_left = sum(per_round)
    while total_left > 0 and working:
        best_i = -1
        best_new = 0
        eligible = sorted(
            i
            for h, g in enumerate(state.remaining)
            if quota_left[h] > 0
            for i in g
            if i not in taken
        )
        for i in eligible:
            new = (masks[i] & working).bit_count()
            if new > best_new:
                best_new = new
                best_i = i
        if best_i < 0:
            break
        taken.add(best_i)
        working &= ~masks[best_i]
        quota_left[system.colors[best_i]] -= 1
        total_left -= 1
    for h, g in enumerate(state.remaining):
        for i in g:
            if quota_left[h] == 0:
                break
            if i not in taken:
                taken.add(i)
                quota_left[h] -= 1
    return tuple(sorted(taken))


def _solve_round_probs(
    system: SetSystem,
    state: GreedyState,
    per_round: Sequence[int],
    lp_solver: LpSolver,
):
    """Solve the round relaxation and return per-color (ids, probabilities)."""
    lp = build_mkcc_lp(system, state.remaining, elements_of(state.uncovered), per_round)
    sol = lp_solver(lp)
    if sol.status != "optimal":
        raise NumericalFailure(f"round relaxation came back {sol.status}")
    groups = lp_variable_order(state.remaining, per_round)
    quotas = [p for p in per_round if p > 0]
    probs = color_sampling_probs(sol.values, groups, quotas)
    return groups, quotas, probs, sol


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
    distinct sets."""
    chosen: list[int] = []
    for g, q, pr in zip(groups, quotas, probs):
        if q == 1:
            chosen.append(g[int(rng.choice(len(g), p=pr))])
            continue
        draws = rng.choice(len(g), size=q, replace=True, p=pr)
        picked = sorted({g[int(d)] for d in draws})
        for i in g:
            if len(picked) == q:
                break
            if i not in picked:
                picked.append(i)
        chosen.extend(picked)
    return tuple(sorted(chosen))


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
    groups, quotas, probs, _ = _solve_round_probs(system, state, per_round, lp_solver)
    for _ in range(1 + ZERO_PROGRESS_RESAMPLES):
        ids = sample_round_tuple(groups, quotas, probs, rng)
        if state.new_coverage(system, ids) > 0:
            return ids
    return mkcc_greedy(system, state, per_round)


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
    rng = as_rng(rng)
    groups, quotas, probs, _ = _solve_round_probs(system, state, per_round, lp_solver)
    return sample_round_tuple(groups, quotas, probs, rng)


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
    rng = as_rng(rng)
    state = GreedyState.fresh(system)
    while state.uncovered:
        _check_availability(state.remaining, spec.per_round)
        if subroutine == "greedy":
            ids = mkcc_greedy(system, state, spec.per_round)
        else:
            ids = _sampled_round(system, state, spec.per_round, rng, lp_solver)
        if state.new_coverage(system, ids) == 0:
            raise NoProgress("round subroutine could not cover a new element")
        state.commit(system, ids)
    return state.to_cover(system)
