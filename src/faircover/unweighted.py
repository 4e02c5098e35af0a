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
from .model import Cover, FairnessSpec, SetSystem

# Refuse exhaustive rounds with more candidate tuples than this.
TUPLE_BUDGET = 10_000_000
# One LP sample may be redrawn this many times before falling back to greedy.
ZERO_PROGRESS_RESAMPLES = 16


def as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass
class GreedyState:
    """Mutable per-run bookkeeping: what is still uncovered, which sets are
    still available per color, and the committed audit trail."""

    uncovered: set[int]
    remaining: list[list[int]]
    selected: list[int] = field(default_factory=list)
    rounds: list[tuple[int, ...]] = field(default_factory=list)

    @classmethod
    def fresh(cls, system: SetSystem) -> "GreedyState":
        return cls(
            uncovered=set(range(system.n)),
            remaining=[list(g) for g in system.sets_by_color],
        )

    def new_coverage(self, system: SetSystem, ids: Sequence[int]) -> int:
        hit = set()
        for i in ids:
            hit.update(system.frozen_sets[i] & self.uncovered)
        return len(hit)

    def commit(self, system: SetSystem, ids: Sequence[int]) -> None:
        ids = tuple(sorted(ids))
        for i in ids:
            self.uncovered -= system.frozen_sets[i]
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
    picked: set[int] = set()
    while state.uncovered:
        best_i = -1
        best_new = 0
        for i in range(system.num_sets):
            if i in picked:
                continue
            new = len(system.frozen_sets[i] & state.uncovered)
            if new > best_new:
                best_new = new
                best_i = i
        if best_i < 0:
            raise NoProgress("uncovered elements remain but no set touches them")
        picked.add(best_i)
        state.commit(system, (best_i,))
    return state.to_cover(system)


def _pad_target_rounds(spec: FairnessSpec, counts: Sequence[int]) -> int:
    """Fewest rounds t such that t * per_round[h] >= counts[h] everywhere."""
    t = 1
    for h, p in enumerate(spec.per_round):
        c = counts[h] if h < len(counts) else 0
        if p == 0:
            if c > 0:
                raise InsufficientColor(h, 0, 0)
            continue
        t = max(t, math.ceil(c / p))
    return t


def naive_fsc(system: SetSystem, spec: FairnessSpec) -> Cover:
    """Greedy cover, then per-color padding up to the quotas.

    After greedy finishes, the smallest round count t making every group's
    quota t*per_round[h] at least its greedy count is computed, and each
    group is padded with its lowest-index unpicked sets. The result is a
    quota-exact cover of t*p sets; the guarantee degrades to k(ln n + 1)
    because padding can multiply the greedy size by at most the number of
    groups."""
    base = greedy_set_cover(system)
    counts = list(base.group_counts) + [0] * (spec.num_colors - len(base.group_counts))
    t = _pad_target_rounds(spec, counts)
    picked = set(base.selected)
    pads: list[int] = []
    for h, p in enumerate(spec.per_round):
        need = t * p - counts[h]
        if need == 0:
            continue
        avail = [i for i in system.sets_by_color[h] if i not in picked]
        if len(avail) < need:
            raise InsufficientColor(h, need, len(avail))
        pads.extend(avail[:need])
    rounds = list(base.rounds)
    if pads:
        rounds.append(tuple(sorted(pads)))
    return Cover.from_rounds(system, rounds)


def _check_availability(
    remaining: Sequence[Sequence[int]], per_round: Sequence[int]
) -> None:
    for h, p in enumerate(per_round):
        if p > 0 and len(remaining[h]) < p:
            raise InsufficientColor(h, p, len(remaining[h]))


def _tuple_count(remaining: Sequence[Sequence[int]], per_round: Sequence[int]) -> int:
    count = 1
    for h, p in enumerate(per_round):
        if p > 0:
            count *= math.comb(len(remaining[h]), p)
    return count


def _iter_tuples(remaining: Sequence[Sequence[int]], per_round: Sequence[int]):
    """All ways to take per_round[h] remaining sets of each color, as sorted
    id tuples."""
    pools = [
        combinations(sorted(remaining[h]), p)
        for h, p in enumerate(per_round)
        if p > 0
    ]
    for parts in product(*pools):
        yield tuple(sorted(i for part in parts for i in part))


def best_coverage_tuple(
    system: SetSystem,
    state: GreedyState,
    per_round: Sequence[int],
    tuple_budget: int = TUPLE_BUDGET,
) -> tuple[int, ...]:
    """Exhaustive argmax of new coverage over all quota tuples; ties go to
    the lexicographically smallest tuple."""
    _check_availability(state.remaining, per_round)
    count = _tuple_count(state.remaining, per_round)
    if count > tuple_budget:
        raise BudgetExceeded(
            f"{count} candidate tuples per round exceeds budget {tuple_budget}; "
            "use an LP or greedy subroutine instead"
        )
    # _check_availability leaves every active color at least its quota of
    # sets, so the tuple product is non-empty and best_ids gets set.
    best_key = None
    best_ids: tuple[int, ...] = ()
    for ids in _iter_tuples(state.remaining, per_round):
        key = (-state.new_coverage(system, ids), ids)
        if best_key is None or key < best_key:
            best_key = key
            best_ids = ids
    return best_ids


def greedy_allpick(
    system: SetSystem,
    spec: FairnessSpec,
    tuple_budget: int = TUPLE_BUDGET,
) -> Cover:
    """Quota-respecting greedy over whole rounds.

    Each round exhaustively scores every way of taking per_round[h] unpicked
    sets from each group and commits the tuple covering the most new
    elements. Covers are quota-exact by construction and at most
    (ln n + 1) times the smallest quota-respecting cover.
    """
    state = GreedyState.fresh(system)
    while state.uncovered:
        ids = best_coverage_tuple(system, state, spec.per_round, tuple_budget)
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
    working = set(state.uncovered)
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
            new = len(system.frozen_sets[i] & working)
            if new > best_new:
                best_new = new
                best_i = i
        if best_i < 0:
            break
        taken.add(best_i)
        working -= system.frozen_sets[best_i]
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
    lp = build_mkcc_lp(system, state.remaining, sorted(state.uncovered), per_round)
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
            groups, quotas, probs, _ = _solve_round_probs(
                system, state, spec.per_round, lp_solver
            )
            ids = sample_round_tuple(groups, quotas, probs, rng)
            retries = 0
            while (
                state.new_coverage(system, ids) == 0
                and retries < ZERO_PROGRESS_RESAMPLES
            ):
                ids = sample_round_tuple(groups, quotas, probs, rng)
                retries += 1
            if state.new_coverage(system, ids) == 0:
                ids = mkcc_greedy(system, state, spec.per_round)
        if state.new_coverage(system, ids) == 0:
            raise NoProgress("round subroutine could not cover a new element")
        state.commit(system, ids)
    return state.to_cover(system)
