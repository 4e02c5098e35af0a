"""Exhaustive reference solvers. Slow on purpose, loud when oversized.

Each oracle enumerates candidates in a fixed order and returns the
lexicographically smallest optimum, so repeated runs agree bit for bit.
Sets are scored through their int bitmasks (SetSystem.masks), and quota
selections come from the algorithms' tuple enumerator under the same
TUPLE_BUDGET. A selection is scored on its OR mask (and, in the weighted
cover oracle, an unsorted weight filter) first; its sorted id tuple is
built only when it can still tie or beat the best: a full cover, a met
multicover demand, or a round covering at least as much as the best so
far (a ratio round builds ids for every tuple covering something).
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations
from typing import Sequence

from .errors import AllTuplesZeroCoverage, BudgetExceeded
from .model import Cover, FairnessSpec, SetSystem, mask_of, union_of
from .unweighted import _best_candidate, _ids, _quota_tuples

MAX_SETS_EXACT = 22
MAX_SETS_EXACT_MULTI = 20


def opt_set_cover(system: SetSystem) -> Cover:
    """Smallest cover, quotas ignored; ties go to the lexicographically
    smallest selection. Refuses systems with more than MAX_SETS_EXACT sets."""
    mu = system.num_sets
    if mu > MAX_SETS_EXACT:
        raise BudgetExceeded(f"{mu} sets exceeds exact budget {MAX_SETS_EXACT}")
    masks = system.masks
    full = (1 << system.n) - 1
    for size in range(mu + 1):
        for combo in combinations(range(mu), size):
            acc = 0
            for i in combo:
                acc |= masks[i]
            if acc == full:
                return Cover.from_selection(system, combo)
    raise BudgetExceeded("universe is not coverable; validate the instance first")


def _fair_sizes(system: SetSystem, spec: FairnessSpec) -> range:
    """The round counts t for which every color h of positive share owns
    t * per_round[h] sets; since the quotas sum to p, t * p sets exist too.
    The scan starts at t = 1, or at t = 0 for an empty universe, which the
    empty selection covers."""
    sizes = system.group_sizes
    return range(0 if system.n == 0 else 1, 1 + min(
        (sizes[h] if h < len(sizes) else 0) // p for h, p in enumerate(spec.per_round) if p > 0
    ))


def opt_fair_cover(
    system: SetSystem, spec: FairnessSpec, weighted: bool = False
) -> Cover | None:
    """Exact optimum among covers meeting every quota, or None when no
    quota-respecting cover exists.

    Unweighted: minimum cardinality (fair covers only come in multiples of
    spec.p sets, so the scan walks t = 1, 2, ... rounds and stops at the
    first t admitting a cover). Weighted: minimum total weight over all
    feasible t, since more but lighter sets can beat a small cover. When
    every weight is positive and finite, the scan stops at the first t
    whose lower bound (the t * p_h lightest sets of each color h) exceeds
    the best weight by more than a relative 1e-9; that margin keeps the
    (weight, size, selection) tie-break intact under any summation order.
    """
    mu = system.num_sets
    if mu > MAX_SETS_EXACT:
        raise BudgetExceeded(f"{mu} sets exceeds exact budget {MAX_SETS_EXACT}")
    full = (1 << system.n) - 1
    best: tuple | None = None  # (weight, size, selection) for weighted mode
    # lightest[h][c]: the weight of the c lightest sets of color h. The
    # bound grows with t only when every weight is positive (NaN fails
    # the test too), so other weights scan every t.
    lightest = None
    if weighted and all(0.0 < system.weight(i) < math.inf for i in range(mu)):
        lightest = [
            list(accumulate(sorted(system.weight(i) for i in g), initial=0.0))
            for g in system.sets_by_color
        ]

    for t in _fair_sizes(system, spec):
        if lightest is not None and best is not None:
            bound = sum(lightest[h][t * p] for h, p in enumerate(spec.per_round) if p > 0)
            if bound > best[0] * (1 + 1e-9):
                break
        found: tuple[int, ...] | None = None
        counts = [t * p for p in spec.per_round]
        for parts, acc in _quota_tuples(system.masks, system.sets_by_color, counts):
            if acc != full:
                continue
            if not weighted:
                sel = _ids(parts)
                if found is None or sel < found:
                    found = sel
                continue
            # With positive finite weights, a sum in any order is within a
            # relative few 1e-15 of the sorted-order one, so a candidate past
            # the margin can neither tie nor beat the best key.
            if lightest is not None and best is not None and sum(
                [system.weight(i) for combo, _ in parts for i in combo]
            ) > best[0] * (1 + 1e-9):
                continue
            sel = _ids(parts)
            key = (sum(system.weight(i) for i in sel), len(sel), sel)
            if best is None or key < best:
                best = key
        if not weighted and found is not None:
            return Cover.from_selection(system, found)
    if weighted and best is not None:
        return Cover.from_selection(system, best[2])
    return None


def opt_mkcc(
    system: SetSystem,
    uncovered: Sequence[int],
    remaining_sets: Sequence[Sequence[int]],
    per_round: Sequence[int],
    weighted_ratio: bool = False,
) -> tuple[tuple[int, ...], float]:
    """Best single quota round by exhaustive tuple enumeration.

    Default objective: maximize newly covered elements. With weighted_ratio,
    minimize total weight per newly covered element. Either way tuples that
    cover nothing are skipped, and AllTuplesZeroCoverage is raised when no
    tuple covers a new element. Returns (ids ascending, objective value);
    ties prefer the lexicographically smallest tuple.
    """
    unc = mask_of(uncovered, system.n)
    weight = system.weight if weighted_ratio else None
    ids = _best_candidate(_quota_tuples(system.masks, remaining_sets, per_round), unc, weight)
    if ids is None:
        raise AllTuplesZeroCoverage("no tuple with positive coverage exists")
    new = (union_of(system.masks, ids) & unc).bit_count()
    return ids, (sum(map(system.weight, ids)) / new if weighted_ratio else float(new))


def opt_fair_multicover(instance, spec: FairnessSpec) -> Cover | None:
    """Exact minimum-size quota-respecting selection meeting every element's
    coverage requirement, or None if impossible. Capped at
    MAX_SETS_EXACT_MULTI sets."""
    system: SetSystem = instance.base
    reqs = instance.requirements
    mu = system.num_sets
    if mu > MAX_SETS_EXACT_MULTI:
        raise BudgetExceeded(
            f"{mu} sets exceeds exact budget {MAX_SETS_EXACT_MULTI}"
        )
    # wants[k]: the elements that need more than k covers.
    wants = [
        mask_of((j for j in range(system.n) if reqs[j] > k), system.n)
        for k in range(max(reqs, default=0))
    ]
    masks = system.masks
    for t in _fair_sizes(system, spec):
        found: tuple[int, ...] | None = None
        counts = [t * p for p in spec.per_round]
        for parts, _ in _quota_tuples(masks, system.sets_by_color, counts):
            # got[k]: the elements the selection covers more than k times,
            # whatever order its sets are read in.
            got = [0] * len(wants)
            for combo, _ in parts:
                for i in combo:
                    for k in range(len(got) - 1, 0, -1):
                        got[k] |= got[k - 1] & masks[i]
                    got[0] |= masks[i]
            if all(g & w == w for g, w in zip(got, wants)):
                sel = _ids(parts)
                if found is None or sel < found:
                    found = sel
        if found is not None:
            return Cover.from_selection(system, found)
    return None
