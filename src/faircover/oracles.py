"""Exhaustive reference solvers: exact, deterministic, loud when oversized.

Each oracle returns the lexicographically smallest optimum, so repeated
runs agree bit for bit. Sets are scored through their int bitmasks
(SetSystem.masks). opt_set_cover, opt_fair_cover and opt_fair_multicover
first OR every mask once, so a universe with an element in no set is
answered before any scan.

The quota oracles share the exhaustive rounds' rules in unweighted: at
each round count t they take the split of _split, so one pool check and
one TUPLE_BUDGET over the tables' whole product bound them and the rounds,
and a refusal comes before any row is built; _tuples_of is the one loop
over a product of tables; the weighted scan asks model._weight_gate once
(_scan_weights), which refuses a NaN or infinite weight, each row carries
its combination's weight and the completions come lightest first
(_lightest_first), as in the rounds, and it skips by the one margin,
_SKIP_MARGIN, only when every weight is positive.

The largest table at t, of C combinations, holds the completions; the
product of the other tables, P selections, holds the prefixes. Work per t:

- opt_fair_cover: at most P * C mask tests and one id tuple per prefix.
  Colors own disjoint ids, so a prefix's first full completion in
  combinations() order has the least ids of its covers; the scan of that
  prefix stops there.
- opt_fair_cover(weighted=True): each color's table of c ids, while c is
  at most half its pool, grows one id at a time from its table at t - 1,
  with one OR and one add per row (larger ones are built directly), so
  each size is built once per call. One sort of the C completions by
  weight, then each prefix scans them lightest first. At most P * C mask
  tests; full covers are weighed in ascending id order. With positive
  weights, a prefix's scan stops once prefix plus completion weight
  passes the best cover's by the margin, so only full covers within it
  are weighed; with other weights, every full cover is weighed.
- opt_fair_multicover: at most P * C demand tests, each adding one
  completion to coverage levels computed once per prefix, and one id
  tuple per prefix: its first completion meeting every demand.
- opt_mkcc scores the P * C tuples of its round through _best_candidate,
  or with weighted_ratio through _lightest_candidate, the rounds' scans.

opt_set_cover keeps its own scan by selection size, which stops at the
first cover.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations
from typing import Sequence

from .errors import AllTuplesZeroCoverage, BudgetExceeded, NoProgress
from .model import Cover, FairnessSpec, SetSystem, _add_up, _levels, mask_of, union_of
from .unweighted import (_SKIP_MARGIN, _best_candidate, _ids, _lightest_candidate,
                         _lightest_first, _scan_weights, _split, _tuples_of)

MAX_SETS_EXACT = 22
MAX_SETS_EXACT_MULTI = 20


def opt_set_cover(system: SetSystem) -> Cover:
    """Smallest cover, quotas ignored; ties go to the lexicographically
    smallest selection. Refuses systems with more than MAX_SETS_EXACT sets,
    and raises NoProgress, as greedy_set_cover does, when some element is
    in no set."""
    mu = system.num_sets
    if mu > MAX_SETS_EXACT:
        raise BudgetExceeded(f"{mu} sets exceeds exact budget {MAX_SETS_EXACT}")
    masks = system.masks
    full = (1 << system.n) - 1
    if union_of(masks, range(mu)) != full:
        raise NoProgress("uncovered elements remain but no set touches them")
    for size in range(mu):
        for combo in combinations(range(mu), size):
            acc = 0
            for i in combo:
                acc |= masks[i]
            if acc == full:
                return Cover.from_selection(system, combo)
    return Cover.from_selection(system, tuple(range(mu)))


def _fair_sizes(system: SetSystem, spec: FairnessSpec) -> range:
    """The round counts t for which every color h of positive share owns
    t * per_round[h] sets; since the quotas sum to p, t * p sets exist too.
    The scan starts at t = 1, or at t = 0 for an empty universe, which the
    empty selection covers. There is no t when some element is in no set:
    one OR of every mask answers before any table is built."""
    if union_of(system.masks, range(system.num_sets)) != (1 << system.n) - 1:
        return range(0)
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
    feasible t, since more but lighter sets can beat a small cover, and
    ValueError is raised for a NaN or infinite weight (model._weight_gate).
    When every weight is positive (model._weight_gate again), the scan
    stops at the first t whose lower bound (the t * p_h lightest sets of
    each color h) passes the best weight by more than _SKIP_MARGIN, which
    keeps the (weight, size, selection) tie-break intact under any
    summation order.
    Each t is scanned as _least_cover or _lightest_cover says.
    """
    mu = system.num_sets
    if mu > MAX_SETS_EXACT:
        raise BudgetExceeded(f"{mu} sets exceeds exact budget {MAX_SETS_EXACT}")
    full = (1 << system.n) - 1
    best: tuple | None = None  # (weight, size, selection) for weighted mode
    # weights: the one weight sequence of a weighted run; the rows carry
    # it and every cover is weighed by it. The bound grows with t only when
    # every weight is positive, so other weights scan every t.
    # lightest[h][c]: the weight of the c lightest sets of color h.
    # latest: each color's last rows, which the next t grows from.
    weights = lightest = latest = None
    positive = False
    if weighted:
        weights, positive = _scan_weights(system)
        latest = [None] * len(system.sets_by_color)
        if positive:
            lightest = [
                list(accumulate(sorted(weights[i] for i in g), initial=0.0))
                for g in system.sets_by_color
            ]

    for t in _fair_sizes(system, spec):
        if lightest is not None and best is not None:
            bound = sum(lightest[h][t * p] for h, p in enumerate(spec.per_round) if p > 0)
            if bound > best[0] * _SKIP_MARGIN:
                break
        counts = [t * p for p in spec.per_round]
        if not weighted:
            found = _least_cover(_split(system.masks, system.sets_by_color, counts), full)
            if found is not None:
                return Cover.from_selection(system, found)
            continue
        split = _split(system.masks, system.sets_by_color, counts, weights, latest)
        best = _lightest_cover(split, full, weights, positive, best)
    if best is not None:
        return Cover.from_selection(system, best[2])
    return None


def _least_cover(split, full: int) -> tuple[int, ...] | None:
    """The smallest ascending ids of a full cover made of one prefix and
    one completion, or None when there is none.

    Colors own disjoint ids, so of two completions of one prefix, the one
    earlier in combinations() order gives the smaller ascending ids. Each
    prefix's scan therefore stops at its first full completion, whose ids
    alone are built: at most one id tuple per prefix."""
    prefix_tables, completions = split
    reach = 0  # the elements some completion covers
    for part in completions:
        reach |= part[1]
    found = None
    for prefix, pm, _ in _tuples_of(prefix_tables):
        if pm | reach != full:
            continue
        for part in completions:
            if pm | part[1] == full:
                sel = _ids(prefix + (part,))
                if found is None or sel < found:
                    found = sel
                break
    return found


def _lightest_cover(split, full: int, weights: Sequence[float], positive: bool, best):
    """best, or a smaller (weight, size, ids) key of a full cover made of
    one prefix and one completion, its weights summed in ascending id
    order.

    The completions are sorted by weight (_lightest_first, as in the
    rounds), and each prefix scans them lightest first. When every weight
    is positive, the scan of a prefix stops at the first cover whose
    weight, summed row by row, passes best's by more than _SKIP_MARGIN;
    best includes the prefix's first full completion once it is weighed.
    Every cover kept is weighed, so ties break as in a scan of every
    selection."""
    prefix_tables, completions = _lightest_first(split)
    reach = 0
    for part in completions:
        reach |= part[1]
    cut = math.inf if best is None or not positive else best[0] * _SKIP_MARGIN
    for prefix, pm, wp in _tuples_of(prefix_tables):
        if pm | reach != full:
            continue
        for part in completions:
            if wp + part[2] > cut:
                break
            if pm | part[1] != full:
                continue
            sel = _ids(prefix + (part,))
            key = (_add_up(map(weights.__getitem__, sel)), len(sel), sel)
            if best is None or key < best:
                best = key
                if positive:
                    cut = key[0] * _SKIP_MARGIN
    return best


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
    ties prefer the lexicographically smallest tuple. With weighted_ratio,
    a NaN or infinite weight raises ValueError (model._weight_gate).
    """
    unc = mask_of(uncovered, system.n)
    if weighted_ratio:
        weights, positive = _scan_weights(system)
        split = _split(system.masks, remaining_sets, per_round, weights)
        ids = _lightest_candidate(split, unc, weights, positive)
    else:
        ids = _best_candidate(_split(system.masks, remaining_sets, per_round), unc)
    if ids is None:
        raise AllTuplesZeroCoverage("no tuple with positive coverage exists")
    new = (union_of(system.masks, ids) & unc).bit_count()
    return ids, (_add_up(map(weights.__getitem__, ids)) / new if weighted_ratio
                 else float(new))


def opt_fair_multicover(instance, spec: FairnessSpec) -> Cover | None:
    """Exact minimum-size quota-respecting selection meeting every element's
    coverage requirement, or None if impossible. Capped at
    MAX_SETS_EXACT_MULTI sets."""
    system: SetSystem = instance.base
    mu = system.num_sets
    if mu > MAX_SETS_EXACT_MULTI:
        raise BudgetExceeded(
            f"{mu} sets exceeds exact budget {MAX_SETS_EXACT_MULTI}"
        )
    wants = instance.wants
    masks = system.masks
    for t in _fair_sizes(system, spec):
        split = _split(masks, system.sets_by_color, [t * p for p in spec.per_round])
        prefix_tables, completions = split
        found: tuple[int, ...] | None = None
        # As in _least_cover, each prefix's first completion meeting every
        # demand has the least ids of its selections that do.
        for prefix, _, _ in _tuples_of(prefix_tables):
            base = _levels(masks, [i for part in prefix for i in part[0]], [0] * len(wants))
            for part in completions:
                got = _levels(masks, part[0], base)
                if all(g & w == w for g, w in zip(got, wants)):
                    sel = _ids(prefix + (part,))
                    if found is None or sel < found:
                        found = sel
                    break
        if found is not None:
            return Cover.from_selection(system, found)
    return None
