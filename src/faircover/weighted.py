"""Weighted variants: cheapest-coverage greedy and LP rounding with a
coverage-target sweep.

The randomized round here differs from the unweighted one: instead of a
single coverage-maximizing relaxation, every coverage target tau from one
to the number of still-uncovered elements gets its own weight-minimizing
relaxation, each is rounded by rejection sampling until the sample covers
at least half of (1 - 1/e) * tau new elements, and the round with the best
cost per newly covered element wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AllTauInfeasible,
    AllTuplesZeroCoverage,
    NoProgress,
    NumericalFailure,
    ResampleCapExceeded,
)
from .lp import LpSolver, build_weighted_mkcc_lp, round_laws, solve
from .model import Cover, FairnessSpec, SetSystem, elements_of
from .unweighted import (
    GreedyState,
    _draw,
    _lightest_candidate,
    _pad_to_quotas,
    _run_rounds,
    _scan_weights,
    _split,
    _table,
    as_rng,
    sample_round_tuple,  # the sweep samples through _draw; perfbench's tests read this name
)

# Fraction of tau a sampled round must newly cover to be accepted.
ACCEPT_FACTOR = 0.5 * (1.0 - 1.0 / math.e)


def accept_threshold(tau: int) -> int:
    """Minimum new coverage an accepted sample must reach for target tau."""
    return math.ceil(ACCEPT_FACTOR * tau)


def resample_cap(n: int) -> int:
    """Attempt budget per target: four times the expected number of draws
    until acceptance (success probability is at least (1 - 1/e) / (2n))."""
    return math.ceil(8 * n / (1.0 - 1.0 / math.e))


@dataclass(frozen=True)
class TauCandidate:
    """One accepted round from the sweep.

    lp_objective is the relaxation's optimal weight for this target; ratio
    divides it by the sample's realized new coverage, which is the sweep's
    selection key (the sampled tuple's actual weight plays no part in it).
    """

    tau: int
    lp_objective: float
    ids: tuple[int, ...]
    covered_new: int
    ratio: float


def naive_wfsc(system: SetSystem, spec: FairnessSpec) -> Cover:
    """Weight-greedy cover, then cheapest per-color padding to the quotas.

    The greedy phase picks the set minimizing weight per newly covered
    element; padding then fills each group's quota with its cheapest
    unpicked sets. Guarantee: k * delta * (ln n + 1) times the optimal
    quota-respecting weight, delta being the weight spread. Raises
    ZeroFractionViolated as naive_fsc does, and ValueError for a NaN or
    infinite weight (model._weight_gate)."""
    weights, positive = _scan_weights(system)
    sets = ([], _table(system.masks, range(system.num_sets), 1, weights))

    def pick(state: GreedyState) -> tuple[int, ...] | None:
        return _lightest_candidate(sets, state.uncovered, weights, positive)

    stuck = AllTuplesZeroCoverage("uncovered elements remain but no set touches them")
    cover = _run_rounds(system, pick, stuck)
    return _pad_to_quotas(system, spec, cover, key=lambda i: (system.weight(i), i))


def greedy_weighted_allpick(system: SetSystem, spec: FairnessSpec) -> Cover:
    """Quota-respecting greedy minimizing weight per newly covered element.

    Rounds enumerate every quota tuple, skip those covering nothing new,
    and commit the cheapest per new element (ties to the lexicographically
    smallest tuple). Guarantee: delta * (ln n + 1) times the optimal
    quota-respecting weight. Raises ValueError for a NaN or infinite
    weight (model._weight_gate)."""
    weights, positive = _scan_weights(system)

    def pick(state: GreedyState) -> tuple[int, ...] | None:
        split = _split(system.masks, state.remaining, spec.per_round, weights)
        return _lightest_candidate(split, state.uncovered, weights, positive)

    stuck = AllTuplesZeroCoverage("every quota tuple covers zero new elements")
    return _run_rounds(system, pick, stuck)


def weighted_mkcc_round(
    system: SetSystem,
    state: GreedyState,
    per_round: Sequence[int],
    rng: np.random.Generator | int | None = None,
    lp_solver: LpSolver = solve,
) -> TauCandidate:
    """Sweep coverage targets and return the accepted round with the best
    relaxation weight per newly covered element.

    For each tau = 1 .. |uncovered|: solve the weight-minimizing relaxation
    pinned to cover at least tau, then draw quota tuples from the fractional
    masses through unweighted's shared draw loop (_draw, the one eff_fsc's
    LP rounds use) until one newly covers accept_threshold(tau) elements.
    The relaxation is built once per round, and each target is
    lp.retarget(tau), which only sets the rhs of its last row. lp_solver
    is called once per target, in order; the default solve resumes each
    target from the previous target's tableau with dual simplex, so on a
    degenerate relaxation it may return another optimal vertex than a
    cold solve. Targets whose relaxation is infeasible end the sweep
    (larger targets only get harder). Ties on the ratio prefer the
    smallest target.

    Raises ValueError when nothing is left to cover, InsufficientColor
    when a color cannot fill its quota (both from the relaxation builder,
    in that order), AllTauInfeasible when no target is feasible and
    ResampleCapExceeded when a target's sampler exhausts resample_cap(n)
    draws without an acceptable tuple.
    """
    rng = as_rng(rng)
    uncovered = elements_of(state.uncovered)
    cap = resample_cap(system.n)
    lp = build_weighted_mkcc_lp(system, state.remaining, uncovered, per_round, 1)
    laws_of = round_laws(state.remaining, per_round)
    best: TauCandidate | None = None
    for tau in range(1, len(uncovered) + 1):
        sol = lp_solver(lp.retarget(tau))
        if sol.status == "infeasible":
            break
        if sol.status != "optimal":
            raise NumericalFailure(f"target {tau} relaxation came back {sol.status}")
        threshold = accept_threshold(tau)
        hit = _draw(system, state, laws_of(sol.values), rng, cap, threshold)
        if hit is None:
            raise ResampleCapExceeded(
                f"target {tau}: no sample met coverage {threshold} in {cap} draws"
            )
        ids, covered = hit
        ratio = sol.objective / covered
        if best is None or ratio < best.ratio:
            best = TauCandidate(tau, sol.objective, ids, covered, ratio)
    if best is None:
        raise AllTauInfeasible("no coverage target admits a feasible relaxation")
    return best


def eff_wfsc(
    system: SetSystem,
    spec: FairnessSpec,
    rng: np.random.Generator | int | None = None,
    lp_solver: LpSolver = solve,
) -> Cover:
    """Quota-respecting weighted cover via the coverage-target sweep.

    Each committed round is the sweep winner's accepted sample, which by
    construction covers at least one new element, so the loop always makes
    progress. Expected guarantee: e/(e-1) * delta * (ln n + 1) times the
    optimal quota-respecting weight."""
    rng = as_rng(rng)
    return _run_rounds(
        system,
        lambda state: weighted_mkcc_round(system, state, spec.per_round, rng, lp_solver).ids,
        NoProgress("the sweep winner covers no new element"),
    )
