"""Quota-respecting multicover: elements demand several covers, rounds pay for them.

An element j is alive while fewer than requirements[j] selected sets
contain it. Rounds run through the single-cover quota greedy's driver
(unweighted._run_rounds) with the alive elements in place of the uncovered
ones, so tuples score by alive elements touched. The driver's commit rule
here writes a pricing ledger: each alive element in the round's union gets
one entry of (round size) / (alive elements touched). Those prices make
two audit identities exact: entries sum to the cover size, and each
round's entries sum to the round size. A third, inequality-shaped audit
checks the harmonic price bound that exhaustive rounds prove for every
set of a color with a positive quota (audit_harmonic_bound); sampled
rounds carry no such bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import AuditFailure, InfeasibleRequirement, NoProgress
from .lp import LpSolver, solve
from .model import Cover, FairnessSpec, SetSystem, _levels, elements_of, mask_of, union_of
from .unweighted import (
    GreedyState,
    _run_rounds,
    _sampled_round,
    as_rng,
    best_coverage_tuple,
)

MODES = ("exhaustive", "mkcc_sub")
# Absolute slack the audits allow for float rounding in the ledger's sums.
AUDIT_TOL = 1e-9


@dataclass(frozen=True)
class MulticoverInstance:
    """A set system plus a per-element coverage requirement (all >= 1)."""

    base: SetSystem
    requirements: tuple[int, ...]

    def __init__(self, base: SetSystem, requirements: Sequence[int]):
        reqs = tuple(int(r) for r in requirements)
        if len(reqs) != base.n:
            raise ValueError(f"{len(reqs)} requirements for {base.n} elements")
        if any(r < 1 for r in reqs):
            raise ValueError("requirements must be at least 1")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "requirements", reqs)

    @cached_property
    def wants(self) -> tuple[int, ...]:
        """wants[k]: the mask of the elements that need more than k covers."""
        reqs = self.requirements
        return tuple(mask_of((j for j, r in enumerate(reqs) if r > k), len(reqs))
                     for k in range(max(reqs, default=0)))


@dataclass(frozen=True)
class PriceEntry:
    round_index: int
    element: int
    occurrence: int
    price: float


@dataclass(frozen=True)
class PriceLedger:
    """Audit trail of a multicover run.

    entries hold one record per (round, alive element touched); occurrence
    indices per element are contiguous 1, 2, ... up to the number of rounds
    that touched it while alive. alive_history[r] is how many elements were
    alive entering round r.
    """

    entries: tuple[PriceEntry, ...]
    alive_history: tuple[int, ...]

    def total_price(self) -> float:
        return sum(e.price for e in self.entries)

    def round_prices(self) -> dict[int, float]:
        sums: dict[int, float] = {}
        for e in self.entries:
            sums[e.round_index] = sums.get(e.round_index, 0.0) + e.price
        return sums

    def terminal_price(self) -> dict[int, float]:
        """Last (highest occurrence) price each element ever paid."""
        last: dict[int, float] = {}
        for e in self.entries:  # entries are in commit order
            last[e.element] = e.price
        return last


def fair_multicover_greedy(
    instance: MulticoverInstance,
    spec: FairnessSpec,
    mode: str = "exhaustive",
    rng: np.random.Generator | int | None = None,
    lp_solver: LpSolver = solve,
) -> tuple[Cover, PriceLedger]:
    """Cover every element at least requirements[j] times with quota rounds.

    mode='exhaustive' scores each round over all quota tuples by alive
    elements touched (with every requirement at one this reproduces the
    single-cover quota greedy exactly, prices aside). mode='mkcc_sub'
    rounds the coverage relaxation built over the alive elements, redrawing
    and finally falling back to the marginal greedy when a sample touches
    no alive element.

    An element inside q sets of a committed round advances its coverage
    count by q, but it is priced once per round: one ledger entry of
    round_size / (alive elements the round touched).

    The run's GreedyState tracks alive elements in place of uncovered ones;
    the commit rule prices the round, adds it to the coverage levels
    (model._levels) and resets the state to the elements still alive: those
    in some instance.wants[k] but not in levels[k].
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == "mkcc_sub":  # exhaustive rounds draw nothing, so build no Generator
        rng = as_rng(rng)
    system = instance.base
    for j in range(system.n):
        have = len(system.element_sets[j])
        if instance.requirements[j] > have:
            raise InfeasibleRequirement(j, instance.requirements[j], have)

    wants = instance.wants
    levels = [0] * len(wants)
    round_size = sum(spec.per_round)
    entries: list[PriceEntry] = []
    occurrences = [0] * system.n
    alive_history: list[int] = []

    def pick(state: GreedyState) -> tuple[int, ...] | None:
        if mode == "exhaustive":
            return best_coverage_tuple(system, state, spec.per_round)
        return _sampled_round(system, state, spec.per_round, rng, lp_solver)

    def commit(state: GreedyState, system: SetSystem, ids: Sequence[int]) -> None:
        alive = state.uncovered
        touched = elements_of(union_of(system.masks, ids) & alive)
        alive_history.append(alive.bit_count())
        price = round_size / len(touched)
        for j in touched:
            occurrences[j] += 1
            entries.append(PriceEntry(len(state.rounds), j, occurrences[j], price))
        levels[:] = _levels(system.masks, ids, levels)
        state.commit(system, ids)
        state.uncovered = 0
        for want, level in zip(wants, levels):
            state.uncovered |= want & ~level

    # Every requirement is at least one, so every element starts alive.
    stuck = NoProgress("no quota tuple touches an alive element")
    cover = _run_rounds(system, pick, stuck, commit)
    return cover, PriceLedger(tuple(entries), tuple(alive_history))


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    total_price: float
    cover_size: int
    max_round_deviation: float


def audit_price_identity(
    cover: Cover, ledger: PriceLedger, spec: FairnessSpec
) -> AuditReport:
    """Assert the exact pricing identities.

    All entries together must sum to the cover size, and each round's
    entries must sum to the round size sum(per_round). Raises AuditFailure
    naming the first offending round."""
    round_size = float(sum(spec.per_round))
    sums = ledger.round_prices()
    max_dev = 0.0
    for r in range(len(cover.rounds)):
        dev = abs(sums.get(r, 0.0) - round_size)
        max_dev = max(max_dev, dev)
        if dev > AUDIT_TOL:
            raise AuditFailure(
                f"round {r} prices sum to {sums.get(r, 0.0)!r}, expected {round_size}"
            )
    total = ledger.total_price()
    if abs(total - cover.size) > AUDIT_TOL * max(1, cover.size):
        raise AuditFailure(
            f"ledger total {total!r} differs from cover size {cover.size}"
        )
    return AuditReport(True, total, cover.size, max_dev)


def audit_harmonic_bound(
    instance: MulticoverInstance, cover: Cover, ledger: PriceLedger, spec: FairnessSpec
) -> float:
    """Assert the price bound of an exhaustive run for every set.

    Take a set S of a color with a positive quota, and the elements of S
    that reach their demand no later than the round committing S (all of
    them when S is never picked). Their terminal prices sum to at most
    p * H_|S|, p being sum(per_round) and |S| the number of S's elements
    in [0, n). While S is unpicked, a quota tuple holding S is on offer,
    so an exhaustive round touches at least as many alive elements as S
    still holds, and the j-th of S's elements to reach its demand pays at
    most p / (|S| - j + 1). This holds for mode='exhaustive' only: a
    sampled round may touch fewer, so sampled runs carry no such bound.

    Returns the largest ratio of such a price sum to its bound; raises
    AuditFailure past 1."""
    system = instance.base
    p = sum(spec.per_round)
    picked = {i: r for r, ids in enumerate(cover.rounds) for i in ids}
    last = {e.element: e for e in ledger.entries}  # entries are in commit order
    worst = 0.0
    for i, s in enumerate(system.sets):
        h = system.colors[i]
        if h >= len(spec.per_round) or spec.per_round[h] == 0:
            continue
        size = sum(0 <= e < system.n for e in s)
        bound = p * sum(1.0 / j for j in range(1, size + 1))
        done = picked.get(i, len(cover.rounds))
        total = sum(
            last[e].price for e in s if e in last and last[e].round_index <= done
        )
        if total > bound + AUDIT_TOL:
            raise AuditFailure(f"set {i} terminal prices {total!r} exceed bound {bound!r}")
        if bound > 0:
            worst = max(worst, total / bound)
    return worst
