"""The benchmark's workloads: seeded instance recipes, the algorithm calls a
pass makes on each instance, and the checks every returned cover must pass.

Instances come only from the workload seed: case i of a run with seed s is
generated with seed ``s * 1000 + i``, and the randomized algorithms get that
same number (plus one for gfsc, as in acceptance criterion 01) as their
``rng``. Algorithms are looked up on the ``faircover`` package at call time
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import faircover as fc


class CheckFailed(Exception):
    """A returned cover broke an invariant the benchmark checks."""


@dataclass
class Case:
    """One instance of a workload and what its calls need besides the system."""

    label: str
    system: fc.SetSystem
    spec: fc.FairnessSpec
    rng: int
    multicover: fc.MulticoverInstance | None = None


@dataclass(frozen=True)
class Recipe:
    label: str
    make: Callable[[], fc.SetSystem]
    spec: fc.FairnessSpec
    rng: int


def _lp(solver) -> dict:
    return {} if solver is None else {"lp_solver": solver}


# Algorithm calls by name. Each takes a Case and an lp_solver (None keeps
# the library default) and returns a Cover, or (Cover, PriceLedger).
ALGORITHMS: dict[str, Callable] = {
    "naive_fsc": lambda c, s: fc.naive_fsc(c.system, c.spec),
    "greedy_allpick": lambda c, s: fc.greedy_allpick(c.system, c.spec),
    "eff_fsc_greedy": lambda c, s: fc.eff_fsc(
        c.system, c.spec, subroutine="greedy", rng=c.rng, **_lp(s)),
    "eff_fsc_lp": lambda c, s: fc.eff_fsc(
        c.system, c.spec, subroutine="lp", rng=c.rng, **_lp(s)),
    "eff_wfsc": lambda c, s: fc.eff_wfsc(c.system, c.spec, rng=c.rng, **_lp(s)),
    "gfsc_lp_sub": lambda c, s: fc.gfsc(
        c.system, c.spec, mode="lp_sub", rng=c.rng + 1, **_lp(s)),
    "fair_multicover_greedy": lambda c, s: fc.fair_multicover_greedy(
        c.multicover, c.spec, **_lp(s)),
    "greedy_weighted_allpick": lambda c, s: fc.greedy_weighted_allpick(c.system, c.spec),
    "opt_fair_cover": lambda c, s: fc.opt_fair_cover(c.system, c.spec),
    "opt_fair_cover_weighted": lambda c, s: fc.opt_fair_cover(
        c.system, c.spec, weighted=True),
}

SPEC2 = fc.count_parity(2)
SPEC3 = fc.count_parity(3)
THIRDS = fc.FairnessSpec(["1/3", "2/3"])


def _synthetic(n, m_per_color, k, p, seed, weights=None):
    return lambda: fc.gen_synthetic(
        n, m_per_color, k, coverage_dist=("uniform", p), weight_dist=weights, seed=seed
    )


def _thirds(n, seed, p):
    """Criterion 01's (1/3, 2/3) instance: four sets of color 0, eight of
    color 1, so both colors run out together."""
    def make():
        base = fc.gen_synthetic(n, 4, 3, coverage_dist=("uniform", p), seed=seed)
        return fc.SetSystem(base.n, base.sets, [0] * 4 + [1] * 8, base.weights)
    return make


def c01_recipes(seed: int, smoke: bool) -> list[Recipe]:
    # Criterion 01 cycles four instance kinds by index: (1/3, 2/3) shares,
    # k = 3, weighted k = 2, k = 3. Every size gets the whole cycle twice, so
    # each seed runs the same mix of kinds and sizes.
    sizes = (8,) if smoke else (10, 15, 20, 25) * 2
    out = []
    for n in sizes:
        for slot in range(4):
            i = len(out)
            s = seed * 1000 + i
            if slot == 0:
                out.append(Recipe(f"n{n}-thirds-{i}", _thirds(n, s, 0.35), THIRDS, s))
            elif slot == 2:
                make = _synthetic(n, 8, 2, 0.35, s, ("uniform", 0.5, 3.0))
                out.append(Recipe(f"n{n}-weighted-{i}", make, SPEC2, s))
            else:
                out.append(Recipe(f"n{n}-k3-{i}", _synthetic(n, 6, 3, 0.35, s), SPEC3, s))
    return out


def oracle_recipes(seed: int, smoke: bool) -> list[Recipe]:
    m, count = (4, 2) if smoke else (8, 80)
    return [
        Recipe(f"n{8 + i % 5}-{i}",
               _synthetic(8 + i % 5, m, 2, 0.35, seed * 1000 + i, ("uniform", 1.0, 7.9)),
               SPEC2, seed * 1000 + i)
        for i in range(count)
    ]


def fairness_check(case: Case, cover: fc.Cover) -> None:
    ratio = fc.fairness_report(case.system, case.spec, cover).fairness_ratio
    if ratio != Fraction(1):
        raise CheckFailed(f"{case.label}: fairness ratio {ratio}")
    if not cover.covers_universe(case.system):
        raise CheckFailed(f"{case.label}: cover misses elements")


def multicover_check(case: Case, out) -> None:
    cover, ledger = out
    fairness_check(case, cover)
    counts = [0] * case.system.n
    for i in cover.selected:
        for e in case.system.sets[i]:
            counts[e] += 1
    if any(c < r for c, r in zip(counts, case.multicover.requirements)):
        raise CheckFailed(f"{case.label}: a multicover demand is unmet")
    fc.audit_price_identity(cover, ledger, case.spec)


# Proven size factors against the unweighted optimum, in units of ln n + 1;
# naive_fsc's is the number of colors. greedy_weighted_allpick's weight
# factor is delta * (ln n + 1).
SIZE_FACTORS = {"greedy_allpick": 1.0, "eff_fsc_greedy": 2.0}


def oracle_ratios(case: Case, outs: dict) -> tuple[dict[str, float], dict[str, str]]:
    """Each greedy cover's ratio to the optimum, and the algorithms whose
    ratio breaks its proven bound. Empty when an oracle gave no cover; that
    call is counted as failed already."""
    opt, opt_w = outs.get("opt_fair_cover"), outs.get("opt_fair_cover_weighted")
    if not isinstance(opt, fc.Cover) or not isinstance(opt_w, fc.Cover):
        return {}, {}
    log_bound = math.log(case.system.n) + 1
    factors = dict(SIZE_FACTORS, naive_fsc=float(case.spec.num_colors))
    ratios: dict[str, float] = {}
    failed: dict[str, str] = {}
    for alg, cover in outs.items():
        if not isinstance(cover, fc.Cover) or alg.startswith("opt_"):
            continue
        if alg == "greedy_weighted_allpick":
            ratio = cover.total_weight / opt_w.total_weight
            bound = fc.delta(case.system) * log_bound
        else:
            ratio = cover.size / opt.size
            bound = factors[alg] * log_bound
        if ratio > bound + 1e-9:
            failed[alg] = "CheckFailed"
        ratios[alg] = ratio
    return ratios, failed


@dataclass(frozen=True)
class Workload:
    name: str
    recipes: Callable[[int, bool], list[Recipe]]
    algorithms: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "c01-mix",
            c01_recipes,
            ("naive_fsc", "greedy_allpick", "eff_fsc_greedy", "eff_fsc_lp",
             "eff_wfsc", "gfsc_lp_sub", "fair_multicover_greedy"),
        ),
        Workload(
            "oracle-ratio",
            oracle_recipes,
            ("opt_fair_cover", "opt_fair_cover_weighted", "greedy_allpick",
             "greedy_weighted_allpick", "eff_fsc_greedy", "naive_fsc"),
        ),
    )
}


def make_cases(workload: Workload, systems: list[fc.SetSystem], recipes: list[Recipe]) -> list[Case]:
    cases = []
    for recipe, system in zip(recipes, systems):
        case = Case(recipe.label, system, recipe.spec, recipe.rng)
        if "fair_multicover_greedy" in workload.algorithms:
            reqs = [min(2, len(system.element_sets[j])) for j in range(system.n)]
            case.multicover = fc.MulticoverInstance(system, reqs)
        cases.append(case)
    return cases


def check_case(workload: Workload, case: Case, outs: dict) -> tuple[dict[str, str], dict[str, float]]:
    """Check every output of one case. Returns the exception class name per
    failed algorithm and, on oracle-ratio, each algorithm's ratio to OPT.
    Outputs that are exceptions already count as failures and are skipped."""
    failed: dict[str, str] = {}
    for alg, out in outs.items():
        if isinstance(out, BaseException):
            continue
        try:
            if out is None:
                raise CheckFailed(f"{case.label}: {alg} returned no cover")
            if alg == "fair_multicover_greedy":
                multicover_check(case, out)
            else:
                fairness_check(case, out)
        except (CheckFailed, fc.FairCoverError) as exc:
            failed[alg] = type(exc).__name__
    ratios: dict[str, float] = {}
    if workload.name == "oracle-ratio":
        ratios, breaches = oracle_ratios(case, outs)
        for alg, cls in breaches.items():
            failed.setdefault(alg, cls)
    return failed, ratios
