"""Arbitrary rational quotas and tolerance-relaxed fairness.

The quota machinery downstream already handles any FairnessSpec, so the
drivers here are thin: they validate the shares against the instance, pick
the requested engine, and in the relaxed case audit the result against the
tolerance band instead of demanding exact shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PCapExceeded
from .lp import LpSolver, solve
from .model import Cover, FairnessSpec, SetSystem, share_counts
from .unweighted import eff_fsc, greedy_allpick
from .weighted import eff_wfsc, greedy_weighted_allpick

MODES = ("exhaustive", "greedy_sub", "lp_sub")


def _check_p_cap(system: SetSystem, spec: FairnessSpec) -> None:
    # A round consumes p distinct sets, so p beyond the family size can
    # never finish even one round.
    if spec.p > system.num_sets:
        raise PCapExceeded(
            f"round size {spec.p} exceeds the {system.num_sets} available sets"
        )


def approx_factor(mode: str, n: int) -> float:
    """Size guarantee multiplier of each engine relative to the optimal
    quota-respecting cover."""
    base = math.log(n) + 1.0 if n > 0 else 1.0
    if mode == "exhaustive":
        return base
    if mode == "greedy_sub":
        return 2.0 * base
    if mode == "lp_sub":
        return base * math.e / (math.e - 1.0)
    raise ValueError(f"unknown mode {mode!r}")


def gfsc(
    system: SetSystem,
    spec: FairnessSpec,
    mode: str = "exhaustive",
    rng: np.random.Generator | int | None = None,
    lp_solver: LpSolver = solve,
) -> Cover:
    """Cover with arbitrary rational group shares.

    Every round picks spec.per_round[h] sets of color h, so group counts
    land exactly on fractions[h] * |cover|. mode selects the engine:
    'exhaustive' enumerates round tuples, 'greedy_sub' and 'lp_sub' use the
    fast per-round subroutines. With uniform shares this is identical,
    sample for sample, to the plain quota algorithms."""
    _check_p_cap(system, spec)
    if mode == "exhaustive":
        return greedy_allpick(system, spec)
    if mode == "greedy_sub":
        return eff_fsc(system, spec, subroutine="greedy", rng=rng, lp_solver=lp_solver)
    if mode == "lp_sub":
        return eff_fsc(system, spec, subroutine="lp", rng=rng, lp_solver=lp_solver)
    raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


def gfwsc(
    system: SetSystem,
    spec: FairnessSpec,
    mode: str = "exhaustive",
    rng: np.random.Generator | int | None = None,
    lp_solver: LpSolver = solve,
) -> Cover:
    """Weighted cover with arbitrary rational group shares.

    'exhaustive' runs the tuple-enumerating weight greedy; 'lp_sub' runs
    the coverage-target sweep."""
    _check_p_cap(system, spec)
    if mode == "exhaustive":
        return greedy_weighted_allpick(system, spec)
    if mode == "lp_sub":
        return eff_wfsc(system, spec, rng=rng, lp_solver=lp_solver)
    raise ValueError(f"unknown mode {mode!r}, expected 'exhaustive' or 'lp_sub'")


@dataclass(frozen=True)
class EpsilonSpec:
    """Quota targets plus a symmetric relative tolerance in (0, 1)."""

    base: FairnessSpec
    epsilon: Fraction

    def __init__(self, base: FairnessSpec, epsilon: Fraction | float | str):
        eps = Fraction(epsilon).limit_denominator(10**9) if isinstance(
            epsilon, float
        ) else Fraction(epsilon)
        if not (0 < eps < 1):
            raise ValueError(f"epsilon must lie strictly inside (0, 1), got {eps}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "epsilon", eps)


@dataclass(frozen=True)
class GroupBandCheck:
    count: int
    lower: Fraction
    upper: Fraction

    @property
    def ok(self) -> bool:
        return self.lower <= self.count <= self.upper


@dataclass(frozen=True)
class EpsilonAudit:
    """Band check per group: (1 - eps) f_h |X| <= count_h <= (1 + eps) f_h |X|,
    evaluated in exact rational arithmetic. bound_factor reports the size
    guarantee the tolerance buys: (1 + eps) times the exact-share engine's
    factor."""

    per_group: tuple[GroupBandCheck, ...]
    epsilon: Fraction
    bound_factor: float

    @property
    def ok(self) -> bool:
        return all(g.ok for g in self.per_group)


def epsilon_audit(
    cover: Cover,
    eps_spec: EpsilonSpec,
    mode: str = "exhaustive",
    n: int | None = None,
) -> EpsilonAudit:
    """Check a cover against the tolerance band around each group's share.

    A color the base spec does not name has share zero, so its band is
    [0, 0] and it fails when the cover holds a set of it; a color the
    cover's system lacks holds no sets."""
    eps = eps_spec.epsilon
    size = cover.size
    checks = [
        GroupBandCheck(c, (1 - eps) * f * size, (1 + eps) * f * size)
        for f, c in share_counts(eps_spec.base, cover)
    ]
    factor = float(1 + eps) * approx_factor(mode, n if n is not None else 1)
    return EpsilonAudit(tuple(checks), eps, factor)


def epsilon_gfsc(
    system: SetSystem,
    eps_spec: EpsilonSpec,
    mode: str = "exhaustive",
    rng: np.random.Generator | int | None = None,
    lp_solver: LpSolver = solve,
) -> tuple[Cover, EpsilonAudit]:
    """Cover within a tolerance band of the group shares.

    Implemented by running the exact-share engine on the base spec (an
    exact cover trivially sits inside every band) and auditing the result.
    Any engine approximating the exact problem within factor alpha solves
    the banded problem within (1 + eps) * alpha, which the audit reports."""
    cover = gfsc(system, eps_spec.base, mode=mode, rng=rng, lp_solver=lp_solver)
    audit = epsilon_audit(cover, eps_spec, mode=mode, n=system.n)
    return cover, audit
