"""Core data model: set systems, group quotas, covers, fairness reports.

Elements and sets are dense integer indices. Element j lives in [0, n);
set i lives in [0, num_sets). Each set carries a group id ("color") in
[0, num_colors). Human-readable names belong to the I/O layer, never here.

All types are frozen after construction and safe to share between
concurrently running algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import NegativeFraction, SumNotOne, ZeroFractionViolated


@dataclass(frozen=True)
class SetSystem:
    """A universe of n elements plus a colored (and optionally weighted) set family.

    Sets are normalized on construction: element lists are deduplicated and
    sorted ascending. Structural mismatches (colors or weights of the wrong
    length, negative n) raise ValueError immediately; semantic problems such
    as uncovered elements are reported by validate_instance instead so that
    callers can inspect broken inputs without try/except gymnastics.
    """

    n: int
    sets: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...]
    weights: tuple[float, ...] | None = None

    def __init__(
        self,
        n: int,
        sets: Iterable[Iterable[int]],
        colors: Iterable[int],
        weights: Iterable[float] | None = None,
    ):
        norm_sets = tuple(tuple(sorted({int(e) for e in s})) for s in sets)
        norm_colors = tuple(int(c) for c in colors)
        norm_weights = None if weights is None else tuple(float(w) for w in weights)
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        if len(norm_colors) != len(norm_sets):
            raise ValueError(
                f"{len(norm_sets)} sets but {len(norm_colors)} color labels"
            )
        if any(c < 0 for c in norm_colors):
            raise ValueError("color ids must be non-negative")
        if norm_weights is not None and len(norm_weights) != len(norm_sets):
            raise ValueError(
                f"{len(norm_sets)} sets but {len(norm_weights)} weights"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sets", norm_sets)
        object.__setattr__(self, "colors", norm_colors)
        object.__setattr__(self, "weights", norm_weights)

    @property
    def num_sets(self) -> int:
        return len(self.sets)

    @property
    def num_colors(self) -> int:
        return max(self.colors) + 1 if self.colors else 0

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def weight(self, i: int) -> float:
        return 1.0 if self.weights is None else self.weights[i]

    @cached_property
    def frozen_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(s) for s in self.sets)

    @cached_property
    def sets_by_color(self) -> tuple[tuple[int, ...], ...]:
        """Set ids per color, ascending within each color."""
        buckets: list[list[int]] = [[] for _ in range(self.num_colors)]
        for i, c in enumerate(self.colors):
            buckets[c].append(i)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def element_sets(self) -> tuple[tuple[int, ...], ...]:
        """For each element, the ids of sets containing it."""
        containing: list[list[int]] = [[] for _ in range(self.n)]
        for i, s in enumerate(self.sets):
            for e in s:
                if 0 <= e < self.n:
                    containing[e].append(i)
        return tuple(tuple(c) for c in containing)

    @cached_property
    def incidence(self) -> np.ndarray:
        """Read-only n x num_sets 0/1 float matrix: entry (e, i) is 1 when
        set i contains element e (elements outside [0, n) are ignored, as
        in element_sets)."""
        inc = np.zeros((self.n, self.num_sets))
        for e, containing in enumerate(self.element_sets):
            inc[e, list(containing)] = 1.0
        inc.flags.writeable = False
        return inc

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.sets_by_color)


@dataclass(frozen=True)
class ValidationOutcome:
    """Structured result of validate_instance; ok means no violations."""

    uncovered_elements: tuple[int, ...] = ()
    out_of_range_sets: tuple[int, ...] = ()
    nonpositive_weight_sets: tuple[int, ...] = ()
    empty_colors: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not (
            self.uncovered_elements
            or self.out_of_range_sets
            or self.nonpositive_weight_sets
            or self.empty_colors
        )


def validate_instance(system: SetSystem) -> ValidationOutcome:
    """Check the semantic invariants a solvable instance must satisfy.

    Reported violations: elements covered by no set, sets referencing
    elements outside [0, n), non-positive weights, and colors in
    [0, num_colors) that own no set. Never raises.
    """
    covered = set()
    out_of_range = []
    for i, s in enumerate(system.sets):
        bad = any(e < 0 or e >= system.n for e in s)
        if bad:
            out_of_range.append(i)
        covered.update(e for e in s if 0 <= e < system.n)
    uncovered = tuple(e for e in range(system.n) if e not in covered)
    bad_weights = ()
    if system.weights is not None:
        bad_weights = tuple(
            i for i, w in enumerate(system.weights) if not (w > 0.0) or math.isinf(w)
        )
    present = set(system.colors)
    empty = tuple(c for c in range(system.num_colors) if c not in present)
    return ValidationOutcome(
        uncovered_elements=uncovered,
        out_of_range_sets=tuple(out_of_range),
        nonpositive_weight_sets=bad_weights,
        empty_colors=empty,
    )


def delta(system: SetSystem) -> float:
    """Weight spread max(w)/min(w); exactly 1.0 for unweighted systems."""
    if system.weights is None or not system.weights:
        return 1.0
    return max(system.weights) / min(system.weights)


@dataclass(frozen=True)
class FairnessSpec:
    """Target share of the final cover each group must contribute.

    Fractions are exact rationals. With p = lcm of the denominators, every
    round of a quota-respecting algorithm picks per_round[h] = fractions[h]*p
    sets of each color, so covers sized t*p hit the shares exactly.
    """

    fractions: tuple[Fraction, ...]

    def __init__(self, fractions: Iterable[Fraction | int | str | tuple[int, int]]):
        norm = []
        for f in fractions:
            if isinstance(f, tuple):
                norm.append(Fraction(*f))
            else:
                norm.append(Fraction(f))
        fracs = tuple(norm)
        if any(f < 0 for f in fracs):
            raise NegativeFraction(f"fractions must be non-negative: {fracs}")
        if sum(fracs, Fraction(0)) != 1:
            raise SumNotOne(f"fractions must sum to 1, got {sum(fracs, Fraction(0))}")
        object.__setattr__(self, "fractions", fracs)

    @property
    def num_colors(self) -> int:
        return len(self.fractions)

    @cached_property
    def p(self) -> int:
        """Smallest round size making every per-color quota integral."""
        return math.lcm(*(f.denominator for f in self.fractions))

    @cached_property
    def per_round(self) -> tuple[int, ...]:
        # Exact: p is a multiple of every denominator, and __init__ checked
        # that the fractions sum to 1, so the counts sum to p.
        return tuple(int(f * self.p) for f in self.fractions)


def fairness_spec_from_fractions(
    fractions: Iterable[Fraction | int | str | tuple[int, int]],
) -> FairnessSpec:
    return FairnessSpec(fractions)


def count_parity(k: int) -> FairnessSpec:
    """Equal share 1/k for each of k groups."""
    if k < 1:
        raise ValueError("need at least one group")
    return FairnessSpec([Fraction(1, k)] * k)


def ratio_parity(system: SetSystem) -> FairnessSpec:
    """Shares proportional to how many sets each group owns."""
    mu = system.num_sets
    if mu == 0:
        raise ValueError("cannot derive shares from an empty set family")
    return FairnessSpec([Fraction(m, mu) for m in system.group_sizes])


@dataclass(frozen=True)
class Cover:
    """An ordered, duplicate-free selection of set ids.

    rounds is the audit trail: each entry is the tuple of ids committed
    together (ascending within the tuple). group_counts[h] counts selected
    sets of color h and total_weight sums their weights (cardinality when
    the system is unweighted).
    """

    selected: tuple[int, ...]
    group_counts: tuple[int, ...]
    rounds: tuple[tuple[int, ...], ...]
    total_weight: float

    @classmethod
    def from_rounds(
        cls, system: SetSystem, rounds: Sequence[Sequence[int]]
    ) -> "Cover":
        norm_rounds = tuple(tuple(sorted(r)) for r in rounds)
        selected: list[int] = []
        seen: set[int] = set()
        for r in norm_rounds:
            for i in r:
                if i in seen:
                    raise ValueError(f"set {i} selected twice")
                seen.add(i)
                selected.append(i)
        return cls._build(system, tuple(selected), norm_rounds)

    @classmethod
    def from_selection(cls, system: SetSystem, selected: Sequence[int]) -> "Cover":
        sel = tuple(selected)
        if len(set(sel)) != len(sel):
            raise ValueError("selection contains duplicates")
        return cls._build(system, sel, ())

    @classmethod
    def _build(
        cls,
        system: SetSystem,
        selected: tuple[int, ...],
        rounds: tuple[tuple[int, ...], ...],
    ) -> "Cover":
        for i in selected:
            if i < 0 or i >= system.num_sets:
                raise ValueError(f"set id {i} out of range")
        counts = [0] * system.num_colors
        for i in selected:
            counts[system.colors[i]] += 1
        total = float(sum(system.weight(i) for i in selected))
        return cls(selected, tuple(counts), rounds, total)

    @property
    def size(self) -> int:
        return len(self.selected)

    def covered_elements(self, system: SetSystem) -> frozenset[int]:
        out: set[int] = set()
        for i in self.selected:
            out.update(system.sets[i])
        return frozenset(out)

    def covers_universe(self, system: SetSystem) -> bool:
        return len(self.covered_elements(system)) == system.n


@dataclass(frozen=True)
class FairnessReport:
    """Per-group attainment ratios and their min/max spread.

    per_group_ratio[h] is count_h / fractions[h] as an exact rational, or
    None for groups with a zero target fraction and no selected sets.
    fairness_ratio = min/max over defined groups, 1 exactly iff every group
    holds exactly its target share of the cover.
    """

    per_group_ratio: tuple[Fraction | None, ...]
    fairness_ratio: Fraction


def fairness_report(system: SetSystem, spec: FairnessSpec, cover: Cover) -> FairnessReport:
    """Score how evenly a cover honors the group quotas.

    Raises ZeroFractionViolated when a zero-fraction group contributed
    sets anyway; such covers have no meaningful ratio.
    """
    if spec.num_colors < system.num_colors:
        raise ValueError(
            f"spec has {spec.num_colors} groups, system has {system.num_colors}"
        )
    counts = list(cover.group_counts) + [0] * (spec.num_colors - len(cover.group_counts))
    ratios: list[Fraction | None] = []
    for h, f in enumerate(spec.fractions):
        if f == 0:
            if counts[h] > 0:
                raise ZeroFractionViolated(
                    f"group {h} has target fraction 0 but {counts[h]} selected set(s)"
                )
            ratios.append(None)
        else:
            ratios.append(Fraction(counts[h]) / f)
    defined = [r for r in ratios if r is not None]
    if not defined or max(defined) == 0:
        ratio = Fraction(1)
    else:
        ratio = min(defined) / max(defined)
    return FairnessReport(tuple(ratios), ratio)
