"""Core data model: set systems, group quotas, covers, fairness reports.

Elements and sets are dense integer indices. Element j lives in [0, n);
set i lives in [0, num_sets). Each set carries a group id ("color") in
[0, num_colors). Human-readable names belong to the I/O layer, never here.

All types are frozen after construction and safe to share between
concurrently running algorithms.

One rule lines a FairnessSpec's colors up with a SetSystem's: a color the
system lacks has an empty pool (check_pools), and a color the spec does not
name has share zero (share_counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import zip_longest
from operator import add
from typing import Iterable, Sequence

from .errors import InsufficientColor, NegativeFraction, SumNotOne, ZeroFractionViolated


def mask_of(elements: Iterable[int], n: int) -> int:
    """Bitmask with bit e set for every element e in [0, n); other ids are
    ignored."""
    m = 0
    for e in elements:
        if 0 <= e < n:
            m |= 1 << e
    return m


def union_of(masks: Sequence[int], ids: Iterable[int]) -> int:
    """The OR of masks[i] over ids."""
    out = 0
    for i in ids:
        out |= masks[i]
    return out


def _levels(masks: Sequence[int], ids: Iterable[int], got: list[int]) -> list[int]:
    """got with the sets of ids added: entry k holds the elements covered
    more than k times, whatever order the sets are read in."""
    got = list(got)
    for i in ids:
        for k in range(len(got) - 1, 0, -1):
            got[k] |= got[k - 1] & masks[i]
        got[0] |= masks[i]
    return got


def _add_up(values: Iterable[float]) -> float:
    """The sum of values, added left to right from 0.0. Every weight that
    can decide a tie is summed so: sum() compensates float sums from
    Python 3.12 on, which would break such ties by interpreter."""
    return reduce(add, values, 0.0)


# _BYTE_BITS[v]: the set bits of the byte value v, ascending.
_BYTE_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))


def elements_of(mask: int) -> list[int]:
    """The elements whose bits are set in mask, ascending."""
    # One pass over the mask's bytes: clearing one bit at a time would copy
    # the whole int once per element.
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * k + b for k, v in enumerate(data) if v for b in _BYTE_BITS[v]]


def _positive_weight(w: float) -> bool:
    """The one test of a usable weight: positive and finite (NaN is not)."""
    return 0.0 < w < math.inf


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
        norm_sets = tuple(tuple(sorted(set(map(int, s)))) for s in sets)
        norm_colors = tuple(map(int, colors))
        norm_weights = None if weights is None else tuple(map(float, weights))
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
    def masks(self) -> tuple[int, ...]:
        """Each set as an int bitmask: bit e is set when the set contains
        element e (elements outside [0, n) are ignored, as in element_sets)."""
        return tuple(mask_of(s, self.n) for s in self.sets)

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

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.sets_by_color)


def check_pools(pools: Sequence[Sequence[int]], counts: Sequence[int]) -> None:
    """Raise InsufficientColor for the first color h whose pool holds fewer
    than counts[h] set ids. A color past the end of pools, one the system
    does not have, has an empty pool."""
    for h, need in enumerate(counts):
        have = len(pools[h]) if h < len(pools) else 0
        if need > have:
            raise InsufficientColor(h, need, have)


def _weight_gate(system: SetSystem) -> bool:
    """Whether every weight passes _positive_weight, the one test that lets
    a weight scan (the weight-per-element rounds and the weighted oracle)
    skip a candidate or stop early; each scan asks once per run. Raises
    ValueError naming the first set whose weight is NaN or infinite: no
    scan can rank a NaN score, a tuple holding both infinities scores NaN
    (inf + -inf), and LpProblem refuses such weights too."""
    weights = system.weights or ()
    if all(map(_positive_weight, weights)):
        return True
    for i, w in enumerate(weights):
        if not math.isfinite(w):
            raise ValueError(f"set {i} has weight {'NaN' if w != w else w}")
    return False


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
    elements outside [0, n), weights that are not positive and finite
    (_positive_weight), and colors in
    [0, num_colors) that own no set. Never raises.
    """
    everything = (1 << system.n) - 1
    uncovered = tuple(elements_of(everything & ~union_of(system.masks, range(system.num_sets))))
    # Sets are stored sorted, so a set is in range when its ends are.
    out_of_range = tuple(
        i for i, s in enumerate(system.sets) if s and (s[0] < 0 or s[-1] >= system.n)
    )
    bad_weights = ()
    if system.weights is not None:
        bad_weights = tuple(i for i, w in enumerate(system.weights) if not _positive_weight(w))
    present = set(system.colors)
    empty = tuple(c for c in range(system.num_colors) if c not in present)
    return ValidationOutcome(
        uncovered_elements=uncovered,
        out_of_range_sets=out_of_range,
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
        total = _add_up(map(system.weight, selected))
        return cls(selected, tuple(counts), rounds, total)

    @property
    def size(self) -> int:
        return len(self.selected)

    def covered_elements(self, system: SetSystem) -> frozenset[int]:
        """The elements in [0, n) that the selected sets contain."""
        return frozenset(elements_of(union_of(system.masks, self.selected)))

    def covers_universe(self, system: SetSystem) -> bool:
        return union_of(system.masks, self.selected) == (1 << system.n) - 1


@dataclass(frozen=True)
class FairnessReport:
    """Per-group attainment ratios and their min/max spread.

    per_group_ratio[h] is count_h / fractions[h] as an exact rational, or
    None for groups with a zero target fraction and no selected sets, over
    every group the spec names or the system has.
    fairness_ratio = min/max over defined groups, 1 exactly iff every group
    holds exactly its target share of the cover.
    """

    per_group_ratio: tuple[Fraction | None, ...]
    fairness_ratio: Fraction


def share_counts(spec: FairnessSpec, cover: Cover) -> tuple[tuple[Fraction, int], ...]:
    """(share, count) for every color the spec names or the cover's system
    has: a color the spec does not name has share zero, and one the system
    lacks has count zero."""
    return tuple(zip_longest(spec.fractions, cover.group_counts, fillvalue=0))


def quota_counts(spec: FairnessSpec, cover: Cover) -> tuple[tuple[Fraction, int], ...]:
    """share_counts(spec, cover), after raising ZeroFractionViolated when a
    color of share zero (one the spec does not name included) holds sets."""
    pairs = share_counts(spec, cover)
    for h, (f, c) in enumerate(pairs):
        if f == 0 and c > 0:
            raise ZeroFractionViolated(f"group {h} has target fraction 0 but {c} selected set(s)")
    return pairs


def fairness_report(system: SetSystem, spec: FairnessSpec, cover: Cover) -> FairnessReport:
    """Score how evenly a cover honors the group quotas.

    A color the spec does not name has share zero, and one the system lacks
    holds no sets. Raises ZeroFractionViolated when a zero-share group
    contributed sets anyway; such covers have no meaningful ratio.
    """
    ratios = [None if f == 0 else Fraction(c) / f for f, c in quota_counts(spec, cover)]
    defined = [r for r in ratios if r is not None]
    if not defined or max(defined) == 0:
        ratio = Fraction(1)
    else:
        ratio = min(defined) / max(defined)
    return FairnessReport(tuple(ratios), ratio)
