"""Instance serialization and seeded instance generators.

Two file formats:

JSON (canonical): an object {"n": int, "sets": [[int, ...], ...],
"colors": [int, ...], "weights": [float, ...] | null, "names":
{"elements": [...], "sets": [...]} | null}, written on one line with sorted
keys; round trips are byte-stable because keys are sorted and floats use
repr. Any layout loads, one value per line included.

CSV binary matrix: header "group,e0,e1,..." or "group,weight,e0,e1,...";
each following row is one set: its group label, optionally its weight,
then one 0/1 membership cell per element. Group labels are interned to
color ids 0, 1, ... in order of first appearance. Weights are written with
12 significant digits.

Generators return plain SetSystem values and are deterministic per seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidMatrix, ParseError
from .model import SetSystem

FORMATS = ("json", "csv")
# gen_biased: element probability of a generous and of a sparse set, and
# how many generous sets color 0 gets for each one color 1 gets.
BIASED_RICH_P = 0.55
BIASED_POOR_P = 0.06
BIASED_DOMINANCE = 4


# ---------------------------------------------------------------- file I/O


def save_instance(system: SetSystem, path: str | Path, format: str = "json") -> None:
    path = Path(path)
    if format == "json":
        payload = {
            "n": system.n,
            "sets": system.sets,
            "colors": system.colors,
            "weights": system.weights,
            "names": None,
        }
        # One line: json's C encoder runs only without indent, and it writes
        # tuples as lists.
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    elif format == "csv":
        _save_csv(system, path)
    else:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")


def load_instance(path: str | Path, format: str = "json") -> SetSystem:
    path = Path(path)
    if format == "json":
        return _load_json(path)
    if format == "csv":
        return _load_csv(path)
    raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")


def _read_text(path: Path) -> str:
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text: {exc.reason}", line=line) from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is a bool


def _all_ints(n, sets, colors) -> bool:
    """Whether n, every element id and every color is a JSON integer, in
    one pass of C-level type lookups. False for any other shape, which the
    caller's per-value loop then explains or refuses."""
    if type(sets) is not list or type(colors) is not list:
        return False
    if not set(map(type, sets)) <= {list}:
        return False
    # JSON decodes numbers only as int or float, so an exact type test
    # keeps bool (an int subclass) out as _is_int does.
    return {type(n), *map(type, chain.from_iterable(sets)), *map(type, colors)} == {int}


def _load_json(path: Path) -> SetSystem:
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc.msg}", line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:
        # Integers past Python's digit limit, or nesting past the recursion limit.
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError("top level must be an object")
    missing = {"n", "sets", "colors"} - payload.keys()
    if missing:
        raise ParseError(f"missing keys: {sorted(missing)}")
    try:
        if not _all_ints(payload["n"], payload["sets"], payload["colors"]):
            # Name the first offender: n, then element ids set by set, then colors.
            for value in [payload["n"], *(e for s in payload["sets"] for e in s), *payload["colors"]]:
                if not _is_int(value):
                    raise ParseError(f"{value!r} is not an integer (n, element ids, colors)")
        system = SetSystem(
            n=payload["n"],
            sets=payload["sets"],
            colors=payload["colors"],
            weights=payload.get("weights"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed instance: {exc}") from exc
    # Validation rejects either file below anyway (a color owning no set, an
    # element in no set), but only after sizing a table by the largest
    # color id or a mask by n.
    if system.num_colors > system.num_sets:
        raise ParseError(f"color {system.num_colors - 1} is not below the {system.num_sets} sets")
    listed = len(set(chain.from_iterable(system.sets)))
    if system.n > listed:
        raise ParseError(f"n = {system.n} exceeds the {listed} element ids the sets list")
    return system


def _save_csv(system: SetSystem, path: Path) -> None:
    weighted = system.weights is not None
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        head = ["group"] + (["weight"] if weighted else [])
        writer.writerow(head + [f"e{j}" for j in range(system.n)])
        for i, s in enumerate(system.sets):
            member = set(s)
            row = [f"g{system.colors[i]}"]
            if weighted:
                row.append(f"{system.weights[i]:.12g}")
            row.extend("1" if j in member else "0" for j in range(system.n))
            writer.writerow(row)


def _load_csv(path: Path) -> SetSystem:
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if not header or header[0] != "group":
            raise ParseError("first header cell must be 'group'", line=1, column=1)
        weighted = len(header) > 1 and header[1] == "weight"
        lead = 2 if weighted else 1
        n = len(header) - lead
        if n < 0:
            raise ParseError("header is shorter than its leading columns", line=1)
        labels: dict[str, int] = {}
        sets: list[list[int]] = []
        colors: list[int] = []
        weights: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != lead + n:
                raise ParseError(
                    f"expected {lead + n} cells, found {len(row)}", line=lineno
                )
            label = row[0]
            if label not in labels:
                labels[label] = len(labels)
            colors.append(labels[label])
            if weighted:
                try:
                    weights.append(float(row[1]))
                except ValueError:
                    raise ParseError(
                        f"weight {row[1]!r} is not a number", line=lineno, column=2
                    ) from None
            members = []
            for j, cell in enumerate(row[lead:]):
                if cell == "1":
                    members.append(j)
                elif cell != "0":
                    raise InvalidMatrix(
                        f"cell {cell!r} is not 0 or 1", line=lineno, column=lead + j + 1
                    )
            sets.append(members)
        return SetSystem(n, sets, colors, weights if weighted else None)
    except csv.Error as exc:  # e.g. a cell past csv.field_size_limit()
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None


# -------------------------------------------------------------- generators


def _draw_sets(rng: np.random.Generator, p: np.ndarray, mu: int, n: int) -> list[list[int]]:
    """mu random subsets of [0, n): element j joins set i when the (i, j)
    draw of one rng.random((mu, n)) call falls below p[i, j] (p broadcasts
    to (mu, n)); the array is filled row by row, as mu calls of
    rng.random(n) would be. Then every element no set holds is appended to
    one random set, in ascending element order, one draw each, which keeps
    the instance coverable; the caller makes sure that some set exists when
    n > 0."""
    member = rng.random((max(mu, 0), n)) < p
    flat = np.nonzero(member)[1].tolist()  # row by row, ascending in each
    ends = np.cumsum(np.count_nonzero(member, axis=1)).tolist()
    sets = [flat[a:b] for a, b in zip([0, *ends], ends)]
    for j in np.flatnonzero(~member.any(axis=0)).tolist():
        sets[int(rng.integers(len(sets)))].append(j)
    return sets


def gen_synthetic(
    n: int,
    m_per_color: int,
    k: int,
    coverage_dist: tuple = ("uniform", 0.3),
    weight_dist: tuple | None = None,
    seed: int | None = None,
) -> SetSystem:
    """Random instance: k blocks of m_per_color sets, elementwise membership.

    coverage_dist ("uniform", p): every membership flips with probability p.
    coverage_dist ("zipf", s): element j joins each set with probability
    (j + 1) ** -s, so low-index elements are popular and the tail is rare.
    weight_dist None leaves the system unweighted; ("uniform", lo, hi)
    draws each set weight uniformly from [lo, hi].

    A repair pass appends every otherwise-uncovered element to one random
    set, keeping generated instances coverable. Fixed seeds fix the output.
    """
    rng = np.random.default_rng(seed)
    kind = coverage_dist[0]
    if kind == "uniform":
        p = np.full(n, float(coverage_dist[1]))
    elif kind == "zipf":
        s = float(coverage_dist[1])
        p = (np.arange(n) + 1.0) ** -s
    else:
        raise ValueError(f"unknown coverage distribution {kind!r}")
    mu = m_per_color * k
    if n > 0 and mu <= 0:
        raise ValueError(f"m_per_color = {m_per_color} and k = {k} give no sets for {n} elements")
    sets = _draw_sets(rng, p, mu, n)
    colors = [h for h in range(k) for _ in range(m_per_color)]
    weights = None
    if weight_dist is not None:
        if weight_dist[0] != "uniform":
            raise ValueError(f"unknown weight distribution {weight_dist[0]!r}")
        lo, hi = float(weight_dist[1]), float(weight_dist[2])
        weights = rng.uniform(lo, hi, size=mu).tolist()
    return SetSystem(n, sets, colors, weights)


def gen_biased(n: int, m_per_color: int = 8, seed: int | None = None) -> SetSystem:
    """Two-color instance where high-coverage sets pile up in color 0.

    Out of every BIASED_DOMINANCE + 1 generous sets (element probability
    BIASED_RICH_P), BIASED_DOMINANCE land in color 0 and one in color 1;
    all other sets are sparse (BIASED_POOR_P). Plain greedy gravitates to
    color 0 and comes out lopsided, while quota algorithms stay exact at a
    comparable size, which makes this the standard demonstration preset.
    """
    rng = np.random.default_rng(seed)
    rich_total = BIASED_DOMINANCE + 1
    rich0 = min(BIASED_DOMINANCE, m_per_color)
    rich1 = min(rich_total - rich0, m_per_color)
    probs = []
    for h in range(2):
        rich_here = rich0 if h == 0 else rich1
        probs.extend([BIASED_RICH_P] * rich_here + [BIASED_POOR_P] * (m_per_color - rich_here))
    if n > 0 and m_per_color <= 0:
        raise ValueError(f"m_per_color = {m_per_color} gives no sets for {n} elements")
    sets = _draw_sets(rng, np.array(probs)[:, None], 2 * m_per_color, n)
    colors = [0] * m_per_color + [1] * m_per_color
    return SetSystem(n, sets, colors)


Point = tuple[float, float]


def gen_geometric(
    points: Sequence[Point], groups: Sequence[int], radius: float
) -> SetSystem:
    """One set per point: every point within the (closed) radius, colored by
    the center's group."""
    if len(points) != len(groups):
        raise ValueError(f"{len(points)} points but {len(groups)} group labels")
    n = len(points)
    sets = []
    for cx, cy in points:
        members = [
            j
            for j, (x, y) in enumerate(points)
            if math.dist((cx, cy), (x, y)) <= radius
        ]
        sets.append(members)
    return SetSystem(n, sets, list(groups))


def gen_sum_of_radii(points: Sequence[Point], groups: Sequence[int]) -> SetSystem:
    """Weighted ball family for minimum sum-of-radii clustering.

    For every center and every pairwise distance d (plus zero), one set of
    all points within d, weighted d. Zero radii get a tiny positive weight
    (1e-6 of the largest distance) so weight-positivity holds. At most
    n * n sets before deduplication of equal radii per center.
    """
    if len(points) != len(groups):
        raise ValueError(f"{len(points)} points but {len(groups)} group labels")
    n = len(points)
    max_dist = max(
        (math.dist(a, b) for a in points for b in points), default=0.0
    )
    w_zero = 1e-6 * max_dist if max_dist > 0 else 1e-6
    sets = []
    colors = []
    weights = []
    for c, center in enumerate(points):
        radii = sorted({0.0} | {math.dist(center, q) for q in points})
        for d in radii:
            members = [j for j, q in enumerate(points) if math.dist(center, q) <= d]
            sets.append(members)
            colors.append(groups[c])
            weights.append(d if d > 0 else w_zero)
    return SetSystem(n, sets, colors, weights)
