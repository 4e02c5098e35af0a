"""Dense two-phase simplex plus the relaxation builders used by the rounding algorithms.

The solver is deliberately small: desk-scale problems (tens of variables)
with box bounds. Bland's rule keeps it cycle-free and a generous pivot
budget turns pathological stalls into a loud NumericalFailure instead of a
hang. Zero-rhs ">=" rows (the relaxations' coverage rows
sum x - y_e >= 0) start from their slack, so phase one only has to drive
out the artificials of the quota equalities and of a positive target row.

An LpProblem holds read-only numpy arrays: the constraint matrix A, one
relation string per row and the right-hand sides rhs. The relaxation
builders fill A directly (LpProblem.from_arrays); the constructor takes
(row, rel, rhs) triples, and the constraints property gives them back.
Every simplex pivot, phase one's drive-out of artificials included, goes
through one tableau-update step (_pivot).

Anything implementing solve(problem) -> LpSolution with the same statuses
can be swapped in through the lp_solver arguments downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, InsufficientColor, NumericalFailure
from .model import SetSystem

# Absolute tolerance for constraint residuals of reported solutions.
FEAS_TOL = 1e-9
# Relative tolerance for objective comparisons.
OBJ_RTOL = 1e-7
# Pivoting threshold: entries smaller than this are treated as zero.
_PIVOT_TOL = 1e-9
# Acceptable drift between a color's LP mass and its integer quota.
MASS_DRIFT_TOL = 1e-6

Relation = str  # one of "<=", ">=", "="
_RELATIONS = ("<=", ">=", "=")


class LpProblem:
    """min or max of objective . x subject to A x (relations) rhs and box
    bounds, one (lo, hi) row per variable ([0, 1] when bounds is None).

    The arrays are read-only. constraints gives the rows back as
    (row, relation, rhs) triples.
    """

    sense: str
    objective: np.ndarray  # (nvar,)
    A: np.ndarray  # (m, nvar)
    relations: tuple[Relation, ...]  # (m,)
    rhs: np.ndarray  # (m,)
    bounds: np.ndarray  # (nvar, 2)

    def __init__(
        self,
        sense: str,
        objective: Sequence[float],
        constraints: Sequence[tuple[Sequence[float], Relation, float]],
        bounds: Sequence[tuple[float, float]] | None = None,
    ):
        obj = np.array(objective, dtype=float)
        rows, rels, rhs = [], [], []
        for idx, (row, rel, b) in enumerate(constraints):
            if len(row) != len(obj):
                raise DimensionMismatch(
                    f"constraint {idx} has {len(row)} coefficients for {len(obj)} variables"
                )
            rows.append(row)
            rels.append(rel)
            rhs.append(b)
        A = np.array(rows, dtype=float).reshape(len(rows), len(obj))
        self._set(sense, obj, A, rels, np.array(rhs, dtype=float), bounds)

    @classmethod
    def from_arrays(
        cls,
        sense: str,
        objective: np.ndarray,
        A: np.ndarray,
        relations: Sequence[Relation],
        rhs: np.ndarray,
        bounds: np.ndarray | None = None,
    ) -> "LpProblem":
        """Build from the constraint matrix without copying it: float64
        arrays passed in become the problem's own and are made read-only."""
        problem = cls.__new__(cls)
        problem._set(sense, objective, A, relations, rhs, bounds)
        return problem

    def _set(self, sense, objective, A, relations, rhs, bounds) -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        obj = np.asarray(objective, dtype=float)
        A = np.asarray(A, dtype=float)
        rels = tuple(relations)
        b = np.asarray(rhs, dtype=float)
        nvar = len(obj)
        if obj.ndim != 1 or A.shape != (len(rels), nvar) or b.shape != (len(rels),):
            raise DimensionMismatch(
                f"objective {obj.shape}, A {A.shape}, {len(rels)} relations "
                f"and rhs {b.shape} do not agree"
            )
        for idx, rel in enumerate(rels):
            if rel not in _RELATIONS:
                raise ValueError(f"constraint {idx}: unknown relation {rel!r}")
        if bounds is None:
            bnds = np.repeat([[0.0, 1.0]], nvar, axis=0)
        else:
            bnds = np.array(bounds, dtype=float)
            if len(bnds) != nvar:
                raise DimensionMismatch(f"{len(bnds)} bounds for {nvar} variables")
            bnds = bnds.reshape(nvar, 2)
        lo, hi = bnds[:, 0], bnds[:, 1]
        bad = np.flatnonzero(~np.isfinite(lo))
        if bad.size:
            raise ValueError(f"variable {bad[0]}: lower bound must be finite")
        bad = np.flatnonzero(hi < lo)
        if bad.size:
            j = bad[0]
            raise ValueError(f"variable {j}: empty bound interval [{lo[j]}, {hi[j]}]")
        for a in (obj, A, b, bnds):
            a.flags.writeable = False
        self.sense = sense
        self.objective = obj
        self.A = A
        self.relations = rels
        self.rhs = b
        self.bounds = bnds

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @cached_property
    def constraints(self) -> tuple[tuple[np.ndarray, Relation, float], ...]:
        return tuple(zip(self.A, self.relations, self.rhs.tolist()))

    def __repr__(self) -> str:
        return (
            f"LpProblem({self.sense!r}, objective={self.objective.tolist()}, "
            f"constraints={[(r.tolist(), rel, b) for r, rel, b in self.constraints]}, "
            f"bounds={self.bounds.tolist()})"
        )


@dataclass(frozen=True)
class LpSolution:
    """status is 'optimal', 'infeasible' or 'unbounded'; values/objective are
    meaningful only when optimal."""

    status: str
    values: tuple[float, ...]
    objective: float


LpSolver = Callable[[LpProblem], LpSolution]

_INFEASIBLE = LpSolution("infeasible", (), math.nan)
_UNBOUNDED = LpSolution("unbounded", (), math.nan)


def _pivot(T: np.ndarray, leave: int, enter: int) -> None:
    """Make column enter basic in row leave. Row leave is divided by the
    pivot and every other row r loses T[r, enter] times that row; the leave
    row's own update is discarded and overwritten."""
    prow = T[leave] / T[leave, enter]
    T -= T[:, enter, None] * prow
    T[leave] = prow


def _pivot_loop(T: np.ndarray, basis: np.ndarray, cost: np.ndarray, budget: int) -> str:
    """Run Bland-rule simplex pivots on tableau T and basis (an intp array,
    one basic column per row) in place.

    T is m x (ncols+1) with the rhs in the last column and b >= 0 maintained
    throughout. Returns 'optimal' or 'unbounded'. The reduced costs are
    recomputed from cost on every pivot rather than carried as a tableau
    row, so rounding never accumulates in them.
    """
    ncols = T.shape[1] - 1
    nonbasic = np.ones(ncols, dtype=bool)
    nonbasic[basis] = False
    for _ in range(budget):
        reduced = cost - cost[basis] @ T[:, :ncols]
        # Bland: the smallest-index improving nonbasic column enters.
        eligible = (reduced < -_PIVOT_TOL) & nonbasic
        enter = int(eligible.argmax())
        if not eligible[enter]:
            return "optimal"
        col = T[:, enter]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, ncols] / col[rows]
        # Bland tie-break: among minimizing rows leave the smallest basic index.
        tied = rows[ratios <= ratios.min() + _PIVOT_TOL]
        leave = int(tied[basis[tied].argmin()])
        _pivot(T, leave, enter)
        nonbasic[basis[leave]] = True
        nonbasic[enter] = False
        basis[leave] = enter
    raise NumericalFailure(f"pivot budget {budget} exhausted")


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase simplex over the given problem, read from its arrays.

    Lower bounds are shifted to zero and finite upper bounds become
    explicit rows. Rows are then negated so every rhs is nonnegative, and
    a ">=" row whose rhs is exactly zero is negated into a "<=" row, so it
    starts from its slack. Phase one runs only when "=" rows or ">=" rows
    with a positive rhs remain; each of those gets an artificial, and the
    artificials still basic at zero are pivoted out with the same step as
    every other pivot. The reported objective is recomputed from the
    original coefficients so tableau drift never leaks into comparisons.
    """
    nvar = problem.num_vars
    if nvar == 0:
        return LpSolution("optimal", (), 0.0)
    lo = problem.bounds[:, 0]
    hi = problem.bounds[:, 1]
    c_orig = problem.objective
    c = c_orig if problem.sense == "min" else -c_orig

    # hi == lo pins the shifted variable at zero; the bound row x' <= 0
    # would be redundant with nonnegativity, so skip it.
    capped = np.flatnonzero(np.isfinite(hi) & (hi > lo))
    m_in = len(problem.relations)
    m = m_in + capped.size
    b = np.concatenate((problem.rhs - problem.A @ lo, hi[capped] - lo[capped]))
    rels = np.array(problem.relations + ("<=",) * capped.size, dtype="<U2")

    # Flip negative rhs rows so b >= 0, and also flip ">=" rows whose rhs
    # is exactly zero: as "<=" rows their slack is a feasible starting
    # basis, so they need neither a surplus nor an artificial.
    le, ge = rels == "<=", rels == ">="
    flip = (b < 0) | ((b == 0) & ge)
    b[flip] = np.abs(b[flip])  # abs, not negation: keeps a zero rhs at +0.0
    le, ge = np.where(flip, ge, le), np.where(flip, le, ge)

    slack_rows = np.flatnonzero(le)
    surplus_rows = np.flatnonzero(ge)
    art_rows = np.flatnonzero(~le)
    first_art = nvar + slack_rows.size + surplus_rows.size
    ncols = first_art + art_rows.size
    T = np.zeros((m, ncols + 1))
    T[:m_in, :nvar] = problem.A
    T[m_in + np.arange(capped.size), capped] = 1.0
    T[flip, :nvar] = -T[flip, :nvar]
    T[:, ncols] = b
    basis = np.empty(m, dtype=np.intp)
    basis[slack_rows] = nvar + np.arange(slack_rows.size)
    T[slack_rows, basis[slack_rows]] = 1.0
    T[surplus_rows, nvar + slack_rows.size + np.arange(surplus_rows.size)] = -1.0
    basis[art_rows] = first_art + np.arange(art_rows.size)
    T[art_rows, basis[art_rows]] = 1.0

    budget = 50 * (ncols + m)

    if art_rows.size:
        cost1 = np.zeros(ncols)
        cost1[first_art:] = 1.0
        status = _pivot_loop(T, basis, cost1, budget)
        if status != "optimal":
            # Phase one is bounded below by 0, so this only happens when the
            # tableau has lost its numerical integrity.
            raise NumericalFailure(f"phase one came back {status}")
        scale = max(1.0, float(b.max()))
        if cost1[basis] @ T[:, ncols] > 1e-8 * scale:
            return _INFEASIBLE
        # Pivot leftover zero-valued artificials out of the basis when possible.
        for i in np.flatnonzero(basis >= first_art):
            options = np.flatnonzero(np.abs(T[i, :first_art]) > _PIVOT_TOL)
            if options.size:
                _pivot(T, i, options[0])
                basis[i] = options[0]
        # Drop the artificial columns and the rows whose artificial stayed.
        keep = basis < first_art
        T = T[np.ix_(keep, np.r_[:first_art, ncols])]
        basis = basis[keep]
        ncols = first_art

    cost2 = np.zeros(ncols)
    cost2[:nvar] = c
    status = _pivot_loop(T, basis, cost2, budget)
    if status == "unbounded":
        return _UNBOUNDED

    x_shift = np.zeros(ncols)
    x_shift[basis] = T[:, ncols]
    x = lo + x_shift[:nvar]

    resid = problem.A @ x - problem.rhs
    rel = rels[:m_in]
    violated = np.flatnonzero(
        ((rel == "=") & (np.abs(resid) > 1e-6))
        | ((rel == "<=") & (resid > 1e-6))
        | ((rel == ">=") & (resid < -1e-6))
    )
    if violated.size:
        idx = violated[0]
        raise NumericalFailure(
            f"constraint {idx} residual {resid[idx]:.3e} after optimal pivot"
        )
    return LpSolution("optimal", tuple(x.tolist()), float(c_orig @ x))


def lp_variable_order(
    remaining_sets: Sequence[Sequence[int]], per_round: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Set ids per color, in the exact order the relaxation builders assign
    selection variables: colors with a zero quota are dropped, ids ascend
    within a color."""
    return tuple(
        tuple(sorted(remaining_sets[h]))
        for h in range(len(per_round))
        if per_round[h] > 0
    )


def _relaxation_parts(
    system: SetSystem,
    remaining_sets: Sequence[Sequence[int]],
    uncovered_elems: Sequence[int],
    per_round: Sequence[int],
    target_row: bool = False,
):
    """Shared rows of both relaxations: one quota equality per active color,
    then one coverage row sum x - y_e >= 0 per uncovered element, then (with
    target_row) a zero row left for the caller to fill."""
    uncovered = sorted(set(uncovered_elems))
    if not uncovered:
        raise ValueError("relaxation needs at least one uncovered element")
    if len(remaining_sets) < len(per_round):
        raise DimensionMismatch(
            f"{len(remaining_sets)} color buckets for {len(per_round)} quotas"
        )
    groups = lp_variable_order(remaining_sets, per_round)
    quotas = [p for p in per_round if p > 0]
    for h, p in enumerate(per_round):
        if p > 0 and len(remaining_sets[h]) < p:
            raise InsufficientColor(h, p, len(remaining_sets[h]))
    x_ids = [i for g in groups for i in g]
    nx = len(x_ids)
    ny = len(uncovered)
    nq = len(groups)

    A = np.zeros((nq + ny + target_row, nx + ny))
    rhs = np.zeros(len(A))
    rhs[:nq] = quotas
    pos = 0
    for h, g in enumerate(groups):
        A[h, pos : pos + len(g)] = 1.0
        pos += len(g)
    # Elements no remaining set touches get the row 0 - y_e >= 0,
    # which pins y_e to zero without special casing.
    A[nq : nq + ny, :nx] = system.incidence[np.ix_(uncovered, x_ids)]
    A[nq + np.arange(ny), nx + np.arange(ny)] = -1.0
    relations = ("=",) * nq + (">=",) * (ny + target_row)
    return uncovered, x_ids, nx, ny, A, relations, rhs


def build_mkcc_lp(
    system: SetSystem,
    remaining_sets: Sequence[Sequence[int]],
    uncovered_elems: Sequence[int],
    per_round: Sequence[int],
) -> LpProblem:
    """Coverage-maximizing relaxation of one quota round.

    Variables are one x per remaining set (order given by
    lp_variable_order) followed by one y per uncovered element ascending.
    Each active color's x mass is pinned to its quota; y_e is held below
    the mass of sets containing e. Maximize sum of y.
    """
    _, _, nx, ny, A, relations, rhs = _relaxation_parts(
        system, remaining_sets, uncovered_elems, per_round
    )
    objective = np.zeros(nx + ny)
    objective[nx:] = 1.0
    return LpProblem.from_arrays("max", objective, A, relations, rhs)


def build_weighted_mkcc_lp(
    system: SetSystem,
    remaining_sets: Sequence[Sequence[int]],
    uncovered_elems: Sequence[int],
    per_round: Sequence[int],
    tau: int,
) -> LpProblem:
    """Weight-minimizing relaxation forced to cover at least tau new elements."""
    uncovered, x_ids, nx, ny, A, relations, rhs = _relaxation_parts(
        system, remaining_sets, uncovered_elems, per_round, target_row=True
    )
    if not (1 <= tau <= len(uncovered)):
        raise ValueError(f"tau must lie in [1, {len(uncovered)}], got {tau}")
    A[-1, nx:] = 1.0
    rhs[-1] = tau
    objective = np.zeros(nx + ny)
    objective[:nx] = [system.weight(i) for i in x_ids]
    return LpProblem.from_arrays("min", objective, A, relations, rhs)


def color_sampling_probs(
    values: Sequence[float],
    groups: Sequence[Sequence[int]],
    quotas: Sequence[int],
) -> list[np.ndarray]:
    """Turn the x part of an optimal relaxation into per-color sampling laws.

    values must start with the x block laid out like lp_variable_order's
    output. Each color's mass is clipped to [0,1]; if it then strays more
    than MASS_DRIFT_TOL from the quota the solve was numerically unsound
    and NumericalFailure is raised. The returned vectors sum to one.
    """
    out: list[np.ndarray] = []
    pos = 0
    for g, p in zip(groups, quotas):
        x = np.clip(np.array(values[pos : pos + len(g)]), 0.0, 1.0)
        pos += len(g)
        drift = abs(float(x.sum()) - p)
        if drift > MASS_DRIFT_TOL:
            raise NumericalFailure(
                f"color mass drifted {drift:.3e} from quota {p}"
            )
        out.append(x / x.sum())
    return out
