"""Dense two-phase simplex plus the relaxation builders used by the rounding algorithms.

The solver is deliberately small: desk-scale problems (tens of variables)
with box bounds. Bland's rule keeps it cycle-free and a generous pivot
budget turns pathological stalls into a loud NumericalFailure instead of a
hang. Zero-rhs ">=" rows (the relaxations' coverage rows
sum x - y_e >= 0) start from their slack, so phase one only has to drive
out the artificials of the quota equalities and of a positive target row.

The boundary is arrays on both sides. An LpProblem is built from the
objective, the constraint matrix A, one relation string per row, the
right-hand sides rhs and optional (lo, hi) bounds; float64 arrays are
adopted without a copy and made read-only, and non-finite data is refused
(an upper bound may be +inf, which means none). An LpSolution carries the
optimal point as a read-only float64 array. Every simplex pivot, phase
one's drive-out of artificials included, goes through one tableau-update
step (_pivot), which also records the entering column in the basis, the
one record of which column is basic. It keeps every basic column an exact
unit vector, so a basic column's reduced cost is exactly 0 and its entries
exactly 0 or 1, and neither pivot rule can pick it.

solve() has two halves that every path shares: _optimize builds a
problem's tableau and runs the two phases, and _read turns an optimal
tableau into a checked LpSolution. LpProblem.retarget(target) gives the
problem with its last row's rhs set to target; every problem re-targeted
from one relaxation shares its validated arrays and relation masks, so a
family is validated once, when its first problem is built, and each
re-target copies only the rhs. The family also shares a record of the
last target solved and its phase-two tableau. When solve() gets the
family's last target plus one, it re-solves from that tableau with
dual-simplex pivots (Lemke) instead of from scratch, provided the last row
was given as ">=" with a positive shifted rhs; this is how the eff_wfsc
target sweep re-solves tau + 1 after tau. Any other problem is solved
cold. A warm answer has the cold answer's status and objective, but on a
degenerate optimum it may be another optimal vertex.

Anything implementing solve(problem) -> LpSolution with the same statuses
can be swapped in through the lp_solver arguments downstream; its values
may be any sequence of floats laid out like the problem's variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, NumericalFailure
from .model import SetSystem, check_pools

# Absolute tolerance for comparing solution values with exact ones; the
# solver itself does not read it (_read checks residuals against
# _RESIDUAL_TOL).
FEAS_TOL = 1e-9
# Relative tolerance for objective comparisons.
OBJ_RTOL = 1e-7
# Pivoting threshold: entries smaller than this are treated as zero.
_PIVOT_TOL = 1e-9
# Largest constraint residual _read accepts in an optimal point.
_RESIDUAL_TOL = 1e-6
# Acceptable drift between a color's LP mass and its integer quota.
MASS_DRIFT_TOL = 1e-6

Relation = str  # one of "<=", ">=", "="
_RELATIONS = ("<=", ">=", "=")


class LpProblem:
    """min or max of objective . x subject to A x (relations) rhs and box
    bounds, one (lo, hi) row per variable ([0, 1] when bounds is None).

    Float64 arrays passed in become the problem's own, without a copy, and
    every array is made read-only. A problem without rows takes an empty A
    such as []. A non-finite objective, A or rhs entry, a non-finite lower
    bound, a NaN upper bound or an empty bound interval raises ValueError.
    constraints gives the rows back as (row, relation, rhs) triples.
    """

    _family: list | None  # [last target, tableau], see retarget()
    _masks: tuple[np.ndarray, ...]  # the "<=", ">=" and "=" rows, as bool arrays

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
        A: np.ndarray | Sequence[Sequence[float]],
        relations: Sequence[Relation],
        rhs: Sequence[float],
        bounds: Sequence[tuple[float, float]] | None = None,
    ):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        obj = np.asarray(objective, dtype=float)
        A = np.asarray(A, dtype=float)
        rels = tuple(relations)
        b = np.asarray(rhs, dtype=float)
        nvar = len(obj)
        if not rels and A.size == 0:
            A = A.reshape(0, nvar)
        if obj.ndim != 1 or A.shape != (len(rels), nvar) or b.shape != (len(rels),):
            raise DimensionMismatch(
                f"objective {obj.shape}, A {A.shape}, {len(rels)} relations "
                f"and rhs {b.shape} do not agree"
            )
        for idx, rel in enumerate(rels):
            if rel not in _RELATIONS:
                raise ValueError(f"constraint {idx}: unknown relation {rel!r}")
        for name, a in (("objective", obj), ("A", A), ("rhs", b)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} entries must be finite")
        if bounds is None:
            bnds = np.repeat([[0.0, 1.0]], nvar, axis=0)
        else:
            bnds = np.asarray(bounds, dtype=float)
            if len(bnds) != nvar:
                raise DimensionMismatch(f"{len(bnds)} bounds for {nvar} variables")
            if bnds.shape != (nvar, 2):
                bnds = bnds.reshape(nvar, 2)
        lo, hi = bnds[:, 0], bnds[:, 1]
        bad = np.flatnonzero(~np.isfinite(lo))
        if bad.size:
            raise ValueError(f"variable {bad[0]}: lower bound must be finite")
        # With lo finite, hi >= lo fails exactly for a NaN hi and for hi < lo.
        bad = np.flatnonzero(~(hi >= lo))
        if bad.size:
            j = bad[0]
            if math.isnan(hi[j]):
                raise ValueError(f"variable {j}: upper bound must not be NaN")
            raise ValueError(f"variable {j}: empty bound interval [{lo[j]}, {hi[j]}]")
        # Every relation was checked above, so two characters hold each one.
        rel = np.array(rels, dtype="<U2")
        masks = tuple(rel == r for r in _RELATIONS)
        for a in (obj, A, b, bnds, *masks):
            a.flags.writeable = False
        self.sense = sense
        self.objective = obj
        self.A = A
        self.relations = rels
        self.rhs = b
        self.bounds = bnds
        self._masks = masks
        self._family = None

    def retarget(self, target: float) -> LpProblem:
        """This problem with only its last row's rhs set to target. It
        shares every other array without validating it again, and one
        family record with this problem and every problem re-targeted from
        it, so solve() can resume target + 1 from the tableau of target.
        Raises DimensionMismatch when the problem has no rows and
        ValueError when target is not finite."""
        if not self.relations:
            raise DimensionMismatch("a problem without rows has no target row")
        if not math.isfinite(target):
            raise ValueError(f"target must be finite, got {target}")
        rhs = self.rhs.copy()
        rhs[-1] = target
        rhs.flags.writeable = False
        if self._family is None:
            self._family = [math.nan, None]
        # The shared arrays were validated when this family's first problem
        # was built. The cached constraints stay behind: they hold its rhs.
        twin = object.__new__(LpProblem)
        vars(twin).update(
            sense=self.sense, objective=self.objective, A=self.A,
            relations=self.relations, rhs=rhs, bounds=self.bounds,
            _masks=self._masks, _family=self._family,
        )
        return twin

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @cached_property
    def constraints(self) -> tuple[tuple[np.ndarray, Relation, float], ...]:
        return tuple(zip(self.A, self.relations, self.rhs.tolist()))

    def __repr__(self) -> str:
        return (
            f"LpProblem({self.sense!r}, {self.objective.tolist()}, {self.A.tolist()}, "
            f"{self.relations}, {self.rhs.tolist()}, bounds={self.bounds.tolist()})"
        )


@dataclass(frozen=True)
class LpSolution:
    """status is 'optimal', 'infeasible' or 'unbounded'; values/objective are
    meaningful only when optimal. solve() gives values as a read-only
    float64 array, one entry per variable."""

    status: str
    values: np.ndarray
    objective: float


LpSolver = Callable[[LpProblem], LpSolution]

_NO_VALUES = np.empty(0)
_NO_VALUES.flags.writeable = False
_INFEASIBLE = LpSolution("infeasible", _NO_VALUES, math.nan)
_UNBOUNDED = LpSolution("unbounded", _NO_VALUES, math.nan)


def _pivot(T: np.ndarray, basis: np.ndarray, leave: int, enter: int) -> None:
    """Make column enter basic in row leave and set basis[leave] = enter:
    divide row leave by the pivot and subtract T[r, enter] times it from
    every other row r. Basic columns stay exact unit vectors: enter's gets
    x / x = 1 and T[r, enter] - T[r, enter] * 1 = 0, and every other one
    has an exact 0 in row leave, so each row subtracts T[r, enter] * 0."""
    prow = T[leave] / T[leave, enter]
    T -= T[:, enter, None] * prow
    T[leave] = prow
    basis[leave] = enter


def _pivot_loop(T: np.ndarray, basis: np.ndarray, cost: np.ndarray, budget: int) -> str:
    """Run Bland-rule simplex pivots in place on tableau T, m x (ncols+1)
    with the rhs in the last column and b >= 0 maintained throughout, and
    basis, an intp array whose column basis[r] is the exact unit vector e_r
    (see _pivot). Returns 'optimal' or 'unbounded'. The reduced costs are
    recomputed from cost on every pivot rather than carried as a tableau
    row, so rounding never accumulates in them."""
    ncols = T.shape[1] - 1
    for _ in range(budget):
        # A basic column's reduced cost is cost[j] - cost[j] * 1 = 0: never eligible.
        reduced = cost - cost[basis] @ T[:, :ncols]
        # Bland: the smallest-index improving column enters.
        eligible = reduced < -_PIVOT_TOL
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
        _pivot(T, basis, leave, enter)
    raise NumericalFailure(f"pivot budget {budget} exhausted")


@dataclass
class _Tableau:
    """A phase-two simplex tableau: T with the rhs in its last column, the
    basic column of each row, the phase-two costs, the pivot budget, and
    the surplus column of the problem's last row (-1 when it has none)."""

    T: np.ndarray
    basis: np.ndarray
    cost: np.ndarray
    budget: int
    surplus: int


def _dual_pivot_loop(T: np.ndarray, basis: np.ndarray, cost: np.ndarray, budget: int) -> str:
    """Run dual-simplex pivots (Lemke 1954) on a tableau whose reduced
    costs are optimal but whose rhs has gone negative, in place, until the
    rhs is nonnegative again.

    The leaving row is the negative-rhs row with the smallest basic index;
    the entering column has a negative entry in that row and the least
    reduced / |entry|, ties to the smallest index. Returns 'optimal' once
    the rhs is feasible again, or 'infeasible' when a negative row has no
    negative entry to pivot on. As in _pivot_loop, column basis[r] must be
    the exact unit vector e_r.
    """
    ncols = T.shape[1] - 1
    for _ in range(budget):
        short = (T[:, ncols] < -_PIVOT_TOL).nonzero()[0]
        if short.size == 0:
            return "optimal"
        leave = int(short[basis[short].argmin()])
        row = T[leave, :ncols]
        # A basic column's entry is exactly 0 or 1 (see _pivot), never negative.
        cols = (row < -_PIVOT_TOL).nonzero()[0]
        if cols.size == 0:
            return "infeasible"
        ratios = (cost[cols] - cost[basis] @ T[:, cols]) / -row[cols]
        enter = int(cols[(ratios <= ratios.min() + _PIVOT_TOL).argmax()])
        _pivot(T, basis, leave, enter)
    raise NumericalFailure(f"dual pivot budget {budget} exhausted")


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase simplex over the given problem, read from its arrays, or
    a dual-simplex resume when problem's target is one above the last
    target its family solved (see LpProblem.retarget).

    Cold: _optimize builds the tableau and runs both phases. Warm: the
    family record holds the phase-two tableau of the last target, kept
    only when its last row was given as ">=", stayed unflipped (its
    shifted rhs was positive) and survived phase one; s is that row's
    surplus column. Since B^-1 e_last = -T[:, s],
    raising that row's rhs by one is T[:, rhs] -= T[:, s]; dual-simplex
    pivots then restore a nonnegative rhs (or prove the target infeasible),
    and one primal pass cleans up reduced costs left just inside the
    pivoting tolerance. Either way _read checks the residuals and
    recomputes the objective from the original coefficients.
    """
    if problem.num_vars == 0:
        # Every row reads 0 (relation) rhs, so the rows alone decide.
        if _violated(problem, -problem.rhs, 0.0).size:
            return _INFEASIBLE
        return LpSolution("optimal", _NO_VALUES, 0.0)
    family = problem._family
    tab = None
    if family is not None:
        last, prev = family
        # The record is spent however this solve ends; a finished solve
        # refills it.
        family[:] = math.nan, None
        if problem.rhs[-1] == last + 1:
            tab = prev
    if tab is not None:
        tab.T[:, -1] -= tab.T[:, tab.surplus]
        status = _dual_pivot_loop(tab.T, tab.basis, tab.cost, tab.budget)
        if status == "optimal":
            status = _pivot_loop(tab.T, tab.basis, tab.cost, tab.budget)
    else:
        status, tab = _optimize(problem)
    if status == "infeasible":
        return _INFEASIBLE
    if status == "unbounded":
        return _UNBOUNDED
    sol = _read(problem, tab)
    if family is not None and tab.surplus >= 0:
        family[:] = problem.rhs[-1], tab
    return sol


def _optimize(problem: LpProblem) -> tuple[str, _Tableau | None]:
    """Build problem's tableau and run the two phases from scratch.

    Lower bounds are shifted to zero and finite upper bounds become
    explicit rows. Rows are then negated so every rhs is nonnegative, and
    a ">=" row whose rhs is exactly zero is negated into a "<=" row, so it
    starts from its slack. Phase one runs only when "=" rows or ">=" rows
    with a positive rhs remain; each of those gets an artificial, and the
    artificials still basic at zero are pivoted out with the same step as
    every other pivot. Returns the status and, unless infeasible, the
    phase-two tableau.
    """
    nvar = problem.num_vars
    lo = problem.bounds[:, 0]
    hi = problem.bounds[:, 1]
    c = problem.objective if problem.sense == "min" else -problem.objective

    # Every finite upper bound gets a row, hi == lo included: its row
    # x' <= 0 is what pins the shifted variable at zero.
    capped = np.flatnonzero(np.isfinite(hi))
    m_in = len(problem.relations)
    m = m_in + capped.size
    b = np.concatenate((problem.rhs - problem.A @ lo, hi[capped] - lo[capped]))
    le, ge, _ = problem._masks
    le = np.concatenate((le, np.ones(capped.size, dtype=bool)))
    ge = np.concatenate((ge, np.zeros(capped.size, dtype=bool)))

    # Flip negative rhs rows so b >= 0, and also flip ">=" rows whose rhs
    # is exactly zero: as "<=" rows their slack is a feasible starting
    # basis, so they need neither a surplus nor an artificial.
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
    # Bound rows are "<=" rows with a nonnegative rhs, so a ">=" last row of
    # the problem owns the last surplus column. Only a row given as ">="
    # and left unflipped can be resumed: raising the rhs of a flipped row
    # lowers its tableau rhs instead.
    resumable = m_in and problem.relations[-1] == ">=" and not flip[m_in - 1]
    surplus = first_art - 1 if resumable else -1

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
            return "infeasible", None
        # Pivot leftover zero-valued artificials out of the basis when possible.
        for i in np.flatnonzero(basis >= first_art):
            options = np.flatnonzero(np.abs(T[i, :first_art]) > _PIVOT_TOL)
            if options.size:
                _pivot(T, basis, i, options[0])
        # Drop the artificial columns and the rows whose artificial stayed.
        # B^-1 e_last = -T[:, surplus] needs the last row kept.
        keep = basis < first_art
        if surplus >= 0 and not keep[m_in - 1]:
            surplus = -1
        T = T[np.ix_(keep, np.r_[:first_art, ncols])]
        basis = basis[keep]
        ncols = first_art

    cost2 = np.zeros(ncols)
    cost2[:nvar] = c
    status = _pivot_loop(T, basis, cost2, budget)
    return status, _Tableau(T, basis, cost2, budget, surplus)


def _read(problem: LpProblem, tab: _Tableau) -> LpSolution:
    """The optimal point of tab in problem's variables. Every row's
    residual is checked, and the objective is recomputed from the original
    coefficients so tableau drift never leaks into comparisons."""
    T = tab.T
    x_shift = np.zeros(T.shape[1] - 1)
    x_shift[tab.basis] = T[:, -1]
    x = problem.bounds[:, 0] + x_shift[: problem.num_vars]

    resid = problem.A @ x - problem.rhs
    violated = _violated(problem, resid, _RESIDUAL_TOL)
    if violated.size:
        idx = violated[0]
        raise NumericalFailure(
            f"constraint {idx} residual {resid[idx]:.3e} after optimal pivot"
        )
    x.flags.writeable = False
    return LpSolution("optimal", x, float(problem.objective @ x))


def _violated(problem: LpProblem, resid: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the rows whose residual A x - rhs breaks the row's
    relation by more than tol."""
    le, ge, eq = problem._masks
    bad = (eq & (np.abs(resid) > tol)) | (le & (resid > tol)) | (ge & (resid < -tol))
    return bad.nonzero()[0]


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
    check_pools(remaining_sets, per_round)
    groups = lp_variable_order(remaining_sets, per_round)
    quotas = [p for p in per_round if p > 0]
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
    return LpProblem("max", objective, A, relations, rhs)


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
    return LpProblem("min", objective, A, relations, rhs)


def color_sampling_probs(
    values: Sequence[float],
    groups: Sequence[Sequence[int]],
    quotas: Sequence[int],
) -> list[np.ndarray]:
    """Turn the x part of an optimal relaxation into per-color sampling laws.

    values, any sequence of floats, must start with the x block laid out
    like lp_variable_order's output. The x block is clipped to [0,1]; if a
    color's mass then strays more than MASS_DRIFT_TOL from its quota, or is
    not a number, the solve was numerically unsound and NumericalFailure
    is raised. The returned vectors sum to one.
    """
    sizes = [len(g) for g in groups]
    x = np.asarray(values, dtype=float)[: sum(sizes)].clip(0.0, 1.0)
    out: list[np.ndarray] = []
    pos = 0
    for size, p in zip(sizes, quotas):
        xs = x[pos : pos + size]
        pos += size
        mass = xs.sum()
        drift = abs(float(mass) - p)
        if not drift <= MASS_DRIFT_TOL:
            raise NumericalFailure(
                f"color mass drifted {drift:.3e} from quota {p}"
            )
        out.append(xs / mass)
    return out


def round_laws(remaining_sets: Sequence[Sequence[int]], per_round: Sequence[int]):
    """The sampling laws of a round's solved relaxations, as a function
    from an optimal point's values to (groups, quotas, probs): groups in
    lp_variable_order, quotas the nonzero entries of per_round and probs
    color_sampling_probs of the values' x block. Groups and quotas are
    derived once per round, however many relaxations the round solves."""
    groups = lp_variable_order(remaining_sets, per_round)
    quotas = [p for p in per_round if p > 0]
    return lambda values: (groups, quotas, color_sampling_probs(values, groups, quotas))
