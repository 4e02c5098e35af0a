"""Dense bounded dual simplex plus the relaxation builders used by the rounding algorithms.

The solver is deliberately small: desk-scale problems (tens of variables)
with box bounds. Bounds are implicit: lower bounds are shifted to zero,
every row gets one slack bounded by its relation, and a nonbasic column
sits at one of its finite bounds. Putting each variable at the bound its
cost favours makes the slack basis dual feasible, so a cold solve and a
warm one run the same two loops: dual-simplex pivots until every basic
value is within its bounds, then primal pivots on the true costs, which
find an unbounded problem and clean up drift. Bland's rule keeps both
cycle-free and a generous pivot budget turns pathological stalls into a
loud NumericalFailure instead of a hang.

The boundary is arrays on both sides. An LpProblem is built from the
objective, the constraint matrix A, one relation string per row, the
right-hand sides rhs and optional (lo, hi) bounds; float64 arrays are
adopted without a copy and made read-only, and non-finite data is refused
(an upper bound may be +inf, which means none). An LpSolution carries the
optimal point as a read-only float64 array. Every basis change goes
through one tableau-update step (_pivot), which also records the entering
column in the basis, the one record of which column is basic. It keeps
every basic column an exact unit vector, so a basic column's reduced cost
is exactly 0 and its entries exactly 0 or 1.

solve() has two halves: _optimize builds a problem's tableau and runs the
two loops (a warm resume runs them on a kept tableau instead), and _read,
which every path shares, turns an optimal tableau into a checked
LpSolution. LpProblem.retarget(target) gives the
problem with its last row's rhs set to target; every problem re-targeted
from one relaxation shares its validated arrays and row intervals, so a
family is validated once, when its first problem is built, and each
re-target copies only the rhs. The family also shares a record of the
last target solved to optimality and its final tableau, and solve()
resumes any target of the family from that tableau instead of from
scratch; this is how the eff_wfsc target sweep re-solves tau + 1 after
tau. A warm answer has the cold answer's status and objective, but on a
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
# Pivoting threshold: entries, reduced costs and bound violations smaller
# than this are treated as zero.
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
    _band: tuple[np.ndarray, np.ndarray]  # each row's (lo, hi) for A x - rhs, see _violated

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
        band = (np.where(rel == "<=", -math.inf, 0.0), np.where(rel == ">=", math.inf, 0.0))
        for a in (obj, A, b, bnds, *band):
            a.flags.writeable = False
        self.sense = sense
        self.objective = obj
        self.A = A
        self.relations = rels
        self.rhs = b
        self.bounds = bnds
        self._band = band
        self._family = None

    def retarget(self, target: float) -> LpProblem:
        """This problem with only its last row's rhs set to target. It
        shares every other array without validating it again, and one
        family record with this problem and every problem re-targeted from
        it, so solve() can resume any target from the last one solved.
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
            _band=self._band, _family=self._family,
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


def _pivot(tab: _Tableau, leave: int, enter: int, side: float) -> None:
    """Make column enter basic in row leave and set basis[leave] = enter.
    The leaving column goes nonbasic at its lower bound when side is +1
    and at its upper bound when side is -1.

    The last column first becomes the basic values with enter at 0 and, in
    row leave, less the leaving bound, which the row operations turn into
    the values after the exchange. Then row leave is divided by the pivot
    and T[r, enter] times it is subtracted from every other row r. Basic
    columns stay exact unit vectors: enter's gets x / x = 1 and
    T[r, enter] - T[r, enter] * 1 = 0, and every other one has an exact 0
    in row leave, so each row subtracts T[r, enter] * 0."""
    T, basis, dirs, lo, hi = tab.T, tab.basis, tab.dirs, tab.lo, tab.hi
    if dirs[enter] < 0:
        T[:, -1] += hi[enter] * T[:, enter]
    out = basis[leave]
    T[leave, -1] -= lo[out] if side > 0 else hi[out]
    dirs[out] = side if lo[out] < hi[out] else 0.0
    dirs[enter] = 0.0
    prow = T[leave] / T[leave, enter]
    T -= T[:, enter, None] * prow
    T[leave] = prow
    basis[leave] = enter


@dataclass
class _Tableau:
    """A bounded simplex tableau of a problem with its lower bounds
    shifted to zero and one slack per row: T is B^-1 [A I], m x (ncols+1),
    with the basic values in its last column, and basis[r] is row r's basic
    column. lo and hi bound every column. A nonbasic column sits at a
    finite bound, and dirs gives the way it can move from there: +1 up
    from lo, -1 down from hi, and 0 for a basic or fixed column. cost is
    the min-sense cost of every column and budget each loop's pivot
    budget."""

    T: np.ndarray
    basis: np.ndarray
    dirs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cost: np.ndarray
    budget: int


def _dual_loop(tab: _Tableau, cost: np.ndarray) -> str:
    """Run dual-simplex pivots (Lemke 1954) in place on a tableau whose
    reduced costs under cost are dual feasible, until every basic value is
    within its bounds: 'optimal', or 'infeasible' when a row cannot be
    brought in.

    Bland's rule: the leaving row is the out-of-bounds row with the
    smallest basic index, and it leaves at the bound it broke. The entering
    column is a nonbasic column that can move in the direction that brings
    the row toward that bound, with the least |reduced cost / entry|, ties
    to the smallest index."""
    T, basis, dirs, lo, hi = tab.T, tab.basis, tab.dirs, tab.lo, tab.hi
    ncols = T.shape[1] - 1
    vals = T[:, -1]
    low, high = lo[basis] - _PIVOT_TOL, hi[basis] + _PIVOT_TOL
    # Carried across pivots here; the primal loop recomputes them afresh.
    reduced = cost - cost[basis] @ T[:, :ncols]
    for _ in range(tab.budget):
        out = ((vals < low) | (vals > high)).nonzero()[0]
        if out.size == 0:
            return "optimal"
        leave = int(out[basis[out].argmin()])
        below = vals[leave] < low[leave]
        # Raising column j by t lowers row leave's value by T[leave, j] * t.
        row = T[leave, :ncols]
        moves = row * dirs
        cols = (moves < -_PIVOT_TOL if below else moves > _PIVOT_TOL).nonzero()[0]
        if cols.size == 0:
            return "infeasible"
        ratios = np.abs(reduced[cols] / row[cols])
        enter = int(cols[(ratios <= ratios.min() + _PIVOT_TOL).argmax()])
        _pivot(tab, leave, enter, 1.0 if below else -1.0)
        reduced -= reduced[enter] * T[leave, :ncols]
        low[leave], high[leave] = lo[enter] - _PIVOT_TOL, hi[enter] + _PIVOT_TOL
    raise NumericalFailure(f"dual pivot budget {tab.budget} exhausted")


def _primal_loop(tab: _Tableau) -> str:
    """Run bounded primal-simplex pivots (Bland) in place on a tableau
    whose basic values are within their bounds (up to _PIVOT_TOL), until
    no column improves tab.cost: 'optimal' or 'unbounded'.

    The entering column is the smallest-index nonbasic column whose
    reduced cost improves in the direction it can move. It moves until it
    reaches its other bound, which flips it without a pivot, or until a
    basic value reaches a bound; among tied rows the smallest basic index
    leaves. The reduced costs are recomputed from cost on every pass
    rather than carried as a tableau row, so rounding never accumulates in
    them."""
    T, basis, dirs, lo, hi, cost = tab.T, tab.basis, tab.dirs, tab.lo, tab.hi, tab.cost
    ncols = T.shape[1] - 1
    for _ in range(tab.budget):
        # A basic column's reduced cost is cost[j] - cost[j] * 1 = 0.
        eligible = (cost - cost[basis] @ T[:, :ncols]) * dirs < -_PIVOT_TOL
        enter = int(eligible.argmax())
        if not eligible[enter]:
            return "optimal"
        # Moving enter by dirs[enter] * t moves basic value r by -col[r] * t.
        col = T[:, enter] * dirs[enter]
        vals, lob, hib = T[:, -1], lo[basis], hi[basis]
        falls = col > _PIVOT_TOL
        rows = (falls | (col < -_PIVOT_TOL)).nonzero()[0]
        room = np.where(falls[rows], vals[rows] - lob[rows], hib[rows] - vals[rows])
        ratios = np.maximum(room / np.abs(col[rows]), 0.0)
        least = ratios.min(initial=math.inf)
        span = hi[enter] - lo[enter]
        if span <= least:
            if span == math.inf:
                return "unbounded"
            T[:, -1] -= dirs[enter] * span * T[:, enter]
            dirs[enter] = -dirs[enter]
            continue
        tied = rows[ratios <= least + _PIVOT_TOL]
        leave = int(tied[basis[tied].argmin()])
        _pivot(tab, leave, enter, 1.0 if falls[leave] else -1.0)
    raise NumericalFailure(f"pivot budget {tab.budget} exhausted")


def solve(problem: LpProblem) -> LpSolution:
    """Bounded dual simplex over the given problem, read from its arrays,
    cold or resumed from the last optimal tableau of its family (see
    LpProblem.retarget).

    Cold: _optimize builds the slack-basis tableau and runs the dual loop,
    then the primal loop. Warm: the family record holds the optimal
    tableau of the last target solved. Setting the last row's rhs from
    that target to this one moves the basic values by the change times
    B^-1 e_last, which is the tableau column of the last row's slack; the
    dual loop then brings every basic value back within its bounds (or
    proves the target infeasible) and the primal loop cleans up reduced
    costs left just inside the pivoting tolerance. Either way _read checks
    the residuals and recomputes the objective from the original
    coefficients.
    """
    if problem.num_vars == 0:
        # Every row reads 0 (relation) rhs, so the rows alone decide.
        if _violated(problem, -problem.rhs, 0.0).size:
            return _INFEASIBLE
        return LpSolution("optimal", _NO_VALUES, 0.0)
    family = problem._family
    tab = None
    if family is not None:
        last, tab = family
        # The record is spent however this solve ends; an optimal solve
        # refills it.
        family[:] = math.nan, None
    if tab is not None:
        tab.T[:, -1] += (problem.rhs[-1] - last) * tab.T[:, -2]
        status = _dual_loop(tab, tab.cost)
        if status == "optimal":
            status = _primal_loop(tab)
    else:
        status, tab = _optimize(problem)
    if status == "infeasible":
        return _INFEASIBLE
    if status == "unbounded":
        return _UNBOUNDED
    sol = _read(problem, tab)
    if family is not None:
        family[:] = problem.rhs[-1], tab
    return sol


def _optimize(problem: LpProblem) -> tuple[str, _Tableau]:
    """Solve problem cold from its slack basis.

    Lower bounds are shifted to zero, and row i gets the slack s_i in
    A x + s = rhs, bounded by the row's relation: [0, +inf) for "<=",
    (-inf, 0] for ">=" and [0, 0] for "=". Each variable starts at the
    bound its cost favours, so the slack basis is dual feasible; a
    variable whose cost favours an infinite upper bound starts at its lower
    bound with its cost zeroed for the dual loop only. The dual loop then
    brings every basic value within its bounds, and the primal loop
    finishes on the true costs. Returns the status and the final tableau.
    """
    nvar, m = problem.num_vars, len(problem.relations)
    ncols = nvar + m
    lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
    c = problem.objective if problem.sense == "min" else -problem.objective
    band_lo, band_hi = problem._band
    cost = np.concatenate((c, np.zeros(m)))
    span = hi - lo
    at_hi = (c < 0) & np.isfinite(span)
    tab = _Tableau(
        T=np.empty((m, ncols + 1)),
        basis=nvar + np.arange(m),
        dirs=np.zeros(ncols),
        # A slack's bounds are its row's interval for A x - rhs, negated.
        lo=np.concatenate((np.zeros(nvar), 0.0 - band_hi)),
        hi=np.concatenate((span, 0.0 - band_lo)),
        cost=cost,
        budget=50 * (ncols + m),
    )
    tab.dirs[:nvar] = np.where(at_hi, -1.0, 1.0) * (span > 0)
    tab.T[:, :nvar] = problem.A
    tab.T[:, nvar:-1] = np.eye(m)
    tab.T[:, -1] = problem.rhs - problem.A @ (lo + np.where(at_hi, span, 0.0))
    dual_cost = cost.copy()
    dual_cost[:nvar][(c < 0) & ~at_hi] = 0.0
    status = _dual_loop(tab, dual_cost)
    if status == "optimal":
        status = _primal_loop(tab)
    return status, tab


def _read(problem: LpProblem, tab: _Tableau) -> LpSolution:
    """The optimal point of tab in problem's variables. Every row's
    residual is checked, and the objective is recomputed from the original
    coefficients so tableau drift never leaks into comparisons."""
    x_shift = np.where(tab.dirs < 0, tab.hi, tab.lo)
    x_shift[tab.basis] = tab.T[:, -1]
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
    relation by more than tol: one interval test per row, the interval
    being (-inf, 0] for "<=", [0, +inf) for ">=" and [0, 0] for "="."""
    lo, hi = problem._band
    return ((resid < lo - tol) | (resid > hi + tol)).nonzero()[0]


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
    # which pins y_e to zero without special casing. Row r of bits is the
    # mask of set x_ids[r], bit e in column e.
    width = (system.n + 7) // 8
    data = b"".join([system.masks[i].to_bytes(width, "little") for i in x_ids])
    bits = np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little")
    A[nq : nq + ny, :nx] = bits.reshape(nx, 8 * width)[:, uncovered].T
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
