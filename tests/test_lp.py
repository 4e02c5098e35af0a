"""Simplex solver and relaxation builders, checked against an independent
vertex-enumeration oracle."""

import math

import numpy as np
import pytest

from faircover.errors import DimensionMismatch, InsufficientColor, NumericalFailure
from faircover.lp import (
    FEAS_TOL,
    LpProblem,
    LpSolution,
    _violated,
    build_mkcc_lp,
    build_weighted_mkcc_lp,
    color_sampling_probs,
    lp_variable_order,
    solve,
)
from faircover.model import SetSystem, count_parity
from faircover.unweighted import eff_fsc
from faircover.weighted import eff_wfsc

from support import c01_instance, enumerate_lp


def square_system():
    return SetSystem(6, [[0, 1, 2], [3, 4], [3, 4, 5], [0, 5]], [0, 0, 1, 1])


def objective_close(a, b):
    return abs(a - b) <= 1e-7 * (1.0 + max(abs(a), abs(b)))


# ------------------------------------------------------------- solve basics


def test_single_variable_maximization_hits_cap():
    lp = LpProblem("max", [1.0], [[1.0]], ["<="], [0.5])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.5, abs=FEAS_TOL)
    assert sol.values[0] == pytest.approx(0.5, abs=FEAS_TOL)


def test_contradictory_rows_are_infeasible():
    lp = LpProblem("max", [1.0, 1.0], [[1.0, 1.0]], [">="], [3.0])  # both capped at 1
    assert solve(lp).status == "infeasible"


def test_equality_pins_value():
    lp = LpProblem("min", [1.0, 2.0], [[1.0, 1.0]], ["="], [1.0])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert sol.values[0] == pytest.approx(1.0)


def test_unbounded_detected_with_open_bounds():
    lp = LpProblem("max", [1.0], [], [], [], bounds=[(0.0, math.inf)])
    assert solve(lp).status == "unbounded"
    lp2 = LpProblem(
        "max", [1.0, 1.0], [[1.0, -1.0]], ["<="], [1.0],
        bounds=[(0.0, math.inf), (0.0, math.inf)],
    )
    assert solve(lp2).status == "unbounded"


@pytest.mark.parametrize(
    "relation, rhs, status",
    [
        ("<=", -1.0, "infeasible"), ("<=", 0.0, "optimal"), ("<=", 1.0, "optimal"),
        (">=", -1.0, "optimal"), (">=", 0.0, "optimal"), (">=", 1.0, "infeasible"),
        ("=", -1.0, "infeasible"), ("=", 0.0, "optimal"), ("=", 1.0, "infeasible"),
    ],
)
def test_problem_without_variables_is_decided_by_its_rows(relation, rhs, status):
    # Every row reads 0 (relation) rhs; a second row that holds changes nothing.
    for sense in ("min", "max"):
        for rows, rels, b in (([[]], [relation], [rhs]),
                              ([[], []], ["<=", relation], [0.0, rhs])):
            sol = solve(LpProblem(sense, [], np.zeros((len(rows), 0)), rels, b))
            assert sol.status == status
            assert sol.values.size == 0
            if status == "optimal":
                assert sol.objective == 0.0
            else:
                assert math.isnan(sol.objective)
    assert solve(LpProblem("min", [], [], [], [])).status == "optimal"


def test_arrays_are_adopted_read_only():
    # Float64 arrays become the problem's own without a copy; solve() hands
    # back the optimal point as a read-only float64 array.
    objective, A, rhs = np.array([1.0, 1.0]), np.array([[1.0, 2.0]]), np.array([1.0])
    lp = LpProblem("max", objective, A, ["<="], rhs)
    assert lp.objective is objective and lp.A is A and lp.rhs is rhs
    assert not A.flags.writeable
    sol = solve(lp)
    assert sol.values.dtype == np.float64 and not sol.values.flags.writeable
    assert sol.values.tolist() == [1.0, 0.0]


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        LpProblem("max", [1.0, 1.0], [[1.0]], ["<="], [1.0])
    with pytest.raises(DimensionMismatch):
        LpProblem("max", [1.0], [[1.0]], ["<=", "<="], [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        LpProblem("max", [1.0], [], [], [], bounds=[(0, 1), (0, 1)])


def test_nonfinite_lower_bound_rejected():
    with pytest.raises(ValueError):
        LpProblem("max", [1.0], [], [], [], bounds=[(-math.inf, 1.0)])


@pytest.mark.parametrize("objective, A, rhs, bounds", [
    ([math.nan], [[1.0]], [5.0], None),
    ([math.inf], [[1.0]], [5.0], None),
    ([1.0], [[math.nan]], [5.0], None),
    ([1.0], [[-math.inf]], [5.0], None),
    ([1.0], [[1.0]], [math.nan], None),
    ([1.0], [[1.0]], [math.inf], None),
    ([1.0], [[1.0]], [5.0], [(0.0, math.nan)]),
    ([1.0], [[1.0]], [5.0], [(0.0, -math.inf)]),
])
def test_nonfinite_data_rejected(objective, A, rhs, bounds):
    # Unchecked, a NaN upper bound reads as "no bound", a NaN rhs escapes as
    # numpy's argmin error and a NaN objective comes back optimal with
    # objective nan. An upper bound of +inf stays allowed (see
    # test_unbounded_detected_with_open_bounds).
    with pytest.raises(ValueError):
        LpProblem("max", objective, A, ["<="], rhs, bounds=bounds)


def test_general_bounds_shifted_correctly():
    lp = LpProblem(
        "min", [1.0, -1.0], [[1.0, 1.0]], ["<="], [5.0],
        bounds=[(2.0, 4.0), (1.0, 3.0)],
    )
    sol = solve(lp)
    status, val, _ = enumerate_lp(lp)
    assert sol.status == status == "optimal"
    assert objective_close(sol.objective, val)


def test_equal_bounds_pin_the_variable():
    # hi == lo fixes the variable: maximizing it must not run off upward.
    lp = LpProblem("max", [1.0, 1.0], [[0.0, 1.0]], ["<="], [1.0], bounds=[(1.0, 1.0), (0.0, 2.0)])
    sol = assert_matches_enumeration(lp)
    assert sol.status == "optimal" and sol.values.tolist() == [1.0, 1.0]


# ------------------------------------------------- zero-rhs ">=" row path
# The relaxations' coverage rows are ">=" rows with a zero (shifted) rhs.
# These cases pin them against vertex enumeration.


def assert_matches_enumeration(lp):
    sol = solve(lp)
    status, val, _ = enumerate_lp(lp)
    assert sol.status == status, (sol.status, status)
    if status == "optimal":
        assert objective_close(sol.objective, val), (sol.objective, val)
    return sol


def test_zero_rhs_row_slack_at_optimum():
    # x0 + x1 = 1 with x0 - x1 >= 0; minimizing x1 leaves the row at 1 > 0.
    lp = LpProblem("min", [0.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], ["=", ">="], [1.0, 0.0])
    sol = assert_matches_enumeration(lp)
    assert sol.objective == pytest.approx(0.0, abs=FEAS_TOL)
    assert sol.values[0] - sol.values[1] == pytest.approx(1.0, abs=FEAS_TOL)


def test_zero_rhs_row_binds_at_optimum():
    # Maximizing x1 pushes x0 - x1 >= 0 onto its bound: x0 = x1 = 1/2.
    lp = LpProblem("max", [0.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], ["=", ">="], [1.0, 0.0])
    sol = assert_matches_enumeration(lp)
    assert sol.objective == pytest.approx(0.5, abs=FEAS_TOL)
    assert sol.values[0] - sol.values[1] == pytest.approx(0.0, abs=FEAS_TOL)


def test_zero_rhs_row_infeasible_with_quota_equality():
    # The quota x0 + x1 = 2 forces x0 = 1, and the coverage-shaped row
    # x2 - x0 >= 0 then needs x2 >= 1, past x2's cap of 1/2.
    lp = LpProblem(
        "max", [0.0, 0.0, 1.0],
        [[1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]], ["=", ">="], [2.0, 0.0],
        bounds=[(0.0, 1.0), (0.0, 1.0), (0.0, 0.5)],
    )
    assert_matches_enumeration(lp)
    assert solve(lp).status == "infeasible"


def test_lower_bound_shifts_rhs_to_zero():
    # x0 + x1 >= 3 with x0 >= 1 and x1 >= 2: the shifted rhs is exactly zero.
    for sense in ("min", "max"):
        lp = LpProblem(
            sense, [2.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [">=", "<="], [3.0, 0.5],
            bounds=[(1.0, 2.5), (2.0, 3.0)],
        )
        sol = assert_matches_enumeration(lp)
        assert sol.status == "optimal"
        assert sol.values[0] + sol.values[1] >= 3.0 - FEAS_TOL


def test_zero_rhs_rows_need_no_phase_one(monkeypatch):
    # Every row starts from its slack, ">=" rows with a zero rhs included:
    # there is no phase one. Minimizing y, every variable starts at its
    # lower bound, which meets every row, so the cold start is optimal as
    # it stands. Maximizing y starts it at 1 and each coverage row out of
    # bounds, and dual pivots bring x in.
    import faircover.lp as lp_mod

    pivots = []
    real = lp_mod._pivot

    def counting(*args):
        pivots.append(1)
        return real(*args)

    monkeypatch.setattr(lp_mod, "_pivot", counting)
    parts = ([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0], [1.0, 1.0, 0.0, 0.0]],
             [">=", ">=", "<="], [0.0, 0.0, 1.0])
    sol = solve(LpProblem("min", [0.0, 0.0, 1.0, 1.0], *parts))
    assert sol.status == "optimal" and sol.values.tolist() == [0.0] * 4
    assert pivots == []
    sol = assert_matches_enumeration(LpProblem("max", [0.0, 0.0, 1.0, 1.0], *parts))
    assert sol.objective == pytest.approx(1.0, abs=FEAS_TOL)
    assert pivots


def test_point_left_off_its_rows_is_typed(monkeypatch):
    # A loop that stops with a row unmet must surface as a NumericalFailure
    # from _read's residual check, not as a wrong answer or a bare assert
    # that python -O would strip. Here the dual loop stops at once, so the
    # "=" row's slack keeps the value 1 its bounds [0, 0] forbid.
    import faircover.lp as lp_mod

    monkeypatch.setattr(lp_mod, "_dual_loop", lambda tab, cost: "optimal")
    lp = LpProblem("min", [1.0, 2.0], [[1.0, 1.0]], ["="], [1.0])
    with pytest.raises(NumericalFailure):
        solve(lp)


# ------------------------------------------------------------ pivot kernel


def test_pivot_budget_exhaustion_is_typed():
    # min -x0 - x1 with slack rows x0 <= 1, x1 <= 1 needs two primal steps
    # from the slack basis and a third pass to see that no column improves:
    # a budget of two passes must fail loudly, three must finish. With
    # open bounds both steps are pivots; with x0, x1 capped at 1 both are
    # bound flips, which spend the budget alike.
    import faircover.lp as lp_mod

    def tableau(hi, budget):
        T = np.array([[1.0, 0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0, 1.0]])
        return lp_mod._Tableau(
            T, np.array([2, 3]), np.array([1.0, 1.0, 0.0, 0.0]), np.zeros(4),
            np.array([hi, hi, math.inf, math.inf]), np.array([-1.0, -1.0, 0.0, 0.0]), budget)

    for hi, basis, values in ((math.inf, [0, 1], [1.0, 1.0]), (1.0, [2, 3], [0.0, 0.0])):
        with pytest.raises(NumericalFailure):
            lp_mod._primal_loop(tableau(hi, 2))
        tab = tableau(hi, 3)
        assert lp_mod._primal_loop(tab) == "optimal"
        assert sorted(tab.basis.tolist()) == basis
        assert tab.T[:, -1].tolist() == values


def test_ratio_tie_leaves_smallest_basic_index():
    # max x1 + x2 - x3 over three "<=" rows with rhs 1 starts feasible, with
    # x1 and x2 at 0 (their costs favour an open upper bound), so the
    # primal loop runs alone. Its first pivot brings x1 in with a ratio tie
    # between rows 0 and 1, whose slacks (columns 4 and 5) are basic.
    # Bland's rule drops the slack of row 0, which leads to (0, 1, 2, 0);
    # dropping the larger basic index would end at (0, 2, 2, 1). Both score
    # 3, the optimum: the duals (2, 0, 1) bound it.
    lp = LpProblem(
        "max", [0.0, 1.0, 1.0, -1.0],
        [[1.0, 1.0, 0.0, -1.0], [1.0, 1.0, -1.0, 1.0], [0.0, -1.0, 1.0, 1.0]],
        ["<="] * 3, [1.0] * 3,
        bounds=[(0.0, 1.0)] + [(0.0, math.inf)] * 3,
    )
    sol = solve(lp)
    assert sol.values.tolist() == [0.0, 1.0, 2.0, 0.0]
    assert sol.objective == 3.0


# ------------------------------------------- randomized oracle cross-check


def random_lp(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 9))
    sense = "max" if rng.random() < 0.5 else "min"
    objective = rng.integers(-4, 5, size=n).astype(float)
    A = np.empty((m, n))
    relations = []
    rhs = np.empty(m)
    for r in range(m):
        A[r] = rng.integers(-3, 4, size=n)
        roll = rng.random()
        if roll < 0.15 and relations.count("=") < min(2, n - 1):
            relations.append("=")
        elif roll < 0.6:
            relations.append("<=")
        else:
            relations.append(">=")
        rhs[r] = rng.integers(-2, 5)
    hi = 1.0 if rng.random() < 0.7 else 3.0
    bounds = [(0.0, hi)] * n
    return LpProblem(sense, objective, A, relations, rhs, bounds)


def test_solver_matches_vertex_enumeration_on_random_boxes():
    rng = np.random.default_rng(20240811)
    optimal = infeasible = 0
    for _ in range(60):
        lp = random_lp(rng)
        sol = solve(lp)
        status, val, _ = enumerate_lp(lp)
        assert sol.status == status, (lp, sol.status, status)
        if status == "optimal":
            optimal += 1
            assert objective_close(sol.objective, val), (lp, sol.objective, val)
        else:
            infeasible += 1
    # the family must exercise both outcomes to mean anything
    assert optimal > 10 and infeasible > 3


def test_reported_solutions_respect_constraints():
    rng = np.random.default_rng(7)
    for _ in range(40):
        lp = random_lp(rng)
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        x = sol.values
        for row, rel, b in lp.constraints:
            v = float(row @ x)
            if rel == "=":
                assert abs(v - b) <= 1e-6
            elif rel == "<=":
                assert v <= b + 1e-6
            else:
                assert v >= b - 1e-6
        for j, (lo, hi) in enumerate(lp.bounds):
            assert lo - FEAS_TOL <= x[j] <= hi + FEAS_TOL


# -------------------------------------------------------------- mkcc builder


def test_mkcc_lp_shape_and_objective():
    sys_ = square_system()
    lp = build_mkcc_lp(sys_, sys_.sets_by_color, range(6), (1, 1))
    assert lp.num_vars == 4 + 6
    eq = [c for c in lp.constraints if c[1] == "="]
    cov = [c for c in lp.constraints if c[1] == ">="]
    assert len(eq) == 2 and len(cov) == 6
    sol = solve(lp)
    assert sol.status == "optimal"
    # One set of each color can cover everything, so the relaxation reaches 6.
    assert sol.objective == pytest.approx(6.0, abs=1e-9)


def test_mkcc_lp_agrees_with_vertex_enumeration():
    sys_ = SetSystem(5, [[0, 1], [2], [2, 3], [4], [0, 4]], [0, 0, 1, 1, 1])
    lp = build_mkcc_lp(sys_, sys_.sets_by_color, range(5), (1, 1))
    sol = solve(lp)
    status, val, _ = enumerate_lp(lp)
    assert sol.status == status == "optimal"
    assert objective_close(sol.objective, val)


def test_mkcc_lp_per_color_mass_is_exact():
    sys_ = square_system()
    lp = build_mkcc_lp(sys_, sys_.sets_by_color, range(6), (1, 1))
    sol = solve(lp)
    x = sol.values
    assert abs(x[0] + x[1] - 1.0) <= FEAS_TOL
    assert abs(x[2] + x[3] - 1.0) <= FEAS_TOL


def test_mkcc_lp_skips_zero_quota_colors():
    sys_ = square_system()
    lp = build_mkcc_lp(sys_, sys_.sets_by_color, range(6), (2, 0))
    # only the two red sets get variables
    assert lp.num_vars == 2 + 6
    assert lp_variable_order(sys_.sets_by_color, (2, 0)) == ((0, 1),)


def test_mkcc_lp_insufficient_color():
    sys_ = square_system()
    with pytest.raises(InsufficientColor):
        build_mkcc_lp(sys_, [[0, 1], []], range(6), (1, 1))


def test_mkcc_lp_requires_uncovered_elements():
    sys_ = square_system()
    with pytest.raises(ValueError):
        build_mkcc_lp(sys_, sys_.sets_by_color, [], (1, 1))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 70])
def test_coverage_block_matches_the_sets(n):
    # Entry (e, i) of the coverage rows is 1 exactly when set i holds
    # element e; ids outside [0, n) are ignored, as the masks ignore them.
    rng = np.random.default_rng(n)
    sets = [rng.integers(-3, n + 3, size=rng.integers(0, 9)).tolist() for _ in range(9)]
    sys_ = SetSystem(n, sets, [0, 0, 0, 1, 1, 1, 2, 2, 2], [1.0] * 9)
    remaining = [[0, 2], [3, 4, 5], [6, 8]]
    uncovered = sorted(rng.choice(n, size=(n + 1) // 2, replace=False).tolist())
    for per_round in ((1, 1, 1), (1, 0, 2)):
        x_ids = [i for g in lp_variable_order(remaining, per_round) for i in g]
        nq = sum(p > 0 for p in per_round)
        want = [[float(e in sys_.sets[i]) for i in x_ids] for e in uncovered]
        for lp in (build_mkcc_lp(sys_, remaining, uncovered, per_round),
                   build_weighted_mkcc_lp(sys_, remaining, uncovered, per_round, 1)):
            assert lp.A[nq : nq + len(uncovered), : len(x_ids)].tolist() == want


def test_mkcc_relaxation_dominates_every_tuple():
    # The relaxation optimum upper-bounds the best integral round.
    sys_ = SetSystem(
        8,
        [[0, 1, 2], [2, 3], [4, 5], [1, 5, 6], [0, 7], [6, 7]],
        [0, 0, 0, 1, 1, 1],
    )
    lp = build_mkcc_lp(sys_, sys_.sets_by_color, range(8), (1, 1))
    sol = solve(lp)
    best = 0
    for i in sys_.sets_by_color[0]:
        for j in sys_.sets_by_color[1]:
            best = max(best, len(set(sys_.sets[i]) | set(sys_.sets[j])))
    assert sol.objective >= best - 1e-9


# ---------------------------------------------------------- weighted builder


def test_weighted_lp_requires_valid_tau():
    sys_ = square_system()
    with pytest.raises(ValueError):
        build_weighted_mkcc_lp(sys_, sys_.sets_by_color, range(6), (1, 1), 0)
    with pytest.raises(ValueError):
        build_weighted_mkcc_lp(sys_, sys_.sets_by_color, range(6), (1, 1), 7)


def test_weighted_lp_unit_weights_full_tau():
    sys_ = square_system()
    lp = build_weighted_mkcc_lp(sys_, sys_.sets_by_color, range(6), (1, 1), 6)
    sol = solve(lp)
    assert sol.status == "optimal"
    # Unit weights and one set per color: any feasible point costs the
    # number of colors.
    assert sol.objective == pytest.approx(2.0, abs=1e-9)


def test_weighted_lp_objective_uses_weights():
    sys_ = SetSystem(6, [[0, 1, 2], [3, 4], [3, 4, 5], [0, 5]], [0, 0, 1, 1],
                     [5.0, 1.0, 1.0, 2.0])
    lp = build_weighted_mkcc_lp(sys_, sys_.sets_by_color, range(6), (1, 1), 1)
    sol = solve(lp)
    status, val, _ = enumerate_lp(lp)
    assert sol.status == status == "optimal"
    assert objective_close(sol.objective, val)
    # Covering one element is cheapest with the two unit-weight sets.
    assert sol.objective == pytest.approx(2.0, abs=1e-9)


def test_weighted_lp_infeasible_when_tau_exceeds_reach():
    # Color 1's only set is tiny, so high targets cannot be met.
    sys_ = SetSystem(4, [[0], [1], [2]], [0, 0, 1])
    lp = build_weighted_mkcc_lp(sys_, sys_.sets_by_color, range(4), (1, 1), 3)
    assert solve(lp).status == "infeasible"


# ------------------------------------------------------------ sampling mass


def test_color_sampling_probs_normalize():
    groups = ((0, 1), (2, 3))
    probs = color_sampling_probs([0.25, 0.75, 1.0, 0.0], groups, [1, 1])
    assert np.allclose(probs[0], [0.25, 0.75])
    assert np.allclose(probs[1], [1.0, 0.0])
    for pr in probs:
        assert pr.sum() == pytest.approx(1.0)


def test_color_sampling_probs_clip_noise():
    groups = ((0, 1),)
    probs = color_sampling_probs([1.0000000001, -1e-10], groups, [1])
    assert probs[0][0] == pytest.approx(1.0)


def test_color_sampling_probs_flag_drift():
    groups = ((0, 1),)
    with pytest.raises(NumericalFailure):
        color_sampling_probs([0.4, 0.4], groups, [1])
    # A mass that is not a number drifts by nan, which no tolerance holds.
    with pytest.raises(NumericalFailure):
        color_sampling_probs([math.nan, 1.0], groups, [1])


@pytest.mark.parametrize("run", [
    lambda sys_, solver: eff_fsc(sys_, count_parity(2), "lp", rng=1, lp_solver=solver),
    lambda sys_, solver: eff_wfsc(sys_, count_parity(2), rng=1, lp_solver=solver),
], ids=["eff_fsc_lp", "eff_wfsc"])
def test_nan_masses_from_a_user_solver_are_a_numerical_failure(run):
    def nan_first(problem):
        sol = solve(problem)
        values = sol.values.copy()
        values[0] = math.nan
        return LpSolution(sol.status, values, sol.objective)

    with pytest.raises(NumericalFailure):
        run(square_system(), nan_first)


# ------------------------------------------ differential check against HiGHS


def highs_solve(lp):
    """Status and objective of lp under scipy's HiGHS, in solve()'s terms."""
    from scipy.optimize import linprog

    sign = 1.0 if lp.sense == "min" else -1.0
    c = sign * np.array(lp.objective)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, rel, b in lp.constraints:
        if rel == "=":
            A_eq.append(row)
            b_eq.append(b)
        elif rel == "<=":
            A_ub.append(row)
            b_ub.append(b)
        else:
            A_ub.append([-a for a in row])
            b_ub.append(-b)
    res = linprog(
        c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=lp.bounds,
        method="highs",
    )
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    assert res.status == 0, res.message
    return "optimal", sign * res.fun


def c01_instances():
    """Every 13th of criterion 01's 200 instances: all three of its kinds at
    n = 10 .. 40, too large for vertex enumeration."""
    return [c01_instance(idx) for idx in range(0, 200, 13)]


def test_solver_matches_highs_on_c01_relaxations():
    pytest.importorskip("scipy")
    from faircover.weighted import eff_wfsc

    from support import replay_states

    optimal = infeasible = 0
    for sys_, spec in c01_instances():
        per_round = spec.per_round
        cover = eff_wfsc(sys_, spec, rng=0)
        for uncovered, remaining, _ in replay_states(sys_, cover.rounds):
            if any(len(remaining[h]) < p for h, p in enumerate(per_round)):
                continue
            uncovered = sorted(uncovered)
            lps = [build_mkcc_lp(sys_, remaining, uncovered, per_round)]
            lps += [
                build_weighted_mkcc_lp(sys_, remaining, uncovered, per_round, tau)
                for tau in range(1, len(uncovered) + 1)
            ]
            for lp in lps:
                sol = solve(lp)
                status, val = highs_solve(lp)
                assert sol.status == status, (sol.status, status)
                if status == "optimal":
                    optimal += 1
                    assert abs(sol.objective - val) <= 1e-6 * (1.0 + abs(val)), (
                        sol.objective, val)
                else:
                    infeasible += 1
    # Both outcomes must occur for the comparison to mean anything.
    assert optimal > 100 and infeasible > 20


def random_open_lp(rng):
    """A random LP of 1-4 variables and 1-4 rows whose bounds start at -1,
    0 or 1 and span 0, 1, 2 or no limit, with costs of both signs."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    objective = rng.integers(-3, 4, size=n).astype(float)
    A = rng.integers(-2, 3, size=(m, n)).astype(float)
    relations = rng.choice(["<=", ">=", "="], size=m, p=[0.5, 0.35, 0.15]).tolist()
    rhs = rng.integers(-1, 4, size=m).astype(float)
    lo = rng.integers(-1, 2, size=n).astype(float)
    hi = lo + rng.choice([0.0, 1.0, 2.0, math.inf, math.inf], size=n)
    sense = "max" if rng.random() < 0.5 else "min"
    return LpProblem(sense, objective, A, relations, rhs, np.column_stack([lo, hi]))


def test_solver_matches_highs_with_open_upper_bounds(monkeypatch):
    # A cost that favours an infinite upper bound is the one case the cold
    # start cannot put at its bound: the variable starts at its lower bound,
    # with its cost zeroed so the dual loop still starts dual feasible, and
    # the primal loop moves it or finds the problem unbounded.
    pytest.importorskip("scipy")
    import faircover.lp as lp_mod

    real = lp_mod._dual_loop

    def dual_feasible_start(tab, cost):
        # No nonbasic column improves cost in the direction it can move.
        reduced = cost - cost[tab.basis] @ tab.T[:, :-1]
        assert (reduced * tab.dirs >= -lp_mod._PIVOT_TOL).all(), reduced
        return real(tab, cost)

    monkeypatch.setattr(lp_mod, "_dual_loop", dual_feasible_start)
    rng = np.random.default_rng(20241019)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(200):
        lp = random_open_lp(rng)
        sol = solve(lp)
        status, val = highs_solve(lp)
        assert sol.status == status, (lp, sol.status, status)
        seen[status] += 1
        if status == "optimal":
            assert abs(sol.objective - val) <= 1e-6 * (1.0 + abs(val)), (lp, sol.objective, val)
    # Every outcome must occur for the comparison to mean anything.
    assert min(seen.values()) > 10, seen


def test_sweep_retargets_one_relaxation_per_round():
    # weighted_mkcc_round builds the relaxation once per round and only
    # moves the target row's rhs: every problem it hands the solver must be
    # byte-equal to a fresh build at that tau, for tau = 1, 2, ... in turn.
    from faircover.model import mask_of
    from faircover.unweighted import GreedyState
    from faircover.weighted import eff_wfsc, weighted_mkcc_round

    from support import replay_states

    def arrays(lp):
        return [(a.dtype, a.shape, a.tobytes()) for a in (lp.objective, lp.A, lp.rhs, lp.bounds)]

    solved = 0
    for sys_, spec in c01_instances():
        per_round = spec.per_round
        cover = eff_wfsc(sys_, spec, rng=0)
        for uncovered, remaining, _ in replay_states(sys_, cover.rounds):
            uncovered = sorted(uncovered)
            taus = []

            def check(problem):
                tau = len(taus) + 1
                want = build_weighted_mkcc_lp(sys_, remaining, uncovered, per_round, tau)
                assert problem.sense == want.sense
                assert problem.relations == want.relations
                assert arrays(problem) == arrays(want), tau
                taus.append(tau)
                return solve(problem)

            state = GreedyState(mask_of(uncovered, sys_.n), [list(g) for g in remaining])
            weighted_mkcc_round(sys_, state, per_round, rng=0, lp_solver=check)
            assert taus
            solved += len(taus)
    assert solved > 100


# ----------------------------------------------- warm-started target sweep


def test_retarget_sets_only_the_last_rhs():
    # A re-targeted problem shares every array but rhs, whose last entry
    # alone moves, and the family record of the problem it came from.
    sys_ = square_system()
    first = build_weighted_mkcc_lp(sys_, [[0, 1], [2, 3]], range(6), [1, 1], 1)
    moved = first.retarget(4)
    assert moved.sense == first.sense
    for name in ("objective", "A", "relations", "bounds"):
        assert getattr(moved, name) is getattr(first, name), name
    assert moved._band is first._band
    assert moved.rhs[:-1].tobytes() == first.rhs[:-1].tobytes()
    assert (moved.rhs[-1], first.rhs[-1]) == (4.0, 1.0)
    assert not moved.rhs.flags.writeable
    assert moved.retarget(5)._family is first._family
    with pytest.raises(DimensionMismatch):
        LpProblem("max", [1.0], [], [], []).retarget(1)
    with pytest.raises(ValueError):
        first.retarget(math.nan)


def test_retarget_twin_reads_like_a_built_problem():
    # The twin skips the constructor, so everything a solve reads from it
    # must match a problem built with the same rhs; and it must not take
    # its parent's cached constraints, which hold the parent's rhs.
    sys_ = square_system()
    first = build_weighted_mkcc_lp(sys_, [[0, 1], [2, 3]], range(6), [1, 1], 1)
    assert first.constraints[-1][2] == 1.0
    moved = first.retarget(4)
    assert moved.constraints[-1][2] == 4.0 and first.constraints[-1][2] == 1.0
    built = LpProblem(first.sense, first.objective, first.A, first.relations,
                      moved.rhs, first.bounds)
    assert [b.tolist() for b in moved._band] == [b.tolist() for b in built._band]
    rng = np.random.default_rng(0)
    for _ in range(20):
        resid = rng.normal(scale=1e-6, size=len(moved.rhs))
        resid[rng.random(len(resid)) < 0.3] = 0.0
        for tol in (0.0, 1e-6):
            assert _violated(moved, resid, tol).tolist() == _violated(built, resid, tol).tolist()


def test_violated_tests_each_row_against_its_relation():
    # One interval test per row flags the rows a test relation by relation
    # flags: "<=" past +tol, ">=" past -tol, "=" past either; a NaN
    # residual breaks no relation. A re-targeted problem shares the rows'
    # intervals.
    rels = ["<=", ">=", "="] * 4
    problem = LpProblem("min", [0.0], [[1.0]] * 12, rels, [0.0] * 12)
    assert problem.retarget(1.0)._band is problem._band
    le, ge, eq = (np.array([r == x for r in rels]) for x in ("<=", ">=", "="))
    values = [-1e-6, -1e-9, -0.0, 0.0, 1e-9, 1e-6, math.nan, math.inf, -math.inf]
    rng = np.random.default_rng(1)
    for _ in range(50):
        resid = rng.choice(values, len(rels))
        for tol in (0.0, 1e-9):
            want = (eq & (np.abs(resid) > tol)) | (le & (resid > tol)) | (ge & (resid < -tol))
            assert _violated(problem, resid, tol).tolist() == want.nonzero()[0].tolist()


def count_cold_solves(monkeypatch):
    """Patch lp._optimize to count the solves that start from scratch."""
    import faircover.lp as lp_mod

    calls = []
    real = lp_mod._optimize

    def counting(problem):
        calls.append(problem.rhs[-1])
        return real(problem)

    monkeypatch.setattr(lp_mod, "_optimize", counting)
    return calls


def test_warm_sweep_matches_cold_solves_on_c01_states(monkeypatch):
    # On every eff_wfsc round state of the c01 sample, each target solved
    # warm (in order, on tau = 1 re-targeted) has the cold solve's status
    # and objective, so the sweep ends at the same tau. Only tau = 1 of a
    # warm sweep starts from scratch.
    from faircover.weighted import eff_wfsc

    from support import assert_sweeps_agree, replay_states, warm_and_cold_sweep

    solved = cutoffs = 0
    for sys_, spec in c01_instances():
        per_round = spec.per_round
        cover = eff_wfsc(sys_, spec, rng=0)
        for uncovered, remaining, _ in replay_states(sys_, cover.rounds):
            if any(len(remaining[h]) < p for h, p in enumerate(per_round)):
                continue
            cold = count_cold_solves(monkeypatch)
            triples = warm_and_cold_sweep(sys_, remaining, sorted(uncovered), per_round)
            monkeypatch.undo()
            assert_sweeps_agree(triples)
            # One cold start for the warm sweep, one per tau for the cold one.
            assert len(cold) == len(triples) + 1
            solved += len(triples)
            cutoffs += triples[-1][1].status == "infeasible"
    # Both ends of a sweep must occur for the comparison to mean anything.
    assert solved > 100 and cutoffs > 10


def test_dual_pivot_budget_exhaustion_is_typed(monkeypatch):
    # x0 + x1 >= 1 as x0 + x1 + s = 1 with s in (-inf, 0] basic at 1: one
    # dual pivot (x0 enters, its ratio 1/1 beats x1's 2/1) and a pass to
    # see every value is within bounds. A budget of one pass fails loudly,
    # two finish.
    import faircover.lp as lp_mod

    def tableau(row, budget):
        return lp_mod._Tableau(
            np.array([row]), np.array([2]), np.array([1.0, 1.0, 0.0]),
            np.array([0.0, 0.0, -math.inf]), np.array([1.0, 1.0, 0.0]),
            np.array([1.0, 2.0, 0.0]), budget)

    cost = np.array([1.0, 2.0, 0.0])
    with pytest.raises(NumericalFailure):
        lp_mod._dual_loop(tableau([1.0, 1.0, 1.0, 1.0], 1), cost)
    tab = tableau([1.0, 1.0, 1.0, 1.0], 2)
    assert lp_mod._dual_loop(tab, cost) == "optimal"
    assert tab.basis.tolist() == [0] and tab.T.tolist() == [[1.0, 1.0, 1.0, 1.0]]
    assert tab.dirs.tolist() == [0.0, 1.0, -1.0]
    # -x0 - x1 + s = 1 leaves s above its bound with nothing that lowers it:
    # the target is infeasible.
    assert lp_mod._dual_loop(tableau([-1.0, -1.0, 1.0, 1.0], 2), cost) == "infeasible"

    # Through solve(): a warm target whose dual loop runs out of budget
    # raises instead of falling back to a cold solve.
    sys_ = square_system()
    first = build_weighted_mkcc_lp(sys_, [[0, 1], [2, 3]], range(6), [1, 1], 1)
    assert solve(first.retarget(1)).status == "optimal"
    real = lp_mod._dual_loop

    def starved(tab, cost):
        tab.budget = 0
        return real(tab, cost)

    monkeypatch.setattr(lp_mod, "_dual_loop", starved)
    with pytest.raises(NumericalFailure):
        solve(first.retarget(2))
    # The failed resume spent the record, so a retry solves cold.
    monkeypatch.undo()
    retry = solve(first.retarget(2))
    cold = solve(build_weighted_mkcc_lp(sys_, [[0, 1], [2, 3]], range(6), [1, 1], 2))
    assert retry.values.tobytes() == cold.values.tobytes()


def test_negative_last_rhs_is_resumed(monkeypatch):
    # -x <= -0.5 is x >= 0.5 written with a negative rhs. Raising the rhs to
    # 0.5 resumes from the first tableau, like any retarget, and gets the
    # cold answer x = 0.
    first = LpProblem("min", [1.0], [[-1.0]], ["<="], [-0.5])
    cold_starts = count_cold_solves(monkeypatch)
    assert solve(first.retarget(-0.5)).values.tolist() == [0.5]
    raised = solve(first.retarget(0.5))
    assert len(cold_starts) == 1
    cold = solve(LpProblem("min", [1.0], [[-1.0]], ["<="], [0.5]))
    assert raised.status == cold.status == "optimal"
    assert raised.values.tolist() == cold.values.tolist() == [0.0]


def test_out_of_order_or_repeated_target_resumes(monkeypatch):
    # solve() resumes every target of a family from the last one it solved,
    # repeated, skipped and lowered targets included, and each gets the
    # cold solve's status and objective. Only the family's first solve is
    # cold.
    sys_, spec = c01_instance(2)
    per_round = spec.per_round
    remaining = sys_.sets_by_color
    targets = range(sys_.n)
    first = build_weighted_mkcc_lp(sys_, remaining, targets, per_round, 1)

    cold_starts = count_cold_solves(monkeypatch)
    for step, tau in enumerate((1, 2, 3, 3, 5, 2, 3)):
        before = len(cold_starts)
        warm = solve(first.retarget(tau))
        assert len(cold_starts) == before + (step == 0), tau
        cold = solve(build_weighted_mkcc_lp(sys_, remaining, targets, per_round, tau))
        assert warm.status == cold.status == "optimal"
        assert objective_close(warm.objective, cold.objective), tau
