"""Simplex solver and relaxation builders, checked against an independent
vertex-enumeration oracle."""

import math

import numpy as np
import pytest

from faircover.errors import DimensionMismatch, InsufficientColor, NumericalFailure
from faircover.lp import (
    FEAS_TOL,
    LpProblem,
    build_mkcc_lp,
    build_weighted_mkcc_lp,
    color_sampling_probs,
    lp_variable_order,
    solve,
)
from faircover.model import SetSystem

from support import c01_instance, enumerate_lp


def square_system():
    return SetSystem(6, [[0, 1, 2], [3, 4], [3, 4, 5], [0, 5]], [0, 0, 1, 1])


def objective_close(a, b):
    return abs(a - b) <= 1e-7 * (1.0 + max(abs(a), abs(b)))


# ------------------------------------------------------------- solve basics


def test_single_variable_maximization_hits_cap():
    lp = LpProblem("max", [1.0], [([1.0], "<=", 0.5)])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.5, abs=FEAS_TOL)
    assert sol.values[0] == pytest.approx(0.5, abs=FEAS_TOL)


def test_contradictory_rows_are_infeasible():
    lp = LpProblem("max", [1.0, 1.0],
                   [([1.0, 1.0], ">=", 3.0)])  # both capped at 1
    assert solve(lp).status == "infeasible"


def test_equality_pins_value():
    lp = LpProblem("min", [1.0, 2.0], [([1.0, 1.0], "=", 1.0)])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert sol.values[0] == pytest.approx(1.0)


def test_unbounded_detected_with_open_bounds():
    lp = LpProblem("max", [1.0], [], bounds=[(0.0, math.inf)])
    assert solve(lp).status == "unbounded"
    lp2 = LpProblem(
        "max", [1.0, 1.0], [([1.0, -1.0], "<=", 1.0)],
        bounds=[(0.0, math.inf), (0.0, math.inf)],
    )
    assert solve(lp2).status == "unbounded"


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        LpProblem("max", [1.0, 1.0], [([1.0], "<=", 1.0)])
    with pytest.raises(DimensionMismatch):
        LpProblem("max", [1.0], [], bounds=[(0, 1), (0, 1)])


def test_nonfinite_lower_bound_rejected():
    with pytest.raises(ValueError):
        LpProblem("max", [1.0], [], bounds=[(-math.inf, 1.0)])


def test_general_bounds_shifted_correctly():
    lp = LpProblem(
        "min", [1.0, -1.0], [([1.0, 1.0], "<=", 5.0)],
        bounds=[(2.0, 4.0), (1.0, 3.0)],
    )
    sol = solve(lp)
    status, val, _ = enumerate_lp(lp)
    assert sol.status == status == "optimal"
    assert objective_close(sol.objective, val)


# ------------------------------------------------- zero-rhs ">=" row path
# solve() negates ">=" rows with a zero (shifted) rhs into "<=" rows so their
# slack starts basic. These cases pin that path against vertex enumeration.


def assert_matches_enumeration(lp):
    sol = solve(lp)
    status, val, _ = enumerate_lp(lp)
    assert sol.status == status, (sol.status, status)
    if status == "optimal":
        assert objective_close(sol.objective, val), (sol.objective, val)
    return sol


def test_zero_rhs_row_slack_at_optimum():
    # x0 + x1 = 1 with x0 - x1 >= 0; minimizing x1 leaves the row at 1 > 0.
    lp = LpProblem("min", [0.0, 1.0],
                   [([1.0, 1.0], "=", 1.0), ([1.0, -1.0], ">=", 0.0)])
    sol = assert_matches_enumeration(lp)
    assert sol.objective == pytest.approx(0.0, abs=FEAS_TOL)
    assert sol.values[0] - sol.values[1] == pytest.approx(1.0, abs=FEAS_TOL)


def test_zero_rhs_row_binds_at_optimum():
    # Maximizing x1 pushes x0 - x1 >= 0 onto its bound: x0 = x1 = 1/2.
    lp = LpProblem("max", [0.0, 1.0],
                   [([1.0, 1.0], "=", 1.0), ([1.0, -1.0], ">=", 0.0)])
    sol = assert_matches_enumeration(lp)
    assert sol.objective == pytest.approx(0.5, abs=FEAS_TOL)
    assert sol.values[0] - sol.values[1] == pytest.approx(0.0, abs=FEAS_TOL)


def test_zero_rhs_row_infeasible_with_quota_equality():
    # The quota x0 + x1 = 2 forces x0 = 1, and the coverage-shaped row
    # x2 - x0 >= 0 then needs x2 >= 1, past x2's cap of 1/2.
    lp = LpProblem(
        "max", [0.0, 0.0, 1.0],
        [([1.0, 1.0, 0.0], "=", 2.0), ([-1.0, 0.0, 1.0], ">=", 0.0)],
        bounds=[(0.0, 1.0), (0.0, 1.0), (0.0, 0.5)],
    )
    assert_matches_enumeration(lp)
    assert solve(lp).status == "infeasible"


def test_lower_bound_shifts_rhs_to_zero():
    # x0 + x1 >= 3 with x0 >= 1 and x1 >= 2: the shifted rhs is exactly zero.
    for sense in ("min", "max"):
        lp = LpProblem(
            sense, [2.0, 1.0], [([1.0, 1.0], ">=", 3.0), ([1.0, -1.0], "<=", 0.5)],
            bounds=[(1.0, 2.5), (2.0, 3.0)],
        )
        sol = assert_matches_enumeration(lp)
        assert sol.status == "optimal"
        assert sol.values[0] + sol.values[1] >= 3.0 - FEAS_TOL


def test_zero_rhs_rows_need_no_phase_one(monkeypatch):
    # With only "<=" rows and zero-rhs ">=" rows the slack basis is feasible,
    # so the simplex runs a single (phase two) pivot loop.
    import faircover.lp as lp_mod

    calls = []
    real = lp_mod._pivot_loop

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(lp_mod, "_pivot_loop", counting)
    lp = LpProblem("max", [0.0, 0.0, 1.0, 1.0],
                   [([1.0, 0.0, -1.0, 0.0], ">=", 0.0),
                    ([0.0, 1.0, 0.0, -1.0], ">=", 0.0),
                    ([1.0, 1.0, 0.0, 0.0], "<=", 1.0)])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=FEAS_TOL)
    assert len(calls) == 1


def test_phase_one_failure_is_typed(monkeypatch):
    # A phase-one loop that does not end optimal must surface as a
    # NumericalFailure, not a bare assert that python -O would strip.
    import faircover.lp as lp_mod

    monkeypatch.setattr(lp_mod, "_pivot_loop", lambda *args: "unbounded")
    lp = LpProblem("min", [1.0, 2.0], [([1.0, 1.0], "=", 1.0)])
    with pytest.raises(NumericalFailure):
        solve(lp)


# ------------------------------------------------------------ pivot kernel


def test_pivot_budget_exhaustion_is_typed():
    # min -x0 - x1 with slack rows x0 <= 1, x1 <= 1 needs two pivots from
    # the slack basis and a third pass to see that no column improves: a
    # budget of two passes must fail loudly, three must finish.
    import faircover.lp as lp_mod

    def tableau():
        T = np.array([[1.0, 0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0, 1.0]])
        return T, np.array([2, 3], dtype=np.intp)

    cost = np.array([-1.0, -1.0, 0.0, 0.0])
    T, basis = tableau()
    with pytest.raises(NumericalFailure):
        lp_mod._pivot_loop(T, basis, cost, 2)
    T, basis = tableau()
    assert lp_mod._pivot_loop(T, basis, cost, 3) == "optimal"
    assert sorted(basis.tolist()) == [0, 1]
    assert T[:, -1].tolist() == [1.0, 1.0]


def test_ratio_tie_leaves_smallest_basic_index():
    # max x1 s.t. x0 + x1 - x2 = 1 on [0, 1]^3 has optima (0, 1, 0) and
    # (1, 1, 1). Phase one's first pivot brings x0 in with a ratio tie
    # between the equality row (basic: its artificial, the largest column)
    # and the bound row x0 <= 1 (basic: its slack). Bland's rule drops the
    # slack, which leads to (1, 1, 1); leaving the first tied row or the
    # largest basic index would end at (0, 1, 0).
    lp = LpProblem("max", [0.0, 1.0, 0.0], [([1.0, 1.0, -1.0], "=", 1.0)])
    sol = assert_matches_enumeration(lp)
    assert sol.values == (1.0, 1.0, 1.0)
    assert sol.objective == 1.0


# ------------------------------------------- randomized oracle cross-check


def random_lp(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 9))
    sense = "max" if rng.random() < 0.5 else "min"
    objective = rng.integers(-4, 5, size=n).astype(float)
    constraints = []
    n_eq = 0
    for _ in range(m):
        row = rng.integers(-3, 4, size=n).astype(float)
        roll = rng.random()
        if roll < 0.15 and n_eq < min(2, n - 1):
            rel = "="
            n_eq += 1
        elif roll < 0.6:
            rel = "<="
        else:
            rel = ">="
        rhs = float(rng.integers(-2, 5))
        constraints.append((row, rel, rhs))
    hi = 1.0 if rng.random() < 0.7 else 3.0
    bounds = [(0.0, hi)] * n
    return LpProblem(sense, objective, constraints, bounds)


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
        x = np.array(sol.values)
        for row, rel, b in lp.constraints:
            v = float(np.array(row) @ x)
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
