"""Test-local reference implementations, kept independent of the package's
own enumeration code so checks never share a code path with what they check."""

from __future__ import annotations

from functools import reduce
from itertools import combinations, islice, product
from operator import add

import numpy as np

from faircover.model import SetSystem


def id_order_weight(system: SetSystem, ids) -> float:
    """The weights of ids added left to right from 0.0, as on every
    interpreter (sum() compensates float sums from Python 3.12 on)."""
    return reduce(add, map(system.weight, ids), 0.0)


# Candidate bases enumerate_lp solves at once: about 3 MB at ten variables.
ENUM_CHUNK = 4096


def enumerate_lp(problem, tol=1e-7):
    """Brute-force LP oracle for finite-box problems.

    Enumerates every candidate vertex (each n-subset of constraint
    hyperplanes and bound faces), keeps the feasible ones, and returns
    ('optimal', value, x) for the best vertex or ('infeasible', None, None).
    To keep the subset count manageable, a maximal linearly independent
    subset of the equality rows is forced into every candidate: each vertex
    sits on all equality planes, so a defining basis containing that subset
    always exists. Dependent equality rows stay in the free pool (and the
    feasibility filter still enforces them); an inconsistent equality
    system short-circuits to infeasible. Only valid when every bound is
    finite, which makes the feasible region a polytope: nonempty iff some
    vertex exists. Candidates are solved ENUM_CHUNK at a time, so memory
    stays flat; ties go to the first best vertex in enumeration order.
    """
    n = problem.num_vars
    A = np.asarray(problem.A, dtype=float)
    rhs = np.asarray(problem.rhs, dtype=float)
    rels = problem.relations
    lo, hi = np.asarray(problem.bounds, dtype=float).T
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)), "oracle needs finite boxes"
    # Planes: every constraint row, then x_j = lo_j and x_j = hi_j per variable.
    plane_A = np.vstack([A, np.repeat(np.eye(n), 2, axis=0)])
    plane_b = np.concatenate([rhs, np.column_stack([lo, hi]).ravel()])
    eq_rows = [i for i, rel in enumerate(rels) if rel == "="]
    mandatory: list[int] = []
    if eq_rows:
        A_eq, b_eq = plane_A[eq_rows], plane_b[eq_rows]
        if np.linalg.matrix_rank(A_eq) != np.linalg.matrix_rank(
            np.column_stack([A_eq, b_eq])
        ):
            return ("infeasible", None, None)
        for i in eq_rows:
            trial = plane_A[mandatory + [i]]
            if np.linalg.matrix_rank(trial) == len(trial):
                mandatory.append(i)
    free = [i for i in range(len(plane_A)) if i not in mandatory]
    candidates = (mandatory + list(extra) for extra in combinations(free, n - len(mandatory)))
    better = np.greater if problem.sense == "max" else np.less
    best_val, best_x = None, None
    while True:
        idx = np.array(list(islice(candidates, ENUM_CHUNK)), dtype=np.intp)
        if not len(idx):
            break
        A_stack = plane_A[idx]  # (chunk, n, n)
        b_stack = plane_b[idx]  # (chunk, n)
        regular = np.abs(np.linalg.det(A_stack)) > 1e-9
        if not regular.any():
            continue
        X = np.linalg.solve(A_stack[regular], b_stack[regular][..., None])[..., 0]
        X = X[np.all(np.isfinite(X), axis=1)]
        feas = np.all(X >= lo - tol, axis=1) & np.all(X <= hi + tol, axis=1)
        for a, rel, b in zip(A, rels, rhs):
            v = X @ a
            if rel == "=":
                feas &= np.abs(v - b) <= tol
            elif rel == "<=":
                feas &= v <= b + tol
            else:
                feas &= v >= b - tol
        if not feas.any():
            continue
        vals = X[feas] @ np.asarray(problem.objective, dtype=float)
        pick = int(np.argmax(vals)) if problem.sense == "max" else int(np.argmin(vals))
        if best_val is None or better(vals[pick], best_val):
            best_val, best_x = float(vals[pick]), X[feas][pick]
    if best_val is None:
        return ("infeasible", None, None)
    return ("optimal", best_val, best_x)


def replay_states(system: SetSystem, rounds, requirements=None):
    """Walk a cover's committed rounds, yielding the (targets, remaining)
    state each round saw. targets is the uncovered set, or the alive set
    when requirements are given."""
    if requirements is None:
        targets = set(range(system.n))
    else:
        counts = [0] * system.n
        targets = {j for j in range(system.n) if requirements[j] > 0}
    remaining = [list(g) for g in system.sets_by_color]
    for ids in rounds:
        yield set(targets), [list(g) for g in remaining], ids
        for i in ids:
            remaining[system.colors[i]].remove(i)
            if requirements is None:
                targets -= set(system.sets[i])
            else:
                for e in system.sets[i]:
                    counts[e] += 1
        if requirements is not None:
            targets = {j for j in targets if counts[j] < requirements[j]}


def brute_best_tuple(system, targets, remaining, per_round, ratio=False):
    """Independent per-round optimum: (value, ids).

    Default maximizes |union & targets|; ratio=True minimizes total weight
    per newly covered element over tuples with positive coverage. Ties go
    to the lexicographically smallest sorted tuple, matching the package's
    stated tie rule.
    """
    pools = []
    for h, p in enumerate(per_round):
        if p > 0:
            pools.append(list(combinations(sorted(remaining[h]), p)))
    best = None
    for parts in product(*pools):
        ids = tuple(sorted(i for part in parts for i in part))
        new = len(set().union(*(set(system.sets[i]) for i in ids)) & set(targets))
        if ratio:
            if new == 0:
                continue
            key = (id_order_weight(system, ids) / new, ids)
        else:
            key = (-new, ids)
        if best is None or key < best:
            best = key
    assert best is not None, "no admissible tuple"
    return (-best[0] if not ratio else best[0]), best[1]


def brute_quota_tuples(system: SetSystem, pools, counts):
    """Every way to take counts[h] ids from pools[h] for each color h, by
    itertools alone: a dict from the sorted id tuple to the elements in
    [0, n) that its sets cover. A color past the end of pools has no sets."""
    choices = [
        combinations(pools[h] if h < len(pools) else (), c)
        for h, c in enumerate(counts)
        if c > 0
    ]
    out = {}
    for parts in product(*choices):
        ids = tuple(sorted(i for part in parts for i in part))
        out[ids] = frozenset(
            e for i in ids for e in system.sets[i] if 0 <= e < system.n
        )
    return out


def lightest_tuple_weight(system: SetSystem, targets, remaining, per_round, tau):
    """The least total weight of a quota tuple drawn from remaining whose
    sets cover at least tau of targets, or None when no tuple does."""
    targets = frozenset(targets)
    weights = [
        sum(system.weight(i) for i in ids)
        for ids, covered in brute_quota_tuples(system, remaining, per_round).items()
        if len(covered & targets) >= tau
    ]
    return min(weights, default=None)


def all_covers(system: SetSystem):
    """Every selection (any size) whose union is the universe, as sorted tuples."""
    mu = system.num_sets
    full = frozenset(range(system.n))
    out = []
    for size in range(mu + 1):
        for combo in combinations(range(mu), size):
            got = set()
            for i in combo:
                got.update(system.sets[i])
            if got >= full:
                out.append(combo)
    return out


def fair_covers(system: SetSystem, per_round):
    """The selections of all_covers that hold t * per_round[h] sets of every
    color h for one t >= 1 (and no set of a color past per_round)."""
    out = []
    for sel in all_covers(system):
        t, rest = divmod(len(sel), sum(per_round))
        counts = [sum(system.colors[i] == h for i in sel) for h in range(len(per_round))]
        if t >= 1 and rest == 0 and counts == [t * p for p in per_round]:
            out.append(sel)
    return out


def least_fair_multicover(system: SetSystem, per_round, requirements):
    """The least (size, selection) over the selections holding t *
    per_round[h] sets of every color h for one t >= 1 (and no set of a
    color past per_round) that cover each element j at least
    requirements[j] times; None when there is none."""
    for size in range(system.num_sets + 1):
        t, rest = divmod(size, sum(per_round))
        if t < 1 or rest:
            continue
        for sel in combinations(range(system.num_sets), size):
            counts = [sum(system.colors[i] == h for i in sel) for h in range(len(per_round))]
            if counts == [t * p for p in per_round] and all(
                sum(j in system.sets[i] for i in sel) >= need
                for j, need in enumerate(requirements)
            ):
                return sel
    return None


def lightest_fair_cover(system: SetSystem, per_round):
    """The least (weight, size, selection) over fair_covers, the weight
    summed in ascending id order; None when there is no fair cover."""
    return min(
        ((id_order_weight(system, sel), len(sel), sel)
         for sel in fair_covers(system, per_round)),
        default=None,
    )


def fresh_state(system: SetSystem):
    from faircover.unweighted import GreedyState

    return GreedyState.fresh(system)


def c01_instance(idx: int):
    """Instance idx of acceptance criterion 01's 200-instance mix, as
    (system, spec). Even idx: two colors, alternating between a (1/3, 2/3)
    split of 4 + 8 sets and weighted count parity; odd idx: three colors.
    n cycles through 10 .. 40."""
    from faircover.io_generators import gen_synthetic
    from faircover.model import FairnessSpec, count_parity

    n = 10 + (idx * 7) % 31
    if idx % 2 == 1:
        sys_ = gen_synthetic(n, 6, 3, coverage_dist=("uniform", 0.35), seed=idx)
        return sys_, count_parity(3)
    if idx % 4 == 0:
        base = gen_synthetic(n, 4, 3, coverage_dist=("uniform", 0.35), seed=idx)
        sys_ = SetSystem(base.n, base.sets, [0] * 4 + [1] * 8, base.weights)
        return sys_, FairnessSpec(["1/3", "2/3"])
    sys_ = gen_synthetic(
        n, 8, 2,
        coverage_dist=("uniform", 0.35),
        weight_dist=("uniform", 0.5, 3.0),
        seed=idx,
    )
    return sys_, count_parity(2)


def warm_and_cold_sweep(system: SetSystem, remaining, targets, per_round):
    """Solve the weighted relaxation at tau = 1, 2, ... twice: in order on
    the tau = 1 problem re-targeted to each tau, which solve() resumes from
    the previous target, and cold on a fresh build per tau. Returns the
    (tau, warm, cold) triples up to the first tau either calls infeasible."""
    from faircover.lp import build_weighted_mkcc_lp, solve

    first = build_weighted_mkcc_lp(system, remaining, targets, per_round, 1)
    out = []
    for tau in range(1, len(targets) + 1):
        warm = solve(first.retarget(tau))
        cold = solve(build_weighted_mkcc_lp(system, remaining, targets, per_round, tau))
        out.append((tau, warm, cold))
        if "infeasible" in (warm.status, cold.status):
            break
    return out


def assert_sweeps_agree(triples):
    """Every target has the same status warm and cold, so the sweeps end at
    the same tau, and the optimal objectives agree within OBJ_RTOL."""
    from faircover.lp import OBJ_RTOL

    for tau, warm, cold in triples:
        assert warm.status == cold.status, (tau, warm.status, cold.status)
        if cold.status == "optimal":
            gap = abs(warm.objective - cold.objective)
            assert gap <= OBJ_RTOL * max(1.0, abs(cold.objective)), (
                tau, warm.objective, cold.objective)
