"""Test-local reference implementations, kept independent of the package's
own enumeration code so checks never share a code path with what they check."""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from faircover.model import SetSystem


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
    vertex exists.
    """
    n = problem.num_vars
    planes: list[tuple[np.ndarray, float]] = []
    eq_rows: list[int] = []
    for a, rel, b in problem.constraints:
        if rel == "=":
            eq_rows.append(len(planes))
        planes.append((np.array(a, dtype=float), float(b)))
    for j in range(n):
        lo, hi = problem.bounds[j]
        assert np.isfinite(lo) and np.isfinite(hi), "oracle needs finite boxes"
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e.copy(), float(lo)))
        planes.append((e, float(hi)))
    mandatory: list[int] = []
    if eq_rows:
        A_eq = np.array([planes[i][0] for i in eq_rows])
        b_eq = np.array([planes[i][1] for i in eq_rows])
        if np.linalg.matrix_rank(A_eq) != np.linalg.matrix_rank(
            np.column_stack([A_eq, b_eq])
        ):
            return ("infeasible", None, None)
        kept: list[np.ndarray] = []
        for i in eq_rows:
            trial = kept + [planes[i][0]]
            if np.linalg.matrix_rank(np.array(trial)) == len(trial):
                kept.append(planes[i][0])
                mandatory.append(i)
    free = [i for i in range(len(planes)) if i not in mandatory]
    need = n - len(mandatory)
    plane_A = np.array([a for a, _ in planes])
    plane_b = np.array([b for _, b in planes])
    idx = np.array([mandatory + list(extra) for extra in combinations(free, need)])
    A_stack = plane_A[idx]  # (K, n, n)
    b_stack = plane_b[idx]  # (K, n)
    dets = np.linalg.det(A_stack)
    regular = np.abs(dets) > 1e-9
    if not regular.any():
        return ("infeasible", None, None)
    X = np.linalg.solve(A_stack[regular], b_stack[regular][..., None])[..., 0]
    finite = np.all(np.isfinite(X), axis=1)
    X = X[finite]
    feas = np.ones(len(X), dtype=bool)
    for a, rel, b in problem.constraints:
        v = X @ np.array(a, dtype=float)
        if rel == "=":
            feas &= np.abs(v - b) <= tol
        elif rel == "<=":
            feas &= v <= b + tol
        else:
            feas &= v >= b - tol
    lo = np.array([b[0] for b in problem.bounds])
    hi = np.array([b[1] for b in problem.bounds])
    feas &= np.all(X >= lo - tol, axis=1) & np.all(X <= hi + tol, axis=1)
    if not feas.any():
        return ("infeasible", None, None)
    vals = X[feas] @ np.array(problem.objective)
    pick = int(np.argmax(vals)) if problem.sense == "max" else int(np.argmin(vals))
    return ("optimal", float(vals[pick]), X[feas][pick])


def _feasible(problem, x, tol):
    for a, rel, b in problem.constraints:
        v = float(np.array(a) @ x)
        if rel == "=" and abs(v - b) > tol:
            return False
        if rel == "<=" and v > b + tol:
            return False
        if rel == ">=" and v < b - tol:
            return False
    for j, (lo, hi) in enumerate(problem.bounds):
        if x[j] < lo - tol or x[j] > hi + tol:
            return False
    return True


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
            key = (sum(system.weight(i) for i in ids) / new, ids)
        else:
            key = (-new, ids)
        if best is None or key < best:
            best = key
    assert best is not None, "no admissible tuple"
    return (-best[0] if not ratio else best[0]), best[1]


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
