"""Span recording for the traced run, from outside the library.

Every traced function is replaced, in each faircover module that binds its
name, by a wrapper that records one span per call: name, tag, start, end
and the span that was open when it began. ``from .x import f`` copies the
binding into the importing module, so a function is patched wherever it is
looked up, not only where it is defined. ``GreedyState`` methods are patched
on the class. ``lp.solve`` is bound as a default argument when the
algorithms are defined and cannot be patched; the traced run passes
``Tracer.lp_solver`` instead.

Spans live in memory as parallel lists and are reduced to per-layer
metrics by ``layer_metrics`` after each pass. Times are process CPU time,
the clock of the end-to-end metrics; a layer's time is reported as its
share of the traced pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import process_time

from faircover import generalized, io_generators, lp, model
from faircover import multicover, oracles, unweighted, weighted


class SpanLog:
    """The spans and counts of one traced stretch of work."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.tag: list[str | None] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def begin(self, name: str, tag: str | None = None) -> int:
        i = len(self.name)
        self.name.append(name)
        self.tag.append(tag)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(process_time())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = process_time()
        self._open.pop()

    def totals(self) -> tuple[Counter[str], dict[str, float], dict[str, float]]:
        """Calls, total seconds and self seconds per span name. Self time is
        a span's duration minus the durations of its direct children."""
        calls: Counter[str] = Counter(self.name)
        total: dict[str, float] = {}
        child: list[float] = [0.0] * len(self.name)
        for i, name in enumerate(self.name):
            d = self.end[i] - self.start[i]
            total[name] = total.get(name, 0.0) + d
            if self.parent[i] >= 0:
                child[self.parent[i]] += d
        self_s: dict[str, float] = {}
        for i, name in enumerate(self.name):
            d = self.end[i] - self.start[i] - child[i]
            self_s[name] = self_s.get(name, 0.0) + d
        return calls, total, self_s


def _bound_arg(fn, name: str):
    """Read one argument of a call to fn, falling back to its default."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return read


def _oracle_name(args, kwargs) -> str:
    weighted_ = kwargs.get("weighted", args[2] if len(args) > 2 else False)
    return "oracles.opt_fair_cover_weighted" if weighted_ else "oracles.opt_fair_cover"


def _count_rounds(log: SpanLog, out) -> None:
    log.counts["multicover.rounds"] += len(out[0].rounds)


class Tracer:
    """Owns the span log that the installed wrappers write to."""

    def __init__(self) -> None:
        self.log = SpanLog()

    def lp_solver(self, problem: lp.LpProblem) -> lp.LpSolution:
        log = self.log
        i = log.begin("lp.solve")
        try:
            sol = lp.solve(problem)
        finally:
            log.finish(i)
        log.tag[i] = sol.status
        log.counts["lp.solve.rows"] += len(problem.constraints)
        log.counts["lp.solve.vars"] += problem.num_vars
        return sol

    def wrap(self, name, fn, tag_of=None, after=None):
        """A stand-in for fn that records a span per call. name is a span
        name or a function of the call's (args, kwargs) returning one."""
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = self.log
            i = log.begin(
                name_of(args, kwargs) if name_of else name,
                tag_of(args, kwargs) if tag_of else None,
            )
            try:
                out = fn(*args, **kwargs)
            finally:
                log.finish(i)
            if after is not None:
                after(log, out)
            return out

        return traced


# (defining module, function, span name, tag reader, post-call counter)
TRACED = (
    (lp, "build_mkcc_lp", "lp.build", None, None),
    (lp, "build_weighted_mkcc_lp", "lp.build", None, None),
    (lp, "color_sampling_probs", "lp.color_sampling_probs", None, None),
    (unweighted, "sample_round_tuple", "unweighted.sample_round_tuple", None, None),
    (unweighted, "best_coverage_tuple", "unweighted.best_coverage_tuple", None, None),
    (unweighted, "mkcc_greedy", "unweighted.mkcc_greedy", None, None),
    (unweighted, "naive_fsc", "unweighted.naive_fsc", None, None),
    (unweighted, "greedy_allpick", "unweighted.greedy_allpick", None, None),
    (unweighted, "eff_fsc", "unweighted.eff_fsc",
     _bound_arg(unweighted.eff_fsc, "subroutine"), None),
    (weighted, "weighted_mkcc_round", "weighted.sweep", None, None),
    (weighted, "eff_wfsc", "weighted.eff_wfsc", None, None),
    (weighted, "greedy_weighted_allpick", "weighted.greedy_weighted_allpick", None, None),
    (generalized, "gfsc", "generalized.gfsc", None, None),
    (multicover, "fair_multicover_greedy", "multicover.fair_multicover_greedy",
     _bound_arg(multicover.fair_multicover_greedy, "mode"), _count_rounds),
    (oracles, "opt_fair_cover", _oracle_name, None, None),
    (model, "fairness_report", "model.fairness_report", None, None),
    (io_generators, "gen_synthetic", "io_generators.generate", None, None),
    (io_generators, "save_instance", "io_generators.save_instance", None, None),
    (io_generators, "load_instance", "io_generators.load_instance", None, None),
)
TRACED_METHODS = (
    (unweighted.GreedyState, "new_coverage", "unweighted.new_coverage"),
    (unweighted.GreedyState, "commit", "unweighted.commit"),
)


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced function and method for the duration of the block,
    then put the originals back."""
    mods = [m for key, m in sorted(sys.modules.items())
            if key == "faircover" or key.startswith("faircover.")]
    undo: list[tuple[object, str, object]] = []
    try:
        for home, attr, name, tag_of, after in TRACED:
            orig = getattr(home, attr)
            stand_in = tracer.wrap(name, orig, tag_of, after)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, stand_in)
        for cls, attr, name in TRACED_METHODS:
            orig = cls.__dict__[attr]
            undo.append((cls, attr, orig))
            setattr(cls, attr, tracer.wrap(name, orig))
        yield tracer
    finally:
        for target, key, orig in reversed(undo):
            setattr(target, key, orig)


# Span names that run the per-round sampling loop of the LP subroutine.
_ROUND_LOOPS = ("unweighted.eff_fsc", "multicover.fair_multicover_greedy")
_SAMPLED_MODES = ("lp", "mkcc_sub")


def layer_metrics(log: SpanLog, pass_s: float, names) -> dict[str, float]:
    """Reduce one traced pass's spans to per-layer metrics: each of names
    that ends in ``.calls`` or ``.pct``, the derived metrics below, and
    ``<span>.self_pct`` for every span; pass_s is the pass's CPU time, the
    base of every share. Errors, set-up, verification and overhead are
    filled in by the caller."""
    calls, total, self_s = log.totals()
    out: dict[str, float] = {}
    for metric in names:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(span, 0)
        elif field == "pct":
            out[metric] = 100 * total.get(span, 0.0) / pass_s
    out["weighted.sweep.self_pct"] = 0.0
    for span, d in self_s.items():
        out[f"{span}.self_pct"] = 100 * d / pass_s
    solves = calls["lp.solve"]
    out["lp.solve.rows_mean"] = log.counts["lp.solve.rows"] / solves if solves else 0.0
    out["lp.solve.vars_mean"] = log.counts["lp.solve.vars"] / solves if solves else 0.0

    parent_name = [log.name[p] if p >= 0 else "" for p in log.parent]
    parent_tag = [log.tag[p] if p >= 0 else None for p in log.parent]
    under = Counter(zip(log.name, parent_name))
    solved = Counter(zip(parent_name, log.tag, log.name))
    out["lp.solve.infeasible"] = sum(
        v for (_, tag, name), v in solved.items()
        if name == "lp.solve" and tag == "infeasible"
    )

    sweeps = calls["weighted.sweep"]
    draws = under["unweighted.sample_round_tuple", "weighted.sweep"]
    # Each feasible target of a sweep ends on exactly one accepted sample.
    accepted = solved["weighted.sweep", "optimal", "lp.solve"]
    out["weighted.sweep.targets"] = (
        under["lp.solve", "weighted.sweep"] / sweeps if sweeps else 0.0
    )
    out["weighted.sweep.accept_ratio"] = accepted / draws if draws else 0.0

    scored = under["unweighted.new_coverage", "unweighted.best_coverage_tuple"]
    busy = total.get("unweighted.best_coverage_tuple", 0.0)
    out["unweighted.tuples_per_s"] = scored / busy if busy else 0.0
    # A sampled round draws once plus once per retry, after one LP build.
    out["unweighted.zero_progress_retries"] = sum(
        under["unweighted.sample_round_tuple", loop] - under["lp.build", loop]
        for loop in _ROUND_LOOPS
    )
    fallback = Counter(zip(log.name, parent_name, parent_tag))
    out["unweighted.greedy_fallbacks"] = sum(
        fallback["unweighted.mkcc_greedy", loop, mode]
        for loop in _ROUND_LOOPS for mode in _SAMPLED_MODES
    )
    out["multicover.rounds"] = log.counts["multicover.rounds"]
    out["trace.spans"] = len(log)
    return out
