"""Measurement: set-up, timed passes, cover checks and the report.

A pass runs every algorithm of the workload on every case once, in a fixed
order, one call at a time (a closed loop with one caller and no threads).
The untraced run repeats passes for the requested seconds and reports
medians; the traced run alternates an untraced and a traced pass, so the
two share conditions and their difference is the tracing overhead. Each
pass is checked as soon as it ends and only its times, digest and verdict
are kept, so what a run holds does not grow with the number of passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import tempfile
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import faircover as fc
import spans
from workloads import ALGORITHMS, Case, Workload, check_case, make_cases

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 7
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def declared_units(root: Path, kind: str) -> dict[str, str]:
    """Metric name -> unit, in report order, as BENCHMARK.json declares the
    ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass
class PassResult:
    cpu: float
    wall: float
    times: list[float]  # CPU seconds per call, in call order
    outs: list[dict]  # per case: algorithm -> output, or the exception raised


def setup(workload: Workload, seed: int, smoke: bool, workdir: Path):
    """Generate the instances, round-trip them through JSON files, and build
    the cases from the loaded copies. Returns (cases, CPU seconds, round trip
    ok)."""
    t0 = process_time()
    recipes = workload.recipes(seed, smoke)
    made = [r.make() for r in recipes]
    loaded = []
    for i, system in enumerate(made):
        path = workdir / f"case{i}.json"
        fc.save_instance(system, path)
        loaded.append(fc.load_instance(path))
    cases = make_cases(workload, loaded, recipes)
    return cases, process_time() - t0, loaded == made


def run_pass(workload: Workload, cases: list[Case], solver=None) -> PassResult:
    times: list[float] = []
    outs: list[dict] = []
    w0, t0 = perf_counter(), process_time()
    for case in cases:
        row = {}
        for alg in workload.algorithms:
            c0 = process_time()
            try:
                row[alg] = ALGORITHMS[alg](case, solver)
            except fc.FairCoverError as exc:
                row[alg] = exc
            times.append(process_time() - c0)
        outs.append(row)
    return PassResult(process_time() - t0, perf_counter() - w0, times, outs)


def repeat(seconds: float, one):
    """Call one() at least once, and again while the next call, judged by
    the last one's duration, still ends within seconds of wall time."""
    results = []
    t0 = perf_counter()
    while True:
        c0 = perf_counter()
        results.append(one())
        now = perf_counter()
        if now - t0 + (now - c0) > seconds:
            return results


def cover_of(out):
    return out[0] if isinstance(out, tuple) else out


def digest(workload: Workload, cases: list[Case], outs: list[dict]) -> str:
    """sha256 over (workload, case, algorithm, selected ids) of a pass."""
    h = hashlib.sha256()
    for case, row in zip(cases, outs):
        for alg, out in row.items():
            cover = cover_of(out)
            ids = (",".join(map(str, cover.selected)) if isinstance(cover, fc.Cover)
                   else f"!{type(out).__name__}")
            h.update(f"{workload.name}|{case.label}|{alg}|{ids}\n".encode())
    return h.hexdigest()


@dataclass
class Verdict:
    """Checks and quality figures of one pass's outputs; the means are over
    the covers that passed every check."""

    errors: Counter  # exception class name -> failed calls
    wrong: int  # calls whose returned cover failed a check
    size_mean: float
    weight_mean: float | None  # covers of weighted instances
    ratio_mean: float | None  # oracle-ratio only

    @property
    def failed(self) -> int:
        return sum(self.errors.values())


def _mean(xs):
    return statistics.fmean(xs) if xs else None


def verify(workload: Workload, cases: list[Case], outs: list[dict]) -> Verdict:
    errors, wrong = Counter(), 0
    sizes, weights, ratios = [], [], []
    for case, row in zip(cases, outs):
        failed, case_ratios = check_case(workload, case, row)
        for alg, out in row.items():
            if isinstance(out, BaseException):
                errors[type(out).__name__] += 1
            elif alg in failed:
                errors[failed[alg]] += 1
                wrong += 1
            else:
                cover = cover_of(out)
                sizes.append(cover.size)
                if case.system.is_weighted:
                    weights.append(cover.total_weight)
        ratios.extend(case_ratios.values())
    # A size mean of 0 rather than None when every call failed, so the JSON
    # stays valid.
    return Verdict(errors, wrong, _mean(sizes) or 0.0, _mean(weights), _mean(ratios))


@dataclass
class CheckedPass:
    """A pass with its outputs reduced to their digest and verdict."""

    cpu: float
    wall: float
    times: array  # CPU seconds per call, in call order
    digest: str
    verdict: Verdict


def checked(workload: Workload, cases: list[Case], p: PassResult) -> CheckedPass:
    return CheckedPass(p.cpu, p.wall, array("d", p.times),
                       digest(workload, cases, p.outs), verify(workload, cases, p.outs))


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, workload: Workload, seed: int, cases: list[Case]) -> dict:
    return {
        "commit": git_commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
        "workload": workload.name,
        "seed": seed,
        "instance_seeds": [c.rng for c in cases],
    }


def end_to_end(workload, seed, seconds, smoke, root, workdir) -> dict:
    runs = [setup(workload, seed, smoke, workdir) for _ in range(SETUP_REPEATS)]
    cases = runs[-1][0]
    peak_rss = []

    def one():
        p = checked(workload, cases, run_pass(workload, cases))
        if not peak_rss:
            # Read after set-up and one pass: every pass does the same work,
            # and the interpreter's free lists and arenas go on filling for
            # many passes, so a later reading would grow with the number of
            # passes that fit into the run.
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return p

    passes = repeat(seconds, one)

    verdicts = [p.verdict for p in passes]
    digests = [p.digest for p in passes]
    per_call = [statistics.median(ts) for ts in zip(*(p.times for p in passes))]
    first = verdicts[0]
    attempted = len(per_call) * len(passes)
    failed = sum(v.failed for v in verdicts)
    metrics = {
        "setup_s": statistics.median(r[1] for r in runs),
        "pass_cpu_s": statistics.median(p.cpu for p in passes),
        "call_cpu_p50_ms": 1000 * statistics.median(per_call),
        "call_cpu_max_ms": 1000 * max(per_call),
        "cover_size_mean": first.size_mean,
        "peak_rss_mb": peak_rss[0],
    }
    info = {
        "passes": len(passes),
        "calls_per_pass": len(per_call),
        "wall_s": statistics.median(p.wall for p in passes),
        "digest": digests[0],
        "fail_ratio": failed / attempted,
        "errors": dict(sum((v.errors for v in verdicts), Counter())),
        "cover_weight_mean": first.weight_mean,
        "approx_ratio_mean": first.ratio_mean,
        "call_cpu_p90_ms": (1000 * statistics.quantiles(per_call, n=10)[-1]
                            if len(per_call) >= 10 * TAIL_SAMPLES else None),
    }
    correct = (all(r[2] for r in runs) and len(set(digests)) == 1
               and not any(v.wrong for v in verdicts))
    units = declared_units(root, "end_to_end")
    report(workload, seed, provenance(root, workload, seed, cases), metrics, units, info)
    return result(correct, attempted, failed, metrics, units)


def traced(workload, seed, seconds, smoke, root, workdir) -> dict:
    tracer = spans.Tracer()
    with spans.installed(tracer):
        cases, _, round_trip = setup(workload, seed, smoke, workdir)
    _, setup_s, _ = tracer.log.totals()
    units = declared_units(root, "per_layer")
    check_s = []  # CPU seconds in model.fairness_report, per traced pass

    def pair():
        plain = checked(workload, cases, run_pass(workload, cases))
        tracer.log = spans.SpanLog()
        with spans.installed(tracer):
            raw = run_pass(workload, cases, tracer.lp_solver)
        layers = spans.layer_metrics(tracer.log, raw.cpu, units)
        # The checks are traced into a log of their own, outside the pass's.
        tracer.log = spans.SpanLog()
        with spans.installed(tracer):
            pass_ = checked(workload, cases, raw)
        check_s.append(tracer.log.totals()[1].get("model.fairness_report", 0.0))
        return plain, pass_, layers

    pairs = repeat(seconds, pair)
    plain, traced_passes, layers = zip(*pairs)
    verdicts = [p.verdict for p in traced_passes]

    metrics = {
        name: statistics.median(layer[name] for layer in layers)
        for name in layers[0]
    }
    for name in ("io_generators.generate", "io_generators.load_instance"):
        metrics[f"{name}.s"] = setup_s.get(name, 0.0)
    metrics["model.fairness_report.s"] = statistics.median(check_s)
    for name in units:
        if name.startswith("errors.") and name.endswith(".count"):
            cls = name[len("errors."):-len(".count")]
            metrics[name] = statistics.median(v.errors[cls] for v in verdicts)
    cpu_plain = statistics.median(p.cpu for p in plain)
    cpu_traced = statistics.median(p.cpu for p in traced_passes)
    metrics["trace.overhead_pct"] = 100 * (cpu_traced / cpu_plain - 1)

    # The traced passes must return exactly the covers the untraced ones do.
    digests = [p.digest for p in plain + traced_passes]
    attempted = sum(len(p.times) for p in traced_passes)
    failed = sum(v.failed for v in verdicts)
    correct = (round_trip and len(set(digests)) == 1
               and not any(v.wrong for v in verdicts))
    info = {
        "pairs": len(pairs),
        "digest": digests[0],
        "untraced_pass_cpu_s": cpu_plain,
        "traced_pass_cpu_s": cpu_traced,
        # Each layer's time and self time in the traced pass, in CPU seconds.
        "layer_s": {k[:-4]: round(v * cpu_traced / 100, 6) for k, v in metrics.items()
                    if k.endswith(".pct") and v},
        "layer_self_s": {k[:-9]: round(v * cpu_traced / 100, 6) for k, v in metrics.items()
                         if k.endswith(".self_pct") and v},
    }
    metrics = {k: metrics[k] for k in units}
    report(workload, seed, provenance(root, workload, seed, cases), metrics, units, info)
    return result(correct, attempted, failed, metrics, units)


def report(workload, seed, prov, metrics, units, info) -> None:
    print(f"perfbench {workload.name} seed={seed}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for key, value in info.items():
        print(f"  {key:<38} {value}")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:.6g} {units[name]}")


def result(correct, attempted, failed, metrics, units) -> dict:
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
        root: Path) -> dict:
    # Instance files go to a scratch directory inside the checkout.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        measure = traced if trace else end_to_end
        return measure(workload, seed, seconds, smoke, root, Path(tmp))
