"""Command line front end.

Two commands: solve runs one algorithm on one instance and emits a report
record; compare runs several algorithms over seeded generator trials and
emits per-algorithm summary rows. Exit codes: 0 success, 1 a report that
could not be written (a closed stdout or an unwritable --out), 2 bad input
or a refused exhaustive enumeration, 3 an algorithm that started and failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import BudgetExceeded, FairCoverError, ParseError
from .generalized import EpsilonSpec, epsilon_gfsc, gfsc
from .io_generators import _is_int, gen_biased, gen_synthetic, load_instance
from .model import (
    Cover,
    FairnessSpec,
    count_parity,
    fairness_report,
    validate_instance,
)
from .multicover import MulticoverInstance, fair_multicover_greedy
from .oracles import opt_fair_cover, opt_set_cover
from .unweighted import eff_fsc, greedy_allpick, greedy_set_cover, naive_fsc
from .weighted import eff_wfsc, greedy_weighted_allpick, naive_wfsc

REPORT_SCHEMA = "faircover.report/1"

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faircover",
        description="Set cover with exact per-group selection quotas.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        src = p.add_argument_group("instance source")
        src.add_argument("--instance", type=Path, help="instance file to load")
        src.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help="instance file format (default json)",
        )
        src.add_argument(
            "--generator", choices=("synthetic", "biased"),
            help="generate the instance instead of loading it",
        )
        src.add_argument("--n", type=int, default=30, help="universe size")
        src.add_argument("--m", type=int, default=8, help="sets per group")
        src.add_argument("--k", type=int, default=2, help="number of groups")
        src.add_argument(
            "--coverage-p", type=float, default=0.3,
            help="membership probability for the synthetic generator",
        )
        src.add_argument(
            "--weights", choices=("none", "uniform"), default="none",
            help="synthetic weight distribution",
        )
        p.add_argument(
            "--fractions",
            help="comma-separated group shares like 1/3,2/3 (default: equal)",
        )
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
        p.add_argument(
            "--subroutine", choices=("greedy", "lp"),
            help="per-round engine for gfsc (greedy or lp) / multicover (lp only)",
        )
        p.add_argument(
            "--requirements",
            help="multicover demands: an integer applied to every element "
            "or a path to a JSON list",
        )
        p.add_argument(
            "--epsilon",
            help="tolerance for a banded-fairness audit of the gfsc cover",
        )
        p.add_argument(
            "--output", choices=("text", "json", "csv"), default="text",
            help="report format",
        )
        p.add_argument("--out", type=Path, help="write the report here instead of stdout")

    solve = sub.add_parser("solve", help="run one algorithm on one instance")
    add_common(solve)
    solve.add_argument("--algo", choices=ALGORITHMS, required=True)

    compare = sub.add_parser(
        "compare", help="summarize algorithms over seeded generator trials"
    )
    add_common(compare)
    compare.add_argument(
        "--algos", required=True,
        help="comma-separated algorithm names, e.g. sc,allpick",
    )
    compare.add_argument("--trials", type=int, default=10)
    return parser


def _emit(text: str, out: Path | None) -> None:
    # Flushed here, so a closed stdout fails inside main's handlers.
    if out is None:
        print(text, flush=True)
    else:
        out.write_text(text + "\n")


def _load_system(args) -> "SetSystem":
    if (args.instance is None) == (args.generator is None):
        raise ValueError("provide exactly one of --instance or --generator")
    if args.instance is not None:
        try:
            return load_instance(args.instance, format=args.format)
        except OSError as exc:
            raise ValueError(f"--instance: {exc}") from None
    if args.generator == "synthetic":
        weight_dist = ("uniform", 1.0, 8.0) if args.weights == "uniform" else None
        return gen_synthetic(
            args.n, args.m, args.k,
            coverage_dist=("uniform", args.coverage_p),
            weight_dist=weight_dist,
            seed=args.seed,
        )
    return gen_biased(args.n, args.m, seed=args.seed)


def _fraction(flag: str, text: str) -> Fraction:
    """text as an exact rational; a malformed one or a zero denominator is
    an input error naming flag."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag}: {text!r} is not a fraction") from None


def _make_spec(args, system) -> FairnessSpec:
    if args.fractions is not None:
        parts = [_fraction("--fractions", part) for part in args.fractions.split(",")]
        if len(parts) != system.num_colors:
            raise ValueError(
                f"--fractions names {len(parts)} groups "
                f"but the instance has {system.num_colors}"
            )
        return FairnessSpec(parts)
    return count_parity(max(system.num_colors, 1))


def _requirements(args, system) -> tuple[int, ...]:
    if args.requirements is None:
        return tuple([1] * system.n)
    try:
        const = int(args.requirements)
    except ValueError:
        try:
            reqs = json.loads(Path(args.requirements).read_text())
        except OSError as exc:
            raise ValueError(f"--requirements: {exc}") from None
        except RecursionError:
            reqs = None
        if not isinstance(reqs, list) or not all(_is_int(r) for r in reqs):
            raise ValueError("--requirements file must hold a JSON list of integers") from None
        return tuple(reqs)
    return tuple([const] * system.n)


def _run_gfsc(system, spec: FairnessSpec, args, rng) -> Cover:
    mode = {"greedy": "greedy_sub", "lp": "lp_sub"}.get(args.subroutine, "exhaustive")
    if args.epsilon is not None:
        band = EpsilonSpec(spec, _fraction("--epsilon", args.epsilon))
        cover, audit = epsilon_gfsc(system, band, mode=mode, rng=rng)
        if not audit.ok:
            raise FairCoverError("banded fairness audit failed")
        return cover
    return gfsc(system, spec, mode=mode, rng=rng)


def _run_multicover(system, spec: FairnessSpec, args, rng) -> Cover:
    inst = MulticoverInstance(system, _requirements(args, system))
    mode = "mkcc_sub" if args.subroutine == "lp" else "exhaustive"
    return fair_multicover_greedy(inst, spec, mode=mode, rng=rng)[0]


# Each algorithm name's runner(system, spec, args, rng); opt-fair returns
# None when no quota-respecting cover exists.
_RUNNERS = {
    "sc": lambda system, spec, args, rng: greedy_set_cover(system),
    "naive": lambda system, spec, args, rng: naive_fsc(system, spec),
    "allpick": lambda system, spec, args, rng: greedy_allpick(system, spec),
    "eff-greedy": lambda system, spec, args, rng: eff_fsc(system, spec, "greedy", rng),
    "eff-lp": lambda system, spec, args, rng: eff_fsc(system, spec, "lp", rng),
    "wfsc-naive": lambda system, spec, args, rng: naive_wfsc(system, spec),
    "wfsc-allpick": lambda system, spec, args, rng: greedy_weighted_allpick(system, spec),
    "wfsc-eff": lambda system, spec, args, rng: eff_wfsc(system, spec, rng),
    "gfsc": _run_gfsc,
    "multicover": _run_multicover,
    "opt-sc": lambda system, spec, args, rng: opt_set_cover(system),
    "opt-fair": lambda system, spec, args, rng: opt_fair_cover(
        system, spec, weighted=system.is_weighted
    ),
}
ALGORITHMS = tuple(_RUNNERS)
# The optional flags each algorithm reads; --subroutine maps to its engines.
_READS = {
    "gfsc": {"subroutine": ("greedy", "lp"), "epsilon": None},
    "multicover": {"subroutine": ("lp",), "requirements": None},
}


def _check_flags(algos, args) -> None:
    """Refuse a flag that would be dropped silently. Each flag given is
    checked against the algorithms in algos that read it, or all of them
    when none does, so compare may set gfsc's engine beside algorithms
    without one; --subroutine is also checked against each reader's engines."""
    for flag in ("subroutine", "epsilon", "requirements"):
        value = getattr(args, flag)
        if value is None:
            continue
        for algo in [a for a in algos if flag in _READS.get(a, {})] or algos:
            accepts = _READS.get(algo, {}).get(flag, ())
            if accepts is not None and value not in accepts:
                raise ValueError(f"--{flag} {value}: {algo} accepts {'|'.join(accepts) or 'none'}")


def _run_algorithm(algo: str, system, spec: FairnessSpec, args) -> Cover | None:
    # The seed, not a Generator: each algorithm builds its Generator from it
    # (the same stream) only on a path that draws.
    return _RUNNERS[algo](system, spec, args, args.seed)


def _report_record(algo: str, system, spec: FairnessSpec, cover: Cover,
                   elapsed_ms: float, seed: int) -> dict:
    rep = fairness_report(system, spec, cover)
    return {
        "schema": REPORT_SCHEMA,
        "algorithm": algo,
        "cover_size": cover.size,
        "total_weight": cover.total_weight,
        "fairness_ratio": float(rep.fairness_ratio),
        "per_group_counts": list(cover.group_counts),
        "wall_time_ms": elapsed_ms,
        "seed": seed,
        "selected": list(cover.selected),
    }


def _format_solve(record: dict, output: str) -> str:
    if output == "json":
        return json.dumps(record, indent=1, sort_keys=True)
    if output == "csv":
        cols = [
            "algorithm", "cover_size", "total_weight", "fairness_ratio",
            "per_group_counts", "wall_time_ms", "seed",
        ]
        row = [
            record["algorithm"], record["cover_size"], record["total_weight"],
            record["fairness_ratio"],
            ";".join(str(c) for c in record["per_group_counts"]),
            f"{record['wall_time_ms']:.3f}", record["seed"],
        ]
        return ",".join(cols) + "\n" + ",".join(str(v) for v in row)
    lines = [
        f"algorithm:        {record['algorithm']}",
        f"cover size:       {record['cover_size']}",
        f"total weight:     {record['total_weight']:g}",
        f"fairness ratio:   {record['fairness_ratio']:.6g}",
        "per-group counts: " + ",".join(str(c) for c in record["per_group_counts"]),
        f"wall time:        {record['wall_time_ms']:.3f} ms",
        f"seed:             {record['seed']}",
        "selected:         " + ",".join(str(i) for i in record["selected"]),
    ]
    return "\n".join(lines)


def _cmd_solve(args) -> int:
    _check_flags([args.algo], args)
    system = _load_system(args)
    outcome = validate_instance(system)
    if not outcome.ok:
        raise ValueError(f"instance failed validation: {outcome}")
    spec = _make_spec(args, system)
    start = time.perf_counter()
    cover = _run_algorithm(args.algo, system, spec, args)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if cover is None:
        print("no quota-respecting cover exists for this instance", file=sys.stderr)
        return 3
    record = _report_record(args.algo, system, spec, cover, elapsed_ms, args.seed)
    _emit(_format_solve(record, args.output), args.out)
    return 0


def _cmd_compare(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    unknown = [a for a in algos if a not in ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithms: {unknown}")
    _check_flags(algos, args)
    if args.generator is None:
        raise ValueError("compare needs --generator (each trial draws a fresh instance)")
    if args.trials < 1:
        raise ValueError("--trials must be positive")

    # One instance per trial, shared by every algorithm.
    trials = []
    for t in range(args.trials):
        trial_args = argparse.Namespace(**vars(args))
        trial_args.seed = args.seed + t
        system = _load_system(trial_args)
        # Build the cached views now, or the first algorithm listed would be
        # timed building them for every later one.
        for view in ("masks", "sets_by_color", "element_sets"):
            getattr(system, view)
        trials.append((trial_args, system, _make_spec(args, system)))

    rows = []
    for algo in algos:
        sizes: list[float] = []
        weights: list[float] = []
        ratios: list[float] = []
        times: list[float] = []
        failures = 0
        for trial_args, system, spec in trials:
            try:
                start = time.perf_counter()
                cover = _run_algorithm(algo, system, spec, trial_args)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                if cover is None:
                    failures += 1
                    continue
            except FairCoverError:
                failures += 1
                continue
            rep = fairness_report(system, spec, cover)
            sizes.append(cover.size)
            weights.append(cover.total_weight)
            ratios.append(float(rep.fairness_ratio))
            times.append(elapsed_ms)
        rows.append(
            {
                "algorithm": algo,
                "trials": args.trials,
                "failures": failures,
                "size_mean": _mean(sizes),
                "size_std": _std(sizes),
                "weight_mean": _mean(weights),
                "fairness_mean": _mean(ratios),
                "fairness_std": _std(ratios),
                "time_mean_ms": _mean(times),
            }
        )
    _emit(_format_compare(rows, args.output), args.out)
    return 0


def _mean(xs: list[float]) -> float:
    return statistics.fmean(xs) if xs else float("nan")


def _std(xs: list[float]) -> float:
    return statistics.stdev(xs) if len(xs) > 1 else 0.0


_COMPARE_COLS = (
    "algorithm", "trials", "failures", "size_mean", "size_std",
    "weight_mean", "fairness_mean", "fairness_std", "time_mean_ms",
)


def _format_compare(rows: list[dict], output: str) -> str:
    if output == "json":
        return json.dumps({"schema": "faircover.compare/1", "rows": rows},
                          indent=1, sort_keys=True)
    if output == "csv":
        lines = [",".join(_COMPARE_COLS)]
        for r in rows:
            lines.append(",".join(_cell(r[c]) for c in _COMPARE_COLS))
        return "\n".join(lines)
    lines = []
    for r in rows:
        lines.append(
            f"{r['algorithm']}: size {r['size_mean']:.2f} +- {r['size_std']:.2f}, "
            f"weight {r['weight_mean']:.2f}, "
            f"fairness {r['fairness_mean']:.4f} +- {r['fairness_std']:.4f}, "
            f"time {r['time_mean_ms']:.2f} ms, "
            f"failures {r['failures']}/{r['trials']}"
        )
    return "\n".join(lines)


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_compare(args)
    except BudgetExceeded as exc:
        # An exhaustive algorithm refused before enumerating; the subroutine
        # engines never enumerate.
        print(f"refused: {exc}; try --algo eff-greedy or eff-lp", file=sys.stderr)
        return 2
    except (ParseError, ValueError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Input reading reports its OSError as ValueError, so this one came
        # from writing the report.
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except FairCoverError as exc:
        print(f"algorithm error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
