"""Golden results: every pinned cover, pivot count and oracle answer, run
from one table and checked against the four files under tests/golden.

- c01_covers.json: the covers of all seven criterion-01 algorithms on
  every fifth of criterion 01's 200 instances;
- c01_pivots.json: the pivot path of the three LP algorithms on them, as
  their lp._pivot calls and cold lp._optimize solves in the same run;
- pins.json: plain greedy, the weighted greedy variants and multicover's
  sampled mode with its price ledger on those instances and on 24
  oracle-sized ones, and every exact oracle on the oracle-sized ones;
- instances.json: a digest of every instance above and of a small table
  of generator calls, so a shifted random stream shows as moved
  instances rather than as unexplained cover moves.

The oracle-sized instances mirror the benchmark's oracle-ratio workload
(n 8..12, 8 sets per color), plus a three-color kind and an uneven
(1/4, 3/4) share. A run that raises is pinned by its exception class.

A change that keeps behaviour (a refactor, a faster kernel on the same
pivot path) must leave every result as recorded. A change that moves
results on purpose re-records all four files, which prints how many
results moved in each, and says how many and why:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import json
import sys
from contextlib import contextmanager, nullcontext
from functools import cache
from pathlib import Path

from faircover import lp
from faircover.errors import FairCoverError
from faircover.generalized import gfsc
from faircover.io_generators import gen_biased, gen_synthetic
from faircover.model import FairnessSpec, count_parity
from faircover.multicover import MulticoverInstance, fair_multicover_greedy
from faircover.oracles import opt_fair_cover, opt_fair_multicover, opt_mkcc, opt_set_cover
from faircover.unweighted import eff_fsc, greedy_allpick, greedy_set_cover, naive_fsc
from faircover.weighted import eff_wfsc, greedy_weighted_allpick, naive_wfsc

from support import c01_instance

GOLDEN = Path(__file__).parent / "golden"
# Each file's instance label, from the instance's kind and index.
FILES = {
    "c01_covers.json": "{idx}",
    "c01_pivots.json": "{idx}",
    "pins.json": "{kind}-{idx}",
    "instances.json": "{kind}-{idx}",
}
C01 = range(0, 200, 5)
INSTANCES = [("c01", idx) for idx in C01] + [("oracle", idx) for idx in range(24)]


def oracle_instance(idx):
    """Oracle-sized instance idx as (system, spec). Kinds cycle by idx % 3:
    two colors of 8 sets with equal shares, two colors of 8 sets with shares
    (1/4, 3/4), three colors of 5 sets with equal shares."""
    n = 8 + idx % 5
    weights = ("uniform", 1.0, 7.9)
    kind = idx % 3
    if kind == 2:
        sys_ = gen_synthetic(n, 5, 3, ("uniform", 0.35), weights, seed=idx)
        return sys_, count_parity(3)
    sys_ = gen_synthetic(n, 8, 2, ("uniform", 0.35), weights, seed=idx)
    return sys_, count_parity(2) if kind == 0 else FairnessSpec(["1/4", "3/4"])


# Generator calls pinned beside the corpus instances: both membership
# laws, with and without weights, the biased preset below and above its
# dominance, and empty universes.
GENERATED = {
    "gen_synthetic(12, 3, 2, uniform)": lambda: gen_synthetic(12, 3, 2, seed=1),
    "gen_synthetic(12, 3, 2, uniform, weighted)": lambda: gen_synthetic(
        12, 3, 2, weight_dist=("uniform", 1.0, 4.0), seed=2
    ),
    "gen_synthetic(30, 4, 3, zipf)": lambda: gen_synthetic(30, 4, 3, ("zipf", 0.8), seed=3),
    "gen_synthetic(30, 4, 3, zipf, weighted)": lambda: gen_synthetic(
        30, 4, 3, ("zipf", 1.2), ("uniform", 0.5, 3.0), seed=4
    ),
    "gen_synthetic(0, 2, 2, uniform, weighted)": lambda: gen_synthetic(
        0, 2, 2, weight_dist=("uniform", 1.0, 2.0), seed=5
    ),
    "gen_biased(25, 8)": lambda: gen_biased(25, 8, seed=6),
    "gen_biased(18, 3)": lambda: gen_biased(18, 3, seed=7),
    "gen_biased(0, 2)": lambda: gen_biased(0, 2, seed=8),
}


def digest(system):
    """A short hash of an instance's n, sets, colors and weights (floats by
    repr, so equal digests mean equal instances)."""
    text = json.dumps([system.n, system.sets, system.colors, system.weights])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@contextmanager
def lp_calls():
    """Count the calls of lp._pivot and lp._optimize (cold solves) made
    inside the block, by name."""
    counts = {"_pivot": 0, "_optimize": 0}
    real = {name: getattr(lp, name) for name in counts}

    def counted(name):
        def call(*args):
            counts[name] += 1
            return real[name](*args)
        return call

    for name in counts:
        setattr(lp, name, counted(name))
    try:
        yield counts
    finally:
        for name, fn in real.items():
            setattr(lp, name, fn)


def _demands(s):
    return MulticoverInstance(s, [min(2, len(s.element_sets[j])) for j in range(s.n)])


def _rounds(cover):
    return [list(r) for r in cover.rounds]


def _selected(cover):
    return None if cover is None else list(cover.selected)


def _multicover_sampled(s, spec, seed):
    cover, ledger = fair_multicover_greedy(_demands(s), spec, mode="mkcc_sub", rng=seed)
    return {
        "rounds": _rounds(cover),
        "alive": list(ledger.alive_history),
        "entries": [[e.round_index, e.element, e.occurrence] for e in ledger.entries],
    }


def _mkcc(later, ratio):
    """opt_mkcc's round from the start or, if later, from a mid-run state:
    odd elements uncovered, each color's first set taken."""
    def run(s, spec, seed):
        unc = [e for e in range(s.n) if e % 2] if later else range(s.n)
        rem = [g[1:] for g in s.sets_by_color] if later else s.sets_by_color
        return list(opt_mkcc(s, unc, rem, spec.per_round, weighted_ratio=ratio))
    return run


LP_RUNS = ("eff_fsc(lp)", "eff_wfsc", "gfsc(lp_sub)")
# (file, instance kinds) -> run name -> its result from (system, spec, seed).
RUNS = {
    ("c01_covers.json", ("c01",)): {
        "naive_fsc": lambda s, spec, seed: _rounds(naive_fsc(s, spec)),
        "greedy_allpick": lambda s, spec, seed: _rounds(greedy_allpick(s, spec)),
        "eff_fsc(greedy)": lambda s, spec, seed: _rounds(eff_fsc(s, spec, "greedy", rng=seed)),
        "eff_fsc(lp)": lambda s, spec, seed: _rounds(eff_fsc(s, spec, "lp", rng=seed)),
        "eff_wfsc": lambda s, spec, seed: _rounds(eff_wfsc(s, spec, rng=seed)),
        "gfsc(lp_sub)": lambda s, spec, seed: _rounds(gfsc(s, spec, "lp_sub", rng=seed + 1)),
        "fair_multicover_greedy": lambda s, spec, seed: _rounds(
            fair_multicover_greedy(_demands(s), spec)[0]
        ),
    },
    ("pins.json", ("c01", "oracle")): {
        "greedy_set_cover": lambda s, spec, seed: _rounds(greedy_set_cover(s)),
        "naive_wfsc": lambda s, spec, seed: _rounds(naive_wfsc(s, spec)),
        "greedy_weighted_allpick": lambda s, spec, seed: _rounds(greedy_weighted_allpick(s, spec)),
        "fair_multicover_greedy(mkcc_sub)": _multicover_sampled,
    },
    ("pins.json", ("oracle",)): {
        "opt_set_cover": lambda s, spec, seed: _selected(opt_set_cover(s)),
        "opt_fair_cover": lambda s, spec, seed: _selected(opt_fair_cover(s, spec)),
        "opt_fair_cover(weighted)": lambda s, spec, seed: _selected(
            opt_fair_cover(s, spec, weighted=True)
        ),
        "opt_fair_multicover": lambda s, spec, seed: _selected(
            opt_fair_multicover(_demands(s), spec)
        ),
        **{
            f"opt_mkcc({label}{', ratio' if ratio else ''})": _mkcc(later, ratio)
            for later, label in ((False, "start"), (True, "after"))
            for ratio in (False, True)
        },
    },
}


def _pin(run, *args):
    """A run's pinned form, as JSON reads it back: its result, or the class
    of what it raised."""
    try:
        return json.loads(json.dumps(run(*args)))
    except FairCoverError as exc:
        return {"raised": type(exc).__name__}


@cache
def results():
    """Every pinned result, as results()[file][label][run name]; each
    instance is built once for all its runs."""
    out = {file: {} for file in FILES}
    for kind, idx in INSTANCES:
        sys_, spec = c01_instance(idx) if kind == "c01" else oracle_instance(idx)

        def put(file, name, result):
            out[file].setdefault(FILES[file].format(kind=kind, idx=idx), {})[name] = result

        put("instances.json", "digest", digest(sys_))

        for (file, kinds), runs in RUNS.items():
            if kind not in kinds:
                continue
            for name, run in runs.items():
                with lp_calls() if name in LP_RUNS else nullcontext() as counts:
                    put(file, name, _pin(run, sys_, spec, idx))
                if name in LP_RUNS:
                    put("c01_pivots.json", name, [counts["_pivot"], counts["_optimize"]])
    for label, make in GENERATED.items():
        out["instances.json"][label] = {"digest": digest(make())}
    return out


def serialised(runs_by_label):
    """A golden file's text: one line per label, runs in name order."""
    lines = [
        f' "{label}": {json.dumps(runs, sort_keys=True)}' for label, runs in runs_by_label.items()
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def moved(file):
    """(file, label, run) of every result that differs from the file's
    record, a result missing on either side included, and the count of
    results run."""
    recorded = json.loads((GOLDEN / file).read_text())
    got = results()[file]
    keys = {
        (label, name) for side in (recorded, got) for label, runs in side.items() for name in runs
    }
    out = [
        (file, label, name)
        for label, name in sorted(keys)
        if recorded.get(label, {}).get(name) != got.get(label, {}).get(name)
    ]
    return out, sum(map(len, got.values()))


def assert_unmoved(file):
    found = moved(file)[0]
    assert not found, f"{len(found)} results moved: {found}"


def test_covers_match_golden_corpus():
    assert_unmoved("c01_covers.json")


def test_pivot_counts_match_golden_pins():
    assert_unmoved("c01_pivots.json")


def test_instances_match_golden_digests():
    assert_unmoved("instances.json")


def test_the_recorder_rewrites_each_golden_file_unchanged():
    # A drift in the recorder's format fails here, not as a whole-file diff
    # at the next re-record.
    for file in FILES:
        assert serialised(results()[file]) == (GOLDEN / file).read_text(), file


def test_wrapped_default_solver_gives_the_default_covers():
    # A wrapper that calls lp.solve (as perfbench's traced pass does) sees
    # the same problems in the same order, so solve() warm-starts the same
    # targets and every eff_wfsc cover equals the default path's, which the
    # corpus pins.
    corpus = results()["c01_covers.json"]
    for idx in C01:
        sys_, spec = c01_instance(idx)
        wrapped = eff_wfsc(sys_, spec, rng=idx, lp_solver=lambda p: lp.solve(p))
        assert _rounds(wrapped) == corpus[str(idx)]["eff_wfsc"], idx


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    for file in FILES:
        found, total = moved(file)
        (GOLDEN / file).write_text(serialised(results()[file]))
        print(f"{file}: {len(found)} of {total} results moved")
