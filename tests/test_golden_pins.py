"""Golden pins for the algorithms and oracles that the criterion-01 corpus
(test_golden.py) does not run: plain greedy, the weighted greedy variants,
multicover's sampled mode with its price ledger, and every exact oracle.

The oracle-sized instances mirror the benchmark's oracle-ratio workload
(n 8..12, 8 sets per color), plus a three-color kind and an uneven (1/4, 3/4)
share. A run that raises is pinned by its exception class. Re-record only
when a change moves these results on purpose:

    PYTHONPATH=src python tests/test_golden_pins.py --record
"""

import json
import sys
from pathlib import Path

from faircover.errors import FairCoverError
from faircover.io_generators import gen_synthetic
from faircover.model import FairnessSpec, count_parity
from faircover.multicover import MulticoverInstance, fair_multicover_greedy
from faircover.oracles import opt_fair_cover, opt_fair_multicover, opt_mkcc, opt_set_cover
from faircover.unweighted import greedy_set_cover
from faircover.weighted import greedy_weighted_allpick, naive_wfsc

from support import c01_instance

PINS = Path(__file__).parent / "golden" / "pins.json"
C01_INSTANCES = range(0, 200, 5)
ORACLE_INSTANCES = range(24)


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


def _demands(sys_):
    return MulticoverInstance(sys_, [min(2, len(sys_.element_sets[j])) for j in range(sys_.n)])


def _pin(run):
    """A run's pinned form: its result, or the class of what it raised."""
    try:
        return run()
    except FairCoverError as exc:
        return {"raised": type(exc).__name__}


def _rounds(cover):
    return [list(r) for r in cover.rounds]


def _multicover_sampled(sys_, spec, seed):
    cover, ledger = fair_multicover_greedy(_demands(sys_), spec, mode="mkcc_sub", rng=seed)
    return {
        "rounds": _rounds(cover),
        "alive": list(ledger.alive_history),
        "entries": [[e.round_index, e.element, e.occurrence] for e in ledger.entries],
    }


def algorithm_pins(sys_, spec, seed):
    return {
        "greedy_set_cover": _pin(lambda: _rounds(greedy_set_cover(sys_))),
        "naive_wfsc": _pin(lambda: _rounds(naive_wfsc(sys_, spec))),
        "greedy_weighted_allpick": _pin(
            lambda: _rounds(greedy_weighted_allpick(sys_, spec))
        ),
        "fair_multicover_greedy(mkcc_sub)": _pin(
            lambda: _multicover_sampled(sys_, spec, seed)
        ),
    }


def _selected(cover):
    return None if cover is None else list(cover.selected)


def oracle_pins(sys_, spec):
    everything = range(sys_.n)
    # A mid-run state: odd elements uncovered, each color's first set taken.
    later = [e for e in everything if e % 2]
    left = [g[1:] for g in sys_.sets_by_color]
    out = {
        "opt_set_cover": _pin(lambda: _selected(opt_set_cover(sys_))),
        "opt_fair_cover": _pin(lambda: _selected(opt_fair_cover(sys_, spec))),
        "opt_fair_cover(weighted)": _pin(
            lambda: _selected(opt_fair_cover(sys_, spec, weighted=True))
        ),
        "opt_fair_multicover": _pin(
            lambda: _selected(opt_fair_multicover(_demands(sys_), spec))
        ),
    }
    for label, unc, rem in (
        ("start", everything, sys_.sets_by_color),
        ("after", later, left),
    ):
        for ratio in (False, True):
            name = f"opt_mkcc({label}{', ratio' if ratio else ''})"
            out[name] = _pin(
                lambda: list(opt_mkcc(sys_, unc, rem, spec.per_round, weighted_ratio=ratio))
            )
    return out


def pinned_results():
    """Every pinned result, keyed by instance label then by run name."""
    out = {}
    for idx in C01_INSTANCES:
        sys_, spec = c01_instance(idx)
        out[f"c01-{idx}"] = algorithm_pins(sys_, spec, idx)
    for idx in ORACLE_INSTANCES:
        sys_, spec = oracle_instance(idx)
        out[f"oracle-{idx}"] = {**algorithm_pins(sys_, spec, idx), **oracle_pins(sys_, spec)}
    return out


def _as_json(results):
    # Round-trip through JSON so tuples compare equal to recorded lists.
    return json.loads(json.dumps(results))


def test_results_match_golden_pins():
    recorded = json.loads(PINS.read_text())
    got = _as_json(pinned_results())
    assert sorted(recorded) == sorted(got)
    moved = [
        (label, name)
        for label, runs in got.items()
        for name, result in runs.items()
        if recorded[label].get(name) != result
    ]
    assert not moved, f"{len(moved)} pinned results moved: {moved}"
    assert all(sorted(recorded[label]) == sorted(got[label]) for label in got)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_pins.py --record")
    results = _as_json(pinned_results())
    lines = [f' "{label}": {json.dumps(runs, sort_keys=True)}' for label, runs in results.items()]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(lines)} instances to {PINS}")
