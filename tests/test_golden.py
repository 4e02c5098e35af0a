"""Golden cover corpus: the covers of all seven criterion-01 algorithms on
every fifth of criterion 01's 200 instances, pinned bit for bit, and the
pivot path of the three LP algorithms on them: their lp._pivot calls and
cold lp._optimize solves, counted during the same run.

A change that keeps behaviour (a refactor, a faster kernel on the same
pivot path) must leave every cover and count as recorded. A change that
moves them on purpose re-records both files and says how many moved and
why:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path

from faircover import lp
from faircover.generalized import gfsc
from faircover.multicover import MulticoverInstance, fair_multicover_greedy
from faircover.unweighted import eff_fsc, greedy_allpick, naive_fsc
from faircover.weighted import eff_wfsc

from support import c01_instance

CORPUS = Path(__file__).parent / "golden" / "c01_covers.json"
PIVOTS = Path(__file__).parent / "golden" / "c01_pivots.json"
INSTANCES = range(0, 200, 5)
LP_ALGORITHMS = ("eff_fsc(lp)", "eff_wfsc", "gfsc(lp_sub)")


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


def corpus_run(idx):
    """Rounds of each algorithm's cover on instance idx, seeded as in
    criterion 01, and [pivots, cold solves] of each LP algorithm's run."""
    sys_, spec = c01_instance(idx)
    reqs = [min(2, len(sys_.element_sets[j])) for j in range(sys_.n)]
    runs = {
        "naive_fsc": lambda: naive_fsc(sys_, spec),
        "greedy_allpick": lambda: greedy_allpick(sys_, spec),
        "eff_fsc(greedy)": lambda: eff_fsc(sys_, spec, subroutine="greedy", rng=idx),
        "eff_fsc(lp)": lambda: eff_fsc(sys_, spec, subroutine="lp", rng=idx),
        "eff_wfsc": lambda: eff_wfsc(sys_, spec, rng=idx),
        "gfsc(lp_sub)": lambda: gfsc(sys_, spec, mode="lp_sub", rng=idx + 1),
        "fair_multicover_greedy": lambda: fair_multicover_greedy(
            MulticoverInstance(sys_, reqs), spec
        )[0],
    }
    covers, pivots = {}, {}
    for name, run in runs.items():
        with lp_calls() as counts:
            covers[name] = [list(r) for r in run().rounds]
        if name in LP_ALGORITHMS:
            pivots[name] = [counts["_pivot"], counts["_optimize"]]
    return covers, pivots


@cache
def corpus():
    """corpus_run of every corpus instance, made once for both tests."""
    return {idx: corpus_run(idx) for idx in INSTANCES}


def test_covers_match_golden_corpus():
    recorded = json.loads(CORPUS.read_text())
    assert sorted(int(i) for i in recorded) == list(INSTANCES)
    moved = [
        (idx, name)
        for idx, (covers, _) in corpus().items()
        for name, rounds in covers.items()
        if recorded[str(idx)][name] != rounds
    ]
    assert not moved, f"{len(moved)} covers moved from the corpus: {moved}"


def test_pivot_counts_match_golden_pins():
    recorded = json.loads(PIVOTS.read_text())
    assert sorted(int(i) for i in recorded) == list(INSTANCES)
    moved = [
        (idx, name, recorded[str(idx)][name], counts)
        for idx, (_, pivots) in corpus().items()
        for name, counts in pivots.items()
        if recorded[str(idx)][name] != counts
    ]
    assert not moved, f"{len(moved)} pivot counts moved from the pins: {moved}"


def test_wrapped_default_solver_gives_the_default_covers():
    # A wrapper that calls lp.solve (as perfbench's traced pass does) sees
    # the same problems in the same order, so solve() warm-starts the same
    # targets and every eff_wfsc cover equals the default path's, which the
    # corpus pins.
    recorded = json.loads(CORPUS.read_text())
    for idx in INSTANCES:
        sys_, spec = c01_instance(idx)
        wrapped = eff_wfsc(sys_, spec, rng=idx, lp_solver=lambda p: lp.solve(p))
        assert [list(r) for r in wrapped.rounds] == recorded[str(idx)]["eff_wfsc"], idx


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    for path, part in ((CORPUS, 0), (PIVOTS, 1)):
        lines = [
            f' "{idx}": {json.dumps(run[part], sort_keys=True)}'
            for idx, run in corpus().items()
        ]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(INSTANCES)} instances to {CORPUS} and {PIVOTS}")
