"""Golden cover corpus: the covers of all seven criterion-01 algorithms on
every fifth of criterion 01's 200 instances, pinned bit for bit.

A change that keeps behaviour (a refactor, a faster kernel on the same
pivot path) must leave every cover as recorded. A change that moves covers
on purpose re-records the corpus and says how many covers moved and why:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import sys
from pathlib import Path

from faircover.generalized import gfsc
from faircover.multicover import MulticoverInstance, fair_multicover_greedy
from faircover.unweighted import eff_fsc, greedy_allpick, naive_fsc
from faircover.weighted import eff_wfsc

from support import c01_instance

CORPUS = Path(__file__).parent / "golden" / "c01_covers.json"
INSTANCES = range(0, 200, 5)


def corpus_covers(idx):
    """Rounds of each algorithm's cover on instance idx, seeded as in
    criterion 01."""
    sys_, spec = c01_instance(idx)
    reqs = [min(2, len(sys_.element_sets[j])) for j in range(sys_.n)]
    covers = {
        "naive_fsc": naive_fsc(sys_, spec),
        "greedy_allpick": greedy_allpick(sys_, spec),
        "eff_fsc(greedy)": eff_fsc(sys_, spec, subroutine="greedy", rng=idx),
        "eff_fsc(lp)": eff_fsc(sys_, spec, subroutine="lp", rng=idx),
        "eff_wfsc": eff_wfsc(sys_, spec, rng=idx),
        "gfsc(lp_sub)": gfsc(sys_, spec, mode="lp_sub", rng=idx + 1),
        "fair_multicover_greedy": fair_multicover_greedy(
            MulticoverInstance(sys_, reqs), spec
        )[0],
    }
    return {name: [list(r) for r in cover.rounds] for name, cover in covers.items()}


def test_covers_match_golden_corpus():
    recorded = json.loads(CORPUS.read_text())
    assert sorted(int(i) for i in recorded) == list(INSTANCES)
    moved = [
        (idx, name)
        for idx in INSTANCES
        for name, rounds in corpus_covers(idx).items()
        if recorded[str(idx)][name] != rounds
    ]
    assert not moved, f"{len(moved)} covers moved from the corpus: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    lines = [
        f' "{idx}": {json.dumps(corpus_covers(idx), sort_keys=True)}'
        for idx in INSTANCES
    ]
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(lines)} instances x 7 algorithms to {CORPUS}")
