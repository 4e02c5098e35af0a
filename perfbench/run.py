"""Run one faircover benchmark workload and print its metrics.

    python3 perfbench/run.py --workload c01-mix --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run. ``--smoke`` runs each workload at a tiny size. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="tiny instances")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    # Single-threaded BLAS, fixed before numpy is first imported.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (SRC / "faircover" / "__init__.py").is_file():
        print(f"perfbench: no faircover sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bench  # imports numpy and faircover
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    out = bench.run(WORKLOADS[args.workload], args.seed, args.seconds,
                    bool(args.trace), args.smoke, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    # Leave through SystemExit on SIGTERM, so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main())
