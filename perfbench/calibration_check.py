"""Checks that a faster program does not move the host-speed kernel.

Run from the repository root::

    python3 perfbench/calibration_check.py --seconds 150

On ``read-default``, blocks of 10 queries alternate between the program
as it is and the program with ``Database.dataset_statistics`` memoised,
which makes a query several times faster because the planner no longer
rescans the store.  Before every query the loop times the kernel of
:mod:`calibrate`, as a measured run does.  Each pair of adjacent blocks
gives the ratio (memoised / as is) of their median kernel times; the
host's drift is slow against a pair, so it cancels.  The script prints
the median ratio with its standard error, for the kernel and for the
queries, and exits non-zero when the kernel's ratio differs from 1 by
more than TOLERANCE: scaled latencies would then hide (or add) more
than that share of such a gain.  The memoisation is a patch applied
from here and undone before the script ends; nothing under ``src/``
changes.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLOCK = 10
#: Largest accepted |kernel ratio - 1|: an eighth of the 0.25 bound of
#: the scaled latencies.  The kernel does move by ~1 % (design.json).
TOLERANCE = 0.03


def _median_ratio(pairs, get):
    """Median of per-pair ratios and its standard error."""
    ratios = [
        statistics.median(get(r) for r in fast) / statistics.median(get(r) for r in plain)
        for plain, fast in pairs
    ]
    q1, _q2, q3 = statistics.quantiles(ratios, n=4)
    # Standard error of a median: 1.2533 sd / sqrt(n), sd ~ IQR / 1.349.
    return statistics.median(ratios), 1.2533 * (q3 - q1) / 1.349 / len(ratios) ** 0.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=150.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import calibrate
    import workloads
    from repro.core.database import Database

    workload = workloads.WORKLOADS["read-default"]
    view_holder: list = []
    inst = workloads.Instance(workload, args.seed, view_holder)
    clock = calibrate.HostClock()
    ops = (op for op in workload.ops(view_holder[0], args.seed) if op.query is not None)
    original = Database.__dict__["dataset_statistics"]
    memo = {}

    def memoised(db):
        if id(db) not in memo:
            memo[id(db)] = original(db)
        return memo[id(db)]

    blocks = []
    end = time.perf_counter() + args.seconds
    try:
        while time.perf_counter() < end:
            Database.dataset_statistics = memoised if len(blocks) % 2 else original
            block = []
            for _ in range(BLOCK):
                prepared = inst.prepare_query(next(ops).query)
                kernel = clock._time_kernel()
                t0 = time.perf_counter()
                inst.run_query(prepared)
                block.append((kernel, time.perf_counter() - t0))
            blocks.append(block)
    finally:
        Database.dataset_statistics = original
    pairs = list(zip(blocks[0::2], blocks[1::2]))
    kernel, kernel_se = _median_ratio(pairs, lambda r: r[0])
    query, query_se = _median_ratio(pairs, lambda r: r[1])
    print(f"{len(pairs)} block pairs of {BLOCK} read-default queries, seed {args.seed}")
    print(f"query time  memoised / as is {query:.4f} +- {query_se:.4f}")
    print(f"kernel time memoised / as is {kernel:.4f} +- {kernel_se:.4f}")
    if abs(kernel - 1.0) > TOLERANCE:
        print("FAILED: the program's speed moved the kernel", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
