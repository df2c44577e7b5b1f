"""Time one 53-bit map_grid F1 or F3 sweep and count its shared walks.

A sweep memoizes each functional-equation walk by its exact base point
(evaluators._sweep), so a cell a whole number of units from another
cell of its row can read its value off that cell's walk; on a grid with
no such columns every walking cell sums its own series.  For one
function on one grid this script prints, as one JSON line: the CPU time
per cell of the best of --repeat maps (after a warm-up map, which builds
the kernel's tables), the peak RSS of those maps, the cells whose walk takes at
least one step, and how many of those summed no series of their own
("hits": they read another cell's walk).  The counts come from one more
map with the series summation and the walk driver wrapped.  That map
also records each F~ sum ("sums" counts them), and "sum_us" is the CPU
time per sum of the best of --repeat replays of those sums.

Usage (from the repository root):

    python3 tools/sweep_cost.py F1 --grid=-8:28:-14:14:145:113
    python3 tools/sweep_cost.py F3 --grid=-8:28:-14:14:100:113 --src OTHER/src

The grid is x_min:x_max:y_min:y_max:nx:ny (the "=" keeps a negative
x_min from reading as an option).  --src imports the library
from another tree whose _ftilde_eval takes the same arguments, the
side as the bool `plus` (True for F3), for example a git archive of an
earlier commit.  A tree whose _ftilde_eval still takes a BranchSign
member cannot be counted with this script: its walks would be
miscounted without an error.  Run one process per function and tree,
so that each peak RSS is that sweep's own.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextlib.contextmanager
def _count(evaluators):
    """Count the walks of the maps run inside the block, yielding
    (counts, sums): the double kernel's series and the walk driver are
    wrapped, each sum recorded in `sums` as (series, kernel, args), and
    both restored on exit."""
    kernel_cls, walk = evaluators._DoubleKernel, evaluators._ftilde_eval
    series = kernel_cls.ftilde_series
    counts, sums = {"walking": 0, "hits": 0}, []

    def summed(self, *args):
        sums.append((series, self, args))
        return series(self, *args)

    def counted(kernel, w0, plus, chains=None):
        gap = w0.real + kernel.threshold if plus else kernel.threshold - w0.real
        before = len(sums)
        try:
            return walk(kernel, w0, plus, chains)
        finally:
            if evaluators._walk_length(gap) > 0:
                counts["walking"] += 1
                counts["hits"] += len(sums) == before

    kernel_cls.ftilde_series = summed
    evaluators._ftilde_eval = counted
    try:
        yield counts, sums
    finally:
        kernel_cls.ftilde_series = series
        evaluators._ftilde_eval = walk


def _cpu(f, *args) -> float:
    start = time.process_time()
    f(*args)
    return time.process_time() - start


def _replay(sums: list) -> None:
    for series, kernel, args in sums:
        series(kernel, *args)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("fn", choices=("F1", "F3"))
    parser.add_argument("--grid", required=True, help="x_min:x_max:y_min:y_max:nx:ny")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from superexp import evaluators, iteration

    *bounds, nx, ny = args.grid.split(":")
    grid = iteration.GridSpec(*map(float, bounds), int(nx), int(ny))
    iteration.map_grid(args.fn, grid)
    best = min(_cpu(iteration.map_grid, args.fn, grid) for _ in range(args.repeat))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with _count(evaluators) as (counts, sums):
        iteration.map_grid(args.fn, grid)
    sum_cpu = min(_cpu(_replay, sums) for _ in range(args.repeat))
    cells = grid.nx * grid.ny
    print(json.dumps({
        "fn": args.fn,
        "grid": args.grid,
        "cells": cells,
        "cpu_us_per_cell": round(best / cells * 1e6, 2),
        "peak_rss_mb": round(rss, 2),
        "walking": counts["walking"],
        "hits": counts["hits"],
        "sums": len(sums),
        "sum_us": round(sum_cpu / len(sums) * 1e6, 2) if sums else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
