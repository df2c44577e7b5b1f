"""Time one 53-bit grid operation per cell and count its shared walks.

The operation is a map_grid sweep of F1, F3, A1 or A3, or a check_grid
of one agreement kind (d1af, d1fa, d3af, d3fa, dq1, dq3).  A sweep
evaluates a row per call (evaluators._sweep), and its loop runs each F
cell's walk through _ftilde_eval with the row's memo of
functional-equation walks by exact base point, so an F cell a whole
number of units from another cell of its row can read its value off
that cell's walk; on a grid with no such columns every walking cell
sums its own series.  A1 and A3 walk no F~, and the checks' F walks
keep no memo.  For one operation on one
grid this script prints, as one JSON line: the CPU time per cell of the
best of --repeat runs (after a warm-up run, which builds the kernel's
tables), the peak RSS of those runs, the F~ walks that take at least one
step ("walking"), and how many of those summed no series of their own
("hits": they read another cell's walk).  The counts come from one more
run with the series summation and the walk driver wrapped.  That run
also records each F~ sum ("sums" counts them), and "sum_us" is the CPU
time per sum of the best of --repeat replays of those sums.

Usage (from the repository root):

    python3 tools/sweep_cost.py F1 --grid=-8:28:-14:14:145:113
    python3 tools/sweep_cost.py dq1 --grid=-2:6:-6:6:41:61
    python3 tools/sweep_cost.py A1 --grid=-8:28:-14:14:145:113 --src OTHER/src

The grid is x_min:x_max:y_min:y_max:nx:ny (the "=" keeps a negative
x_min from reading as an option), and --repeat is at least 1.  --src
imports the library from another tree, for example a git archive of an
earlier commit; its _ftilde_eval must take (kernel, w0, plus, chains),
the side as the bool `plus` (True for F3), or the walks cannot be
counted and the script exits 2 naming what it takes.  Run one process
per operation and tree, so that each peak RSS is that run's own.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MAPS = ("F1", "F3", "A1", "A3")
CHECKS = ("d1af", "d1fa", "d3af", "d3fa", "dq1", "dq3")
# the walk driver's parameters that the counter reads
WALK_PARAMS = ("kernel", "w0", "plus", "chains")


@contextlib.contextmanager
def _count(evaluators):
    """Count the walks of the runs inside the block, yielding
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


def _walk_mismatch(evaluators) -> str | None:
    # what the tree's walk driver takes, when the counter cannot read it
    params = tuple(inspect.signature(evaluators._ftilde_eval).parameters)
    if params == WALK_PARAMS:
        return None
    return (f"_ftilde_eval takes ({', '.join(params)}), not"
            f" ({', '.join(WALK_PARAMS)}): its walks cannot be counted")


def _cpu(f, *args) -> float:
    start = time.process_time()
    f(*args)
    return time.process_time() - start


def _replay(sums: list) -> None:
    for series, kernel, args in sums:
        series(kernel, *args)


def _repeat(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("fn", choices=MAPS + CHECKS)
    parser.add_argument("--grid", required=True, help="x_min:x_max:y_min:y_max:nx:ny")
    parser.add_argument("--repeat", type=_repeat, default=3)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if src not in sys.path:
        sys.path.insert(0, src)
    from superexp import evaluators, iteration

    if not os.path.abspath(evaluators.__file__).startswith(src + os.sep):
        parser.exit(2, f"{parser.prog}: superexp was loaded from {evaluators.__file__}\n")
    mismatch = _walk_mismatch(evaluators)
    if mismatch:
        parser.exit(2, f"{parser.prog}: {mismatch}\n")
    *bounds, nx, ny = args.grid.split(":")
    grid = iteration.GridSpec(*map(float, bounds), int(nx), int(ny))
    run = iteration.map_grid if args.fn in MAPS else iteration.check_grid
    run(args.fn, grid)
    best = min(_cpu(run, args.fn, grid) for _ in range(args.repeat))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with _count(evaluators) as (counts, sums):
        run(args.fn, grid)
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
