"""Time one 53-bit grid operation per cell and count its shared walks.

The operation is a map_grid sweep of F1, F3, A1 or A3, or a check_grid
of one agreement kind (d1af, d1fa, d3af, d3fa, dq1, dq3).  A sweep
evaluates a row per call (iteration._rows), and its loop runs each F
cell's walk through the double kernel's one F~ body, ftilde, with the
row's memo of functional-equation walks by exact base point, so an F cell a whole
number of units from another cell of its row can read its value off
that cell's walk; on a grid with no such columns every walking cell
sums its own series.  A1 and A3 walk no F~, and the checks' F walks
keep no memo.  For one operation on one
grid this script prints, as one JSON line: the CPU time per cell of the
best of --repeat runs (after a warm-up run, which builds the kernel's
tables), the peak RSS of those runs, the F~ walks that take at least one
step ("walking"), and how many of those summed no series of their own
("hits": they read another cell's walk).  The counts come from one more
run with the kernel's ftilde wrapped: a call with an empty chain sums
the series at its base, and one of k > 0 steps walks.  That run also
records each F~ sum ("sums" counts them), and "sum_us" is the CPU time
per sum of the best of --repeat replays of those sums, each an ftilde
of no steps.

Usage (from the repository root):

    python3 tools/sweep_cost.py F1 --grid=-8:28:-14:14:145:113
    python3 tools/sweep_cost.py dq1 --grid=-2:6:-6:6:41:61
    python3 tools/sweep_cost.py A1 --grid=-8:28:-14:14:145:113 --src OTHER/src

The grid is x_min:x_max:y_min:y_max:nx:ny (the "=" keeps a negative
x_min from reading as an option), and --repeat is at least 1.  --src
imports the library from another tree, for example a git archive of an
earlier commit; its _DoubleKernel.ftilde must take (self, z, k, plus,
chain), the side as the bool `plus` (True for F3), or the walks cannot
be counted and the script exits 2 naming what it takes.  Run one process
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
# the parameters of the kernel's F~ body that the counter reads
WALK_PARAMS = ("self", "z", "k", "plus", "chain")


@contextlib.contextmanager
def _count(evaluators):
    """Count the walks of the runs inside the block, yielding
    (counts, sums): the double kernel's ftilde is wrapped, each sum
    recorded in `sums` as (ftilde, kernel, args of no steps), and
    restored on exit."""
    kernel_cls = evaluators._DoubleKernel
    ftilde = kernel_cls.ftilde
    counts, sums = {"walking": 0, "hits": 0}, []

    def counted(self, z, k, plus, chain=None):
        if not chain:
            sums.append((ftilde, self, (z, 0, plus)))
        if k > 0:
            counts["walking"] += 1
            counts["hits"] += bool(chain)
        return ftilde(self, z, k, plus, chain)

    kernel_cls.ftilde = counted
    try:
        yield counts, sums
    finally:
        kernel_cls.ftilde = ftilde


def _walk_mismatch(evaluators) -> str | None:
    # what the tree's F~ body takes, when the counter cannot read it
    ftilde = getattr(evaluators._DoubleKernel, "ftilde", None)
    if ftilde is None:
        return "_DoubleKernel has no ftilde: its walks cannot be counted"
    params = tuple(inspect.signature(ftilde).parameters)
    if params == WALK_PARAMS:
        return None
    return (f"_DoubleKernel.ftilde takes ({', '.join(params)}), not"
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
