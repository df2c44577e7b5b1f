"""Time one real orbit step of the limit formulas and count a table's steps.

A real orbit point steps on one scaled integer (limits._Orbits): forward
by a full fixed-point exp step, or, on an estimator orbit, by its
increment, a short Taylor sum of e^d - 1 for d the last step's size;
backward always by a full fixed-point log step.  For each width of
--bits this script prints, as one JSON line, the CPU time per step of
the best of --repeat runs of --steps steps along an estimator orbit of
--n steps from the orbit's point --n: forward from tau_inv(-1), the levy
and fatou1 orbit, and backward from tau_inv(5), fatou2's.  "full_us" is
a full step, "increment_us" an increment step (null backward, where
every step is full, and where the point's increment is not yet below
2^-12, about n < 90).  Then, per width, one JSON line counts the steps of
one pass of --table over --rows by kind: "increment", "full" (on the
integer) and "mpf" (on an mpmath value: complex, or out of the integer
range).

Usage (from the repository root):

    python3 tools/orbit_cost.py
    python3 tools/orbit_cost.py --bits 256 --n 20000 --table fatou1 --rows 1500:1509

--rows is first:last, both included, as the CLI's `table --n`; the
table's arguments are the CLI's defaults, levy -1,1 and fatou1 -1, and
fatou2 5,3 as in the README's example.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from superexp import limits  # noqa: E402

TABLE_ARGS = {"levy": (-1.0, 1.0), "fatou1": (-1.0,), "fatou2": (5, 3)}


def _cpu(run, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.process_time()
        run()
        best = min(best, time.process_time() - start)
    return best


def _orbit(bits: int, n: int, inverse: bool):
    # an estimator orbit of n steps, run to its point n
    ctx = limits.mp_context(bits)
    start = limits._tau_inv(ctx, 5 if inverse else -1)
    orbits = limits._Orbits([start], bits, inverse, n)
    orbits.run_to(n)
    return orbits


def step_costs(bits: int, n: int, steps: int, repeat: int) -> list:
    """The CPU µs per step, full and increment, forward and backward."""
    rows = []
    for inverse in (False, True):
        orbits = _orbit(bits, n, inverse)
        (w,), (p,) = orbits.states, orbits.previous
        if not isinstance(w, limits.int_types):
            raise SystemExit(f"the orbit's point {n} is not on the integer range")

        def full(w=w):
            for i in range(n, n + steps):
                w = orbits.step(w, i)

        def increment(w=w, p=p):
            # index 1 is no full step's: each step goes by its increment
            for _ in range(steps):
                w, p = orbits.step(w, 1, p), w

        # a backward step, or one whose increment is not yet small, is full
        small = (w - p).bit_length() <= orbits._small
        rows.append({
            "direction": "backward" if inverse else "forward",
            "bits": bits,
            "n": n,
            "full_us": round(_cpu(full, repeat) / steps * 1e6, 2),
            "increment_us": (round(_cpu(increment, repeat) / steps * 1e6, 2)
                             if small and not inverse else None),
        })
    return rows


def table_counts(method: str, bits: int, ns: range) -> dict:
    """The steps of one pass of the table over ns, by kind."""
    counts = {"increment": 0, "full": 0, "mpf": 0}
    orbits_cls = limits._Orbits
    saved = {
        (orbits_cls, "step"): orbits_cls.step,
        (orbits_cls, "_increment"): orbits_cls._increment,
        (limits, "_h_step"): limits._h_step,
        (limits, "_h_inv_step"): limits._h_inv_step,
    }

    def counted(fn, kind):
        def wrapper(*args):
            counts[kind] += 1
            return fn(*args)

        return wrapper

    # every step counts full, and an increment or mpmath step moves there
    orbits_cls.step = counted(saved[orbits_cls, "step"], "full")
    orbits_cls._increment = counted(saved[orbits_cls, "_increment"], "increment")
    limits._h_step = counted(saved[limits, "_h_step"], "mpf")
    limits._h_inv_step = counted(saved[limits, "_h_inv_step"], "mpf")
    try:
        rows = limits.convergence_table(
            method, TABLE_ARGS[method], ns, limits.PrecisionConfig(mantissa_bits=bits)
        )
    finally:
        for (owner, name), fn in saved.items():
            setattr(owner, name, fn)
    counts["full"] -= counts["increment"] + counts["mpf"]
    return {
        "table": method,
        "bits": bits,
        "rows": f"{ns[0]}:{ns[-1]}",
        "failed": sum(r.error is not None for r in rows),
        "steps": sum(counts.values()),
        **counts,
    }


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _rows(text: str) -> range:
    first, _, last = text.partition(":")
    ns = range(int(first), int(last or first) + 1)
    if not ns or ns[0] < 1:
        raise argparse.ArgumentTypeError(f"need 1 <= first <= last, got {text}")
    return ns


def _widths(text: str) -> list:
    return [_positive(b) for b in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bits", type=_widths, default=[53, 128, 256])
    parser.add_argument("--n", type=_positive, default=1500)
    parser.add_argument("--steps", type=_positive, default=2000)
    parser.add_argument("--repeat", type=_positive, default=5)
    parser.add_argument("--table", choices=tuple(TABLE_ARGS), default="levy")
    parser.add_argument("--rows", type=_rows, default=_rows("1500:1509"))
    args = parser.parse_args(argv)
    for bits in args.bits:
        for row in step_costs(bits, args.n, args.steps, args.repeat):
            print(json.dumps(row))
    for bits in args.bits:
        print(json.dumps(table_counts(args.table, bits, args.rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
