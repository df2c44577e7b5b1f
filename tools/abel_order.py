"""Measure the truncation error of the Abel tail at each tier's radius.

The mpmath kernel sums the Abel series 2/zeta + log(+-zeta)/3 +
sum_{n<=N} c_n zeta^n inside the disk |zeta| < r that its precision tier
sets: the rows of evaluators._ABEL_TIERS through 192 bits, the formula
of evaluators._abel_tier above.  The Abel walks sum it there, and F~ is
found by inverting it there.  abel1 sums N terms and abel2 N + 1.

For each tier, at the widest bit count it serves (every 8 bits for the
formula above 192 bits, and its last width), this script measures the
truncation error |sum_{N<n<=N+32} c_n zeta^n| on the circle |zeta| = r,
worst over 64 directions, for both sides, and the frontier: the radius
at which the abel1 error reaches 2^-bits in the worst direction, and
the walk-out threshold evaluators._walk_out(radius) that the radius
gives the F~ walk.  It also times the exact build of each tier's tail
(the N + 1 terms a kernel of that width builds) and of the longest tail
it measures with, best of three calls of series.abel_expansion(N) in
this process.  It writes the table to BENCH_abel_order.json; --check gates
the errors only and writes nothing, so a check leaves the tree clean.

Usage (from the repository root):

    python3 tools/abel_order.py            # measure and write the JSON
    python3 tools/abel_order.py --check    # exit 1 if a tier's error is
                                           # above 2^-bits; no JSON
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import mpmath  # noqa: E402

from superexp.evaluators import (  # noqa: E402
    _ABEL_TIERS,
    _MAX_BITS,
    _abel_tail_coeffs,
    _abel_tier,
    _walk_out,
)
from superexp.series import abel_expansion  # noqa: E402

OUT = os.path.join(ROOT, "BENCH_abel_order.json")
LONGER = 32  # terms past the tier's own that stand in for the whole tail
DIRECTIONS = 64  # on the upper half circle; the c_n are real


def _widths() -> list:
    rows = [cap for cap, _, _ in _ABEL_TIERS]
    top = rows[-1]
    return rows + list(range(top + 8, _MAX_BITS, 8)) + [_MAX_BITS]


def _build_seconds(n_terms: int, repeats: int = 3) -> float:
    # the exact build behind _abel_tail_coeffs(n_terms), which memoizes
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        abel_expansion(n_terms)
        best = min(best, time.perf_counter() - start)
    return round(best, 4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any tier misses 2^-bits, and"
                             " write no JSON")
    args = parser.parse_args()

    ctx = mpmath.MPContext()
    ctx.prec = 128  # the errors are measured, not summed to their last bit
    longest = max(_abel_tier(bits)[1] for bits in _widths())
    coeffs = [ctx.mpf(c.numerator) / c.denominator
              for c in _abel_tail_coeffs(longest + 1 + LONGER)]
    units = [ctx.expj(ctx.pi * k / DIRECTIONS) for k in range(DIRECTIONS + 1)]

    def error(radius, first, unit):
        # |sum_{first <= n < first + LONGER} c_n zeta^n| at zeta = radius * unit
        zeta = radius * unit
        return abs(sum(coeffs[n - 1] * zeta ** n for n in range(first, first + LONGER)))

    tiers = sorted({_abel_tier(bits)[1] for bits in _widths()})
    builds = {terms: _build_seconds(terms + 1) for terms in tiers}
    rows, missed = [], []
    for bits in _widths():
        radius, terms = _abel_tier(bits)
        radius = ctx.mpf(radius)
        errors = {}
        for side, first in (("abel1", terms + 1), ("abel2", terms + 2)):
            errors[side] = max((error(radius, first, u), u) for u in units)
        worst_unit = errors["abel1"][1]
        # frontier: bisect on log r in the worst direction at the tier
        lo, hi = ctx.mpf(radius) / 4, ctx.mpf(radius) * 4
        for _ in range(40):
            mid = ctx.sqrt(lo * hi)
            if error(mid, terms + 1, worst_unit) > ctx.mpf(2) ** -bits:
                hi = mid
            else:
                lo = mid
        row = {
            "bits": bits,
            "radius": round(float(radius), 6),
            "terms": terms,
            "log2_error_abel1": round(float(ctx.log(errors["abel1"][0], 2)), 2),
            "log2_error_abel2": round(float(ctx.log(errors["abel2"][0], 2)), 2),
            "log2_target": -bits,
            "frontier_radius": round(float(lo), 6),
            "walk_out": _walk_out(float(radius)),
            "build_s": builds[terms],
        }
        row["ok"] = max(row["log2_error_abel1"], row["log2_error_abel2"]) <= -bits
        rows.append(row)
        if not row["ok"]:
            missed.append(bits)
        print(row, flush=True)

    if missed:
        print(f"tiers missing 2^-bits at {missed} bits", file=sys.stderr)
    if args.check:
        return 1 if missed else 0
    result = {
        "what": (
            "truncation error of the Abel tail at each tier's radius: "
            f"|sum of the next {LONGER} terms| on |zeta| = radius, worst over "
            f"{DIRECTIONS + 1} directions, for abel1 (N terms) and abel2 "
            "(N + 1), against 2^-bits; frontier_radius is where the abel1 "
            "error reaches 2^-bits; walk_out is the |Re z| past which F~ is "
            "summed without a walk; build_s is the raw wall time of the "
            "exact build of the N + 1 terms the tier's kernel builds, best "
            "of 3 calls of series.abel_expansion, and longest_tail that of "
            "the tail the errors are measured with"
        ),
        "command": "python3 tools/abel_order.py",
        "host": (
            f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
            f"{platform.python_version()}, mpmath {mpmath.__version__}"
        ),
        "longest_tail": {
            "terms": longest + 1 + LONGER,
            "build_s": _build_seconds(longest + 1 + LONGER),
        },
        "tiers": rows,
    }
    try:
        with open(OUT) as fh:
            kept = json.load(fh)
    except FileNotFoundError:
        kept = {}
    kept.update(result)
    with open(OUT, "w") as fh:
        json.dump(kept, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
