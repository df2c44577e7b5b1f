"""Measure where the asymptotic sum of F~ can stop walking, per term count.

The mpmath kernel sums e(1 - (2/z)(1 + sum_{m<=M} P_m(t) (3z)^-m)) at a
point past its walk-out threshold and takes the last term
|P_M(t)| / |3z|^M as the tail estimate; it wants that below
2^-(bits+12), 16 bits under its retry tolerance 2^(4-bits).  For each
term count M this script finds the frontier: the smallest Re z past
which the last term stays below that target, for each bit count.  The
evaluators model the frontier as

    (M + 2) * C_M^(1/(M+2)) * 2^((bits+12)/(M+2)),

i.e. a last term of C_M ((M+2)/z)^(M+2).  The script fits C_M over the
bits above 192 that the library runs at, checks the thresholds the
evaluators derive from the constants they hold (_SUPEREXP_TIERS, C_M
rounded up to two digits), and writes all of it to
BENCH_superexp_order.json, keeping the file's other keys.

Usage (from the repository root):

    python3 tools/superexp_order.py
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import mpmath  # noqa: E402

from superexp.evaluators import _SUPEREXP_TIERS, _superexp_tier  # noqa: E402
from superexp.series import superexp_polynomials  # noqa: E402

OUT = os.path.join(ROOT, "BENCH_superexp_order.json")
ORDERS = (28, 32, 36, 40, 44, 48)
BITS = (64, 96, 128, 160, 192, 224, 256, 288, 320, 352, 384, 448, 512)
# directions arg z checked at each Re z; the real axis is the worst
ANGLES = (0.0, math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8)
GRID = 32  # points per octave of Re z
FIT_CAP = 384
PREC = 192  # Horner loses up to ~32 bits of P_M(t) to cancellation here


def _last_term(coeffs, M):
    """log2 of the largest last term over the directions, at Re z = x."""

    def log2_last(x):
        worst = -math.inf
        for angle in ANGLES:
            z = mpmath.mpc(x, x * math.tan(angle))
            t = -mpmath.log(z)
            p = mpmath.mpf(0)
            for c in coeffs:
                p = p * t + c
            worst = max(worst, float(mpmath.log(abs(p) / abs(3 * z) ** M, 2)))
        return worst

    return log2_last


def _frontier(log2_last, target, grid):
    # grid: ascending (x, log2 last); the frontier lies after the last
    # grid point above the target, refined by bisection
    above = [i for i, (_, g) in enumerate(grid) if g > target]
    if not above:
        return grid[0][0]
    i = above[-1]
    if i + 1 == len(grid):
        raise ValueError("grid too short for this target")
    lo, hi = grid[i][0], grid[i + 1][0]
    while hi - lo > 1e-3 * lo:
        mid = (lo + hi) / 2
        if log2_last(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def _fit(M, frontier, served):
    # smallest C_M whose model threshold covers every served frontier
    return max(
        (frontier[b] / (M + 2)) ** (M + 2) * 2.0 ** -(b + 12) for b in served
    )


def main() -> None:
    mpmath.mp.prec = PREC
    table, logs = {}, {}
    for M in ORDERS:
        top = superexp_polynomials(M).polynomials[-1].coefficients
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(top)]
        log2_last = _last_term(coeffs, M)
        deepest = -(max(BITS) + 12)
        grid, k = [], 3 * GRID
        while True:
            x = 2.0 ** (k / GRID)
            grid.append((x, log2_last(x)))
            if len(grid) > GRID and all(g < deepest for _, g in grid[-GRID:]):
                break
            k += 1
        logs[M] = log2_last
        table[M] = {
            b: _frontier(log2_last, -(b + 12), grid) for b in BITS
        }
        print(M, {b: round(v, 1) for b, v in table[M].items()}, flush=True)

    # C_M fitted over the bits above 192 that the library runs at (the
    # 256-bit evaluator and the calibration tiers 320 and 384), and the
    # thresholds the evaluators derive from the tiers they hold, with
    # log2 of the last term there against the retry tolerance 2^(4-bits)
    served = [b for b in BITS if 192 < b <= FIT_CAP]
    fits = {M: _fit(M, table[M], served) for M in ORDERS}
    rows = {}
    for b in BITS:
        M, threshold = _superexp_tier(b)
        rows[str(b)] = {
            "terms": M,
            "threshold": threshold,
            "frontier": round(table[M][b], 3),
            "log2_last_at_threshold": round(logs[M](threshold), 2),
            "log2_tol": 4 - b,
        }
    result = {
        "what": (
            "walk-out frontier of the asymptotic sum: smallest Re z past"
            " which |P_M(t)|/|3z|^M <= 2^-(bits+12), worst over arg z"
        ),
        "command": "python3 tools/superexp_order.py",
        "angles": [round(a, 6) for a in ANGLES],
        "frontier": {
            str(M): {str(b): round(v, 3) for b, v in row.items()}
            for M, row in table.items()
        },
        "fitted_constant": {
            "bits": served,
            "C": {str(M): float(f"{c:.4g}") for M, c in fits.items()},
        },
        "held_tiers": [
            {"bits_cap": cap if math.isfinite(cap) else None, "terms": M, "C": c}
            for cap, M, c in _SUPEREXP_TIERS
        ],
        "evaluator": rows,
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
    print(result["fitted_constant"])
    for b, row in rows.items():
        print(b, row)


if __name__ == "__main__":
    main()
