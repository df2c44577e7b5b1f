"""The in-process workloads, grid53 and highprec: one process each.

Each pays a fresh process's set-up once (the import, then the
calibration and first value at its widths), then repeats one pass over
the seeded inputs until the run time is used up.  A grid53 pass is the
53-bit plotting sweep: maps and agreement checks over the README boxes.
A highprec pass is the 128/256-bit points and the two limit tables.
Every pass sees the same inputs, so every later pass must reproduce the
first one exactly; the first pass is also checked against the
references in refs.py.  Each operation of a pass is timed by a
speed.Clock, and a figure is the sum of its operations' median times.
"""

from __future__ import annotations

import cmath
import contextlib
import importlib
import random
import statistics
import sys
import time
from dataclasses import dataclass, field

import refs
from spans import Tracer, ctx_bits, table_attr
from speed import Clock

GRID_FUNCTIONS = ("F1", "A1", "F3", "A3")
CHECK_KINDS = ("d1fa", "d3fa", "dq1")
MAP_SIZE = (145, 113)  # 0.25 cells over the README box [-8, 28] x [-14, 14]
CHECK_SIZE = (41, 61)  # 0.2 cells over the check box [-2, 6] x [-6, 6]
POINTS = 4  # seeded points per box and pass, at 128 and at 256 bits
PRECISIONS = (128, 256)
TABLE_ROWS = 10
MIN_PASSES = 3

# library entry points the benchmark calls, with their span names
_API = {
    **{fn: (f"evaluators.{fn}", ctx_bits) for fn in GRID_FUNCTIONS},
    "default_constants": ("evaluators.default_constants", None),
    "map_grid": ("iteration.map_grid", None),
    "agreement": ("iteration.agreement", None),
    "exp_iterate": ("iteration.exp_iterate", ctx_bits),
    "convergence_table": ("limits.convergence_table", table_attr),
}


class Api:
    """The benchmark's call sites; with a tracer, each call records a span."""

    def __init__(self, superexp, tracer: Tracer | None = None):
        for name, (span, attr) in _API.items():
            fn = getattr(superexp, name)
            setattr(self, name, tracer.wrap(fn, span, attr) if tracer else fn)


@dataclass
class Outcome:
    """What a workload reports back to run.py."""

    setup_s: float
    passes: list = field(default_factory=list)  # per pass: operation -> s
    traced_passes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)  # name -> (passed, detail)
    digits: dict = field(default_factory=dict)  # check kind -> worst digits
    figures: dict = field(default_factory=dict)  # name -> (value, unit, samples)
    counts: dict = field(default_factory=dict)  # exact behaviour counts

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks[name] = (ok, detail)

    def note_digits(self, kind: str, value: float) -> None:
        self.digits[kind] = min(self.digits.get(kind, value), value)


def typical(passes: list, keep=lambda op: True) -> float:
    """Sum over a pass's operations of each one's median time."""
    return sum(
        statistics.median(p[op] for p in passes) for op in passes[0] if keep(op)
    )


# -- inputs ------------------------------------------------------------------

def _stratified(rng, box, count: int, keep=lambda z: True) -> list:
    """One uniform point in each cell of a side x side split of the box,
    so that the work of a pass barely depends on the seed."""
    x0, x1, y0, y1 = box
    side = round(count ** 0.5)
    wx, wy = (x1 - x0) / side, (y1 - y0) / side
    points = []
    for k in range(count):
        while True:
            i, j = k % side, k // side
            z = complex(rng.uniform(x0 + i * wx, x0 + (i + 1) * wx),
                        rng.uniform(y0 + j * wy, y0 + (j + 1) * wy))
            if keep(z):
                points.append(z)
                break
    return points


def grid53_inputs(seed: int, GridSpec):
    """The README map box and the check box, origins jittered by < 1 cell."""
    rng = random.Random(f"grid:{seed}")
    nx, ny = MAP_SIZE
    sx, sy = 36.0 / (nx - 1), 28.0 / (ny - 1)
    dx, dy = rng.uniform(0, sx), rng.uniform(0, sy)
    maps = GridSpec(-8 + dx, 28 + dx, -14 + dy, 14 + dy, nx, ny)
    cx, cy = CHECK_SIZE
    tx, ty = rng.uniform(0, 8.0 / (cx - 1)), rng.uniform(0, 12.0 / (cy - 1))
    checks = GridSpec(-2 + tx, 6 + tx, -6 + ty, 6 + ty, cx, cy)
    points = [complex(x, y) for y in checks.ys() for x in checks.xs()]
    return maps, points


def highprec_inputs(seed: int):
    """Points in the property-suite boxes and two table blocks."""
    rng = random.Random(f"points:{seed}")
    boxes = {
        "F1": (refs.F1_BOX, lambda z: True),
        "F3": (refs.F3_BOX, lambda z: True),
        "A1": (refs.A1_BOX, lambda z: True),
        "A3": (refs.A3_BOX, refs.in_a3_box),
        "half": (refs.HALF_BOX, lambda z: True),
    }
    drawn = {k: _stratified(rng, box, POINTS, keep) for k, (box, keep) in boxes.items()}
    points = [{k: drawn[k][i] for k in boxes} for i in range(POINTS)]
    # orbit cost grows with n, so the blocks start in a narrow window
    levy0 = rng.randrange(1500, 1600)
    fatou0 = rng.randrange(1500, 1600)
    # the partner argument of each residual, made without rounding
    partner = {
        bits: [
            {
                "F1": refs.shifted(p["F1"], bits),
                "F3": refs.shifted(p["F3"], bits),
                "A1": refs.exp_b(p["A1"], bits),
                "A3": refs.exp_b(p["A3"], bits),
            }
            for p in points
        ]
        for bits in PRECISIONS
    }
    tables = {
        "levy": ((-1.0, 1.0), range(levy0, levy0 + TABLE_ROWS)),
        "fatou1": ((-1.0,), range(fatou0, fatou0 + TABLE_ROWS)),
    }
    return points, partner, tables


# -- set-up ------------------------------------------------------------------

def setup(tracer: Tracer | None, widths: tuple):
    """Fresh start until the first value at each width is ready.

    Returns (api, lib, clock, set-up time in seconds at the reference
    speed).  Set-up is timed in steps: the import, then each width's
    constants and first value.
    """
    clock = Clock(during=tracer is None)
    with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
        # the import is part of set-up
        lib, setup_s = clock.time(importlib.import_module, "superexp")
        if tracer:
            tracer.install(sys.modules)
        api = Api(lib, tracer)
        for bits in widths:
            setup_s += clock.time(_first_value, api, lib, bits)[1]
        if tracer:
            tracer.uninstall()
    return api, lib, clock, setup_s


def _first_value(api, lib, bits: int):
    api.default_constants(bits)
    return api.F1(0.0) if bits == 53 else api.F1(0.0, _context(lib, bits))


def _context(lib, bits: int):
    return lib.EvalContext(precision=lib.PrecisionConfig(mantissa_bits=bits))


# -- passes --------------------------------------------------------------------

def _grid53_pass(api, clock: Clock, maps, points):
    result, times = {}, {}
    for fn in GRID_FUNCTIONS:
        result[fn], times[fn] = clock.time(api.map_grid, fn, maps)
    for kind in CHECK_KINDS:
        result[kind], times[kind] = clock.time(_agreements, api, kind, points)
    return result, times


def _agreements(api, kind: str, points: list) -> list:
    return [api.agreement(kind, z) for z in points]


def _residual_pairs(f, fn: str, pairs: list, ctx) -> list:
    # each point and its partner, the other side of its residual
    return [(f(p[fn], ctx), f(q[fn], ctx)) for p, q in pairs]


def _half_steps(api, lib, points: list, ctx) -> list:
    steps = []
    for p in points:
        half = api.exp_iterate(lib.IterateRequest(0.5, p["half"], "lower"), ctx)
        steps.append(
            (half, api.exp_iterate(lib.IterateRequest(0.5, half, "lower"), ctx))
        )
    return steps


def _highprec_pass(api, clock: Clock, lib, points, partner, tables):
    """Timed per width and function over all points, then per table."""
    result, times = {}, {}
    for bits in PRECISIONS:
        ctx = _context(lib, bits)
        pairs = list(zip(points, partner[bits]))
        columns = {}
        for fn in GRID_FUNCTIONS:
            columns[fn], times[bits, fn] = clock.time(
                _residual_pairs, getattr(api, fn), fn, pairs, ctx
            )
        columns["half"], times[bits, "half"] = clock.time(
            _half_steps, api, lib, points, ctx
        )
        result[bits] = [
            {k: column[i] for k, column in columns.items()} for i in range(len(points))
        ]
    cfg = lib.PrecisionConfig(mantissa_bits=256)
    for method, (args, ns) in tables.items():
        result[method], times[method] = clock.time(
            api.convergence_table, method, args, ns, cfg
        )
    return result, times


def _same(a, b) -> bool:
    # NaN scores are results too; compare them as equal
    return a == b or (a != a and b != b)


def _grid53_mismatches(first: dict, other: dict) -> int:
    bad = 0
    for fn in GRID_FUNCTIONS:
        for r1, r2 in zip(first[fn].values, other[fn].values):
            bad += sum(1 for a, b in zip(r1, r2) if a != b)
        for e1, e2 in zip(first[fn].errors, other[fn].errors):
            bad += sum(1 for a, b in zip(e1, e2) if a != b)
    for kind in CHECK_KINDS:
        bad += sum(1 for a, b in zip(first[kind], other[kind]) if not _same(a, b))
    return bad


def _highprec_mismatches(first: dict, other: dict) -> int:
    bad = 0
    for bits in PRECISIONS:
        for r1, r2 in zip(first[bits], other[bits]):
            bad += sum(1 for k in r1 if r1[k] != r2[k])
    for method in ("levy", "fatou1"):
        bad += sum(1 for a, b in zip(first[method], other[method]) if a != b)
    return bad


def _loop(run_pass, mismatches, seconds: float, tracer: Tracer | None,
          apis: tuple, out: Outcome):
    """Repeat passes; with a tracer, alternate traced and untraced ones.

    Fills out.passes (and out.traced_passes) and returns the first
    pass's result.
    """
    first = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(out.traced_passes) == len(out.passes)
        if traced:
            tracer.install(sys.modules)
            with tracer.span("bench.pass"):
                result, times = run_pass(apis[1])
            tracer.uninstall()
            out.traced_passes.append(times)
        else:
            result, times = run_pass(apis[0])
            out.passes.append(times)
        if first is None:
            first = result
        else:
            out.failed += mismatches(first, result)
        if time.perf_counter() - start < seconds:
            continue
        if len(out.passes) >= (MIN_PASSES if tracer is None else 1):
            return first


def run_grid53(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    api, lib, clock, setup_s = setup(tracer, (53,))
    out = Outcome(setup_s)
    maps, checks = grid53_inputs(seed, lib.GridSpec)
    first = _loop(
        lambda a: _grid53_pass(a, clock, maps, checks), _grid53_mismatches,
        seconds, tracer, (Api(lib), api), out,
    )
    passes = len(out.passes) + len(out.traced_passes)
    map_cells = maps.nx * maps.ny * len(GRID_FUNCTIONS)
    check_cells = len(checks) * len(CHECK_KINDS)
    out.attempted += passes * (map_cells + check_cells)
    _verify_grid53(lib, first, maps, out)

    n = len(out.passes)
    out.figures["grid_cells_per_s"] = (
        map_cells / typical(out.passes, lambda op: op in GRID_FUNCTIONS), "1/s", n
    )
    out.figures["check_cells_per_s"] = (
        check_cells / typical(out.passes, lambda op: op in CHECK_KINDS), "1/s", n
    )
    return out


def run_highprec(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    api, lib, clock, setup_s = setup(tracer, PRECISIONS)
    out = Outcome(setup_s)
    points, partner, tables = highprec_inputs(seed)
    first = _loop(
        lambda a: _highprec_pass(a, clock, lib, points, partner, tables),
        _highprec_mismatches, seconds, tracer, (Api(lib), api), out,
    )
    passes = len(out.passes) + len(out.traced_passes)
    calls = POINTS * (2 * len(GRID_FUNCTIONS) + 2)
    rows = TABLE_ROWS * len(tables)
    out.attempted += 1 + passes * (calls * len(PRECISIONS) + rows)
    _verify_highprec(lib, first, points, partner, tables, out)

    n = len(out.passes)
    for bits in PRECISIONS:
        busy = typical(out.passes, lambda op: op[:1] == (bits,))
        out.figures[f"mp{bits}_calls_per_s"] = (calls / busy, "1/s", n * calls)
    steps = sum(2 * ns[-1] for _, ns in tables.values())
    busy = typical(out.passes, lambda op: op in tables)
    out.figures["orbit_steps_per_s"] = (steps / busy, "1/s", n * len(tables))
    return out


WORKLOADS = {"grid53": run_grid53, "highprec": run_highprec}


def _verify_grid53(lib, first: dict, maps, out: Outcome) -> None:
    shift = round(1.0 / ((maps.x_max - maps.x_min) / (maps.nx - 1)))
    for fn, box in (("F1", refs.F1_BOX), ("F3", refs.F3_BOX)):
        grid = first[fn]
        worst, checked = 0.0, 0
        for j, y in enumerate(grid.ys):
            for i, x in enumerate(grid.xs[:-shift]):
                a, b = grid.values[j][i], grid.values[j][i + shift]
                if not refs.in_box(complex(x, y), box) or a is None or b is None:
                    continue
                res = abs(b - cmath.exp(a / refs.E))
                checked += 1
                worst = max(worst, res)
                out.note_digits("functional equation", refs.digits(res, abs(b), 53))
                if res > refs.TOL_FUNCTIONAL:
                    out.failed += 1
        out.check(f"{fn} functional equation", worst <= refs.TOL_FUNCTIONAL and checked > 0,
                  f"worst {worst:.1e} over {checked} cells (tol {refs.TOL_FUNCTIONAL:g})")
    for fn, keep in (("A1", lambda z: refs.in_box(z, refs.A1_BOX)), ("A3", refs.in_a3_box)):
        grid, f = first[fn], getattr(lib, fn)
        worst, checked, bad = 0.0, 0, 0
        for j, y in enumerate(grid.ys):
            for i, x in enumerate(grid.xs):
                z, a = complex(x, y), grid.values[j][i]
                if not keep(z) or a is None:
                    continue
                try:
                    b = f(cmath.exp(z / refs.E))
                except lib.SuperexpError:
                    bad += 1
                    continue
                res = abs(b - a - 1)
                checked += 1
                worst = max(worst, res)
                out.note_digits("abel equation", refs.digits(res, abs(b), 53))
                bad += res > refs.TOL_ABEL
        out.failed += bad
        out.check(f"{fn} abel equation", bad == 0 and checked > 0,
                  f"worst {worst:.1e} over {checked} cells (tol {refs.TOL_ABEL:g})")
    scores = [d for d in first["d1fa"] if d == d]
    high = sum(1 for d in scores if d >= 12.0) / len(scores)
    low = sum(1 for d in scores if d < 1.0)
    out.check("d1fa regions", high >= 0.5 and low > 0,
              f"{high:.3f} of finite cells >= 12 digits, {low} below 1")
    for fn in GRID_FUNCTIONS:
        for row in first[fn].errors:
            for err in row:
                if err is not None:
                    out.counts[err] = out.counts.get(err, 0) + 1
    out.counts["unavailable"] = sum(
        1 for kind in CHECK_KINDS for d in first[kind] if d != d
    )


def _verify_highprec(lib, first, points, partner, tables, out: Outcome) -> None:
    for bits in PRECISIONS:
        worst = {}
        for p, q, row in zip(points, partner[bits], first[bits]):
            pairs = {
                "F1": (row["F1"][1], refs.exp_b(row["F1"][0], bits)),
                "F3": (row["F3"][1], refs.exp_b(row["F3"][0], bits)),
                "A1": (row["A1"][1], refs.shifted(row["A1"][0], bits)),
                "A3": (row["A3"][1], refs.shifted(row["A3"][0], bits)),
                "half": (row["half"][1], refs.exp_b(p["half"], bits)),
            }
            for kind, (value, ref) in pairs.items():
                res = refs.mp_residual(value, ref, bits)
                tol = {"F1": refs.TOL_FUNCTIONAL, "F3": refs.TOL_FUNCTIONAL,
                       "half": refs.TOL_SEMIGROUP}.get(kind, refs.TOL_ABEL)
                worst[kind] = max(worst.get(kind, 0.0), float(res))
                out.note_digits(f"{kind} at {bits} bits",
                                refs.digits(res, abs(ref), bits))
                out.failed += float(res) > tol
        out.check(
            f"residuals at {bits} bits",
            worst["F1"] <= refs.TOL_FUNCTIONAL and worst["F3"] <= refs.TOL_FUNCTIONAL
            and worst["A1"] <= refs.TOL_ABEL and worst["A3"] <= refs.TOL_ABEL
            and worst["half"] <= refs.TOL_SEMIGROUP,
            ", ".join(f"{k} {v:.1e}" for k, v in worst.items()),
        )
    a1 = lib.A1(-1.0, _context(lib, 256))
    gap = float(refs.mp_residual(a1, refs.A1_MINUS_1, 256))
    out.check("A1(-1) at 256 bits vs published", gap <= refs.TOL_A1_MINUS_1,
              f"gap {gap:.1e} (tol {refs.TOL_A1_MINUS_1:g})")
    for method in tables:
        far = []
        for rec in first[method]:
            bound = refs.ROW_ENVELOPE[method] / rec.n
            if rec.error is not None or refs.mp_residual(rec.value, a1, 256) > bound:
                far.append(rec.n)
        out.failed += len(far)
        out.counts["rows_failed"] = out.counts.get("rows_failed", 0) + sum(
            1 for rec in first[method] if rec.error is not None
        )
        ns = tables[method][1]
        out.check(f"{method} rows approach A1(-1)", not far,
                  f"rows {ns[0]}..{ns[-1]}, outside {refs.ROW_ENVELOPE[method]}/n: {far}")
