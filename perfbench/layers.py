"""Per-layer metrics of a traced run, derived from its spans.

Every metric is reported on every workload.  A layer that does no work
on a workload reports 0 there: grid53 and highprec start no CLI
process, so their cli.* figures stay 0, grid53 builds no limit table
and makes no 128- or 256-bit call, highprec makes no 53-bit call, and
cli makes no 128-bit call.
"""

from __future__ import annotations

import statistics

from spans import EVALUATORS, LAYERS, self_times

PRECISIONS = (53, 128, 256)


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    last = name.rsplit(".", 1)[-1]
    if last.startswith(("us_", "self_us_")):
        return "us"
    if last.startswith("ms_"):
        return "ms"
    if last == "steps_per_s":
        return "1/s"
    if last.endswith("s") and (last == "s" or last.endswith("_s")):
        return "s"
    if name in ("cli.cache_hit_ratio", "trace_overhead"):
        return "ratio"
    return "count"


def per_layer(spans, roots, passes: int, counts: dict, overhead: float) -> dict:
    """Metric name -> value; `roots` are the traced bench spans' ids."""
    self_s = self_times(spans)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
    children: dict = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)

    def durations(name):
        return [s[4] - s[3] for s in by_name.get(name, ())]

    m = {}
    for name in ("superexp_polynomials", "abel_expansion"):
        d = durations(f"series.{name}")
        m[f"series.{name}.s"] = sum(d)
        m[f"series.{name}.calls"] = len(d)
    m["series.superexp_polynomials.max_order"] = max(
        (s[5] for s in by_name.get("series.superexp_polynomials", ())), default=0
    )
    d = durations("evaluators.calibrate")
    m["evaluators.calibrate.s"] = sum(d)
    m["evaluators.calibrate.calls"] = len(d)

    # evaluator calls by function and width; the first call of each
    # (process, function, width) pays for the kernel, the rest are steady
    parent_of = {s[0]: s[1] for s in spans}
    processes = {s[0] for s in by_name.get("cli.process", ())}

    def process_of(sid: int) -> int:
        # spans of one CLI child hang under its cli.process span; spans
        # of the benchmark process itself end at the root, 0
        while sid and sid not in processes:
            sid = parent_of[sid]
        return sid

    calls: dict = {}
    firsts: dict = {}
    for span in sorted(
        (s for fn in EVALUATORS for s in by_name.get(f"evaluators.{fn}", ())),
        key=lambda s: s[3],
    ):
        key = (span[2].split(".")[1], span[5])
        process = process_of(span[0])
        if (process, key) in firsts:
            calls.setdefault(key, []).append(span[4] - span[3])
        else:
            firsts[(process, key)] = span[4] - span[3]
    m["evaluators.kernel_build.s"] = sum(
        max(0.0, first - _median(calls.get(key, ())))
        for (_, key), first in firsts.items()
    )
    for fn in EVALUATORS:
        for bits in PRECISIONS:
            unit, scale = ("us", 1e6) if bits == 53 else ("ms", 1e3)
            d = sorted(calls.get((fn, bits), ()))
            m[f"evaluators.{fn}_{bits}.{unit}_p50"] = _quantile(d, 0.5) * scale
            m[f"evaluators.{fn}_{bits}.{unit}_p90"] = _quantile(d, 0.9) * scale

    m["iteration.map_grid.self_s"] = sum(
        self_s[s[0]] for s in by_name.get("iteration.map_grid", ())
    ) / max(passes, 1)
    m["iteration.agreement.self_us_p50"] = 1e6 * _median(
        [self_s[s[0]] for s in by_name.get("iteration.agreement", ())]
    )
    for bits in (128, 256):
        m[f"iteration.exp_iterate_{bits}.ms_p50"] = 1e3 * _median(
            [self_s[s[0]] for s in by_name.get("iteration.exp_iterate", ())
             if s[5] == bits]
        )
    for code in ("cut", "overflow", "nonconv"):
        m[f"iteration.cells_{code}"] = counts.get(code, 0)
    m["iteration.check_unavailable"] = counts.get("unavailable", 0)

    tables = by_name.get("limits.convergence_table", ())
    for method in ("levy", "fatou1"):
        rows = [s for s in tables if s[5][0] == method]
        busy = sum(s[4] - s[3] for s in rows)
        m[f"limits.{method}.steps_per_s"] = (
            sum(s[5][1] for s in rows) / busy if busy else 0.0
        )
    m["limits.rows_failed"] = counts.get("rows_failed", 0)

    m["cli.import_s"] = _median(durations("cli.import"))
    hit, miss = [], []
    for span in by_name.get("cli.constants", ()):
        computed = any(
            c[2] == "evaluators.default_constants" for c in children.get(span[0], ())
        )
        (miss if computed else hit).append(span[4] - span[3])
    m["cli.calibrate_hit_s"] = _median(hit)
    m["cli.calibrate_miss_s"] = _median(miss)
    for command in ("map", "check", "table"):
        m[f"cli.{command}_s"] = _median(
            [s[4] - s[3] for s in by_name.get("cli.main", ()) if s[5] == command]
        )
    m["cli.cache_hit_ratio"] = len(hit) / (len(hit) + len(miss)) if hit or miss else 0.0

    m["trace_overhead"] = overhead
    spent = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        spent[span[2].split(".")[0]] += self_s[span[0]]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = spent[layer]
    m["trace.wall_s"] = sum(s[4] - s[3] for s in spans if s[0] in roots)
    return m

