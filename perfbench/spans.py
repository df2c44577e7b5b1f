"""In-memory span recorder for the traced benchmark runs.

A span is ``(id, parent, name, t0, t1, attr)``: ``name`` is
``<layer>.<what>`` with layer one of series, evaluators, iteration,
limits, cli or bench, times come from ``time.perf_counter`` (the
system-wide monotonic clock on Linux, so spans written by child
processes line up with the parent's), and ``attr`` is a small value
such as the mantissa width of an evaluator call.

Spans are recorded by wrapping the public names one superexp module
imports from another (``superexp.iteration.F1``,
``superexp.evaluators.superexp_polynomials``, ...) and by the
benchmark's own call sites; nothing inside the library is edited.
"""

from __future__ import annotations

import gzip
import json
import time

LAYERS = ("series", "evaluators", "iteration", "limits", "cli", "bench")

EVALUATORS = ("F1", "F3", "A1", "A3")


def ctx_bits(args, kwargs, position=1) -> int:
    ctx = args[position] if len(args) > position else kwargs.get("ctx")
    return 53 if ctx is None else ctx.precision.mantissa_bits


def _order(args, kwargs) -> int:
    return args[0] if args else kwargs["M"]


def table_attr(args, kwargs) -> list:
    # method and the orbit length of the shared pass (two orbits)
    ns = list(args[2])
    return [args[0], 2 * ns[-1] if ns else 0]


# (module, attribute, span name, attribute extractor); the modules are
# the importing side, so every call that crosses a layer is seen
CROSS_LAYER = (
    ("superexp.evaluators", "superexp_polynomials", "series.superexp_polynomials", _order),
    ("superexp.evaluators", "abel_expansion", "series.abel_expansion", None),
    ("superexp.evaluators", "calibrate", "evaluators.calibrate", None),
    *(("superexp.iteration", fn, f"evaluators.{fn}", ctx_bits) for fn in EVALUATORS),
    ("superexp.iteration", "abel2", "evaluators.abel2", ctx_bits),
    *(("superexp.cli", fn, f"evaluators.{fn}", ctx_bits) for fn in EVALUATORS),
    ("superexp.cli", "calibrate", "evaluators.calibrate", None),
    ("superexp.cli", "default_constants", "evaluators.default_constants", None),
    ("superexp.cli", "map_grid", "iteration.map_grid", None),
    ("superexp.cli", "agreement", "iteration.agreement", None),
    ("superexp.cli", "exp_iterate", "iteration.exp_iterate", None),
    ("superexp.cli", "convergence_table", "limits.convergence_table", table_attr),
    # the cached-or-computed constants step of every CLI command
    ("superexp.cli", "_constants", "cli.constants", None),
)


class Tracer:
    """Collects spans of one process; wrappers nest by a call stack."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._next = 1
        self._patched: list = []

    def _open(self):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def wrap(self, fn, name: str, attr=None):
        """Return fn recording one span per call."""

        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    (sid, parent, name, t0, t1,
                     attr(args, kwargs) if attr else None)
                )

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, attr=None):
        """Context manager recording one span around a block."""
        return _Span(self, name, attr)

    def patch(self, module, attribute: str, name: str, attr=None) -> None:
        original = getattr(module, attribute)
        setattr(module, attribute, self.wrap(original, name, attr))
        self._patched.append((module, attribute, original))

    def install(self, modules: dict) -> None:
        """Wrap every cross-layer name of the given loaded modules."""
        for module_name, attribute, name, attr in CROSS_LAYER:
            module = modules.get(module_name)
            if module is not None:
                self.patch(module, attribute, name, attr)

    def uninstall(self) -> None:
        while self._patched:
            module, attribute, original = self._patched.pop()
            setattr(module, attribute, original)

    def adopt(self, spans, parent: int) -> None:
        """Append spans recorded elsewhere, renumbered under `parent`."""
        base = self._next
        top = 0
        for sid, par, name, t0, t1, attr in spans:
            self.spans.append(
                (base + sid, base + par if par else parent, name, t0, t1, attr)
            )
            top = max(top, sid)
        self._next = base + top + 1

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, attr):
        self.tracer, self.name, self.attr = tracer, name, attr

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans.append(
            (self.sid, self.parent, self.name, self.t0, t1, self.attr)
        )
        return False


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    covered: dict = {}
    for sid, parent, _, t0, t1, _ in spans:
        if parent:
            covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
    return {s[0]: (s[4] - s[3]) - covered.get(s[0], 0.0) for s in spans}
