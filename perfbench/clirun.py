"""The cli workload: sequential superexp command-line processes.

Set-up is the two cache-miss calibrations (tiers 192 and 320) against
an emptied cache directory.  A session is then five user commands that
find the cache warm.  Every process starts through launcher.py, which
runs ``superexp.cli.main`` like ``python -m superexp`` does and times
it with its own speed.Clock; traced runs also install the cross-layer
wrappers there and hand each child's spans to the parent.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import json
import os
import random
import statistics
import subprocess
import sys
import time

import mpmath
from mpmath import mp

import refs
from inproc import Outcome
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")
CHILD_TIMEOUT_S = 170

# cache-miss calibrations of tiers 192 and 320
SETUP = (
    ["calibrate", "--format", "json"],
    ["calibrate", "--precision-bits", "256", "--format", "json"],
)
MAP_SIZE = (37, 29)  # unit cells over the README box
CHECK_SIZE = (21, 31)  # 0.4 cells over the check box


def session(seed: int) -> list:
    """The user commands of one session; the seed jitters both grids."""
    rng = random.Random(f"cli:{seed}")
    dx, dy = rng.random(), rng.random()
    tx, ty = rng.uniform(0, 0.4), rng.uniform(0, 0.4)
    return [
        ("eval53", ["eval", "F1", "0", "0"]),
        ("eval256", ["eval", "A1", "-1", "0", "--precision-bits", "256"]),
        ("map", ["map", "F1", f"--x={-8 + dx!r}:{28 + dx!r}",
                 f"--y={-14 + dy!r}:{14 + dy!r}",
                 f"--nx={MAP_SIZE[0]}", f"--ny={MAP_SIZE[1]}"]),
        ("check", ["check", "d1fa", f"--x={-2 + tx!r}:{6 + tx!r}",
                   f"--y={-6 + ty!r}:{6 + ty!r}", f"--nx={CHECK_SIZE[0]}",
                   f"--ny={CHECK_SIZE[1]}", "--format", "csv"]),
        ("table", ["table", "levy", "--n", "100:109"]),
    ]


class _Runner:
    """Starts one child at a time, through the launcher.

    Returns the child and its time in seconds at the reference speed:
    the child's wall time, from start to reaped, scaled by the speed
    its own clock saw.
    """

    def __init__(self, root: str, env: dict, tracer: Tracer | None, spans_dir: str):
        self.root, self.env, self.tracer, self.spans_dir = root, env, tracer, spans_dir

    def __call__(self, argv: list, traced: bool):
        process = self.tracer.span("cli.process", argv[0]) if traced else None
        with process or contextlib.nullcontext() as span:
            t = time.perf_counter()
            proc = self._start(
                [sys.executable, LAUNCHER, self._out, str(int(traced)), *argv]
            )
            wall = time.perf_counter() - t
            try:
                with open(self._out, encoding="utf-8") as fh:
                    timed = json.load(fh)
                os.remove(self._out)
            except FileNotFoundError:  # the launcher failed; _expect_ok counts it
                return proc, wall
            if traced:
                self.tracer.adopt([tuple(s) for s in timed["spans"]], span.sid)
        return proc, wall * timed["seconds"] / timed["wall"]

    @property
    def _out(self) -> str:
        return os.path.join(self.spans_dir, "child.json")

    def _start(self, cmd: list):
        # run() waits for the child, and kills and reaps it on timeout
        return subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )


def run_cli(seed: int, seconds: float, tracer: Tracer | None, root: str,
            cache_dir: str) -> Outcome:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "SUPEREXP_CACHE_DIR": cache_dir,
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    run = _Runner(root, env, tracer, os.path.dirname(cache_dir))
    out = Outcome(0.0)
    traced = tracer is not None

    calibrations = []
    with tracer.span("bench.setup") if traced else contextlib.nullcontext():
        for argv in SETUP:
            proc, seconds_taken = run(argv, traced)
            out.setup_s += seconds_taken
            calibrations.append(_expect_ok(proc, argv, out))
    _check_calibration(calibrations, cache_dir, out)

    commands = session(seed)
    first = None
    start = time.perf_counter()
    while not out.passes or (time.perf_counter() - start < seconds and not traced):
        outputs, times = {}, {}
        trace_this = traced and not out.traced_passes
        with tracer.span("bench.pass") if trace_this else contextlib.nullcontext():
            for name, argv in commands:
                proc, times[name] = run(argv, trace_this)
                outputs[name] = _expect_ok(proc, argv, out)
        (out.traced_passes if trace_this else out.passes).append(times)
        if first is None:
            first = outputs
        else:
            out.failed += sum(1 for k in outputs if outputs[k] != first[k])
    sessions = out.passes + out.traced_passes
    out.attempted += len(SETUP) + len(sessions) * len(commands)
    _check_session(first, out)
    for name in ("eval53", "eval256"):
        out.figures[f"cli_{name}_s"] = (
            statistics.median(p[name] for p in sessions), "s", len(sessions)
        )
    out.figures["cli_session_s"] = (
        statistics.median(sum(p.values()) for p in sessions), "s", len(sessions)
    )
    return out


def _expect_ok(proc, argv, out: Outcome):
    if proc.returncode != 0:
        out.failed += 1
        out.check(f"exit status of {' '.join(argv)}", False,
                  f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    return proc.stdout


def _check_calibration(outputs, cache_dir: str, out: Outcome) -> None:
    if None in outputs:
        return
    low, high = (json.loads(text) for text in outputs)
    with mp.workprec(400):
        gaps = {
            key: abs(mpmath.mpf(low[key]) - mpmath.mpf(high[key]))
            / (1 + abs(mpmath.mpf(high[key])))
            for key in ("x1", "x3", "a1_norm", "a3_norm", "period_t1_imag")
        }
        worst = max(gaps.values())
        ok = worst <= mpmath.mpf(2) ** -180
    files = sorted(os.listdir(cache_dir))
    cached = files == ["constants-192.json", "constants-320.json"]
    out.failed += (not ok) + (not cached)
    out.check("tiers 192 and 320 agree to 2^-180", ok,
              f"worst relative gap 2^{float(mpmath.log(worst, 2)):.0f}"
              if worst else "identical")
    out.check("cache holds both tiers", cached, f"files {files}")


def _check_session(outputs: dict, out: Outcome) -> None:
    text = outputs["eval53"]
    if text is not None:
        re_s, im_s = text.split()
        gap = abs(complex(float(re_s), float(im_s)) - 1)
        out.note_digits("F1(0) = 1", refs.digits(gap, 1.0, 53))
        ok = gap <= refs.TOL_F1_ZERO
        out.failed += not ok
        out.check("eval F1 0 0", ok, f"gap {gap:.1e} (tol {refs.TOL_F1_ZERO:g})")
    text = outputs["eval256"]
    if text is not None:
        re_s, im_s = text.split()
        with mp.workprec(300):
            gap = float(abs(mpmath.mpf(re_s) - mpmath.mpf(refs.A1_MINUS_1)))
            ok = gap <= refs.TOL_A1_MINUS_1 and mpmath.mpf(im_s) == 0
        out.failed += not ok
        out.check("eval A1 -1 at 256 bits vs published", ok,
                  f"gap {gap:.1e} (tol {refs.TOL_A1_MINUS_1:g})")
    if outputs["map"] is not None:
        _check_map(outputs["map"], out)
    if outputs["check"] is not None:
        _check_agreement(outputs["check"], out)
    text = outputs["table"]
    if text is not None:
        rows = dict(line.split() for line in text.splitlines())
        bad = [n for n, want in refs.LEVY_100.items() if rows.get(str(n)) != want]
        out.failed += len(bad)
        out.check("table levy 10^2 block vs published", not bad,
                  f"mismatched rows {bad}")


def _check_map(text: str, out: Outcome) -> None:
    cells = list(csv.DictReader(text.splitlines()))
    nx = MAP_SIZE[0]
    worst, checked = 0.0, 0
    for k, cell in enumerate(cells):
        if cell["err"]:
            out.counts[cell["err"]] = out.counts.get(cell["err"], 0) + 1
        if k % nx == nx - 1:
            continue
        right = cells[k + 1]  # one unit to the right
        z = complex(float(cell["x"]), float(cell["y"]))
        if not refs.in_box(z, refs.F1_BOX) or cell["err"] or right["err"]:
            continue
        a = complex(float(cell["re"]), float(cell["im"]))
        b = complex(float(right["re"]), float(right["im"]))
        res = abs(b - cmath.exp(a / refs.E))
        checked += 1
        worst = max(worst, res)
        out.note_digits("map functional equation", refs.digits(res, abs(b), 53))
        out.failed += res > refs.TOL_FUNCTIONAL
    out.check("map F1 functional equation",
              worst <= refs.TOL_FUNCTIONAL and checked > 0,
              f"worst {worst:.1e} over {checked} cells (tol {refs.TOL_FUNCTIONAL:g})")


def _check_agreement(text: str, out: Outcome) -> None:
    lines = text.splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    printed = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    scores = [float(r["d"]) for r in rows if r["d"]]
    unavailable = len(rows) - len(scores)
    out.counts["unavailable"] = out.counts.get("unavailable", 0) + unavailable
    summary_ok = (
        float(printed["min"]) == min(scores)
        and float(printed["median"]) == statistics.median(scores)
        and int(printed["unavailable"]) == unavailable
        and float(printed["fraction_ge_14"])
        == sum(1 for d in scores if d >= 14.0) / len(rows)
    )
    high = sum(1 for d in scores if d >= 12.0) / len(scores)
    low = sum(1 for d in scores if d < 1.0)
    ok = summary_ok and high >= 0.5 and low > 0
    out.failed += not ok
    out.check("check d1fa summary and regions", ok,
              f"summary consistent {summary_ok}, {high:.3f} of finite cells"
              f" >= 12 digits, {low} below 1")
