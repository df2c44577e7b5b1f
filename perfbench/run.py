"""superexp benchmark: one workload, one seed, one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid53|highprec|cli --seed N \
        --seconds S --trace 0|1

The library is run from the working tree's ``src/`` (it is not
installed).  Each run takes a lock so that only one benchmark process
runs at a time, uses a fresh calibration cache under ``.perfbench-out/``
and removes it afterwards; ``~/.cache/superexp`` is never touched.

Human-readable lines (environment, checks, digits, every metric with its
unit and sample count) come first; the last line of stdout is the JSON
result.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run, whose spans are also written to
``.perfbench-out/trace-<workload>-seed<N>.jsonl.gz``.

End-to-end times are in seconds at a fixed reference speed (speed.py):
co-tenant load on a small shared host changes its speed by up to 1.8x,
so the benchmark samples that speed while it times and scales it out.
Per-layer times are the spans' wall times.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("grid53", "highprec", "cli")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def _terminated(signum, frame):
    # unwind through subprocess.run, which kills and reaps a running
    # child, and through the clean-up of the temporary cache
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminated)
    if not os.path.isfile(os.path.join(SRC, "superexp", "__init__.py")):
        sys.stderr.write(f"perfbench: no superexp sources under {SRC}\n")
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "lock"), "w", encoding="ascii") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
        os.environ["SUPEREXP_CACHE_DIR"] = cache_dir
        try:
            return _run(args, cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


def _run(args, cache_dir: str) -> int:
    import mpmath

    import inproc
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    if args.workload == "cli":
        from clirun import run_cli

        out = run_cli(args.seed, args.seconds, tracer, ROOT, cache_dir)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        out = inproc.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
        loaded = os.path.abspath(sys.modules["superexp"].__file__)
        if not loaded.startswith(SRC + os.sep):
            sys.stderr.write(f"perfbench: superexp was loaded from {loaded}\n")
            return 2
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    print(f"# perfbench workload={args.workload} seed={args.seed}"
          f" seconds={args.seconds:g} trace={args.trace}")
    print(f"# env python={platform.python_version()} mpmath={mpmath.__version__}"
          f" backend={mpmath.libmp.BACKEND} nproc={multiprocessing.cpu_count()}")
    for name, (ok, detail) in out.checks.items():
        print(f"# check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    for kind, value in sorted(out.digits.items()):
        print(f"# digits {kind}: {value:.2f}")
    print(f"# operations attempted={out.attempted} failed={out.failed}")

    if tracer is None:
        metrics = {
            "setup_s": (out.setup_s, "s", 1),
            "pass_s": (inproc.typical(out.passes), "s", len(out.passes)),
            "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
            "digits_min": (min(out.digits.values()), "digits", len(out.digits)),
        }
        for name, (value, unit, n) in {**metrics, **out.figures}.items():
            print(f"# metric {name} = {value:.6g} {unit} (samples {n})")
        result = {k: (v, u) for k, (v, u, _) in metrics.items()}
    else:
        import layers

        overhead = inproc.typical(out.traced_passes) / inproc.typical(out.passes) - 1
        roots = {s[0] for s in tracer.spans if s[1] == 0}
        values = layers.per_layer(
            tracer.spans, roots, len(out.traced_passes), out.counts, overhead
        )
        result = {k: (v, layers.unit_of(k)) for k, v in values.items()}
        accounted = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS)
        print(f"# account traced wall {values['trace.wall_s']:.4f} s ="
              f" layer self times {accounted:.4f} s"
              f" ({len(tracer.spans)} spans, {len(out.traced_passes)} traced"
              f" and {len(out.passes)} untraced passes)")
        for name, (value, unit) in result.items():
            print(f"# layer {name} = {value:.6g} {unit}")
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(path)
        print(f"# spans written to {os.path.relpath(path, ROOT)}")

    bad = [k for k, (v, _) in result.items() if not math.isfinite(v)]
    if bad:
        sys.stderr.write(f"perfbench: non-finite metrics {bad}\n")
        return 1
    correct = out.failed == 0 and all(ok for ok, _ in out.checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
