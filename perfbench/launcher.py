"""Run one ``superexp`` command, timed from inside its own process.

Usage: python perfbench/launcher.py OUT TRACE ARG...

Behaves like ``python -m superexp ARG...`` (same output, same exit
code): it imports ``superexp.cli`` and calls its ``main``.  The import
and the command are timed by a speed.Clock in this process, so the
host's speed is sampled on the processor the command runs on.  With
TRACE 1 the cross-layer wrappers are installed as well, and the clock
samples only before and after, so that no reference run lands in a
span.  Writes {"wall": s, "seconds": s at the reference speed,
"spans": [...]} as JSON to OUT.  The cli workload starts every process
through this file.
"""

import contextlib
import json
import sys

from spans import Tracer
from speed import Clock


def main() -> int:
    out, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = Tracer()
    clock = Clock(during=not traced)

    def span(name: str, attr=None):
        return tracer.span(name, attr) if traced else contextlib.nullcontext()

    def command():
        with span("cli.import"):
            import superexp.cli

        if traced:
            tracer.install(sys.modules)
        try:
            with span("cli.main", argv[0] if argv else ""):
                return superexp.cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            return exc.code
        finally:
            tracer.uninstall()

    code, seconds = clock.time(command)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"wall": clock.wall, "seconds": seconds, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
