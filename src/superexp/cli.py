"""Command-line front end: calibrate, eval, table, map, check.

Exit codes: 0 success, 1 evaluation/domain/usage error, 2 calibration
failure, 3 output I/O failure.  Identical invocations produce
byte-identical output: doubles print as shortest round-trip decimals,
wider precisions with explicit digit counts.

Every command but ``calibrate`` evaluates with the library's calibration
constants (``default_constants``: decimal literals rounded to the
command's tier, their doubles at 53 bits), so nothing calibrates and a
53-bit ``eval``, ``map`` or ``check`` loads no mpmath.  ``calibrate``
computes its tier's constants, prints them and writes them under
``$SUPEREXP_CACHE_DIR`` (default ``~/.cache/superexp``) as
``constants-<tier>.json``; no command reads that file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
import warnings
from typing import Optional

from .errors import SuperexpError
from .evaluators import (
    A1,
    A3,
    F1,
    F3,
    CalibrationConstants,
    EvalContext,
    calibrate,
    default_constants,
)
from .iteration import (
    AGREEMENT_KINDS,
    GRID_FUNCTIONS,
    GridSpec,
    IterateRequest,
    agreement,  # not called here: perfbench/spans.py traces cli.agreement by name
    check_grid,
    exp_iterate,
    grid_to_csv,
    grid_to_json,
    map_grid,
)
from .precision import PrecisionConfig, round_trip_decimal

__all__ = ["main"]


def __getattr__(name: str):
    # the limit formulas load on first access (PEP 562): only table needs them
    if name not in ("convergence_table", "format_record", "records_to_csv"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import limits
    return getattr(limits, name)

OK, EVAL_ERROR, CALIBRATION_ERROR, IO_ERROR = 0, 1, 2, 3

_CACHE_ENV = "SUPEREXP_CACHE_DIR"

# table presets reproducing the published comparison columns
_TABLE_DEFAULT_ARGS = {"levy": (-1.0, 1.0), "fatou1": (-1.0,)}

# a token that starts as a negative number in any spelling (-2.5e-1,
# -1e-3, -inf, -nan, and ranges and lists such as -8:28 or -1,1):
# argparse itself takes only -12 and -1.5 as numbers and every other
# token starting with "-" as an option
_NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # usage problems are domain errors (1), not calibration failures (2)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EVAL_ERROR)


def _fail(message: str, code: int = EVAL_ERROR) -> int:
    sys.stderr.write(f"superexp: {message}\n")
    return code


def _cache_dir() -> str:
    override = os.environ.get(_CACHE_ENV)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "superexp")


def _constants(bits: int) -> CalibrationConstants:
    # the first step of eval, map and check, one name to trace: it refuses
    # a width past the calibrated range before any work
    return default_constants(bits)


def _store(constants: CalibrationConstants) -> CalibrationConstants:
    # best effort: the value is already in hand.  The file holds the old
    # constants or the whole new ones, never a partial write
    try:
        os.makedirs(_cache_dir(), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f"constants-{constants.bits}-", suffix=".tmp", dir=_cache_dir()
        )
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                json.dump(constants.as_decimal_dict(), fh)
            os.replace(tmp, os.path.join(_cache_dir(), f"constants-{constants.bits}.json"))
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass
    return constants


def _emit(text: str, path: Optional[str]) -> int:
    if path is None:
        sys.stdout.write(text)
        return OK
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(f"cannot write {path}: {exc}", IO_ERROR)
    return OK


def _format_parts(value, bits: int):
    """Round-trip decimals at 53 bits, counted digits beyond."""
    if bits == 53:
        v = complex(value)
        return repr(v.real), repr(v.imag)
    import mpmath
    v = mpmath.mpmathify(value)
    return round_trip_decimal(mpmath.re(v), bits), round_trip_decimal(mpmath.im(v), bits)


# -- option types: argparse reports a refused value as a usage error ------

def _checked(kind, ok, rule: str):
    """An argparse type: parse with `kind`, refuse values failing `ok`."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, not {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type when kind() fails
    return parse


def _float(text: str) -> float:
    # every number the command line reads: float() takes a finite literal
    # past the double range (1e400) as inf, so it is refused by name; the
    # literals inf and nan pass on to the library's argument rule
    value = float(text)
    if math.isinf(value) and "inf" not in text.lower():
        raise argparse.ArgumentTypeError(f"{text!r} is outside the double range")
    return value


_float.__name__ = "float"  # argparse names the type when float() fails


def _parse_complex(text: str) -> complex:
    re, _, im = text.partition(",")
    try:
        return complex(_float(re), _float(im) if im else 0.0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad complex value {text!r}; use re or re,im")


def _parse_span(text: str):
    lo, sep, hi = text.partition(":")
    if sep:
        try:
            return _float(lo), _float(hi)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"bad range {text!r}; use lo:hi")


def _parse_n_list(text: str):
    if text == "":
        return []
    lo, sep, hi = text.partition(":")
    try:
        if not sep:
            return [int(lo)]
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; use first:last")
    if a > b:
        raise argparse.ArgumentTypeError(f"range {text!r} is descending")
    return list(range(a, b + 1))


def _parse_floats(text: str):
    tokens = [tok for tok in text.split(",") if tok]
    # a third token may name newton's map instead: h or f
    name = tuple(tokens[2:]) if tokens[2:] in (["h"], ["f"]) else ()
    try:
        return tuple(_float(tok) for tok in tokens[: len(tokens) - len(name)]) + name
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad list {text!r}")


# -- calibrate ------------------------------------------------------------

def _cmd_calibrate(args) -> int:
    try:
        constants = _store(calibrate(EvalContext(PrecisionConfig(args.precision_bits))))
    except SuperexpError as exc:
        return _fail(f"calibration failed: {exc}", CALIBRATION_ERROR)
    payload = constants.as_decimal_dict()
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["name,value"] + [f"{k},{v}" for k, v in payload.items()]
        text = "\n".join(lines) + "\n"
    else:
        import mpmath
        digits = mpmath.libmp.prec_to_dps(args.precision_bits)
        rows = [
            ("x1", mpmath.nstr(constants.x1, digits)),
            ("x3", mpmath.nstr(constants.x3, digits)),
            ("a1_norm", mpmath.nstr(constants.a1_norm, digits)),
            ("a3_norm", mpmath.nstr(constants.a3_norm, digits)),
            ("period_t1_imag", mpmath.nstr(constants.period_t1.imag, digits)),
            ("bits", str(constants.bits)),
        ]
        text = "\n".join(f"{k} = {v}" for k, v in rows) + "\n"
    return _emit(text, args.out)


# -- eval -----------------------------------------------------------------

def _cmd_eval(args) -> int:
    z = complex(args.re, args.im)
    err = None
    value = None
    try:
        _constants(args.precision_bits)
        if args.fn == "expc":
            request = IterateRequest(args.c, z, args.branch, args.cut_side or "above")
            value = exp_iterate(request, args.ctx)
        else:
            fn = {"F1": F1, "F3": F3, "A1": A1, "A3": A3}[args.fn]
            value = fn(z, args.ctx, cut_side=args.cut_side)
    except SuperexpError as exc:
        err = exc.code
        if args.format == "text":
            return _fail(f"{type(exc).__name__}: {exc}")
    if args.format == "text":
        re_s, im_s = _format_parts(value, args.precision_bits)
        return _emit(f"{re_s} {im_s}\n", args.out)
    if err is None:
        re_s, im_s = _format_parts(value, args.precision_bits)
    if args.format == "csv":
        row = f"{re_s},{im_s}," if err is None else f",,{err}"
        code = _emit(f"re,im,err\n{row}\n", args.out)
    else:
        # doubles round-trip as JSON numbers; wider values stay decimal strings
        if err is not None:
            re_out = im_out = None
        elif args.precision_bits == 53:
            re_out, im_out = float(re_s), float(im_s)
        else:
            re_out, im_out = re_s, im_s
        # JSON has no NaN or Infinity: echo a non-finite input as null
        payload = {
            "fn": args.fn,
            "x": args.re if math.isfinite(args.re) else None,
            "y": args.im if math.isfinite(args.im) else None,
            "re": re_out,
            "im": im_out,
            "err": err,
        }
        code = _emit(json.dumps(payload) + "\n", args.out)
    return code if err is None else max(code, EVAL_ERROR)


# -- table ----------------------------------------------------------------

def _cmd_table(args) -> int:
    method = {"fatou": "fatou1"}.get(args.method, args.method)
    if args.args is not None:
        params = args.args
        if method == "newton" and len(params) == 3 and params[2] not in ("h", "f"):
            args.parser.error("argument --args: newton's third argument names its map, h or f")
    elif method in _TABLE_DEFAULT_ARGS:
        params = _TABLE_DEFAULT_ARGS[method]
    else:
        return _fail(f"table {args.method} requires --args")
    # through the module, so that a wrapper set on a name is what runs
    cli = sys.modules[__name__]
    # a row's warning (a levy ratio's PrecisionLossWarning) is recorded and
    # printed as one plain line, neither shown with its source line nor
    # raised by a -W error filter
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            records = cli.convergence_table(
                method, params, args.n, PrecisionConfig(mantissa_bits=args.precision_bits)
            )
        except (ValueError, SuperexpError) as exc:
            return _fail(str(exc))
        finally:
            for warning in caught:
                sys.stderr.write(f"superexp: warning: {warning.message}\n")
    if args.format == "csv":
        return _emit(cli.records_to_csv(records), args.out)
    if args.format == "json":
        rows = []
        for rec in records:
            value, printed = cli.format_record(rec)
            rows.append(
                {"method": rec.method, "n": rec.n, "value": value,
                 "printed": printed, "error": rec.error}
            )
        return _emit(json.dumps(rows) + "\n", args.out)
    lines = [
        f"{rec.n} {rec.error if rec.error is not None else cli.format_record(rec)[1]}"
        for rec in records
    ]
    return _emit("".join(line + "\n" for line in lines), args.out)


# -- map ------------------------------------------------------------------

def _cmd_map(args) -> int:
    try:
        _constants(args.precision_bits)
        result = map_grid(args.fn, args.grid, args.ctx, c=args.c, branch=args.branch)
    except SuperexpError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    if args.format == "json":
        return _emit(grid_to_json(result) + "\n", args.out)
    return _emit(grid_to_csv(result), args.out)


# -- check ----------------------------------------------------------------

def _cmd_check(args) -> int:
    grid = args.grid
    try:
        _constants(args.precision_bits)
        cells, summary = check_grid(args.kind, grid, args.ctx, args.clip)
    except SuperexpError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    if args.format == "json":
        payload = {
            "kind": args.kind,
            "nx": grid.nx,
            "ny": grid.ny,
            "x_min": grid.x_min,
            "x_max": grid.x_max,
            "y_min": grid.y_min,
            "y_max": grid.y_max,
            "samples": [
                {"x": x, "y": y, "d": None if d != d else d} for x, y, d in cells
            ],
            "summary": summary,
        }
        return _emit(json.dumps(payload) + "\n", args.out)
    if args.format == "csv":
        lines = ["x,y,d"]
        lines += [f"{x!r},{y!r},{'' if d != d else repr(d)}" for x, y, d in cells]
        lines += [f"# {key}={value!r}" for key, value in summary.items()]
        return _emit("\n".join(lines) + "\n", args.out)
    text = "".join(f"{key} {value!r}\n" for key, value in summary.items())
    return _emit(text, args.out)


# -- parser ---------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, bits: int = 53, fmt: str = "text",
                formats: tuple = ("csv", "json", "text")) -> None:
    p.add_argument("--precision-bits", default=bits,
                   type=_checked(int, lambda b: b >= 53, "at least 53"),
                   help="working mantissa bits (default %(default)s)")
    p.add_argument("--format", choices=formats, default=fmt)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(parser=p)


def _add_walk_cap(p: argparse.ArgumentParser) -> None:
    # eval, map and check evaluate; calibrate and table have no use for it
    p.add_argument("--max-recursion", default=EvalContext.max_recursion,
                   type=_checked(int, lambda n: n >= 1, "at least 1"),
                   help="cap on either walk, in 53-bit steps (default %(default)s)")


def _add_grid(p: argparse.ArgumentParser, n: Optional[int] = None) -> None:
    # map and check sample a grid: n samples per axis by default, or none
    p.add_argument("--x", type=_parse_span, required=True, help="x span lo:hi")
    p.add_argument("--y", type=_parse_span, required=True, help="y span lo:hi")
    p.add_argument("--nx", type=int, required=n is None, default=n)
    p.add_argument("--ny", type=int, required=n is None, default=n)
    p.add_argument("--cut-side", choices=("above", "below"), default="above")


def _build_parser() -> _Parser:
    parser = _Parser(prog="superexp",
                     description="Super-exponentials and super-logarithms "
                                 "to base e^(1/e)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate",
                       help="compute the calibration constants from two Abel walks")
    _add_common(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("eval", help="evaluate one function at one point")
    _add_common(p)
    _add_walk_cap(p)
    p.add_argument("fn", choices=GRID_FUNCTIONS)
    p.add_argument("re", type=_float)
    p.add_argument("im", type=_float, nargs="?", default=0.0)
    p.add_argument("--cut-side", choices=("above", "below"), default=None,
                   help="side resolving on-cut arguments (omit = strict; expc, "
                        "which has no strict mode, takes above)")
    p.add_argument("--c", type=_parse_complex, default=None,
                   help="iteration count re[,im] for expc")
    p.add_argument("--branch", choices=("lower", "upper"), default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("table", help="convergence table of a limit estimator")
    # published tables need deep orbits; default to a comfortably wide
    # working precision rather than doubles
    _add_common(p, bits=256)
    p.add_argument("method", choices=("levy", "fatou", "fatou1", "fatou2", "newton"))
    p.add_argument("--n", type=_parse_n_list, required=True,
                   help="inclusive orbit range first:last (empty for none)")
    p.add_argument("--args", type=_parse_floats, default=None,
                   help="estimator arguments, comma separated; newton's "
                        "third names its map, h or f "
                        "(defaults: levy -1,1; fatou -1)")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("map", help="sample a function over a grid")
    _add_common(p, fmt="csv", formats=("csv", "json"))  # a grid has no text form
    _add_walk_cap(p)
    p.add_argument("fn", choices=GRID_FUNCTIONS)
    _add_grid(p)
    p.add_argument("--c", type=_parse_complex, default=None,
                   help="iteration count re[,im] for expc")
    p.add_argument("--branch", choices=("lower", "upper"), default=None)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("check", help="agreement diagnostic over a grid")
    _add_common(p)
    _add_walk_cap(p)
    p.add_argument("kind", choices=AGREEMENT_KINDS)
    _add_grid(p, n=41)
    p.add_argument("--clip", type=_checked(float, lambda c: 0 < c < math.inf,
                                           "positive and finite"), default=16.0,
                   help="digit ceiling reported for exact agreement")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if "max_recursion" in args:  # eval, map and check
        args.ctx = EvalContext(
            PrecisionConfig(mantissa_bits=args.precision_bits), args.max_recursion
        )
    if "c" in args:  # eval and map
        if args.fn != "expc" and (args.c, args.branch) != (None, None):
            args.parser.error("--c and --branch apply to expc only")
        if args.fn == "expc" and args.c is None:
            return _fail(f"{args.command} expc requires --c")
    if "x" in args:  # map and check sample a grid
        try:
            args.grid = GridSpec(*args.x, *args.y, args.nx, args.ny, args.cut_side)
        except ValueError as exc:
            args.parser.error(str(exc))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
