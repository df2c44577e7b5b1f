"""The error contract over arbitrary arguments.

Every public evaluator, at 53 and 128 bits, returns a finite value or
raises a SuperexpError subclass for any argument: Python complex, mpmath
and int values, NaN, the infinities, magnitudes past the double range
and points within 2^-1000 of e included.  A non-finite argument,
exp_iterate's count and a map's count among them, raises a DomainError
that says so, as does a value that is not a number (None, a str), and
so does A1 for an argument whose first step's phase its width cannot
resolve.  An agreement score is a float in
[-clip, clip] or NaN.  The limit formulas keep the same
contract at 64 bits over orbits of up to 5 steps, and refuse a float
orbit length.  Every count a public entry point takes (a width, a cap,
a grid size, a truncation order, an orbit length) is an integer or a
ValueError naming it, and a NumPy integer counts as its int.  The
command line exits 0 or 1 for any numeric literal, printing nothing on
a failure.
Examples are drawn derandomized, so a run is repeatable.
"""

import ast
import cmath
import contextlib
import inspect
import io
import math
import pathlib
import re
import warnings

import mpmath
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from superexp import (
    A1, A3, F1, F3, EvalContext, PrecisionConfig, abel1, abel2, superexp_tilde,
)
import superexp
from superexp import cli, evaluators, limits, series
from superexp.errors import DomainError, PrecisionLossWarning, SuperexpError
from superexp.iteration import (
    AGREEMENT_KINDS, GridSpec, IterateRequest, agreement, dq13, exp_iterate, map_grid,
)

CONTEXTS = {
    53: EvalContext(),
    128: EvalContext(precision=PrecisionConfig(mantissa_bits=128)),
}

# name: (call, whether it takes the count c as well as z)
CALLS = {
    "F1": (lambda z, c, ctx: F1(z, ctx), False),
    "F3": (lambda z, c, ctx: F3(z, ctx), False),
    "A1": (lambda z, c, ctx: A1(z, ctx), False),
    "A3": (lambda z, c, ctx: A3(z, ctx), False),
    "abel1": (lambda z, c, ctx: abel1(z, ctx), False),
    "abel2": (lambda z, c, ctx: abel2(z, ctx), False),
    "superexp_tilde minus": (lambda z, c, ctx: superexp_tilde(z, "minus", ctx), False),
    "superexp_tilde plus": (lambda z, c, ctx: superexp_tilde(z, "plus", ctx), False),
    "exp_iterate": (lambda z, c, ctx: exp_iterate(IterateRequest(c, z), ctx), True),
    "dq13": (lambda z, c, ctx: dq13(z, ctx), False),
}
# the grid of map_grid("expc"), whose count c is the argument drawn
GRID = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)

points = st.one_of(
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    # within 2^-1000 ... 2^-1074 of e, where 1 - z/e is subnormal or 0
    st.builds(
        lambda k, sign: complex(math.e, sign * math.ldexp(1.0, -k)),
        st.integers(1000, 1074),
        st.sampled_from((1.0, -1.0)),
    ),
)
reals = st.floats(allow_nan=True, allow_infinity=True)
# finite values a double cannot hold, and the largest power of 2 one can
EXTREMES = [
    mpmath.mpf("1e400"), mpmath.mpf("-1e400"), mpmath.mpc(1, "1e400"),
    10**400, -(10**400), 2**1023, -(2**1023),
]
arguments = st.one_of(
    points,
    reals.map(mpmath.mpf),
    st.builds(mpmath.mpc, reals, reals),
    # mantissa and exponent: magnitudes from 2^-1500 to 2^1453
    st.builds(
        lambda m, e: mpmath.mpf((m, e)),
        st.integers(-(2**53), 2**53),
        st.integers(-1500, 1400),
    ),
    st.integers(-100, 100),
    st.sampled_from(EXTREMES),
)
# |X + Y| of the d1fa round trip overflows a double here, though X + Y
# does not
OVERFLOW = complex(-1.7976931348623157e308, -1.7976931348623157e308)


def _finite(value) -> bool:
    # complex() of a finite wide value such as 7.7e1215 is inf: ask mpmath
    if isinstance(value, int):
        return True
    if isinstance(value, (float, complex)):
        return cmath.isfinite(value)
    return mpmath.isfinite(value)


def _refused(exc: SuperexpError) -> bool:
    return isinstance(exc, DomainError) and "finite" in str(exc)


def _check(bits: int, z, c) -> None:
    ctx = CONTEXTS[bits]
    for name, (call, takes_c) in CALLS.items():
        refused = not _finite(z) or takes_c and not _finite(c)
        try:
            value = call(z, c, ctx)
        except SuperexpError as exc:
            assert _refused(exc) or not refused, (name, z, c, exc)
            continue
        assert not refused and _finite(value), (name, z, c, value)
    # a count no cell could take is refused for the whole grid
    try:
        cells = map_grid("expc", GRID, ctx, c=c).values
    except SuperexpError as exc:
        assert _refused(exc) or _finite(c), (c, exc)
    else:
        assert _finite(c), (c, cells)
        assert all(v is None or cmath.isfinite(v) for row in cells for v in row), (c, cells)
    for kind in AGREEMENT_KINDS:
        score = agreement(kind, z, ctx)
        assert type(score) is float, (kind, z, score)
        assert math.isnan(score) or -16.0 <= score <= 16.0, (kind, z, score)


_SETTINGS = dict(
    derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@settings(max_examples=1000, **_SETTINGS)
@given(z=points, c=points)
@example(z=OVERFLOW, c=0.5)
def test_53_bits_returns_finite_or_raises(z, c):
    _check(53, z, c)


@settings(max_examples=100, **_SETTINGS)
@given(z=points, c=points)
@example(z=OVERFLOW, c=0.5)
def test_128_bits_returns_finite_or_raises(z, c):
    _check(128, z, c)


@settings(max_examples=300, **_SETTINGS)
@given(z=arguments, c=arguments)
@example(z=mpmath.mpf("nan"), c=0.5)
@example(z=1.0, c=mpmath.mpc(0.5, "inf"))
@example(z=10**400, c=math.nan)
def test_53_bits_mpmath_and_int_arguments(z, c):
    _check(53, z, c)


@settings(max_examples=60, **_SETTINGS)
@given(z=arguments, c=arguments)
@example(z=mpmath.mpc(1, "1e400"), c=0.5)
@example(z=-(10**400), c=math.inf)
def test_128_bits_mpmath_and_int_arguments(z, c):
    _check(128, z, c)


def test_a1_refuses_a_first_phase_its_width_cannot_resolve():
    # A1 walks forward from e^(z/e), whose phase Im z/e is rounding noise
    # at a width from |Im z/e| = 2^(bits - 8): at 53 bits 1 + 1e20i gave
    # -2.5031 + 0.3498i, where 128 bits resolves it
    with pytest.raises(DomainError, match="does not resolve the phase"):
        A1(complex(1, 1e20))
    assert abs(A1(complex(1, 1e20), CONTEXTS[128]) - complex(-0.164052, 0.636850)) < 1e-6
    # refused before any step, where the walk took about a second
    with pytest.raises(DomainError, match="does not resolve the phase"):
        A1(mpmath.mpc(1, mpmath.mpf(10) ** 100000), CONTEXTS[128])


CFG64 = PrecisionConfig(mantissa_bits=64)

# name: (call on (z, u, n) with 0 <= n <= 5 or a float n, how many of z, u
# it takes)
LIMIT_CALLS = {
    "iterate_h": (lambda z, u, n: limits.iterate_h(z, n, CFG64), 1),
    "iterate_h_inverse": (lambda z, u, n: limits.iterate_h_inverse(z, n, CFG64), 1),
    "levy_abel": (lambda z, u, n: limits.levy_abel(z, u, n, CFG64), 2),
    "levy_probe": (lambda z, u, n: limits.levy_probe(z, u, n, CFG64), 2),
    "newton h": (lambda z, u, n: limits.newton_superfunction(z, u, n + 1, CFG64).value, 2),
    "newton f": (
        lambda z, u, n: limits.newton_superfunction(z, u, n + 1, CFG64, "f").value, 2
    ),
    "fatou_abel 1": (lambda z, u, n: limits.fatou_abel(z, 1, n + 1, CFG64), 1),
    "fatou_abel 2": (lambda z, u, n: limits.fatou_abel(z, 2, n + 1, CFG64), 1),
    "fatou_probe": (lambda z, u, n: limits.fatou_probe(z, n + 1, CFG64), 1),
    "fatou_probe_richardson": (
        lambda z, u, n: limits.fatou_probe_richardson(z, 2 + n // 3 * 2, CFG64), 1
    ),
}
TABLES = {"levy": 2, "fatou1": 1, "fatou2": 2, "newton": 2}


def _limit_outcome(call, refused: bool, counted: bool, where: tuple):
    # the value of a limit formula, asserted finite, or None once it has
    # refused as it must: a non-finite argument by the argument rule
    # (DomainError), a float n by the count rule (ValueError)
    try:
        value = call()
    except ValueError as exc:
        assert counted and "must be an integer, got" in str(exc), (*where, exc)
        return None
    except SuperexpError as exc:
        assert _refused(exc) or not (refused or counted), (*where, exc)
        return None
    assert not (refused or counted), (*where, value)
    return value


@settings(max_examples=150, **_SETTINGS)
@given(z=arguments, u=arguments, n=st.one_of(st.integers(0, 5), reals))
@example(z=math.nan, u=1.0, n=3)
@example(z=0.1, u=math.inf, n=4)
@example(z=math.inf, u=1.0, n=5)
@example(z=-1.0, u=1.0, n=3.0)
def test_limit_formulas_return_finite_or_raise(z, u, n):
    counted = isinstance(n, float)
    # a float n reaches a table as a float row, 3.0 included
    ns = [n + 1] if counted else range(1, n + 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionLossWarning)
        for name, (call, arity) in LIMIT_CALLS.items():
            refused = not all(map(_finite, (z, u)[:arity]))
            value = _limit_outcome(lambda: call(z, u, n), refused, counted, (name, z, u, n))
            assert value is None or _finite(value), (name, z, u, n, value)
        for method, arity in TABLES.items():
            refused = not all(map(_finite, (z, u)[:arity]))
            rows = _limit_outcome(
                lambda: limits.convergence_table(method, (z, u)[:arity], ns, CFG64),
                refused, counted, (method, z, u, n),
            )
            assert all(r.error or _finite(r.value) for r in rows or ()), (method, z, u, n, rows)


# values that are not numbers: "1" once evaluated as 1 at 53 bits, and
# the others raised a raw TypeError from mpmath
NOT_NUMBERS = [None, "1", b"1", [1]]


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("bits", [53, 128])
def test_a_value_that_is_not_a_number_is_refused(bits, bad):
    ctx = CONTEXTS[bits]
    calls = [lambda call=call: call(bad, 0.5, ctx) for call, _ in CALLS.values()]
    calls.append(lambda: exp_iterate(IterateRequest(bad, 1.0), ctx))
    calls += [lambda call=call: call(bad, bad, 3) for call, _ in LIMIT_CALLS.values()]
    calls += [
        lambda method=method, arity=arity: limits.convergence_table(
            method, (bad, bad)[:arity], [1, 2], CFG64
        )
        for method, arity in TABLES.items()
    ]
    message = f"^argument must be a number, got {re.escape(repr(bad))}$"
    for call in calls:
        with pytest.raises(DomainError, match=message):
            call()
    if bad is None:  # map_grid reads a None count as a missing one
        message = "requires the iteration count"
    with pytest.raises((DomainError, ValueError), match=message):
        map_grid("expc", GRID, ctx, c=bad)


def test_no_public_callable_takes_constants():
    # the calibration constants are the functions' own: every evaluator,
    # composition and grid takes its width's default_constants
    taking = []
    for name in superexp.__all__:
        obj = getattr(superexp, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to read
            continue
        if "constants" in params:
            taking.append(name)
    assert taking == []


def test_one_side_flag_below_the_public_api():
    # below superexp_tilde the side is the bool `plus`: wide.py does not
    # name BranchSign, no function of evaluators.py or wide.py but
    # superexp_tilde and _as_branch takes a `branch`, and each kernel
    # holds the fixed point as its attribute `e`, not a method
    trees = {
        name: ast.parse(pathlib.Path(evaluators.__file__).with_name(name).read_text())
        for name in ("evaluators.py", "wide.py")
    }
    found = []
    for node in ast.walk(trees["wide.py"]):
        named = (
            getattr(node, "id", None), getattr(node, "attr", None),
            node.name if isinstance(node, ast.alias) else None,
        )
        if "BranchSign" in named:
            found.append(f"wide.py:{getattr(node, 'lineno', '?')} names BranchSign")
    for path, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            name = getattr(fn, "name", "a lambda")
            params = [a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)]
            if "branch" in params and name not in ("superexp_tilde", "_as_branch"):
                found.append(f"{path}: {name} takes `branch`")
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in ("_DoubleKernel", "_MPKernel"):
                if any(isinstance(fn, ast.FunctionDef) and fn.name == "e" for fn in cls.body):
                    found.append(f"{path}: {cls.name} defines a method e")
    assert found == []


# a call written for the former `constants` parameter, after ctx: each
# fails loudly with the error the argument it lands on raises
OLD_CALLS = {
    **{
        fn.__name__: (lambda ctx, cc, fn=fn: fn(0.5, ctx, cc), ValueError, "^cut_side must be")
        for fn in (F1, F3, A1, A3)
    },
    "agreement": (
        lambda ctx, cc: agreement("d1fa", 0.5 + 0.5j, ctx, cc), ValueError, "^clip must be"
    ),
    "map_grid F1": (
        lambda ctx, cc: map_grid("F1", GRID, ctx, cc), ValueError, "^c applies to fn='expc' only"
    ),
    "map_grid expc": (
        lambda ctx, cc: map_grid("expc", GRID, ctx, cc), DomainError, "^argument must be a number"
    ),
    "exp_iterate": (
        lambda ctx, cc: exp_iterate(IterateRequest(0.5, 1.0), ctx, cc), TypeError, "positional"
    ),
    "dq13": (lambda ctx, cc: dq13(2.5, ctx, cc), TypeError, "positional"),
}


@pytest.mark.parametrize("name", OLD_CALLS)
@pytest.mark.parametrize("bits", [53, 128])
def test_a_call_passing_constants_fails(bits, name):
    ctx, cc = CONTEXTS[bits], evaluators.default_constants(bits)
    call, error, message = OLD_CALLS[name]
    with pytest.raises(error, match=message):
        call(ctx, cc)


CFG_COUNT = PrecisionConfig(mantissa_bits=64)
_EXP = series.exp_minus_one(12)
# name: (call on the count k, the name its refusal gives, an integer k it
# takes); every public count argument of the package
COUNTS = {
    "PrecisionConfig": (lambda k: PrecisionConfig(k), "mantissa_bits", 64),
    "EvalContext": (lambda k: EvalContext(max_recursion=k), "max_recursion", 3),
    "GridSpec nx": (lambda k: GridSpec(0.0, 1.0, 0.0, 1.0, k, 2), "nx", 3),
    "GridSpec ny": (lambda k: GridSpec(0.0, 1.0, 0.0, 1.0, 2, k), "ny", 3),
    "calibration_tier": (evaluators.calibration_tier, "bits", 300),
    "default_constants": (evaluators.default_constants, "bits", 64),
    "iterate_h": (lambda k: limits.iterate_h(-0.5, k, CFG_COUNT), "orbit length", 3),
    "iterate_h_inverse": (
        lambda k: limits.iterate_h_inverse(0.5, k, CFG_COUNT), "orbit length", 3
    ),
    "levy_abel": (lambda k: limits.levy_abel(-0.5, 0.5, k, CFG_COUNT), "orbit length", 3),
    "levy_probe": (lambda k: limits.levy_probe(-1, 1, k, CFG_COUNT), "orbit length", 3),
    "newton_superfunction": (
        lambda k: limits.newton_superfunction(0.5, 0.5, k, CFG_COUNT), "summand count", 3
    ),
    "fatou_abel": (lambda k: limits.fatou_abel(-0.5, 1, k, CFG_COUNT), "orbit length", 3),
    "fatou_probe": (lambda k: limits.fatou_probe(-1, k, CFG_COUNT), "orbit length", 3),
    "fatou_probe_richardson": (
        lambda k: limits.fatou_probe_richardson(-1, k, CFG_COUNT), "orbit length", 4
    ),
    **{
        f"{method} table": (
            lambda k, method=method, args=args: limits.convergence_table(
                method, args, [1, k], CFG_COUNT
            ),
            "summand count" if method == "newton" else "orbit length",
            3,
        )
        for method, args in (
            ("levy", (-1, 1)), ("fatou1", (-1,)), ("fatou2", (5, 6)), ("newton", (0.5, 0.5)),
        )
    },
    "exp_minus_one": (series.exp_minus_one, "N", 3),
    "regular_iterate_series": (
        lambda k: series.regular_iterate_series(1, k), "N", 3
    ),
    "iterative_logarithm": (series.iterative_logarithm, "N", 3),
    "abel_expansion": (series.abel_expansion, "N", 3),
    "superexp_polynomials": (series.superexp_polynomials, "M", 3),
    "PowerSeries.truncate": (lambda k: _EXP.truncate(k), "n_terms", 3),
    "PowerSeries.mul": (lambda k: _EXP.mul(_EXP, k), "n_terms", 3),
    "PowerSeries.compose": (lambda k: _EXP.compose(_EXP, k), "n_terms", 3),
}


@pytest.mark.parametrize("name, count", [
    (name, count)
    for name in COUNTS
    for count in (2.5, 3.0, math.nan, math.inf, None, "3")
    # mul's n_terms=None is its untruncated product
    if not (name == "PowerSeries.mul" and count is None)
])
def test_a_count_that_is_not_an_integer_is_refused(name, count):
    # a ValueError naming the argument, never a raw AttributeError or
    # TypeError from the arithmetic the count would have reached
    call, argument, _ = COUNTS[name]
    with pytest.raises(ValueError, match=f"^{argument} must be an integer, got "):
        call(count)


@pytest.mark.parametrize("name", COUNTS)
def test_a_numpy_integer_count_is_its_int(name):
    numpy = pytest.importorskip("numpy")
    call, _, k = COUNTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionLossWarning)
        value = call(numpy.int64(k))
        assert value == call(k), name
    # a frozen configuration stores the count as an int
    for field in ("mantissa_bits", "max_recursion", "nx", "ny"):
        if hasattr(value, field):
            assert type(getattr(value, field)) is int, (name, field)


# numeric literals as typed on a command line: finite, past the double
# range either way, the spellings of inf and nan, and some that are not
# numbers at all
LITERALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from([
        "1e400", "-1e400", "1e-400", "-1E+400", "inf", "-inf", "+Infinity", "nan", "-NaN",
        "1e308", "-1.7976931348623157e308", "0x10", "1,", "",
    ]),
)


def _span(lo, hi) -> str:
    return f"{lo}:{hi}"


COMMANDS = st.one_of(
    st.builds(
        lambda fn, re, im: ["eval", fn, re, im],
        st.sampled_from(["F1", "F3", "A1", "A3"]), LITERALS, LITERALS,
    ),
    st.builds(
        lambda re, c, ci: ["eval", "expc", re, "0.5", f"--c={c}{ci}"],
        LITERALS, LITERALS, st.one_of(st.just(""), LITERALS.map(lambda t: "," + t)),
    ),
    st.builds(
        lambda method, args: ["table", method, f"--args={','.join(args)}", "--n=1:3",
                              "--precision-bits=64"],
        st.sampled_from(["levy", "fatou1", "fatou2", "newton"]),
        st.lists(LITERALS, min_size=1, max_size=2),
    ),
    st.builds(
        lambda fn, x, y, c: ["map", fn, f"--x={x}", f"--y={y}", "--nx=2", "--ny=2", *c],
        st.sampled_from(["F1", "A3", "expc"]),
        st.builds(_span, LITERALS, LITERALS),
        st.builds(_span, LITERALS, LITERALS),
        st.one_of(st.just(["--c=0.5"]), LITERALS.map(lambda t: [f"--c={t}"])),
    ),
    st.builds(
        lambda kind, x, y: ["check", kind, f"--x={x}", f"--y={y}", "--nx=2", "--ny=2"],
        st.sampled_from(["d1fa", "dq1", "dq3"]),
        st.builds(_span, LITERALS, LITERALS),
        st.builds(_span, LITERALS, LITERALS),
    ),
)


def _main(argv) -> tuple:
    # (exit code, stdout, stderr) of one in-process run of the command
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, **_SETTINGS)
@given(argv=COMMANDS)
@example(argv=["eval", "F1", "1e400", "0"])
@example(argv=["eval", "expc", "1", "0", "--c=-1e400"])
@example(argv=["table", "levy", "--args=1e400,1", "--n=1:2", "--precision-bits=64"])
@example(argv=["map", "expc", "--x=0:1", "--y=0:1", "--nx=2", "--ny=2", "--c=nan"])
@example(argv=["check", "dq1", "--x=0:1e400", "--y=0:1", "--nx=2", "--ny=2"])
def test_command_line_exits_0_or_1(argv, tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("SUPEREXP_CACHE_DIR", str(tmp_path_factory.getbasetemp() / "cache"))
        code, out, err = _main([*argv, "--format=text"])
    assert code in (0, 1), (argv, code, err)
    if code == 1:  # a reason on stderr, nothing on stdout
        assert out == "" and err, (argv, out, err)
