"""The error contract over arbitrary arguments.

Every public evaluator, at 53 and 128 bits, returns a finite value or
raises a SuperexpError subclass for any argument: Python complex, mpmath
and int values, NaN, the infinities and magnitudes past the double range
included.  A non-finite argument, exp_iterate's count among them, raises
a DomainError that says so.  An agreement score is a float in
[-clip, clip] or NaN.  The limit formulas keep the same contract at 64
bits over orbits of up to 5 steps.  Examples are drawn derandomized, so
a run is repeatable.
"""

import cmath
import math
import warnings

import mpmath
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from superexp import (
    A1, A3, F1, F3, EvalContext, PrecisionConfig, abel1, abel2, superexp_tilde,
)
from superexp import limits
from superexp.errors import DomainError, PrecisionLossWarning, SuperexpError
from superexp.iteration import AGREEMENT_KINDS, IterateRequest, agreement, exp_iterate

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
}

points = st.complex_numbers(allow_nan=True, allow_infinity=True)
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


CFG64 = PrecisionConfig(mantissa_bits=64)

# name: (call on (z, u, n) with 0 <= n <= 5, how many of z, u it takes)
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


@settings(max_examples=150, **_SETTINGS)
@given(z=arguments, u=arguments, n=st.integers(0, 5))
@example(z=math.nan, u=1.0, n=3)
@example(z=0.1, u=math.inf, n=4)
@example(z=math.inf, u=1.0, n=5)
def test_limit_formulas_return_finite_or_raise(z, u, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionLossWarning)
        for name, (call, arity) in LIMIT_CALLS.items():
            refused = not all(map(_finite, (z, u)[:arity]))
            try:
                value = call(z, u, n)
            except SuperexpError as exc:
                assert _refused(exc) or not refused, (name, z, u, n, exc)
                continue
            assert not refused and _finite(value), (name, z, u, n, value)
        for method, arity in TABLES.items():
            refused = not all(map(_finite, (z, u)[:arity]))
            try:
                rows = limits.convergence_table(method, (z, u)[:arity], range(1, n + 2), CFG64)
            except SuperexpError as exc:
                assert _refused(exc) or not refused, (method, z, u, n, exc)
                continue
            assert not refused, (method, z, u, n, rows)
            assert all(r.error or _finite(r.value) for r in rows), (method, z, u, n, rows)
