"""The error contract over arbitrary complex arguments.

Every public evaluator, at 53 and 128 bits, returns a finite value or
raises a SuperexpError subclass for any complex argument, NaN and the
infinities included, and an agreement score is a float in
[-clip, clip] or NaN.  Examples are drawn derandomized, so a run is
repeatable.
"""

import cmath
import math

import mpmath
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from superexp import (
    A1, A3, F1, F3, EvalContext, PrecisionConfig, abel1, abel2, superexp_tilde,
)
from superexp.errors import SuperexpError
from superexp.iteration import AGREEMENT_KINDS, IterateRequest, agreement, exp_iterate

CONTEXTS = {
    53: EvalContext(),
    128: EvalContext(precision=PrecisionConfig(mantissa_bits=128)),
}

CALLS = {
    "F1": lambda z, c, ctx: F1(z, ctx),
    "F3": lambda z, c, ctx: F3(z, ctx),
    "A1": lambda z, c, ctx: A1(z, ctx),
    "A3": lambda z, c, ctx: A3(z, ctx),
    "abel1": lambda z, c, ctx: abel1(z, ctx),
    "abel2": lambda z, c, ctx: abel2(z, ctx),
    "superexp_tilde minus": lambda z, c, ctx: superexp_tilde(z, "minus", ctx),
    "superexp_tilde plus": lambda z, c, ctx: superexp_tilde(z, "plus", ctx),
    "exp_iterate": lambda z, c, ctx: exp_iterate(IterateRequest(c, z), ctx),
}

points = st.complex_numbers(allow_nan=True, allow_infinity=True)
# |X + Y| of the d1fa round trip overflows a double here, though X + Y
# does not
OVERFLOW = complex(-1.7976931348623157e308, -1.7976931348623157e308)


def _finite(value) -> bool:
    # complex() of a finite wide value such as 7.7e1215 is inf: ask mpmath
    if isinstance(value, (float, complex)):
        return cmath.isfinite(value)
    return mpmath.isfinite(value)


def _check(bits: int, z: complex, c: complex) -> None:
    ctx = CONTEXTS[bits]
    for name, call in CALLS.items():
        try:
            value = call(z, c, ctx)
        except SuperexpError:
            continue
        assert _finite(value), (name, z, c, value)
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
