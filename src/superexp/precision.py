"""The width of an evaluation, the private mpmath contexts that carry it,
and the argument rules of every public entry point: a value is a
finite number (`require_finite`), a count is an integer (`require_count`),
a configuration is of its type (`require_config`).

Evaluators, limit formulas and the CLI all take a `PrecisionConfig`.
Every computation above 53 bits runs in a private mpmath context from
`mp_context` (or, for an object that threads share, its own
`new_mp_context`), never at mpmath's global precision, so neither that
setting nor another thread changes a result; results leave as plain
mpmath values (`plain`).  The helpers import mpmath inside their bodies,
so a 53-bit process can build a `PrecisionConfig` without loading it.
`limits`, `evaluators` and the package re-export `PrecisionConfig`.
"""

from __future__ import annotations

import cmath
import numbers
import operator
import threading
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["PrecisionConfig"]


@dataclass(frozen=True)
class PrecisionConfig:
    """The mantissa width of an evaluation or of a limit formula.

    Parameters
    ----------
    mantissa_bits : int
        Binary mantissa length of the backend arithmetic, an integer of
        at least 53; the convergence tables default to 256.  A real
        orbit point with 2^-32 <= |u| < 64 is held to an absolute
        resolution of 2^-(mantissa_bits+32) instead, which is finer for
        every orbit length below about 10^10.  53 gives a fixed-point
        orbit in h-coordinates, not a double orbit of x -> e^(x/e): its
        10^5 ratio rows are monotone, so it does not reproduce the
        rounding jitter of tables computed from such an orbit.
    """

    mantissa_bits: int = 256

    def __post_init__(self) -> None:
        bits = require_count(self.mantissa_bits, "mantissa_bits", 53)
        object.__setattr__(self, "mantissa_bits", bits)


def new_mp_context(bits: int) -> mpmath.MPContext:
    """A private mpmath context working at `bits`; nothing sets its
    precision after this.  Its values go through its functions (ctx.log,
    not mpmath.log, which works at the global precision) and lead mixed
    arithmetic.  mpmath's expm1 and log1p raise the context's precision
    while they run, so a context that threads share never calls them.
    """
    import mpmath
    ctx = mpmath.MPContext()
    ctx.prec = bits
    return ctx


_contexts = threading.local()


def mp_context(bits: int) -> mpmath.MPContext:
    """This thread's private context at `bits`, memoized."""
    memo = _contexts.__dict__  # a threading.local's __dict__ is per thread
    ctx = memo.get(bits)
    if ctx is None:
        ctx = memo[bits] = new_mp_context(bits)
    return ctx


def plain(x, bits: int | None = None):
    """x as a value of mpmath's global context, rounded to `bits` when
    given, else exactly; Python numbers pass through."""
    if hasattr(x, "_mpf_"):
        from mpmath import mp
        from mpmath.libmp import mpf_pos
        return mp.make_mpf(x._mpf_ if bits is None else mpf_pos(x._mpf_, bits, "n"))
    if hasattr(x, "_mpc_"):
        from mpmath import mp
        from mpmath.libmp import mpc_pos
        return mp.make_mpc(x._mpc_ if bits is None else mpc_pos(x._mpc_, bits, "n"))
    return x


def round_trip_digits(bits: int) -> int:
    """The digits of a decimal that reads back to the same value at
    `bits`: three past the ones `bits` resolves."""
    from mpmath.libmp import prec_to_dps
    return prec_to_dps(bits) + 3


def round_trip_decimal(x, bits: int) -> str:
    """x as a round_trip_digits(bits) decimal, as the CLI and the
    calibration record write every value wider than a double."""
    import mpmath
    return mpmath.nstr(x, round_trip_digits(bits))


def mp_convert(ctx, x):
    """x as a value of ctx, exactly; mpmath's constants (mpmath.e, ...)
    evaluate at ctx's width, as they would at that global precision."""
    from mpmath import mp
    if isinstance(x, mp.constant):
        x = x(prec=ctx.prec)
    return ctx.convert(x)


def require_finite(z):
    """z itself if a finite number, else DomainError: the one argument
    test of the evaluators' casts, exp_iterate and the limit formulas
    (_as_mp).  A non-Number (None, a str) is refused before mpmath loads;
    mpmath and NumPy register their scalars as Numbers.  A Python number
    is tested without mpmath, an int as finite at any size."""
    if isinstance(z, (int, float, complex)):
        finite = isinstance(z, int) or cmath.isfinite(z)
    elif isinstance(z, numbers.Number):
        import mpmath
        finite = mpmath.isfinite(z)
    else:
        raise DomainError(f"argument must be a number, got {z!r}")
    if not finite:
        raise DomainError(f"argument must be finite, got {z!r}")
    return z


def require_count(n, name: str, least: int = 0) -> int:
    """n as an int if an integer (operator.index: an int, a bool or a NumPy
    integer, not a float such as 3.0) of at least `least`, else ValueError
    naming it: the rule of every width, cap, grid size, order and length."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if n < least:
        raise ValueError(f"{name} must be " + (f"at least {least}" if least else "nonnegative"))
    return n


def require_config(value, cls: type, name: str):
    """value itself if a `cls`, else ValueError naming the argument and
    its type: the rule of every configuration an entry point takes (a
    width, a context, a grid, a request), checked before any work."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be of type {cls.__name__}, got {value!r}")
    return value


def _as_mp(ctx, z):
    # z as a value of ctx, exactly, once require_finite passes it; a
    # complex value on the real axis as real
    z = mp_convert(ctx, require_finite(z))
    if isinstance(z, ctx.mpc) and z.imag == 0:
        return z.real
    return z
