"""Evaluators for the super-exponentials F1, F3 and super-logarithms A1, A3.

Everything is driven by two expansions around the parabolic fixed point
z = e of z -> e^(z/e):

- an Abel-function series in zeta = 1 - z/e, valid in a small disk once
  the argument has been walked near the fixed point (abel1 walks forward
  with e^(z/e), abel2 walks backward with e*log z);
- the asymptotic F~, valid far out on either real end (superexp_tilde
  walks the functional equation until its argument is far enough out).
  It is the inverse of the Abel series shifted by ln(2)/3, found at the
  base point by Newton's method on that series, so the F~ walk starts
  where 2/z enters the Abel disk (10 steps out at 53 bits, 68 at 256).

Two kernels share these drivers.  A 53-bit context runs on machine
doubles, the hot path for grids, with the EvalContext tuning fields as
given; the walk-out threshold is a floor at every width.  Wider
contexts run on mpmath and derive their tuning from the bit count (one
tier table, _ABEL_TIERS, sets both walks), taking the context fields as
one-sided limits, so a context tightened by hand is never silently
loosened.  The wider kernel walks on values of its own mpmath context
at its work bits (see limits.new_mp_context), never at mpmath's global
precision, so neither that setting nor another thread changes a
result; results leave as plain mpmath values.  It sums the Abel series
and runs Newton's method on Python integers scaled by 2^scale, 16 bits
above its work bits (superexp.fixed), so the walk's logarithm steps
are most of an evaluation.

Real arguments on a cut are evaluated as directional limits: `cut_side`
picks the side ("above" everywhere by default), and None demands a
side-independent value, raising BranchCutError where there is none.
"""

from __future__ import annotations

import cmath
import dataclasses
import enum
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

import mpmath
from mpmath.libmp import from_man_exp

from . import fixed
from .errors import (
    BranchCutError,
    DomainError,
    NonConvergenceError,
    OrbitOverflowError,
    SuperexpError,
)
from .limits import (
    PrecisionConfig, Scalar, mp_context, mp_convert, new_mp_context, plain,
)
from .series import abel_expansion, exp_minus_one
# no evaluator calls it; the traced benchmark runs wrap it by this name
from .series import superexp_polynomials  # noqa: F401

__all__ = [
    "A1",
    "A3",
    "BranchSign",
    "CalibrationConstants",
    "EvalContext",
    "F1",
    "F3",
    "abel1",
    "abel2",
    "calibrate",
    "calibration_tier",
    "default_constants",
    "superexp_tilde",
]

_E = math.e


class BranchSign(enum.Enum):
    """Selector for the two asymptotic branches.

    `minus` is the branch real on the far positive axis (it feeds F1 and
    pairs with abel1); `plus` is real on the far negative axis (F3,
    abel2).  The name records which sign goes inside the logarithm of
    the paired Abel expansion.
    """

    minus = "minus"
    plus = "plus"


@dataclass(frozen=True)
class EvalContext:
    """Tuning knobs for the evaluators.

    The defaults are the measured 53-bit settings: the spots where the
    functional-equation residuals of the double kernel bottom out near
    1e-12 (more series terms or a wider disk make them worse, not
    better).  Wider precisions derive stricter settings internally; the
    values here then act only as floors/ceilings in the safe direction.

    Fields
    ------
    precision : PrecisionConfig
        Mantissa width selecting the kernel; 53 means machine doubles.
    abel_tail_terms : int
        Truncation of the Abel tail sum; the backward-branch evaluator
        keeps one term more.  Wider kernels take it from the bit count
        (_ABEL_TIERS) and use this field only as a floor.
    abel_disk_radius : float
        |1 - z/e| below which the Abel series is trusted.  The tail is
        divergent with a practical radius near 0.28, so values much
        above 0.25 lose accuracy fast.  Wider kernels take the smaller
        of this and their tier's radius, for the Abel walks and for F~.
    superexp_re_threshold : float
        |Re| beyond which F~ is solved for on the Abel series; arguments
        closer in are walked out with the functional equation.  A floor
        at every width: each kernel walks out at least until 2/|w| is
        inside its disk radius (_walk_out), 10 at the default radius.
    max_recursion : int
        Cap on either walk.
    """

    precision: PrecisionConfig = PrecisionConfig(mantissa_bits=53)
    abel_tail_terms: int = 15
    abel_disk_radius: float = 0.25
    superexp_re_threshold: float = 10.0
    max_recursion: int = 200

    def __post_init__(self) -> None:
        if self.abel_tail_terms < 1:
            raise ValueError("abel_tail_terms must be positive")
        if not 0 < self.abel_disk_radius < math.inf:
            raise ValueError("abel_disk_radius must be positive and finite")
        if not 0 < self.superexp_re_threshold < math.inf:
            raise ValueError("superexp_re_threshold must be positive and finite")
        if self.max_recursion < 1:
            raise ValueError("max_recursion must be at least 1")


@dataclass(frozen=True)
class CalibrationConstants:
    """Calibrated anchors shared by every evaluator at one precision.

    x1 and x3 are the real abscissas where the minus and plus asymptotic
    branches take the values 1 and 3; a1_norm and a3_norm are abel1(1)
    and abel2(3), subtracted by A1/A3; period_t1 is 2*pi*e*i, the period
    of A1 toward +i*infinity.  `bits` records the mantissa width the
    constants were computed at.
    """

    x1: mpmath.mpf
    x3: mpmath.mpf
    a1_norm: mpmath.mpf
    a3_norm: mpmath.mpf
    period_t1: mpmath.mpc
    bits: int = 192

    def as_decimal_dict(self) -> dict:
        """Full-precision decimal strings, round-trippable via from_decimal_dict."""
        digits = mpmath.libmp.libmpf.prec_to_dps(self.bits) + 3

        def fmt(x) -> str:
            return mpmath.nstr(x, digits)

        return {
            "bits": self.bits,
            "x1": fmt(self.x1),
            "x3": fmt(self.x3),
            "a1_norm": fmt(self.a1_norm),
            "a3_norm": fmt(self.a3_norm),
            "period_t1_imag": fmt(self.period_t1.imag),
        }

    @classmethod
    def from_decimal_dict(cls, d: dict) -> "CalibrationConstants":
        bits = int(d["bits"])
        ctx = mp_context(bits + 32)
        return cls(
            x1=plain(ctx.mpf(d["x1"])),
            x3=plain(ctx.mpf(d["x3"])),
            a1_norm=plain(ctx.mpf(d["a1_norm"])),
            a3_norm=plain(ctx.mpf(d["a3_norm"])),
            period_t1=plain(ctx.mpc(0, ctx.mpf(d["period_t1_imag"]))),
            bits=bits,
        )


# -- series coefficients, shared by both kernels ------------------------

def _prefix_table(build):
    """Memoize build(n) as prefixes of the longest table built so far.

    Term n of either exact table does not depend on the table's length,
    so a request no longer than the longest one built is a slice of it.
    A build replaces the stored table only if it is longer, since a
    thread may have stored a longer one meanwhile.
    """
    longest = ()
    store = threading.Lock()

    @wraps(build)
    def table(n: int) -> tuple:
        nonlocal longest
        known = longest
        if len(known) >= n:
            return known[:n]
        built = build(n)
        with store:
            if len(built) > len(longest):
                longest = built
        return built

    return table


@_prefix_table
def _abel_tail_coeffs(n_terms: int) -> tuple:
    # tail of the Abel series in zeta = 1 - z/e: substituting x = -zeta
    # into the expansion around the fixed point flips the odd terms
    expansion = abel_expansion(exp_minus_one(n_terms + 3), n_terms)
    assert expansion.pole_coefficient == -2
    assert expansion.log_coefficient == Fraction(1, 3)
    return tuple(
        -expansion.tail[n] if n % 2 else expansion.tail[n]
        for n in range(1, n_terms + 1)
    )


class _Tables:
    """Reversed coefficient tables of a kernel, built on first use.

    A kernel supplies `coeff`, its rounding of one exact coefficient
    (a double, held as a complex so that Horner's rule adds complex to
    complex, or for the mpmath kernel the integer round(c * 2^scale) its
    fixed-point sums run on), and the term count.  Not a cached_property:
    writing the instance __dict__ slows every attribute load on the hot
    path.  The calibrated anchors are cast once per constants object,
    which the cache holds, so its identity cannot be reused by another
    object.
    """

    def __init__(self):
        self._tails = self._anchors = None

    def anchors(self, constants: CalibrationConstants) -> tuple:
        """(x1, x3, a1_norm, a3_norm) as this kernel's scalars."""
        cached = self._anchors
        if cached is None or cached[0] is not constants:
            anchors = (constants.x1, constants.x3, constants.a1_norm, constants.a3_norm)
            cached = self._anchors = (constants, tuple(map(self.cast, anchors)))
        return cached[1]

    def tail_rev(self, plus_side: bool) -> tuple:
        if self._tails is None:
            # abel1 sums the first abel_terms coefficients, abel2 one more:
            # the shorter tail is a prefix of the longer
            rev = tuple(
                map(self.coeff, reversed(_abel_tail_coeffs(self.abel_terms + 1)))
            )
            self._tails = (rev[1:], rev)
        return self._tails[plus_side]


# -- precision-derived tuning for the mpmath kernel ----------------------

# (bits ceiling, disk radius, tail terms), and above the last ceiling 96
# terms within the smaller of 8.2/(bits + 10) and 2^-((bits + 148)/97),
# where the first omitted term |c_97| r^97 (|c_97| about 2^143.6) is
# 2^-(bits+4); the second radius takes over from 400 bits.  The
# truncation error of the Abel tail is below 2^-bits in every tier:
# tools/abel_order.py measures it against a longer tail
# (BENCH_abel_order.json), and CI runs its --check
_ABEL_TIERS = (
    (56, 0.25, 20),
    (96, 0.12, 34),
    (128, 0.1, 48),
    (160, 0.06, 48),
    (192, 0.06, 64),
)


# the widest kernel admitted, and the widest width at which
# tools/abel_order.py checks the Abel tiers
_MAX_BITS = 488
# the widest evaluation whose calibration tier (see calibration_tier)
# fits in _MAX_BITS: 432 bits, calibrated at 448
_MAX_EVAL_BITS = _MAX_BITS // 64 * 64 - 16


def _abel_tier(bits: int) -> tuple:
    for cap, radius, terms in _ABEL_TIERS:
        if bits <= cap:
            return radius, terms
    return min(8.2 / (bits + 10), 2.0 ** -((bits + 148) / 97)), 96


def _walk_out(radius: float) -> float:
    """|Re z| past which the inverted Abel series is summed inside its disk.

    F~(z) = e(1 - 2/w), where w - log(+-w)/3 + tail(2/w) = z, so
    |w| >= |Re z| - |log(+-w)|/3 - |tail|; one unit over log(2/radius)/3
    covers the imaginary part of the log and the tail, and |2/w| stays
    below the radius.
    """
    return float(math.ceil(2 / radius + math.log(2 / radius) / 3 + 1))


class _DoubleKernel(_Tables):
    """Machine-double evaluation: plain complex arithmetic, no guards
    beyond over/underflow handling in the exponential step."""

    bits = 53
    tol = 0.0

    def __init__(self, ctx: EvalContext):
        super().__init__()
        self.abel_radius = ctx.abel_disk_radius
        self.abel_terms = ctx.abel_tail_terms
        self.abel_cap = ctx.max_recursion
        self.threshold = max(ctx.superexp_re_threshold, _walk_out(self.abel_radius))
        self.walk_cap = ctx.max_recursion

    def coeff(self, c: Fraction) -> complex:
        # z + c rounds as z + float(c) does, minus the mixed-type add
        return complex(float(c))

    def e(self) -> float:
        return _E

    def cast(self, z: Scalar) -> complex:
        return complex(z)

    def walk_length(self, gap) -> int:
        # smallest k >= 0 putting the argument strictly past the threshold
        if gap < 0:
            return 0
        return int(math.floor(float(gap))) + 1

    def exp_step(self, w: complex, idx: int):
        """One guarded step w -> e^(w/e); returns (value, steps consumed)."""
        x = w.real / _E
        if x < -745.0:
            # e^x underflows every double: the orbit lands at exactly 0
            return 0j, 1
        if x <= 700.0:
            return cmath.exp(w / _E), 1
        y = w.imag / _E
        if abs(y) > 3.5e13:
            raise NonConvergenceError(
                "phase of an overflowing exponential step is not"
                " resolvable in doubles"
            )
        if math.cos(y) < -0.05:
            # the unrepresentable value has a hugely negative real part,
            # so the step after it collapses to 0: consume both
            return 0j, 2
        raise OrbitOverflowError("e^(z/e) overflows the double range", index=idx)

    def log_step(self, w: complex, idx: int, side) -> complex:
        if w.imag == 0.0 and w.real < 0.0:
            if side is None:
                raise BranchCutError(
                    "value lies on the logarithm cut; declare cut_side"
                )
            w = complex(w.real, 0.0)  # upper-side limit; -0.0 would flip it
        return _E * cmath.log(w)

    def abel_walk(self, w: complex, plus_side: bool, side) -> tuple:
        """w walked into the Abel disk: (w, steps, zeta), zeta = 1 - w/e.

        The plain steps run inline; exp_step and log_step take the
        guarded ones (past -745 or 700, on the negative real axis).
        """
        radius, cap = self.abel_radius, self.abel_cap
        exp, log = cmath.exp, cmath.log
        k, zeta = 0, 1 - w / _E
        while abs(zeta) >= radius:
            if k >= cap:
                _missed_disk(cap, zeta)
            if not plus_side:
                if -745.0 <= w.real / _E <= 700.0:
                    w, k = exp(w / _E), k + 1
                else:
                    w, advanced = self.exp_step(w, k + 1)
                    k += advanced
            elif w.imag or w.real > 0.0:
                w, k = _E * log(w), k + 1
            elif w == 0:
                raise BranchCutError("backward orbit hit the logarithm singularity at 0")
            else:
                w, k = self.log_step(w, k + 1, side), k + 1
            zeta = 1 - w / _E
        return w, k, zeta

    def abel_series(self, zeta: complex, plus_side: bool, side):
        arg = -zeta if plus_side else zeta
        if arg.imag == 0.0 and arg.real < 0.0:
            if side is None:
                raise BranchCutError(
                    "Abel expansion lands on its logarithm cut; declare cut_side"
                )
            # Im(zeta) = -Im(z)/e, so the upper-side limit in z is the
            # lower side for a log on zeta and the upper for one on -zeta
            logpart = complex(
                math.log(-arg.real), math.pi if plus_side else -math.pi
            )
        else:
            logpart = cmath.log(arg)
        acc = 0j
        for c in self.tail_rev(plus_side):
            acc = acc * zeta + c
        return logpart / 3.0 + 2.0 / zeta + acc * zeta, 0.0

    def ftilde_series(self, z: complex, branch: BranchSign):
        """F~ = e(1 - 2/w) at a base point, w - log(+-w)/3 + tail(2/w) = z.

        Newton's method from w = z + log(+-z)/3, at most 4 steps, until
        a step is below 1e-9 |w|: the error then is about its square.
        g'(w) = 1 - zeta/6 - (zeta^2/2) tail'(zeta) at zeta = 2/w, with
        tail(zeta) = zeta t(zeta) and t' summed beside t.
        """
        plus = branch is BranchSign.plus
        coeffs, log = self.tail_rev(plus), cmath.log
        w = z + (log(-z) if plus else log(z)) / 3.0
        for _ in range(4):
            zeta = 2.0 / w
            t = dt = 0j
            for c in coeffs:
                dt = dt * zeta + t
                t = t * zeta + c
            g = w - (log(-w) if plus else log(w)) / 3.0 + zeta * t - z
            step = g / (1.0 - zeta / 6.0 - 0.5 * zeta * zeta * (t + zeta * dt))
            w -= step
            if abs(step) < 1e-9 * abs(w):
                break
        return _E * (1.0 - 2.0 / w), 0.0


# fraction bits of the fixed-point series sums above the work bits
_SCALE_GUARD = 16


class _MPKernel(_Tables):
    """mpmath evaluation up to _MAX_BITS, tuning derived from the bit count.

    The walks step on values of the kernel's own context `mp` at the
    work bits (bits + 32).  Threads share a kernel, so it calls only
    functions that leave that context's precision alone.  The Abel
    series is summed by Horner's rule on integers scaled by 2^scale, and
    F~ solved for on them: the argument is converted once per call, and
    a real argument returns an mpf.
    """

    def __init__(self, ctx: EvalContext):
        super().__init__()
        self.bits = ctx.precision.mantissa_bits
        # an evaluation from _MAX_EVAL_BITS + 1 up fails here too, at once,
        # when its calibration tier builds a kernel
        if self.bits > _MAX_BITS:
            raise DomainError(
                f"{self.bits} bits is out of range for the mpmath kernel (up"
                f" to {_MAX_BITS} bits); evaluations, calibrated at least 16"
                f" bits wider, work up to {_MAX_EVAL_BITS} bits"
            )
        self._workbits = self.bits + 32
        self.mp = new_mp_context(self._workbits)
        self.scale = self._workbits + _SCALE_GUARD
        radius, terms = _abel_tier(self.bits)
        self.abel_radius = min(ctx.abel_disk_radius, radius)
        self.abel_terms = max(ctx.abel_tail_terms, terms)
        self.threshold = max(ctx.superexp_re_threshold, _walk_out(self.abel_radius))
        self._plans = None
        # the walks must be allowed to reach their own tuning targets
        self.abel_cap = max(ctx.max_recursion, int(3.0 / self.abel_radius) + 64)
        self.walk_cap = max(ctx.max_recursion, int(self.threshold) + 64)
        self.bump = max(8, int(self.threshold) // 8)
        self.tol = self.mp.mpf(2) ** (4 - self.bits)

    def coeff(self, c: Fraction) -> int:
        # the series sums run on integers scaled by 2^scale
        return round(c * (1 << self.scale))

    def _unfix(self, m: int):
        # a scaled integer back to an mpf at the work bits
        return self.mp.make_mpf(from_man_exp(m, -self.scale, self._workbits, "n"))

    def _unfix_pair(self, re: int, im: int):
        return self.mp.mpc(self._unfix(re), self._unfix(im))

    def e(self):
        return +self.mp.e

    def cast(self, z: Scalar):
        ctx = self.mp
        if isinstance(z, complex):
            return ctx.mpc(z) if z.imag else ctx.mpf(z.real)
        x = mp_convert(ctx, z)
        if isinstance(x, ctx.mpc) and x.imag == 0:
            return x.real
        return x

    def walk_length(self, gap) -> int:
        if gap < 0:
            return 0
        return int(self.mp.floor(gap)) + 1

    def exp_step(self, w, idx: int):
        ctx = self.mp
        e = +ctx.e
        if ctx.re(w) / e > 1e8:
            raise OrbitOverflowError(
                "e^(z/e) escape threshold exceeded", index=idx
            )
        return ctx.exp(w / e), 1

    def log_step(self, w, idx: int, side):
        ctx = self.mp
        if ctx.im(w) == 0:
            re = ctx.re(w)
            if re < 0:
                if side is None:
                    raise BranchCutError(
                        "value lies on the logarithm cut; declare cut_side"
                    )
                w = ctx.mpc(re, 0)  # upper-side limit
        return ctx.e * ctx.log(w)

    def abel_walk(self, w, plus_side: bool, side, k: int = 0, steps=None):
        """w walked from step k into the Abel disk, or `steps` steps
        deeper (fewer if the cap comes first): (w, k, zeta)."""
        e, cap = self.e(), self.abel_cap
        end = cap if steps is None else min(k + steps, cap)
        zeta = 1 - w / e
        while (abs(zeta) >= self.abel_radius) if steps is None else (k < end):
            if k >= cap:
                _missed_disk(cap, zeta)
            if plus_side and w == 0:
                raise BranchCutError("backward orbit hit the logarithm singularity at 0")
            w = self.log_step(w, k + 1, side) if plus_side else self.exp_step(w, k + 1)[0]
            k, zeta = k + 1, 1 - w / e
        return w, k, zeta

    def abel_series(self, zeta, plus_side: bool, side):
        ctx = self.mp
        arg = -zeta if plus_side else zeta
        logpart = None
        if ctx.im(arg) == 0:
            re = ctx.re(arg)
            if re < 0:
                if side is None:
                    raise BranchCutError(
                        "Abel expansion lands on its logarithm cut;"
                        " declare cut_side"
                    )
                # zeta flips the half-plane of z; see the double kernel
                logpart = ctx.mpc(ctx.log(-re), ctx.pi if plus_side else -ctx.pi)
        if logpart is None:
            logpart = ctx.log(arg)
        # the tail is zeta times a Horner sum: a trailing zero coefficient
        # (a real zeta keeps a zero imaginary part throughout)
        coeffs, S = self.tail_rev(plus_side), self.scale
        tr, ti = fixed.horner_complex(coeffs + (0,), *fixed.pair(zeta, S), S)
        real = isinstance(zeta, ctx.mpf)
        tail = self._unfix(tr) if real else self._unfix_pair(tr, ti)
        last = self._unfix(abs(coeffs[0])) * abs(zeta) ** len(coeffs)
        return logpart / 3 + 2 / zeta + tail, last

    def ftilde_series(self, z, branch: BranchSign):
        """F~ = e(1 - zeta) at a base point, where alpha(zeta) = z + ln(2)/3.

        Solved for w = 2/zeta on scaled integers (fixed.invert_abel); the
        tail estimate is the Abel tail's last term at that zeta, carried
        to F~ by dF/dalpha = e zeta^2/2.
        """
        plus = branch is BranchSign.plus
        if self._plans is None:
            self._plans = tuple(
                fixed.newton_plan(self.tail_rev(side), self.scale, self.abel_radius)
                for side in (False, True)
            )
        wr, wi = fixed.invert_abel(*fixed.pair(z, self.scale), self._plans[plus], plus)
        ctx = self.mp
        w = self._unfix(wr) if isinstance(z, ctx.mpf) else self._unfix_pair(wr, wi)
        zeta = 2 / w
        e = +ctx.e
        tail = self.tail_rev(plus)
        last = self._unfix(abs(tail[0])) * abs(zeta) ** (len(tail) + 2) * e / 2
        return e * (1 - zeta), last


@lru_cache(maxsize=32)
def _kernel(ctx: EvalContext):
    if ctx.precision.mantissa_bits == 53:
        return _DoubleKernel(ctx)
    return _MPKernel(ctx)


# one default object, shared with iteration, so the evaluators find its
# kernel by identity
_DEFAULT_CTX = EvalContext()
_last_kernel = (None, None)


def _kernel_of(ctx: EvalContext | None):
    # a sweep passes one context object to every cell: match it by
    # identity before hashing the frozen context through _kernel's cache;
    # the pair is swapped whole, so a racing thread keeps its own kernel
    global _last_kernel
    ctx = ctx or _DEFAULT_CTX
    last = _last_kernel
    if last[0] is not ctx:
        last = _last_kernel = (ctx, _kernel(ctx))
    return last[1]


# -- walk drivers, kernel-generic ----------------------------------------

def _missed_disk(cap: int, zeta):
    raise NonConvergenceError(
        f"argument did not reach the expansion disk within {cap} steps",
        residual=float(abs(zeta)),
    )


def _abel_walk(kernel, z, plus_side: bool, side, norm=None):
    # norm, when given, is subtracted from the result
    w = kernel.cast(z)
    if not plus_side and w.imag == 0 and w.real > kernel.e():
        # the forward orbit escapes along the whole ray right of the
        # fixed point; mark the cut instead of walking into overflow.
        # The sided limit is abel2 rotated by pi/3, which exp_iterate
        # applies when a cut side is declared.
        raise BranchCutError(
            "z lies on the cut [e, inf) of the forward Abel function"
        )
    w, k, zeta = kernel.abel_walk(w, plus_side, side)
    for retry in range(4):
        if retry:
            # tail not yet below target: walk deeper into the disk and resum
            w, k, zeta = kernel.abel_walk(w, plus_side, side, k, 16)
        if zeta == 0:
            raise DomainError("branch point: the orbit landed exactly on e")
        value, last = kernel.abel_series(zeta, plus_side, side)
        if not last > kernel.tol * (1 + abs(value)):
            value = value + k if plus_side else value - k
            return value if norm is None else value - norm
    raise NonConvergenceError(
        "Abel tail above the target accuracy after three retries",
        residual=float(last),
    )


class _Failure:
    """A failed walk step, kept as its class and arguments.

    A memoized walk raises a fresh error for each cell that needs the
    step.  A stored exception object would collect the traceback of every
    raise, and those frames hold the memo: a reference cycle per sweep.
    """

    __slots__ = ("cls", "args", "attrs")

    def __init__(self, exc: Exception):
        self.cls, self.args, self.attrs = type(exc), exc.args, dict(vars(exc))

    def error(self) -> Exception:
        err = self.cls(*self.args)
        err.__dict__.update(self.attrs)
        return err


def _walk_chain(kernel, chain: list, k: int, minus: bool, side):
    """The walk's value after k steps from the base point of `chain`.

    chain[j] is the value after j steps (chain[0] is F~ at the base),
    extended here as far as k needs.  A step that raised is stored as a
    _Failure: at the end of the chain it fails every later step too; in
    the middle it is an exponential step's unrepresentable intermediate
    value, which fails only a walk that ends on it.  The steps and their
    errors are those of the per-cell loop in _ftilde_eval.
    """
    j = len(chain) - 1
    w = chain[j]
    while j < k and not isinstance(w, _Failure):
        if minus:
            if w == 0:
                raise BranchCutError(
                    f"walk hit the singular value 0 after {j} of {k}"
                    " inverse steps"
                )
            try:
                w = kernel.log_step(w, j + 1, side)
            except SuperexpError as exc:
                w = _Failure(exc)
            chain.append(w)
            j += 1
        else:
            try:
                w, advanced = kernel.exp_step(w, j + 1)
            except SuperexpError as exc:
                w, advanced = _Failure(exc), 1
            if advanced == 2:
                chain.append(_Failure(OrbitOverflowError(
                    "forward step overflows at the target index", index=j + 1
                )))
            chain.append(w)
            j += advanced
    w = chain[min(k, len(chain) - 1)]
    if isinstance(w, _Failure):
        raise w.error()
    return w


def _ftilde_eval(kernel, z, branch: BranchSign, side, shift=None, chains=None):
    # shift, when given, is added to the argument.  chains, when given, is
    # one sweep's memo of walks (see _walk_chain) keyed by the exact base
    # point: equal keys are equal bits, since adding the anchor or k turns
    # an imaginary -0.0 into +0.0.  Only a base within one unit past the
    # threshold is memoized, the only ones a walking cell reaches, and
    # only one accepted without retries: a retry sums at w0 + (k + bump),
    # which depends on w0, not on the base.
    w0 = kernel.cast(z) if shift is None else kernel.cast(z) + shift
    if w0 == 0:
        raise DomainError("the asymptotic series is singular at 0")
    minus = branch is BranchSign.minus
    gap = kernel.threshold - w0.real if minus else w0.real + kernel.threshold
    k = kernel.walk_length(gap)
    if k > kernel.walk_cap:
        raise NonConvergenceError(
            f"functional-equation walk needs {k} steps,"
            f" cap is {kernel.walk_cap}"
        )
    base = w0 + k if minus else w0 - k
    shared = chains is not None and gap >= -1
    if shared:
        chain = chains.get(base)
        if chain is not None:
            return _walk_chain(kernel, chain, k, minus, side)
    value, last = kernel.ftilde_series(base, branch)
    if shared and not last > kernel.tol:
        chains[base] = chain = [value]
        return _walk_chain(kernel, chain, k, minus, side)
    retries = 3
    while retries and last > kernel.tol:
        k += kernel.bump
        base = w0 + k if minus else w0 - k
        value, last = kernel.ftilde_series(base, branch)
        retries -= 1
    if last > kernel.tol:
        raise NonConvergenceError(
            "asymptotic tail above the target accuracy after three retries",
            residual=float(last),
        )
    w = value
    if minus:
        for j in range(k):
            if w == 0:
                raise BranchCutError(
                    f"walk hit the singular value 0 after {j} of {k}"
                    " inverse steps"
                )
            w = kernel.log_step(w, j + 1, side)
    else:
        j = 0
        while j < k:
            w, advanced = kernel.exp_step(w, j + 1)
            j += advanced
            if j > k:
                # the requested index falls on the unrepresentable
                # intermediate value
                raise OrbitOverflowError(
                    "forward step overflows at the target index",
                    index=j - advanced + 1,
                )
    return w


# -- cut-side plumbing ----------------------------------------------------

def _resolve_side(z, cut_side):
    # every public evaluator passes its argument through here first
    if cut_side not in ("above", "below", None):
        raise ValueError("cut_side must be 'above', 'below' or None")
    if isinstance(z, (float, complex)):
        finite = cmath.isfinite(z)  # the double hot path; mpmath's is slow
    else:
        finite = mpmath.isfinite(z)
    if not finite:
        raise DomainError(f"argument must be finite, got {z!r}")
    if getattr(z, "imag", 0) != 0:
        return "above", False
    if cut_side == "below":
        # reflection: the lower-side limit of a real-analytic function is
        # the conjugate of the upper-side one
        return "above", True
    return cut_side, False


def _public(value, flip: bool):
    # a walk's result as returned: conjugated for the lower-side limit,
    # and a kernel's mpmath value converted exactly to a plain one
    if isinstance(value, complex):
        return value.conjugate() if flip else value
    return plain(value.conjugate() if flip else value)


def _as_branch(branch) -> BranchSign:
    if isinstance(branch, BranchSign):
        return branch
    try:
        return BranchSign[branch]
    except (KeyError, TypeError):
        raise ValueError(
            f"branch must be 'minus' or 'plus', got {branch!r}"
        ) from None


# -- public evaluators -----------------------------------------------------

def abel1(z: Scalar, ctx: EvalContext | None = None, cut_side="above"):
    """Abel function of e^(z/e) on the bounded side of the fixed point.

    Walks z forward under e^(z/e) until |1 - z/e| is inside the
    expansion disk, sums the series there and subtracts the step count,
    so abel1(e^(z/e)) = abel1(z) + 1.

    Parameters
    ----------
    z : scalar
        Point off the cut [e, +inf) of the real axis.
    ctx : EvalContext, optional
    cut_side : {"above", "below", None}
        Side taken for real arguments whose evaluation touches a
        logarithm cut; None demands side-independence.

    Returns
    -------
    complex or mpmath scalar
        Machine complex at 53 bits, mpmath value otherwise.

    Raises
    ------
    BranchCutError
        z on the cut itself, where the forward orbit cannot converge;
        the sided limits live on the backward estimator (exp_iterate
        applies the rotation when given a cut side).
    NonConvergenceError
        Recursion cap hit (carries the final |1 - z/e| as `residual`), or
        the series tail still above the target accuracy after three
        deeper walks (carries the tail).
    """
    side, flip = _resolve_side(z, cut_side)
    value = _abel_walk(_kernel_of(ctx), z, plus_side=False, side=side)
    return _public(value, flip)


def abel2(z: Scalar, ctx: EvalContext | None = None, cut_side="above"):
    """Abel function of e^(z/e) on the unbounded side of the fixed point.

    Walks z backward under e*log(z) into the expansion disk and adds the
    step count; the tail keeps one term more than abel1 but uses the
    same coefficients, with the opposite sign inside the logarithm.
    Satisfies abel2(e^(z/e)) = abel2(z) + 1 right of the cut (-inf, e].
    """
    side, flip = _resolve_side(z, cut_side)
    value = _abel_walk(_kernel_of(ctx), z, plus_side=True, side=side)
    return _public(value, flip)


def A1(
    z: Scalar,
    ctx: EvalContext | None = None,
    constants: CalibrationConstants | None = None,
    cut_side="above",
):
    """Normalized super-logarithm on the bounded petal: A1(1) = 0.

    A1 is abel1 minus the calibrated abel1(1); it inverts F1 and is
    periodic with period 2*pi*e*i.
    """
    side, flip = _resolve_side(z, cut_side)
    kernel = _kernel_of(ctx)
    norm = kernel.anchors(constants or default_constants(kernel.bits))[2]
    value = _abel_walk(kernel, z, plus_side=False, side=side, norm=norm)
    return _public(value, flip)


def A3(
    z: Scalar,
    ctx: EvalContext | None = None,
    constants: CalibrationConstants | None = None,
    cut_side="above",
):
    """Normalized super-logarithm on the unbounded petal: A3(3) = 0.

    A3 is abel2 minus the calibrated abel2(3); it inverts F3 right of
    the cut (-inf, e].
    """
    side, flip = _resolve_side(z, cut_side)
    kernel = _kernel_of(ctx)
    norm = kernel.anchors(constants or default_constants(kernel.bits))[3]
    value = _abel_walk(kernel, z, plus_side=True, side=side, norm=norm)
    return _public(value, flip)


def superexp_tilde(
    z: Scalar,
    branch,
    ctx: EvalContext | None = None,
    cut_side="above",
):
    """Asymptotic super-exponential on one branch, walked into range.

    F~ is e*(1 - (2/z)(1 + sum_m P_m(t)/(3z)^m)) with t = -log(z) on
    the minus branch and t = -log(-z) on the plus branch; every kernel
    finds it by solving abel(F~(z)) = z + ln(2)/3 on the Abel series
    (abel1's for minus, abel2's for plus).  Arguments
    inside the trusted region are first walked out along the functional
    equation (minus: up then e*log back down; plus: down then e^(./e)
    back up).

    Raises DomainError at z = 0 and OrbitOverflowError when a forward
    step leaves the representable range (the error carries the first
    overflowing step index); NonConvergenceError when the walk exceeds its
    cap, Newton's method does not settle (carrying its last step), or the
    series tail stays above the target accuracy after three longer walks.
    """
    branch = _as_branch(branch)
    side, flip = _resolve_side(z, cut_side)
    value = _ftilde_eval(_kernel_of(ctx), z, branch, side)
    return _public(value, flip)


def F1(
    z: Scalar,
    ctx: EvalContext | None = None,
    constants: CalibrationConstants | None = None,
    cut_side="above",
):
    """Super-exponential fixed by F1(0) = 1, bounded as Re z -> +inf.

    Satisfies F1(z + 1) = e^(F1(z)/e) and approaches e for large |z|
    away from the cut {x real : x <= -2}.  Real arguments on the cut are
    evaluated as the limit from above unless cut_side says otherwise.
    F1 diverges at the integers <= -2; since those points never hit the
    inverse walk's zero exactly in rounded arithmetic, evaluation near
    them returns values that lose accuracy like the logarithm of the
    distance rather than raising.
    """
    side, flip = _resolve_side(z, cut_side)
    kernel = _kernel_of(ctx)
    x1 = kernel.anchors(constants or default_constants(kernel.bits))[0]
    value = _ftilde_eval(kernel, z, BranchSign.minus, side, x1)
    return _public(value, flip)


def F3(
    z: Scalar,
    ctx: EvalContext | None = None,
    constants: CalibrationConstants | None = None,
    cut_side="above",
):
    """Entire super-exponential fixed by F3(0) = 3.

    Satisfies F3(z + 1) = e^(F3(z)/e) and grows without bound along the
    positive real axis; overflow there raises OrbitOverflowError
    carrying the first overflowing step index.
    """
    side, flip = _resolve_side(z, cut_side)
    kernel = _kernel_of(ctx)
    x3 = kernel.anchors(constants or default_constants(kernel.bits))[1]
    value = _ftilde_eval(kernel, z, BranchSign.plus, side, x3)
    return _public(value, flip)


def _sweep(fn: str, ctx: EvalContext, constants: CalibrationConstants, xs: tuple):
    """F1 or F3 for the cells of one grid sweep, sharing walks by base.

    xs are the abscissae of each row.  Returns cell(z, cut_side), which
    gives what fn(z, ctx, constants, cut_side) gives, bit for bit: cells
    a whole number of units apart walk from the same base point, and
    each base is summed and walked once (_walk_chain).  A base's
    imaginary part is Im z plus the anchor's, so no two rows share one,
    and the memo keeps the current row's walks only.  Returns None when
    no two of xs are a whole number of units apart within the longest
    walk: no cell could then read another's.
    """
    kernel = _kernel_of(ctx)
    branch = BranchSign.minus if fn == "F1" else BranchSign.plus
    shift = kernel.anchors(constants)[branch is BranchSign.plus]
    ends = ((kernel.cast(complex(x)) + shift).real for x in (xs[0], xs[-1]))
    gaps = [kernel.threshold - r if fn == "F1" else r + kernel.threshold for r in ends]
    reach = min(max(map(kernel.walk_length, gaps)), kernel.walk_cap)
    # the tolerance only decides whether to memoize: a miss sums again
    spans = (x - xs[0] for x in xs[1:])
    if not any(1 <= round(d) <= reach and abs(d - round(d)) < 1e-9 for d in spans):
        return None
    chains: dict = {}
    row = None

    def cell(z, cut_side):
        nonlocal row
        if z.imag != row:
            chains.clear()
            row = z.imag
        side, flip = _resolve_side(z, cut_side)
        value = _ftilde_eval(kernel, z, branch, side, shift, chains)
        return _public(value, flip)

    return cell


# -- calibration ------------------------------------------------------------

def calibrate(ctx: EvalContext | None = None) -> CalibrationConstants:
    """Compute all calibration constants at (at least) 192 bits.

    Walks abel1 from 1 and abel2 from 3 for the two normalization
    values.  F~ is built as the inverse of the Abel function shifted by
    ln(2)/3, so its anchors F~(x1) = 1 (minus branch) and F~(x3) = 3
    (plus branch) follow by that identity: x1 = a1_norm - ln(2)/3 and
    x3 = a3_norm - ln(2)/3.  The period 2*pi*e*i needs no walk.

    Parameters
    ----------
    ctx : EvalContext, optional
        Its precision is raised to 192 bits if lower; other tuning
        fields pass through as floors.

    Raises
    ------
    DomainError
        A width the mpmath kernel refuses.
    NonConvergenceError
        An Abel walk that misses its disk or its tail tolerance.
    """
    if ctx is None:
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=192))
    bits = max(192, ctx.precision.mantissa_bits)
    if bits != ctx.precision.mantissa_bits:
        ctx = dataclasses.replace(
            ctx,
            precision=dataclasses.replace(ctx.precision, mantissa_bits=bits),
        )
    kernel = _MPKernel(ctx)
    wide = kernel.mp  # at bits + 32
    a1 = _abel_walk(kernel, 1, plus_side=False, side="above")
    a3 = _abel_walk(kernel, 3, plus_side=True, side="above")
    shift = wide.log(2) / 3
    x1, x3 = a1 - shift, a3 - shift
    period = wide.mpc(0, 2 * wide.pi * wide.e)
    return CalibrationConstants(
        x1=plain(x1, bits),
        x3=plain(x3, bits),
        a1_norm=plain(a1, bits),
        a3_norm=plain(a3, bits),
        period_t1=plain(period, bits),
        bits=bits,
    )


_DEFAULT_CONSTANTS: dict = {}


def calibration_tier(bits: int) -> int:
    """Calibration precision serving evaluation at `bits`.

    16 guard bits over the evaluation width, rounded up to a multiple
    of 64 and never below 192.  From 433 bits (_MAX_EVAL_BITS + 1) the
    tier is wider than the mpmath kernel reaches, and calibrating at it
    raises DomainError.
    """
    needed = max(192, bits + 16)
    return -(-needed // 64) * 64


def default_constants(bits: int = 53) -> CalibrationConstants:
    """Calibration constants adequate for evaluating at `bits`.

    Calibrated once per `calibration_tier` and memoized for the process.
    """
    needed = calibration_tier(bits)
    if needed not in _DEFAULT_CONSTANTS:
        cctx = EvalContext(precision=PrecisionConfig(mantissa_bits=needed))
        _DEFAULT_CONSTANTS[needed] = calibrate(cctx)
    return _DEFAULT_CONSTANTS[needed]
