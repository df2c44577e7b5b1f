"""Evaluators for the super-exponentials F1, F3 and super-logarithms A1, A3.

Everything is driven by two expansions around the parabolic fixed point
z = e of z -> e^(z/e):

- an Abel-function series in zeta = 1 - z/e, valid in a small disk once
  the argument has been walked near the fixed point (abel1 walks forward
  with e^(z/e), abel2 walks backward with e*log z);
- an asymptotic series in 1/z with polynomial coefficients in log(+-z),
  valid far out on either real end (superexp_tilde walks the functional
  equation until its argument is far enough out).

Two kernels share these drivers.  A 53-bit context runs on machine
doubles, the hot path for grids; it uses the EvalContext tuning fields
as given.  Wider contexts run on mpmath and derive their own tuning from
the bit count, treating the context fields as one-sided limits (term
counts only go up, the disk radius only goes down, the walk-out
threshold only moves out), so a context tightened by hand is never
silently loosened.  The wider kernel walks on mpmath values but sums
both series on Python integers scaled by 2^scale, 16 bits above its work
bits: at 256 bits the asymptotic sum takes 0.7 ms instead of 4.4 ms, so
the walk's logarithm steps are now most of an evaluation.

Real arguments on a cut are evaluated as directional limits: `cut_side`
picks the side ("above" everywhere by default), and None demands a
side-independent value, raising BranchCutError where there is none.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, to_fixed

from .errors import (
    BranchCutError,
    DomainError,
    NonConvergenceError,
    OrbitOverflowError,
)
from .limits import PrecisionConfig, Scalar
from .series import abel_expansion, exp_minus_one, superexp_polynomials

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
        keeps one term more.
    superexp_terms : int
        Number of log-polynomials in the asymptotic sum.  The double
        kernel sums exactly this many; wider kernels take the order from
        the bit count (28 through 192 bits, 44 above, see
        _SUPEREXP_TIERS) and use this field only as a floor.
    abel_disk_radius : float
        |1 - z/e| below which the Abel series is trusted.  The tail is
        divergent with a practical radius near 0.28, so values much
        above 0.25 lose accuracy fast.
    superexp_re_threshold : float
        |Re| beyond which the asymptotic sum is trusted; arguments
        closer in are walked out with the functional equation.
    max_recursion : int
        Cap on either walk.
    """

    precision: PrecisionConfig = PrecisionConfig(mantissa_bits=53)
    abel_tail_terms: int = 15
    superexp_terms: int = 16
    abel_disk_radius: float = 0.25
    superexp_re_threshold: float = 13.0
    max_recursion: int = 200

    def __post_init__(self) -> None:
        if self.abel_tail_terms < 1:
            raise ValueError("abel_tail_terms must be positive")
        if self.superexp_terms < 1:
            raise ValueError("superexp_terms must be positive")
        if not self.abel_disk_radius > 0:
            raise ValueError("abel_disk_radius must be positive")
        if not self.superexp_re_threshold > 0:
            raise ValueError("superexp_re_threshold must be positive")
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
        with mp.workprec(bits + 32):
            return cls(
                x1=mpmath.mpf(d["x1"]),
                x3=mpmath.mpf(d["x3"]),
                a1_norm=mpmath.mpf(d["a1_norm"]),
                a3_norm=mpmath.mpf(d["a3_norm"]),
                period_t1=mpmath.mpc(0, mpmath.mpf(d["period_t1_imag"])),
                bits=bits,
            )


# -- series coefficients, shared by both kernels ------------------------

def _prefix_table(build):
    """Memoize build(n) as prefixes of the longest table built so far.

    Term n of either exact table does not depend on the table's length,
    so a request no longer than the longest one built is a slice of it.
    """
    longest = ()

    @wraps(build)
    def table(n: int) -> tuple:
        nonlocal longest
        if len(longest) < n:
            longest = build(n)
        return longest[:n]

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


@_prefix_table
def _ftilde_polys(m_terms: int) -> tuple:
    return tuple(p.coefficients for p in superexp_polynomials(m_terms).polynomials)


class _Tables:
    """Reversed coefficient tables of a kernel, built on first use.

    A kernel supplies `coeff`, its rounding of one exact coefficient
    (a double, held as a complex so that Horner's rule adds complex to
    complex, or for the mpmath kernel the integer round(c * 2^scale) its
    fixed-point sums run on), and the term counts; the Abel walks never
    build the P_m and the asymptotic sum never builds the Abel tail.
    Not a cached_property: writing the instance __dict__ slows every
    attribute load on the hot path.  The calibrated anchors are cast
    once per constants object, which the cache holds, so its identity
    cannot be reused by another object.
    """

    def __init__(self):
        self._tails = self._polys = self._anchors = None

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

    def polys_rev(self) -> tuple:
        if self._polys is None:
            self._polys = tuple(
                tuple(map(self.coeff, reversed(p)))
                for p in reversed(_ftilde_polys(self.m_terms))
            )
        return self._polys


# -- precision-derived tuning for the mpmath kernel ----------------------

# (bits ceiling, disk radius, tail terms); measured frontiers where the
# truncation error of the Abel tail drops below 2^-bits
_ABEL_TIERS = (
    (56, 0.25, 20),
    (96, 0.12, 34),
    (128, 0.1, 48),
    (160, 0.06, 48),
    (192, 0.06, 64),
)


# the widest kernel whose Abel tail (96 terms past 192 bits) reaches its
# tolerance: calibrate() works at 488 bits and fails from 489
_MAX_BITS = 488
# the widest evaluation whose calibration tier (see calibration_tier)
# fits in _MAX_BITS: 432 bits, calibrated at 448
_MAX_EVAL_BITS = _MAX_BITS // 64 * 64 - 16


def _abel_tier(bits: int) -> tuple:
    for cap, radius, terms in _ABEL_TIERS:
        if bits <= cap:
            return radius, terms
    return 8.2 / (bits + 10), 96


# (bits ceiling, terms M, tail constant C_M): past Re z = x the last term
# |P_M(t)|/|3z|^M of the asymptotic sum stays below C_M ((M+2)/x)^(M+2),
# fitted to the frontiers that tools/superexp_order.py measures.  The
# 28-term constant predates that script and keeps the thresholds through
# 192 bits (41 at 128, 180 at 192) inside the measured frontier; the tail
# there is still at least 7 bits under the retry tolerance.
_SUPEREXP_TIERS = (
    (192, 28, 7.9e-39),
    (math.inf, 44, 6.2e-55),
)


def _superexp_tier(bits: int) -> tuple:
    """Term count, and the modelled walk-out distance at which the tail
    of that many terms reaches 2^-(bits+12)."""
    for cap, terms, constant in _SUPEREXP_TIERS:
        if bits <= cap:
            break
    p = terms + 2
    t = p * constant ** (1.0 / p) * 2.0 ** ((bits + 12) / p)
    return terms, max(16.0, float(math.ceil(t)))


class _DoubleKernel(_Tables):
    """Machine-double evaluation: plain complex arithmetic, no guards
    beyond over/underflow handling in the exponential step."""

    bits = 53
    tripwire = False
    tol = 0.0
    _null = contextlib.nullcontext()

    def __init__(self, ctx: EvalContext):
        super().__init__()
        self.abel_radius = ctx.abel_disk_radius
        self.abel_terms = ctx.abel_tail_terms
        self.abel_cap = ctx.max_recursion
        self.threshold = ctx.superexp_re_threshold
        self.m_terms = ctx.superexp_terms
        self.walk_cap = ctx.max_recursion
        self.bump = 0

    def coeff(self, c: Fraction) -> complex:
        # z + c rounds as z + float(c) does, minus the mixed-type add
        return complex(float(c))

    def guard(self):
        return self._null

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
        # e (1 - (2/z)(1 + sum_m P_m(t) (3z)^-m)); the log sign is the branch
        t = -cmath.log(z if branch is BranchSign.minus else -z)
        w = 1.0 / (3.0 * z)
        s = 0j
        for coeffs in self.polys_rev():
            pv = 0j
            for c in coeffs:
                pv = pv * t + c
            s = (s + pv) * w
        return _E * (1.0 - (2.0 / z) * (1.0 + s)), 0.0


# fraction bits of the fixed-point series sums above the work bits
_SCALE_GUARD = 16


def _fixed_pair(x, scale: int) -> tuple:
    # (re, im) of an mpf or mpc as integers scaled by 2^scale
    if isinstance(x, mpmath.mpf):
        return to_fixed(x._mpf_, scale), 0
    return tuple(to_fixed(part, scale) for part in x._mpc_)


def _horner(coeffs, x: int, scale: int) -> int:
    # integer coefficients, highest power first, at a real point
    acc = 0
    for c in coeffs:
        acc = (acc * x >> scale) + c
    return acc


def _horner_complex(coeffs, xr: int, xi: int, scale: int) -> tuple:
    # integer coefficients, highest power first, at a complex point
    ar = ai = 0
    for c in coeffs:
        ar, ai = ((ar * xr - ai * xi) >> scale) + c, (ar * xi + ai * xr) >> scale
    return ar, ai


class _MPKernel(_Tables):
    """mpmath evaluation up to _MAX_BITS, tuning derived from the bit count.

    The walks step on mpmath values at the work bits (bits + 32).  The
    two series are summed by Horner's rule on integers scaled by
    2^scale: the argument is converted once per call, and a real
    argument keeps to a real loop and returns an mpf.
    """

    tripwire = True

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
        self.scale = self._workbits + _SCALE_GUARD
        radius, terms = _abel_tier(self.bits)
        self.abel_radius = min(ctx.abel_disk_radius, radius)
        self.abel_terms = max(ctx.abel_tail_terms, terms)
        terms, threshold = _superexp_tier(self.bits)
        self.threshold = max(ctx.superexp_re_threshold, threshold)
        self.m_terms = max(ctx.superexp_terms, terms)
        # the walks must be allowed to reach their own tuning targets
        self.abel_cap = max(ctx.max_recursion, int(3.0 / self.abel_radius) + 64)
        self.walk_cap = max(ctx.max_recursion, int(self.threshold) + 64)
        self.bump = max(8, int(self.threshold) // 8)
        self.tol = mpmath.mpf(2) ** (4 - self.bits)

    def coeff(self, c: Fraction) -> int:
        # the series sums run on integers scaled by 2^scale
        return round(c * (1 << self.scale))

    def _unfix(self, m: int):
        # a scaled integer back to an mpf at the work bits
        return mp.make_mpf(from_man_exp(m, -self.scale, self._workbits, "n"))

    def _unfix_pair(self, re: int, im: int):
        return mpmath.mpc(self._unfix(re), self._unfix(im))

    def guard(self):
        return mp.workprec(self._workbits)

    def e(self):
        return +mpmath.e

    def cast(self, z: Scalar):
        if isinstance(z, complex):
            return mpmath.mpc(z) if z.imag else mpmath.mpf(z.real)
        x = mpmath.mpmathify(z)
        if isinstance(x, mpmath.mpc) and x.imag == 0:
            return x.real
        return x

    def walk_length(self, gap) -> int:
        if gap < 0:
            return 0
        return int(mpmath.floor(gap)) + 1

    def exp_step(self, w, idx: int):
        e = +mpmath.e
        if mpmath.re(w) / e > 1e8:
            raise OrbitOverflowError(
                "e^(z/e) escape threshold exceeded", index=idx
            )
        return mpmath.exp(w / e), 1

    def log_step(self, w, idx: int, side):
        if mpmath.im(w) == 0:
            re = mpmath.re(w)
            if re < 0:
                if side is None:
                    raise BranchCutError(
                        "value lies on the logarithm cut; declare cut_side"
                    )
                w = mpmath.mpc(re, 0)  # upper-side limit
        return mpmath.e * mpmath.log(w)

    def abel_series(self, zeta, plus_side: bool, side):
        arg = -zeta if plus_side else zeta
        logpart = None
        if mpmath.im(arg) == 0:
            re = mpmath.re(arg)
            if re < 0:
                if side is None:
                    raise BranchCutError(
                        "Abel expansion lands on its logarithm cut;"
                        " declare cut_side"
                    )
                # zeta flips the half-plane of z; see the double kernel
                logpart = mpmath.mpc(
                    mpmath.log(-re), mpmath.pi if plus_side else -mpmath.pi
                )
        if logpart is None:
            logpart = mpmath.log(arg)
        # the tail is zeta times a Horner sum: a trailing zero coefficient
        coeffs = self.tail_rev(plus_side)
        S = self.scale
        if isinstance(zeta, mpmath.mpf):
            tail = self._unfix(_horner(coeffs + (0,), to_fixed(zeta._mpf_, S), S))
        else:
            tail = self._unfix_pair(
                *_horner_complex(coeffs + (0,), *_fixed_pair(zeta, S), S)
            )
        last = self._unfix(abs(coeffs[0])) * abs(zeta) ** len(coeffs)
        return logpart / 3 + 2 / zeta + tail, last

    def ftilde_series(self, z, branch: BranchSign):
        # s = sum_m P_m(t) w^m, highest m first; P_M(t) w^M is the tail
        t = -mpmath.log(z if branch is BranchSign.minus else -z)
        w = 1 / (3 * z)
        S = self.scale
        if isinstance(t, mpmath.mpf):  # then z, and so w, is real too
            tr, wr = to_fixed(t._mpf_, S), to_fixed(w._mpf_, S)
            pvs = [_horner(coeffs, tr, S) for coeffs in self.polys_rev()]
            top = self._unfix(pvs[0])
            s = self._unfix(_horner(pvs + [0], wr, S))
        else:
            (tr, ti), (wr, wi) = _fixed_pair(t, S), _fixed_pair(w, S)
            pvs = [_horner_complex(coeffs, tr, ti, S) for coeffs in self.polys_rev()]
            top = self._unfix_pair(*pvs[0])
            sr = si = 0
            for pr, pi in pvs:
                pr, pi = pr + sr, pi + si
                sr, si = (pr * wr - pi * wi) >> S, (pr * wi + pi * wr) >> S
            s = self._unfix_pair(sr, si)
        last = abs(top) * abs(w) ** self.m_terms
        return mpmath.e * (1 - (2 / z) * (1 + s)), last


@lru_cache(maxsize=32)
def _kernel(ctx: EvalContext):
    if ctx.precision.mantissa_bits == 53:
        return _DoubleKernel(ctx)
    return _MPKernel(ctx)


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

def _abel_step(kernel, w, k: int, plus_side: bool, side) -> tuple:
    if plus_side:
        if w == 0:
            raise BranchCutError("backward orbit hit the logarithm singularity at 0")
        return kernel.log_step(w, k + 1, side), k + 1
    nw, advanced = kernel.exp_step(w, k + 1)
    return nw, k + advanced


def _abel_walk(kernel, z, plus_side: bool, side, norm=None):
    # norm, when given, is subtracted from the result inside the guard
    with kernel.guard():
        e = kernel.e()
        w = kernel.cast(z)
        if not plus_side and w.imag == 0 and w.real > e:
            # the forward orbit escapes along the whole ray right of the
            # fixed point; mark the cut instead of walking into overflow.
            # The sided limit is abel2 rotated by pi/3, which exp_iterate
            # applies when a cut side is declared.
            raise BranchCutError(
                "z lies on the cut [e, inf) of the forward Abel function"
            )
        k = 0
        radius, cap = kernel.abel_radius, kernel.abel_cap
        zeta = 1 - w / e
        while abs(zeta) >= radius:
            if k >= cap:
                raise NonConvergenceError(
                    f"argument did not reach the expansion disk within {cap} steps",
                    residual=float(abs(zeta)),
                )
            w, k = _abel_step(kernel, w, k, plus_side, side)
            zeta = 1 - w / e
        if zeta == 0:
            raise DomainError("branch point: the orbit landed exactly on e")
        value, last = kernel.abel_series(zeta, plus_side, side)
        retries = 3 if kernel.tripwire else 0
        while retries and last > kernel.tol * (1 + abs(value)):
            # tail not yet below target: walk deeper into the disk and resum
            for _ in range(16):
                if k >= cap:
                    break
                w, k = _abel_step(kernel, w, k, plus_side, side)
            zeta = 1 - w / e
            if zeta == 0:
                raise DomainError("branch point: the orbit landed exactly on e")
            value, last = kernel.abel_series(zeta, plus_side, side)
            retries -= 1
        if last > kernel.tol * (1 + abs(value)):
            raise NonConvergenceError(
                "Abel tail above the target accuracy after three retries",
                residual=float(last),
            )
        value = value + k if plus_side else value - k
        return value if norm is None else value - norm


def _ftilde_eval(kernel, z, branch: BranchSign, side, shift=None):
    # shift, when given, is added to the argument inside the guard
    with kernel.guard():
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
        value, last = kernel.ftilde_series(base, branch)
        retries = 3 if kernel.tripwire else 0
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


def _conj(value):
    if isinstance(value, complex):
        return value.conjugate()
    return mpmath.conj(value)


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
    return _conj(value) if flip else value


def abel2(z: Scalar, ctx: EvalContext | None = None, cut_side="above"):
    """Abel function of e^(z/e) on the unbounded side of the fixed point.

    Walks z backward under e*log(z) into the expansion disk and adds the
    step count; the tail keeps one term more than abel1 but uses the
    same coefficients, with the opposite sign inside the logarithm.
    Satisfies abel2(e^(z/e)) = abel2(z) + 1 right of the cut (-inf, e].
    """
    side, flip = _resolve_side(z, cut_side)
    value = _abel_walk(_kernel_of(ctx), z, plus_side=True, side=side)
    return _conj(value) if flip else value


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
    return _conj(value) if flip else value


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
    return _conj(value) if flip else value


def superexp_tilde(
    z: Scalar,
    branch,
    ctx: EvalContext | None = None,
    cut_side="above",
):
    """Asymptotic super-exponential on one branch, walked into range.

    Evaluates e*(1 - (2/z)(1 + sum_m P_m(t)/(3z)^m)) with t = -log(z) on
    the minus branch and t = -log(-z) on the plus branch.  Arguments
    inside the trusted region are first walked out along the functional
    equation (minus: up then e*log back down; plus: down then e^(./e)
    back up).

    Raises DomainError at z = 0 and OrbitOverflowError when a forward
    step leaves the representable range (the error carries the first
    overflowing step index); NonConvergenceError when the walk exceeds its
    cap or the series tail stays above the target accuracy after three
    longer walks.
    """
    branch = _as_branch(branch)
    side, flip = _resolve_side(z, cut_side)
    value = _ftilde_eval(_kernel_of(ctx), z, branch, side)
    return _conj(value) if flip else value


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
    return _conj(value) if flip else value


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
    return _conj(value) if flip else value


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
    with mp.workprec(bits + 32):
        a1 = _abel_walk(kernel, mpmath.mpf(1), plus_side=False, side="above")
        a3 = _abel_walk(kernel, mpmath.mpf(3), plus_side=True, side="above")
        shift = mpmath.log(2) / 3
        x1, x3 = a1 - shift, a3 - shift
        period = mpmath.mpc(0, 2 * mpmath.pi * mpmath.e)
    with mp.workprec(bits):
        return CalibrationConstants(
            x1=+x1,
            x3=+x3,
            a1_norm=+a1,
            a3_norm=+a3,
            period_t1=+period,
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
