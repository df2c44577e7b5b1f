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
  where 2/z enters the Abel disk (10 steps out at 53 bits, 39 at 256).

Two kernels share these drivers, and each takes its tuning from the
width alone.  A 53-bit context runs on machine doubles, the hot path
for grids, with the measured 53-bit settings.  Wider contexts run on
mpmath and derive their tuning from the bit count (one tier table,
_ABEL_TIERS, sets both walks); their results leave as plain mpmath
values.  The mpmath kernel lives in `superexp.wide`, which this module
imports on the first wider kernel and the first calibrate(): a 53-bit
evaluation, whose calibration constants are doubles, loads no mpmath.  The
private mpmath contexts come from `superexp.precision`, so no
evaluation at any width loads the limit formulas.

Widths run from 53 to _MAX_EVAL_BITS, 432 bits: calibration_tier refuses
any other width once, naming it, and every evaluation, default_constants
and calibrate() reach that rule before any kernel is built or walks.

Every public evaluator casts its argument once, in _gate; the kernels'
casts apply `precision.require_finite`, and at 53 bits the double range.
Real arguments on a cut are evaluated as directional limits: `cut_side`
picks the side ("above" everywhere by default), and None demands a
side-independent value, raising BranchCutError where there is none.
Every walk takes the upper side of its cuts, and the side is applied
once, in _public: "below" conjugates the value, and None refuses a real
argument's value that is not real.
"""

from __future__ import annotations

import cmath
import enum
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import (
    BranchCutError,
    DomainError,
    NonConvergenceError,
    OrbitOverflowError,
)
from .precision import (
    PrecisionConfig, mp_context, plain, require_count, require_finite, round_trip_decimal,
)
from .series import abel_expansion
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

# the mpmath types are named, not imported: a 53-bit process loads no mpmath
Scalar = Union[int, float, complex, "mpmath.mpf", "mpmath.mpc"]

_E = math.e


class BranchSign(enum.Enum):
    """The branch of superexp_tilde, its public selector.

    `minus` is the branch real on the far positive axis (it feeds F1 and
    pairs with abel1); `plus` is real on the far negative axis (F3,
    abel2).  The name records which sign goes inside the logarithm of
    the paired Abel expansion.  superexp_tilde converts it once: below
    the public API the side is the bool `plus`, True for F3, A3 and
    abel2, which the walks take and index anchors, tails and Newton
    plans with.
    """

    minus = "minus"
    plus = "plus"


@dataclass(frozen=True)
class EvalContext:
    """The width of an evaluation and the cap on its walks.

    Each kernel derives its series tuning from the width: machine
    doubles use the measured 53-bit settings, wider kernels the tier of
    their bit count (_ABEL_TIERS).

    Fields
    ------
    precision : PrecisionConfig
        Mantissa width selecting the kernel, the one precision type the
        limit formulas take too; 53 means machine doubles.
    max_recursion : int
        Cap on either walk, in the steps of a 53-bit walk: a wider kernel
        adds the longer walk-out or walk-in of its smaller disk (_Tables),
        so every width admits the same arguments.
    """

    precision: PrecisionConfig = PrecisionConfig(mantissa_bits=53)
    max_recursion: int = 200

    def __post_init__(self) -> None:
        if not isinstance(self.precision, PrecisionConfig):
            raise ValueError("precision must be a PrecisionConfig")
        cap = require_count(self.max_recursion, "max_recursion", 1)
        object.__setattr__(self, "max_recursion", cap)


@dataclass(frozen=True)
class CalibrationConstants:
    """The normalizations F1(0) = 1, F3(0) = 3, A1(1) = 0, A3(3) = 0.

    They are constants of the functions, not inputs: every evaluator
    takes default_constants of its width, cast once, when _kernel builds
    the width's kernel, and calibrate() computes them from two walks.
    x1 and x3 are the real abscissas where the minus and plus asymptotic
    branches take the values 1 and 3; a1_norm and a3_norm are abel1(1)
    and abel2(3), subtracted by A1/A3; period_t1 is 2*pi*e*i, the period
    of A1 toward +i*infinity.  `bits` records the mantissa width the
    constants were computed at or rounded to.  default_constants(53)
    holds the tier-192 doubles instead of mpmath values (floats, a
    complex period_t1), which a 53-bit evaluation casts the anchors to.
    """

    x1: mpmath.mpf
    x3: mpmath.mpf
    a1_norm: mpmath.mpf
    a3_norm: mpmath.mpf
    period_t1: mpmath.mpc
    bits: int = 192

    def as_decimal_dict(self) -> dict:
        """Full-precision decimal strings, round-trippable via from_decimal_dict."""
        return {
            "bits": self.bits,
            "x1": round_trip_decimal(self.x1, self.bits),
            "x3": round_trip_decimal(self.x3, self.bits),
            "a1_norm": round_trip_decimal(self.a1_norm, self.bits),
            "a3_norm": round_trip_decimal(self.a3_norm, self.bits),
            "period_t1_imag": round_trip_decimal(self.period_t1.imag, self.bits),
        }

    @classmethod
    def from_decimal_dict(cls, d: dict) -> "CalibrationConstants":
        bits = int(d["bits"])
        ctx = mp_context(bits + 32)  # each decimal parsed wider, rounded once to bits
        x1, x3, a1, a3 = (plain(ctx.mpf(d[k]), bits) for k in ("x1", "x3", "a1_norm", "a3_norm"))
        period = plain(ctx.mpc(0, ctx.mpf(d["period_t1_imag"])), bits)
        return cls(x1, x3, a1, a3, period, bits)


# -- series coefficients, shared by both kernels ------------------------

# one build per length: a process evaluates at few widths
@lru_cache(maxsize=None)
def _abel_tail_coeffs(n_terms: int) -> tuple:
    # tail of the Abel series in zeta = 1 - z/e: substituting x = -zeta
    # into the expansion around the fixed point flips the odd terms
    expansion = abel_expansion(n_terms)
    assert expansion.pole_coefficient == -2
    assert expansion.log_coefficient == Fraction(1, 3)
    return tuple(
        -expansion.tail[n] if n % 2 else expansion.tail[n]
        for n in range(1, n_terms + 1)
    )


class _Tables:
    """A kernel's walk caps, anchors and coefficient tables, built whole.

    A kernel supplies `coeff`, its rounding of one exact coefficient
    (a double, held as a complex so that Horner's rule adds complex to
    complex, or for the mpmath kernel the integer round(c * 2^scale) its
    fixed-point sums run on), `cast`, the term count and `scale`, 0 for
    doubles.  Everything is built here, and nothing writes to a kernel
    after it: threads share one.  `anchors` are (x1, x3, a1_norm,
    a3_norm) as the kernel's scalars, default_constants(bits) as _kernel
    passes them; a kernel built without them, calibrate()'s own, serves
    the Abel and F~ walks only.  `tails` are the Abel tails of abel1 and
    abel2, highest power first, and `newton_steps` the tables of each
    Newton step on F~ on either side, from one planner (_newton_plan).
    """

    def __init__(self, ctx: EvalContext, anchors: tuple = ()):
        # max_recursion counts 53-bit steps; a kernel with a smaller disk
        # (abel_radius, threshold: set before this) adds only its longer F~
        # walk-out, or Abel walk-in (about 2/r steps: 3/r with room)
        n = ctx.max_recursion
        self.walk_cap = n + int(self.threshold - _walk_out(_DOUBLE_RADIUS))
        self.abel_cap = n + math.ceil(3 / self.abel_radius) - math.ceil(3 / _DOUBLE_RADIUS)
        self.anchors = tuple(map(self.cast, anchors))
        # abel1 sums the first abel_terms coefficients, abel2 one more:
        # the shorter tail is a prefix of the longer
        rev = tuple(map(self.coeff, reversed(_abel_tail_coeffs(self.abel_terms + 1))))
        self.tails = (rev[1:], rev)
        bits = self.scale or self.bits  # the kernel's resolution
        self.newton_steps = tuple(
            _newton_plan(tail, self.abel_radius, bits, self.scale) for tail in self.tails
        )


def _newton_limit(bits: int) -> int:
    # log2 of the largest last Newton step on F~ at resolution `bits`, 8
    # bits above the planned step before it (_newton_plan): half, rounded up
    return 8 - (bits + 1) // 2


def _newton_plan(rev: tuple, radius: float, bits: int, scale: int) -> tuple:
    """The tables of each Newton step on F~, at ascending resolutions s.

    The last step resolves `bits`, each earlier one half the next,
    rounding up, while above 27 bits: 27 and 53 in doubles, 22, 44, 88
    and 176 at the 128-bit kernel's scale.  From the start (see
    _DoubleKernel.ftilde_series), within 2^-10.6 of the root where the
    walks sum, a step from an error d leaves about d^2/(6|w|^2).  `rev`
    holds the Abel tail's c_n, highest n first, in units of 2^-scale;
    `slope` is the n c_n of its derivative.  A table drops its leading
    terms while they stay under 2^-(s+4) at the disk radius (the tail,
    below the last step) or 2^-(s/2+8) (the slope, which enters g' times
    zeta^2/2).  A step is (s, tail, slope) in both kernels, the mpmath
    kernel's integers shifted to s.
    """
    scales = [bits]
    while scales[0] > 27:
        scales.insert(0, (scales[0] + 1) // 2)
    log_r = math.log2(radius)
    ns = range(len(rev), 0, -1)
    slope = tuple(n * c for n, c in zip(ns, rev))
    # log2 of |c_n| r^n and of n |c_n| r^(n+1) / 2
    sizes = [math.log2(abs(c)) - scale + n * log_r for n, c in zip(ns, rev)]
    slopes = [v + math.log2(n) + log_r - 1 for n, v in zip(ns, sizes)]

    def kept(coeffs, sizes, floor):
        drop = 0
        while drop < len(coeffs) - 1 and sizes[drop] < floor:
            drop += 1
        return coeffs[drop:]

    steps = []
    for s in scales:
        tail = kept(rev, sizes, -(s + 4) if s < bits else -math.inf)
        dtail = kept(slope, slopes, -(s // 2 + 8))
        if scale:
            tail = tuple(c >> (scale - s) for c in tail)
            dtail = tuple(c >> (scale - s) for c in dtail)
        steps.append((s, tail, dtail))
    return tuple(steps)


# -- precision-derived tuning for the mpmath kernel ----------------------

# (bits ceiling, disk radius, tail terms), and above the last ceiling 96
# terms within the radius 2^-((bits + 148)/97), where the first omitted
# term |c_97| r^97 (|c_97| about 2^143.6) is 2^-(bits+4): 0.0557 at 256
# bits, a walk-out of 39 steps.  The truncation error of the Abel tail
# is below 2^-bits in every tier, by 3.5 bits or more above 192 bits:
# tools/abel_order.py measures it against a longer tail
# (BENCH_abel_order.json), and CI runs its --check
_ABEL_TIERS = (
    (56, 0.25, 20),
    (96, 0.12, 34),
    (128, 0.1, 48),
    (160, 0.06, 48),
    (192, 0.06, 64),
)


# the widest width at which tools/abel_order.py checks the Abel tiers,
# past the widest calibration tier (448 bits)
_MAX_BITS = 488


def _abel_tier(bits: int) -> tuple:
    for cap, radius, terms in _ABEL_TIERS:
        if bits <= cap:
            return radius, terms
    return 2.0 ** -((bits + 148) / 97), 96


def _walk_out(radius: float) -> float:
    """|Re z| past which the inverted Abel series is summed inside its disk.

    F~(z) = e(1 - 2/w), where w - log(+-w)/3 + tail(2/w) = z, so
    |w| >= |Re z| - |log(+-w)|/3 - |tail|; one unit over log(2/radius)/3
    covers the imaginary part of the log and the tail, and |2/w| stays
    below the radius.
    """
    return float(math.ceil(2 / radius + math.log(2 / radius) / 3 + 1))


# the measured 53-bit settings: the functional-equation residuals of the
# double kernel bottom out near 1e-12 here, and more series terms or a
# wider disk make them worse, not better (the tail is divergent, with a
# practical radius near 0.28)
_DOUBLE_RADIUS, _DOUBLE_TERMS = 0.25, 15
_TINY = 2.0**-1022  # the smallest normal double


def _double(z: Scalar) -> complex:
    # the double kernel's cast: a finite float or complex at once (the hot
    # path); anything else passes require_finite and must then fit in a
    # double, which an int or mpmath value may not (complex() raises for
    # the int and rounds the other to inf)
    if type(z) in (complex, float) and cmath.isfinite(z):
        return complex(z)
    try:
        w = complex(require_finite(z))
    except OverflowError:
        w = math.inf
    if not cmath.isfinite(w):
        raise DomainError("argument is outside the double range")
    return w


class _DoubleKernel(_Tables):
    """Machine-double evaluation in plain complex arithmetic.

    A step is refused or guarded only where a double cannot hold it:
    exp_step lands an underflowing e^(w/e) at 0 and takes the escape
    rule (_escape) past 700, log_step takes the upper side of the
    negative real axis and refuses a step from 0; abel_series refuses a
    subnormal zeta, whose 2/zeta is past the double range; and
    ftilde_series refuses a last Newton step above newton_limit.
    """

    bits = 53
    e = _E
    tol = 0.0
    # plain doubles; a last Newton step may reach 2^-19 (or 4 ulps of |w|)
    scale = 0
    newton_limit = 2.0 ** _newton_limit(bits)
    abel_radius, abel_terms = _DOUBLE_RADIUS, _DOUBLE_TERMS
    threshold = _walk_out(_DOUBLE_RADIUS)

    def coeff(self, c: Fraction) -> complex:
        # z + c rounds as z + float(c) does, minus the mixed-type add
        return complex(float(c))

    cast = staticmethod(_double)
    # a composition's values as doubles: a float or complex as it is, finite
    # or not, any other number through the cast; and A1's cut rotation
    at_width = staticmethod(lambda x: complex(x) if type(x) in (complex, float) else _double(x))
    rotation = complex(0.0, -math.pi / 3.0)

    def exp_step(self, w: complex, idx: int):
        """One guarded step w -> e^(w/e); past 700, the escape rule."""
        x = w.real / _E
        if x < -745.0:
            # e^x underflows every double: the orbit lands at exactly 0
            return 0j
        if x <= 700.0:
            return cmath.exp(w / _E)
        return _escape(w.imag / _E, math.cos, self.bits, idx)

    def log_step(self, w: complex, idx: int) -> complex:
        if w.imag == 0.0 and w.real <= 0.0:
            if w.real == 0.0:
                _log_of_zero()
            w = complex(w.real, 0.0)  # upper-side limit; -0.0 would flip it
        return _E * cmath.log(w)

    # a walk state is the double itself, and 0j the one after a None
    zero = 0j

    @staticmethod
    def state(w: complex) -> complex:
        return w

    value = state

    def step(self, w: complex, idx: int, backward: bool):
        """One step of an F~ walk: log_step or exp_step, whose None passes through."""
        return self.log_step(w, idx) if backward else self.exp_step(w, idx)

    def abel_walk(self, w: complex, plus: bool) -> tuple:
        """w walked into the Abel disk: (w, steps, zeta), zeta = 1 - w/e.

        The plain steps run inline; exp_step and log_step take the
        guarded ones (past -745 or 700, on the negative real axis or 0).
        """
        radius, cap = self.abel_radius, self.abel_cap
        exp, log = cmath.exp, cmath.log
        k, zeta = 0, 1 - w / _E
        while abs(zeta) >= radius:
            if k >= cap:
                _missed_disk(cap, zeta)
            if not plus:
                if -745.0 <= w.real / _E <= 700.0:
                    w, k = exp(w / _E), k + 1
                else:
                    w, k = self.exp_step(w, k + 1), k + 1
                    if w is None:  # unrepresentable: its next step lands at 0
                        w, k = 0j, k + 1
            elif w.imag or w.real > 0.0:
                w, k = _E * log(w), k + 1
            else:
                w, k = self.log_step(w, k + 1), k + 1
            zeta = 1 - w / _E
        return w, k, zeta

    def abel_series(self, zeta: complex, plus: bool):
        # a subnormal zeta, within 1e-308 of e, has lost bits, and 2/zeta
        # is past 2^1023: beyond the double range or within a step of it
        if abs(zeta) < _TINY:
            raise DomainError("value is outside the double range this close to e")
        arg = -zeta if plus else zeta
        if arg.imag == 0.0 and arg.real < 0.0:
            # Im(zeta) = -Im(z)/e, so the upper-side limit in z is the
            # lower side for a log on zeta and the upper for one on -zeta
            logpart = complex(math.log(-arg.real), math.pi if plus else -math.pi)
        else:
            logpart = cmath.log(arg)
        acc = 0j
        for c in self.tails[plus]:
            acc = acc * zeta + c
        return logpart / 3.0 + 2.0 / zeta + acc * zeta, 0.0

    def ftilde_series(self, z: complex, plus: bool):
        """F~ = e(1 - 2/w) at a base point, w - log(+-w)/3 + tail(2/w) = z.

        Starts from two logarithms, w0 = z + log(+-z)/3 and then
        w = z + log(+-w0)/3 - 2 c_1/w0, and takes the two Newton steps of
        newton_steps[plus], the last checked against newton_limit: the first
        sums the lowest-order terms that its 27 bits need, the second the
        whole tail (TestDoubleNewtonSteps checks the result against 128
        bits).  g(w) is summed as zeta t(zeta) with tail(zeta) = zeta
        t(zeta), and g'(w) = 1 - zeta/6 - (zeta^2/2) tail'(zeta).
        """
        steps, log = self.newton_steps[plus], cmath.log
        w = z + (log(-z) if plus else log(z)) / 3.0
        # c_1, the lowest-order coefficient, ends each tail
        w = z + (log(-w) if plus else log(w)) / 3.0 - 2.0 * steps[0][1][-1] / w
        for _, tail, slope in steps:
            zeta = 2.0 / w
            t = p = 0j
            for c in tail:
                t = t * zeta + c
            for c in slope:
                p = p * zeta + c
            g = w - (log(-w) if plus else log(w)) / 3.0 + zeta * t - z
            dw = g / (1.0 - zeta / 6.0 - 0.5 * zeta * zeta * p)
            w -= dw
        # far out the last step is a rounding of w, a few of its ulps
        if abs(dw) > self.newton_limit and abs(dw) > 4.0 * math.ulp(abs(w)):
            raise NonConvergenceError(
                "Newton's method for F~ did not settle", residual=abs(dw)
            )
        return _E * (1.0 - 2.0 / w), 0.0


@lru_cache(maxsize=32)
def _kernel(ctx: EvalContext):
    # the width's constants first: a width out of range is refused before
    # any kernel is built, and the kernel is built with its anchors
    c = default_constants(ctx.precision.mantissa_bits)
    anchors = (c.x1, c.x3, c.a1_norm, c.a3_norm)
    if ctx.precision.mantissa_bits == 53:
        return _DoubleKernel(ctx, anchors)
    from .wide import _MPKernel
    return _MPKernel(ctx, anchors)


# one default object, shared with iteration, so the evaluators find its
# kernel by identity
_DEFAULT_CTX = EvalContext()
_last_kernel = (None, None)
_building = threading.Lock()


def _kernel_of(ctx: EvalContext | None):
    # a sweep passes one context object to every cell: match it by
    # identity before hashing the frozen context through _kernel's cache;
    # the pair is swapped whole, so a racing thread keeps its own kernel.
    # A miss takes the lock, so racing first calls build one kernel
    global _last_kernel
    ctx = ctx or _DEFAULT_CTX
    last = _last_kernel
    if last[0] is not ctx:
        with _building:
            last = _last_kernel = (ctx, _kernel(ctx))
    return last[1]


# -- walk drivers, kernel-generic ----------------------------------------

def _missed_disk(cap: int, zeta):
    raise NonConvergenceError(
        f"argument did not reach the expansion disk within {cap} steps",
        residual=float(abs(zeta)),
    )


def _log_of_zero():
    # each kernel's log_step refuses a backward step from 0
    raise BranchCutError("backward orbit hit the logarithm singularity at 0")


def _resolves(y, bits: int) -> bool:
    # whether a width resolves the phase y = Im w/e: an ulp of y is 2^-8 or less
    return abs(y) < 2.0 ** (bits - 8)


def _escape(y, cos, bits: int, idx: int):
    # a forward step past its kernel's range (Re w/e above 700 in doubles,
    # 1e8 in mpmath) at the phase y = Im w/e.  Where the width resolves y
    # and cos y < -m, the value's real part is hugely negative: None stands
    # for it, and its next step lands at 0.  m = 8|y| 2^-bits covers the
    # rounding of y, 0.03 at the double bound 2^45.  Else the orbit escapes
    if _resolves(y, bits) and cos(y) < -8 * abs(y) * 2.0**-bits:
        return None
    raise OrbitOverflowError("e^(z/e) overflows the kernel's range", index=idx)


def _abel_walk(kernel, w, plus: bool, norm=None):
    # w is the kernel's scalar; norm, when given, is subtracted from the result
    if not plus:
        e = kernel.e
        if w.imag == 0 and w.real > e:
            # the forward orbit escapes along the whole ray right of e; its
            # sided limit is abel2 rotated by pi/3, which exp_iterate applies
            raise BranchCutError("z lies on the cut [e, inf) of the forward Abel function")
        if not _resolves(w.imag / e, kernel.bits) and w.real / e >= -745.0:
            # the first step's phase is noise at this width, and counts unless
            # |e^(z/e)| < 2^-1074, under every width: narrower widths refuse too
            raise DomainError("the width does not resolve the phase of e^(z/e) here")
    w, k, zeta = kernel.abel_walk(w, plus)
    if zeta == 0:
        raise DomainError("branch point: the orbit landed exactly on e")
    value, last = kernel.abel_series(zeta, plus)
    # each width's tier keeps the tail's last term below tol throughout
    # its disk (TestTermTiers proves it for every width): a miss is a defect
    if last > kernel.tol * (1 + abs(value)):
        raise NonConvergenceError("Abel tail above the target accuracy", residual=float(last))
    value = value + k if plus else value - k
    return value if norm is None else value - norm


def _walk_length(gap) -> int:
    # smallest k >= 0 putting the argument strictly past the threshold;
    # int() is floor from 0 up, for a double or an mpf
    return 0 if gap < 0 else int(gap) + 1


def _ftilde_eval(kernel, w0, plus: bool, chains=None):
    """F~ at w0, the kernel's scalar, on the side `plus` (F3's).

    F~ is summed at the base point k steps out past the threshold (up
    for plus False, down for plus True) and walked back k steps.  The
    walk is a chain: chain[j] is the kernel's walk state after j
    steps (chain[0] is F~ at the base), extended by kernel.step as far
    as k needs.  None stands for the unrepresentable value of a
    collapsing exponential step (see _escape), whose next step lands at
    the kernel's zero; it fails only a walk that ends on it.  A step
    that raises is not stored: every walk that needs it takes it again
    and raises the same error, the kernel's log_step refusing a backward
    step from 0.  chains, when given, is one sweep's memo of chains
    keyed by the exact base point: equal keys are equal bits, since
    adding the anchor or k turns an imaginary -0.0 into +0.0.  Only a
    base within one unit past the threshold is memoized, the only ones
    a walking cell reaches; a cell that shares no walk has a chain of
    its own.
    """
    if w0 == 0:
        raise DomainError("the asymptotic series is singular at 0")
    gap = w0.real + kernel.threshold if plus else kernel.threshold - w0.real
    if gap >= kernel.walk_cap:
        # the walk takes floor(gap) + 1 steps, counted only while that
        # is a short number: a far argument's count has hundreds of digits
        need = _walk_length(gap) if gap < 2**53 else "more than 2^53"
        raise NonConvergenceError(
            f"functional-equation walk needs {need} steps,"
            f" cap is {kernel.walk_cap}"
        )
    k = _walk_length(gap)
    base = w0 - k if plus else w0 + k
    shared = chains is not None and gap >= -1
    chain = chains.get(base) if shared else None
    if chain is None:
        value, last = kernel.ftilde_series(base, plus)
        if last > kernel.tol:
            raise NonConvergenceError(
                "asymptotic tail above the target accuracy", residual=float(last)
            )
        chain = [kernel.state(value)]
        if shared:
            chains[base] = chain
    j = len(chain) - 1
    w = chain[j]
    while j < k:
        w = kernel.zero if w is None else kernel.step(w, j + 1, not plus)
        chain.append(w)
        j += 1
    w = chain[k]
    if w is None:
        raise OrbitOverflowError("forward step overflows at the target index", index=k)
    return kernel.value(w)


# -- the argument gate and cut sides --------------------------------------

def _gate(kernel, z, cut_side) -> tuple:
    # (w, flip, strict): z cast once by the kernel, and for a real z
    # whether to conjugate the walks' upper-side value ("below") or to
    # demand that it be real (None).  Whether z is real is read off z: a
    # 53-bit cast may round Im z to 0
    if cut_side not in ("above", "below", None):
        raise ValueError("cut_side must be 'above', 'below' or None")
    w = kernel.cast(z)
    if getattr(z, "imag", 0) != 0:
        return w, False, False
    return w, cut_side == "below", cut_side is None


def _public(value, flip: bool, strict: bool):
    # a walk's upper-side value as returned: conjugated for the lower-side
    # limit, refused in strict mode unless real, and a kernel's mpmath
    # value converted exactly to a plain one.  The lower-side limit of a
    # real-analytic function is the conjugate of the upper-side one, so a
    # real argument's value is side-independent exactly when it is real
    if strict and value.imag:
        raise BranchCutError("value lies on the logarithm cut; declare cut_side")
    if isinstance(value, complex):
        return value.conjugate() if flip else value
    return plain(value.conjugate() if flip else value)


def _as_branch(kind: type, branch):
    # a member of the enum `kind` (BranchSign, iteration.IterateBranch) or
    # its name; anything else is a ValueError naming the members
    if isinstance(branch, kind):
        return branch
    try:
        return kind[branch]
    except (KeyError, TypeError):
        names = " or ".join(repr(member.name) for member in kind)
        raise ValueError(f"branch must be {names}, got {branch!r}") from None


def _refuse_pole(w) -> None:
    # F1's poles, the real integers <= -2, as the kernel holds its argument
    if w.imag == 0 and w.real <= -2 and w.real == int(w.real):
        where = f"{float(w.real):g}"
        if where == "-inf":  # a wide pole past the double range
            where = w.real.context.nstr(w.real, 6)
        raise DomainError(f"F1 has a pole at {where}")


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
    DomainError
        z whose first step's phase the width cannot resolve (_resolves).
    OrbitOverflowError
        An orbit that escapes (_escape), carrying the step's index.
    NonConvergenceError
        Recursion cap hit (carries the final |1 - z/e| as `residual`), or
        the tail of the one sum inside the disk above the target
        accuracy (carries the tail).
    """
    return _abel(z, False, ctx, cut_side)


def abel2(z: Scalar, ctx: EvalContext | None = None, cut_side="above"):
    """Abel function of e^(z/e) on the unbounded side of the fixed point.

    Walks z backward under e*log(z) into the expansion disk and adds the
    step count; the tail keeps one term more than abel1 but uses the
    same coefficients, with the opposite sign inside the logarithm.
    Satisfies abel2(e^(z/e)) = abel2(z) + 1 right of the cut (-inf, e].
    """
    return _abel(z, True, ctx, cut_side)


def A1(z: Scalar, ctx: EvalContext | None = None, cut_side="above"):
    """Normalized super-logarithm on the bounded petal: A1(1) = 0.

    A1 is abel1 minus the calibrated abel1(1); it inverts F1 and is
    periodic with period 2*pi*e*i.
    """
    return _abel(z, False, ctx, cut_side, normed=True)


def A3(z: Scalar, ctx: EvalContext | None = None, cut_side="above"):
    """Normalized super-logarithm on the unbounded petal: A3(3) = 0.

    A3 is abel2 minus the calibrated abel2(3); it inverts F3 right of
    the cut (-inf, e].
    """
    return _abel(z, True, ctx, cut_side, normed=True)


def _abel(z, plus: bool, ctx, cut_side, normed=False):
    # abel1 (plus False) or abel2 at z; normed subtracts the
    # calibrated a1_norm or a3_norm, giving A1 or A3
    kernel = _kernel_of(ctx)
    w, flip, strict = _gate(kernel, z, cut_side)
    norm = kernel.anchors[2 + plus] if normed else None
    return _public(_abel_walk(kernel, w, plus, norm), flip, strict)


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
    cap, the last of Newton's planned steps is above its limit (carrying
    that step), or the tail of the one sum at the walk-out base is above
    the target accuracy.
    """
    plus = _as_branch(BranchSign, branch) is BranchSign.plus
    kernel = _kernel_of(ctx)
    w, flip, strict = _gate(kernel, z, cut_side)
    return _public(_ftilde_eval(kernel, w, plus), flip, strict)


def F1(z: Scalar, ctx: EvalContext | None = None, cut_side="above"):
    """Super-exponential fixed by F1(0) = 1, bounded as Re z -> +inf.

    Satisfies F1(z + 1) = e^(F1(z)/e) and approaches e for large |z|
    away from the cut {x real : x <= -2}.  Real arguments on the cut are
    evaluated as the limit from above unless cut_side says otherwise.
    F1 diverges at the integers <= -2.  At those points themselves it
    raises DomainError, on either cut side: in rounded arithmetic the
    inverse walk never hits its zero there exactly, and what it returned
    was rounding noise.  Near them it still returns a value, large but
    finite, that loses accuracy like the logarithm of the distance:
    F1(-2.0000001) is about -42.43 + 8.54i from above.
    """
    return _superexp(z, False, ctx, cut_side)


def F3(z: Scalar, ctx: EvalContext | None = None, cut_side="above"):
    """Entire super-exponential fixed by F3(0) = 3.

    Satisfies F3(z + 1) = e^(F3(z)/e) and grows without bound along the
    positive real axis; overflow there raises OrbitOverflowError
    carrying the first overflowing step index.
    """
    return _superexp(z, True, ctx, cut_side)


def _superexp(z, plus: bool, ctx, cut_side, chains=None):
    # F1 (plus False) or F3 at z, walking through a sweep's memo when one
    # is given: the anchor x1 or x3 shifts the argument
    kernel = _kernel_of(ctx)
    w, flip, strict = _gate(kernel, z, cut_side)
    if not plus:
        _refuse_pole(w)
    return _public(_ftilde_eval(kernel, w + kernel.anchors[plus], plus, chains), flip, strict)


def _sweep(fn: str, ctx: EvalContext):
    """F1 or F3 for the cells of one grid sweep, sharing walks by base.

    Returns cell(z, cut_side), which gives what fn(z, ctx, cut_side)
    gives, bit for bit: cells a whole number of units apart
    walk from the same base point, and each base is summed and walked
    once (_ftilde_eval).  A base's imaginary part is Im z plus the
    anchor's, so no two rows share one, and the memo keeps the current
    row's walks only.
    """
    plus = fn == "F3"
    chains: dict = {}
    row = None

    def cell(z, cut_side):
        nonlocal row
        if z.imag != row:
            chains.clear()
            row = z.imag
        return _superexp(z, plus, ctx, cut_side, chains)

    return cell


# -- calibration ------------------------------------------------------------

def calibrate(ctx: EvalContext | None = None) -> CalibrationConstants:
    """Compute all calibration constants at the calibration tier of ctx.

    Walks abel1 from 1 and abel2 from 3 into the disk and sums each
    series once for the two normalization values.  F~ is built as the
    inverse of the Abel function shifted by ln(2)/3, so its anchors
    F~(x1) = 1 (minus branch) and F~(x3) = 3 (plus branch) follow by
    that identity: x1 = a1_norm - ln(2)/3 and x3 = a3_norm - ln(2)/3.  The period 2*pi*e*i needs no walk.

    Parameters
    ----------
    ctx : EvalContext, optional
        The walks run at calibration_tier of its width, with its walk
        cap, so that the result equals default_constants of that width
        bit for bit.

    Raises
    ------
    DomainError
        A width past the range (calibration_tier), before any walk.
    NonConvergenceError
        An Abel walk that misses its disk, or a sum whose tail is above
        the tolerance.
    """
    ctx = ctx or _DEFAULT_CTX
    bits = calibration_tier(ctx.precision.mantissa_bits)
    from .wide import _MPKernel
    kernel = _MPKernel(EvalContext(PrecisionConfig(mantissa_bits=bits), ctx.max_recursion))
    wide = kernel.mp  # at bits + 32
    a1 = _abel_walk(kernel, kernel.cast(1), plus=False)
    a3 = _abel_walk(kernel, kernel.cast(3), plus=True)
    shift = wide.log(2) / 3
    # x1, x3, a1_norm, a3_norm and period_t1, in the fields' order
    values = (a1 - shift, a3 - shift, a1, a3, wide.mpc(0, 2 * wide.pi * wide.e))
    return CalibrationConstants(*(plain(v, bits) for v in values), bits=bits)


def calibration_tier(bits: int) -> int:
    """Calibration precision serving evaluation at `bits`: the one width rule.

    16 guard bits over the evaluation width, rounded up to a multiple
    of 64 and never below 192.  A width past _MAX_EVAL_BITS, whose tier
    the calibrated literals do not reach, raises DomainError naming it
    and the range; a width below 53 or not an integer, ValueError.
    """
    bits = require_count(bits, "bits", 53)
    if bits > _MAX_EVAL_BITS:
        raise DomainError(
            f"{bits} bits is out of range: evaluations run from 53 to {_MAX_EVAL_BITS} bits"
        )
    return -(-max(192, bits + 16) // 64) * 64


# The record of the constants: `superexp calibrate --precision-bits 432
# --format json`, pasted.  The walks are the proof: a test requires each
# tier's calibrate() to equal default_constants' rounding of these bit
# for bit; after a change to the walks or the tiers, paste the new output.
_CALIBRATED = {
    "bits": 448,
    "x1": "2.7982481542313876624525831854691003194359611731924637792813623233244688823153812749218633537416228402223810565354121499224869528304036254",
    "x3": "-20.287404589940039836129092860863818343501951031701136418961466134872686716743358319741195345506862589366333654989877170064896980744602552",
    "a1_norm": "3.0292972144180360989249938926218258421277945513125488639882556598222667563052795134571511294070957360697148835422690451670487929089896707",
    "a3_norm": "-20.056355529753391399656682153711092820810117653581051334254572798374888842753460081205907569841389693518999827983020274820335140666016496",
    "period_t1_imag": "17.079468445347134130927101739093148990069777071530229923759202260358457222314661615145127739420947887827549885023354935292642375181392069",
}
# the widest evaluation: its tier, 16 bits wider, is the record's
_MAX_EVAL_BITS = _CALIBRATED["bits"] - 16


def default_constants(bits: int = 53) -> CalibrationConstants:
    """Calibration constants adequate for evaluating at `bits`.

    _CALIBRATED rounded to `calibration_tier(bits)`, equal to the
    calibrate() of a context at `bits`; at 53 bits their doubles, with no
    mpmath loaded (see CalibrationConstants).  Nothing calibrates.
    Memoized.
    """
    return _rounded(calibration_tier(bits), bits == 53)


@lru_cache(maxsize=None)
def _rounded(tier: int, doubles: bool) -> CalibrationConstants:
    if doubles:
        _, x1, x3, a1, a3, period = map(float, _CALIBRATED.values())
        return CalibrationConstants(x1, x3, a1, a3, complex(0.0, period), tier)
    return CalibrationConstants.from_decimal_dict(dict(_CALIBRATED, bits=tier))
