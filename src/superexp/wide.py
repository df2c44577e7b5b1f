"""The mpmath kernel: evaluation above 53 bits, up to _MAX_BITS.

The drivers, the public API and the double kernel live in `evaluators`,
which loads this module on the first kernel wider than 53 bits and on
the first `calibrate()`.  This module imports mpmath and
`superexp.fixed` when it loads; `evaluators` imports them only inside
its wide branches, so a 53-bit process loads none of them.  Its private
contexts come from `superexp.precision`, so no evaluation loads the
limit formulas.

The kernel computes on Python integers scaled by 2^scale, 16 bits above
its work bits (superexp.fixed): it walks on them, sums the Abel series
and runs Newton's method.  A walk leaves them only for a step out of
their range, taken on a value of the kernel's own mpmath context at its
work bits (see precision.new_mp_context), never at mpmath's global
precision, so neither that setting nor another thread changes a
result.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath.libmp import from_man_exp

from . import fixed
from .errors import BranchCutError, DomainError, OrbitOverflowError
from .evaluators import (
    _MAX_BITS,
    _MAX_EVAL_BITS,
    BranchSign,
    EvalContext,
    Scalar,
    _abel_tier,
    _missed_disk,
    _newton_limit,
    _Tables,
    _walk_out,
)
from .precision import _as_mp, new_mp_context


# fraction bits of the fixed-point series sums above the work bits
_SCALE_GUARD = 16


class _MPKernel(_Tables):
    """mpmath evaluation up to _MAX_BITS, tuning derived from the bit count.

    The walks step on integers scaled by 2^scale (see step), the Abel
    series is summed by Horner's rule on them and F~ solved for on them:
    the argument is converted once per call, and a real argument
    returns an mpf.  A step out of the integers' range takes a value of
    the kernel's own context `mp` at the work bits (bits + 32).  Threads
    share a kernel, so it calls only functions that leave that
    context's precision alone, and builds its constants up front.
    Each evaluation sums once, inside its width's disk, and raises
    NonConvergenceError if the last term is above tol = 2^(4 - bits).
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
        self.abel_radius, self.abel_terms = _abel_tier(self.bits)
        self.threshold = _walk_out(self.abel_radius)
        # the largest last Newton step accepted, in units of 2^-scale
        self.newton_limit = 1 << (self.scale + _newton_limit(self.scale))
        # the walks must be allowed to reach their own tuning targets
        self.abel_cap = max(ctx.max_recursion, int(3.0 / self.abel_radius) + 64)
        self.walk_cap = max(ctx.max_recursion, int(self.threshold) + 64)
        self.tol = self.mp.mpf(2) ** (4 - self.bits)
        # built here, not on first use: threads share a kernel
        self._steps = fixed.WalkSteps(self.scale, self.abel_radius)

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
        return _as_mp(self.mp, z)  # exact, under the argument rule

    def exp_step(self, w, idx: int):
        ctx = self.mp
        e = +ctx.e
        x = ctx.re(w) / e
        if x > 1e8:
            raise OrbitOverflowError(
                "e^(z/e) escape threshold exceeded", index=idx
            )
        if x < -1e8:
            # the orbit lands at exactly 0, as the double kernel's does
            # below -745: such a w comes from a step off a huge value, its
            # imaginary part is about as large, and exp could take
            # minutes to reduce it.  Above this, e^x is an mpf to keep
            return ctx.mpf(0) if isinstance(w, ctx.mpf) else ctx.mpc(0)
        return ctx.exp(w / e)

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

    # A walk state is an integer state of fixed.WalkSteps while the value
    # is in its range, else the value itself.  A zero state is a value.

    def state(self, w):
        real = isinstance(w, self.mp.mpf)
        s = self._steps.enter((w._mpf_,) if real else w._mpc_)
        return w if s is None else s

    def value(self, s):
        if type(s) is not tuple:
            return s
        wr, wi = s
        return self._unfix(wr) if wi is None else self._unfix_pair(wr, wi)

    def step(self, s, idx: int, backward: bool, side):
        """One guarded step of a walk state.

        A state in range steps on integers; one out of range, and a
        backward step on the cut, take exp_step or log_step on the value
        and re-enter the range.
        """
        w = s
        if type(s) is tuple:
            t = self._steps.step(s, backward)
            if t is not None:
                return t if t[0] or t[1] else self.value(t)
            w = self.value(s)
        w = self.log_step(w, idx, side) if backward else self.exp_step(w, idx)
        return self.state(w)

    def abel_walk(self, w, plus_side: bool, side):
        """w walked into the Abel disk: (w, steps, zeta), zeta = 1 - w/e."""
        cap, k, s = self.abel_cap, 0, self.state(w)
        # the disk lies inside the integer range: a value state is outside
        outside = self._steps.outside
        while type(s) is not tuple or outside(s):
            if k >= cap:
                _missed_disk(cap, 1 - self.value(s) / self.e())
            if plus_side and s == 0:
                raise BranchCutError("backward orbit hit the logarithm singularity at 0")
            s, k = self.step(s, k + 1, plus_side, side), k + 1
        w = self.value(s)
        return w, k, 1 - w / self.e()

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

        Solved for w = 2/zeta on scaled integers (fixed.invert_abel), one
        Newton step at each scale of newton_steps, the last at the
        kernel's own; the tail estimate is the Abel tail's last term at
        that zeta, carried to F~ by dF/dalpha = e zeta^2/2.
        """
        plus = branch is BranchSign.plus
        zr, zi = fixed.pair(z, self.scale)
        wr, wi = fixed.invert_abel(zr, zi, self.newton_steps(plus), plus, self.newton_limit)
        ctx = self.mp
        w = self._unfix(wr) if isinstance(z, ctx.mpf) else self._unfix_pair(wr, wi)
        zeta = 2 / w
        e = +ctx.e
        tail = self.tail_rev(plus)
        last = self._unfix(abs(tail[0])) * abs(zeta) ** (len(tail) + 2) * e / 2
        return e * (1 - zeta), last
