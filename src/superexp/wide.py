"""The mpmath kernel: evaluation above 53 bits.

The drivers, the public API and the double kernel live in `evaluators`,
which loads this module on the first kernel wider than 53 bits and on
the first `calibrate()`.  This module imports mpmath when it loads;
`evaluators` imports it only inside its wide branches, so a 53-bit
process loads neither.  Its private contexts come from
`superexp.precision`, so no evaluation loads the limit formulas.
Evaluations reach it through `evaluators._kernel`, which refuses a width
past the calibrated range first; calibrate() builds one at its tier.

A real number x at scale s is the Python integer x * 2^s, rounded or
truncated; a complex one is a pair of them.  The kernel computes on
such integers at a scale 16 bits above its work bits: it walks on them
(_MPKernel.step, which its two bodies, abel and ftilde, loop), sums the
Abel series by Horner's rule on them, and finds F~ at a base point by
Newton's method on them (_MPKernel.invert_abel), one step at each scale of its plan
(evaluators._newton_plan), each twice the last up to its own, so that
only the last sum runs at full width.  A walk leaves them only for a
step out of their range, taken on a value of the kernel's own mpmath
context at its work bits (see precision.new_mp_context), never at
mpmath's global precision, so neither that setting nor another thread
changes a result.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath.libmp import (
    e_fixed, from_man_exp, ln2_fixed, mpc_log, mpf_atan2, mpf_log,
    mpf_log_hypot, pi_fixed, to_fixed,
)
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

from .errors import NonConvergenceError
from .evaluators import (
    EvalContext, Scalar, _abel_tier, _escape, _landed_on_e, _log_of_zero, _missed_disk,
    _newton_limit, _Tables, _walk_out,
)
from .precision import _as_mp, mp_convert, new_mp_context


# fraction bits of the fixed-point series sums above the work bits
_SCALE_GUARD = 16


def _pair(x, scale: int) -> tuple:
    """(re, im) of an mpf or mpc as integers at `scale`."""
    if hasattr(x, "_mpf_"):
        return to_fixed(x._mpf_, scale), 0
    return tuple(to_fixed(part, scale) for part in x._mpc_)


def _horner_complex(coeffs, xr: int, xi: int, scale: int) -> tuple:
    """Integer coefficients, highest power first, at a complex point."""
    ar = ai = 0
    for c in coeffs:
        ar, ai = ((ar * xr - ai * xi) >> scale) + c, (ar * xi + ai * xr) >> scale
    return ar, ai


def _log(wr: int, wi: int, s: int, sign: int) -> tuple:
    # log(sign w) at scale s, taken 8 bits past it
    parts = (from_man_exp(sign * wr, -s), from_man_exp(sign * wi, -s))
    return tuple(to_fixed(part, s) for part in mpc_log(parts, s + 8))


class _MPKernel(_Tables):
    """mpmath evaluation at any width above 53, tuning derived from the bit count.

    The walks step on integers scaled by 2^scale (see step), the Abel
    series is summed by Horner's rule on them and F~ solved for on them:
    the argument is converted once per call, and a real argument
    returns an mpf.  A step out of the integers' range takes a value of
    the kernel's own context `mp` at the work bits (bits + 32), and a
    composition's values are held in one at the width (at_width).
    Threads share a kernel, so it calls only functions that leave the
    contexts' precision alone, and is built whole (_Tables).  Each
    evaluation sums once, inside its width's disk, and raises
    NonConvergenceError if the last term is above tol = 2^(4 - bits).
    """

    def __init__(self, ctx: EvalContext, anchors: tuple = ()):
        self.bits = ctx.precision.mantissa_bits
        self._workbits = self.bits + 32
        self.mp = new_mp_context(self._workbits)
        self.e = +self.mp.e  # the fixed point at the work bits
        self.scale = S = self._workbits + _SCALE_GUARD
        self.abel_radius, self.abel_terms = _abel_tier(self.bits)
        self.threshold = _walk_out(self.abel_radius)
        super().__init__(ctx, anchors)
        # the largest last Newton step accepted, in units of 2^-scale
        self.newton_limit = 1 << (S + _newton_limit(S))
        self.tol = self.mp.mpf(2) ** (4 - self.bits)
        self._width = new_mp_context(self.bits)  # see at_width
        self.rotation = self.mp.mpc(0, -self.mp.pi / 3)  # A1's, on its cut
        self.zero = self.mp.mpc(0)  # the state after a None (see walk)
        # the walks' integer constants at the scale, built here, not on
        # first use: threads share a kernel
        self._e = e_fixed(S)
        self._inv_e = (1 << 2 * S) // self._e
        self._ln2, self._pi2 = ln2_fixed(S), pi_fixed(S - 1)
        # the Abel disk |1 - w/e| < radius is |e - w|^2 < (e r)^2 at 2 scale
        self._r2 = int((self._e * Fraction(self.abel_radius)) ** 2)
        self._low, self._top = 1 << (S - 32), 64 * self._e
        self._floor = -((31 * self._ln2 * self._e) >> S)

    def coeff(self, c: Fraction) -> int:
        # the series sums run on integers scaled by 2^scale
        return round(c * (1 << self.scale))

    def _unfix(self, m: int):
        # a scaled integer back to an mpf at the work bits
        return self.mp.make_mpf(from_man_exp(m, -self.scale, self._workbits, "n"))

    def _unfix_pair(self, re: int, im: int):
        return self.mp.mpc(self._unfix(re), self._unfix(im))

    def cast(self, z: Scalar):
        return _as_mp(self.mp, z)  # exact, under the argument rule

    def at_width(self, x):
        # x as a value of the context at the width, exactly: + rounds it there
        return mp_convert(self._width, x)

    def exp_step(self, w, idx: int):
        ctx, e = self.mp, self.e
        x = ctx.re(w) / e
        if x > 1e8:
            return _escape(ctx.im(w) / e, ctx.cos, self, idx)
        if x < -1e8:
            # the orbit lands at exactly 0, as the double kernel's does
            # below -745: such a w comes from a step off a huge value, its
            # imaginary part is about as large, and exp could take
            # minutes to reduce it.  Above this, e^x is an mpf to keep
            return ctx.mpf(0) if isinstance(w, ctx.mpf) else ctx.mpc(0)
        return ctx.exp(w / e)

    def log_step(self, w, idx: int):
        # mpmath has no signed zero: its log of a negative real is the
        # upper-side limit
        if not w:
            _log_of_zero()
        return self.e * self.mp.log(w)

    # A walk state is (re, im) at the scale, im None for a real one, while
    # the value is in range, else the value itself; a zero state is a
    # value.  In range, each part of w/e is below 64, so that the
    # reductions of exp and cos/sin stay within a few units, and some
    # part of w is at least 2^-32, so that the resolution 2^-scale is at
    # most 2^(32 - scale) of |w|.

    def state(self, w):
        parts = (w._mpf_,) if isinstance(w, self.mp.mpf) else w._mpc_
        # exponent + bit count above 8 is a part of 256 or more: out of
        # range, and converting it could make a huge integer
        if all(p[2] + p[3] <= 8 for p in parts):
            ints = [to_fixed(p, self.scale) for p in parts]
            if self._low <= max(map(abs, ints)) < self._top:
                return ints[0], (ints[1] if len(ints) > 1 else None)
        return w

    def value(self, s):
        if type(s) is not tuple:
            return s
        wr, wi = s
        return self._unfix(wr) if wi is None else self._unfix_pair(wr, wi)

    def step(self, s, idx: int, backward: bool):
        """One guarded step of a walk state: e^(w/e), or e log w if backward.

        A state in range steps on integers.  A forward step stays on them
        only while Re w/e >= -31 ln 2, which keeps its value in range:
        below that, e^(w/e) at a resolution of 2^-scale would lose a bit
        for each halving.  A backward step takes log|w| and arg w on raw
        mpfs 8 bits past the scale, so that |log w| < 256 is within a
        unit of it.  A state out of range, a forward step from below
        that floor, and a backward step on the cut (im 0, re <= 0) or
        from 0, take exp_step or log_step on the value and re-enter the
        range.  exp_step's None passes through; a walk steps on from it
        to `zero`.
        """
        w = s
        if type(s) is tuple:
            wr, wi = s
            S = self.scale
            if self._low <= max(abs(wr), abs(wi or 0)) < self._top and (
                (wi or wr > 0) if backward else wr >= self._floor
            ):
                if not backward:
                    v = exp_fixed((wr * self._inv_e) >> S, S, self._ln2)
                    if wi is None:
                        t = v, None
                    else:
                        c, sn = cos_sin_fixed((wi * self._inv_e) >> S, S, self._pi2)
                        t = (v * c) >> S, (v * sn) >> S
                else:
                    prec, a = S + 8, from_man_exp(wr, -S)
                    if wi is None:
                        t = (to_fixed(mpf_log(a, prec), S) * self._e) >> S, None
                    else:
                        b = from_man_exp(wi, -S)
                        lr = to_fixed(mpf_log_hypot(a, b, prec, "n"), S)
                        li = to_fixed(mpf_atan2(b, a, prec, "n"), S)
                        t = (lr * self._e) >> S, (li * self._e) >> S
                return t if t[0] or t[1] else self.value(t)
            w = self.value(s)
        w = self.log_step(w, idx) if backward else self.exp_step(w, idx)
        return None if w is None else self.state(w)

    def abel(self, w, plus: bool):
        """abel1 at w, or abel2 when plus: w walked into the Abel disk on
        integers (step), the series summed at zeta = 1 - w/e by Horner's
        rule on them and the step count applied.  An orbit landing on e
        is a branch point; a tail above tol (1 + |value|) raises."""
        cap, k, s = self.abel_cap, 0, self.state(w)
        e, r2 = self._e, self._r2
        # the disk lies inside the integer range: a value state is outside
        while type(s) is not tuple or (e - s[0]) ** 2 + (s[1] or 0) ** 2 >= r2:
            if k >= cap:
                _missed_disk(cap, 1 - self.value(s) / self.e)
            s, k = self.step(s, k + 1, plus), k + 1
            if s is None:  # unrepresentable: its next step lands at 0
                s, k = self.zero, k + 1
        w = self.value(s)
        zeta = 1 - w / self.e
        if zeta == 0:
            _landed_on_e()
        ctx = self.mp
        arg = -zeta if plus else zeta
        if ctx.im(arg) == 0 and ctx.re(arg) < 0:
            # zeta flips the half-plane of z; see the double kernel
            logpart = ctx.mpc(ctx.log(-ctx.re(arg)), ctx.pi if plus else -ctx.pi)
        else:
            logpart = ctx.log(arg)
        # the tail is zeta times a Horner sum: a trailing zero coefficient
        # (a real zeta keeps a zero imaginary part throughout)
        coeffs, S = self.tails[plus], self.scale
        tr, ti = _horner_complex(coeffs + (0,), *_pair(zeta, S), S)
        tail = self._unfix(tr) if isinstance(zeta, ctx.mpf) else self._unfix_pair(tr, ti)
        value = logpart / 3 + 2 / zeta + tail
        # each width's tier keeps the tail's last term below tol throughout
        # its disk (TestTermTiers proves it for every width): a miss is a
        # defect
        last = self._unfix(abs(coeffs[0])) * abs(zeta) ** len(coeffs)
        if last > self.tol * (1 + abs(value)):
            raise NonConvergenceError("Abel tail above the target accuracy", residual=float(last))
        return value + k if plus else value - k

    def invert_abel(self, zr: int, zi: int, plus: bool) -> tuple:
        """w at the scale with w - log(+-w)/3 + tail(2/w) = z.

        That is the Abel series alpha(zeta) = 2/zeta + log(+-zeta)/3 +
        tail(zeta) equal to z + ln(2)/3 at zeta = 2/w, where the ln(2)/3
        cancels; z is given at the scale.  Newton's method starts from
        two logarithms at the first scale, w0 = z + log(+-z)/3 and then
        w = z + log(+-w0)/3 - 2 c_1/w0, and takes one step at each scale s
        of newton_steps[plus], the (s, tail, slope) of
        evaluators._newton_plan.  A last step above newton_limit units
        raises NonConvergenceError, carrying it.
        """
        steps, sign = self.newton_steps[plus], -1 if plus else 1
        S, s = steps[-1][0], steps[0][0]
        # the start, w0 at least |z| - |log(+-z)|/3 from 0 past the walk-out;
        # c_1, the lowest-order coefficient, ends each tail
        ar, ai = zr >> (S - s), zi >> (S - s)
        lr, li = _log(ar, ai, s, sign)
        wr, wi = ar + lr // 3, ai + li // 3
        c1, nw = 2 * steps[0][1][-1], wr * wr + wi * wi
        lr, li = _log(wr, wi, s, sign)
        wr = ar + lr // 3 - ((c1 * wr) << s) // nw
        wi = ai + li // 3 + ((c1 * wi) << s) // nw
        prev = s
        for s, tail, slope in steps:
            wr, wi = (wr << s) >> prev, (wi << s) >> prev
            prev = s
            nw = wr * wr + wi * wi
            if not nw:
                raise NonConvergenceError("Newton's method for F~ reached w = 0")
            # zeta = 2/w, log(+-w) and tail(zeta) (zeta times a Horner sum), at s
            qr, qi = (wr << (2 * s + 1)) // nw, -((wi << (2 * s + 1)) // nw)
            lr, li = _log(wr, wi, s, sign)
            tr, ti = _horner_complex(tail + (0,), qr, qi, s)
            gr = wr - lr // 3 + tr - (zr >> (S - s))
            gi = wi - li // 3 + ti - (zi >> (S - s))
            # g'(w) = 1 - zeta/6 - (zeta^2/2) tail'(zeta)
            pr, pi = _horner_complex(slope, qr, qi, s)
            sr, si = (qr * qr - qi * qi) >> s, (qr * qi) >> (s - 1)
            dr = (1 << s) - qr // 6 - ((sr * pr - si * pi) >> (s + 1))
            di = -(qi // 6) - ((sr * pi + si * pr) >> (s + 1))
            nd = dr * dr + di * di
            if not nd:
                raise NonConvergenceError("Newton's method for F~ reached g'(w) = 0")
            step_r = ((gr * dr + gi * di) << s) // nd
            step_i = ((gi * dr - gr * di) << s) // nd
            wr, wi = wr - step_r, wi - step_i
        limit = self.newton_limit
        if step_r * step_r + step_i * step_i > limit * limit:
            raise NonConvergenceError(
                "Newton's method for F~ did not settle",
                residual=math.hypot(step_r / (1 << S), step_i / (1 << S)),
            )
        return wr, wi

    def ftilde(self, z, k: int, plus: bool, chain: list | None = None):
        """F~ on the side plus, k steps of the walk from the base z.

        An empty or absent chain starts with the state of F~ = e(1 -
        zeta) at z, where alpha(zeta) = z + ln(2)/3: solved for w =
        2/zeta on scaled integers (invert_abel), one Newton step at each
        scale of newton_steps, the last at the kernel's own.  Its tail
        estimate, the Abel tail's last term at that zeta carried to F~ by
        dF/dalpha = e zeta^2/2, raises above tol.  The chain is then
        extended through step k, one step at a time (down for plus False,
        up for plus True), and chain[k] returned as a value; the step
        from a None lands at `zero` (evaluators._ftilde_eval).
        """
        if not chain:
            wr, wi = self.invert_abel(*_pair(z, self.scale), plus)
            w = self._unfix(wr) if isinstance(z, self.mp.mpf) else self._unfix_pair(wr, wi)
            zeta = 2 / w
            tail = self.tails[plus]
            last = self._unfix(abs(tail[0])) * abs(zeta) ** (len(tail) + 2) * self.e / 2
            if last > self.tol:
                raise NonConvergenceError(
                    "asymptotic tail above the target accuracy", residual=float(last)
                )
            if chain is None:
                chain = []
            chain.append(self.state(self.e * (1 - zeta)))
        s = chain[-1]
        for j in range(len(chain), k + 1):
            s = self.zero if s is None else self.step(s, j, not plus)
            chain.append(s)
        s = chain[k]
        return None if s is None else self.value(s)
