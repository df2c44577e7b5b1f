"""Scaled-integer arithmetic of the mpmath kernel.

A real number x at scale s is the Python integer x * 2^s, rounded or
truncated; a complex one is a pair of them.  The kernel sums the Abel series by
Horner's rule on such integers, and finds F~ at a base point by Newton's
method on them (`invert_abel`), one step at each scale of its plan
(evaluators._newton_plan), each twice the last up to its own, so that
only the last sum runs at full width.  Its walks step on them too
(`WalkSteps`).
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


def pair(x, scale: int) -> tuple:
    """(re, im) of an mpf or mpc as integers at `scale`."""
    if hasattr(x, "_mpf_"):
        return to_fixed(x._mpf_, scale), 0
    return tuple(to_fixed(part, scale) for part in x._mpc_)


def horner_complex(coeffs, xr: int, xi: int, scale: int) -> tuple:
    """Integer coefficients, highest power first, at a complex point."""
    ar = ai = 0
    for c in coeffs:
        ar, ai = ((ar * xr - ai * xi) >> scale) + c, (ar * xi + ai * xr) >> scale
    return ar, ai


def _log(wr: int, wi: int, s: int, sign: int) -> tuple:
    # log(sign w) at scale s, taken 8 bits past it
    parts = (from_man_exp(sign * wr, -s), from_man_exp(sign * wi, -s))
    return tuple(to_fixed(part, s) for part in mpc_log(parts, s + 8))


def invert_abel(zr: int, zi: int, steps: tuple, plus: bool, limit: int) -> tuple:
    """w at the last step's scale with w - log(+-w)/3 + tail(2/w) = z.

    That is the Abel series alpha(zeta) = 2/zeta + log(+-zeta)/3 +
    tail(zeta) equal to z + ln(2)/3 at zeta = 2/w, where the ln(2)/3
    cancels; z is given at the last scale.  Newton's method starts from
    two logarithms at the first scale, w0 = z + log(+-z)/3 and then
    w = z + log(+-w0)/3 - 2 c_1/w0, and takes one step at each scale s
    of `steps`, the (s, tail, slope) of evaluators._newton_plan.  A last
    step above `limit` units raises NonConvergenceError, carrying it.
    """
    sign = -1 if plus else 1
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
        tr, ti = horner_complex(tail + (0,), qr, qi, s)
        gr = wr - lr // 3 + tr - (zr >> (S - s))
        gi = wi - li // 3 + ti - (zi >> (S - s))
        # g'(w) = 1 - zeta/6 - (zeta^2/2) tail'(zeta)
        pr, pi = horner_complex(slope, qr, qi, s)
        sr, si = (qr * qr - qi * qi) >> s, (qr * qi) >> (s - 1)
        dr = (1 << s) - qr // 6 - ((sr * pr - si * pi) >> (s + 1))
        di = -(qi // 6) - ((sr * pi + si * pr) >> (s + 1))
        nd = dr * dr + di * di
        if not nd:
            raise NonConvergenceError("Newton's method for F~ reached g'(w) = 0")
        step_r = ((gr * dr + gi * di) << s) // nd
        step_i = ((gi * dr - gr * di) << s) // nd
        wr, wi = wr - step_r, wi - step_i
    if step_r * step_r + step_i * step_i > limit * limit:
        raise NonConvergenceError(
            "Newton's method for F~ did not settle",
            residual=math.hypot(step_r / (1 << S), step_i / (1 << S)),
        )
    return wr, wi


class WalkSteps:
    """Steps of z -> e^(z/e) and of its inverse e log z at one scale.

    A walk state is (re, im) at the scale, im None for a real one.  It
    is in range while each part of w/e is below 64, so that the
    reductions of exp and cos/sin stay within a few units, and some part
    of w is at least 2^-32, so that the resolution 2^-scale is at most
    2^(32 - scale) of |w|.  A forward step stays on the integers only
    while Re w/e >= -31 ln 2, which keeps its value in range: below
    that, e^(w/e) at a resolution of 2^-scale would lose a bit for
    each halving.  The constants are built once, here.
    """

    def __init__(self, scale: int, radius: float):
        self.scale = scale
        self.e = e_fixed(scale)
        self.inv_e = (1 << 2 * scale) // self.e
        self.ln2, self.pi2 = ln2_fixed(scale), pi_fixed(scale - 1)
        # the Abel disk |1 - w/e| < radius is |e - w|^2 < (e r)^2 at 2 scale
        self.r2 = int((self.e * Fraction(radius)) ** 2)
        self.low, self.top = 1 << (scale - 32), 64 * self.e
        self.floor = -((31 * self.ln2 * self.e) >> scale)

    def enter(self, parts):
        """The state of raw mpf parts (one for a real value), or None
        when it is out of range."""
        # exponent + bit count above 8 is a part of 256 or more: out of
        # range, and converting it could make a huge integer
        if all(p[2] + p[3] <= 8 for p in parts):
            ints = [to_fixed(p, self.scale) for p in parts]
            if self.low <= max(map(abs, ints)) < self.top:
                return ints[0], (ints[1] if len(ints) > 1 else None)
        return None

    def step(self, state: tuple, backward: bool):
        """e^(w/e), or e log w if backward, as a state; None for a state
        out of range, for a forward step from Re w/e below -31 ln 2 and
        for a backward step on the cut (im 0, re <= 0).

        log|w| and arg w are taken on raw mpfs 8 bits past the scale, so
        that |log w| < 256 is within a unit of it.
        """
        wr, wi = state
        if not self.low <= max(abs(wr), abs(wi or 0)) < self.top:
            return None
        S = self.scale
        if not backward:
            if wr < self.floor:
                return None
            v = exp_fixed((wr * self.inv_e) >> S, S, self.ln2)
            if wi is None:
                return v, None
            c, s = cos_sin_fixed((wi * self.inv_e) >> S, S, self.pi2)
            return (v * c) >> S, (v * s) >> S
        if not (wi or wr > 0):
            return None
        prec, a = S + 8, from_man_exp(wr, -S)
        if wi is None:
            return (to_fixed(mpf_log(a, prec), S) * self.e) >> S, None
        b = from_man_exp(wi, -S)
        lr = to_fixed(mpf_log_hypot(a, b, prec, "n"), S)
        li = to_fixed(mpf_atan2(b, a, prec, "n"), S)
        return (lr * self.e) >> S, (li * self.e) >> S

    def outside(self, state: tuple) -> bool:
        """Whether the state is outside the Abel disk."""
        dr, wi = self.e - state[0], state[1] or 0
        return dr * dr + wi * wi >= self.r2
