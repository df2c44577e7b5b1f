"""Scaled-integer arithmetic of the mpmath kernel.

A real number x at scale s is the Python integer x * 2^s, rounded or
truncated; a complex one is a pair of them.  The kernel sums the Abel series by
Horner's rule on such integers, and finds F~ at a base point by Newton's
method on them (`invert_abel`), at scales that double up to its own, so
that only the last two or three sums run at full width.  Its walks step
on them too (`WalkSteps`).
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

# Newton on F~: the scale it starts at is at most NEWTON_FIRST; it may
# add NEWTON_EXTRA full-scale steps after the doubling ones; it has
# settled once the residual is within NEWTON_SETTLED units of 2^-scale
NEWTON_FIRST = 16
NEWTON_EXTRA = 3
NEWTON_SETTLED = 1 << 8


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


def newton_plan(rev, scale: int, radius: float) -> tuple:
    """Per Newton scale s, ascending: (s, tail, slope), shifted to s.

    `rev` holds the Abel tail coefficients c_n at `scale`, highest n
    first; `tail` is them with a trailing zero (a Horner sum of it is
    zeta times the sum of c_n zeta^(n-1)), `slope` the n c_n of its
    derivative.  Below the full scale a table drops its leading terms
    while they stay under the step's resolution at the disk radius:
    2^-(s+4) for the tail, and 2^-(s/2+8) for the slope, which enters
    g' times zeta^2/2 and needs half the bits.  Each scale is about
    twice the last, from at most NEWTON_FIRST bits.
    """
    scales = [scale]
    while scales[-1] > NEWTON_FIRST:
        scales.append((scales[-1] + 1) // 2)
    log_r = math.log2(radius)
    ns = range(len(rev), 0, -1)
    slope = tuple(n * c for n, c in zip(ns, rev))
    # log2 of |c_n| r^n and of n |c_n| r^(n+1) / 2
    sizes = [math.log2(abs(c) or 1) - scale + n * log_r for n, c in zip(ns, rev)]
    slopes = [v + math.log2(n) + log_r - 1 for n, v in zip(ns, sizes)]

    def shifted(coeffs, s, sizes, floor):
        drop = 0
        while drop < len(coeffs) - 1 and sizes[drop] < floor:
            drop += 1
        return tuple(c >> (scale - s) for c in coeffs[drop:])

    return tuple(
        (s,
         shifted(rev, s, sizes, -(s + 4) if s < scale else -math.inf) + (0,),
         shifted(slope, s, slopes, -(s // 2 + 8)))
        for s in reversed(scales)
    )


def invert_abel(zr: int, zi: int, plan: tuple, plus: bool) -> tuple:
    """w at the plan's last scale with w - log(+-w)/3 + tail(2/w) = z.

    That is the Abel series alpha(zeta) = 2/zeta + log(+-zeta)/3 +
    tail(zeta) equal to z + ln(2)/3 at zeta = 2/w, where the ln(2)/3
    cancels; z is given at the last scale.  Newton's method starts from
    w = z and runs one step per plan scale, then full-scale steps until
    g(w) is within NEWTON_SETTLED units; NonConvergenceError, carrying
    the last step, if NEWTON_EXTRA of them do not get there.
    """
    sign = -1 if plus else 1
    S = prev = plan[-1][0]
    wr, wi = zr, zi
    for s, tail, slope in plan + plan[-1:] * NEWTON_EXTRA:
        wr, wi = (wr << s) >> prev, (wi << s) >> prev
        prev = s
        nw = wr * wr + wi * wi
        if not nw:
            raise NonConvergenceError("Newton's method for F~ reached w = 0")
        # zeta = 2/w and log(+-w), at scale s
        qr, qi = (wr << (2 * s + 1)) // nw, -((wi << (2 * s + 1)) // nw)
        lr, li = (
            to_fixed(part, s)
            for part in mpc_log(
                (from_man_exp(sign * wr, -s), from_man_exp(sign * wi, -s)), s + 8
            )
        )
        tr, ti = horner_complex(tail, qr, qi, s)
        gr = wr - lr // 3 + tr - (zr >> (S - s))
        gi = wi - li // 3 + ti - (zi >> (S - s))
        if s == S and abs(gr) <= NEWTON_SETTLED and abs(gi) <= NEWTON_SETTLED:
            return wr, wi
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
    raise NonConvergenceError(
        "Newton's method for F~ did not settle",
        residual=math.hypot(step_r / (1 << S), step_i / (1 << S)),
    )


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
