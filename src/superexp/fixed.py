"""Scaled-integer arithmetic of the mpmath kernel.

A real number x at scale s is the Python integer x * 2^s, rounded or
truncated; a complex one is a pair of them.  The kernel sums the Abel series by
Horner's rule on such integers, and finds F~ at a base point by Newton's
method on them (`invert_abel`), at scales that double up to its own, so
that only the last two or three sums run at full width.
"""

from __future__ import annotations

import math

from mpmath.libmp import from_man_exp, mpc_log, to_fixed

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
