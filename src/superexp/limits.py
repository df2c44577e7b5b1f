"""Limit-formula estimators for the parabolic Abel function of h(u) = e^u - 1.

Three classical estimator families are implemented over a configurable
multiprecision backend:

* a ratio estimator built from two forward orbits (Levy),
* a binomial-transform estimator built from forward differences of one
  orbit (Newton),
* a log-corrected orbit-shift estimator, one flavour per petal
  (Fatou/Walker).

All of them converge (slowly, like powers of 1/n) to Abel-function values
at the parabolic fixed point 0 of h, and serve as independent oracles for
the asymptotic-series evaluators in :mod:`superexp.evaluators`.  The
convergence tables they produce are the benchmark artifacts of this
package.

Each estimator takes its orbit length (the Newton estimator its summand
count) as `n` and its width as a `PrecisionConfig`, the one precision
type of the package; an `n` that is not an integer (`require_count`) or
an orbit longer than 10^7 steps is refused, and an argument that is not
finite too (DomainError, from `precision._as_mp`).

Orbits decay like -2/n near the fixed point, so every kernel goes through
``expm1``/``log1p`` style evaluation; naive ``exp(u) - 1`` would lose all
significant digits long before n = 10^5.

Real orbits (``iterate_h``, ``iterate_h_inverse``, ``levy_abel``, the
Fatou estimators and the ``levy``/``fatou1``/``fatou2`` tables) step on one
Python integer per point, scaled by 2^(bits+32), with mpmath's fixed-point
``exp`` (and ``log`` backward): for them ``mantissa_bits`` sets an absolute
resolution of 2^-(bits+32), which keeps at least ``bits`` significant bits
while 2^-32 <= |u| < 64.  The estimators amplify the orbit's error by
about n^2/2, so their orbits of n <= 2^g steps take 2g bits more.  A
forward estimator orbit steps by its increment, u_(n+1) = u_n + (1 + u_n)
(e^d - 1) with d = u_n - u_(n-1) and e^d - 1 a short Taylor sum, and
takes a full ``exp`` step at every 16th index: a state is within 17
units of 2^-scale of the full step of its predecessor and, while the
orbit contracts (u < 0), within 19 n units of the orbit of full steps
after n steps, for which the orbit takes log2 16 = 4 bits more.  A point
outside that range, and every complex point, steps as an mpmath value at
``bits``.  A result converts the integer exactly, so ``iterate_h`` may
return up to bits + 38 significant bits, and, since its orbit takes a
full step per index, an orbit split in two ends where the whole orbit
does.

Arithmetic runs in private mpmath contexts (`mp_context`), never at
mpmath's global precision, so neither that setting nor another thread
changes a result; results leave as plain mpmath values (`plain`).  Those
helpers live in `superexp.precision`, which the evaluators import them
from: only the tables and the package's limit-formula names load this
module.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import mpmath
from mpmath.libmp import from_man_exp, int_types, mpf_log, to_fixed
from mpmath.libmp.libelefun import exp_fixed, ln2_fixed

from .errors import (
    DomainError,
    NonConvergenceError,
    OrbitOverflowError,
    PrecisionLossWarning,
    SuperexpError,
)
from .precision import (
    PrecisionConfig, _as_mp, mp_context, plain, require_config, require_count, round_trip_digits,
)

__all__ = [
    "PrecisionConfig",
    "ConvergenceRecord",
    "NewtonResult",
    "iterate_h",
    "iterate_h_inverse",
    "levy_abel",
    "levy_probe",
    "newton_superfunction",
    "fatou_abel",
    "fatou_probe",
    "fatou_probe_richardson",
    "convergence_table",
    "format_record",
    "records_to_csv",
]

Scalar = Union[int, float, complex, mpmath.mpf, mpmath.mpc]

# Forward orbits escaping to +infinity blow up as towers; one more step from
# here would already produce an exponent with ~1e8 bits.
_ESCAPE_RE = 1e8

# hard cap on orbit length; guards the table drivers against runaway n
_MAX_ITERATIONS = 10**7


@dataclass(frozen=True)
class ConvergenceRecord:
    """One table row: estimator value at orbit length n.

    ``error`` is None for clean rows; failed rows keep their n and carry a
    short error tag instead of a value.
    """

    n: int
    value: Optional[Scalar]
    method: str
    error: Optional[str] = None


@dataclass(frozen=True)
class NewtonResult:
    """Binomial-transform partial sum plus its cancellation diagnostics."""

    value: Scalar
    cancellation_warning: bool
    max_term: mpmath.mpf


def _tau_inv(ctx, z: Scalar):
    # fixed-point chart: tau(u) = e(u+1) maps 0 to e; inverse pulls
    # f-coordinates back to h-coordinates
    return _as_mp(ctx, z) / ctx.e - 1


def _bits(cfg) -> int:
    return require_config(cfg, PrecisionConfig, "cfg").mantissa_bits


def _check_n(n, least: int = 0) -> int:
    n = require_count(n, "orbit length", least)
    if n > _MAX_ITERATIONS:
        raise NonConvergenceError(
            f"orbit length {n} exceeds max_iterations={_MAX_ITERATIONS}"
        )
    return n


def _check_petal(petal: int, re) -> None:
    # a start on the wrong side of the fixed point 0 for its petal
    if petal == 1 and re >= 0:
        raise DomainError("petal-1 estimator needs Re(z) < 0 (attracting side)")
    if petal == 2 and re <= 0:
        raise DomainError("petal-2 estimator needs Re(z) > 0 (repelling side)")


def _check_escape(z, index: int) -> None:
    if z.real > _ESCAPE_RE:
        raise OrbitOverflowError(
            f"forward orbit escaped at step {index}", index=index
        )


def _h_step(ctx, z, index: int):
    _check_escape(z, index)
    if z.real < -_ESCAPE_RE:
        # e^z is under any orbit's resolution, and expm1 could take minutes
        # to reduce the Im z of a step off a tower (as wide.py's exp_step)
        return ctx.mpf(-1) if isinstance(z, ctx.mpf) else ctx.mpc(-1)
    return ctx.expm1(z)


def _f_step(ctx, z, index: int):
    _check_escape(z, index)
    if z.real < -_ESCAPE_RE:  # e^(z/e) lands at 0, as h lands at -1
        return ctx.mpf(0) if isinstance(z, ctx.mpf) else ctx.mpc(0)
    return ctx.exp(z / ctx.e)


def _h_inv_step(ctx, z, index: int):
    if isinstance(z, ctx.mpf) and z <= -1:
        raise DomainError(
            f"backward orbit left the domain (reached {mpmath.nstr(z, 8)} <= -1 "
            f"at step {index})"
        )
    return ctx.log1p(z)


# a real orbit point with 2^-_FIXED_GUARD <= |u| < 2^_FIXED_TOP steps on an
# integer scaled by 2^(bits + _FIXED_GUARD) and the estimators' guard bits
# (the module docstring gives the rule)
_FIXED_GUARD = 32
_FIXED_TOP = 6
# an estimator orbit's full steps: every _ANCHOR_EVERY-th index and each
# whose increment is not below 2^-_SMALL_STEP; _SUM_GUARD guard bits for
# the Taylor sum of an increment step
_ANCHOR_EVERY = 16
_SMALL_STEP = 12
_SUM_GUARD = 8


class _Orbits:
    """Orbits of h (or of its inverse) from a few points, in lockstep.

    Each state is a fixed-point integer (a real point in range; one of
    mpmath's ``int_types``, so an mpz under its gmpy backend) or a value
    of the orbit's context `mp` at `bits`, which steps by `_h_step`
    (`_h_inv_step`) and so keeps its escape (domain) check and index.
    Real orbits are monotone, so a state leaves the integer range at
    most once each way.  `estimator_n` is the orbit length a shift or
    ratio estimator divides by; its orbit carries 2 log2 n guard bits
    more.

    A forward step of an estimator orbit goes by its increment d = u_n -
    u_(n-1): since 1 + u_n = e^(u_(n-1)), u_(n+1) = u_n + (1 + u_n)(e^d -
    1), with e^d - 1 a short Taylor sum on the integers and the product
    rounded once at the scale.  Such a step keeps the defect of u_n, its
    distance from the full step of u_(n-1), and adds at most a unit of
    2^-scale to it; a full `exp_fixed` step leaves only its own
    rounding.  The full steps are every K-th index (K = _ANCHOR_EVERY =
    16), the first, a step whose predecessor is not an in-range integer
    and one whose |d| is not below 2^-12.  A state is then within K + 1
    units of the full step of its predecessor and, while the orbit
    contracts (u < 0, where a step shrinks a difference), within
    n (K + 3) units of the orbit of full steps after n steps; the scale
    carries log2 K bits more for it.  Backward orbits, and those of
    `iterate_h`, which returns its state, take a full step per index.
    """

    def __init__(self, points, bits: int, inverse: bool = False, estimator_n: int = 1):
        self.mp = mp_context(bits)
        # a full step at every index, but at every K-th on a forward
        # estimator orbit
        self._stride = _ANCHOR_EVERY if estimator_n > 1 and not inverse else 1
        self.scale = (bits + _FIXED_GUARD + 2 * (estimator_n - 1).bit_length()
                      + (self._stride - 1).bit_length())
        self._one = 1 << self.scale
        self._ln2 = ln2_fixed(self.scale)
        self._low = self.scale - _FIXED_GUARD
        self._high = self.scale + _FIXED_TOP
        self._small = self.scale - _SMALL_STEP
        self._inverse = inverse
        self.states = [self._enter(_as_mp(self.mp, p)) for p in points]
        # each state's predecessor, None before the first step
        self.previous = [None] * len(self.states)
        self.pos = 0

    def _enter(self, w):
        if isinstance(w, self.mp.mpf):
            _, man, exp, bc = w._mpf_
            if man and -_FIXED_GUARD < exp + bc <= _FIXED_TOP:
                return to_fixed(w._mpf_, self.scale)
        return w

    def step(self, w, index: int, previous=None):
        """One step of a state; `index` numbers it for the errors, and
        `previous`, the state before it, lets it go by its increment."""
        if isinstance(w, int_types):
            # the log's domain ends at u = -1
            in_range = self._low < w.bit_length() <= self._high and (
                not self._inverse or w > -self._one
            )
            if in_range:
                if self._inverse:
                    x = from_man_exp(w + self._one, -self.scale)
                    # |log(1 + u)| < 8, so 3 more bits reach 2^-scale,
                    # unless u < 1/e - 1 and the next step leaves the domain
                    return to_fixed(mpf_log(x, self.scale + 3), self.scale)
                # an in-range integer predecessor stepped to w on integers
                if (
                    index % self._stride
                    and isinstance(previous, int_types)
                    and self._low < previous.bit_length() <= self._high
                ):
                    d = w - previous
                    if d.bit_length() <= self._small:
                        return self._increment(w, d)
                return exp_fixed(w, self.scale, self._ln2) - self._one
            w = self.value(w)
        if self._inverse:
            return self._enter(_h_inv_step(self.mp, w, index))
        return self._enter(_h_step(self.mp, w, index))

    def _increment(self, w, d):
        # w + (1 + w)(e^d - 1), with e^d - 1 summed _SUM_GUARD bits finer
        # as its even terms plus d times its odd ones, d^2 a time: the
        # terms shrink below a unit after about scale/12 of them
        prec = self.scale + _SUM_GUARD
        d <<= _SUM_GUARD
        square = d * d >> prec
        term, even, odd, k = square, 0, 1 << prec, 2
        while term:
            term //= k
            even += term
            term //= k + 1
            odd += term
            k += 2
            term = term * square >> prec
        return w + ((self._one + w) * (even + (odd * d >> prec)) >> prec)

    def run_to(self, n: int) -> None:
        states, previous = self.states, self.previous
        for i in range(self.pos, n):
            for k, w in enumerate(states):
                states[k] = self.step(w, i, previous[k])
                previous[k] = w
        self.pos = n

    def value(self, w):
        """A state as a value of the orbit's context, an integer exactly."""
        if isinstance(w, int_types):
            return self.mp.make_mpf(from_man_exp(w, -self.scale))
        return w

    def values(self) -> list:
        return [self.value(w) for w in self.states]


def iterate_h(z: Scalar, n: int, cfg: PrecisionConfig = PrecisionConfig()):
    """Forward orbit h^[n](z) with cancellation-safe steps.

    Raises
    ------
    OrbitOverflowError
        If the orbit escapes to +infinity; carries the escape index.
    """
    n = _check_n(n)
    orbit = _Orbits([z], _bits(cfg))
    orbit.run_to(n)
    return plain(orbit.values()[0])


def iterate_h_inverse(z: Scalar, n: int, cfg: PrecisionConfig = PrecisionConfig()):
    """Backward orbit h^[-n](z) via repeated log1p.

    The principal inverse branch is used throughout, so real arguments must
    stay right of the logarithmic singularity at -1.
    """
    n = _check_n(n)
    orbit = _Orbits([z], _bits(cfg), inverse=True)
    orbit.run_to(n)
    return plain(orbit.values()[0])


def levy_abel(
    z: Scalar, u: Scalar, n: int, cfg: PrecisionConfig = PrecisionConfig()
):
    """Ratio estimator (h^[n](z) - h^[n](u)) / (h^[n+1](u) - h^[n](u)).

    Converges to the difference of Abel-function values at z and u: the
    n-th row of the ``levy`` table's pass, from z and u in h-coordinates.
    The denominator shrinks like 2/n^2.  A real orbit steps on integers
    with 2 log2 n guard bits, which its differences keep; an orbit on
    mpmath values (complex, or within 2^-32 of 0) does not, so such a row
    warns PrecisionLossWarning, at the caller's line, once its denominator
    falls below 2^(-mantissa/2) of the numerator scale, in a table too.
    OrbitOverflowError reports either orbit escaping by step n.
    """
    ns, bits = _check_rows("levy", [n]), _bits(cfg)
    return plain(_read_rows("levy", [z, u], ns, bits)[0])


def _ratio_terms(orbits: _Orbits, n: int) -> tuple:
    # numerator and denominator of the ratio estimator from the orbits of
    # z and u at step n, and whether they are exact differences: they are
    # when the states are integers
    z, u = orbits.states
    # an escaped h^[n](z) makes the ratio tower-sized: report the escape
    _check_escape(orbits.value(z), n)
    u1 = orbits.step(u, n, orbits.previous[1])
    exact = all(isinstance(w, int_types) for w in (z, u, u1))
    if exact:
        num, den = orbits.value(z - u), orbits.value(u1 - u)
    else:
        zw, uw = orbits.values()
        num, den = zw - uw, orbits.value(u1) - uw
    if den == 0:
        raise NonConvergenceError("degenerate step: h^[n+1](u) == h^[n](u)")
    return num, den, exact


def _shift_value(orbits: _Orbits):
    # -2/a + 2/b - 1; on integer states A = a 2^s, B = b 2^s as
    # (2(A - B) 2^s - AB)/(AB), rounded once, since the two quotients grow
    # like n and cancel
    a, b = orbits.states
    if isinstance(a, int_types) and isinstance(b, int_types):
        ab = a * b
        twice = (a - b) << (orbits.scale + 1)
        return orbits.value(twice - ab) / orbits.value(ab)
    a, b = orbits.values()
    if a == 0 or b == 0:
        # tau_inv(e) is the fixed point itself, whose orbit never moves
        raise DomainError("shift probe from the fixed point: its orbit stays at 0")
    return -2 / a + 2 / b - 1


def levy_probe(
    zf: Scalar, uf: Scalar, n: int, cfg: PrecisionConfig = PrecisionConfig()
):
    """Ratio estimator with arguments given in exp(z/e)-coordinates.

    Pulls both points back through the fixed-point chart and runs
    :func:`levy_abel`; ``levy_probe(-1, 1, n)`` is the benchmark-table
    sequence converging to the normalized super-logarithm at -1.
    """
    ctx = mp_context(_bits(cfg))
    return levy_abel(_tau_inv(ctx, zf), _tau_inv(ctx, uf), n, cfg)


def newton_superfunction(
    u: Scalar,
    t: Scalar,
    n: int,
    cfg: PrecisionConfig = PrecisionConfig(),
    base_map: str = "h",
) -> NewtonResult:
    """Binomial-transform estimator sum_{k<n} C(t,k) Delta^k[orbit](0).

    The inner alternating sums sum_m C(k,m)(-1)^(k-m) base^[m](u) are
    the forward differences of the orbit, taken at full working precision
    (no compensated-summation shortcut: the whole point of the
    mantissa_bits knob is to absorb the cancellation).  This is the n-th
    row of the ``newton`` table's pass.

    Parameters
    ----------
    n : int
        Number of summands, at least 1; the orbit runs n - 1 steps.
    base_map : {"h", "f"}
        Which orbit to difference: "h" iterates u -> e^u - 1 (the default,
        matching the h-coordinate Abel problem), "f" iterates
        u -> e^(u/e), whose orbits stay bounded on the attracting side and
        support the slow-convergence demonstration at u = 1.

    Returns
    -------
    NewtonResult
        value, a cancellation flag (running-max summand exceeded the
        result by more than half the mantissa), and the max summand size.
    """
    ns = _check_rows("newton", [n], base_map)
    (result,) = _newton_pass(u, t, ns, _bits(cfg), base_map)
    return result


def _newton_pass(u: Scalar, t: Scalar, ns: list, bits: int, base_map: str):
    # the estimator at each n of the ascending ns, one summand a time: step
    # k appends orbit point k and extends the difference table's last
    # diagonal d_j = Delta^j[orbit](k - j) by the subtractions the whole
    # table makes (d_j is the new d_(j-1) less the old), so d_k is
    # Delta^k[orbit](0) bit for bit
    ctx = mp_context(bits)
    uw, tw = _as_mp(ctx, u), _as_mp(ctx, t)
    # C(t, k) vanishes for k > t at nonnegative integer t: the transform
    # terminates and the orbit tail (which may overflow) is never needed
    terms = ns[-1]
    if ctx.im(tw) == 0 and tw == ctx.floor(tw) and tw >= 0:
        terms = min(terms, int(tw) + 1)
    step = _h_step if base_map == "h" else _f_step
    diagonal, total, binom, k = [uw], uw, ctx.mpf(1), 0
    max_term = abs(total)
    for n in ns:
        while k + 1 < min(n, terms):
            k += 1
            d = step(ctx, diagonal[0], k - 1)
            for j, old in enumerate(diagonal):
                diagonal[j], d = d, d - old
            diagonal.append(d)
            binom = binom * (tw - (k - 1)) / k
            term = binom * d
            total += term
            max_term = max(max_term, abs(term))
        floor = abs(total) * ctx.mpf(2) ** (bits // 2)
        yield NewtonResult(
            value=plain(total),
            cancellation_warning=bool(max_term > floor),
            max_term=plain(max_term),
        )


def fatou_abel(
    z: Scalar, petal: int, n: int, cfg: PrecisionConfig = PrecisionConfig()
):
    """Log-corrected orbit-shift estimator for one petal's Abel value.

    Petal 1 (attracting, Re z < 0): -(1/3) log n - 2/h^[n](z) - n.
    Petal 2 (repelling, Re z > 0): -(1/3) log n - 2/h^[-n](z) + n.

    The two shifted sequences converge to the regular Abel function of the
    respective petal, up to that petal's fixed normalization.  On a real
    orbit's integer state W = w 2^s, -2/w -+ n, whose two terms grow like
    n and cancel, is rounded once as (-+n W - 2^(s+1))/W.
    """
    if petal not in (1, 2):
        raise ValueError("petal must be 1 or 2")
    n, bits = _check_n(n, 1), _bits(cfg)
    ctx = mp_context(bits)
    zw = _as_mp(ctx, z)
    _check_petal(petal, zw.real)
    sign = 1 if petal == 2 else -1
    orbit = _Orbits([zw], bits, inverse=petal == 2, estimator_n=n)
    orbit.run_to(n)
    (w,) = orbit.states
    if isinstance(w, int_types):
        shifted = sign * n * w - (2 << orbit.scale)
        return plain(-ctx.log(n) / 3 + orbit.value(shifted) / orbit.value(w))
    return plain(-ctx.log(n) / 3 - 2 / w + sign * n)


def fatou_probe(zf: Scalar, n: int, cfg: PrecisionConfig = PrecisionConfig()):
    """Petal-1 shift estimator re-based at 0, in exp(z/e)-coordinates.

    Computes -2/h^[n](tau_inv(zf)) + 2/h^[n](tau_inv(0)) - 1 in one fused
    orbit pass; the log n and n terms of the two petal-1 estimators cancel.
    This is the benchmark-table sequence converging to the normalized
    super-logarithm at zf, and the n-th row of the ``fatou1`` table's pass.
    """
    ns, bits = _check_rows("fatou1", [n]), _bits(cfg)
    return plain(_read_rows("fatou1", [_tau_inv(mp_context(bits), zf)], ns, bits)[0])


def fatou_probe_richardson(
    zf: Scalar, n: int, cfg: PrecisionConfig = PrecisionConfig()
):
    """First-order Richardson extrapolation 2 y(n) - y(n/2) of the probe.

    The probe converges like a/n + O(1/n^2); the extrapolation removes the
    a/n term and tightens the tail to O(1/n^2).  n must be even; y(n/2)
    and y(n) are two rows of one ``fatou1`` pass of n steps.
    """
    n, bits = _check_n(n), _bits(cfg)
    if n % 2 or n < 2:
        raise ValueError("Richardson step needs an even n >= 2")
    start = _tau_inv(mp_context(bits), zf)
    y_half, y_full = _read_rows("fatou1", [start], [n // 2, n], bits)
    return plain(2 * y_full - y_half)


# --- table drivers ---------------------------------------------------------

# the probe tables' printed decimals by block of n (each block's end, its
# decimals), rounded (levy) or truncated toward zero (fatou1); every
# other row prints 12 significant digits
_PRINTED = {
    "levy": (True, ((1000, 4), (10000, 6), (100000, 7), (math.inf, 8))),
    "fatou1": (False, ((10000, 7), (100000, 9), (math.inf, 11))),
}


def _value_bits(value) -> int:
    # the mantissa bits of a record value, a plain mpf or mpc, at least 53
    if isinstance(value, mpmath.mpc):
        return max(_value_bits(value.real), _value_bits(value.imag))
    return max(53, value._mpf_[3])


def _printed(method: str, n: int, value) -> str:
    if mpmath.im(value) != 0:
        return mpmath.nstr(value, 12)
    real = mpmath.re(value)
    if method not in _PRINTED:
        return mpmath.nstr(real, 12)
    rounds, blocks = _PRINTED[method]
    decimals = next(d for end, d in blocks if n < end)
    ctx = mp_context(_value_bits(real) + 32)
    scaled = ctx.mpf(10) ** decimals * abs(ctx.convert(real))
    q = int(ctx.nint(scaled) if rounds else ctx.floor(scaled))
    # a value truncated to zero keeps its sign, one rounded to zero not
    sign = "-" if real < 0 and (q or not rounds) else ""
    # str(int) refuses more than 4300 digits, mpmath's numeral splits the
    # number below that
    digits = mpmath.libmp.numeral(q, 10, q.bit_length() * 3 // 10 + 1)
    digits = digits.rjust(decimals + 1, "0")
    return f"{sign}{digits[:-decimals]}.{digits[-decimals:]}"


# the fewest and the most estimator arguments each table method takes
_ARITY = {"levy": (2, 2), "fatou1": (1, 1), "fatou2": (2, 2), "newton": (2, 3)}


def _check_rows(method: str, ns: list, base_map: str = "h") -> list:
    # every n by the count rule; they ascend, so the last bounds every orbit
    # (newton's runs n - 1 steps): a bad n refuses the table before any row
    name = "summand count" if method == "newton" else "orbit length"
    ns = [require_count(n, name, 0 if method == "levy" else 1) for n in ns]
    if sorted(ns) != ns:
        raise ValueError("n_list must be ascending")
    if method == "newton" and base_map not in ("h", "f"):
        raise ValueError(f"unknown base_map {base_map!r}")
    if ns:
        _check_n(ns[-1] - 1 if method == "newton" else ns[-1])
    return ns


def _orbit_pass(method: str, starts: list, ns: list, bits: int):
    # the levy, fatou1 or fatou2 value at each n of ns, from one orbit pass
    # of the starts in h-coordinates; a row's own failure is its value, a
    # failed step ends the pass.  fatou1 probes against -1 (0 in the chart)
    starts = (*starts, -1)[:2]
    # a petal-2 start left of the fixed point fails every row
    if method == "fatou2":
        _check_petal(2, min(w.real for w in starts))
    orbits = _Orbits(starts, bits, inverse=method == "fatou2", estimator_n=ns[-1])
    for n in ns:
        orbits.run_to(n)
        try:
            if method == "levy":
                num, den, exact = _ratio_terms(orbits, n)
                if not exact and abs(den) < orbits.mp.mpf(2) ** -(bits // 2) * max(1, abs(num)):
                    warnings.warn(f"ratio denominator below half-precision floor at n={n}",
                                  PrecisionLossWarning, stacklevel=_caller_level(sys._getframe()))
                value = num / den
            elif method == "fatou1":
                value = _shift_value(orbits)
            else:
                # the two petal-2 estimators' log n and n cancel as well
                value = _shift_value(orbits) + 1
        except SuperexpError as exc:
            value = exc
        yield value


def _caller_level(frame) -> int:
    # warnings.warn's stacklevel, in `frame`, of the first frame outside this
    # module: the line that called the public function
    return 1 + _caller_level(frame.f_back) if frame.f_globals is globals() else 1


def _read_rows(method: str, starts: list, ns: list, bits: int) -> list:
    # the rows of one _orbit_pass, values at `bits`; a failed row raises
    rows = list(_orbit_pass(method, starts, ns, bits))
    for row in rows:
        if isinstance(row, SuperexpError):
            raise row
    return rows


def convergence_table(
    method: str,
    args: Sequence[Scalar],
    n_list: Iterable[int],
    cfg: PrecisionConfig = PrecisionConfig(),
) -> list[ConvergenceRecord]:
    """Run one estimator over ascending n, in a single pass.

    Methods
    -------
    ``levy``   args (zf, uf): ratio probe rows, exp(z/e)-coordinates.
    ``fatou1`` args (zf,): petal-1 shift probe rows re-based at 0.
    ``fatou2`` args (zf, uf): difference of petal-2 estimators at the two
               points (backward orbits).
    ``newton`` args (u, t) or (u, t, base_map): partial sums with n terms.

    Failed rows are recorded with an error tag instead of aborting the
    table; an orbit step that fails fails every later row too.  An
    unknown method, a count of `args` the method does not take or an n it
    does not take raises ValueError, and an n past the orbit cap
    NonConvergenceError; a numeric argument that is not finite raises
    DomainError.  Each raises before any row runs.
    """
    if method not in _ARITY:
        raise ValueError(f"unknown method {method!r}")
    fewest, most = _ARITY[method]
    if not fewest <= len(args) <= most:
        takes = f"{fewest}" if fewest == most else f"{fewest} or {most}"
        raise ValueError(
            f"{method} takes {takes} argument{'s' if most > 1 else ''},"
            f" got {len(args)}"
        )
    bits = _bits(cfg)
    ctx = mp_context(bits)
    # the numeric arguments (newton's third is a map's name)
    points = [_as_mp(ctx, a) for a in args[:2]]
    base_map = args[2] if len(args) > 2 else "h"
    ns = _check_rows(method, list(n_list), base_map)
    if not ns:
        return []
    if method == "newton":
        sums = _newton_pass(*points, ns, bits, base_map)
        rows = (result.value for result in sums)
    else:
        rows = _orbit_pass(method, [_tau_inv(ctx, p) for p in points], ns, bits)
    records: list[ConvergenceRecord] = []
    failed = None
    for n in ns:
        try:
            value = failed or next(rows)
        except SuperexpError as exc:
            value = failed = exc
        if isinstance(value, SuperexpError):
            records.append(ConvergenceRecord(n, None, method, value.code))
        else:
            records.append(ConvergenceRecord(n, plain(value), method))
    return records


def format_record(
    rec: ConvergenceRecord,
) -> tuple[Optional[str], Optional[str]]:
    """A row's value as a round-trip decimal and as its table prints it.

    Both strings are None for a failed row, whose `error` carries the tag.
    """
    if rec.error is not None:
        return None, None
    value = mpmath.nstr(
        rec.value, round_trip_digits(_value_bits(rec.value)),
        strip_zeros=True, min_fixed=1, max_fixed=0,
    )
    return value.replace(" ", ""), _printed(rec.method, rec.n, rec.value)


def records_to_csv(records: Sequence[ConvergenceRecord]) -> str:
    """Serialize records as ``method,n,value,printed`` CSV.

    The value column is a round-trip decimal of the high-precision result;
    failed rows leave it empty and put the error tag in the printed column.
    """
    lines = ["method,n,value,printed"]
    for rec in records:
        value, printed = format_record(rec)
        if rec.error is not None:
            lines.append(f"{rec.method},{rec.n},,{rec.error}")
        else:
            lines.append(f"{rec.method},{rec.n},{value},{printed}")
    return "\n".join(lines) + "\n"
