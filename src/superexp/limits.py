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
about n^2/2, so their orbits of n <= 2^g steps take 2g bits more.  A point
outside that range, and every complex point, steps as an mpmath value at
``bits``.  A result converts the integer exactly, so ``iterate_h`` may
return up to bits + 38 significant bits, and an orbit split in two ends
where the whole orbit does.

Arithmetic runs in private mpmath contexts (`mp_context`), never at
mpmath's global precision, so neither that setting nor another thread
changes a result; results leave as plain mpmath values (`plain`).  Those
helpers live in `superexp.precision`, which the evaluators import them
from: only the tables and the package's limit-formula names load this
module.
"""

from __future__ import annotations

import math
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
    PrecisionConfig, _as_mp, mp_context, plain, require_count, round_trip_digits,
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


def _check_n(n, least: int = 0) -> int:
    n = require_count(n, "orbit length", least)
    if n > _MAX_ITERATIONS:
        raise NonConvergenceError(
            f"orbit length {n} exceeds max_iterations={_MAX_ITERATIONS}"
        )
    return n


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
# integer scaled by 2^(bits + _FIXED_GUARD); the absolute resolution then
# keeps at least `bits` significant bits.  The shift and ratio estimators
# amplify the absolute error of an n-step orbit by about n^2/2, so their
# orbits take 2 log2 n more
_FIXED_GUARD = 32
_FIXED_TOP = 6


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
    """

    def __init__(self, points, bits: int, inverse: bool = False, estimator_n: int = 1):
        self.mp = mp_context(bits)
        self.scale = bits + _FIXED_GUARD + 2 * (estimator_n - 1).bit_length()
        self._one = 1 << self.scale
        self._ln2 = ln2_fixed(self.scale)
        self._low = self.scale - _FIXED_GUARD
        self._high = self.scale + _FIXED_TOP
        self._inverse = inverse
        self.states = [self._enter(_as_mp(self.mp, p)) for p in points]
        self.pos = 0

    def _enter(self, w):
        if isinstance(w, self.mp.mpf):
            _, man, exp, bc = w._mpf_
            if man and -_FIXED_GUARD < exp + bc <= _FIXED_TOP:
                return to_fixed(w._mpf_, self.scale)
        return w

    def step(self, w, index: int):
        """One step of a state; `index` numbers it for the errors."""
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
                return exp_fixed(w, self.scale, self._ln2) - self._one
            w = self.value(w)
        if self._inverse:
            return self._enter(_h_inv_step(self.mp, w, index))
        return self._enter(_h_step(self.mp, w, index))

    def run_to(self, n: int) -> None:
        states = self.states
        for i in range(self.pos, n):
            for k, w in enumerate(states):
                states[k] = self.step(w, i)
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
    orbit = _Orbits([z], cfg.mantissa_bits)
    orbit.run_to(n)
    return plain(orbit.values()[0])


def iterate_h_inverse(z: Scalar, n: int, cfg: PrecisionConfig = PrecisionConfig()):
    """Backward orbit h^[-n](z) via repeated log1p.

    The principal inverse branch is used throughout, so real arguments must
    stay right of the logarithmic singularity at -1.
    """
    n = _check_n(n)
    orbit = _Orbits([z], cfg.mantissa_bits, inverse=True)
    orbit.run_to(n)
    return plain(orbit.values()[0])


def levy_abel(
    z: Scalar, u: Scalar, n: int, cfg: PrecisionConfig = PrecisionConfig()
):
    """Ratio estimator (h^[n](z) - h^[n](u)) / (h^[n+1](u) - h^[n](u)).

    Converges to the difference of Abel-function values at z and u.  The
    denominator shrinks like 2/n^2.  A real orbit steps on integers with
    2 log2 n guard bits, which its differences keep; an orbit stepping on
    mpmath values (a complex one) does not, so double-precision use is
    possible but flagged: a PrecisionLossWarning is emitted once its
    denominator falls below 2^(-mantissa/2) of the numerator scale.
    OrbitOverflowError reports either orbit escaping by step n.
    """
    n = _check_n(n)
    orbits = _Orbits([z, u], cfg.mantissa_bits, estimator_n=n)
    orbits.run_to(n)
    num, den, exact = _ratio_terms(orbits, n)
    scale = max(orbits.mp.mpf(1), abs(num))
    if not exact and abs(den) < orbits.mp.mpf(2) ** (-(cfg.mantissa_bits // 2)) * scale:
        warnings.warn(
            f"ratio denominator below half-precision floor at n={n}",
            PrecisionLossWarning,
            stacklevel=2,
        )
    return plain(num / den)


def _ratio_terms(orbits: _Orbits, n: int) -> tuple:
    # numerator and denominator of the ratio estimator from the orbits of
    # z and u at step n, and whether they are exact differences: they are
    # when the states are integers
    z, u = orbits.states
    # an escaped h^[n](z) makes the ratio tower-sized: report the escape
    _check_escape(orbits.value(z), n)
    u1 = orbits.step(u, n)
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
    ctx = mp_context(cfg.mantissa_bits)
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
    (result,) = _newton_pass(u, t, ns, cfg.mantissa_bits, base_map)
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
    n = _check_n(n, 1)
    ctx = mp_context(cfg.mantissa_bits)
    zw = _as_mp(ctx, z)
    re = zw.real
    if petal == 1 and re >= 0:
        raise DomainError("petal-1 estimator needs Re(z) < 0 (attracting side)")
    if petal == 2 and re <= 0:
        raise DomainError("petal-2 estimator needs Re(z) > 0 (repelling side)")
    sign = 1 if petal == 2 else -1
    orbit = _Orbits([zw], cfg.mantissa_bits, inverse=petal == 2, estimator_n=n)
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
    ns, bits = _check_rows("fatou1", [n]), cfg.mantissa_bits
    (value,) = _orbit_pass("fatou1", mp_context(bits), [zf], ns, bits)
    if isinstance(value, SuperexpError):
        raise value
    return plain(value)


def fatou_probe_richardson(
    zf: Scalar, n: int, cfg: PrecisionConfig = PrecisionConfig()
):
    """First-order Richardson extrapolation 2 y(n) - y(n/2) of the probe.

    The probe converges like a/n + O(1/n^2); the extrapolation removes the
    a/n term and tightens the tail to O(1/n^2).  n must be even.
    """
    n = _check_n(n)
    if n % 2 or n < 2:
        raise ValueError("Richardson step needs an even n >= 2")
    ctx = mp_context(cfg.mantissa_bits)
    y_half = ctx.convert(fatou_probe(zf, n // 2, cfg))
    y_full = ctx.convert(fatou_probe(zf, n, cfg))
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
    def bits(x) -> int:
        try:
            return max(53, x._mpf_[3])
        except (AttributeError, IndexError):
            return 53

    if isinstance(value, mpmath.mpc):
        return max(bits(value.real), bits(value.imag))
    return bits(value)


def _printed(method: str, n: int, value) -> str:
    if value is None:
        return ""
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


def _orbit_pass(method: str, ctx, points: list, ns: list, bits: int):
    # the levy, fatou1 or fatou2 value at each n of ns, from one orbit
    # pass; a row's own failure is its value, a failed step ends the pass.
    # fatou1 probes against 0
    starts = [_tau_inv(ctx, p) for p in (*points, 0)[:2]]
    # a petal-2 start left of the fixed point fails every row
    if method == "fatou2" and min(w.real for w in starts) <= 0:
        raise DomainError("petal-2 estimator needs Re(z) > 0 (repelling side)")
    orbits = _Orbits(starts, bits, inverse=method == "fatou2", estimator_n=ns[-1])
    for n in ns:
        orbits.run_to(n)
        try:
            if method == "levy":
                num, den, _ = _ratio_terms(orbits, n)
                value = num / den
            elif method == "fatou1":
                value = _shift_value(orbits)
            else:
                # the two petal-2 estimators' log n and n cancel as well
                value = _shift_value(orbits) + 1
        except SuperexpError as exc:
            value = exc
        yield value


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
    ctx = mp_context(cfg.mantissa_bits)
    # the numeric arguments (newton's third is a map's name)
    points = [_as_mp(ctx, a) for a in args[:2]]
    base_map = args[2] if len(args) > 2 else "h"
    ns = _check_rows(method, list(n_list), base_map)
    if not ns:
        return []
    if method == "newton":
        sums = _newton_pass(*points, ns, cfg.mantissa_bits, base_map)
        rows = (result.value for result in sums)
    else:
        rows = _orbit_pass(method, ctx, points, ns, cfg.mantissa_bits)
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
