"""Exact-rational formal power series at the parabolic fixed point.

Everything in this module is exact: coefficients are `fractions.Fraction`
values and no floating-point arithmetic occurs.  The central objects are
the series h(x) = e^x - 1 (the base-change conjugate of the exponential
to base e^(1/e)), its regular fractional iterates, the iterative
logarithm solving the Julia equation, the Abel expansion obtained by
integrating 1/j, and the log-polynomials P_m of the super-exponential
asymptotic, read off the formal inverse of that Abel expansion shifted
by ln(2)/3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

__all__ = [
    "PowerSeries",
    "AbelExpansion",
    "SuperExpExpansion",
    "exp_minus_one",
    "regular_iterate_series",
    "iterative_logarithm",
    "abel_expansion",
    "superexp_polynomials",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


class PowerSeries:
    """Truncated formal power series with exact rational coefficients.

    The instance stores the coefficients of x^0 .. x^N as an immutable
    tuple; indices beyond the stored length read as exact zeros.  All
    operations treat the stored data as an exact polynomial, so callers
    are responsible for tracking to which order a result is meaningful.

    Parameters
    ----------
    coefficients : iterable of Fraction/int/str
        Coefficient of x^k at position k.
    """

    __slots__ = ("coefficients", "order")

    def __init__(self, coefficients: Iterable):
        coeffs = tuple(_as_fraction(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a series needs at least one coefficient")
        self.coefficients = coeffs
        # Index of the first potentially nonzero coefficient.
        self.order = next(
            (k for k, c in enumerate(coeffs) if c != 0), len(coeffs)
        )

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError("negative series index")
        if k < len(self.coefficients):
            return self.coefficients[k]
        return _ZERO

    @property
    def truncation_order(self) -> int:
        """Largest index with a stored coefficient."""
        return len(self.coefficients) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = max(len(self), len(other))
        return all(self[k] == other[k] for k in range(n))

    def __hash__(self):
        coeffs = list(self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return hash(tuple(coeffs))

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coefficients[:8])
        tail = ", ..." if len(self.coefficients) > 8 else ""
        return f"PowerSeries([{shown}{tail}], len={len(self)})"

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = max(len(self), len(other))
        return PowerSeries(self[k] + other[k] for k in range(n))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = max(len(self), len(other))
        return PowerSeries(self[k] - other[k] for k in range(n))

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(-c for c in self.coefficients)

    def scale(self, factor) -> "PowerSeries":
        f = _as_fraction(factor)
        return PowerSeries(f * c for c in self.coefficients)

    def mul(self, other: "PowerSeries", n_terms: int | None = None) -> "PowerSeries":
        """Product, truncated to `n_terms` coefficients when given."""
        full = len(self) + len(other) - 1
        n = full if n_terms is None else min(n_terms, full)
        a, b = self.coefficients, other.coefficients
        out = [_ZERO] * max(n, 1)
        for i, ai in enumerate(a):
            if ai == 0 or i >= n:
                continue
            top = min(len(b), n - i)
            for j in range(top):
                bj = b[j]
                if bj != 0:
                    out[i + j] += ai * bj
        return PowerSeries(out)

    def compose(self, inner: "PowerSeries", n_terms: int) -> "PowerSeries":
        """self(inner(x)) truncated to `n_terms` coefficients.

        `inner` must have zero constant term, otherwise truncation would
        not commute with composition.
        """
        if inner[0] != 0:
            raise ValueError("inner series must have zero constant term")
        # Horner from the top coefficient down.
        acc = PowerSeries([self.coefficients[-1]])
        for k in range(len(self) - 2, -1, -1):
            acc = acc.mul(inner, n_terms)
            acc = acc + PowerSeries([self.coefficients[k]])
        return acc.truncate(n_terms)

    def derivative(self) -> "PowerSeries":
        if len(self) == 1:
            return PowerSeries([_ZERO])
        return PowerSeries(
            Fraction(k) * self.coefficients[k] for k in range(1, len(self))
        )

    def truncate(self, n_terms: int) -> "PowerSeries":
        if n_terms < 1:
            raise ValueError("truncation needs at least one coefficient")
        if n_terms >= len(self):
            coeffs = self.coefficients + (_ZERO,) * (n_terms - len(self))
            return PowerSeries(coeffs)
        return PowerSeries(self.coefficients[:n_terms])

    def to_fraction_strings(self) -> list[str]:
        """Coefficients as canonical "p/q" strings (JSON friendly)."""
        return [str(c) for c in self.coefficients]

    @classmethod
    def from_fraction_strings(cls, strings: Sequence[str]) -> "PowerSeries":
        return cls(Fraction(s) for s in strings)


def exp_minus_one(N: int) -> PowerSeries:
    """Series of e^x - 1 through x^N: coefficient of x^k is 1/k!."""
    if N < 1:
        raise ValueError("need N >= 1")
    return PowerSeries(
        [_ZERO] + [Fraction(1, factorial(k)) for k in range(1, N + 1)]
    )


def _nonlinear_order(base: PowerSeries) -> int:
    """First index m >= 2 with a nonzero coefficient; validates the base."""
    if base[0] != 0 or base[1] != 1:
        raise ValueError(
            "base series must fix 0 with multiplier 1 "
            "(coefficients 0, 1, ...)"
        )
    for k in range(2, len(base)):
        if base[k] != 0:
            return k
    raise ValueError("base series has no nonlinear term")


def regular_iterate_series(base: PowerSeries, t, N: int) -> PowerSeries:
    """Coefficients of the regular iterate base^[t] through x^N.

    The iterate is the unique series phi with phi_1 = 1 and
    phi_m = t * h_m that commutes with the base to the computed order.
    Coefficients are produced one at a time: with phi known below index
    n, the coefficient of x^(n+m-1) in phi(h(x)) - h(phi(x)) is linear
    in the unknown phi_n with factor (n - m) * h_m, everything else
    being known, so each step is a single exact division.

    Parameters
    ----------
    base : PowerSeries
        Multiplier-1 series, given through x^N at least (for a base
        whose first nonlinear index m exceeds 2, through x^(N+m-2)).
    t : Fraction or int
        Iteration count; exact rationals keep the result exact.
    N : integer
        Truncation order of the result; N >= m.

    Returns
    -------
    PowerSeries of length N + 1.
    """
    t = _as_fraction(t)
    m = _nonlinear_order(base)
    if N < m:
        raise ValueError(f"N must be at least the nonlinear order {m}")
    needed = N + m - 2
    if base.truncation_order < needed:
        raise ValueError(
            f"base must be given through x^{needed} for N = {N}"
        )
    hm = base[m]
    a = [_ZERO] * (N + 1)
    a[1] = _ONE
    a[m] = t * hm
    for n in range(m + 1, N + 1):
        P = n + m - 1
        phi = PowerSeries(a)
        lhs = phi.compose(base, P + 1)
        rhs = base.compose(phi, P + 1)
        residual = lhs[P] - rhs[P]
        a[n] = -residual / ((n - m) * hm)
    return PowerSeries(a)


def iterative_logarithm(base: PowerSeries, N: int) -> PowerSeries:
    """Series j solving the Julia equation j(h(x)) = h'(x) j(x).

    Normalized by j_m = h_m, which makes j the generator of the regular
    iteration family: d/dt base^[t] at t = 0.

    Parameters
    ----------
    base : PowerSeries
        Multiplier-1 series given through x^N at least.
    N : integer
        Truncation order; N >= m.

    Returns
    -------
    PowerSeries of length N + 1 with zero coefficients below index m.
    """
    m = _nonlinear_order(base)
    if N < m:
        raise ValueError(f"N must be at least the nonlinear order {m}")
    if base.truncation_order < N:
        raise ValueError(f"base must be given through x^{N}")
    hm = base[m]
    # Power table H[k] = base^k, enough orders for every residual.
    top = N + m - 1
    powers: list[PowerSeries] = [PowerSeries([_ONE]), base.truncate(top + 1)]
    for _ in range(2, N):
        powers.append(powers[-1].mul(base, top + 1))

    def dbase(i: int) -> Fraction:
        # Coefficient of x^i in base'.
        return Fraction(i + 1) * base[i + 1]

    j = [_ZERO] * (N + 1)
    j[m] = hm
    for n in range(m + 1, N + 1):
        P = n + m - 1
        lhs = sum((j[k] * powers[k][P] for k in range(m, n)), _ZERO)
        rhs = sum((j[k] * dbase(P - k) for k in range(m, n)), _ZERO)
        j[n] = -(lhs - rhs) / ((n - m) * hm)
    return PowerSeries(j)


@dataclass(frozen=True)
class AbelExpansion:
    """Regular Abel series alpha(x) = p/x + L*log(+-x) + const + v(x).

    The tail v is divergent; `truncation_order` records where it was
    cut.  The sign inside the logarithm is a branch choice left to the
    evaluation layer.

    Fields
    ------
    pole_coefficient : Fraction
        p, the coefficient of 1/x (equals -2 for e^x - 1).
    log_coefficient : Fraction
        L (equals 1/3 for e^x - 1).
    constant : Fraction
        Integration constant, fixed to 0 by convention.
    tail : PowerSeries
        v with the coefficient of x^k at index k, k >= 1; index 0 is 0.
    truncation_order : int
        N, the largest tail index kept.
    """

    pole_coefficient: Fraction
    log_coefficient: Fraction
    constant: Fraction
    tail: PowerSeries
    truncation_order: int

    def derivative_coefficient(self, k: int) -> Fraction:
        """Coefficient of x^k in alpha'(x), for k >= -2."""
        if k == -2:
            return -self.pole_coefficient
        if k == -1:
            return self.log_coefficient
        return Fraction(k + 1) * self.tail[k + 1]

    def to_json(self) -> str:
        payload = {
            "pole_coefficient": str(self.pole_coefficient),
            "log_coefficient": str(self.log_coefficient),
            "constant": str(self.constant),
            "tail": self.tail.to_fraction_strings(),
            "truncation_order": self.truncation_order,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "AbelExpansion":
        d = json.loads(text)
        return cls(
            pole_coefficient=Fraction(d["pole_coefficient"]),
            log_coefficient=Fraction(d["log_coefficient"]),
            constant=Fraction(d["constant"]),
            tail=PowerSeries.from_fraction_strings(d["tail"]),
            truncation_order=int(d["truncation_order"]),
        )


def abel_expansion(base: PowerSeries, N: int) -> AbelExpansion:
    """Termwise integral of 1/j for a base with nonlinear order 2.

    1/j is a Laurent series starting at x^-2; integrating turns the
    x^-1 coefficient into the log coefficient and yields the divergent
    tail v through x^N.

    The base must be given through x^(N+3): the tail coefficient v_N
    consumes j through index N + 3.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    m = _nonlinear_order(base)
    if m != 2:
        raise ValueError("Abel expansion in this form needs nonlinear order 2")
    if base.truncation_order < N + 3:
        raise ValueError(f"base must be given through x^{N + 3} for N = {N}")
    j = iterative_logarithm(base, N + 3)
    if j[2] == 0:
        raise ZeroDivisionError("iterative logarithm has zero leading term")
    # Reciprocal of j / x^2, enough terms for the integral.
    jhat = [j[k + 2] for k in range(N + 2)]
    inv = [_ZERO] * (N + 2)
    inv[0] = 1 / jhat[0]
    for k in range(1, N + 2):
        acc = _ZERO
        for i in range(1, k + 1):
            if jhat[i] != 0:
                acc += jhat[i] * inv[k - i]
        inv[k] = -acc / jhat[0]
    # alpha' = inv[0] x^-2 + inv[1] x^-1 + inv[2] + inv[3] x + ...
    tail = [_ZERO] * (N + 1)
    for k in range(1, N + 1):
        tail[k] = inv[k + 1] / k
    return AbelExpansion(
        pole_coefficient=-inv[0],
        log_coefficient=inv[1],
        constant=_ZERO,
        tail=PowerSeries(tail),
        truncation_order=N,
    )


@dataclass(frozen=True)
class SuperExpExpansion:
    """Log-polynomials of the super-exponential asymptotic.

    The asymptotic reads e * (1 - (2/z) * (1 + sum_m P_m(t) / (3z)^m))
    with t a logarithm of +-z chosen by the evaluation layer.  Each
    P_m is stored as a polynomial in t (PowerSeries in the variable t).

    Fields
    ------
    order : int
        M, the number of polynomials.
    polynomials : tuple of PowerSeries
        P_1 .. P_M; `polynomial(m)` gives 1-based access.
    """

    order: int
    polynomials: tuple

    def polynomial(self, m: int) -> PowerSeries:
        if not 1 <= m <= self.order:
            raise IndexError(f"m must be in 1..{self.order}")
        return self.polynomials[m - 1]

    def to_json(self) -> str:
        payload = {
            "order": self.order,
            "polynomials": [p.to_fraction_strings() for p in self.polynomials],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "SuperExpExpansion":
        d = json.loads(text)
        polys = tuple(
            PowerSeries.from_fraction_strings(p) for p in d["polynomials"]
        )
        return cls(order=int(d["order"]), polynomials=polys)


# -- P_m by inverting the Abel expansion ---------------------------------
#
# A "t-polynomial" below is a coefficient list in the formal symbol
# t = -ln(+-z); the P_m and every table in the inversion are such lists.

def _tp_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = [_ZERO] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out

def _tp_scale(a: list, f: Fraction) -> list:
    return [f * c for c in a]

def _tp_mul(a: list, b: list) -> list:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for k, bk in enumerate(b):
            if bk != 0:
                out[i + k] += ai * bk
    return out

def _tp_sum(terms: Iterable) -> list:
    out = [_ZERO]
    for term in terms:
        out = _tp_add(out, term)
    return out


def superexp_polynomials(M: int) -> SuperExpExpansion:
    """Log-polynomials P_1 .. P_M, exactly, by inverting the Abel expansion.

    The super-exponential inverts the Abel function
    alpha(zeta) = 2/zeta + (1/3) log(zeta) + sum_n c_n zeta^n in
    zeta = 1 - F/e.  Shifting alpha by ln(2)/3 and writing w = 1/z,
    t = log(w) and zeta = 2w Y with Y = 1 + sum_m P_m(t) (w/3)^m turns
    alpha(zeta) - ln(2)/3 = z into

        1/Y = 1 - (w/3) (t + log Y) - w sum_n c_n (2w)^n Y^n.

    The w^m coefficient of the right side involves Y only below order m,
    so one pass over the orders fills the tables of 1/Y, log Y and the
    powers Y^n, and reads off each P_m = 3^m [w^m] Y.  The shift is what
    keeps every coefficient rational: it sets the constant term of P_1
    to zero, so P_1 = t, and the evaluation layer's log(+-z) is a plain
    logarithm.
    """
    if M < 1:
        raise ValueError("need M >= 1")
    N = max(M - 1, 1)
    tail = abel_expansion(exp_minus_one(N + 3), N).tail
    # c_n 2^n, where c_n = (-1)^n v_n is the tail in zeta = -x
    c = [(-2) ** n * tail[n] for n in range(M)]
    # w^k coefficients of Y, 1/Y, t + log Y and Y^n (n >= 2, through
    # w^(M-n-1))
    y, inv, log = [[_ONE]], [[_ONE]], [[_ZERO, _ONE]]
    powers = [None, y] + [[[_ONE]] for _ in range(2, M)]
    for m in range(1, M + 1):
        # w^m of the right side, from Y below order m
        r = _tp_scale(log[m - 1], Fraction(-1, 3))
        for n in range(1, m):
            r = _tp_add(r, _tp_scale(powers[n][m - 1 - n], -c[n]))
        inv.append(r)
        # Y * (1/Y) = 1
        acc = _tp_sum(_tp_mul(inv[k], y[m - k]) for k in range(1, m + 1))
        y.append(_tp_scale(acc, -_ONE))
        # (log Y)' Y = Y': m l_m = m y_m - sum_k k l_k y_(m-k)
        acc = _tp_sum(
            _tp_scale(_tp_mul(log[k], y[m - k]), Fraction(k)) for k in range(1, m)
        )
        log.append(_tp_add(y[m], _tp_scale(acc, Fraction(-1, m))))
        for n in range(2, M - m):
            powers[n].append(
                _tp_sum(_tp_mul(y[k], powers[n - 1][m - k]) for k in range(m + 1))
            )

    polys = tuple(
        PowerSeries(_tp_scale(y[m], Fraction(3**m))) for m in range(1, M + 1)
    )
    return SuperExpExpansion(order=M, polynomials=polys)
