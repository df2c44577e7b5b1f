"""Exact-rational formal power series of h(x) = e^x - 1.

Everything in this module is exact and no floating-point arithmetic
occurs.  Public objects hold `fractions.Fraction` coefficients; the
tables behind them are built as integer numerators over one common
denominator, reduced once per finished polynomial rather than by a gcd
per multiply-add, and turned into `Fraction`s only when handed out.
Every series built here is one of h = e^x - 1, the conjugate of the
exponential to base e^(1/e) at its parabolic fixed point (u = z/e - 1):
its regular fractional iterates, the iterative logarithm solving its
Julia equation, the Abel expansion obtained by integrating 1/j, and the
log-polynomials P_m of the super-exponential asymptotic, read off the
formal inverse of that Abel expansion shifted by ln(2)/3.

The Abel tail that the wide kernels sum is the costly build: 96 terms
need the powers h^k through x^100.  Those come from the Stirling
numbers of the second kind, h^k = k! sum_P S(P, k) x^P / P!, as one
triangle of integers over the denominator 100!, not from repeated
series products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, lcm
from typing import Iterable, Sequence

from .precision import require_count

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
    if isinstance(value, (int, str)):
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
        n = full if n_terms is None else min(require_count(n_terms, "n_terms"), full)
        if n < 1:
            return PowerSeries([_ZERO])
        a, b = _scaled(self.coefficients), _scaled(other.coefficients)
        return PowerSeries(_fractions(_mul(a, b, n)))

    def compose(self, inner: "PowerSeries", n_terms: int) -> "PowerSeries":
        """self(inner(x)) truncated to `n_terms` coefficients.

        `inner` must have zero constant term, otherwise truncation would
        not commute with composition.
        """
        n_terms = require_count(n_terms, "n_terms", 1)
        if inner[0] != 0:
            raise ValueError("inner series must have zero constant term")
        # Horner from the top coefficient down.
        acc = PowerSeries([self.coefficients[-1]])
        for k in range(len(self) - 2, -1, -1):
            acc = acc.mul(inner, n_terms) + PowerSeries([self.coefficients[k]])
        return acc.truncate(n_terms)

    def derivative(self) -> "PowerSeries":
        if len(self) == 1:
            return PowerSeries([_ZERO])
        return PowerSeries(
            Fraction(k) * self.coefficients[k] for k in range(1, len(self))
        )

    def truncate(self, n_terms: int) -> "PowerSeries":
        n_terms = require_count(n_terms, "n_terms", 1)
        if n_terms >= len(self):
            coeffs = self.coefficients + (_ZERO,) * (n_terms - len(self))
            return PowerSeries(coeffs)
        return PowerSeries(self.coefficients[:n_terms])

    def to_fraction_strings(self) -> list[str]:
        """Coefficients as canonical "p/q" strings (JSON friendly)."""
        return [str(c) for c in self.coefficients]


def exp_minus_one(N: int) -> PowerSeries:
    """Series of e^x - 1 through x^N: coefficient of x^k is 1/k!."""
    N = require_count(N, "N", 1)
    return PowerSeries(
        [_ZERO] + [Fraction(1, factorial(k)) for k in range(1, N + 1)]
    )


def regular_iterate_series(t, N: int) -> PowerSeries:
    """Coefficients of the regular iterate h^[t] of h = e^x - 1 through x^N.

    The iterate is the unique series phi with phi_1 = 1 and
    phi_2 = t/2 that commutes with h to the computed order.
    Coefficients are produced one at a time: with phi known below index
    n, the coefficient of x^(n+1) in phi(h(x)) - h(phi(x)) is linear in
    the unknown phi_n with factor (n - 2)/2, everything else being
    known, so each step is a single exact division.

    Parameters
    ----------
    t : Fraction or int
        Iteration count; exact rationals keep the result exact.
    N : integer
        Truncation order of the result; N >= 2.

    Returns
    -------
    PowerSeries of length N + 1.
    """
    t = _as_fraction(t)
    N = require_count(N, "N", 2)
    h = exp_minus_one(N)
    a = [_ZERO] * (N + 1)
    a[1] = _ONE
    a[2] = t / 2
    for n in range(3, N + 1):
        phi = PowerSeries(a)
        residual = phi.compose(h, n + 2)[n + 1] - h.compose(phi, n + 2)[n + 1]
        a[n] = -2 * residual / (n - 2)
    return PowerSeries(a)


# -- exact polynomials as integer numerators over one denominator --------
#
# A pair (nums, den) stands for sum_i (nums[i] / den) x^i, den > 0.
# Products and sums stay in integers; only _reduced takes a gcd, once
# per finished polynomial, and _fractions hands out reduced Fractions.

def _scaled(coeffs: Sequence[Fraction]) -> tuple:
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den

def _rescaled(p: tuple, den: int) -> list:
    return [a * (den // p[1]) for a in p[0]]

def _reduced(nums: list, den: int) -> tuple:
    g = gcd(den, *nums)
    return [a // g for a in nums], den // g

def _fractions(p: tuple) -> list:
    return [Fraction(a, p[1]) for a in p[0]]

def _scale(p: tuple, f: Fraction | int) -> tuple:
    return [f.numerator * a for a in p[0]], f.denominator * p[1]

def _mul(a: tuple, b: tuple, size: int | None = None) -> tuple:
    """Product, unreduced, truncated to `size` coefficients when given."""
    (an, ad), (bn, bd) = a, b
    out = [0] * (len(an) + len(bn) - 1 if size is None else size)
    for i, ai in enumerate(an[: len(out)]):
        if ai:
            for k, bk in enumerate(bn[: len(out) - i], i):
                out[k] += ai * bk
    return out, ad * bd

def _sum(terms: Sequence[tuple]) -> tuple:
    """Reduced sum over the least common denominator."""
    den = lcm(*(d for _, d in terms))
    cols = zip_longest(*(_rescaled(p, den) for p in terms), fillvalue=0)
    return _reduced([sum(c) for c in cols], den)

def _append(p: tuple, c: Fraction) -> tuple:
    """p with the next coefficient c, over the new common denominator."""
    den = lcm(p[1], c.denominator)
    return _rescaled(p, den) + [c.numerator * (den // c.denominator)], den


def iterative_logarithm(N: int) -> PowerSeries:
    """Series j solving the Julia equation j(h(x)) = h'(x) j(x), h = e^x - 1.

    Normalized by j_2 = h_2 = 1/2, which makes j the generator of the
    regular iteration family: d/dt h^[t] at t = 0.

    Each j_n is one exact division, read off the x^(n+1) residual of
    the equation, which needs [x^(n+1)] h^k for k < n.  Those come from
    C(P, k) = P! [x^P] h^k = k! S(P, k), S the Stirling numbers of the
    second kind, which obeys C(P, k) = k (C(P-1, k-1) + C(P-1, k)) from
    C(0, 0) = 1: one row per order, O(N^2) integer additions in all.

    Parameters
    ----------
    N : integer
        Truncation order; N >= 2.

    Returns
    -------
    PowerSeries of length N + 1 with zero coefficients below index 2.
    """
    N = require_count(N, "N", 2)
    # over L = (N + 1)!: scale[P] = L/P!, so L [x^P] h^k = C(P, k) scale[P]
    # and L [x^i] h' = scale[i]
    scale = [1] * (N + 2)
    for P in range(N + 1, 0, -1):
        scale[P - 1] = scale[P] * P
    L = scale[0]
    C = [1] + [0] * (N - 1)  # C(P, k) for k < N, from P = 0
    j = ([0, 0, 1], 2)
    for P in range(1, N + 2):
        for k in range(min(P, N - 1), 0, -1):
            C[k] = k * (C[k - 1] + C[k])
        C[0] = 0
        if P > 3:
            # L * j[1] times the x^P residual of j(h(x)) - h'(x) j(x)
            n = P - 1
            r = sum(j[0][k] * (C[k] * scale[P] - scale[P - k]) for k in range(2, n))
            j = _append(j, Fraction(-2 * r, L * j[1] * (n - 2)))
    return PowerSeries(_fractions(j))


@dataclass(frozen=True)
class AbelExpansion:
    """Regular Abel series alpha(x) = p/x + L*log(+-x) + const + v(x).

    The tail v is divergent; `truncation_order` records where it was
    cut.  The sign inside the logarithm is a branch choice left to the
    evaluation layer.

    Fields
    ------
    pole_coefficient : Fraction
        p, the coefficient of 1/x: -2.
    log_coefficient : Fraction
        L: 1/3.
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


def abel_expansion(N: int) -> AbelExpansion:
    """Termwise integral of 1/j, j the iterative logarithm of e^x - 1.

    1/j is a Laurent series starting at x^-2; integrating turns the
    x^-1 coefficient into the log coefficient and yields the divergent
    tail v through x^N, which consumes j through index N + 3.
    """
    N = require_count(N, "N", 1)
    j = iterative_logarithm(N + 3)
    # Reciprocal of j / x^2 = J / D, as D * u with u = 1 / J
    J, D = _scaled(j.coefficients[2:])
    u = _scaled([Fraction(1, J[0])])
    for k in range(1, N + 2):
        r = sum(J[i] * u[0][k - i] for i in range(1, k + 1))
        u = _append(u, Fraction(-r, u[1] * J[0]))
    inv = _fractions(_scale(u, D))
    # alpha' = inv[0] x^-2 + inv[1] x^-1 + inv[2] + inv[3] x + ...
    tail = [_ZERO] + [inv[k + 1] / k for k in range(1, N + 1)]
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
    M = require_count(M, "M", 1)
    N = max(M - 1, 1)
    tail = abel_expansion(N).tail
    # c_n 2^n, where c_n = (-1)^n v_n is the tail in zeta = -x
    c = [(-2) ** n * tail[n] for n in range(M)]
    # w^k coefficients of Y, 1/Y, t + log Y and Y^n (n >= 2, through
    # w^(M-n-1)), each a polynomial in the formal symbol t = -ln(+-z)
    one = ([1], 1)
    y, inv, log = [one], [one], [([0, 1], 1)]
    powers = [None, y] + [[one] for _ in range(2, M)]
    for m in range(1, M + 1):
        # w^m of the right side, from Y below order m
        inv.append(_sum([_scale(log[m - 1], Fraction(-1, 3))] + [
            _scale(powers[n][m - 1 - n], -c[n]) for n in range(1, m)
        ]))
        # Y * (1/Y) = 1
        acc = _sum([_mul(inv[k], y[m - k]) for k in range(1, m + 1)])
        y.append(_scale(acc, -1))
        # (log Y)' Y = Y': m l_m = m y_m - sum_k k l_k y_(m-k)
        log.append(_sum([y[m]] + [
            _scale(_mul(log[k], y[m - k]), Fraction(-k, m)) for k in range(1, m)
        ]))
        for n in range(2, M - m):
            powers[n].append(
                _sum([_mul(y[k], powers[n - 1][m - k]) for k in range(m + 1)])
            )

    polys = tuple(
        PowerSeries(_fractions(_scale(y[m], 3**m))) for m in range(1, M + 1)
    )
    return SuperExpExpansion(order=M, polynomials=polys)
