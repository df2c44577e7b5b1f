"""Independent oracles used by the test suite.

Everything here is written against the mathematics directly, avoiding
the package's own algorithms: compositions are plain convolutions,
fractional iterate coefficients come from the finite Newton double sum
over integer iterates (and its closed binomial rearrangement), so a
bug in the library recurrences cannot hide.  The one exception is the
asymptotic F~ by the paper's construction, which takes the exact P_m
from `series.superexp_polynomials` (pinned by test_series' digest) and
sums and walks them here, apart from the evaluators, which find F~ by
inverting the Abel series instead.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import mpmath

from superexp.series import superexp_polynomials

ZERO = Fraction(0)


def exp_minus_one_coeffs(n_terms: int) -> list[Fraction]:
    return [ZERO] + [Fraction(1, factorial(k)) for k in range(1, n_terms)]


def mul_trunc(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    out = [ZERO] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for k, bk in enumerate(b[: n - i]):
            if bk != 0:
                out[i + k] += ai * bk
    return out


def compose_trunc(outer: list[Fraction], inner: list[Fraction], n: int) -> list[Fraction]:
    assert inner[0] == 0
    acc = [ZERO] * n
    acc[0] = outer[-1]
    for k in range(len(outer) - 2, -1, -1):
        acc = mul_trunc(acc, inner, n)
        acc[0] += outer[k]
    return acc


def integer_iterates(base: list[Fraction], count: int, n: int) -> list[list[Fraction]]:
    """[base^[0], base^[1], ..., base^[count-1]] each to n terms."""
    ident = [ZERO, Fraction(1)] + [ZERO] * (n - 2)
    out = [ident]
    for _ in range(1, count):
        out.append(compose_trunc(base, out[-1], n))
    return out


def binom(t: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for k in range(n):
        out *= (t - k)
        out /= k + 1
    return out


def newton_iterate_coeff(t: Fraction, k: int, base: list[Fraction]) -> Fraction:
    """Coefficient of x^k in base^[t] via the finite Newton double sum.

    The coefficient of x^k in base^[m] is a polynomial in m of degree
    k - 1, so the forward-difference series terminates after k terms.
    """
    n_terms = max(k + 1, 2)
    its = integer_iterates(base, k, n_terms)
    total = ZERO
    for n in range(k):
        inner = ZERO
        for m in range(n + 1):
            inner += Fraction((-1) ** (n - m) * comb(n, m)) * its[m][k]
        total += binom(t, n) * inner
    return total


def lagrange_iterate_coeff(t: Fraction, k: int, base: list[Fraction]) -> Fraction:
    """Same coefficient via the closed binomial product form.

    Rearranges the Newton sum into sum_m (-1)^(k-1-m) C(t,m)
    C(t-1-m, k-1-m) base^[m]_k; the free index of the second binomial
    runs over the same integer iterates.
    """
    n_terms = max(k + 1, 2)
    its = integer_iterates(base, k, n_terms)
    total = ZERO
    for m in range(k):
        total += (
            Fraction((-1) ** (k - 1 - m))
            * binom(t, m)
            * binom(t - 1 - m, k - 1 - m)
            * its[m][k]
        )
    return total


@lru_cache(maxsize=None)
def _polynomials(terms: int) -> tuple:
    return tuple(p.coefficients for p in superexp_polynomials(terms).polynomials)


def superexp_tilde_by_polynomials(z, branch: str, bits: int, terms: int = 44):
    """F~(z) on one branch as the sum of the P_m, to about 2^-bits.

    e(1 - (2/x)(1 + sum_{m<=terms} P_m(t)/(3x)^m)) with t = -log(x) on
    the minus branch and t = -log(-x) on the plus branch, at x = z + k
    (minus) or z - k (plus), with k the first multiple of 16 where the
    last term is below 2^-(bits+16); then k steps back by the functional
    equation (e log w down the minus branch, e^(w/e) up the plus
    branch).  Runs in a private mpmath context 64 bits wider than
    `bits`: Horner's rule loses up to about 32 bits of P_m(t) to
    cancellation, and the plus walk amplifies its start by about k^2.
    Returns a value of that context.
    """
    ctx = mpmath.MPContext()
    ctx.prec = bits + 64
    polys = [
        [ctx.mpf(c.numerator) / c.denominator for c in reversed(p)]
        for p in _polynomials(terms)
    ]
    minus = branch == "minus"
    z = ctx.convert(z)

    def horner(coeffs, t):
        acc = 0
        for c in coeffs:
            acc = acc * t + c
        return acc

    def logs(x):
        return -ctx.log(x if minus else -x), 1 / (3 * x)

    def last(x):
        # the last term's share of F~, as a bound on the truncation
        t, w = logs(x)
        return abs(horner(polys[-1], t) * w ** terms) * 2 * ctx.e / abs(x)

    k = 0
    while last(z + k if minus else z - k) >= ctx.mpf(2) ** -(bits + 16):
        k += 16
    x = z + k if minus else z - k
    t, w = logs(x)
    s = 0
    for p in reversed(polys):
        s = (s + horner(p, t)) * w
    value = ctx.e * (1 - (2 / x) * (1 + s))
    for _ in range(k):
        value = ctx.e * ctx.log(value) if minus else ctx.exp(value / ctx.e)
    return value
