"""Exact-series engine tests.

Expected coefficient values are frozen here as literals; fractional
iterate coefficients are additionally cross-checked against the
independent Newton double-sum oracle in helpers.py.
"""

import hashlib
import json
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superexp import (
    PowerSeries,
    abel_expansion,
    exp_minus_one,
    iterative_logarithm,
    regular_iterate_series,
    superexp_polynomials,
)
from superexp import series

from helpers import (
    ZERO,
    compose_trunc,
    exp_minus_one_coeffs,
    lagrange_iterate_coeff,
    newton_iterate_coeff,
)

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=8)


class TestPowerSeries:
    def test_indexing_beyond_length_is_zero(self):
        s = PowerSeries([0, 1, F(1, 2)])
        assert s[2] == F(1, 2)
        assert s[7] == 0
        assert len(s) == 3

    def test_mul_matches_reference_convolution(self):
        a = PowerSeries([1, 2, 3])
        b = PowerSeries([0, F(1, 3), 7])
        got = a.mul(b, 4)
        ref = [ZERO] * 4
        for i, ai in enumerate([F(1), F(2), F(3)]):
            for k, bk in enumerate([F(0), F(1, 3), F(7)]):
                if i + k < 4:
                    ref[i + k] += ai * bk
        assert list(got.coefficients) == ref

    def test_compose_requires_zero_constant_term(self):
        with pytest.raises(ValueError):
            PowerSeries([1, 1]).compose(PowerSeries([1, 1]), 3)

    def test_compose_matches_reference(self):
        outer = exp_minus_one(6)
        inner = PowerSeries([0, 1, F(-1, 2), F(1, 3)])
        got = outer.compose(inner, 6)
        ref = compose_trunc(
            list(outer.coefficients), list(inner.coefficients), 6
        )
        assert list(got.coefficients) == ref

    def test_serialization_round_trip(self):
        s = PowerSeries([0, 1, F(-71, 435456)])
        strings = s.to_fraction_strings()
        assert strings == ["0", "1", "-71/435456"]

    @pytest.mark.parametrize("call, want", [
        pytest.param(lambda: PowerSeries([]), ValueError, id="no-coefficients"),
        pytest.param(lambda: PowerSeries([1])[-1], IndexError, id="negative-index"),
        pytest.param(lambda: PowerSeries([0.5]), TypeError, id="float-coefficient"),
        pytest.param(lambda: PowerSeries([1, 2]) == [1, 2], False, id="eq-non-series"),
        pytest.param(
            lambda: hash(PowerSeries([1, F(1, 2), 0])) == hash(PowerSeries([1, F(1, 2)])),
            True,
            id="hash-ignores-trailing-zeros",
        ),
        pytest.param(
            lambda: repr(PowerSeries(range(10))),
            "PowerSeries([0, 1, 2, 3, 4, 5, 6, 7, ...], len=10)",
            id="repr",
        ),
        pytest.param(lambda: PowerSeries([1, 2]).mul(PowerSeries([3]), 0), PowerSeries([0]),
                     id="mul-to-no-terms"),
        pytest.param(lambda: PowerSeries([7]).derivative(), PowerSeries([0]),
                     id="derivative-of-constant"),
        pytest.param(lambda: superexp_polynomials(2).polynomial(3), IndexError,
                     id="polynomial-past-order"),
    ])
    def test_edge_cases(self, call, want):
        if isinstance(want, type) and issubclass(want, Exception):
            with pytest.raises(want):
                call()
        else:
            assert call() == want


class TestRegularIterate:
    def test_unit_iterate_reproduces_base(self):
        got = regular_iterate_series(1, 5)
        assert [str(c) for c in got.coefficients] == [
            "0", "1", "1/2", "1/6", "1/24", "1/120",
        ]

    def test_zero_iterate_is_identity(self):
        got = regular_iterate_series(0, 5)
        assert list(got.coefficients) == [F(0), F(1), F(0), F(0), F(0), F(0)]

    def test_half_iterate_quadratic_coefficient(self):
        got = regular_iterate_series(F(1, 2), 3)
        assert got[2] == F(1, 4)

    def test_half_iterate_cubic_coefficient_against_oracle(self):
        got = regular_iterate_series(F(1, 2), 3)
        want = newton_iterate_coeff(F(1, 2), 3, exp_minus_one_coeffs(4))
        assert got[3] == want == F(1, 48)

    @given(t=small_fractions, k=st.integers(min_value=2, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_coefficients_match_newton_double_sum(self, t, k):
        got = regular_iterate_series(t, k)
        base = exp_minus_one_coeffs(k + 1)
        assert got[k] == newton_iterate_coeff(t, k, base)

    @given(t=small_fractions, k=st.integers(min_value=2, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_closed_binomial_form_agrees(self, t, k):
        got = regular_iterate_series(t, k)
        base = exp_minus_one_coeffs(k + 1)
        assert got[k] == lagrange_iterate_coeff(t, k, base)

    @given(s=small_fractions, t=small_fractions,
           N=st.integers(min_value=2, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_group_property(self, s, t, N):
        ps = regular_iterate_series(s, N)
        pt = regular_iterate_series(t, N)
        pst = regular_iterate_series(s + t, N)
        composed = ps.compose(pt, N + 1)
        assert all(composed[k] == pst[k] for k in range(N + 1))

    @given(t=small_fractions)
    @settings(max_examples=20, deadline=None)
    def test_commutes_with_base(self, t):
        N = 9
        base = exp_minus_one(N + 2)
        phi = regular_iterate_series(t, N)
        lhs = phi.compose(base.truncate(N + 1), N + 1)
        rhs = base.compose(phi, N + 1)
        assert all(lhs[k] == rhs[k] for k in range(N + 1))

    def test_rejects_order_below_nonlinear_index(self):
        with pytest.raises(ValueError):
            regular_iterate_series(F(1, 2), 1)

class TestIterativeLogarithm:
    def test_known_values(self):
        j = iterative_logarithm(7)
        assert [str(j[k]) for k in range(2, 8)] == [
            "1/2", "-1/12", "1/48", "-1/180", "11/8640", "-1/6720",
        ]

    def test_leading_term_matches_base(self):
        j = iterative_logarithm(5)
        assert j[2] == exp_minus_one(5)[2]
        assert j[0] == j[1] == 0

    @pytest.mark.parametrize("N", [4, 7, 12])
    def test_julia_equation_residual_vanishes(self, N):
        base = exp_minus_one(N + 4)
        j = iterative_logarithm(N)
        lhs = j.compose(base.truncate(N + 1), N + 1)
        rhs = base.derivative().truncate(N + 1).mul(j, N + 1)
        # Exact through x^N; the noise beyond comes from truncating j.
        assert all(lhs[k] == rhs[k] for k in range(N + 1))

    def test_exp_minus_one_builds_no_products(self, monkeypatch):
        # the power table of e^x - 1 comes from the Stirling triangle
        calls = []
        mul = series._mul

        def counted(*args):
            calls.append(args)
            return mul(*args)

        monkeypatch.setattr(series, "_mul", counted)
        abel_expansion(64)
        assert calls == []

    def test_matches_derivative_of_iterate_in_t(self):
        # j = d/dt base^[t] at t = 0: finite differences in exact
        # arithmetic are exact for polynomial dependence on t.
        N = 8
        # a_k(t) is a polynomial in t with a_k(0) = identity; its exact
        # linear part is recoverable from a few integer samples.
        p1 = regular_iterate_series(1, N)
        p2 = regular_iterate_series(2, N)
        p3 = regular_iterate_series(3, N)
        p4 = regular_iterate_series(4, N)
        p5 = regular_iterate_series(5, N)
        p6 = regular_iterate_series(6, N)
        p7 = regular_iterate_series(7, N)
        ident = regular_iterate_series(0, N)
        j = iterative_logarithm(N)
        samples = [ident, p1, p2, p3, p4, p5, p6, p7]
        for k in range(2, N + 1):
            # Newton forward differences give the derivative at 0 of
            # the degree <= k-1 polynomial a_k(t).
            vals = [s[k] for s in samples]
            deriv = ZERO
            diffs = vals[:]
            sign = F(1)
            for n in range(1, k):
                diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
                sign = -sign
                deriv += -sign * diffs[0] / n
            assert deriv == j[k]


class TestAbelExpansion:
    def test_pole_and_log_coefficients(self):
        ae = abel_expansion(6)
        assert ae.pole_coefficient == F(-2)
        assert ae.log_coefficient == F(1, 3)

    def test_tail_values(self):
        ae = abel_expansion(4)
        assert [str(ae.tail[k]) for k in range(1, 5)] == [
            "-1/36", "1/540", "1/7776", "-71/435456",
        ]

    def test_derivative_coefficients(self):
        ae = abel_expansion(5)
        got = [str(ae.derivative_coefficient(k)) for k in range(-2, 4)]
        assert got == ["2", "1/3", "-1/36", "1/270", "1/2592", "-71/108864"]

    def test_derivative_is_reciprocal_of_iterative_logarithm(self):
        N = 10
        ae = abel_expansion(N)
        j = iterative_logarithm(N + 3)
        # alpha' * j = 1: convolve the Laurent coefficients directly.
        for order in range(0, N):
            acc = ZERO
            for i in range(-2, order - 1):
                acc += ae.derivative_coefficient(i) * j[order - i]
            assert acc == (1 if order == 0 else 0)

    def test_abel_equation_residual_scales_away(self):
        # With the tail cut at N, the defect of the Abel equation obeys
        # |alpha(h(x)) - alpha(x) - 1| = O(|x|^(N+2)) as x -> 0-, so
        # the ratio to |x|^(N-1) must stay bounded (and tiny) over the
        # sample.  Multiprecision keeps roundoff out of the picture.
        N = 8
        ae = abel_expansion(N)
        with mpmath.workprec(300):
            def alpha(x):
                val = (
                    mpmath.mpf(ae.pole_coefficient.numerator)
                    / ae.pole_coefficient.denominator / x
                    + mpmath.mpf(ae.log_coefficient.numerator)
                    / ae.log_coefficient.denominator * mpmath.log(-x)
                )
                for k in range(1, N + 1):
                    c = ae.tail[k]
                    val += mpmath.mpf(c.numerator) / c.denominator * x**k
                return val

            worst = mpmath.mpf(0)
            for i in range(20):
                x = -mpmath.mpf("0.1") * mpmath.mpf("0.784") ** i
                res = abs(alpha(mpmath.expm1(x)) - alpha(x) - 1)
                worst = max(worst, res / abs(x) ** (N - 1))
            assert worst < 1e-4

    def test_tail_coefficients_diverge(self):
        # Geometric-mean growth ratio over a sliding window increases:
        # the tail has zero radius of convergence.  Consecutive ratios
        # oscillate hard, so the window spans a full decade of indices.
        ae = abel_expansion(44)
        ratios = [
            abs(ae.tail[k + 1] / ae.tail[k]) for k in range(10, 40)
        ]
        def window_mean(i):
            prod = F(1)
            for r in ratios[i : i + 10]:
                prod *= r
            return float(prod) ** (1 / 10)
        means = [window_mean(i) for i in (0, 10, 20)]
        assert means[0] < means[1] < means[2]
        assert means[-1] > 1.5

    def test_order_97_digest(self):
        # SHA-256 of the 97-term tail that the 256-bit kernel sums,
        # recorded from the all-Fraction construction; every shorter
        # tail a kernel builds is a prefix of it
        tail = abel_expansion(97).tail
        strings = json.dumps(tail.to_fraction_strings())
        digest = hashlib.sha256(strings.encode("ascii")).hexdigest()
        assert digest == (
            "e03ef012629b5f382e1446a9dbd8295f8cf3cef848812c7c1b80771a8fce94e1"
        )
        for N in (15, 20, 34, 48, 64, 96):
            short = abel_expansion(N).tail
            assert list(short.coefficients) == list(tail.coefficients[: N + 1])


class TestSuperExpPolynomials:
    def test_first_five(self):
        se = superexp_polynomials(5)
        assert list(se.polynomial(1).coefficients) == [F(0), F(1)]
        assert list(se.polynomial(2).coefficients) == [F(1, 2), F(1), F(1)]
        assert list(se.polynomial(3).coefficients) == [
            F(7, 10), F(5, 2), F(5, 2), F(1),
        ]
        assert list(se.polynomial(4).coefficients) == [
            F(67, 60), F(53, 10), F(15, 2), F(13, 3), F(1),
        ]
        assert list(se.polynomial(5).coefficients) == [
            F(2701, 1680), F(653, 60), F(83, 4), F(101, 6), F(77, 12), F(1),
        ]

    def test_monic_of_degree_m(self):
        se = superexp_polynomials(9)
        for m in range(1, 10):
            p = se.polynomial(m)
            assert len(p) == m + 1
            assert p[m] == 1

    def test_prefix_stability(self):
        # Computing more polynomials never changes the earlier ones.
        a = superexp_polynomials(4)
        b = superexp_polynomials(7)
        for m in range(1, 5):
            assert a.polynomial(m) == b.polynomial(m)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            superexp_polynomials(0)

    def test_order_28_digest(self):
        # SHA-256 of P_1 .. P_28 as fraction strings, recorded from the
        # step-equation solver that the Abel inversion replaced; the two
        # agreed Fraction for Fraction for every M in 1..28 and at M = 32
        polys = [p.to_fraction_strings() for p in superexp_polynomials(28).polynomials]
        digest = hashlib.sha256(json.dumps(polys).encode("ascii")).hexdigest()
        assert digest == (
            "44d9b1d382500c70bc39a568173d059baa5663be32f26eb3b968a25e52a56d09"
        )


@pytest.mark.parametrize("call", [
    pytest.param(lambda: abel_expansion(exp_minus_one(10), 6), id="abel_expansion"),
    pytest.param(lambda: iterative_logarithm(exp_minus_one(9), 9), id="iterative_logarithm"),
    pytest.param(lambda: regular_iterate_series(exp_minus_one(6), F(1, 2), 6),
                 id="regular_iterate_series"),
])
def test_a_call_passing_a_base_fails(call):
    # every series is one of e^x - 1: a base argument is one too many
    with pytest.raises(TypeError):
        call()
