"""Tests for the limit-formula estimators.

Frozen decimals below come from 256..512-bit reference runs of this module's
own formulas, cross-checked against each other (ratio vs shift estimators
agree on the common limit) and stable under doubling the mantissa.
"""

import dataclasses
import decimal
import functools
import hashlib
import math
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import MPZ_TYPE

from superexp import limits
from superexp.errors import (
    DomainError,
    NonConvergenceError,
    OrbitOverflowError,
    PrecisionLossWarning,
)
from superexp.limits import (
    ConvergenceRecord,
    PrecisionConfig,
    convergence_table,
    fatou_abel,
    fatou_probe,
    fatou_probe_richardson,
    format_record,
    iterate_h,
    iterate_h_inverse,
    levy_abel,
    levy_probe,
    newton_superfunction,
    records_to_csv,
)

CFG256 = PrecisionConfig(mantissa_bits=256)


def big(s):
    # parse decimal literals with enough bits to honor every stated digit
    with mp.workprec(600):
        return mpmath.mpmathify(s)


# common limit of the ratio and shift probes at -1 (normalized
# super-logarithm value), 25 digits
LIMIT_AT_MINUS_1 = big("-1.422353667733386203392616")


def mp_close(a, b, tol):
    with mp.workprec(600):
        return abs(mpmath.mpmathify(a) - mpmath.mpmathify(b)) <= tol


class TestPrecisionConfig:
    def test_defaults(self):
        cfg = PrecisionConfig()
        assert [f.name for f in dataclasses.fields(cfg)] == ["mantissa_bits"]
        assert cfg.mantissa_bits == 256

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mantissa_bits": 52},
            # a float width would slip past the bound check
            {"mantissa_bits": math.nan},
            {"mantissa_bits": 128.5},
            {"mantissa_bits": 100.0},
            {"mantissa_bits": math.inf},
            {"mantissa_bits": "256"},
            {"mantissa_bits": None},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            PrecisionConfig(**kwargs)


class TestIterateH:
    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_fixed_point(self, n):
        assert iterate_h(0, n, CFG256) == 0

    def test_two_steps_match_direct_composition(self):
        # double-precision oracle: two explicit compositions
        want = math.exp(math.e - 1) - 1
        got = iterate_h(1, 2, PrecisionConfig(mantissa_bits=53))
        assert mp_close(got, want, 1e-14)

    def test_thron_decay_constant(self):
        # n * h^[n](z) -> -2 regardless of the basin start point
        got = iterate_h(-1, 100000, CFG256) * 100000
        assert abs(got + 2) < 2e-3 * 2

    def test_escape_carries_index(self):
        with pytest.raises(OrbitOverflowError) as info:
            iterate_h(3, 10, CFG256)
        assert isinstance(info.value.index, int)
        assert 0 < info.value.index < 10

    def test_step_off_a_tower_lands_at_minus_one(self):
        # a complex orbit stepping off a value of about 10^(6e6) whose
        # real part is negative: expm1 reduced its imaginary part of the
        # same size for minutes; h rounds to -1 there, as for a real orbit
        z = mpmath.mpc("14230211.427089587", "-50930376244434208.0")
        cfg = PrecisionConfig(mantissa_bits=64)
        assert iterate_h(z, 2, cfg) == -1
        assert abs(iterate_h(z, 3, cfg) - (mpmath.exp(-1) - 1)) < 1e-15
        assert iterate_h(mpmath.mpf(-2e8), 1, cfg) == -1

    def test_orbit_cap(self):
        with pytest.raises(NonConvergenceError, match="max_iterations=10000000"):
            iterate_h(-1, limits._MAX_ITERATIONS + 1)

    @given(
        z=st.floats(min_value=-1.9, max_value=-0.05),
        a=st.integers(min_value=0, max_value=12),
        b=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_orbit_splits_exactly(self, z, a, b):
        # same steps in the same order: bitwise equality, not just closeness
        whole = iterate_h(z, a + b, CFG256)
        split = iterate_h(iterate_h(z, a, CFG256), b, CFG256)
        assert whole == split


class TestIterateHInverse:
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_fixed_point(self, n):
        assert iterate_h_inverse(0, n, CFG256) == 0

    def test_round_trip(self):
        got = iterate_h(iterate_h_inverse(1, 7, CFG256), 7, CFG256)
        assert mp_close(got, 1, mpmath.mpf(2) ** -240)

    def test_domain_error_on_real_line(self):
        with pytest.raises(DomainError):
            iterate_h_inverse(-1, 1, CFG256)
        with pytest.raises(DomainError):
            # log1p(0.5) - 1.9 < -1 after a couple of steps is impossible;
            # instead start below and fail immediately
            iterate_h_inverse(-1.5, 3, CFG256)

    def test_thron_decay_constant_backward(self):
        got = iterate_h_inverse(1, 100000, CFG256) * 100000
        assert abs(got - 2) < 2e-3 * 2

    def test_complex_round_trip(self):
        z = mpmath.mpc("0.3", "0.4")
        got = iterate_h_inverse(iterate_h(z, 5, CFG256), 5, CFG256)
        assert mp_close(got, z, mpmath.mpf(2) ** -240)


class TestLevy:
    def test_equal_points_give_zero(self):
        assert levy_abel(-0.7, -0.7, 25, CFG256) == 0

    def test_probe_reference_values(self):
        # 256-bit reference run, stable at 512 bits
        got = levy_probe(-1, 1, 100, CFG256)
        assert mp_close(got, big("-1.455992916729392222789"), 1e-18)
        got = levy_probe(-1, 1, 10000, CFG256)
        assert mp_close(got, big("-1.42269807618577"), 1e-13)

    def test_probe_converges_to_shift_limit(self):
        got = levy_probe(-1, 1, 200000, CFG256)
        assert mp_close(got, LIMIT_AT_MINUS_1, 2e-5)

    def test_degenerate_denominator(self):
        # u at the fixed point freezes the denominator orbit step
        with pytest.raises(NonConvergenceError):
            levy_abel(-0.5, 0, 5, CFG256)

    def test_escaped_numerator_orbit_is_an_overflow(self):
        # tau_inv(4) > 0 escapes: h^[7] of it is about 10^139876, past the
        # escape bound, so the ratio at n = 7 would be tower-sized
        got = levy_probe(4, 1, 6, CFG256)
        assert mp_close(got, big("15711774.81971903838006696983"), 1e-12)
        with pytest.raises(OrbitOverflowError) as info:
            levy_probe(4, 1, 7, CFG256)
        assert info.value.index == 7

    def test_double_precision_is_flagged_late(self):
        # a real orbit steps on integers with 2 log2 n guard bits, so its
        # differences keep the width: at 20000 steps the 53-bit probe is
        # within 9.2e-17 of the 256-bit one, and it once warned there
        dbl = PrecisionConfig(mantissa_bits=53)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levy_probe(-1, 1, 10000, dbl)
            got = levy_probe(-1, 1, 20000, dbl)
        want = levy_probe(-1, 1, 20000, CFG256)
        assert abs(got - want) < 2e-16 * abs(want)

    def test_complex_orbits_are_flagged_at_double_precision(self):
        # a complex orbit steps on mpmath values at the width: its
        # differences lose what the denominator's 2/n^2 cancels, and at
        # 20000 steps the 53-bit value is 9.5e-12 off the 256-bit one,
        # which is `want` to 15 digits
        with pytest.warns(PrecisionLossWarning):
            got = levy_abel(-0.5 + 0.1j, -0.2 + 0.3j, 20000, PrecisionConfig(mantissa_bits=53))
        want = mpmath.mpc("0.894239901290199", "-3.57860119666403")
        assert abs(got - want) > 1e-12 * abs(want)

    def test_high_precision_not_flagged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levy_probe(-1, 1, 20000, CFG256)


class TestNewton:
    def test_t_zero_returns_start(self):
        res = newton_superfunction(2.5, 0, 30)
        assert res.value == mpmath.mpf("2.5")

    def test_t_one_returns_one_step(self):
        res = newton_superfunction(0.25, 1, 30)
        with mp.workprec(300):
            want = mpmath.expm1(mpmath.mpf("0.25"))
        assert mp_close(res.value, want, 1e-70)

    def test_integer_t_telescopes_to_orbit(self):
        res = newton_superfunction(-0.5, 3, 40)
        assert mp_close(res.value, iterate_h(-0.5, 3, CFG256), 1e-70)

    def test_integer_t_ignores_overflowing_tail(self):
        # orbit from 2.5 escapes after a few steps, but C(2, n) = 0 kills
        # every term that would need it
        res = newton_superfunction(2.5, 2, 500)
        assert mp_close(res.value, iterate_h(2.5, 2, CFG256), 1e-60)

    def test_bounded_base_map_partial_sum(self):
        # 400-bit reference run of the slow-convergence demonstration prefix
        cfg = PrecisionConfig(mantissa_bits=400)
        res = newton_superfunction(
            1, mpmath.mpf("-1.4223536677333"), 120, cfg, base_map="f"
        )
        assert mp_close(res.value, mpmath.mpf("-0.9412366111"), 1e-8)
        assert not res.cancellation_warning
        assert mp_close(res.max_term, 1, 1e-6)

    def test_base_map_f_one_step(self):
        res = newton_superfunction(1, 1, 10, base_map="f")
        with mp.workprec(300):
            want = mpmath.exp(1 / mpmath.e)
        assert mp_close(res.value, want, 1e-70)

    def test_cancellation_flag_at_double(self):
        # non-integer t deep in the orbit: binomials reach ~1e10 while the
        # result is O(0.05), far beyond half of a 53-bit mantissa
        res = newton_superfunction(
            -1.9, mpmath.mpf("40.5"), 200, PrecisionConfig(mantissa_bits=53)
        )
        assert res.cancellation_warning
        assert res.max_term > 1e9

    def test_f_step_off_a_tower_lands_at_zero(self):
        # f(2e7 + 9i) is about -1.2e3195360: the next step reduced an
        # imaginary part that size for minutes, and lands at 0 instead
        res = newton_superfunction(
            mpmath.mpc(2e7, 9), 0.5, 3, PrecisionConfig(mantissa_bits=64), "f"
        )
        assert mpmath.isfinite(res.value)

    def test_rejects_unknown_base_map(self):
        with pytest.raises(ValueError):
            newton_superfunction(1, 1, 1000, base_map="g")

    @pytest.mark.parametrize("n", [0, -3, 2.0, math.nan, CFG256])
    def test_rejects_bad_n(self, n):
        # a PrecisionConfig in n's place too
        with pytest.raises(ValueError):
            newton_superfunction(1, 1, n)

    def test_overflow_propagates_for_fractional_t(self):
        with pytest.raises(OrbitOverflowError):
            newton_superfunction(2.5, 0.5, 30)

    def test_orbit_cap(self):
        # n summands take an orbit of n - 1 steps, refused past 10^7
        # before the first step (it ran, with an O(n^2) difference table)
        with pytest.raises(NonConvergenceError, match="max_iterations=10000000"):
            newton_superfunction(0.1, 0.5, 10**7 + 2)


class TestFatou:
    def test_petal_validation(self):
        with pytest.raises(ValueError):
            fatou_abel(-1, 3, 10, CFG256)
        with pytest.raises(ValueError):
            fatou_abel(-1, 1, 0, CFG256)
        with pytest.raises(DomainError):
            fatou_abel(0.5, 1, 10, CFG256)
        with pytest.raises(DomainError):
            fatou_abel(-0.5, 2, 10, CFG256)

    def test_long_orbit_keeps_the_working_bits(self):
        # -2/w - n amplifies the orbit's absolute error by about n^2/2, so
        # the orbit's guard bits grow with n.  Measured against a
        # 2 bits + 64 reference at n = 10^5: 2^-127.3 relative, where a
        # fixed 32 guard bits gave 2^-111.4
        n, bits = 10**5, 128
        got = fatou_abel(-1, 1, n, PrecisionConfig(mantissa_bits=bits))
        want = fatou_abel(-1, 1, n, PrecisionConfig(mantissa_bits=2 * bits + 64))
        with mp.workprec(2 * bits + 64):
            gap = float(mpmath.log(abs(got - want) / abs(want), 2))
        print(f"n = 10^5 at {bits} bits: 2^{gap:.1f} relative")
        assert gap <= -(bits - 2)

    def test_petal1_index_shift_identity(self):
        # the estimator is an Abel-function approximant, so shifting the
        # argument by one h-step and the index by one differs by exactly
        # 1 + (1/3) log(1 + 1/n)
        with mp.workprec(256):
            z = mpmath.mpf(-1)
            n = 100
            lhs = fatou_abel(mpmath.expm1(z), 1, n, CFG256)
            rhs = fatou_abel(z, 1, n + 1, CFG256)
            gap = 1 + mpmath.log1p(mpmath.mpf(1) / n) / 3
            assert mp_close(lhs - rhs, gap, mpmath.mpf(2) ** -230)

    def test_petal2_index_shift_identity(self):
        with mp.workprec(256):
            z = mpmath.mpf("0.8")
            n = 90
            lhs = fatou_abel(mpmath.log1p(z), 2, n, CFG256)
            rhs = fatou_abel(z, 2, n + 1, CFG256)
            gap = mpmath.log1p(mpmath.mpf(1) / n) / 3 - 1
            assert mp_close(lhs - rhs, gap, mpmath.mpf(2) ** -230)

    def test_probe_reference_values(self):
        got = fatou_probe(-1, 1000, CFG256)
        assert mp_close(got, big("-1.4224939765212650"), 1e-15)
        got = fatou_probe(-1, 10000, CFG256)
        assert mp_close(got, big("-1.4223677403385"), 1e-12)

    def test_probe_matches_difference_of_estimators(self):
        with mp.workprec(256):
            n = 500
            za = mpmath.mpf(-1) / mpmath.e - 1
            zb = mpmath.mpf(0) / mpmath.e - 1
            parts = fatou_abel(za, 1, n, CFG256) - fatou_abel(zb, 1, n, CFG256) - 1
            assert mp_close(fatou_probe(-1, n, CFG256), parts, mpmath.mpf(2) ** -240)

    def test_shift_probe_from_the_fixed_point_is_a_domain_error(self):
        # tau_inv(e) is the fixed point 0 itself, whose orbit never moves;
        # a double e is the same point at 53 bits
        with pytest.raises(DomainError, match="fixed point"):
            fatou_probe(mpmath.e, 10, CFG256)
        for e, cfg in ((mpmath.e, CFG256), (math.e, PrecisionConfig(mantissa_bits=53))):
            rows = convergence_table("fatou1", (e,), [1, 10], cfg)
            assert [(r.value, r.error) for r in rows] == [(None, "domain")] * 2

    def test_richardson_gains_an_order(self):
        probe = fatou_probe(-1, 2000, CFG256)
        rich = fatou_probe_richardson(-1, 2000, CFG256)
        assert abs(rich - LIMIT_AT_MINUS_1) < abs(probe - LIMIT_AT_MINUS_1) / 50
        # the extrapolation step runs at the configured width, not at
        # mpmath's global 53 bits
        assert rich._mpf_[3] >= 256
        with mp.workprec(256):
            want = 2 * probe - fatou_probe(-1, 1000, CFG256)
        assert rich == want

    def test_richardson_needs_even_n(self):
        with pytest.raises(ValueError):
            fatou_probe_richardson(-1, 999, CFG256)

    def test_monotone_refinement(self):
        # empirical contract: doubling n shrinks the inter-row gap
        y1 = fatou_probe(-1, 1000, CFG256)
        y2 = fatou_probe(-1, 2000, CFG256)
        y4 = fatou_probe(-1, 4000, CFG256)
        assert abs(y4 - y2) < abs(y2 - y1)


class TestNonFiniteArguments:
    """A NaN or an infinite part is a DomainError at every limit formula.

    Before the argument rule reached them, a NaN ran through the orbits
    and came back as NaN, iterate_h_inverse(inf, 5) returned +inf, and
    newton_superfunction(0.1, inf, 5) raised a raw ValueError.
    """

    NAN, INF = math.nan, math.inf
    CALLS = {
        "iterate_h": lambda x: iterate_h(x, 3),
        "iterate_h_inverse": lambda x: iterate_h_inverse(x, 5),
        "levy_abel z": lambda x: levy_abel(x, 0.5, 3),
        "levy_abel u": lambda x: levy_abel(-0.5, x, 3),
        "levy_probe": lambda x: levy_probe(x, 1, 3),
        "newton u": lambda x: newton_superfunction(x, 0.5, 3),
        "newton t": lambda x: newton_superfunction(0.1, x, 5),
        "fatou_abel": lambda x: fatou_abel(x, 1, 3),
        "fatou_probe": lambda x: fatou_probe(x, 3),
        "fatou_probe_richardson": lambda x: fatou_probe_richardson(x, 4),
    }
    VALUES = [NAN, INF, -INF, complex(1, NAN), complex(INF, 0), mpmath.mpf("nan"),
              mpmath.mpc(1, "inf")]

    @pytest.mark.parametrize("x", VALUES, ids=repr)
    @pytest.mark.parametrize("call", CALLS)
    def test_domain_error(self, call, x):
        with pytest.raises(DomainError, match=r"^argument must be finite, got "):
            self.CALLS[call](x)

    @pytest.mark.parametrize(
        "method, args",
        [("levy", (NAN, 1)), ("levy", (-1, INF)), ("fatou1", (INF,)),
         ("fatou2", (2, NAN)), ("newton", (NAN, 0.5)), ("newton", (0.1, INF, "f"))],
    )
    def test_table_refuses_before_any_row(self, monkeypatch, method, args):
        # newton evaluates row by row: no row may run, not even as an
        # error row
        def no_row(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(limits, "newton_superfunction", no_row)
        monkeypatch.setattr(limits, "fatou_abel", no_row)
        with pytest.raises(DomainError, match=r"^argument must be finite, got "):
            convergence_table(method, args, [1, 2], CFG256)

    def test_finite_extremes_are_not_refused(self):
        # an int past the double range is finite: its orbit escapes
        with pytest.raises(OrbitOverflowError):
            iterate_h(10**400, 2)
        assert iterate_h(-(10**400), 1) == -1


class TestConvergenceTable:
    def test_empty(self):
        assert convergence_table("levy", (-1, 1), [], CFG256) == []

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            convergence_table("levy", (-1, 1), [5, 3], CFG256)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            convergence_table("simpson", (-1, 1), [3], CFG256)

    @pytest.mark.parametrize(
        "method, args, message",
        [("levy", (-1, 1), "nonnegative"), ("fatou1", (-1,), "at least 1")],
    )
    def test_rejects_a_negative_orbit_length(self, method, args, message):
        # the first n of the ascending range is checked with the last,
        # before any row is computed
        with pytest.raises(ValueError, match=f"^orbit length must be {message}$"):
            convergence_table(method, args, range(-3, 3), CFG256)

    @pytest.mark.parametrize(
        "method, args, message",
        [
            ("levy", (), "levy takes 2 arguments, got 0"),
            ("levy", (-1, 1, 2), "levy takes 2 arguments, got 3"),
            ("fatou1", (), "fatou1 takes 1 argument, got 0"),
            ("fatou2", (5,), "fatou2 takes 2 arguments, got 1"),
            ("newton", (0.5,), "newton takes 2 or 3 arguments, got 1"),
            ("newton", (0.5, 1, "h", 2), "newton takes 2 or 3 arguments, got 4"),
        ],
    )
    def test_rejects_a_wrong_argument_count(self, method, args, message):
        # checked before any orbit runs, also for an empty n range
        for ns in ([3], []):
            with pytest.raises(ValueError, match=f"^{message}$"):
                convergence_table(method, args, ns, CFG256)

    def test_levy_rows_match_individual_calls(self):
        rows = convergence_table("levy", (-1, 1), [100, 101, 102], CFG256)
        for rec in rows:
            assert rec.error is None
            assert rec.value == levy_probe(-1, 1, rec.n, CFG256)

    def test_fatou1_rows_match_probe(self):
        rows = convergence_table("fatou1", (-1,), [1000, 1001], CFG256)
        for rec in rows:
            assert rec.value == fatou_probe(-1, rec.n, CFG256)

    def test_fatou2_rows_match_estimator_difference(self):
        # both arguments must exceed e so the backward orbits stay in the
        # repelling petal
        rows = convergence_table("fatou2", (5, 3), [50, 60], CFG256)
        with mp.workprec(256):
            za = 5 / mpmath.e - 1
            zb = 3 / mpmath.e - 1
            for rec in rows:
                want = fatou_abel(za, 2, rec.n, CFG256) - fatou_abel(
                    zb, 2, rec.n, CFG256
                )
                assert mp_close(rec.value, want, mpmath.mpf(2) ** -240)

    def test_newton_rows_are_partial_sums(self):
        rows = convergence_table(
            "newton",
            (1, mpmath.mpf("-1.4223536677333"), "f"),
            [60, 120],
            PrecisionConfig(mantissa_bits=400),
        )
        cfg = PrecisionConfig(mantissa_bits=400)
        want = newton_superfunction(
            1, mpmath.mpf("-1.4223536677333"), 120, cfg, base_map="f"
        ).value
        assert mp_close(rows[1].value, want, mpmath.mpf(10) ** -100)

    @pytest.mark.parametrize(
        "method, args", [("levy", (-1, 1)), ("fatou1", (-1,)), ("fatou2", (5, 3)),
                         ("newton", (0.1, 0.5))]
    )
    def test_orbit_cap_refuses_the_table(self, method, args):
        # before any row; fatou2 once recorded a nonconv row past the cap
        with pytest.raises(NonConvergenceError, match="max_iterations=10000000"):
            convergence_table(method, args, [1, 10**7 + 2], CFG256)

    def test_failed_rows_marked_not_fatal(self):
        # tau_inv(4) > 0 escapes under the forward orbit
        rows = convergence_table("levy", (4, 1), [2, 5, 8], CFG256)
        assert [r.n for r in rows] == [2, 5, 8]
        assert rows[0].error is None and rows[1].error is None
        assert rows[2].error == "overflow" and rows[2].value is None

    def test_printed_column_formats(self):
        rows = convergence_table("levy", (-1, 1), [100], CFG256)
        csv = records_to_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0] == "method,n,value,printed"
        method, n, value, printed = lines[1].split(",")
        assert (method, n) == ("levy", "100")
        assert printed == "-1.4560"
        # value column is a round-trip decimal of the 256-bit result
        assert mp_close(big(value), rows[0].value, mpmath.mpf(10) ** -70)

    def test_printed_truncates_shift_probe(self):
        rows = convergence_table("fatou1", (-1,), [1000, 1002], CFG256)
        csv = records_to_csv(rows)
        printed = [line.split(",")[3] for line in csv.strip().splitlines()[1:]]
        # -1.42249397... truncates to -1.4224939 (rounding would carry)
        assert printed == ["-1.4224939", "-1.4224936"]

    def test_error_row_serialization(self):
        rec = ConvergenceRecord(7, None, "levy", "overflow")
        csv = records_to_csv([rec])
        assert csv.strip().splitlines()[1] == "levy,7,,overflow"

    def test_format_record(self):
        rows = convergence_table("levy", (-1, 1), [100], CFG256)
        value, printed = format_record(rows[0])
        assert printed == "-1.4560"
        assert mp_close(big(value), rows[0].value, mpmath.mpf(10) ** -70)
        assert format_record(ConvergenceRecord(7, None, "levy", "overflow")) == (
            None,
            None,
        )

    def test_format_record_complex_value_has_no_spaces(self):
        with mp.workprec(256):
            value = mpmath.mpc(1, -2) / 3
        text, printed = format_record(ConvergenceRecord(5, value, "newton"))
        assert " " not in text
        assert mp_close(big(text), value, mpmath.mpf(10) ** -70)
        assert printed == mpmath.nstr(value, 12)

    def test_format_record_prints_huge_values(self):
        # a denominator orbit starting 2^-15000 from the fixed point gives
        # a levy row of magnitude 2^30002, not an error: 9032 integer digits, past
        # the 4300 that str() converts from an int.  The row warns, as
        # levy_probe does: u steps as an mpmath value, not on integers, and
        # the denominator h(u) - u ~ u^2/2 keeps about 1000 of 16000 bits
        cfg = PrecisionConfig(mantissa_bits=16000)
        with mp.workprec(16100):
            uf = mpmath.e * (1 + mpmath.mpf(2) ** -15000)
        with pytest.warns(PrecisionLossWarning, match="at n=3"):
            (rec,) = convergence_table("levy", (4, uf), [3], cfg)
        assert rec.error is None
        value, printed = format_record(rec)
        # compared in decimal, since mpmath parses strings through int()
        Dec = decimal.Decimal
        with decimal.localcontext() as dc:
            dc.prec = 20000
            exact = Dec(rec.value.man) * Dec(2) ** rec.value.exp
            assert abs(Dec(printed) - exact) <= Dec("0.00005")
            assert abs(Dec(value) - exact) <= exact * Dec(2) ** -15990
            # the truncating column of fatou1 (7 decimals at n = 1000)
            # shares the digit conversion
            _, cut = format_record(ConvergenceRecord(1000, rec.value, "fatou1"))
            assert 0 <= exact - Dec(cut) < Dec(10) ** -7
        assert len(printed.split(".")[0]) == len(cut.split(".")[0]) == 9032

    def test_printed_digits_stable_under_precision_doubling(self):
        lo = convergence_table("fatou1", (-1,), [1000], PrecisionConfig(mantissa_bits=256))
        hi = convergence_table("fatou1", (-1,), [1000], PrecisionConfig(mantissa_bits=512))
        low_printed = records_to_csv(lo).strip().splitlines()[1].split(",")[3]
        high_printed = records_to_csv(hi).strip().splitlines()[1].split(",")[3]
        assert low_printed == high_printed


# orbit lengths of the fixed-point accuracy checks, and the points whose
# real orbits they follow: tau_inv(-1) and tau_inv(0), the levy (-1, 0)
# and fatou1 (-1,) pairs
ORBIT_NS = (1, 10, 100, 1000, 10000)
ORBIT_POINTS = (-1, 0)


def expm1_reference(w, prec):
    # e^w - 1 rounded to prec: 40 guard bits cover the cancellation while
    # |w| > 2^-30, and exp costs half of expm1
    with mp.workprec(prec + 40):
        v = mpmath.exp(w) - 1
    with mp.workprec(prec):
        return +v


@functools.lru_cache(maxsize=None)
def mpf_orbits(bits, prec):
    # the orbits as mpf steps at prec, from the starts the library makes
    # at bits: mpmath.expm1 at bits (the mpf code of the library before
    # the fixed-point orbits), else the reference steps at prec;
    # {n: [a_n, b_n]} at each n and n + 1
    with mp.workprec(bits):
        ws = [mpmath.mpf(z) / mpmath.e - 1 for z in ORBIT_POINTS]
    rows = {}
    with mp.workprec(prec):
        for i in range(max(ORBIT_NS) + 2):
            if i in ORBIT_NS or i - 1 in ORBIT_NS:
                rows[i] = ws
            if prec == bits:
                ws = [mpmath.expm1(w) for w in ws]
            else:
                ws = [expm1_reference(w, prec) for w in ws]
    return rows


def estimate(kind, rows, n, prec):
    # each estimator from orbit points, as the mpf code computed it
    (a, b), (_, b1) = rows[n], rows[n + 1]
    with mp.workprec(prec):
        if kind == "iterate_h":
            return a
        if kind == "fatou1":
            return -2 / a + 2 / b - 1
        return (a - b) / (b1 - b)


def library(kind, bits):
    cfg = PrecisionConfig(mantissa_bits=bits)
    if kind == "iterate_h":
        with mp.workprec(bits):
            start = mpmath.mpf(-1) / mpmath.e - 1
        return [iterate_h(start, n, cfg) for n in ORBIT_NS]
    if kind == "levy_probe":
        return [levy_probe(-1, 0, n, cfg) for n in ORBIT_NS]
    args = (-1, 0) if kind == "levy" else (-1,)
    return [rec.value for rec in convergence_table(kind, args, ORBIT_NS, cfg)]


def mpf_escape_index(starts, n, numerator_at_n=False):
    # the step at which the 256-bit mpf orbits met the escape bound 1e8
    with mp.workprec(256):
        ws = [mpmath.mpmathify(z) for z in starts]
        for i in range(n):
            for k, w in enumerate(ws):
                if w > 1e8:
                    return i
                ws[k] = mpmath.expm1(w)
        if numerator_at_n and ws[0] > 1e8:
            return n
    return None


class TestFixedPointOrbits:
    @pytest.mark.parametrize("bits", [53, 128, 256])
    @pytest.mark.parametrize("kind", ["iterate_h", "levy_probe", "levy", "fatou1"])
    def test_no_farther_from_a_reference_than_the_mpf_orbit(self, kind, bits):
        ref = mpf_orbits(bits, 2 * bits + 64)
        old = mpf_orbits(bits, bits)
        formula = "levy" if kind == "levy_probe" else kind
        for n, got in zip(ORBIT_NS, library(kind, bits)):
            want = estimate(formula, ref, n, 2 * bits + 64)
            before = estimate(formula, old, n, bits)
            with mp.workprec(2 * bits + 64):
                err, err_before = abs(got - want), abs(before - want)
                assert err <= err_before, (n, float(err), float(err_before))
                if bits >= 128:
                    assert err <= abs(want) * mpmath.mpf(2) ** (8 - bits), n

    @pytest.mark.parametrize("inverse", [False, True])
    def test_states_are_backend_integers(self, inverse):
        # mpmath's fixed-point routines return its backend's integer type,
        # an mpz under gmpy, not the builtin int; any integer type must
        # step, convert and enter the probes alike
        class Wide(int):
            pass

        sign = 1 if inverse else -1
        with mp.workprec(256):
            starts = [sign * mpmath.mpf(0.5), sign * mpmath.mpf(0.25)]
            orbits = limits._Orbits(starts, 256, inverse)
            orbits.run_to(50)
            states = orbits.states
            assert all(isinstance(w, MPZ_TYPE) for w in states)
            for w in states:
                assert orbits.step(Wide(w), 50) == orbits.step(w, 50)
                assert orbits.value(Wide(w)) == orbits.value(w)
            if inverse:
                return
            want = limits._ratio_terms(orbits, 50), limits._shift_value(orbits)
            orbits.states = [Wide(w) for w in states]
            got = limits._ratio_terms(orbits, 50), limits._shift_value(orbits)
            assert got == want

    @pytest.mark.parametrize(
        "start, n", [(3, 10), (4, 3), (4, 10), (100, 5), (-200, 50)]
    )
    def test_iterate_h_escapes_at_the_mpf_index(self, start, n):
        index = mpf_escape_index([start], n)
        if index is None:
            with mp.workprec(256):
                want = mpmath.mpf(start)
                for _ in range(n):
                    want = mpmath.expm1(want)
            assert mp_close(iterate_h(start, n, CFG256), want, abs(want) * 2.0**-250)
            return
        with pytest.raises(OrbitOverflowError) as info:
            iterate_h(start, n, CFG256)
        assert info.value.index == index

    def test_levy_escapes_at_the_mpf_index(self):
        with mp.workprec(256):
            starts = [mpmath.mpf(4) / mpmath.e - 1, mpmath.mpf(1) / mpmath.e - 1]
        assert mpf_escape_index(starts, 7, numerator_at_n=True) == 7
        with pytest.raises(OrbitOverflowError) as info:
            levy_probe(4, 1, 7, CFG256)
        assert info.value.index == 7
        rows = convergence_table("levy", (4, 1), range(2, 9), CFG256)
        assert [r.error for r in rows] == [None] * 5 + ["overflow"] * 2

    @pytest.mark.parametrize("start", [-0.5, -0.7, 2.0, 1e30])
    def test_backward_domain_error_at_the_mpf_step(self, start):
        with mp.workprec(256):
            w, step = mpmath.mpf(start), None
            for i in range(6):
                if w <= -1:
                    step = i
                    break
                w = mpmath.log1p(w)
        if step is None:
            assert mp_close(iterate_h_inverse(start, 6, CFG256), w, abs(w) * 2.0**-250)
            return
        with pytest.raises(DomainError, match=f"at step {step}\\)"):
            iterate_h_inverse(start, 6, CFG256)

    @pytest.mark.parametrize("bits", [128, 256])
    def test_backward_orbit_against_a_reference(self, bits):
        cfg = PrecisionConfig(mantissa_bits=bits)
        for n in (1, 100, 1000):
            got = iterate_h_inverse(1, n, cfg)
            with mp.workprec(2 * bits + 64):
                want = mpmath.mpf(1)
                for _ in range(n):
                    want = mpmath.log1p(want)
                assert abs(got - want) <= want * mpmath.mpf(2) ** (8 - bits), n

    @pytest.mark.parametrize("bits", [128, 256])
    def test_fatou_abel_against_a_reference(self, bits):
        # -2/w -+ n cancels down from n = 10^4 to O(1), so it is rounded
        # once from the orbit's integer state.  Against the same orbit
        # summed at 2 bits + 64 the value keeps bits - 4 bits: three
        # roundings of terms below 4 |value| (the working-precision form
        # lost log2(n), 2^(11 - bits) measured).  Against a reference
        # orbit the orbit's own absolute error, which 2/w^2 = n^2/2
        # amplifies, would dominate (2^(7.4 - bits) measured with 32 guard
        # bits); the estimator's orbit carries 2 log2 n more than
        # iterate_h's for it: 2^(0.3 - bits) and below measured
        n, prec = 10000, 2 * bits + 64
        cfg = PrecisionConfig(mantissa_bits=bits)
        with mp.workprec(bits):
            starts = {1: mpmath.mpf(-1) / mpmath.e - 1, 2: 5 / mpmath.e - 1}
        with mp.workprec(prec):
            backward = starts[2]
            for _ in range(n):
                backward = mpmath.log1p(backward)
        reference = {1: mpf_orbits(bits, prec)[n][0], 2: backward}
        for petal, sign in ((1, -1), (2, 1)):
            got = fatou_abel(starts[petal], petal, n, cfg)
            # the estimator's orbit, and its exact integer state as a
            # value of the global context
            orbits = limits._Orbits([starts[petal]], bits, petal == 2, n)
            orbits.run_to(n)
            orbit = limits.plain(orbits.values()[0])
            with mp.workprec(prec):
                exact = -mpmath.log(n) / 3 - 2 / orbit + sign * n
                want = -mpmath.log(n) / 3 - 2 / reference[petal] + sign * n
                gap = float(mpmath.log(abs(got - want) / abs(want), 2))
                print(f"petal {petal}: 2^{gap:.1f} from the reference")
                assert abs(got - exact) <= abs(exact) * mpmath.mpf(2) ** (4 - bits)
                assert abs(got - want) <= abs(want) * mpmath.mpf(2) ** (2 - bits)

    def test_start_near_the_fixed_point_keeps_its_bits(self):
        # 2^-100 lies below the fixed-point range, so it steps as an mpf
        # and keeps 256 significant bits where the integer would keep 188
        with mp.workprec(256):
            u = mpmath.mpf(2) ** -100 * 3
            want = mpmath.expm1(mpmath.expm1(u))
        assert iterate_h(u, 2, CFG256) == want


# convergence tables whose CSV is pinned by digest, per method: the print
# blocks' boundaries, failed rows (overflow, domain) and complex rows.
# levy and fatou1 reach the 10^5 block at 64 bits only, to keep it quick
DIGEST_TABLES = {
    "levy": [
        ((-1, 1), [0, 1, 999, 1000, 9999, 10000]),
        ((-1, 1), [99999, 100000], 64),
        ((4, 1), [2, 5, 7, 8]),
        ((-1 + 0.5j, 1), [10, 11]),
    ],
    "fatou1": [
        ((-1,), [1, 999, 9999, 10000]),
        ((-1,), [99999, 100000], 64),
        ((mpmath.e,), [1, 10]),
        ((math.e,), [1, 10]),
        ((-1 + 0.5j,), [10, 11]),
    ],
    "fatou2": [
        ((5, 3), [1, 50, 60, 999, 1000]),
        ((1, 3), [1, 10]),
        ((5 + 1j, 3), [10, 20]),
    ],
    "newton": [
        ((0.3, 0.5), [1, 2, 10, 30]),
        ((1, mpmath.mpf("-1.4223536677333"), "f"), [1, 2, 40, 60]),
        ((-0.5, 3), [1, 2, 4, 10]),
        ((2.5, 2), [1, 3, 10]),
        ((2.5, 0.5), [1, 2, 3, 5, 8]),
        ((0.1 + 0.2j, 0.5, "f"), [5, 9]),
    ],
}

# SHA-256 of the CSV of a method's tables, and of their printed column.
# The fatou2 CSV digests were re-recorded once, when the rows came to
# share one pass: its orbits carry the guard bits of the largest n, and a
# row is -2/a + 2/b of the two orbits rather than the difference of two
# rounded estimators.  Values moved within an ulp (n = 1 at 64 bits,
# n = 60 and 999 at 256, and the real part of the complex n = 20 row at
# both); the printed column did not
TABLE_DIGESTS = {
    ("levy", 64): (
        "38314f95e3c0521f3a41597bc7063210416748d50a4ec289eed3fab4da047969",
        "a71e171f0cf663915d7600337588a269882e05b8e69a86ea2afbb8997472ad10",
    ),
    ("levy", 256): (
        "785be8333eeb7bdbbed750a6c222f857398dabfa29b89c5009b4857f5f560969",
        "1451eb3539206da8ffa1a9cebbab7ca0f16f7b5008d74d7c83523f375ff1ed45",
    ),
    ("fatou1", 64): (
        "ed86883f9b5c4bdeb91de524b37d33bef71432d9584993d30dcf08d9c3a9e935",
        "a6fe107fa59953d0df02262e03d0e9a2e56d9dd3a40b4df9c2f4653c912be7a6",
    ),
    ("fatou1", 256): (
        "4508c34885bd18db7f1ed4b1793b82ddf4f461d06a152c5fa31721c890a7f707",
        "da547ac4010a5501bca1f33bfe541a53a84b45c94960463ed48ca2d86901e05b",
    ),
    ("fatou2", 64): (
        "8fb690a5d75365b714aea1730c0960c6732c9328320e64a35440c8f6107a4a7d",
        "2e1510d2ed88dfda1c5a38804119811e739cbfcb02d3f0078e75f0c07c8cb9e2",
    ),
    ("fatou2", 256): (
        "361b0f5b45e0fbbf8546f391f67b4f07eebeaf6e67d6a73ea17e32003e940a80",
        "2e1510d2ed88dfda1c5a38804119811e739cbfcb02d3f0078e75f0c07c8cb9e2",
    ),
    ("newton", 64): (
        "40a946e5bf84f9fab06d4185403179c2196998c8e3b89b2fa2601e17dd43f1bb",
        "452dec749b9c581e3090f5b45dd2dccf82ed313d050924063a335f8af84eedd7",
    ),
    ("newton", 256): (
        "e55e1a7c4651a47dcf1774b510eb620ccb25f037a5a7f7e71938036ce0b53c4f",
        "3926428b11bc9d39982f2cbd49ca0122205d5a05ea23cbc3b7a15c9e91460ec5",
    ),
}


def digest_tables(method, bits):
    rows = []
    for args, ns, *width in DIGEST_TABLES[method]:
        if width and width[0] != bits:
            continue
        rows += convergence_table(method, args, ns, PrecisionConfig(mantissa_bits=bits))
    csv = records_to_csv(rows)
    printed = "\n".join(line.split(",")[3] for line in csv.splitlines())
    return tuple(hashlib.sha256(s.encode()).hexdigest() for s in (csv, printed))


class TestTableDigests:
    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize("method", list(DIGEST_TABLES))
    def test_tables_are_unchanged(self, method, bits):
        assert digest_tables(method, bits) == TABLE_DIGESTS[method, bits]


class TestOnePass:
    # orbit steps of a 10-row table: one pass to the last row's n, plus
    # the ratio's step of u past each levy row
    @pytest.mark.parametrize(
        "method, args, steps",
        [
            ("levy", (-1, 1), 2 * 59 + 10),
            ("fatou1", (-1,), 2 * 59),
            ("fatou2", (5, 3), 2 * 59),
            ("newton", (-0.5, 0.5), 58),
            ("newton", (1, 0.5, "f"), 58),
            ("newton", (-0.5, 3), 3),
        ],
    )
    def test_a_table_is_one_pass(self, monkeypatch, method, args, steps):
        count = 0

        def counted(step):
            def wrapper(*args):
                nonlocal count
                count += 1
                return step(*args)

            return wrapper

        monkeypatch.setattr(limits._Orbits, "step", counted(limits._Orbits.step))
        monkeypatch.setattr(limits, "_h_step", counted(limits._h_step))
        monkeypatch.setattr(limits, "_f_step", counted(limits._f_step))
        rows = convergence_table(method, args, range(50, 60), CFG256)
        assert [r.error for r in rows] == [None] * 10
        assert count == steps


class TestIncrementSteps:
    # an estimator orbit's forward step goes by its increment, and every
    # _ANCHOR_EVERY-th index, the first steps and those of a large increment
    # are full steps (test_design pins the counts of a table's pass)
    def test_full_step_from_a_predecessor_off_the_integers(self):
        # w = 64 - 2^-20 is in the integer range; a predecessor 2^-14 away
        # but at u >= 64, out of it, or an mpmath value, did not step to w
        # on integers, so its increment would be no step of w
        orbits = limits._Orbits([-1], 256, estimator_n=1000)
        one = 1 << orbits.scale
        w = 64 * one - (one >> 20)
        full = orbits.step(w, 1)
        for previous in (w + (one >> 14), orbits.value(w - (one >> 14))):
            assert orbits.step(w, 1, previous) == full
        # in range, the same increment is taken, and is no step of w
        assert orbits.step(w, 1, w - (one >> 14)) != full

    @pytest.mark.parametrize("bits", [53, 256])
    def test_drift_from_the_full_step_orbit(self, bits):
        # the documented bounds on a contracting orbit: a state within
        # K + 1 units of 2^-scale of the full step of its predecessor, and
        # within m (K + 3) units of the full-step orbit after m steps
        # (2^11.0 at m = 1600 and 2^14.7 at m = 20000 measured, K = 16)
        n, bound = 20000, limits._ANCHOR_EVERY + 3
        ctx = limits.mp_context(bits)
        starts = [limits._tau_inv(ctx, -1), limits._tau_inv(ctx, 0)]
        orbits = limits._Orbits(starts, bits, estimator_n=n)
        full = list(orbits.states)
        for m in range(1000, n + 1, 1000):
            for i in range(orbits.pos, m):
                full = [orbits.step(w, i) for w in full]
            orbits.run_to(m)
            assert all(isinstance(w, MPZ_TYPE) for w in orbits.states)
            for w, p, v in zip(orbits.states, orbits.previous, full):
                assert abs(w - orbits.step(p, m - 1)) <= limits._ANCHOR_EVERY + 1, m
                assert abs(w - v) <= m * bound, m

    @pytest.mark.parametrize("bits", [53, 256])
    def test_rows_equal_the_full_step_rows(self, monkeypatch, bits):
        cfg = PrecisionConfig(mantissa_bits=bits)
        ns = [1, 16, 17, 100, 1500, 1509, 19999, 20000]

        def tables():
            return [convergence_table("levy", (-1, 1), ns, cfg), convergence_table("fatou1", (-1,), ns, cfg)]

        by_increment = tables()
        # every step a full one, at the same scale: the step as called
        # without its predecessor
        step = limits._Orbits.step
        monkeypatch.setattr(limits._Orbits, "step", lambda self, w, index, previous=None: step(self, w, index))
        assert tables() == by_increment
