"""Tests for the production evaluators.

Reference digits are 192-bit calibration outputs, stable under raising
the precision and under perturbing every tuning knob; cross-checks
against the limit-formula estimators in `limits` appear at the end.
"""

import cmath
import math
import sys
import threading
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from superexp import evaluators as ev
from superexp import limits as lm
from superexp.errors import (
    BranchCutError,
    DomainError,
    NonConvergenceError,
    OrbitOverflowError,
    SuperexpError,
)
from superexp.evaluators import (
    A1,
    A3,
    BranchSign,
    CalibrationConstants,
    EvalContext,
    F1,
    F3,
    abel1,
    abel2,
    calibrate,
    _kernel,
    default_constants,
    superexp_tilde,
)
from superexp.limits import PrecisionConfig

E = math.e


def big(s):
    with mp.workprec(600):
        return mpmath.mpmathify(s)


# 192-bit calibration, digits stable at 256 bits and under tuning changes
X1_REF = big("2.79824815423138766245258318547")
X3_REF = big("-20.2874045899400398361290928609")
A1_NORM_REF = big("3.029297214418036098924994")
A3_NORM_REF = big("-20.05635552975339139965668")
# shared limit of the Abel-function estimators at -1, also checked in
# test_limits against the ratio and orbit-shift formulas
SLOG_MINUS_1 = big("-1.422353667733386203392616")

CC = default_constants()
CTX256 = EvalContext(precision=PrecisionConfig(mantissa_bits=256))


def mp_close(a, b, tol):
    with mp.workprec(600):
        return abs(mpmath.mpmathify(a) - mpmath.mpmathify(b)) <= tol


class TestEvalContext:
    def test_defaults(self):
        ctx = EvalContext()
        assert ctx.precision.mantissa_bits == 53
        assert ctx.abel_tail_terms == 15
        assert ctx.superexp_terms == 16
        assert ctx.abel_disk_radius == 0.25
        assert ctx.superexp_re_threshold == 13.0
        assert ctx.max_recursion == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abel_tail_terms": 0},
            {"superexp_terms": 0},
            {"abel_disk_radius": 0.0},
            {"superexp_re_threshold": -1.0},
            {"max_recursion": 0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            EvalContext(**kwargs)


class TestCalibrate:
    def test_constants_match_reference(self):
        assert CC.bits >= 192
        assert mp_close(CC.x1, X1_REF, 1e-28)
        assert mp_close(CC.x3, X3_REF, 1e-27)
        assert mp_close(CC.a1_norm, A1_NORM_REF, 1e-23)
        assert mp_close(CC.a3_norm, A3_NORM_REF, 1e-22)

    def test_period(self):
        with mp.workprec(CC.bits):
            want = mpmath.mpc(0, 2 * mpmath.pi * mpmath.e)
        assert CC.period_t1.real == 0
        assert mp_close(CC.period_t1.imag, want.imag, mpmath.mpf(2) ** -180)

    def test_anchor_identities(self):
        # the defining equations, evaluated at the calibrating precision
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=CC.bits))
        one = superexp_tilde(CC.x1, BranchSign.minus, ctx)
        three = superexp_tilde(CC.x3, BranchSign.plus, ctx)
        tol = mpmath.mpf(2) ** (40 - CC.bits)
        assert mp_close(one, 1, tol)
        assert mp_close(three, 3, tol)

    def test_precision_floor(self):
        cc = calibrate(EvalContext(precision=PrecisionConfig(mantissa_bits=53)))
        assert cc.bits == 192

    def test_higher_precision_extends_digits(self):
        cc = calibrate(CTX256)
        assert cc.bits == 256
        assert mp_close(cc.x1, CC.x1, mpmath.mpf(2) ** -180)

    def test_decimal_round_trip(self):
        back = CalibrationConstants.from_decimal_dict(CC.as_decimal_dict())
        assert back.bits == CC.bits
        assert mp_close(back.x1, CC.x1, mpmath.mpf(2) ** (2 - CC.bits))
        assert mp_close(back.a3_norm, CC.a3_norm, mpmath.mpf(2) ** (20 - CC.bits))

    def test_default_constants_memoized(self):
        assert default_constants() is default_constants(53)
        assert default_constants(256).bits >= 272

    def test_widest_tier_extends_tier_320(self):
        # tier 448 serves evaluation up to 432 bits; measured 2^-326
        # (x1) and 2^-322 (x3) from tier 320
        wide, tier320 = default_constants(432), default_constants(256)
        assert (wide.bits, tier320.bits) == (448, 320)
        for name in ("x1", "x3"):
            gap = rel_bits(getattr(tier320, name), getattr(wide, name))
            assert gap < -318, (name, gap)


class TestAnchorsDouble:
    def test_f1_at_0_and_1(self):
        assert abs(F1(0) - 1) < 1e-13
        assert abs(F1(1) - math.exp(1 / E)) < 1e-13

    def test_f3_at_0_and_1(self):
        assert abs(F3(0) - 3) < 1e-12
        assert abs(F3(1) - math.exp(3 / E)) < 1e-12

    def test_normalizations(self):
        assert abs(A1(1)) < 1e-13
        assert abs(A3(3)) < 1e-13

    def test_abel_values(self):
        assert mp_close(abel1(1), A1_NORM_REF, 1e-11)
        assert mp_close(abel2(3), A3_NORM_REF, 1e-12)

    def test_tilde_anchors(self):
        assert abs(superexp_tilde(float(CC.x1), "minus") - 1) < 1e-13
        assert abs(superexp_tilde(float(CC.x3), "plus") - 3) < 1e-12


class TestFunctionalEquations:
    @pytest.mark.parametrize("z", [0.3 + 2j, -0.7 + 0.9j, 4.2 - 3j, 1.5])
    def test_f1_step(self, z):
        lhs = F1(z + 1)
        rhs = cmath.exp(F1(z) / E)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    @pytest.mark.parametrize("z", [0.3 + 2j, -3.4 + 0.9j, 2.0 - 5j, 1.5])
    def test_f3_step(self, z):
        lhs = F3(z + 1)
        rhs = cmath.exp(F3(z) / E)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    @pytest.mark.parametrize("z", [-1.0, 0.5 + 1j, -4 - 2j])
    def test_abel1_step(self, z):
        assert abs(abel1(cmath.exp(z / E)) - abel1(z) - 1) < 1e-12

    @pytest.mark.parametrize("z", [5.0, 4 + 3j, 6 - 1j])
    def test_abel2_step(self, z):
        assert abs(abel2(cmath.exp(z / E)) - abel2(z) - 1) < 1e-12

    def test_a1_period(self):
        z = -1 + 0.5j
        shift = complex(CC.period_t1)
        assert abs(A1(z + shift) - A1(z)) < 1e-11

    def test_conjugate_symmetry(self):
        z = 0.3 + 2j
        assert F1(z.conjugate()) == F1(z).conjugate()
        assert F3(z.conjugate()) == F3(z).conjugate()

    @given(
        re=st.floats(min_value=-1.0, max_value=6.0),
        im=st.floats(min_value=0.3, max_value=8.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_f1_step_property(self, re, im):
        z = complex(re, im)
        lhs = F1(z + 1)
        assert abs(lhs - cmath.exp(F1(z) / E)) <= 1e-11 * (1 + abs(lhs))

    @given(
        re=st.floats(min_value=-3.0, max_value=1.0),
        im=st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_abel1_step_property(self, re, im):
        z = complex(re, im)
        assert abs(abel1(cmath.exp(z / E)) - abel1(z) - 1) < 1e-11


class TestRoundTrips:
    @pytest.mark.parametrize("z", [2 + 1j, 0.5 + 0.5j, 1.2 - 2j])
    def test_f1_of_a1(self, z):
        assert abs(F1(A1(z)) - z) < 1e-12

    @pytest.mark.parametrize("z", [2 + 1j, 0.1 + 3j, 1.0])
    def test_a1_of_f1(self, z):
        assert abs(A1(F1(z)) - z) < 1e-12

    def test_f3_of_a3(self):
        for z in (5.0, 4 + 2j):
            assert abs(F3(A3(z)) - z) < 1e-11


class TestAsymptotics:
    def test_f1_approaches_e_up_the_imaginary_axis(self):
        gaps = [abs(F1(1j * y) - E) for y in (10, 30, 100)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_tilde_leading_term(self):
        # |F~ - e| ~ 2e/|z| far out on the minus branch
        ratio = abs(superexp_tilde(1e6, "minus") - E) / (2 * E / 1e6)
        assert abs(ratio - 1) < 0.01

    def test_f3_far_left(self):
        # same leading term at z = -40, where |z + x3| is about 60.3;
        # the next order contributes ~2%
        gap = abs(F3(-40) - E)
        assert abs(gap - 0.0922582) < 1e-4
        ratio = gap / (2 * E / abs(-40 + float(CC.x3)))
        assert 0.95 < ratio < 1.1


class TestCutsAndErrors:
    def test_precision_past_the_threshold_range(self):
        # far past the kernel's widest width (where the modelled walk-out
        # distance would overflow a double) the kernel refuses the width
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=100_000_000))
        with pytest.raises(DomainError, match="out of range"):
            F1(3, ctx, CC)
        with pytest.raises(DomainError, match="out of range"):
            calibrate(ctx)

    def test_precision_above_the_calibrated_range(self):
        # calibrate() reaches its tolerance up to 488 bits, so tier 448
        # (serving 432 bits) is the last one; wider requests are refused
        # when the tier-512 kernel is built, not after its calibration fails
        assert ev.calibration_tier(432) == 448
        assert ev.calibration_tier(433) == 512
        with pytest.raises(DomainError, match="512 bits is out of range.* 432 bits"):
            F1(0.5, EvalContext(precision=PrecisionConfig(mantissa_bits=433)))
        assert ev._MPKernel(
            EvalContext(precision=PrecisionConfig(mantissa_bits=488))
        ).bits == 488
        for bits in (489, 640, 1024):
            ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
            with pytest.raises(DomainError, match=f"{bits} bits is out of range"):
                calibrate(ctx)
            with pytest.raises(DomainError, match=f"{bits} bits is out of range"):
                A1(-1, ctx, CC)

    def test_tilde_singular_at_zero(self):
        with pytest.raises(DomainError):
            superexp_tilde(0, "minus")

    def test_abel2_at_zero(self):
        with pytest.raises(BranchCutError):
            abel2(0)

    def test_abel2_strict_side(self):
        with pytest.raises(BranchCutError):
            abel2(-1, cut_side=None)
        # off the cut the value is side-independent and strict mode passes
        assert abs(abel2(5, cut_side=None) - abel2(5)) == 0

    def test_abel2_above_below(self):
        up = abel2(-1)
        down = abel2(-1, cut_side="below")
        assert up == down.conjugate()
        assert up.imag > 0

    def test_f1_cut_sides(self):
        up = F1(-2.5)
        assert abs(up.imag - math.pi * E) < 1e-12
        assert F1(-2.5, cut_side="below") == up.conjugate()

    def test_f1_divergence_point(self):
        # F1 blows up at -2; in rounded arithmetic the value is the log
        # of the calibration residual, large but finite
        v = F1(-2)
        assert v.real < -25
        assert abs(v.imag - math.pi * E) < 1e-12

    def test_abel1_on_cut_is_marked(self):
        # the forward orbit would escape anywhere on [e, inf), so the ray
        # is reported as the cut it is rather than as an overflow
        with pytest.raises(BranchCutError):
            abel1(5)
        with pytest.raises(BranchCutError):
            abel1(3.0, cut_side="below")
        with pytest.raises(BranchCutError):
            A1(complex(2.8, 0.0))

    def test_f3_overflow_carries_first_bad_step(self):
        with pytest.raises(OrbitOverflowError) as info:
            F3(23)
        assert info.value.index == 16
        with pytest.raises(OrbitOverflowError) as info2:
            F3(40)
        assert info2.value.index == 16

    def test_walk_cap(self):
        with pytest.raises(NonConvergenceError):
            F1(complex(-300, 5))

    def test_abel_cap_carries_residual(self):
        ctx = EvalContext(max_recursion=3)
        with pytest.raises(NonConvergenceError) as info:
            abel1(-50, ctx)
        assert info.value.residual > 0.25

    def test_exhausted_retries_raise(self, monkeypatch):
        # a summation point too close in for its tail: three retries
        # cannot bring the tail under the tolerance, and the value is not
        # returned silently
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=128))
        kernel = _kernel(ctx)
        monkeypatch.setattr(kernel, "threshold", 2.0)
        with pytest.raises(NonConvergenceError) as info:
            superexp_tilde(0.5, "minus", ctx)
        assert info.value.residual > float(kernel.tol)
        monkeypatch.setattr(kernel, "tol", mpmath.mpf(0))
        with pytest.raises(NonConvergenceError) as info:
            abel1(1, ctx)
        assert info.value.residual > 0

    def test_rejects_bad_cut_side(self):
        with pytest.raises(ValueError):
            F1(1, cut_side="left")

    def test_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            superexp_tilde(1, "q")

    @pytest.mark.parametrize("fn", [F1, F3, A1, A3])
    @pytest.mark.parametrize(
        "z",
        [
            math.nan,
            math.inf,
            -math.inf,
            complex(1.0, math.nan),
            complex(math.inf, 0.0),
            complex(0.5, -math.inf),
            mpmath.mpf("nan"),
            mpmath.mpc(1, mpmath.inf),
        ],
        ids=repr,
    )
    def test_rejects_non_finite(self, fn, z):
        with pytest.raises(DomainError, match="finite"):
            fn(z)


class TestMPKernel:
    def test_f1_anchor_at_256_bits(self):
        assert mp_close(F1(0, CTX256), 1, 1e-70)

    def test_f3_step_at_256_bits(self):
        a = F3(mpmath.mpf("0.5"), CTX256)
        b = F3(mpmath.mpf("-0.5"), CTX256)
        with mp.workprec(300):
            assert mp_close(a, mpmath.exp(b / mpmath.e), 1e-80)

    def test_a1_matches_slog_reference(self):
        assert mp_close(A1(mpmath.mpf(-1), CTX256), SLOG_MINUS_1, 1e-24)

    def test_abel1_at_128_bits(self):
        # the 25-digit literal only resolves 1e-24; the 192-bit
        # calibration value carries the tighter comparison
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=128))
        v = abel1(1, ctx)
        assert mp_close(v, A1_NORM_REF, 1e-24)
        assert mp_close(v, CC.a1_norm, mpmath.mpf(2) ** -120)

    @pytest.mark.parametrize(
        "bits, threshold, bound", [(128, 41.0, 2.0**-120), (256, 174.0, 2.0**-250)]
    )
    def test_tilde_step_past_walk_threshold(self, bits, threshold, bound):
        # F~(x + 1) = exp(F~(x)/e) with x and x + 1 both past the walk-out
        # threshold and the series tail there already below the retry
        # tolerance, so each side is a direct sum of the P_m series; a
        # point that walked would reach its sum through this very step.
        # Measured at x = threshold + 0.25: 2^-141 (128, 28 terms),
        # 2^-285 (256, 44 terms)
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        assert _kernel(ctx).threshold == threshold
        x = threshold + 0.25
        f0 = superexp_tilde(x, "minus", ctx)
        f1 = superexp_tilde(x + 1, "minus", ctx)
        with mp.workprec(bits + 32):
            residual = abs(f1 - mpmath.exp(f0 / mpmath.e))
        assert residual < bound

    def test_tightened_context_respected(self):
        # the kernel may not loosen an explicitly tightened radius
        tight = EvalContext(
            precision=PrecisionConfig(mantissa_bits=128), abel_disk_radius=0.02
        )
        loose = EvalContext(precision=PrecisionConfig(mantissa_bits=128))
        a = abel1(1, tight)
        b = abel1(1, loose)
        assert mp_close(a, b, mpmath.mpf(2) ** -120)


@lru_cache(maxsize=None)
def _reference_384():
    # constants from a 384-bit calibration: its own Abel walks
    return calibrate(EvalContext(precision=PrecisionConfig(mantissa_bits=384)))


def rel_bits(a, b):
    """log2 of the relative gap between a value and its reference."""
    with mp.workprec(600):
        return float(mpmath.log(abs(a - b) / abs(b), 2))


class TestTermTiers:
    """Wide kernels sum more terms instead of walking further out."""

    def test_order_rises_above_192_bits(self):
        def tier(bits):
            k = _kernel(EvalContext(precision=PrecisionConfig(mantissa_bits=bits)))
            return k.m_terms, k.threshold

        # through 192 bits the 28-term thresholds are unchanged
        assert [tier(b) for b in (128, 192)] == [(28, 41.0), (28, 180.0)]
        assert [tier(b) for b in (256, 320)] == [(44, 174.0), (44, 454.0)]
        # the context's term count stays a floor
        ctx = EvalContext(
            precision=PrecisionConfig(mantissa_bits=256), superexp_terms=50
        )
        assert _kernel(ctx).m_terms == 50

    @pytest.mark.parametrize("bits", [224, 256, 320, 384])
    def test_tail_at_threshold_meets_target(self, bits):
        # the fitted tail constant puts the threshold past the frontier
        # where the last term reaches 2^-(bits+12)
        kernel = _kernel(EvalContext(precision=PrecisionConfig(mantissa_bits=bits)))
        with kernel.guard():
            x = mpmath.mpf(kernel.threshold)
            _, last = kernel.ftilde_series(x, BranchSign.minus)
        assert last <= mpmath.mpf(2) ** -(bits + 12)

    def test_one_sum_per_evaluation(self, monkeypatch):
        # the tail at the walk-out threshold is below the retry tolerance,
        # so no evaluation at 256 bits sums the series twice
        counts = {"evals": 0, "sums": 0}
        walk, series = ev._ftilde_eval, ev._MPKernel.ftilde_series

        def counted_walk(*args):
            counts["evals"] += 1
            return walk(*args)

        def counted_series(self, *args):
            counts["sums"] += 1
            return series(self, *args)

        monkeypatch.setattr(ev, "_ftilde_eval", counted_walk)
        monkeypatch.setattr(ev._MPKernel, "ftilde_series", counted_series)
        cc = default_constants(256)
        counts.update(evals=0, sums=0)
        for z in (0.5, -1.5 + 0.75j, 1 + 2j):
            F1(z, CTX256, cc)
            F3(z, CTX256, cc)
        assert counts == {"evals": 6, "sums": 6}

    def test_256_bit_values_against_384_bits(self):
        # measured: F1 2^-269..-273, F3 2^-279..-280
        ref = _reference_384()
        ctx384 = EvalContext(precision=PrecisionConfig(mantissa_bits=384))
        cc = default_constants(256)
        with mp.workprec(300):
            points = [mpmath.mpf("0.5"), mpmath.mpc("-1.5", "0.75"), mpmath.mpc(1, 2)]
        for fn in (F1, F3):
            for z in points:
                gap = rel_bits(fn(z, CTX256, cc), fn(z, ctx384, ref))
                assert gap < -256, (fn.__name__, z, gap)

    def test_tier_320_anchor_against_384_bits(self):
        # measured 2^-326
        gap = rel_bits(default_constants(256).x1, _reference_384().x1)
        assert gap < -318


class TestLazyTables:
    """Each kernel builds the exact table it needs once, on first use."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # empty caches for the exact tables and the kernels, and a count
        # of the series builds at the names the evaluators call
        counts = {"abel_expansion": 0, "superexp_polynomials": 0}
        for name in counts:

            def counted(*args, _name=name, _build=getattr(ev, name)):
                counts[_name] += 1
                return _build(*args)

            monkeypatch.setattr(ev, name, counted)
        for name in ("_abel_tail_coeffs", "_ftilde_polys"):
            fresh = ev._prefix_table(getattr(ev, name).__wrapped__)
            monkeypatch.setattr(ev, name, fresh)
        monkeypatch.setattr(ev, "_kernel", lru_cache(maxsize=None)(ev._kernel.__wrapped__))
        return counts

    def test_abel_tail_prefix(self):
        # abel1 reads the first n coefficients of abel2's n + 1, and the
        # 53-bit tail is a prefix of tier 192's
        build = ev._abel_tail_coeffs.__wrapped__
        assert build(16)[:15] == build(15)
        assert build(49)[:48] == build(48)
        assert build(65)[:16] == build(16)

    def test_ftilde_polys_prefix(self):
        # P_1..P_m do not depend on how many polynomials are built
        build = ev._ftilde_polys.__wrapped__
        assert build(28)[:16] == build(16)

    def test_tables_are_built_once_longest_first(self, calls):
        # a tier-192 calibration builds the 65-term Abel tail and no P_m;
        # the 53-bit tables are then a prefix of the tail and one P_m build
        calibrate()
        assert calls == {"abel_expansion": 1, "superexp_polynomials": 0}
        A1(-1, EvalContext(), CC)
        F1(0.5, EvalContext(), CC)
        assert calls == {"abel_expansion": 1, "superexp_polynomials": 1}

    @pytest.mark.parametrize("bits", [53, 128])
    def test_abel_walks_build_only_the_abel_tail(self, calls, bits):
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        assert calls == {"abel_expansion": 0, "superexp_polynomials": 0}
        abel1(1, ctx)
        abel2(3, ctx)
        A1(-1, ctx, CC)
        A3(5 + 1j, ctx, CC)
        assert calls == {"abel_expansion": 1, "superexp_polynomials": 0}

    @pytest.mark.parametrize("bits", [53, 128])
    def test_superexp_builds_only_the_polynomials(self, calls, bits):
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        F1(0.5, ctx, CC)
        F3(0.5 + 1j, ctx, CC)
        superexp_tilde(-30, "plus", ctx)
        assert calls == {"abel_expansion": 0, "superexp_polynomials": 1}

    def test_tables_round_as_the_kernel_does(self, calls):
        # doubles round each coefficient once; the mpmath kernel rounds
        # each once to an integer scaled by 2^scale, 16 bits above its
        # 160 work bits at 128 bits
        double = ev._kernel(EvalContext())
        tail = ev._abel_tail_coeffs(16)
        assert double.tail_rev(True) == tuple(float(c) for c in reversed(tail))
        assert double.tail_rev(False) == double.tail_rev(True)[1:]
        mp128 = ev._kernel(EvalContext(precision=PrecisionConfig(mantissa_bits=128)))
        scale = mp128.scale
        assert scale == 176
        tail = ev._abel_tail_coeffs(49)
        assert mp128.tail_rev(True) == tuple(
            round(c * 2**scale) for c in reversed(tail)
        )
        assert mp128.tail_rev(False) == mp128.tail_rev(True)[1:]
        assert mp128.polys_rev() == tuple(
            tuple(round(c * 2**scale) for c in reversed(p))
            for p in reversed(ev._ftilde_polys(28))
        )


class TestPerCallCaches:
    """Kernels found by context identity and anchors cast once per
    constants object give what a cold evaluation gives."""

    FNS = (F1, F3, A1, A3)
    POINTS = (0.5 + 0.5j, 1 + 1j, 5 + 1j, -1.5 + 0.75j, 2.0)

    @pytest.fixture
    def cases(self, monkeypatch):
        # (fn, z, ctx, constants) over two constants objects and three
        # contexts: two equal but distinct, one with other term counts
        perturbed = dict(CC.as_decimal_dict(), x1="2.79824815")
        cc = (CC, CalibrationConstants.from_decimal_dict(perturbed))
        ctxs = (EvalContext(), EvalContext(), EvalContext(superexp_terms=12, abel_tail_terms=12))
        cases = [
            (fn, z, ctx, c)
            for ctx in ctxs for c in cc for fn in self.FNS for z in self.POINTS
        ]
        cold = []
        for fn, z, ctx, c in cases:
            # a new kernel cache: every evaluation builds its kernel and
            # casts its anchors afresh
            fresh = lru_cache(maxsize=32)(ev._kernel.__wrapped__)
            monkeypatch.setattr(ev, "_kernel", fresh)
            monkeypatch.setattr(ev, "_last_kernel", (None, None))
            cold.append(self._value(fn, z, ctx, c))
        # the perturbed x1 moves F1 and nothing else
        assert cold[0] != cold[len(self.FNS) * len(self.POINTS)]
        return cases, cold

    @staticmethod
    def _value(fn, z, ctx, c):
        try:
            return fn(z, ctx, c)
        except SuperexpError as exc:
            return exc.code

    def test_alternating_calls_match_cold_values(self, cases):
        cases, cold = cases
        # interleave so consecutive calls change context and constants
        order = sorted(range(len(cases)), key=lambda i: (i % 7, i))
        for _ in range(2):
            for i in order:
                assert self._value(*cases[i]) == cold[i], cases[i]

    def test_threads_match_serial_values(self, cases):
        # more threads than cores, switching often, in opposite orders so
        # that the shared caches keep changing hands
        cases, cold = cases
        mismatches = []

        def worker(order):
            for _ in range(5):
                for i in order:
                    if self._value(*cases[i]) != cold[i]:
                        mismatches.append(cases[i])

        forward = list(range(len(cases)))
        orders = (forward, forward[::-1], forward[1::2] + forward[::2], forward[::-3])
        threads = [threading.Thread(target=worker, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not mismatches


def _exact(c):
    return mpmath.mpf(c.numerator) / c.denominator


def _ftilde_reference(kernel, z, branch):
    # the mpf Horner sum over the same terms, at twice the work bits
    with mp.workprec(2 * kernel._workbits):
        t = -mpmath.log(z if branch is BranchSign.minus else -z)
        w = 1 / (3 * z)
        s = 0
        for p in reversed(ev._ftilde_polys(kernel.m_terms)):
            pv = 0
            for c in reversed(p):
                pv = pv * t + _exact(c)
            s = (s + pv) * w
        return mpmath.e * (1 - (2 / z) * (1 + s))


def _abel_reference(kernel, zeta, plus_side):
    coeffs = ev._abel_tail_coeffs(kernel.abel_terms + (1 if plus_side else 0))
    with mp.workprec(2 * kernel._workbits):
        arg = -zeta if plus_side else zeta
        logpart = mpmath.log(arg)
        if mpmath.im(arg) == 0 and arg < 0 and not plus_side:
            logpart = mpmath.conj(logpart)  # the kernel's side of the cut
        acc = 0
        for c in reversed(coeffs):
            acc = acc * zeta + _exact(c)
        return logpart / 3 + 2 / zeta + acc * zeta


class TestFixedPointSums:
    """The mpmath kernel sums its series on integers scaled by 2^scale."""

    POINTS = [0.5, -1.5 + 0.75j, 0.5 + 1e3j, -0.5 - 1e15j, 0.5 + 1e100j]

    @pytest.mark.parametrize("bits", [128, 192, 256, 320])
    def test_sums_match_an_mpf_reference(self, monkeypatch, bits):
        # every sum of both branches and both Abel sides, on the walks of
        # real and complex arguments out to |Im z| = 1e100
        calls = []
        for name in ("ftilde_series", "abel_series"):

            def spy(self, *args, _method=getattr(ev._MPKernel, name)):
                value, last = _method(self, *args)
                calls.append((self, _method.__name__, args, value))
                return value, last

            monkeypatch.setattr(ev._MPKernel, name, spy)
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        for z in self.POINTS:
            superexp_tilde(z, "minus", ctx)
            superexp_tilde(z, "plus", ctx)
            abel1(z, ctx)
            abel2(z, ctx)
        abel2(3, ctx)  # a real backward orbit
        seen = set()
        worst = -math.inf
        for kernel, name, args, value in calls:
            if name == "ftilde_series":
                ref = _ftilde_reference(kernel, *args)
                seen.add((name, args[1], type(args[0]), abs(args[0].imag) > 1e99))
            else:
                ref = _abel_reference(kernel, *args[:2])
                seen.add((name, args[1], type(args[0])))
            with mp.workprec(2 * kernel._workbits):
                gap = float(mpmath.log(abs(value - ref) / abs(ref), 2))
            worst = max(worst, gap)
            assert gap <= -(bits + 8), (name, args, gap)
        print(f"{bits} bits: {len(calls)} sums, worst relative gap 2^{worst:.1f}")
        for branch in BranchSign:
            for kind in (mpmath.mpf, mpmath.mpc):
                assert ("ftilde_series", branch, kind, False) in seen
            assert ("ftilde_series", branch, mpmath.mpc, True) in seen
        for plus_side in (False, True):
            for kind in (mpmath.mpf, mpmath.mpc):
                assert ("abel_series", plus_side, kind) in seen

    @pytest.mark.parametrize("bits", [128, 256])
    def test_real_arguments_give_real_values(self, bits):
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        kernel = _kernel(ctx)
        with kernel.guard():
            x = mpmath.mpf(kernel.threshold + 1)
            zeta = mpmath.mpf("0.05")
            values = [
                kernel.ftilde_series(x, BranchSign.minus)[0],
                kernel.ftilde_series(-x, BranchSign.plus)[0],
                kernel.abel_series(zeta, False, "above")[0],
                kernel.abel_series(-zeta, True, "above")[0],
            ]
        values += [
            superexp_tilde(3, "minus", ctx),
            superexp_tilde(0.5, "plus", ctx),
            abel1(0.5, ctx),
            abel2(3, ctx),
        ]
        assert all(type(v) is mpmath.mpf for v in values), values


class TestCrossOracles:
    def test_a1_against_limit_estimators(self):
        # the limit of both estimators in `limits` at -1, double kernel
        assert abs(A1(-1) - float(SLOG_MINUS_1)) < 1e-12

    def test_abel1_is_petal1_estimator_plus_constant(self):
        cfg = lm.PrecisionConfig(mantissa_bits=256)
        offsets = []
        for zf in (-1.0, 0.0, 1.0, -2.5):
            with mp.workprec(256):
                u = mpmath.mpf(zf) / mpmath.e - 1
                fat = lm.fatou_abel(u, 1, 10000, cfg)
            offsets.append(complex(A1(zf)).real - float(fat))
        assert max(offsets) - min(offsets) < 2e-4
