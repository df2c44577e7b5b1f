"""Tests for the production evaluators.

Reference digits are 192-bit calibration outputs, stable under raising
the precision and under perturbing every tuning knob; cross-checks
against the limit-formula estimators in `limits` appear at the end.
"""

import cmath
import math
import random
import sys
import threading
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from superexp import evaluators as ev
from superexp import fixed
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
from superexp.iteration import IterateRequest, dq13, exp_iterate
from superexp.limits import PrecisionConfig

from helpers import superexp_tilde_by_polynomials

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
        assert ctx.abel_disk_radius == 0.25
        # _walk_out(0.25): 2/w is then inside the Abel disk
        assert ctx.superexp_re_threshold == 10.0 == ev._walk_out(0.25)
        assert ctx.max_recursion == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abel_tail_terms": 0},
            {"superexp_re_threshold": 0.0},
            {"abel_disk_radius": 0.0},
            {"superexp_re_threshold": -1.0},
            {"max_recursion": 0},
            {"abel_disk_radius": math.inf},
            {"abel_disk_radius": math.nan},
            {"superexp_re_threshold": math.inf},
            {"superexp_re_threshold": math.nan},
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
        assert info.value.index == 13
        with pytest.raises(OrbitOverflowError) as info2:
            F3(40)
        assert info2.value.index == 13

    def test_walk_cap(self):
        with pytest.raises(NonConvergenceError):
            F1(complex(-300, 5))

    def test_abel_cap_carries_residual(self):
        ctx = EvalContext(max_recursion=3)
        with pytest.raises(NonConvergenceError) as info:
            abel1(-50, ctx)
        assert info.value.residual > 0.25

    def test_exhausted_retries_raise(self, monkeypatch):
        # a summation point too close in for its tail, and the value is
        # not returned silently: at 128 bits Newton's method does not
        # settle on the divergent Abel tail at base 2.5 (the retries
        # running out are TestTermTiers::test_retries_one_unit_out_run_out)
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


def _stepped_walk(kernel, w, plus_side, side):
    # the Abel walk as one guarded exp_step or log_step per step: the
    # double kernel's one-loop walk must give its doubles and errors
    k, zeta = 0, 1 - w / E
    while abs(zeta) >= kernel.abel_radius:
        if k >= kernel.abel_cap:
            raise NonConvergenceError("cap", residual=float(abs(zeta)))
        if plus_side:
            if w == 0:
                raise BranchCutError("backward orbit hit the logarithm singularity at 0")
            w, k = kernel.log_step(w, k + 1, side), k + 1
        else:
            w, advanced = kernel.exp_step(w, k + 1)
            k += advanced
        zeta = 1 - w / E
    return w, k, zeta


class TestDoubleAbelWalk:
    """The guarded cases of the 53-bit walk leave its inline loop."""

    CASES = {
        # x < -745: e^x underflows, the orbit lands at exactly 0
        "underflow": (False, complex(-3000, 0), "above"),
        # x > 700 with cos(y) < -0.05: two steps collapse to 0
        "collapse": (False, complex(1905, 8.5), "above"),
        # x > 700 with cos(y) > -0.05: the overflowing step's index
        "overflow": (False, complex(1905, 3), "above"),
        # a backward step on the negative real axis, with and without a side
        "cut": (True, complex(-5, 0), "above"),
        "cut, no side": (True, complex(-5, 0), None),
        "zero": (True, 0j, "above"),
    }

    @staticmethod
    def _outcome(walk, *args):
        try:
            return repr(walk(*args))
        except SuperexpError as exc:
            return type(exc), exc.args, vars(exc)

    @pytest.mark.parametrize("case", CASES)
    def test_guarded_steps_match_the_stepped_walk(self, monkeypatch, case):
        plus_side, z, side = self.CASES[case]
        kernel = _kernel(EvalContext())
        guarded = []
        for name in ("exp_step", "log_step"):
            step = getattr(kernel, name)

            def counted(*args, _step=step):
                guarded.append(args)
                return _step(*args)

            monkeypatch.setattr(kernel, name, counted)
        got = self._outcome(kernel.abel_walk, z, plus_side, side)
        steps = len(guarded)
        assert got == self._outcome(_stepped_walk, kernel, z, plus_side, side)
        # the loop took the guarded method for the case; w = 0 needs none
        assert (steps == 0) == (case == "zero")
        assert steps <= 2 or case == "zero"

    def test_public_values_and_errors(self):
        # the first four walk on from the guarded step to a value
        assert abel1(-3000) == abel1(0) - 1
        assert abel1(complex(1905, 8.5)) == abel1(0) - 2
        with pytest.raises(OrbitOverflowError) as info:
            abel1(complex(1905, 3))
        assert info.value.index == 1
        assert abel2(-5.0).imag > 0
        with pytest.raises(BranchCutError, match="logarithm cut"):
            abel2(-5.0, cut_side=None)
        with pytest.raises(BranchCutError, match="singularity at 0"):
            abel2(0.0)


class TestDoubleAccuracy:
    """53-bit F1 and F3 against 128 bits over the boxes of test_07."""

    BOXES = {
        "F1": ((-1.5, 8, -8, 8), (-3, 3, -6, 6), (-1, 6, 0.1, 6)),
        "F3": ((-6, 5, -8, 8), (-1, 6, 0.1, 6)),
    }
    # measured maxima of the relative error: F1 2.9e-14 at -2.08-0.50i,
    # next to F1's pole at -2, and F3 1.5e-16.  Each bound is twice its
    # maximum, and not below 16 units in the last place, the room a libm
    # that rounds exp and log otherwise needs
    MEASURED = {"F1": 2.9e-14, "F3": 1.5e-16}

    @pytest.mark.parametrize("fn", ["F1", "F3"])
    def test_relative_error_against_128_bits(self, fn):
        f = {"F1": F1, "F3": F3}[fn]
        ctx128 = EvalContext(precision=PrecisionConfig(mantissa_bits=128))
        rng = random.Random(20260814)
        worst, at = 0.0, None
        for x0, x1, y0, y1 in self.BOXES[fn]:
            for _ in range(100):
                z = complex(rng.uniform(x0, x1), rng.uniform(y0, y1))
                want = complex(f(z, ctx128))
                err = abs(f(z) - want) / abs(want)
                if err > worst:
                    worst, at = err, z
        bound = max(2 * self.MEASURED[fn], 2.0**-49)
        print(f"{fn}: max relative error {worst:.2e} at {at}, bound {bound:.2e}")
        assert worst <= bound


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
        "bits, threshold, bound", [(128, 22.0, 2.0**-120), (256, 68.0, 2.0**-250)]
    )
    def test_tilde_step_past_walk_threshold(self, bits, threshold, bound):
        # F~(x + 1) = exp(F~(x)/e) with x and x + 1 both past the walk-out
        # threshold and the series tail there already below the retry
        # tolerance, so each side is a direct inversion of the Abel
        # series; a point that walked would reach its value through this
        # very step.  Measured at x = threshold + 0.25: 2^-158 (128 bits),
        # 2^-286 (256 bits)
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
    """The Abel tiers (tail terms against disk radius) set both walks:
    above 53 bits F~ inverts the Abel series at its base point."""

    def test_order_rises_above_192_bits(self):
        def tier(bits):
            k = _kernel(EvalContext(precision=PrecisionConfig(mantissa_bits=bits)))
            return k.abel_terms, k.threshold

        # the walk-out threshold is where 2/w reaches the disk radius
        assert [tier(b) for b in (128, 192)] == [(48, 22.0), (64, 36.0)]
        assert [tier(b) for b in (256, 320)] == [(96, 68.0), (96, 83.0)]
        # the context's term count and threshold stay floors
        ctx = EvalContext(
            precision=PrecisionConfig(mantissa_bits=256),
            abel_tail_terms=100,
            superexp_re_threshold=90.0,
        )
        assert (_kernel(ctx).abel_terms, _kernel(ctx).threshold) == (100, 90.0)

    @pytest.mark.parametrize("bits", [224, 256, 320, 384])
    def test_tail_at_threshold_meets_target(self, bits):
        # at the walk-out threshold zeta = 2/w lies inside the disk on
        # both branches, and the Abel tail there, carried to F~, is below
        # 2^-(bits+12).  Measured: 2^-(bits+27) at 384 bits, more below
        kernel = _kernel(EvalContext(precision=PrecisionConfig(mantissa_bits=bits)))
        x = kernel.mp.mpf(kernel.threshold)
        for branch, base in ((BranchSign.minus, x), (BranchSign.plus, -x)):
            value, last = kernel.ftilde_series(base, branch)
            assert abs(1 - value / kernel.mp.e) < kernel.abel_radius
            assert last <= mpmath.mpf(2) ** -(bits + 12), (branch, last)

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

    def test_newton_matches_the_polynomial_sum_at_384_bits(self):
        # the paper's construction, summed by the P_m in tests/helpers.py,
        # against the Abel inversion at points past the walk-out
        # threshold, so that no walk enters either side.  Measured
        # 2^-401..-404
        ctx384 = EvalContext(precision=PrecisionConfig(mantissa_bits=384))
        assert _kernel(ctx384).threshold < 250
        points = {
            "minus": [mpmath.mpf(300), mpmath.mpc(400, -100)],
            "plus": [mpmath.mpf(-300), mpmath.mpc(-250, -40)],
        }
        for branch, zs in points.items():
            for z in zs:
                ref = superexp_tilde_by_polynomials(z, branch, 384)
                gap = rel_bits(superexp_tilde(z, branch, ctx384), ref)
                print(f"{branch} {z}: 2^{gap:.1f}")
                assert gap < -256, (branch, z, gap)

    def test_starved_newton_raises(self, monkeypatch):
        # without its full-scale steps Newton never checks that it
        # settled, and says so instead of returning the iterate
        monkeypatch.setattr(fixed, "NEWTON_EXTRA", 0)
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=128))
        for fn in (F1, F3):
            with pytest.raises(NonConvergenceError, match="Newton") as info:
                fn(0.5 + 0.5j, ctx, CC)
            assert 0 < info.value.residual < 1

    def test_retries_one_unit_out_run_out(self, monkeypatch):
        # a base point where the Abel tail misses the tolerance, and
        # retries one unit further out: three of them do not reach it
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=128))
        kernel = _kernel(ctx)
        monkeypatch.setattr(kernel, "threshold", 9.0)
        monkeypatch.setattr(kernel, "bump", 1)
        with pytest.raises(NonConvergenceError, match="retries") as info:
            superexp_tilde(0.5, "minus", ctx)
        assert info.value.residual > float(kernel.tol)

    @pytest.mark.parametrize("bits", [128, 256])
    def test_real_arguments_on_both_cut_sides(self, bits):
        # real values stay mpf on either side; on F1's cut the two sides
        # are conjugate mpc values
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        cc = default_constants(bits)
        for fn, z in ((F1, 0.5), (F1, 3.0), (F3, 0.5), (F3, -3.5)):
            up, down = (fn(z, ctx, cc, cut_side=side) for side in ("above", "below"))
            assert type(up) is type(down) is mpmath.mpf
            assert up == down
        up, down = (F1(-2.5, ctx, cc, cut_side=side) for side in ("above", "below"))
        assert type(up) is type(down) is mpmath.mpc
        # by parts: mpmath's conj and negation round to the global precision
        assert up.real == down.real and up.imag + down.imag == 0 and up.imag > 0


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
        fresh = ev._prefix_table(ev._abel_tail_coeffs.__wrapped__)
        monkeypatch.setattr(ev, "_abel_tail_coeffs", fresh)
        monkeypatch.setattr(ev, "_kernel", lru_cache(maxsize=None)(ev._kernel.__wrapped__))
        return counts

    def test_abel_tail_prefix(self):
        # abel1 reads the first n coefficients of abel2's n + 1, and the
        # 53-bit tail is a prefix of tier 192's
        build = ev._abel_tail_coeffs.__wrapped__
        assert build(16)[:15] == build(15)
        assert build(49)[:48] == build(48)
        assert build(65)[:16] == build(16)

    def test_tables_are_built_once_longest_first(self, calls):
        # a tier-192 calibration builds the 65-term Abel tail and no P_m;
        # the 53-bit tail is then a prefix of it
        calibrate()
        assert calls == {"abel_expansion": 1, "superexp_polynomials": 0}
        A1(-1, EvalContext(), CC)
        F1(0.5, EvalContext(), CC)
        assert calls == {"abel_expansion": 1, "superexp_polynomials": 0}

    @pytest.mark.parametrize("bits", [53, 128])
    def test_abel_walks_build_only_the_abel_tail(self, calls, bits):
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        assert calls == {"abel_expansion": 0, "superexp_polynomials": 0}
        abel1(1, ctx)
        abel2(3, ctx)
        A1(-1, ctx, CC)
        A3(5 + 1j, ctx, CC)
        assert calls == {"abel_expansion": 1, "superexp_polynomials": 0}

    def test_53_bit_superexp_builds_no_polynomials(self, calls):
        # the double kernel finds F~ by Newton's method on the Abel tail
        F1(0.5, EvalContext(), CC)
        F3(0.5 + 1j, EvalContext(), CC)
        superexp_tilde(-30, "plus")
        assert calls == {"abel_expansion": 1, "superexp_polynomials": 0}

    @pytest.mark.parametrize("bits", [128, 256])
    def test_wide_superexp_builds_only_the_abel_tail(self, calls, bits):
        # above 53 bits F~ inverts the Abel series: no P_m at all
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        F1(0.5, ctx, CC)
        F3(0.5 + 1j, ctx, CC)
        superexp_tilde(-30, "plus", ctx)
        assert calls == {"abel_expansion": 1, "superexp_polynomials": 0}

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
        # Newton's full-scale step sums the same tail, and its narrower
        # steps the leading terms of it, shifted down
        mp128.ftilde_series(mp128.cast(30), BranchSign.minus)
        for plus_side in (False, True):
            plan, full = mp128._plans[plus_side], mp128.tail_rev(plus_side)
            assert plan[-1][1] == full + (0,)
            for s, tail, _ in plan[:-1]:
                kept = full[len(full) - len(tail) + 1:]
                assert tail == tuple(c >> (scale - s) for c in kept) + (0,)

    def test_a_short_build_finishing_last_keeps_the_longer_table(self):
        # a 28-term build that ends after a 44-term one was stored must
        # neither replace it nor be read back in its place
        builds = []
        short_started, long_stored = threading.Event(), threading.Event()

        def build(n):
            builds.append(n)
            if n == 28:
                short_started.set()
                assert long_stored.wait(30)
            return tuple(range(n))

        table = ev._prefix_table(build)
        got = {}
        short = threading.Thread(target=lambda: got.update(short=table(28)))
        short.start()
        assert short_started.wait(30)
        got["long"] = table(44)
        long_stored.set()
        short.join(30)
        assert not short.is_alive()
        assert got == {"short": tuple(range(28)), "long": tuple(range(44))}
        assert table(40) == tuple(range(40))
        assert builds == [28, 44]


class TestPerCallCaches:
    """Kernels found by context identity and anchors cast once per
    constants object give what a cold evaluation gives."""

    FNS = (F1, F3, A1, A3)
    POINTS = (0.5 + 0.5j, 1 + 1j, 5 + 1j, -1.5 + 0.75j, 2.0)
    WIDE_POINTS = (0.5 + 0.5j, -1.5 + 0.75j, 2.0)

    @staticmethod
    def _levy(z, ctx, c):
        # a ratio probe whose complex orbit steps on mpmath values
        return lm.levy_abel(z, -0.25, 60, PrecisionConfig(mantissa_bits=128))

    @pytest.fixture
    def cases(self, monkeypatch):
        # (fn, z, ctx, constants) over two constants objects and three
        # contexts: two equal but distinct, one with another tail length;
        # then the mpmath paths: A1 and F1 at 128 and 320 bits and a
        # 128-bit ratio probe
        perturbed = dict(CC.as_decimal_dict(), x1="2.79824815")
        cc = (CC, CalibrationConstants.from_decimal_dict(perturbed))
        ctxs = (EvalContext(), EvalContext(), EvalContext(abel_tail_terms=12))
        cases = [
            (fn, z, ctx, c)
            for ctx in ctxs for c in cc for fn in self.FNS for z in self.POINTS
        ]
        for bits in (128, 320):
            ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
            cases += [
                (fn, z, ctx, default_constants(bits))
                for fn in (A1, F1) for z in self.WIDE_POINTS
            ]
        cases += [(self._levy, z, None, None) for z in (-0.5 + 0.3j, -0.75 - 0.5j)]
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
    # e(1 - zeta) with the mpf Abel sum over the same terms equal to
    # z + ln(2)/3, solved by mpmath's secant at twice the work bits
    plus_side = branch is BranchSign.plus
    with mp.workprec(2 * kernel._workbits):
        z = mpmath.mpmathify(z)  # out of the kernel's context, exactly
        target = z + mpmath.log(2) / 3
        zeta = mpmath.findroot(
            lambda x: _abel_reference(kernel, x, plus_side) - target,
            (2 / z, 2 / (z + 1)),
        )
        return mpmath.e * (1 - zeta)


def _abel_reference(kernel, zeta, plus_side):
    coeffs = ev._abel_tail_coeffs(kernel.abel_terms + (1 if plus_side else 0))
    with mp.workprec(2 * kernel._workbits):
        zeta = mpmath.mpmathify(zeta)
        arg = -zeta if plus_side else zeta
        logpart = mpmath.log(arg)
        if mpmath.im(arg) == 0 and arg < 0 and not plus_side:
            logpart = mpmath.conj(logpart)  # the kernel's side of the cut
        acc = 0
        for c in reversed(coeffs):
            acc = acc * zeta + _exact(c)
        return logpart / 3 + 2 / zeta + acc * zeta


class TestFixedPointSums:
    """The mpmath kernel sums its series on integers scaled by 2^scale,
    and solves for F~ on them too."""

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
            # the kernel's own context types, as the global ones
            kind = type(mpmath.mpmathify(args[0]))
            if name == "ftilde_series":
                ref = _ftilde_reference(kernel, *args)
                seen.add((name, args[1], kind, abs(args[0].imag) > 1e99))
            else:
                ref = _abel_reference(kernel, *args[:2])
                seen.add((name, args[1], kind))
            with mp.workprec(2 * kernel._workbits):
                gap = float(mpmath.log(abs(mpmath.mpmathify(value) - ref) / abs(ref), 2))
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
        # the sums run in the kernel's own context, the public values are
        # plain mpmath ones
        x = kernel.mp.mpf(kernel.threshold + 1)
        zeta = kernel.mp.mpf("0.05")
        sums = [
            kernel.ftilde_series(x, BranchSign.minus)[0],
            kernel.ftilde_series(-x, BranchSign.plus)[0],
            kernel.abel_series(zeta, False, "above")[0],
            kernel.abel_series(-zeta, True, "above")[0],
        ]
        assert all(type(v) is kernel.mp.mpf for v in sums), sums
        values = [
            superexp_tilde(3, "minus", ctx),
            superexp_tilde(0.5, "plus", ctx),
            abel1(0.5, ctx),
            abel2(3, ctx),
        ]
        assert all(type(v) is mpmath.mpf for v in values), values


class TestGlobalPrecision:
    """Results do not depend on mpmath's global precision."""

    @staticmethod
    def _values():
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=128))
        cc = default_constants(128)
        values = [
            fn(z, ctx, cc, cut_side=side)
            for fn in (F1, F3, A1, A3)
            for z in (0.5 + 0.5j, -1.5 + 0.75j, 2.0, -3.5)
            for side in ("above", "below")
        ]
        values.append(exp_iterate(IterateRequest(0.5, 1.0, "lower"), ctx, cc))
        values.append(exp_iterate(IterateRequest(0.5, 3.5, "upper"), ctx, cc))
        values.append(dq13(2.5, ctx, cc))
        values += lm.convergence_table(
            "levy", (-1, 1), [10, 100], PrecisionConfig(mantissa_bits=128)
        )
        return values

    def test_a_low_global_precision_changes_nothing(self):
        want = self._values()
        saved = mp.prec
        mp.prec = 30
        try:
            got = self._values()
        finally:
            mp.prec = saved
        assert got == want


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
