"""Tests for the production evaluators.

Reference digits are 192-bit calibration outputs, stable under raising
the precision; cross-checks against the limit-formula estimators in
`limits` appear at the end.
"""

import cmath
import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
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
from superexp.iteration import IterateRequest, dq13, exp_iterate
from superexp.limits import PrecisionConfig
from superexp.precision import plain
from superexp.wide import _MPKernel

from helpers import superexp_tilde_by_polynomials

E = math.e


def big(s):
    with mp.workprec(600):
        return mpmath.mpmathify(s)


# 192-bit calibration, digits stable at 256 bits
X1_REF = big("2.79824815423138766245258318547")
X3_REF = big("-20.2874045899400398361290928609")
A1_NORM_REF = big("3.029297214418036098924994")
A3_NORM_REF = big("-20.05635552975339139965668")
# shared limit of the Abel-function estimators at -1, also checked in
# test_limits against the ratio and orbit-shift formulas
SLOG_MINUS_1 = big("-1.422353667733386203392616")

CC = calibrate()  # tier 192, as mpmath values
CTX256 = EvalContext(precision=PrecisionConfig(mantissa_bits=256))


def mp_close(a, b, tol):
    with mp.workprec(600):
        return abs(mpmath.mpmathify(a) - mpmath.mpmathify(b)) <= tol


class TestEvalContext:
    def test_defaults(self):
        ctx = EvalContext()
        assert [f.name for f in dataclasses.fields(ctx)] == ["precision", "max_recursion"]
        assert ctx.precision.mantissa_bits == 53
        assert ctx.max_recursion == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_recursion": -1},
            {"max_recursion": 1.5},
            {"max_recursion": math.nan},
            {"max_recursion": math.inf},
            {"max_recursion": 0},
            # the width travels as a PrecisionConfig, which checks it
            {"precision": 128},
            {"precision": None},
            {"precision": "256"},
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
        # a 256-bit context calibrates at its tier, 320 bits
        cc = calibrate(CTX256)
        assert cc.bits == 320
        assert mp_close(cc.x1, CC.x1, mpmath.mpf(2) ** -180)

    def test_decimal_round_trip(self):
        # the parsed decimals are rounded to bits: parsed 32 bits wider
        # and kept, they once reached the kernel with bits the calibration
        # did not have
        for cc in (CC, calibrate(CTX256)):
            back = CalibrationConstants.from_decimal_dict(cc.as_decimal_dict())
            assert back.bits == cc.bits
            for name in ("x1", "x3", "a1_norm", "a3_norm"):
                assert getattr(back, name)._mpf_ == getattr(cc, name)._mpf_, name
            assert back.period_t1._mpc_ == cc.period_t1._mpc_

    @pytest.mark.parametrize("tier", [192, 256, 320, 384, 448])
    def test_literals_are_each_tiers_calibration(self, tier):
        # the literals are the record, the walks the proof: every tier's
        # calibration is the widest one's decimals rounded to the tier
        cc = calibrate(EvalContext(precision=PrecisionConfig(mantissa_bits=tier - 16)))
        literal = default_constants(tier - 16)
        assert (cc.bits, literal.bits) == (tier, tier)
        for name in ("x1", "x3", "a1_norm", "a3_norm"):
            assert getattr(literal, name)._mpf_ == getattr(cc, name)._mpf_, name
        assert literal.period_t1._mpc_ == cc.period_t1._mpc_

    def test_default_doubles_are_tier_192s(self):
        # default_constants(53) holds the doubles of the tier-192
        # calibration, with no mpmath value in it
        doubles = default_constants(53)
        assert doubles.bits == 192
        got = (doubles.x1, doubles.x3, doubles.a1_norm, doubles.a3_norm)
        assert all(type(v) is float for v in got)
        assert type(doubles.period_t1) is complex
        want = (float(CC.x1), float(CC.x3), float(CC.a1_norm), float(CC.a3_norm))
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert doubles.period_t1 == complex(CC.period_t1)

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

    def test_int_arguments_match_floats(self):
        # a Python int takes the double path, as a float does, bit for bit
        for fn, n in ((F1, 0), (A1, 1), (F3, -3)):
            got, want = fn(n), fn(float(n))
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

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
            F1(3, ctx)
        with pytest.raises(DomainError, match="out of range"):
            calibrate(ctx)

    def test_precision_above_the_calibrated_range(self):
        # tier 448, the calibrated record, serves up to 432 bits; every
        # wider request is refused in its own terms, before any walk (the
        # calibrated tiers' own kernels, to 448 bits, are calibrate()'s)
        assert ev.calibration_tier(432) == 448
        assert _MPKernel(
            EvalContext(precision=PrecisionConfig(mantissa_bits=448))
        ).bits == 448
        message = "{} bits is out of range: evaluations run from 53 to 432 bits$"
        for bits in (433, 480, 488, 489, 640, 1024):
            ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
            calls = (
                lambda: ev.calibration_tier(bits),
                lambda: default_constants(bits),
                lambda: calibrate(ctx),
                lambda: A1(-1, ctx),
                lambda: abel1(0.5, ctx),
                lambda: abel2(5, ctx),
                lambda: superexp_tilde(0.5, "minus", ctx),
            )
            for call in calls:
                with pytest.raises(DomainError, match=message.format(bits)):
                    call()

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
        # F1 blows up at -2 and refuses the pole itself, whose rounded
        # value was noise; just off it the value is large but finite
        for bits in (53, 128, 256):
            ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
            for z in (-2, -5.0, complex(-3, 0), mp.mpf(-4)):
                for side in ("above", "below", None):
                    with pytest.raises(DomainError, match="pole at -"):
                        F1(z, ctx, cut_side=side)
        v = F1(-2.0000001)
        assert v.real < -25
        assert abs(v.imag - math.pi * E) < 1e-12

    @pytest.mark.parametrize("bits", [53, 128])
    def test_pole_message_names_the_pole(self, bits):
        # doubles print as before; a wide pole past the double range is
        # named by its own digits, not by the double it overflows to
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        cases = [(-3, "-3"), (-2.0, "-2"), (-1e300, "-1e+300")]
        if bits > 53:
            cases += [(mp.mpf("-1e400"), "-1.0e+400"), (-10**400, "-1.0e+400")]
        for z, where in cases:
            with pytest.raises(DomainError) as info:
                F1(z, ctx)
            assert str(info.value) == f"F1 has a pole at {where}"

    def test_abel1_on_cut_is_marked(self):
        # the forward orbit would escape anywhere on [e, inf), so the ray
        # is reported as the cut it is rather than as an overflow
        with pytest.raises(BranchCutError):
            abel1(5)
        with pytest.raises(BranchCutError):
            abel1(3.0, cut_side="below")
        with pytest.raises(BranchCutError):
            A1(complex(2.8, 0.0))

    @pytest.mark.parametrize("fn", [A1, A3, abel1, abel2])
    @pytest.mark.parametrize("im", [3e-308, -3e-308, 5e-324, -5e-324])
    def test_abel_values_within_1e_308_of_e_raise(self, fn, im):
        # zeta = -i Im z/e is subnormal, and 2/zeta past 2^1023 or
        # infinite; at 5e-324 it rounds to 0, the branch point
        with pytest.raises(DomainError) as info:
            fn(complex(E, im))
        if abs(im) > 1e-320:
            assert str(info.value) == "value is outside the double range this close to e"
        else:
            assert "branch point" in str(info.value)
        # a wider kernel refuses no such point; a double, no normal zeta
        assert mpmath.isfinite(fn(complex(E, im), CTX256))
        assert cmath.isfinite(fn(complex(E, 1e-307)))

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

    @pytest.mark.parametrize("bits, steps", [(53, 308), (128, 320)])
    def test_walk_cap_message_stays_short(self, bits, steps):
        # a short walk's step count is exact; a far argument's has about
        # 300 digits, so the message names the cap without it.  The cap
        # of 200 53-bit steps is 212 at 128 bits, whose walk-out is 12
        # steps longer
        cap = {53: 200, 128: 212}[bits]
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        with pytest.raises(NonConvergenceError) as near:
            F1(complex(-300, 0.5), ctx)
        assert f"needs {steps} steps, cap is {cap}" in str(near.value)
        with pytest.raises(NonConvergenceError) as far:
            F1(complex(-1e300, 0.5), ctx)
        assert f"cap is {cap}" in str(far.value)
        assert len(str(far.value)) < 100

    def test_abel_cap_carries_residual(self):
        ctx = EvalContext(max_recursion=3)
        with pytest.raises(NonConvergenceError) as info:
            abel1(-50, ctx)
        assert info.value.residual > 0.25
        # the mpmath kernel's walk misses its disk the same way: its cap
        # of one 53-bit step is 19 steps at 128 bits
        ctx = EvalContext(PrecisionConfig(mantissa_bits=128), max_recursion=1)
        with pytest.raises(NonConvergenceError, match="disk within 19 steps$") as info:
            A3(40 + 3j, ctx)
        assert info.value.residual == pytest.approx(0.11271, abs=1e-5)

    def test_forced_tail_miss_raises_at_once(self, monkeypatch):
        # a summation point too close in for its tail, and the value is
        # not returned silently: at 128 bits Newton's method does not
        # settle on the divergent Abel tail at base 2.5
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=128))
        kernel = _kernel(ctx)
        monkeypatch.setattr(kernel, "threshold", 2.0)
        with pytest.raises(NonConvergenceError) as info:
            superexp_tilde(0.5, "minus", ctx)
        assert info.value.residual > float(kernel.tol)
        monkeypatch.undo()
        # a tolerance no tail meets: each evaluation sums once and raises
        # with that tail, walking no deeper
        sums = []
        abel, ftilde = _MPKernel.abel, _MPKernel.ftilde
        # an abel call sums once; an ftilde call sums when its chain is empty

        def counted(self, z, k, plus, chain=None):
            if not chain:
                sums.append(z)
            return ftilde(self, z, k, plus, chain)

        monkeypatch.setattr(_MPKernel, "abel", lambda *a: sums.append(a) or abel(*a))
        monkeypatch.setattr(_MPKernel, "ftilde", counted)
        monkeypatch.setattr(kernel, "tol", mpmath.mpf(2) ** -1000)
        for evaluate in (abel1, abel2, lambda z, c: superexp_tilde(z, "minus", c)):
            with pytest.raises(NonConvergenceError, match="tail above the target") as info:
                evaluate(0.5, ctx)
            assert info.value.residual > float(kernel.tol)
        assert len(sums) == 3

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


def _stepped_walk(kernel, w, plus_side):
    # the Abel walk as one guarded exp_step or log_step per step: the
    # double kernel's one-loop walk must give its doubles and errors, and
    # the mpmath kernel's walk on integers its values and errors
    e = kernel.e
    k, zeta = 0, 1 - w / e
    while abs(zeta) >= kernel.abel_radius:
        if k >= kernel.abel_cap:
            raise NonConvergenceError("cap", residual=float(abs(zeta)))
        if plus_side:
            w, k = kernel.log_step(w, k + 1), k + 1
        else:
            w, k = kernel.exp_step(w, k + 1), k + 1
            if w is None:  # the unrepresentable value: its next step is 0
                w, k = kernel.zero, k + 1
        zeta = 1 - w / e
    return w, k, zeta


def _stepped_chain(kernel, w, k: int, backward: bool) -> tuple:
    # an F~ walk as one guarded exp_step or log_step per step, from the
    # value w through step k: (values, error), None standing for the
    # unrepresentable value, whose next step is the kernel's zero
    chain = [w]
    step = kernel.log_step if backward else kernel.exp_step
    try:
        for j in range(1, k + 1):
            w = kernel.zero if w is None else step(w, j)
            chain.append(w)
    except SuperexpError as exc:
        return chain, (type(exc), exc.args, vars(exc))
    return chain, None


def _walked_chain(kernel, w, k: int, backward: bool, *stops) -> tuple:
    # the kernel's F~ walk (its ftilde on a chain that holds w, so that
    # nothing is summed) from w, extended through each of stops, then k:
    # (states, error); a double's state is the double itself
    chain = [w if kernel.bits == 53 else kernel.state(w)]
    try:
        for stop in (*stops, k):
            kernel.ftilde(w, stop, not backward, chain)
    except SuperexpError as exc:
        return chain, (type(exc), exc.args, vars(exc))
    return chain, None


def _stepped_abel(kernel, w, plus_side):
    # the double kernel's abel at the end of the stepped walk: its sum
    # there, the stepped walk's count applied
    w, k, _ = _stepped_walk(kernel, w, plus_side)
    value = kernel.abel(w, plus_side)
    return value + k if plus_side else value - k


def _abel_walked(kernel, w, plus_side, abel=_MPKernel.abel) -> tuple:
    # the mpmath kernel's abel at w and the end of its walk, (value, (w,
    # steps, zeta)), read off its one loop: the index of its last step
    # (one more after a None) and the value it sums at
    ends = {"k": 0}

    def step(s, idx, backward, _step=kernel.step):
        t = _step(s, idx, backward)
        ends["k"] = idx + (t is None)
        return t

    def value(s, _value=kernel.value):
        ends["w"] = _value(s)
        return ends["w"]

    kernel.step, kernel.value = step, value
    try:
        got = abel(kernel, w, plus_side)
    finally:
        del kernel.step, kernel.value
    return got, (ends["w"], ends["k"], 1 - ends["w"] / kernel.e)


def _count_guarded_steps(monkeypatch, kernel) -> list:
    # the arguments of every exp_step and log_step the kernel takes
    guarded = []
    for name in ("exp_step", "log_step"):
        step = getattr(kernel, name)

        def counted(*args, _step=step):
            guarded.append(args)
            return _step(*args)

        monkeypatch.setattr(kernel, name, counted)
    return guarded


class TestDoubleAbelWalk:
    """The guarded cases of the 53-bit walk leave its inline loop."""

    CASES = {
        # x < -745: e^x underflows, the orbit lands at exactly 0
        "underflow": (False, complex(-3000, 0)),
        # x > 700 with cos(y) < -m (evaluators._escape): two steps
        # collapse to 0
        "collapse": (False, complex(1905, 8.5)),
        # the same with cos(y) = -0.028 at the step, near 0 but past the
        # margin: A1 is -4 at every width
        "collapse, cos y near 0": (False, complex(26.995120805134338, -33.365726548047476)),
        # x > 700 with cos(y) >= -m: the overflowing step's index
        "overflow": (False, complex(1905, 3)),
        # the second step's phase, |y| = 1.4e14, is past 2^45: overflow
        "unresolved phase": (False, complex(13.453476205755155, -2.250506308507869)),
        # a backward step on the negative real axis, and one from 0
        "cut": (True, complex(-5, 0)),
        "zero": (True, 0j),
        # e log 1 is exactly 0, which the next step must refuse
        "one": (True, complex(1, 0)),
    }

    @staticmethod
    def _outcome(walk, *args):
        try:
            return repr(walk(*args))
        except SuperexpError as exc:
            return type(exc), exc.args, vars(exc)

    @pytest.mark.parametrize("case", CASES)
    def test_guarded_steps_match_the_stepped_walk(self, monkeypatch, case):
        plus_side, z = self.CASES[case]
        kernel = _kernel(EvalContext())
        guarded = _count_guarded_steps(monkeypatch, kernel)
        got = self._outcome(kernel.abel, z, plus_side)
        steps = len(guarded)
        assert got == self._outcome(_stepped_abel, kernel, z, plus_side)
        # the loop took the guarded method for the case: log_step refuses 0
        assert 1 <= steps <= 2

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


# every evaluator, and both branches of F~, as f(x, ctx, cut_side)
SIDED = {
    "F1": lambda x, ctx, side: F1(x, ctx, cut_side=side),
    "F3": lambda x, ctx, side: F3(x, ctx, cut_side=side),
    "A1": lambda x, ctx, side: A1(x, ctx, cut_side=side),
    "A3": lambda x, ctx, side: A3(x, ctx, cut_side=side),
    "abel1": lambda x, ctx, side: abel1(x, ctx, cut_side=side),
    "abel2": lambda x, ctx, side: abel2(x, ctx, cut_side=side),
    "tilde minus": lambda x, ctx, side: superexp_tilde(x, "minus", ctx, cut_side=side),
    "tilde plus": lambda x, ctx, side: superexp_tilde(x, "plus", ctx, cut_side=side),
}


def _exactly(value) -> tuple:
    # a value to its bits: type, repr (signed zeros) and mpmath tuples
    return (
        type(value), repr(value),
        getattr(value, "_mpf_", None), getattr(value, "_mpc_", None),
    )


class TestStrictRule:
    """cut_side=None is decided once, on the walks' upper-side value.

    The lower-side limit of a real-analytic function is the conjugate of
    the upper-side one, so a real argument's value is side-independent
    exactly when its upper-side value is real: None raises
    BranchCutError where "above" is not real and gives that value bit for
    bit where it is, and "below" gives its conjugate.
    """

    @pytest.mark.parametrize("bits", [53, 128, 256])
    def test_strict_mode_is_the_real_upper_side_value(self, bits):
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        rng = random.Random(bits)
        xs = [rng.uniform(-9.0, 25.0) for _ in range(10)]
        points = [
            *xs,
            *(rng.randint(-6, 20) for _ in range(4)),
            *map(mpmath.mpf, xs[:4]),
            *(complex(x, zero) for x in xs[4:8] for zero in (0.0, -0.0)),
        ]
        seen = set()
        for name, f in SIDED.items():
            for x in points:
                outcome = {}
                for side in ("above", None, "below"):
                    try:
                        outcome[side] = f(x, ctx, side)
                    except SuperexpError as exc:
                        outcome[side] = (type(exc), exc.args)
                above, strict, below = outcome["above"], outcome[None], outcome["below"]
                if isinstance(above, tuple):  # a failure on every side
                    assert strict == below == above, (name, x)
                    continue
                if above.imag:
                    assert strict == (
                        BranchCutError,
                        ("value lies on the logarithm cut; declare cut_side",),
                    ), (name, x)
                else:
                    assert _exactly(strict) == _exactly(above), (name, x)
                seen.add(bool(above.imag))
                with mp.workprec(1000):  # exactly, not at the global precision
                    conjugate = above.conjugate()
                assert _exactly(below) == _exactly(conjugate), (name, x)
        assert seen == {False, True}


# a forward step from it lands on -1.4e14135207 - 1.9e14135207i, whose
# exponential mpmath cannot reduce in any reasonable time; the walk from
# it runs only in a child process with a time limit
HUGE_STEP = complex(54.92774447567895, -20.944745652533463)


class TestWideAbelWalk:
    """The mpmath kernel walks on integers at its scale and leaves them
    for the guarded exp_step and log_step: the same outcome as a walk
    stepped by those alone, within 2^-(bits+16)."""

    CASES = {
        # (backward, argument, guarded steps taken)
        "cut": (True, -5.0, 1),
        # log_step refuses a backward step from 0
        "zero": (True, 0.0, 1),
        # e log 1 is exactly 0, which the next step must refuse
        "one": (True, 1.0, 1),
        # e^(60/e) is past the integer range, and the step from it past
        # Re w/e = 1e8: at phase 0.2 it overflows, index 2; at 0.5 its
        # None is followed by 0, whose step is guarded too
        "overflow": (False, complex(60, 0.2), 1),
        "collapse": (False, complex(60, 0.5), 2),
        # e^(-3000/e) is 2^-1592, far below the integers' range: it steps
        # on an mpf, then to 1
        "tiny far": (False, -3000.0, 2),
        # e^(-3e8/e) lands at exactly 0, then steps to 1
        "underflow": (False, -3e8, 2),
        # e^(-132/e) is 2^-70, too small a value for the integers' resolution
        "tiny": (False, complex(-132, 0.5), 2),
        "real forward": (False, 1.0, 0),
        "real backward": (True, 3.0, 0),
        "forward": (False, complex(0.5, 0.5), 0),
        "backward": (True, complex(5, 1), 0),
    }

    @staticmethod
    def _outcome(walk, *args):
        try:
            return walk(*args)
        except SuperexpError as exc:
            return type(exc), exc.args, vars(exc)

    @pytest.mark.parametrize("bits", [128, 256])
    @pytest.mark.parametrize("case", CASES)
    def test_guarded_steps_match_the_stepped_walk(self, monkeypatch, bits, case):
        plus_side, z, guarded = self.CASES[case]
        kernel = _MPKernel(EvalContext(precision=PrecisionConfig(mantissa_bits=bits)))
        w = kernel.cast(z)
        want = self._outcome(_stepped_walk, kernel, w, plus_side)
        steps = _count_guarded_steps(monkeypatch, kernel)
        got = self._outcome(lambda *a: _abel_walked(kernel, *a)[1], w, plus_side)
        assert len(steps) == guarded
        if isinstance(want[0], type):
            assert got == want
            return
        (gw, gk, gzeta), (ww, wk, wzeta) = got, want
        assert gk == wk
        assert type(gw) is type(ww) and type(gzeta) is type(wzeta)
        assert abs(gw - ww) <= abs(ww) * kernel.mp.mpf(2) ** -(bits + 16)

    @pytest.mark.parametrize("bits", [128, 256])
    @pytest.mark.parametrize("fn", ["abel1", "A1"])
    def test_huge_negative_step_lands_at_zero(self, fn, bits):
        # the step past -1.4e14135207 lands at exactly 0, as the 53-bit
        # walk's does, instead of running for minutes in mpmath's exp: in a
        # child process, which a time limit can stop inside a long integer
        # operation
        code = (
            "from superexp.evaluators import EvalContext, {fn}\n"
            "from superexp.limits import PrecisionConfig\n"
            "ctx = EvalContext(precision=PrecisionConfig(mantissa_bits={bits}))\n"
            "print(repr(complex({fn}({z!r}, ctx))))\n"
        ).format(fn=fn, bits=bits, z=HUGE_STEP)
        src = os.path.dirname(os.path.dirname(ev.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        value = complex(proc.stdout)
        assert abs(value - getattr(ev, fn)(HUGE_STEP)) < 1e-13


class TestFtildeWalk:
    """Each kernel's F~ walk (kernel.walk, the one loop of _ftilde_eval)
    extends a chain as one exp_step or log_step at a time would: state
    for state, and error for error (class, message, index).  The starts
    are the Abel walks' guarded cases at the kernel's width: a collapse
    to None and on to 0, an overflow, an underflow to 0, a walk on the
    negative real axis, a backward step from 0 and one onto 0.  A chain
    extended in two calls, split anywhere, is the chain extended in one.
    """

    # the steps each case walks; a walk that raises stops at its error
    STEPS = {"collapse": 5, "overflow": 3, "underflow": 3, "cut": 4, "zero": 2, "one": 3}

    @staticmethod
    def _start(bits: int, case: str):
        table = TestDoubleAbelWalk.CASES if bits == 53 else TestWideAbelWalk.CASES
        backward, z = table[case][:2]
        return _kernel(EvalContext(precision=PrecisionConfig(mantissa_bits=bits))), backward, z

    @pytest.mark.parametrize("bits", [53, 128, 256])
    @pytest.mark.parametrize("case", STEPS)
    def test_walk_matches_the_stepped_chain(self, monkeypatch, bits, case):
        kernel, backward, z = self._start(bits, case)
        w, k = kernel.cast(z), self.STEPS[case]
        want, want_error = _stepped_chain(kernel, w, k, backward)
        guarded = _count_guarded_steps(monkeypatch, kernel)
        got, got_error = _walked_chain(kernel, w, k, backward)
        assert got_error == want_error
        assert guarded  # the case leaves the plain steps
        assert len(got) == len(want)
        for j, (state, value) in enumerate(zip(got, want)):
            if value is None or bits == 53:
                assert repr(state) == repr(value), j
                continue
            # the mpmath kernel steps on integers, within 2^-(bits+16)
            got_value = kernel.value(state)
            assert type(got_value) is type(value), j
            assert abs(got_value - value) <= abs(value) * kernel.mp.mpf(2) ** -(bits + 16), j

    def test_the_cases_reach_what_they_name(self):
        # at 53 bits: None then 0, the overflow's index, and the upper side
        kernel, backward, z = self._start(53, "collapse")
        chain, error = _walked_chain(kernel, kernel.cast(z), 3, backward)
        assert (chain[1:], error) == ([None, 0j, 1 + 0j], None)
        kernel, backward, z = self._start(53, "overflow")
        chain, (cls, _, attrs) = _walked_chain(kernel, kernel.cast(z), 3, backward)
        assert (len(chain), cls, attrs["index"]) == (1, OrbitOverflowError, 1)
        # from 8.3 the third step escapes: the index counts the chain's steps
        chain, (cls, _, attrs) = _walked_chain(kernel, 8.3 + 0j, 3, False, 1)
        assert (len(chain), attrs["index"]) == (3, 3)
        for imag in (0.0, -0.0):
            chain, _ = _walked_chain(kernel, complex(-5.0, imag), 1, True)
            assert chain[1] == E * cmath.log(complex(-5.0, 0.0))
        for case in ("zero", "one"):
            kernel, backward, z = self._start(53, case)
            chain, (cls, args, _) = _walked_chain(kernel, kernel.cast(z), 3, backward)
            assert cls is BranchCutError and "singularity at 0" in args[0]
            assert chain[-1] == 0j

    @pytest.mark.parametrize("bits", [53, 128, 256])
    @pytest.mark.parametrize("case", STEPS)
    def test_a_chain_extended_twice_is_one_chain(self, bits, case):
        kernel, backward, z = self._start(bits, case)
        w, k = kernel.cast(z), self.STEPS[case]
        once = _walked_chain(kernel, w, k, backward)
        for stop in range(k):
            assert _walked_chain(kernel, w, k, backward, stop) == once, stop


def _wide_bits(call):
    # a value's _mpf_ or _mpc_ tuple, or its error's class and message
    try:
        value = call()
    except SuperexpError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, tuple):  # an Abel walk's (w, steps, zeta)
        return tuple(_wide_bits(lambda v=v: v) for v in value)
    if isinstance(value, int):
        return value
    if isinstance(value, complex):  # a 53-bit value
        return value.real.hex(), value.imag.hex()
    # ints, not mpmath's mantissa type, whose repr depends on its backend
    parts = getattr(value, "_mpc_", None) or (value._mpf_,)
    return tuple(tuple(map(int, part)) for part in parts)


class TestWideBitIdentity:
    """The mpmath kernel keeps its bits when its code moves.

    One digest pins every _mpf_ and _mpc_ tuple and every error message
    of F1, F3, A1 and A3 at 128, 256 and 432 bits over seeded points of
    the box [-8, 28] x [-14, 14], real ones among them; and of the Abel
    walks of TestDoubleAbelWalk's guarded cases at those widths.
    Recorded before the kernel's integer steps, disk test and Newton
    solve moved out of their own module into _MPKernel, with abel1,
    abel2 and superexp_tilde at 480 bits too; that slice went when
    widths past 432 bits were refused, and the digest without it is
    the one the code before that change gives.  A second digest pins
    the unnormalised functions, abel1, abel2 and both branches of
    superexp_tilde, at 53 bits too; it was recorded before the walks
    took their side as a bool in place of a BranchSign member.
    """

    GUARDED = ("underflow", "collapse", "overflow", "cut", "zero")

    @staticmethod
    def _points(bits: int) -> list:
        rng = random.Random(f"wide bits:{bits}")
        points = [complex(rng.uniform(-8, 28), rng.uniform(-14, 14)) for _ in range(12)]
        return points + [rng.uniform(-8, 28) for _ in range(3)]

    def test_digest(self):
        rows = []
        for bits in (128, 256, 432):
            ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
            points = self._points(bits)
            for f in (F1, F3, A1, A3):
                rows += [_wide_bits(lambda: f(z, ctx)) for z in points]
            kernel = _kernel(ctx)
            for case in self.GUARDED:
                plus_side, z = TestDoubleAbelWalk.CASES[case]
                rows.append(_wide_bits(lambda: _abel_walked(kernel, kernel.cast(z), plus_side)[1]))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "5892f3fd9ccf6d8542d3379cc0bbdb67cf76bb30f044450f01e4011e30d7c7b7"
        )

    def test_unnormalised_digest(self):
        # abel1, abel2 and both branches of superexp_tilde, one given by
        # member and one by name, at every kernel's widths: over the seeded
        # points and at the arguments of the guarded Abel-walk cases
        fns = (
            abel1,
            abel2,
            lambda z, ctx: superexp_tilde(z, BranchSign.minus, ctx),
            lambda z, ctx: superexp_tilde(z, "plus", ctx),
        )
        rows = []
        for bits in (53, 128, 256, 432):
            ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
            points = self._points(bits)
            points += [TestDoubleAbelWalk.CASES[case][1] for case in self.GUARDED]
            for f in fns:
                rows += [_wide_bits(lambda: f(z, ctx)) for z in points]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "0e16731b80b8dab8996dba0c760e128f2188f42d396bf083eade186cc718ff10"
        )


class TestDoubleAccuracy:
    """53-bit F1 and F3 against 128 bits over the boxes of test_07.

    There every F1 sample walks and every F3 sample is summed directly,
    so two more boxes cover the other half of each function over the
    README's box [-8, 28] x [-14, 14]: F1 summed directly (Re z + x1
    past the walk-out threshold 10), and F3 walking (Re z + x3 past
    -10) where it is finite, short of its overflow near the real axis
    from Re z = 22.3.
    """

    BOXES = {
        "F1": ((-1.5, 8, -8, 8), (-3, 3, -6, 6), (-1, 6, 0.1, 6)),
        "F3": ((-6, 5, -8, 8), (-1, 6, 0.1, 6)),
        "F1 summed": ((8.5, 28, -14, 14),),
        "F3 walking": ((10.5, 22, -14, 14), (22, 28, 1, 14)),
    }
    # measured maxima of the relative error: F1 2.9e-14 at -2.08-0.50i,
    # next to F1's pole at -2, and F3 1.5e-16; F1 summed 1.9e-16 at
    # 11.16+0.66i, and F3 walking 8.0e-15 at 22.74+2.62i, where each
    # forward step of the walk scales the error by |w/e|.  Each bound is
    # twice its maximum, and not below 16 units in the last place, the
    # room a libm that rounds exp and log otherwise needs
    MEASURED = {
        "F1": 2.9e-14, "F3": 1.5e-16, "F1 summed": 1.9e-16, "F3 walking": 8.0e-15,
    }

    @pytest.mark.parametrize("fn", ["F1", "F3", "F1 summed", "F3 walking"])
    def test_relative_error_against_128_bits(self, fn):
        f = {"F1": F1, "F3": F3}[fn.split()[0]]
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


class TestDoubleNewtonSteps:
    """Two planned Newton steps give the double kernel's F~ in full.

    _DoubleKernel.ftilde takes the two steps of newton_steps and
    tests only that the last one was small, so this test is what
    guarantees them: its F~ against the 128-bit superexp_tilde at the
    same argument, on both branches (the plus branch at -w).  The strip
    is where the walks sum, Re w in [T, T + 1) at the walk-out threshold
    T, the start there furthest from the root; the far points are summed
    directly, out to |w| = 1e15.  The reference walks where the 128-bit
    kernel's own disk needs it (Re w below 22): that kernel's plan drops
    terms for that disk, and its last step says so outside it.
    """

    # measured worst errors, in units in the last place of |F~|: strip
    # 2.0 (plus branch, at -10.65+4.21i; minus 1.01), far 1.0 on both.
    # The old solve (up to four full steps from one logarithm, until a
    # step fell below 1e-9 |w|) measured the same.  Each bound is twice
    # its maximum, as in TestDoubleAccuracy
    MEASURED = {"strip": 2.0, "far": 1.0}

    @staticmethod
    def _point(kind: str, rng, threshold: float) -> complex:
        if kind == "strip":
            im = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 3)
            return complex(rng.uniform(threshold, threshold + 1), im)
        im = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 15)
        return complex(10 ** rng.uniform(1, 15), im)

    @pytest.mark.parametrize("kind", ["strip", "far"])
    def test_against_128_bits(self, kind):
        k53 = _kernel(EvalContext())
        ctx128 = EvalContext(precision=PrecisionConfig(mantissa_bits=128))
        rng = random.Random(f"newton:{kind}")
        # real bases too: a real argument sums at a real base
        points = [self._point(kind, rng, k53.threshold) for _ in range(1000)]
        points += [complex(w.real, 0.0) for w in points[:100]]
        worst = {}
        for w in points:
            for branch, z in ((BranchSign.minus, w), (BranchSign.plus, -w)):
                want = complex(superexp_tilde(z, branch, ctx128))
                got = k53.ftilde(z, 0, branch is BranchSign.plus)
                ulps = abs(got - want) / math.ulp(abs(want))
                if ulps > worst.get(branch.name, (0.0,))[0]:
                    worst[branch.name] = (ulps, z)
        bound = 2 * self.MEASURED[kind]
        for name, (ulps, z) in worst.items():
            print(f"{kind} {name}: worst {ulps:.2f} ulp at {z}, bound {bound}")
        assert all(ulps <= bound for ulps, _ in worst.values()), worst

    @pytest.mark.parametrize("k", [35, 40, 60])
    def test_far_points_just_below_a_power_of_two(self, k):
        # w starts about log(z)/3 past z, in the binade above it, where a
        # double resolves only 2^(k - 52): the last step is then a
        # rounding of w, above 2^-19 but at most half an ulp of |w|
        # (measured over 60000 such points), and F~ is still in full
        k53 = _kernel(EvalContext())
        ctx128 = EvalContext(precision=PrecisionConfig(mantissa_bits=128))
        bound = 2 * self.MEASURED["far"]
        for d in range(1, 9):
            x = 2.0**k - d * math.ulp(2.0**k) / 2
            for w in (complex(x, 0.0), complex(x, 3.0), complex(3.0, x)):
                for branch, z in ((BranchSign.minus, w), (BranchSign.plus, -w)):
                    want = complex(superexp_tilde(z, branch, ctx128))
                    got = complex(superexp_tilde(z, branch))
                    assert abs(got - want) <= bound * math.ulp(abs(want)), (z, branch)
            want = complex(F1(x, ctx128))
            assert abs(complex(F1(x)) - want) <= bound * math.ulp(abs(want)), x


class TestWideNewtonSteps:
    """The mpmath kernel's planned Newton steps give its F~ in full.

    _MPKernel.invert_abel takes one step at each scale of newton_steps and
    tests only that the last one was small, so this test is what
    guarantees the result: the kernel's F~ against the F~ walk of a kernel
    64 bits wider (56 at 432 bits, up to 488, the widest width whose tier
    tools/abel_order.py checks), as superexp_tilde gives it in range, on
    both branches (the plus branch at -w), and at far points also against
    the sum of the P_m (tests/helpers.py), which shares no code with the
    kernel.  The strip is where the walks sum, Re w in [T, T + 1) at the
    walk-out threshold T; the far points have |w| from T out to 1e30.
    """

    # measured worst relative errors, log2 over 2^-bits: strip -24.2,
    # -25.5 and -22.3 at 128, 256 and 432 bits, far -31.1 at each, and
    # -31.1 .. -31.9 against the P_m.  The last step measured at most
    # 2^(1.4 - s') against its limit 2^(8 - s').  Each bound is twice its
    # maximum, as in TestDoubleNewtonSteps
    MEASURED = {
        (128, "strip"): -24.2, (256, "strip"): -25.5, (432, "strip"): -22.3,
        (128, "far"): -31.1, (256, "far"): -31.1, (432, "far"): -31.1,
        "polynomials": -31.1,
    }

    @staticmethod
    def _point(kind: str, rng, threshold: float) -> complex:
        if kind == "strip":
            im = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 3)
            return complex(rng.uniform(threshold, threshold + 1), im)
        im = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 30)
        return complex(10 ** rng.uniform(math.log10(threshold), 30), im)

    @pytest.mark.parametrize("kind", ["strip", "far"])
    @pytest.mark.parametrize("bits", [128, 256, 432])
    def test_against_a_wider_kernel(self, bits, kind):
        kernel = _kernel(EvalContext(precision=PrecisionConfig(mantissa_bits=bits)))
        wider_bits = min(bits + 64, ev._MAX_BITS)
        wider = _MPKernel(EvalContext(PrecisionConfig(mantissa_bits=wider_bits)))
        rng = random.Random(f"wide newton:{bits}:{kind}")
        # real bases too: a real argument sums at a real base
        points = [self._point(kind, rng, kernel.threshold) for _ in range(100)]
        points += [complex(w.real, 0.0) for w in points[:20]]
        worst, polynomials = (-math.inf, None), -math.inf
        for i, w in enumerate(points):
            for branch, z in ((BranchSign.minus, w), (BranchSign.plus, -w)):
                plus = branch is BranchSign.plus
                got = kernel.ftilde(kernel.cast(z), 0, plus)
                want = plain(ev._ftilde_eval(wider, wider.cast(z), plus))
                gap = rel_bits(got, want) + bits
                if gap > worst[0]:
                    worst = (gap, z)
                if kind == "far" and i < 10:
                    ref = superexp_tilde_by_polynomials(kernel.cast(z), branch.name, bits)
                    polynomials = max(polynomials, rel_bits(got, ref) + bits)
        bound = self.MEASURED[bits, kind] + 1
        print(f"{bits} {kind}: worst 2^-bits * 2^{worst[0]:.1f} at {worst[1]}, bound 2^{bound:.1f}")
        assert worst[0] <= bound, worst
        if kind == "far":
            bound = self.MEASURED["polynomials"] + 1
            print(f"{bits} against the P_m: 2^-bits * 2^{polynomials:.1f}, bound 2^{bound:.1f}")
            assert polynomials <= bound


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
        "bits, threshold, bound", [(128, 22.0, 2.0**-120), (256, 39.0, 2.0**-250)]
    )
    def test_tilde_step_past_walk_threshold(self, bits, threshold, bound):
        # F~(x + 1) = exp(F~(x)/e) with x and x + 1 both past the walk-out
        # threshold and the series tail there already below the
        # tolerance, so each side is a direct inversion of the Abel
        # series; a point that walked would reach its value through this
        # very step.  Measured at x = threshold + 0.25: 2^-158 (128 bits),
        # 2^-289 (256 bits, which rounds to 0 at the bits + 32 used here)
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        assert _kernel(ctx).threshold == threshold
        x = threshold + 0.25
        f0 = superexp_tilde(x, "minus", ctx)
        f1 = superexp_tilde(x + 1, "minus", ctx)
        with mp.workprec(bits + 32):
            residual = abs(f1 - mpmath.exp(f0 / mpmath.e))
        assert residual < bound


@lru_cache(maxsize=None)
def _reference_384():
    # constants from a 384-bit calibration, the tier of 368 bits: its own
    # Abel walks
    return calibrate(EvalContext(precision=PrecisionConfig(mantissa_bits=368)))


@lru_cache(maxsize=None)
def _points_416():
    # {function: [(z, its value at 416 bits)]} away from its zeros,
    # where a relative gap stays meaningful
    ctx416 = EvalContext(precision=PrecisionConfig(mantissa_bits=416))
    with mp.workprec(300):
        points = {
            F1: [mpmath.mpf("0.5"), mpmath.mpc("-1.5", "0.75"), mpmath.mpc(1, 2),
                 mpmath.mpc(4, "0.5"), mpmath.mpc(-6, 1)],
            F3: [mpmath.mpf("0.5"), mpmath.mpc("-1.5", "0.75"), mpmath.mpc(1, 2),
                 mpmath.mpc(10, 1), mpmath.mpc(-6, 1)],
            A1: [mpmath.mpf(-1), mpmath.mpc(-1, "0.5"), mpmath.mpc("1.5", "0.3"),
                 mpmath.mpc(0, 2), mpmath.mpc("2.5", "0.1")],
            A3: [mpmath.mpc(5, 1), mpmath.mpf("3.5"), mpmath.mpf(10),
                 mpmath.mpc(4, -2), mpmath.mpc(-3, 1)],
        }
    return {fn: [(z, fn(z, ctx416)) for z in zs] for fn, zs in points.items()}


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
        assert [tier(b) for b in (256, 320)] == [(96, 39.0), (96, 60.0)]

    @pytest.mark.parametrize(
        "bits, tuning",
        [
            (53, (0.25, 15, 10.0)),
            (128, (0.1, 48, 22.0)),
            (256, (ev._abel_tier(256)[0], 96, 39.0)),
        ],
    )
    def test_tuning_follows_the_width(self, bits, tuning):
        # (disk radius, tail terms, walk-out threshold) of each kernel;
        # the walk cap is the only other setting a context carries
        kernel = _kernel(EvalContext(precision=PrecisionConfig(mantissa_bits=bits)))
        assert (kernel.abel_radius, kernel.abel_terms, kernel.threshold) == tuning

    @pytest.mark.parametrize(
        "bits",
        [54, 56, 57, 96, 97, 128, 129, 160, 161, 192, 193, 224, 256, 320, 384,
         400, 401, 488],
    )
    def test_tail_at_threshold_meets_target(self, bits):
        # at the walk-out threshold zeta = 2/w lies inside the disk on
        # both branches, at each tier's edge widths, and the Abel tail
        # there, carried to F~, is below 2^-(bits+12) from 224 bits up.
        # Measured: 2^-(bits+18.0) at 384 bits (plus branch; minus
        # 2^-(bits+21.7)), from 224 bits up at most 2^-(bits+16.7), at
        # 400; the narrow tiers' tightest is 2^-(bits+10.5), at 56 bits.
        # Built directly: 488 bits is past the calibrated range
        kernel = _MPKernel(EvalContext(precision=PrecisionConfig(mantissa_bits=bits)))
        x = kernel.mp.mpf(kernel.threshold)
        below = 12 if bits >= 224 else 10
        # the sum raises when its tail is above tol: a tol of the bound
        # asserts the tail is at most the bound
        kernel.tol = mpmath.mpf(2) ** -(bits + below)
        for plus, base in ((False, x), (True, -x)):
            value = kernel.ftilde(base, 0, plus)
            assert abs(1 - value / kernel.mp.e) < kernel.abel_radius

    def test_tail_bound_at_every_width(self, monkeypatch):
        # what makes one sum enough: for every width the mpmath kernel
        # serves, the last term that any point of its tier's disk
        # |zeta| < r can give is below the kernel's tol.  Each kernel
        # sum reports |c_n| |zeta|^n for its last coefficient c_n: abel1
        # sums N terms, abel2 N + 1, and F~ carries the Abel tail of its
        # side by dF/dalpha = e zeta^2/2.  Measured worst margins: abel1
        # 5.8 bits, abel2 6.1, F~ minus 9.3, F~ plus 9.7, all at 56 bits
        def log2(q):
            return math.log2(abs(q.numerator)) - math.log2(q.denominator)

        def last_terms(bits):
            # log2 of each sum's last term at |zeta| = r
            radius, n = ev._abel_tier(bits)
            c_n, c_n1 = ev._abel_tail_coeffs(n + 1)[n - 1:]
            lr, carry = math.log2(radius), math.log2(math.e / 2)
            return {
                "abel1": log2(c_n) + n * lr,
                "abel2": log2(c_n1) + (n + 1) * lr,
                "ftilde minus": log2(c_n) + (n + 2) * lr + carry,
                "ftilde plus": log2(c_n1) + (n + 3) * lr + carry,
            }

        worst = {}
        for bits in range(54, ev._MAX_BITS + 1):
            kernel = _MPKernel(EvalContext(PrecisionConfig(mantissa_bits=bits)))
            tol = float(mpmath.log(kernel.tol, 2))
            for name, term in last_terms(bits).items():
                if name not in worst or tol - term < worst[name][0]:
                    worst[name] = (tol - term, bits)
        for name, (margin, bits) in worst.items():
            print(f"{name}: {margin:.2f} bits below tol at {bits} bits")
        assert all(margin > 0 for margin, _ in worst.values()), worst
        # the kernel reports that last term: at the tightest width, just
        # inside the disk, each Abel sum's is below its bound
        bits = worst["abel1"][1]
        kernel = _kernel(EvalContext(precision=PrecisionConfig(mantissa_bits=bits)))
        zeta = kernel.mp.mpf(kernel.abel_radius) * (1 - kernel.mp.mpf(2) ** -20)
        w = kernel.e * (1 - zeta)
        for plus_side, name in ((False, "abel1"), (True, "abel2")):
            # abel raises when its last term is above tol (1 + |value|):
            # that product at the bound asserts the term is at most it
            value = kernel.abel(w, plus_side)
            bound = mpmath.mpf(2) ** last_terms(bits)[name]
            monkeypatch.setattr(kernel, "tol", bound / (1 + abs(value)))
            assert kernel.abel(w, plus_side) == value, name
            monkeypatch.undo()

    def test_one_sum_per_evaluation(self, monkeypatch):
        # the tail at the walk-out threshold is below the tolerance, so
        # no evaluation at 256 bits sums the series twice
        counts = {"evals": 0, "sums": 0}
        walk, ftilde = ev._ftilde_eval, _MPKernel.ftilde

        def counted_walk(*args):
            counts["evals"] += 1
            return walk(*args)

        def counted_series(self, z, k, plus, chain=None):
            counts["sums"] += not chain  # an empty chain is summed at z
            return ftilde(self, z, k, plus, chain)

        monkeypatch.setattr(ev, "_ftilde_eval", counted_walk)
        monkeypatch.setattr(_MPKernel, "ftilde", counted_series)
        counts.update(evals=0, sums=0)
        for z in (0.5, -1.5 + 0.75j, 1 + 2j):
            F1(z, CTX256)
            F3(z, CTX256)
        assert counts == {"evals": 6, "sums": 6}

    def test_256_bit_values_against_384_bits(self):
        # each width with its own tier's constants, 320 and 448.
        # Measured: F1 2^-277.5..-281.6, F3 2^-280.7..-282.7
        ctx384 = EvalContext(precision=PrecisionConfig(mantissa_bits=384))
        with mp.workprec(300):
            points = [mpmath.mpf("0.5"), mpmath.mpc("-1.5", "0.75"), mpmath.mpc(1, 2)]
        for fn in (F1, F3):
            for z in points:
                gap = rel_bits(fn(z, CTX256), fn(z, ctx384))
                assert gap < -256, (fn.__name__, z, gap)

    @pytest.mark.parametrize("bits", [200, 256, 320])
    def test_disk_radius_widths_against_416_bits(self, bits):
        # from 193 to 399 bits the disk is as wide as the 96-term tail
        # allows, its truncation 2^-(bits+4), so the values keep only a
        # few bits to spare; at 416 bits the radius is the same formula's
        # and its error far below these widths'.  Measured worst: A1
        # 2^-(bits+5.2 .. 7.1), A3 2^-(bits+12 .. 17), F1 and F3
        # 2^-(bits+16 .. 25)
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        for fn, points in _points_416().items():
            gaps = [rel_bits(fn(z, ctx), ref) for z, ref in points]
            print(f"{bits} bits {fn.__name__}: worst 2^{max(gaps):.1f}")
            assert max(gaps) < -bits, (fn.__name__, gaps)

    @pytest.mark.parametrize("bits", [128, 256])
    @pytest.mark.parametrize(
        "z, size",
        [(complex(22.189129, 0.426712), 70), (complex(22.30486, 0.259239), 530)],
        ids=["2^-70", "2^-530"],
    )
    def test_tiny_forward_value_against_416_bits(self, bits, z, size):
        # F3(z) is e^(F3(z - 1)/e) with F3(z - 1) about -131.9 and -1000,
        # so |F3(z)| is 2^-size: a forward step to it on integers at the
        # kernel's scale (bits + 48) would keep only scale - 70 bits of
        # the first and none of the second.  Measured 2^-135.9 and
        # 2^-135.1 (128 bits), 2^-269.4 and 2^-265.1 (256 bits)
        ref = F3(z, EvalContext(precision=PrecisionConfig(mantissa_bits=416)))
        assert 2.0 ** -(size + 1) < abs(ref) < 2.0 ** -(size - 1)
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        assert rel_bits(F3(z, ctx), ref) < -bits

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
        # a plan short of the scale before its last leaves the last step
        # above the limit, 2^(8 - s') at that planned scale s', and each
        # kernel says so instead of returning the iterate
        for bits in (53, 128):
            ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
            kernel = _kernel(ctx)
            starved = tuple(plan[:-2] + plan[-1:] for plan in kernel.newton_steps)
            monkeypatch.setattr(kernel, "newton_steps", starved)
            for fn in (F1, F3):
                with pytest.raises(NonConvergenceError, match="Newton") as info:
                    fn(0.5 + 0.5j, ctx)
                assert 0 < info.value.residual < 1

    @pytest.mark.parametrize("bits", [128, 256])
    def test_real_arguments_on_both_cut_sides(self, bits):
        # real values stay mpf on either side; on F1's cut the two sides
        # are conjugate mpc values
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        for fn, z in ((F1, 0.5), (F1, 3.0), (F3, 0.5), (F3, -3.5)):
            up, down = (fn(z, ctx, cut_side=side) for side in ("above", "below"))
            assert type(up) is type(down) is mpmath.mpf
            assert up == down
        up, down = (F1(-2.5, ctx, cut_side=side) for side in ("above", "below"))
        assert type(up) is type(down) is mpmath.mpc
        # by parts: mpmath's conj and negation round to the global precision
        assert up.real == down.real and up.imag + down.imag == 0 and up.imag > 0


class TestLazyTables:
    """Each exact table is built once per length, when the first kernel
    that needs it is built."""

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
        fresh = lru_cache(maxsize=None)(ev._abel_tail_coeffs.__wrapped__)
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

    def test_tables_are_built_once_per_length(self, calls):
        # a tier-192 calibration builds the 65-term Abel tail and no P_m,
        # the 53-bit kernel its 16-term tail: each once
        calibrate()
        assert calls == {"abel_expansion": 1, "superexp_polynomials": 0}
        A1(-1, EvalContext())
        F1(0.5, EvalContext())
        calibrate()
        assert calls == {"abel_expansion": 2, "superexp_polynomials": 0}

    @pytest.mark.parametrize("bits", [53, 128])
    def test_abel_walks_build_only_the_abel_tail(self, calls, bits):
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        assert calls == {"abel_expansion": 0, "superexp_polynomials": 0}
        abel1(1, ctx)
        abel2(3, ctx)
        A1(-1, ctx)
        A3(5 + 1j, ctx)
        assert calls == {"abel_expansion": 1, "superexp_polynomials": 0}

    def test_53_bit_superexp_builds_no_polynomials(self, calls):
        # the double kernel finds F~ by Newton's method on the Abel tail
        F1(0.5, EvalContext())
        F3(0.5 + 1j, EvalContext())
        superexp_tilde(-30, "plus")
        assert calls == {"abel_expansion": 1, "superexp_polynomials": 0}

    @pytest.mark.parametrize("bits", [128, 256])
    def test_wide_superexp_builds_only_the_abel_tail(self, calls, bits):
        # above 53 bits F~ inverts the Abel series: no P_m at all
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        F1(0.5, ctx)
        F3(0.5 + 1j, ctx)
        superexp_tilde(-30, "plus", ctx)
        assert calls == {"abel_expansion": 1, "superexp_polynomials": 0}

    def test_tables_round_as_the_kernel_does(self, calls):
        # doubles round each coefficient once; the mpmath kernel rounds
        # each once to an integer scaled by 2^scale, 16 bits above its
        # 160 work bits at 128 bits
        double = ev._kernel(EvalContext())
        tail = ev._abel_tail_coeffs(16)
        assert double.tails[True] == tuple(float(c) for c in reversed(tail))
        assert double.tails[False] == double.tails[True][1:]
        # its two Newton steps sum the lowest-order end of the tail and
        # of the derivative's n c_n, the second step the whole tail: at
        # the radius 0.25 the rule keeps 7 and 3 terms at 27 bits, then
        # 15 (16 on the plus side) and 8 at 53
        for plus_side in (False, True):
            full = double.tails[plus_side]
            slope = tuple(n * c for n, c in zip(range(len(full), 0, -1), full))
            steps = double.newton_steps[plus_side]
            assert [(s, len(t), len(d)) for s, t, d in steps] == [
                (27, 7, 3), (53, len(full), 8),
            ]
            assert steps[1][1] == full
            for _, tail, dtail in steps:
                assert tail == full[len(full) - len(tail):]
                assert dtail == slope[len(slope) - len(dtail):]
        mp128 = ev._kernel(EvalContext(precision=PrecisionConfig(mantissa_bits=128)))
        scale = mp128.scale
        assert scale == 176
        tail = ev._abel_tail_coeffs(49)
        assert mp128.tails[True] == tuple(
            round(c * 2**scale) for c in reversed(tail)
        )
        assert mp128.tails[False] == mp128.tails[True][1:]
        # its Newton steps run at the scale halved, rounding up, while
        # above 27 bits; the last sums the whole tail, the narrower ones
        # the lowest-order terms of it and of n c_n, shifted down.  At the
        # radius 0.1 the rule keeps 4, 8, 23 and 48 (49 on the plus side)
        # tail terms, and 1, 4, 9 and 25 slope terms
        for plus_side in (False, True):
            full = mp128.tails[plus_side]
            slope = tuple(n * c for n, c in zip(range(len(full), 0, -1), full))
            steps = mp128.newton_steps[plus_side]
            assert [(s, len(t), len(d)) for s, t, d in steps] == [
                (22, 4, 1), (44, 8, 4), (88, 23, 9), (176, len(full), 25),
            ]
            assert steps[-1][1] == full
            for s, tail, dtail in steps:
                kept = full[len(full) - len(tail):]
                assert tail == tuple(c >> (scale - s) for c in kept)
                kept = slope[len(slope) - len(dtail):]
                assert dtail == tuple(c >> (scale - s) for c in kept)


class TestPerCallCaches:
    """Kernels found by context identity, with anchors cast once per
    kernel, give what a cold evaluation gives."""

    FNS = (F1, F3, A1, A3)
    POINTS = (0.5 + 0.5j, 1 + 1j, 5 + 1j, -1.5 + 0.75j, 2.0)
    WIDE_POINTS = (0.5 + 0.5j, -1.5 + 0.75j, 2.0)

    @staticmethod
    def _levy(z, ctx):
        # a ratio probe whose complex orbit steps on mpmath values
        return lm.levy_abel(z, -0.25, 60, PrecisionConfig(mantissa_bits=128))

    @pytest.fixture
    def cases(self, monkeypatch):
        # (fn, z, ctx) over three contexts: two equal but distinct, one
        # with another walk cap; then the mpmath paths: each evaluator at
        # 128 and 320 bits (walks both ways, both Abel tails) and a
        # 128-bit ratio probe
        ctxs = (EvalContext(), EvalContext(), EvalContext(max_recursion=150))
        cases = [(fn, z, ctx) for ctx in ctxs for fn in self.FNS for z in self.POINTS]
        for bits in (128, 320):
            ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
            cases += [(fn, z, ctx) for fn in self.FNS for z in self.WIDE_POINTS]
        cases += [(self._levy, z, None) for z in (-0.5 + 0.3j, -0.75 - 0.5j)]
        cold = []
        for fn, z, ctx in cases:
            # a new kernel cache: every evaluation builds its kernel and
            # casts its anchors afresh
            fresh = lru_cache(maxsize=32)(ev._kernel.__wrapped__)
            monkeypatch.setattr(ev, "_kernel", fresh)
            monkeypatch.setattr(ev, "_last_kernel", (None, None))
            cold.append(self._value(fn, z, ctx))
        return cases, cold

    @staticmethod
    def _value(fn, z, ctx):
        try:
            return fn(z, ctx)
        except SuperexpError as exc:
            return exc.code

    def test_alternating_calls_match_cold_values(self, cases):
        cases, cold = cases
        # interleave so consecutive calls change context
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


# a fresh process whose first 128-bit calls four threads make at once:
# they race the import of superexp.wide, the rounding of the default
# constants and the kernel build; prints each thread's values as exact
# mpmath tuples
_FIRST_WIDE_USE = """
import json, sys, threading
from superexp import A1, F1, EvalContext, PrecisionConfig
assert "superexp.wide" not in sys.modules
ctx = EvalContext(PrecisionConfig(mantissa_bits=128))
calls = [(F1, 0.5 + 0.5j), (A1, -1 + 0.5j)]
barrier = threading.Barrier(4)
got = [None] * 4

def work(i):
    barrier.wait(60)
    order = calls if i % 2 else calls[::-1]
    got[i] = {fn.__name__: repr(fn(z, ctx)._mpc_) for fn, z in order}

sys.setswitchinterval(1e-5)
threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
print(json.dumps(got))
"""


# the same first call from 4 threads at once, counting the calibrations
# (none: the default constants are literals) and the kernel builds
_FIRST_CALLS_ONCE = """
import json, sys, threading
import superexp.evaluators as ev
from superexp import F1, EvalContext, PrecisionConfig
calibrations = []
calibrate = ev.calibrate

def counted(ctx=None):
    calibrations.append(ctx)
    return calibrate(ctx)

ev.calibrate = counted
ctx = EvalContext(PrecisionConfig(mantissa_bits=128))
barrier = threading.Barrier(4)
got = [None] * 4

def work(i):
    barrier.wait(60)
    got[i] = repr(F1(0.5, ctx)._mpf_)

sys.setswitchinterval(1e-5)
threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
print(json.dumps([got, len(calibrations), ev._kernel.cache_info().misses]))
"""


class TestFirstWideUse:
    @staticmethod
    def child(script):
        src = os.path.dirname(os.path.dirname(ev.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_racing_threads_get_the_serial_values(self):
        got = self.child(_FIRST_WIDE_USE)
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=128))
        serial = {
            "F1": repr(F1(0.5 + 0.5j, ctx)._mpc_),
            "A1": repr(A1(-1 + 0.5j, ctx)._mpc_),
        }
        assert got == [serial] * 4

    def test_racing_first_calls_do_the_work_once(self):
        got, calibrations, builds = self.child(_FIRST_CALLS_ONCE)
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=128))
        assert got == [repr(F1(0.5, ctx)._mpf_)] * 4
        assert (calibrations, builds) == (0, 1)


def _exact(c):
    return mpmath.mpf(c.numerator) / c.denominator


def _ftilde_reference(kernel, z, plus_side):
    # e(1 - zeta) with the mpf Abel sum over the same terms equal to
    # z + ln(2)/3, solved by mpmath's secant at twice the work bits
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
        abel, ftilde = _MPKernel.abel, _MPKernel.ftilde

        def spy_ftilde(self, z, k, plus, chain=None):
            if not chain:  # the sum at the base z, alone
                calls.append((self, "ftilde_series", (z, plus), ftilde(self, z, 0, plus)))
            return ftilde(self, z, k, plus, chain)

        def spy_abel(self, w, plus):
            # the sum at the walk's end zeta: the value less its steps
            value, (_, k, zeta) = _abel_walked(self, w, plus)
            calls.append((self, "abel_series", (zeta, plus), value - k if plus else value + k))
            return value

        monkeypatch.setattr(_MPKernel, "ftilde", spy_ftilde)
        monkeypatch.setattr(_MPKernel, "abel", spy_abel)
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        for z in self.POINTS:
            superexp_tilde(z, "minus", ctx)
            superexp_tilde(z, "plus", ctx)
            abel2(z, ctx)
            if abs(z.imag) < 1e99:  # no width here resolves e^(z/e) at 1e100
                abel1(z, ctx)
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
        for plus in (False, True):
            for kind in (mpmath.mpf, mpmath.mpc):
                assert ("ftilde_series", plus, kind, False) in seen
            assert ("ftilde_series", plus, mpmath.mpc, True) in seen
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
            kernel.ftilde(x, 0, False),
            kernel.ftilde(-x, 0, True),
            kernel.abel(kernel.e * (1 - zeta), False),
            kernel.abel(kernel.e * (1 + zeta), True),
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
        values = [
            fn(z, ctx, cut_side=side)
            for fn in (F1, F3, A1, A3)
            for z in (0.5 + 0.5j, -1.5 + 0.75j, 2.0, -3.5)
            for side in ("above", "below")
        ]
        values.append(exp_iterate(IterateRequest(0.5, 1.0, "lower"), ctx))
        values.append(exp_iterate(IterateRequest(0.5, 3.5, "upper"), ctx))
        values.append(dq13(2.5, ctx))
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
