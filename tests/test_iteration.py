"""Tests for fractional iterates, axis diagnostics and grid sampling."""

import cmath
import dataclasses
import gc
import hashlib
import json
import math
import random
import re

import mpmath
import pytest
from mpmath import mp

from superexp.errors import (
    BranchCutError,
    DomainError,
    NonConvergenceError,
    OrbitOverflowError,
    SuperexpError,
)
import superexp.evaluators as ev
from superexp.evaluators import A1, A3, F1, F3, EvalContext, abel2, default_constants
from superexp.iteration import (
    AGREEMENT_KINDS,
    GridSpec,
    IterateBranch,
    IterateRequest,
    _exp_b,
    agreement,
    check_grid,
    dq13,
    exp_iterate,
    grid_to_csv,
    grid_to_json,
    map_grid,
)
from superexp.limits import PrecisionConfig

E = math.e
EXP_B_1 = math.exp(1.0 / E)  # one full step from z = 1

CTX128 = EvalContext(precision=PrecisionConfig(mantissa_bits=128))


def req(c, z, branch=None, cut_side="above"):
    return IterateRequest(c, z, branch, cut_side)


class TestIterateRequest:
    def test_branch_accepts_strings(self):
        assert req(0.5, 1.0, "lower").branch is IterateBranch.lower
        assert req(0.5, 5.0, "upper").branch is IterateBranch.upper

    def test_branch_enum_passthrough(self):
        assert req(0.5, 1.0, IterateBranch.lower).branch is IterateBranch.lower

    def test_bad_branch_rejected(self):
        with pytest.raises(ValueError, match="branch"):
            req(0.5, 1.0, "middle")
        with pytest.raises(ValueError, match="branch"):
            req(0.5, 1.0, 7)

    def test_bad_cut_side_rejected(self):
        with pytest.raises(ValueError, match="cut_side"):
            req(0.5, 1.0, "lower", cut_side="left")

    def test_defaults(self):
        r = IterateRequest(0.5, 1.0)
        assert r.branch is None and r.cut_side == "above"


class TestExpIterate:
    def test_identity_iterate(self):
        assert abs(exp_iterate(req(0.0, 1.0, "lower")) - 1.0) < 1e-12

    def test_single_step(self):
        assert abs(exp_iterate(req(1.0, 1.0, "lower")) - EXP_B_1) < 1e-12

    def test_half_iterate_twice_is_one_step(self):
        h = exp_iterate(req(0.5, 1.0, "lower"))
        hh = exp_iterate(req(0.5, h, "lower"))
        assert abs(hh - EXP_B_1) < 1e-11

    @pytest.mark.parametrize("branch,z", [("lower", 0.3), ("upper", 5.0)])
    def test_half_iterate_twice_at_128_bits(self, branch, z):
        # c + A(z) must be formed at 128 bits: in mpmath's default 53-bit
        # context the sum rounds and the miss grows to 9e-20 (lower, 0.3)
        h = exp_iterate(req(0.5, z, branch), CTX128)
        hh = exp_iterate(req(0.5, h, branch), CTX128)
        with mp.workprec(160):
            miss = abs(hh - mpmath.exp(mpmath.mpf(z) / mpmath.e))
        assert miss < mpmath.mpf(2) ** -100

    def test_inverse_iterate(self):
        w = exp_iterate(req(1.0, 1.0, "lower"))
        assert abs(exp_iterate(req(-1.0, w, "lower")) - 1.0) < 1e-11

    @pytest.mark.parametrize("c1,c2", [(0.5, 0.5), (0.25, 0.25), (-0.25, 0.5), (-0.5, 1.0), (0.25, -0.5)])
    @pytest.mark.parametrize(
        "branch,z",
        [("lower", 1.0), ("lower", -0.5 + 0.4j), ("upper", 5.0), ("upper", 4.0 - 2.0j)],
    )
    def test_semigroup(self, branch, z, c1, c2):
        stepwise = exp_iterate(req(c2, exp_iterate(req(c1, z, branch)), branch))
        direct = exp_iterate(req(c1 + c2, z, branch))
        assert abs(stepwise - direct) < 1e-11

    @pytest.mark.parametrize("bits", [128, 256])
    def test_a_real_count_is_the_same_count_as_a_complex(self, bits):
        # c + A(z) rounds to the width in both parts, whatever c's type
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        rng = random.Random(bits)
        for _ in range(10):
            z = complex(rng.uniform(-2.0, 7.0), rng.uniform(-2.0, 2.0))
            for c, as_complex in ((0.5, 0.5 + 0j), (mpmath.mpf(-0.25), mpmath.mpc(-0.25))):
                got = exp_iterate(req(c, z), ctx)
                assert got._mpc_ == exp_iterate(req(as_complex, z), ctx)._mpc_, (c, z)

    def test_branch_defaults_by_region(self):
        assert exp_iterate(req(0.5, 1.0)) == exp_iterate(req(0.5, 1.0, "lower"))
        assert exp_iterate(req(0.5, 5.0)) == exp_iterate(req(0.5, 5.0, "upper"))

    def test_boundary_needs_explicit_branch(self):
        with pytest.raises(DomainError, match="ambiguous"):
            exp_iterate(req(0.5, complex(E, 2.0)))

    @pytest.mark.parametrize("bits", [128, 256])
    def test_wide_branch_compares_with_e_at_the_width(self, bits):
        # e - 1e-20 lies right of the double E, and E itself is 1.4e-16
        # left of e: at the width both take the lower branch, and
        # e + 1e-20 the upper, as the explicit branches give them
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
        with mp.workprec(bits):
            near = [mpmath.e - mpmath.mpf("1e-20"), mpmath.e + mpmath.mpf("1e-20")]
        for z, branch in ((near[0], "lower"), (E, "lower"), (near[1], "upper")):
            v = exp_iterate(req(0.5, z), ctx)
            assert v == exp_iterate(req(0.5, z, branch), ctx)
            assert abs(v - E) < 1e-14

    def test_e_at_the_width_rounds_once(self):
        # exp_iterate compares z with the kernel's e (at bits + 32) rounded
        # to the width: at every width that is e rounded there directly
        for bits in range(54, ev._MAX_BITS + 1):
            work, width = mpmath.MPContext(), mpmath.MPContext()
            work.prec, width.prec = bits + 32, bits
            assert mpmath.libmp.mpf_pos((+work.e)._mpf_, bits, "n") == (+width.e)._mpf_

    @pytest.mark.parametrize("c", [0.5, -0.25, 3.7])
    @pytest.mark.parametrize("branch", [None, "lower", "upper"])
    def test_fixed_point_is_fixed_by_every_iterate(self, c, branch):
        assert exp_iterate(req(c, E, branch)) == complex(E, 0.0)

    def test_fixed_point_mp(self):
        with mp.workprec(128):
            z = +mpmath.e
        v = exp_iterate(req(0.5, z, "lower"), CTX128)
        with mp.workprec(128):
            assert v == +mpmath.e

    def test_shifted_argument_on_f1_cut_raises(self):
        # A1(1) is about -1.05, so c = -3 pushes past the cut end at -2
        with pytest.raises(BranchCutError, match="cut of F1"):
            exp_iterate(req(-3.0, 1.0, "lower"))

    def test_lower_branch_right_of_e(self):
        # A1 continues onto its cut; the deep F1 walk reproduces the value
        v = exp_iterate(req(0.5, E + 0.1, "lower"))
        v128 = exp_iterate(req(0.5, E + 0.1, "lower"), CTX128)
        assert abs(v - complex(v128)) < 1e-10

    def test_cut_side_below_conjugates(self):
        up = exp_iterate(req(0.5, E + 0.1, "lower", "above"))
        dn = exp_iterate(req(0.5, E + 0.1, "lower", "below"))
        assert dn == up.conjugate()
        assert up.imag != 0.0

    def test_upper_branch_left_of_e(self):
        # A3's cut; the tower walk stays bounded through guarded collapses
        v = exp_iterate(req(0.5, 1.5, "upper"))
        assert abs(v) < 20.0
        assert v.imag != 0.0


class TestLowerBranchOnCut:
    # raw A1 marks its cut; the iterate resolves the sided limit through
    # the backward estimator rotated by pi/3
    def test_raw_a1_marks_the_cut(self):
        with pytest.raises(BranchCutError):
            A1(3.0)
        with pytest.raises(BranchCutError):
            A1(5.0)

    def test_sided_limit_wiring(self):
        # on the ray the lower branch evaluates F1 at the backward
        # estimator rotated by -i pi/3
        cc = default_constants()
        wired = F1(abel2(3.0) - complex(0.0, math.pi / 3.0) - complex(cc.a1_norm))
        assert exp_iterate(req(0.0, 3.0, "lower")) == wired

    def test_monodromy_right_of_e(self):
        # crossing the cut breaks the F1/A1 round trip by an O(1) amount;
        # this is the poor-agreement zone, not an evaluation error
        v = exp_iterate(req(0.0, 3.5, "lower"))
        assert 0.05 < abs(v - 3.5) < 1.0
        assert v.imag != 0.0

    def test_abel_step_along_the_ray(self):
        # the continuation still satisfies the Abel relation: one unit of
        # c equals one application of exp_b, even across the cut
        a = exp_iterate(req(1.0, 3.5, "lower"))
        b = exp_iterate(req(0.0, math.exp(3.5 / E), "lower"))
        assert abs(a - b) < 1e-12

    def test_off_axis_approaches_the_limit_in_the_disk(self):
        # just above the ray, inside the expansion disk, the direct orbit
        # tracks the same branch the sided limit uses
        cc = default_constants()
        cont = abel2(3.0) - complex(0.0, math.pi / 3.0) - complex(cc.a1_norm)
        assert abs(A1(complex(3.0, 1e-6)) - cont) < 1e-4

    def test_mp_cross_check_through_continuation(self):
        v = exp_iterate(req(0.0, 3.5, "lower"))
        vm = exp_iterate(req(0.0, 3.5, "lower"), CTX128)
        assert abs(v - complex(vm)) < 1e-12


class TestDq13:
    def test_window_is_small_but_nonzero(self):
        xs = [E - 0.1 + 0.01 * k for k in range(21)]
        mags = [abs(dq13(x)) for x in xs]
        assert max(mags) < 0.01
        assert max(mags) > 1e-6

    def test_value_left_of_e(self):
        d = dq13(E - 0.1)
        frozen = complex(-1.6100917980610419e-04, -1.1547320879873953e-05)
        assert abs(d - frozen) < 1e-9

    def test_matches_128_bit_recomputation(self):
        d = dq13(E - 0.1)
        d128 = dq13(E - 0.1, CTX128)
        assert abs(d - complex(d128)) < 1e-10

    def test_difference_formed_at_128_bits(self):
        # the two public half steps, with dq13's deep walk cap, subtracted
        # at the evaluation precision, bit for bit at every width; at 128
        # bits, in mpmath's global 53-bit context, the difference is
        # 2.8e-20 off.  E + 0.001 walks past the default cap
        for bits in (53, 128, 256):
            ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=bits))
            deep = dataclasses.replace(ctx, max_recursion=20000)
            for x in (E - 0.1, E + 0.05, E + 0.001):
                lower = exp_iterate(req(0.5, x, "lower"), deep)
                upper = exp_iterate(req(0.5, x, "upper"), deep)
                if bits == 53:
                    want = lower - upper
                else:
                    with mp.workprec(bits):
                        want = lower - upper
                got = dq13(x, ctx)
                assert type(got) is type(want) and got == want, (bits, x)

    def test_refuses_a_non_finite_x_before_the_width(self):
        # the argument rule first, as exp_iterate's; then the width
        ctx = EvalContext(precision=PrecisionConfig(mantissa_bits=500))
        with pytest.raises(DomainError, match="^argument must be finite, got nan$"):
            dq13(math.nan, ctx)
        with pytest.raises(DomainError, match="^500 bits is out of range"):
            dq13(E - 0.1, ctx)

    def test_zero_at_fixed_point(self):
        assert dq13(E) == 0.0

    def test_grows_away_from_e(self):
        assert abs(dq13(E + 0.1)) > 10.0 * abs(dq13(E + 0.01))


@pytest.mark.parametrize("ctx", [None, CTX128], ids=["53", "128"])
def test_dq13_keeps_one_deep_context(monkeypatch, ctx):
    # the deep-cap context is built once per caller context, so _kernel_of
    # matches it by identity and the caller's kernel stays in its slot
    import superexp.iteration as it

    seen = []

    def recorded(context):
        seen.append(context)
        return kernel_of(context)

    kernel_of = it._kernel_of
    monkeypatch.setattr(it, "_kernel_of", recorded)
    dq13(E - 0.1, ctx)
    dq13(E + 0.05, ctx)
    assert len(seen) == 2 and seen[0] is seen[1]
    assert seen[0].max_recursion == 20000
    assert seen[0].precision == (ctx or EvalContext()).precision


class TestAgreement:
    @pytest.mark.parametrize(
        "kind,z",
        [
            ("d1af", 1.0 + 1.0j),
            ("d1fa", 1.0 + 1.0j),
            ("d3af", 5.0 + 1.0j),
            ("d3fa", 5.0 + 1.0j),
        ],
    )
    def test_round_trips_agree_interior(self, kind, z):
        assert agreement(kind, z) >= 14.0

    @pytest.mark.parametrize("kind,z", [("dq1", 1.0 + 1.0j), ("dq3", 5.0 + 1.0j)])
    def test_half_iterate_agreement_interior(self, kind, z):
        assert agreement(kind, z) >= 13.0

    def test_poor_agreement_zone(self):
        # the two-evaluator round trip genuinely disagrees out here
        assert agreement("d1fa", 5.0 + 0.8j) < 1.0

    def test_unavailable_is_nan(self):
        # A1's forward orbit diverges on the axis right of its disk
        assert math.isnan(agreement("d1fa", 5.0))

    def test_unrepresentable_reference_is_nan(self):
        # the reference e^(z/e) overflows a double from Re z/e = 709.78
        assert not math.isnan(agreement("dq1", 1900.0))
        assert math.isnan(agreement("dq1", 1931.0))
        with pytest.raises(OrbitOverflowError):
            _exp_b(1931.0, 53)

    def test_sums_past_the_double_range_score(self):
        # X + Y is finite here but its modulus is not a double: the score
        # comes from the quarters, |X| being about 92 against |Y| = 2.5e308
        big = complex(-1.7976931348623157e308, -1.7976931348623157e308)
        with pytest.raises(OverflowError):
            abs(F1(A1(big)) + big)
        assert agreement("d1fa", big) == 0.0

    def test_round_trip_within_1e_308_of_e_is_nan(self):
        # F1(1.7e308 i) is e + 3.2e-308 i, where the double A1 refuses the
        # value (was 16.0, the score of a value past 2^1023)
        assert math.isnan(agreement("d1af", 1.7e308j))

    def test_exact_agreement_clips(self):
        assert agreement("dq1", E) == 16.0

    def test_clip_is_configurable(self):
        assert agreement("dq1", E, clip=8.0) == 8.0

    @pytest.mark.parametrize("ctx", [None, CTX128], ids=["53", "128"])
    def test_opposite_round_trip_scores_minus_clip(self, monkeypatch, ctx):
        # X = -Y makes |X + Y| exactly 0: the score is the far end, -clip.
        # agreement reads the evaluators' rule at each call, so an A1
        # giving -z makes the round trip A1(F1(z)) of d1af equal -z
        import superexp.iteration as it

        z = 1.0 + 1.0j
        one = it._one
        monkeypatch.setattr(it, "_one", lambda kernel, w, side, plus, abel, shift=None:
                            -z if abel else one(kernel, w, side, plus, abel, shift))
        assert agreement("d1af", z, ctx) == -16.0
        assert agreement("d1af", z, ctx, clip=8.0) == -8.0

    @pytest.mark.parametrize("kind", AGREEMENT_KINDS)
    @pytest.mark.parametrize("side", [None, "sideways"])
    def test_every_kind_refuses_a_side_before_evaluating(self, kind, side, monkeypatch):
        # the rule of compositions and grids, one message for every kind
        # (d1fa scored strict mode, 15.0068 at 1+1i, where dq1 refused it)
        def evaluated(*args, **kwargs):
            raise AssertionError("evaluated before the side was checked")

        # the kernel lookup, not default_constants: a warm kernel has its
        # anchors already and calls it no more
        for name in ("_kernel_of", "F1", "A1", "F3", "A3", "exp_iterate"):
            monkeypatch.setattr(f"superexp.iteration.{name}", evaluated)
        message = f"^cut_side must be 'above' or 'below', got {side!r}$"
        with pytest.raises(ValueError, match=message):
            agreement(kind, 1 + 1j, cut_side=side)

    def test_default_context_keeps_the_kernel(self):
        # F1 and agreement default to one context object, so mixing them
        # does not swap the evaluators' one-entry kernel cache
        F1(0.5)
        last = ev._last_kernel
        agreement("d1fa", 1.0 + 1.0j)
        assert ev._last_kernel is last

    @pytest.mark.parametrize("clip", [0.0, -3.0, math.inf, math.nan, "16", None])
    def test_rejects_bad_clip(self, clip):
        # a NaN clip once made every score NaN, a negative one every score
        # -clip; a str one raised a raw TypeError
        with pytest.raises(ValueError, match="^clip must be positive and finite"):
            agreement("d1fa", 1.0 + 1.0j, clip=clip)

    @pytest.mark.parametrize(
        "ctx, clip, want",
        [(None, 10, 10.0), (None, True, 1.0), (CTX128, 16, 16.0), (CTX128, True, 1.0)],
        ids=["53-int", "53-bool", "128-int", "128-bool"],
    )
    def test_an_int_or_bool_clip_scores_a_float(self, ctx, clip, want):
        # a clipped score (15.0068 at 53 bits) and exact agreement (128
        # bits) once returned the clip as passed: the int, or True
        score = agreement("d1fa", 1.0 + 1.0j, ctx, clip=clip)
        assert type(score) is float and score == want

    def test_mp_round_trip_clips(self):
        assert agreement("d1fa", 1.0 + 1.0j, CTX128) == 16.0

    @pytest.mark.parametrize(
        "kind,z",
        [("d1fa", 1.3 + 0.8j), ("d1af", 1.3 + 0.8j), ("dq1", 0.5 + 1.2j), ("d3af", 4.0 + 2.0j)],
    )
    def test_conjugate_symmetry(self, kind, z):
        assert agreement(kind, z) == agreement(kind, z.conjugate())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="agreement kind"):
            agreement("d2af", 1.0 + 1.0j)

    def test_width_past_the_calibrated_range_raises(self):
        # the width is refused as F1 and map_grid refuse it (it scored NaN)
        ctx = EvalContext(PrecisionConfig(mantissa_bits=440))
        message = "^440 bits is out of range: evaluations run from 53 to 432 bits$"
        with pytest.raises(DomainError, match=message):
            F1(1.0 + 1.0j, ctx)
        with pytest.raises(DomainError, match=message):
            agreement("d1fa", 1.0 + 1.0j, ctx)
        # exp_iterate and dq13 refuse it, exp_iterate before returning e itself
        with pytest.raises(DomainError, match=message):
            exp_iterate(IterateRequest(0.5, mpmath.e), ctx)
        with pytest.raises(DomainError, match=message):
            dq13(2.5, ctx)
        with pytest.raises(DomainError, match=message):
            map_grid("F1", GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2), ctx)


class TestNonFiniteIterate:
    """exp_iterate refuses a non-finite z or count before anything runs.

    A NaN z used to fail as an ambiguous branch, a non-finite count only
    after A(z) had run (and named the shifted argument), and at 53 bits
    a NaN of a float subclass read as outside the double range.
    """

    @pytest.mark.parametrize("ctx", [None, CTX128], ids=["53", "128"])
    @pytest.mark.parametrize("z", [math.nan, complex(1, math.nan), mpmath.mpf("nan")], ids=repr)
    def test_nan_z(self, ctx, z):
        with pytest.raises(DomainError, match=r"^argument must be finite, got "):
            exp_iterate(req(0.5, z), ctx)

    @pytest.mark.parametrize("ctx", [None, CTX128], ids=["53", "128"])
    @pytest.mark.parametrize(
        "c", [complex(0.5, math.inf), math.nan, mpmath.mpf("-inf")], ids=repr
    )
    def test_count_is_refused_before_anything_runs(self, monkeypatch, ctx, c):
        import superexp.iteration as it

        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(it, "_kernel_of", counted(it._kernel_of))
        monkeypatch.setattr(it, "A1", counted(it.A1))
        message = f"^argument must be finite, got {re.escape(repr(c))}$"
        with pytest.raises(DomainError, match=message):
            exp_iterate(req(c, 1.0), ctx)
        assert calls == []

    def test_float_subclass_nan(self):
        class Real(float):
            pass

        for request in (req(0.5, Real("nan")), req(Real("nan"), 1.0)):
            with pytest.raises(DomainError, match="^argument must be finite, got nan$"):
                exp_iterate(request)
        with pytest.raises(DomainError, match="^argument must be finite, got nan$"):
            F1(Real("nan"))
        assert F1(Real(0.5)) == F1(0.5)


class TestIntegersPastTheDoubleRange:
    """An int a double cannot hold has no 53-bit value: a DomainError.

    Nor has an mpmath value past the double range, which rounds to inf
    at 53 bits: before the check it gave a silent NaN, and F1 at
    -1e400 a raw OverflowError.
    """

    HUGE = [
        10**400, 2**1024 - 1,
        mpmath.mpf("1e400"), mpmath.mpf("-1e400"), mpmath.mpc(1, "1e400"),
    ]

    CALLS = {
        "F1": lambda n: F1(n),
        "F3": lambda n: F3(n),
        "A1": lambda n: A1(n),
        "A3": lambda n: ev.A3(n),
        "abel1": lambda n: ev.abel1(n),
        "abel2": lambda n: abel2(n),
        "superexp_tilde": lambda n: ev.superexp_tilde(n, "minus"),
        "exp_iterate z": lambda n: exp_iterate(req(0.5, n)),
        "exp_iterate c": lambda n: exp_iterate(req(n, 1.0)),
        "dq13": lambda n: dq13(n),
    }

    @pytest.mark.parametrize(
        "n", HUGE, ids=["10^400", "2^1024-1", "mpf 1e400", "mpf -1e400", "mpc 1+1e400i"]
    )
    @pytest.mark.parametrize("call", [*CALLS, "agreement"])
    def test_domain_error_at_53_bits(self, call, n):
        if call == "agreement":
            assert all(math.isnan(agreement(kind, n)) for kind in ("d1af", "dq1"))
        else:
            with pytest.raises(DomainError, match="double range"):
                self.CALLS[call](n)

    def test_wider_widths_unchanged(self):
        assert float(F1(10**400, CTX128)) == E
        assert float(F1(mpmath.mpf("1e400"), CTX128)) == E
        assert float(F3(mpmath.mpf("-1e400"), CTX128)) == E


class TestGridSpec:
    def test_bad_bounds(self):
        with pytest.raises(ValueError, match="x_min"):
            GridSpec(2.0, 2.0, 0.0, 1.0, 4, 4)
        with pytest.raises(ValueError, match="y_min"):
            GridSpec(0.0, 1.0, 3.0, 1.0, 4, 4)

    def test_bad_counts(self):
        with pytest.raises(ValueError, match="at least 2"):
            GridSpec(0.0, 1.0, 0.0, 1.0, 1, 4)
        with pytest.raises(ValueError, match="at least 2"):
            GridSpec(0.0, 1.0, 0.0, 1.0, 4, 1)

    def test_bad_cut_side(self):
        with pytest.raises(ValueError, match="cut_side"):
            GridSpec(0.0, 1.0, 0.0, 1.0, 4, 4, cut_side="over")

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_non_finite_bounds(self, bound):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(-1.0, bound, -1.0, 1.0, 3, 2)
        with pytest.raises(ValueError, match="finite"):
            GridSpec(-1.0, 1.0, bound, 1.0, 3, 2)

    def test_step_must_be_a_positive_double(self):
        # the span overflows, or the step underflows to 0
        with pytest.raises(ValueError, match="y step"):
            GridSpec(-1.0, 1.0, -1e308, 1e308, 3, 2)
        with pytest.raises(ValueError, match="x step"):
            GridSpec(0.0, 5e-324, -1.0, 1.0, 3, 2)

    def test_oversized_counts(self):
        # checked on construction only: no axis is built here
        with pytest.raises(ValueError, match="x step"):
            GridSpec(-1.0, 1.0, -1.0, 1.0, 10**400, 2)
        with pytest.raises(ValueError, match="y step"):
            GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 10**400)

    @pytest.mark.parametrize("nx, ny", [(2.5, 3), (3, 3.0), ("3", 3), (None, 3)])
    def test_counts_must_be_integers(self, nx, ny):
        with pytest.raises(ValueError, match="must be an integer"):
            GridSpec(-1.0, 1.0, -1.0, 1.0, nx, ny)

    def test_axes_include_bounds(self):
        g = GridSpec(-1.0, 1.0, 0.0, 2.0, 5, 3)
        assert g.xs() == (-1.0, -0.5, 0.0, 0.5, 1.0)
        assert g.ys() == (0.0, 1.0, 2.0)


class TestErrorCodes:
    @pytest.mark.parametrize(
        "cls, code",
        [
            (BranchCutError, "cut"),
            (DomainError, "domain"),
            (OrbitOverflowError, "overflow"),
            (NonConvergenceError, "nonconv"),
            (SuperexpError, "nonconv"),
        ],
    )
    def test_code_per_class(self, cls, code):
        assert cls("message").code == code

    def test_grid_cell_at_the_branch_point_is_domain(self):
        # the centre cell is e itself, where the Abel series is singular
        result = map_grid("A1", GridSpec(E - 1, E + 1, -1, 1, 3, 3))
        assert result.xs[1] == E and result.ys[1] == 0.0
        assert result.errors[1] == (None, "domain", "cut")


def _iterate_outcome(request, ctx) -> tuple:
    # exp_iterate's value as a grid cell holds it, by its bits, or its error code
    try:
        value = complex(exp_iterate(request, ctx))
    except SuperexpError as exc:
        return None, exc.code
    return (value.real.hex(), value.imag.hex()), None


class TestMapGrid:
    def test_a3_small_grid_finite(self):
        r = map_grid("A3", GridSpec(3.0, 6.0, -1.0, 1.0, 2, 2))
        assert all(e is None for row in r.errors for e in row)
        # conjugate rows: same x, mirrored y
        for i in range(2):
            assert r.values[0][i] == r.values[1][i].conjugate()

    def test_error_coded_cells_do_not_abort(self):
        r = map_grid("A1", GridSpec(3.0, 5.0, -0.5, 0.5, 3, 3))
        assert r.errors[1] == ("cut", "cut", "cut")  # y = 0: the ray z > e
        assert all(e is None for e in r.errors[0] + r.errors[2])

    def test_row_major_layout(self):
        r = map_grid("F1", GridSpec(0.0, 1.0, -1.0, 1.0, 3, 3))
        assert r.xs == (0.0, 0.5, 1.0) and r.ys == (-1.0, 0.0, 1.0)
        assert len(r.values) == 3 and all(len(row) == 3 for row in r.values)

    def test_expc_requires_c(self):
        with pytest.raises(ValueError, match="requires the iteration count"):
            map_grid("expc", GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2))

    def test_expc_rejects_an_unknown_branch(self):
        # the rule IterateRequest applies, checked before any cell
        for branch in ("sideways", 5):
            with pytest.raises(ValueError, match="branch must be"):
                map_grid("expc", GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2), c=0.5, branch=branch)

    def test_unknown_fn_rejected(self):
        with pytest.raises(ValueError, match="grid function"):
            map_grid("G2", GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2))

    @pytest.mark.parametrize("fn", ["F1", "F3", "A1", "A3"])
    @pytest.mark.parametrize(
        "given, name",
        [
            ({"c": 0.5}, "c"),
            ({"branch": "upper"}, "branch"),
            ({"c": "junk", "branch": "sideways"}, "c"),
        ],
        ids=["c", "branch", "both"],
    )
    def test_only_expc_takes_c_and_branch(self, monkeypatch, fn, given, name):
        # both were ignored: map_grid("F1", g, c=0.5, branch="upper") was
        # the F1 grid.  Refused by name, before any cell
        import superexp.iteration as it

        def evaluated(*args, **kwargs):
            raise AssertionError("a cell was evaluated")

        for attr in ("A1", "A3", "_rows"):
            monkeypatch.setattr(it, attr, evaluated)
        message = f"^{name} applies to fn='expc' only, not to {fn!r}$"
        with pytest.raises(ValueError, match=message):
            map_grid(fn, GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2), **given)

    @pytest.mark.parametrize(
        "c, ctx, message",
        [
            (math.nan, None, "^argument must be finite, got nan$"),
            (complex(0.5, -math.inf), None, r"^argument must be finite, got \(0.5-infj\)$"),
            (mpmath.mpf("nan"), CTX128, "^argument must be finite, got mpf"),
            (10**400, None, "^argument is outside the double range$"),
            (mpmath.mpf("1e400"), None, "^argument is outside the double range$"),
        ],
        ids=["nan", "complex inf", "mpf nan at 128", "10^400", "mpf 1e400"],
    )
    def test_expc_refuses_a_bad_count_before_calibrating(self, monkeypatch, c, ctx, message):
        # it once calibrated and then returned a grid of "domain" cells
        def evaluated(*args, **kwargs):
            raise AssertionError("evaluated a cell for a count no cell can take")

        monkeypatch.setattr("superexp.iteration.exp_iterate", evaluated)
        with pytest.raises(DomainError, match=message):
            map_grid("expc", GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2), ctx, c=c)

    def test_expc_cells_take_the_cast_count(self):
        # the count is cast once for the grid; each cell is exp_iterate's value
        g = GridSpec(-1.0, 1.0, -0.5, 0.5, 3, 2)
        for ctx, c in ((None, 10**2), (CTX128, mpmath.mpf("0.5")), (CTX128, 0.5 + 0j)):
            r = map_grid("expc", g, ctx, c=c, branch="lower")
            for y, row in zip(g.ys(), r.values):
                for x, value in zip(g.xs(), row):
                    want = exp_iterate(req(c, complex(x, y), "lower"), ctx)
                    assert value == complex(want)
        # every branch and side, at 53 and 128 bits: the middle row holds
        # e, where every iterate is e, and right of it A1's cut; the cells
        # at Re z = e off the axis fail without a branch ("domain"), and
        # c = -5 sends e - 1 onto F1's cut ("cut")
        g = GridSpec(E - 1.0, E + 1.0, -1.0, 1.0, 3, 3)
        assert g.xs()[1] == E and g.ys()[1] == 0.0
        codes = set()
        for ctx in (None, CTX128):
            for c in (0.5, -5):
                for branch in (None, "lower", "upper"):
                    for side in ("above", "below"):
                        grid = dataclasses.replace(g, cut_side=side)
                        r = map_grid("expc", grid, ctx, c=c, branch=branch)
                        cells = [
                            (None if err else (value.real.hex(), value.imag.hex()), err)
                            for row, erow in zip(r.values, r.errors)
                            for value, err in zip(row, erow)
                        ]
                        want = [
                            _iterate_outcome(req(c, complex(x, y), branch, side), ctx)
                            for y in grid.ys() for x in grid.xs()
                        ]
                        assert cells == want, (ctx, c, branch, side)
                        codes.update(err for _, err in cells)
        assert {None, "domain", "cut"} <= codes

    @pytest.mark.parametrize("ctx", [None, CTX128], ids=["53", "128"])
    @pytest.mark.parametrize("kind", ["dq1", "dq3"])
    def test_dq_scores_compose_two_public_iterates(self, monkeypatch, kind, ctx):
        # agreement calls exp_iterate's body with one kernel and a cast
        # count: its scores are those of two public exp_iterate calls
        import superexp.iteration as it

        # the box around e; then failing compositions: dq3 meets log 0 at 0
        # and dq1 F1's cut at 30+30i, and dq1 overflows at 1800+i
        points = [complex(x, y) for x in (E - 1.0, E, E + 1.0, -1.5) for y in (-1.0, 0.0, 1.0)]
        points += [0.0, 30 + 30j, 1800 + 1j]
        scores = {side: [agreement(kind, z, ctx, cut_side=side).hex() for z in points]
                  for side in ("above", "below")}

        body, branch = it._iterate, "lower" if kind == "dq1" else "upper"

        def public(kernel, c, z, _branch, cut_side):
            # the documented half step on the kind's branch, a public call in
            # place of each body call (the body runs inside it)
            monkeypatch.setattr(it, "_iterate", body)
            try:
                return exp_iterate(IterateRequest(0.5, z, branch, cut_side), ctx)
            finally:
                monkeypatch.setattr(it, "_iterate", public)

        monkeypatch.setattr(it, "_iterate", public)
        for side, want in scores.items():
            assert [agreement(kind, z, ctx, cut_side=side).hex() for z in points] == want
        assert "nan" in scores["above"] and len(set(scores["above"])) > 2

    def test_half_iterate_changes_sign_near_origin(self):
        g = GridSpec(-3.0, 1.0, -0.5, 0.5, 9, 3)
        r = map_grid("expc", g, c=0.5, branch="lower")
        reals = [v.real for v in r.values[1] if v is not None]
        assert min(reals) < 0.0 < max(reals)

    def test_lower_superexp_window_mostly_clean(self):
        # coarse version of the plotting window; the full-size sweep is
        # exercised by the acceptance suite
        g = GridSpec(-8.0, 28.0, -14.0, 14.0, 73, 57)
        r = map_grid("F1", g)
        bad = sum(1 for row in r.errors for e in row if e is not None)
        assert bad / (g.nx * g.ny) < 0.01

    def test_mp_context_matches_double(self):
        g = GridSpec(-1.0, 1.0, 0.5, 1.5, 3, 2)
        rd = map_grid("F1", g)
        rm = map_grid("F1", g, CTX128)
        for row_d, row_m in zip(rd.values, rm.values):
            for vd, vm in zip(row_d, row_m):
                assert abs(vd - vm) < 1e-12


class TestCheckGrid:
    # the cut [e, inf) crosses these grids' middle row, so d1fa and d1af
    # have unavailable cells among scored ones
    GRIDS = {53: GridSpec(-2.0, 6.0, -2.0, 2.0, 5, 5), 128: GridSpec(-2.0, 6.0, -2.0, 2.0, 3, 3)}

    @pytest.mark.parametrize("kind", AGREEMENT_KINDS)
    @pytest.mark.parametrize("bits", [53, 128])
    @pytest.mark.parametrize("clip, cut_side", [(16.0, "above"), (8, "below")])
    def test_scores_are_agreements(self, kind, bits, clip, cut_side):
        # bit for bit, NaN in the same cells: float.hex tells -0.0 from 0.0
        grid = dataclasses.replace(self.GRIDS[bits], cut_side=cut_side)
        ctx = EvalContext(PrecisionConfig(mantissa_bits=bits))
        cells, _ = check_grid(kind, grid, ctx, clip)
        want = [(x, y, agreement(kind, complex(x, y), ctx, clip, cut_side))
                for y in grid.ys() for x in grid.xs()]
        assert [(x, y, d.hex()) for x, y, d in cells] == [(x, y, d.hex()) for x, y, d in want]

    def test_summary(self):
        cells, summary = check_grid("d1fa", self.GRIDS[53])
        scores = [d for _, _, d in cells]
        finite = sorted(d for d in scores if not math.isnan(d))
        assert 0 < len(finite) < len(cells) == 25
        assert list(summary) == ["min", "median", "fraction_ge_14", "unavailable"]
        assert summary["min"] == finite[0]
        mid = len(finite) // 2
        assert summary["median"] == (finite[mid] if len(finite) % 2
                                     else (finite[mid - 1] + finite[mid]) / 2)
        assert summary["fraction_ge_14"] == sum(d >= 14.0 for d in finite) / 25
        assert summary["unavailable"] == 25 - len(finite)

    def test_every_cell_unavailable(self):
        # the reference e^(x/e) overflows a double at every cell
        cells, summary = check_grid("dq1", GridSpec(1930.0, 2000.0, -1.0, 1.0, 3, 3))
        assert all(math.isnan(d) for _, _, d in cells)
        assert summary == {"min": None, "median": None, "fraction_ge_14": 0.0, "unavailable": 9}

    def test_refusals(self):
        grid = self.GRIDS[128]
        with pytest.raises(ValueError, match="unknown agreement kind"):
            check_grid("d2af", grid)
        with pytest.raises(ValueError, match="clip must be positive"):
            check_grid("d1fa", grid, clip=math.inf)
        with pytest.raises(DomainError, match="500 bits is out of range"):
            check_grid("d1fa", grid, EvalContext(PrecisionConfig(mantissa_bits=500)))


class TestDoubleBitIdentity:
    """The 53-bit sweep keeps its doubles when its per-call work moves.

    The digests pin every value, error code and score bit for bit:
    ``repr`` of a double round-trips exactly.  The first pair was
    recorded before the double kernel's per-call overhead was cut (cast
    anchors, one kernel lookup per context, the hoisted walk step, each
    Abel walk in one loop) and held through each of those cuts; the
    next pair was recorded when F~ moved from the P_m sum to Newton's
    method on the Abel series, which moves the F1 and F3 doubles
    (TestDoubleAccuracy checks those against 128 bits).  This pair was
    recorded when that Newton solve became two planned steps from a
    two-logarithm start (_DoubleKernel.ftilde), in place of up to
    four full ones: 196 of the 1272 map cells moved, all of them F1 or
    F3 values, by at most a relative 1.7e-15, and no error code; 11 of
    the 27 scores moved, ten by at most 0.02 digits and dq1 at
    0.5-0.25i from 14.67 to 15.54.  They hold for a libm
    that rounds exp, log and atan2 as glibc does on x86-64.
    """

    GRIDS = (
        GridSpec(-8.0, 28.0, -14.0, 14.0, 19, 15),
        GridSpec(-4.0, 6.0, -1.0, 1.0, 11, 3, cut_side="below"),
    )
    POINTS = (1 + 1j, 0.5 - 0.25j, -1.5 + 0.75j, 3 + 3j, 4 + 2j, 5 + 0.8j, 5.0, 2.0, E)

    def test_map_grid_digest(self):
        # re-recorded when F1 began to refuse its poles: the F1 cells at
        # the real integers <= -2 became "domain", and no other cell moved.
        # Re-recorded when both kernels came to share one escape rule
        # (evaluators._escape): 14 A1 cells whose escaping step has a
        # phase past 2^45 went from "nonconv" to "overflow", the code a
        # wider kernel gives there too, and no value moved
        digest, codes, poles = hashlib.sha256(), set(), []
        for grid in self.GRIDS:
            for fn in ("F1", "A1", "F3", "A3"):
                r = map_grid(fn, grid)
                codes |= {e for row in r.errors for e in row}
                poles += [
                    (fn, x, y)
                    for y, erow in zip(grid.ys(), r.errors)
                    for x, e in zip(grid.xs(), erow) if e == "domain"
                ]
                digest.update(repr((fn, r.values, r.errors)).encode())
        assert codes == {None, "cut", "overflow", "domain"}
        assert poles == [("F1", x, 0.0) for x in (-8, -6, -4, -2, -4, -3, -2)]
        assert digest.hexdigest() == (
            "721cb1fb09e01441f6c1164ca9e66172f84ed727da2671f832f6c07a63dd8314"
        )

    def test_agreement_digest(self):
        scores = [
            (kind, z, agreement(kind, z))
            for kind in ("d1fa", "d3fa", "dq1")
            for z in self.POINTS
        ]
        # finite, clipped and unavailable scores all occur
        assert {16.0, -16.0} & {s for *_, s in scores} == {16.0}
        assert any(math.isnan(s) for *_, s in scores)
        assert hashlib.sha256(repr(scores).encode()).hexdigest() == (
            "cc49764d4a31217be61709fe9994c40f2d20782fa7f6a306de7744dc9219e08c"
        )


def _bits(call):
    # a value's exact bits (repr of a double, _mpf_ or _mpc_ above 53
    # bits), or the error it raises
    try:
        value = call()
    except SuperexpError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, (float, complex)):
        return repr(value)
    return repr(getattr(value, "_mpc_", None) or value._mpf_)


class TestCompositionBitIdentity:
    """exp_iterate, dq13 and the dq agreements keep their bits.

    The digests pin every value, at 53 bits and at 128, and every error
    message.  The requests take both branches and both cut sides, A1's
    cut [e, inf) on the lower branch, real, complex and mpmath counts,
    mpmath points within 2^-100 of e, and the fixed point.  Recorded
    before exp_iterate, dq13 and agreement held their values through
    the kernel (at_width) instead of forking on the width.  The 128-bit
    digest was recorded again when exp_iterate came to round c + A(z) to
    the width in both parts: a real count had left the imaginary part of
    A(z) at the work bits, and now gives what the same count as a
    complex gave.  It was recorded again when a wide kernel's walk caps
    came to count max_recursion in 53-bit steps: 37 messages of the F
    walks from e read "cap is 212" (dq13's "cap is 20012"), were 200
    (20000), and no value or error class moved.  The 53-bit digest
    holds for a libm that rounds exp and log as glibc does on x86-64,
    as TestDoubleBitIdentity's do.
    """

    COUNTS = (0.5, -0.25, complex(0.5, 0.0), complex(0.5, 0.25), 1.0)
    POINTS = (1 + 1j, 0.5 - 0.25j, 1.0, -1.5, 2.0, E, E + 0.1, 3.0, 5.0, 4 + 2j, 5 - 0.8j)
    AXIS = (E - 0.1, E + 0.05, 2.0, 3.5, E)
    DQ = (1 + 1j, 0.5 - 0.25j, 2.0, 3.0, 5.0, 4 + 2j, E)

    def _digest(self, ctx):
        with mp.workprec(160):
            near = (+mpmath.e, mpmath.e - mpmath.mpf(2) ** -100, mpmath.e + mpmath.mpf(2) ** -100)
        rows = []
        for z in (*self.POINTS, *near, mpmath.mpc(3, 0)):
            for c in (*self.COUNTS, mpmath.mpf(-0.5)):
                for branch in (None, "lower", "upper"):
                    for side in ("above", "below"):
                        request = req(c, z, branch, side)
                        rows.append(_bits(lambda: exp_iterate(request, ctx)))
        rows += [_bits(lambda: dq13(x, ctx)) for x in self.AXIS]
        rows += [
            agreement(kind, z, ctx, cut_side=side)
            for kind in ("dq1", "dq3")
            for z in self.DQ
            for side in ("above", "below")
        ]
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    def test_53_bits(self):
        assert self._digest(None) == (
            "002d285e8a5b23e26eccbd2167ea3ee79997a1d149f3da9fbd4bf14d8f3379cf"
        )

    def test_128_bits(self):
        assert self._digest(CTX128) == (
            "45a7b69240107bf0adb372bbba748bafa52c2d35aaff6481e67ee38da71253a8"
        )


EVALUATORS = {"F1": F1, "F3": F3, "A1": A1, "A3": A3}


def _per_cell(fn, grid, ctx=None):
    # each cell evaluated on its own, as the public evaluator does it
    f = EVALUATORS[fn]
    cells = []
    for y in grid.ys():
        for x in grid.xs():
            try:
                value = complex(f(complex(x, y), ctx, cut_side=grid.cut_side))
            except SuperexpError as exc:
                cells.append((None, exc.code))
                continue
            # a wide value past the double range is an overflow cell
            cells.append((repr(value), None) if cmath.isfinite(value) else (None, "overflow"))
    return cells


def _jittered_box(seed, ny):
    # perfbench's map box: 0.25-spaced columns, origin moved by < 1 cell
    rng = random.Random(f"grid:{seed}")
    dx, dy = rng.uniform(0, 0.25), rng.uniform(0, 0.25)
    return GridSpec(-8 + dx, 28 + dx, -14 + dy, 14 + dy, 145, ny)


class TestSharedWalks:
    """A F1 or F3 sweep shares walks by exact base point, bit for bit.

    Cells a whole number of units apart walk from the same base; each
    grid below but the last has such cells, and every cell of the sweep
    must equal the evaluator called on that cell alone: the same double
    and the same error code.  A1 and A3 sweeps go through the same row
    loop, which decides the cut side once a row: the y = 0 row of
    "tenths-below" and the overflow cells of A1 pin it cell by cell.
    """

    @pytest.mark.parametrize(
        "grid, ctx",
        [
            (_jittered_box(1, 15), None),
            (_jittered_box(2, 9), None),
            # 0.1 is not exact in binary: some cells one unit apart do not
            # reach the same base, so a neighbour's walk is not theirs
            (GridSpec(-4.0, 16.0, -2.0, 2.0, 201, 11, cut_side="below"), None),
            # 38 overflow cells, some on an unrepresentable intermediate step
            (GridSpec(-30, 40, -5, 5, 141, 21), None),
            (GridSpec(-4.0, 26.0, -1.0, 1.0, 61, 3), CTX128),
            # spacing 36/99: columns 11 apart are 4 units apart
            (GridSpec(-8, 28, -14, 14, 100, 5), None),
            # spacing 36/97: columns 97 apart are 36 units apart, past the
            # longest walk, so no cell reads another's walk
            (GridSpec(-8, 28, -14, 14, 98, 2), None),
        ],
        ids=[
            "jittered-1", "jittered-2", "tenths-below", "overflow", "128-bit",
            "four-units", "no-memo",
        ],
    )
    @pytest.mark.parametrize("fn", ["F1", "F3", "A1", "A3"])
    def test_sweep_equals_per_cell(self, fn, grid, ctx):
        r = map_grid(fn, grid, ctx)
        swept = [
            (None if err else repr(value), err)
            for row, erow in zip(r.values, r.errors)
            for value, err in zip(row, erow)
        ]
        assert swept == _per_cell(fn, grid, ctx)

    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec(-4.0, 16.0, -2.0, 2.0, 201, 11, cut_side="below"),
            GridSpec(-30, 40, -5, 5, 141, 21),
        ],
        ids=["tenths-below", "overflow"],
    )
    @pytest.mark.parametrize("fn", ["F1", "F3", "A1", "A3"])
    def test_sweep_errors_equal_per_cell(self, monkeypatch, fn, grid):
        # a failing cell of a sweep raises what the evaluator raises on
        # that cell alone: the same class, args and attributes, whether
        # its walk failed first for it or for another cell of its row
        import superexp.iteration as it

        def outcome(evaluate, *args):
            try:
                evaluate(*args)
            except SuperexpError as exc:
                return type(exc), exc.args, vars(exc)
            return None

        def recorded(exc):
            return None if exc is None else (type(exc), exc.args, vars(exc))

        f = EVALUATORS[fn]
        # the row evaluator map_grid builds, caught as the driver returns it
        built, driver = [], it._rows
        monkeypatch.setattr(it, "_rows", lambda *args: built.append(driver(*args)) or built[-1])
        map_grid(fn, grid, EvalContext())
        row, = built
        for y in grid.ys():
            _, errors = row(grid.xs(), y, grid.cut_side)
            for x, exc in zip(grid.xs(), errors):
                z = complex(x, y)
                swept = recorded(exc)
                assert swept == outcome(f, z, None, grid.cut_side), z

    @pytest.mark.parametrize("fn, kw", [("F3", {}), ("expc", {"c": 2.0})])
    def test_wide_cells_past_the_double_range_are_overflow(self, fn, kw):
        # a finite 128-bit value above 1e308 was an infinite cell with no
        # code; the one row driver records it as overflow, for every kind
        r = map_grid(fn, GridSpec(19.0, 22.9, 0.0, 1.0, 40, 2), CTX128, **kw)
        cells = [(v, e) for row, erow in zip(r.values, r.errors) for v, e in zip(row, erow)]
        assert all((v is None) != (e is None) for v, e in cells)
        assert all(cmath.isfinite(v) for v, _ in cells if v is not None)
        assert any(e == "overflow" for _, e in cells)
        assert any(v is not None for v, _ in cells)

    def test_overflow_grid_has_failing_cells(self):
        r = map_grid("F3", GridSpec(-30, 40, -5, 5, 141, 21))
        assert sum(e == "overflow" for row in r.errors for e in row) == 38

    @pytest.mark.parametrize("fn", ["F1", "F3"])
    def test_walking_cells_sum_no_series(self, monkeypatch, fn):
        # only the cells that start past the threshold sum; a walking cell
        # reads its value off a base summed for another cell
        calls = []
        ftilde = ev._DoubleKernel.ftilde

        def counted(self, z, k, plus, chain=None):
            if not chain:  # the series is summed at z
                calls.append((z, plus))
            return ftilde(self, z, k, plus, chain)

        monkeypatch.setattr(ev._DoubleKernel, "ftilde", counted)
        grid = _jittered_box(1, 15)
        map_grid(fn, grid)
        constants = default_constants(53)
        threshold = ev._kernel(EvalContext()).threshold
        if fn == "F1":
            starts = [x + float(constants.x1) for x in grid.xs()]
            unwalked = sum(threshold - w < 0 for w in starts)
        else:
            starts = [x + float(constants.x3) for x in grid.xs()]
            unwalked = sum(w + threshold < 0 for w in starts)
        assert len(calls) == unwalked * grid.ny
        assert 0 < unwalked < grid.nx  # some columns walk, some do not

    @pytest.mark.parametrize(
        "grid",
        [_jittered_box(1, 5), GridSpec(-8, 28, -14, 14, 98, 5)],
        ids=["jittered-1", "spacing-36-97"],
    )
    def test_memo_holds_one_row(self, monkeypatch, grid):
        # a base's imaginary part is the row's plus the anchor's, so no
        # walk of an earlier row can serve a later one
        rows = []
        walk = ev._ftilde_eval

        def recorded(kernel, w0, plus, chains=None):
            rows.append({base.imag for base in chains})
            return walk(kernel, w0, plus, chains)

        monkeypatch.setattr(ev, "_ftilde_eval", recorded)
        r = map_grid("F1", grid)
        # a cell on a pole (-8 on the real row) is refused before the walk
        poles = sum(err == "domain" for erow in r.errors for err in erow)
        assert len(rows) == grid.nx * grid.ny - poles
        assert max(map(len, rows)) == 1

    def test_sweep_leaves_no_cyclic_garbage(self):
        # an exception stored in the memo would hold, through its
        # traceback, the frames that hold the memo: a cycle per sweep
        grid = GridSpec(-30, 40, -5, 5, 141, 21)
        map_grid("F3", grid)
        gc.collect()
        gc.disable()
        try:
            map_grid("F3", grid)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGridSerialization:
    def test_csv_shape_and_header(self):
        r = map_grid("A3", GridSpec(3.0, 6.0, -1.0, 1.0, 2, 2))
        lines = grid_to_csv(r).strip().split("\n")
        assert lines[0] == "x,y,re,im,err"
        assert len(lines) == 1 + 4

    def test_csv_values_round_trip(self):
        r = map_grid("F1", GridSpec(0.0, 1.0, -1.0, 1.0, 3, 3))
        lines = grid_to_csv(r).strip().split("\n")[1:]
        for line, (x, y, v) in zip(
            lines,
            [(x, y, r.values[j][i]) for j, y in enumerate(r.ys) for i, x in enumerate(r.xs)],
        ):
            fx, fy, fre, fim, err = line.split(",")
            assert float(fx) == x and float(fy) == y
            assert float(fre) == v.real and float(fim) == v.imag
            assert err == ""

    def test_csv_error_rows(self):
        r = map_grid("A1", GridSpec(3.0, 5.0, -0.5, 0.5, 3, 3))
        lines = grid_to_csv(r).strip().split("\n")
        bad = [ln for ln in lines if ln.endswith("cut")]
        assert len(bad) == 3
        for ln in bad:
            assert ",,," in ln  # empty re and im fields

    def test_json_round_trip(self):
        g = GridSpec(-3.0, 1.0, -0.5, 0.5, 5, 3)
        r = map_grid("expc", g, c=0.5, branch="lower")
        payload = json.loads(grid_to_json(r))
        assert payload["fn"] == "expc"
        assert payload["nx"] == 5 and payload["ny"] == 3
        assert len(payload["samples"]) == 15
        first = payload["samples"][0]
        assert first["x"] == -3.0 and first["y"] == -0.5
        assert set(first) == {"x", "y", "re", "im", "err"}

    def test_json_marks_errors(self):
        r = map_grid("A1", GridSpec(3.0, 5.0, -0.5, 0.5, 3, 3))
        payload = json.loads(grid_to_json(r))
        codes = {s["err"] for s in payload["samples"]}
        assert codes == {None, "cut"}
        for s in payload["samples"]:
            assert (s["re"] is None) == (s["err"] is not None)
