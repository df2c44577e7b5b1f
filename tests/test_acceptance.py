"""Acceptance gate: one pass/fail line per criterion.

Each test prints its verdict with the measured quantities before
asserting, so a failing run still shows how far off it was.  Published
digits are compared only as far as the computation that printed them
was accurate: digit for digit where they lie above its double-precision
noise, and otherwise within a spread or tolerance that the test derives
and prints (test_02: the rounding spread of an IEEE-double orbit, whose
step pattern the test also reproduces; test_05: the 53-bit kernel's
floor near 1e-12).  Where a comparison is that loose, identities
computed by separate code paths pin our own values far more tightly.
"""

import cmath
import math
import random
import time
from fractions import Fraction as F

import mpmath
from mpmath import mp

from superexp.evaluators import (
    A1,
    A3,
    F1,
    F3,
    BranchSign,
    EvalContext,
    default_constants,
    superexp_tilde,
)
from superexp.evaluators import PrecisionConfig as EvalPrecision
from superexp.iteration import GridSpec, IterateRequest, agreement, exp_iterate, map_grid
from superexp.limits import PrecisionConfig, convergence_table, newton_superfunction, _printed
from superexp.series import (
    abel_expansion,
    exp_minus_one,
    iterative_logarithm,
    superexp_polynomials,
)

E = math.e
CC = default_constants(53)


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_01_exact_rational_coefficients():
    h = exp_minus_one(11)
    j = iterative_logarithm(h, 8)
    ok_j = [j[k] for k in range(2, 8)] == [
        F(1, 2), F(-1, 12), F(1, 48), F(-1, 180), F(11, 8640), F(-1, 6720),
    ]
    tail = abel_expansion(h, 8).tail
    ok_tail = [tail[m] for m in range(1, 5)] == [
        F(-1, 36), F(1, 540), F(1, 7776), F(-71, 435456),
    ]
    se = superexp_polynomials(5)
    want = {
        1: [F(0), F(1)],
        2: [F(1, 2), F(1), F(1)],
        3: [F(7, 10), F(5, 2), F(5, 2), F(1)],
        4: [F(67, 60), F(53, 10), F(15, 2), F(13, 3), F(1)],
        5: [F(2701, 1680), F(653, 60), F(83, 4), F(101, 6), F(77, 12), F(1)],
    }
    ok_p = all(
        list(se.polynomial(m).coefficients) == want[m] for m in range(1, 6)
    )
    ok = ok_j and ok_tail and ok_p
    assert _verdict(
        "exact rational coefficients",
        ok,
        f"iterative log {ok_j}, tail {ok_tail}, polynomials {ok_p}",
    )


# published 4-to-7-decimal digit blocks of the difference-quotient probe
LEVY_DIGITS = {
    100: "-1.4560", 101: "-1.4557", 102: "-1.4553", 103: "-1.4550",
    104: "-1.4547", 105: "-1.4544", 106: "-1.4541", 107: "-1.4538",
    108: "-1.4535", 109: "-1.4533",
    1000: "-1.425788", 1001: "-1.425785", 1002: "-1.425781",
    1003: "-1.425778", 1004: "-1.425775", 1005: "-1.425771",
    1006: "-1.425768", 1007: "-1.425764", 1008: "-1.425761",
    1009: "-1.425758",
    10000: "-1.4226982", 10001: "-1.4226982", 10002: "-1.4226981",
    10003: "-1.4226981", 10004: "-1.4226981", 10005: "-1.4226980",
    10006: "-1.4226980", 10007: "-1.4226980", 10008: "-1.4226979",
    10009: "-1.4226979",
}
LEVY_TOP = [
    "-1.42241848", "-1.42241893", "-1.42241823", "-1.42241951",
    "-1.42241880", "-1.42241891", "-1.42241937", "-1.42241983",
    "-1.42241913", "-1.42241958",
]


def _double_levy_rows(ns):
    # the probe as a double-precision run computes it: plain math.exp
    # orbits of x -> e^(x/e) from -1 and 1.  Alongside each orbit point
    # runs its variance under one ulp of rounding per step, carried
    # forward by the derivative x_{j+1}/e; a row's spread is the
    # root-sum-square of both orbits' deviations over the denominator.
    # Returns {n: (value, spread)}.
    want = set(ns)
    rows = {}
    a, b = -1.0, 1.0
    var_a = var_b = 0.0
    for n in range(max(ns) + 1):
        a_next, b_next = math.exp(a / E), math.exp(b / E)
        if n in want:
            den = b_next - b
            rows[n] = ((a - b) / den, math.sqrt(var_a + var_b) / abs(den))
        var_a = var_a * (a_next / E) ** 2 + math.ulp(a_next) ** 2
        var_b = var_b * (b_next / E) ** 2 + math.ulp(b_next) ** 2
        a, b = a_next, b_next
    return rows


def _steps(printed: list[str]) -> list[int]:
    # successive differences of printed rows, in units of the last digit
    units = [int(p.replace(".", "")) for p in printed]
    return [b - a for a, b in zip(units, units[1:])]


def test_02_levy_probe_digit_table():
    cfg = PrecisionConfig(mantissa_bits=256)
    top_ns = list(range(100000, 100010))
    recs = {
        r.n: r.value
        for r in convergence_table("levy", (-1, 1), sorted(LEVY_DIGITS) + top_ns, cfg)
    }
    early_bad = [
        n for n in sorted(LEVY_DIGITS)
        if n < 10000 and _printed("levy", n, recs[n]) != LEVY_DIGITS[n]
    ]
    top = [recs[n] for n in top_ns]
    monotone = all(a < b for a, b in zip(top, top[1:]))

    # our rows against the closed form (F1(n + A1(-1)) - F1(n)) /
    # (F1(n+1) - F1(n)), from the 128-bit evaluators rather than the
    # orbit; the shifted argument is formed at 256 bits, since a 53-bit
    # sum A1(-1) + n would move the ratio by about 1e-12
    tenk_ns = [n for n in sorted(LEVY_DIGITS) if n >= 10000]
    ctx = EvalContext(precision=EvalPrecision(mantissa_bits=128))
    shift = A1(-1, ctx)
    with mp.workprec(256):
        closed_gap = float(max(
            abs((F1(shift + n, ctx) - F1(n, ctx))
                / (F1(n + 1, ctx) - F1(n, ctx)) - recs[n])
            for n in tenk_ns + top_ns
        ))

    # the published 10^4 and 10^5 rows come from a double orbit: the
    # denominator f^{n+1}(1) - f^n(1), about 5.4e-10 at 10^5, is rounded
    # to a grid of 4.4e-16, which makes the published 10^5 block jitter
    # (it is not monotone).  A double orbit run here reproduces that
    # jitter step for step, and the published rows lie within its
    # rounding spread of ours (about 5e-7 at 10^4, 1.6e-4 at 10^5)
    double = _double_levy_rows(tenk_ns + top_ns)
    double_top = [_printed("levy", n, mpmath.mpf(double[n][0])) for n in top_ns]
    step_dev = max(
        abs(p - d) for p, d in zip(_steps(LEVY_TOP), _steps(double_top))
    )
    published = dict(zip(top_ns, LEVY_TOP))
    published.update((n, LEVY_DIGITS[n]) for n in tenk_ns)
    with mp.workprec(256):
        offset = {
            n: float(abs(mpmath.mpf(published[n]) - recs[n])) for n in published
        }
    blocks = {"10^4": tenk_ns, "10^5": top_ns}
    spread = {k: min(double[n][1] for n in ns) for k, ns in blocks.items()}
    worst = {k: max(offset[n] for n in ns) for k, ns in blocks.items()}
    in_spread = all(offset[n] <= double[n][1] for n in published)

    ok = (
        not early_bad and monotone and closed_gap <= 1e-30
        and step_dev <= 1 and in_spread
    )
    assert _verdict(
        "difference-quotient probe digit table",
        ok,
        f"blocks<=10^3 mismatches {early_bad}, 10^5 monotone {monotone}, "
        f"closed-form gap {closed_gap:.1e} (tol 1e-30), published 10^5 steps "
        f"vs double orbit max {step_dev} units (tol 1), published offset "
        + ", ".join(
            f"{k} {worst[k]:.2e} (spread {spread[k]:.2e})" for k in blocks
        ),
    )


FATOU_DIGITS = {
    1000: "-1.4224939", 1001: "-1.4224938", 1002: "-1.4224936",
    1003: "-1.4224935", 1004: "-1.4224934", 1005: "-1.4224932",
    10000: "-1.422367740", 10001: "-1.422367738", 10002: "-1.422367737",
    10003: "-1.422367736", 10004: "-1.422367734", 10005: "-1.422367733",
    100000: "-1.42235507550", 100001: "-1.42235507549",
    100002: "-1.42235507548", 100003: "-1.42235507546",
    100004: "-1.42235507545", 100005: "-1.42235507543",
}


def test_03_fatou_probe_digit_table():
    cfg = PrecisionConfig(mantissa_bits=256)
    recs = convergence_table("fatou1", (-1,), sorted(FATOU_DIGITS), cfg)
    bad = [
        r.n for r in recs if _printed("fatou1", r.n, r.value) != FATOU_DIGITS[r.n]
    ]
    assert _verdict(
        "shift probe digit table",
        not bad,
        f"{len(recs) - len(bad)}/{len(recs)} rows match, mismatches {bad}",
    )


def test_04_binomial_transform_demonstration():
    cfg = PrecisionConfig(
        mantissa_bits=2000, series_terms=1000, max_iterations=2000
    )
    res = newton_superfunction(1, -1.4223536677333, cfg, base_map="f")
    value = float(res.value)
    ok = -0.99 <= value <= -0.985
    assert _verdict(
        "binomial transform demonstration",
        ok,
        f"1000 terms at 2000 bits give {value:.7f} (want [-0.99, -0.985])",
    )


def test_05_calibration_constants():
    with mp.workprec(CC.bits):
        gaps = {
            "x1": float(abs(CC.x1 - mpmath.mpf("2.798248154231454"))),
            "x3": float(abs(CC.x3 - mpmath.mpf("-20.28740458994004"))),
            "a1_norm": float(abs(CC.a1_norm - mpmath.mpf("3.029297214418"))),
            "a3_norm": float(
                abs(CC.a3_norm - mpmath.mpf("-20.0563555297533789"))
            ),
        }
    # the Abel series 2/zeta + (1/3) log zeta + sum v_k zeta^k and the
    # asymptotic F~ are formal inverses up to the shift ln(2)/3 (the P_m
    # of F~ are built as that inverse), and calibrate() takes x1 and x3
    # from the Abel walks by that identity.  Summing F~ by the P_m, far
    # out and walked back in, at 64 bits above the calibration checks
    # F~(x1) = 1 and F~(x3) = 3 on the other evaluation path, at tier
    # 192 and at tier 320; the coefficients themselves are pinned by
    # test_series' digest of the P_m
    anchors = {}
    for cc in (CC, default_constants(256)):
        ctx = EvalContext(precision=EvalPrecision(mantissa_bits=cc.bits + 64))
        with mp.workprec(cc.bits + 64):
            one = superexp_tilde(cc.x1, BranchSign.minus, ctx)
            three = superexp_tilde(cc.x3, BranchSign.plus, ctx)
            anchors[cc.bits] = (abs(one - 1), abs(three - 3))
    # x1 and x3 are roots of F~(x) = 1 and 3 printed by a double-precision
    # computation.  The 53-bit kernel's floor is near 1e-12 (EvalContext);
    # over F~'(x1) = F1'(0) ~ 0.61 that is about 1.6e-12 in the root.  A
    # secant root with our 53-bit kernel lands anywhere in
    # 2.79824815423137..2.79824815423146 as the term count (12-24) and
    # walk-out threshold (8-20) vary; the published x1 lies inside, 6.6e-14
    # from ours.  So x1 takes the tolerance x3 always had
    tols = {"x1": 1e-12, "x3": 1e-12, "a1_norm": 1e-11, "a3_norm": 1e-12}
    bad = {k: gaps[k] for k in gaps if gaps[k] > tols[k]}
    bad.update(
        (bits, pair)
        for bits, pair in anchors.items()
        if max(pair) > mpmath.mpf(2) ** (8 - bits)
    )

    def log2(gap):
        return f"2^{float(mpmath.log(gap, 2)):.1f}" if gap else "0"

    assert _verdict(
        "calibration constants",
        not bad,
        "published gaps "
        + ", ".join(f"{k} {v:.2e} (tol {tols[k]:.0e})" for k, v in gaps.items())
        + "; F~ by the P_m at the anchors "
        + ", ".join(
            f"tier {bits}: |F~(x1) - 1| {log2(a)}, |F~(x3) - 3| {log2(b)}"
            f" (tol 2^{8 - bits})"
            for bits, (a, b) in anchors.items()
        ),
    )


def _fatou_oracle(n: int, bits: int = 128):
    # independent of the library evaluators: two parabolic orbits of
    # u -> e^u - 1 started at the chart images of -1 and 0, each corrected
    # by the universal 2/u and log/3 terms of the inverse-pole expansion
    with mp.workprec(bits):
        u = mpmath.mpf(-1) / mpmath.e - 1
        v = mpmath.mpf(0) / mpmath.e - 1
        for _ in range(n):
            u = mpmath.expm1(u)
            v = mpmath.expm1(v)
        su = -2 / u + mpmath.log(-u) / 3
        sv = -2 / v + mpmath.log(-v) / 3
        return su - sv - 1


def test_06_limit_value_agreement():
    ctx = EvalContext(precision=EvalPrecision(mantissa_bits=128))
    value = A1(-1, ctx)
    with mp.workprec(128):
        gap_ref = float(abs(value - mpmath.mpf("-1.4223536677333")))
        gap_oracle = float(abs(value - _fatou_oracle(100000)))
    ok = gap_ref < 1e-12 and gap_oracle < 1e-8
    assert _verdict(
        "limit value agreement",
        ok,
        f"published digits gap {gap_ref:.2e} (tol 1e-12), "
        f"orbit oracle gap {gap_oracle:.2e} (tol 1e-8)",
    )


def _samples(rng, count, x0, x1, y0, y1, keep=lambda z: True):
    out = []
    while len(out) < count:
        z = complex(rng.uniform(x0, x1), rng.uniform(y0, y1))
        if keep(z):
            out.append(z)
    return out


def test_07_property_suites():
    rng = random.Random(20260814)
    off_axis = lambda z: abs(z.imag) > 0.05
    worst = {}

    zs = _samples(rng, 100, -1.5, 8, -8, 8)
    worst["functional equation"] = max(
        max(abs(F1(z + 1) - cmath.exp(F1(z) / E)) for z in zs),
        max(abs(F3(z + 1) - cmath.exp(F3(z) / E))
            for z in _samples(rng, 100, -6, 5, -8, 8)),
    )
    worst["abel equation"] = max(
        max(abs(A1(cmath.exp(z / E)) - A1(z) - 1)
            for z in _samples(rng, 100, -1.5, 2.5, -2, 2)),
        max(abs(A3(cmath.exp(z / E)) - A3(z) - 1)
            for z in _samples(rng, 100, 3.2, 8, -3, 3, off_axis)),
    )
    worst["round trip"] = max(
        max(abs(A1(F1(w)) - w) for w in _samples(rng, 100, -3, 3, -6, 6)),
        max(abs(F3(A3(z)) - z)
            for z in _samples(rng, 100, 3.2, 10, -5, 5, off_axis)),
    )

    def semigroup_gap(z):
        c1 = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.6, 0.6))
        c2 = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.6, 0.6))
        once = exp_iterate(IterateRequest(c1, z, "lower"), constants=CC)
        twice = exp_iterate(IterateRequest(c2, once, "lower"), constants=CC)
        joint = exp_iterate(IterateRequest(c1 + c2, z, "lower"), constants=CC)
        return abs(twice - joint)

    worst["semigroup"] = max(
        semigroup_gap(z) for z in _samples(rng, 100, -1, 2, -2, 2)
    )
    worst["conjugate symmetry"] = max(
        max(abs(F1(z.conjugate()) - F1(z).conjugate()),
            abs(F3(z.conjugate()) - F3(z).conjugate()))
        for z in _samples(rng, 100, -1, 6, 0.1, 6)
    )
    shift = complex(CC.period_t1)
    worst["periodicity"] = max(
        abs(A1(z + shift) - A1(z))
        for z in _samples(rng, 100, -3, 2.4, -6, 6)
    )

    tols = {
        "functional equation": 1e-13,
        "abel equation": 1e-11,
        "round trip": 1e-10,
        "semigroup": 1e-10,
        "conjugate symmetry": 1e-13,
        "periodicity": 1e-12,
    }
    bad = {k: worst[k] for k in worst if worst[k] > tols[k]}
    assert _verdict(
        "property suites (100 samples each)",
        not bad,
        ", ".join(f"{k} {v:.1e}" for k, v in worst.items()),
    )


def test_08_agreement_map_regions():
    grid = GridSpec(-2, 6, -6, 6, 101, 101)
    scores = [
        agreement("d1fa", complex(x, y), constants=CC)
        for y in grid.ys()
        for x in grid.xs()
    ]
    finite = [d for d in scores if d == d]
    fraction = sum(1 for d in finite if d >= 12.0) / len(finite)
    low = sum(1 for d in finite if d < 1.0)
    ok = fraction >= 0.5 and low > 0
    assert _verdict(
        "agreement map regions",
        ok,
        f"{fraction:.3f} of {len(finite)} finite cells >= 12 digits "
        f"(need >= 0.5), {low} cells below 1 digit (need > 0)",
    )


def test_09_map_performance():
    grid = GridSpec(-8, 28, -14, 14, 361, 281)
    start = time.perf_counter()
    result = map_grid("F1", grid, constants=CC)
    elapsed = time.perf_counter() - start
    failed = sum(1 for e in result.errors for err in e if err is not None)
    ok = elapsed < 10.0 and failed == 0
    assert _verdict(
        "map performance",
        ok,
        f"361x281 grid in {elapsed:.2f}s (limit 10s), {failed} failed cells",
    )
