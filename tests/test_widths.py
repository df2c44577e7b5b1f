"""One class of answer at every width.

Whether a forward orbit escapes or collapses is a property of the point,
and the walk cap counts the steps of a 53-bit walk at every width
(evaluators._escape, evaluators._Tables).  So F1, F3, A1 and A3 at 53,
128 and 256 bits give the same kind of answer: where 53 bits returns a
value, the wider kernels return one that agrees within a measured bound,
and where two widths both refuse, they give the same code.  The class
changes that remain are listed below with their reasons, and so are the
values past the bound.  The sample is 600 seeded points with |z - c|
log-uniform over 1e-3 ... 10^2.5 about c = 0 and c = e, and the points
of the contract suite.
"""

import cmath
import math
import random

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings

from superexp import A1, A3, F1, F3, EvalContext, PrecisionConfig
from superexp.errors import SuperexpError
from test_contract import points

E = math.e
WIDTHS = (53, 128, 256)
CONTEXTS = {bits: EvalContext(precision=PrecisionConfig(mantissa_bits=bits)) for bits in WIDTHS}
FUNCTIONS = {"F1": F1, "F3": F3, "A1": A1, "A3": A3}

# |v - v256| / max(|v|, 1) over the condition factor (_condition) at
# each width: at 53 bits the double kernel's residual floor near 1e-12,
# and at 128 bits 2^-120 (the measured worst are 6.8e-14 and 2^-140.7)
BOUND = {53: 1e-12, 128: 2.0**-120}

# 53 bits cannot resolve the phase, |y| >= 2^45, of the step that leaves
# the double range; the wider kernels resolve it, and the orbit collapses
PHASE = "53-bit escaping step's phase unresolved"
# the widths that cannot resolve the first forward step's phase,
# |Im z/e| >= 2^(bits - 8), refuse the argument
FIRST_PHASE = "first step's phase unresolved"
# 1 - z/e is subnormal in doubles
NEAR_E = "within 1e-308 of e"
# summed inside the width's Abel disk (radius 0.25 at 53 bits, 0.1 at
# 128) on the side of e away from the petal, near the real axis, where
# the series misses the function: by 1.8e-3 at 53 bits and 3.2e-21 at 128
DISK_EDGE = {53: 0.25, 128: 0.1}

LISTED = {
    ("A1", complex(93.92119376978029, -81.88860115837274)): PHASE,
    ("A1", complex(178.64940639081752, -99.0887069911019)): PHASE,
    ("A1", complex(209.83260272792668, -48.93461495896383)): PHASE,
}
# (function, point, width): the values past BOUND, each DISK_EDGE's
INACCURATE = {
    ("A3", complex(2.4424562158487686, -0.0010891675370718794), 53),
    ("A1", complex(3.3654550396153615, -0.10246437769368998), 53),
    ("A3", complex(2.1734632939710576, 0.13444753988808825), 53),
    ("A3", complex(2.1130335897810255, -0.21471464276213265), 53),
    ("A1", complex(3.1440439281964427, 0.15314749695859198), 53),
    ("A1", complex(2.9114734991065143, -0.05607251046662989), 128),
    ("A1", complex(2.9293439098528187, 0.07924828488412376), 128),
}


def sample(n: int = 600, seed: int = 21) -> list:
    rng = random.Random(seed)
    out = []
    for i in range(n):
        c = 0.0 if i % 2 == 0 else E
        r = 10 ** rng.uniform(-3, 2.5)
        t = rng.uniform(0, 2 * math.pi)
        out.append(complex(c + r * math.cos(t), r * math.sin(t)))
    return out


def _outcome(fn: str, z, bits: int):
    # a value, or the code of the error it raises
    try:
        return FUNCTIONS[fn](z, CONTEXTS[bits])
    except SuperexpError as exc:
        return exc.code


def _escaping_phase(z: complex) -> float:
    # Im w/e at the first step of z's forward orbit in doubles past Re w/e = 700
    w = z
    while w.real / E <= 700:
        w = cmath.exp(w / E)
    return w.imag / E


def _reason(fn: str, z, classes: tuple):
    # why a class change that no point lists happens, or None
    if fn in ("A1", "A3") and classes == ("domain", "ok", "ok") and abs(1 - z / E) < 2.0**-1022:
        return NEAR_E
    if fn == "A1":
        # the refusing widths are the narrowest ones, and the rest agree
        resolves = [abs(z.imag / E) < 2.0 ** (bits - 8) for bits in WIDTHS]
        refused = {c for c, r in zip(classes, resolves) if not r}
        if refused == {"domain"} and len({c for c, r in zip(classes, resolves) if r}) < 2:
            return FIRST_PHASE
    return None


def _condition(fn: str, z) -> float:
    # A1 and A3 grow like 2e/(e - z) by e, where each width measures the
    # distance to its own e: the double e is 1.4e-16 below e
    if fn in ("F1", "F3"):
        return 1.0
    with mpmath.workprec(320):
        d = min(abs(z - E), float(abs(mpmath.mpmathify(z) - mpmath.e)))
    return 1.0 + abs(z) / d


def _compare(fn: str, z, gaps: dict, changes: list, inaccurate: set) -> None:
    got = {bits: _outcome(fn, z, bits) for bits in WIDTHS}
    classes = tuple("ok" if not isinstance(v, str) else v for v in got.values())
    if len(set(classes)) > 1:
        reason = LISTED.get((fn, z)) or _reason(fn, z, classes)
        assert reason, (fn, z, got)
        if reason == PHASE:
            assert classes == ("overflow", "ok", "ok"), (fn, z, got)
            assert abs(_escaping_phase(z)) >= 2.0**45, (fn, z)
        changes.append((fn, z, reason))
        return
    if classes[0] != "ok":
        return  # one code at every width
    ref, kappa = got[256], _condition(fn, z)
    for bits in (53, 128):
        with mpmath.workprec(320):
            gap = float(abs(mpmath.mpmathify(got[bits]) - ref) / max(abs(ref), 1)) / kappa
        if gap > BOUND[bits]:
            # A1's petal is left of e, A3's right of it
            zeta = 1 - z / E
            assert abs(zeta) < DISK_EDGE[bits] and (zeta.real < 0) == (fn == "A1"), (fn, z, bits)
            inaccurate.add((fn, z, bits))
        else:
            gaps[bits] = max(gaps[bits], gap)


def test_seeded_sample_has_one_class_at_every_width():
    gaps, changes, inaccurate = {53: 0.0, 128: 0.0}, [], set()
    for z in sample():
        for fn in FUNCTIONS:
            _compare(fn, z, gaps, changes, inaccurate)
    print(
        f"{len(changes)} listed class changes; worst gaps within the bound"
        f" {gaps[53]:.2g} (53 bits), 2^{math.log2(gaps[128]):.1f} (128 bits);"
        f" {len(inaccurate)} values past it"
    )
    # every listed case still changes class, and for its reason
    assert {(fn, z) for fn, z, _ in changes} == set(LISTED)
    assert inaccurate == INACCURATE


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(z=points)
def test_contract_points_have_one_class_at_every_width(z):
    gaps, changes, inaccurate = {53: 0.0, 128: 0.0}, [], set()
    for fn in FUNCTIONS:
        _compare(fn, z, gaps, changes, inaccurate)
    assert not inaccurate, inaccurate


@pytest.mark.parametrize(
    "fn, z",
    [
        # the double kernel collapsed its orbit and the wider ones overflowed
        ("F3", complex(24.853103886700445, -0.12863348975560102)),
        ("A1", complex(78.95573997712563, 135.625154568721)),
        # a walk of 204 steps, past the 256-bit cap of 200
        ("F1", complex(-167.24659411774448, -0.6157447814291126)),
        # cos y = -0.028 at the escaping step: overflow at 53 bits, -4 above
        ("A1", complex(26.995120805134338, -33.365726548047476)),
    ],
)
def test_former_class_changes(fn, z):
    got = {bits: _outcome(fn, z, bits) for bits in WIDTHS}
    assert not any(isinstance(v, str) for v in got.values()), got
    for bits in (53, 128):
        assert abs(complex(got[bits]) - complex(got[256])) < 1e-12 * max(abs(got[256]), 1)
