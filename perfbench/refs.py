"""Independent references and tolerances for the correctness checks.

Residuals are computed here with ``cmath`` (53 bits) or directly in
mpmath (wider), never through the library.  The pass/fail tolerances
are the 53-bit ones of the acceptance property suite; the number of
correct digits each check reaches is reported on its own, so a loss of
precision at 128 or 256 bits shows as fewer digits even where the
53-bit tolerance still holds.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp

E = math.e

# boxes and tolerances of the acceptance property suite
F1_BOX = (-1.5, 8.0, -8.0, 8.0)
F3_BOX = (-6.0, 5.0, -8.0, 8.0)
A1_BOX = (-1.5, 2.5, -2.0, 2.0)
A3_BOX = (3.2, 8.0, -3.0, 3.0)  # and |Im z| > 0.05
HALF_BOX = (-1.0, 2.0, -2.0, 2.0)
TOL_FUNCTIONAL = 1e-13
TOL_ABEL = 1e-11
TOL_SEMIGROUP = 1e-10

# F1(0) = 1 is the normalization; the evaluator tests hold it to 1e-13
TOL_F1_ZERO = 1e-13

# published super-logarithm at -1 and its acceptance tolerance
A1_MINUS_1 = "-1.4223536677333"
TOL_A1_MINUS_1 = 1e-12

# published 10^2 block of the difference-quotient probe levy(-1, 1)
LEVY_100 = {
    100: "-1.4560", 101: "-1.4557", 102: "-1.4553", 103: "-1.4550",
    104: "-1.4547", 105: "-1.4544", 106: "-1.4541", 107: "-1.4538",
    108: "-1.4535", 109: "-1.4533",
}

# The published levy and fatou1 tables approach A1(-1) like c/n, with
# n * gap = 3.37 .. 3.45 (levy, n = 10^2 .. 10^4) and 0.140 .. 0.141
# (fatou1, n = 10^3 .. 10^5); a row further out than this envelope
# does not converge to the evaluator's value.
ROW_ENVELOPE = {"levy": 4.0, "fatou1": 0.2}


def in_box(z: complex, box) -> bool:
    x0, x1, y0, y1 = box
    return x0 <= z.real <= x1 and y0 <= z.imag <= y1


def in_a3_box(z: complex) -> bool:
    return in_box(z, A3_BOX) and abs(z.imag) > 0.05


def digits(residual, scale, bits: int) -> float:
    """Correct decimal digits of a residual relative to 1 + |scale|."""
    floor = 2.0 ** -bits
    rel = float(residual) / (1.0 + float(scale))
    return -math.log10(max(rel, floor))


def exp_b(z, bits: int):
    """e^(z/e) in mpmath at bits + 32, from an exact input."""
    with mp.workprec(bits + 32):
        return mpmath.exp(mpmath.mpmathify(z) / mpmath.e)


def shifted(z, bits: int):
    """z + 1 without rounding the double input."""
    with mp.workprec(bits + 32):
        return mpmath.mpmathify(z) + 1


def mp_residual(a, b, bits: int):
    """|a - b| computed at bits + 32."""
    with mp.workprec(bits + 32):
        return abs(mpmath.mpmathify(a) - mpmath.mpmathify(b))
