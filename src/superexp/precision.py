"""The one precision type of the package, with no multiprecision import.

Evaluators, limit formulas and the CLI all take a `PrecisionConfig`.  It
lives apart from `limits` so that a 53-bit process can build one without
loading mpmath; `limits`, `evaluators` and the package re-export it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PrecisionConfig"]


@dataclass(frozen=True)
class PrecisionConfig:
    """The mantissa width of an evaluation or of a limit formula.

    Parameters
    ----------
    mantissa_bits : int
        Binary mantissa length of the backend arithmetic, an integer of
        at least 53; the convergence tables default to 256.  A real
        orbit point with 2^-32 <= |u| < 64 is held to an absolute
        resolution of 2^-(mantissa_bits+32) instead, which is finer for
        every orbit length below about 10^10.  53 gives a fixed-point
        orbit in h-coordinates, not a double orbit of x -> e^(x/e): its
        10^5 ratio rows are monotone, so it does not reproduce the
        rounding jitter of tables computed from such an orbit.
    """

    mantissa_bits: int = 256

    def __post_init__(self) -> None:
        # a float width (nan, 128.5, 100.0) would slip past the bound check
        if not isinstance(self.mantissa_bits, int):
            raise ValueError("mantissa_bits must be an integer")
        if self.mantissa_bits < 53:
            raise ValueError("mantissa_bits must be at least 53")
