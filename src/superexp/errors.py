"""Exception types shared across the package."""

from __future__ import annotations


class SuperexpError(Exception):
    """Base class for all errors raised by this package.

    `code` is the short tag that grids, tables and the CLI record for a
    failed evaluation: ``cut``, ``domain``, ``overflow`` or ``nonconv``.
    """

    code = "nonconv"


class DomainError(SuperexpError):
    """Input lies outside the domain a routine can handle."""

    code = "domain"


class BranchCutError(DomainError):
    """Evaluation landed on a branch cut and no side was selected."""

    code = "cut"


class NonConvergenceError(SuperexpError):
    """An iteration failed to reach its target accuracy.

    Attributes
    ----------
    residual : float or None
        Size of the last correction or defect, when known.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class OrbitOverflowError(NonConvergenceError):
    """A forward orbit escaped the representable range.

    Attributes
    ----------
    index : int or None
        Orbit step at which the escape happened.
    """

    code = "overflow"

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class CalibrationError(SuperexpError):
    """Root search for a normalisation constant went astray."""


class PrecisionLossWarning(UserWarning):
    """Catastrophic cancellation ate most of the working digits."""
