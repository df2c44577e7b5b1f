"""Regular super-exponentials and super-logarithms at base e^(1/e).

The package is organized bottom-up:

- `series`: exact-rational formal power series (iterate coefficients,
  iterative logarithm, Abel expansion, super-exponential polynomials).
- `precision`: `PrecisionConfig`, the one precision type, and the
  private mpmath contexts every computation above 53 bits works in.
- `limits`: the classical limit formulas over a multiprecision backend,
  used as independent oracles and for the convergence tables; no
  evaluator imports them.
- `evaluators`: production evaluators for the Abel functions A1/A3 and
  the super-exponentials F1/F3, plus calibration of all constants;
  `wide` holds their mpmath kernel, loaded on first use above 53 bits.
- `iteration`: fractional iterates of the exponential, agreement
  diagnostics, and grid evaluation.
- `cli`: the `superexp` command-line front end.
"""

from .errors import (
    BranchCutError,
    DomainError,
    NonConvergenceError,
    OrbitOverflowError,
    PrecisionLossWarning,
    SuperexpError,
)
from .evaluators import (
    A1,
    A3,
    F1,
    F3,
    BranchSign,
    CalibrationConstants,
    EvalContext,
    abel1,
    abel2,
    calibrate,
    calibration_tier,
    default_constants,
    superexp_tilde,
)
from .iteration import (
    GridResult,
    GridSpec,
    IterateBranch,
    IterateRequest,
    agreement,
    dq13,
    exp_iterate,
    grid_to_csv,
    grid_to_json,
    map_grid,
)
from .precision import PrecisionConfig
from .series import (
    AbelExpansion,
    PowerSeries,
    SuperExpExpansion,
    abel_expansion,
    exp_minus_one,
    iterative_logarithm,
    regular_iterate_series,
    superexp_polynomials,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the names of __all__ not imported above are the limit formulas',
    # loaded on first access (PEP 562): `import superexp` loads no mpmath
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import limits
    return getattr(limits, name)


__all__ = [
    "A1",
    "A3",
    "AbelExpansion",
    "BranchCutError",
    "BranchSign",
    "CalibrationConstants",
    "ConvergenceRecord",
    "DomainError",
    "EvalContext",
    "F1",
    "F3",
    "GridResult",
    "GridSpec",
    "IterateBranch",
    "IterateRequest",
    "NewtonResult",
    "NonConvergenceError",
    "OrbitOverflowError",
    "PowerSeries",
    "PrecisionConfig",
    "PrecisionLossWarning",
    "SuperexpError",
    "SuperExpExpansion",
    "abel1",
    "abel2",
    "abel_expansion",
    "agreement",
    "calibrate",
    "calibration_tier",
    "convergence_table",
    "default_constants",
    "dq13",
    "exp_iterate",
    "exp_minus_one",
    "fatou_abel",
    "fatou_probe",
    "fatou_probe_richardson",
    "format_record",
    "grid_to_csv",
    "grid_to_json",
    "iterate_h",
    "iterate_h_inverse",
    "iterative_logarithm",
    "levy_abel",
    "levy_probe",
    "map_grid",
    "newton_superfunction",
    "records_to_csv",
    "regular_iterate_series",
    "superexp_polynomials",
    "superexp_tilde",
    "__version__",
]
