"""Fractional iterates of exp_b and agreement diagnostics.

A fractional iterate is assembled from the evaluator pair of one branch:
``exp_b^[c](z) = F(c + A(z))`` with F1/A1 below the fixed point e and
F3/A3 above it.  The two half-iterates disagree away from the real
interval around e; :func:`dq13` measures that gap on the axis, and
:func:`agreement` turns round-trip identities into a decimal-digits
score suitable for plotting over a grid (:func:`map_grid`).
"""

from __future__ import annotations

import cmath
import dataclasses
import enum
import json
import math
import numbers
from typing import Optional, Union

from .errors import BranchCutError, DomainError, OrbitOverflowError, SuperexpError
from .evaluators import (
    A1,
    A3,
    F1,
    F3,
    _DEFAULT_CTX,
    CalibrationConstants,
    EvalContext,
    _double,
    _sweep,
    abel2,
    default_constants,
)
from .precision import mp_context, mp_convert, plain

__all__ = [
    "GridResult",
    "GridSpec",
    "IterateBranch",
    "IterateRequest",
    "agreement",
    "dq13",
    "exp_iterate",
    "grid_to_csv",
    "grid_to_json",
    "map_grid",
]

# the mpmath types are named, not imported: a 53-bit process loads no mpmath
Scalar = Union[float, complex, "mpmath.mpf", "mpmath.mpc"]

_E = math.e

AGREEMENT_KINDS = ("d1af", "d1fa", "d3af", "d3fa", "dq1", "dq3")

GRID_FUNCTIONS = ("F1", "F3", "A1", "A3", "expc")


class IterateBranch(enum.Enum):
    """Which evaluator pair realizes the iterate."""

    lower = "lower"
    upper = "upper"


@dataclasses.dataclass(frozen=True)
class IterateRequest:
    """One fractional-iterate evaluation.

    Parameters
    ----------
    c : complex
        Iteration count; c = 1 is one application of exp_b, c = 1/2 a
        half step, c = -1 the inverse.
    z : complex
        Point of evaluation.
    branch : IterateBranch or str, optional
        ``lower`` composes F1/A1, ``upper`` composes F3/A3.  When left
        None the branch is picked from the location of z: lower for
        Re(z) < e, upper for Re(z) > e.  On the boundary Re(z) = e the
        choice is ambiguous and an explicit branch is required.
    cut_side : str
        Which side of the real axis resolves arguments that land on a
        cut, ``above`` (default) or ``below``.
    """

    c: Scalar
    z: Scalar
    branch: Optional[IterateBranch] = None
    cut_side: str = "above"

    def __post_init__(self) -> None:
        object.__setattr__(self, "branch", _iterate_branch(self.branch))
        if self.cut_side not in ("above", "below"):
            raise ValueError(f"cut_side must be 'above' or 'below', got {self.cut_side!r}")


def _iterate_branch(branch) -> Optional[IterateBranch]:
    # None, an IterateBranch or its name; anything else is a ValueError
    if branch is None or isinstance(branch, IterateBranch):
        return branch
    try:
        return IterateBranch[branch]
    except (KeyError, TypeError):
        raise ValueError(f"branch must be 'lower' or 'upper', got {branch!r}") from None


def _at_width(z: Scalar, bits: int) -> tuple:
    """z and e, each rounded to the evaluation width.

    Every comparison of an iterate's argument with e (the fixed point,
    the branch, the cut of A1) is made on these, so that a wide
    argument within a double's ulp of e falls on its true side.
    """
    if bits == 53:
        return _double(z), _E
    ctx = mp_context(bits)
    return +mp_convert(ctx, z), plain(+ctx.e)


def _a1_sided(
    z: Scalar,
    ctx: EvalContext,
    constants: CalibrationConstants,
    side: str,
    on_cut: bool,
) -> Scalar:
    """A1 with its cut [e, inf) resolved as a directional limit.

    The forward orbit diverges on the cut, but the backward walk still
    converges there and lands on the negative side of the expansion's
    logarithm: the limit from above is abel2(z) - i pi/3 shifted by the
    lower normalization, and the limit from below its conjugate.
    """
    bits = ctx.precision.mantissa_bits
    if on_cut:
        if bits == 53:
            rot = complex(0.0, -math.pi / 3.0)
            return abel2(z, ctx) + (rot if side == "above" else -rot) - complex(
                constants.a1_norm
            )
        wide = mp_context(bits + 32)
        rot = wide.mpc(0, -wide.pi / 3)
        value = wide.convert(abel2(z, ctx)) + (rot if side == "above" else -rot)
        return plain(value - constants.a1_norm, bits)
    return A1(z, ctx, constants, cut_side=side)


def _branch_for(re, e) -> IterateBranch:
    if re < e:
        return IterateBranch.lower
    if re > e:
        return IterateBranch.upper
    raise DomainError(
        "branch is ambiguous on the line Re(z) = e; request one explicitly"
    )


def _shift(a: Scalar, c: Scalar, bits: int) -> Scalar:
    # c + A(z) at the evaluation precision
    if bits == 53:
        try:
            return a + _double(c)
        except DomainError:  # an int or mpmath c past the double range
            raise DomainError("iteration count outside the double range") from None
    ctx = mp_context(bits)
    return plain(ctx.convert(a) + mp_convert(ctx, c))


def exp_iterate(
    req: IterateRequest,
    ctx: Optional[EvalContext] = None,
    constants: Optional[CalibrationConstants] = None,
) -> Scalar:
    """Evaluate the fractional iterate ``exp_b^[c](z)`` = F(c + A(z)).

    Parameters
    ----------
    req : IterateRequest
        Iteration count, point, branch and cut side.
    ctx, constants : optional
        Evaluation context and calibration set, as for the evaluators.

    Returns
    -------
    complex
        Value of the requested iterate.  ``z = e`` returns e exactly for
        any c: the fixed point is fixed by every iterate even though the
        F/A decomposition is singular there.

    Raises
    ------
    BranchCutError
        When the shifted argument c + A(z) lands on the cut of F1; the
        composition stops being the analytic iterate past that line.
    SuperexpError
        Propagated from the constituent evaluations.
    """
    ctx = ctx if ctx is not None else _DEFAULT_CTX
    bits = ctx.precision.mantissa_bits
    if constants is None:
        constants = default_constants(bits)
    zw, e = _at_width(req.z, bits)
    if zw == e:
        # every regular iterate fixes e exactly; the F(c + A(z))
        # composition has a removable singularity there
        return complex(_E, 0.0) if bits == 53 else e
    branch = req.branch if req.branch is not None else _branch_for(zw.real, e)
    if branch is IterateBranch.lower:
        on_cut = zw.imag == 0 and zw.real > e
        w = _shift(_a1_sided(req.z, ctx, constants, req.cut_side, on_cut), req.c, bits)
        im = getattr(w, "imag", 0.0)
        if im == 0 and w.real <= -2.0:
            raise BranchCutError(
                "shifted argument c + A1(z) = "
                f"{complex(w)} lies on the cut of F1"
            )
        return F1(w, ctx, constants, cut_side=req.cut_side)
    w = _shift(A3(req.z, ctx, constants, cut_side=req.cut_side), req.c, bits)
    return F3(w, ctx, constants, cut_side=req.cut_side)


def dq13(
    x: Scalar,
    ctx: Optional[EvalContext] = None,
    constants: Optional[CalibrationConstants] = None,
) -> Scalar:
    """Difference of the two half-iterates at ``x + i0``.

    Both branches are evaluated from above the real axis.  Near the
    fixed point the shifted argument 1/2 + A(x) is large, so the F walk
    is allowed to run much deeper than the ambient recursion cap; the
    cost stays proportional to 1/|x - e|.

    Parameters
    ----------
    x : real scalar
        Point on the axis, typically in a window around e.

    Returns
    -------
    complex
        ``exp_lower^[1/2](x) - exp_upper^[1/2](x)``.
    """
    ctx = ctx if ctx is not None else _DEFAULT_CTX
    bits = ctx.precision.mantissa_bits
    deep = dataclasses.replace(ctx, max_recursion=max(ctx.max_recursion, 20000))
    lower = exp_iterate(IterateRequest(0.5, x, IterateBranch.lower), deep, constants)
    upper = exp_iterate(IterateRequest(0.5, x, IterateBranch.upper), deep, constants)
    if bits == 53:
        return lower - upper
    ctx = mp_context(bits)
    return plain(ctx.convert(lower) - ctx.convert(upper))


def _exp_b(z: Scalar, bits: int) -> Scalar:
    if bits == 53:
        try:
            return cmath.exp(complex(z) / _E)
        except OverflowError:
            raise OrbitOverflowError("e^(z/e) overflows the double range") from None
    wide = mp_context(bits + 16)
    return plain(wide.exp(mp_convert(wide, z) / wide.e), bits)


def agreement(
    kind: str,
    z: Scalar,
    ctx: Optional[EvalContext] = None,
    constants: Optional[CalibrationConstants] = None,
    clip: float = 16.0,
    cut_side: str = "above",
) -> float:
    """Decimal digits of agreement for a round-trip identity at z.

    The score is ``log10 |(X + Y) / (X - Y)|`` where X is the round
    trip and Y its reference:

    ========  =====================================  ============
    kind      X                                      Y
    ========  =====================================  ============
    d1af      A1(F1(z))                              z
    d1fa      F1(A1(z))                              z
    d3af      A3(F3(z))                              z
    d3fa      F3(A3(z))                              z
    dq1       lower half-iterate applied twice       exp_b(z)
    dq3       upper half-iterate applied twice       exp_b(z)
    ========  =====================================  ============

    Returns
    -------
    float
        The score, clipped symmetrically to ``[-clip, +clip]``; exact
        agreement (X == Y in the working precision) reports +clip.
        NaN when a constituent evaluation fails, which marks the point
        unavailable rather than poorly agreeing.

    Raises
    ------
    ValueError
        For an unknown kind, or a clip that is not positive and finite.
    """
    if kind not in AGREEMENT_KINDS:
        raise ValueError(f"unknown agreement kind {kind!r}")
    if not 0 < clip < math.inf:
        raise ValueError(f"clip must be positive and finite, not {clip!r}")
    ctx = ctx if ctx is not None else _DEFAULT_CTX
    bits = ctx.precision.mantissa_bits
    try:
        if constants is None:
            constants = default_constants(bits)
        if kind[1] != "q":
            # the round trip's (inner, outer) pair, read from this module's
            # names at each call, so that a wrapper set on them is seen
            f, a = (F1, A1) if kind[1] == "1" else (F3, A3)
            inner, outer = (f, a) if kind[2:] == "af" else (a, f)
            x = outer(inner(z, ctx, constants, cut_side=cut_side), ctx, constants, cut_side=cut_side)
            y = z
        else:
            branch = IterateBranch.lower if kind == "dq1" else IterateBranch.upper
            once = exp_iterate(IterateRequest(0.5, z, branch, cut_side), ctx, constants)
            x = exp_iterate(IterateRequest(0.5, once, branch, cut_side), ctx, constants)
            y = _exp_b(z, bits)
    except SuperexpError:
        return math.nan
    if bits == 53:
        x, y = complex(x), complex(y)
        try:
            num, den = abs(x + y), abs(x - y)
        except OverflowError:  # |X ± Y| past the doubles: the quarters' ratio
            num, den = abs(x / 4 + y / 4), abs(x / 4 - y / 4)
    else:
        ctx = mp_context(bits)
        x, y = ctx.convert(x), mp_convert(ctx, y)
        num, den = float(abs(x + y)), float(abs(x - y))
    if den == 0.0:
        return clip
    if num == 0.0:
        return -clip
    return max(-clip, min(clip, math.log10(num / den)))


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid for :func:`map_grid`.

    nx and ny count samples along each axis (integers, at least 2 each);
    the bounds are included, and must be finite, as must the step
    between samples.  cut_side applies to every sample.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    cut_side: str = "above"

    def __post_init__(self) -> None:
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"grid bounds must be finite, got {bounds!r}")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if not self.y_min < self.y_max:
            raise ValueError("y_min must be < y_max")
        if not all(isinstance(n, numbers.Integral) for n in (self.nx, self.ny)):
            raise ValueError(f"nx and ny must be integers, got {self.nx!r} and {self.ny!r}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("nx and ny must be at least 2")
        if self.cut_side not in ("above", "below"):
            raise ValueError(f"cut_side must be 'above' or 'below', got {self.cut_side!r}")
        if not 0.0 < _step(self.x_min, self.x_max, self.nx) < math.inf:
            raise ValueError("the x step (x_max - x_min)/(nx - 1) is not a positive double")
        if not 0.0 < _step(self.y_min, self.y_max, self.ny) < math.inf:
            raise ValueError("the y step (y_max - y_min)/(ny - 1) is not a positive double")

    def xs(self) -> tuple:
        step = _step(self.x_min, self.x_max, self.nx)
        return tuple(self.x_min + i * step for i in range(self.nx))

    def ys(self) -> tuple:
        step = _step(self.y_min, self.y_max, self.ny)
        return tuple(self.y_min + j * step for j in range(self.ny))


def _step(lo: float, hi: float, n: int) -> float:
    # a count too large for a double gives no positive step either
    try:
        return (hi - lo) / (n - 1)
    except OverflowError:
        return 0.0


@dataclasses.dataclass(frozen=True)
class GridResult:
    """Row-major samples of one function over a :class:`GridSpec`.

    values[j][i] is the sample at (xs[i], ys[j]) as a complex double, or
    None when that cell failed; errors[j][i] then carries the
    `SuperexpError.code` of the failure: ``cut``, ``domain``,
    ``overflow`` or ``nonconv``.
    """

    fn: str
    spec: GridSpec
    xs: tuple
    ys: tuple
    values: tuple
    errors: tuple


def map_grid(
    fn: str,
    grid: GridSpec,
    ctx: Optional[EvalContext] = None,
    constants: Optional[CalibrationConstants] = None,
    c: Optional[Scalar] = None,
    branch: Optional[Union[IterateBranch, str]] = None,
) -> GridResult:
    """Sample fn over the grid, recording failures instead of raising.

    Parameters
    ----------
    fn : str
        One of F1, F3, A1, A3 or expc.  expc evaluates the fractional
        iterate and requires c; branch picks the composition, defaulting
        per point to lower left of Re = e and upper right of it.
    grid : GridSpec
    c, branch : optional
        Only meaningful for fn = "expc".

    Returns
    -------
    GridResult
        Row-major values (rows sweep y ascending, columns x ascending);
        every cell either holds a complex double or an error code, so a
        singular or overflowing region never aborts the sweep.

    F1 and F3 cells of a row a whole number of units apart walk the
    functional equation from the same base point, so a sweep sums and
    walks each exact base once; each cell is still the evaluator's value
    at that cell, bit for bit.
    """
    if fn not in GRID_FUNCTIONS:
        raise ValueError(f"unknown grid function {fn!r}")
    if fn == "expc":
        if c is None:
            raise ValueError("fn='expc' requires the iteration count c")
        branch = _iterate_branch(branch)
    ctx = ctx if ctx is not None else _DEFAULT_CTX
    if constants is None:
        constants = default_constants(ctx.precision.mantissa_bits)
    xs, ys = grid.xs(), grid.ys()
    if fn == "expc":

        def evaluate(z, cut_side):
            return exp_iterate(IterateRequest(c, z, branch, cut_side), ctx, constants)
    elif fn in ("F1", "F3"):
        # cells a whole number of units apart share their functional-equation walk
        evaluate = _sweep(fn, ctx, constants)
    else:
        f = A1 if fn == "A1" else A3

        def evaluate(z, cut_side):
            return f(z, ctx, constants, cut_side)
    side = grid.cut_side
    rows, errs = [], []
    for y in ys:
        row, erow = [], []
        for x in xs:
            try:
                value = evaluate(complex(x, y), side)
                row.append(complex(value))
                erow.append(None)
            except SuperexpError as exc:
                row.append(None)
                erow.append(exc.code)
        rows.append(tuple(row))
        errs.append(tuple(erow))
    return GridResult(fn, grid, xs, ys, tuple(rows), tuple(errs))


def grid_to_csv(result: GridResult) -> str:
    """Serialize a grid as CSV lines ``x,y,re,im,err`` in row-major order."""
    lines = ["x,y,re,im,err"]
    for y, row, erow in zip(result.ys, result.values, result.errors):
        for x, value, err in zip(result.xs, row, erow):
            if err is None:
                lines.append(f"{x!r},{y!r},{value.real!r},{value.imag!r},")
            else:
                lines.append(f"{x!r},{y!r},,,{err}")
    return "\n".join(lines) + "\n"


def grid_to_json(result: GridResult) -> str:
    """Serialize a grid as JSON with the same fields as the CSV form."""
    samples = []
    for y, row, erow in zip(result.ys, result.values, result.errors):
        for x, value, err in zip(result.xs, row, erow):
            samples.append(
                {
                    "x": x,
                    "y": y,
                    "re": None if err else value.real,
                    "im": None if err else value.imag,
                    "err": err,
                }
            )
    payload = {
        "fn": result.fn,
        "nx": result.spec.nx,
        "ny": result.spec.ny,
        "x_min": result.spec.x_min,
        "x_max": result.spec.x_max,
        "y_min": result.spec.y_min,
        "y_max": result.spec.y_max,
        "cut_side": result.spec.cut_side,
        "samples": samples,
    }
    return json.dumps(payload)
