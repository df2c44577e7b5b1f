"""Fractional iterates of exp_b and agreement diagnostics.

A fractional iterate is assembled from the evaluator pair of one branch:
``exp_b^[c](z) = F(c + A(z))`` with F1/A1 below the fixed point e and
F3/A3 above it.  The two half-iterates disagree away from the real
interval around e; :func:`dq13` measures that gap on the axis, and
:func:`agreement` turns round-trip identities into a decimal-digits
score suitable for plotting over a grid (:func:`map_grid`).

The kernel of the width holds their values (at_width), so no function
here asks the width but `_exp_b`, the reference e^(z/e) taken wider.
"""

from __future__ import annotations

import cmath
import dataclasses
import enum
import json
import math
import numbers
import sys
from typing import Optional, Union

from .errors import BranchCutError, DomainError, OrbitOverflowError, SuperexpError
from .evaluators import (
    A1,
    A3,
    F1,
    F3,
    _DEFAULT_CTX,
    EvalContext,
    Scalar,
    _abel_walk,
    _as_branch,
    _gate,
    _kernel_of,
    _public,
    _sweep,
    abel2,
)
from .precision import mp_context, mp_convert, plain, require_count, require_finite

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

_E = math.e

AGREEMENT_KINDS = ("d1af", "d1fa", "d3af", "d3fa", "dq1", "dq3")

GRID_FUNCTIONS = ("F1", "F3", "A1", "A3", "expc")


def _require_side(cut_side) -> None:
    # the cut side of a composition, a grid and an agreement score
    if cut_side not in ("above", "below"):
        raise ValueError(f"cut_side must be 'above' or 'below', got {cut_side!r}")


class IterateBranch(enum.Enum):
    """Which evaluator pair realizes the iterate."""

    lower = "lower"
    upper = "upper"


@dataclasses.dataclass(frozen=True)
class IterateRequest:
    """One fractional-iterate evaluation.

    Parameters
    ----------
    c : scalar
        Iteration count, real or complex; c = 1 is one application of
        exp_b, c = 1/2 a half step, c = -1 the inverse.
    z : scalar
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
        if self.branch is not None:
            object.__setattr__(self, "branch", _as_branch(IterateBranch, self.branch))
        _require_side(self.cut_side)


def exp_iterate(req: IterateRequest, ctx: Optional[EvalContext] = None) -> Scalar:
    """Evaluate the fractional iterate ``exp_b^[c](z)`` = F(c + A(z)).

    Parameters
    ----------
    req : IterateRequest
        Iteration count, point, branch and cut side.
    ctx : EvalContext, optional
        Width and walk cap, as for the evaluators.

    Returns
    -------
    complex or mpmath scalar
        Value of the requested iterate: a machine complex at 53 bits, an
        mpmath value otherwise.  ``z = e`` returns e at the width for
        any c: the fixed point is fixed by every iterate even though the
        F/A decomposition is singular there.

    Raises
    ------
    DomainError
        Before anything is evaluated, when z or c is not a finite number
        (the argument rule of `precision.require_finite`) or, at 53
        bits, past the double range, and for a width past the
        calibrated range, even at z = e.
    BranchCutError
        When the shifted argument c + A(z) lands on the cut of F1; the
        composition stops being the analytic iterate past that line.
    SuperexpError
        Propagated from the constituent evaluations.
    """
    # both arguments pass the argument rule before either is cast
    require_finite(req.z)
    require_finite(req.c)
    kernel = _kernel_of(ctx)
    # z is cast once, for the Abel walk and the comparisons with e (the
    # fixed point, the branch, the cut of A1), which round both to the
    # width: a wide z within a double's ulp of e falls on its true side.
    # c is held at the width, where c + A(z) is formed
    zw, flip, strict = _gate(kernel, req.z, req.cut_side)
    c = kernel.at_width(req.c)
    zr, e = +kernel.at_width(zw), +kernel.at_width(kernel.e)
    if zr == e:
        # every regular iterate fixes e exactly; the F(c + A(z))
        # composition has a removable singularity there
        return plain(e)
    if req.branch is not None:
        upper = req.branch is IterateBranch.upper
    elif zr.real == e.real:
        raise DomainError("branch is ambiguous on the line Re(z) = e; request one explicitly")
    else:
        upper = zr.real > e.real
    if not upper and zr.imag == 0 and zr.real > e.real:
        # A1's cut [e, inf): the forward orbit diverges, but the backward
        # walk converges onto the negative side of the expansion's log.
        # The limit from above is abel2(z) - i pi/3 shifted by the lower
        # normalization, from below its conjugate: formed at the work
        # bits, rounded to the width
        rot = kernel.rotation if req.cut_side == "above" else -kernel.rotation
        a = kernel.cast(abel2(req.z, ctx)) + rot - kernel.anchors[2]
        a = +kernel.at_width(a)
    else:
        norm = kernel.anchors[2 + upper]
        a = _public(_abel_walk(kernel, zw, upper, norm), flip, strict)
    # rounded to the width in both parts: a real c would round only the
    # real part of c + a
    w = +kernel.at_width(c + a)
    if upper:
        return F3(w, ctx, cut_side=req.cut_side)
    if w.imag == 0 and w.real <= -2:
        raise BranchCutError(
            f"shifted argument c + A1(z) = {complex(w)} lies on the cut of F1"
        )
    return F1(w, ctx, cut_side=req.cut_side)


def dq13(x: Scalar, ctx: Optional[EvalContext] = None) -> Scalar:
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
    complex or mpmath scalar
        ``exp_lower^[1/2](x) - exp_upper^[1/2](x)``.
    """
    ctx = ctx if ctx is not None else _DEFAULT_CTX
    deep = dataclasses.replace(ctx, max_recursion=max(ctx.max_recursion, 20000))
    lower = exp_iterate(IterateRequest(0.5, x, IterateBranch.lower), deep)
    upper = exp_iterate(IterateRequest(0.5, x, IterateBranch.upper), deep)
    kernel = _kernel_of(deep)  # the difference rounds once, at the width
    return plain(kernel.at_width(lower) - kernel.at_width(upper))


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

    Every evaluation runs at the width and walk cap of ctx, with the
    calibration constants of that width, as the evaluators do.

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
        For an unknown kind or cut_side, or a clip that is not a real
        number, positive and finite, before anything is evaluated.
    DomainError
        For a width past the calibrated range, as from the evaluators.
    """
    if kind not in AGREEMENT_KINDS:
        raise ValueError(f"unknown agreement kind {kind!r}")
    # float first: it skips the slower ABC test on the usual clip
    if not (isinstance(clip, (float, numbers.Real)) and 0 < clip <= sys.float_info.max):
        raise ValueError(f"clip must be positive and finite, not {clip!r}")
    clip = float(clip)  # an int, a bool or an mpf clip: the score is a float
    _require_side(cut_side)
    ctx = ctx if ctx is not None else _DEFAULT_CTX
    bits = ctx.precision.mantissa_bits
    # a width past the calibrated range is refused, not scored
    kernel = _kernel_of(ctx)
    try:
        if kind[1] != "q":
            # the round trip's (inner, outer) pair, read from this module's
            # names at each call, so that a wrapper set on them is seen
            f, a = (F1, A1) if kind[1] == "1" else (F3, A3)
            inner, outer = (f, a) if kind[2:] == "af" else (a, f)
            x = outer(inner(z, ctx, cut_side=cut_side), ctx, cut_side=cut_side)
            y = z
        else:
            branch = IterateBranch.lower if kind == "dq1" else IterateBranch.upper
            once = exp_iterate(IterateRequest(0.5, z, branch, cut_side), ctx)
            x = exp_iterate(IterateRequest(0.5, once, branch, cut_side), ctx)
            y = _exp_b(z, bits)
    except SuperexpError:
        return math.nan
    # X ± Y are formed at the width
    x, y = kernel.at_width(x), kernel.at_width(y)
    try:
        num, den = float(abs(x + y)), float(abs(x - y))
    except OverflowError:  # |X ± Y| past the doubles: the quarters' ratio
        num, den = abs(x / 4 + y / 4), abs(x / 4 - y / 4)
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
        for axis in ("nx", "ny"):
            object.__setattr__(self, axis, require_count(getattr(self, axis), axis, 2))
        _require_side(self.cut_side)
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
    ctx : EvalContext, optional
        Width and walk cap of every cell, as for the evaluators.
    c, branch : optional
        For fn = "expc" only: any other fn refuses either with a
        ValueError naming it, before any cell.

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
    ctx = ctx if ctx is not None else _DEFAULT_CTX
    if fn == "expc":
        if c is None:
            raise ValueError("fn='expc' requires the iteration count c")
        if branch is not None:
            branch = _as_branch(IterateBranch, branch)
    elif c is not None or branch is not None:
        name = "c" if c is not None else "branch"
        raise ValueError(f"{name} applies to fn='expc' only, not to {fn!r}")
    # a width past the calibrated range is refused, not recorded in every cell
    kernel = _kernel_of(ctx)
    xs, ys = grid.xs(), grid.ys()
    if fn == "expc":
        # cast once: a count no cell could take is refused for the whole grid
        c = kernel.at_width(require_finite(c))

        def evaluate(z, cut_side):
            return exp_iterate(IterateRequest(c, z, branch, cut_side), ctx)
    elif fn in ("F1", "F3"):
        # cells a whole number of units apart share their functional-equation walk
        evaluate = _sweep(fn, ctx)
    else:
        f = A1 if fn == "A1" else A3

        def evaluate(z, cut_side):
            return f(z, ctx, cut_side)
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
