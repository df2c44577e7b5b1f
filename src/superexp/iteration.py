"""Fractional iterates of exp_b and agreement diagnostics.

A fractional iterate is assembled from the evaluator pair of one branch:
``exp_b^[c](z) = F(c + A(z))`` with F1/A1 below the fixed point e and
F3/A3 above it.  The two half-iterates disagree away from the real
interval around e; :func:`dq13` measures that gap on the axis, and
:func:`agreement` turns round-trip identities into a decimal-digits
score suitable for plotting over a grid (:func:`map_grid`, whose rows
run through the one row driver, `_rows`), and :func:`check_grid`
scores and summarises a whole grid.

The kernel of the width holds their values (at_width), so no function
here asks the width but `_exp_b`, the reference e^(z/e) taken wider.
"""

from __future__ import annotations

import cmath
import dataclasses
import enum
import functools
import json
import math
import numbers
import sys
from typing import Optional, Union

from .errors import BranchCutError, DomainError, OrbitOverflowError, SuperexpError
# the evaluators compose on the kernel they hold (_cell, _one); the
# traced benchmark runs wrap the public names by these names
from .evaluators import A1, A3, F1, F3, abel2  # noqa: F401
from .evaluators import (
    _DEFAULT_CTX, EvalContext, Scalar, _as_branch, _cell, _kernel_of, _one, _sides,
)
from .precision import (
    mp_context, mp_convert, plain, require_config, require_count, require_finite,
)

__all__ = [
    "GridResult",
    "GridSpec",
    "IterateBranch",
    "IterateRequest",
    "agreement",
    "check_grid",
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
    # both arguments pass the argument rule before either is cast; c is
    # held at the width, where c + A(z) is formed
    require_config(req, IterateRequest, "req")
    require_finite(req.z)
    require_finite(req.c)
    kernel = _kernel_of(ctx)
    return _iterate(kernel, kernel.at_width(req.c), req.z, req.branch, req.cut_side)


def _iterate(kernel, c, z, branch, cut_side):
    # exp_iterate past its argument rule, with c at the width: map_grid's
    # expc cells and the dq kinds call it with one kernel and count.  z is
    # cast once, under the rule, for the Abel walk and the comparisons
    # with e (the fixed point, the branch, the cut of A1), which round
    # both to the width: a wide z within a double's ulp of e falls on its
    # true side
    real = _sides(getattr(z, "imag", 0), cut_side)
    zw = kernel.cast(z)
    zr, e = +kernel.at_width(zw), +kernel.at_width(kernel.e)
    if zr == e:
        # every regular iterate fixes e exactly; the F(c + A(z))
        # composition has a removable singularity there
        return plain(e)
    if branch is not None:
        upper = branch is IterateBranch.upper
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
        rot = kernel.rotation if cut_side == "above" else -kernel.rotation
        a = kernel.cast(_cell(kernel, zw, False, "above", True, True)) + rot - kernel.anchors[2]
        a = +kernel.at_width(a)
    else:
        a = _cell(kernel, zw, real, cut_side, upper, True, kernel.anchors[2 + upper])
    # rounded to the width in both parts: a real c would round only the
    # real part of c + a
    w = +kernel.at_width(c + a)
    if not upper and w.imag == 0 and w.real <= -2:
        raise BranchCutError(
            f"shifted argument c + A1(z) = {complex(w)} lies on the cut of F1"
        )
    return _one(kernel, w, cut_side, upper, False, kernel.anchors[upper])


def _expc_cell(kernel, z, real, cut_side, c, branch, _, chains):
    # a map expc cell in the row driver's form (_rows), whose third
    # argument it has no use for: the composition decides its sides on
    # its own argument and walks no memo
    return _iterate(kernel, c, z, branch, cut_side)


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
    ctx = require_config(_DEFAULT_CTX if ctx is None else ctx, EvalContext, "ctx")
    # x passes the argument rule before the width is refused
    require_finite(x)
    kernel = _kernel_of(_deep(ctx))
    half = kernel.at_width(0.5)
    lower = _iterate(kernel, half, x, IterateBranch.lower, "above")
    upper = _iterate(kernel, half, x, IterateBranch.upper, "above")
    # the difference rounds once, at the width
    return plain(kernel.at_width(lower) - kernel.at_width(upper))


@functools.lru_cache(maxsize=32)
def _deep(ctx: EvalContext) -> EvalContext:
    # dq13's context, the caller's with a walk cap of at least 20000: one
    # object per caller context, which _kernel_of matches by identity
    return dataclasses.replace(ctx, max_recursion=max(ctx.max_recursion, 20000))


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
    # a context of another type, or a width past the calibrated range, is
    # refused, not scored
    kernel = _kernel_of(ctx)
    try:
        if kind[1] != "q":
            # the round trip, F then A (af) or A then F (fa), each the
            # public evaluator's rule on the kernel held here
            plus, fa = kind[1] == "3", kind[2:] == "fa"
            x = _one(kernel, z, cut_side, plus, fa, kernel.anchors[2 * fa + plus])
            x = _one(kernel, x, cut_side, plus, not fa, kernel.anchors[2 * (not fa) + plus])
            y = z
        else:
            branch = IterateBranch.lower if kind == "dq1" else IterateBranch.upper
            half = kernel.at_width(0.5)
            once = _iterate(kernel, half, z, branch, cut_side)
            x = _iterate(kernel, half, once, branch, cut_side)
            y = _exp_b(z, kernel.bits)
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


def _rows(kernel, cell, args: tuple, memo: bool):
    """The one row driver of a grid: row(xs, y, cut_side) -> (values, errors).

    Each x is one call cell(kernel, w, real, cut_side, a, b, c, chains)
    at w = complex(x, y) cast by the kernel, with `args` the sweep's
    (a, b, c), `real` decided once a row, from y, and `chains` the row's
    own memo of F~ walks when `memo`, else None.  A cell that raises a
    SuperexpError records None and the error, its traceback dropped: a
    stored traceback would hold this frame, which holds the lists.  A
    wide kernel's values leave as complex doubles, and one past the
    double range is None with an OrbitOverflowError, not an infinity.
    """
    cast, a, b, c = kernel.cast, *args
    wide = kernel.bits > 53

    def row(xs, y, cut_side) -> tuple:
        real = _sides(y, cut_side)
        chains = {} if memo else None
        values, errors = [], []
        for x in xs:
            try:
                values.append(cell(kernel, cast(complex(x, y)), real, cut_side, a, b, c, chains))
                errors.append(None)
            except SuperexpError as exc:
                values.append(None)
                errors.append(exc.with_traceback(None))
        if wide:
            for i, value in enumerate(values):
                if value is not None:
                    value = complex(value)
                    if cmath.isfinite(value):
                        values[i] = value
                    else:
                        values[i] = None
                        errors[i] = OrbitOverflowError("the value is past the double range")
        return values, errors

    return row


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

    Each row is one call of a row evaluator, row(xs, y, cut_side) ->
    (values, errors), from the one row driver (_rows), whose loop
    records each failing cell's error and turns a wide value past the
    double range into an overflow cell.  The kernel, and for F1, F3, A1
    and A3 the anchor or norm, are resolved once a call, the cut side
    once a row, and each F or A cell is one call of the evaluators'
    rule (evaluators._cell); F1 and F3 cells of a row a whole number of
    units apart walk the functional equation from the same base point,
    so a row sums and walks each exact base once.  A base's imaginary
    part is y plus the anchor's, so no two rows share one: the memo is
    the row call's own.  Each cell is still the evaluator's value at
    that cell, bit for bit, and a failing cell records the error the
    evaluator raises there.
    """
    if fn not in GRID_FUNCTIONS:
        raise ValueError(f"unknown grid function {fn!r}")
    require_config(grid, GridSpec, "grid")
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
        row = _rows(kernel, _expc_cell, (c, branch, None), False)
    else:
        plus, abel = fn in ("F3", "A3"), fn[0] == "A"
        row = _rows(kernel, _cell, (plus, abel, kernel.anchors[2 * abel + plus]), not abel)
    rows, errs = [], []
    for y in ys:
        values, errors = row(xs, y, grid.cut_side)
        rows.append(tuple(values))
        errs.append(tuple(None if exc is None else exc.code for exc in errors))
    return GridResult(fn, grid, xs, ys, tuple(rows), tuple(errs))


def check_grid(kind: str, grid: GridSpec, ctx: Optional[EvalContext] = None,
               clip: float = 16.0) -> tuple:
    """Score one agreement kind over the grid and summarise the scores.

    Returns
    -------
    (cells, summary)
        cells are the row-major ``(x, y, score)`` tuples (rows sweep y
        ascending, columns x ascending), each score exactly
        ``agreement(kind, complex(x, y), ctx, clip, grid.cut_side)``.
        summary holds the ``min`` and ``median`` of the scores that are
        not NaN (None when every cell is unavailable), the
        ``fraction_ge_14`` of all cells scoring 14 digits or more, and
        the count of ``unavailable`` (NaN) cells.  ``superexp check``
        prints exactly these.

    Raises
    ------
    As :func:`agreement`, before any cell is scored.
    """
    import statistics  # only a check summarises: `import superexp` loads none

    require_config(grid, GridSpec, "grid")
    xs, ys = grid.xs(), grid.ys()
    cells = [(x, y, agreement(kind, complex(x, y), ctx, clip, grid.cut_side))
             for y in ys for x in xs]
    finite = [d for _, _, d in cells if d == d]  # NaN-free subset
    summary = {
        "min": min(finite) if finite else None,
        "median": statistics.median(finite) if finite else None,
        "fraction_ge_14": sum(1 for d in finite if d >= 14.0) / len(cells),
        "unavailable": len(cells) - len(finite),
    }
    return cells, summary


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
