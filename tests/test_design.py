"""The package's design rules, one test per rule.  A rule about a name,
an import or a call reads the parsed module, so a relative import or a
name split across lines is seen; a rule about text, such as the one copy
of a message, searches the module's text."""

import ast
import dataclasses
import functools
import importlib
import inspect
import json
import pathlib
import os
import re
import runpy
import subprocess
import sys

import pytest

import superexp
from superexp import evaluators, iteration, series

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(superexp.__file__).parent
TEXT = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
TREES = {name: ast.parse(text) for name, text in TEXT.items()}


def _absent(pattern: str, names, message: str) -> None:
    # no line of the named modules matches pattern
    found = [f"{name}:{n}" for name in names
             for n, line in enumerate(TEXT[name].splitlines(), 1) if re.search(pattern, line)]
    assert found == [], f"{message}: {found}"


def _once(message: str) -> None:
    n = sum(text.count(message) for text in TEXT.values())
    assert n == 1, f"'{message}' is written {n} times, not once"


def _no_import(names, wanted, message: str, eager: bool = False) -> None:
    # no named module imports a name wanted(name) holds for, names made absolute
    # (`from . import wide` imports superexp and superexp.wide); an eager import
    # is one a module runs as it loads: any outside a function body
    found = []
    for name in names:
        stack = [TREES[name]]
        while stack:
            node = stack.pop()
            if eager and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # every module sits at the package's top: any level is superexp
                base = ".".join(filter(None, ["superexp" if node.level else "", node.module]))
                imported = [base, *(f"{base}.{alias.name}" for alias in node.names)]
            else:
                continue
            if any(map(wanted, imported)):
                found.append(f"{name}:{node.lineno}")
    assert found == [], f"{message}: {found}"


def _takes(fn, name: str) -> bool:
    return any(isinstance(a, ast.arg) and a.arg == name for a in ast.walk(fn.args))


def _calls(node, name: str) -> int:
    return sum(isinstance(n, ast.Call) and getattr(n.func, "id", None) == name
               for n in ast.walk(node))


def _root(node):
    # the name an attribute or subscript chain starts from
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return getattr(node, "id", None)


def test_no_global_mpmath_precision():
    """Results must not depend on mpmath's process-wide precision, which
    every thread shares: the library works in private contexts.  A 53-bit
    process loads no mpmath, limits or wide: the modules it runs import
    them only inside their wide branches.  No evaluation loads the limit
    formulas, at any width: the private mpmath contexts come from
    precision.py."""
    _absent(r"workprec|workdps|mp\.(prec|dps) *=", TEXT,
            "src/superexp touches mpmath's global precision")
    _no_import(
        ("__init__.py", "cli.py", "evaluators.py", "iteration.py", "series.py", "errors.py",
         "precision.py"),
        lambda n: n.split(".")[0] == "mpmath" or n in ("superexp.limits", "superexp.wide"),
        "a 53-bit module imports mpmath, limits or wide eagerly", eager=True,
    )
    _no_import(("evaluators.py", "wide.py", "iteration.py", "precision.py"),
               lambda n: n == "superexp.limits" or n.startswith("superexp.limits."),
               "a module of the evaluation stack imports limits")


def test_one_mpmath_kernel():
    """The kernel above 53 bits is one class, wide._MPKernel: its integer
    steps, disk test and Newton solve are its own methods, so no fixed.py
    holds them and no module imports one."""
    assert "fixed.py" not in TEXT, ("src/superexp/fixed.py exists:"
                                    " the kernel's integer arithmetic is wide.py's")
    classes = [node.name for node in TREES["wide.py"].body if isinstance(node, ast.ClassDef)]
    assert classes == ["_MPKernel"], f"wide.py defines {classes}: its one class is _MPKernel"
    _no_import(TEXT, lambda n: n.split(".")[-1] == "fixed",
               "imports fixed: the kernel is wide._MPKernel")


def test_one_argument_rule():
    """The finiteness rule of every entry point is written once, in
    precision.require_finite, and the count rule of every width, cap, grid
    size, truncation order and orbit length once, in
    precision.require_count: each message appears once in the library,
    and no other module asks mpmath whether a value is finite or Python
    whether a value is an integer."""
    _once("argument must be finite")
    _once("must be an integer")
    others = [name for name in TEXT if name != "precision.py"]
    _absent(r"mpmath\.isfinite", others,
            "a module other than precision.py tests finiteness with mpmath")
    _absent(r"numbers\.Integral|operator\.index", others,
            "a module other than precision.py tests whether a count is an integer")


def test_one_width_decision():
    """How a composition holds its values at a width is the kernels'
    decision (at_width): iteration.py forks on the width only in _exp_b,
    the reference e^(z/e) it computes 16 bits wider."""
    for text in ("== 53", "mp_context("):
        assert TEXT["iteration.py"].count(text) <= 1, (
            f"iteration.py holds '{text}' more than once: only _exp_b forks on the width")


def test_one_cut_rule():
    """Strict mode (cut_side=None) is decided once, in evaluators._cell,
    on the upper-side value every walk takes, and a backward step from 0
    is refused once, by the helper each kernel's log_step calls: each
    message appears once in the library, and no walk of evaluators.py or
    wide.py takes a side."""
    _once("declare cut_side")
    _once("logarithm singularity at 0")
    # a whole word: "cut_side is None", the gate's own test, is not a match
    _absent(r"(?<!\w)side is None(?!\w)", ("evaluators.py", "wide.py"),
            "a walk takes a cut side: strict mode is _cell's decision")


def test_one_escape_rule():
    """Whether a forward step past a kernel's range escapes or collapses
    is decided once, by evaluators._escape, and one formula in
    evaluators._Tables sets both kernels' walk caps: each message of an
    OrbitOverflowError appears once in the library, wide.py sets no cap,
    and the double kernel's former rule is gone.  limits._ESCAPE_RE, the
    limit formulas' own guard in h-coordinates, stays as it is."""
    written = [ast.unparse(node.args[0]) for tree in TREES.values() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and node.args
               and getattr(node.func, "id", None) == "OrbitOverflowError"]
    twice = sorted({message for message in written if written.count(message) > 1})
    assert twice == [], f"an overflow message is written more than once: {twice}"
    _absent(r"max\(ctx\.max_recursion", ("wide.py",),
            "wide.py sets a walk cap: the caps are evaluators._Tables'")
    _absent(r"3\.5e13|-0\.05", ("evaluators.py",),
            "evaluators.py keeps the double kernel's former escape rule")


def test_one_calibration_source():
    """The library's default constants are decimal literals
    (evaluators._CALIBRATED) that default_constants rounds to each tier,
    so nothing calibrates unless calibrate() is called; they are the
    functions' own, so no function of evaluators.py or iteration.py takes
    a `constants` parameter.  evaluators._kernel calls default_constants
    once per width and builds the kernel with their anchors: no other
    function calls it, calibrate (which computes them) and the kernels'
    methods included; the CLI takes them and reads no cache."""
    _absent("default_constants", ("iteration.py", "wide.py"),
            "iteration.py or wide.py resolves constants: the kernel is built with its anchors")
    tree = TREES["evaluators.py"]
    kernel = next(fn for fn in tree.body if getattr(fn, "name", None) == "_kernel")
    assert _calls(tree, "default_constants") == _calls(kernel, "default_constants") == 1, (
        "evaluators.py calls default_constants outside _kernel, the kernel build")
    # default_constants and every helper of it live in evaluators.py
    assert _calls(tree, "calibrate") == 0, (
        "evaluators.py calls calibrate: default_constants reads the literals")
    taking = [f"{name}: {getattr(fn, 'name', 'a lambda')}"
              for name in ("evaluators.py", "iteration.py") for fn in ast.walk(TREES[name])
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              and _takes(fn, "constants")]
    assert taking == [], f"{taking} take `constants`: they are the functions' own"
    _absent(r"json\.load|_doubles", ("cli.py",),
            "cli.py reads a cache: its commands take default_constants")
    _absent(r"no_cache|--no-cache|exact=", ("cli.py",),
            "cli.py reads its cache in more than one mode")


def test_a_kernel_is_built_whole():
    """Threads share a kernel, and each is built whole in its __init__
    (evaluators._Tables): anchors, Abel tails and Newton plans, with
    nothing cast or planned on first use.  No other method of _Tables,
    _DoubleKernel or _MPKernel assigns to self."""
    kernels = {"_Tables", "_DoubleKernel", "_MPKernel"}
    classes = [(name, cls) for name in ("evaluators.py", "wide.py") for cls in TREES[name].body
               if isinstance(cls, ast.ClassDef) and cls.name in kernels]
    seen = {cls.name for _, cls in classes}
    assert seen == kernels, f"kernel classes not found: {sorted(kernels - seen)}"
    found = [f"{name}:{node.lineno} {cls.name}.{fn.name}" for name, cls in classes
             for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name != "__init__"
             for node in ast.walk(fn) if isinstance(node, (ast.Attribute, ast.Subscript))
             and isinstance(node.ctx, (ast.Store, ast.Del)) and _root(node) == "self"]
    assert found == [], f"{found} writes to self: a kernel is built whole in __init__"


def test_one_width_rule():
    """evaluators.calibration_tier is the one width rule: every evaluation,
    default_constants, calibrate() and the CLI reach its one refusal,
    which names the requested width and the range."""
    _once("bits is out of range: evaluations run from 53 to")


def test_one_power_table():
    """Every exact series is one of h = e^x - 1: iterative_logarithm,
    abel_expansion and regular_iterate_series take no base series, no
    _nonlinear_order checks one, and iterative_logarithm fills its power
    table from the Stirling triangle, never by products.  The value types
    hold what the builders, the demo and the tests read: PowerSeries has
    no order, truncation_order, scale, subtraction or negation, and
    AbelExpansion no constant (always 0) or truncation_order (its tail's
    length less one)."""
    functions = {fn.name: fn for fn in TREES["series.py"].body if isinstance(fn, ast.FunctionDef)}
    assert "_nonlinear_order" not in functions, (
        "series.py defines _nonlinear_order: its one map needs no check")
    taking = [name for name in ("iterative_logarithm", "abel_expansion", "regular_iterate_series")
              if _takes(functions[name], "base")]
    assert taking == [], f"series {taking} takes `base`: every series is one of e^x - 1"
    assert _calls(functions["iterative_logarithm"], "_mul") == 0, (
        "series.iterative_logarithm calls _mul: its power table is the Stirling triangle's")
    regained = [f"PowerSeries.{name}"
                for name in ("order", "truncation_order", "scale", "__sub__", "__neg__")
                if hasattr(series.PowerSeries, name)]
    regained += [f"AbelExpansion.{field.name}"
                 for field in dataclasses.fields(series.AbelExpansion)
                 if field.name in ("constant", "truncation_order")]
    assert regained == [], f"{regained} are back: nothing in the package calls them"


def test_one_orbit_pass():
    """Every single-n estimator of a table is a row of that table's one
    orbit pass, limits._orbit_pass: only it forms the ratio and shift
    values and decides the ratio's precision warning, so a levy_probe and
    its table row warn alike.  levy_abel, levy_probe, fatou_probe and
    fatou_probe_richardson build no orbit of their own, and the
    Richardson step reads both its rows off one pass."""
    functions = {fn.name: fn for fn in TREES["limits.py"].body if isinstance(fn, ast.FunctionDef)}
    found = [f"{name} calls {callee}" for name, fn in functions.items() if name != "_orbit_pass"
             for callee in ("_ratio_terms", "_shift_value") if _calls(fn, callee)]
    warns = [node.lineno for node in ast.walk(TREES["limits.py"]) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "warn" and _root(node.func) == "warnings"]
    if len(warns) != 1:
        found.append(f"warnings.warn at lines {warns}, not once")
    for name in ("levy_abel", "levy_probe", "fatou_probe", "fatou_probe_richardson"):
        if _calls(functions[name], "_Orbits"):
            found.append(f"{name} builds an orbit of its own")
    if _calls(functions["fatou_probe_richardson"], "fatou_probe"):
        found.append("fatou_probe_richardson runs a pass per row")
    assert found == [], f"{found}: a table's single-n rows are read off its one pass"


def test_one_petal_rule():
    """Which side of the fixed point each petal's estimator starts on is
    decided once, by limits._check_petal, which fatou_abel and the fatou2
    table pass both call: each petal's message appears once."""
    _once("petal-1 estimator needs Re(z) < 0 (attracting side)")
    _once("petal-2 estimator needs Re(z) > 0 (repelling side)")


def test_one_check_summary():
    """The check's decision lives in one module: iteration.check_grid
    scores the grid's cells and summarises them, and `superexp check`
    prints what it returns.  The summary key fraction_ge_14 is written
    once in the library, cli.py imports no statistics, and no module
    imports it as it loads, so `import superexp` loads none."""
    _once('"fraction_ge_14"')
    _no_import(("cli.py",), lambda n: n == "statistics",
               "cli.py imports statistics: the check's summary is iteration.check_grid's")
    _no_import(TEXT, lambda n: n == "statistics",
               "a module imports statistics as it loads", eager=True)


def test_no_public_callable_takes_constants():
    # the calibration constants are the functions' own: every evaluator,
    # composition and grid takes its width's default_constants
    taking = []
    for name in superexp.__all__:
        obj = getattr(superexp, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to read
            continue
        if "constants" in params:
            taking.append(name)
    assert taking == []


def test_one_side_flag_below_the_public_api():
    # below superexp_tilde the side is the bool `plus`: wide.py does not
    # name BranchSign, no function of evaluators.py or wide.py but
    # superexp_tilde and _as_branch takes a `branch`, and each kernel
    # holds the fixed point as its attribute `e`, not a method
    trees = {
        name: ast.parse(pathlib.Path(evaluators.__file__).with_name(name).read_text())
        for name in ("evaluators.py", "wide.py")
    }
    found = []
    for node in ast.walk(trees["wide.py"]):
        named = (
            getattr(node, "id", None), getattr(node, "attr", None),
            node.name if isinstance(node, ast.alias) else None,
        )
        if "BranchSign" in named:
            found.append(f"wide.py:{getattr(node, 'lineno', '?')} names BranchSign")
    for path, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            name = getattr(fn, "name", "a lambda")
            params = [a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)]
            if "branch" in params and name not in ("superexp_tilde", "_as_branch"):
                found.append(f"{path}: {name} takes `branch`")
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in ("_DoubleKernel", "_MPKernel"):
                if any(isinstance(fn, ast.FunctionDef) and fn.name == "e" for fn in cls.body):
                    found.append(f"{path}: {cls.name} defines a method e")
    assert found == []


def test_one_walk_and_sum_body_per_family():
    """Each kernel has one walk-and-sum body per function family: `abel`
    walks into the Abel disk and sums there, `ftilde` sums F~ at its base
    and extends the chain.  No abel_walk, abel_series, ftilde_series or
    separate walk sits beside them, _ftilde_eval has no loop of its own,
    and the double kernel no per-step `step`.  agreement, map_grid and
    dq13 compose on exp_iterate's body, building no IterateRequest per
    call, and that body takes no ctx: its kernel holds the width."""
    found = []
    for name, cls in (("evaluators.py", "_DoubleKernel"), ("wide.py", "_MPKernel")):
        kernel, = (c for c in TREES[name].body if isinstance(c, ast.ClassDef) and c.name == cls)
        methods = {fn.name for fn in kernel.body if isinstance(fn, ast.FunctionDef)}
        found += [f"{cls} has no {m}" for m in ("abel", "ftilde") if m not in methods]
        found += [f"{cls} has {m} beside its fused bodies" for m in sorted(methods)
                  if m in ("abel_walk", "abel_series", "ftilde_series", "walk")]
    if hasattr(evaluators._DoubleKernel, "step"):
        found.append("_DoubleKernel has a step: its bodies take the plain steps inline")
    functions = {fn.name: fn for name in ("evaluators.py", "iteration.py")
                 for fn in TREES[name].body if isinstance(fn, ast.FunctionDef)}
    if any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(functions["_ftilde_eval"])):
        found.append("_ftilde_eval loops: its kernel's ftilde extends the chain")
    for fn in ("agreement", "map_grid", "dq13"):
        for callee in ("IterateRequest", "exp_iterate"):
            if _calls(functions[fn], callee):
                found.append(f"iteration.{fn} calls {callee}: it composes on _iterate")
    if _takes(functions["_iterate"], "ctx"):
        found.append("iteration._iterate takes a ctx: its kernel holds the width")
    assert found == []


def test_one_row_driver():
    """A grid's cells are evaluated and their failures recorded in one
    loop, iteration._rows, for map_grid's F, A and expc rows alike: the
    catch-and-record, which drops a failure's traceback, is written once
    in the library.  The driver lives with the grids, in iteration.py,
    and map_grid calls it directly, through no evaluators._sweep."""
    n = sum(text.count("with_traceback(None)") for text in TEXT.values())
    assert n == 1, f"the catch-and-record is written {n} times, not once"
    rows = [f"{name}:{fn.lineno}" for name, tree in TREES.items() for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_rows"]
    assert rows == [f"iteration.py:{iteration._rows.__code__.co_firstlineno}"], rows
    _absent(r"\b_sweep\b", ["evaluators.py"], "evaluators.py names a _sweep")


@pytest.mark.parametrize("fn, grid, walking, hits, sums", [
    ("F1", "-8:28:-14:14:37:29", 457, 428, 609),
    ("F3", "-8:28:-14:14:37:29", 522, 522, 551),
    # columns 36/97 apart share no walk: the sweep walks through its memo
    # and reads nothing off another cell
    ("F1", "-8:28:-14:14:98:29", 1188, 0, 2841),
])
def test_shared_walk_counts(fn, grid, walking, hits, sums):
    """A 53-bit F1 or F3 sweep reads walks off other cells of its row
    (iteration.map_grid), as tools/sweep_cost.py's counter counts them:
    the cells whose walk takes a step, those of them that summed no
    series of their own, and the series summed."""
    count = runpy.run_path(str(ROOT / "tools" / "sweep_cost.py"))["_count"]
    ftilde = evaluators._DoubleKernel.ftilde
    *bounds, nx, ny = grid.split(":")
    with count(evaluators) as (counts, recorded):
        iteration.map_grid(fn, iteration.GridSpec(*map(float, bounds), int(nx), int(ny)))
    assert (counts["walking"], counts["hits"], len(recorded)) == (walking, hits, sums)
    # the counter unwraps on exit, so later evaluations run as they are
    assert evaluators._DoubleKernel.ftilde == ftilde


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("method, increments, full", [
    ("levy", 2673, 355),
    ("fatou1", 2663, 355),
])
def test_increment_step_counts(method, increments, full, bits):
    """A 10-row levy or fatou1 pass at n = 1500..1509 steps its forward
    estimator orbits by their increment but at every 16th index, the
    first steps and those of an increment not below 2^-12 (about
    n < 90), as tools/orbit_cost.py's counter counts them; the pass's
    total stays that of TestOnePass's rule."""
    from superexp import limits

    table_counts = runpy.run_path(str(ROOT / "tools" / "orbit_cost.py"))["table_counts"]
    step, increment = limits._Orbits.step, limits._Orbits._increment
    counts = table_counts(method, bits, range(1500, 1510))
    assert (counts["increment"], counts["full"], counts["mpf"], counts["failed"]) == (
        increments, full, 0, 0)
    assert counts["steps"] == 2 * 1509 + (10 if method == "levy" else 0)
    # the counter unwraps on exit, so later passes run as they are
    assert (limits._Orbits.step, limits._Orbits._increment) == (step, increment)


TINY = "--grid=-2:6:-2:2:5:3"


@pytest.mark.parametrize("fn, walks, shares", [
    ("F1", True, True), ("A1", False, False), ("d1fa", True, False),
])
def test_sweep_cost_prints_one_record(fn, walks, shares, capsys):
    """tools/sweep_cost.py, whose command and figures the README cites,
    times a map or a check and counts its F~ walks: one JSON line.  A1
    walks no F~; d1fa's walks share nothing; F1's row cells 2 units apart
    read each other's walks."""
    main = runpy.run_path(str(ROOT / "tools" / "sweep_cost.py"))["main"]
    assert main([fn, TINY, "--repeat", "1", "--src", str(SRC.parent)]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (record["fn"], record["grid"], record["cells"]) == (fn, TINY.split("=")[1], 15)
    assert record["cpu_us_per_cell"] > 0 and record["peak_rss_mb"] > 0
    assert (record["walking"] > 0, record["hits"] > 0) == (walks, shares)
    # every walk that reads no other's sums its own series
    assert record["sums"] >= record["walking"] - record["hits"]
    assert (record["sum_us"] is None) == (record["sums"] == 0)


@pytest.mark.parametrize("repeat", ["0", "-2"])
def test_sweep_cost_refuses_no_repeat(repeat, capsys):
    main = runpy.run_path(str(ROOT / "tools" / "sweep_cost.py"))["main"]
    with pytest.raises(SystemExit) as info:
        main(["F1", TINY, f"--repeat={repeat}", "--src", str(SRC.parent)])
    assert info.value.code == 2
    assert f"argument --repeat: must be at least 1, got {int(repeat)}" in capsys.readouterr().err


def test_sweep_cost_refuses_a_walk_it_cannot_count(monkeypatch, capsys):
    # a tree whose walk driver reads the side otherwise would be miscounted
    main = runpy.run_path(str(ROOT / "tools" / "sweep_cost.py"))["main"]
    monkeypatch.setattr(evaluators._DoubleKernel, "ftilde",
                        lambda self, z, k, branch, chain=None: 0)
    with pytest.raises(SystemExit) as info:
        main(["F1", TINY, "--src", str(SRC.parent)])
    assert info.value.code == 2
    assert ("_DoubleKernel.ftilde takes (self, z, k, branch, chain),"
            " not (self, z, k, plus, chain)" in capsys.readouterr().err)


def test_readme_names_resolve():
    """Every backquoted `module.name` of the README whose module is a
    superexp submodule must resolve: a deleted or renamed name fails."""
    modules = {name.removesuffix(".py") for name in TEXT}
    missing = []
    for name in re.findall(r"`([A-Za-z_][\w.]*\.[A-Za-z_]\w*)`", (ROOT / "README.md").read_text()):
        head, *attrs = name.removeprefix("superexp.").split(".")
        if head not in modules or attrs == ["py"]:
            continue  # another package's name, or a file
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"superexp.{head}"))
        except AttributeError:
            missing.append(name)
    assert missing == [], f"README.md names what superexp does not have: {', '.join(missing)}"


def _runs_clean(args, cwd) -> None:
    # one `python -W error` process on the library under test, in an empty
    # directory with its own cache: a failure or any warning fails the test
    env = dict(os.environ, SUPEREXP_CACHE_DIR=str(cwd / "cache"),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_readme_python_blocks_run(tmp_path):
    """Every fenced python block of the README, in order, runs as one
    script: a stale library example, or any warning it raises, fails."""
    lines, inside = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if not inside and line.startswith("```python"):
            inside = True
        elif inside and line.startswith("```"):
            inside = False
        elif inside:
            lines.append(line)
    assert lines, "the README has no python block"
    _runs_clean(["-c", "\n".join(lines)], tmp_path)


@pytest.mark.parametrize("demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    """Each demo exits 0 and raises no warning."""
    _runs_clean([str(ROOT / "demos" / demo)], tmp_path)
