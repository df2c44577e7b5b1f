"""End-to-end checks of the command-line interface.

Every test drives ``python -m superexp`` in a subprocess with the
directory ``superexp calibrate`` writes to redirected to a temporary
one (no command reads it), so the assertions
cover argument parsing, exit codes, and byte-level output formatting as
a user would see them.
"""

import hashlib
import json
import math
import os
import re
import runpy
import shlex
import subprocess
import sys
import time
import warnings

import pytest

from superexp import cli, limits
from superexp.evaluators import (
    F1,
    EvalContext,
    _DoubleKernel,
    calibrate,
    default_constants,
)
from superexp.precision import PrecisionConfig

E = math.e


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    # where `superexp calibrate` writes its tier's file
    return tmp_path_factory.mktemp("superexp-cache")


def run_cli(args, cache):
    env = dict(os.environ, SUPEREXP_CACHE_DIR=str(cache))
    return subprocess.run(
        [sys.executable, "-m", "superexp", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestCommonFlags:
    def test_no_subcommand_is_a_usage_error(self, cache_dir):
        proc = run_cli([], cache_dir)
        assert proc.returncode == 1
        assert "usage" in proc.stderr

    def test_unknown_subcommand(self, cache_dir):
        proc = run_cli(["frobnicate"], cache_dir)
        assert proc.returncode == 1

    def test_precision_floor(self, cache_dir):
        proc = run_cli(["eval", "F1", "0", "0", "--precision-bits", "52"], cache_dir)
        assert proc.returncode == 1
        assert "at least 53" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["calibrate"],
            ["eval", "F1", "0.5"],
            ["table", "levy", "--n", "1:2"],
            ["map", "F1", "--x=0:1", "--y=0:1", "--nx=2", "--ny=2"],
            ["check", "d1fa", "--x=0:1", "--y=0:1"],
        ],
        ids=lambda args: args[0],
    )
    def test_no_cache_is_a_usage_error(self, args, capsys):
        # every command reads or refreshes the cache: none skips it
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--no-cache"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith("unrecognized arguments: --no-cache\n")

    def test_unknown_format(self, cache_dir):
        proc = run_cli(["eval", "F1", "0", "0", "--format", "xml"], cache_dir)
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "F1", "0.5", "0", "--c", "0.5"],
            ["eval", "A3", "5", "1", "--branch", "lower"],
            ["map", "F3", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2",
             "--c", "0.5,1"],
            ["map", "A1", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2",
             "--branch", "upper"],
        ],
    )
    def test_iteration_flags_only_for_expc(self, cache_dir, args):
        # F1, F3, A1 and A3 take no iteration count or branch: refused
        # instead of being ignored
        proc = run_cli(args, cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "usage" in proc.stderr
        assert "--c and --branch apply to expc only" in proc.stderr
        assert run_cli(args[:-2], cache_dir).returncode == 0

    def test_iteration_flags_for_expc(self, cache_dir):
        proc = run_cli(["eval", "expc", "0.5", "0", "--c", "0.5", "--branch", "lower"],
                       cache_dir)
        assert proc.returncode == 0 and proc.stderr == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "F1", "0", "0", "--max-recursion", "0"],
            ["check", "d1fa", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2",
             "--max-recursion", "-1"],
            ["eval", "F1", "0", "0", "--max-recursion", "2.5"],
            ["eval", "F1", "0", "0", "--max-recursion", "inf"],
            ["eval", "F1", "0", "0", "--cut-side", "left"],
            ["map", "F1", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2",
             "--max-recursion", "0"],
            ["check", "d1fa", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2",
             "--clip", "nan"],
            ["check", "d1fa", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2",
             "--clip", "-3"],
        ],
    )
    def test_bad_option_value_is_a_usage_error(self, cache_dir, args):
        # option values are checked before any work starts: a refused one
        # exits 1 with a usage line, never a traceback
        proc = run_cli(args, cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "usage" in proc.stderr and f"argument {args[-2]}:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args, name, literal",
        [
            (["eval", "F1", "1e400", "0"], "re", "1e400"),
            (["eval", "F1", "1e400", "0", "--precision-bits", "256"], "re", "1e400"),
            (["eval", "F3", "0", "-1E+400"], "im", "-1E+400"),
            (["eval", "expc", "1", "0", "--c", "1e400"], "--c", "1e400"),
            (["eval", "expc", "1", "0", "--c", "0.5,-1e400"], "--c", "-1e400"),
            (["table", "levy", "--args", "1e400,1", "--n", "1:2"], "--args", "1e400"),
            (["map", "F1", "--x", "0:1e400", "--y", "0:1", "--nx", "2", "--ny", "2"],
             "--x", "1e400"),
            (["check", "d1fa", "--x", "0:1", "--y", "-1e400:1", "--nx", "2", "--ny", "2"],
             "--y", "-1e400"),
        ],
        ids=["eval re", "eval re 256", "eval im", "--c", "--c im", "--args", "--x", "--y"],
    )
    def test_literal_past_the_double_range_is_a_usage_error(self, cache_dir, args, name,
                                                            literal):
        # float() reads such a literal as inf, which the library then
        # refused as "not finite"; the parser names the literal instead
        proc = run_cli(args, cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"argument {name}: {literal!r} is outside the double range" in proc.stderr
        assert "usage" in proc.stderr and "Traceback" not in proc.stderr

    _MAP = ["map", "F1", "--y", "0:1", "--nx", "2", "--ny", "2"]

    @pytest.mark.parametrize(
        "args, flag, value, code, error",
        [
            (_MAP, "--x", "-8:28", 0, ""),
            (_MAP, "--x", "-.5:1", 0, ""),
            (["table", "fatou1"], "--n", "-3:2", 1, "orbit length must be at least 1"),
            (["table", "levy", "--n", "10:11"], "--args", "-1,1", 0, ""),
            (["map", "expc", "--x", "0:1", *_MAP[2:]], "--c", "-0.5,1", 0, ""),
            # not a number: argparse takes it as an option and the flag
            # as missing its value
            (_MAP, "--x", "-e:1", 1, "argument --x: expected one argument"),
        ],
        ids=["--x -8:28", "--x -.5:1", "--n -3:2", "--args -1,1", "--c -0.5,1", "--x -e:1"],
    )
    def test_dash_values_read_as_in_joined_form(self, cache_dir, args, flag, value,
                                                code, error):
        # a value starting with "-" after its flag, as in --flag=value
        proc = run_cli([*args, flag, value], cache_dir)
        joined = run_cli([*args, f"{flag}={value}"], cache_dir)
        assert proc.returncode == joined.returncode == code, proc.stderr
        assert proc.stdout == joined.stdout
        assert error in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "F1", "0", "0"],
            ["map", "F1", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2"],
            ["check", "d1fa", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2"],
        ],
    )
    @pytest.mark.parametrize(
        "flag, value",
        [("--abel-terms", "15"), ("--abel-radius", "0.25"), ("--re-threshold", "10")],
    )
    def test_series_tuning_flags_are_gone(self, cache_dir, args, flag, value):
        # the series tuning follows from --precision-bits alone
        proc = run_cli([*args, flag, value], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "usage" in proc.stderr
        assert f"unrecognized arguments: {flag}" in proc.stderr

    def test_max_recursion_reaches_the_walk(self, cache_dir):
        # F1 at -300 + 0.5i walks 308 steps: past the default cap of 200
        args = ["eval", "F1", "-300", "0.5"]
        capped = run_cli(args, cache_dir)
        assert capped.returncode == 1
        assert "needs 308 steps, cap is 200" in capped.stderr
        proc = run_cli([*args, "--max-recursion", "400"], cache_dir)
        assert proc.returncode == 0
        value = F1(complex(-300, 0.5), EvalContext(max_recursion=400))
        assert proc.stdout == f"{value.real!r} {value.imag!r}\n"


    @pytest.mark.parametrize(
        "args, code",
        [
            (["eval", "F1", "3", "0"], 1),
            (["map", "F1", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2"], 1),
            (["check", "d1fa", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2"], 1),
            (["calibrate"], 2),
        ],
    )
    def test_precision_out_of_range(self, cache_dir, args, code):
        # the evaluator refuses a width whose walk-out distance overflows
        proc = run_cli([*args, "--precision-bits", "100000000"], cache_dir)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert proc.stderr.startswith("superexp: ")
        assert "out of range" in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "args, code",
        [
            (["eval", "F1", "1", "0"], 1),
            (["map", "F1", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2"], 1),
            (["check", "d1fa", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2"], 1),
            (["calibrate"], 2),
        ],
    )
    def test_a_width_past_432_bits_is_refused_in_its_terms(self, cache_dir, args, code):
        # 480 bits once failed naming its calibration tier, 512 bits, and
        # the mpmath kernel's 488-bit cap
        proc = run_cli([*args, "--precision-bits", "480"], cache_dir)
        assert proc.returncode == code
        assert proc.stdout == ""
        refusal = "480 bits is out of range: evaluations run from 53 to 432 bits"
        kind = "calibration failed" if code == 2 else "DomainError"
        assert proc.stderr == f"superexp: {kind}: {refusal}\n"

    def test_wide_precision_fails_fast(self, cache_dir):
        # a 640-bit request once walked ~1.5e5 steps per evaluation in its
        # tier-704 calibration; now that width is refused before any walk,
        # in its own terms
        start = time.perf_counter()
        proc = run_cli(
            ["eval", "F1", "0.5", "0", "--precision-bits", "640"], cache_dir,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("superexp: DomainError: 640 bits is out of range")
        assert "from 53 to 432 bits" in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert elapsed < 30


class TestCalibrate:
    def test_text_dump(self, cache_dir):
        proc = run_cli(["calibrate"], cache_dir)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert "x1 = 2.79824815423139" in lines
        assert "bits = 192" in lines

    def test_json_dump(self, cache_dir):
        proc = run_cli(["calibrate", "--format", "json"], cache_dir)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["bits"] == 192
        assert payload["x1"].startswith("2.79824815423")
        assert payload["x3"].startswith("-20.287404589940039")

    def test_csv_dump(self, cache_dir):
        proc = run_cli(["calibrate", "--format", "csv"], cache_dir)
        lines = proc.stdout.splitlines()
        assert lines[0] == "name,value"
        x1 = [ln for ln in lines if ln.startswith("x1,")]
        assert len(x1) == 1 and x1[0].startswith("x1,2.79824815423")

    @pytest.mark.parametrize("args", [["calibrate"], ["table", "levy", "--n", "1:2"]])
    def test_takes_no_tuning_flags(self, cache_dir, args):
        # the walk cap only reaches eval, map and check; calibrate and
        # table never read it, so they refuse it as a usage error
        proc = run_cli([*args, "--max-recursion", "80"], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "usage" in proc.stderr
        assert "unrecognized arguments: --max-recursion" in proc.stderr

    def test_byte_identical_reruns(self, cache_dir):
        first = run_cli(["calibrate", "--format", "json"], cache_dir)
        second = run_cli(["calibrate", "--format", "json"], cache_dir)
        assert first.stdout == second.stdout

    @pytest.mark.parametrize(
        "bits, digest",
        [
            (53, "2d6604efaf91bedd8920aee91f7070211fca3c42fa0beba171644ee079bc4b71"),
            (256, "16316b51db303b86b826900f9a7b203763063983447d3b2bbd421f51fdc2f3ad"),
        ],
    )
    def test_cold_output_is_pinned(self, cache_dir, bits, digest):
        # tier 192 and tier 320 dumps, byte for byte; the digests were
        # taken from the secant-root calibration the identity replaced
        proc = run_cli(
            ["calibrate", "--format", "json", "--precision-bits", str(bits)], cache_dir,
        )
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest

    def test_calibrate_refreshes_a_damaged_cache(self, tmp_path, monkeypatch, capsys):
        # no command reads the file: garbage, a nan or a wrong x1 in it
        # changes no output, and calibrate replaces it with what it computes
        monkeypatch.setenv("SUPEREXP_CACHE_DIR", str(tmp_path))
        commands = [
            ["eval", "F1", "0", "0"],
            ["eval", "A3", "3", "0.5", "--precision-bits", "128"],
            ["map", "A1", "--x=-2:2", "--y=-1:1", "--nx", "3", "--ny", "2"],
            ["check", "d3fa", "--x=-2:2", "--y=-1:1", "--nx", "3", "--ny", "2"],
        ]
        want = []
        for argv in commands:
            assert cli.main(argv) == 0
            want.append(capsys.readouterr().out)
        assert want[0] == "0.9999999999999923 0.0\n"
        assert list(tmp_path.iterdir()) == []
        good = calibrate().as_decimal_dict()
        target = tmp_path / "constants-192.json"
        for damage in ["not json at all", json.dumps(dict(good, x1="nan")),
                       json.dumps(dict(good, x1="1.5"))]:
            target.write_text(damage)
            for argv, out in zip(commands, want):
                assert cli.main(argv) == 0
                assert capsys.readouterr().out == out, (damage, argv)
            assert target.read_text() == damage
            assert cli.main(["calibrate", "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out) == good
            assert json.loads(target.read_text()) == good

    @pytest.mark.parametrize("bits", [53, 128])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize(
        "field, fn",
        [("x1", "F1"), ("x3", "F3"), ("a1_norm", "A1"), ("a3_norm", "A3"),
         ("period_t1_imag", "F1")],
    )
    def test_non_finite_cache_is_recomputed_and_rewritten(
        self, tmp_path, monkeypatch, capsys, field, fn, bad, bits
    ):
        # a value that parses but is not finite once poisoned every
        # evaluation that read it; now none reads it, and calibrate
        # rewrites it with the computed value
        monkeypatch.setenv("SUPEREXP_CACHE_DIR", str(tmp_path))
        argv = ["eval", fn, "3", "0.5", "--precision-bits", str(bits)]
        assert cli.main(argv) == 0
        want = capsys.readouterr().out
        good = calibrate().as_decimal_dict()
        target = tmp_path / "constants-192.json"
        target.write_text(json.dumps(dict(good, **{field: bad})))
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want
        assert cli.main(["calibrate", "--precision-bits", str(bits)]) == 0
        assert json.loads(target.read_text()) == good

    @pytest.mark.parametrize("text", ["[1]", "null", '{"bits": 192}'])
    def test_json_that_is_not_the_payload_is_recomputed(self, tmp_path, monkeypatch, text):
        # a list or null once raised AttributeError from the cache reader;
        # the constants are the literals, and calibrate replaces the file
        monkeypatch.setenv("SUPEREXP_CACHE_DIR", str(tmp_path))
        target = tmp_path / "constants-192.json"
        target.write_text(text)
        assert cli._constants(53) is default_constants(53)
        assert target.read_text() == text
        assert cli.main(["calibrate", "--format", "csv"]) == 0
        assert json.loads(target.read_text()) == calibrate().as_decimal_dict()

    @pytest.mark.parametrize("xdg", ["xdg", "", None], ids=["xdg", "empty", "unset"])
    def test_default_cache_dir(self, tmp_path, monkeypatch, capsys, xdg):
        # without SUPEREXP_CACHE_DIR calibrate writes to
        # $XDG_CACHE_HOME/superexp, or ~/.cache/superexp when that is unset
        # or empty
        monkeypatch.delenv("SUPEREXP_CACHE_DIR", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        if xdg is None:
            monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", xdg and str(tmp_path / xdg))
        assert cli.main(["calibrate"]) == 0
        base = tmp_path / "xdg" if xdg else tmp_path / "home" / ".cache"
        assert [p.name for p in (base / "superexp").iterdir()] == ["constants-192.json"]

    def test_corrupt_cache_is_recomputed_and_rewritten(self, tmp_path):
        # the bad file poisons no run, and calibrate replaces it
        target = tmp_path / "constants-192.json"
        target.write_text("not json at all")
        proc = run_cli(["eval", "A3", "3", "0"], tmp_path)
        assert proc.returncode == 0
        assert abs(float(proc.stdout.split()[0])) < 1e-12
        assert target.read_text() == "not json at all"
        assert run_cli(["calibrate"], tmp_path).returncode == 0
        assert json.loads(target.read_text())["bits"] == 192

    def test_cache_write_leaves_only_the_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SUPEREXP_CACHE_DIR", str(tmp_path))
        assert cli.main(["calibrate", "--precision-bits", "256", "--format", "json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert [p.name for p in tmp_path.iterdir()] == ["constants-320.json"]
        assert json.loads((tmp_path / "constants-320.json").read_text()) == printed

    @pytest.mark.parametrize("tier", [192, 256, 320, 384, 448])
    def test_cached_doubles_are_the_kernel_cast(self, tier):
        # a 53-bit command's anchors are the doubles of default_constants(53):
        # the ones the kernel casts every tier's calibration to
        doubles = cli._constants(53)
        exact = calibrate(EvalContext(precision=PrecisionConfig(mantissa_bits=tier - 16)))
        assert exact.bits == tier
        names = ("x1", "x3", "a1_norm", "a3_norm", "period_t1")
        kernel = _DoubleKernel(EvalContext())
        got = [kernel.cast(getattr(doubles, name)) for name in names]
        want = [kernel.cast(getattr(exact, name)) for name in names]
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [
            (z.real.hex(), z.imag.hex()) for z in want
        ]

    def test_failed_cache_write_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        # a write that dies half way must not leave a truncated file,
        # nor its temporary file; calibrate still prints what it computed
        def dump_then_fail(obj, fh):
            fh.write('{"bits": 19')
            raise OSError(28, "No space left on device")

        monkeypatch.setenv("SUPEREXP_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cli.json, "dump", dump_then_fail)
        assert cli.main(["calibrate", "--format", "csv"]) == 0
        assert "x1,2.79824815423" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestEval:
    def test_f1_at_zero(self, cache_dir):
        proc = run_cli(["eval", "F1", "0", "0"], cache_dir)
        assert proc.returncode == 0
        re, im = map(float, proc.stdout.split())
        assert abs(re - 1.0) < 1e-13
        assert im == 0.0

    def test_wide_json_holds_the_text_fields(self, cache_dir):
        # above 53 bits re and im stay decimal strings: the text's fields
        argv = ["eval", "F1", "0.5", "0.25", "--precision-bits", "128"]
        text = run_cli(argv, cache_dir)
        payload = json.loads(run_cli([*argv, "--format", "json"], cache_dir).stdout)
        assert len(payload["re"]) > 30
        assert [payload["re"], payload["im"]] == text.stdout.split()

    def test_a3_normalization(self, cache_dir):
        proc = run_cli(["eval", "A3", "3", "0"], cache_dir)
        re, im = map(float, proc.stdout.split())
        assert abs(re) < 1e-12 and im == 0.0

    def test_half_iterate_composes_to_one_step(self, cache_dir):
        first = run_cli(
            ["eval", "expc", "1", "0", "--c", "0.5", "--branch", "lower"], cache_dir
        )
        mid = first.stdout.split()[0]
        second = run_cli(
            ["eval", "expc", mid, "0", "--c", "0.5", "--branch", "lower"], cache_dir
        )
        assert abs(float(second.stdout.split()[0]) - math.exp(1 / E)) < 1e-11

    def test_complex_iteration_count_parses(self, cache_dir):
        proc = run_cli(
            ["eval", "expc", "1", "0", "--c", "0.25,0.25", "--branch", "lower"],
            cache_dir,
        )
        assert proc.returncode == 0
        re, im = map(float, proc.stdout.split())
        assert math.isfinite(re) and math.isfinite(im)

    def test_on_cut_without_side_is_strict(self, cache_dir):
        proc = run_cli(["eval", "F1", "-3.5", "0"], cache_dir)
        assert proc.returncode == 1
        assert "cut_side" in proc.stderr

    def test_cut_sides_are_conjugate(self, cache_dir):
        above = run_cli(["eval", "F1", "-3.5", "0", "--cut-side", "above"], cache_dir)
        below = run_cli(["eval", "F1", "-3.5", "0", "--cut-side", "below"], cache_dir)
        assert above.returncode == 0 and below.returncode == 0
        re_a, im_a = map(float, above.stdout.split())
        re_b, im_b = map(float, below.stdout.split())
        assert re_a == re_b and im_a == -im_b and im_a != 0.0

    def test_expc_without_c(self, cache_dir):
        proc = run_cli(["eval", "expc", "1", "0"], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "superexp: eval expc requires --c\n"

    def test_csv_value_row(self, cache_dir):
        proc = run_cli(["eval", "A3", "3", "0", "--format", "csv"], cache_dir)
        lines = proc.stdout.splitlines()
        assert lines[0] == "re,im,err"
        re, im, err = lines[1].split(",")
        assert abs(float(re)) < 1e-12 and err == ""

    def test_csv_error_row(self, cache_dir):
        proc = run_cli(["eval", "F1", "-3.5", "0", "--format", "csv"], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == "re,im,err\n,,cut\n"

    def test_json_value(self, cache_dir):
        proc = run_cli(["eval", "F1", "0", "0", "--format", "json"], cache_dir)
        payload = json.loads(proc.stdout)
        assert payload["fn"] == "F1"
        assert isinstance(payload["re"], float)
        assert abs(payload["re"] - 1.0) < 1e-13
        assert payload["err"] is None

    def test_json_error(self, cache_dir):
        proc = run_cli(["eval", "F1", "-3.5", "0", "--format", "json"], cache_dir)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["err"] == "cut" and payload["re"] is None

    def test_multiprecision_digit_count(self, cache_dir):
        proc = run_cli(
            ["eval", "F1", "0.5", "0.25", "--precision-bits", "128"], cache_dir
        )
        re, im = proc.stdout.split()
        # 128 bits carries ~39 digits; both parts print well beyond doubles
        assert len(re) > 30 and len(im) > 30

    def test_singular_point_stays_an_error_even_with_a_side(self, cache_dir):
        # z = 1 is the forward image of the log singularity at 0, so no
        # cut side makes A3 finite there
        proc = run_cli(["eval", "A3", "1", "0", "--cut-side", "above"], cache_dir)
        assert proc.returncode == 1

    @pytest.mark.parametrize("args", [
        ["--cut-side", "above"], ["--cut-side", "below", "--precision-bits", "256"],
    ])
    def test_f1_pole_is_a_domain_error(self, cache_dir, args):
        proc = run_cli(["eval", "F1", "-5", "0", *args], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "superexp: DomainError: F1 has a pole at -5\n"

    @pytest.mark.parametrize(
        "args", [["F1", "nan", "0"], ["A3", "inf"], ["F1", "-inf", "0"], ["F3", "0", "-inf"]]
    )
    def test_non_finite_input_is_a_domain_error(self, cache_dir, args):
        proc = run_cli(["eval", *args], cache_dir)
        assert proc.returncode == 1
        assert "DomainError" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "spelled, plain",
        [
            (["-2.5e-1", "0"], ["-0.25", "0"]),
            (["0.5", "-1e-3"], ["0.5", "-0.001"]),
            (["-1E+0", "-5E-1"], ["-1", "-0.5"]),
            (["-.5", "0"], ["-0.5", "0"]),
        ],
        ids=" ".join,
    )
    def test_negative_coordinates_in_any_spelling(self, cache_dir, spelled, plain):
        # argparse alone reads only -1 and -0.5 style tokens as numbers
        for fmt in ("text", "json"):
            proc = run_cli(["eval", "F1", *spelled, "--format", fmt], cache_dir)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == run_cli(
                ["eval", "F1", *plain, "--format", fmt], cache_dir
            ).stdout

    @pytest.mark.parametrize(
        "args, got",
        [
            (["nan", "0", "--c", "0.5"], "(nan+0j)"),
            (["1", "0", "--c", "0.5,inf"], "(0.5+infj)"),
            (["1", "0", "--c", "nan", "--precision-bits", "128"], "(nan+0j)"),
        ],
    )
    def test_non_finite_iterate_names_the_argument(self, cache_dir, args, got):
        # a NaN z is not an ambiguous branch, and a count is named as given
        proc = run_cli(["eval", "expc", *args], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"superexp: DomainError: argument must be finite, got {got}\n"
        assert "Traceback" not in proc.stderr

    def test_within_1e_308_of_e_is_a_domain_error(self, cache_dir):
        # the double value's imaginary part was inf, printed as inf in text
        # and as Infinity, which is not JSON, with exit 0
        point = ["2.718281828459045", "3e-308"]
        proc = run_cli(["eval", "A1", *point], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "superexp: DomainError: value is outside the double range this close to e\n"
        )

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        proc = run_cli(["eval", "A3", *point, "--format", "json"], cache_dir)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout, parse_constant=no_constant)
        assert payload["err"] == "domain" and payload["im"] is None

    def test_non_finite_csv_row_is_domain(self, cache_dir):
        proc = run_cli(["eval", "F1", "nan", "0", "--format", "csv"], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == "re,im,err\n,,domain\n"

    @pytest.mark.parametrize(
        "point, echo", [(["0", "inf"], (0.0, None)), (["nan", "0"], (None, 0.0))]
    )
    def test_non_finite_json_is_valid(self, cache_dir, point, echo):
        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        proc = run_cli(["eval", "F1", *point, "--format", "json"], cache_dir)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout, parse_constant=no_constant)
        assert (payload["x"], payload["y"]) == echo
        assert payload["err"] == "domain" and payload["re"] is None


class TestTable:
    WARNED = ["table", "levy", "--args", "4,2.718281828459045", "--n", "1:3",
              "--precision-bits", "64"]

    def test_warned_rows_print_one_plain_line(self, cache_dir, capsys):
        # each levy row here warns PrecisionLossWarning: the command prints
        # one plain line per warned row and exits 0, in-process under
        # pytest's filter (which raises it) and in a -W error process
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = limits.convergence_table(
                "levy", (4, 2.718281828459045), [1, 2, 3], PrecisionConfig(mantissa_bits=64))
        table = "".join(f"{rec.n} {limits.format_record(rec)[1]}\n" for rec in records)
        warned = "".join(
            f"superexp: warning: ratio denominator below half-precision floor at n={n}\n"
            for n in (1, 2, 3))
        assert cli.main(self.WARNED) == 0
        assert capsys.readouterr() == (table, warned)
        env = dict(os.environ, SUPEREXP_CACHE_DIR=str(cache_dir))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "superexp", *self.WARNED],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, table, warned)

    def test_levy_block_one(self, cache_dir):
        proc = run_cli(["table", "levy", "--n", "100:109"], cache_dir)
        lines = proc.stdout.splitlines()
        assert len(lines) == 10
        assert lines[0] == "100 -1.4560"
        assert lines[-1].startswith("109 ")

    def test_fatou_printed_digits(self, cache_dir):
        proc = run_cli(["table", "fatou", "--n", "1000:1002"], cache_dir)
        printed = [line.split()[1] for line in proc.stdout.splitlines()]
        assert printed == ["-1.4224939", "-1.4224938", "-1.4224936"]

    def test_csv_format(self, cache_dir):
        proc = run_cli(
            ["table", "levy", "--n", "100:100", "--format", "csv"], cache_dir
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "method,n,value,printed"
        assert lines[1].startswith("levy,100,-1.45") and lines[1].endswith(",-1.4560")

    def test_json_format(self, cache_dir):
        proc = run_cli(
            ["table", "levy", "--n", "100:100", "--format", "json"], cache_dir
        )
        rows = json.loads(proc.stdout)
        assert rows[0]["printed"] == "-1.4560"
        assert rows[0]["value"].startswith("-1.45")
        assert rows[0]["error"] is None

    @pytest.mark.parametrize(
        "args",
        [
            ["levy", "--n", "100:102"],
            # the backward orbits leave the domain: error rows only
            ["fatou2", "--n", "5:6", "--args", "2,3"],
        ],
    )
    def test_formats_print_the_same_rows(self, cache_dir, args):
        text = run_cli(["table", *args], cache_dir).stdout.splitlines()
        csv = run_cli(["table", *args, "--format", "csv"], cache_dir).stdout
        rows = json.loads(run_cli(["table", *args, "--format", "json"], cache_dir).stdout)
        csv = csv.splitlines()[1:]
        assert len(text) == len(rows) == len(csv) > 0
        for line, row, fields in zip(text, rows, csv):
            method, n = row["method"], row["n"]
            if row["error"] is None:
                assert fields == f"{method},{n},{row['value']},{row['printed']}"
                assert line == f"{n} {row['printed']}"
            else:
                assert row["value"] is None and row["printed"] is None
                assert fields == f"{method},{n},,{row['error']}"
                assert line == f"{n} {row['error']}"

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_escaped_orbit_rows_are_overflow(self, cache_dir, fmt):
        # the forward orbit from 4 passes the escape bound at n = 7, where
        # the ratio has 139877 integer digits: an error row, no traceback
        proc = run_cli(
            ["table", "levy", "--n", "2:8", "--args", "4,1", "--format", fmt],
            cache_dir,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        # each row's printed value, or its error tag
        if fmt == "json":
            rows = json.loads(proc.stdout)
            shown = [row["error"] or row["printed"] for row in rows]
        elif fmt == "csv":
            shown = [line.split(",")[3] for line in proc.stdout.splitlines()[1:]]
        else:
            shown = [line.split()[1] for line in proc.stdout.splitlines()]
        assert shown == [
            "19.3641", "36.3040", "87.5968", "504.5483", "15711774.8197",
            "overflow", "overflow",
        ]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["levy", "--args", ""], "levy takes 2 arguments, got 0"),
            (["levy", "--args", "1"], "levy takes 2 arguments, got 1"),
            (["fatou", "--args", "1,2"], "fatou1 takes 1 argument, got 2"),
            (["newton", "--args", "1"], "newton takes 2 or 3 arguments, got 1"),
        ],
    )
    def test_wrong_argument_count(self, cache_dir, args, message):
        proc = run_cli(["table", *args, "--n", "1:3"], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"superexp: {message}\n"

    @pytest.mark.parametrize(
        "args, got",
        [
            (["levy", "--args", "nan,1", "--n", "1:3"], "nan"),
            (["newton", "--args", "nan,0.5", "--n", "1:2"], "nan"),
            (["newton", "--args", "0.1,inf", "--n", "1:3"], "inf"),
            (["fatou1", "--args", "inf", "--n", "1:3"], "inf"),
            (["fatou2", "--args", "2,nan", "--n", "1:3"], "nan"),
            (["levy", "--args", "-inf,1", "--n", "1:3", "--format", "json"], "-inf"),
        ],
    )
    def test_non_finite_argument(self, cache_dir, args, got):
        # refused before any row: no nan, overflow or domain rows
        proc = run_cli(["table", *args], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"superexp: argument must be finite, got {got}\n"
        assert "Traceback" not in proc.stderr

    def test_empty_range(self, cache_dir):
        proc = run_cli(["table", "levy", "--n", ""], cache_dir)
        assert proc.returncode == 0
        assert proc.stdout == ""

    def test_negative_n_prints_no_rows(self, cache_dir):
        proc = run_cli(["table", "levy", "--n", "-3:2"], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "superexp: orbit length must be nonnegative\n"

    def test_single_n(self, cache_dir):
        proc = run_cli(["table", "levy", "--n", "100"], cache_dir)
        assert proc.stdout == "100 -1.4560\n"

    def test_newton_accepts_explicit_args(self, cache_dir):
        proc = run_cli(
            ["table", "newton", "--n", "5:5", "--args", "-1,0.5"], cache_dir
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("5 ")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_newton_takes_its_map_by_name(self, cache_dir, fmt):
        # the binomial transform of f's orbit from 1 at t = -1.4223536677333
        proc = run_cli(
            ["table", "newton", "--n", "1:3", "--args", "1,-1.4223536677333,f",
             "--format", fmt],
            cache_dir,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        if fmt == "json":
            shown = [row["printed"] for row in json.loads(proc.stdout)]
        elif fmt == "csv":
            shown = [line.split(",")[3] for line in proc.stdout.splitlines()[1:]]
        else:
            shown = [line.split()[1] for line in proc.stdout.splitlines()]
        assert shown == ["1.0", "0.36752503697", "0.0437997222737"]

    @pytest.mark.parametrize("args", ["1,f", "1,0.5,g", "1,0.5,h,f", "h,1,0.5"])
    def test_a_map_name_only_as_newtons_third_argument(self, cache_dir, args):
        proc = run_cli(["table", "newton", "--n", "1:3", "--args", args], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"argument --args: bad list {args!r}" in proc.stderr

    @pytest.mark.parametrize("args", ["1,0.5,3", "1,0.5,-2.5"])
    def test_a_numeric_third_argument_is_a_usage_error(self, cache_dir, args):
        # it once read "superexp: unknown base_map 3.0": the library's
        # keyword and the reformatted value, not the option and its choices
        proc = run_cli(["table", "newton", "--n", "1:2", "--args", args], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: superexp table")
        assert proc.stderr.endswith(
            "superexp table: error: argument --args: newton's third argument "
            "names its map, h or f\n"
        )

    def test_levy_counts_its_arguments(self, cache_dir):
        proc = run_cli(["table", "levy", "--n", "1:2", "--args", "1,2,3"], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "superexp: levy takes 2 arguments, got 3\n"

    def test_methods_without_defaults_require_args(self, cache_dir):
        proc = run_cli(["table", "fatou2", "--n", "10:12"], cache_dir)
        assert proc.returncode == 1
        assert "--args" in proc.stderr

    def test_bad_ranges(self, cache_dir):
        assert run_cli(["table", "levy", "--n", "109:100"], cache_dir).returncode == 1
        assert run_cli(["table", "levy", "--n", "abc"], cache_dir).returncode == 1
        proc = run_cli(["table", "levy", "--n", "100:100", "--args", "a,b"], cache_dir)
        assert proc.returncode == 1


class TestMap:
    def test_wide_map_past_the_double_range_is_overflow(self, cache_dir):
        # F3 near Re z = 22.5 at 128 bits is finite there, but past 1e308:
        # its cells printed inf, and the JSON form the non-JSON Infinity
        args = ["map", "F3", "--x=22.4:22.9", "--y=0:1", "--nx=6", "--ny=2",
                "--precision-bits", "128"]
        csv = run_cli(args, cache_dir)
        assert csv.returncode == 0 and csv.stderr == ""
        cells = [line.split(",") for line in csv.stdout.splitlines()[1:]]
        assert [c[4] for c in cells[:3]] == ["overflow"] * 3
        proc = run_cli([*args, "--format", "json"], cache_dir)

        def refused(constant):
            raise AssertionError(f"not JSON: {constant}")

        samples = json.loads(proc.stdout, parse_constant=refused)["samples"]
        assert all(s["err"] or math.isfinite(abs(complex(s["re"], s["im"]))) for s in samples)
        assert [s["err"] for s in samples[:3]] == ["overflow"] * 3

    def test_format_text_is_a_usage_error(self, cache_dir):
        # it was once accepted, and the grid printed as CSV
        grid = ["map", "F1", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2"]
        proc = run_cli([*grid, "--format", "text"], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "argument --format: invalid choice" in proc.stderr
        csv = run_cli([*grid, "--format", "csv"], cache_dir)
        assert csv.returncode == 0 and csv.stdout.startswith("x,y,re,im,err\n")
        assert json.loads(run_cli([*grid, "--format", "json"], cache_dir).stdout)

    @pytest.mark.parametrize(
        "command, formats",
        [("calibrate", "csv,json,text"), ("eval", "csv,json,text"),
         ("table", "csv,json,text"), ("check", "csv,json,text"), ("map", "csv,json")],
    )
    def test_format_choices(self, capsys, command, formats):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert f"--format {{{formats}}}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "c, bits, got",
        [("nan", "53", "(nan+0j)"), ("0.5,-inf", "53", "(0.5-infj)"), ("nan", "128", "(nan+0j)")],
    )
    def test_expc_refuses_a_non_finite_count(self, cache_dir, c, bits, got):
        # it once printed a grid of "domain" rows and exited 0
        proc = run_cli(
            ["map", "expc", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2",
             f"--c={c}", "--precision-bits", bits],
            cache_dir,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"superexp: DomainError: argument must be finite, got {got}\n"
        assert "Traceback" not in proc.stderr

    def test_csv_grid_row_order(self, cache_dir):
        proc = run_cli(
            ["map", "A3", "--x", "-0.5:0.5", "--y", "-0.5:0.5", "--nx", "2",
             "--ny", "2"],
            cache_dir,
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "x,y,re,im,err"
        assert len(lines) == 5
        # rows sweep y ascending, x fastest
        starts = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert starts == [
            ("-0.5", "-0.5"), ("0.5", "-0.5"), ("-0.5", "0.5"), ("0.5", "0.5"),
        ]

    def test_real_axis_right_of_e_is_marked_cut(self, cache_dir):
        proc = run_cli(
            ["map", "A1", "--x", "3:4", "--y", "0:1", "--nx", "2", "--ny", "2"],
            cache_dir,
        )
        lines = proc.stdout.splitlines()[1:]
        assert lines[0].endswith(",,cut") and lines[1].endswith(",,cut")
        assert lines[2].endswith(",") and lines[3].endswith(",")

    def test_json_payload(self, cache_dir):
        proc = run_cli(
            ["map", "expc", "--x", "0:1", "--y", "0:0.5", "--nx", "2", "--ny", "2",
             "--c", "0.5", "--format", "json"],
            cache_dir,
        )
        payload = json.loads(proc.stdout)
        assert payload["fn"] == "expc"
        assert payload["nx"] == 2 and payload["ny"] == 2
        assert payload["cut_side"] == "above"
        assert len(payload["samples"]) == 4
        assert all(s["err"] is None for s in payload["samples"])

    def test_out_file_matches_stdout(self, cache_dir, tmp_path):
        args = ["map", "F1", "--x", "0:1", "--y", "0:1", "--nx", "3", "--ny", "3"]
        streamed = run_cli(args, cache_dir)
        target = tmp_path / "grid.csv"
        written = run_cli(args + ["--out", str(target)], cache_dir)
        assert written.returncode == 0 and written.stdout == ""
        assert target.read_text() == streamed.stdout

    def test_unwritable_path_exits_3(self, cache_dir):
        proc = run_cli(
            ["map", "F1", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2",
             "--out", "/nonexistent-dir/grid.csv"],
            cache_dir,
        )
        assert proc.returncode == 3
        assert "cannot write" in proc.stderr

    def test_expc_requires_c(self, cache_dir):
        # it once named map_grid's keyword: "fn='expc' requires the iteration count c"
        proc = run_cli(
            ["map", "expc", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2"],
            cache_dir,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "superexp: map expc requires --c\n"

    def test_bad_span(self, cache_dir):
        proc = run_cli(
            ["map", "F1", "--x", "1", "--y", "0:1", "--nx", "2", "--ny", "2"],
            cache_dir,
        )
        assert proc.returncode == 1
        assert "lo:hi" in proc.stderr

    @pytest.mark.parametrize(
        "x, y, message",
        [
            ("-1:inf", "-1:1", "finite"),
            ("-1:1", "-1e308:1e308", "y step"),
        ],
    )
    def test_grid_it_cannot_sample_exits_1(self, cache_dir, x, y, message):
        proc = run_cli(
            ["map", "F1", "--x", x, "--y", y, "--nx", "3", "--ny", "2"], cache_dir
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


class TestCheck:
    def test_degenerate_grid_has_four_rows(self, cache_dir):
        proc = run_cli(
            ["check", "d1af", "--x", "0:2", "--y", "0:2", "--nx", "2", "--ny", "2",
             "--format", "csv"],
            cache_dir,
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "x,y,d"
        data = [ln for ln in lines[1:] if not ln.startswith("#")]
        summary = [ln for ln in lines[1:] if ln.startswith("#")]
        assert len(data) == 4
        assert any(ln.startswith("# fraction_ge_14=") for ln in summary)

    def test_text_summary_fields(self, cache_dir):
        proc = run_cli(
            ["check", "d1af", "--x", "0:2", "--y", "0:2", "--nx", "3", "--ny", "3"],
            cache_dir,
        )
        keys = [line.split()[0] for line in proc.stdout.splitlines()]
        assert keys == ["min", "median", "fraction_ge_14", "unavailable"]

    def test_agreement_region_fraction(self, cache_dir):
        # negative span values after their flags, as separate tokens
        proc = run_cli(
            ["check", "d1fa", "--x", "-2:6", "--y", "-6:6", "--nx", "5", "--ny", "5"],
            cache_dir,
        )
        summary = dict(
            line.split(maxsplit=1) for line in proc.stdout.splitlines()
        )
        assert float(summary["fraction_ge_14"]) > 0.5

    def test_json_summary(self, cache_dir):
        proc = run_cli(
            ["check", "dq1", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2",
             "--format", "json"],
            cache_dir,
        )
        payload = json.loads(proc.stdout)
        assert len(payload["samples"]) == 4
        assert set(payload["summary"]) == {
            "min", "median", "fraction_ge_14", "unavailable",
        }

    def test_unrepresentable_reference_is_unavailable(self, cache_dir):
        # the reference e^(x/e) overflows a double at every cell
        proc = run_cli(
            ["check", "dq1", "--x", "1930:2000", "--y", "-1:1", "--nx", "3",
             "--ny", "3"],
            cache_dir,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        summary = dict(line.split(maxsplit=1) for line in proc.stdout.splitlines())
        assert summary["unavailable"] == "9"

    def test_round_trips_within_1e_308_of_e_are_unavailable(self, cache_dir):
        # F1 lands within 1e-308 of e, where A1 refuses the value: the
        # cells read unavailable (were min 16.0, unavailable 0)
        proc = run_cli(
            ["check", "d1af", "--x", "0:1", "--y", "1.6e308:1.7e308", "--nx", "2",
             "--ny", "2"],
            cache_dir,
        )
        assert proc.returncode == 0, proc.stderr
        summary = dict(line.split(maxsplit=1) for line in proc.stdout.splitlines())
        assert summary["unavailable"] == "4"

    def test_sums_past_the_double_range_score(self, cache_dir):
        # |X + Y| of a round trip overflows a double at these cells
        proc = run_cli(
            ["check", "d1fa", "--x=-1.7976931348623157e308:-1e308",
             "--y=-1.7976931348623157e308:-1e308", "--nx", "2", "--ny", "2"],
            cache_dir,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        summary = dict(line.split(maxsplit=1) for line in proc.stdout.splitlines())
        assert summary["unavailable"] == "0"


# a child process runs one CLI command ("cli" ARG...) or a library
# snippet ("lib" CODE), then writes its exit code and every module it
# loaded, as JSON, to the file named first
_FOOTPRINT = (
    "import json, sys\n"
    "out, how, *argv = sys.argv[1:]\n"
    "if how == 'cli':\n"
    "    from superexp.cli import main\n"
    "    code = main(argv)\n"
    "else:\n"
    "    exec(argv[0])\n"
    "    code = 0\n"
    "with open(out, 'w') as fh:\n"
    "    json.dump({'code': code, 'modules': sorted(sys.modules)}, fh)\n"
)

# what an evaluation above 53 bits loads: the mpmath kernel and its imports
_WIDE = {"mpmath", "superexp.wide"}
# the limit formulas, which only table and the package's names of them load
_LIMITS = {"mpmath", "superexp.limits"}


class TestImportFootprint:
    """A 53-bit command or library call loads no multiprecision code,
    and only table loads the limit formulas."""

    @staticmethod
    def loaded(tmp_path, cache, how, *argv, watched=_WIDE | _LIMITS) -> set:
        out = tmp_path / "modules.json"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT, str(out), how, *argv],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, SUPEREXP_CACHE_DIR=str(cache), PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["code"] == 0, proc.stderr
        return watched & set(report["modules"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "F1", "0.5", "0"],
            ["map", "F1", "--x=-2:2", "--y=-1:1", "--nx", "5", "--ny", "3"],
            ["check", "d1fa", "--x=-2:2", "--y=-1:1", "--nx", "3", "--ny", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_53_bit_commands_load_none(self, tmp_path, argv):
        # in an empty directory, which they leave empty
        cache = tmp_path / "empty-cache"
        cache.mkdir()
        assert self.loaded(tmp_path, cache, "cli", *argv) == set()
        assert list(cache.iterdir()) == []

    def test_53_bit_library_calls_load_none(self, tmp_path, cache_dir):
        # the default constants are doubles of the literals: nothing
        # calibrates.  F1(0) takes an int argument, F1("1") is refused
        code = (
            "import superexp\n"
            "superexp.F1(0.5)\n"
            "superexp.F1(0)\n"
            "superexp.default_constants(53)\n"
            "superexp.A3(0.5)\n"
            "try:\n"
            "    superexp.F1('1')\n"
            "except superexp.DomainError:\n"
            "    pass\n"
        )
        assert self.loaded(tmp_path, cache_dir, "lib", code) == set()

    @pytest.mark.parametrize(
        "how, argv, want",
        [
            ("lib", ["import superexp"], set()),
            ("cli", ["eval", "F1", "0.5", "0"], set()),
            ("cli", ["map", "F1", "--x=-2:2", "--y=-1:1", "--nx", "5", "--ny", "3"], set()),
            ("cli", ["check", "d1fa", "--x=-2:2", "--y=-1:1", "--nx", "3", "--ny", "3"],
             {"statistics"}),
        ],
        ids=["import", "eval", "map", "check"],
    )
    def test_only_a_check_loads_statistics(self, tmp_path, cache_dir, how, argv, want):
        # iteration.check_grid imports it for its summary's median
        assert self.loaded(tmp_path, cache_dir, how, *argv, watched={"statistics"}) == want

    @pytest.mark.parametrize(
        "how, argv, cold, want",
        [
            ("cli", ["eval", "F1", "0.5", "0", "--precision-bits", "128"], False, _WIDE),
            # calibrate computes whether or not its tier is cached
            ("cli", ["calibrate"], True, _WIDE),
            ("cli", ["calibrate"], False, _WIDE),
            ("cli", ["table", "levy", "--n", "10:11"], False, _LIMITS),
            # the library calibrates only when asked
            ("lib", ["import superexp; superexp.calibrate()"], False, _WIDE),
        ],
        ids=["eval128", "calibrate-miss", "calibrate-hit", "table", "library-calibrates"],
    )
    def test_wide_paths_load_what_they_use(
        self, tmp_path, cache_dir, how, argv, cold, want
    ):
        cache = tmp_path / "empty-cache" if cold else cache_dir
        assert self.loaded(tmp_path, cache, how, *argv) == want


def readme_commands(*subcommands):
    # the command lines of the README's "Command line" block
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Command line\n\n```\n(.*?)```", text, re.S).group(1)
    lines = [line.split("#")[0].strip() for line in block.splitlines()]
    return [
        shlex.split(line)[1:]
        for line in lines
        if line.startswith("superexp ") and line.split()[1] in subcommands
    ]


class TestReadme:
    def test_examples_are_found(self):
        assert len(readme_commands("eval", "table")) >= 3

    @pytest.mark.parametrize(
        "args", readme_commands("eval", "table"), ids=" ".join
    )
    def test_example_runs(self, cache_dir, args):
        proc = run_cli(args, cache_dir)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout


# stdout of each command line, as SHA-256 digests recorded on the tree
# before `superexp check` called iteration.check_grid: every check kind in
# every format, a grid with every cell unavailable, a wide check, and the
# map, eval and table outputs around it
_GOLDEN = [
    ("check d1af --x -2:6 --y -6:6 --nx 9 --ny 7 --format csv", 0,
     "ef5daad47f0c9acffce0c45bc8441b1003af7b0575d0f777f71013e62a463721"),
    ("check d1af --x -2:6 --y -6:6 --nx 9 --ny 7 --format json", 0,
     "cb15a4858c7dd660525a4924a755f378343552c2cb6560355d83e96bbbebc339"),
    ("check d1af --x -2:6 --y -6:6 --nx 9 --ny 7 --format text", 0,
     "3c2f0f76ae41f4d06ee56a039beb53c3005886a857c67d590b59d75692c41264"),
    ("check d1fa --x -2:6 --y -6:6 --nx 9 --ny 7 --format csv", 0,
     "3e050947150905da84b6ef8fea2004bb5f4dce29ccd2470a445c6e818f49e9b2"),
    ("check d1fa --x -2:6 --y -6:6 --nx 9 --ny 7 --format json", 0,
     "85e988e55450e43e9b933c96758cfabb6ace9d644089aa82c7a985c816ace4a2"),
    ("check d1fa --x -2:6 --y -6:6 --nx 9 --ny 7 --format text", 0,
     "36fcdf203c35a4c51085a434eb4d549589063c4c5090226111aea66daa6581fa"),
    ("check d3af --x -2:6 --y -6:6 --nx 9 --ny 7 --format csv", 0,
     "07d8f8f26a40c5f06d60aa13a076958119bce8967bb237029120723ee73ef8bc"),
    ("check d3af --x -2:6 --y -6:6 --nx 9 --ny 7 --format json", 0,
     "34809df86ee12d3e79863c34009a734935913603e88cda2a8b65aff195dee33c"),
    ("check d3af --x -2:6 --y -6:6 --nx 9 --ny 7 --format text", 0,
     "a7792129180cbe1d2d74884e87d2555269c43493c9573c155ac8405df26dce71"),
    ("check d3fa --x -2:6 --y -6:6 --nx 9 --ny 7 --format csv", 0,
     "df91887280eb2b6e76697cd0a9ee6f2ecdefe5c221082c6747579ab8ecebdb46"),
    ("check d3fa --x -2:6 --y -6:6 --nx 9 --ny 7 --format json", 0,
     "2118caec3669dca81af5f48a9296c594d4c38dedbb6bff6885a4bdc8aa3a15e4"),
    ("check d3fa --x -2:6 --y -6:6 --nx 9 --ny 7 --format text", 0,
     "4e442054d38623f819dd328852881cd1179ea7103b8abb55bb0b34a29051b374"),
    ("check dq1 --x -2:6 --y -6:6 --nx 9 --ny 7 --format csv", 0,
     "cb81acb017adf68cde4c6d20767f64dde7b70a903b46bd6b4733a260a667387d"),
    ("check dq1 --x -2:6 --y -6:6 --nx 9 --ny 7 --format json", 0,
     "4e501c604b6ef1c7649069e0f013988bb96606a64c1ac6a08d25c15a138d8c51"),
    ("check dq1 --x -2:6 --y -6:6 --nx 9 --ny 7 --format text", 0,
     "138cd7a238a44994ac81e21441655acb268ad3f2d7ea9135e6f0ac15ce36657a"),
    ("check dq3 --x -2:6 --y -6:6 --nx 9 --ny 7 --format csv", 0,
     "39736b02cfc08b3efe90296b01dca237ddfe8299381a7348b61ba48273614614"),
    ("check dq3 --x -2:6 --y -6:6 --nx 9 --ny 7 --format json", 0,
     "d78602894a697a459bab03adf51551144cbff08613b6aaa6f9b7c01adeb7fba5"),
    ("check dq3 --x -2:6 --y -6:6 --nx 9 --ny 7 --format text", 0,
     "5bd7f2a681ddc6860f12237e10776f0de73fcf0f13a18b49ceae060d698e43ed"),
    ("check dq1 --x 1930:2000 --y -1:1 --nx 3 --ny 3 --format csv", 0,
     "25b789891ffd725fd403130e22608bbbaae5b2a1fc13349addbc25c581641a34"),
    ("check dq1 --x 1930:2000 --y -1:1 --nx 3 --ny 3 --format json", 0,
     "ae8ab5ae74eea64fa279cecce7c6c8cfb9cf777dd99d0f9a1dd783d399615418"),
    ("check dq1 --x 1930:2000 --y -1:1 --nx 3 --ny 3 --format text", 0,
     "0acde20f162dfcfa1f7d68da164b44044f26d73b272f8a0fa2836aeb89f06fe5"),
    ("check d1fa --x -2:6 --y -6:6 --nx 3 --ny 3 --precision-bits 128 --format csv", 0,
     "7d245417a5047b25ba795d0c6a26b338d21f146fbb40957e3e7186c7b0fdb535"),
    ("map F1 --x -2:6 --y -6:6 --nx 9 --ny 7 --format csv", 0,
     "b9b5b67862f6912651aa80975ee0126931a9a24f020a0b222f62947e9368ab49"),
    ("map F1 --x -2:6 --y -6:6 --nx 9 --ny 7 --format json", 0,
     "ac61dfd8ded57f76b6473a78778921c4c43893de01829d751f2c112cf635c85a"),
    ("map A1 --x -2:6 --y -6:6 --nx 9 --ny 7 --format csv", 0,
     "85b40806c6500bb19c311fe6bdb53e45f79bc5464311ba07f178572a8e282a20"),
    ("map A1 --x -2:6 --y -6:6 --nx 9 --ny 7 --format json", 0,
     "f881a0a753aa3e21e6ab10f63b16b584e0805261355bc78408dd55863982caf2"),
    ("map expc --c 0.5 --x -2:6 --y -6:6 --nx 9 --ny 7 --format csv", 0,
     "73f7440d1da6a7c509c6745f8ee325d0c7b64cf51174a36d2d9fa138a26bae9e"),
    ("map expc --c 0.5 --x -2:6 --y -6:6 --nx 9 --ny 7 --format json", 0,
     "b938d163a49eed08d1f37ab6f045d38dddf6953e1dbab9337731865aa9d0593e"),
    ("eval F1 0.5 0.5 --precision-bits 53 --format csv", 0,
     "054fbc1e9e720f9fe6f42b14c648dab9fcf93e44b2a038a736291a6912b2d550"),
    ("eval F1 0.5 0.5 --precision-bits 53 --format json", 0,
     "d359c77c779c3988e08ed7ced8e30e2c64eb347a8b61d913a09ccb80612e1f9d"),
    ("eval F1 0.5 0.5 --precision-bits 53 --format text", 0,
     "2765d8bab13421f4a0f11284cc91b7cbb792d41fb834bc252906326d34926362"),
    ("eval F1 0.5 0.5 --precision-bits 256 --format csv", 0,
     "7da0fdbbabedbbe5f8757777f3018477fe48ddcf35e7e972fa3b31000c425e8e"),
    ("eval F1 0.5 0.5 --precision-bits 256 --format json", 0,
     "80026bcafe926833fedbbd950a67edb85fc3b7366dd190c84a0ade1f408cba3c"),
    ("eval F1 0.5 0.5 --precision-bits 256 --format text", 0,
     "c040824ad3abd5cf63edde0170aac07a8543bc70e0d9c9c07edb8c9ea2b63b5e"),
    ("eval expc 1 0.5 --c 0.5 --precision-bits 53 --format csv", 0,
     "fb9deb118eb03f3387a5989cbe2e4b7e5240be3f13226d1613ee8855cc35fcc0"),
    ("eval expc 1 0.5 --c 0.5 --precision-bits 53 --format json", 0,
     "8af3e2a14e01a44b013426f6c284e8da6b7f79f55ce3ff866a37aa5bd592a027"),
    ("eval expc 1 0.5 --c 0.5 --precision-bits 53 --format text", 0,
     "23fd589cae46db488cb243e8dd5a1394e31b1a1a121fa2237e87da4e20edcc80"),
    ("eval expc 1 0.5 --c 0.5 --precision-bits 256 --format csv", 0,
     "d2976c3231827a6ec69b900031d6fda27bf044b439b8ad773dcc9e47e6bdcefc"),
    ("eval expc 1 0.5 --c 0.5 --precision-bits 256 --format json", 0,
     "4d1d028b490f9c4be1246d34429c2eab6e3e5931e323b1435d6de82957b9558e"),
    ("eval expc 1 0.5 --c 0.5 --precision-bits 256 --format text", 0,
     "bdbf1f3e2382203ff7cacf103b8d87c5c60e8b626351c9095781bc25e03f3a6f"),
    ("table levy --n 100:102 --format csv", 0,
     "9674d2ad57fa4300f837c7b16d367b3bd7c0b20dfde0001350655c1c53225769"),
    ("table levy --n 100:102 --format json", 0,
     "4943fa6c4751c22b95087342a1c4572561537a80cae3b8dc1ea4f2aa8e057cf2"),
    ("table levy --n 100:102 --format text", 0,
     "db98d7564341bad1023ac6aaf03dffd6d8f7c495d446565c8563c6fe13dec2f5"),
]
_GOLDEN_DEMO = "070f7cc061531da254d554c24f06d1a51d6ffa79f7f04345a1bdbd96a7d4328f"


class TestGoldenOutput:
    """Byte-identical output, checked: each command line's stdout hashes
    to its recorded digest.  Driven in-process, one call per line."""

    @pytest.mark.parametrize("argv, code, digest", _GOLDEN, ids=[c[0] for c in _GOLDEN])
    def test_stdout_digest(self, capsys, argv, code, digest):
        assert cli.main(shlex.split(argv)) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

    def test_agreement_map_demo(self, capsys):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "agreement_map.py")
        runpy.run_path(path, run_name="__main__")
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN_DEMO, out
