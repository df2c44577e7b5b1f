"""End-to-end checks of the command-line interface.

Every test drives ``python -m superexp`` in a subprocess with the
calibration cache redirected to a temporary directory, so the assertions
cover argument parsing, exit codes, and byte-level output formatting as
a user would see them.
"""

import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

from superexp import cli
from superexp.evaluators import (
    F1,
    CalibrationConstants,
    EvalContext,
    _DoubleKernel,
    default_constants,
)

E = math.e


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    # pre-seed the calibration cache: the in-process constants are already
    # memoized, and subprocesses should not each pay the 192-bit solve
    path = tmp_path_factory.mktemp("superexp-cache")
    payload = default_constants(53).as_decimal_dict()
    (path / "constants-192.json").write_text(json.dumps(payload))
    return path


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

    def test_wide_precision_fails_fast(self, cache_dir):
        # a 640-bit request once walked ~1.5e5 steps per evaluation in its
        # tier-704 calibration; now that kernel is refused before any walk
        start = time.perf_counter()
        proc = run_cli(
            ["eval", "F1", "0.5", "0", "--precision-bits", "640", "--no-cache"],
            cache_dir,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("superexp: DomainError: 704 bits is out of range")
        assert "up to 432 bits" in proc.stderr
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
            ["calibrate", "--format", "json", "--no-cache", "--precision-bits", str(bits)],
            cache_dir,
        )
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest

    def test_corrupt_cache_is_recomputed_and_rewritten(self, tmp_path):
        # slow path: the bad file must not poison the run, and a fresh
        # cache should replace it afterwards
        target = tmp_path / "constants-192.json"
        target.write_text("not json at all")
        proc = run_cli(["eval", "A3", "3", "0"], tmp_path)
        assert proc.returncode == 0
        assert abs(float(proc.stdout.split()[0])) < 1e-12
        assert json.loads(target.read_text())["bits"] == 192

    def test_no_cache_leaves_no_file(self, tmp_path):
        proc = run_cli(["eval", "F1", "0", "0", "--no-cache"], tmp_path)
        assert proc.returncode == 0
        assert list(tmp_path.iterdir()) == []

    def test_cache_write_leaves_only_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUPEREXP_CACHE_DIR", str(tmp_path))
        constants = cli._constants(53, no_cache=False)
        assert [p.name for p in tmp_path.iterdir()] == ["constants-192.json"]
        payload = json.loads((tmp_path / "constants-192.json").read_text())
        assert payload == constants.as_decimal_dict()

    @pytest.mark.parametrize("tier", [192, 256, 320, 384, 448])
    def test_cached_doubles_are_the_kernel_cast(self, tier):
        # a 53-bit command reads the anchors as float() of the cached
        # decimals: the doubles the kernel casts from the parsed mpfs
        payload = json.loads(json.dumps(default_constants(tier - 16).as_decimal_dict()))
        assert payload["bits"] == tier
        exact = CalibrationConstants.from_decimal_dict(payload)
        doubles = cli._doubles(payload)
        kernel = _DoubleKernel(EvalContext())
        got = (*kernel.anchors(doubles), doubles.period_t1)
        want = (*kernel.anchors(exact), complex(exact.period_t1))
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [
            (z.real.hex(), z.imag.hex()) for z in want
        ]

    def test_failed_cache_write_leaves_nothing(self, tmp_path, monkeypatch):
        # a write that dies half way must not leave a truncated cache
        # file for the next process, nor its temporary file
        def dump_then_fail(obj, fh):
            fh.write('{"bits": 19')
            raise OSError(28, "No space left on device")

        monkeypatch.setenv("SUPEREXP_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cli.json, "dump", dump_then_fail)
        constants = cli._constants(53, no_cache=False)
        assert constants is default_constants(53)
        assert list(tmp_path.iterdir()) == []


class TestEval:
    def test_f1_at_zero(self, cache_dir):
        proc = run_cli(["eval", "F1", "0", "0"], cache_dir)
        assert proc.returncode == 0
        re, im = map(float, proc.stdout.split())
        assert abs(re - 1.0) < 1e-13
        assert im == 0.0

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
        assert "--c" in proc.stderr

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
        proc = run_cli(
            ["map", "expc", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2"],
            cache_dir,
        )
        assert proc.returncode == 1

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
_WIDE = {"mpmath", "superexp.fixed", "superexp.wide"}
# the limit formulas, which only table and the package's names of them load
_LIMITS = {"mpmath", "superexp.limits"}


class TestImportFootprint:
    """A 53-bit command with a cached tier loads no multiprecision code,
    and only table loads the limit formulas."""

    @staticmethod
    def loaded(tmp_path, cache, how, *argv) -> set:
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
        return (_WIDE | _LIMITS) & set(report["modules"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "F1", "0.5", "0"],
            ["map", "F1", "--x=-2:2", "--y=-1:1", "--nx", "5", "--ny", "3"],
            ["check", "d1fa", "--x=-2:2", "--y=-1:1", "--nx", "3", "--ny", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_53_bit_commands_load_none(self, tmp_path, cache_dir, argv):
        assert self.loaded(tmp_path, cache_dir, "cli", *argv) == set()

    def test_53_bit_library_calls_load_none(self, tmp_path, cache_dir):
        # with the constants in hand; F1(0) takes an int argument
        code = (
            "import json, os, superexp\n"
            "from superexp.cli import _doubles\n"
            "path = os.path.join(os.environ['SUPEREXP_CACHE_DIR'], 'constants-192.json')\n"
            "with open(path) as fh:\n"
            "    constants = _doubles(json.load(fh))\n"
            "superexp.F1(0.5, None, constants)\n"
            "superexp.F1(0, None, constants)\n"
        )
        assert self.loaded(tmp_path, cache_dir, "lib", code) == set()

    @pytest.mark.parametrize(
        "how, argv, want",
        [
            ("cli", ["eval", "F1", "0.5", "0", "--precision-bits", "128"], _WIDE),
            ("cli", ["calibrate", "--no-cache"], _WIDE),
            # a cache hit parses the decimals as mpfs and builds no kernel
            ("cli", ["calibrate"], {"mpmath"}),
            ("cli", ["table", "levy", "--n", "10:11"], _LIMITS),
            # the library has no cache: its first evaluation calibrates
            ("lib", ["import superexp; superexp.F1(0.5)"], _WIDE),
        ],
        ids=["eval128", "calibrate-miss", "calibrate-hit", "table", "library-calibrates"],
    )
    def test_wide_paths_load_what_they_use(self, tmp_path, cache_dir, how, argv, want):
        assert self.loaded(tmp_path, cache_dir, how, *argv) == want


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
