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
from superexp.evaluators import default_constants

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
             "--abel-terms", "0"],
            ["eval", "F1", "0", "0", "--abel-radius", "nan"],
            ["eval", "F1", "0", "0", "--abel-radius", "inf"],
            ["eval", "F1", "0", "0", "--re-threshold", "inf"],
            ["map", "F1", "--x", "0:1", "--y", "0:1", "--nx", "2", "--ny", "2",
             "--abel-radius", "0"],
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
        assert "usage" in proc.stderr and args[-2] in proc.stderr
        assert "Traceback" not in proc.stderr


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
        # the tuning overrides only reach eval, map and check; calibrate
        # and table never read them, so they refuse them as usage errors
        proc = run_cli([*args, "--abel-terms", "80"], cache_dir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "usage" in proc.stderr and "--abel-terms" in proc.stderr

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
        proc = run_cli(["eval", "F1", "-3", "0"], cache_dir)
        assert proc.returncode == 1
        assert "cut_side" in proc.stderr

    def test_cut_sides_are_conjugate(self, cache_dir):
        above = run_cli(["eval", "F1", "-3", "0", "--cut-side", "above"], cache_dir)
        below = run_cli(["eval", "F1", "-3", "0", "--cut-side", "below"], cache_dir)
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
        proc = run_cli(["eval", "F1", "-3", "0", "--format", "csv"], cache_dir)
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
        proc = run_cli(["eval", "F1", "-3", "0", "--format", "json"], cache_dir)
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

    @pytest.mark.parametrize("args", [["F1", "nan", "0"], ["A3", "inf"]])
    def test_non_finite_input_is_a_domain_error(self, cache_dir, args):
        proc = run_cli(["eval", *args], cache_dir)
        assert proc.returncode == 1
        assert "DomainError" in proc.stderr
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

    def test_empty_range(self, cache_dir):
        proc = run_cli(["table", "levy", "--n", ""], cache_dir)
        assert proc.returncode == 0
        assert proc.stdout == ""

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
        # negative span values ride the flag=value normalization
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
