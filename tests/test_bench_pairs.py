"""tools/bench_pairs.py's summary of paired perfbench runs, on canned
records: no benchmark runs here."""

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = runpy.run_path(str(ROOT / "tools" / "bench_pairs.py"))


def _runs(parent: list, change: list, name: str = "pass_s") -> list:
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs.append({"pair": pair, "side": "parent", "seed": pair, "metrics": {name: p}})
        runs.append({"pair": pair, "side": "change", "seed": pair, "metrics": {name: c}})
    return runs


def test_medians_quartiles_and_pairs_won():
    parent = [1.0, 1.2, 1.1, 1.3, 1.0]
    change = [0.9, 1.1, 1.1, 1.4, 0.8]
    s = TOOL["summarize"](_runs(parent, change), {"pass_s": "lower"})["pass_s"]
    assert s["parent"] == {"median": 1.1, "q1": 1.0, "q3": 1.2}
    assert s["change"] == {"median": 1.1, "q1": 0.9, "q3": 1.1}
    # lower wins: pairs 0, 1 and 4 for the change, 3 for the parent, 2 a tie
    assert (s["change_won"], s["parent_won"], s["ties"]) == (3, 1, 1)
    assert s["sign_p"] == pytest.approx(0.625)  # 2 (1 + 4) / 2^4
    assert s["median_change"] == pytest.approx(0.0)


def test_higher_is_better_and_a_sweep_is_significant():
    s = TOOL["summarize"](_runs([14.0] * 10, [15.0] * 10, "digits_min"),
                          {"digits_min": "higher"})["digits_min"]
    assert (s["better"], s["change_won"], s["parent_won"]) == ("higher", 10, 0)
    assert s["sign_p"] == pytest.approx(2 / 2**10)
    # a metric BENCHMARK.json does not name is better lower
    s = TOOL["summarize"](_runs([1.0] * 10, [2.0] * 10, "other"), {})["other"]
    assert (s["better"], s["change_won"], s["parent_won"]) == ("lower", 0, 10)


def test_a_pair_missing_a_side_is_not_counted():
    runs = _runs([1.0, 1.0], [0.5, 0.5])[:-1]  # the second pair has no change run
    s = TOOL["summarize"](runs, {})["pass_s"]
    assert (s["change_won"], s["parent_won"], s["ties"]) == (1, 0, 0)
    assert s["change"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}


def test_sign_p_of_no_pairs_is_one():
    assert TOOL["_sign_p"](0, 0) == 1.0
    assert TOOL["_sign_p"](9, 1) == pytest.approx(22 / 1024)
