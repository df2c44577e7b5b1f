"""tools/orbit_cost.py on tiny sizes: its lines parse and its counts add up."""

import json
import pathlib
import runpy

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = runpy.run_path(str(ROOT / "tools" / "orbit_cost.py"))


def _lines(capsys, *argv) -> list:
    assert TOOL["main"](list(argv)) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_step_costs_and_table_counts(capsys):
    costs, backward, table = _lines(
        capsys, "--bits", "53", "--n", "200", "--steps", "20", "--repeat", "1",
        "--rows", "200:201",
    )
    assert (costs["direction"], costs["bits"], costs["n"]) == ("forward", 53, 200)
    assert costs["full_us"] > 0 and costs["increment_us"] > 0
    assert backward["direction"] == "backward" and backward["increment_us"] is None
    # two orbits to 201 and the ratio's side step past each row; from
    # about step 90 on, all but every 16th index go by the increment
    assert table["steps"] == 2 * 201 + 2 == sum(table[k] for k in ("increment", "full", "mpf"))
    assert table["failed"] == 0 and table["mpf"] == 0 and table["increment"] > 150


def test_no_increment_before_the_steps_are_small(capsys):
    costs, _, table = _lines(
        capsys, "--bits", "53", "--n", "20", "--steps", "5", "--repeat", "1",
        "--table", "fatou2", "--rows", "20",
    )
    assert costs["increment_us"] is None
    assert (table["table"], table["increment"], table["full"]) == ("fatou2", 0, 40)
