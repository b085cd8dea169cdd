"""Smoke tests of the protocol scripts on small instances.

Each row's iteration count on these draws is pinned, in table order, so a
change to a protocol table or to the solver's recursion shows up here.
"""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script, args, expected", [
    ("bqp_experiment", ["--n", "6", "--k", "8", "--seed", "5"],
     [("identity", 2190), ("est-alpha", 85), ("est-beta", 739), ("est-joint", 93),
      ("opt-alpha", 150), ("opt-beta", 743), ("opt-joint", 97)]),
    ("sr_experiment", ["--n", "12", "--k", "3", "--seed", "5"],
     [("identity", 2367), ("est-joint", 82), ("est-alpha", 156), ("est-beta", 498)]),
], ids=["bqp", "sr"])
def test_protocol_script_iteration_counts(tmp_path, script, args, expected):
    out = tmp_path / "table.csv"
    assert load_script(script).main([*args, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["mode"], int(row["iterations"])) for row in rows] == expected
    assert all(row["converged"] == "True" for row in rows)
