"""Fast self-test of the benchmark's output schema and metric names.

    python3 -m pytest -q perfbench/test_schema.py

Runs the real benchmark runner on shrunken instances (a few seconds in
all), checks the final JSON line against ``BENCHMARK.json`` and checks that
a directory holding only the benchmark fails without printing a result.
"""

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


class TinyBqp(workloads.BqpProtocol):
    def generate(self):
        return workloads.problems.gen_bqp(6, 8, 0.05, 1.0, self.instance_seed)


class TinySweep(workloads.BqpSweep):
    def setup(self):
        super().setup()
        self.inst = workloads.problems.gen_bqp(6, 8, 0.05, 1.0, self.instance_seed)
        self.argv += ["--n", "6", "--k", "8"]


def test_benchmark_json_matches_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(run.PER_LAYER)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    all_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + names
    assert len(all_names) == len(set(all_names))
    for name in all_names:
        assert name[0].isalnum() and len(name) <= 64 and set(name) <= NAME_CHARS


@pytest.mark.parametrize("kind", ["protocol", "sweep"])
@pytest.mark.parametrize("trace", [0, 1])
def test_final_line_schema(kind, trace, monkeypatch, tmp_path):
    def make(name, instance_seed, run_seed, workdir, cal):
        if kind == "sweep":
            return TinySweep(0, tmp_path / "work", cal)
        return TinyBqp(0, run_seed, cal)

    monkeypatch.setattr(workloads, "make", make)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "child_setup_s", lambda args: 0.5)
    args = run.parse_args(["--workload", "bqp-protocol", "--seed", "3",
                           "--seconds", "0", "--trace", str(trace)])
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.run(args) == 0
    final = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(final["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = final["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if not trace:
        assert all(final["metrics"][m["name"]]["value"] > 0 for m in spec)
    if trace and kind == "sweep":
        assert final["metrics"]["cli.artifact_bytes"]["value"] > 0
        assert final["metrics"]["linalg.project_toeplitz.calls"]["value"] == 0


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", "bqp-protocol", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
