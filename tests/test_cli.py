"""End-to-end driver tests: artifacts, determinism, exit codes.

Everything goes through ``main`` (or its parser and config resolution)
in-process on small instances, so the assertions cover argument handling,
config merging and artifact layout exactly as a shell user would hit them.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import proxsplit.cli as cli
from proxsplit.cli import ExperimentConfig, build_parser, main, resolve_config
from proxsplit.params import BlockShape, SdpHadamard
from proxsplit.problems import (_decode_array, _spike_samples, build_prox_pair, gen_bqp, gen_sr,
                                load_instance)
from proxsplit.tuning import SolutionPair, acceleration_gain

BQP_SMALL = ["--app", "bqp", "--n", "6", "--k", "8", "--seed", "5"]
SR_SMALL = ["--app", "sr", "--n", "12", "--k", "3", "--seed", "5"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# proxsplit-trace v1"
    assert lines[1] == "k,fp_residual_sq,opt_residual,mse,elapsed_ms"
    return [line.split(",") for line in lines[2:]]


def drop_timing(path):
    """Trace lines without the elapsed column, which is the only wall-clock field."""
    return ["," .join(row[:-1]) for row in read_rows(path)]


def test_run_writes_artifacts_and_gain_invariant(tmp_path):
    out = tmp_path / "run"
    code = main(["run", *BQP_SMALL, "--param-mode", "estimate", "--out", str(out)])
    assert code == 0

    rows = read_rows(out / "trace.csv")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema"] == "proxsplit-summary v2"
    assert summary["app"] == "bqp" and summary["algo"] == "drs"
    assert summary["param_mode"] == "estimate"
    assert summary["seed"] == 5 and summary["n"] == 6 and summary["k"] == 8
    assert summary["converged"] and summary["stop_reason"] == "mse_eps"
    assert summary["iterations"] == len(rows)
    assert summary["final_mse"] <= 1e-6
    assert float(rows[-1][3]) == summary["final_mse"]

    # the reported gain must be reproducible from the stored reference alone
    ref = json.loads((out / "reference.json").read_text())
    assert ref["schema"] == "proxsplit-reference v1"
    pair = SolutionPair(_decode_array(ref["x_ref"]), _decode_array(ref["lam_ref"]))
    p = summary["param"]
    param = SdpHadamard(p["alpha"], p["beta"], BlockShape(p["N"], p["K"]))
    gain = acceleration_gain(param, pair)
    assert summary["xi"] == pytest.approx(gain.xi, rel=1e-12)
    assert summary["xi_numerator"] == pytest.approx(gain.numerator, rel=1e-12)
    assert summary["xi_denominator"] == pytest.approx(gain.denominator, rel=1e-12)
    assert summary["reference"]["iterations"] == ref["iterations"]
    assert summary["reference"]["converged"] is True


def test_unit_manual_parameter_reproduces_identity(tmp_path):
    out_id = tmp_path / "identity"
    out_manual = tmp_path / "manual"
    assert main(["run", *BQP_SMALL, "--param-mode", "identity",
                 "--out", str(out_id)]) == 0
    assert main(["run", *BQP_SMALL, "--param-mode", "manual",
                 "--alpha", "1", "--beta", "1", "--out", str(out_manual)]) == 0
    s_id = json.loads((out_id / "summary.json").read_text())
    s_manual = json.loads((out_manual / "summary.json").read_text())
    assert s_id["iterations"] == s_manual["iterations"]
    assert s_manual["xi"] == pytest.approx(1.0, rel=1e-12)
    assert drop_timing(out_id / "trace.csv") == drop_timing(out_manual / "trace.csv")


def test_repeat_runs_are_identical_up_to_timing(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["run", *SR_SMALL, "--param-mode", "estimate",
                     "--out", str(out)]) == 0
    assert drop_timing(outs[0] / "trace.csv") == drop_timing(outs[1] / "trace.csv")
    first = json.loads((outs[0] / "summary.json").read_text())
    second = json.loads((outs[1] / "summary.json").read_text())
    assert first == second


def test_sweep_single_cell_agrees_with_run(tmp_path):
    out_run = tmp_path / "run"
    assert main(["run", *BQP_SMALL, "--param-mode", "manual",
                 "--alpha", "0.5", "--beta", "1.5", "--out", str(out_run)]) == 0
    out_sweep = tmp_path / "sweep"
    assert main(["sweep", *BQP_SMALL, "--alpha-grid", "0.5",
                 "--beta-grid", "1.5", "--out", str(out_sweep)]) == 0
    lines = (out_sweep / "sweep.csv").read_text().splitlines()
    assert lines[0] == "# proxsplit-sweep v1"
    assert lines[1] == "alpha,beta,iterations,final_mse"
    assert len(lines) == 3
    alpha, beta, iters, final_mse = lines[2].split(",")
    summary = json.loads((out_run / "summary.json").read_text())
    assert (float(alpha), float(beta)) == (0.5, 1.5)
    assert int(iters) == summary["iterations"]
    assert float(final_mse) == summary["final_mse"]


def test_sweep_rows_iterate_beta_fastest(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", *BQP_SMALL, "--alpha-grid", "0.5,2",
                 "--beta-grid", "1,3", "--max-iters", "30000",
                 "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    cells = [tuple(float(tok) for tok in row.split(",")[:2]) for row in rows]
    assert cells == [(0.5, 1.0), (0.5, 3.0), (2.0, 1.0), (2.0, 3.0)]


def test_sweep_names_its_capped_cells_and_exits_2(tmp_path, capsys):
    # alpha 0.01 needs 10 030 iterations and alpha 1 needs 2 190, so a cap of
    # 5000 stops the first cell only
    out = tmp_path / "sweep"
    assert main(["sweep", *BQP_SMALL, "--alpha-grid", "0.01,1", "--max-iters", "5000",
                 "--out", str(out)]) == 2
    stdout = capsys.readouterr().out
    assert "alpha=0.01 beta=1: 5000 iterations, final_mse=" in stdout
    assert stdout.count("(hit cap)") == 1 and "alpha=1 " not in stdout
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[:2] == ["# proxsplit-sweep v1", "alpha,beta,iterations,final_mse"]
    assert [row.split(",")[:3] for row in lines[2:]] == [["0.01", "1.0", "5000"],
                                                         ["1.0", "1.0", "2190"]]


@pytest.mark.parametrize("command", ["sweep", "protocol"])
def test_sweep_worker_count_does_not_change_output(tmp_path, capsys, command):
    args = [command, *BQP_SMALL]
    if command == "sweep":
        args += ["--alpha-grid", "0.3:3:3", "--beta-grid", "0.5,2"]
    out1, out2 = tmp_path / "serial", tmp_path / "pool"
    assert main([*args, "--jobs", "1", "--out", str(out1)]) == 0
    serial = capsys.readouterr().out
    assert main([*args, "--jobs", "2", "--out", str(out2)]) == 0
    assert capsys.readouterr().out == serial.replace(str(out1), str(out2))
    for name in (f"{command}.csv", "reference.json"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


@pytest.mark.parametrize("command, jobs, cpus, main_thread", [
    pytest.param("run", 1, 2, True, id="run-1-True"),
    pytest.param("run", 2, 2, True, id="run-2-True"),
    pytest.param("protocol", 2, 2, False, id="protocol-2-False"),
    pytest.param("protocol", 8, 1, True, id="protocol-8-one-cpu-True")])
def test_serial_rows_are_solved_in_the_main_thread(tmp_path, monkeypatch, command, jobs,
                                                   cpus, main_thread):
    # a solve in a worker thread holds Ctrl-C off until it returns, so a
    # single row never goes to the pool, whatever the jobs setting says; nor do
    # the rows when the process may use one CPU, as fork starts every worker at once
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    seen = []
    solve = cli.solve

    def recording_solve(*args):
        seen.append(threading.current_thread() is threading.main_thread())
        return solve(*args)

    monkeypatch.setattr(cli, "solve", recording_solve)
    # run takes no --jobs, so the jobs setting is set as a library caller would
    cfg = resolve_config(build_parser().parse_args(
        [command, *BQP_SMALL, "--out", str(tmp_path / "out")]))
    cfg.jobs = jobs
    assert cli.COMMANDS[command][0](cfg) == 0
    assert seen == [main_thread] * (1 if command == "run" else 7)


def test_ctrl_c_stops_worker_rows_at_once(tmp_path):
    # the SR seed-2 identity row alone runs 71 783 iterations, about a minute;
    # the interrupt must stop the running rows, not wait for them
    out = tmp_path / "out"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "proxsplit.cli", "protocol", "--app", "sr", "--n", "50",
         "--k", "10", "--seed", "2", "--jobs", "2", "--out", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path})
    try:
        time.sleep(4)
        workers = child_pids(proc.pid)
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=10)
    finally:
        proc.kill()
        proc.wait()
    assert stderr == "error: interrupted\n"
    assert proc.returncode == 130
    assert not out.exists()
    assert not [pid for pid in workers if is_running(pid)]


def child_pids(pid: int) -> list[int]:
    """The child processes of ``pid`` where Linux lists them, else none."""
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(tok) for tok in path.read_text().split()] if path.exists() else []


def is_running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (Linux)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


#: a real pair and reference for ``_solve_rows``; the scripted rows never iterate on them
SMALL_PAIR = build_prox_pair(gen_bqp(6, 8, 0.05, 1.0, 5))
SMALL_REF = type("Ref", (), {"x_ref": SMALL_PAIR.zeros()})()
forks = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                           reason="a monkeypatch reaches the workers only through fork")


def scripted_row(log: Path, pair, param, psi0, stop, psi_hook):
    """Stands in for ``run_drs`` in a worker: the row does what its parameter names.

    ``pid`` returns the worker's process id as its trace, and ``ctrl-c``
    returns ``ignored`` after sending Ctrl-C to its own worker. ``slow`` writes
    ``log/slow`` and runs until its hook stops it or 10 s pass, then records
    ``halted`` or ``finished``. ``fails`` and ``interrupts`` wait for ``slow``
    to run, then raise a ``DivergenceError`` or send Ctrl-C to the parent.
    """
    if param == "pid":
        return None, os.getpid()
    if param == "ctrl-c":
        os.kill(os.getpid(), signal.SIGINT)
        return None, "ignored"
    slow = log / "slow"
    if param != "slow":
        deadline = time.monotonic() + 10
        while not slow.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        if param == "fails":
            raise cli.DivergenceError("iterate turned non-finite")
        os.kill(os.getppid(), signal.SIGINT)
        return None, None
    slow.write_text("running")
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            psi_hook(1, None)
        except BaseException:
            slow.write_text("halted")
            raise
        time.sleep(0.001)
    slow.write_text("finished")
    return None, None


@pytest.fixture
def scripted_rows(tmp_path, monkeypatch):
    """``cli.run_drs`` replaced by ``scripted_row`` logging to ``tmp_path``; forked workers inherit it."""
    monkeypatch.setattr(cli, "run_drs", partial(scripted_row, tmp_path))
    return tmp_path


@forks
def test_rows_run_in_worker_processes(scripted_rows, monkeypatch):
    # the workers are forked from the calling thread before it starts any other,
    # and leave Ctrl-C to it
    forked_from = []
    fork = os.fork

    def recording_fork():
        forked_from.append((threading.current_thread(), threading.active_count()))
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    threads = threading.active_count()
    try:
        *pids, ignored = cli._solve_rows(ExperimentConfig(jobs=2), SMALL_PAIR, SMALL_REF,
                                         ["pid", "pid", "ctrl-c"])
    except KeyboardInterrupt:
        pytest.fail("a worker took Ctrl-C")
    assert os.getpid() not in pids and ignored == "ignored"
    assert forked_from == [(threading.current_thread(), threads)] * 2
    assert multiprocessing.active_children() == []


def solve_two_rows(log: Path, second_row: str, error) -> None:
    """``_solve_rows`` on ``slow`` and ``second_row``: ``error``, raised under 5 s, stops ``slow``."""
    t0 = time.monotonic()
    with pytest.raises(error):
        cli._solve_rows(ExperimentConfig(jobs=2), SMALL_PAIR, SMALL_REF, ["slow", second_row])
    assert time.monotonic() - t0 < 5
    assert (log / "slow").read_text() == "halted"
    assert multiprocessing.active_children() == []


@forks
def test_a_failed_row_stops_the_rows_queued_ahead_of_it(scripted_rows):
    # the second row fails in its worker while the first is still running: the
    # first must be stopped at its next iteration, not awaited
    solve_two_rows(scripted_rows, "fails", cli.DivergenceError)


@forks
def test_ctrl_c_in_the_parent_stops_the_worker_rows(scripted_rows):
    # the workers ignore Ctrl-C; the parent's KeyboardInterrupt halts them
    solve_two_rows(scripted_rows, "interrupts", KeyboardInterrupt)


# (file, schema line, column line, data rows at --max-iters 50) per command
CSV_ARTIFACTS = {
    "run": ("trace.csv", "# proxsplit-trace v1",
            "k,fp_residual_sq,opt_residual,mse,elapsed_ms", 50),
    "sweep": ("sweep.csv", "# proxsplit-sweep v1", "alpha,beta,iterations,final_mse", 2),
    "protocol": ("protocol.csv", "# proxsplit-protocol v1",
                 "mode,iterations,speedup,xi,converged", 7),
}


@pytest.mark.parametrize("command", CSV_ARTIFACTS)
def test_csv_artifacts_share_one_layout(tmp_path, command):
    name, schema, columns, count = CSV_ARTIFACTS[command]
    out = tmp_path / command
    extra = ["--alpha-grid", "0.5,1"] if command == "sweep" else []
    main([command, *BQP_SMALL, *extra, "--max-iters", "50", "--out", str(out)])
    data = (out / name).read_bytes()
    assert b"\r" not in data  # every line ends in "\n" alone
    lines = data.decode().splitlines()
    assert lines[:2] == [schema, columns]
    assert len(lines) == 2 + count
    # no cell is empty or quoted
    for line in lines[2:]:
        cells = line.split(",")
        assert len(cells) == len(columns.split(",")) and all(cells) and '"' not in line


def test_alpha_sweep_has_a_single_trough(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--app", "bqp", "--n", "8", "--k", "10", "--seed", "3",
                 "--alpha-grid", "0.02:5:9", "--max-iters", "20000",
                 "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    iters = [int(row.split(",")[2]) for row in rows]
    best = int(np.argmin(iters))
    assert 0 < best < len(iters) - 1
    for i in range(best):
        assert iters[i] > iters[i + 1]
    for i in range(best, len(iters) - 1):
        assert iters[i] < iters[i + 1]
    # the end-of-grid runs pay an order of magnitude over the trough
    assert min(iters[0], iters[-1]) > 10 * iters[best]


def read_protocol(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# proxsplit-protocol v1"
    assert lines[1] == "mode,iterations,speedup,xi,converged"
    return [line.split(",") for line in lines[2:]]


# Each row's iteration count on these draws is pinned, in table order, so a
# change to a protocol table or to the solver's recursion shows up here.
@pytest.mark.parametrize("args, expected", [
    (BQP_SMALL, [("identity", 2190), ("est-alpha", 85), ("est-beta", 739), ("est-joint", 93),
                 ("opt-alpha", 150), ("opt-beta", 743), ("opt-joint", 97)]),
    (SR_SMALL, [("identity", 2367), ("est-joint", 82), ("est-alpha", 156), ("est-beta", 498)]),
], ids=["bqp", "sr"])
def test_protocol_iteration_counts(tmp_path, args, expected):
    out = tmp_path / "protocol"
    assert main(["protocol", *args, "--out", str(out)]) == 0
    rows = read_protocol(out / "protocol.csv")
    assert [(row[0], int(row[1])) for row in rows] == expected
    assert all(row[4] == "True" for row in rows)
    assert float(rows[0][2]) == 1.0 and float(rows[0][3]) == pytest.approx(1.0, rel=1e-12)
    assert json.loads((out / "reference.json").read_text())["converged"] is True


def test_protocol_hitting_the_cap_exits_two(tmp_path):
    out = tmp_path / "capped"
    assert main(["protocol", *BQP_SMALL, "--max-iters", "5", "--out", str(out)]) == 2
    rows = read_protocol(out / "protocol.csv")
    assert len(rows) == 7
    assert all(row[1] == "5" and row[4] == "False" for row in rows)


@pytest.mark.parametrize("small, iterations", [(BQP_SMALL, 93), (SR_SMALL, 82)],
                         ids=["bqp", "sr"])
def test_estimate_run_matches_the_protocol_row(tmp_path, small, iterations):
    # the est-joint counts pinned by test_protocol_iteration_counts
    out = tmp_path / "est"
    assert main(["run", *small, "--param-mode", "estimate", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == iterations
    assert summary["rate_check"] == {"ok": True, "first_violation": None,
                                     "checked": iterations}
    assert sorted(path.name for path in out.iterdir()) == [
        "reference.json", "summary.json", "trace.csv"]


# The reference-based modes; on BQP_SMALL their counts are the opt-alpha,
# opt-beta and opt-joint rows of test_protocol_iteration_counts.
@pytest.mark.parametrize("small, mode, iterations", [
    (BQP_SMALL, "sdp-separate-alpha", 150), (BQP_SMALL, "sdp-separate-beta", 743),
    (BQP_SMALL, "sdp-joint-opt", 97),
    (SR_SMALL, "sdp-separate-alpha", 120), (SR_SMALL, "sdp-separate-beta", 521),
    (SR_SMALL, "sdp-joint-opt", 66),
], ids=lambda v: v[1] if isinstance(v, list) else None)
def test_reference_param_modes_run(tmp_path, small, mode, iterations):
    out = tmp_path / mode
    assert main(["run", *small, "--param-mode", mode, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == iterations
    assert summary["rate_check"]["ok"] is True


def test_run_audits_against_the_exact_start_distance(tmp_path, monkeypatch):
    # from a zero start the distance to the fixed point is the gain's numerator,
    # not the distance to the run's last iterate
    bounds = []
    rate_check = cli.rate_check

    def recording_rate_check(trace, bound):
        bounds.append(bound)
        return rate_check(trace, bound)

    monkeypatch.setattr(cli, "rate_check", recording_rate_check)
    out = tmp_path / "run"
    assert main(["run", *SR_SMALL, "--param-mode", "sdp-joint-opt", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [(b.l_coco, b.anchor_sq) for b in bounds] == [(1.0, summary["xi_numerator"])]


def test_one_step_run_reports_no_cocoercivity_level(tmp_path):
    # the summary carries only the audit against the basic bound, which at a
    # single step checks one row; the capped run is not converged, so exit 2
    out = tmp_path / "one"
    assert main(["run", *BQP_SMALL, "--max-iters", "1", "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 1 and summary["converged"] is False
    assert summary["rate_check"]["checked"] == 1


def test_gen_matches_in_process_generators(tmp_path, capsys):
    bqp_path = tmp_path / "bqp.json"
    assert main(["gen", "--app", "bqp", "--n", "7", "--k", "9", "--seed", "4",
                 "--out", str(bqp_path)]) == 0
    inst = load_instance(bqp_path)
    direct = gen_bqp(7, 9, 0.05, 1.0, 4)
    assert np.array_equal(inst.a, direct.a)
    assert np.array_equal(inst.b, direct.b)
    # a copy through --instance reports the seed the file holds
    capsys.readouterr()
    assert main(["gen", "--app", "bqp", "--instance", str(bqp_path),
                 "--out", str(tmp_path / "copy.json")]) == 0
    assert "seed=4" in capsys.readouterr().out
    assert (tmp_path / "copy.json").read_text() == bqp_path.read_text()

    sr_path = tmp_path / "sr.json"
    assert main(["gen", "--app", "sr", "--n", "16", "--k", "3", "--seed", "4",
                 "--out", str(sr_path)]) == 0
    inst = load_instance(sr_path)
    direct = gen_sr(16, 3, 2.0, 0.8, 4)
    assert np.array_equal(inst.taus, direct.taus)
    assert np.array_equal(inst.x_star, direct.x_star)
    assert np.array_equal(inst.omega, direct.omega)


def test_run_on_saved_instance(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert main(["gen", *BQP_SMALL, "--out", str(inst_path)]) == 0
    out_file = tmp_path / "file_run"
    assert main(["run", "--app", "bqp", "--instance", str(inst_path),
                 "--param-mode", "estimate", "--out", str(out_file)]) == 0
    out_fresh = tmp_path / "fresh_run"
    assert main(["run", *BQP_SMALL, "--param-mode", "estimate",
                 "--out", str(out_fresh)]) == 0
    assert drop_timing(out_file / "trace.csv") == drop_timing(out_fresh / "trace.csv")
    # run and protocol report the seed the file holds, not the --seed default of 0
    assert json.loads((out_file / "summary.json").read_text())["seed"] == 5
    capsys.readouterr()
    assert main(["protocol", "--app", "bqp", "--instance", str(inst_path),
                 "--out", str(tmp_path / "protocol")]) == 0
    assert "seed=5)" in capsys.readouterr().out
    # the file pins the problem kind; asking for the other app is an error
    assert main(["run", "--app", "sr", "--instance", str(inst_path),
                 "--out", str(tmp_path / "bad")]) == 1


def _nan_entry(doc):
    doc["a"]["data"][0][0] = float("nan")


def _repeated_omega(doc):
    doc["omega"]["data"][1] = doc["omega"]["data"][0]


def _tripled_g_f_pair(doc):
    # the solver would run on the file's g_f, the a-priori parameter on a and b
    for i, j in ((0, 1), (1, 0)):
        doc["g_f"]["data"][i][j] *= 3.0


def _changed_sr_objective(doc):
    doc["g_f"]["data"][-1][-1] = 1.0  # 0.5 for every SR instance


def _doubled_observed_sample(doc):
    i = doc["omega"]["data"][0]
    doc["x_star"]["re"][i] *= 2.0
    doc["x_star"]["im"][i] *= 2.0


def _crowded_spikes(doc):
    # x_star follows the moved spike, so only the 1/n separation is broken
    taus = doc["taus"]["data"]
    taus[1] = taus[0] + 0.001
    x_star = _spike_samples(doc["n"], np.array(taus), _decode_array(doc["c"]))
    doc["x_star"].update(re=x_star.real.tolist(), im=x_star.imag.tolist())


def _spike_outside_the_circle(doc):
    # a whole turn away gives the same samples, within the 1e-12 of the x_star check
    doc["taus"]["data"][0] += 1.0


# (id, small instance, spoil); the spoil returns the document to write, or None
# for the one it edited in place
BAD_INSTANCES = [
    ("missing", BQP_SMALL, None),
    ("schema", BQP_SMALL, lambda doc: doc.update(schema="x")),
    ("nan", BQP_SMALL, _nan_entry),
    ("shape", BQP_SMALL, lambda doc: doc.update(b={"shape": [3], "dtype": "float",
                                                   "data": [0.0] * 3})),
    ("malformed", BQP_SMALL, lambda doc: doc.update(a=[1.0])),
    ("list", BQP_SMALL, lambda doc: [doc]),
    ("sigma-a-zero", BQP_SMALL, lambda doc: doc.update(sigma_a=0.0)),
    ("sigma-b-bool", BQP_SMALL, lambda doc: doc.update(sigma_b=True)),
    ("seed-negative", BQP_SMALL, lambda doc: doc.update(seed=-1)),
    ("seed-bool", BQP_SMALL, lambda doc: doc.update(seed=True)),
    ("seed-float", BQP_SMALL, lambda doc: doc.update(seed=5.0)),
    ("sr-sigma-nan", SR_SMALL, lambda doc: doc.update(sigma=float("nan"))),
    ("sr-sigma-negative", SR_SMALL, lambda doc: doc.update(sigma=-1)),
    ("sr-sigma-text", SR_SMALL, lambda doc: doc.update(sigma="x")),
    ("sr-obs-frac-above-one", SR_SMALL, lambda doc: doc.update(obs_frac=1.5)),
    ("sr-obs-frac-zero", SR_SMALL, lambda doc: doc.update(obs_frac=0)),
    ("sr-omega-repeated", SR_SMALL, _repeated_omega),
    ("sr-omega-empty", SR_SMALL,
     lambda doc: doc.update(omega={"shape": [0], "dtype": "int", "data": []})),
    ("bqp-g-f-contradicts-a-b", BQP_SMALL, _tripled_g_f_pair),
    ("sr-g-f-contradicts-n", SR_SMALL, _changed_sr_objective),
    ("sr-x-star-contradicts-spikes", SR_SMALL, _doubled_observed_sample),
    ("sr-omega-contradicts-obs-frac", SR_SMALL,
     lambda doc: doc["omega"].update(shape=[1], data=doc["omega"]["data"][:1])),
    ("sr-spikes-crowded", SR_SMALL, _crowded_spikes),
    ("sr-spike-outside-unit-interval", SR_SMALL, _spike_outside_the_circle),
]


@pytest.mark.parametrize("small, spoil", [case[1:] for case in BAD_INSTANCES],
                         ids=[case[0] for case in BAD_INSTANCES])
def test_bad_instance_file_exits_one(tmp_path, capsys, small, spoil):
    path = tmp_path / "inst.json"
    if spoil is not None:
        assert main(["gen", *small, "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(spoil(doc) or doc))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", *small[:2], "--instance", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot load instance")
    assert not out.exists()


def test_config_errors_exit_one(tmp_path, capsys):
    out = str(tmp_path / "o")
    # modes that are not runnable are usage errors: argparse exits with 2;
    # scalar-opt too: sdp-separate-alpha already runs the optimal scalar
    for mode in ("diag-opt", "sweep", "scalar-opt"):
        with pytest.raises(SystemExit) as exc:
            main(["run", *BQP_SMALL, "--param-mode", mode, "--out", out])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    assert main(["run", *BQP_SMALL, "--param-mode", "manual",
                 "--alpha", "2", "--out", out]) == 1
    assert main(["sweep", *BQP_SMALL, "--out", out]) == 1
    assert main(["sweep", *BQP_SMALL, "--alpha-grid", "0:5:3", "--out", out]) == 1
    assert main(["run", *BQP_SMALL, "--max-iters", "-3", "--out", out]) == 1
    # from a config file the same value is a configuration error
    cfg = tmp_path / "mode.cfg"
    for mode in ("sweep", "scalar-opt"):
        cfg.write_text(f"param_mode = {mode}\n")
        assert main(["run", *BQP_SMALL, "--config", str(cfg), "--out", out]) == 1
        assert "param-mode" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
def test_unreadable_config_file_exits_one(tmp_path, capsys, kind):
    path = tmp_path / "exp.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"\xff\xfeapp = bqp\n")
    out = tmp_path / "out"
    assert main(["run", *BQP_SMALL, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config file")
    assert not out.exists()


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    # as editors that save "UTF-8 with BOM" write it
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfapp = sr\nn = 12\n")
    cfg = resolve_config(build_parser().parse_args(["gen", "--config", str(path)]))
    assert (cfg.app, cfg.n) == ("sr", 12)


@pytest.mark.parametrize("command", ["run", "sweep", "protocol"])
def test_unconverged_reference_exits_two(tmp_path, capsys, command):
    out = tmp_path / command
    extra = ["--alpha-grid", "0.5,1"] if command == "sweep" else []
    code = main([command, *BQP_SMALL, "--ref-max-iters", "3", *extra, "--out", str(out)])
    assert code == 2
    assert "reference did not converge" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, where", [
    ("gen", "under_file"), ("gen", "directory"), ("run", "under_file"), ("run", "file"),
    ("sweep", "under_file"), ("protocol", "under_file"), ("run", "trace.csv"),
    ("run", "summary.json"), ("sweep", "sweep.csv"), ("protocol", "protocol.csv")])
def test_unwritable_out_exits_one(tmp_path, capsys, command, where):
    (tmp_path / "file").write_text("not a directory\n")
    out = {"under_file": tmp_path / "file" / "sub", "file": tmp_path / "file",
           "directory": tmp_path}.get(where, tmp_path / "blocked")
    if where.endswith((".csv", ".json")):  # an artifact blocked by a directory of its name
        (out / where).mkdir(parents=True)
    extra = ["--alpha-grid", "0.5,1"] if command == "sweep" else []
    assert main([command, *BQP_SMALL, *extra, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "Traceback" not in err
    assert (tmp_path / "file").read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["gen", "run", "sweep", "protocol"])
def test_more_sr_spikes_than_samples_exits_one(tmp_path, capsys, command):
    out = tmp_path / command
    extra = ["--alpha-grid", "0.5,1"] if command == "sweep" else []
    code = main([command, "--app", "sr", "--n", "5", "--k", "10", *extra, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: sr needs k <= n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "run", "sweep", "protocol"])
def test_an_sr_draw_that_observes_no_sample_exits_one(tmp_path, capsys, command):
    # round(0.01 * 12) = 0 observed samples: the solution would be zero and every row trivial
    out = tmp_path / command
    extra = ["--alpha-grid", "0.5,1"] if command == "sweep" else []
    code = main([command, *SR_SMALL, "--obs-frac", "0.01", *extra, "--out", str(out)])
    assert code == 1
    assert "observes none" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("gen", "--sigma-a", "1e200"),
    ("run", "--sigma-a", "1e200"), ("sweep", "--sigma-a", "1e200"),
    ("protocol", "--sigma-a", "1e200"),
    ("run", "--sigma-b", "1e300"), ("sweep", "--sigma-b", "1e300"),
    ("protocol", "--sigma-b", "1e300")])
def test_overflowing_bqp_data_exits_one(tmp_path, capsys, command, flag, value):
    # finite noise levels whose objective matrix (sigma_a) or a-priori
    # parameter (sigma_b) overflows
    out = tmp_path / command
    extra = ["--alpha-grid", "0.5,1"] if command == "sweep" else []
    code = main([command, "--app", "bqp", "--n", "4", "--k", "3", flag, value, *extra,
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "protocol"])
def test_diverging_solve_exits_two(tmp_path, capsys, command):
    # a solution whose norm exceeds splitting.DIVERGENCE_LIMIT stops the reference solve
    out = tmp_path / command
    extra = ["--alpha-grid", "0.5,1"] if command == "sweep" else []
    code = main([command, "--app", "sr", "--n", "12", "--k", "3", "--sigma", "1e300",
                 *extra, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: solve diverged: ") and "Traceback" not in err
    assert not out.exists()


def test_unseparable_sr_spikes_exit_one(tmp_path, capsys):
    # two spikes at least 1/2 apart on the unit circle must be exactly antipodal,
    # which no draw can promise after rounding, so the generator refuses
    out = tmp_path / "inst.json"
    assert main(["gen", "--app", "sr", "--n", "2", "--k", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot generate sr instance")
    assert "separated spike locations" in err
    assert not out.exists()


def test_hitting_the_cap_exits_two(tmp_path):
    out = tmp_path / "capped"
    code = main(["run", *BQP_SMALL, "--param-mode", "identity",
                 "--max-iters", "5", "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stop_reason"] == "max_iters"
    assert summary["converged"] is False
    assert summary["iterations"] == 5


def test_environment_does_not_set_the_seed(tmp_path, monkeypatch):
    # flags and config files are the only sources of settings
    monkeypatch.setenv("PROXSPLIT_SEED", "9")
    path = tmp_path / "inst.json"
    assert main(["gen", "--app", "bqp", "--n", "5", "--k", "6", "--out", str(path)]) == 0
    assert json.loads(path.read_text())["seed"] == 0


def test_config_file_merges_under_flags(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "app = bqp\n"
        "n = 6\n"
        "k = 8\n"
        "seed = 5\n"
        "param_mode = identity\n"
    )
    out_file = tmp_path / "from_file"
    assert main(["run", "--config", str(cfg), "--out", str(out_file)]) == 0
    s = json.loads((out_file / "summary.json").read_text())
    assert (s["app"], s["n"], s["k"], s["seed"]) == ("bqp", 6, 8, 5)
    assert s["param_mode"] == "identity"

    out_flag = tmp_path / "overridden"
    assert main(["run", "--config", str(cfg), "--param-mode", "estimate",
                 "--out", str(out_flag)]) == 0
    assert json.loads((out_flag / "summary.json").read_text())["param_mode"] == "estimate"

    bad = tmp_path / "bad.cfg"
    bad.write_text("apps = bqp\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1


COMMANDS = ("gen", "run", "sweep", "protocol")
# one valid, non-default value per setting; the key set must track ExperimentConfig
EVERY_SETTING = {"app": "sr", "n": 12, "k": 3, "sigma_a": 0.1, "sigma_b": 2.0,
                 "sigma": 1.5, "obs_frac": 0.5, "seed": 7, "param_mode": "manual",
                 "alpha": 0.5, "beta": 2.0, "mse_eps": 1e-5,
                 "opt_eps": 1e-9, "max_iters": 50, "ref_eps": 1e-9, "ref_max_iters": 60,
                 "out": "o", "jobs": 2, "alpha_grid": "1,2", "beta_grid": "0.5:2:3",
                 "instance": "i.json"}
# the settings each command reads, which are its only flags and config keys
GEN_SETTINGS = {"app", "n", "k", "sigma_a", "sigma_b", "sigma", "obs_frac", "seed", "instance",
                "out"}
STOP_SETTINGS = {"mse_eps", "opt_eps", "max_iters", "ref_eps", "ref_max_iters"}
TAKES = {"gen": GEN_SETTINGS,
         "run": GEN_SETTINGS | STOP_SETTINGS | {"param_mode", "alpha", "beta"},
         "sweep": GEN_SETTINGS | STOP_SETTINGS | {"jobs", "alpha_grid", "beta_grid"},
         "protocol": GEN_SETTINGS | STOP_SETTINGS | {"jobs"}}
# what each app's generator reads; an instance file pins all of it
GENERATOR = {"bqp": {"n", "k", "seed", "sigma_a", "sigma_b"},
             "sr": {"n", "k", "seed", "sigma", "obs_frac"}}
# the settings that let a setting be read on its own: the SR app for its
# generator's, and manual mode with both weights for the mode and the weights
READ_WITH = {"sigma": {"app": "sr"}, "obs_frac": {"app": "sr"},
             **dict.fromkeys(["param_mode", "alpha", "beta"],
                             {"param_mode": "manual", "alpha": 0.5, "beta": 2.0})}


def readable_settings(command):
    """``EVERY_SETTING`` cut to what ``command`` reads, in one set per app and one beside a file.

    The three sets together hold every setting the command reads.
    """
    cut = {"bqp": GENERATOR["sr"] - GENERATOR["bqp"] | {"instance"},
           "sr": GENERATOR["bqp"] - GENERATOR["sr"] | {"instance"},
           "file": GENERATOR["bqp"] | GENERATOR["sr"]}
    for case, unread in cut.items():
        settings = {name: value for name, value in EVERY_SETTING.items()
                    if name in TAKES[command] - unread}
        settings["app"] = "bqp" if case == "bqp" else "sr"
        expected = ExperimentConfig(**settings)
        expected.validate()  # the app's default n and k beside a file
        yield settings, expected


def test_every_setting_is_a_dashed_flag_of_the_commands_that_read_it():
    assert list(EVERY_SETTING) == [f.name for f in fields(ExperimentConfig)]
    assert {command: set(row[2]) for command, row in cli.COMMANDS.items()} == TAKES
    assert sum(map(len, TAKES.values())) == 62 and len(TAKES) * len(EVERY_SETTING) == 84
    for command in COMMANDS:
        for settings, expected in readable_settings(command):
            argv = [tok for name, value in settings.items()
                    for tok in ("--" + name.replace("_", "-"), str(value))]
            assert resolve_config(build_parser().parse_args([command, *argv])) == expected


@pytest.mark.parametrize("sep", ["_", "-"])
def test_every_setting_is_a_config_key_of_the_commands_that_read_it(tmp_path, sep):
    path = tmp_path / "all.cfg"
    for command in COMMANDS:
        for settings, expected in readable_settings(command):
            path.write_text("".join(f"{name.replace('_', sep)} = {value}\n"
                                    for name, value in settings.items()))
            args = build_parser().parse_args([command, "--config", str(path)])
            assert resolve_config(args) == expected


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", EVERY_SETTING)
def test_a_command_takes_exactly_the_settings_it_reads(tmp_path, command, name):
    # the flag, and the config key in both spellings, are taken exactly when
    # the command reads the setting; sweep's --alpha is no abbreviated --alpha-grid
    value = str(EVERY_SETTING[name])
    argv = [command, "--" + name.replace("_", "-"), value]
    if name in TAKES[command]:
        assert getattr(build_parser().parse_args(argv), name) == value
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
    settings = {**READ_WITH.get(name, {}), name: EVERY_SETTING[name]}
    for sep in "_-":
        path = tmp_path / f"{sep}.cfg"
        path.write_text("".join(f"{key.replace('_', sep)} = {val}\n"
                                for key, val in settings.items()))
        args = build_parser().parse_args([command, "--config", str(path)])
        if name in TAKES[command]:
            assert getattr(resolve_config(args), name) == EVERY_SETTING[name]
        else:
            with pytest.raises(cli.ConfigError, match=f"{command} does not take: .*'{name}'"):
                resolve_config(args)


@pytest.mark.parametrize("argv", [
    ["protocol", *BQP_SMALL, "--param-mode", "manual"],
    ["run", *BQP_SMALL, "--jobs", "2"],
    ["sweep", "--alpha", "1"],
    ["gen", "--ref-eps", "1e-9"],
], ids=lambda argv: argv[0])
def test_a_flag_the_command_does_not_take_is_refused_under_its_usage_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: proxsplit {argv[0]} [-h] [--app ")
    assert err.endswith(f"proxsplit {argv[0]}: error: unrecognized arguments: "
                        f"{' '.join(argv[-2:])}\n")


# each float setting fails on nan and inf, each int setting below its floor
OUT_OF_RANGE = ([(name, bad) for name, value in EVERY_SETTING.items()
                 if isinstance(value, float) for bad in ("nan", "inf")]
                + [(name, "-1" if name == "seed" else "0")
                   for name, value in EVERY_SETTING.items() if type(value) is int]
                + [("obs_frac", "1.5")])


@pytest.mark.parametrize("name, value", OUT_OF_RANGE)
def test_out_of_range_settings_exit_one(tmp_path, capsys, name, value):
    # through the first command that reads the setting, on an app that reads it
    command = next(command for command in COMMANDS if name in TAKES[command])
    app = "sr" if name in GENERATOR["sr"] - GENERATOR["bqp"] else "bqp"
    out = tmp_path / "out"
    code = main([command, "--app", app, "--n", "4", "--k", "3",
                 "--" + name.replace("_", "-"), value, "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} must ") and captured.out == ""
    assert not out.exists()


# (command, argv after it, config file text or None, what stderr names)
UNREAD_SETTINGS = [
    ("run", ["--app", "bqp", "--instance", "{inst}", "--seed", "9", "--n", "30",
             "--sigma-a", "7"], None, "the --instance file pins n, seed, sigma_a"),
    ("gen", ["--app", "sr", "--instance", "{inst}"], "seed = 9\n",
     "the --instance file pins seed"),
    ("gen", ["--app", "sr", "--sigma-a", "9", "--sigma-b", "9"], None,
     "app sr does not read sigma_a, sigma_b"),
    ("protocol", ["--app", "bqp", "--n", "6", "--k", "8"], "obs-frac = 0.5\n",
     "app bqp does not read obs_frac"),
    ("run", [*BQP_SMALL, "--alpha", "1"], None, "param-mode estimate does not read alpha"),
    ("run", [*BQP_SMALL, "--beta", "2"], "param_mode = identity\n",
     "param-mode identity does not read beta"),
    ("sweep", [*BQP_SMALL, "--alpha-grid", "1"], "seed = 1\nn = 6\nseed = 3\n",
     ".cfg:3: seed is already set on line 1"),
    ("gen", BQP_SMALL, "jobs = 2\n", "config keys that gen does not take: ['jobs']"),
    ("gen", BQP_SMALL, "n = 6\nseed 5\n", ".cfg:2: expected 'key = value'"),
]


@pytest.mark.parametrize("command, argv, config, message", UNREAD_SETTINGS,
                         ids=["instance-flags", "instance-config-key", "sr-sigma-a",
                              "bqp-obs-frac", "estimate-alpha", "identity-beta",
                              "repeated-key", "key-gen-does-not-take", "line-without-equals"])
def test_settings_left_unread_exit_one_before_any_instance(tmp_path, capsys, monkeypatch,
                                                           command, argv, config, message):
    def never(*args, **kwargs):
        raise AssertionError("an instance or a reference for a refused setting")

    # refused on the settings alone: no instance is generated or loaded, no reference solved
    for name in ("gen_bqp", "gen_sr", "load_instance", "reference_solve"):
        monkeypatch.setattr(cli, name, never)
    argv = [tok.format(inst=tmp_path / "inst.json") for tok in argv]
    if config is not None:
        (tmp_path / "exp.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "exp.cfg")]
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("run", ["--param-mode", "manual", "--alpha", "1e-200", "--beta", "1e-200"]),
    ("run", ["--param-mode", "manual", "--alpha", "1e200", "--beta", "1e200"]),
    ("sweep", ["--alpha-grid", "1,1e-200", "--beta-grid", "1e-200"]),
    ("sweep", ["--alpha-grid", "1e200", "--beta-grid", "1,1e200"])],
    ids=["manual-underflow", "manual-overflow", "sweep-underflow", "sweep-overflow"])
def test_weights_that_underflow_or_overflow_exit_one(tmp_path, capsys, monkeypatch, command,
                                                     extra):
    def no_reference(*args, **kwargs):
        raise AssertionError("reference solved for a refused parameter")

    # the weights do not depend on the instance: they are refused before its reference
    monkeypatch.setattr(cli, "reference_solve", no_reference)
    # alpha * beta is 0 or inf in double precision, which the solve cannot undo
    out = tmp_path / command
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, *BQP_SMALL, *extra, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "alpha*beta" in captured.err
    assert captured.err.startswith("error: alpha=1e") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("spec", ["0.3:3:1", "0.3:3:3", "0.02:5:9"])
def test_log_grid_hits_both_ends_exactly(spec):
    # np.logspace alone gives 0.29999999999999993, 0.020000000000000004 and 5.000000000000001
    lo, hi, count = (float(tok) for tok in spec.split(":"))
    inner = np.logspace(np.log10(lo), np.log10(hi), int(count))[1:-1]
    assert cli._parse_grid(spec).tolist() == ([lo] if count == 1 else [lo, *inner, hi])


@pytest.mark.parametrize("command, argv, config", [
    ("gen", ["--instance", ""], None), ("gen", [], "instance =\n"),
    ("run", ["--instance", ""], None), ("run", [], "instance =\n")],
    ids=["gen-flag", "gen-config-key", "run-flag", "run-config-key"])
def test_an_empty_instance_setting_is_refused_not_ignored(tmp_path, capsys, monkeypatch,
                                                          command, argv, config):
    def never(*args, **kwargs):
        raise AssertionError("an instance generated or a reference solved for an empty setting")

    for name in ("gen_bqp", "reference_solve"):
        monkeypatch.setattr(cli, name, never)
    if config is not None:
        (tmp_path / "exp.cfg").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "exp.cfg")]
    out = tmp_path / "out"
    assert main([command, "--app", "bqp", *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot load instance ") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "run", "sweep", "protocol"])
@pytest.mark.parametrize("source", ["flag", "config-key"])
def test_an_empty_out_setting_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                         command, source):
    def never(*args, **kwargs):
        raise AssertionError("an instance generated or a reference solved for an empty out")

    for name in ("gen_bqp", "reference_solve"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.chdir(tmp_path)  # where an empty out would put the artifacts
    argv = [command, *BQP_SMALL, *(["--alpha-grid", "1"] if command == "sweep" else [])]
    if source == "flag":
        argv += ["--out", ""]
    else:
        (tmp_path / "exp.cfg").write_text("out =\n")
        argv += ["--config", str(tmp_path / "exp.cfg")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: out must name a path; it is empty\n" and captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == (
        [] if source == "flag" else ["exp.cfg"])


@pytest.mark.parametrize("flag", ["--alpha-grid", "--beta-grid"])
@pytest.mark.parametrize("grid", ["nan", "1:inf:3", "nan:1:3", "0.5,inf",
                                  pytest.param("", id="empty")])
def test_non_finite_grid_exits_one(tmp_path, capsys, flag, grid):
    out = tmp_path / "sweep"
    assert main(["sweep", *BQP_SMALL, flag, grid, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad grid spec") and captured.out == ""
    assert not out.exists()


def test_none_and_off_switch_the_stopping_checks_off(tmp_path):
    path = tmp_path / "off.cfg"
    path.write_text("opt_eps = none\n")
    out = tmp_path / "off"
    # with neither check on, only the iteration cap can stop the run
    assert main(["run", *BQP_SMALL, "--config", str(path), "--mse-eps", "off",
                 "--max-iters", "7", "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mse_eps"] is None and summary["opt_eps"] is None
    assert summary["stop_reason"] == "max_iters" and summary["iterations"] == 7


@pytest.mark.parametrize("flag, value", [("--alpha", "none"), ("--n", "1.5"),
                                         ("--obs-frac", "x")])
def test_bad_setting_values_exit_one(tmp_path, capsys, flag, value):
    out = tmp_path / "bad"
    assert main(["run", *BQP_SMALL, flag, value, "--out", str(out)]) == 1
    key = flag[2:].replace("-", "_")
    assert f"error: bad value for {key}: {value!r}" in capsys.readouterr().err
    assert not out.exists()
