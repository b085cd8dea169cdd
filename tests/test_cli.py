"""End-to-end driver tests: artifacts, determinism, exit codes.

Everything goes through ``main`` (or its parser and config resolution)
in-process on small instances, so the assertions cover argument handling,
config merging and artifact layout exactly as a shell user would hit them.
"""

import json
from dataclasses import fields

import numpy as np
import pytest

from proxsplit.cli import ExperimentConfig, build_parser, main, resolve_config
from proxsplit.params import param_from_config
from proxsplit.problems import _decode_array, gen_bqp, gen_sr, load_instance
from proxsplit.tuning import SolutionPair, acceleration_gain

BQP_SMALL = ["--app", "bqp", "--n", "6", "--k", "8", "--seed", "5"]
SR_SMALL = ["--app", "sr", "--n", "12", "--k", "3", "--seed", "5"]


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
    assert summary["schema"] == "proxsplit-summary v1"
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
    param = param_from_config(summary["param"])
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


def test_sweep_thread_count_does_not_change_output(tmp_path):
    args = ["sweep", *BQP_SMALL, "--alpha-grid", "0.3:3:3", "--beta-grid", "0.5,2"]
    out1, out2 = tmp_path / "serial", tmp_path / "pool"
    assert main([*args, "--jobs", "1", "--out", str(out1)]) == 0
    assert main([*args, "--jobs", "2", "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()


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


def test_ratecheck_report(tmp_path):
    out = tmp_path / "rc"
    code = main(["ratecheck", *BQP_SMALL, "--param-mode", "estimate",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "ratecheck.json").read_text())
    assert doc["schema"] == "proxsplit-ratecheck v1"
    assert doc["basic"]["ok"] is True
    assert doc["basic"]["first_violation"] is None
    assert doc["basic"]["checked"] == doc["iterations"]
    assert 0.0 < doc["l_hat"] <= 1.0
    assert doc["approximate_fixed_point"] is True
    # the pinned calibration numbers follow the decay-factor formula
    a = 0.99 / (2.0 - 0.99)
    for key, k in (("k20", 20), ("k100", 100)):
        want = a ** k * (1 - a) / (1 - a ** (k + 1))
        assert doc["calibration"][key] == pytest.approx(want, rel=1e-12)
    assert doc["calibration"]["k20"] == pytest.approx(0.0387, rel=2e-2)
    assert doc["calibration"]["k100"] == pytest.approx(0.0031, rel=2e-2)


def test_gen_matches_in_process_generators(tmp_path):
    bqp_path = tmp_path / "bqp.json"
    assert main(["gen", "--app", "bqp", "--n", "7", "--k", "9", "--seed", "4",
                 "--out", str(bqp_path)]) == 0
    inst = load_instance(bqp_path)
    direct = gen_bqp(7, 9, 0.05, 1.0, 4)
    assert np.array_equal(inst.a, direct.a)
    assert np.array_equal(inst.b, direct.b)

    sr_path = tmp_path / "sr.json"
    assert main(["gen", "--app", "sr", "--n", "16", "--k", "3", "--seed", "4",
                 "--out", str(sr_path)]) == 0
    inst = load_instance(sr_path)
    direct = gen_sr(16, 3, 2.0, 0.8, 4)
    assert np.array_equal(inst.taus, direct.taus)
    assert np.array_equal(inst.x_star, direct.x_star)
    assert np.array_equal(inst.omega, direct.omega)


def test_run_on_saved_instance(tmp_path):
    inst_path = tmp_path / "inst.json"
    assert main(["gen", *BQP_SMALL, "--out", str(inst_path)]) == 0
    out_file = tmp_path / "file_run"
    assert main(["run", "--app", "bqp", "--instance", str(inst_path),
                 "--param-mode", "estimate", "--out", str(out_file)]) == 0
    out_fresh = tmp_path / "fresh_run"
    assert main(["run", *BQP_SMALL, "--param-mode", "estimate",
                 "--out", str(out_fresh)]) == 0
    assert drop_timing(out_file / "trace.csv") == drop_timing(out_fresh / "trace.csv")
    # the file pins the problem kind; asking for the other app is an error
    assert main(["run", "--app", "sr", "--instance", str(inst_path),
                 "--out", str(tmp_path / "bad")]) == 1


def _nan_entry(doc):
    doc["a"]["data"][0][0] = float("nan")


@pytest.mark.parametrize("spoil", [
    None,
    lambda doc: doc.update(schema="x"),
    _nan_entry,
    lambda doc: doc.update(b={"shape": [3], "dtype": "float", "data": [0.0] * 3}),
    lambda doc: doc.update(a=[1.0]),
], ids=["missing", "schema", "nan", "shape", "malformed"])
def test_bad_instance_file_exits_one(tmp_path, capsys, spoil):
    path = tmp_path / "inst.json"
    if spoil is not None:
        assert main(["gen", *BQP_SMALL, "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        spoil(doc)
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--app", "bqp", "--instance", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot load instance")
    assert not out.exists()


def test_config_errors_exit_one(tmp_path, capsys):
    out = str(tmp_path / "o")
    # modes that are not runnable are usage errors: argparse exits with 2
    for mode in ("diag-opt", "sweep"):
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
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("param_mode = sweep\n")
    assert main(["run", *BQP_SMALL, "--config", str(cfg), "--out", out]) == 1
    assert "param-mode" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "ratecheck", "protocol"])
def test_unconverged_reference_exits_two(tmp_path, capsys, command):
    out = tmp_path / command
    extra = ["--alpha-grid", "0.5,1"] if command == "sweep" else []
    code = main([command, *BQP_SMALL, "--ref-max-iters", "3", *extra, "--out", str(out)])
    assert code == 2
    assert "reference did not converge" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "run", "sweep", "protocol"])
def test_more_sr_spikes_than_samples_exits_one(tmp_path, capsys, command):
    out = tmp_path / command
    extra = ["--alpha-grid", "0.5,1"] if command == "sweep" else []
    code = main([command, "--app", "sr", "--n", "5", "--k", "10", *extra, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: sr needs k <= n")
    assert not out.exists()


def test_unseparable_sr_spikes_exit_one(tmp_path, capsys):
    # two spikes at least 1/2 apart on the unit circle must be exactly antipodal,
    # so every random draw is rejected until the generator gives up
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


def test_environment_seed_is_a_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PROXSPLIT_SEED", "9")
    env_path = tmp_path / "env.json"
    assert main(["gen", "--app", "bqp", "--n", "5", "--k", "6",
                 "--out", str(env_path)]) == 0
    assert json.loads(env_path.read_text())["seed"] == 9

    flag_path = tmp_path / "flag.json"
    assert main(["gen", "--app", "bqp", "--n", "5", "--k", "6", "--seed", "4",
                 "--out", str(flag_path)]) == 0
    assert json.loads(flag_path.read_text())["seed"] == 4


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


def test_other_algorithms_run_through_the_driver(tmp_path):
    iters = {}
    for algo in ("drs", "admm", "pd", "pdf"):
        out = tmp_path / algo
        assert main(["run", *BQP_SMALL, "--param-mode", "estimate",
                     "--algo", algo, "--out", str(out)]) == 0
        iters[algo] = json.loads((out / "summary.json").read_text())["iterations"]
    # matched starts make every formulation stop at the same step
    assert len(set(iters.values())) == 1


COMMANDS = ("run", "sweep", "protocol", "ratecheck", "gen")
# one valid, non-default value per setting; the key set must track ExperimentConfig
EVERY_SETTING = {"app": "sr", "n": 12, "k": 3, "sigma_a": 0.1, "sigma_b": 2.0,
                 "sigma": 1.5, "obs_frac": 0.5, "seed": 7, "param_mode": "manual",
                 "alpha": 0.5, "beta": 2.0, "algo": "pdf", "mse_eps": 1e-5,
                 "opt_eps": 1e-9, "max_iters": 50, "ref_eps": 1e-9, "ref_max_iters": 60,
                 "out": "o", "jobs": 2, "alpha_grid": "1,2", "beta_grid": "0.5:2:3",
                 "instance": "i.json"}


def test_every_setting_is_a_dashed_flag_of_every_command():
    assert list(EVERY_SETTING) == [f.name for f in fields(ExperimentConfig)]
    argv = [tok for name, value in EVERY_SETTING.items()
            for tok in ("--" + name.replace("_", "-"), str(value))]
    for command in COMMANDS:
        args = build_parser().parse_args([command, *argv])
        assert resolve_config(args) == ExperimentConfig(**EVERY_SETTING)


@pytest.mark.parametrize("sep", ["_", "-"])
def test_every_setting_is_a_config_key_of_every_command(tmp_path, sep):
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{name.replace('_', sep)} = {value}\n"
                            for name, value in EVERY_SETTING.items()))
    for command in COMMANDS:
        args = build_parser().parse_args([command, "--config", str(path)])
        assert resolve_config(args) == ExperimentConfig(**EVERY_SETTING)


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
