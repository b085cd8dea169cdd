"""The benchmark's three workloads, driven through proxsplit's public API.

Every call into the library goes through a module attribute
(``splitting.run_drs``, ``tuning.sdp_joint_search``, ...) so that the
tracer's patches see it. Each workload runs a *pass*, the unit the benchmark
repeats for its run length, and checks every output of the pass; a failed
check or an exception is one failed operation, never a crash.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import proxsplit.cli as cli
from proxsplit import params, problems, splitting, tuning

MSE_EPS = 1e-6
#: ``reference_solve``'s default optimality threshold, which the protocols use
REF_EPS = 1e-10
SWEEP_JOBS = 2
WARMUP_ITERS = 10
#: kernel repetitions per calibration burst (about 15 ms)
CAL_REPS = 16


class Calibration:
    """Fixed reference kernel timed between the units of work of a pass.

    The kernel does what one solver iteration does numerically (a real
    dim-41 and a complex dim-51 eigendecomposition, PSD rebuild and a few
    elementwise ops) with plain numpy, so no change to proxsplit moves it.
    The host's speed drifts by up to 2x over seconds to minutes; the mean
    burst time over a run tracks that drift and lets the benchmark divide it
    out. Bursts are kept outside every timed unit.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((41, 41))
        c = rng.standard_normal((51, 51)) + 1j * rng.standard_normal((51, 51))
        self.mats = (a + a.T, c + c.conj().T)
        self.samples: list[float] = []

    def burst(self, reps: int = CAL_REPS) -> float:
        t0 = time.perf_counter()
        for _ in range(reps):
            for m in self.mats:
                w, v = np.linalg.eigh(m)
                x = (v * np.maximum(w, 0.0)) @ v.conj().T
                x = 0.5 * (x + x.conj().T)
                d = 1.5 * x - m
                float(np.real(np.vdot(d, d)))
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed / reps)
        return elapsed


@dataclass
class PassResult:
    """Timings, counts and check outcomes of one pass."""

    #: the pass's time without its calibration bursts
    wall_s: float = 0.0
    ref_s: float = 0.0
    solve_s: float = 0.0
    iterations: int = 0
    ref_iterations: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: seconds and iterations per protocol row or sweep cell, keyed by its name
    unit_s: dict[str, float] = field(default_factory=dict)
    unit_iters: dict[str, int] = field(default_factory=dict)
    #: the solver's own per-iteration times (ms) of the rows or cells
    iter_ms: list[list[float]] = field(default_factory=list)
    #: sweep only: busy intervals of the cells and artifact sizes
    cells: list[tuple[float, float]] = field(default_factory=list)
    artifact_bytes: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def _check_reference(res: PassResult, ref, label: str) -> None:
    res.attempted += 1
    if not ref.converged or not ref.residual <= REF_EPS:
        res.fail(f"{label}: reference converged={ref.converged} residual={ref.residual:.3g}")


def _check_row(res: PassResult, name: str, trace) -> None:
    final = trace.mse[-1] if trace.mse else None
    if trace.stop_reason != "mse_eps" or final is None or not final <= MSE_EPS:
        res.fail(f"{name}: stop={trace.stop_reason} final_mse={final}")


def _warm_up(pair, param) -> None:
    stop = splitting.StopRule(max_iters=WARMUP_ITERS, opt_eps=None)
    splitting.run_drs(pair, param, pair.zeros(), stop)


class Protocol:
    """Reference solve, parameter selection and a table of runs to MSE <= 1e-6.

    ``order`` is the row order this run's ``--seed`` drew; every row starts
    from zero against the same reference, so the order changes no count.
    """

    max_iters = 100_000
    #: end-to-end times divided by the calibration's drift
    calibrated = ("wall_s", "ref_s", "solve_s")

    def __init__(self, instance_seed: int, run_seed: int, cal: Calibration):
        self.instance_seed = instance_seed
        self.cal = cal
        self.order = list(self.row_names)
        random.Random(run_seed).shuffle(self.order)

    def setup(self) -> None:
        self.inst = self.generate()
        self.pair = problems.build_prox_pair(self.inst)
        self.param = self.a_priori()
        _warm_up(self.pair, self.param)

    def run_pass(self) -> PassResult:
        res = PassResult()
        t_pass = time.perf_counter()
        cal_s = self.cal.burst()
        try:
            t0 = time.perf_counter()
            ref = problems.reference_solve(self.pair, self.param)
            res.ref_s = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - counted, the run goes on
            res.attempted += 1 + len(self.order)
            res.failed += 1 + len(self.order)
            res.errors.append(f"reference: {exc!r}")
            res.wall_s = time.perf_counter() - t_pass - cal_s
            return res
        res.ref_iterations = ref.iterations
        _check_reference(res, ref, "reference")
        sol = tuning.SolutionPair(ref.x_ref, ref.lam_ref, shape=self.inst.shape)
        table = self.parameter_table(sol)
        for name in self.order:
            cal_s += self.cal.burst()
            res.attempted += 1
            stop = splitting.StopRule(max_iters=self.max_iters, opt_eps=None,
                                      mse_eps=MSE_EPS, reference=ref.x_ref)
            try:
                t0 = time.perf_counter()
                _, trace = splitting.run_drs(self.pair, table[name], self.pair.zeros(), stop)
                elapsed = time.perf_counter() - t0
                tuning.acceleration_gain(table[name], sol)
            except Exception as exc:  # noqa: BLE001 - counted, the run goes on
                res.fail(f"{name}: {exc!r}")
                continue
            res.unit_s[name] = elapsed
            res.unit_iters[name] = trace.iterations
            res.solve_s += elapsed
            res.iterations += trace.iterations
            res.iter_ms.append(trace.elapsed_ms)
            _check_row(res, name, trace)
        res.wall_s = time.perf_counter() - t_pass - cal_s
        return res


class BqpProtocol(Protocol):
    """Seven-row table of ``scripts/bqp_experiment.py``."""

    row_names = ("identity", "est-alpha", "est-beta", "est-joint",
                 "opt-alpha", "opt-beta", "opt-joint")

    def generate(self):
        return problems.gen_bqp(40, 50, 0.05, 1.0, self.instance_seed)

    def a_priori(self):
        return tuning.bqp_estimate(self.inst.a, self.inst.b, self.inst.n)

    def parameter_table(self, sol):
        inst, shape = self.inst, self.inst.shape
        alpha_est, beta_est = tuning.bqp_separate_estimates(inst.a, inst.b, inst.n)
        alpha_opt, beta_opt = tuning.sdp_separate_choices(sol)
        alpha_j, beta_j = tuning.sdp_joint_search(sol, tuning.GridSpec())
        return {
            "identity": params.Identity(),
            "est-alpha": params.SdpHadamard(alpha_est, 1.0, shape),
            "est-beta": params.SdpHadamard(1.0, beta_est, shape),
            "est-joint": tuning.bqp_estimate(inst.a, inst.b, inst.n),
            "opt-alpha": params.SdpHadamard(alpha_opt, 1.0, shape),
            "opt-beta": params.SdpHadamard(1.0, beta_opt, shape),
            "opt-joint": params.SdpHadamard(alpha_j, beta_j, shape),
        }


class SrProtocol(Protocol):
    """The a-priori rows of ``scripts/sr_experiment.py``.

    The identity row (71 783 iterations, over a minute) is left out; it runs
    the same per-iteration path as est-beta.
    """

    row_names = ("est-joint", "est-alpha", "est-beta")
    max_iters = 150_000

    def generate(self):
        return problems.gen_sr(50, 10, 2.0, 0.8, self.instance_seed)

    def a_priori(self):
        return tuning.sr_estimate(self.inst.n, self.inst.k, self.inst.sigma, "joint")

    def parameter_table(self, sol):
        inst = self.inst
        return {mode: tuning.sr_estimate(inst.n, inst.k, inst.sigma, mode.split("-")[1])
                for mode in self.row_names}


class _Probe:
    """Always-on timers around ``cli.reference_solve`` and ``cli.solve``.

    They give the sweep's reference and per-cell times, which the CLI does
    not report; one pair of clock reads per call, a handful per pass.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.refs: list[tuple[float, float, object]] = []
        self.cells: list[tuple[float, float, object]] = []

    def install(self) -> None:
        cli.reference_solve = self._timed(cli.reference_solve, "refs")
        cli.solve = self._timed(cli.solve, "cells")

    def _timed(self, fn, sink: str):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
            with self.lock:
                getattr(self, sink).append((t0, t1, out))
            return out
        return timed

    def drain(self):
        with self.lock:
            refs, cells = self.refs, self.cells
            self.refs, self.cells = [], []
        return refs, cells


class BqpSweep:
    """``proxsplit sweep`` in process: 3x3 alpha x beta grid, two threads.

    The grid runs from a third to three times the a-priori estimate on each
    axis, in a fixed order, so the two threads always get the same schedule.
    """

    #: bursts before each pass; the CLI gives no place to calibrate inside one
    cal_bursts = 8
    #: The bursts only report the host's state here. On one thread between
    #: passes they did not predict a two-thread pass (correlation 0.05 over
    #: 28 passes), nor the 0.25 s reference phase, so the times stay raw.
    calibrated = ()

    def __init__(self, instance_seed: int, workdir: Path, cal: Calibration):
        self.instance_seed = instance_seed
        self.workdir = workdir
        self.cal = cal
        self.probe = _Probe()
        # installed before any tracer patch, so uninstalling the tracer keeps it
        self.probe.install()

    def setup(self) -> None:
        self.inst = problems.gen_bqp(40, 50, 0.05, 1.0, self.instance_seed)
        self.pair = problems.build_prox_pair(self.inst)
        self.param = tuning.bqp_estimate(self.inst.a, self.inst.b, self.inst.n)
        _warm_up(self.pair, self.param)
        grid = lambda c: ",".join(repr(c * f) for f in (1 / 3, 1.0, 3.0))  # noqa: E731
        self.argv = ["sweep", "--app", "bqp", "--seed", str(self.instance_seed),
                     "--alpha-grid", grid(self.param.alpha),
                     "--beta-grid", grid(self.param.beta),
                     "--jobs", str(SWEEP_JOBS), "--out", str(self.workdir)]

    def run_pass(self) -> PassResult:
        res = PassResult()
        res.attempted += 1
        shutil.rmtree(self.workdir, ignore_errors=True)
        for _ in range(self.cal_bursts):
            self.cal.burst()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(self.argv)
        except Exception as exc:  # noqa: BLE001 - counted, the run goes on
            rc = None
            res.errors.append(f"sweep: {exc!r}")
        res.wall_s = time.perf_counter() - t0
        refs, cells = self.probe.drain()
        if rc != 0:
            res.failed += 1
            res.errors.append(f"sweep returned {rc}")
        for t_lo, t_hi, ref in refs:
            res.ref_s += t_hi - t_lo
            res.ref_iterations += ref.iterations
            _check_reference(res, ref, "reference")
        for t_lo, t_hi, (_, trace) in cells:
            res.cells.append((t_lo, t_hi))
            res.solve_s += t_hi - t_lo
            res.iter_ms.append(trace.elapsed_ms)
        self._check_artifacts(res)
        shutil.rmtree(self.workdir, ignore_errors=True)
        return res

    def _check_artifacts(self, res: PassResult) -> None:
        sweep_csv = self.workdir / "sweep.csv"
        ref_json = self.workdir / "reference.json"
        try:
            res.artifact_bytes = sweep_csv.stat().st_size + ref_json.stat().st_size
            lines = sweep_csv.read_text().splitlines()
            doc = json.loads(ref_json.read_text())
        except (OSError, ValueError) as exc:
            res.attempted += 1
            res.fail(f"artifacts: {exc!r}")
            return
        if lines[:1] != [f"# {cli.SWEEP_SCHEMA}"]:
            res.attempted += 1
            res.fail(f"sweep.csv header {lines[:1]}")
        for row in csv.DictReader(lines[1:]):
            name = f"a={row['alpha']},b={row['beta']}"
            res.attempted += 1
            try:
                iters, final = int(row["iterations"]), float(row["final_mse"])
            except (TypeError, ValueError):
                res.fail(f"{name}: unparsable row {row}")
                continue
            res.unit_iters[name] = iters
            res.iterations += iters
            if not final <= MSE_EPS:
                res.fail(f"{name}: final_mse={final}")
        res.attempted += 1
        if not doc.get("converged") or not doc.get("residual", float("inf")) <= REF_EPS:
            res.fail(f"reference.json: converged={doc.get('converged')} "
                     f"residual={doc.get('residual')}")


WORKLOADS = {"bqp-protocol": (BqpProtocol, 0), "sr-protocol": (SrProtocol, 2),
             "bqp-sweep": (BqpSweep, 0)}


def make(name: str, instance_seed: int | None, run_seed: int, workdir: Path,
         cal: Calibration):
    """Build a workload; ``instance_seed`` defaults to the pinned protocol seed."""
    cls, default_seed = WORKLOADS[name]
    seed = default_seed if instance_seed is None else instance_seed
    if cls is BqpSweep:
        return BqpSweep(seed, workdir, cal)
    return cls(seed, run_seed, cal)
