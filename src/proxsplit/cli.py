"""Experiment driver.

Subcommands: ``run`` (one parametrized solve with trace, summary and
reference artifacts; the summary holds the trace's decay-bound audit),
``sweep`` (iteration counts over a parameter grid), ``protocol`` (the app's
iteration-count table: identity, a-priori estimates and reference-based
optima), ``gen`` (instance generation to a reusable file). Every solve is
DRS from a zero governing iterate; the equivalent ADMM and primal-dual forms
are library API in ``splitting``. Configuration comes from flat key=value
files overridden by command-line flags, so a run is fully determined by its
flags and files.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .params import Identity, OperatorParam, SdpHadamard
from .problems import (BqpInstance, _encode_array, build_prox_pair, gen_bqp, gen_sr,
                       load_instance, reference_solve, save_instance)
from .splitting import DivergenceError, RateBound, StopRule, rate_check, run_drs
from .tuning import (SolutionPair, acceleration_gain, bqp_estimate, bqp_protocol_params,
                     sdp_joint_search, sdp_separate_choices, sr_estimate, sr_protocol_params)

SUMMARY_SCHEMA = "proxsplit-summary v2"
TRACE_SCHEMA = "proxsplit-trace v1"
SWEEP_SCHEMA = "proxsplit-sweep v1"
PROTOCOL_SCHEMA = "proxsplit-protocol v1"

APPS = ("bqp", "sr")
PARAM_MODES = ("identity", "sdp-separate-alpha", "sdp-separate-beta", "sdp-joint-opt",
               "estimate", "manual")


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class UnconvergedReference(RuntimeError):
    """The reference solve hit its iteration cap, so no result can be measured against it."""


class _Halted(Exception):
    """Stops a row running in a worker process once the other rows have failed or were interrupted."""


@dataclass
class ExperimentConfig:
    """Resolved settings of one driver invocation."""

    app: str = "bqp"
    n: int | None = None
    k: int | None = None
    sigma_a: float = 0.05
    sigma_b: float = 1.0
    sigma: float = 2.0
    obs_frac: float = 0.8
    seed: int = 0
    param_mode: str = "estimate"
    alpha: float | None = None
    beta: float | None = None
    mse_eps: float | None = 1e-6
    opt_eps: float | None = None
    max_iters: int = 100_000
    ref_eps: float = 1e-10
    ref_max_iters: int = 200_000
    out: str = "out"
    jobs: int = 1
    alpha_grid: str | None = None
    beta_grid: str | None = None
    instance: str | None = None

    def validate(self) -> None:
        for name, choices in _CHOICES.items():
            val = getattr(self, name)
            if val not in choices:
                raise ConfigError(f"unknown {name.replace('_', '-')} {val!r}; "
                                  f"expected one of {choices}")
        if self.n is None:
            self.n = 40 if self.app == "bqp" else 50
        if self.k is None:
            self.k = 50 if self.app == "bqp" else 10
        for name, kind in _TYPES.items():
            val = getattr(self, name)
            if val is None or kind is str:
                continue
            if kind is int:
                low = 0 if name == "seed" else 1
                if val < low:
                    raise ConfigError(f"{name} must be an integer >= {low}")
            elif not 0.0 < val < np.inf:
                raise ConfigError(f"{name} must be finite and positive")
        if self.obs_frac > 1.0:
            raise ConfigError("obs_frac must lie in (0, 1]")
        if self.app == "sr" and self.k > self.n:
            raise ConfigError(f"sr needs k <= n: cannot separate {self.k} spikes "
                              f"on {self.n} samples")
        if self.param_mode == "manual" and (self.alpha is None or self.beta is None):
            raise ConfigError("manual mode needs both --alpha and --beta")


#: the value sets of the settings that take one of a few names
_CHOICES = {"app": APPS, "param_mode": PARAM_MODES}
#: the only settings that ``none`` or ``off`` switches off
_SWITCHABLE = {"mse_eps", "opt_eps"}
#: every setting by name, with the type its text converts to
_TYPES = {name: (get_args(hint) or (hint,))[0]
          for name, hint in get_type_hints(ExperimentConfig).items()}


def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        raw[key.replace("-", "_")] = value
    return raw


def _coerce(key: str, value: str):
    if key in _SWITCHABLE and value.lower() in ("none", "off"):
        return None
    try:
        return _TYPES[key](value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then config file, then flags."""
    merged: dict = {}
    if args.config:
        file_cfg = read_config_file(args.config)
        unknown = set(file_cfg) - _TYPES.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in _TYPES:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    cfg = ExperimentConfig()
    for key, value in merged.items():
        setattr(cfg, key, _coerce(key, value))
    cfg.validate()
    return cfg


def make_instance(cfg: ExperimentConfig):
    if cfg.instance:
        try:
            inst = load_instance(cfg.instance)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot load instance {cfg.instance}: {exc}") from exc
        kind = "bqp" if isinstance(inst, BqpInstance) else "sr"
        if kind != cfg.app:
            raise ConfigError(f"instance file holds a {kind} problem, but app={cfg.app}")
        return inst
    try:
        if cfg.app == "bqp":
            return gen_bqp(cfg.n, cfg.k, cfg.sigma_a, cfg.sigma_b, cfg.seed)
        return gen_sr(cfg.n, cfg.k, cfg.sigma, cfg.obs_frac, cfg.seed)
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"cannot generate {cfg.app} instance "
                          f"(n={cfg.n}, k={cfg.k}): {exc}") from exc


def estimate_param(inst) -> SdpHadamard:
    """The app's a-priori joint parameter (also used to compute references)."""
    if isinstance(inst, BqpInstance):
        return bqp_estimate(inst.a, inst.b, inst.n)
    return sr_estimate(inst.n, inst.k, inst.sigma, "joint")


def protocol_params(inst, ref_pair: SolutionPair) -> dict[str, OperatorParam]:
    """The app's iteration-protocol rows in table order, the identity first."""
    if isinstance(inst, BqpInstance):
        return bqp_protocol_params(inst.a, inst.b, inst.n, ref_pair)
    return sr_protocol_params(inst.n, inst.k, inst.sigma)


def make_param(cfg: ExperimentConfig, inst, ref_pair: SolutionPair) -> OperatorParam:
    shape = inst.shape
    mode = cfg.param_mode
    if mode == "identity":
        return Identity()
    if mode == "manual":
        return SdpHadamard(cfg.alpha, cfg.beta, shape)
    if mode == "estimate":
        return estimate_param(inst)
    if mode == "sdp-separate-alpha":
        return SdpHadamard(sdp_separate_choices(ref_pair)[0], 1.0, shape)
    if mode == "sdp-separate-beta":
        return SdpHadamard(1.0, sdp_separate_choices(ref_pair)[1], shape)
    if mode == "sdp-joint-opt":
        return SdpHadamard(*sdp_joint_search(ref_pair), shape)
    raise ConfigError(f"param-mode {mode!r} is not runnable here")


def solve(pair, param, stop: StopRule, psi_hook=None, workers=None):
    """Run DRS from a zero governing iterate; ``psi_hook`` as for ``run_drs``.

    With a process pool ``workers`` from ``_solve_rows``, one of its workers
    runs the DRS, checking the pool's halt flag instead of ``psi_hook``, and
    this call waits for its ``(state, trace)``.
    """
    if workers is None:
        return run_drs(pair, param, pair.zeros(), stop, psi_hook)
    return workers.submit(_solve_in_worker, pair, param, stop).result()


#: in a worker process, the shared flag that tells its row to stop
_halt = None


def _start_worker(halt) -> None:
    """Worker set-up: Ctrl-C is the parent's alone, which stops the rows through ``halt``."""
    global _halt
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _halt = halt


def _halt_if_set(k, psi) -> None:
    if _halt.value:
        raise _Halted


def _solve_in_worker(pair, param, stop: StopRule):
    """``solve``'s DRS in a worker process, stopped at the next iteration once halted."""
    return run_drs(pair, param, pair.zeros(), stop, _halt_if_set)


@contextmanager
def _writing(path):
    """An ``OSError`` while writing ``path`` is a configuration error, not a traceback."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path, doc) -> None:
    with _writing(path), open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, schema: str, columns, rows) -> None:
    """A ``# <schema>`` line, the column line, then one comma-joined line per row."""
    with _writing(path), open(path, "w", newline="") as fh:
        fh.write(f"# {schema}\n{','.join(columns)}\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _outdir(cfg: ExperimentConfig, ref) -> Path:
    """Create ``cfg.out`` and write the reference artifact into it."""
    outdir = Path(cfg.out)
    with _writing(f"to --out {cfg.out}"):
        outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "reference.json",
                {"schema": "proxsplit-reference v1",
                 "iterations": ref.iterations, "residual": ref.residual,
                 "converged": ref.converged, "param": ref.param_config,
                 "x_ref": _encode_array(ref.x_ref), "lam_ref": _encode_array(ref.lam_ref)})
    return outdir


def _prepare(cfg: ExperimentConfig):
    inst = make_instance(cfg)
    pair = build_prox_pair(inst)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the checks
            ref_param = estimate_param(inst)
    except ValueError as exc:
        raise ConfigError(f"no a-priori parameter for this instance: {exc}") from exc
    ref = reference_solve(pair, ref_param, opt_eps=cfg.ref_eps, max_iters=cfg.ref_max_iters)
    if not ref.converged:
        raise UnconvergedReference(
            f"reference did not converge: residual {ref.residual:.3g} > ref_eps "
            f"{cfg.ref_eps:g} after {ref.iterations} iterations (raise --ref-max-iters)")
    ref_pair = SolutionPair(ref.x_ref, ref.lam_ref, shape=inst.shape)
    return inst, pair, ref, ref_pair


def _solve_rows(cfg: ExperimentConfig, pair, ref, params) -> list:
    """The trace of a run per parameter, in order, on up to ``cfg.jobs`` worker processes.

    Each run stops at MSE ``cfg.mse_eps`` against the reference, or at the
    configured caps. On Ctrl-C or the first row to fail, the queued rows are
    dropped and the running ones stop at their next iteration.
    """
    stop = StopRule(max_iters=cfg.max_iters, opt_eps=cfg.opt_eps,
                    mse_eps=cfg.mse_eps, reference=ref.x_ref)

    jobs = min(cfg.jobs, len(params))
    if jobs == 1:  # in the calling thread, so that Ctrl-C stops a long row at once
        return [solve(pair, param, stop)[1] for param in params]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # forked workers inherit the loaded modules and LAPACK plans instead of importing them
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    halt = context.RawValue("b", 0)
    # each row's ``solve`` call waits in a dispatcher thread, one per worker, so a
    # wrapper of ``cli.solve`` (perfbench times sweep cells with one) sees every row
    with ProcessPoolExecutor(jobs, mp_context=context, initializer=_start_worker,
                             initargs=(halt,)) as workers, \
            ThreadPoolExecutor(max_workers=jobs) as dispatch:
        try:
            workers.submit(os.getpid)  # starts the workers from this thread, before any other
            futures = [dispatch.submit(solve, pair, param, stop, None, workers)
                       for param in params]
            for future in as_completed(futures):
                future.result()  # the first row to fail raises here, wherever it is queued
            return [future.result()[1] for future in futures]
        except BaseException:  # Ctrl-C or a failed row: drop the queued rows, stop the running
            halt.value = 1
            dispatch.shutdown(cancel_futures=True)
            raise


def cmd_run(cfg: ExperimentConfig) -> int:
    inst, pair, ref, ref_pair = _prepare(cfg)
    param = make_param(cfg, inst, ref_pair)
    trace = _solve_rows(cfg, pair, ref, [param])[0]
    gain = acceleration_gain(param, ref_pair)
    # from a zero start the squared distance to the fixed point is the gain's numerator
    check = rate_check(trace, RateBound(1.0, gain.numerator))
    outdir = _outdir(cfg, ref)
    _write_csv(outdir / "trace.csv", TRACE_SCHEMA,
               ("k", "fp_residual_sq", "opt_residual", "mse", "elapsed_ms"),
               zip(range(trace.iterations), trace.fp_residual_sq, trace.opt_residual,
                   trace.mse, trace.elapsed_ms))
    summary = {"schema": SUMMARY_SCHEMA, "app": cfg.app, "algo": "drs",
               "param_mode": cfg.param_mode, "param": param.to_config(),
               "seed": inst.seed, "n": inst.n, "k": inst.k,
               "iterations": trace.iterations, "converged": trace.converged,
               "stop_reason": trace.stop_reason,
               "final_mse": trace.mse[-1],
               "final_opt_residual": trace.opt_residual[-1],
               "mse_eps": cfg.mse_eps, "opt_eps": cfg.opt_eps,
               "max_iters": cfg.max_iters,
               "xi": gain.xi, "xi_numerator": gain.numerator,
               "xi_denominator": gain.denominator,
               "reference": {"iterations": ref.iterations, "residual": ref.residual,
                             "converged": ref.converged, "param": ref.param_config},
               "rate_check": asdict(check)}
    _write_json(outdir / "summary.json", summary)
    print(f"{cfg.app}/drs {cfg.param_mode}: {trace.iterations} iterations, "
          f"stop={trace.stop_reason}, final_mse={summary['final_mse']}, rate bound ok={check.ok}")
    return 0 if trace.converged and check.ok else 2


def _parse_grid(spec: str) -> np.ndarray:
    """``lo:hi:count`` is log-spaced; a comma list is taken verbatim."""
    try:
        if ":" in spec:
            lo_s, hi_s, count_s = spec.split(":")
            lo, hi, count = float(lo_s), float(hi_s), int(count_s)
            if not 0.0 < lo <= hi < np.inf or count < 1:
                raise ValueError
            if count == 1:
                return np.array([lo])
            return np.logspace(np.log10(lo), np.log10(hi), count)
        vals = np.array([float(tok) for tok in spec.split(",") if tok.strip()])
        if vals.size == 0 or not np.all((vals > 0) & (vals < np.inf)):
            raise ValueError
        return vals
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}; use lo:hi:count or v1,v2,...") from exc


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if cfg.alpha_grid is None and cfg.beta_grid is None:
        raise ConfigError("sweep needs --alpha-grid and/or --beta-grid")
    alphas = _parse_grid(cfg.alpha_grid) if cfg.alpha_grid else np.array([1.0])
    betas = _parse_grid(cfg.beta_grid) if cfg.beta_grid else np.array([1.0])
    inst, pair, ref, _ = _prepare(cfg)
    cells = [(float(a), float(b)) for a in alphas for b in betas]
    traces = _solve_rows(cfg, pair, ref, [SdpHadamard(a, b, inst.shape) for a, b in cells])
    path = _outdir(cfg, ref) / "sweep.csv"
    _write_csv(path, SWEEP_SCHEMA, ("alpha", "beta", "iterations", "final_mse"),
               [(a, b, trace.iterations, trace.mse[-1]) for (a, b), trace in zip(cells, traces)])
    print(f"swept {len(cells)} cells -> {path}")
    return 0


def cmd_protocol(cfg: ExperimentConfig) -> int:
    inst, pair, ref, ref_pair = _prepare(cfg)
    params = protocol_params(inst, ref_pair)
    traces = _solve_rows(cfg, pair, ref, params.values())
    base = traces[0].iterations
    path = _outdir(cfg, ref) / "protocol.csv"
    print(f"{cfg.app}/drs protocol (n={inst.n}, k={inst.k}, seed={inst.seed}); "
          f"reference: {ref.iterations} iterations, residual {ref.residual:.2e}")
    print(f"\n{'mode':<12}{'iterations':>12}{'speedup':>10}{'xi':>12}  parameter")
    rows = []
    for (mode, param), trace in zip(params.items(), traces):
        iters, ok = trace.iterations, trace.converged
        speedup, xi = base / iters, acceleration_gain(param, ref_pair).xi
        rows.append((mode, iters, speedup, xi, ok))
        flag = "" if ok else "  (hit cap)"
        print(f"{mode:<12}{iters:>12}{speedup:>10.1f}{xi:>12.4g}  "
              f"{param.to_config()}{flag}")
    _write_csv(path, PROTOCOL_SCHEMA, ("mode", "iterations", "speedup", "xi", "converged"), rows)
    print(f"\nwrote {path}")
    return 0 if all(trace.converged for trace in traces) else 2


def cmd_gen(cfg: ExperimentConfig) -> int:
    inst = make_instance(cfg)
    out = Path(cfg.out)
    with _writing(f"instance to {out}"):
        out.parent.mkdir(parents=True, exist_ok=True)
        save_instance(inst, out)
    print(f"wrote {cfg.app} instance (n={inst.n}, k={inst.k}, seed={inst.seed}) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proxsplit",
                                     description="Parametrized splitting experiments "
                                                 "on block-structured SDPs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (("run", "single parametrized solve with artifacts and rate audit"),
                        ("sweep", "iteration counts over a parameter grid"),
                        ("protocol", "the app's iteration-count table"),
                        ("gen", "write a problem instance file")):
        sp = sub.add_parser(name, help=descr)
        for key in _TYPES:
            sp.add_argument("--" + key.replace("_", "-"), dest=key,
                            choices=_CHOICES.get(key))
        sp.add_argument("--config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"run": cmd_run, "sweep": cmd_sweep, "protocol": cmd_protocol, "gen": cmd_gen}
    try:
        cfg = resolve_config(args)
        return commands[args.command](cfg)
    except (ConfigError, UnconvergedReference, DivergenceError) as exc:
        what = "solve diverged: " if isinstance(exc, DivergenceError) else ""
        print(f"error: {what}{exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2
    except KeyboardInterrupt:  # the rows are solved before any artifact is written
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
