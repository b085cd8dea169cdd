"""Experiment driver.

Subcommands: ``run`` (one parametrized solve with trace, summary and
reference artifacts), ``sweep`` (iteration counts over a parameter grid),
``protocol`` (the app's iteration-count table: identity, a-priori estimates
and reference-based optima), ``ratecheck`` (empirical cocoercivity level and
decay-bound audit of a run), ``gen`` (instance generation to a reusable
file). Configuration comes from flat key=value files overridden by
command-line flags; the ``PROXSPLIT_SEED`` environment variable supplies the
seed when neither source does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .params import Identity, OperatorParam, Scalar, SdpHadamard
from .problems import (BqpInstance, _encode_array, build_prox_pair, gen_bqp, gen_sr,
                       load_instance, reference_solve, save_instance)
from .splitting import (RateBound, StopRule, estimate_cocoercivity, rate_check, run_admm,
                        run_drs, run_pd, run_pdf, matched_admm_init, matched_pd_init,
                        matched_pdf_init, sharp_rate_factor)
from .tuning import (SolutionPair, acceleration_gain, bqp_estimate, bqp_protocol_params,
                     optimal_scalar, sdp_joint_search, sdp_separate_choices, sr_estimate,
                     sr_protocol_params)

SUMMARY_SCHEMA = "proxsplit-summary v1"
SWEEP_SCHEMA = "proxsplit-sweep v1"
PROTOCOL_SCHEMA = "proxsplit-protocol v1"
RATECHECK_SCHEMA = "proxsplit-ratecheck v1"

APPS = ("bqp", "sr")
ALGOS = ("drs", "admm", "pd", "pdf")
PARAM_MODES = ("identity", "scalar-opt", "sdp-separate-alpha", "sdp-separate-beta",
               "sdp-joint-opt", "estimate", "manual")


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class UnconvergedReference(RuntimeError):
    """The reference solve hit its iteration cap, so no result can be measured against it."""


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
    algo: str = "drs"
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
        if self.app not in APPS:
            raise ConfigError(f"unknown app {self.app!r}; expected one of {APPS}")
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown algo {self.algo!r}; expected one of {ALGOS}")
        if self.param_mode not in PARAM_MODES:
            raise ConfigError(f"unknown param-mode {self.param_mode!r}; "
                              f"expected one of {PARAM_MODES}")
        if self.n is None:
            self.n = 40 if self.app == "bqp" else 50
        if self.k is None:
            self.k = 50 if self.app == "bqp" else 10
        for name in ("n", "k", "max_iters", "jobs", "ref_max_iters"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if self.app == "sr" and self.k > self.n:
            raise ConfigError(f"sr needs k <= n: cannot separate {self.k} spikes "
                              f"on {self.n} samples")
        for name in ("sigma_a", "sigma_b", "sigma", "ref_eps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.obs_frac <= 1.0:
            raise ConfigError("obs_frac must lie in (0, 1]")
        for name in ("alpha", "beta", "mse_eps", "opt_eps"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ConfigError(f"{name} must be positive when set")
        if self.param_mode == "manual" and (self.alpha is None or self.beta is None):
            raise ConfigError("manual mode needs both --alpha and --beta")


#: the value sets of the settings that take one of a few names
_CHOICES = {"app": APPS, "param_mode": PARAM_MODES, "algo": ALGOS}
#: the only settings that ``none`` or ``off`` switches off
_SWITCHABLE = {"mse_eps", "opt_eps"}
#: every setting by name, with the type its text converts to
_TYPES = {name: (get_args(hint) or (hint,))[0]
          for name, hint in get_type_hints(ExperimentConfig).items()}


def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    raw: dict[str, str] = {}
    text = Path(path).read_text()
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
    """Defaults, then config file, then flags; environment seed as fallback."""
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
    if "seed" not in merged and os.environ.get("PROXSPLIT_SEED"):
        merged["seed"] = os.environ["PROXSPLIT_SEED"]
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
    if cfg.app == "bqp":
        return gen_bqp(cfg.n, cfg.k, cfg.sigma_a, cfg.sigma_b, cfg.seed)
    try:
        return gen_sr(cfg.n, cfg.k, cfg.sigma, cfg.obs_frac, cfg.seed)
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"cannot generate sr instance (n={cfg.n}, k={cfg.k}): {exc}") from exc


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
    if mode == "scalar-opt":
        return Scalar(optimal_scalar(ref_pair))
    if mode == "sdp-separate-alpha":
        return SdpHadamard(sdp_separate_choices(ref_pair)[0], 1.0, shape)
    if mode == "sdp-separate-beta":
        return SdpHadamard(1.0, sdp_separate_choices(ref_pair)[1], shape)
    if mode == "sdp-joint-opt":
        return SdpHadamard(*sdp_joint_search(ref_pair), shape)
    raise ConfigError(f"param-mode {mode!r} is not runnable here")


def solve(pair, param, algo: str, stop: StopRule, psi_hook=None):
    """Run the chosen algorithm from a zero governing iterate (matched starts)."""
    psi0 = pair.zeros()
    if algo == "drs":
        return run_drs(pair, param, psi0, stop, psi_hook)
    if algo == "admm":
        z0, lam0 = matched_admm_init(pair, param, psi0)
        return run_admm(pair, param, z0, lam0, stop, psi_hook)
    if algo == "pdf":
        psi0, lam0 = matched_pdf_init(pair, param, psi0)
        return run_pdf(pair, param, psi0, lam0, stop, psi_hook)
    if algo == "pd":
        x0, lam_prev, lam0 = matched_pd_init(pair, param, psi0)
        return run_pd(pair, param, x0, lam_prev, lam0, stop, psi_hook)
    raise ConfigError(f"unknown algo {algo!r}")


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _reference_doc(ref) -> dict:
    return {"schema": "proxsplit-reference v1",
            "iterations": ref.iterations, "residual": ref.residual,
            "converged": ref.converged, "param": ref.param_config,
            "x_ref": _encode_array(ref.x_ref), "lam_ref": _encode_array(ref.lam_ref)}


def _prepare(cfg: ExperimentConfig):
    inst = make_instance(cfg)
    pair = build_prox_pair(inst)
    ref = reference_solve(pair, estimate_param(inst), opt_eps=cfg.ref_eps,
                          max_iters=cfg.ref_max_iters)
    if not ref.converged:
        raise UnconvergedReference(
            f"reference did not converge: residual {ref.residual:.3g} > ref_eps "
            f"{cfg.ref_eps:g} after {ref.iterations} iterations (raise --ref-max-iters)")
    ref_pair = SolutionPair(ref.x_ref, ref.lam_ref, shape=inst.shape)
    return inst, pair, ref, ref_pair


def _mse_stop(cfg: ExperimentConfig, ref) -> StopRule:
    """Stop at MSE ``cfg.mse_eps`` against the reference, or at the configured caps."""
    return StopRule(max_iters=cfg.max_iters, opt_eps=cfg.opt_eps,
                    mse_eps=cfg.mse_eps, reference=ref.x_ref)


def cmd_run(cfg: ExperimentConfig) -> int:
    inst, pair, ref, ref_pair = _prepare(cfg)
    param = make_param(cfg, inst, ref_pair)
    state, trace = solve(pair, param, cfg.algo, _mse_stop(cfg, ref))
    gain = acceleration_gain(param, ref_pair)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    trace.write_csv(outdir / "trace.csv")
    summary = {"schema": SUMMARY_SCHEMA, "app": cfg.app, "algo": cfg.algo,
               "param_mode": cfg.param_mode, "param": param.to_config(),
               "seed": cfg.seed, "n": inst.n, "k": inst.k,
               "iterations": trace.iterations, "converged": trace.converged,
               "stop_reason": trace.stop_reason,
               "final_mse": None if trace.mse is None else trace.mse[-1],
               "final_opt_residual": trace.opt_residual[-1],
               "mse_eps": cfg.mse_eps, "opt_eps": cfg.opt_eps,
               "max_iters": cfg.max_iters,
               "xi": gain.xi, "xi_numerator": gain.numerator,
               "xi_denominator": gain.denominator,
               "reference": {"iterations": ref.iterations, "residual": ref.residual,
                             "converged": ref.converged, "param": ref.param_config}}
    _write_json(outdir / "summary.json", summary)
    _write_json(outdir / "reference.json", _reference_doc(ref))
    print(f"{cfg.app}/{cfg.algo} {cfg.param_mode}: {trace.iterations} iterations, "
          f"stop={trace.stop_reason}, final_mse={summary['final_mse']}")
    return 0 if trace.converged else 2


def _parse_grid(spec: str) -> np.ndarray:
    """``lo:hi:count`` is log-spaced; a comma list is taken verbatim."""
    try:
        if ":" in spec:
            lo_s, hi_s, count_s = spec.split(":")
            lo, hi, count = float(lo_s), float(hi_s), int(count_s)
            if lo <= 0 or hi < lo or count < 1:
                raise ValueError
            if count == 1:
                return np.array([lo])
            return np.logspace(np.log10(lo), np.log10(hi), count)
        vals = np.array([float(tok) for tok in spec.split(",") if tok.strip()])
        if vals.size == 0 or np.any(vals <= 0):
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

    def run_cell(cell):
        a, b = cell
        _, trace = solve(pair, SdpHadamard(a, b, inst.shape), cfg.algo, _mse_stop(cfg, ref))
        final_mse = None if trace.mse is None else trace.mse[-1]
        return trace.iterations, final_mse

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(cell) for cell in cells]
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "sweep.csv"
    with open(path, "w") as fh:
        fh.write(f"# {SWEEP_SCHEMA}\n")
        fh.write("alpha,beta,iterations,final_mse\n")
        for (a, b), (iters, final_mse) in zip(cells, results):
            mse_cell = "" if final_mse is None else repr(final_mse)
            fh.write(f"{a!r},{b!r},{iters},{mse_cell}\n")
    _write_json(outdir / "reference.json", _reference_doc(ref))
    print(f"swept {len(cells)} cells -> {path}")
    return 0


def cmd_protocol(cfg: ExperimentConfig) -> int:
    inst, pair, ref, ref_pair = _prepare(cfg)
    params = protocol_params(inst, ref_pair)
    traces = {mode: solve(pair, param, cfg.algo, _mse_stop(cfg, ref))[1]
              for mode, param in params.items()}
    base = traces["identity"].iterations
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "protocol.csv"
    print(f"{cfg.app}/{cfg.algo} protocol (n={inst.n}, k={inst.k}, seed={cfg.seed}); "
          f"reference: {ref.iterations} iterations, residual {ref.residual:.2e}")
    print(f"\n{'mode':<12}{'iterations':>12}{'speedup':>10}{'xi':>12}  parameter")
    with open(path, "w") as fh:
        fh.write(f"# {PROTOCOL_SCHEMA}\n")
        fh.write("mode,iterations,speedup,xi,converged\n")
        for mode, param in params.items():
            trace = traces[mode]
            iters, ok = trace.iterations, trace.converged
            speedup, xi = base / iters, acceleration_gain(param, ref_pair).xi
            fh.write(f"{mode},{iters},{speedup!r},{xi!r},{ok}\n")
            flag = "" if ok else "  (hit cap)"
            print(f"{mode:<12}{iters:>12}{speedup:>10.1f}{xi:>12.4g}  "
                  f"{param.to_config()}{flag}")
    _write_json(outdir / "reference.json", _reference_doc(ref))
    print(f"\nwrote {path}")
    return 0 if all(trace.converged for trace in traces.values()) else 2


def cmd_ratecheck(cfg: ExperimentConfig) -> int:
    inst, pair, ref, ref_pair = _prepare(cfg)
    param = make_param(cfg, inst, ref_pair)
    snaps = [pair.zeros()]

    def hook(k, psi):
        if k <= 32:
            snaps.append(psi.copy())

    state, trace = solve(pair, param, cfg.algo, _mse_stop(cfg, ref), psi_hook=hook)
    l_hat = estimate_cocoercivity([(snaps[i], snaps[i + 1]) for i in range(len(snaps) - 1)])
    basic = rate_check(trace, RateBound(1.0, trace.anchor_sq))
    sharp = rate_check(trace, RateBound(l_hat, trace.anchor_sq))
    doc = {"schema": RATECHECK_SCHEMA, "app": cfg.app, "algo": cfg.algo,
           "param_mode": cfg.param_mode, "iterations": trace.iterations,
           "l_hat": l_hat, "approximate_fixed_point": True,
           "basic": {"ok": basic.ok, "first_violation": basic.first_violation,
                     "checked": basic.checked},
           "sharp": {"ok": sharp.ok, "first_violation": sharp.first_violation,
                     "checked": sharp.checked},
           "calibration": {"l": 0.99,
                           "k20": sharp_rate_factor(0.99, 20),
                           "k100": sharp_rate_factor(0.99, 100)}}
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "ratecheck.json", doc)
    print(f"l_hat={l_hat:.6g}, basic bound ok={basic.ok}, sharp bound ok={sharp.ok}")
    return 0 if basic.ok else 2


def cmd_gen(cfg: ExperimentConfig) -> int:
    inst = make_instance(cfg)
    out = Path(cfg.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    save_instance(inst, out)
    print(f"wrote {cfg.app} instance (n={inst.n}, k={inst.k}, seed={cfg.seed}) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proxsplit",
                                     description="Parametrized splitting experiments "
                                                 "on block-structured SDPs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (("run", "single parametrized solve with artifacts"),
                        ("sweep", "iteration counts over a parameter grid"),
                        ("protocol", "the app's iteration-count table"),
                        ("ratecheck", "decay-bound audit of a run"),
                        ("gen", "write a problem instance file")):
        sp = sub.add_parser(name, help=descr)
        for name in _TYPES:
            sp.add_argument("--" + name.replace("_", "-"), dest=name,
                            choices=_CHOICES.get(name))
        sp.add_argument("--config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"run": cmd_run, "sweep": cmd_sweep, "protocol": cmd_protocol,
                "ratecheck": cmd_ratecheck, "gen": cmd_gen}
    try:
        cfg = resolve_config(args)
        return commands[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnconvergedReference as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
