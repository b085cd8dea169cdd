"""The two shipped applications as 2x2 block semidefinite problems.

Boolean least squares via semidefinite relaxation (unit-diagonal constraint)
and super-resolution of point sources via a lifted Toeplitz program
(fixed observed entries). Both package their data, the linear objective
matrix, proximal evaluators, and a high-precision self-computed reference.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import gaussian_sample
from .params import BlockShape, Congruence
from .prox import FixedEntrySet, ProxPair, _linear_diag1, _linear_sr, prox_psd_indicator
from .splitting import StopRule, run_drs, run_drs_anderson

INSTANCE_SCHEMA = "proxsplit-instance v1"


@dataclass(frozen=True)
class BqpInstance:
    """Boolean least-squares data: ``k`` measurement rows over ``n`` unknowns."""

    a: np.ndarray
    b: np.ndarray
    g_f: np.ndarray
    shape: BlockShape
    seed: int
    sigma_a: float
    sigma_b: float

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def k(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class SrInstance:
    """Point-source data: ``k`` separated spikes sampled at ``n`` points."""

    n: int
    k: int
    taus: np.ndarray
    c: np.ndarray
    x_star: np.ndarray
    omega: np.ndarray
    g_f: np.ndarray
    sigma: float
    obs_frac: float
    seed: int

    @property
    def shape(self) -> BlockShape:
        return BlockShape(self.n, 1)

    @property
    def m_avg(self) -> float:
        """Average spike magnitude."""
        return float(np.mean(np.abs(self.c)))


def bqp_objective(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lifted linear objective matrix of ``||a x - b||^2`` (constant term dropped)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = a.shape[1]
    g = np.zeros((n + 1, n + 1))
    g[:n, :n] = a.T @ a
    atb = a.T @ b
    g[:n, n] = -atb
    g[n, :n] = -atb
    return g


def _check_finite(key: str, a: np.ndarray) -> None:
    """Refuse instance array ``key`` when it holds an infinite or NaN entry."""
    if not np.all(np.isfinite(a)):
        raise ValueError(f"instance array {key!r} has non-finite entries")


def _check_derived(key: str, a: np.ndarray, derive) -> None:
    """Refuse instance array ``key`` unless within 1e-12 of ``derive()``, relative in Frobenius norm."""
    with np.errstate(over="ignore", invalid="ignore"):  # scaled to its largest entry: no overflow
        derived = derive()
        scale = np.max(np.abs(derived), initial=0.0) or 1.0
        if not np.linalg.norm((a - derived) / scale) <= 1e-12 * np.linalg.norm(derived / scale):
            raise ValueError(f"instance array {key!r} contradicts the data it derives from")


def gen_bqp(n: int, k: int, sigma_a: float, sigma_b: float, seed: int) -> BqpInstance:
    """Random Boolean least-squares instance with Gaussian data; ``ValueError`` if not finite."""
    if n < 1 or k < 1:
        raise ValueError("need positive dimensions")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        a = gaussian_sample(k, n, sigma_a, [seed, 0])
        b = gaussian_sample(k, 1, sigma_b, [seed, 1]).ravel()
        g_f = bqp_objective(a, b)
    for key, arr in (("a", a), ("b", b), ("g_f", g_f)):
        _check_finite(key, arr)
    return BqpInstance(a=a, b=b, g_f=g_f, shape=BlockShape(n, 1),
                       seed=seed, sigma_a=sigma_a, sigma_b=sigma_b)


def _min_circular_gap(taus: np.ndarray) -> float:
    t = np.sort(taus)
    return float(np.min(np.diff(t, append=t[0] + 1.0)))


def _separated(taus: np.ndarray, n: int) -> bool:
    """Whether spike locations ``taus`` lie in ``[0, 1)`` with circular gaps of at least ``1/n``."""
    return bool(np.all((taus >= 0.0) & (taus < 1.0))) and _min_circular_gap(taus) >= 1.0 / n


def _observed_count(n: int, obs_frac: float) -> int:
    """How many of ``n`` samples an SR instance observes at fraction ``obs_frac``; none raises."""
    m = int(round(obs_frac * n))
    if m == 0:
        raise ValueError(f"observed fraction {obs_frac:g} of {n} samples observes none")
    return m


#: ``gen_sr`` redraws uniform spike locations while all are separated with at
#: least this probability, and samples the gaps directly below it.
_SR_REDRAW_MIN_P = 1e-3
#: Draws of spike locations before ``gen_sr`` gives up.
_SR_MAX_TRIES = 100_000


def _separated_locations(rng: np.random.Generator, k: int, gap: float) -> np.ndarray:
    """``k`` uniform points on the unit circle conditioned on circular gaps of at least ``gap``.

    Uniform points cut the circle at Dirichlet(1, ..., 1) spacings; given that
    each is at least ``gap``, they are ``gap`` plus the rest of the circle cut
    the same way. A uniform offset places the first point.
    """
    spacing = rng.exponential(size=k)
    spacing = gap + (1.0 - k * gap) * (spacing / spacing.sum())
    return (rng.random() + np.cumsum(spacing)) % 1.0


def _spike_samples(n: int, taus: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The ``n`` samples of spikes at ``taus`` with amplitudes ``c``."""
    return np.exp(-2j * np.pi * np.outer(np.arange(n), taus)) @ c


def _sr_objective(n: int) -> np.ndarray:
    """Lifted linear objective matrix of every SR instance on ``n`` samples."""
    return np.diag(np.append(np.full(n, 1.0 / (2.0 * n)), 0.5))


def gen_sr(n: int, k: int, sigma: float, obs_frac: float, seed: int) -> SrInstance:
    """Random separated point sources, Gaussian amplitudes, partial observations.

    Spike locations are uniform on the circle given that every circular gap
    is at least ``1/n``, which uniform draws meet with probability
    ``(1 - k/n)^(k-1)``. Amplitudes are real Gaussian; a fixed fraction of
    the samples, at least one, is observed. Non-finite data raise ``ValueError``.
    """
    if n < 1 or k < 1 or sigma <= 0:
        raise ValueError("need positive dimensions and amplitude scale")
    if not 0.0 < obs_frac <= 1.0:
        raise ValueError("observed fraction must lie in (0, 1]")
    m = _observed_count(n, obs_frac)
    if k > n:
        raise ValueError("cannot separate more spikes than samples")
    if k == n > 1:  # only evenly spaced spikes are 1/n apart, which rounding may undo
        raise RuntimeError("failed to draw separated spike locations: k = n leaves no slack")
    rng = np.random.default_rng([seed, 0])
    redraw = (1.0 - k / n) ** (k - 1) >= _SR_REDRAW_MIN_P
    for _ in range(_SR_MAX_TRIES):
        taus = rng.random(k) if redraw else _separated_locations(rng, k, 1.0 / n)
        if _separated(taus, n):
            break
    else:
        raise RuntimeError("failed to draw separated spike locations")
    c = gaussian_sample(k, 1, sigma, [seed, 1]).ravel()
    x_star = _spike_samples(n, taus, c)
    for key, arr in (("c", c), ("x_star", x_star)):
        _check_finite(key, arr)
    omega = np.sort(np.random.default_rng([seed, 2]).choice(n, size=m, replace=False))
    return SrInstance(n=n, k=k, taus=taus, c=c, x_star=x_star, omega=omega,
                      g_f=_sr_objective(n), sigma=sigma, obs_frac=obs_frac, seed=seed)


class _GramTerms:
    """``param -> param.gram_inverse(g)`` cast to ``dtype``, computed once per parameter.

    ``g`` must be an array no one else can write to. ``dtype`` is the pair's
    iterate dtype: the linear-term proxes' subtraction casts the term to it
    anyway, so casting once keeps their results' bits. Parameters are held
    weakly. A pickled copy leaves the terms behind, and its copy of ``g`` is
    made read-only again, which a pickle does not keep.
    """

    def __init__(self, g: np.ndarray, dtype):
        self.g, self.dtype = g, dtype
        self.terms = weakref.WeakKeyDictionary()

    def __call__(self, param: Congruence) -> np.ndarray:
        term = self.terms.get(param)
        if term is None:
            term = param.gram_inverse(self.g)
            term = term.astype(np.result_type(term, self.dtype))  # a copy, also where term is g
            term.flags.writeable = False
            self.terms[param] = term
        return term

    def __getstate__(self):
        return self.g, self.dtype

    def __setstate__(self, state):
        g, dtype = state
        g.flags.writeable = False
        self.__init__(g, dtype)


def build_prox_pair(inst) -> ProxPair:
    """Proximal evaluators of an instance's splitting.

    They hold a private read-only copy of the objective matrix, so the
    linear-term prox computes its term once per parameter.
    """
    if not isinstance(inst, (BqpInstance, SrInstance)):
        raise TypeError(f"unsupported instance type: {type(inst).__name__}")
    g_f = np.array(inst.g_f)
    g_f.flags.writeable = False
    if isinstance(inst, BqpInstance):
        return ProxPair(f_prox=partial(_linear_diag1, _GramTerms(g_f, np.float64)),
                        g_prox=prox_psd_indicator, g_f=g_f,
                        constraint="diag-ones", dim=inst.n + 1, is_complex=False)
    observed = FixedEntrySet(inst.omega, inst.x_star[inst.omega])
    return ProxPair(f_prox=partial(_linear_sr, _GramTerms(g_f, np.complex128), observed),
                    g_prox=prox_psd_indicator, g_f=g_f,
                    constraint="fixed-toeplitz", dim=inst.n + 1, is_complex=True)


@dataclass
class ReferenceSolution:
    """High-precision solution pair from a long tightly-thresholded run."""

    x_ref: np.ndarray
    lam_ref: np.ndarray
    iterations: int
    residual: float
    converged: bool
    param_config: dict


def reference_solve(pair: ProxPair, param: Congruence, opt_eps: float = 1e-10,
                    max_iters: int = 200_000) -> ReferenceSolution:
    """Drive the splitting to a tight optimality residual and report the pair.

    Anderson-accelerated DRS runs from zero to ``opt_eps``; plain DRS then
    starts at its last image and gives the result, so the residual, the
    convergence flag and the pair are plain DRS's. ``max_iters`` caps both
    phases together, and ``iterations`` is their sum. The dual solution is
    read off the final governing iterate, which makes it exactly
    cone-feasible and exactly orthogonal to the matching resolvent output.
    If the cap is hit, the partial-precision result is returned with its
    achieved residual and ``converged=False``.
    """
    psi0, accelerated = pair.zeros(), 0
    if max_iters > 1:  # leave plain DRS at least one iteration
        state, trace = run_drs_anderson(pair, param, psi0,
                                        StopRule(max_iters=max_iters - 1, opt_eps=opt_eps))
        psi0, accelerated = state.psi, trace.iterations
    stop = StopRule(max_iters=max_iters - accelerated, opt_eps=opt_eps)
    state, trace = run_drs(pair, param, psi0, stop)
    z_plus = pair.g_prox(param, state.psi)
    lam_plus = param.adjoint(state.psi - param.apply(z_plus))
    return ReferenceSolution(x_ref=state.x, lam_ref=lam_plus,
                             iterations=accelerated + trace.iterations,
                             residual=trace.opt_residual[-1],
                             converged=trace.converged,
                             param_config=param.to_config())


def _encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return {"shape": list(a.shape), "dtype": "complex",
                "re": a.real.tolist(), "im": a.imag.tolist()}
    kind = "int" if np.issubdtype(a.dtype, np.integer) else "float"
    return {"shape": list(a.shape), "dtype": kind, "data": a.tolist()}


def _decode_array(d: dict) -> np.ndarray:
    if d["dtype"] == "complex":
        a = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
    elif d["dtype"] == "int":
        a = np.asarray(d["data"], dtype=np.int64)
    else:
        a = np.asarray(d["data"], dtype=float)
    return a.reshape(d["shape"])


def save_instance(inst, path) -> None:
    """Write an instance as self-describing JSON that round-trips bit-exactly."""
    if isinstance(inst, BqpInstance):
        doc = {"schema": INSTANCE_SCHEMA, "kind": "bqp", "seed": inst.seed,
               "n": inst.n, "k": inst.k,
               "sigma_a": inst.sigma_a, "sigma_b": inst.sigma_b,
               "a": _encode_array(inst.a), "b": _encode_array(inst.b),
               "g_f": _encode_array(inst.g_f)}
    elif isinstance(inst, SrInstance):
        doc = {"schema": INSTANCE_SCHEMA, "kind": "sr", "seed": inst.seed,
               "n": inst.n, "k": inst.k, "sigma": inst.sigma,
               "obs_frac": inst.obs_frac,
               "taus": _encode_array(inst.taus), "c": _encode_array(inst.c),
               "x_star": _encode_array(inst.x_star),
               "omega": _encode_array(inst.omega), "g_f": _encode_array(inst.g_f)}
    else:
        raise TypeError(f"unsupported instance type: {type(inst).__name__}")
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _checked_array(doc: dict, key: str, shape: tuple | None) -> np.ndarray:
    """Decode ``doc[key]``; require finite entries and, unless ``None``, ``shape``."""
    a = _decode_array(doc[key])
    if shape is not None and a.shape != shape:
        raise ValueError(f"instance array {key!r} has shape {a.shape}, expected {shape}")
    _check_finite(key, a)
    return a


def _checked_number(doc: dict, key: str, high: float = np.inf) -> float:
    """``doc[key]``; require a finite number in ``(0, high]``."""
    val = doc[key]
    if type(val) not in (int, float) or not (0.0 < val <= high and np.isfinite(val)):
        raise ValueError(f"instance field {key!r} must be a finite number in (0, {high:g}], "
                         f"got {val!r}")
    return float(val)


def load_instance(path):
    """Rebuild a saved instance, restoring every array verbatim.

    Raises ``ValueError`` for a foreign document, a non-finite array or one
    whose shape disagrees with the stored ``n`` and ``k``, a noise level or
    observed fraction out of range, a negative seed, a repeated ``omega`` or
    one whose size is not the observed fraction's count of samples, spikes
    that ``gen_sr`` would not draw (outside ``[0, 1)`` or closer than ``1/n``),
    or a ``g_f`` or SR ``x_star`` that the other data do not give.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"instance file must hold a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != INSTANCE_SCHEMA:
        raise ValueError(f"unrecognized instance schema: {doc.get('schema')!r}")
    n, k, seed = doc["n"], doc["k"], doc["seed"]
    if not all(type(d) is int and d >= 1 for d in (n, k)):
        raise ValueError(f"instance dimensions must be positive integers, got n={n!r}, k={k!r}")
    if type(seed) is not int or seed < 0:
        raise ValueError(f"instance seed must be an integer >= 0, got {seed!r}")
    g_f = _checked_array(doc, "g_f", (n + 1, n + 1))
    if doc["kind"] == "bqp":
        a, b = _checked_array(doc, "a", (k, n)), _checked_array(doc, "b", (k,))
        _check_derived("g_f", g_f, lambda: bqp_objective(a, b))
        return BqpInstance(a=a, b=b, g_f=g_f, shape=BlockShape(n, 1), seed=seed,
                           sigma_a=_checked_number(doc, "sigma_a"),
                           sigma_b=_checked_number(doc, "sigma_b"))
    if doc["kind"] == "sr":
        obs_frac = _checked_number(doc, "obs_frac", 1.0)
        m = _observed_count(n, obs_frac)
        omega = _checked_array(doc, "omega", None)
        if (omega.shape != (m,) or not np.issubdtype(omega.dtype, np.integer)
                or np.any((omega < 0) | (omega >= n)) or np.unique(omega).size != m):
            raise ValueError(f"instance 'omega' must hold round(obs_frac * n) = {m} "
                             f"distinct indices in [0, {n})")
        taus, c = _checked_array(doc, "taus", (k,)), _checked_array(doc, "c", (k,))
        if not _separated(taus, n):
            raise ValueError(f"instance 'taus' must lie in [0, 1) with circular gaps of at "
                             f"least 1/n = {1.0 / n:g}")
        x_star = _checked_array(doc, "x_star", (n,))
        _check_derived("g_f", g_f, lambda: _sr_objective(n))
        _check_derived("x_star", x_star, lambda: _spike_samples(n, taus, c))
        return SrInstance(n=n, k=k, taus=taus, c=c, x_star=x_star, omega=omega, g_f=g_f,
                          sigma=_checked_number(doc, "sigma"), obs_frac=obs_frac, seed=seed)
    raise ValueError(f"unknown instance kind: {doc['kind']!r}")


def bqp_multipliers(lam_ref: np.ndarray, g_f: np.ndarray) -> np.ndarray:
    """Diagonal multipliers recovered from a converged dual solution."""
    return np.diag(np.asarray(lam_ref) + np.asarray(g_f)).copy()
