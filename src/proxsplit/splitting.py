"""Splitting solvers over a proximal pair and a step parameter.

Four algorithmically equivalent forms are provided: a two-point
Douglas-Rachford recursion on the governing sequence, an ADMM form, a
primal-dual form, and a primal-dual variant with explicit feasibility
iterate. Each is a short step generator over one shared run loop, which owns
guarding, residuals, the trace and stopping. Under matched initializations
they generate the same governing sequence up to roundoff.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .linalg import frob_norm
from .params import OperatorParam
from .prox import ProxPair

DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """Raised when an iterate leaves the trust region or turns non-finite."""


@dataclass
class StopRule:
    """Stopping policy: iteration cap plus optional thresholds.

    ``opt_eps`` bounds the primal optimality residual; ``mse_eps`` bounds the
    per-entry squared distance to ``reference`` and requires it.
    """

    max_iters: int = 10_000
    opt_eps: float | None = 1e-8
    mse_eps: float | None = None
    reference: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.mse_eps is not None and self.reference is None:
            raise ValueError("mse threshold needs a reference")

    def reason(self, opt_res: float, mse_val: float | None) -> str | None:
        if self.opt_eps is not None and opt_res <= self.opt_eps:
            return "opt_eps"
        if self.mse_eps is not None and mse_val is not None and mse_val <= self.mse_eps:
            return "mse_eps"
        return None


@dataclass
class SplitState:
    """Terminal iterates of a run.

    ``psi = S x + adjoint_inverse(S, lam)`` holds by construction, ``z`` is
    the resolvent output paired with ``x`` in the optimality residual.
    """

    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    psi: np.ndarray


@dataclass
class ConvergenceTrace:
    """Per-iteration diagnostics of one run.

    A run keeps each series in an ``array('d')``: 8 bytes a value instead of
    a list's 32, and one buffer when a worker process sends the trace back.
    """

    fp_residual_sq: array = field(default_factory=partial(array, "d"))
    opt_residual: array = field(default_factory=partial(array, "d"))
    mse: array | None = None
    elapsed_ms: array = field(default_factory=partial(array, "d"))
    anchor_sq: float = 0.0
    stop_reason: str = "max_iters"

    @property
    def iterations(self) -> int:
        return len(self.fp_residual_sq)

    @property
    def converged(self) -> bool:
        """Whether a threshold, not the iteration cap, stopped the run."""
        return self.stop_reason != "max_iters"


def _run_loop(steps, psi: np.ndarray, stop: StopRule,
              psi_hook) -> tuple[SplitState, ConvergenceTrace]:
    """Iteration loop shared by every form, started at governing iterate ``psi``.

    ``steps`` yields ``(x, z, lam, psi)`` per iteration: the primal iterate, the
    resolvent output and dual iterate paired with it, and the next governing
    iterate. Guarding, residuals, trace, hook and stopping live here.
    """
    psi_first = psi_prev = psi
    trace = ConvergenceTrace(mse=None if stop.reference is None else array("d"))
    for k in range(stop.max_iters):
        t0 = time.perf_counter()
        x, z, lam, psi = next(steps)
        for a in (x, psi):
            # one pass per array: a NaN or infinite entry makes the test fail too,
            # and so does a finite iterate whose squared norm overflows
            if not np.vdot(a, a).real <= DIVERGENCE_LIMIT ** 2:
                if not np.all(np.isfinite(a)):
                    raise DivergenceError("iterate turned non-finite")
                raise DivergenceError(f"iterate norm exceeded {DIVERGENCE_LIMIT:g}")
        step = psi - psi_prev
        fp_sq = float(np.vdot(step, step).real)
        opt_res = frob_norm(x - z)
        mse_val = None
        if trace.mse is not None:
            d = x - stop.reference
            mse_val = float(np.vdot(d, d).real) / d.size
            trace.mse.append(mse_val)
        trace.fp_residual_sq.append(fp_sq)
        trace.opt_residual.append(opt_res)
        trace.elapsed_ms.append((time.perf_counter() - t0) * 1e3)
        if psi_hook is not None:
            psi_hook(k + 1, psi)
        reason = stop.reason(opt_res, mse_val)
        if reason is not None:
            trace.stop_reason = reason
            break
        psi_prev = psi
    trace.anchor_sq = float(np.real(np.vdot(psi - psi_first, psi - psi_first)))
    return SplitState(x=x, z=z, lam=lam, psi=psi), trace


def run_drs(pair: ProxPair, param: OperatorParam, psi0: np.ndarray, stop: StopRule,
            psi_hook=None) -> tuple[SplitState, ConvergenceTrace]:
    """Two-point recursion on the governing sequence.

    Each iteration evaluates the g-prox at the current governing iterate,
    reflects, evaluates the f-prox and averages back.
    """

    def steps(psi):
        while True:
            z = pair.g_prox(param, psi)
            sz = param.apply(z)
            # in place only on the arrays allocated here: param.apply may return its
            # argument, and psi is the caller's iterate
            reflected = 2.0 * sz
            reflected -= psi
            x = pair.f_prox(param, reflected)
            psi_next = psi + param.apply(x)  # the same sum as param.apply(x) + psi
            psi_next -= sz
            # only the terminal dual is kept: yield what it is made of
            yield x, z, (psi, sz), psi_next
            psi = psi_next

    psi = np.array(psi0, copy=True)
    state, trace = _run_loop(steps(psi), psi, stop, psi_hook)
    psi_last, sz = state.lam
    state.lam = param.adjoint(psi_last - sz)
    return state, trace


def run_admm(pair: ProxPair, param: OperatorParam, z0: np.ndarray, lam0: np.ndarray,
             stop: StopRule, psi_hook=None) -> tuple[SplitState, ConvergenceTrace]:
    """Alternating-direction form with scaled dual updates."""

    def steps(z, lam):
        while True:
            x = pair.f_prox(param, param.apply(z) - param.adjoint_inverse(lam))
            psi = param.apply(x) + param.adjoint_inverse(lam)
            z_next = pair.g_prox(param, psi)
            lam_next = lam + param.adjoint(param.apply(x - z_next))
            yield x, z, lam, psi
            z, lam = z_next, lam_next

    z = np.array(z0, copy=True)
    lam = np.array(lam0, copy=True)
    return _run_loop(steps(z, lam), param.apply(z) + param.adjoint_inverse(lam), stop, psi_hook)


def run_pdf(pair: ProxPair, param: OperatorParam, psi0: np.ndarray, lam0: np.ndarray,
            stop: StopRule, psi_hook=None) -> tuple[SplitState, ConvergenceTrace]:
    """Primal-dual form carrying the governing iterate explicitly."""

    def steps(psi, lam, z_prev):
        while True:
            x = pair.f_prox(param, psi - 2.0 * param.adjoint_inverse(lam))
            psi = param.apply(x) + param.adjoint_inverse(lam)
            z = pair.g_prox(param, psi)
            lam_next = param.adjoint(psi - param.apply(z))
            yield x, z_prev, lam, psi
            lam, z_prev = lam_next, z

    psi = np.array(psi0, copy=True)
    lam = np.array(lam0, copy=True)
    return _run_loop(steps(psi, lam, pair.g_prox(param, psi)), psi, stop, psi_hook)


def run_pd(pair: ProxPair, param: OperatorParam, x0: np.ndarray, lam_prev: np.ndarray,
           lam0: np.ndarray, stop: StopRule, psi_hook=None) -> tuple[SplitState, ConvergenceTrace]:
    """Primal-dual form on the primal iterate and two dual memories.

    The dual prox is evaluated through the parametrized conjugate
    decomposition, so only the g-prox itself is required. The stopping
    residual equals the governing-sequence residual of the other forms.
    """

    def steps(x, lm, lam, z_prev):
        while True:
            x = pair.f_prox(param, param.apply(x) + param.adjoint_inverse(lm - 2.0 * lam))
            psi = param.apply(x) + param.adjoint_inverse(lam)
            z = pair.g_prox(param, psi)
            lam_next = param.adjoint(psi - param.apply(z))
            yield x, z_prev, lam, psi
            lm, lam, z_prev = lam, lam_next, z

    # x0 and lam_prev are never returned, so only lam0 needs a private copy
    lam = np.array(lam0, copy=True)
    psi = param.apply(x0) + param.adjoint_inverse(lam_prev)
    return _run_loop(steps(x0, lam_prev, lam, pair.g_prox(param, psi)), psi, stop, psi_hook)


def matched_admm_init(pair: ProxPair, param: OperatorParam,
                      psi0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ADMM start reproducing the governing sequence launched from ``psi0``."""
    z0 = pair.g_prox(param, psi0)
    lam0 = param.adjoint(np.asarray(psi0) - param.apply(z0))
    return z0, lam0


def matched_pdf_init(pair: ProxPair, param: OperatorParam,
                     psi0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feasibility-variant start reproducing the governing sequence from ``psi0``."""
    _, lam0 = matched_admm_init(pair, param, psi0)
    return np.asarray(psi0), lam0


def matched_pd_init(pair: ProxPair, param: OperatorParam,
                    psi0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primal-dual start reproducing the governing sequence from ``psi0``."""
    x0 = param.inverse(np.asarray(psi0))
    lam_prev = np.zeros_like(np.asarray(psi0))
    _, lam0 = matched_admm_init(pair, param, psi0)
    return x0, lam_prev, lam0


def sharp_rate_factor(l_coco: float, k: int) -> float:
    """Tight decay factor for the k-th squared step of an averaged map.

    ``l_coco`` is the inverse cocoercivity constant in ``(0, 1]``. The factor
    multiplies the squared distance from the start to a fixed point. At
    ``l_coco == 1`` the geometric expression degenerates to ``1/(k+1)``.
    """
    if not 0.0 < l_coco <= 1.0:
        raise ValueError("cocoercivity level must lie in (0, 1]")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if l_coco == 1.0:
        return 1.0 / (k + 1)
    a = l_coco / (2.0 - l_coco)
    return (a ** k) * (1.0 - a) / (1.0 - a ** (k + 1))


@dataclass(frozen=True)
class RateBound:
    """Decay-rate certificate: cocoercivity level plus the squared start distance.

    ``anchor_sq`` is the squared distance from the first governing iterate to
    a fixed point. The driver's ``run`` passes the exact one: from its zero
    start, ``acceleration_gain(param, ref_pair).numerator``. A trace's own
    ``anchor_sq``, the distance to its final iterate, only approximates it.
    """

    l_coco: float
    anchor_sq: float

    def __post_init__(self):
        if not 0.0 < self.l_coco <= 1.0:
            raise ValueError("cocoercivity level must lie in (0, 1]")
        if self.anchor_sq < 0.0:
            raise ValueError("anchor must be nonnegative")

    def factor(self, k: int) -> float:
        return sharp_rate_factor(self.l_coco, k)


@dataclass
class RateReport:
    """Outcome of auditing a trace against a rate bound."""

    ok: bool
    first_violation: int | None
    checked: int


def rate_check(trace: ConvergenceTrace, bound: RateBound) -> RateReport:
    """Verify each squared step of a trace against the rate bound.

    The bound's anchor is taken at face value, also when it comes from a
    final iterate rather than a true fixed point.
    """
    first = None
    for k, fp_sq in enumerate(trace.fp_residual_sq):
        if fp_sq > bound.factor(k) * bound.anchor_sq:
            first = k
            break
    return RateReport(first is None, first, trace.iterations)

