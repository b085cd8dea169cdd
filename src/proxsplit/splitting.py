"""Splitting solvers over a proximal pair and a step parameter.

Four algorithmically equivalent forms are provided: a two-point
Douglas-Rachford recursion on the governing sequence, an ADMM form, a
primal-dual form, and a primal-dual variant with explicit feasibility
iterate. Each is a short step generator over one shared run loop, which owns
guarding, residuals, the trace and stopping. Under matched initializations
they generate the same governing sequence up to roundoff. A fifth generator
over the same loop, ``run_drs_anderson``, evaluates the DRS map at Anderson
extrapolations instead: it finds a warm start for ``run_drs``.
"""

from __future__ import annotations

import ctypes
import math
import time
from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .linalg import _DPOSV, _args, frob_norm
from .params import Congruence
from .prox import ProxPair

DIVERGENCE_LIMIT = 1e12

#: ``run_drs_anderson``'s safeguarded type-II Anderson acceleration (Walker &
#: Ni, SIAM J. Numer. Anal. 2011; Zhang, O'Donoghue & Boyd, SIAM J. Optim.
#: 2020): how many image and residual differences it keeps, the shift of the
#: Gram diagonal relative to its largest entry, the factor over the least
#: fixed-point residual seen above which an extrapolated point is dropped, and
#: the factor over the image's norm above which a step is not taken. Chosen on
#: the BQP n=40/k=50 and SR n=50/k=10 references, where they cut the
#: iterations 3 to 5 times. The differences live on the Hermitian half of the
#: iterate (2601 coordinates on SR against 5202), so a memory of 40 takes the
#: bytes that 20 full differences took, and cuts the references a further
#: fifth (SR seed 2: 276 to 216 iterations, seed 7: 109 022 to 17 811).
#: Accepted steps stayed below 7 times the image's norm over the references
#: and a 126-case parameter grid; the steps that pushed an iterate past
#: ``DIVERGENCE_LIMIT`` there were 4e10 times it and more.
ANDERSON_MEMORY = 40
ANDERSON_SHIFT = 1e-10
ANDERSON_SAFEGUARD = 1.5
ANDERSON_REACH = 100.0


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


def _drs_map(pair: ProxPair, param: Congruence, psi: np.ndarray):
    """The DRS map at governing iterate ``psi``: ``(x, z, sz, image)`` with ``sz = S z``.

    It evaluates the g-prox at ``psi``, reflects, evaluates the f-prox and
    averages back into the image.
    """
    z = pair.g_prox(param, psi)
    sz = param.apply(z)
    # in place only on the arrays allocated here: param.apply may return its
    # argument, and psi is the caller's iterate
    reflected = 2.0 * sz
    reflected -= psi
    x = pair.f_prox(param, reflected)
    image = psi + param.apply(x)  # the same sum as param.apply(x) + psi
    image -= sz
    return x, z, sz, image


def _drs_loop(steps, param: Congruence, psi0: np.ndarray, stop: StopRule,
              psi_hook) -> tuple[SplitState, ConvergenceTrace]:
    """``_run_loop`` over the DRS step generator ``steps`` started at a copy of ``psi0``.

    The steps yield each dual as its parts ``(psi, sz)``; only the terminal
    one is built.
    """
    psi = np.array(psi0, copy=True)
    state, trace = _run_loop(steps(psi), psi, stop, psi_hook)
    psi_last, sz = state.lam
    state.lam = param.adjoint(psi_last - sz)
    return state, trace


def run_drs(pair: ProxPair, param: Congruence, psi0: np.ndarray, stop: StopRule,
            psi_hook=None) -> tuple[SplitState, ConvergenceTrace]:
    """Two-point recursion on the governing sequence: each iterate is the last one's image."""

    def steps(psi):
        while True:
            x, z, sz, psi_next = _drs_map(pair, param, psi)
            # only the terminal dual is kept: yield what it is made of
            yield x, z, (psi, sz), psi_next
            psi = psi_next

    return _drs_loop(steps, param, psi0, stop, psi_hook)


def _hermitian_half(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Hermitian half of a square array's shape and dtype, as coordinates.

    Returns ``(index, weight, spread)``. ``index`` picks the real diagonal and
    the strictly lower triangle (real and imaginary parts for complex input)
    out of the array's flat ``float64`` view, in memory order. ``weight`` is 1
    on the diagonal and sqrt(2) off it: the dot product of two weighted halves
    is the Frobenius inner product ``Re vdot`` of the two Hermitian arrays.
    ``spread`` unpacks a half ``h``: gathering ``[h, -h, 0]`` at it gives the
    flat ``float64`` view of the Hermitian array.
    """
    size, parts = a.shape[0], 2 if a.dtype.kind == "c" else 1
    half = np.zeros((size, size, parts), dtype=bool)
    half[..., 0] = np.tri(size, dtype=bool)
    half[..., 1:] = np.tri(size, k=-1, dtype=bool)[..., None]
    index = np.flatnonzero(half)
    diag = np.broadcast_to(np.eye(size, dtype=bool)[..., None], half.shape)[half]
    # the diagonal's imaginary parts take the zero; the upper triangle mirrors the
    # lower one, its imaginary parts negated
    spread = np.full(half.shape, 2 * index.size)
    spread[half] = np.arange(index.size)
    upper = ~np.tri(size, dtype=bool)
    spread[upper] = spread.transpose(1, 0, 2)[upper] + np.array([0, index.size])[:parts]
    return index, np.where(diag, 1.0, math.sqrt(2.0)), spread.reshape(-1)


def run_drs_anderson(pair: ProxPair, param: Congruence, psi0: np.ndarray,
                     stop: StopRule) -> tuple[SplitState, ConvergenceTrace]:
    """DRS map evaluations at Anderson extrapolations of the last images.

    At each point it yields what ``run_drs`` yields there; the returned
    state's ``psi`` is the last plain image, a start for ``run_drs``. The
    next point minimizes the linearized fixed-point residual over the last
    ``ANDERSON_MEMORY`` image and residual differences. DRS images of both
    shipped pairs are exactly Hermitian, so it works on their Hermitian half
    (``_hermitian_half``): residuals are weighted so that every Gram entry is
    the full Frobenius inner product, and each point is unpacked into an
    exactly Hermitian array. A Gram solve that LAPACK reports failed
    (``info != 0``) falls back to the plain image; so does a step that is not
    finite or longer than ``ANDERSON_REACH`` times the image, which also
    clears the memory. An extrapolated point whose residual exceeds
    ``ANDERSON_SAFEGUARD`` times the least seen is dropped: the run goes back
    to the last accepted plain image and clears its memory.
    """

    def steps(psi):
        memory = ANDERSON_MEMORY
        index, weight, spread = _hermitian_half(psi)
        size = index.size

        def half_of(a, out):
            return np.take(a.reshape(-1).view(np.float64), index, out=out)

        # ring buffers of the image and weighted residual differences on the half, and
        # the residuals' Gram matrix, one row per push
        d_image = np.zeros((memory, size))
        d_resid = np.zeros_like(d_image)
        gram = np.zeros((memory, memory))
        # the half of the point's image and its weighted residual, and the last accepted
        # ones, in turn: row ``turn`` takes the point's. A push overwrites the older
        # residual with the pushed difference, so that one product over the ring gives
        # the new Gram row and the right-hand side
        images, resids, turn = np.zeros((2, size)), np.zeros((2, size)), 0
        products = np.zeros((memory, 2))
        step = np.zeros(size)
        psi_half = half_of(psi, np.zeros(size))
        # the point's half, its negation and a zero, which ``spread`` unpacks
        spread_from = np.zeros(2 * size + 1)
        point_half, negated = spread_from[:size], spread_from[size:-1]
        # dposv solves lhs[:held, :held] w = rhs[:held] in place, leading dimension
        # memory; it reads the C-ordered lhs as its transpose, the same symmetric matrix
        lhs, rhs = np.zeros((memory, memory)), np.zeros(memory)
        held, lead, one, info = (ctypes.c_int(v) for v in (0, memory, 1, 0))
        solve_args = _args(b"L", held, one, lhs, lead, rhs, lead, info)
        lhs_diag = lhs.reshape(-1)[::memory + 1]
        pushed = 0  # differences pushed since the start or the last restart
        has_last, least, extrapolated = False, np.inf, False
        while True:
            x, z, sz, image = _drs_map(pair, param, psi)
            yield x, z, (psi, sz), image
            f = half_of(image, images[turn])
            g = np.subtract(psi_half, f, out=resids[turn])
            g *= weight
            res = math.sqrt(g @ g)
            if extrapolated and res > ANDERSON_SAFEGUARD * least:
                psi, psi_half = accepted, images[turn ^ 1]
                pushed, has_last, extrapolated = 0, False, False
                continue
            least = min(least, res)
            if has_last:
                slot = pushed % memory
                np.subtract(f, images[turn ^ 1], out=d_image[slot])
                d_resid[slot] = np.subtract(g, resids[turn ^ 1], out=resids[turn ^ 1])
                pushed += 1
            has_last, accepted, psi, psi_half, extrapolated = True, image, image, f, False
            turn ^= 1
            k = held.value = min(pushed, memory)
            if not k:
                continue
            # the accepted residual is now row turn ^ 1, and the pushed difference row turn
            both = np.matmul(d_resid[:k], resids.T, out=products[:k])
            gram[slot, :k] = gram[:k, slot] = both[:, turn]
            rhs[:k] = both[:, turn ^ 1]
            # dposv reads the leading k x k block only
            np.copyto(lhs, gram)
            lhs_diag += ANDERSON_SHIFT * gram.diagonal()[:k].max()
            _DPOSV(*solve_args)
            if info.value != 0:
                continue
            np.dot(rhs[:k], d_image[:k], out=step)
            # on the unweighted half, within a factor sqrt(2) of the full ratio; false
            # for a step that is not finite too. The image passed the run loop's
            # guard, so a step within the bound leaves the point finite
            if not step @ step <= ANDERSON_REACH ** 2 * (f @ f):
                pushed = 0
                continue
            np.subtract(f, step, out=point_half)
            np.negative(point_half, out=negated)
            point = np.take(spread_from, spread).view(image.dtype).reshape(image.shape)
            psi, psi_half, extrapolated = point, point_half, True

    return _drs_loop(steps, param, psi0, stop, None)


def run_admm(pair: ProxPair, param: Congruence, z0: np.ndarray, lam0: np.ndarray,
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


def run_pdf(pair: ProxPair, param: Congruence, psi0: np.ndarray, lam0: np.ndarray,
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


def run_pd(pair: ProxPair, param: Congruence, x0: np.ndarray, lam_prev: np.ndarray,
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


def matched_admm_init(pair: ProxPair, param: Congruence,
                      psi0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ADMM start reproducing the governing sequence launched from ``psi0``."""
    z0 = pair.g_prox(param, psi0)
    lam0 = param.adjoint(np.asarray(psi0) - param.apply(z0))
    return z0, lam0


def matched_pdf_init(pair: ProxPair, param: Congruence,
                     psi0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feasibility-variant start reproducing the governing sequence from ``psi0``."""
    _, lam0 = matched_admm_init(pair, param, psi0)
    return np.asarray(psi0), lam0


def matched_pd_init(pair: ProxPair, param: Congruence,
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
        if fp_sq > sharp_rate_factor(bound.l_coco, k) * bound.anchor_sq:
            first = k
            break
    return RateReport(first is None, first, trace.iterations)

