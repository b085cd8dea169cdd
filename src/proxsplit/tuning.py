"""Step-parameter selection.

Closed-form optima for scalar and diagonal parameters, separate and joint
choices for the block-Hadamard family, the acceleration gain they induce,
and a-priori estimates for the two shipped applications. All selections
minimize the squared start distance of the governing sequence to the primal
and dual solution pair, launched from a zero initial iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import frob_norm
from .params import BlockShape, Congruence, Identity, SdpHadamard
from .problems import bqp_objective


@dataclass(frozen=True)
class SolutionPair:
    """Primal and dual solutions used to score a step parameter.

    ``shape`` carries the block partition for matrix-valued pairs.
    """

    x_star: np.ndarray
    lam_star: np.ndarray
    shape: BlockShape | None = None

    def __post_init__(self):
        x = np.asarray(self.x_star)
        lam = np.asarray(self.lam_star)
        if x.shape != lam.shape:
            raise ValueError("primal and dual solutions must share a shape")
        object.__setattr__(self, "x_star", x)
        object.__setattr__(self, "lam_star", lam)


@dataclass(frozen=True)
class GainReport:
    """Squared start-distance ratio of a parameter versus the identity."""

    xi: float
    numerator: float
    denominator: float


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced search grid for the joint block-Hadamard selection."""

    lo: float = 1e-3
    hi: float = 1e3
    points: int = 200

    def __post_init__(self):
        if not 0.0 < self.lo < self.hi:
            raise ValueError("grid bounds must satisfy 0 < lo < hi")
        if self.points < 2:
            raise ValueError("grid needs at least two points")

    def values(self) -> np.ndarray:
        return np.logspace(math.log10(self.lo), math.log10(self.hi), self.points)


def optimal_scalar(pair: SolutionPair) -> float:
    """Best positive scalar parameter: fourth-root balance of dual over primal energy."""
    nx, nl = frob_norm(pair.x_star), frob_norm(pair.lam_star)
    if nx == 0.0 or nl == 0.0:
        raise ValueError("scalar selection needs nonzero primal and dual solutions")
    return math.sqrt(nl / nx)


def optimal_diagonal(pair: SolutionPair, d_max: float = 1e8) -> np.ndarray:
    """Best per-coordinate energies: dual-over-primal magnitude ratios.

    Zero primal coordinates get ``d_max``; zero dual coordinates get the
    mirrored floor ``1/d_max``; coordinates where both vanish are arbitrary
    and get 1. Ratios are clipped into ``[1/d_max, d_max]``.
    """
    x = np.abs(np.asarray(pair.x_star, dtype=float))
    lam = np.abs(np.asarray(pair.lam_star, dtype=float))
    d = np.ones_like(x)
    both = (x == 0) & (lam == 0)
    zero_x = (x == 0) & ~both
    rest = ~both & ~zero_x
    d[zero_x] = d_max
    with np.errstate(divide="ignore"):
        d[rest] = np.clip(lam[rest] / x[rest], 1.0 / d_max, d_max)
    return d


def block_sq_norms(m: np.ndarray, shape: BlockShape) -> tuple[float, float, float]:
    """Squared norms of the leading, corner and trailing blocks of ``m``."""
    m = np.asarray(m)
    if m.shape != (shape.size, shape.size):
        raise ValueError(f"matrix does not match block partition {shape}")
    n = shape.n
    lead = float(np.real(np.vdot(m[:n, :n], m[:n, :n])))
    corner = float(np.real(np.vdot(m[:n, n:], m[:n, n:])))
    trail = float(np.real(np.vdot(m[n:, n:], m[n:, n:])))
    return lead, corner, trail


def _matrix_pair_norms(pair: SolutionPair):
    if pair.shape is None:
        raise ValueError("block selection needs a block partition")
    return (block_sq_norms(pair.x_star, pair.shape),
            block_sq_norms(pair.lam_star, pair.shape))


def _fourth_root(num: float, den: float) -> float:
    """Fourth root of ``num / den``: ``den * t + num / t`` is least at ``t = sqrt(num / den)``."""
    ratio = num / den if den != 0.0 else math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError("degenerate block energies")
    return ratio ** 0.25


def sdp_separate_choices(pair: SolutionPair) -> tuple[float, float]:
    """One-parameter-at-a-time block-Hadamard optima.

    The first entry balances total dual over primal energy; the second
    balances the block energies that the beta-weighting trades off.
    """
    (x1, _, x2), (l1, _, l2) = _matrix_pair_norms(pair)
    return optimal_scalar(pair), _fourth_root(x1 + l2, x2 + l1)


def joint_objective(alpha, beta, pair: SolutionPair):
    """Exact squared start distance of a block-Hadamard parameter at a zero start."""
    (x1, x0, x2), (l1, l0, l2) = _matrix_pair_norms(pair)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return ((alpha / beta) ** 2 * x1 + 2.0 * alpha ** 2 * x0 + (alpha * beta) ** 2 * x2
            + (beta / alpha) ** 2 * l1 + 2.0 / alpha ** 2 * l0
            + l2 / (alpha * beta) ** 2)


def sdp_joint_search(pair: SolutionPair, grid: GridSpec = GridSpec()) -> tuple[float, float]:
    """Joint block-Hadamard selection: log-grid scan plus coordinate refinement.

    Deterministic: grid ties break toward the lexicographically smallest
    pair. Each of the three alpha-then-beta rounds takes the exact minimizer
    of ``joint_objective`` along one coordinate, which in ``t = alpha**2``
    (or ``beta**2``) has the form ``a * t + b / t``.
    """
    (x1, x0, x2), (l1, l0, l2) = _matrix_pair_norms(pair)
    vals = grid.values()
    ga, gb = np.meshgrid(vals, vals, indexing="ij")
    scores = joint_objective(ga, gb, pair)
    flat = int(np.argmin(scores))
    ia, ib = np.unravel_index(flat, scores.shape)
    alpha, beta = float(vals[ia]), float(vals[ib])
    for _ in range(3):
        b2 = beta ** 2
        alpha = _fourth_root(b2 * l1 + 2.0 * l0 + l2 / b2, x1 / b2 + 2.0 * x0 + b2 * x2)
        a2 = alpha ** 2
        beta = _fourth_root(a2 * x1 + l2 / a2, a2 * x2 + l1 / a2)
    return alpha, beta


def acceleration_gain(param: Congruence, pair: SolutionPair) -> GainReport:
    """Squared start distance under ``param`` relative to the identity."""
    num_v = param.apply(pair.x_star) + param.adjoint_inverse(pair.lam_star)
    den_v = pair.x_star + pair.lam_star
    num = float(np.real(np.vdot(num_v, num_v)))
    den = float(np.real(np.vdot(den_v, den_v)))
    if den == 0.0:
        raise ValueError("identity start distance is zero; gain undefined")
    return GainReport(num / den, num, den)


def bqp_regime(a: np.ndarray, b: np.ndarray, n: int) -> str:
    """Objective-energy regime of a Boolean least-squares instance.

    'small' when the objective matrix norm stays below the number of
    unknowns, else 'large'.
    """
    return "small" if frob_norm(bqp_objective(np.asarray(a), np.asarray(b))) < n else "large"


def bqp_separate_estimates(a: np.ndarray, b: np.ndarray, n: int) -> tuple[float, float]:
    """A-priori one-at-a-time block-Hadamard estimates for Boolean least squares.

    Derived from the solution energy envelopes: the dual energy tracks the
    objective matrix and the primal energy tracks the unit diagonal.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    g_norm = frob_norm(bqp_objective(a, b))
    if g_norm == 0.0:
        raise ValueError("estimate needs a nonzero objective")
    alpha_t = math.sqrt(g_norm / (n + 1))
    ata = a.T @ a
    beta_t = (n ** 2 / (1.0 + float(np.real(np.vdot(ata, ata))))) ** 0.25
    return alpha_t, beta_t


def bqp_estimate(a: np.ndarray, b: np.ndarray, n: int) -> SdpHadamard:
    """A-priori joint block-Hadamard estimate for Boolean least squares.

    In the small-energy regime the separate estimates are shifted jointly
    (alpha up, beta down by sqrt(2)); in the large regime the off-diagonal
    dual block dominates and the beta-weighting is left at 1.
    """
    shape = BlockShape(n, 1)
    alpha_t, beta_t = bqp_separate_estimates(a, b, n)
    if bqp_regime(a, b, n) == "small":
        return SdpHadamard(math.sqrt(2.0) * alpha_t, beta_t / math.sqrt(2.0), shape)
    return SdpHadamard(alpha_t, 1.0, shape)


def sr_estimate(n: int, k: int, sigma: float, mode: str = "joint") -> SdpHadamard:
    """A-priori block-Hadamard estimates for lifted spectral estimation.

    Derived from the energy envelopes of the lifted solution: amplitudes of
    standard deviation ``sigma`` over ``k`` spikes against ``n`` samples.
    ``mode`` picks the joint choice or one of the one-at-a-time choices.
    """
    if n < 1 or k < 1 or sigma <= 0:
        raise ValueError("need positive dimensions and amplitude scale")
    shape = BlockShape(n, 1)
    if mode == "joint":
        return SdpHadamard(1.0 / math.sqrt(0.8 * (n + 1) * sigma),
                           math.sqrt(n / k), shape)
    if mode == "alpha":
        return SdpHadamard(1.0 / math.sqrt((n + 1) * sigma), 1.0, shape)
    if mode == "beta":
        return SdpHadamard(1.0, math.sqrt(2.0 * n / 3.0), shape)
    raise ValueError(f"unknown estimate mode: {mode!r}")


def bqp_protocol_params(a: np.ndarray, b: np.ndarray, n: int,
                        sol: SolutionPair) -> dict[str, Congruence]:
    """Rows of the Boolean least-squares iteration protocol, in table order.

    The identity, the a-priori estimates and the optima scored against the
    reference solution pair ``sol``.
    """
    shape = BlockShape(n, 1)
    alpha_est, beta_est = bqp_separate_estimates(a, b, n)
    alpha_opt, beta_opt = sdp_separate_choices(sol)
    alpha_joint, beta_joint = sdp_joint_search(sol)
    return {
        "identity": Identity(),
        "est-alpha": SdpHadamard(alpha_est, 1.0, shape),
        "est-beta": SdpHadamard(1.0, beta_est, shape),
        "est-joint": bqp_estimate(a, b, n),
        "opt-alpha": SdpHadamard(alpha_opt, 1.0, shape),
        "opt-beta": SdpHadamard(1.0, beta_opt, shape),
        "opt-joint": SdpHadamard(alpha_joint, beta_joint, shape),
    }


def sr_protocol_params(n: int, k: int, sigma: float) -> dict[str, Congruence]:
    """Rows of the spectral super-resolution iteration protocol, in table order."""
    return {
        "identity": Identity(),
        "est-joint": sr_estimate(n, k, sigma, "joint"),
        "est-alpha": sr_estimate(n, k, sigma, "alpha"),
        "est-beta": sr_estimate(n, k, sigma, "beta"),
    }
