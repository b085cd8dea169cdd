"""Bijective step parameters for the extended proximal operators.

A parameter is a bounded linear bijection with the four actions the solvers
need: apply, adjoint, inverse, adjoint-inverse. All shipped variants are
self-adjoint, so the adjoint actions default to the plain ones. Entrywise
variants act as Hadamard multiplications and commute with diagonal and
fixed-entry constraints, which is what makes the linear-term proxes exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import frob_norm, random_hermitian


@dataclass(frozen=True)
class BlockShape:
    """2x2 block partition sizes: a leading n-block and a trailing k-block."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("block sizes must be positive")

    @property
    def size(self) -> int:
        return self.n + self.k


class OperatorParam:
    """Base interface for step parameters."""

    #: acts per matrix entry (Hadamard-style), so it commutes with entry constraints
    is_entrywise = False
    #: preserves eigenvalue sign patterns, so it commutes with cone projections
    is_definiteness_invariant = False

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        # all shipped variants are self-adjoint
        return self.apply(v)

    def inverse(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint_inverse(self, v: np.ndarray) -> np.ndarray:
        return self.inverse(v)

    def gram_inverse(self, v: np.ndarray) -> np.ndarray:
        """Inverse of adjoint-compose-apply, i.e. the normal-map inverse."""
        return self.inverse(self.adjoint_inverse(v))

    def to_config(self) -> dict:
        raise NotImplementedError


def _invertible(weight: float) -> bool:
    """Whether a weight and its reciprocal are both nonzero and finite."""
    return weight != 0.0 and math.isfinite(weight) and math.isfinite(1.0 / weight)


class Identity(OperatorParam):
    is_entrywise = True
    is_definiteness_invariant = True

    def apply(self, v):
        return np.asarray(v)

    def inverse(self, v):
        return np.asarray(v)

    def to_config(self):
        return {"kind": "identity"}


class Scalar(OperatorParam):
    """Multiplication by a nonzero scalar."""

    is_entrywise = True

    def __init__(self, alpha: float):
        self.alpha = float(alpha)
        if not _invertible(self.alpha):
            raise ValueError("scalar parameter and its reciprocal must be nonzero and finite")
        self.is_definiteness_invariant = self.alpha > 0.0

    def apply(self, v):
        return self.alpha * np.asarray(v)

    def inverse(self, v):
        return np.asarray(v) / self.alpha

    def to_config(self):
        return {"kind": "scalar", "alpha": self.alpha}


@dataclass(frozen=True, eq=False)
class SdpHadamard(OperatorParam):
    """Two-parameter Hadamard weighting adapted to a 2x2 block partition.

    The weight grid scales the leading block by ``alpha/beta``, the
    off-diagonal blocks by ``alpha`` and the trailing block by
    ``alpha*beta``; it is self-adjoint, self-dual under inversion of both
    parameters, and preserves matrix inertia (the grid is the congruence
    ``X -> D X D`` with ``D = Diag(sqrt(alpha/beta) I_n, sqrt(alpha*beta) I_k)``).
    """

    alpha: float
    beta: float
    shape: BlockShape
    _w: np.ndarray = field(init=False, repr=False, compare=False)
    _w_inv: np.ndarray = field(init=False, repr=False, compare=False)

    is_entrywise = True
    is_definiteness_invariant = True

    def __post_init__(self):
        alpha, beta = float(self.alpha), float(self.beta)
        weights = (alpha / beta if beta else 0.0, alpha, alpha * beta)
        if not (alpha > 0.0 and beta > 0.0 and all(map(_invertible, weights))):
            raise ValueError(f"alpha={alpha:g}, beta={beta:g}: alpha and beta must be positive and "
                             "the weights alpha/beta, alpha, alpha*beta and their inverses finite")
        n, size = self.shape.n, self.shape.size
        w = np.full((size, size), alpha)
        w[:n, :n], w[n:, n:] = weights[0], weights[2]
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_w_inv", (1.0 / w).astype(complex))

    def _check(self, v):
        v = np.asarray(v)
        if v.shape != self._w.shape:
            raise ValueError(f"expected matrix of shape {self._w.shape}, got {v.shape}")
        return v

    def apply(self, v):
        return self._w * self._check(v)

    def inverse(self, v):
        v = self._check(v)
        if v.dtype.kind == "c":
            # numpy divides by a real weight as a complex number, and its complex
            # division by ``w + 0j`` multiplies by ``1 / w``: the product below has
            # the same bits, barring the sign of a zero part, in a third of the time
            return v * self._w_inv
        # a real quotient is not the product with a rounded reciprocal
        return v / self._w

    def to_config(self):
        return {"kind": "sdp-hadamard", "alpha": self.alpha, "beta": self.beta,
                "N": self.shape.n, "K": self.shape.k}


class AdjointInverse(OperatorParam):
    """View of another parameter acting as its adjoint-inverse."""

    def __init__(self, base: OperatorParam):
        self.base = base
        self.is_entrywise = base.is_entrywise
        # the inverse of an inertia-preserving bijection preserves inertia
        self.is_definiteness_invariant = base.is_definiteness_invariant

    def apply(self, v):
        return self.base.adjoint_inverse(v)

    def adjoint(self, v):
        return self.base.inverse(v)

    def inverse(self, v):
        return self.base.adjoint(v)

    def adjoint_inverse(self, v):
        return self.base.apply(v)


@dataclass
class InertiaReport:
    """Result of an empirical definiteness-invariance check."""

    passed: bool
    trials: int
    failures: int
    counterexample: np.ndarray | None


def definiteness_invariant_check(param: SdpHadamard, trials: int = 1000, seed=0,
                                 complex_field: bool = False) -> InertiaReport:
    """Empirical inertia-preservation check for a block-Hadamard parameter.

    Draws random Hermitian inputs of mixed definiteness and compares the
    counts of positive and negative eigenvalues before and after
    ``param.apply``, with a cutoff of 1e-9 scaled by the input norm.
    Returns the first counterexample found, if any.
    """
    if not isinstance(param, SdpHadamard):
        raise ValueError("definiteness check targets the block-Hadamard parameter")
    rng = np.random.default_rng(seed)
    failures = 0
    counterexample = None
    for _ in range(trials):
        x = random_hermitian(param.shape.size, rng, complex_field=complex_field)
        cut = 1e-9 * max(1.0, frob_norm(x))
        signs = [(np.sum(w > cut), np.sum(w < -cut))
                 for w in (np.linalg.eigvalsh(x), np.linalg.eigvalsh(param.apply(x)))]
        if signs[0] != signs[1]:
            failures += 1
            if counterexample is None:
                counterexample = x
    return InertiaReport(failures == 0, trials, failures, counterexample)
