"""Bijective step parameters for the extended proximal operators.

A parameter is a bounded linear bijection with the four actions the solvers
need: apply, adjoint, inverse, adjoint-inverse. All shipped variants are
self-adjoint, so the adjoint actions default to the plain ones. Entrywise
variants act as Hadamard multiplications and commute with diagonal and
fixed-entry constraints, which is what makes the linear-term proxes exact.
"""

from __future__ import annotations

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
        if alpha == 0.0 or not np.isfinite(alpha):
            raise ValueError("scalar parameter must be nonzero and finite")
        self.alpha = float(alpha)
        self.is_definiteness_invariant = self.alpha > 0.0

    def apply(self, v):
        return self.alpha * np.asarray(v)

    def inverse(self, v):
        return np.asarray(v) / self.alpha

    def to_config(self):
        return {"kind": "scalar", "alpha": self.alpha}

    def __repr__(self):
        return f"Scalar({self.alpha!r})"


class DiagonalEnergy(OperatorParam):
    """Diagonal parameter ``Diag(sqrt(d))`` acting on vectors.

    ``d`` collects per-coordinate energies; every entry must lie in
    ``(0, d_max]`` so the action stays a well-conditioned bijection.
    """

    def __init__(self, d: np.ndarray, d_max: float = 1e8):
        d = np.asarray(d, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("d must be a non-empty vector")
        if np.any(d <= 0.0) or np.any(d > d_max) or not np.all(np.isfinite(d)):
            raise ValueError(f"diagonal energies must lie in (0, {d_max:g}]")
        self.d = d
        self.d_max = float(d_max)
        self._sqrt_d = np.sqrt(d)

    def _check(self, v):
        v = np.asarray(v)
        if v.shape != self.d.shape:
            raise ValueError(f"expected vector of shape {self.d.shape}, got {v.shape}")
        return v

    def apply(self, v):
        return self._sqrt_d * self._check(v)

    def inverse(self, v):
        return self._check(v) / self._sqrt_d

    def to_config(self):
        return {"kind": "diagonal", "d": [float(x) for x in self.d]}

    def __repr__(self):
        return f"DiagonalEnergy(d=<{self.d.size} entries>)"


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
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError("alpha and beta must be positive")
        n, size = self.shape.n, self.shape.size
        w = np.full((size, size), float(self.alpha))
        w[:n, :n] = self.alpha / self.beta
        w[n:, n:] = self.alpha * self.beta
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_w_inv", (1.0 / w).astype(complex))

    def _check(self, v):
        v = np.asarray(v)
        size = self.shape.size
        if v.shape != (size, size):
            raise ValueError(f"expected matrix of shape {(size, size)}, got {v.shape}")
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

    def __repr__(self):
        return (f"SdpHadamard(alpha={self.alpha!r}, beta={self.beta!r}, "
                f"shape=BlockShape({self.shape.n}, {self.shape.k}))")


class _AdjointInverse(OperatorParam):
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


def adjoint_inverse_param(param: OperatorParam) -> OperatorParam:
    """Parameter view computing the adjoint-inverse action of ``param``."""
    return _AdjointInverse(param)


def param_from_config(cfg: dict) -> OperatorParam:
    """Rebuild a parameter from its flat config mapping."""
    kind = cfg.get("kind")
    if kind == "identity":
        return Identity()
    if kind == "scalar":
        return Scalar(float(cfg["alpha"]))
    if kind == "diagonal":
        return DiagonalEnergy(np.asarray(cfg["d"], dtype=float))
    if kind == "sdp-hadamard":
        return SdpHadamard(float(cfg["alpha"]), float(cfg["beta"]),
                           BlockShape(int(cfg["N"]), int(cfg["K"])))
    raise ValueError(f"unknown parameter kind: {kind!r}")


@dataclass
class InertiaReport:
    """Result of an empirical definiteness-invariance check."""

    passed: bool
    trials: int
    failures: int
    counterexample: np.ndarray | None


def _inertia(w: np.ndarray, tol: float) -> tuple[int, int, int]:
    return (int(np.sum(w > tol)), int(np.sum(w < -tol)),
            int(np.sum(np.abs(w) <= tol)))


def matrix_map_inertia_check(fn, n: int, trials: int = 1000, seed=0,
                             complex_field: bool = False, tol: float = 1e-9) -> InertiaReport:
    """Check that a Hermitian-to-Hermitian map preserves eigenvalue sign patterns.

    Draws random Hermitian inputs of mixed definiteness and compares inertia
    before and after the map, with an eigenvalue cutoff scaled by the input
    norm. Returns the first counterexample found, if any.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    counterexample = None
    for _ in range(trials):
        x = random_hermitian(n, rng, complex_field=complex_field)
        cut = tol * max(1.0, frob_norm(x))
        before = _inertia(np.linalg.eigvalsh(x), cut)
        after = _inertia(np.linalg.eigvalsh(np.asarray(fn(x))), cut)
        if before != after:
            failures += 1
            if counterexample is None:
                counterexample = x
    return InertiaReport(failures == 0, trials, failures, counterexample)


def definiteness_invariant_check(param: SdpHadamard, trials: int = 1000, seed=0,
                                 complex_field: bool = False) -> InertiaReport:
    """Empirical inertia-preservation check for a block-Hadamard parameter."""
    if not isinstance(param, SdpHadamard):
        raise ValueError("definiteness check targets the block-Hadamard parameter")
    return matrix_map_inertia_check(param.apply, param.shape.size, trials=trials,
                                    seed=seed, complex_field=complex_field)
