"""Step parameters: signed diagonal congruences.

Every step parameter is ``X -> sign * M X M^H`` with a real diagonal
``M = Diag(m)`` and ``sign = +1`` or ``-1``. It is held as its signed grid
``sign * m m^T``, so each action is a Hadamard product or quotient. Such an
action is self-adjoint, so the adjoint actions are the plain ones, and it acts
per entry, so it commutes with the diagonal and fixed-entry constraints that
make the linear-term proxes exact. A congruence maps the PSD cone onto itself,
and its negative maps it onto the NSD cone, so the cone proxes stay metric
projections pulled back through the parameter: the parameter need not be
positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


class Congruence:
    """The step parameter ``X -> sign * M X M^H`` for a real diagonal ``M = Diag(m)``.

    ``grid`` is ``sign * m m^T``: a float when ``M`` is a multiple of the
    identity, else a real symmetric array of the iterate's shape. Its entries
    and their reciprocals must be nonzero and finite, and its diagonal holds
    one sign, which is ``sign``. The fields are read-only.
    """

    #: M is diagonal: the actions act per entry, so they commute with entry constraints
    is_entrywise = True
    _refusal = "a congruence's weights and their reciprocals must be nonzero and finite"

    def __init__(self, grid):
        g = np.array(grid, dtype=float)  # a private copy, made read-only below
        if g.ndim not in (0, 2) or g.shape[::-1] != g.shape or not g.size:
            raise ValueError("a congruence's grid is a float or a square array")
        with np.errstate(divide="ignore", over="ignore"):
            if not np.all((g != 0.0) & np.isfinite(g) & np.isfinite(1.0 / g)):
                raise ValueError(self._refusal.format(self=self))
        diag = np.diagonal(g) if g.ndim else g
        if not (np.all(diag > 0.0) or np.all(diag < 0.0)):
            raise ValueError("a congruence's grid holds one sign on its diagonal")
        g.flags.writeable = False
        # a float grid's actions take any shape and need no complex forms
        self.__dict__.update(grid=g if g.ndim else float(g), sign=1 if diag.flat[0] > 0 else -1,
                             _is_array=g.ndim == 2)

    @cached_property
    def _complex_forms(self):
        """The array grid and its reciprocal as complex, made on the first complex action.

        numpy multiplies a complex array by a real grid as by ``grid + 0j``, and
        divides by it as by multiplying with ``1 / grid``, so the products with
        these copies have the bits of the real product and quotient, barring the
        sign of a zero part, in two thirds and a third of the time. Real iterates
        never make them, nor send them to a worker process.
        """
        return self.grid.astype(complex), (1.0 / self.grid).astype(complex)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __setstate__(self, state):  # a pickle does not keep the grid read-only
        self.__dict__.update(state)
        np.asarray(self.grid).flags.writeable = False

    def _check(self, v):
        v = np.asarray(v)
        if self._is_array and v.shape != self.grid.shape:
            raise ValueError(f"expected matrix of shape {self.grid.shape}, got {v.shape}")
        return v

    def apply(self, v):
        v = self._check(v)
        if self._is_array and v.dtype.kind == "c":
            return self._complex_forms[0] * v
        return self.grid * v

    def adjoint(self, v):
        return self.apply(v)

    def inverse(self, v):
        v = self._check(v)
        if self._is_array and v.dtype.kind == "c":
            return v * self._complex_forms[1]
        # a real quotient is not the product with a rounded reciprocal
        return v / self.grid

    def adjoint_inverse(self, v):
        return self.inverse(v)

    def gram_inverse(self, v):
        """Inverse of adjoint-compose-apply, i.e. the normal-map inverse."""
        return self.inverse(self.adjoint_inverse(v))


def AdjointInverse(param: Congruence) -> Congruence:
    """The parameter's adjoint-inverse: the congruence with the reciprocal grid."""
    return Congruence(1.0 / param.grid)


class Identity(Congruence):
    """``M = I``; its actions return their argument."""

    def __init__(self):
        super().__init__(1.0)

    def apply(self, v):
        return np.asarray(v)

    def inverse(self, v):
        return np.asarray(v)

    def to_config(self):
        return {"kind": "identity"}


class Scalar(Congruence):
    """Multiplication by a nonzero scalar: ``M = sqrt(|alpha|) I`` with the sign of ``alpha``."""

    _refusal = "scalar parameter and its reciprocal must be nonzero and finite"

    def __init__(self, alpha: float):
        self.__dict__["alpha"] = float(alpha)
        super().__init__(self.alpha)

    def to_config(self):
        return {"kind": "scalar", "alpha": self.alpha}


class SdpHadamard(Congruence):
    """Two-parameter Hadamard weighting adapted to a 2x2 block partition.

    The weight grid scales the leading block by ``alpha/beta``, the
    off-diagonal blocks by ``alpha`` and the trailing block by
    ``alpha*beta``. It is self-dual under inversion of both parameters. With
    ``sign`` the sign of ``alpha*beta``, it is the congruence of
    ``M = Diag(sqrt(|alpha/beta|) I_n, sign(beta) sqrt(|alpha*beta|) I_k)``.
    """

    _refusal = ("alpha={self.alpha:g}, beta={self.beta:g}: the weights alpha/beta, alpha, "
                "alpha*beta and their reciprocals must be nonzero and finite")

    def __init__(self, alpha: float, beta: float, shape: BlockShape):
        self.__dict__.update(alpha=float(alpha), beta=float(beta), shape=shape)
        n, size = shape.n, shape.size
        w = np.full((size, size), self.alpha)
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            w[:n, :n], w[n:, n:] = np.float64(self.alpha) / self.beta, self.alpha * self.beta
        super().__init__(w)

    def to_config(self):
        return {"kind": "sdp-hadamard", "alpha": self.alpha, "beta": self.beta,
                "N": self.shape.n, "K": self.shape.k}


@dataclass
class InertiaReport:
    """Result of an empirical definiteness-invariance check."""

    passed: bool
    trials: int
    failures: int
    counterexample: np.ndarray | None


def definiteness_invariant_check(param: SdpHadamard, trials: int = 1000, seed=0,
                                 complex_field: bool = False) -> InertiaReport:
    """Empirical inertia check for a block-Hadamard parameter.

    Draws random Hermitian inputs of mixed definiteness and compares the
    counts of positive and negative eigenvalues before and after
    ``param.apply``, with a cutoff of 1e-9 scaled by the input norm. A
    parameter of sign -1 must swap the two counts. Returns the first
    counterexample found, if any.
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
        if signs[0] != signs[1][::param.sign]:
            failures += 1
            if counterexample is None:
                counterexample = x
    return InertiaReport(failures == 0, trials, failures, counterexample)
