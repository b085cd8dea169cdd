"""Parametrized proximal evaluators.

Each evaluator computes ``argmin_z f(z) + 0.5 * ||S z - v||^2`` for its
objective ``f`` and a step parameter ``S``, a signed diagonal congruence. The
evaluators here are exact: cone indicators pull the metric projection onto the
cone's image under ``S`` back through ``S``, and the linear objectives separate
per entry under entrywise parameters, so diagonal and fixed-entry constraints
reduce to overwrites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import frob_norm, project_nsd, project_psd, project_toeplitz
from .params import AdjointInverse, Congruence

ProxFn = Callable[[Congruence, np.ndarray], np.ndarray]
#: ``param -> param.gram_inverse(g)`` for a linear objective matrix ``g``
_GramTerm = Callable[[Congruence], np.ndarray]


@dataclass(frozen=True)
class FixedEntrySet:
    """Pinned entries of the lifted variable's vector block (zero-based rows)."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        vals = np.asarray(self.values)
        if idx.ndim != 1 or vals.shape != idx.shape:
            raise ValueError("indices and values must be matching vectors")
        if idx.size != np.unique(idx).size:
            raise ValueError("indices must be distinct")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ProxPair:
    """The two proximal evaluators defining one splitting problem.

    ``constraint`` names the structure the f-prox enforces, ``g_f`` is the
    linear objective matrix when there is one, ``dim``/``is_complex``
    describe the ambient iterate.
    """

    f_prox: ProxFn
    g_prox: ProxFn
    g_f: np.ndarray | None = None
    constraint: str = "none"
    dim: int = 0
    is_complex: bool = False

    def zeros(self) -> np.ndarray:
        """Zero iterate of the ambient shape and dtype."""
        dtype = complex if self.is_complex else float
        return np.zeros((self.dim, self.dim), dtype=dtype)


def prox_psd_indicator(param: Congruence, v: np.ndarray) -> np.ndarray:
    """Prox of the PSD-cone indicator: a cone projection pulled back through the parameter.

    A congruence of sign +1 maps the PSD cone onto itself and one of sign -1
    onto the NSD cone, so ``param.apply(result)`` is the projection of ``v``
    onto that image, and the result is PSD.
    """
    return param.inverse(project_psd(v) if param.sign > 0 else project_nsd(v))


def prox_nsd_indicator(param: Congruence, v: np.ndarray) -> np.ndarray:
    """Prox of the NSD-cone indicator (conjugate partner of the PSD indicator)."""
    return param.inverse(project_nsd(v) if param.sign > 0 else project_psd(v))


def prox_linear_diag1(g: np.ndarray, param: Congruence, v: np.ndarray) -> np.ndarray:
    """Prox of a linear objective restricted to Hermitian matrices with unit diagonal.

    Exact for entrywise parameters: the quadratic separates per entry, so the
    unconstrained minimizer is corrected only on the diagonal.
    """
    return _linear_diag1(lambda p: p.gram_inverse(g), param, v)


def _linear_diag1(gram_term: _GramTerm, param: Congruence, v: np.ndarray) -> np.ndarray:
    """``prox_linear_diag1`` with the term ``param.gram_inverse(g)`` read from ``gram_term(param)``."""
    if not param.is_entrywise:
        raise ValueError("linear-term prox needs an entrywise parameter")
    x = param.inverse(v) - gram_term(param)
    # x is a fresh ufunc result, so C- or F-contiguous: this strided view is its diagonal
    x.ravel(order="K")[::x.shape[0] + 1] = 1.0
    return x


def prox_linear_sr(g: np.ndarray, observed: FixedEntrySet, param: Congruence,
                   v: np.ndarray) -> np.ndarray:
    """Prox of a linear objective over lifted spectral estimates.

    The feasible set pins the leading block to Hermitian Toeplitz form and
    pins the observed rows of the vector block. Exact for entrywise
    parameters whose grid is constant on the leading block, because the
    Toeplitz projection then commutes with the parameter.
    """
    return _linear_sr(lambda p: p.gram_inverse(g), observed, param, v)


def _linear_sr(gram_term: _GramTerm, observed: FixedEntrySet, param: Congruence,
               v: np.ndarray) -> np.ndarray:
    """``prox_linear_sr`` with the term ``param.gram_inverse(g)`` read from ``gram_term(param)``."""
    if not param.is_entrywise:
        raise ValueError("linear-term prox needs an entrywise parameter")
    v = np.asarray(v)
    m = v.shape[0] - 1
    idx = observed.indices
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise IndexError("observed indices outside the vector block")
    vt = v.copy()
    vt[:m, :m] = project_toeplitz(v[:m, :m])
    x = param.inverse(vt) - gram_term(param)
    x[idx, m] = observed.values
    x[m, idx] = np.conj(observed.values)
    return x


def prox_l1_orthogonal(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """l1 prox under a per-coordinate energy weighting ``Diag(sqrt(d))``.

    Reduces to a rescaled unit soft threshold coordinate by coordinate.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("energies must be positive")
    u = np.sqrt(d) * np.asarray(v)
    return np.sign(u) * np.maximum(np.abs(u) - 1.0, 0.0) / d


def moreau_residual(param: Congruence, f_prox: ProxFn, fstar_prox: ProxFn,
                    v: np.ndarray) -> float:
    """Defect of the parametrized prox decomposition of ``v``.

    Splits ``v`` through ``f_prox`` under ``param`` and through the
    conjugate's prox under the adjoint-inverse parameter; returns the norm of
    the reconstruction error, which is zero for a correct conjugate pair.
    """
    w = AdjointInverse(param)
    rec = param.apply(f_prox(param, v)) + w.apply(fstar_prox(w, v))
    return frob_norm(np.asarray(v) - rec)
