"""Dense Hermitian matrix primitives shared by the solver stack.

Matrices are treated as elements of a real Hilbert space: the inner product
is ``Re trace(A^H B)`` and the norm is Frobenius, so real-symmetric and
complex-Hermitian data are handled uniformly without embedding tricks.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Average ``m`` with its conjugate transpose."""
    m = np.asarray(m)
    return 0.5 * (m + m.conj().T)


def frob_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product ``Re trace(a^H b)``."""
    return float(np.real(np.vdot(a, b)))


def frob_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Returns ``(w, v)`` with ``m = v @ diag(w) @ v.conj().T`` up to roundoff.
    The input is symmetrized first; non-finite entries are rejected.
    """
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("eig_hermitian: non-finite entries")
    return np.linalg.eigh(hermitian_part(m))


def project_psd(m) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (negative eigenvalues clipped)."""
    w, v = eig_hermitian(m)
    if w.size == 0 or w[0] >= 0.0:
        return hermitian_part(m)
    return hermitian_part((v * np.maximum(w, 0.0)) @ v.conj().T)


def project_nsd(m) -> np.ndarray:
    """Frobenius-nearest negative semidefinite matrix."""
    return -project_psd(-np.asarray(m))


def toeplitz_map(u: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix with first column ``u``.

    The diagonal value ``u[0]`` must be real so the result is Hermitian.
    """
    u = np.asarray(u)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("toeplitz_map expects a non-empty vector")
    if np.iscomplexobj(u) and u[0].imag != 0.0:
        raise ValueError("toeplitz_map: u[0] must be real")
    return scipy.linalg.toeplitz(u, u.conj())


def toeplitz_adjoint(q) -> np.ndarray:
    """Adjoint of ``toeplitz_map`` under the real trace inner product.

    Entry ``d`` collects the ``d``-th subdiagonal sum of ``q``; entries for
    ``d >= 1`` are doubled because they pair with two mirrored diagonals.
    """
    q = np.asarray(q)
    n = q.shape[0]
    out = np.array([q.trace(offset=-d) for d in range(n)])
    out[1:] *= 2.0
    return out


def toeplitz_gram_diag(n: int) -> np.ndarray:
    """Diagonal of ``toeplitz_adjoint(toeplitz_map(.))``: ``(n, 2(n-1), ..., 2)``."""
    if n < 1:
        raise ValueError("n must be positive")
    return np.concatenate(([float(n)], 2.0 * np.arange(n - 1, 0, -1)))


def project_toeplitz(q) -> np.ndarray:
    """Orthogonal projection onto Hermitian Toeplitz matrices (per-diagonal averaging)."""
    q = np.asarray(q)
    u = toeplitz_adjoint(q) / toeplitz_gram_diag(q.shape[0])
    if np.iscomplexobj(u):
        # the diagonal mean of a Hermitian matrix is real up to roundoff
        u[0] = u[0].real
    return toeplitz_map(u)


def gaussian_sample(rows: int, cols: int, sigma: float, seed) -> np.ndarray:
    """i.i.d. ``N(0, sigma^2)`` matrix, reproducible bit-for-bit for a fixed seed."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.default_rng(seed)
    return sigma * rng.standard_normal((rows, cols))


def random_hermitian(n: int, rng: np.random.Generator, complex_field: bool = False,
                     scale: float = 1.0) -> np.ndarray:
    """Random dense Hermitian matrix with entries on the ``scale`` level."""
    a = rng.standard_normal((n, n))
    if complex_field:
        a = a + 1j * rng.standard_normal((n, n))
    return hermitian_part(scale * a)
