"""Dense Hermitian matrix primitives shared by the solver stack.

Matrices are treated as elements of a real Hilbert space: the inner product
is ``Re trace(A^H B)`` and the norm is Frobenius, so real-symmetric and
complex-Hermitian data are handled uniformly without embedding tricks.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np
import scipy.linalg
from scipy.linalg import cython_lapack


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


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _capsule_function(name: str, n_args: int):
    """LAPACK routine ``name`` from scipy's Cython capsule table as a ctypes function.

    The three leading arguments are single characters; every other argument
    is a pointer. A ``CFUNCTYPE`` call releases the GIL while LAPACK runs,
    which the f2py wrappers behind ``scipy.linalg.eigh`` do not.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_char_p] * 3, *[ctypes.c_void_p] * (n_args - 3))
    return prototype(address)


_DSYEVR = _capsule_function("dsyevr", 21)
_ZHEEVR = _capsule_function("zheevr", 23)

#: Bytes before the arrays in an ``_EvrPlan`` buffer: eight C ints
#: (n, ld, il = iu, lwork, lrwork, liwork, m, info), then (vl, vu, abstol).
_HEAD_BYTES = 64


class _EvrPlan:
    """Layout of every ``dsyevr``/``zheevr`` argument inside one buffer, for one ``(n, dtype)``.

    A fresh buffer per call keeps concurrent calls independent and costs a
    single pointer lookup. The eigenvalue range is ``(0, +inf)``, so LAPACK
    returns the positive eigenpairs only.
    """

    def __init__(self, n: int, dtype: np.dtype, lwork: int, lrwork: int, liwork: int):
        self.n, self.dtype = n, dtype
        item = dtype.itemsize
        sizes = {"a": n * n * item, "z": n * n * item, "w": n * 8, "isuppz": 2 * n * 4,
                 "work": lwork * item, "rwork": lrwork * 8, "iwork": liwork * 4}
        self.offsets, pos = {}, _HEAD_BYTES
        for key, size in sizes.items():
            self.offsets[key] = pos
            pos += -(-max(size, 1) // 16) * 16
        self.nbytes = pos
        self.head = np.zeros(_HEAD_BYTES, dtype=np.uint8)
        self.head[:32].view(np.intc)[:] = (n, max(n, 1), 1, lwork, lrwork, liwork, 0, 0)
        self.head[32:56].view(np.float64)[:] = (0.0, np.inf, 0.0)
        n_, ld, idx, lw, lrw, liw, m, info = range(0, 32, 4)
        vl, vu, abstol = 32, 40, 48
        o = self.offsets
        args = [n_, o["a"], ld, vl, vu, idx, idx, abstol, m, o["w"], o["z"], ld, o["isuppz"],
                o["work"], lw]
        if dtype.kind == "c":
            self.routine = _ZHEEVR
            args += [o["rwork"], lrw, o["iwork"], liw, info]
        else:
            self.routine = _DSYEVR
            args += [o["iwork"], liw, info]
        self.arg_offsets = tuple(args)

    def view(self, buf: np.ndarray, key: str, dtype, count: int) -> np.ndarray:
        start = self.offsets[key]
        return buf[start:start + count * np.dtype(dtype).itemsize].view(dtype)

    def call(self, h: np.ndarray | None) -> tuple[np.ndarray, int, int]:
        """Run LAPACK on Hermitian ``h`` (``None``: workspace query); return ``(buffer, m, info)``."""
        buf = np.empty(self.nbytes, dtype=np.uint8)
        buf[:_HEAD_BYTES] = self.head
        if h is not None:
            self.view(buf, "a", self.dtype, self.n * self.n).reshape(self.n, self.n)[...] = h
        base = buf.ctypes.data
        self.routine(b"V", b"V", b"L", *[base + off for off in self.arg_offsets])
        m, info = buf[24:32].view(np.intc)  # the last two int slots
        return buf, int(m), int(info)


@functools.lru_cache(maxsize=None)
def _evr_plan(n: int, dtype: np.dtype) -> _EvrPlan:
    """Plan with LAPACK's optimal workspace sizes for ``(n, dtype)``, queried once."""
    query = _EvrPlan(n, dtype, -1, -1, -1)
    buf, _, info = query.call(None)
    if info != 0:
        raise np.linalg.LinAlgError(f"workspace query failed (info={info})")
    lwork = int(query.view(buf, "work", dtype, 1)[0].real)
    lrwork = int(query.view(buf, "rwork", np.float64, 1)[0]) if dtype.kind == "c" else 0
    liwork = int(query.view(buf, "iwork", np.intc, 1)[0])
    return _EvrPlan(n, dtype, lwork, lrwork, liwork)


def positive_eigenpairs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of finite Hermitian ``h`` with strictly positive eigenvalue.

    Returns ``(w, v)``, ``w`` ascending, ``v`` with one eigenvector per
    column, like ``np.linalg.eigh`` restricted to ``w > 0``. Only the
    tridiagonal reduction is paid in full; eigenvalues come from bisection
    and eigenvectors from inverse iteration for the positive ones alone.
    ``h`` must be exactly Hermitian, since LAPACK reads one triangle only.
    """
    n = h.shape[0]
    dtype = np.dtype(np.complex128 if np.iscomplexobj(h) else np.float64)
    plan = _evr_plan(n, dtype)
    buf, r, info = plan.call(h)
    if info != 0:
        raise np.linalg.LinAlgError(f"eigensolver failed (info={info})")
    w = plan.view(buf, "w", np.float64, r)
    # LAPACK reads the C-ordered h column by column, i.e. conj(h), and
    # returns its eigenvectors as the rows of a C-ordered array.
    rows = plan.view(buf, "z", dtype, r * n).reshape(r, n)
    return w, rows.conj().T


def project_psd(m) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (negative eigenvalues clipped).

    Built from the positive eigenpairs alone, which is cheap when few
    eigenvalues are positive, as on the solver's iterates.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("project_psd expects a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("project_psd: non-finite entries")
    h = hermitian_part(m)
    w, v = positive_eigenpairs(h)
    if w.size == h.shape[0]:
        return h
    if w.size == 0:
        return np.zeros_like(h)
    return hermitian_part((v * w) @ v.conj().T)


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
    offsets = _diagonal_offsets(n)
    if np.iscomplexobj(q):
        out = (np.bincount(offsets, weights=q.real.ravel(), minlength=2 * n - 1)
               + 1j * np.bincount(offsets, weights=q.imag.ravel(), minlength=2 * n - 1))
    else:
        out = np.bincount(offsets, weights=q.ravel(), minlength=2 * n - 1)
    out = out[n - 1:]
    out[1:] *= 2.0
    return out


@functools.lru_cache(maxsize=None)
def _diagonal_offsets(n: int) -> np.ndarray:
    """``i - j + n - 1`` for every entry ``(i, j)`` of an ``n x n`` matrix, row-major."""
    i, j = np.indices((n, n))
    offsets = (i - j + n - 1).ravel()
    offsets.flags.writeable = False
    return offsets


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
