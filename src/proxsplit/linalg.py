"""Dense Hermitian matrix primitives shared by the solver stack.

Matrices are treated as elements of a real Hilbert space: the inner product
is ``Re trace(A^H B)`` and the norm is Frobenius, so real-symmetric and
complex-Hermitian data are handled uniformly without embedding tricks.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading

import numpy as np
import scipy


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Average ``m`` with its conjugate transpose."""
    m = np.asarray(m)
    return 0.5 * (m + m.conj().T)


def frob_norm(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Returns ``(w, v)`` with ``m = v @ diag(w) @ v.conj().T`` up to roundoff.
    The input is symmetrized first; non-finite entries are rejected.
    """
    h = hermitian_part(m)
    # checked after symmetrizing, so entries that overflow there are rejected too
    if not np.all(np.isfinite(h)):
        raise ValueError("eig_hermitian: non-finite entries (or overflow while symmetrizing)")
    return np.linalg.eigh(h)


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


@functools.cache
def _lapack_capsules() -> dict:
    """``scipy.linalg.cython_lapack``'s capsules without ``scipy/linalg/__init__.py`` (0.3 s).

    Cython puts the module in ``sys.modules`` as it loads; dropping that entry lets a later
    import bind it as ``scipy.linalg.cython_lapack``. Without its file: the package import.
    """
    name = "scipy.linalg.cython_lapack"
    spec = None if name in sys.modules else importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        return importlib.import_module(name).__pyx_capi__
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module.__pyx_capi__


def _capsule_function(name: str, n_chars: int, n_args: int):
    """LAPACK routine ``name`` from scipy's Cython capsule table as a ctypes function.

    The ``n_chars`` leading arguments are single characters; every other
    argument is a pointer. A ``CFUNCTYPE`` call releases the GIL while LAPACK
    runs, which the f2py wrappers behind ``scipy.linalg.eigh`` do not.
    """
    capsule = _lapack_capsules()[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_char_p] * n_chars,
                                 *[ctypes.c_void_p] * (n_args - n_chars))
    return prototype(address)


_DSYTD2 = _capsule_function("dsytd2", 1, 8)
_ZHETD2 = _capsule_function("zhetd2", 1, 8)
_DLARRC = _capsule_function("dlarrc", 1, 11)
_DSTEMR = _capsule_function("dstemr", 2, 21)
_DSTEDC = _capsule_function("dstedc", 1, 11)
_DORMTR = _capsule_function("dormtr", 3, 13)
_ZUNMTR = _capsule_function("zunmtr", 3, 13)

def _args(*args) -> tuple:
    """A call's arguments: each character as it is, each array's or C scalar's address."""
    return tuple(a if isinstance(a, bytes) else a.ctypes.data if isinstance(a, np.ndarray)
                 else ctypes.addressof(a) for a in args)


class _Plan:
    """One thread's eigensolver for ``n x n`` input.

    ``dsytd2``/``zhetd2`` reduce the input to a real tridiagonal matrix.
    ``dlarrc`` counts its positive eigenvalues by Sturm sequence, and from that
    count ``_mrrr`` picks ``dstemr`` (MRRR) on ``(0, +inf]``, for them alone at
    a cost that grows with their number, or ``dstedc`` (divide and conquer),
    for every eigenpair at a cost that does not.
    ``dormtr``/``zunmtr`` then transform back only the positive eigenvectors,
    on their copy in ``c``, which has the input's dtype.
    Every workspace has the size LAPACK documents as its minimum, so the
    back-transformation runs unblocked, like the reduction.

    Every LAPACK argument is a C scalar or a numpy array that the plan holds, since
    an address does not keep its object alive; the calls pass addresses taken once.
    Array ``a`` takes the C-ordered input before each ``eigenpairs`` call; LAPACK
    reads it column by column, i.e. as ``conj(a)``, and overwrites it. What
    ``eigenpairs`` returns is valid until the plan's next call.
    """

    def __init__(self, n: int, complex_field: bool):
        self.n = n
        dtype = np.dtype(complex if complex_field else float)
        # dstemr needs 18 n and 10 n, dstedc 1 + 4 n + n^2 and 3 + 5 n
        lwork, liwork = max(1, 18 * n, 1 + 4 * n + n * n), max(1, 10 * n)
        # the back-transformation's workspace, max(1, n), is the leading dimension
        self.dim, self.ld, self.lwork, self.liwork = (
            ctypes.c_int(v) for v in (n, max(n, 1), lwork, liwork))
        self.m, self.tryrac, self.cols, self.count, self.lcnt, self.rcnt, self.info = (
            ctypes.c_int() for _ in range(7))
        self.vl, self.vu = ctypes.c_double(0.0), ctypes.c_double(np.inf)
        self.a, self.tau = np.zeros((n, n), dtype), np.zeros(n, dtype)
        self.d, self.e, self.w, self.z = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros((n, n))
        self.c = np.zeros((n, n), dtype)
        self.isuppz, self.iwork = np.zeros(2 * n, np.intc), np.zeros(liwork, np.intc)
        self.work = np.zeros(lwork)
        self.trd = _ZHETD2 if complex_field else _DSYTD2
        self.trd_args = _args(b"L", self.dim, self.a, self.ld, self.d, self.e, self.tau, self.info)
        # the Sturm count on T does not read its pivmin argument, given vl's address
        self.count_args = _args(b"T", self.dim, self.vl, self.vu, self.d, self.e, self.vl,
                                self.count, self.lcnt, self.rcnt, self.info)
        # il and iu are not read on a value range; nzc = n columns hold any count
        self.stemr_args = _args(b"V", b"V", self.dim, self.d, self.e, self.vl, self.vu, self.dim,
                                self.dim, self.m, self.w, self.z, self.ld, self.dim, self.isuppz,
                                self.tryrac, self.work, self.lwork, self.iwork, self.liwork,
                                self.info)
        self.stedc_args = _args(b"I", self.dim, self.d, self.e, self.z, self.ld, self.work,
                                self.lwork, self.iwork, self.liwork, self.info)
        self.mtr = _ZUNMTR if complex_field else _DORMTR
        self.mtr_args = _args(b"L", b"L", b"N", self.dim, self.cols, self.a, self.ld, self.tau,
                              self.c, self.ld, self.work, self.ld, self.info)

    def run(self, routine, args: tuple) -> None:
        """Call ``routine`` on ``args``; ``info != 0`` raises ``LinAlgError``."""
        routine(*args)
        if self.info.value != 0:
            raise np.linalg.LinAlgError(f"eigensolver failed (info={self.info.value})")

    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Positive eigenvalues ascending and eigenvectors of ``conj(a)`` as rows, in the plan."""
        self.run(self.trd, self.trd_args)
        # the count picks the solver only: dlarrc's exact-zero pivots may put it off
        self.run(_DLARRC, self.count_args)
        if _mrrr(self.n, self.count.value):
            # in and out: dstemr clears it for a matrix that does not define its
            # eigenvalues to high relative accuracy, which must not carry over
            self.tryrac.value = 1
            self.run(_DSTEMR, self.stemr_args)
            first, w = 0, self.w[:self.m.value]
        else:
            self.run(_DSTEDC, self.stedc_args)
            first = int(np.searchsorted(self.d, 0.0, side="right"))  # ascending
            w = self.d[first:]
        # apply the reduction's reflectors to tridiagonal eigenvectors first, ..., first + r - 1
        r = self.cols.value = w.size
        rows = self.c[:r]
        rows[...] = self.z[first:first + r]
        self.run(self.mtr, self.mtr_args)
        return w, rows


def _mrrr(n: int, positive: int) -> bool:
    """Whether ``dstemr``, not ``dstedc``, solves ``n x n`` with ``positive`` positive eigenvalues.

    Timed on random real and complex inputs of dimension 21 to 101 with one BLAS thread,
    ``dstemr`` won at one positive eigenvalue, and the two broke even between 7 and 21.
    """
    return 8 * (positive - 1) <= n


#: holds the calling thread's plans by ``(n, complex_field)`` in its ``by_key``
_plans = threading.local()


def _plan(n: int, complex_field: bool) -> _Plan:
    """The calling thread's plan, made on its first call: threads share no argument."""
    by_key = vars(_plans).setdefault("by_key", {})
    plan = by_key.get((n, complex_field))
    if plan is None:
        plan = by_key[(n, complex_field)] = _Plan(n, complex_field)
    return plan


def project_psd(m) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (negative eigenvalues clipped).

    Built from the positive eigenpairs alone. The result is float64, or
    complex128 for complex input, whatever the rank.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("project_psd expects a square matrix")
    plan = _plan(m.shape[0], np.iscomplexobj(m))
    # the Hermitian part goes straight into the eigensolver's input array
    h = plan.a
    np.add(m, m.conj().T, out=h)
    h *= 0.5
    # Checked after symmetrizing, so entries above about 9e307 that overflow
    # there are rejected too. A finite sum proves every entry finite at a
    # fraction of the cost; the entrywise test settles an overflowing sum.
    if not np.isfinite(h.sum()) and not np.isfinite(h).all():
        raise ValueError("project_psd: non-finite entries (or overflow while symmetrizing)")
    w, rows = plan.eigenpairs()
    if w.size == m.shape[0]:
        return hermitian_part(m).astype(h.dtype, copy=False)  # LAPACK has overwritten h
    # the eigenvectors are rows.conj().T, so the projection is their product
    # with rows; it is averaged with its conjugate transpose in place
    p = (rows.conj().T * w) @ rows
    np.add(p, p.conj().T, out=p)
    p *= 0.5
    return p


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
    # entry (i, j) is u[i - j] below the diagonal and conj(u[j - i]) above it
    n = u.size
    return np.concatenate((u[:0:-1].conj(), u))[_diagonal_offsets(n)].reshape(n, n)


def toeplitz_adjoint(q) -> np.ndarray:
    """Adjoint of ``toeplitz_map`` under the real trace inner product.

    Entry ``d`` collects the ``d``-th subdiagonal sum of ``q``; entries for
    ``d >= 1`` are doubled because they pair with two mirrored diagonals.
    """
    q = np.asarray(q)
    n = q.shape[0]
    if np.iscomplexobj(q):
        # One count over the interleaved real and imaginary parts: bin 2k sums
        # the real and bin 2k + 1 the imaginary parts of diagonal bin k, in the
        # order two separate counts would.
        q = np.ascontiguousarray(q, dtype=np.complex128)
        out = np.bincount(_diagonal_offsets(n, interleaved=True), weights=q.view(np.float64).ravel(),
                          minlength=2 * (2 * n - 1)).view(np.complex128)
    else:
        out = np.bincount(_diagonal_offsets(n), weights=q.ravel(), minlength=2 * n - 1)
    out = out[n - 1:]
    out[1:] *= 2.0
    return out


@functools.lru_cache(maxsize=None)
def _diagonal_offsets(n: int, interleaved: bool = False) -> np.ndarray:
    """``i - j + n - 1`` for every entry ``(i, j)`` of an ``n x n`` matrix, row-major.

    ``interleaved``: ``2 (i - j + n - 1)`` and ``2 (i - j + n - 1) + 1`` per
    entry, the bins of its real and imaginary parts.
    """
    i, j = np.indices((n, n))
    offsets = (i - j + n - 1).ravel()
    if interleaved:
        offsets = (2 * offsets[:, None] + np.arange(2)).ravel()
    offsets.flags.writeable = False
    return offsets


@functools.lru_cache(maxsize=None)
def toeplitz_gram_diag(n: int) -> np.ndarray:
    """Diagonal of ``toeplitz_adjoint(toeplitz_map(.))``: ``(n, 2(n-1), ..., 2)``, read-only."""
    if n < 1:
        raise ValueError("n must be positive")
    gram = np.concatenate(([float(n)], 2.0 * np.arange(n - 1, 0, -1)))
    gram.flags.writeable = False
    return gram


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
