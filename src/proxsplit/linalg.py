"""Dense Hermitian matrix primitives shared by the solver stack.

Matrices are treated as elements of a real Hilbert space: the inner product
is ``Re trace(A^H B)`` and the norm is Frobenius, so real-symmetric and
complex-Hermitian data are handled uniformly without embedding tricks.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np
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
    h = hermitian_part(m)
    # checked after symmetrizing, so entries that overflow there are rejected too
    if not np.all(np.isfinite(h)):
        raise ValueError("eig_hermitian: non-finite entries (or overflow while symmetrizing)")
    return np.linalg.eigh(h)


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _capsule_function(name: str, n_chars: int, n_args: int):
    """LAPACK routine ``name`` from scipy's Cython capsule table as a ctypes function.

    The ``n_chars`` leading arguments are single characters; every other
    argument is a pointer. A ``CFUNCTYPE`` call releases the GIL while LAPACK
    runs, which the f2py wrappers behind ``scipy.linalg.eigh`` do not.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_char_p] * n_chars,
                                 *[ctypes.c_void_p] * (n_args - n_chars))
    return prototype(address)


_DSYEVR = _capsule_function("dsyevr", 3, 21)
_ZHEEVR = _capsule_function("zheevr", 3, 23)
_DSYTRD = _capsule_function("dsytrd", 1, 10)
_ZHETRD = _capsule_function("zhetrd", 1, 10)
_DSTEDC = _capsule_function("dstedc", 1, 11)
_DORMTR = _capsule_function("dormtr", 3, 13)
_ZUNMTR = _capsule_function("zunmtr", 3, 13)

#: Bytes before the arrays in a plan's buffer: eight C int slots at byte
#: offsets 0, 4, ..., 28, the last one LAPACK's ``info``, then three doubles.
_HEAD_BYTES = 64
_INFO = 28


class _Plan:
    """Layout of a LAPACK call sequence's arguments inside one buffer, for one ``(n, dtype)``.

    The head's int and double slots are followed by named arrays, each 16-byte
    aligned; array ``"a"`` holds the C-ordered input ``h``, which LAPACK reads
    column by column, i.e. as ``conj(h)``. Arguments are byte offsets into the
    buffer. A fresh buffer per call keeps concurrent calls independent and
    costs a single pointer lookup.
    """

    def __init__(self, n: int, dtype: np.dtype, sizes: dict[str, int], ints, floats=()):
        self.n, self.dtype = n, dtype
        self.offsets, pos = {}, _HEAD_BYTES
        for key, size in {"a": n * n * dtype.itemsize, **sizes}.items():
            self.offsets[key] = pos
            pos += -(-max(size, 1) // 16) * 16
        self.nbytes = pos
        self.head = np.zeros(_HEAD_BYTES, dtype=np.uint8)
        self.head[:32].view(np.intc)[:] = ints
        self.head[32:32 + 8 * len(floats)].view(np.float64)[:] = floats

    def view(self, buf: np.ndarray, key: str, dtype, count: int) -> np.ndarray:
        start = self.offsets[key]
        return buf[start:start + count * np.dtype(dtype).itemsize].view(dtype)

    def buffer(self, h: np.ndarray | None) -> tuple[np.ndarray, int]:
        """Fresh argument buffer holding ``h`` (``None``: a workspace query), and its address.

        The caller keeps the buffer referenced while LAPACK works on the address.
        """
        buf = np.empty(self.nbytes, dtype=np.uint8)
        buf[:_HEAD_BYTES] = self.head
        if h is not None:
            self.view(buf, "a", self.dtype, self.n * self.n).reshape(self.n, self.n)[...] = h
        # a third of the time ``buf.ctypes.data`` takes
        return buf, ctypes.addressof(ctypes.c_char.from_buffer(buf))

    @staticmethod
    def run(base: int, routine, chars: tuple[bytes, ...], arg_offsets) -> None:
        """Call ``routine`` on pointers into the buffer at ``base``; ``info != 0`` raises ``LinAlgError``."""
        routine(*chars, *[base + off for off in arg_offsets])
        info = ctypes.c_int.from_address(base + _INFO).value
        if info != 0:
            raise np.linalg.LinAlgError(f"eigensolver failed (info={info})")


class _EvrPlan(_Plan):
    """One ``dsyevr``/``zheevr`` call on the eigenvalue range ``(0, +inf)``.

    Bisection and inverse iteration run for the positive eigenvalues alone,
    so the cost after the tridiagonal reduction grows with their number.
    """

    def __init__(self, n: int, dtype: np.dtype, lwork: int, lrwork: int, liwork: int):
        item = dtype.itemsize
        sizes = {"z": n * n * item, "w": n * 8, "isuppz": 2 * n * 4,
                 "work": lwork * item, "rwork": lrwork * 8, "iwork": liwork * 4}
        # int slots: n, ld, il = iu, lwork, lrwork, liwork, m, info; doubles: vl, vu, abstol
        super().__init__(n, dtype, sizes, (n, max(n, 1), 1, lwork, lrwork, liwork, 0, 0),
                         (0.0, np.inf, 0.0))
        n_, ld, idx, lw, lrw, liw, m = range(0, _INFO, 4)
        vl, vu, abstol = 32, 40, 48
        o = self.offsets
        args = [n_, o["a"], ld, vl, vu, idx, idx, abstol, m, o["w"], o["z"], ld, o["isuppz"],
                o["work"], lw]
        if dtype.kind == "c":
            self.routine = _ZHEEVR
            args += [o["rwork"], lrw, o["iwork"], liw, _INFO]
        else:
            self.routine = _DSYEVR
            args += [o["iwork"], liw, _INFO]
        self.arg_offsets = tuple(args)

    @classmethod
    def query(cls, n: int, dtype: np.dtype) -> "_EvrPlan":
        plan = cls(n, dtype, -1, -1, -1)
        buf, base = plan.buffer(None)
        plan.run(base, plan.routine, (b"V", b"V", b"L"), plan.arg_offsets)
        lwork = int(plan.view(buf, "work", dtype, 1)[0].real)
        lrwork = int(plan.view(buf, "rwork", np.float64, 1)[0]) if dtype.kind == "c" else 0
        liwork = int(plan.view(buf, "iwork", np.intc, 1)[0])
        return cls(n, dtype, lwork, lrwork, liwork)

    def eigenpairs(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        buf, base = self.buffer(h)
        self.run(base, self.routine, (b"V", b"V", b"L"), self.arg_offsets)
        r = ctypes.c_int.from_address(base + 24).value
        rows = self.view(buf, "z", self.dtype, r * self.n).reshape(r, self.n)
        return self.view(buf, "w", np.float64, r), rows


class _StedcPlan(_Plan):
    """``dsytrd``/``zhetrd``, then ``dstedc``, then ``dormtr``/``zunmtr`` on the positive columns.

    Divide and conquer finds every eigenpair of the real tridiagonal matrix
    at a cost that does not grow with the number of positive eigenvalues;
    only their eigenvectors are transformed back. Complex input needs its
    real tridiagonal eigenvectors copied into the complex array ``"c"`` first.
    """

    def __init__(self, n: int, dtype: np.dtype, lwork: int, lrwork: int, liwork: int):
        item = dtype.itemsize
        sizes = {"d": n * 8, "e": n * 8, "tau": n * item, "z": n * n * 8,
                 "c": n * n * item if dtype.kind == "c" else 0,
                 "work": lwork * item, "rwork": lrwork * 8, "iwork": liwork * 4}
        # int slots: n, ld, lwork, lrwork, liwork, columns to transform back, unused, info
        super().__init__(n, dtype, sizes, (n, max(n, 1), lwork, lrwork, liwork, n, 0, 0))
        n_, ld, lw, lrw, liw, self._cols = range(0, 24, 4)
        o = self.offsets
        complex_field = dtype.kind == "c"
        self.trd = _ZHETRD if complex_field else _DSYTRD
        self.trd_args = (n_, o["a"], ld, o["d"], o["e"], o["tau"], o["work"], lw, _INFO)
        self.stedc_args = (n_, o["d"], o["e"], o["z"], ld, o["rwork"], lrw, o["iwork"], liw, _INFO)
        self.mtr = _ZUNMTR if complex_field else _DORMTR
        # the argument between these is the eigenvector array, which depends on the call
        self.mtr_head = (n_, self._cols, o["a"], ld, o["tau"])
        self.mtr_tail = (ld, o["work"], lw, _INFO)

    def _back_transform(self, buf: np.ndarray, base: int, first: int) -> np.ndarray:
        """Apply the reduction's reflectors to tridiagonal eigenvectors ``first``, ..., ``n - 1``."""
        n, r = self.n, self.n - first
        ctypes.c_int.from_address(base + self._cols).value = r
        if self.dtype.kind == "c":
            self.view(buf, "c", self.dtype, r * n)[...] = self.view(buf, "z", np.float64, n * n)[first * n:]
            c = self.offsets["c"]
        else:
            c = self.offsets["z"] + first * n * 8  # in place: the columns are contiguous
        self.run(base, self.mtr, (b"L", b"L", b"N"), (*self.mtr_head, c, *self.mtr_tail))
        return buf[c:c + r * n * self.dtype.itemsize].view(self.dtype).reshape(r, n)

    @classmethod
    def query(cls, n: int, dtype: np.dtype) -> "_StedcPlan":
        plan = cls(n, dtype, -1, -1, -1)
        buf, base = plan.buffer(None)
        plan.run(base, plan.trd, (b"L",), plan.trd_args)
        lwork = int(plan.view(buf, "work", dtype, 1)[0].real)
        plan.run(base, _DSTEDC, (b"I",), plan.stedc_args)
        lrwork = int(plan.view(buf, "rwork", np.float64, 1)[0])
        liwork = int(plan.view(buf, "iwork", np.intc, 1)[0])
        plan._back_transform(buf, base, 0)
        lwork = max(lwork, int(plan.view(buf, "work", dtype, 1)[0].real))
        return cls(n, dtype, lwork, lrwork, liwork)

    def eigenpairs(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        buf, base = self.buffer(h)
        self.run(base, self.trd, (b"L",), self.trd_args)
        self.run(base, _DSTEDC, (b"I",), self.stedc_args)
        w = self.view(buf, "d", np.float64, self.n)  # ascending
        first = int(np.searchsorted(w, 0.0, side="right"))
        return w[first:], self._back_transform(buf, base, first)


#: Divide and conquer replaces the partial solve when
#: ``_STEDC_CROSSOVER * (expected_rank - 1) > n``, ``expected_rank`` being the
#: caller's prediction of the number of positive eigenvalues. Timed on real
#: and complex inputs of dimension 8 to 101 with one BLAS thread, the partial
#: solve wins at one positive eigenvalue for every dimension, and the two
#: break even between 8 and 13 positive eigenvalues for dimensions 41 to 101.
_STEDC_CROSSOVER = 8


@functools.lru_cache(maxsize=None)
def _plan(kind: type, n: int, dtype: np.dtype) -> _Plan:
    """Plan with LAPACK's optimal workspace sizes for ``(n, dtype)``, queried once."""
    return kind.query(n, dtype)


def positive_eigenpairs(h: np.ndarray, expected_rank: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of finite Hermitian ``h`` with strictly positive eigenvalue.

    Returns ``(w, v)``, ``w`` ascending, ``v`` with one eigenvector per
    column, like ``np.linalg.eigh`` restricted to ``w > 0``. The tridiagonal
    reduction is paid in full, but only the positive eigenvectors are
    transformed back. ``expected_rank``, the number of positive eigenvalues
    the caller predicts, picks how the tridiagonal matrix is solved:
    bisection and inverse iteration for the positive eigenvalues alone when
    few are expected, divide and conquer for all of them otherwise.
    ``h`` must be exactly Hermitian, since LAPACK reads one triangle only.
    """
    n = h.shape[0]
    dtype = np.dtype(np.complex128 if np.iscomplexobj(h) else np.float64)
    kind = _StedcPlan if _STEDC_CROSSOVER * (expected_rank - 1) > n else _EvrPlan
    w, rows = _plan(kind, n, dtype).eigenpairs(h)
    # LAPACK worked on conj(h) and returns its eigenvectors as the rows of a
    # C-ordered array.
    return w, rows.conj().T


def project_psd(m, expected_rank: int = 1) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (negative eigenvalues clipped).

    Built from the positive eigenpairs alone. ``expected_rank`` is the
    number of positive eigenvalues the caller's model predicts; it selects
    the eigensolver, not the result.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("project_psd expects a square matrix")
    h = hermitian_part(m)
    # Checked after symmetrizing, so entries above about 9e307 that overflow
    # there are rejected too. A finite sum proves every entry finite at a
    # fraction of the cost; the entrywise test settles an overflowing sum.
    if not np.isfinite(h.sum()) and not np.isfinite(h).all():
        raise ValueError("project_psd: non-finite entries (or overflow while symmetrizing)")
    w, v = positive_eigenpairs(h, expected_rank)
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
