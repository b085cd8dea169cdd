import ctypes
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from proxsplit import linalg
from proxsplit.linalg import (
    eig_hermitian,
    frob_inner,
    frob_norm,
    gaussian_sample,
    hermitian_part,
    project_nsd,
    project_psd,
    project_toeplitz,
    random_hermitian,
    toeplitz_adjoint,
    toeplitz_gram_diag,
    toeplitz_map,
)

RNG = np.random.default_rng(414)


def rand_hermitian(n, complex_field=False):
    return random_hermitian(n, RNG, complex_field=complex_field)


def test_hermitian_part_is_idempotent_and_hermitian():
    a = RNG.standard_normal((6, 6)) + 1j * RNG.standard_normal((6, 6))
    h = hermitian_part(a)
    np.testing.assert_allclose(h, h.conj().T)
    np.testing.assert_allclose(hermitian_part(h), h)


def test_frob_inner_matches_trace_form():
    a = rand_hermitian(5, complex_field=True)
    b = rand_hermitian(5, complex_field=True)
    expected = np.real(np.trace(a.conj().T @ b))
    assert frob_inner(a, b) == pytest.approx(expected, rel=1e-12)
    assert frob_norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-12)


def test_eig_hermitian_reconstructs_and_sorts():
    a = rand_hermitian(7, complex_field=True)
    w, v = eig_hermitian(a)
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, a, atol=1e-10)


def test_eig_hermitian_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError):
        eig_hermitian(bad)


@pytest.mark.parametrize("m", [np.diag([1.5e308, -1.0, 2.0]),
                               np.array([[1e308, 1.7e308], [1.7e308, 1.0]])])
def test_eig_hermitian_rejects_entries_that_overflow_when_symmetrized(m):
    # finite input whose Hermitian part overflows would give nan eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            eig_hermitian(m)


@pytest.mark.parametrize("complex_field", [False, True])
def test_project_psd_minimality_against_sampled_feasible_points(complex_field):
    # The projection must be the closest PSD point; any sampled PSD matrix
    # is at least as far from the input.
    a = rand_hermitian(6, complex_field=complex_field)
    p = project_psd(a)
    w = np.linalg.eigvalsh(p)
    assert w[0] >= -1e-12
    dist = frob_norm(a - p)
    for _ in range(50):
        b = RNG.standard_normal((6, 3))
        if complex_field:
            b = b + 1j * RNG.standard_normal((6, 3))
        candidate = b @ b.conj().T
        assert dist <= frob_norm(a - candidate) + 1e-10


def test_project_psd_fixes_psd_inputs_exactly():
    b = RNG.standard_normal((5, 5))
    psd = b @ b.T
    np.testing.assert_allclose(project_psd(psd), hermitian_part(psd), atol=1e-12)


def test_project_psd_idempotent():
    a = rand_hermitian(8)
    p = project_psd(a)
    np.testing.assert_allclose(project_psd(p), p, atol=1e-10)


def psd_oracle(h):
    """Projection from the full eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def spectrum_case(kind, n, complex_field, seed):
    """Hermitian test input whose spectrum has the named shape, on a random scale."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    if kind == "zero":
        return np.zeros((n, n), dtype=complex if complex_field else float)
    if kind in ("psd-exact-zeros", "mixed-exact-zeros"):
        # zero rows and columns give eigenvalues that are exactly zero
        k = int(rng.integers(0, n + 1))
        h = np.zeros((n, n), dtype=complex if complex_field else float)
        h[:k, :k] = spectrum_case("positive" if kind == "psd-exact-zeros" else "mixed",
                                  k, complex_field, seed + 1) if k else 0.0
        perm = rng.permutation(n)
        return h[np.ix_(perm, perm)]
    g = rng.standard_normal((n, n))
    if complex_field:
        g = g + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    w = rng.uniform(0.01, 1.0, n)
    if kind == "negative":
        w = -w
    elif kind == "mixed":
        w = w * rng.choice([-1.0, 1.0], n)
    elif kind == "low-rank":
        # 1 <= r <= n/8 positive eigenvalues, like the solver's BQP iterates
        w[int(rng.integers(1, max(1, n // 8) + 1)):] *= -1.0
    elif kind == "clustered-positive":
        # the positive eigenvalues agree to nine digits
        r = int(rng.integers(1, n + 1))
        w[:r] = 1.0 + 1e-9 * rng.uniform(size=r)
        w[r:] *= -1.0
    return hermitian_part((q * (scale * w)) @ q.conj().T)


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("kind", ["negative", "positive", "mixed", "zero",
                                  "psd-exact-zeros", "mixed-exact-zeros",
                                  "low-rank", "clustered-positive"])
def test_project_psd_matches_full_eigh_projection(kind, complex_field):
    # expected rank 1 selects the partial solve, n divide and conquer (n >= 2)
    for n in range(1, 61):
        h = spectrum_case(kind, n, complex_field, seed=1000 * n + 7)
        tol = 1e-12 * np.linalg.norm(h)
        for expected_rank in (1, n):
            p = project_psd(h, expected_rank=expected_rank)
            assert p.shape == h.shape and p.dtype == h.dtype
            assert np.linalg.norm(p - psd_oracle(h)) <= tol, (kind, n, expected_rank)
            np.testing.assert_array_equal(p, p.conj().T)
            assert np.linalg.eigvalsh(p)[0] >= -tol, (kind, n, expected_rank)


@pytest.mark.parametrize("complex_field", [False, True])
def test_expected_rank_selects_the_eigensolver(complex_field):
    dtype = np.dtype(complex if complex_field else float)
    for n in (2, 9, 41, 51):
        h = spectrum_case("mixed", n, complex_field, seed=n)
        for expected_rank, kind in ((1, linalg._EvrPlan), (n, linalg._StedcPlan)):
            w, v = linalg.positive_eigenpairs(h, expected_rank)
            w_plan, rows = linalg._plan(kind, n, dtype).eigenpairs(h)
            np.testing.assert_array_equal(w, w_plan)
            np.testing.assert_array_equal(v, rows.conj().T)


def test_project_psd_symmetrizes_nonhermitian_input():
    for n in (1, 2, 9, 40):
        a = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
        p = project_psd(a)
        assert np.linalg.norm(p - psd_oracle(hermitian_part(a))) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_project_psd_rejects_nonfinite_and_nonsquare(bad):
    m = rand_hermitian(4)
    m[1, 2] = bad
    with pytest.raises(ValueError):
        project_psd(m)
    with pytest.raises(ValueError):
        project_psd(np.ones((2, 3)))


@pytest.mark.parametrize("m", [np.diag([1.5e308, -1.0, 2.0]),
                               np.array([[1.0, 1e308], [1e308, 1.0]]),
                               np.diag([1.5e308 + 0j, -1.0, 2.0])])
def test_project_psd_rejects_entries_that_overflow_when_symmetrized(m):
    # finite input whose Hermitian part overflows used to reach LAPACK as inf
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            project_psd(m)


@pytest.mark.parametrize("dtype", [float, complex])
def test_project_psd_accepts_finite_input_whose_entry_sum_overflows(dtype):
    # 25 entries of 1e307 sum to inf, yet every entry and the projection are finite
    m = np.full((5, 5), 1e307, dtype=dtype)
    for expected_rank in (1, 5):
        with np.errstate(over="ignore"):
            p = project_psd(m, expected_rank=expected_rank)
        # m is PSD (rank one), so it is its own projection
        np.testing.assert_allclose(p / 1e307, np.ones((5, 5)), rtol=0, atol=1e-12)


def test_lapack_routines_are_gil_releasing_ctypes_functions():
    # CFUNCTYPE calls drop the GIL; PYFUNCTYPE (or an f2py wrapper) would hold it
    for fn in (linalg._DSYEVR, linalg._ZHEEVR, linalg._DSYTRD, linalg._ZHETRD,
               linalg._DSTEDC, linalg._DORMTR, linalg._ZUNMTR):
        assert isinstance(fn, ctypes._CFuncPtr)
        assert not fn._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_concurrent_projections_match_serial_results():
    # every call gets its own LAPACK argument buffer, which `sweep --jobs` relies on
    rng = np.random.default_rng(5)
    cases = [(spectrum_case(kind, n, complex_field, seed=int(rng.integers(1 << 30))), rank)
             for kind in ("low-rank", "mixed")
             for n in (9, 41, 51)
             for complex_field in (False, True)
             for rank in (1, n)]
    serial = [project_psd(h, expected_rank=rank) for h, rank in cases]
    mismatches, errors = [], []

    def worker(offset):
        try:
            for rep in range(20):
                for i in range(len(cases)):
                    j = (i + offset + rep) % len(cases)
                    h, rank = cases[j]
                    if not np.array_equal(project_psd(h, expected_rank=rank), serial[j]):
                        mismatches.append(j)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(3 * t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and mismatches == []


def test_project_nsd_mirrors_psd():
    a = rand_hermitian(6, complex_field=True)
    np.testing.assert_allclose(project_nsd(a), -project_psd(-a), atol=1e-14)
    w = np.linalg.eigvalsh(project_nsd(a))
    assert w[-1] <= 1e-12


def test_psd_plus_nsd_parts_recover_input():
    a = rand_hermitian(9)
    np.testing.assert_allclose(project_psd(a) + project_nsd(a), a, atol=1e-10)


def test_toeplitz_map_layout():
    u = np.array([2.0, 1.0 - 1.0j, 0.5j])
    t = toeplitz_map(u)
    assert t.shape == (3, 3)
    np.testing.assert_allclose(t[:, 0], u)
    np.testing.assert_allclose(t[0, :], u.conj())
    np.testing.assert_allclose(t, t.conj().T)
    # constant diagonals
    assert t[1, 0] == t[2, 1]


@pytest.mark.parametrize("complex_field", [False, True])
def test_toeplitz_map_is_bitwise_scipy_toeplitz(complex_field):
    rng = np.random.default_rng(21)
    for n in range(1, 61):
        u = rng.standard_normal(n)
        if complex_field:
            u = u + 1j * rng.standard_normal(n)
            u[0] = u[0].real
        got, want = toeplitz_map(u), scipy.linalg.toeplitz(u, u.conj())
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), n


def test_toeplitz_map_requires_real_leading_entry():
    with pytest.raises(ValueError):
        toeplitz_map(np.array([1.0 + 0.5j, 2.0]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2 ** 31))
def test_toeplitz_adjoint_identity(n, seed):
    # <T(u), Q> == <u, T*(Q)> in the real inner product, for Hermitian Q.
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u[0] = u[0].real
    q = random_hermitian(n, rng, complex_field=True)
    lhs = frob_inner(toeplitz_map(u), q)
    rhs = np.real(np.vdot(u, toeplitz_adjoint(q)))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def toeplitz_adjoint_loop(q):
    """Per-diagonal trace sums, the definition ``toeplitz_adjoint`` vectorizes."""
    out = np.array([q.trace(offset=-d) for d in range(q.shape[0])])
    out[1:] *= 2.0
    return out


@pytest.mark.parametrize("complex_field", [False, True])
def test_toeplitz_adjoint_matches_diagonal_loop(complex_field):
    for n in range(1, 61):
        for seed in range(3):
            rng = np.random.default_rng(100 * n + seed)
            q = rng.standard_normal((n, n))
            if complex_field:
                q = q + 1j * rng.standard_normal((n, n))
            got = toeplitz_adjoint(q)
            assert np.iscomplexobj(got) == complex_field
            np.testing.assert_allclose(got, toeplitz_adjoint_loop(q), rtol=0, atol=1e-12)


def test_toeplitz_gram_diag_small_case():
    np.testing.assert_array_equal(toeplitz_gram_diag(3), [3, 4, 2])
    np.testing.assert_array_equal(toeplitz_gram_diag(5), [5, 8, 6, 4, 2])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2 ** 31))
def test_toeplitz_gram_is_adjoint_of_map(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v[0] = v[0].real
    composed = toeplitz_adjoint(toeplitz_map(v))
    np.testing.assert_allclose(composed, toeplitz_gram_diag(n) * v, atol=1e-10)


def test_project_toeplitz_is_diagonal_averaging():
    q = rand_hermitian(5, complex_field=True)
    p = project_toeplitz(q)
    for d in range(5):
        diag = np.diagonal(q, offset=-d)
        np.testing.assert_allclose(np.diagonal(p, offset=-d),
                                   np.mean(diag), atol=1e-12)
    np.testing.assert_allclose(p, p.conj().T)


def test_project_toeplitz_minimality_and_idempotence():
    q = rand_hermitian(6, complex_field=True)
    p = project_toeplitz(q)
    np.testing.assert_allclose(project_toeplitz(p), p, atol=1e-12)
    dist = frob_norm(q - p)
    for _ in range(40):
        u = RNG.standard_normal(6) + 1j * RNG.standard_normal(6)
        u[0] = u[0].real
        assert dist <= frob_norm(q - toeplitz_map(u)) + 1e-10


def test_gaussian_sample_is_seed_deterministic():
    a = gaussian_sample(20, 10, 0.5, 7)
    b = gaussian_sample(20, 10, 0.5, 7)
    c = gaussian_sample(20, 10, 0.5, 8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (20, 10)
    assert np.std(gaussian_sample(400, 400, 2.0, 1)) == pytest.approx(2.0, rel=0.05)


def test_random_hermitian_field_and_symmetry():
    r = random_hermitian(5, np.random.default_rng(3))
    c = random_hermitian(5, np.random.default_rng(3), complex_field=True)
    assert not np.iscomplexobj(r)
    assert np.iscomplexobj(c)
    np.testing.assert_allclose(c, c.conj().T)
