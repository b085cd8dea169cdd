import ctypes
import gc
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from proxsplit import linalg
from proxsplit.linalg import (
    eig_hermitian,
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


def force_mrrr(monkeypatch, mrrr):
    """Every later projection on MRRR (``True``) or divide and conquer, whatever the count."""
    monkeypatch.setattr(linalg, "_mrrr", lambda n, positive: mrrr)


def record_solvers(monkeypatch) -> list:
    """A list that gets the solver choice of every later projection, ``True`` for MRRR."""
    choices, choose = [], linalg._mrrr

    def spy(n, positive):
        mrrr = choose(n, positive)
        choices.append(mrrr)
        return mrrr

    monkeypatch.setattr(linalg, "_mrrr", spy)
    return choices


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("kind", ["negative", "positive", "mixed", "zero",
                                  "psd-exact-zeros", "mixed-exact-zeros",
                                  "low-rank", "clustered-positive"])
def test_project_psd_matches_full_eigh_projection(kind, complex_field, monkeypatch):
    # every input on both tridiagonal solvers, whichever its count picks
    for n in range(1, 61):
        h = spectrum_case(kind, n, complex_field, seed=1000 * n + 7)
        tol = 1e-12 * np.linalg.norm(h)
        for mrrr in (True, False):
            force_mrrr(monkeypatch, mrrr)
            p = project_psd(h)
            assert p.shape == h.shape and p.dtype == h.dtype
            assert np.linalg.norm(p - psd_oracle(h)) <= tol, (kind, n, mrrr)
            np.testing.assert_array_equal(p, p.conj().T)
            assert np.linalg.eigvalsh(p)[0] >= -tol, (kind, n, mrrr)


def with_positive_count(n, positive, complex_field, seed):
    """Random Hermitian input with ``positive`` eigenvalues in (0.1, 1), the rest in (-1, -0.1)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    if complex_field:
        g = g + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    w = rng.uniform(0.1, 1.0, n)
    w[positive:] *= -1.0
    return hermitian_part((q * w) @ q.conj().T)


def plan_eigenpairs(h):
    """The calling thread's plan's positive eigenpairs of exactly Hermitian ``h``, copied out."""
    plan = linalg._plan(h.shape[0], np.iscomplexobj(h))
    plan.a[...] = h
    w, rows = plan.eigenpairs()
    return w.copy(), rows.copy()


@pytest.mark.parametrize("complex_field", [False, True])
def test_the_positive_count_selects_the_eigensolver(complex_field, monkeypatch):
    # (n, positive eigenvalues, whether the count selects MRRR)
    cases = [(17, 9, False)] if complex_field else [(41, 30, False), (41, 2, True)]
    choose = linalg._mrrr
    for n, positive, mrrr in cases:
        h = with_positive_count(n, positive, complex_field, seed=n + positive)
        counts = []
        monkeypatch.setattr(linalg, "_mrrr",
                            lambda n, positive: counts.append(positive) or choose(n, positive))
        selected = (project_psd(h), *plan_eigenpairs(h))
        assert counts == [positive, positive] and choose(n, positive) == mrrr
        forced = {}
        for solver in (True, False):
            force_mrrr(monkeypatch, solver)
            forced[solver] = (project_psd(h), *plan_eigenpairs(h))
        # the two solvers differ in the last bits, so the bits tell which one ran
        assert not np.array_equal(forced[True][0], forced[False][0])
        for got, want in zip(selected, forced[mrrr]):
            np.testing.assert_array_equal(got, want)


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
def test_project_psd_accepts_finite_input_whose_entry_sum_overflows(dtype, monkeypatch):
    # 25 entries of 1e307 sum to inf, yet every entry and the projection are finite
    m = np.full((5, 5), 1e307, dtype=dtype)
    for mrrr in (True, False):
        force_mrrr(monkeypatch, mrrr)
        with np.errstate(over="ignore"):
            p = project_psd(m)
        # m is PSD (rank one), so it is its own projection
        np.testing.assert_allclose(p / 1e307, np.ones((5, 5)), rtol=0, atol=1e-12)


def test_lapack_routines_are_gil_releasing_ctypes_functions():
    # CFUNCTYPE calls drop the GIL; PYFUNCTYPE (or an f2py wrapper) would hold it
    for fn in (linalg._DSYTD2, linalg._ZHETD2, linalg._DLARRC, linalg._DSTEMR, linalg._DSTEDC,
               linalg._DORMTR, linalg._ZUNMTR, linalg._DPOSV):
        assert isinstance(fn, ctypes._CFuncPtr)
        assert not fn._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_concurrent_projections_match_serial_results(monkeypatch):
    # every thread gets its own LAPACK plans, which library callers on threads rely on;
    # the low-rank inputs are solved by MRRR, the mixed ones by divide and conquer
    rng = np.random.default_rng(5)
    cases = [spectrum_case(kind, n, complex_field, seed=int(rng.integers(1 << 30)))
             for kind in ("low-rank", "mixed")
             for n in (9, 41, 51)
             for complex_field in (False, True)]
    choices = record_solvers(monkeypatch)
    serial = [project_psd(h) for h in cases]
    assert choices == [True] * 6 + [False] * 6
    mismatches, errors = [], []

    def worker(offset):
        try:
            for rep in range(20):
                for i in range(len(cases)):
                    j = (i + offset + rep) % len(cases)
                    if not np.array_equal(project_psd(cases[j]), serial[j]):
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


def test_plans_belong_to_one_thread():
    # a thread reuses its plan; another thread gets its own, with its own arrays
    mine = linalg._plan(7, False)
    assert linalg._plan(7, False) is mine
    theirs = []

    def worker():
        theirs.append(linalg._plan(7, False))
        theirs.append(linalg._plan(7, False))

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=60)
    assert len(theirs) == 2 and theirs[0] is theirs[1]
    assert theirs[0] is not mine and not np.shares_memory(theirs[0].a, mine.a)
    assert linalg._plan(7, False) is mine


def on_new_thread(task):
    """``task()`` run on a thread of its own, so with plans of its own."""
    results = []
    t = threading.Thread(target=lambda: results.append(task()))
    t.start()
    t.join(timeout=60)
    return results.pop()


def plan_projection(plan, h):
    """The product ``project_psd`` forms from ``plan``'s positive eigenpairs of ``h``."""
    plan.a[...] = h
    w, rows = plan.eigenpairs()
    return (rows.conj().T * w) @ rows


@pytest.mark.parametrize("complex_field", [False, True])
def test_a_plan_owns_every_address_it_passes(complex_field, monkeypatch):
    # an address does not keep its object alive, so every one a plan passes to
    # LAPACK must lie inside an array or C scalar that the plan references
    for n in (1, 7, 41, 51):
        plan = on_new_thread(lambda: linalg._plan(n, complex_field))  # its thread is gone
        owned = []
        for obj in vars(plan).values():
            if isinstance(obj, np.ndarray):
                owned.append((obj.ctypes.data, obj.nbytes))
            elif isinstance(obj, (ctypes.c_int, ctypes.c_double)):
                owned.append((ctypes.addressof(obj), ctypes.sizeof(obj)))
        addresses = [arg for args in (plan.trd_args, plan.count_args, plan.stemr_args,
                                      plan.stedc_args, plan.mtr_args)
                     for arg in args if not isinstance(arg, bytes)]
        assert len(addresses) == 7 + 10 + 19 + 10 + 10  # every pointer of the five calls
        for address in addresses:
            assert any(start <= address < start + size for start, size in owned), address
        gc.collect()
        h = spectrum_case("mixed", n, complex_field, seed=n)
        for mrrr in (True, False):
            force_mrrr(monkeypatch, mrrr)
            fresh = on_new_thread(lambda: plan_projection(linalg._plan(n, complex_field), h))
            np.testing.assert_array_equal(plan_projection(plan, h), fresh)


def definite_blocks(n, complex_field, seed):
    """A positive definite block beside a negative definite one, eigenvalues of size 0.5 to 1.

    Its tridiagonal matrix is scaled diagonally dominant, which ``dstemr``
    accepts for high relative accuracy; the dense cases of ``spectrum_case``
    are not.
    """
    rng = np.random.default_rng(seed)
    h = np.zeros((n, n), dtype=complex if complex_field else float)
    k = n // 2
    for block, sign in ((slice(0, k), 1.0), (slice(k, n), -1.0)):
        size = block.stop - block.start
        g = rng.standard_normal((size, size))
        if complex_field:
            g = g + 1j * rng.standard_normal((size, size))
        q, _ = np.linalg.qr(g)
        h[block, block] = (q * (sign * rng.uniform(0.5, 1.0, size))) @ q.conj().T
    return hermitian_part(h)


@pytest.mark.parametrize("complex_field", [False, True])
def test_a_plan_does_not_remember_its_previous_input(complex_field, monkeypatch):
    # dstemr clears its in/out TRYRAC flag on input like the indefinite matrix
    # below, and the definite blocks give other bits without the flag; each
    # sequence runs on both solvers and starts on a new thread, so on new plans
    n = 51 if complex_field else 41
    indefinite = spectrum_case("mixed", n, complex_field, seed=3)
    results = []

    def sequence(h):
        first = project_psd(h)
        project_psd(indefinite)
        results.append((first, project_psd(h)))

    for seed in range(3):
        h = definite_blocks(n, complex_field, seed)
        for mrrr in (True, False):
            force_mrrr(monkeypatch, mrrr)
            t = threading.Thread(target=sequence, args=(h,))
            t.start()
            t.join(timeout=60)
    assert len(results) == 6
    for first, again in results:
        assert np.array_equal(first, again)


@pytest.mark.parametrize("dtype, result", [(np.float32, np.float64), (np.int64, np.float64),
                                           (np.float64, np.float64),
                                           (np.complex64, np.complex128),
                                           (np.complex128, np.complex128)])
def test_project_psd_returns_the_solver_dtype_at_every_rank(dtype, result, monkeypatch):
    # full rank takes one return path, zero and partial rank the other
    rng = np.random.default_rng(17)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    double = np.dtype(dtype) == result
    for w in ([1, 2, 3, 4, 5, 6], [-1, -2, -3, -4, -5, -6], [3, 2, -1, -4, -5, -6]):
        m = ((q * w) @ q.T).astype(dtype)
        for mrrr in (True, False):
            force_mrrr(monkeypatch, mrrr)
            p = project_psd(m)
            assert p.dtype == result
            if double and max(w) < 0:
                np.testing.assert_array_equal(p, np.zeros_like(m))
            elif double and min(w) > 0:  # the bits of the Hermitian part, as before
                np.testing.assert_array_equal(p, hermitian_part(m))
            else:
                expected = psd_oracle(hermitian_part(m.astype(result)))
                np.testing.assert_allclose(p, expected, rtol=0, atol=1e-5)


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
    lhs = float(np.vdot(toeplitz_map(u), q).real)
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


@pytest.mark.parametrize("call, match", [
    (lambda: toeplitz_map(np.array([])), "non-empty vector"),
    (lambda: toeplitz_gram_diag(0), "n must be positive"),
    (lambda: gaussian_sample(2, 2, 0.0, 0), "sigma must be positive"),
    (lambda: gaussian_sample(2, 2, -1.0, 0), "sigma must be positive"),
], ids=["toeplitz-map-empty", "gram-diag-zero", "sample-sigma-zero", "sample-sigma-negative"])
def test_empty_sizes_and_scales_are_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_random_hermitian_field_and_symmetry():
    r = random_hermitian(5, np.random.default_rng(3))
    c = random_hermitian(5, np.random.default_rng(3), complex_field=True)
    assert not np.iscomplexobj(r)
    assert np.iscomplexobj(c)
    np.testing.assert_allclose(c, c.conj().T)
