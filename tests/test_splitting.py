import ctypes
import sys
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxsplit import linalg, splitting
from proxsplit.cli import estimate_param
from proxsplit.linalg import frob_norm, hermitian_part, project_toeplitz, random_hermitian
from proxsplit.params import BlockShape, Identity, Scalar, SdpHadamard
from proxsplit.problems import build_prox_pair, gen_bqp, gen_sr
from proxsplit.prox import (FixedEntrySet, ProxPair, prox_linear_diag1, prox_linear_sr,
                            prox_psd_indicator)
from proxsplit.splitting import (
    ConvergenceTrace,
    DivergenceError,
    RateBound,
    StopRule,
    matched_admm_init,
    matched_pd_init,
    matched_pdf_init,
    rate_check,
    run_admm,
    run_drs,
    run_pd,
    run_pdf,
    sharp_rate_factor,
)


def small_sdp_pair(n, seed):
    rng = np.random.default_rng(seed)
    g = random_hermitian(n + 1, rng, scale=0.4)
    return ProxPair(f_prox=partial(prox_linear_diag1, g),
                    g_prox=prox_psd_indicator, g_f=g,
                    constraint="diag-ones", dim=n + 1, is_complex=False)


def matched_forms(pair, param, psi0):
    """Each form as a ``run(stop, psi_hook=None)`` callable, started to match ``psi0``."""
    z0, lam0 = matched_admm_init(pair, param, psi0)
    psi_f, lam_f = matched_pdf_init(pair, param, psi0)
    x0, lam_prev, lam_pd = matched_pd_init(pair, param, psi0)
    return {"drs": partial(run_drs, pair, param, psi0),
            "admm": partial(run_admm, pair, param, z0, lam0),
            "pdf": partial(run_pdf, pair, param, psi_f, lam_f),
            "pd": partial(run_pd, pair, param, x0, lam_prev, lam_pd)}


def collect_psis(runner, *args, iters=20):
    psis = []
    stop = StopRule(max_iters=iters, opt_eps=None)
    runner(*args, stop, lambda k, psi: psis.append(psi.copy()))
    return psis


@pytest.mark.parametrize("k", [0, 1, 5, 40])
def test_unit_cocoercivity_gives_harmonic_factor(k):
    assert sharp_rate_factor(1.0, k) == pytest.approx(1.0 / (k + 1), rel=1e-12)


def test_sharp_factor_published_calibration():
    assert sharp_rate_factor(0.99, 20) == pytest.approx(0.0387, rel=0.02)
    assert sharp_rate_factor(0.99, 100) == pytest.approx(0.0031, rel=0.02)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.01, max_value=1.0), st.integers(min_value=1, max_value=200))
def test_sharp_factor_below_basic_bound_and_decreasing(l, k):
    fac = sharp_rate_factor(l, k)
    assert 0.0 <= fac <= 1.0 / (k + 1) + 1e-15
    assert sharp_rate_factor(l, k + 1) <= fac


def test_rate_check_accepts_compliant_trace_and_flags_violation():
    anchor = 4.0
    good = [0.9 * anchor / (k + 1) for k in range(30)]
    trace = ConvergenceTrace(fp_residual_sq=list(good), anchor_sq=anchor)
    rep = rate_check(trace, RateBound(1.0, anchor))
    assert rep.ok and rep.first_violation is None and rep.checked == 30

    bad = list(good)
    bad[5] = 1.5 * anchor / 6
    trace_bad = ConvergenceTrace(fp_residual_sq=bad, anchor_sq=anchor)
    rep_bad = rate_check(trace_bad, RateBound(1.0, anchor))
    assert not rep_bad.ok and rep_bad.first_violation == 5


def test_rate_check_flags_marginal_rows():
    anchor = 1.0
    rows = [anchor / (k + 1) * 1.0000001 for k in range(10)]
    trace = ConvergenceTrace(fp_residual_sq=rows, anchor_sq=anchor)
    assert not rate_check(trace, RateBound(1.0, anchor)).ok


def test_stop_rule_reason_priorities():
    rule = StopRule(max_iters=10, opt_eps=1e-3, mse_eps=1e-5, reference=np.zeros((2, 2)))
    assert rule.reason(1e-4, 1.0) == "opt_eps"
    assert rule.reason(1.0, 1e-6) == "mse_eps"
    assert rule.reason(1.0, 1.0) is None
    mse_only = StopRule(max_iters=10, opt_eps=None, mse_eps=1e-5, reference=np.zeros((2, 2)))
    assert mse_only.reason(0.0, 1.0) is None


@pytest.mark.parametrize("make, match", [
    (partial(StopRule, max_iters=0), "max_iters must be positive"),
    (partial(StopRule, mse_eps=1e-6), "mse threshold needs a reference"),
    (partial(sharp_rate_factor, 0.0, 3), "cocoercivity level"),
    (partial(sharp_rate_factor, 1.5, 3), "cocoercivity level"),
    (partial(sharp_rate_factor, 0.5, -1), "k must be nonnegative"),
    (partial(RateBound, 0.0, 1.0), "cocoercivity level"),
    (partial(RateBound, 1.5, 1.0), "cocoercivity level"),
    (partial(RateBound, 1.0, -1.0), "anchor must be nonnegative"),
], ids=["stop-no-iterations", "stop-mse-without-reference", "factor-level-zero",
        "factor-level-above-one", "factor-negative-k", "bound-level-zero",
        "bound-level-above-one", "bound-negative-anchor"])
def test_stop_and_rate_settings_out_of_range_are_refused(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_run_drs_reaches_optimality_on_small_instance():
    pair = small_sdp_pair(6, seed=1)
    param = SdpHadamard(0.8, 1.3, BlockShape(6, 1))
    state, trace = run_drs(pair, param, pair.zeros(), StopRule(max_iters=5000, opt_eps=1e-9))
    assert trace.converged and trace.stop_reason == "opt_eps"
    assert frob_norm(state.x - state.z) <= 1e-9
    assert np.linalg.eigvalsh(state.z)[0] >= -1e-9
    np.testing.assert_allclose(np.diag(state.x), 1.0, atol=1e-12)
    # governing-iterate identity psi = S x + adjoint-inverse lam
    np.testing.assert_allclose(
        state.psi, param.apply(state.x) + param.adjoint_inverse(state.lam), atol=1e-9)
    assert trace.anchor_sq == pytest.approx(frob_norm(state.psi) ** 2, rel=1e-12)


def test_four_algorithms_share_governing_sequence():
    pair = small_sdp_pair(5, seed=7)
    param = SdpHadamard(0.5, 2.0, BlockShape(5, 1))
    psi0 = random_hermitian(6, np.random.default_rng(3))
    psis = {name: collect_psis(run) for name, run in matched_forms(pair, param, psi0).items()}
    for name in ("admm", "pdf", "pd"):
        assert len(psis[name]) == len(psis["drs"])
        for a, b in zip(psis["drs"], psis[name]):
            assert frob_norm(a - b) < 1e-10


def test_four_algorithms_share_terminal_state():
    # the forms pair different iterates in SplitState and in the stopping
    # residual, so check the reported terminal state, not only the sequence
    pair = small_sdp_pair(6, seed=1)
    param = SdpHadamard(0.8, 1.3, BlockShape(6, 1))
    runs = {name: run(StopRule(max_iters=5000, opt_eps=1e-9))
            for name, run in matched_forms(pair, param, pair.zeros()).items()}
    drs_state, drs_trace = runs["drs"]
    assert drs_trace.stop_reason == "opt_eps"
    for name, (state, trace) in runs.items():
        assert trace.iterations == drs_trace.iterations, name
        assert trace.stop_reason == drs_trace.stop_reason, name
        for attr in ("x", "z", "lam", "psi"):
            np.testing.assert_allclose(getattr(state, attr), getattr(drs_state, attr),
                                       rtol=0, atol=1e-10, err_msg=f"{name}.{attr}")
        np.testing.assert_allclose(
            state.psi, param.apply(state.x) + param.adjoint_inverse(state.lam),
            rtol=0, atol=1e-10, err_msg=name)


def test_run_drs_follows_the_two_point_recursion():
    pair = small_sdp_pair(4, seed=2)
    param = Identity()

    def step(psi):
        z = pair.g_prox(param, psi)
        sz = param.apply(z)
        x = pair.f_prox(param, 2.0 * sz - psi)
        return param.apply(x) + psi - sz

    psi0 = random_hermitian(5, np.random.default_rng(9))
    psi1 = step(psi0)
    manual = step(psi1)
    psis = collect_psis(run_drs, pair, param, psi0, iters=2)
    assert frob_norm(manual - psis[-1]) < 1e-12
    # the trace measures each step and the total drift from the start
    _, trace = run_drs(pair, param, psi0, StopRule(max_iters=2, opt_eps=None))
    np.testing.assert_allclose(
        trace.fp_residual_sq, [frob_norm(psi1 - psi0) ** 2, frob_norm(manual - psi1) ** 2],
        rtol=1e-12)
    assert trace.anchor_sq == pytest.approx(frob_norm(manual - psi0) ** 2, rel=1e-12)


@pytest.mark.parametrize("form", ["drs", "admm", "pdf", "pd"])
def test_divergent_map_raises(form):
    pair = ProxPair(f_prox=lambda p, v: 3.0 * v, g_prox=lambda p, v: 3.0 * v,
                    constraint="none", dim=3, is_complex=False)
    run = matched_forms(pair, Identity(), np.eye(3))[form]
    with pytest.raises(DivergenceError, match="exceeded"):
        run(StopRule(max_iters=1000, opt_eps=None))


@pytest.mark.parametrize("form", ["drs", "admm", "pdf", "pd"])
def test_finite_iterate_with_overflowing_norm_is_not_called_nonfinite(form):
    # entries of 1e200 are finite, but their squared norm overflows to inf
    pair = ProxPair(f_prox=lambda p, v: np.full_like(v, 1e200), g_prox=lambda p, v: 0.5 * v,
                    constraint="none", dim=3, is_complex=False)
    run = matched_forms(pair, Identity(), np.eye(3))[form]
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError, match="exceeded"):
            run(StopRule(max_iters=10, opt_eps=None))


@pytest.mark.parametrize("form", ["drs", "admm", "pdf", "pd"])
def test_nonfinite_prox_raises(form):
    pair = ProxPair(f_prox=lambda p, v: np.full_like(v, np.nan), g_prox=lambda p, v: 0.5 * v,
                    constraint="none", dim=3, is_complex=False)
    run = matched_forms(pair, Identity(), np.eye(3))[form]
    with pytest.raises(DivergenceError, match="non-finite"):
        run(StopRule(max_iters=10, opt_eps=None))


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("iters", [1, 2, 9])
def test_drs_terminal_dual_is_built_from_the_last_step(iters, complex_field):
    # run_drs forms the dual only once, after the loop, from the governing
    # iterate the last step started from and that step's resolvent output
    n = 4
    rng = np.random.default_rng(iters)
    g = random_hermitian(n + 1, rng, scale=0.4)
    pair = ProxPair(f_prox=partial(prox_linear_diag1, g), g_prox=prox_psd_indicator, g_f=g,
                    dim=n + 1, is_complex=complex_field)
    param = SdpHadamard(1.3, 0.6, BlockShape(n, 1))
    psi0 = random_hermitian(n + 1, rng, complex_field=complex_field)
    psis = [psi0]
    state, _ = run_drs(pair, param, psi0, StopRule(max_iters=iters, opt_eps=None),
                       lambda k, psi: psis.append(psi))
    assert len(psis) == iters + 1
    expected = param.adjoint(psis[-2] - param.apply(state.z))
    assert state.lam.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(state.psi, psis[-1])


def test_repeated_runs_are_bitwise_deterministic():
    pair = small_sdp_pair(4, seed=4)
    param = SdpHadamard(1.1, 0.9, BlockShape(4, 1))
    _, t1 = run_drs(pair, param, pair.zeros(), StopRule(max_iters=25, opt_eps=None))
    _, t2 = run_drs(pair, param, pair.zeros(), StopRule(max_iters=25, opt_eps=None))
    assert t1.fp_residual_sq == t2.fp_residual_sq
    assert t1.opt_residual == t2.opt_residual
    assert t1.anchor_sq == t2.anchor_sq


def test_mse_stopping_uses_reference():
    pair = small_sdp_pair(5, seed=11)
    param = SdpHadamard(0.9, 1.2, BlockShape(5, 1))
    state, _ = run_drs(pair, param, pair.zeros(), StopRule(max_iters=4000, opt_eps=1e-11))
    ref = state.x
    stop = StopRule(max_iters=4000, opt_eps=None, mse_eps=1e-8, reference=ref)
    _, trace = run_drs(pair, param, pair.zeros(), stop)
    assert trace.converged and trace.stop_reason == "mse_eps"
    assert trace.mse is not None and trace.mse[-1] <= 1e-8


# The DRS step as first written, kept as the oracle of the lean one: the
# same operations in the same order, so every iterate must agree bit for bit.

def positive_eigenpairs(h):
    """``np.linalg.eigh(h)`` restricted to positive eigenvalues, from the calling thread's plan."""
    plan = linalg._plan(h.shape[0], np.iscomplexobj(h))
    plan.a[...] = h
    w, rows = plan.eigenpairs()
    # the plan works on conj(h) and returns its eigenvectors as rows
    return w.copy(), np.conjugate(rows).T


def plain_project_psd(m):
    h = hermitian_part(m)
    w, v = positive_eigenpairs(h)
    if w.size == h.shape[0]:
        return h
    if w.size == 0:
        return np.zeros_like(h)
    return hermitian_part((v * w) @ v.conj().T)


def plain_g_prox(param, v):
    return param.inverse(plain_project_psd(v))


def plain_diag1_prox(g, param, v):
    x = param.inverse(v) - param.gram_inverse(g)
    np.fill_diagonal(x, 1.0)
    return x


def plain_sr_prox(g, observed, param, v):
    m = v.shape[0] - 1
    vt = v.copy()
    vt[:m, :m] = project_toeplitz(v[:m, :m])
    x = param.inverse(vt) - param.gram_inverse(g)
    x[observed.indices, m] = observed.values
    x[m, observed.indices] = np.conj(observed.values)
    return x


def plain_drs(f_prox, g_prox, param, psi0, iters, reference):
    """Governing iterates and the trace's three series, as lists, of the plain DRS loop."""
    psi = psi0
    psis, fp_sq, opt_res, mse = [], [], [], []
    for _ in range(iters):
        z = g_prox(param, psi)
        sz = param.apply(z)
        x = f_prox(param, 2.0 * sz - psi)
        psi_next = param.apply(x) + psi - sz
        step = psi_next - psi
        fp_sq.append(float(np.real(np.vdot(step, step))))
        opt_res.append(frob_norm(x - z))
        d = x - reference
        mse.append(float(np.real(np.vdot(d, d))) / d.size)
        psis.append(psi_next)
        psi = psi_next
    return psis, (fp_sq, opt_res, mse)


def small_app(app):
    """A small instance, its pair, a writeable copy ``g`` of ``g_f``, the shipped and
    the plain f-prox over ``g``, and the plain g-prox."""
    if app == "bqp":
        inst = gen_bqp(6, 8, 0.05, 1.0, 5)
        g = inst.g_f.copy()
        return (inst, build_prox_pair(inst), g, partial(prox_linear_diag1, g),
                partial(plain_diag1_prox, g), plain_g_prox)
    inst = gen_sr(12, 3, 2.0, 0.8, 5)
    g = inst.g_f.copy()
    observed = FixedEntrySet(inst.omega, inst.x_star[inst.omega])
    return (inst, build_prox_pair(inst), g, partial(prox_linear_sr, g, observed),
            partial(plain_sr_prox, g, observed), plain_g_prox)


ORACLE_ITERS = 60


@pytest.mark.parametrize("app", ["bqp", "sr"])
@pytest.mark.parametrize("make_param", [lambda shape: Identity(), lambda shape: Scalar(0.7),
                                        lambda shape: SdpHadamard(1.7, 0.4, shape)],
                         ids=["identity", "scalar", "sdp-hadamard"])
def test_drs_matches_the_plain_step_bit_for_bit(app, make_param, monkeypatch):
    inst, pair, _, _, f_plain, g_plain = small_app(app)
    param = make_param(inst.shape)
    rng = np.random.default_rng(3)
    psi0 = random_hermitian(pair.dim, rng, complex_field=pair.is_complex)
    reference = random_hermitian(pair.dim, rng, complex_field=pair.is_complex)
    psi0_before, g_before = psi0.copy(), inst.g_f.copy()
    for mrrr in (True, False):  # on each tridiagonal solver, whichever the counts pick
        monkeypatch.setattr(linalg, "_mrrr", lambda n, positive: mrrr)
        want_psis, want_lists = plain_drs(f_plain, g_plain, param, psi0, ORACLE_ITERS, reference)
        psis = []
        _, trace = run_drs(pair, param, psi0, StopRule(max_iters=ORACLE_ITERS, opt_eps=None,
                                                       reference=reference),
                           lambda k, psi: psis.append(psi.copy()))
        assert len(psis) == ORACLE_ITERS
        for k, (got, want) in enumerate(zip(psis, want_psis)):
            assert np.array_equal(got, want), (app, mrrr, k)
        assert tuple(map(list, (trace.fp_residual_sq, trace.opt_residual,
                                trace.mse))) == want_lists
    np.testing.assert_array_equal(psi0, psi0_before)
    np.testing.assert_array_equal(inst.g_f, g_before)


@pytest.mark.parametrize("app", ["bqp", "sr"])
@pytest.mark.parametrize("flip", ["scalar", (-1, 1), (1, -1), (-1, -1)],
                         ids=["-a", "-alpha,beta", "alpha,-beta", "-alpha,-beta"])
def test_a_sign_flipped_parameter_runs_the_same_iterations(app, flip):
    # flipping signs gives sigma * J S(J X J) J, sigma = sign(alpha * beta) and
    # J = Diag(I_n, sign(beta) I_k): the governing iterates become sigma * J psi J,
    # and x, lam and every series of the trace keep their values. Exact zeros of the
    # flipped iterates can take the other sign, and on complex iterates of sign -1
    # the eigensolver then rounds differently: one SR iterate differs by 1e-35
    inst, pair, *_ = small_app(app)
    n, k = inst.shape.n, inst.shape.k
    if flip == "scalar":
        param, flipped, j = Scalar(0.7), Scalar(-0.7), np.ones(n + k)
    else:
        param = estimate_param(inst)
        flipped = SdpHadamard(flip[0] * param.alpha, flip[1] * param.beta, inst.shape)
        j = np.r_[np.ones(n), np.full(k, float(flip[1]))]
    stop = StopRule(max_iters=20_000, opt_eps=1e-9, reference=pair.zeros())
    runs = []
    for p in (param, flipped):
        psis = []
        state, trace = run_drs(pair, p, pair.zeros(), stop, lambda it, psi: psis.append(psi.copy()))
        runs.append((state, trace, psis))
    (state, trace, psis), (state_f, trace_f, psis_f) = runs
    assert trace.converged and trace_f.stop_reason == trace.stop_reason
    for series in ("fp_residual_sq", "opt_residual", "mse"):
        assert getattr(trace_f, series) == getattr(trace, series), series
    assert np.array_equal(state_f.x, state.x) and np.array_equal(state_f.lam, state.lam)
    assert len(psis_f) == len(psis) == trace.iterations
    exact = app == "bqp" or flipped.sign > 0
    for psi, psi_f in zip(psis, psis_f):
        want = flipped.sign * j[:, None] * psi * j
        assert np.array_equal(psi_f, want) or (
            not exact and frob_norm(psi_f - want) <= 1e-15 * frob_norm(psi))


@pytest.mark.parametrize("app", ["bqp", "sr"])
def test_writing_into_a_writeable_g_between_runs_changes_the_next_run(app):
    inst, built, g, f_prox, f_plain, g_plain = small_app(app)
    pair = ProxPair(f_prox=f_prox, g_prox=built.g_prox, g_f=g, dim=built.dim,
                    is_complex=built.is_complex)
    param = SdpHadamard(1.7, 0.4, inst.shape)
    stop = StopRule(max_iters=ORACLE_ITERS, opt_eps=None)
    first, _ = run_drs(pair, param, pair.zeros(), stop)
    g[0, 1] += 0.25
    g[1, 0] += 0.25
    second, _ = run_drs(pair, param, pair.zeros(), stop)
    assert not np.array_equal(first.psi, second.psi)
    want_psis, _ = plain_drs(f_plain, g_plain, param, pair.zeros(), ORACLE_ITERS, pair.zeros())
    assert np.array_equal(second.psi, want_psis[-1])


@pytest.mark.parametrize("app", ["bqp", "sr"])
def test_concurrent_solves_on_one_pair_match_serial_runs(app):
    # four threads on two cores, switching as often as the interpreter allows,
    # each with its own parameter over one shared pair
    inst, pair, *_ = small_app(app)
    params = [SdpHadamard(a, b, inst.shape) for a, b in ((0.5, 2.0), (1.0, 1.0),
                                                         (2.0, 0.5), (1.7, 0.4))]
    stop = StopRule(max_iters=150, opt_eps=None)

    def solve(param):
        state, trace = run_drs(pair, param, pair.zeros(), stop)
        return state.psi, state.x, (trace.fp_residual_sq, trace.opt_residual)

    serial = [solve(param) for param in params]
    results, errors = [None] * len(params), []

    def worker(i):
        try:
            results[i] = solve(params[i])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(params))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for (psi, x, lists), (psi_s, x_s, lists_s) in zip(results, serial):
        assert np.array_equal(psi, psi_s) and np.array_equal(x, x_s)
        assert lists == lists_s


ANDERSON_POINTS = 90


def anderson_run(app, monkeypatch):
    """``run_drs_anderson``'s first ``ANDERSON_POINTS`` points on BQP n=12/k=16 or SR
    n=16/k=3 under the a-priori parameter: each point's ``(psi, image)``, and each Gram
    solve's ``(held, weights, info)`` as ``dposv`` left them."""
    inst = gen_bqp(12, 16, 0.05, 1.0, 0) if app == "bqp" else gen_sr(16, 3, 2.0, 0.8, 0)
    pair, param = build_prox_pair(inst), estimate_param(inst)
    history, solves = [], []
    drs_map, dposv = splitting._drs_map, splitting._DPOSV

    def recording_map(pair, param, psi):
        x, z, sz, image = drs_map(pair, param, psi)
        history.append((psi.copy(), image.copy()))
        return x, z, sz, image

    def recording_solve(*args):  # dposv(uplo, n, nrhs, a, lda, b, ldb, info)
        dposv(*args)
        held = ctypes.c_int.from_address(args[1]).value
        weights = np.array((ctypes.c_double * held).from_address(args[5]))
        solves.append((held, weights, ctypes.c_int.from_address(args[7]).value))

    monkeypatch.setattr(splitting, "_drs_map", recording_map)
    monkeypatch.setattr(splitting, "_DPOSV", recording_solve)
    splitting.run_drs_anderson(pair, param, pair.zeros(),
                               StopRule(max_iters=ANDERSON_POINTS, opt_eps=None))
    return history, solves


@pytest.mark.parametrize("app", ["bqp", "sr"])
def test_anderson_weights_reach_the_least_squares_optimum(app, monkeypatch):
    # each extrapolation's weights against a dense least-squares oracle of the shifted
    # problem min |g - D w|^2 + shift |w|^2 over the residual differences D held in
    # the ring; objectives, not weights, since D can be ill-conditioned
    memory = splitting.ANDERSON_MEMORY
    history, solves = anderson_run(app, monkeypatch)
    assert len(history) == ANDERSON_POINTS
    solves = iter(solves)
    pushes, last, least, extrapolated, wrapped = [], None, np.inf, False, False
    for (psi, image), (next_psi, _) in zip(history, history[1:]):
        f, g = image.reshape(-1).view(np.float64), (psi - image).reshape(-1).view(np.float64)
        res = np.linalg.norm(g)
        if extrapolated and res > splitting.ANDERSON_SAFEGUARD * least:
            assert np.array_equal(next_psi, accepted)
            pushes, last, extrapolated = [], None, False
            continue
        least = min(least, res)
        if last is not None:
            pushes.append((f - last[0], g - last[1]))
        last, accepted, extrapolated = (f, g), image, False
        if not pushes:
            assert np.array_equal(next_psi, image)
            continue
        # push p since the last restart sits in ring slot p mod memory
        held, wrapped = min(len(pushes), memory), wrapped or len(pushes) > memory
        ring = [None] * held
        for p in range(len(pushes) - held, len(pushes)):
            ring[p % memory] = pushes[p]
        d_image, d_resid = (np.array(rows) for rows in zip(*ring))
        got_held, weights, info = next(solves)
        assert (got_held, info) == (held, 0)
        shift = splitting.ANDERSON_SHIFT * max(row @ row for row in d_resid)
        stacked = np.vstack((d_resid.T, np.sqrt(shift) * np.eye(held)))
        oracle = np.linalg.lstsq(stacked, np.concatenate((g, np.zeros(held))), rcond=None)[0]

        def objective(w):
            r = g - d_resid.T @ w
            return r @ r + shift * (w @ w)

        assert objective(weights) == pytest.approx(objective(oracle), rel=1e-9)
        step = (weights @ d_image).view(image.dtype).reshape(image.shape)
        np.testing.assert_allclose(next_psi, image - step, rtol=0,
                                   atol=1e-12 * np.abs(step).max())
        extrapolated = True
    assert next(solves, None) is None
    assert wrapped
