import sys
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxsplit.linalg import (frob_norm, hermitian_part, positive_eigenpairs, project_toeplitz,
                              random_hermitian)
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

def plain_project_psd(m, expected_rank):
    h = hermitian_part(m)
    w, v = positive_eigenpairs(h, expected_rank)
    if w.size == h.shape[0]:
        return h
    if w.size == 0:
        return np.zeros_like(h)
    return hermitian_part((v * w) @ v.conj().T)


def plain_g_prox(expected_rank, param, v):
    return param.inverse(plain_project_psd(v, expected_rank))


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
                partial(plain_diag1_prox, g), partial(plain_g_prox, 1))
    inst = gen_sr(12, 3, 2.0, 0.8, 5)
    g = inst.g_f.copy()
    observed = FixedEntrySet(inst.omega, inst.x_star[inst.omega])
    return (inst, build_prox_pair(inst), g, partial(prox_linear_sr, g, observed),
            partial(plain_sr_prox, g, observed), partial(plain_g_prox, inst.k))


ORACLE_ITERS = 60


@pytest.mark.parametrize("app", ["bqp", "sr"])
@pytest.mark.parametrize("make_param", [lambda shape: Identity(), lambda shape: Scalar(0.7),
                                        lambda shape: SdpHadamard(1.7, 0.4, shape)],
                         ids=["identity", "scalar", "sdp-hadamard"])
def test_drs_matches_the_plain_step_bit_for_bit(app, make_param):
    inst, pair, _, _, f_plain, g_plain = small_app(app)
    param = make_param(inst.shape)
    rng = np.random.default_rng(3)
    psi0 = random_hermitian(pair.dim, rng, complex_field=pair.is_complex)
    reference = random_hermitian(pair.dim, rng, complex_field=pair.is_complex)
    psi0_before, g_before = psi0.copy(), inst.g_f.copy()
    want_psis, want_lists = plain_drs(f_plain, g_plain, param, psi0, ORACLE_ITERS, reference)
    psis = []
    _, trace = run_drs(pair, param, psi0, StopRule(max_iters=ORACLE_ITERS, opt_eps=None,
                                                   reference=reference),
                       lambda k, psi: psis.append(psi.copy()))
    assert len(psis) == ORACLE_ITERS
    for k, (got, want) in enumerate(zip(psis, want_psis)):
        assert np.array_equal(got, want), (app, k)
    assert tuple(map(list, (trace.fp_residual_sq, trace.opt_residual, trace.mse))) == want_lists
    np.testing.assert_array_equal(psi0, psi0_before)
    np.testing.assert_array_equal(inst.g_f, g_before)


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
