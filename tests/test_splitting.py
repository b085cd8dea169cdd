import csv
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxsplit.linalg import frob_norm, random_hermitian
from proxsplit.params import BlockShape, Identity, SdpHadamard
from proxsplit.prox import ProxPair, prox_linear_diag1, prox_psd_indicator
from proxsplit.splitting import (
    TRACE_SCHEMA,
    ConvergenceTrace,
    DivergenceError,
    RateBound,
    StopRule,
    drs_fixed_point_map,
    estimate_cocoercivity,
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

RNG = np.random.default_rng(55)


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


def test_rate_check_slack_tolerates_marginal_rows():
    anchor = 1.0
    rows = [anchor / (k + 1) * 1.0000001 for k in range(10)]
    trace = ConvergenceTrace(fp_residual_sq=rows, anchor_sq=anchor)
    assert not rate_check(trace, RateBound(1.0, anchor)).ok
    assert rate_check(trace, RateBound(1.0, anchor), rel_slack=1e-6).ok


def test_estimate_cocoercivity_recovers_linear_contraction():
    # For T = c * identity the defining ratio is exactly c on every pair.
    c = 0.7
    samples = [(y, c * y) for y in RNG.standard_normal((20, 6))]
    assert estimate_cocoercivity(samples) == pytest.approx(c, rel=1e-12)


def test_estimate_cocoercivity_is_clamped_to_one():
    samples = [(np.array([1.0]), np.array([3.0])), (np.array([0.0]), np.array([0.0]))]
    assert estimate_cocoercivity(samples) == 1.0
    with pytest.raises(ValueError):
        estimate_cocoercivity([(np.array([1.0]), np.array([1.0]))])


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


def test_drs_fixed_point_map_matches_runner():
    pair = small_sdp_pair(4, seed=2)
    param = Identity()
    step = drs_fixed_point_map(pair, param)
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


def test_trace_csv_layout(tmp_path):
    pair = small_sdp_pair(4, seed=4)
    _, trace = run_drs(pair, Identity(), pair.zeros(), StopRule(max_iters=5, opt_eps=None))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# {TRACE_SCHEMA}"
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["k", "fp_residual_sq", "opt_residual", "mse", "elapsed_ms"]
    assert len(rows) == 1 + 5
    # no reference was given, so the mse column is empty
    assert all(r[3] == "" for r in rows[1:])
    # values round-trip exactly through repr
    assert float(rows[1][1]) == trace.fp_residual_sq[0]


def test_mse_stopping_uses_reference(tmp_path):
    pair = small_sdp_pair(5, seed=11)
    param = SdpHadamard(0.9, 1.2, BlockShape(5, 1))
    _, long_trace = run_drs(pair, param, pair.zeros(), StopRule(max_iters=4000, opt_eps=1e-11))
    state, _ = run_drs(pair, param, pair.zeros(), StopRule(max_iters=4000, opt_eps=1e-11))
    ref = state.x
    stop = StopRule(max_iters=4000, opt_eps=None, mse_eps=1e-8, reference=ref)
    _, trace = run_drs(pair, param, pair.zeros(), stop)
    assert trace.converged and trace.stop_reason == "mse_eps"
    assert trace.mse is not None and trace.mse[-1] <= 1e-8
    path = tmp_path / "t.csv"
    trace.write_csv(path)
    rows = list(csv.reader(path.read_text().splitlines()[2:]))
    assert float(rows[0][3]) == trace.mse[0]
