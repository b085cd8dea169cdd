"""Acceptance gate: one test per release criterion.

Each test prints a single summary line on success, so running this module
with ``pytest -v -s`` yields a pass/fail line per criterion plus the
measured numbers behind it. The expensive reference setups come from the
session fixtures in ``conftest.py``.
"""

import math
from functools import partial

import numpy as np
import pytest

from proxsplit.linalg import frob_norm, random_hermitian, toeplitz_adjoint
from proxsplit.params import (
    BlockShape,
    Identity,
    Scalar,
    SdpHadamard,
    definiteness_invariant_check,
)
from proxsplit.problems import bqp_multipliers, reference_solve
from proxsplit.prox import (
    FixedEntrySet,
    ProxPair,
    moreau_residual,
    prox_l1_orthogonal,
    prox_linear_diag1,
    prox_linear_sr,
    prox_nsd_indicator,
    prox_psd_indicator,
)
from proxsplit.splitting import (
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
from proxsplit.tuning import (
    SolutionPair,
    joint_objective,
    optimal_diagonal,
    optimal_scalar,
    sdp_separate_choices,
)


def test_criterion_1_rate_factor_calibration():
    k20 = sharp_rate_factor(0.99, 20)
    k100 = sharp_rate_factor(0.99, 100)
    assert k20 == pytest.approx(0.0387, rel=2e-2)
    assert k100 == pytest.approx(0.0031, rel=2e-2)
    print(f"criterion 1 (rate-factor calibration): PASS -- "
          f"L=0.99 gives {k20:.4f} at k=20 and {k100:.4f} at k=100")


def random_param(rng, shape):
    alpha = math.exp(rng.uniform(-2.0, 2.0))
    beta = math.exp(rng.uniform(-2.0, 2.0))
    return SdpHadamard(alpha, beta, shape)


def test_criterion_2_operator_identities():
    n = 7
    shape = BlockShape(n - 1, 1)
    rng = np.random.default_rng(1001)

    worst_moreau = 0.0
    for i in range(50):
        param = random_param(rng, shape)
        v = random_hermitian(n, rng, complex_field=bool(i % 2))
        worst_moreau = max(worst_moreau, moreau_residual(
            param, prox_psd_indicator, prox_nsd_indicator, v))
    assert worst_moreau < 1e-9

    g_real = random_hermitian(n, rng)
    g_cplx = random_hermitian(n, rng, complex_field=True)
    observed = FixedEntrySet([0, 2, 3], rng.standard_normal(3) + 1j * rng.standard_normal(3))
    d = np.exp(rng.uniform(-1.5, 1.5, size=9))
    evaluators = [
        ("psd", prox_psd_indicator, SdpHadamard(0.7, 1.9, shape), True),
        ("nsd", prox_nsd_indicator, SdpHadamard(1.4, 0.6, shape), True),
        ("diag1", partial(prox_linear_diag1, g_real), Scalar(1.3), False),
        ("sr", partial(prox_linear_sr, g_cplx, observed), SdpHadamard(0.5, 2.1, shape), True),
    ]
    for name, prox, param, complex_field in evaluators:
        for _ in range(200):
            v1 = random_hermitian(n, rng, complex_field=complex_field)
            v2 = random_hermitian(n, rng, complex_field=complex_field)
            t1 = param.apply(prox(param, v1))
            t2 = param.apply(prox(param, v2))
            dt = t1 - t2
            gap = float(np.vdot(dt, v1 - v2).real) - float(np.real(np.vdot(dt, dt)))
            assert gap >= -1e-9, f"{name} prox not firmly nonexpansive"
    for _ in range(200):
        v1 = rng.standard_normal(9)
        v2 = rng.standard_normal(9)
        dt = np.sqrt(d) * (prox_l1_orthogonal(d, v1) - prox_l1_orthogonal(d, v2))
        assert float(dt @ dt) <= float(dt @ (v1 - v2)) + 1e-9

    worst_round = 0.0
    for i in range(20):
        param = random_param(rng, shape)
        x = random_hermitian(n, rng, complex_field=bool(i % 2))
        worst_round = max(
            worst_round,
            frob_norm(param.inverse(param.apply(x)) - x),
            frob_norm(param.adjoint(param.adjoint_inverse(x)) - x),
            frob_norm(param.gram_inverse(x) - param.inverse(param.adjoint_inverse(x))),
        )
    assert worst_round < 1e-12

    for i in range(20):
        param = random_param(rng, shape)
        report = definiteness_invariant_check(param, trials=1000, seed=i,
                                              complex_field=bool(i % 2))
        assert report.passed and report.failures == 0

    print(f"criterion 2 (operator identities): PASS -- worst Moreau residual "
          f"{worst_moreau:.2e}, worst round-trip {worst_round:.2e}, "
          f"firm nonexpansiveness 200 pairs x 5 proxes, invariance 20 x 1000 trials")


def test_criterion_3_four_algorithm_equivalence():
    rng = np.random.default_rng(2002)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(4, 13))
        shape = BlockShape(n - 1, 1)
        g = random_hermitian(n, rng, scale=0.5)
        pair = ProxPair(f_prox=partial(prox_linear_diag1, g),
                        g_prox=prox_psd_indicator, g_f=g,
                        constraint="diag-ones", dim=n, is_complex=False)
        param = [Identity(), Scalar(1.6), random_param(rng, shape)][trial % 3]
        psi0 = pair.zeros()
        stop = StopRule(max_iters=20, opt_eps=None, mse_eps=None)

        def collect(runner, *args):
            seq = [psi0.copy()]
            runner(pair, param, *args, stop, lambda k, psi: seq.append(psi.copy()))
            return seq

        drs_seq = collect(run_drs, psi0)
        admm_seq = collect(run_admm, *matched_admm_init(pair, param, psi0))
        pdf_seq = collect(run_pdf, *matched_pdf_init(pair, param, psi0))
        pd_seq = collect(run_pd, *matched_pd_init(pair, param, psi0))
        for other in (admm_seq, pdf_seq, pd_seq):
            assert len(other) == len(drs_seq)
            worst = max(worst, max(frob_norm(a - b) for a, b in zip(drs_seq, other)))
    assert worst < 1e-10
    print(f"criterion 3 (four-algorithm equivalence): PASS -- max governing-sequence "
          f"deviation {worst:.2e} over 10 instances x 20 iterations")


def test_criterion_4_closed_forms_match_grid_oracles():
    rng = np.random.default_rng(3003)
    grid = np.logspace(-4, 4, 4001)
    log_step = math.log(grid[1] / grid[0])

    for trial in range(10):
        x = rng.standard_normal(8) * math.exp(rng.uniform(-1, 1))
        lam = rng.standard_normal(8) * math.exp(rng.uniform(-1, 1))
        pair = SolutionPair(x, lam)
        a_star = optimal_scalar(pair)
        f = grid ** 2 * (x @ x) + (lam @ lam) / grid ** 2
        assert abs(math.log(a_star) - math.log(grid[f.argmin()])) <= log_step + 1e-12
        d_star = optimal_diagonal(pair)
        for i in range(8):
            f_i = grid * x[i] ** 2 + lam[i] ** 2 / grid
            assert abs(math.log(d_star[i]) - math.log(grid[f_i.argmin()])) <= log_step + 1e-12

    for trial in range(10):
        n = int(rng.integers(4, 9))
        mp = SolutionPair(random_hermitian(n, rng), random_hermitian(n, rng),
                          shape=BlockShape(n - 1, 1))
        alpha_t, beta_t = sdp_separate_choices(mp)
        f_alpha = joint_objective(grid, 1.0, mp)
        f_beta = joint_objective(1.0, grid, mp)
        assert abs(math.log(alpha_t) - math.log(grid[f_alpha.argmin()])) <= log_step + 1e-12
        assert abs(math.log(beta_t) - math.log(grid[f_beta.argmin()])) <= log_step + 1e-12

    print("criterion 4 (closed forms vs grid oracles): PASS -- scalar, diagonal and "
          "separate block choices all within one grid step on 20 random solution pairs")


def test_criterion_5_kkt_structure_at_convergence(bqp_setup, sr_setup):
    slack = 1e-9

    inst, _, ref = bqp_setup
    n = inst.n
    x, lam = ref.x_ref, ref.lam_ref
    orth = abs(float(np.vdot(x, lam).real)) / (frob_norm(x) * frob_norm(lam))
    assert orth < 1e-6
    assert np.linalg.eigvalsh(x).min() >= -1e-8
    assert np.linalg.eigvalsh(lam).max() <= 1e-8
    assert np.allclose(np.diag(x), 1.0, rtol=0, atol=1e-8)
    x1_sq = frob_norm(x[:n, :n]) ** 2
    x_sq = frob_norm(x) ** 2
    assert n * (1 - slack) <= x1_sq <= n ** 2 * (1 + slack)
    assert (n + 1) * (1 - slack) <= x_sq <= (n + 1) ** 2 * (1 + slack)
    mu = bqp_multipliers(lam, inst.g_f)
    ata_diag = np.diag(inst.a.T @ inst.a)
    assert np.all(mu[:n] <= ata_diag + 1e-8)
    assert mu[n] <= 1e-8

    inst, _, ref = sr_setup
    n = inst.n
    x, lam = ref.x_ref, ref.lam_ref
    orth_sr = abs(float(np.vdot(x, lam).real)) / (frob_norm(x) * frob_norm(lam))
    assert orth_sr < 1e-6
    assert np.linalg.eigvalsh(x).min() >= -1e-8
    assert np.linalg.eigvalsh(lam).max() <= 1e-8
    lam2 = float(np.real(lam[n, n]))
    assert lam2 == pytest.approx(-0.5, abs=1e-5)
    total = float(np.sum(np.abs(inst.c)))
    t1 = frob_norm(x[:n, :n])
    assert n * inst.m_avg * (1 - slack) <= t1 < n * total
    assert (n + 1) * inst.m_avg * (1 - slack) <= frob_norm(x) < (n + 1) * total
    dual_energy = (frob_norm(lam[:n, :n]) ** 2 + lam2 ** 2
                   + 2.0 * float(np.real(np.vdot(lam[:n, n], lam[:n, n]))))
    assert 1.0 / (4 * n) + 0.25 - slack <= dual_energy <= 2.5 + slack

    print(f"criterion 5 (KKT structure at convergence): PASS -- orthogonality "
          f"{orth:.1e} (bqp) / {orth_sr:.1e} (sr), sr lambda_2 = {lam2:.6f}, "
          f"energy envelopes hold on both references")


def test_criterion_6_bqp_iteration_protocol(bqp_protocol):
    iters = {name: trace.iterations for name, trace in bqp_protocol.items()}
    for trace in bqp_protocol.values():
        assert trace.converged and trace.stop_reason == "mse_eps"
    base = iters["identity"]
    assert base > 3_000
    for name in ("est-alpha", "est-beta", "est-joint", "opt-beta", "opt-joint"):
        assert base / iters[name] >= 5.0, f"{name} speedup {base / iters[name]:.2f}"
    # the alpha-only selection from the true solution pair lands in a regime
    # where the a-priori surrogate happens to beat it; it still accelerates
    assert base / iters["opt-alpha"] > 2.0
    assert iters["est-joint"] < min(iters["est-alpha"], iters["est-beta"])
    assert iters["opt-joint"] < min(iters["opt-alpha"], iters["opt-beta"])
    table = ", ".join(f"{name}={iters[name]}" for name in
                      ("identity", "est-alpha", "est-beta", "est-joint",
                       "opt-alpha", "opt-beta", "opt-joint"))
    print(f"criterion 6 (bqp iteration protocol): PASS -- {table}; "
          f"joint estimate speedup {base / iters['est-joint']:.1f}x")


def test_criterion_7_sr_iteration_protocol(sr_protocol):
    iters = {name: trace.iterations for name, trace in sr_protocol.items()}
    for trace in sr_protocol.values():
        assert trace.converged and trace.stop_reason == "mse_eps"
    base = iters["identity"]
    assert base > 10_000
    assert base / iters["est-joint"] >= 100.0
    assert base / iters["est-alpha"] >= 50.0
    table = ", ".join(f"{name}={iters[name]}" for name in
                      ("identity", "est-joint", "est-alpha", "est-beta"))
    print(f"criterion 7 (sr iteration protocol): PASS -- {table}; "
          f"joint estimate speedup {base / iters['est-joint']:.0f}x")


def test_criterion_8_rate_bound_dominance(bqp_protocol, sr_protocol):
    checked = 0
    worst_ratio = 0.0
    for name, trace in {**{f"bqp-{k}": v for k, v in bqp_protocol.items()},
                        **{f"sr-{k}": v for k, v in sr_protocol.items()}}.items():
        report = rate_check(trace, RateBound(1.0, trace.anchor_sq))
        assert report.ok, f"{name} violates the decay bound at k={report.first_violation}"
        checked += report.checked
        fp = trace.fp_residual_sq
        for k in range(len(fp) - 1):
            assert fp[k + 1] <= fp[k] * (1 + 1e-12), f"{name} residual rose at k={k}"
        ratios = [fp[k] * (k + 1) / trace.anchor_sq for k in range(len(fp))]
        worst_ratio = max(worst_ratio, max(ratios))
    print(f"criterion 8 (rate-bound dominance): PASS -- {checked} steps across 11 "
          f"traces, worst bound usage {worst_ratio:.3f}, residuals non-increasing")


def test_criterion_9_parameter_invariant_references(bqp_setup, sr_setup):
    inst, pair, ref = bqp_setup
    other = reference_solve(pair, SdpHadamard(0.3, 2.0, inst.shape))
    assert other.converged
    rel_bqp = frob_norm(other.x_ref - ref.x_ref) / frob_norm(ref.x_ref)
    assert rel_bqp < 1e-6

    inst, pair, ref = sr_setup
    other = reference_solve(pair, SdpHadamard(0.2, 3.0, inst.shape))
    assert other.converged
    rel_sr = frob_norm(other.x_ref - ref.x_ref) / frob_norm(ref.x_ref)
    assert rel_sr < 1e-6

    print(f"criterion 9 (parameter-invariant references): PASS -- relative solution "
          f"gap {rel_bqp:.1e} (bqp), {rel_sr:.1e} (sr) across different parameters")
