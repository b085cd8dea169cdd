"""Instance generators, serialization and high-precision references."""

import ctypes
import dataclasses
import json
import pickle
from functools import partial

import numpy as np
import pytest

from proxsplit import linalg, splitting
from proxsplit.cli import estimate_param, protocol_params
from proxsplit.linalg import random_hermitian, toeplitz_map
from proxsplit.params import BlockShape, Identity, Scalar, SdpHadamard
from proxsplit.prox import FixedEntrySet, prox_linear_diag1, prox_linear_sr, prox_psd_indicator
from proxsplit.splitting import StopRule, run_drs
from proxsplit.tuning import SolutionPair, bqp_estimate
from proxsplit.problems import (
    BqpInstance,
    SrInstance,
    _separated_locations,
    bqp_multipliers,
    bqp_objective,
    build_prox_pair,
    gen_bqp,
    gen_sr,
    load_instance,
    reference_solve,
    save_instance,
)


def test_bqp_objective_block_layout():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    g = bqp_objective(a, b)
    assert g.shape == (4, 4)
    assert np.allclose(g[:3, :3], a.T @ a, rtol=1e-14, atol=0)
    assert np.allclose(g[:3, 3], -(a.T @ b), rtol=1e-14, atol=0)
    assert np.allclose(g[3, :3], -(a.T @ b), rtol=1e-14, atol=0)
    assert g[3, 3] == 0.0
    assert np.array_equal(g, g.T)


def test_gen_bqp_shapes_and_layout():
    inst = gen_bqp(40, 50, 0.05, 1.0, 0)
    assert inst.a.shape == (50, 40)  # measurement rows by unknowns
    assert inst.b.shape == (50,)
    assert inst.g_f.shape == (41, 41)
    assert inst.n == 40 and inst.k == 50
    assert inst.shape == BlockShape(40, 1)
    assert np.array_equal(inst.g_f, bqp_objective(inst.a, inst.b))


def test_gen_bqp_deterministic_in_seed():
    first = gen_bqp(12, 15, 0.3, 1.0, 7)
    again = gen_bqp(12, 15, 0.3, 1.0, 7)
    other = gen_bqp(12, 15, 0.3, 1.0, 8)
    assert np.array_equal(first.a, again.a)
    assert np.array_equal(first.b, again.b)
    assert not np.array_equal(first.a, other.a)


def test_gen_bqp_amplitude_scales():
    inst = gen_bqp(40, 50, 0.05, 2.0, 3)
    assert np.std(inst.a) == pytest.approx(0.05, rel=0.1)
    assert np.std(inst.b) == pytest.approx(2.0, rel=0.3)


def test_gen_bqp_validation():
    with pytest.raises(ValueError):
        gen_bqp(0, 5, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        gen_bqp(5, 0, 1.0, 1.0, 0)


def circular_gap(taus):
    t = np.sort(taus)
    return np.min(np.diff(t, append=t[0] + 1.0))


def test_gen_sr_fields_and_separation():
    inst = gen_sr(50, 10, 2.0, 0.8, 2)
    assert inst.taus.shape == (10,)
    assert np.all((0 <= inst.taus) & (inst.taus < 1))
    assert circular_gap(inst.taus) >= 1.0 / 50
    assert inst.c.shape == (10,)
    assert np.isrealobj(inst.c)
    # observed index set: sorted, unique, fixed fraction of the samples
    assert inst.omega.shape == (40,)
    assert np.array_equal(inst.omega, np.unique(inst.omega))
    assert np.all((0 <= inst.omega) & (inst.omega < 50))
    # ground-truth samples come from the spike superposition
    vand = np.exp(-2j * np.pi * np.outer(np.arange(50), inst.taus))
    assert np.allclose(inst.x_star, vand @ inst.c, rtol=1e-14, atol=0)


def test_gen_sr_objective_matrix():
    inst = gen_sr(20, 4, 1.5, 0.8, 1)
    g = inst.g_f
    assert g.shape == (21, 21)
    assert np.allclose(g[:20, :20], np.eye(20) / 40.0, rtol=0, atol=0)
    assert np.all(g[:20, 20] == 0)
    assert g[20, 20] == 0.5


@pytest.mark.parametrize("seed", range(4))
def test_gen_sr_separates_spikes_where_uniform_draws_rarely_do(seed):
    # uniform draws would all be separated with probability (1/2)^24 = 6e-8
    inst = gen_sr(50, 25, 2.0, 0.8, seed)
    assert np.all((0 <= inst.taus) & (inst.taus < 1))
    assert circular_gap(inst.taus) >= 1.0 / 50


def test_gen_sr_direct_gaps_follow_the_conditioned_uniform_law():
    # given gaps of at least d, k uniform points have a minimum gap of mean
    # d + (1 - k d) / k^2, the mean smallest of k Dirichlet(1, ..., 1) spacings
    rng = np.random.default_rng(9)
    k, d = 20, 1.0 / 40
    gaps = [circular_gap(_separated_locations(rng, k, d)) for _ in range(4000)]
    mean = d + (1 - k * d) / k ** 2
    # the excess over d is close to exponential: its standard error is about (mean - d) / 63
    assert abs(np.mean(gaps) - mean) < 4 * (mean - d) / np.sqrt(4000)
    assert min(gaps) >= d


def test_gen_sr_deterministic_in_seed():
    first = gen_sr(30, 6, 2.0, 0.8, 4)
    again = gen_sr(30, 6, 2.0, 0.8, 4)
    assert np.array_equal(first.taus, again.taus)
    assert np.array_equal(first.c, again.c)
    assert np.array_equal(first.omega, again.omega)


def test_gen_sr_full_observation():
    inst = gen_sr(16, 3, 1.0, 1.0, 5)
    assert np.array_equal(inst.omega, np.arange(16))


def test_sr_instance_derived_quantities():
    inst = gen_sr(24, 5, 2.0, 0.8, 6)
    assert inst.m_avg == pytest.approx(np.mean(np.abs(inst.c)), rel=1e-14)


def test_sr_lifted_ground_truth_is_cone_feasible():
    # the lifted matrix built from the generated spikes must be PSD,
    # otherwise the instance would not admit its own ground truth
    inst = gen_sr(32, 6, 2.0, 0.8, 3)
    vand = np.exp(-2j * np.pi * np.outer(np.arange(32), inst.taus))
    lift = np.zeros((33, 33), dtype=complex)
    lift[:32, :32] = toeplitz_map(vand @ np.abs(inst.c))
    lift[:32, 32] = inst.x_star
    lift[32, :32] = inst.x_star.conj()
    lift[32, 32] = np.sum(np.abs(inst.c))
    assert np.linalg.eigvalsh(lift).min() >= -1e-8


def test_gen_sr_validation():
    with pytest.raises(ValueError):
        gen_sr(10, 3, 2.0, 0.0, 0)
    with pytest.raises(ValueError):
        gen_sr(10, 3, 2.0, 1.5, 0)
    with pytest.raises(ValueError):
        gen_sr(10, 11, 2.0, 0.8, 0)
    with pytest.raises(ValueError):
        gen_sr(10, 3, 0.0, 0.8, 0)
    # round(0.01 * 12) = 0 samples observed; round(0.05 * 12) = 1
    with pytest.raises(ValueError, match="observes none"):
        gen_sr(12, 3, 2.0, 0.01, 5)
    assert gen_sr(12, 3, 2.0, 0.05, 5).omega.size == 1


def test_gen_sr_gives_up_when_separation_is_impossible():
    # ten spikes on the circle with gaps of at least 1/10 would need every
    # gap to be exactly 1/10, which rounding may undo, so none is drawn
    with pytest.raises(RuntimeError, match="separated spike locations"):
        gen_sr(10, 10, 1.0, 0.8, 0)
    assert gen_sr(1, 1, 1.0, 0.8, 0).taus.shape == (1,)


def test_save_load_bqp_roundtrip(tmp_path):
    inst = gen_bqp(8, 11, 0.4, 1.2, 9)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert isinstance(back, BqpInstance)
    assert np.array_equal(back.a, inst.a)
    assert np.array_equal(back.b, inst.b)
    assert np.array_equal(back.g_f, inst.g_f)
    assert back.a.dtype == inst.a.dtype
    assert (back.seed, back.sigma_a, back.sigma_b) == (9, 0.4, 1.2)
    assert back.shape == inst.shape


def test_save_load_sr_roundtrip(tmp_path):
    inst = gen_sr(18, 4, 2.0, 0.75, 11)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert isinstance(back, SrInstance)
    for field in ("taus", "c", "x_star", "omega", "g_f"):
        assert np.array_equal(getattr(back, field), getattr(inst, field))
    assert back.x_star.dtype == np.complex128
    assert back.omega.dtype.kind == "i"
    assert (back.n, back.k, back.sigma, back.obs_frac, back.seed) == (18, 4, 2.0, 0.75, 11)


def test_load_rejects_foreign_documents(tmp_path):
    inst = gen_bqp(4, 5, 0.3, 1.0, 1)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    doc = json.loads(path.read_text())

    doc_bad_schema = dict(doc, schema="something-else")
    bad1 = tmp_path / "bad1.json"
    bad1.write_text(json.dumps(doc_bad_schema))
    with pytest.raises(ValueError, match="schema"):
        load_instance(bad1)

    doc_bad_kind = dict(doc, kind="qap")
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(doc_bad_kind))
    with pytest.raises(ValueError, match="kind"):
        load_instance(bad2)


@pytest.mark.parametrize("key, data, match", [
    ("omega", {"shape": [2], "dtype": "int", "data": [0, 9]}, "omega"),
    ("omega", {"shape": [2], "dtype": "float", "data": [0.0, 1.0]}, "omega"),
    ("x_star", {"shape": [8], "dtype": "float", "data": [0.0] * 8}, "shape"),
    ("c", {"shape": [3], "dtype": "float", "data": [1.0, float("inf"), 0.0]}, "non-finite"),
    ("n", 0, "positive integers"),
])
def test_load_rejects_inconsistent_sr_documents(tmp_path, key, data, match):
    path = tmp_path / "inst.json"
    save_instance(gen_sr(9, 3, 2.0, 0.8, 4), path)
    doc = json.loads(path.read_text())
    doc[key] = data
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        load_instance(path)


@pytest.mark.parametrize("make", [partial(gen_bqp, 6, 8, 0.05, 1.0),
                                  partial(gen_bqp, 40, 50, 0.05, 1.0),
                                  partial(gen_sr, 12, 3, 2.0, 0.8),
                                  partial(gen_sr, 50, 10, 2.0, 0.8),
                                  partial(gen_sr, 50, 25, 2.0, 0.8)],
                         ids=["bqp-6-8", "bqp-40-50", "sr-12-3", "sr-50-10", "sr-50-25"])
def test_every_generated_instance_passes_the_load_check(tmp_path, make):
    # load recomputes g_f (and SR's x_star) from the other data and refuses a
    # stored array off by more than 1e-12, and SR spikes closer than 1/n; what
    # gen writes must pass, bit for bit, also spikes drawn by gap sampling
    # (50/25), whose gaps lie near 1/n
    for seed in range(10):
        inst = make(seed=seed)
        path = tmp_path / f"{seed}.json"
        save_instance(inst, path)
        back = load_instance(path)
        for field in dataclasses.fields(inst):
            mine, theirs = getattr(inst, field.name), getattr(back, field.name)
            if isinstance(mine, np.ndarray):
                assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
                assert mine.tobytes() == theirs.tobytes(), (seed, field.name)
            else:
                assert mine == theirs, (seed, field.name)


def test_save_rejects_unknown_objects(tmp_path):
    with pytest.raises(TypeError):
        save_instance({"n": 3}, tmp_path / "x.json")


def test_build_prox_pair_wiring():
    bqp = gen_bqp(6, 8, 0.2, 1.0, 5)
    pair = build_prox_pair(bqp)
    assert pair.constraint == "diag-ones"
    assert pair.dim == 7
    assert not pair.is_complex
    assert pair.g_prox is prox_psd_indicator
    assert np.array_equal(pair.g_f, bqp.g_f)
    v = np.random.default_rng(1).standard_normal((7, 7))
    out = pair.f_prox(Identity(), (v + v.T) / 2)
    assert np.allclose(np.diag(out), 1.0, rtol=0, atol=1e-12)

    sr = gen_sr(12, 3, 1.0, 0.8, 5)
    pair = build_prox_pair(sr)
    assert pair.constraint == "fixed-toeplitz"
    assert pair.dim == 13
    assert pair.is_complex
    assert pair.g_prox is prox_psd_indicator
    w = pair.zeros()
    out = pair.f_prox(Identity(), w)
    assert np.allclose(out[sr.omega, 12], sr.x_star[sr.omega], rtol=0, atol=1e-12)

    with pytest.raises(TypeError):
        build_prox_pair(object())


@pytest.mark.parametrize("param", [Identity(), Scalar(0.7), "hadamard"])
def test_prox_pair_f_prox_matches_the_linear_proxes_bit_for_bit(param):
    # the pair computes its gram term once per parameter, cast to the iterate
    # dtype; every call, the first and the ones served the kept term, must give
    # the bits of the plain linear-term prox
    bqp, sr = gen_bqp(6, 8, 0.2, 1.0, 5), gen_sr(12, 3, 1.0, 0.8, 5)
    observed = FixedEntrySet(sr.omega, sr.x_star[sr.omega])
    rng = np.random.default_rng(3)
    for inst, plain, complex_field in (
            (bqp, partial(prox_linear_diag1, bqp.g_f), False),
            (sr, partial(prox_linear_sr, sr.g_f, observed), True)):
        pair = build_prox_pair(inst)
        p = SdpHadamard(0.4, 2.0, inst.shape) if param == "hadamard" else param
        assert not pair.g_f.flags.writeable
        for _ in range(3):
            v = random_hermitian(pair.dim, rng, complex_field=complex_field)
            got, want = pair.f_prox(p, v), plain(p, v)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("protocol", [4, 5])
def test_an_unpickled_prox_pair_solves_bit_for_bit(protocol):
    # worker processes get their pair by pickle: the copy leaves the kept gram
    # terms behind, keeps its g_f read-only and runs the same iterations
    stop = StopRule(max_iters=300, opt_eps=1e-9)
    for inst in (gen_bqp(6, 8, 0.05, 1.0, 5), gen_sr(12, 3, 2.0, 0.8, 5)):
        pair = build_prox_pair(inst)
        params = (Identity(), SdpHadamard(0.4, 2.0, inst.shape))
        runs = [run_drs(pair, p, pair.zeros(), stop) for p in params]
        copy = pickle.loads(pickle.dumps(pair, protocol=protocol))
        assert not copy.g_f.flags.writeable and copy.f_prox.args[0].g is copy.g_f
        assert len(copy.f_prox.args[0].terms) == 0
        for p, (state, trace) in zip(params, runs):
            state_c, trace_c = run_drs(copy, p, copy.zeros(), stop)
            assert trace_c.fp_residual_sq == trace.fp_residual_sq
            assert trace_c.opt_residual == trace.opt_residual
            assert state_c.x.tobytes() == state.x.tobytes()


def test_reference_solve_small_instance():
    inst = gen_bqp(6, 8, 0.2, 1.0, 5)
    pair = build_prox_pair(inst)
    param = bqp_estimate(inst.a, inst.b, inst.n)
    ref = reference_solve(pair, param, opt_eps=1e-10)
    assert ref.converged
    assert ref.residual <= 1e-10
    assert ref.param_config == param.to_config()
    # primal: unit diagonal and cone feasible
    assert np.allclose(np.diag(ref.x_ref), 1.0, rtol=0, atol=1e-8)
    assert np.linalg.eigvalsh(ref.x_ref).min() >= -1e-8
    # dual: exactly cone feasible by construction, orthogonal to the primal
    assert np.linalg.eigvalsh(ref.lam_ref).max() <= 1e-12
    scale = np.linalg.norm(ref.x_ref) * np.linalg.norm(ref.lam_ref)
    assert abs(float(np.vdot(ref.x_ref, ref.lam_ref).real)) <= 1e-6 * scale


def test_reference_solve_reports_hitting_the_cap():
    inst = gen_bqp(6, 8, 0.2, 1.0, 5)
    pair = build_prox_pair(inst)
    ref = reference_solve(pair, Identity(), opt_eps=1e-12, max_iters=5)
    assert not ref.converged
    assert ref.iterations == 5
    assert ref.residual > 1e-12


def test_bqp_multipliers_recover_diagonal_structure():
    inst = gen_bqp(6, 8, 0.2, 1.0, 5)
    pair = build_prox_pair(inst)
    ref = reference_solve(pair, bqp_estimate(inst.a, inst.b, inst.n), opt_eps=1e-10)
    mu = bqp_multipliers(ref.lam_ref, inst.g_f)
    assert mu.shape == (7,)
    # the dual is a diagonal shift of the negated objective matrix
    resid = ref.lam_ref + inst.g_f - np.diag(mu)
    assert np.abs(resid).max() <= 1e-7
    # multipliers absorb the whole objective value on the primal solution
    assert np.sum(mu) == pytest.approx(float(np.vdot(ref.x_ref, inst.g_f).real), rel=1e-6)


def small_instance(app, seed):
    """Instance, pair and a-priori joint parameter of BQP n=12/k=16 or SR n=16/k=3."""
    inst = gen_bqp(12, 16, 0.05, 1.0, seed) if app == "bqp" else gen_sr(16, 3, 2.0, 0.8, seed)
    return inst, build_prox_pair(inst), estimate_param(inst)


def small_protocol(app, seed):
    """Pair, converged reference and protocol rows of BQP n=12/k=16 or SR n=16/k=3."""
    inst, pair, estimate = small_instance(app, seed)
    ref = reference_solve(pair, estimate)
    assert ref.converged, (app, seed)
    return pair, ref, protocol_params(inst, SolutionPair(ref.x_ref, ref.lam_ref, shape=inst.shape))


def protocol_stop(ref, cap=100_000):
    """The protocol's stop: the first MSE <= 1e-6, no optimality shortcut."""
    return StopRule(max_iters=cap, opt_eps=None, mse_eps=1e-6, reference=ref.x_ref)


def plain_reference(pair, param):
    """The oracle: plain DRS from zero to ``reference_solve``'s defaults, and its dual.

    Returns ``(x, lam, trace)``, the dual read off the final governing
    iterate as ``reference_solve`` reads it.
    """
    state, trace = run_drs(pair, param, pair.zeros(), StopRule(max_iters=200_000, opt_eps=1e-10))
    lam = param.adjoint(state.psi - param.apply(pair.g_prox(param, state.psi)))
    return state.x, lam, trace


def relative_gap(a, b):
    """Frobenius distance of ``a`` from ``b``, relative to ``b``."""
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("app", ["bqp", "sr"])
def test_the_accelerated_reference_is_plain_drs_in_fewer_iterations(app):
    # against plain DRS from zero on seeds 0 to 9: the same x, and the same count
    # in every protocol row measured against each of the two references
    report = []
    for seed in range(10):
        inst, pair, estimate = small_instance(app, seed)
        ref = reference_solve(pair, estimate)
        x_plain, lam_plain, plain = plain_reference(pair, estimate)
        assert plain.converged, (app, seed)
        assert ref.converged and ref.residual <= 1e-10, (app, seed, ref.residual)
        assert ref.iterations < plain.iterations, (app, seed, ref.iterations, plain.iterations)
        assert relative_gap(ref.x_ref, x_plain) <= 1e-9, (app, seed)
        counts = []
        for x, lam in ((ref.x_ref, ref.lam_ref), (x_plain, lam_plain)):
            sol = SolutionPair(x, lam, shape=inst.shape)
            stop = StopRule(max_iters=100_000, opt_eps=None, mse_eps=1e-6, reference=x)
            counts.append({name: run_drs(pair, param, pair.zeros(), stop)[1].iterations
                           for name, param in protocol_params(inst, sol).items()})
        if counts[0] != counts[1]:
            report.append((seed, counts))
    assert report == []


@pytest.mark.parametrize("app", ["bqp", "sr"])
def test_a_sign_flipped_parameter_gives_the_same_reference(app):
    # the flipped runs negate or reflect the governing iterates, Anderson phase
    # included, so the count and the pair do not move. Exact zeros of the flipped
    # iterates can take the other sign; on complex SR iterates of sign -1 the
    # eigensolver's reflections then round differently
    for seed in range(3):
        inst, pair, estimate = small_instance(app, seed)
        ref = reference_solve(pair, estimate)
        for a, b in ((-1, 1), (1, -1), (-1, -1)):
            param = SdpHadamard(a * estimate.alpha, b * estimate.beta, inst.shape)
            flipped = reference_solve(pair, param)
            assert flipped.converged and flipped.iterations == ref.iterations, (seed, a, b)
            for got, want in ((flipped.x_ref, ref.x_ref), (flipped.lam_ref, ref.lam_ref)):
                if app == "bqp" or param.sign > 0:
                    assert np.array_equal(got, want), (seed, a, b)
                else:
                    assert relative_gap(got, want) <= 1e-12, (seed, a, b)


def _singular(solve, args):
    # dposv(uplo, n, nrhs, a, lda, b, ldb, info) on a zero matrix: LAPACK reports info > 0
    n, lda = (ctypes.c_int.from_address(args[i]).value for i in (1, 4))
    ctypes.memset(args[3], 0, 8 * lda * n)
    solve(*args)
    assert ctypes.c_int.from_address(args[7]).value > 0


def _refused(solve, args):
    # what dposv reports for an argument it refuses (info < 0), with nothing solved
    ctypes.c_int.from_address(args[7]).value = -5


def _not_a_number(solve, args):
    solve(*args)
    n = ctypes.c_int.from_address(args[1]).value
    np.ctypeslib.as_array((ctypes.c_double * n).from_address(args[5]))[:] = np.nan


@pytest.mark.parametrize("gram_solve", [_singular, _refused, _not_a_number],
                         ids=["singular", "refused", "nan"])
def test_a_failed_extrapolation_falls_back_to_the_plain_image(monkeypatch, gram_solve):
    # with every extrapolation refused, the accelerated phase is plain DRS bit for
    # bit, and the final plain phase starts at the oracle's last image
    _, pair, estimate = small_instance("bqp", 0)
    x_plain, _, plain = plain_reference(pair, estimate)
    calls, dposv = [], splitting._DPOSV
    monkeypatch.setattr(splitting, "_DPOSV",
                        lambda *args: calls.append(args) or gram_solve(dposv, args))
    ref = reference_solve(pair, estimate)
    assert len(calls) == plain.iterations - 2  # after every point but the first and last
    assert ref.converged and ref.residual <= 1e-10
    assert ref.iterations == plain.iterations + 1
    assert relative_gap(ref.x_ref, x_plain) <= 1e-9



def test_protocol_reference_iteration_counts(bqp_setup, sr_setup):
    # behaviour pins, like the protocol rows' counts: the references of BQP n=40/k=50
    # seed 0 and SR n=50/k=10 seed 2, the benchmark's protocol instances, under the
    # a-priori joint parameter. Plain DRS from zero takes 760 and 620
    assert (bqp_setup[2].iterations, sr_setup[2].iterations) == (142, 216)

#: SR n=50/k=10 draws, protocol size, whose references took 200 to 2400 iterations with
#: an Anderson memory of 20 (16 459 on seed 0 with 10). Seed 7 is left out: its
#: reference runs for about 10^5 iterations under either memory (ROADMAP item 5).
HARD_SR_SEEDS = (0, 1, 2, 3, 4, 5, 6, 8, 9)


def test_sr_references_converge_within_5000_iterations():
    slow = []
    for seed in HARD_SR_SEEDS:
        inst = gen_sr(50, 10, 2.0, 0.8, seed)
        ref = reference_solve(build_prox_pair(inst), estimate_param(inst), max_iters=5000)
        if not (ref.converged and ref.residual <= 1e-10):
            slow.append((seed, ref.iterations, ref.residual))
    assert slow == []


#: Seeds 0 to 9 gave equal counts too, in about 25 s; two keep the test near 5 s.
SOLVER_SEEDS = (0, 1)


@pytest.mark.parametrize("app", ["bqp", "sr"])
def test_protocol_counts_do_not_depend_on_the_tridiagonal_solver(app, monkeypatch):
    # every projection on MRRR, then every one on divide and conquer, whatever
    # the counts pick; the two differ in the last bits, which must move no count
    mismatches = []
    for seed in SOLVER_SEEDS:
        runs = []
        for mrrr in (True, False):
            monkeypatch.setattr(linalg, "_mrrr", lambda n, positive: mrrr)
            pair, ref, params = small_protocol(app, seed)
            traces = {name: run_drs(pair, param, pair.zeros(), protocol_stop(ref))[1]
                      for name, param in params.items()}
            assert all(trace.converged for trace in traces.values()), (app, seed, mrrr)
            runs.append((ref.iterations, traces))
        (ref_mrrr, mrrr), (ref_dc, dc) = runs
        if ref_mrrr != ref_dc:
            mismatches.append((seed, "reference", ref_mrrr, ref_dc))
        for name in mrrr:
            if mrrr[name].iterations != dc[name].iterations:
                # the last two MSE values in units of the threshold show the margin
                mismatches.append((seed, name, mrrr[name].iterations, dc[name].iterations,
                                   [m / 1e-6 for m in mrrr[name].mse[-2:]],
                                   [m / 1e-6 for m in dc[name].mse[-2:]]))
    assert mismatches == []


#: Each joint choice and the rows it must beat, in fewer iterations, on every one of
#: ``WIN_SEEDS``; seeds and rows were fixed before the test first ran.
WINS = {"bqp": {"est-joint": ("identity", "est-alpha", "est-beta"),
                "opt-joint": ("opt-alpha", "opt-beta")},
        "sr": {"est-joint": ("identity", "est-alpha", "est-beta")}}
WIN_SEEDS = range(10)


@pytest.mark.parametrize("app", ["bqp", "sr"])
def test_joint_parameters_win_on_every_seed(app):
    # a loser runs capped at the winner's count and must hit the cap
    losses = []
    for seed in WIN_SEEDS:
        pair, ref, params = small_protocol(app, seed)
        for winner, losers in WINS[app].items():
            won = run_drs(pair, params[winner], pair.zeros(), protocol_stop(ref))[1]
            assert won.converged, (app, seed, winner)
            for loser in losers:
                capped = protocol_stop(ref, cap=won.iterations)
                trace = run_drs(pair, params[loser], pair.zeros(), capped)[1]
                if trace.converged:
                    losses.append((seed, winner, won.iterations, loser, trace.iterations))
    assert losses == []


def test_a_dropped_extrapolation_goes_back_to_the_last_plain_image(monkeypatch):
    # under a safeguard of 0 every extrapolated point is dropped: each third point is
    # an extrapolation, and the others are plain DRS's iterates, bit for bit
    _, pair, estimate = small_instance("bqp", 0)
    x_plain, _, plain = plain_reference(pair, estimate)
    monkeypatch.setattr(splitting, "ANDERSON_SAFEGUARD", 0.0)
    points = splitting.run_drs_anderson(pair, estimate, pair.zeros(),
                                        StopRule(max_iters=30, opt_eps=None))[1]
    assert [r for k, r in enumerate(points.opt_residual) if k % 3 != 2] == \
        plain.opt_residual[:20].tolist()
    ref = reference_solve(pair, estimate)
    assert ref.converged and ref.residual <= 1e-10
    assert relative_gap(ref.x_ref, x_plain) <= 1e-9


#: Factors of the a-priori (alpha, beta) at which the accelerated reference raised
#: ``DivergenceError`` on seed 0, 1 or 2 before its step was bounded, all within 100
#: iterations, and factors at which plain DRS converges within 1000. The whole grid,
#: alpha x 1/30 to 30 and beta x 1/10 to 10 to 5000 iterations, takes minutes.
REACH_GRID = {"bqp": ((30, 0.1), (30, 1), (1 / 30, 10), (1, 1)),
              "sr": ((1 / 30, 0.1), (1 / 30, 1), (1 / 30, 10), (0.1, 0.1), (0.1, 1), (30, 1),
                     (1, 1), (3, 1))}


@pytest.mark.parametrize("app", ["bqp", "sr"])
def test_the_accelerated_reference_never_raises_where_plain_drs_is_bounded(app):
    # plain DRS is nonexpansive, so it cannot diverge; the accelerated reference, capped
    # like it, must return, and agree with it wherever both converge
    both, gaps = 0, []
    for seed in range(3):
        inst, pair, estimate = small_instance(app, seed)
        for a, b in REACH_GRID[app]:
            param = SdpHadamard(a * estimate.alpha, b * estimate.beta, inst.shape)
            ref = reference_solve(pair, param, max_iters=1000)
            state, plain = run_drs(pair, param, pair.zeros(),
                                   StopRule(max_iters=1000, opt_eps=1e-10))
            if ref.converged and plain.converged:
                both += 1
                if relative_gap(ref.x_ref, state.x) > 1e-9:
                    gaps.append((seed, a, b, relative_gap(ref.x_ref, state.x)))
    assert gaps == []
    assert both >= 3


@pytest.mark.parametrize("app", ["bqp", "sr"])
def test_drs_images_are_exactly_hermitian(app, monkeypatch):
    # run_drs_anderson keeps only the Hermitian half of each image: every point and
    # image of a reference solve, both phases, must equal its conjugate transpose
    drs_map, seen = splitting._drs_map, []

    def checking_map(pair, param, psi):
        x, z, sz, image = drs_map(pair, param, psi)
        seen.append(np.array_equal(psi, psi.conj().T) and np.array_equal(image, image.conj().T))
        return x, z, sz, image

    monkeypatch.setattr(splitting, "_drs_map", checking_map)
    for seed in range(10):
        _, pair, estimate = small_instance(app, seed)
        assert reference_solve(pair, estimate).converged
    assert len(seen) > 500 and all(seen)
