"""Instance generators, serialization and high-precision references."""

import json
import pickle
from functools import partial

import numpy as np
import pytest

from proxsplit.linalg import frob_inner, random_hermitian, toeplitz_map
from proxsplit.params import BlockShape, Identity, Scalar, SdpHadamard
from proxsplit.prox import FixedEntrySet, prox_linear_diag1, prox_linear_sr
from proxsplit.splitting import StopRule, run_drs
from proxsplit.tuning import bqp_estimate
from proxsplit.problems import (
    BqpInstance,
    SrInstance,
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


def test_gen_sr_gives_up_when_separation_is_impossible():
    # ten spikes on the circle with gaps of at least 1/10 would need every
    # gap to be exactly 1/10, which random draws never hit
    with pytest.raises(RuntimeError):
        gen_sr(10, 10, 1.0, 0.8, 0, max_tries=200)


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


def test_save_rejects_unknown_objects(tmp_path):
    with pytest.raises(TypeError):
        save_instance({"n": 3}, tmp_path / "x.json")


def test_build_prox_pair_wiring():
    bqp = gen_bqp(6, 8, 0.2, 1.0, 5)
    pair = build_prox_pair(bqp)
    assert pair.constraint == "diag-ones"
    assert pair.dim == 7
    assert not pair.is_complex
    assert np.array_equal(pair.g_f, bqp.g_f)
    v = np.random.default_rng(1).standard_normal((7, 7))
    out = pair.f_prox(Identity(), (v + v.T) / 2)
    assert np.allclose(np.diag(out), 1.0, rtol=0, atol=1e-12)

    sr = gen_sr(12, 3, 1.0, 0.8, 5)
    pair = build_prox_pair(sr)
    assert pair.constraint == "fixed-toeplitz"
    assert pair.dim == 13
    assert pair.is_complex
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
    assert abs(frob_inner(ref.x_ref, ref.lam_ref)) <= 1e-6 * scale


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
    assert np.sum(mu) == pytest.approx(frob_inner(ref.x_ref, inst.g_f), rel=1e-6)
