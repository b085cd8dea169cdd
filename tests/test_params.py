import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxsplit.linalg import random_hermitian
from proxsplit.params import (
    AdjointInverse,
    BlockShape,
    Identity,
    Scalar,
    SdpHadamard,
    definiteness_invariant_check,
)
from proxsplit.problems import build_prox_pair, gen_bqp
from proxsplit.splitting import StopRule, run_drs

RNG = np.random.default_rng(88)

positive = st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False)


def all_params(n=4, k=1):
    shape = BlockShape(n, k)
    return [
        Identity(),
        Scalar(0.7),
        SdpHadamard(0.4, 2.5, shape),
        Scalar(-0.7),
        SdpHadamard(-0.4, 2.5, shape),
        SdpHadamard(0.4, -2.5, shape),
    ]


def test_block_shape_size():
    assert BlockShape(5, 2).size == 7


@pytest.mark.parametrize("n, k", [(0, 1), (1, 0)])
def test_block_shape_refuses_an_empty_block(n, k):
    with pytest.raises(ValueError, match="block sizes must be positive"):
        BlockShape(n, k)


def test_scalar_config_names_its_weight():
    assert Scalar(2).to_config() == {"kind": "scalar", "alpha": 2.0}


@pytest.mark.parametrize("param", all_params())
def test_apply_inverse_round_trip(param):
    x = random_hermitian(5, RNG, complex_field=True)
    np.testing.assert_allclose(param.inverse(param.apply(x)), x, atol=1e-12)
    np.testing.assert_allclose(param.apply(param.inverse(x)), x, atol=1e-12)
    np.testing.assert_allclose(param.adjoint_inverse(param.adjoint(x)), x, atol=1e-12)


@pytest.mark.parametrize("param", all_params())
def test_entrywise_params_are_self_adjoint(param):
    a = random_hermitian(5, RNG, complex_field=True)
    b = random_hermitian(5, RNG, complex_field=True)
    assert float(np.vdot(param.apply(a), b).real) == pytest.approx(
        float(np.vdot(a, param.adjoint(b)).real), rel=1e-10)


def hadamard_grid(alpha, beta, n, k):
    """The documented weight grid of ``SdpHadamard(alpha, beta, BlockShape(n, k))``."""
    w = np.full((n + k, n + k), alpha)
    w[:n, :n] = alpha / beta
    w[n:, n:] = alpha * beta
    return w


def test_sdp_hadamard_inverse_is_bitwise_the_quotient():
    # complex input takes a multiplication by the reciprocal grid, which must
    # give the quotient's bits; real input must keep dividing
    rng = np.random.default_rng(17)
    for trial in range(40):
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        alpha, beta = 10.0 ** rng.uniform(-3, 3, size=2)
        p, w = SdpHadamard(alpha, beta, BlockShape(n, k)), hadamard_grid(alpha, beta, n, k)
        v = random_hermitian(n + k, rng, complex_field=True, scale=10.0 ** rng.uniform(-200, 200))
        v[rng.random(v.shape) < 0.1] = 0.0
        v = 0.5 * (v + v.conj().T)
        assert p.inverse(v).tobytes() == (v / w).tobytes()
        r = v.real.copy()
        assert p.inverse(r).tobytes() == (r / w).tobytes()
        assert p.gram_inverse(r).tobytes() == (r / w / w).tobytes()
    # the real case is not a multiplication by the reciprocal
    r = np.random.default_rng(3).standard_normal((4, 4))
    w = hadamard_grid(0.3, 1.7, 3, 1)
    assert not np.array_equal(r * (1.0 / w), r / w)
    assert np.array_equal(SdpHadamard(0.3, 1.7, BlockShape(3, 1)).inverse(r), r / w)


def test_sdp_hadamard_apply_is_bitwise_the_real_grid_product():
    # complex input takes a multiplication by a complex copy of the grid, which must
    # give the bits of the product with the real grid: signed zeros, infinite and
    # non-Hermitian input included
    rng = np.random.default_rng(19)
    for trial in range(40):
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        alpha, beta = 10.0 ** rng.uniform(-3, 3, size=2) * rng.choice([-1.0, 1.0], size=2)
        p, w = SdpHadamard(alpha, beta, BlockShape(n, k)), hadamard_grid(alpha, beta, n, k)
        v = (rng.standard_normal((n + k, n + k)) + 1j * rng.standard_normal((n + k, n + k))) \
            * 10.0 ** rng.uniform(-200, 200)
        parts = v.view(np.float64)
        parts[rng.random(parts.shape) < 0.1] = 0.0
        parts[rng.random(parts.shape) < 0.1] = -0.0
        parts[rng.random(parts.shape) < 0.02] = np.inf
        with np.errstate(invalid="ignore"):  # 0 * inf in a complex product
            for action in (p.apply, p.adjoint):
                assert action(v).tobytes() == (w * v).tobytes()
            assert p.apply(v.real).tobytes() == (w * v.real).tobytes()


def test_a_real_solve_makes_no_complex_form_of_its_parameter():
    # a sweep sends each cell's parameter to a worker process, with whatever it has made
    pair = build_prox_pair(gen_bqp(6, 8, 0.05, 1.0, 5))
    p = SdpHadamard(0.7, 2.0, BlockShape(6, 1))
    run_drs(pair, p, pair.zeros(), StopRule(max_iters=20, opt_eps=None))
    assert "_complex_forms" not in vars(p)
    size = len(pickle.dumps(p))
    p.inverse(p.apply(pair.zeros().astype(complex)))
    assert "_complex_forms" in vars(p) and len(pickle.dumps(p)) > 2 * size


@pytest.mark.parametrize("param", all_params())
def test_gram_inverse_is_double_inverse(param):
    x = random_hermitian(5, RNG, complex_field=True)
    np.testing.assert_allclose(param.gram_inverse(x),
                               param.inverse(param.adjoint_inverse(x)), atol=1e-12)


def test_hadamard_weight_grid_frozen_example():
    # alpha=2, beta=4 on a 2+1 block grid: top-left alpha/beta, cross alpha,
    # corner alpha*beta.
    p = SdpHadamard(2.0, 4.0, BlockShape(2, 1))
    expected = np.array([[0.5, 0.5, 2.0], [0.5, 0.5, 2.0], [2.0, 2.0, 8.0]])
    np.testing.assert_allclose(p.apply(np.ones((3, 3))), expected, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(positive, positive)
def test_hadamard_is_a_congruence(alpha, beta):
    # The block weighting equals D X D for a positive diagonal D, which is
    # why it cannot change any eigenvalue sign.
    shape = BlockShape(3, 1)
    p = SdpHadamard(alpha, beta, shape)
    d = np.diag([np.sqrt(alpha / beta)] * 3 + [np.sqrt(alpha * beta)])
    x = random_hermitian(4, np.random.default_rng(11), complex_field=True)
    np.testing.assert_allclose(p.apply(x), d @ x @ d, rtol=1e-12, atol=1e-12)


def test_hadamard_shape_checked():
    p = SdpHadamard(1.0, 2.0, BlockShape(3, 1))
    with pytest.raises(ValueError):
        p.apply(np.zeros((3, 3)))
    # the last five: alpha/beta, alpha or alpha*beta, or a reciprocal, is 0 or inf
    for alpha, beta in ((0.0, 1.0), (np.nan, 1.0), (1.0, np.nan),
                        (np.inf, 1.0), (1.0, np.inf), (1e-200, 1e-200), (1e200, 1e200),
                        (1e200, 1e-200), (1e-200, 1e200), (1e-310, 1.0)):
        with pytest.raises(ValueError):
            SdpHadamard(alpha, beta, BlockShape(3, 1))
    # a sign is no refusal: the grid's sign on its diagonal is that of alpha*beta
    for alpha, beta, sign in ((1.0, -2.0, -1), (-1.0, 2.0, -1), (-1.0, -2.0, 1),
                              (-1e-150, 1e-150, -1)):
        assert SdpHadamard(alpha, beta, BlockShape(3, 1)).sign == sign


def test_hadamard_accepts_extreme_weights_it_can_hold():
    p = SdpHadamard(1e-150, 1e-150, BlockShape(3, 1))  # smallest weight 1e-300
    ones = np.ones((4, 4))
    assert np.isfinite(p.apply(ones)).all() and np.isfinite(p.inverse(ones)).all()


def test_definiteness_invariance_check_accepts_hadamard():
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = SdpHadamard(float(rng.uniform(0.05, 20.0)),
                        float(rng.uniform(0.05, 20.0)), BlockShape(4, 1))
        rep = definiteness_invariant_check(p, trials=200, seed=int(rng.integers(1 << 30)))
        assert rep.passed and rep.failures == 0


def test_definiteness_check_refuses_other_parameters():
    for param in (Identity(), Scalar(2.0)):
        with pytest.raises(ValueError):
            definiteness_invariant_check(param)


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("signs", [(-1, 1), (1, -1), (-1, -1)], ids=["-a,b", "a,-b", "-a,-b"])
def test_definiteness_check_accepts_sign_flipped_hadamard(signs, complex_field):
    # a congruence of sign -1 swaps the counts of positive and negative eigenvalues
    rng = np.random.default_rng(6)
    for _ in range(5):
        alpha, beta = np.array(signs) * rng.uniform(0.05, 20.0, size=2)
        p = SdpHadamard(alpha, beta, BlockShape(4, 1))
        assert p.sign == signs[0] * signs[1]
        rep = definiteness_invariant_check(p, trials=200, seed=int(rng.integers(1 << 30)),
                                           complex_field=complex_field)
        assert rep.passed and rep.failures == 0


class _NonCongruence(SdpHadamard):
    """Weights ``[[1, 3], [3, 1]]``: no congruence, so they change some inertias."""

    def apply(self, v):
        return np.array([[1.0, 3.0], [3.0, 1.0]]) * v


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("seed", range(10))
def test_inertia_check_flags_non_congruence_weights(seed, complex_field):
    rep = definiteness_invariant_check(_NonCongruence(1.0, 1.0, BlockShape(1, 1)), trials=200,
                                       seed=seed, complex_field=complex_field)
    assert not rep.passed
    assert rep.failures > 0
    assert rep.counterexample is not None


def test_scalar_sign_tracks_its_weight():
    assert Scalar(2.0).sign == 1 and Identity().sign == 1
    assert Scalar(-2.0).sign == -1
    for alpha in (0.0, np.nan, np.inf, -np.inf, 1e-310, -1e-310):  # 1 / 1e-310 overflows
        with pytest.raises(ValueError):
            Scalar(alpha)


def test_fields_are_read_only_also_in_a_pickled_copy():
    for p in all_params():
        for q in (p, pickle.loads(pickle.dumps(p))):
            with pytest.raises(AttributeError):
                q.sign = 1
            with pytest.raises(AttributeError):
                del q.grid
            if np.ndim(q.grid):
                assert not q.grid.flags.writeable
    with pytest.raises(AttributeError):
        SdpHadamard(1.0, 2.0, BlockShape(3, 1)).alpha = 3.0


def test_adjoint_inverse_view_swaps_roles():
    p = SdpHadamard(0.5, 3.0, BlockShape(2, 1))
    view = AdjointInverse(p)
    x = random_hermitian(3, RNG, complex_field=True)
    np.testing.assert_allclose(view.apply(x), p.adjoint_inverse(x), atol=1e-14)
    np.testing.assert_allclose(view.inverse(x), p.adjoint(x), atol=1e-14)
    np.testing.assert_allclose(view.adjoint(x), p.inverse(x), atol=1e-14)
    np.testing.assert_allclose(view.adjoint_inverse(x), p.apply(x), atol=1e-14)
