"""Step-parameter selection against brute-force grid oracles.

Every closed-form choice is checked against an independent minimization of
the squared start distance it claims to optimize, written out from scratch
here rather than reusing the library's objective helpers.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxsplit.linalg import random_hermitian
from proxsplit.params import BlockShape, Identity, Scalar, SdpHadamard
from proxsplit.tuning import (
    GridSpec,
    SolutionPair,
    acceleration_gain,
    block_sq_norms,
    bqp_estimate,
    bqp_regime,
    bqp_separate_estimates,
    joint_objective,
    optimal_diagonal,
    optimal_scalar,
    sdp_joint_search,
    sdp_separate_choices,
    sr_estimate,
)


def random_pair(n=5, seed=0, complex_field=False):
    rng = np.random.default_rng(seed)
    shape = BlockShape(n - 1, 1)
    x = random_hermitian(n, rng, complex_field=complex_field)
    lam = random_hermitian(n, rng, complex_field=complex_field)
    return SolutionPair(x, lam, shape=shape)


def scalar_energy(alpha, x, lam):
    """Independent objective: squared start distance for a scalar weight."""
    return (alpha ** 2 * np.linalg.norm(x) ** 2
            + np.linalg.norm(lam) ** 2 / alpha ** 2)


def split_energy(param, pair):
    """Independent objective: ||S x*||^2 + ||S^{-*} lam*||^2 for a parameter S."""
    return (np.linalg.norm(param.apply(pair.x_star)) ** 2
            + np.linalg.norm(param.adjoint_inverse(pair.lam_star)) ** 2)


def test_solution_pair_shape_mismatch_raises():
    with pytest.raises(ValueError):
        SolutionPair(np.ones((2, 2)), np.ones((3, 3)))


def test_block_selection_needs_a_block_partition():
    pair = random_pair()
    with pytest.raises(ValueError, match="block selection needs a block partition"):
        sdp_separate_choices(SolutionPair(pair.x_star, pair.lam_star))


def test_optimal_scalar_beats_dense_grid():
    pair = random_pair(seed=5)
    a_star = optimal_scalar(pair)
    f_star = scalar_energy(a_star, pair.x_star, pair.lam_star)
    grid = np.logspace(-3, 3, 6001)
    f_grid = np.array([scalar_energy(a, pair.x_star, pair.lam_star) for a in grid])
    assert f_star <= f_grid.min() * (1 + 1e-12)
    # the grid argmin should sit within one log-step of the closed form
    assert abs(math.log(grid[f_grid.argmin()]) - math.log(a_star)) <= math.log(grid[1] / grid[0]) + 1e-12


def test_optimal_scalar_rejects_zero_solutions():
    z = np.zeros((3, 3))
    x = random_hermitian(3, np.random.default_rng(1))
    with pytest.raises(ValueError):
        optimal_scalar(SolutionPair(z, x))
    with pytest.raises(ValueError):
        optimal_scalar(SolutionPair(x, z))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_optimal_scalar_grid_dominance_property(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(6)
    lam = rng.standard_normal(6)
    pair = SolutionPair(x, lam)
    a_star = optimal_scalar(pair)
    f_star = scalar_energy(a_star, x, lam)
    for a in np.exp(rng.uniform(-5, 5, size=50)):
        assert f_star <= scalar_energy(a, x, lam) * (1 + 1e-12)


def test_optimal_diagonal_minimizes_each_coordinate():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(8)
    lam = rng.standard_normal(8)
    d = optimal_diagonal(SolutionPair(x, lam))
    grid = np.logspace(-8, 8, 4001)
    for i in range(8):
        per_coord = grid * x[i] ** 2 + lam[i] ** 2 / grid
        f_i = d[i] * x[i] ** 2 + lam[i] ** 2 / d[i]
        assert f_i <= per_coord.min() * (1 + 1e-12)


def test_optimal_diagonal_degenerate_conventions():
    x = np.array([0.0, 0.0, 2.0, 1e-12])
    lam = np.array([0.0, 3.0, 0.0, 1.0])
    d = optimal_diagonal(SolutionPair(x, lam), d_max=1e6)
    assert d[0] == 1.0          # both vanish: choice is arbitrary
    assert d[1] == 1e6          # zero primal: push energy up to the cap
    assert d[2] == 1e-6         # zero dual: ratio clips at the floor
    assert d[3] == 1e6          # huge ratio clips at the cap


def test_block_sq_norms_against_slices():
    shape = BlockShape(3, 1)
    m = random_hermitian(4, np.random.default_rng(7), complex_field=True)
    lead, corner, trail = block_sq_norms(m, shape)
    assert lead == pytest.approx(np.linalg.norm(m[:3, :3]) ** 2, rel=1e-12)
    assert corner == pytest.approx(np.linalg.norm(m[:3, 3:]) ** 2, rel=1e-12)
    assert trail == pytest.approx(np.linalg.norm(m[3:, 3:]) ** 2, rel=1e-12)
    # a hermitian matrix has equal upper and lower corner energies
    total = lead + 2 * corner + trail
    assert total == pytest.approx(np.linalg.norm(m) ** 2, rel=1e-12)


def test_block_sq_norms_rejects_wrong_size():
    with pytest.raises(ValueError):
        block_sq_norms(np.ones((3, 3)), BlockShape(3, 1))


def test_joint_objective_equals_parameter_objective():
    pair = random_pair(n=6, seed=8, complex_field=True)
    for alpha, beta in [(0.3, 0.9), (1.0, 1.0), (2.5, 0.4), (7.0, 3.0)]:
        param = SdpHadamard(alpha, beta, pair.shape)
        assert joint_objective(alpha, beta, pair) == pytest.approx(
            split_energy(param, pair), rel=1e-12)


def test_separate_choices_minimize_their_axes():
    pair = random_pair(n=7, seed=9)
    alpha_t, beta_t = sdp_separate_choices(pair)
    grid = np.logspace(-4, 4, 8001)
    # alpha choice scans the scalar axis (beta pinned at 1)
    f_alpha = joint_objective(grid, 1.0, pair)
    assert joint_objective(alpha_t, 1.0, pair) <= f_alpha.min() * (1 + 1e-12)
    # beta choice scans the weighting axis (alpha pinned at 1)
    f_beta = joint_objective(1.0, grid, pair)
    assert joint_objective(1.0, beta_t, pair) <= f_beta.min() * (1 + 1e-12)


def test_separate_alpha_agrees_with_scalar_choice():
    pair = random_pair(n=5, seed=10)
    alpha_t, _ = sdp_separate_choices(pair)
    assert alpha_t == pytest.approx(optimal_scalar(pair), rel=1e-12)


def test_joint_search_beats_brute_force_mesh():
    pair = random_pair(n=6, seed=12)
    alpha, beta = sdp_joint_search(pair, GridSpec(1e-3, 1e3, 200))
    vals = np.logspace(-3, 3, 400)
    ga, gb = np.meshgrid(vals, vals, indexing="ij")
    brute = joint_objective(ga, gb, pair).min()
    assert joint_objective(alpha, beta, pair) <= brute * (1 + 1e-9)


def test_joint_search_is_locally_stationary():
    pair = random_pair(n=5, seed=13)
    alpha, beta = sdp_joint_search(pair)
    f0 = joint_objective(alpha, beta, pair)
    # alternating refinement leaves slack well below the grid resolution
    for bump in (1 + 1e-4, 1 - 1e-4):
        assert joint_objective(alpha * bump, beta, pair) >= f0 * (1 - 1e-6)
        assert joint_objective(alpha, beta * bump, pair) >= f0 * (1 - 1e-6)


@pytest.mark.parametrize("zeroed", ["x_star", "lam_star"])
def test_joint_search_rejects_a_zero_solution(zeroed):
    # a zero side makes a coordinate step's fourth power 0 or infinite
    pair = random_pair(n=5, seed=15)
    parts = {"x_star": pair.x_star, "lam_star": pair.lam_star}
    parts[zeroed] = np.zeros_like(parts[zeroed])
    with pytest.raises(ValueError, match="degenerate block energies"):
        sdp_joint_search(SolutionPair(**parts, shape=pair.shape))


def test_acceleration_gain_identity_is_one():
    pair = random_pair(seed=14)
    report = acceleration_gain(Identity(), pair)
    assert report.xi == pytest.approx(1.0, rel=1e-12)
    assert report.numerator == pytest.approx(report.denominator, rel=1e-12)


def test_acceleration_gain_matches_objective_ratio_when_orthogonal():
    # complementary solutions (zero inner product) make the cross term vanish,
    # so the gain reduces to the ratio of the separated objectives
    n = 4
    x = np.zeros((n, n))
    lam = np.zeros((n, n))
    x[0, 0] = 2.0
    x[0, 1] = x[1, 0] = 0.5
    x[1, 1] = 1.0
    lam[2, 2] = -3.0
    lam[3, 3] = -1.0
    lam[2, 3] = lam[3, 2] = -0.25
    assert float(np.vdot(x, lam).real) == 0.0
    pair = SolutionPair(x, lam, shape=BlockShape(n - 1, 1))
    param = SdpHadamard(0.6, 1.8, pair.shape)
    ratio = split_energy(param, pair) / split_energy(Identity(), pair)
    assert acceleration_gain(param, pair).xi == pytest.approx(ratio, rel=1e-12)


def test_acceleration_gain_zero_identity_start_raises():
    x = random_hermitian(3, np.random.default_rng(2))
    pair = SolutionPair(x, -x)
    with pytest.raises(ValueError):
        acceleration_gain(Scalar(2.0), pair)


def test_bqp_regime_small_and_large():
    rng = np.random.default_rng(0)
    n, k = 40, 50
    a = 0.05 * rng.standard_normal((k, n))
    b = rng.standard_normal(k)
    assert bqp_regime(a, b, n) == "small"
    assert bqp_regime(100.0 * a, b, n) == "large"


def test_bqp_regime_exact_tie_counts_as_large():
    # a single row [2, 0, 0, 0] with zero offset gives an objective matrix
    # of norm exactly 4 = n, which the strict inequality puts in 'large'
    a = np.array([[2.0, 0.0, 0.0, 0.0]])
    b = np.zeros(1)
    assert bqp_regime(a, b, 4) == "large"


def manual_bqp_objective(a, b):
    ata = a.T @ a
    atb = a.T @ b
    n = a.shape[1]
    g = np.zeros((n + 1, n + 1))
    g[:n, :n] = ata
    g[:n, n] = -atb
    g[n, :n] = -atb
    return g


def test_bqp_separate_estimates_formula():
    rng = np.random.default_rng(21)
    n, k = 6, 9
    a = rng.standard_normal((k, n))
    b = rng.standard_normal(k)
    alpha_t, beta_t = bqp_separate_estimates(a, b, n)
    g = manual_bqp_objective(a, b)
    ata = a.T @ a
    assert alpha_t == pytest.approx(math.sqrt(np.linalg.norm(g) / (n + 1)), rel=1e-12)
    want_beta = (n ** 2 / (1.0 + np.linalg.norm(ata) ** 2)) ** 0.25
    assert beta_t == pytest.approx(want_beta, rel=1e-12)


def test_bqp_separate_estimates_zero_objective_raises():
    with pytest.raises(ValueError):
        bqp_separate_estimates(np.zeros((2, 3)), np.zeros(2), 3)


def test_bqp_estimate_shifts_in_small_regime():
    rng = np.random.default_rng(22)
    n, k = 40, 50
    a = 0.05 * rng.standard_normal((k, n))
    b = rng.standard_normal(k)
    assert bqp_regime(a, b, n) == "small"
    alpha_t, beta_t = bqp_separate_estimates(a, b, n)
    est = bqp_estimate(a, b, n)
    assert est.alpha == pytest.approx(math.sqrt(2.0) * alpha_t, rel=1e-12)
    assert est.beta == pytest.approx(beta_t / math.sqrt(2.0), rel=1e-12)
    assert est.shape == BlockShape(n, 1)


def test_bqp_estimate_pins_beta_in_large_regime():
    rng = np.random.default_rng(23)
    n, k = 10, 12
    a = 5.0 * rng.standard_normal((k, n))
    b = rng.standard_normal(k)
    assert bqp_regime(a, b, n) == "large"
    alpha_t, _ = bqp_separate_estimates(a, b, n)
    est = bqp_estimate(a, b, n)
    assert est.alpha == pytest.approx(alpha_t, rel=1e-12)
    assert est.beta == 1.0


def test_sr_estimate_pinned_values():
    n, k, sigma = 50, 10, 2.0
    joint = sr_estimate(n, k, sigma, "joint")
    assert joint.alpha == pytest.approx(1.0 / math.sqrt(0.8 * 51 * 2.0), rel=1e-12)
    assert joint.beta == pytest.approx(math.sqrt(5.0), rel=1e-12)
    alpha_only = sr_estimate(n, k, sigma, "alpha")
    assert alpha_only.alpha == pytest.approx(1.0 / math.sqrt(51 * 2.0), rel=1e-12)
    assert alpha_only.beta == 1.0
    beta_only = sr_estimate(n, k, sigma, "beta")
    assert beta_only.alpha == 1.0
    assert beta_only.beta == pytest.approx(math.sqrt(100.0 / 3.0), rel=1e-12)
    assert joint.shape == BlockShape(n, 1)


def test_sr_estimate_validation():
    with pytest.raises(ValueError):
        sr_estimate(50, 10, 2.0, "gamma")
    with pytest.raises(ValueError):
        sr_estimate(0, 10, 2.0)
    with pytest.raises(ValueError):
        sr_estimate(50, 0, 2.0)
    with pytest.raises(ValueError):
        sr_estimate(50, 10, 0.0)


def test_grid_spec_validation_and_values():
    with pytest.raises(ValueError):
        GridSpec(2.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(0.1, 10.0, points=1)
    vals = GridSpec(0.1, 10.0, points=5).values()
    assert len(vals) == 5
    assert vals[0] == pytest.approx(0.1, rel=1e-12)
    assert vals[-1] == pytest.approx(10.0, rel=1e-12)
