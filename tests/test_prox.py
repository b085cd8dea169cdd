import numpy as np
import pytest

from proxsplit.linalg import (
    frob_norm,
    project_nsd,
    project_psd,
    random_hermitian,
    toeplitz_adjoint,
    toeplitz_map,
)
from proxsplit.params import BlockShape, Identity, Scalar, SdpHadamard
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

RNG = np.random.default_rng(2024)


def random_params(shape):
    return [
        Identity(),
        Scalar(1.7),
        SdpHadamard(0.35, 2.2, shape),
        SdpHadamard(3.1, 0.6, shape),
        Scalar(-1.7),
        SdpHadamard(-0.35, 2.2, shape),
        SdpHadamard(3.1, -0.6, shape),
        SdpHadamard(-0.9, -1.4, shape),
    ]


class _Opaque:
    """A duck-typed parameter that does not act per entry."""

    is_entrywise = False

    def apply(self, v):
        return np.asarray(v)

    inverse = apply


@pytest.mark.parametrize("param", random_params(BlockShape(4, 1)))
def test_psd_prox_minimizes_weighted_distance(param):
    v = random_hermitian(5, RNG, complex_field=True)
    z = prox_psd_indicator(param, v)
    assert np.linalg.eigvalsh(z)[0] >= -1e-10
    best = frob_norm(param.apply(z) - v)
    for _ in range(30):
        b = RNG.standard_normal((5, 2)) + 1j * RNG.standard_normal((5, 2))
        candidate = b @ b.conj().T
        assert best <= frob_norm(param.apply(candidate) - v) + 1e-10


def test_nsd_prox_mirrors_psd_prox():
    param = SdpHadamard(0.8, 1.9, BlockShape(3, 1))
    v = random_hermitian(4, RNG, complex_field=True)
    np.testing.assert_allclose(prox_nsd_indicator(param, v),
                               -prox_psd_indicator(param, -v), atol=1e-12)


@pytest.mark.parametrize("prox, cone_of_image, in_cone", [
    (prox_psd_indicator, project_nsd, lambda w: w[0] >= -1e-10),
    (prox_nsd_indicator, project_psd, lambda w: w[-1] <= 1e-10)], ids=["psd", "nsd"])
def test_cone_proxes_under_a_negative_scalar_swap_the_cones(prox, cone_of_image, in_cone):
    # -a maps the PSD cone onto the NSD cone, so the prox projects onto the other cone
    for a in (1.0, 0.3, 2.5):
        param = Scalar(-a)
        v = random_hermitian(5, RNG, complex_field=True)
        z = prox(param, v)
        np.testing.assert_array_equal(z, param.inverse(cone_of_image(v)))
        assert in_cone(np.linalg.eigvalsh(z))
        best = frob_norm(param.apply(z) - v)
        for _ in range(30):
            b = RNG.standard_normal((5, 2)) + 1j * RNG.standard_normal((5, 2))
            candidate = b @ b.conj().T if prox is prox_psd_indicator else -b @ b.conj().T
            assert best <= frob_norm(param.apply(candidate) - v) + 1e-10


def test_cone_prox_pulls_projection_through_parameter():
    param = SdpHadamard(0.5, 4.0, BlockShape(2, 1))
    v = random_hermitian(3, RNG)
    sz = param.apply(prox_psd_indicator(param, v))
    # v minus the weighted output is the NSD complement of the cone split
    w = np.linalg.eigvalsh(v - sz)
    assert w[-1] <= 1e-10
    assert float(np.vdot(sz, v - sz).real) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("param", random_params(BlockShape(5, 1)))
def test_diag1_prox_satisfies_kkt(param):
    n = 5
    g = random_hermitian(n + 1, RNG)
    v = random_hermitian(n + 1, RNG)
    z = prox_linear_diag1(g, param, v)
    np.testing.assert_allclose(np.diag(z), 1.0, atol=1e-12)
    # stationarity: the gradient residual is supported on the diagonal,
    # where the constraint multipliers live
    r = param.adjoint(param.apply(z) - v) + g
    off = r - np.diag(np.diag(r))
    assert frob_norm(off) < 1e-10


def test_diag1_prox_beats_sampled_feasible_points():
    n = 4
    param = SdpHadamard(0.6, 1.4, BlockShape(n, 1))
    g = random_hermitian(n + 1, RNG)
    v = random_hermitian(n + 1, RNG)
    z = prox_linear_diag1(g, param, v)

    def objective(m):
        return float(np.vdot(g, m).real) + 0.5 * frob_norm(param.apply(m) - v) ** 2

    base = objective(z)
    for _ in range(40):
        w = random_hermitian(n + 1, RNG)
        np.fill_diagonal(w, 1.0)
        assert base <= objective(w) + 1e-10


@pytest.mark.parametrize("param", random_params(BlockShape(5, 1)))
def test_linear_proxes_read_g_on_every_call(param):
    # a read-only view does not make g immutable: a write into its base between
    # two calls must show in the second result
    n = 5
    _, g_sr, observed, _ = make_sr_inputs(n)
    for base in (random_hermitian(n + 1, RNG), g_sr):
        g = base.view()
        g.flags.writeable = False
        v = random_hermitian(n + 1, RNG, complex_field=True)
        first = (prox_linear_diag1(g, param, v), prox_linear_sr(g, observed, param, v))
        base[0, 1] += 1.0
        second = (prox_linear_diag1(g, param, v), prox_linear_sr(g, observed, param, v))
        fresh = np.array(base)
        assert np.array_equal(second[0], prox_linear_diag1(fresh, param, v))
        assert np.array_equal(second[1], prox_linear_sr(fresh, observed, param, v))
        assert not np.array_equal(first[0], second[0])
        assert not np.array_equal(first[1], second[1])


def make_sr_inputs(n=6, param_kind="hadamard"):
    shape = BlockShape(n, 1)
    param = (SdpHadamard(0.4, 2.0, shape) if param_kind == "hadamard"
             else Identity())
    g = np.zeros((n + 1, n + 1))
    g[:n, :n] = np.eye(n) / (2.0 * n)
    g[n, n] = 0.5
    idx = np.array([0, 2, 3])
    vals = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    observed = FixedEntrySet(idx, vals)
    v = random_hermitian(n + 1, RNG, complex_field=True)
    return param, g, observed, v


@pytest.mark.parametrize("param_kind", ["hadamard", "identity"])
def test_sr_prox_feasibility_and_kkt(param_kind):
    n = 6
    param, g, observed, v = make_sr_inputs(n, param_kind)
    z = prox_linear_sr(g, observed, param, v)

    np.testing.assert_allclose(z, z.conj().T, atol=1e-12)
    block = z[:n, :n]
    for d in range(1, n):
        diag = np.diagonal(block, offset=-d)
        assert np.max(np.abs(diag - diag[0])) < 1e-12
    np.testing.assert_allclose(z[observed.indices, n], observed.values, atol=0)

    # stationarity against every feasible direction
    r = param.adjoint(param.apply(z) - v) + g
    assert np.max(np.abs(toeplitz_adjoint(r[:n, :n]))) < 1e-10
    free = np.setdiff1d(np.arange(n), observed.indices)
    assert np.max(np.abs(r[free, n])) < 1e-10
    assert abs(r[n, n]) < 1e-10


def test_sr_prox_beats_sampled_feasible_points():
    n = 5
    param, g, observed, v = make_sr_inputs(n)
    z = prox_linear_sr(g, observed, param, v)

    def objective(m):
        return float(np.vdot(g, m).real) + 0.5 * frob_norm(param.apply(m) - v) ** 2

    base = objective(z)
    free = np.setdiff1d(np.arange(n), observed.indices)
    for _ in range(40):
        u = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        u[0] = u[0].real
        w = np.zeros((n + 1, n + 1), dtype=complex)
        w[:n, :n] = toeplitz_map(u)
        col = np.zeros(n, dtype=complex)
        col[observed.indices] = observed.values
        col[free] = RNG.standard_normal(free.size) + 1j * RNG.standard_normal(free.size)
        w[:n, n] = col
        w[n, :n] = col.conj()
        w[n, n] = RNG.standard_normal()
        assert base <= objective(w) + 1e-10


def test_l1_prox_matches_per_coordinate_grid():
    d = RNG.uniform(0.3, 6.0, size=8)
    v = RNG.standard_normal(8) * 2.0
    z = prox_l1_orthogonal(d, v)
    for i in range(8):
        grid = np.linspace(-3 * abs(v[i]) - 1, 3 * abs(v[i]) + 1, 20001)
        h = np.abs(grid) + 0.5 * (np.sqrt(d[i]) * grid - v[i]) ** 2
        best = grid[np.argmin(h)]
        h_z = abs(z[i]) + 0.5 * (np.sqrt(d[i]) * z[i] - v[i]) ** 2
        assert h_z <= h.min() + 1e-9
        assert abs(z[i] - best) <= grid[1] - grid[0] + 1e-12


def test_l1_prox_shrinks_small_inputs_to_zero():
    d = np.array([4.0])
    # threshold in v-space is 1/sqrt(d); below it the prox returns zero
    assert prox_l1_orthogonal(d, np.array([0.49]))[0] == 0.0
    assert prox_l1_orthogonal(d, np.array([0.51]))[0] > 0.0


@pytest.mark.parametrize("param", random_params(BlockShape(4, 1)))
def test_moreau_identity_for_cone_pair(param):
    v = random_hermitian(5, RNG, complex_field=True)
    res = moreau_residual(param, prox_psd_indicator, prox_nsd_indicator, v)
    assert res < 1e-9


@pytest.mark.parametrize("param", random_params(BlockShape(4, 1)))
def test_scaled_prox_maps_are_firmly_nonexpansive(param):
    for _ in range(25):
        v1 = random_hermitian(5, RNG, complex_field=True)
        v2 = random_hermitian(5, RNG, complex_field=True)
        t1 = param.apply(prox_psd_indicator(param, v1))
        t2 = param.apply(prox_psd_indicator(param, v2))
        lhs = frob_norm(t1 - t2) ** 2
        rhs = float(np.vdot(t1 - t2, v1 - v2).real)
        assert lhs <= rhs + 1e-9


def test_gate_rejects_non_entrywise_parameter():
    g = random_hermitian(4, RNG)
    v = random_hermitian(4, RNG)
    with pytest.raises(ValueError):
        prox_linear_diag1(g, _Opaque(), v)


@pytest.mark.parametrize("call, error, match", [
    (lambda v: prox_linear_sr(v, FixedEntrySet([0], [1.0]), _Opaque(), v), ValueError,
     "entrywise parameter"),
    # v is 5 x 5, so the vector block has rows 0..3
    (lambda v: prox_linear_sr(v, FixedEntrySet([4], [1.0]), Identity(), v), IndexError,
     "outside the vector block"),
    (lambda v: prox_l1_orthogonal([1.0, 0.0], v[0, :2]), ValueError, "energies must be positive"),
    (lambda v: prox_l1_orthogonal([1.0, -2.0], v[0, :2]), ValueError, "energies must be positive"),
], ids=["sr-not-entrywise", "sr-index-at-block-size", "l1-zero-energy",
        "l1-negative-energy"])
def test_proxes_refuse_parameters_and_data_they_are_not_exact_for(call, error, match):
    v = random_hermitian(5, RNG, complex_field=True)
    with pytest.raises(error, match=match):
        call(v)


def test_fixed_entry_set_rejects_duplicates_and_mismatch():
    with pytest.raises(ValueError):
        FixedEntrySet(np.array([1, 1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        FixedEntrySet(np.array([0, 1]), np.array([1.0]))


def test_prox_pair_zeros_dtype():
    pair_r = ProxPair(f_prox=lambda p, v: v, g_prox=lambda p, v: v,
                      constraint="none", dim=3, is_complex=False)
    pair_c = ProxPair(f_prox=lambda p, v: v, g_prox=lambda p, v: v,
                      constraint="none", dim=3, is_complex=True)
    assert pair_r.zeros().dtype == np.float64
    assert pair_c.zeros().dtype == np.complex128
    assert pair_r.zeros().shape == (3, 3)
