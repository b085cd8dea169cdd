"""Shared fixtures for the acceptance protocols.

The two reference setups (Boolean quadratic relaxation and spectral
super-resolution) are expensive, so they are built once per session and
reused by every criterion that needs them.
"""

import os

# One BLAS thread, as in CI, where the bit pins were recorded, unless the
# caller chose a count; OpenBLAS reads these only when numpy first loads it.
if "OMP_NUM_THREADS" not in os.environ and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from proxsplit import (  # noqa: E402
    StopRule,
    bqp_estimate,
    bqp_protocol_params,
    build_prox_pair,
    gen_bqp,
    gen_sr,
    reference_solve,
    run_drs,
    sr_estimate,
    sr_protocol_params,
)
from proxsplit.tuning import SolutionPair  # noqa: E402

BQP_SEED = 0
SR_SEED = 2
MSE_EPS = 1e-6


def mse_stop(reference: np.ndarray, cap: int) -> StopRule:
    """Experiment stopping: MSE-vs-reference only, no optimality shortcut."""
    return StopRule(max_iters=cap, opt_eps=None, mse_eps=MSE_EPS, reference=reference)


@pytest.fixture(scope="session")
def bqp_setup():
    inst = gen_bqp(40, 50, 0.05, 1.0, BQP_SEED)
    pair = build_prox_pair(inst)
    ref = reference_solve(pair, bqp_estimate(inst.a, inst.b, inst.n))
    assert ref.converged
    return inst, pair, ref


@pytest.fixture(scope="session")
def bqp_protocol(bqp_setup):
    """Iteration-count protocol: identity vs estimated vs optimal parameters."""
    inst, pair, ref = bqp_setup
    sol = SolutionPair(ref.x_ref, ref.lam_ref, shape=inst.shape)
    params = bqp_protocol_params(inst.a, inst.b, inst.n, sol)
    return {name: run_drs(pair, param, pair.zeros(), mse_stop(ref.x_ref, 100_000))[1]
            for name, param in params.items()}


@pytest.fixture(scope="session")
def sr_setup():
    inst = gen_sr(50, 10, 2.0, 0.8, SR_SEED)
    pair = build_prox_pair(inst)
    ref = reference_solve(pair, sr_estimate(inst.n, inst.k, inst.sigma, "joint"))
    assert ref.converged
    return inst, pair, ref


@pytest.fixture(scope="session")
def sr_protocol(sr_setup):
    inst, pair, ref = sr_setup
    params = sr_protocol_params(inst.n, inst.k, inst.sigma)
    return {name: run_drs(pair, param, pair.zeros(), mse_stop(ref.x_ref, 150_000))[1]
            for name, param in params.items()}
