"""Operator-parametrized proximal splitting for block-structured SDPs."""

from .linalg import (eig_hermitian, frob_inner, frob_norm, gaussian_sample, hermitian_part,
                     project_nsd, project_psd, project_toeplitz, random_hermitian,
                     toeplitz_adjoint, toeplitz_gram_diag, toeplitz_map)
from .params import (BlockShape, DiagonalEnergy, Identity, InertiaReport, OperatorParam,
                     Scalar, SdpHadamard, adjoint_inverse_param, definiteness_invariant_check,
                     matrix_map_inertia_check, param_from_config)
from .prox import (FixedEntrySet, ProxPair, moreau_residual, prox_l1_orthogonal,
                   prox_linear_diag1, prox_linear_sr, prox_nsd_indicator, prox_psd_indicator)
from .splitting import (ConvergenceTrace, DivergenceError, RateBound, RateReport, SplitState,
                        StopRule, drs_fixed_point_map, estimate_cocoercivity,
                        matched_admm_init, matched_pd_init, matched_pdf_init,
                        optimality_residual, rate_check, run_admm, run_drs, run_pd, run_pdf,
                        sharp_rate_factor)
from .tuning import (GainReport, GridSpec, SolutionPair, acceleration_gain,
                     block_sq_norms, bqp_estimate, bqp_protocol_params, bqp_regime,
                     bqp_separate_estimates, joint_objective, optimal_diagonal,
                     optimal_scalar, parameter_objective, sdp_joint_search,
                     sdp_separate_choices, sr_estimate, sr_protocol_params)
from .problems import (BqpInstance, ReferenceSolution, SrInstance, bqp_multipliers,
                       bqp_objective, build_prox_pair, gen_bqp, gen_sr, load_instance,
                       mse, reference_solve, save_instance)

__version__ = "0.1.0"

__all__ = [
    "BlockShape", "BqpInstance", "ConvergenceTrace", "DiagonalEnergy",
    "DivergenceError", "FixedEntrySet", "GainReport", "GridSpec", "Identity",
    "InertiaReport", "OperatorParam", "ProxPair", "RateBound", "RateReport",
    "ReferenceSolution", "Scalar", "SdpHadamard", "SolutionPair", "SplitState",
    "SrInstance", "StopRule", "acceleration_gain", "adjoint_inverse_param",
    "block_sq_norms", "bqp_estimate", "bqp_multipliers", "bqp_objective",
    "bqp_protocol_params", "bqp_regime", "bqp_separate_estimates", "build_prox_pair",
    "definiteness_invariant_check", "drs_fixed_point_map", "eig_hermitian",
    "estimate_cocoercivity", "frob_inner", "frob_norm", "gaussian_sample", "gen_bqp",
    "gen_sr", "hermitian_part", "joint_objective", "load_instance", "matched_admm_init",
    "matched_pd_init", "matched_pdf_init", "matrix_map_inertia_check",
    "moreau_residual", "mse", "optimal_diagonal", "optimal_scalar",
    "optimality_residual", "param_from_config", "parameter_objective", "project_nsd",
    "project_psd", "project_toeplitz", "prox_l1_orthogonal", "prox_linear_diag1",
    "prox_linear_sr", "prox_nsd_indicator", "prox_psd_indicator", "random_hermitian",
    "rate_check", "reference_solve", "run_admm", "run_drs", "run_pd", "run_pdf",
    "save_instance", "sdp_joint_search", "sdp_separate_choices", "sharp_rate_factor",
    "sr_estimate", "sr_protocol_params", "toeplitz_adjoint", "toeplitz_gram_diag",
    "toeplitz_map",
]
