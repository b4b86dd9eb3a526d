"""Sparse recovery from sparsely corrupted Gaussian measurements.

The package solves the l1-fidelity basis pursuit denoising program

    minimize ||u||_1   subject to   ||y - phi @ u||_1 <= epsilon,

generates reproducible test instances, empirically estimates the
deviation constants of the Gaussian l1 sketch, evaluates the resulting
recovery-error bound and traces every inequality behind it on concrete
instances.
"""

from .analysis import (GridSpec, RecoveryTrace, TrialRecord, recovery_error_bound,
                       recovery_error_bound_sharp, run_grid, run_trial, trace_recovery)
from .conditions import (ConditionEstimate, SampleBoundParams, SearchBudget,
                         concentration_check, concentration_probability,
                         condition_verdict, estimate_conditions, half_normal_mean,
                         l1_norm_deviation, sample_complexity_bound,
                         sign_cross_deviation)
from .core import (compressibility_error, hard_threshold, mat_vec, norm_lp,
                   partition_support, restrict, sign_vec)
from .generators import (SparseInstance, gen_compressible_signal, gen_gaussian_matrix,
                         gen_laplacian_noise, gen_sparse_noise, gen_sparse_signal,
                         load_bundle, make_instance, save_bundle)
from .rng import RngSpec, Stream
from .solver import (SolverConfig, SolverResult, lp_formulate, operator_norm_estimate,
                     project_l1_ball, soft_threshold, solve, solve_first_order,
                     solve_lp_exact)

__version__ = "0.1.0"

__all__ = [
    "ConditionEstimate", "GridSpec", "RecoveryTrace", "RngSpec", "SampleBoundParams",
    "SearchBudget", "SolverConfig", "SolverResult", "SparseInstance", "Stream",
    "TrialRecord", "compressibility_error", "concentration_check",
    "concentration_probability", "condition_verdict", "estimate_conditions",
    "gen_compressible_signal", "gen_gaussian_matrix", "gen_laplacian_noise",
    "gen_sparse_noise", "gen_sparse_signal", "half_normal_mean", "hard_threshold",
    "l1_norm_deviation", "load_bundle", "lp_formulate", "make_instance",
    "mat_vec", "norm_lp", "operator_norm_estimate",
    "partition_support", "project_l1_ball", "recovery_error_bound",
    "recovery_error_bound_sharp", "restrict", "run_grid", "run_trial",
    "sample_complexity_bound", "save_bundle", "sign_cross_deviation", "sign_vec",
    "soft_threshold", "solve", "solve_first_order", "solve_lp_exact", "trace_recovery",
]
