"""Anchored acceleration toolkit: minimax/fixed-point algorithms with
merging-path, Lyapunov, and convergence-rate verification."""

from .algorithms import ALGORITHMS, AlgorithmConfig, IterateTrace, run
from .analysis import (
    BoundReport,
    LyapunovTrace,
    iterations_to_tolerance,
    lyapunov_feg,
    lyapunov_sm_eag,
    mp_bound_apg,
    mp_bound_feg_ohm,
    mp_distance,
    rate_bound,
    summability_constant,
)
from .operators import (
    AffineOperator,
    BoxProx,
    CallableOperator,
    GradientOperator,
    Operator,
    ScaledOperator,
    ShiftedIdentityPlus,
    SumOperator,
    as_vector,
    drs_map,
    forward_backward_residual,
)
from .problems import (
    Problem,
    build_problem,
    make_bilinear,
    make_box_bilinear_composite,
    make_composite,
    make_figure1,
    make_random_monotone_affine,
    make_random_scsc,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AffineOperator",
    "AlgorithmConfig",
    "BoundReport",
    "BoxProx",
    "CallableOperator",
    "GradientOperator",
    "IterateTrace",
    "LyapunovTrace",
    "Operator",
    "Problem",
    "ScaledOperator",
    "ShiftedIdentityPlus",
    "SumOperator",
    "as_vector",
    "build_problem",
    "drs_map",
    "forward_backward_residual",
    "iterations_to_tolerance",
    "lyapunov_feg",
    "lyapunov_sm_eag",
    "make_bilinear",
    "make_box_bilinear_composite",
    "make_composite",
    "make_figure1",
    "make_random_monotone_affine",
    "make_random_scsc",
    "mp_bound_apg",
    "mp_bound_feg_ohm",
    "mp_distance",
    "rate_bound",
    "run",
    "summability_constant",
]
