"""Grid-walk sampler for log-concave densities with inexact evaluation."""

from .chain import (
    ChainAnalysis,
    conductance_exact,
    dist_inf,
    exact_chain,
    linf_mixing_distance,
    mixing_time_bound,
    stationary_from_scores,
    transition_matrix,
)
from .engine import available_engines, run_walk
from .evaluator import Evaluator, ExtendedEvaluator
from .grid import GridSpec, build_grid, grid_with_cells
from .sampler import SamplerPlan, grid_law, plan_sampler, sample_logconcave_detailed

__all__ = [
    "ChainAnalysis",
    "Evaluator",
    "ExtendedEvaluator",
    "GridSpec",
    "SamplerPlan",
    "available_engines",
    "build_grid",
    "conductance_exact",
    "dist_inf",
    "exact_chain",
    "grid_law",
    "grid_with_cells",
    "linf_mixing_distance",
    "mixing_time_bound",
    "plan_sampler",
    "run_walk",
    "sample_logconcave_detailed",
    "stationary_from_scores",
    "transition_matrix",
]
