"""Differentially private bilevel optimization.

Mechanisms that privately select the upper-level variable of a bilevel
problem whose lower level is solved only inexactly: exponential mechanisms
realized by a grid-walk sampler tolerant of evaluation error, a noisy
second-order gradient method with closed-form schedules, and a warm-start
combination of the two.  Exact small-scale audits (sensitivity, DP ratio,
hockey-stick, chain lemmas) verify the guarantees the mechanisms rely on.
"""

from .audit import AuditReport, empirical_sensitivity, exact_dp_audit, verify_sampler_lemmas
from .errors import (
    AssumptionViolationError,
    ConfigurationError,
    NonConvergenceError,
    SamplerFailure,
    SizeCapError,
)
from .hypergrad import approx_hypergradient
from .inner import phi_solution_pair, solve_lower_level
from .instances import InstanceFixture, make_instance
from .mechanisms import (
    K_REG,
    MechanismResult,
    PrivacyBudget,
    dp_second_order_gd,
    exponential_mechanism,
    grad_norm_exp_mechanism,
    mechanism_grid_law,
    regularized_exp_mechanism,
    replay_mechanism,
    warm_start,
)
from .problem import (
    AssumptionConstants,
    BilevelProblem,
    Dataset,
    DerivedConstants,
    Domain,
    derive_constants,
    probe_assumptions,
)
from .rng import derive_seed, make_generator

__version__ = "0.1.0"

__all__ = [
    "AssumptionConstants",
    "AssumptionViolationError",
    "AuditReport",
    "BilevelProblem",
    "ConfigurationError",
    "Dataset",
    "DerivedConstants",
    "Domain",
    "InstanceFixture",
    "K_REG",
    "MechanismResult",
    "NonConvergenceError",
    "PrivacyBudget",
    "SamplerFailure",
    "SizeCapError",
    "approx_hypergradient",
    "derive_constants",
    "derive_seed",
    "dp_second_order_gd",
    "empirical_sensitivity",
    "exact_dp_audit",
    "exponential_mechanism",
    "grad_norm_exp_mechanism",
    "make_generator",
    "make_instance",
    "mechanism_grid_law",
    "phi_solution_pair",
    "probe_assumptions",
    "regularized_exp_mechanism",
    "replay_mechanism",
    "solve_lower_level",
    "verify_sampler_lemmas",
    "warm_start",
]
