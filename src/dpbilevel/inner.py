"""Certified solver for the strongly convex lower level.

Full-batch gradient descent with fixed step 1/beta_gyy.  Strong convexity
turns the final gradient norm into a distance certificate:
||y - y*|| <= ||grad||/mu_g, so the returned accuracy is a guarantee, not an
estimate.  Everything is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NonConvergenceError
from .problem import AssumptionConstants, BilevelProblem, Dataset


@dataclass(frozen=True)
class InnerSolveResult:
    y: np.ndarray
    certified_error: float
    iterations: int


def default_max_iters(a: AssumptionConstants, y_box, alpha: float) -> int:
    """Iteration budget from the linear convergence rate, plus slack."""
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    kappa = a.beta_gyy / a.mu_g
    arg = a.beta_gyy * y_box.diameter / (a.mu_g * alpha)
    log_term = math.log(arg) if arg > 1.0 else 0.0
    return int(math.ceil(kappa * log_term)) + 16


def certificate_floor(a: AssumptionConstants) -> float:
    """Smallest alpha the solver's certificate can resolve.

    The certificate is ||grad|| / mu_g, with the gradient a mean of
    per-record terms of norm up to L_gy, so below a few hundred ulps of
    L_gy / mu_g the quotient reads rounding, not distance.
    """
    return 256.0 * float(np.finfo(float).eps) * a.L_gy / a.mu_g


def solve_lower_level(
    p: BilevelProblem,
    Z: Dataset,
    x: np.ndarray,
    alpha: float,
    a: AssumptionConstants,
    warm_start: np.ndarray | None = None,
) -> InnerSolveResult:
    """Run GD on the averaged lower-level objective until ||y - y*|| <= alpha.

    Returns immediately if the warm start already certifies.  Raises
    NonConvergenceError when the budget is exhausted without a certificate.
    """
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    step = 1.0 / a.beta_gyy
    y = np.array(p.y_box.center if warm_start is None else warm_start, dtype=float)
    iterations = 0
    max_iters = None  # sized at the first failed certificate; warm starts rarely need it
    while True:
        g = np.asarray(p.grad_g_y(x, y, Z), dtype=float)
        certified = math.sqrt(g.dot(g)) / a.mu_g
        if certified <= alpha:
            return InnerSolveResult(y=y, certified_error=certified, iterations=iterations)
        if max_iters is None:
            max_iters = default_max_iters(a, p.y_box, alpha)
        if iterations >= max_iters:
            raise NonConvergenceError(
                f"lower-level solve: certificate {certified:.3e} > alpha {alpha:.3e} "
                f"after {iterations} iterations"
            )
        y = y - step * g
        iterations += 1


def phi_solution_pair(
    p: BilevelProblem,
    Z: Dataset,
    x: np.ndarray,
    zeta: float,
    a: AssumptionConstants,
    warm_start: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Implicit objective at x with additive error at most zeta, and the certified y.

    Solves the lower level to alpha = zeta / L_fy (f's y-Lipschitz constant
    converts the distance certificate into a value error bound) and averages f.
    When L_fy = 0 the upper level does not depend on y and any feasible y is
    exact.  The returned y warm-starts the next point of a chain.
    """
    if zeta <= 0:
        raise ConfigurationError("zeta must be positive")
    if a.L_fy > 0:
        res = solve_lower_level(p, Z, x, zeta / a.L_fy, a, warm_start=warm_start)
        y = res.y
    else:
        y = np.array(p.y_box.center, dtype=float)
    return float(p.f(x, y, Z)), y
