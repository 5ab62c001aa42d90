"""Second-order implicit gradient of the upper-level objective.

At a point (x, y) the estimate is

    grad_f_x  -  H_xy @ H_yy^{-1} @ grad_f_y

where each term is one of the problem's record-averaged callbacks evaluated
on the dataset (grad_f_x, grad_f_y, hess_g_xy and hess_g_yy).  It equals the
true gradient of Phi-hat when y is the exact lower-level minimizer, and is
biased by at most C * ||y - y*|| otherwise (C from derive_constants).  H_yy
is SPD by strong convexity, so the linear solve uses a Cholesky
factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import AssumptionViolationError
from .problem import BilevelProblem, Dataset


@dataclass(frozen=True)
class Hypergradient:
    vector: np.ndarray
    linear_solve_residual: float


def approx_hypergradient(
    p: BilevelProblem, Z: Dataset, x: np.ndarray, y: np.ndarray
) -> Hypergradient:
    """Implicit-gradient estimate at (x, y), exact at y = y*(x)."""
    gx = np.asarray(p.grad_f_x(x, y, Z), dtype=float)
    gy = np.asarray(p.grad_f_y(x, y, Z), dtype=float)
    Hxy = np.asarray(p.hess_g_xy(x, y, Z), dtype=float)
    Hyy = np.asarray(p.hess_g_yy(x, y, Z), dtype=float)
    Hyy = 0.5 * (Hyy + Hyy.T)
    try:
        factor = scipy.linalg.cho_factor(Hyy)
        w = scipy.linalg.cho_solve(factor, gy)
    except scipy.linalg.LinAlgError as exc:
        raise AssumptionViolationError(
            "averaged hess_g_yy is not positive definite"
        ) from exc
    residual = float(np.linalg.norm(Hyy @ w - gy))
    return Hypergradient(vector=gx - Hxy @ w, linear_solve_residual=residual)
