"""Second-order implicit gradient of the upper-level objective.

At a point (x, y) the estimate is

    grad_f_x  -  H_xy @ H_yy^{-1} @ grad_f_y

where each term is one of the problem's record-averaged callbacks evaluated
on the dataset (grad_f_x, grad_f_y, hess_g_xy and hess_g_yy).  It equals the
true gradient of Phi-hat when y is the exact lower-level minimizer, and is
biased by at most C * ||y - y*|| otherwise (C from derive_constants).  H_yy
is SPD by strong convexity, so the linear solve is one LAPACK Cholesky
factorization (dpotrf) and back-substitution (dpotrs): the same routines and
arguments scipy.linalg.cho_factor/cho_solve use, without their per-call
wrapping, which dominates at the small d_y of these problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

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
    _check_finite(Hyy)
    factor, info = dpotrf(Hyy, lower=0, clean=0)
    if info > 0:
        raise AssumptionViolationError(
            f"averaged hess_g_yy is not positive definite ({info}-th leading minor)"
        )
    if info < 0:
        raise RuntimeError(f"dpotrf rejected its argument {-info}")
    _check_finite(gy)
    w, info = dpotrs(factor, gy, lower=0)
    if info != 0:
        raise RuntimeError(f"dpotrs rejected its argument {-info}")
    r = Hyy @ w - gy
    return Hypergradient(vector=gx - Hxy @ w, linear_solve_residual=math.sqrt(r.dot(r)))


def _check_finite(a: np.ndarray) -> None:
    """The ValueError scipy's check_finite raises, before LAPACK sees the array."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
