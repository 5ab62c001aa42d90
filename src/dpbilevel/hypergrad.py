"""Second-order implicit gradient of the upper-level objective.

At a point (x, y) the estimate is

    grad_f_x  -  H_xy @ H_yy^{-1} @ grad_f_y

where each term is one of the problem's record-averaged callbacks evaluated
on the dataset (grad_f_x, grad_f_y, hess_g_xy and hess_g_yy).  It equals the
true gradient of Phi-hat when y is the exact lower-level minimizer, and is
biased by at most C * ||y - y*|| otherwise (C from derive_constants).  H_yy
is SPD by strong convexity.  A point (x, y), one per descent step, solves
by one LAPACK Cholesky factorization (dpotrf) and back-substitution
(dpotrs): the routines scipy.linalg.cho_factor/cho_solve call, without
their per-call wrapping, about twice as fast as a stack of one.  A stack,
x (B, d_x) and y (B, d_y), a stack of one included, takes one batched
np.linalg Cholesky factorization as the definiteness check and one batched
LU solve, and returns (B, d_x) rows whose bits do not depend on B; they
agree with the point path to rounding only.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import AssumptionViolationError
from .problem import BilevelProblem, Dataset


def approx_hypergradient(
    p: BilevelProblem, Z: Dataset, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Implicit-gradient estimate at (x, y), exact at y = y*(x).

    Returns the (d_x,) vector, or a (B, d_x) stack for stacked x and y.
    """
    if np.ndim(x) == 2:
        return _hypergradient_stack(p, Z, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
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
    return gx - Hxy @ w


def _hypergradient_stack(p, Z, x, y) -> np.ndarray:
    gx = p.batch_call("grad_f_x", x, y, Z)
    gy = p.batch_call("grad_f_y", x, y, Z)
    Hxy = p.batch_call("hess_g_xy", x, y, Z)
    Hyy = p.batch_call("hess_g_yy", x, y, Z)
    Hyy = 0.5 * (Hyy + np.swapaxes(Hyy, -1, -2))
    _check_finite(Hyy)
    try:
        np.linalg.cholesky(Hyy)
    except np.linalg.LinAlgError:
        stack = np.broadcast_to(Hyy, (len(x),) + Hyy.shape[-2:])
        row = next(i for i, H in enumerate(stack) if dpotrf(H, lower=1, clean=0)[1] != 0)
        raise AssumptionViolationError(
            f"averaged hess_g_yy is not positive definite at row {row}") from None
    _check_finite(gy)
    w = np.linalg.solve(Hyy, gy[..., None])
    return gx - (Hxy @ w)[..., 0]


def _check_finite(a: np.ndarray) -> None:
    """The ValueError scipy's check_finite raises, before LAPACK sees the array."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
