"""Certified solver for the strongly convex lower level.

Full-batch gradient descent with fixed step 1/beta_gyy.  Strong convexity
turns the final gradient norm into a distance certificate:
||y - y*|| <= ||grad||/mu_g, so the returned accuracy is a guarantee, not an
estimate.  Everything is deterministic.

x is one point (d_x,) or a batch (B, d_x).  A batch runs the GD loop over
all rows in lockstep, one callback call per sweep, each row leaving when its
own certificate holds: it takes exactly the steps, and ends at exactly the
y, of the point solve from its start, which a batch of one runs for speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NonConvergenceError
from .problem import AssumptionConstants, BilevelProblem, Dataset, _row_norms


@dataclass(frozen=True)
class InnerSolveResult:
    """y and certified_error have a leading batch axis when x has one;
    iterations counts GD steps summed over the rows."""

    y: np.ndarray
    certified_error: float | np.ndarray
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
    NonConvergenceError, naming the first uncertified row of a batch, when
    the budget is exhausted without a certificate.
    """
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    start = p.y_box.center if warm_start is None else np.asarray(warm_start, dtype=float)
    if x.ndim == 1:
        return _solve_point(p, Z, x, alpha, a, start)
    if len(x) == 1:
        # speed only: the point loop gives a batch of one the same bits as the
        # batch loop, 2.5-3x faster; point scores and one-cell walk fills are batches of one
        res = _solve_point(p, Z, x[0], alpha, a, start.reshape(-1, p.d_y)[0], row=0)
        return InnerSolveResult(y=res.y[None], certified_error=np.array([res.certified_error]),
                                iterations=res.iterations)
    return _solve_batch(p, Z, x, alpha, a, start)


def _solve_point(p, Z, x, alpha, a, start, row=None) -> InnerSolveResult:
    step = 1.0 / a.beta_gyy
    y = np.array(start, dtype=float)
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
                f"lower-level solve{'' if row is None else f', row {row}'}: certificate "
                f"{certified:.3e} > alpha {alpha:.3e} after {iterations} iterations"
            )
        y = y - step * g
        iterations += 1


def _solve_batch(p, Z, x, alpha, a, start) -> InnerSolveResult:
    """The point loop over the rows of x at once; rows drop out as they certify."""
    step = 1.0 / a.beta_gyy
    Y = np.array(np.broadcast_to(start, (len(x), p.d_y)), dtype=float)
    certified = np.empty(len(x))
    rows = np.arange(len(x))
    xa, ya = x, Y
    sweeps = steps = 0
    max_iters = None
    while True:
        g = p.batch_call("grad_g_y", xa, ya, Z)
        c = _row_norms(g) / a.mu_g
        done = c <= alpha
        finished = rows[done]
        Y[finished] = ya[done]
        certified[finished] = c[done]
        if done.all():
            return InnerSolveResult(y=Y, certified_error=certified, iterations=steps)
        if done.any():
            left = ~done
            rows, xa, ya, g, c = rows[left], xa[left], ya[left], g[left], c[left]
        if max_iters is None:
            max_iters = default_max_iters(a, p.y_box, alpha)
        if sweeps >= max_iters:
            raise NonConvergenceError(
                f"lower-level solve, row {rows[0]}: certificate {c[0]:.3e} > alpha "
                f"{alpha:.3e} after {sweeps} iterations"
            )
        ya = ya - step * g
        sweeps += 1
        steps += len(rows)


def phi_solution_pair(
    p: BilevelProblem,
    Z: Dataset,
    x: np.ndarray,
    zeta: float,
    a: AssumptionConstants,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Implicit objective at x with additive error at most zeta, and the certified y.

    Solves the lower level from y_box.center to alpha = zeta / L_fy (f's
    y-Lipschitz constant converts the distance certificate into a value
    error bound) and averages f.  When L_fy = 0 the upper level does not
    depend on y and any feasible y is exact.  On a batch x of shape
    (B, d_x) the value is (B,) and y (B, d_y).
    """
    if zeta <= 0:
        raise ConfigurationError("zeta must be positive")
    x = np.asarray(x, dtype=float)
    if a.L_fy > 0:
        y = solve_lower_level(p, Z, x, zeta / a.L_fy, a).y
    else:
        y = np.empty(x.shape[:-1] + (p.d_y,))
        y[...] = p.y_box.center
    if x.ndim == 2:
        return p.batch_call("f", x, y, Z), y
    return float(p.f(x, y, Z)), y
