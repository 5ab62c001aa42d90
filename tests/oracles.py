"""Reference computations that only tests use."""

import numpy as np

from dpbilevel.errors import ConfigurationError
from dpbilevel.inner import phi_solution_pair


def finite_diff_phi_gradient(p, Z, x, h, zeta, a) -> np.ndarray:
    """Central finite differences of the inexactly evaluated objective.

    Requires zeta <= h^2 so the evaluation error cannot dominate the
    quotient (error is O(h^2 + zeta/h)).
    """
    if h <= 0:
        raise ConfigurationError("h must be positive")
    if not (0 < zeta <= h * h):
        raise ConfigurationError("need 0 < zeta <= h^2 for a meaningful quotient")
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        up = phi_solution_pair(p, Z, x + e, zeta, a)[0]
        dn = phi_solution_pair(p, Z, x - e, zeta, a)[0]
        grad[i] = (up - dn) / (2.0 * h)
    return grad


def grid_lipschitz(scores, grid) -> float:
    """Empirical sup-norm Lipschitz constant of a score table on its grid.

    The neighbor-by-neighbor loop the vectorized audit code must match.
    """
    worst = 0.0
    for i in range(grid.state_count):
        for j in grid.neighbors(i):
            worst = max(worst, abs(scores[i] - scores[j]))
    return worst / grid.gamma
