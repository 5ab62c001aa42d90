"""Reference computations that only tests use."""

import math

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from dpbilevel.errors import ConfigurationError, SizeCapError
from dpbilevel.gridwalk import chain
from dpbilevel.gridwalk.grid import build_grid, grid_with_cells
from dpbilevel.gridwalk.sampler import ENUM_STATE_CAP, SamplerPlan, seed_and_generator
from dpbilevel.hypergrad import approx_hypergradient
from dpbilevel.inner import phi_solution_pair, solve_lower_level
from dpbilevel.mechanisms import (
    MechanismResult,
    PrivacyBudget,
    _descent_overrides,
    _gd_schedule,
)


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


def neighbors(grid, flat: int) -> list:
    """Flat indices of the up-to-2d axis neighbors of cell flat."""
    coords = grid.unravel(flat)
    out = []
    for axis in range(grid.d):
        for sgn in (-1, 1):
            if 0 <= coords[axis] + sgn < grid.cells_per_axis:
                out.append(flat + sgn * int(grid._strides[axis]))
    return out


def grid_lipschitz(scores, grid) -> float:
    """Empirical sup-norm Lipschitz constant of a score table on its grid.

    The neighbor-by-neighbor loop the vectorized audit code must match.
    """
    worst = 0.0
    for i in range(grid.state_count):
        for j in neighbors(grid, i):
            worst = max(worst, abs(scores[i] - scores[j]))
    return worst / grid.gamma


def cholesky_hypergradient(p, Z, x, y):
    """The implicit gradient through scipy's cho_factor/cho_solve.

    The wrapped-SciPy computation the direct LAPACK calls in
    approx_hypergradient must reproduce bit for bit.
    """
    gx = np.asarray(p.grad_f_x(x, y, Z), dtype=float)
    gy = np.asarray(p.grad_f_y(x, y, Z), dtype=float)
    Hxy = np.asarray(p.hess_g_xy(x, y, Z), dtype=float)
    Hyy = np.asarray(p.hess_g_yy(x, y, Z), dtype=float)
    Hyy = 0.5 * (Hyy + Hyy.T)
    w = scipy.linalg.cho_solve(scipy.linalg.cho_factor(Hyy), gy)
    return gx - Hxy @ w


def domain_project(dom, x):
    """Domain.project from its defining formulas, bounds rebuilt on every call."""
    x = np.asarray(x, dtype=float)
    if dom.kind == "ball":
        v = x - dom.center
        r = np.linalg.norm(v)
        if r <= dom.radius:
            return x.copy()
        return dom.center + v * (dom.radius / r)
    return np.clip(x, dom.center - dom.half_widths, dom.center + dom.half_widths)


def domain_distance(dom, x):
    """Domain.distance as the norm of x minus its projection."""
    return float(np.linalg.norm(np.asarray(x, dtype=float) - domain_project(dom, x)))


def domain_gauge(dom, x):
    """Domain.gauge with the zero-width guard applied on every call."""
    v = np.asarray(x, dtype=float) - dom.center
    if dom.kind == "ball":
        if dom.radius == 0:
            return 0.0 if not np.any(v) else math.inf
        return float(np.linalg.norm(v)) / dom.radius
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dom.half_widths > 0, np.abs(v) / dom.half_widths,
                          np.where(v == 0, 0.0, math.inf))
    return float(np.max(ratios)) if ratios.size else 0.0


def domain_diameter(dom):
    """l2-diameter of a domain, recomputed from its shape."""
    if dom.kind == "ball":
        return 2.0 * float(dom.radius)
    return 2.0 * float(np.linalg.norm(dom.half_widths))


def transition_matrix_loop(f_values, grid) -> np.ndarray:
    """The dense lazy-Metropolis matrix by a loop over states and their neighbours.

    The scalar definition chain.transition_matrix's CSR must reproduce bit
    for bit.
    """
    f = np.asarray(f_values, dtype=float)
    n = grid.state_count
    P = np.zeros((n, n))
    base = 1.0 / (4.0 * grid.d)
    for x in range(n):
        for y in neighbors(grid, x):
            P[x, y] = base * math.exp(min(0.0, f[x] - f[y]))
        P[x, x] = 1.0 - P[x].sum()
    return P


def cut_conductance(P, pi, grid) -> float:
    """Exhaustive conductance from the flows of cut grid edges alone.

    Vectorised over all 2^n - 2 proper subsets, one neighbour pair at a
    time; every term added is nonnegative, so a tiny bottleneck flow keeps
    its relative accuracy.  Same mass rule as chain.conductance_exact.
    """
    n = grid.state_count
    ids = np.arange(1, (1 << n) - 1, dtype=np.int64)
    inside = [((ids >> i) & 1).astype(bool) for i in range(n)]
    mass = np.zeros(len(ids))
    flow = np.zeros(len(ids))
    for i in range(n):
        mass += np.where(inside[i], pi[i], 0.0)
        for j in neighbors(grid, i):
            flow += np.where(inside[i] & ~inside[j], pi[i] * P[i, j], 0.0)
    valid = (mass > 0) & (mass <= 0.5 + 1e-15)
    if not np.any(valid):
        return 1.0
    return float(np.min(flow[valid] / mass[valid]))


def dense_reducible(P) -> bool:
    """Reducibility from strong components of the dense pattern P > 0."""
    ncomp, _ = scipy.sparse.csgraph.connected_components(
        P > 0, directed=True, connection="strong")
    return ncomp > 1


def symmetrized_bands_nonzero(P, pi):
    """(bands, skew) of chain._symmetrized_lambda2 for a dense P, bandwidth from np.nonzero(P)."""
    n = len(pi)
    rows, cols = np.nonzero(P)
    width = int(np.max(np.abs(rows - cols), initial=0))
    root = np.sqrt(pi)
    bands = np.zeros((width + 1, n))
    skew = 0.0
    for k in range(width + 1):
        ratio = root[k:] / root[:n - k]
        below = ratio * np.diagonal(P, -k)
        above = np.diagonal(P, k) / ratio
        bands[k, :n - k] = 0.5 * (below + above)
        skew = max(skew, float(np.max(np.abs(below - above))))
    return bands, skew


def symmetrized_lambda2_nonzero(P, pi):
    """chain._symmetrized_lambda2 from a fresh, unmemoized banded solve.

    The bands, lambda_2 and skew the counted bandwidth must reproduce bit
    for bit.
    """
    bands, skew = symmetrized_bands_nonzero(P, pi)
    n = len(pi)
    lam2 = scipy.linalg.eig_banded(bands, lower=True, eigvals_only=True,
                                   select="i", select_range=(n - 2, n - 2))
    return float(lam2[0]), skew


def lambda_star_nonzero(P, pi) -> float:
    """chain._lambda_star of a dense P, with lambda_2 from symmetrized_lambda2_nonzero."""
    n = len(pi)
    if n < 2 or not np.all(pi > 0):
        return math.inf
    lam2, skew = symmetrized_lambda2_nonzero(P, pi)
    margin = chain.MARGIN_FACTOR * n * np.finfo(float).eps
    if skew > margin:
        return math.inf
    return max(lam2, 1.0 - 2.0 * float(np.min(np.diagonal(P)))) + margin


def certified_queries_nonzero(P, pi, accuracy, t):
    """(certified_mixing_steps, linf_mixing_distance) of a dense P.

    Both come from the closed forms in lambda_star_nonzero's lambda*; a
    distance the certificate does not put within chain.CERTIFIED_FLOOR is
    chain._exact_distance's, which takes P dense anyway.
    """
    lam = lambda_star_nonzero(P, pi)
    if not 0.0 < lam < 1.0:
        steps, bound = None, math.inf
    else:
        log_pi_min = math.log(float(np.min(pi)))
        target = math.log(-math.expm1(-accuracy)) + log_pi_min
        steps = max(1, math.ceil(target / math.log(lam)))
        log_ratio = t * math.log(lam) - log_pi_min
        bound = math.inf if log_ratio >= 0.0 else -math.log1p(-math.exp(log_ratio))
    if bound <= chain.CERTIFIED_FLOOR:
        return steps, bound
    return steps, chain._exact_distance(scipy.sparse.csr_array(P), pi, t)


def cheeger_interval(analysis) -> tuple[float, float]:
    """(gap/2, sqrt(2*gap)) bracket for an exact_chain's conductance.

    The spectral gap is 1 - lambda_2 on the stationary law's support, from
    chain._symmetrized_lambda2, so it shares the memoized banded eigensolve
    with any mixing query on the same chain.
    """
    P, pi = analysis.transition, analysis.stationary
    support = pi > 0
    if not np.all(support):
        P, pi = P[support][:, support], pi[support]
    gap = 1.0 - chain._symmetrized_lambda2(P, pi)[0] if len(pi) > 1 else 1.0
    return gap / 2.0, math.sqrt(2.0 * gap)


def full_descent(p, Z, a, eps, delta, x0=None, overrides=None, rng=0):
    """dp_second_order_gd as it ran every step: all T steps, then the pick.

    Each step draws its own noise row, standard_normal(d_x), and skips the
    draw at sigma = 0; the pick is drawn after the last step.  The trajectory
    holds all of x_0..x_T.  dp_second_order_gd must release the same x_out,
    ledger and budget and leave a passed Generator at the same position.
    """
    if eps <= 0:
        raise ConfigurationError("eps must be positive")
    if not (0.0 < delta < 1.0):
        raise ConfigurationError("delta must lie in (0, 1)")
    ov = _descent_overrides(overrides)
    seed, gen = seed_and_generator(rng)
    schedule = _gd_schedule(p, Z, a, eps, delta, ov)
    T, eta, alpha, sigma = (schedule[k] for k in ("T", "eta", "alpha", "sigma"))

    x = p.domain_x.project(np.asarray(
        p.domain_x.center if x0 is None else x0, dtype=float))
    trajectory = np.empty((T + 1, p.d_x))
    trajectory[0] = x
    warm = None
    for t in range(T):
        res = solve_lower_level(p, Z, x, alpha, a, warm_start=warm)
        warm = res.y
        query = approx_hypergradient(p, Z, x, res.y)
        noisy = query if sigma == 0.0 else query + sigma * gen.standard_normal(query.shape)
        x = p.domain_x.project(x - eta * noisy)
        trajectory[t + 1] = x
    pick = int(gen.integers(1, T + 1))
    x_out = trajectory[pick].copy()

    ledger = {
        "mechanism": "dp_second_order_gd",
        "eps": float(eps),
        "delta": float(delta),
        "seed": seed,
        "x0": trajectory[0].tolist(),
        "overrides": ov,
        "n": Z.n,
        "T": int(T),
        "eta": float(eta),
        "alpha": float(alpha),
        "sigma": float(sigma),
        "sigma_schedule": float(schedule["sigma_schedule"]),
        "gap_upper_bound": float(schedule["gap_upper_bound"]),
        "K": float(schedule["K"]),
        "C": float(schedule["C"]),
        "beta_phi": float(schedule["beta_phi"]),
        "picked_iterate": pick,
        "privacy_certified": bool(schedule["privacy_certified"]),
    }
    return MechanismResult(x_out, PrivacyBudget(eps, delta), ledger, trajectory)


def reference_plan(domain, alpha_lip, xi, zeta, force_walk=False) -> SamplerPlan:
    """plan_sampler as it planned before enumeration took the coarse grid.

    Three ways to a cell: "short_cube" (grid None) when alpha * tau < 1, the
    accuracy grid (enumerated, or walked when the walk budget is below its
    state count), and the coarse grid as a fallback when the accuracy grid
    exceeds WALK_STATE_CAP.  A planning reference only: the sampler has no
    short_cube arm.
    """
    if xi <= 0:
        raise ConfigurationError("xi must be positive")
    if zeta < 0:
        raise ConfigurationError("zeta must be nonnegative")
    tau = domain.inf_width
    d = domain.dim
    if alpha_lip <= 0.0:
        grid = grid_with_cells(domain, 1)
        branch = "walk" if force_walk else "enumerate"
        return SamplerPlan(branch, grid, 1 if force_walk else 0, alpha_lip, tau, xi, zeta)
    if alpha_lip * tau < 1.0 and not force_walk:
        return SamplerPlan("short_cube", None, 0, alpha_lip, tau, xi, zeta)
    acc = xi / 2.0
    try:
        grid = build_grid(domain, alpha_lip, acc)
    except SizeCapError:
        grid = None
    if grid is not None:
        if force_walk or grid.state_count > ENUM_STATE_CAP:
            steps = chain.mixing_time_bound(alpha_lip, tau, d, acc, zeta)
            if force_walk or steps < grid.state_count:
                return SamplerPlan("walk", grid, steps, alpha_lip, tau, xi, zeta)
        return SamplerPlan("enumerate", grid, 0, alpha_lip, tau, xi, zeta)
    if not force_walk:
        m_min = max(1, int(math.ceil(2.0 * alpha_lip * tau)))
        if m_min**d <= ENUM_STATE_CAP:
            coarse = grid_with_cells(domain, m_min)
            return SamplerPlan("enumerate", coarse, 0, alpha_lip, tau, xi, zeta)
    raise SizeCapError("no feasible grid")


def any_zeta_plan(domain, alpha_lip, xi, zeta, force_walk=False) -> SamplerPlan:
    """plan_sampler as it planned while it took any zeta.

    One cell at alpha * tau < 1 where that cell does not clip or 2^d exceeds
    ENUM_STATE_CAP, else the coarse grid within ENUM_STATE_CAP at
    zeta <= 3/8 or two cells per axis; otherwise the accuracy grid,
    enumerated unless its walk budget is below its state count, with the
    coarse grid as the fallback past WALK_STATE_CAP.  No step cap.  A
    planning reference only.
    """
    tau = domain.inf_width
    d = domain.dim
    if alpha_lip <= 0.0 and force_walk:
        return SamplerPlan("walk", grid_with_cells(domain, 1), 1, alpha_lip, tau, xi, zeta)
    m = max(1, int(math.ceil(2.0 * alpha_lip * tau)))
    if alpha_lip * tau < 1.0 and (alpha_lip * tau / 2.0 + 2.0 * zeta <= 1.0
                                  or 2**d > ENUM_STATE_CAP):
        m = 1
    coarse = None
    if not force_walk and m**d <= ENUM_STATE_CAP:
        coarse = SamplerPlan("enumerate", grid_with_cells(domain, m), 0, alpha_lip, tau, xi, zeta)
        if zeta <= 3.0 / 8.0 or m <= 2:
            return coarse
    acc = xi / 2.0
    try:
        grid = build_grid(domain, alpha_lip, acc)
    except SizeCapError:
        if coarse is not None:
            return coarse
        raise
    if force_walk or grid.state_count > ENUM_STATE_CAP:
        try:
            steps = chain.mixing_time_bound(alpha_lip, tau, d, acc, zeta)
        except OverflowError:
            raise SizeCapError("walk step budget exceeds float range") from None
        if force_walk or steps < grid.state_count:
            return SamplerPlan("walk", grid, steps, alpha_lip, tau, xi, zeta)
    return SamplerPlan("enumerate", grid, 0, alpha_lip, tau, xi, zeta)
