"""Lower-level solver certificates and the implicit gradient."""

import dataclasses

import numpy as np
import pytest

from dpbilevel import inner
from dpbilevel.errors import (AssumptionViolationError, ConfigurationError,
                              NonConvergenceError)
from dpbilevel.hypergrad import approx_hypergradient
from dpbilevel.inner import phi_solution_pair, solve_lower_level
from dpbilevel.instances import make_instance
from dpbilevel.problem import BilevelProblem, Dataset, Domain, derive_constants
from dpbilevel.rng import make_generator
from oracles import cholesky_hypergradient, finite_diff_phi_gradient


@pytest.fixture(scope="module")
def quad():
    fx = make_instance("quadratic", d_x=2, d_y=3, seed=0)
    return fx, fx.sample_dataset(12, seed=1)


@pytest.fixture(scope="module")
def ridge():
    fx = make_instance("ridge", feature_dim=2, seed=0)
    return fx, fx.sample_dataset(24, seed=2)


def random_x(fx, rng):
    return fx.problem.domain_x.project(
        rng.normal(size=fx.problem.d_x) * 0.4 * fx.constants.D_x
        + fx.problem.domain_x.center)


# ---------------------------------------------------------------------------
# inner solver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [1e-2, 1e-5, 1e-8])
def test_certificate_bounds_true_distance(quad, alpha):
    fx, Z = quad
    rng = make_generator(10)
    for _ in range(5):
        x = random_x(fx, rng)
        res = solve_lower_level(fx.problem, Z, x, alpha, fx.constants)
        y_true = fx.y_star(x, Z)
        assert res.certified_error <= alpha
        assert np.linalg.norm(res.y - y_true) <= res.certified_error + 1e-12


def test_warm_start_skips_iterations(quad):
    fx, Z = quad
    x = np.array([0.3, -0.2])
    cold = solve_lower_level(fx.problem, Z, x, 1e-7, fx.constants)
    warm = solve_lower_level(fx.problem, Z, x, 1e-7, fx.constants,
                             warm_start=cold.y)
    assert warm.iterations == 0
    np.testing.assert_array_equal(warm.y, cold.y)


def test_budget_exhaustion_raises(quad, monkeypatch):
    fx, Z = quad
    monkeypatch.setattr(inner, "default_max_iters", lambda a, y_box, alpha: 0)
    with pytest.raises(NonConvergenceError):
        solve_lower_level(fx.problem, Z, np.array([0.9, 0.1]), 1e-12,
                          fx.constants)


def test_certified_warm_start_never_sizes_the_budget(quad, monkeypatch):
    fx, Z = quad
    x = np.array([0.3, -0.2])
    y = solve_lower_level(fx.problem, Z, x, 1e-7, fx.constants).y

    def unreachable(a, y_box, alpha):
        raise AssertionError("budget sized for a solve that certified at iteration 0")

    monkeypatch.setattr(inner, "default_max_iters", unreachable)
    warm = solve_lower_level(fx.problem, Z, x, 1e-7, fx.constants, warm_start=y)
    assert warm.iterations == 0
    np.testing.assert_array_equal(warm.y, y)


def test_alpha_must_be_positive(quad):
    fx, Z = quad
    with pytest.raises(ConfigurationError):
        solve_lower_level(fx.problem, Z, np.zeros(2), 0.0, fx.constants)


def test_phi_evaluation_within_declared_error(quad):
    fx, Z = quad
    rng = make_generator(3)
    for zeta in (1e-2, 1e-4, 1e-6):
        x = random_x(fx, rng)
        approx = phi_solution_pair(fx.problem, Z, x, zeta, fx.constants)[0]
        assert abs(approx - fx.phi(x, Z)) <= zeta


def test_phi_solution_pair_returns_consistent_pair(ridge):
    fx, Z = ridge
    x = np.array([0.5, -1.0])
    value, y = phi_solution_pair(fx.problem, Z, x, 1e-6, fx.constants)
    # the returned value is f evaluated at the returned (tight) solution
    assert value == pytest.approx(fx.problem.f(x, y, Z))


# ---------------------------------------------------------------------------
# hypergradient
# ---------------------------------------------------------------------------

def test_exact_at_lower_level_solution(quad):
    fx, Z = quad
    rng = make_generator(8)
    for _ in range(10):
        x = random_x(fx, rng)
        hg = approx_hypergradient(fx.problem, Z, x, fx.y_star(x, Z))
        np.testing.assert_allclose(hg, fx.grad_phi(x, Z), rtol=1e-9, atol=1e-12)


def test_matches_finite_differences_ridge(ridge):
    fx, Z = ridge
    rng = make_generator(12)
    for _ in range(5):
        x = random_x(fx, rng)
        res = solve_lower_level(fx.problem, Z, x, 1e-10, fx.constants)
        hg = approx_hypergradient(fx.problem, Z, x, res.y)
        fd = finite_diff_phi_gradient(fx.problem, Z, x, 1e-5, 1e-10, fx.constants)
        scale = max(np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(hg - fd) / scale < 1e-3


def test_bias_linear_in_inner_error(quad):
    # perturbing y away from y* moves the estimate by at most C * ||dy||;
    # the quadratic fixture has C = 0 (constant Hessians, linear-in-y f),
    # so the estimate must not move at all
    fx, Z = quad
    C = derive_constants(fx.constants, Z.n).C
    assert C == 0.0
    x = np.array([0.2, 0.6])
    y_true = fx.y_star(x, Z)
    base = approx_hypergradient(fx.problem, Z, x, y_true)
    rng = make_generator(4)
    for r in (1e-1, 1e-2, 1e-3):
        dy = rng.normal(size=y_true.size)
        dy *= r / np.linalg.norm(dy)
        moved = approx_hypergradient(fx.problem, Z, x, y_true + dy)
        assert np.linalg.norm(moved - base) <= C * r + 1e-12


def test_bias_bound_on_ridge(ridge):
    # ridge has genuinely y-dependent Hessians, so C > 0 and the sweep bites
    fx, Z = ridge
    C = derive_constants(fx.constants, Z.n).C
    assert C > 0
    rng = make_generator(5)
    x = np.array([1.0, -0.5])
    y_true = solve_lower_level(fx.problem, Z, x, 1e-12, fx.constants).y
    base = approx_hypergradient(fx.problem, Z, x, y_true)
    for r in (1e-1, 1e-2, 1e-3):
        for _ in range(5):
            dy = rng.normal(size=y_true.size)
            dy *= r / np.linalg.norm(dy)
            y = fx.problem.y_box.project(y_true + dy)
            moved = approx_hypergradient(fx.problem, Z, x, y)
            shift = np.linalg.norm(y - y_true)
            assert np.linalg.norm(moved - base) <= C * shift + 1e-10


def fixed_problem(gx, gy, Hxy, Hyy):
    """A problem whose hypergradient inputs are the given arrays at every point."""
    d_x, d_y = len(gx), len(gy)
    return BilevelProblem(
        d_x=d_x, d_y=d_y,
        f=lambda x, y, Z: 0.0,
        grad_f_x=lambda x, y, Z: gx,
        grad_f_y=lambda x, y, Z: gy,
        grad_g_y=lambda x, y, Z: np.zeros(d_y),
        hess_g_xy=lambda x, y, Z: Hxy,
        hess_g_yy=lambda x, y, Z: Hyy,
        domain_x=Domain("ball", np.zeros(d_x), radius=1.0),
        y_box=Domain("box", np.zeros(d_y), half_widths=np.ones(d_y)),
    )


def assert_same_as_cho_solve(p, Z, x, y):
    hg = approx_hypergradient(p, Z, x, y)
    assert hg.tobytes() == cholesky_hypergradient(p, Z, x, y).tobytes()


@pytest.mark.parametrize("d_y", [1, 2, 3, 5])
def test_lapack_solve_bitwise_equals_cho_solve_random_spd(d_y):
    rng = make_generator(100 + d_y)
    Z = Dataset(np.zeros((1, 1)))
    for _ in range(20):
        B = rng.normal(size=(d_y, d_y))
        # SPD up to an asymmetric rounding-sized perturbation the solver symmetrizes
        Hyy = B @ B.T + 0.1 * np.eye(d_y) + 1e-13 * rng.normal(size=(d_y, d_y))
        p = fixed_problem(rng.normal(size=3), rng.normal(size=d_y),
                          rng.normal(size=(3, d_y)), Hyy)
        assert_same_as_cho_solve(p, Z, np.zeros(3), np.zeros(d_y))


def test_lapack_solve_bitwise_equals_cho_solve_on_instances(quad, ridge):
    for fx, Z in (quad, ridge):
        rng = make_generator(21)
        for _ in range(8):
            x = random_x(fx, rng)
            y = fx.problem.y_box.project(
                solve_lower_level(fx.problem, Z, x, 1e-6, fx.constants).y
                + 0.1 * rng.normal(size=fx.problem.d_y))
            assert_same_as_cho_solve(fx.problem, Z, x, y)


def test_indefinite_hessian_is_an_assumption_violation():
    Hyy = np.array([[1.0, 0.0], [0.0, -1e-3]])
    p = fixed_problem(np.zeros(1), np.ones(2), np.ones((1, 2)), Hyy)
    with pytest.raises(AssumptionViolationError, match="not positive definite"):
        approx_hypergradient(p, Dataset(np.zeros((1, 1))), np.zeros(1), np.zeros(2))


@pytest.mark.parametrize("where", ["hessian", "gradient"])
def test_non_finite_input_raises_value_error(where):
    Hyy, gy = np.eye(2), np.ones(2)
    if where == "hessian":
        Hyy[0, 1] = np.nan
    else:
        gy[1] = np.inf
    p = fixed_problem(np.zeros(1), gy, np.ones((1, 2)), Hyy)
    with pytest.raises(ValueError, match="infs or NaNs"):
        approx_hypergradient(p, Dataset(np.zeros((1, 1))), np.zeros(1), np.zeros(2))


# ---------------------------------------------------------------------------
# batches: one lockstep solve and one stacked hypergradient
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hard():
    fx = make_instance("hard", d=2)
    return fx, fx.sample_dataset(16, seed=3)


def random_batch(fx, rng, B):
    return np.array([random_x(fx, rng) for _ in range(B)])


@pytest.mark.parametrize("alpha", [1e-2, 1e-6, 1e-10])
@pytest.mark.parametrize("case", ["hard", "quad", "ridge"])
def test_batch_rows_equal_point_solves_from_the_centre(case, alpha, request):
    fx, Z = request.getfixturevalue(case)
    X = random_batch(fx, make_generator(30), 9)
    batch = solve_lower_level(fx.problem, Z, X, alpha, fx.constants)
    assert batch.y.shape == (9, fx.problem.d_y)
    assert batch.certified_error.shape == (9,)
    assert type(batch.iterations) is int
    points = [solve_lower_level(fx.problem, Z, x, alpha, fx.constants) for x in X]
    assert batch.iterations == sum(r.iterations for r in points)
    for row, point in enumerate(points):
        np.testing.assert_allclose(batch.y[row], point.y, rtol=0.0, atol=1e-12)
        assert batch.certified_error[row] == point.certified_error
        assert batch.certified_error[row] <= alpha


def test_batch_of_one_matches_the_point_solve(ridge):
    fx, Z = ridge
    x = np.array([0.5, -1.0])
    point = solve_lower_level(fx.problem, Z, x, 1e-9, fx.constants)
    one = solve_lower_level(fx.problem, Z, x[None], 1e-9, fx.constants)
    assert one.y.shape == (1, 2) and one.certified_error.shape == (1,)
    assert one.y[0].tobytes() == point.y.tobytes()
    assert one.certified_error[0] == point.certified_error
    assert one.iterations == point.iterations


def test_batch_nonconvergence_names_the_row(quad, monkeypatch):
    fx, Z = quad
    X = np.array([[0.3, -0.2], [0.9, 0.1], [0.1, 0.1]])
    solved = solve_lower_level(fx.problem, Z, X[0], 1e-10, fx.constants).y
    # row 0 starts at its own solution and certifies without a step; row 1
    # starts at the centre and has no budget
    warm = np.array([solved, fx.problem.y_box.center, solved])
    monkeypatch.setattr(inner, "default_max_iters", lambda a, y_box, alpha: 0)
    with pytest.raises(NonConvergenceError, match="row 1"):
        solve_lower_level(fx.problem, Z, X, 1e-10, fx.constants, warm_start=warm)


@pytest.mark.parametrize("case", ["hard", "quad", "ridge"])
def test_stacked_hypergradient_equals_point_function(case, request):
    fx, Z = request.getfixturevalue(case)
    rng = make_generator(31)
    X = random_batch(fx, rng, 7)
    Y = np.array([fx.problem.y_box.sample_uniform(rng) for _ in X])
    stack = approx_hypergradient(fx.problem, Z, X, Y)
    assert stack.shape == (7, fx.problem.d_x)
    for x, y, vector in zip(X, Y, stack):
        point = approx_hypergradient(fx.problem, Z, x, y)
        np.testing.assert_allclose(vector, point, rtol=1e-12, atol=1e-12)


def stacked_problem(Hyy, gy=None):
    """Hypergradient inputs as fixed stacks, one row per batch point."""
    B, d_y = Hyy.shape[:2]
    gy = np.ones((B, d_y)) if gy is None else gy
    return BilevelProblem(
        d_x=1, d_y=d_y,
        f=lambda x, y, Z: np.zeros(len(x)),
        grad_f_x=lambda x, y, Z: np.zeros((len(x), 1)),
        grad_f_y=lambda x, y, Z: gy,
        grad_g_y=lambda x, y, Z: np.zeros_like(y),
        hess_g_xy=lambda x, y, Z: np.ones((1, d_y)),
        hess_g_yy=lambda x, y, Z: Hyy,
        domain_x=Domain("ball", np.zeros(1), radius=1.0),
        y_box=Domain("box", np.zeros(d_y), half_widths=np.ones(d_y)),
    )


def test_stacked_indefinite_row_is_named():
    Hyy = np.stack([np.eye(2)] * 4)
    Hyy[2] = [[1.0, 0.0], [0.0, -1e-3]]
    p = stacked_problem(Hyy)
    with pytest.raises(AssumptionViolationError, match="row 2"):
        approx_hypergradient(p, Dataset(np.zeros((1, 1))), np.zeros((4, 1)), np.zeros((4, 2)))


@pytest.mark.parametrize("where", ["hessian", "gradient"])
def test_stacked_non_finite_input_raises_value_error(where):
    Hyy, gy = np.stack([np.eye(2)] * 3), np.ones((3, 2))
    if where == "hessian":
        Hyy[1, 0, 1] = np.nan
    else:
        gy[2, 1] = np.inf
    p = stacked_problem(Hyy, gy)
    with pytest.raises(ValueError, match="infs or NaNs"):
        approx_hypergradient(p, Dataset(np.zeros((1, 1))), np.zeros((3, 1)), np.zeros((3, 2)))


def test_callback_that_does_not_broadcast_is_named(quad):
    fx, Z = quad
    grad_g_y = fx.problem.grad_g_y
    # a per-point formula that drops the batch axis
    flat = dataclasses.replace(fx.problem,
                               grad_g_y=lambda x, y, Z_: grad_g_y(x, y, Z_).mean(axis=0))
    X = random_batch(fx, make_generator(32), 3)
    with pytest.raises(ConfigurationError, match="grad_g_y"):
        solve_lower_level(flat, Z, X, 1e-6, fx.constants)
    grad_f_x = fx.problem.grad_f_x
    flat = dataclasses.replace(fx.problem,
                               grad_f_x=lambda x, y, Z_: grad_f_x(x, y, Z_)[0])
    with pytest.raises(ConfigurationError, match="grad_f_x"):
        approx_hypergradient(flat, Z, X, np.zeros((3, fx.problem.d_y)))
