"""Ground-truth consistency of the closed-form test instances."""

import dataclasses

import numpy as np
import pytest

from dpbilevel.errors import ConfigurationError
from dpbilevel.hypergrad import approx_hypergradient
from dpbilevel.inner import solve_lower_level
from dpbilevel.instances import (
    make_instance,
    make_packed_hard_dataset,
    sample_hard_dataset,
)
from dpbilevel.problem import (
    AssumptionConstants,
    BilevelProblem,
    Dataset,
    Domain,
    probe_assumptions,
)
from oracles import finite_diff_phi_gradient

CASES = [
    ("hard", {"d": 2}, 12),
    ("quadratic", {"d_x": 2, "d_y": 3}, 10),
    ("ridge", {"feature_dim": 2}, 16),
]


@pytest.fixture(scope="module", params=CASES, ids=[c[0] for c in CASES])
def case(request):
    name, params, n = request.param
    fx = make_instance(name, **params)
    return fx, fx.sample_dataset(n, seed=5)


def probe_points(fx, Z, k=4):
    rng = np.random.default_rng(9)
    return [fx.problem.domain_x.sample_uniform(rng) for _ in range(k)]


def test_y_star_agrees_with_a_tight_solve(case):
    fx, Z = case
    for x in probe_points(fx, Z):
        y_closed = fx.y_star(x, Z)
        res = solve_lower_level(fx.problem, Z, x, 1e-8, fx.constants)
        np.testing.assert_allclose(res.y, y_closed, atol=1e-6)


def test_phi_is_the_value_at_y_star(case):
    fx, Z = case
    for x in probe_points(fx, Z):
        direct = fx.problem.f(x, fx.y_star(x, Z), Z)
        assert fx.phi(x, Z) == pytest.approx(float(direct), rel=1e-10, abs=0.0)


def test_minimizer_attains_the_reported_optimum(case):
    fx, Z = case
    if fx.x_star is None:
        pytest.skip("no closed-form minimizer")
    xs = fx.x_star(Z)
    assert fx.problem.domain_x.contains(xs, tol=1e-9)
    assert fx.phi(xs, Z) == pytest.approx(fx.phi_star(Z), rel=1e-10, abs=0.0)
    # and no probe point does better
    for x in probe_points(fx, Z):
        assert fx.phi(x, Z) >= fx.phi_star(Z) - 1e-10


def test_grad_phi_matches_finite_differences(case):
    fx, Z = case
    rng = np.random.default_rng(3)
    # stay strictly inside so the difference quotient never leaves the domain
    x = 0.5 * fx.problem.domain_x.sample_uniform(rng)
    closed = fx.grad_phi(x, Z)
    fd = finite_diff_phi_gradient(fx.problem, Z, x, 1e-5, 1e-12,
                                  fx.constants)
    np.testing.assert_allclose(closed, fd, rtol=2e-4, atol=2e-6)


def test_hypergradient_formula_agrees_at_solution(case):
    fx, Z = case
    rng = np.random.default_rng(4)
    x = 0.5 * fx.problem.domain_x.sample_uniform(rng)
    hyper = approx_hypergradient(fx.problem, Z, x, fx.y_star(x, Z))
    np.testing.assert_allclose(hyper, fx.grad_phi(x, Z), atol=1e-7)


def test_declared_constants_survive_probing(case):
    fx, Z = case
    report = probe_assumptions(fx.problem, fx.constants, Z, trials=60)
    assert report.ok, report.violations


def violated(report):
    return {v["name"] for v in report.violations}


def test_probe_flags_understated_curvature(case):
    fx, Z = case
    halved = dataclasses.replace(fx.constants, beta_gyy=fx.constants.beta_gyy / 2)
    assert "beta_gyy" in violated(probe_assumptions(fx.problem, halved, Z, trials=60))


def test_probe_checks_the_callbacks_mechanisms_run():
    # doubling the callback the solver and hypergradient call must be caught
    fx = make_instance("hard", d=2)
    Z = fx.sample_dataset(12, seed=5)
    grad_f_y = fx.problem.grad_f_y
    doubled = dataclasses.replace(fx.problem,
                                  grad_f_y=lambda x, y, Z_: 2 * grad_f_y(x, y, Z_))
    assert "L_fy" in violated(probe_assumptions(doubled, fx.constants, Z, trials=60))


#: constants loose enough that only batch_consistency can fail
LOOSE = AssumptionConstants(
    L_fx=100.0, L_fy=100.0, mu_g=1.0, L_gy=100.0, beta_fyy=100.0, beta_fxx=100.0,
    beta_fxy=100.0, beta_gxy=100.0, beta_gyy=100.0, M_gxy=100.0, M_gyy=100.0,
    C_gxy=100.0, C_gyy=100.0, D_x=2.0, D_y=8.0)


def readme_problem(f, grad_g_y):
    """The README's custom problem, with its f and grad_g_y swapped in."""
    return BilevelProblem(
        d_x=2, d_y=2,
        f=f,
        grad_f_x=lambda x, y, Z: np.zeros(np.shape(x)),
        grad_f_y=lambda x, y, Z: y - Z.points[:, :2].mean(axis=0),
        grad_g_y=grad_g_y or (lambda x, y, Z: y - x - Z.points[:, 2:].mean(axis=0)),
        hess_g_xy=lambda x, y, Z: -np.eye(2),
        hess_g_yy=lambda x, y, Z: np.eye(2),
        domain_x=Domain("ball", np.zeros(2), radius=1.0),
        y_box=Domain("box", np.zeros(2), half_widths=np.full(2, 2.0)),
    )


def broadcast_f(x, y, Z):
    return 0.5 * np.mean(np.sum((y[..., None, :] - Z.points[:, :2]) ** 2, axis=-1), axis=-1)


def pointwise_f(x, y, Z):
    # subtracts the records from y: with a batch it pairs batch rows with
    # records instead of averaging each row over all of them
    return 0.5 * float(np.mean(np.sum((y - Z.points[:, :2]) ** 2, axis=1)))


def first_axis_grad_g_y(x, y, Z):
    # indexes coordinates along the first axis, which on a batch of two
    # picks rows instead and still returns a (2, 2) result
    c = Z.points[:, 2:].mean(axis=0)
    return np.stack([y[0] - x[0] - c[0], y[1] - x[1] - c[1]])


@pytest.mark.parametrize("f, grad_g_y, bad", [
    (broadcast_f, None, None),
    (pointwise_f, None, "f"),
    (broadcast_f, first_axis_grad_g_y, "grad_g_y"),
], ids=["broadcasting", "records_paired_with_rows", "right_shape_wrong_rows"])
def test_probe_flags_callbacks_that_do_not_broadcast(f, grad_g_y, bad):
    Z = Dataset(np.random.default_rng(3).uniform(-0.5, 0.5, size=(2, 4)))
    p = readme_problem(f, grad_g_y)
    report = probe_assumptions(p, LOOSE, Z, trials=2)
    flagged = [v["witness"]["callback"] for v in report.violations
               if v["name"] == "batch_consistency"]
    assert flagged == ([] if bad is None else [bad])


def test_probe_records_a_check_whose_worst_ratio_is_zero():
    # every fixture's stacked and per-point calls agree bit for bit: checked
    # and exact must read 0.0, not a missing key
    for d in (1, 2, 3):
        for name, params in (("hard", {"d": d}), ("quadratic", {"d_x": d, "d_y": d}),
                             ("ridge", {"feature_dim": d})):
            fx = make_instance(name, **params)
            report = probe_assumptions(fx.problem, fx.constants,
                                       fx.sample_dataset(16, seed=5), trials=60)
            assert report.ratios["batch_consistency"] == 0.0, (name, d)


def test_datasets_are_deterministic_per_seed(case):
    fx, _ = case
    A = fx.sample_dataset(8, seed=11)
    B = fx.sample_dataset(8, seed=11)
    C = fx.sample_dataset(8, seed=12)
    np.testing.assert_array_equal(A.points, B.points)
    assert not np.array_equal(A.points, C.points)


# ---------------------------------------------------------------------------
# hard-instance datasets
# ---------------------------------------------------------------------------

def test_hard_records_have_unit_norm():
    Z = sample_hard_dataset(32, d=3, seed=0)
    np.testing.assert_allclose(np.linalg.norm(Z.points, axis=1), 1.0,
                               rtol=1e-12)


@pytest.mark.parametrize("n,m", [(8, 2), (16, 4), (50, 10)])
def test_packed_dataset_mean_norm_is_exact(n, m):
    Z = make_packed_hard_dataset(n, d=2, m_packed=m, seed=1)
    assert Z.n == n
    np.testing.assert_allclose(np.linalg.norm(Z.points, axis=1), 1.0,
                               rtol=1e-12)
    # the packing is engineered so the record mean has norm exactly m/n
    mean = Z.points.mean(axis=0)
    assert np.linalg.norm(mean) == pytest.approx(m / n, rel=1e-12, abs=0.0)


def test_packed_dataset_validation():
    with pytest.raises(ConfigurationError):
        make_packed_hard_dataset(8, d=2, m_packed=3)  # n - m odd
    with pytest.raises(ConfigurationError):
        make_packed_hard_dataset(8, d=2, m_packed=10)  # m > n
    # m = 0 is the balanced edge case: the mean cancels exactly
    balanced = make_packed_hard_dataset(8, d=2, m_packed=0, seed=3)
    assert np.linalg.norm(balanced.points.mean(axis=0)) == pytest.approx(0.0,
                                                                         abs=1e-15)


def test_unknown_instance_name_rejected():
    with pytest.raises(ConfigurationError):
        make_instance("cubic")
