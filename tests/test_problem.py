"""Domains, datasets, declared constants, and the derived closed forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbilevel.errors import ConfigurationError
from dpbilevel.gridwalk.evaluator import ExtendedEvaluator
from dpbilevel.mechanisms import _constant_evaluator
from dpbilevel.problem import AssumptionConstants, Dataset, Domain, derive_constants
from oracles import domain_diameter, domain_distance, domain_gauge, domain_project


def all_ones(**overrides):
    base = dict(
        L_fx=1.0, L_fy=1.0, mu_g=1.0, L_gy=1.0,
        beta_fyy=1.0, beta_fxx=1.0, beta_fxy=1.0,
        beta_gxy=1.0, beta_gyy=1.0,
        M_gxy=1.0, M_gyy=1.0, C_gxy=1.0, C_gyy=1.0,
        D_x=1.0, D_y=1.0,
    )
    base.update(overrides)
    return AssumptionConstants(**base)


# ---------------------------------------------------------------------------
# derived constants: hand-substituted values
# ---------------------------------------------------------------------------

def test_derived_constants_all_ones_n10():
    der = derive_constants(all_ones(), n=10)
    assert der.s == pytest.approx(4.4, rel=1e-15, abs=0.0)
    assert der.L_bar == 2.0
    assert der.C == 4.0
    assert der.K == 18.0
    assert der.beta_phi == 8.0
    assert der.G == 3.0
    assert der.Psi == 3.0


def test_derived_constants_mu2_small_domains():
    a = all_ones(mu_g=2.0, D_x=0.5, D_y=0.5)
    der = derive_constants(a, n=4)
    assert der.s == pytest.approx(0.5 * (0.5 + 0.5) + 4.0 * 1.0 / 2.0,
                                  rel=1e-15, abs=0.0)
    assert der.s == pytest.approx(2.5, rel=1e-15, abs=0.0)


def test_derive_constants_rejects_bad_n():
    with pytest.raises(ConfigurationError):
        derive_constants(all_ones(), n=0)


@given(c=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_scale_covariance(c):
    # s, L_bar, Psi are degree-1 in the upper objective's gradient bounds;
    # G is degree-1 in (L_fx, L_fy, L_gy) jointly
    base = derive_constants(all_ones(), n=7)
    f_scaled = derive_constants(all_ones(L_fx=c, L_fy=c), n=7)
    assert f_scaled.s == pytest.approx(c * base.s, rel=1e-12, abs=0.0)
    assert f_scaled.L_bar == pytest.approx(c * base.L_bar, rel=1e-12, abs=0.0)
    assert f_scaled.Psi == pytest.approx(c * base.Psi, rel=1e-12, abs=0.0)
    all_scaled = derive_constants(
        all_ones(L_fx=c, L_fy=c, L_gy=c, D_y=min(1.0, c)), n=7)
    assert all_scaled.G == pytest.approx(c * base.G, rel=1e-12, abs=0.0)


def test_assumption_constants_validation():
    with pytest.raises(ConfigurationError):
        all_ones(mu_g=0.0)
    with pytest.raises(ConfigurationError):
        all_ones(L_fy=-1.0)
    # reachable-solution bound: D_y cannot exceed L_gy / mu_g
    with pytest.raises(ConfigurationError):
        all_ones(D_y=3.0)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

def test_ball_projection_and_gauge():
    dom = Domain("ball", np.zeros(2), radius=2.0)
    np.testing.assert_allclose(dom.project(np.array([6.0, 8.0])),
                               np.array([1.2, 1.6]))
    assert dom.gauge(np.array([1.0, 0.0])) == 0.5
    assert dom.contains(np.array([2.0, 0.0]))
    assert not dom.contains(np.array([2.0001, 0.0]))
    assert dom.diameter == 4.0
    assert dom.inf_width == 4.0


def test_box_projection_distance():
    dom = Domain("box", np.array([1.0, -1.0]), half_widths=np.array([1.0, 0.5]))
    assert dom.distance(np.array([3.0, -1.0])) == pytest.approx(1.0)
    assert dom.max_norm() == pytest.approx(math.hypot(2.0, 1.5))
    assert dom.gauge_lip2() == pytest.approx(2.0)


@given(st.integers(min_value=1, max_value=5), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_projection_idempotent_nonexpansive(d, seed):
    rng = np.random.default_rng(seed)
    dom = Domain("ball", rng.normal(size=d), radius=float(rng.uniform(0.1, 3.0)))
    x = rng.normal(size=d) * 4.0
    y = rng.normal(size=d) * 4.0
    px, py = dom.project(x), dom.project(y)
    np.testing.assert_allclose(dom.project(px), px, atol=1e-12)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


ORACLE_DOMAINS = {
    "ball": Domain("ball", np.array([0.5, -1.0, 2.0]), radius=1.5),
    "point_ball": Domain("ball", np.array([0.5, -1.0]), radius=0.0),
    "box": Domain("box", np.array([1.0, -1.0, 0.25]),
                  half_widths=np.array([1.0, 0.5, 2.0])),
    "flat_box": Domain("box", np.array([1.0, -1.0, 0.25]),
                       half_widths=np.array([1.0, 0.0, 2.0])),
}


def oracle_points(dom, rng):
    """Inside, boundary and outside points, plus the center and the corners."""
    d = dom.dim
    if dom.kind == "ball":
        directions = rng.normal(size=(12, d))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        scales = [0.0, 0.3, 1.0, 1.0 + 1e-15, 2.5]
        steps = [dom.radius * s * u for s in scales for u in directions]
    else:
        signs = rng.choice([-1.0, 0.0, 1.0], size=(24, d))
        scales = [0.3, 1.0, 1.0 + 1e-15, 2.5]
        steps = [dom.half_widths * s * u for s in scales for u in signs]
        steps += [dom.half_widths * rng.uniform(-3, 3, size=d) for _ in range(24)]
        steps += [np.eye(d)[k] * 0.7 for k in range(d)]  # off a zero-width axis too
    return [dom.center + step for step in steps]


@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_domain_matches_per_call_formulas(name):
    dom = ORACLE_DOMAINS[name]
    assert dom.diameter == domain_diameter(dom)
    points = oracle_points(dom, np.random.default_rng(len(name)))
    for x in points:
        assert dom.project(x).tobytes() == domain_project(dom, x).tobytes()
        assert dom.distance(x) == domain_distance(dom, x)
        assert dom.gauge(x) == domain_gauge(dom, x)
        assert type(dom.distance(x)) is float and type(dom.gauge(x)) is float
    # the batch methods agree with the point methods row for row: in-body
    # rows stay put, and zero widths get the same 0-or-inf guard
    X = np.array(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = zip(points, dom.project_many(X), dom.distance_many(X), dom.gauge_many(X))
    for x, proj, dist, gauge in rows:
        assert proj.tobytes() == dom.project(x).tobytes()
        assert dist == dom.distance(x)
        assert gauge == dom.gauge(x)


@pytest.mark.parametrize("name", ["ball", "box"])
def test_extension_point_and_batch_equal_bit_for_bit(name):
    # the projection distance and the gauge of a batch row are taken with
    # the same dot as the point path, inside the body and outside it
    dom = ORACLE_DOMAINS[name]
    ext = ExtendedEvaluator(_constant_evaluator(), dom, L_lip2=1.0)
    points = [x for seed in range(4) for x in oracle_points(dom, np.random.default_rng(seed))]
    inside = [dom.gauge(x) <= 1.0 for x in points]
    assert any(inside) and not all(inside)
    table = ext.evaluate_many(np.array(points))
    for x, row in zip(points, table):
        assert ext.eval(x) == ext.evaluate_many(x[None])[0] == row


def test_unknown_domain_kind():
    with pytest.raises(ConfigurationError):
        Domain("simplex", np.zeros(2))


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def test_dataset_replaced_is_adjacent():
    Z = Dataset(np.arange(6.0).reshape(3, 2))
    Z2 = Z.replaced(1, np.array([9.0, 9.0]))
    assert Z.n == Z2.n == 3
    np.testing.assert_array_equal(Z.points[1], [2.0, 3.0])  # original untouched
    np.testing.assert_array_equal(Z2.points[1], [9.0, 9.0])
    diff = np.any(Z.points != Z2.points, axis=1)
    assert diff.sum() == 1


def test_dataset_1d_records_get_a_column():
    Z = Dataset(np.array([1.0, -1.0, 1.0]))
    assert Z.points.shape == (3, 1)


def test_empty_dataset_rejected():
    with pytest.raises(ConfigurationError):
        Dataset(np.zeros((0, 2)))
