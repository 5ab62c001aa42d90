"""Budget accounting, schedules, and replay for the private mechanisms."""

import inspect
import json
import math
import re
import time
import warnings

import numpy as np
import pytest

from dpbilevel import mechanisms
from dpbilevel.errors import ConfigurationError, SizeCapError
from dpbilevel.gridwalk import engine as engine_module
from dpbilevel.gridwalk import evaluator as evaluator_module
from dpbilevel.gridwalk import sampler as sampler_module
from dpbilevel.gridwalk.evaluator import ExtendedEvaluator
from dpbilevel.gridwalk.grid import grid_with_cells
from dpbilevel.gridwalk.sampler import ENUM_STATE_CAP, NO_CLIP_ZETA, WALK_STEP_CAP
from dpbilevel.instances import make_instance
from dpbilevel.mechanisms import (
    INPUT_RULES,
    K_REG,
    MECHANISMS,
    PrivacyBudget,
    dp_second_order_gd,
    exponential_mechanism,
    grad_norm_exp_mechanism,
    regularized_exp_mechanism,
    replay_mechanism,
    warm_start,
)
from dpbilevel.problem import AssumptionConstants
from dpbilevel.rng import make_generator
from oracles import full_descent, reference_plan


@pytest.fixture(scope="module")
def quad():
    fx = make_instance("quadratic", d_x=1, d_y=2)
    return fx, fx.sample_dataset(20, seed=3)


@pytest.fixture(scope="module")
def hard():
    fx = make_instance("hard", d=1)
    return fx, fx.sample_dataset(16, seed=1)


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

def test_privacy_budget_validation():
    assert PrivacyBudget(0.5, 0.0).as_dict() == {"epsilon": 0.5, "delta": 0.0}
    for eps, delta in [(0.0, 0.0), (-1.0, 0.0), (math.inf, 0.0),
                       (1.0, -0.1), (1.0, 1.0)]:
        with pytest.raises(ConfigurationError):
            PrivacyBudget(eps, delta)


# ---------------------------------------------------------------------------
# exponential mechanisms
# ---------------------------------------------------------------------------

def test_exponential_mechanism_frozen_parameters(quad):
    fx, Z = quad
    res = exponential_mechanism(fx.problem, Z, fx.constants,
                                eps=1.2, xi=1.0, rng=0)
    led = res.ledger
    assert res.budget_spent == PrivacyBudget(1.2, 0.0)
    assert led["eps_prime"] == pytest.approx(0.6)
    # the accuracy knob is clamped to eps'/6 so the two slack terms close
    # the pure-DP account exactly
    assert led["xi_used"] == pytest.approx(0.1)
    assert led["zeta"] == pytest.approx(0.1)
    assert led["sensitivity"] == pytest.approx(8.035483399593906, rel=1e-12, abs=0.0)
    assert led["coeff"] == pytest.approx(0.037334406043967594, rel=1e-12, abs=0.0)
    assert led["L_lip2"] == pytest.approx(0.08400241359892709, rel=1e-12, abs=0.0)
    assert fx.problem.domain_x.contains(res.x_out)
    assert res.trajectory is None


def test_grad_norm_variant_scores_differently(quad):
    fx, Z = quad
    res = grad_norm_exp_mechanism(fx.problem, Z, fx.constants,
                                  eps=1.2, xi=0.2, rng=0)
    assert res.ledger["mechanism"] == "grad_norm_exp_mechanism"
    # sensitivity switches from the value-variation constant to the
    # gradient-magnitude constant
    assert res.ledger["sensitivity"] == pytest.approx(2.25)
    assert res.budget_spent == PrivacyBudget(1.2, 0.0)


@pytest.mark.parametrize("name", ["exponential_mechanism", "grad_norm_exp_mechanism",
                                  "regularized_exp_mechanism"])
@pytest.mark.parametrize("instance,params", [
    ("hard", {"d": 2}), ("quadratic", {"d_x": 2}), ("ridge", {"feature_dim": 2}),
])
def test_sampler_scores_meet_their_declared_zeta(name, instance, params):
    # each score's error against the closed form it approximates, over the
    # centers of a 12 x 12 grid inside the body, is within the zeta it
    # declares: at xi = eps, where zeta is the budget's share (eps/2/6 or
    # eps/24) or NO_CLIP_ZETA below it, and at a tight xi
    fx = make_instance(instance, **params)
    Z = fx.sample_dataset(64, seed=0)
    domain = fx.problem.domain_x
    X = grid_with_cells(domain, 12).centers_all()
    X = X[[domain.contains(x) for x in X]]
    phi = np.array([fx.phi(x, Z) for x in X])
    grad_norm = np.array([np.linalg.norm(fx.grad_phi(x, Z)) for x in X])
    for eps in (1.0, 8.0):
        for xi in (eps, 1e-5):
            inputs = {"eps": eps, "xi": xi}
            if name == "regularized_exp_mechanism":
                inputs.update(delta=1e-5, mode="erm", k_reg=K_REG)
            led, ev = MECHANISMS[name].score(fx.problem, Z, fx.constants, **inputs)
            exact = {
                "exponential_mechanism": lambda: led["coeff"] * phi,
                "grad_norm_exp_mechanism": lambda: led["coeff"] * grad_norm,
                "regularized_exp_mechanism":
                    lambda: led["k"] * (phi + 0.5 * led["mu_reg"] * (X * X).sum(axis=1)),
            }[name]()
            assert ev.zeta_bound == led["zeta"] <= NO_CLIP_ZETA
            assert np.max(np.abs(ev.evaluate_many(X) - exact)) <= led["zeta"], (eps, xi)


def test_regularized_mechanism_frozen_parameters(quad):
    fx, Z = quad
    res = regularized_exp_mechanism(fx.problem, Z, fx.constants,
                                    eps=1.0, delta=1e-3, mode="erm",
                                    xi=0.5, rng=0)
    led = res.ledger
    assert res.budget_spent == PrivacyBudget(1.0, 1e-3)
    assert led["mode"] == "erm"
    assert led["k_reg"] == pytest.approx(K_REG)
    assert led["G"] == pytest.approx(2.25)
    assert led["mu_reg"] == pytest.approx(0.1478396747744137, rel=1e-12, abs=0.0)
    assert led["k"] == pytest.approx(0.21137762950090289, rel=1e-12, abs=0.0)
    assert led["xi_used"] == pytest.approx(1.0 / 24.0)

    pop = regularized_exp_mechanism(fx.problem, Z, fx.constants,
                                    eps=1.0, delta=1e-3, mode="population",
                                    xi=0.5, rng=0)
    assert pop.ledger["mu_reg"] == pytest.approx(0.39939732224314006,
                                                 rel=1e-12, abs=0.0)


def test_regularized_mechanism_validation(quad):
    fx, Z = quad
    for delta in (0.0, 1.0):
        with pytest.raises(ConfigurationError):
            regularized_exp_mechanism(fx.problem, Z, fx.constants,
                                      1.0, delta, "erm", 0.5, 0)
    with pytest.raises(ConfigurationError):
        regularized_exp_mechanism(fx.problem, Z, fx.constants,
                                  1.0, 1e-3, "map", 0.5, 0)


@pytest.mark.parametrize("mechanism", [exponential_mechanism, grad_norm_exp_mechanism])
def test_zero_width_domain_is_a_configuration_error(mechanism):
    # the cube extension's gauge penalty has no finite Lipschitz constant on
    # a set with a zero half-width
    fx = make_instance("ridge", feature_dim=1, x_half=0.0)
    Z = fx.sample_dataset(8, seed=0)
    with pytest.raises(ConfigurationError, match="zero-width"):
        mechanism(fx.problem, Z, fx.constants, eps=1.0, xi=0.5, rng=0)


@pytest.mark.parametrize("instance,params", [
    ("hard", {"d": 2}),                    # ball
    ("quadratic", {"d_x": 2, "d_y": 2}),   # ball, off-axis curvature
    ("ridge", {"feature_dim": 2}),         # box
])
def test_extension_point_and_batch_paths_agree(instance, params):
    """ExtendedEvaluator.eval matches a batch of one on every sampler score.

    The acceptance test scores its point through eval, walk fills and
    enumeration through evaluate_many; the two must give the same bits
    inside the body and outside it.
    """
    fx = make_instance(instance, **params)
    Z = fx.sample_dataset(12, seed=0)
    dom = fx.problem.domain_x
    rng = np.random.default_rng(5)
    points = [dom.sample_uniform(rng) for _ in range(4)]
    points += [dom.center + dom.inf_width * rng.uniform(-1.0, 1.0, dom.dim)
               for _ in range(6)]
    points.append(dom.center + dom.inf_width)
    inside = [dom.contains(x) for x in points]
    assert any(inside) and not all(inside)
    given = {"eps": 1.0, "xi": 0.1, "delta": 1e-3, "mode": "erm"}
    scores = 0
    for spec in MECHANISMS.values():
        if spec.score is None:
            continue
        # k_reg = 0 makes the regularized score the constant k = 0 score
        for k_reg in ((K_REG, 0.0) if "k_reg" in spec.params else (K_REG,)):
            inputs = {k: v for k, v in {**given, "k_reg": k_reg}.items()
                      if k in spec.params}
            ledger, evaluator = spec.score(fx.problem, Z, fx.constants, **inputs)
            assert k_reg != 0.0 or ledger["k"] == 0.0
            ext = ExtendedEvaluator(evaluator, dom, ledger["L_lip2"])
            for x in points:
                assert ext.eval(x) == ext.evaluate_many(x[None])[0]
            scores += 1
    assert scores == 4


SIZED = {"hard": lambda d: {"d": d}, "quadratic": lambda d: {"d_x": d, "d_y": d},
         "ridge": lambda d: {"feature_dim": d}}


@pytest.mark.parametrize("name", ["exponential_mechanism", "regularized_exp_mechanism",
                                  "grad_norm_exp_mechanism"])
@pytest.mark.parametrize("instance", sorted(SIZED))
def test_batch_rows_equal_point_scores(monkeypatch, instance, name):
    """A point's score has the same bits in every batch it is scored in.

    A walk fill scores a window of cells with evaluate_many, where a
    cell-at-a-time walk got its scores from eval; the walk takes the same
    steps either way when these are equal.  So are random splits into
    batches of 1, 2, 3, 7 and 64 rows, and chunks of 5 rows, on grid
    centres and on points outside the body, at d = 1, 2 and 3.
    """
    spec = MECHANISMS[name]
    given = {"eps": 1.0, "xi": 0.1, "delta": 1e-3, "mode": "erm", "k_reg": K_REG}
    for d in (1, 2, 3):
        fx = make_instance(instance, **SIZED[instance](d))
        Z = fx.sample_dataset(12, seed=0)
        dom = fx.problem.domain_x
        rng = np.random.default_rng(d)
        outside = dom.center + dom.inf_width * rng.uniform(-1.0, 1.0, (20, d))
        points = np.vstack([grid_with_cells(dom, 9).centers_all(), outside])
        ledger, evaluator = spec.score(fx.problem, Z, fx.constants,
                                       **{k: v for k, v in given.items() if k in spec.params})
        ext = ExtendedEvaluator(evaluator, dom, ledger["L_lip2"])
        rows = ext.evaluate_many(points)
        np.testing.assert_array_equal(rows, [ext.eval(x) for x in points], err_msg=f"d={d}")
        order = rng.permutation(len(points))
        cuts = np.cumsum(rng.choice([1, 2, 3, 7, 64], size=len(points)))
        split = np.empty(len(points))
        for idx in np.split(order, cuts[cuts < len(points)]):
            split[idx] = ext.evaluate_many(points[idx])
        np.testing.assert_array_equal(split, rows, err_msg=f"d={d}")
        with monkeypatch.context() as m:
            m.setattr(evaluator_module, "CHUNK_ROWS", 5)
            np.testing.assert_array_equal(ext.evaluate_many(points), rows, err_msg=f"d={d}")


@pytest.mark.parametrize("instance,params,n", [
    ("hard", {"d": 2}, 4),
    ("ridge", {"feature_dim": 2}, 8),
])
def test_walk_release_does_not_depend_on_the_fill_window(monkeypatch, instance, params, n):
    # one cell per fill scores every cell through a batch of one, as the walk
    # did before fills scored whole windows
    fx = make_instance(instance, **params)
    Z = fx.sample_dataset(n, seed=0)

    def release(seed):
        return exponential_mechanism(fx.problem, Z, fx.constants, 1.0, 1.0, seed,
                                     force_walk=True)

    windowed = [release(seed) for seed in (7, 8)]
    monkeypatch.setattr(engine_module, "_FILL_WINDOW", 1)
    for seed, a in zip((7, 8), windowed):
        b = release(seed)
        assert a.ledger["plan"]["branch"] == "walk"
        np.testing.assert_array_equal(a.x_out, b.x_out)
        for key in ("cell", "restarts", "plan"):
            assert a.ledger[key] == b.ledger[key]
        assert a.ledger["walk_faults"] < b.ledger["walk_faults"]


# ---------------------------------------------------------------------------
# noisy descent
# ---------------------------------------------------------------------------

def test_gd_schedule_frozen(quad):
    fx, Z = quad
    res = dp_second_order_gd(fx.problem, Z, fx.constants,
                             eps=1.0, delta=1e-3, rng=5)
    led = res.ledger
    assert led["T"] == 2
    assert led["eta"] == pytest.approx(0.5)
    assert led["sigma"] == pytest.approx(58.87604747138143, rel=1e-12, abs=0.0)
    assert led["gap_upper_bound"] == pytest.approx(4.5)
    # constant inner Hessians: hypergradient bias vanishes, tolerance only
    # has to be positive
    assert led["alpha"] == pytest.approx(3e-8)
    assert led["privacy_certified"] is True
    assert res.budget_spent == PrivacyBudget(1.0, 1e-3)


def test_gd_trajectory_and_pick(quad):
    fx, Z = quad
    picks = []
    for seed in (11, 0, 1, 2, 3):
        res = dp_second_order_gd(fx.problem, Z, fx.constants, eps=1.0,
                                 delta=1e-3, overrides={"T": 5}, rng=seed)
        pick = res.ledger["picked_iterate"]
        assert 1 <= pick <= 5
        # the trajectory stops at the released iterate
        assert res.trajectory.shape == (pick + 1, fx.problem.d_x)
        np.testing.assert_array_equal(res.x_out, res.trajectory[pick])
        for row in res.trajectory:
            assert fx.problem.domain_x.contains(row)
        picks.append(pick)
    assert min(picks) < 5


def test_noiseless_descent_draws_only_the_pick(quad):
    fx, Z = quad
    gen = np.random.default_rng(0)
    res = dp_second_order_gd(
        fx.problem, Z, fx.constants, eps=1.0, delta=1e-3,
        overrides={"T": 7, "sigma": 0.0, "unsafe": True}, rng=gen)
    ref = np.random.default_rng(0)
    assert res.ledger["picked_iterate"] == int(ref.integers(1, 8))
    assert gen.random() == ref.random()


def test_descent_noise_scales_linearly(quad):
    # one small step from the centre stays inside the ball, so the step's
    # noise part, x_1(sigma) - x_1(0) = -eta * sigma * z, is linear in sigma
    fx, Z = quad
    steps = [dp_second_order_gd(
        fx.problem, Z, fx.constants, eps=1.0, delta=1e-3,
        overrides={"T": 1, "eta": 1e-3, "sigma": sigma, "unsafe": True},
        rng=9).x_out for sigma in (0.0, 1.0, 2.0)]
    assert np.all(steps[1] != steps[0])
    np.testing.assert_allclose(steps[2] - steps[0], 2.0 * (steps[1] - steps[0]),
                               rtol=1e-9)


DESCENT_FAMILIES = [
    pytest.param("quadratic", {"d_x": 1, "d_y": 2}, id="quadratic-d1"),
    pytest.param("quadratic", {"d_x": 2, "d_y": 3}, id="quadratic-d2"),
    pytest.param("quadratic", {"d_x": 3, "d_y": 2}, id="quadratic-d3"),
    pytest.param("ridge", {"feature_dim": 1}, id="ridge-d1"),
    pytest.param("ridge", {"feature_dim": 2}, id="ridge-d2"),
    pytest.param("ridge", {"feature_dim": 3}, id="ridge-d3"),
]


def assert_same_release(res, ref):
    """res is ref's release: x_out, ledger and budget bit-equal, and res's
    trajectory is ref's up to the pick."""
    pick = ref.ledger["picked_iterate"]
    np.testing.assert_array_equal(res.x_out, ref.x_out)
    assert res.ledger == ref.ledger
    assert json.dumps(res.ledger) == json.dumps(ref.ledger)
    assert res.budget_spent == ref.budget_spent
    np.testing.assert_array_equal(res.trajectory, ref.trajectory[:pick + 1])


@pytest.mark.parametrize("noiseless", [False, True], ids=["schedule", "sigma0"])
@pytest.mark.parametrize("family, params", DESCENT_FAMILIES)
def test_descent_equals_the_full_loop(family, params, noiseless):
    fx = make_instance(family, **params)
    p, a = fx.problem, fx.constants
    ov = {"sigma": 0.0, "unsafe": True} if noiseless else None
    stopped_early = False
    for seed in range(4):
        Z = fx.sample_dataset(1000, seed=seed)
        res = dp_second_order_gd(p, Z, a, 1.0, 1e-3, overrides=ov, rng=seed)
        ref = full_descent(p, Z, a, 1.0, 1e-3, overrides=ov, rng=seed)
        assert_same_release(res, ref)
        stopped_early |= ref.ledger["picked_iterate"] < ref.ledger["T"]
        # a passed Generator ends where the full loop leaves it
        gen, gen_ref = make_generator(seed), make_generator(seed)
        res = dp_second_order_gd(p, Z, a, 1.0, 1e-3, overrides=ov, rng=gen)
        ref = full_descent(p, Z, a, 1.0, 1e-3, overrides=ov, rng=gen_ref)
        assert_same_release(res, ref)
        assert gen.random() == gen_ref.random()
    assert stopped_early


@pytest.mark.parametrize("family, params", DESCENT_FAMILIES)
def test_warm_start_equals_the_full_loop(monkeypatch, family, params):
    fx = make_instance(family, **params)
    p, a = fx.problem, fx.constants
    # stage B's scheduled T is 1-4 here; a longer run lets the pick fall short
    stage_b = {"T": 12}
    runs = []
    for seed in range(3):
        Z = fx.sample_dataset(1000, seed=seed)
        runs.append((Z, seed, warm_start(p, Z, a, 1.0, 1e-3, 0.5, rng=seed,
                                         stage_b_overrides=stage_b)))
    monkeypatch.setattr(mechanisms, "dp_second_order_gd", full_descent)
    picks = []
    for Z, seed, res in runs:
        ref = warm_start(p, Z, a, 1.0, 1e-3, 0.5, rng=seed,
                         stage_b_overrides=stage_b)
        np.testing.assert_array_equal(res.x_out, ref.x_out)
        assert json.dumps(res.ledger) == json.dumps(ref.ledger)
        assert res.budget_spent == ref.budget_spent
        pick = ref.ledger["stage_b"]["picked_iterate"]
        np.testing.assert_array_equal(res.trajectory, ref.trajectory[:pick + 1])
        picks.append(pick)
    assert min(picks) < 12


def test_gd_override_validation(quad):
    fx, Z = quad
    base = dict(eps=1.0, delta=1e-3, rng=0)
    with pytest.raises(ConfigurationError):
        dp_second_order_gd(fx.problem, Z, fx.constants,
                           overrides={"steps": 3}, **base)
    with pytest.raises(ConfigurationError):
        dp_second_order_gd(fx.problem, Z, fx.constants,
                           overrides={"T": 0}, **base)
    with pytest.raises(ConfigurationError):
        dp_second_order_gd(fx.problem, Z, fx.constants,
                           overrides={"T": 2, "sigma": 1.0}, **base)


@pytest.mark.parametrize("key", ["T", "eta", "alpha", "sigma", "gap_upper_bound"])
def test_gd_non_finite_override_is_a_configuration_error(quad, key):
    fx, Z = quad
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            dp_second_order_gd(fx.problem, Z, fx.constants, 1.0, 1e-3,
                               overrides={key: value, "unsafe": True}, rng=0)
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            warm_start(fx.problem, Z, fx.constants, 1.0, 1e-3, 0.2, rng=0,
                       stage_b_overrides={key: value, "unsafe": True})


def test_gd_T_override_must_be_an_integer(quad):
    fx, Z = quad
    for value in (2.7, True):
        with pytest.raises(ConfigurationError, match="'T'"):
            dp_second_order_gd(fx.problem, Z, fx.constants, 1.0, 1e-3,
                               overrides={"T": value}, rng=0)
        with pytest.raises(ConfigurationError, match="'T'"):
            warm_start(fx.problem, Z, fx.constants, 1.0, 1e-3, 0.2, rng=0,
                       stage_b_overrides={"T": value})
    res = dp_second_order_gd(fx.problem, Z, fx.constants, 1.0, 1e-3,
                             overrides={"T": 2.0}, rng=0)
    assert res.ledger["T"] == 2 and res.ledger["overrides"] == {"T": 2}
    assert type(res.ledger["overrides"]["T"]) is int


def test_gd_unsafe_override_must_be_a_bool(quad):
    # a truthy non-bool such as the string "false" must not switch the
    # sigma check off
    fx, Z = quad
    for value in ("false", 1, None):
        with pytest.raises(ConfigurationError, match="'unsafe'"):
            dp_second_order_gd(fx.problem, Z, fx.constants, 1.0, 1e-3,
                               overrides={"T": 2, "sigma": 0.0, "unsafe": value}, rng=0)
        with pytest.raises(ConfigurationError, match="'unsafe'"):
            warm_start(fx.problem, Z, fx.constants, 1.0, 1e-3, 0.2, rng=0,
                       stage_b_overrides={"sigma": 0.0, "unsafe": value})


@pytest.mark.parametrize("x0", [[math.nan], [math.inf], [0.1, 0.2]],
                         ids=["nan", "inf", "shape"])
def test_gd_bad_start_is_a_configuration_error(quad, monkeypatch, x0):
    fx, Z = quad

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking x0")

    monkeypatch.setattr(mechanisms, "solve_lower_level", no_solve)
    gen = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="x0"):
            dp_second_order_gd(fx.problem, Z, fx.constants, 1.0, 1e-3, x0=x0, rng=gen)
    assert gen.bit_generator.state == np.random.default_rng(0).bit_generator.state


#: (mechanism, bad input, the input the error names); the other inputs are valid
BAD_INPUTS = [
    ("exponential_mechanism", {"xi": math.nan}, "xi"),
    ("exponential_mechanism", {"eps": math.inf}, "eps"),
    ("grad_norm_exp_mechanism", {"eps": math.nan}, "eps"),
    ("regularized_exp_mechanism", {"k_reg": math.nan}, "k_reg"),
    ("regularized_exp_mechanism", {"k_reg": -1.0}, "k_reg"),
    ("warm_start", {"xi": math.nan}, "xi"),
    ("dp_second_order_gd", {"eps": math.inf}, "eps"),
    ("dp_second_order_gd", {"eps": math.nan}, "eps"),
    ("dp_second_order_gd", {"delta": 1.0}, "delta"),
    ("exponential_mechanism", {"eps": True}, "eps"),
    ("exponential_mechanism", {"force_walk": "no"}, "force_walk"),
    ("regularized_exp_mechanism", {"delta": 0.0}, "delta"),
    ("regularized_exp_mechanism", {"mode": "median"}, "mode"),
    ("warm_start", {"delta": 0.0}, "delta"),
]


@pytest.mark.parametrize("name,bad,key", BAD_INPUTS,
                         ids=[f"{name}-{key}={bad[key]}" for name, bad, key in BAD_INPUTS])
def test_bad_mechanism_inputs_are_configuration_errors(quad, name, bad, key):
    fx, Z = quad
    valid = {"eps": 1.0, "delta": 1e-3, "xi": 0.2, "mode": "erm"}
    kwargs = {k: v for k, v in valid.items() if k in MECHANISMS[name].params}
    with pytest.raises(ConfigurationError, match=f"^{key} must"):
        getattr(mechanisms, name)(fx.problem, Z, fx.constants, rng=0,
                                  **{**kwargs, **bad})


def test_every_mechanism_keyword_has_an_input_rule():
    # a new keyword cannot skip the table: the ledger records exactly the
    # function's keywords, and each of them but x0 has a rule
    for name, spec in MECHANISMS.items():
        signature = inspect.signature(getattr(mechanisms, name))
        keywords = tuple(k for k in signature.parameters
                         if k not in ("p", "Z", "a", "rng", "engine"))
        assert keywords == spec.params, name
        assert set(keywords) - {"x0"} <= set(INPUT_RULES), name


def test_numpy_scalar_inputs_are_accepted(quad):
    fx, Z = quad
    res = exponential_mechanism(fx.problem, Z, fx.constants, np.float64(1.2),
                                np.float64(1.0), rng=0, force_walk=np.bool_(False))
    ref = exponential_mechanism(fx.problem, Z, fx.constants, 1.2, 1.0, rng=0)
    assert json.dumps(res.ledger) == json.dumps(ref.ledger)
    gd = dp_second_order_gd(fx.problem, Z, fx.constants, np.float64(1.0), np.float64(1e-3),
                            overrides={"T": np.int64(2), "unsafe": np.bool_(False)}, rng=0)
    assert gd.ledger["overrides"] == {"T": 2, "unsafe": False}
    assert json.dumps(gd.ledger["overrides"]) == '{"T": 2, "unsafe": false}'


def test_walk_budget_past_float_range_is_a_size_cap_error():
    # xi_used = eps/12 puts e^{xi/2} in the forced walk's step budget past
    # float range: a typed size-cap error, not an OverflowError
    fx = make_instance("hard", d=1)
    Z = fx.sample_dataset(8, seed=0)
    with pytest.raises(SizeCapError, match=r"^walk step budget inf exceeds .*"
                       r"\(d=1, alpha\*tau=3\.53e\+04, zeta=0\.25\)$"):
        exponential_mechanism(fx.problem, Z, fx.constants, eps=1e5, xi=1e5, rng=0,
                              force_walk=True)


@pytest.mark.parametrize("eps,steps", [(500, "1.82e+16"), (2000, "1.01e+44")])
def test_walk_budget_past_the_step_cap_is_a_size_cap_error(eps, steps):
    # a forced walk that would run for years is refused when planned
    fx = make_instance("hard", d=1)
    Z = fx.sample_dataset(8, seed=0)
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match=rf"^walk step budget {re.escape(steps)} exceeds "
                       rf"{WALK_STEP_CAP} steps \(d=1, "):
        exponential_mechanism(fx.problem, Z, fx.constants, eps=eps, xi=eps, rng=0,
                              force_walk=True)
    assert time.perf_counter() - start < 1.0


def test_infinite_xi_takes_the_tolerance_cap(quad):
    fx, Z = quad
    res = exponential_mechanism(fx.problem, Z, fx.constants, 1.2, math.inf, rng=0)
    assert res.ledger["xi_used"] == 1.2 / 12.0


def test_gd_unsafe_sigma_is_uncertified(quad):
    fx, Z = quad
    res = dp_second_order_gd(
        fx.problem, Z, fx.constants, eps=1.0, delta=1e-3,
        overrides={"T": 2, "sigma": 0.0, "unsafe": True}, rng=0)
    assert res.ledger["privacy_certified"] is False
    over = dp_second_order_gd(
        fx.problem, Z, fx.constants, eps=1.0, delta=1e-3,
        overrides={"T": 2, "sigma": 100.0}, rng=0)
    assert over.ledger["privacy_certified"] is True


def test_gd_flat_objective_needs_explicit_eta(hard):
    fx, Z = hard
    with pytest.raises(ConfigurationError, match="eta"):
        dp_second_order_gd(fx.problem, Z, fx.constants, 1.0, 1e-3, rng=0)
    res = dp_second_order_gd(fx.problem, Z, fx.constants, 1.0, 1e-3,
                             overrides={"eta": 0.1, "T": 3}, rng=0)
    assert res.ledger["T"] == 3


def test_gd_zero_sensitivity_needs_explicit_T(quad):
    fx, Z = quad
    flat = AssumptionConstants(
        L_fx=0.0, L_fy=0.0, mu_g=1.0, L_gy=3.0,
        beta_fyy=0.0, beta_fxx=0.0, beta_fxy=0.0,
        beta_gxy=0.0, beta_gyy=1.0,
        M_gxy=0.0, M_gyy=0.0, C_gxy=0.0, C_gyy=0.0,
        D_x=1.0, D_y=1.0)
    with pytest.raises(ConfigurationError, match="T"):
        dp_second_order_gd(fx.problem, Z, flat, 1.0, 1e-3, rng=0)


def test_gd_needs_an_explicit_rng(quad):
    # no default seed to reuse the same noise rows across releases, and no
    # positional slot to pass one by accident
    fx, Z = quad
    with pytest.raises(TypeError, match="rng"):
        dp_second_order_gd(fx.problem, Z, fx.constants, 1.0, 1e-3)
    with pytest.raises(TypeError):
        dp_second_order_gd(fx.problem, Z, fx.constants, 1.0, 1e-3, None, None, 0)


def test_gd_delta_validation(quad):
    fx, Z = quad
    with pytest.raises(ConfigurationError):
        dp_second_order_gd(fx.problem, Z, fx.constants, 1.0, 0.0, rng=0)
    with pytest.raises(ConfigurationError):
        dp_second_order_gd(fx.problem, Z, fx.constants, 0.0, 1e-3, rng=0)


# ---------------------------------------------------------------------------
# warm start
# ---------------------------------------------------------------------------

def test_warm_start_budget_split(quad):
    fx, Z = quad
    res = warm_start(fx.problem, Z, fx.constants, eps=1.0, delta=1e-3,
                     xi=0.2, rng=21)
    led = res.ledger
    assert res.budget_spent == PrivacyBudget(1.0, 5e-4)
    assert led["stage_budgets_spent"] == [[0.5, 0.0], [0.5, 5e-4]]
    assert led["stage_budgets_paper_split"] == [[0.5, 5e-4], [0.5, 5e-4]]
    assert led["stage_a"]["mechanism"] == "exponential_mechanism"
    assert led["stage_a"]["eps"] == pytest.approx(0.5)
    assert led["stage_b"]["eps"] == pytest.approx(0.5)
    assert led["stage_b"]["delta"] == pytest.approx(5e-4)
    # the search stage's guarantee feeds the descent stage's schedules
    der_gap = 6.981370849898476 * 1 / (1.0 * Z.n)
    assert led["gap_upper_bound"] == pytest.approx(der_gap, rel=1e-12, abs=0.0)
    assert led["stage_b"]["gap_upper_bound"] == pytest.approx(der_gap,
                                                              rel=1e-12, abs=0.0)
    # stage A's pick is where stage B started
    np.testing.assert_array_equal(np.asarray(led["stage_b"]["x0"]),
                                  res.trajectory[0])


def test_warm_start_requires_positive_delta(quad):
    fx, Z = quad
    with pytest.raises(ConfigurationError):
        warm_start(fx.problem, Z, fx.constants, 1.0, 0.0, 0.2, rng=0)


# ---------------------------------------------------------------------------
# replay and serialization
# ---------------------------------------------------------------------------

def run_all_five(fx_quad, Z_quad, fx_hard, Z_hard):
    return [
        exponential_mechanism(fx_quad.problem, Z_quad, fx_quad.constants,
                              1.2, 0.2, rng=101),
        grad_norm_exp_mechanism(fx_quad.problem, Z_quad, fx_quad.constants,
                                1.2, 0.2, rng=102),
        regularized_exp_mechanism(fx_quad.problem, Z_quad, fx_quad.constants,
                                  1.0, 1e-3, "erm", 0.5, rng=103),
        dp_second_order_gd(fx_quad.problem, Z_quad, fx_quad.constants,
                           1.0, 1e-3, rng=104),
        warm_start(fx_hard.problem, Z_hard, fx_hard.constants, 1.0, 1e-3,
                   0.2, rng=105,
                   stage_b_overrides={"eta": 0.1, "T": 3}),
    ]


SAMPLER_KEYS = {"mechanism", "eps", "xi", "seed", "force_walk", "n", "zeta",
                "xi_used", "L_lip2", "plan", "cell", "restarts", "walk_faults"}
DESCENT_KEYS = {"mechanism", "eps", "delta", "seed", "x0", "overrides", "n",
                "T", "eta", "alpha", "sigma", "sigma_schedule",
                "gap_upper_bound", "K", "C", "beta_phi", "picked_iterate",
                "privacy_certified"}
#: each mechanism's ledger keys, which are also its results.csv columns
LEDGER_KEYS = {
    "exponential_mechanism": SAMPLER_KEYS | {"eps_prime", "sensitivity", "coeff"},
    "grad_norm_exp_mechanism": SAMPLER_KEYS | {"eps_prime", "sensitivity", "coeff"},
    "regularized_exp_mechanism": SAMPLER_KEYS | {"delta", "mode", "k_reg", "G",
                                                 "mu_reg", "k"},
    "dp_second_order_gd": DESCENT_KEYS,
    "warm_start": {"mechanism", "eps", "delta", "xi", "seed",
                   "stage_b_overrides", "gap_upper_bound",
                   "stage_budgets_spent", "stage_budgets_paper_split",
                   "total_spent", "stage_a", "stage_b"},
}


def test_replay_is_bit_identical(quad, hard):
    fxq, Zq = quad
    fxh, Zh = hard
    results = run_all_five(fxq, Zq, fxh, Zh)
    assert [r.ledger["mechanism"] for r in results] == list(LEDGER_KEYS)
    for res in results:
        name = res.ledger["mechanism"]
        assert set(res.ledger) == LEDGER_KEYS[name], name
        source = (fxh, Zh) if name == "warm_start" else (fxq, Zq)
        again = replay_mechanism(source[0].problem, source[1],
                                 source[0].constants, res)
        np.testing.assert_array_equal(res.x_out, again.x_out), name
        if res.trajectory is not None:
            np.testing.assert_array_equal(res.trajectory, again.trajectory)
        assert res.budget_spent == again.budget_spent
        assert again.ledger == res.ledger, name
    stages = results[-1].ledger
    assert set(stages["stage_a"]) == LEDGER_KEYS["exponential_mechanism"]
    assert set(stages["stage_b"]) == DESCENT_KEYS


def test_replay_from_parsed_json(quad, hard):
    # the ledger is the serialized form of a release: it survives a JSON
    # round trip as is, and replaying from the parsed dict is bit-identical
    fxq, Zq = quad
    fxh, Zh = hard
    walked = exponential_mechanism(fxq.problem, Zq, fxq.constants, 1.2, 0.2,
                                   rng=7, force_walk=True)
    assert walked.ledger["plan"]["branch"] == "walk"
    for res in run_all_five(fxq, Zq, fxh, Zh) + [walked]:
        name = res.ledger["mechanism"]
        parsed = json.loads(json.dumps(res.ledger))
        assert parsed == res.ledger, name
        fx, Z = (fxh, Zh) if name == "warm_start" else (fxq, Zq)
        again = replay_mechanism(fx.problem, Z, fx.constants, parsed)
        assert again.x_out.tobytes() == res.x_out.tobytes(), name
        assert again.budget_spent == res.budget_spent
        assert again.ledger == res.ledger, name
        if res.trajectory is not None:
            assert again.trajectory.tobytes() == res.trajectory.tobytes()


def test_replay_refuses_a_ledger_planned_differently(quad, monkeypatch):
    # a ledger recorded under the former planner (which enumerated the
    # accuracy grid here) must not replay silently to a different point
    fx, Z = quad
    real = sampler_module.plan_sampler
    monkeypatch.setattr(sampler_module, "plan_sampler", reference_plan)
    ledgers = [
        exponential_mechanism(fx.problem, Z, fx.constants, 1.2, 0.2, rng=7).ledger,
        warm_start(fx.problem, Z, fx.constants, 2.4, 1e-3, 0.2, rng=8,
                   stage_b_overrides={"eta": 0.1, "T": 3}).ledger,
    ]
    monkeypatch.setattr(sampler_module, "plan_sampler", real)
    for ledger, where in zip(ledgers, ["plan.states", "stage_a.plan.states"]):
        with pytest.raises(ConfigurationError, match=rf"^ledger does not replay: {where} "):
            replay_mechanism(fx.problem, Z, fx.constants, json.loads(json.dumps(ledger)))


def test_replay_requires_recorded_seed(quad):
    fx, Z = quad
    live = exponential_mechanism(fx.problem, Z, fx.constants, 1.2, 0.2,
                                 rng=np.random.default_rng(0))
    assert live.ledger["seed"] is None
    with pytest.raises(ConfigurationError):
        replay_mechanism(fx.problem, Z, fx.constants, live)


@pytest.mark.parametrize("force_walk", [False, True])
def test_exponential_mechanism_json_roundtrip(quad, force_walk):
    # the ledger is the release's JSON form: parsing it back gives the same
    # ledger, and replaying from it gives the same point bit for bit
    fx, Z = quad
    res = exponential_mechanism(fx.problem, Z, fx.constants, 1.2, 0.2, rng=7,
                                force_walk=force_walk)
    assert res.ledger["plan"]["branch"] == ("walk" if force_walk else "enumerate")
    assert res.trajectory is None
    parsed = json.loads(json.dumps(res.ledger))
    assert parsed == res.ledger
    again = replay_mechanism(fx.problem, Z, fx.constants, parsed)
    assert again.trajectory is None
    assert again.ledger == res.ledger
    np.testing.assert_array_equal(again.x_out, res.x_out)


def test_grad_norm_release_enumerates_grid_below_walk_budget():
    # at eps = 40 the score's error share min(xi, eps/12) = 1 is held at
    # NO_CLIP_ZETA, and the coarse grid, 151^2 = 22,801 states, is above the
    # enumeration cap: the accuracy grid (427^2 states) would take a longer
    # walk than it has states, so the planner samples the coarse grid's
    # exact law instead
    fx = make_instance("quadratic", d_x=2)
    Z = fx.sample_dataset(64, seed=0)
    res = grad_norm_exp_mechanism(fx.problem, Z, fx.constants, 40.0, 1.0, rng=0)
    assert res.ledger["zeta"] == NO_CLIP_ZETA
    assert res.ledger["xi_used"] == 1.0
    plan = res.ledger["plan"]
    assert plan["branch"] == "enumerate"
    assert plan["states"] == 22_801 > ENUM_STATE_CAP
    assert plan["walk_steps"] == 0
    assert res.ledger["walk_faults"] == 0
    again = replay_mechanism(fx.problem, Z, fx.constants, res)
    np.testing.assert_array_equal(again.x_out, res.x_out)
    assert again.ledger == res.ledger
