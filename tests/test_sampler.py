"""End-to-end law checks for the inexact log-concave sampler."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbilevel.errors import ConfigurationError, SamplerFailure, SizeCapError
from dpbilevel.gridwalk import sampler
from dpbilevel.gridwalk.evaluator import Evaluator, ExtendedEvaluator
from dpbilevel.gridwalk.sampler import (
    ENUM_STATE_CAP,
    grid_law,
    plan_sampler,
    sample_logconcave_detailed,
)
from dpbilevel.gridwalk.chain import mixing_time_bound
from dpbilevel.gridwalk.engine import run_walk
from dpbilevel.problem import Domain


def box(d, half=0.5):
    return Domain("box", np.zeros(d), half_widths=np.full(d, half))


def abs_evaluator(scale, zeta=0.0, perturb=None):
    def evaluate_many(thetas):
        f = scale * np.abs(thetas).sum(axis=1)
        if perturb is not None:
            f = f + np.array([perturb(t) for t in thetas])
        return f

    return Evaluator(evaluate_many, zeta_bound=zeta, alpha_lip=scale)


def pin_plan(monkeypatch, plan):
    """Make every sample_logconcave_detailed call run with the given plan."""
    monkeypatch.setattr(sampler, "plan_sampler", lambda *args, **kwargs: plan)


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

def test_plan_short_cube_when_score_is_nearly_flat():
    plan = plan_sampler(box(1, half=0.25), alpha_lip=1.0, xi=0.5, zeta=0.0)
    assert plan.branch == "short_cube"
    assert plan.grid is None and plan.walk_steps == 0


def test_plan_enumerates_small_grids():
    plan = plan_sampler(box(1), alpha_lip=4.0, xi=0.5, zeta=0.0)
    assert plan.branch == "enumerate"
    assert plan.grid.cells_per_axis == 32  # spacing (xi/2)/(2*4*sqrt(1))
    assert plan.walk_steps == 0


def test_plan_enumerates_grids_smaller_than_the_walk_budget():
    # 566^2 = 320,356 states against a 116.8M-step walk: scoring every
    # state once is less work than the walk and samples the law exactly
    plan = plan_sampler(box(2), alpha_lip=2.0, xi=0.02, zeta=0.0)
    assert plan.branch == "enumerate"
    assert plan.grid.state_count == 320_356 > ENUM_STATE_CAP
    assert plan.walk_steps == 0
    assert plan.grid.state_count < mixing_time_bound(2.0, 1.0, 2, 0.01, 0.0)


def test_plan_walks_when_the_budget_is_below_the_state_count():
    plan = plan_sampler(box(4), alpha_lip=2.0, xi=0.5, zeta=0.0)
    assert plan.branch == "walk"
    assert plan.grid.state_count == 1_048_576
    assert plan.walk_steps == 933_253


def test_plan_force_walk_walks_above_the_enumeration_cap():
    plan = plan_sampler(box(2), alpha_lip=2.0, xi=0.02, zeta=0.0, force_walk=True)
    assert plan.branch == "walk"
    assert plan.grid.state_count == 320_356
    assert plan.walk_steps == mixing_time_bound(2.0, 1.0, 2, 0.01, 0.0)


def test_plan_small_grid_enumerates_when_the_walk_budget_overflows():
    # a declared error this large puts the walk budget past float range;
    # a grid within ENUM_STATE_CAP never needs the budget
    with pytest.raises(OverflowError):
        mixing_time_bound(4.0, 1.0, 1, 0.25, 60.0)
    plan = plan_sampler(box(1), alpha_lip=4.0, xi=0.5, zeta=60.0)
    assert plan.branch == "enumerate" and plan.grid.cells_per_axis == 32


def test_plan_walk_budget_grows_with_declared_error():
    quiet = plan_sampler(box(2), 2.0, 0.02, 0.0, force_walk=True)
    noisy = plan_sampler(box(2), 2.0, 0.02, 0.3, force_walk=True)
    assert noisy.walk_steps > quiet.walk_steps


def test_plan_coarse_fallback_keeps_enumeration_exact():
    # accuracy-sized grid would blow past the walk cap; the planner falls
    # back to the coarsest grid that still resolves the score
    plan = plan_sampler(box(2), alpha_lip=40.0, xi=0.02, zeta=0.0)
    assert plan.branch == "enumerate"
    assert plan.grid.cells_per_axis == 80  # ceil(2 * alpha * tau)


def test_plan_flat_score_single_cell():
    plan = plan_sampler(box(3), alpha_lip=0.0, xi=0.1, zeta=0.0)
    assert plan.branch == "enumerate"
    assert plan.grid.state_count == 1


def test_plan_infeasible_raises():
    with pytest.raises(SizeCapError):
        plan_sampler(box(3), alpha_lip=1000.0, xi=0.01, zeta=0.0)


def test_plan_argument_validation():
    with pytest.raises(ConfigurationError):
        plan_sampler(box(1), 1.0, 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        plan_sampler(box(1), 1.0, 0.1, -0.1)


# ---------------------------------------------------------------------------
# cube extension
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_extension_is_exact_on_the_body(seed):
    rng = np.random.default_rng(seed)
    domain = Domain("ball", np.zeros(2), radius=0.7)
    base = Evaluator(
        lambda ts: np.einsum("ij,ij->i", ts, ts) + 0.3 * ts[:, 0],
        zeta_bound=0.0,
        alpha_lip=2.0,
    )
    ext = ExtendedEvaluator(base, domain, L_lip2=2.0)
    theta = domain.sample_uniform(rng)
    assert ext.eval(theta) == pytest.approx(
        base.evaluate_many(theta[None])[0], abs=1e-12)


def test_extension_penalizes_outside_points():
    domain = Domain("ball", np.zeros(2), radius=0.5)
    base = Evaluator(lambda ts: np.zeros(len(ts)), zeta_bound=0.0, alpha_lip=0.0)
    ext = ExtendedEvaluator(base, domain, L_lip2=1.0)
    corner = np.array([0.5, 0.5])
    assert ext.eval(corner) > ext.eval(np.zeros(2))


# ---------------------------------------------------------------------------
# sampled law
# ---------------------------------------------------------------------------

def test_grid_law_is_softmax_of_negated_scores():
    rng = np.random.default_rng(3)
    from dpbilevel.gridwalk.grid import grid_with_cells
    grid = grid_with_cells(box(1), 12)
    scores = rng.normal(size=12)
    ev = Evaluator(lambda ts: scores[[grid.cell_of(t) for t in ts]],
                   zeta_bound=0.0, alpha_lip=10.0)
    law = grid_law(ev, grid)
    np.testing.assert_allclose(law, scipy.special.softmax(-scores), rtol=1e-12)


def test_flat_score_draws_uniformly():
    domain = box(1)
    ev = Evaluator(lambda ts: np.full(len(ts), 1.25), zeta_bound=0.0, alpha_lip=0.0)
    gen = np.random.default_rng(42)
    draws = np.array([
        sample_logconcave_detailed(ev, domain, L_lip2=0.0, xi=0.5, rng=gen).theta[0]
        for _ in range(10_000)
    ])
    counts, _ = np.histogram(draws, bins=8, range=(-0.5, 0.5))
    assert scipy.stats.chisquare(counts).pvalue > 0.01


def bin_masses(scale, grid, shift=0.0):
    """Exact probability of each grid cell under exp(-scale*|t|+shift-law)."""
    edges = grid.cube_low[0] + grid.gamma * np.arange(grid.cells_per_axis + 1)
    masses = np.array([
        scipy.integrate.quad(lambda t: math.exp(-scale * abs(t)), a, b)[0]
        for a, b in zip(edges[:-1], edges[1:])
    ])
    return masses / masses.sum()


def test_double_exponential_law_close_in_log_ratio(monkeypatch):
    domain = box(1)
    xi = 0.5
    ev = abs_evaluator(2.0)
    plan = plan_sampler(domain, 2.0, xi, 0.0)
    assert plan.branch == "enumerate" and plan.grid.cells_per_axis == 16
    pin_plan(monkeypatch, plan)
    gen = np.random.default_rng(99)
    draws = np.array([
        sample_logconcave_detailed(ev, domain, 2.0, xi, gen).theta[0]
        for _ in range(8_000)
    ])
    counts, _ = np.histogram(
        draws, bins=plan.grid.cells_per_axis, range=(-0.5, 0.5))
    emp = counts / counts.sum()
    target = bin_masses(2.0, plan.grid)
    assert counts.min() > 0
    worst = np.max(np.abs(np.log(emp) - np.log(target)))
    assert worst <= xi + 0.05


def test_perturbed_oracle_stays_within_declared_envelope(monkeypatch):
    domain = box(1)
    xi, zeta = 0.5, 0.1
    ev = abs_evaluator(2.0, zeta=zeta,
                       perturb=lambda t: zeta * math.copysign(1.0, t[0]))
    plan = plan_sampler(domain, 2.0, xi, zeta)
    pin_plan(monkeypatch, plan)
    gen = np.random.default_rng(7)
    draws = np.array([
        sample_logconcave_detailed(ev, domain, 2.0, xi, gen).theta[0]
        for _ in range(8_000)
    ])
    counts, _ = np.histogram(
        draws, bins=plan.grid.cells_per_axis, range=(-0.5, 0.5))
    emp = counts / counts.sum()
    target = bin_masses(2.0, plan.grid)  # the *unperturbed* law
    assert counts.min() > 0
    worst = np.max(np.abs(np.log(emp) - np.log(target)))
    assert worst <= 2.0 * zeta + xi + 0.05


@pytest.mark.parametrize("engine", ["python", "auto"])
def test_walk_branch_matches_grid_law(engine):
    domain = box(1)
    ev = abs_evaluator(3.0)
    plan = plan_sampler(domain, 3.0, 0.4, 0.0, force_walk=True)
    assert plan.branch == "walk"
    # the walk alone, scoring cells lazily as the sampler's walk branch does;
    # 1500 steps instead of the (deliberately conservative) budget: the
    # 30-cell chain mixes in far fewer, and this keeps the frequency test quick
    ext = ExtendedEvaluator(ev, domain, 3.0)
    grid = plan.grid
    gen = np.random.default_rng(11)
    cells = np.array([
        run_walk(np.full(grid.state_count, np.nan), grid, 1500, gen,
                 start_state=grid.cell_of(domain.center), engine=engine,
                 score_fill=lambda idx: ext.evaluate_many(grid.centers(idx))).state
        for _ in range(800)
    ])
    law = grid_law(ext, grid)
    counts = np.bincount(cells, minlength=grid.state_count)
    assert scipy.stats.chisquare(counts, law * counts.sum()).pvalue > 0.01


def test_detail_fields_and_domain_membership():
    domain = Domain("ball", np.zeros(2), radius=0.5)
    ev = Evaluator(lambda ts: np.abs(ts).sum(axis=1), zeta_bound=0.0, alpha_lip=1.0)
    gen = np.random.default_rng(5)
    for _ in range(50):
        detail = sample_logconcave_detailed(ev, domain, 1.0, 1.0, gen)
        assert domain.contains(detail.theta)
        assert detail.restarts < 64
        assert detail.plan.branch == "enumerate"
        assert detail.cell is not None


def test_restart_cap_exhaustion_raises(monkeypatch):
    domain = box(1, half=0.25)
    # spikes the score away from the cube center: the short-cube acceptance
    # test then rejects essentially every proposal.  The plan is pinned so
    # the spike's (untruthful) Lipschitz declaration stays in force.
    ev = Evaluator(
        lambda ts: np.where(np.abs(ts[:, 0]) < 1e-12, 0.0, 80.0),
        zeta_bound=0.0, alpha_lip=0.5,
    )
    plan = plan_sampler(domain, 0.5, 0.5, 0.0)
    assert plan.branch == "short_cube"
    pin_plan(monkeypatch, plan)
    with pytest.raises(SamplerFailure):
        sample_logconcave_detailed(ev, domain, L_lip2=0.5, xi=0.5,
                                   rng=np.random.default_rng(0))


def test_integer_seed_reproduces_draws():
    domain = box(1)
    ev = abs_evaluator(2.0)
    a = sample_logconcave_detailed(ev, domain, 2.0, 0.4, rng=1234).theta
    b = sample_logconcave_detailed(ev, domain, 2.0, 0.4, rng=1234).theta
    np.testing.assert_array_equal(a, b)
