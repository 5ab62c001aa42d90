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
    NO_CLIP_ZETA,
    grid_law,
    plan_sampler,
    sample_logconcave_detailed,
)
from dpbilevel.gridwalk.chain import mixing_time_bound
from dpbilevel.gridwalk.engine import run_walk
from dpbilevel.gridwalk.grid import grid_with_cells
from dpbilevel.problem import Domain
from oracles import reference_plan


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

def test_plan_one_cell_when_score_is_nearly_flat():
    # 2 * alpha * tau = 1: the coarse grid is one cell, at any zeta (m <= 2)
    for zeta in (0.0, 2.0):
        plan = plan_sampler(box(1, half=0.25), alpha_lip=1.0, xi=0.5, zeta=zeta)
        assert plan.branch == "enumerate"
        assert plan.grid.state_count == 1 and plan.walk_steps == 0
    # forced, the accuracy grid is walked: gamma = (xi/2) / (2 * alpha)
    plan = plan_sampler(box(1, half=0.25), 1.0, 0.5, 0.0, force_walk=True)
    assert plan.branch == "walk" and plan.grid.cells_per_axis == 4


def test_plan_two_cells_per_axis_only_where_one_cell_clips():
    # 2 * alpha * tau = 1.5: one cell clips when alpha*tau/2 + 2*zeta > 1,
    # i.e. zeta > 0.3125.  The two-cell grid is taken there, also above
    # NO_CLIP_ZETA (the accuracy grid would be 11^12 states)
    for zeta, cells in ((0.1, 1), (0.3125, 1), (0.35, 2), (1.0, 2)):
        plan = plan_sampler(box(12, half=0.25), alpha_lip=1.5, xi=1.0, zeta=zeta)
        assert plan.branch == "enumerate" and plan.walk_steps == 0
        assert plan.grid.cells_per_axis == cells
    # 2^15 states exceed ENUM_STATE_CAP: one cell, at any zeta (the
    # accuracy grid at xi = 0.1 would be 117^15 states)
    for zeta in (0.1, 1.0):
        plan = plan_sampler(box(15), alpha_lip=0.75, xi=0.1, zeta=zeta)
        assert plan.branch == "enumerate" and plan.grid.state_count == 1
    # three coarse cells per axis: the accuracy grid runs, gamma = (xi/2)/(2*alpha)
    plan = plan_sampler(box(1, half=0.25), alpha_lip=2.5, xi=1.0, zeta=1.0)
    assert plan.branch == "enumerate" and plan.grid.cells_per_axis == 5


def test_plan_enumerates_small_grids():
    # the coarse grid, ceil(2 * alpha * tau) = 8 cells, up to NO_CLIP_ZETA;
    # above it the accuracy grid, spacing (xi/2)/(2*4*sqrt(1))
    for zeta in (0.0, NO_CLIP_ZETA):
        plan = plan_sampler(box(1), alpha_lip=4.0, xi=0.5, zeta=zeta)
        assert plan.branch == "enumerate" and plan.walk_steps == 0
        assert plan.grid.cells_per_axis == 8
    plan = plan_sampler(box(1), alpha_lip=4.0, xi=0.5, zeta=0.4)
    assert plan.branch == "enumerate" and plan.walk_steps == 0
    assert plan.grid.cells_per_axis == 32


def test_plan_enumerates_grids_smaller_than_the_walk_budget():
    # above NO_CLIP_ZETA: 566^2 = 320,356 accuracy states against a walk
    # of more steps: scoring every state once is less work than the walk
    # and samples the grid law exactly
    plan = plan_sampler(box(2), alpha_lip=2.0, xi=0.02, zeta=0.4)
    assert plan.branch == "enumerate"
    assert plan.grid.state_count == 320_356 > ENUM_STATE_CAP
    assert plan.walk_steps == 0
    assert plan.grid.state_count < mixing_time_bound(2.0, 1.0, 2, 0.01, 0.4)


def test_plan_walks_when_the_budget_is_below_the_state_count():
    # the coarse grid, 8^5 = 32,768 states, is above ENUM_STATE_CAP, so the
    # accuracy grid runs; its walk budget is below its state count
    plan = plan_sampler(box(5), alpha_lip=4.0, xi=2.0, zeta=0.0)
    assert plan.branch == "walk"
    assert plan.grid.state_count == 1_889_568
    assert plan.walk_steps == 762_342


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
    # above NO_CLIP_ZETA the accuracy-sized grid would blow past the walk
    # cap; the planner falls back to the coarse grid
    plan = plan_sampler(box(2), alpha_lip=40.0, xi=0.02, zeta=0.5)
    assert plan.branch == "enumerate"
    assert plan.grid.cells_per_axis == 80  # ceil(2 * alpha * tau)


def test_plan_flat_score_single_cell():
    plan = plan_sampler(box(3), alpha_lip=0.0, xi=0.1, zeta=0.0)
    assert plan.branch == "enumerate"
    assert plan.grid.state_count == 1
    plan = plan_sampler(box(3), alpha_lip=0.0, xi=0.1, zeta=0.0, force_walk=True)
    assert plan.branch == "walk" and plan.walk_steps == 1
    assert plan.grid.state_count == 1


def test_plan_infeasible_raises():
    with pytest.raises(SizeCapError):
        plan_sampler(box(3), alpha_lip=1000.0, xi=0.01, zeta=0.0)


def test_plan_matches_the_reference_planner_at_xi_equal_zeta():
    """No plan moves category and no grid grows against the former planner.

    The samplers always plan with xi = zeta (both are the ledger's zeta), so
    the survey walks d, alpha * tau and xi = zeta on a log grid, planning
    only.  Categories: enumerate (short_cube counts as enumerating one
    state), walk, or the exception raised.  The one growth allowed is the
    two-cell grid where one cell would clip: 2^d <= ENUM_STATE_CAP scores
    where short_cube scored one.
    """
    def outcome(planner, *args):
        try:
            plan = planner(*args)
        except Exception as exc:  # noqa: BLE001 — SizeCapError, float overflow
            return type(exc).__name__, None
        if plan.branch == "short_cube":
            return "enumerate", 1
        return plan.branch, plan.grid.state_count

    # the log grid plus points just above NO_CLIP_ZETA, where in d >= 9 the
    # two-cell clause keeps the former short-cube plans enumerating, and
    # alpha * tau in (1/2, 1), where the coarse grid has two cells per axis
    zetas = np.union1d(np.logspace(-4, math.log10(50.0), 15), [0.3, 0.4, 0.45])
    alphas = np.union1d(np.logspace(-2, 4, 19), [0.6, 0.75, 0.9])
    seen, grown = set(), set()
    for d in range(1, 21):
        for alpha in alphas:
            for zeta in zetas:
                ref, ref_states = outcome(reference_plan, box(d), alpha, zeta, zeta)
                new, states = outcome(plan_sampler, box(d), alpha, zeta, zeta)
                assert new == ref, (d, alpha, zeta)
                if ref_states is not None and states > ref_states:
                    assert states == 2**d <= ENUM_STATE_CAP, (d, alpha, zeta)
                    assert alpha / 2 + 2 * zeta > 1, (d, alpha, zeta)
                    grown.add(d)
                seen.add(ref)
    assert seen == {"enumerate", "SizeCapError"}
    assert grown == set(range(1, 15))


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
    # the coarse grid (4 cells) never clips here, so the law is exact
    # within its cells too: check it on bins four times finer
    domain = box(1)
    xi = 0.5
    ev = abs_evaluator(2.0)
    plan = plan_sampler(domain, 2.0, xi, 0.0)
    assert plan.branch == "enumerate" and plan.grid.cells_per_axis == 4
    pin_plan(monkeypatch, plan)
    gen = np.random.default_rng(99)
    draws = np.array([
        sample_logconcave_detailed(ev, domain, 2.0, xi, gen).theta[0]
        for _ in range(8_000)
    ])
    bins = grid_with_cells(domain, 16)
    counts, _ = np.histogram(draws, bins=16, range=(-0.5, 0.5))
    emp = counts / counts.sum()
    target = bin_masses(2.0, bins)
    assert counts.min() > 0
    worst = np.max(np.abs(np.log(emp) - np.log(target)))
    assert worst <= xi + 0.05


def cosine_evaluator(scale, zeta, gamma):
    """scale * |t| minus zeta * cos(2 pi t / gamma): +zeta at the centers of
    a gamma grid on [-1/2, 1/2] with an even cell count, -zeta at its cell
    edges, the perturbation that pushes the acceptance step hardest."""
    def evaluate_many(thetas):
        t = thetas[:, 0]
        return scale * np.abs(t) - zeta * np.cos(2.0 * np.pi * t / gamma)

    return Evaluator(evaluate_many, zeta_bound=zeta, alpha_lip=scale)


def accepted_log_ratio(ext, grid, per_cell=64):
    """log(accepted density / exp(-f')) on sub-points of every cell.

    Composes the enumeration table with the acceptance rule: cell law
    exp(-f'(c)) / sum, uniform on the cell, accepted with
    exp(min(0, f'(c) - f'(theta) - 1)).
    """
    table = ext.evaluate_many(grid.centers_all())
    log_law = -table - scipy.special.logsumexp(-table)
    offsets = (np.arange(per_cell) + 0.5) / per_cell
    out = []
    for cell in range(grid.state_count):
        thetas = (grid.cube_low[0] + (cell + offsets) * grid.gamma)[:, None]
        f_theta = np.array([ext.eval(t) for t in thetas])
        accept = np.minimum(0.0, table[cell] - f_theta - 1.0)
        out.append(log_law[cell] - np.log(grid.gamma) + accept + f_theta)
    return np.concatenate(out)


def test_coarse_enumeration_is_exact_below_the_clip_bound():
    # the score's extension has alpha = 12 on box(1), so the coarse grid
    # has 24 cells; zeta = 0.3 <= NO_CLIP_ZETA with the worst perturbation
    domain = box(1)
    ext = ExtendedEvaluator(cosine_evaluator(2.0, 0.3, 1.0 / 24), domain, 2.0)
    plan = plan_sampler(domain, ext.alpha_lip, 0.3, 0.3)
    assert plan.branch == "enumerate" and plan.grid.cells_per_axis == 24
    ratio = accepted_log_ratio(ext, plan.grid)
    assert np.ptp(ratio) <= 1e-12


def test_coarse_enumeration_clipping_control_is_not_exact():
    # zeta = 0.6 > NO_CLIP_ZETA with the same perturbation, pinned to the
    # same coarse grid: acceptance clips near the cell edges, and the
    # accepted density is no longer proportional to exp(-f')
    domain = box(1)
    ext = ExtendedEvaluator(cosine_evaluator(2.0, 0.6, 1.0 / 24), domain, 2.0)
    assert plan_sampler(domain, ext.alpha_lip, 0.6, 0.6).grid.cells_per_axis != 24
    ratio = accepted_log_ratio(ext, grid_with_cells(domain, 24))
    assert np.ptp(ratio) > 0.1


def test_coarse_enumeration_draws_follow_the_perturbed_law():
    # KS test of sampler draws against exp(-f') by quadrature
    domain = box(1)
    ev = cosine_evaluator(2.0, 0.3, 1.0 / 24)
    ext = ExtendedEvaluator(ev, domain, 2.0)
    gen = np.random.default_rng(2024)
    draws = np.sort([
        sample_logconcave_detailed(ev, domain, 2.0, 0.3, gen).theta[0]
        for _ in range(1_500)
    ])
    density = lambda t: math.exp(-ext.eval(np.array([t])))
    edges = np.concatenate([[-0.5], draws])
    pieces = [scipy.integrate.quad(density, a, b)[0] for a, b in zip(edges[:-1], edges[1:])]
    cdf = np.cumsum(pieces) / (sum(pieces) + scipy.integrate.quad(density, draws[-1], 0.5)[0])
    n = len(draws)
    stat = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert scipy.stats.kstwo.sf(stat, n) > 0.01


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
    # spikes the score away from the cube center: the acceptance test
    # against the one coarse cell's center then rejects essentially every
    # proposal.  The plan is pinned so the spike's (untruthful) Lipschitz
    # declaration stays in force.
    ev = Evaluator(
        lambda ts: np.where(np.abs(ts[:, 0]) < 1e-12, 0.0, 80.0),
        zeta_bound=0.0, alpha_lip=0.5,
    )
    plan = plan_sampler(domain, 0.5, 0.5, 0.0)
    assert plan.branch == "enumerate" and plan.grid.state_count == 1
    pin_plan(monkeypatch, plan)
    with pytest.raises(SamplerFailure):
        sample_logconcave_detailed(ev, domain, L_lip2=0.5, xi=0.5,
                                   rng=np.random.default_rng(0))


def test_one_cell_enumeration_is_exact_at_the_clip_bound(monkeypatch):
    # f(t) = 2t on one cell of width 1: f(c) - f(theta) - 1 reaches 0 at
    # the left edge and never exceeds it, so the draws follow exp(-2t)
    # exactly, including where f(theta) < f(c) and acceptance is the
    # steepest; KS against the closed-form CDF
    domain = box(1)
    ev = Evaluator(lambda ts: 2.0 * ts[:, 0], zeta_bound=0.0, alpha_lip=2.0)
    plan = plan_sampler(domain, 0.5, 0.5, 0.0)
    assert plan.branch == "enumerate" and plan.grid.state_count == 1
    pin_plan(monkeypatch, plan)
    gen = np.random.default_rng(31)
    draws = [sample_logconcave_detailed(ev, domain, 2.0, 0.5, gen).theta[0]
             for _ in range(2_000)]
    cdf = lambda t: (math.e - np.exp(-2.0 * t)) / (math.e - 1.0 / math.e)
    assert scipy.stats.kstest(draws, cdf).pvalue > 0.01


def test_integer_seed_reproduces_draws():
    domain = box(1)
    ev = abs_evaluator(2.0)
    a = sample_logconcave_detailed(ev, domain, 2.0, 0.4, rng=1234).theta
    b = sample_logconcave_detailed(ev, domain, 2.0, 0.4, rng=1234).theta
    np.testing.assert_array_equal(a, b)
