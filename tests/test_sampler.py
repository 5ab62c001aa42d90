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
    WALK_STEP_CAP,
    SamplerPlan,
    grid_law,
    plan_sampler,
    sample_logconcave_detailed,
)
from dpbilevel.gridwalk.chain import mixing_time_bound
from dpbilevel.gridwalk.engine import run_walk
from dpbilevel.gridwalk.grid import build_grid, grid_with_cells
from dpbilevel.problem import Domain
from oracles import any_zeta_plan


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

def plan_or_error(planner, *args, **kwargs):
    """The planner's plan, or the exception it raised."""
    try:
        return planner(*args, **kwargs)
    except SizeCapError as exc:
        return exc


#: the planning survey: d, alpha on box(d) (tau = 1, so alpha = alpha * tau)
#: on a log grid plus the two sides of alpha * tau = 1
SURVEY_DIMS = range(1, 21)
SURVEY_ALPHAS = np.union1d(np.logspace(-2, 4, 19), [0.6, 0.75, 0.9, 1.0])


def test_plan_one_cell_when_score_is_nearly_flat():
    # alpha * tau < 1: one cell at every zeta the planner takes, since
    # alpha*tau/2 + 2*zeta < 1 there (no clip).  At alpha * tau = 1 the
    # coarse grid has two cells per axis, at 1.25 three.
    for zeta in (0.0, 0.1, NO_CLIP_ZETA):
        plan = plan_sampler(box(1, half=0.25), alpha_lip=1.0, xi=0.1, zeta=zeta)
        assert plan.branch == "enumerate"
        assert plan.grid.state_count == 1 and plan.walk_steps == 0
    for alpha, cells in ((2.0, 2), (2.5, 3)):
        plan = plan_sampler(box(1, half=0.25), alpha_lip=alpha, xi=1.0, zeta=NO_CLIP_ZETA)
        assert plan.branch == "enumerate" and plan.grid.cells_per_axis == cells
    # forced, the accuracy grid is walked: gamma = (xi/2) / (2 * alpha)
    plan = plan_sampler(box(1, half=0.25), 1.0, 0.5, 0.0, force_walk=True)
    assert plan.branch == "walk" and plan.grid.cells_per_axis == 4


def test_plan_two_cells_per_axis_only_where_one_cell_clips():
    # 2 * alpha * tau = 1.5: one cell would clip only when
    # alpha*tau/2 + 2*zeta > 1, i.e. zeta > 0.3125 > NO_CLIP_ZETA.  The
    # planner refuses those zetas, so the one cell is taken at every zeta
    # it accepts and a two-cell grid is never planned below alpha*tau = 1
    for zeta in (0.0, 0.1, NO_CLIP_ZETA):
        plan = plan_sampler(box(12, half=0.25), alpha_lip=1.5, xi=1.0, zeta=zeta)
        assert plan.branch == "enumerate" and plan.walk_steps == 0
        assert plan.grid.cells_per_axis == 1
    for zeta in (0.3125, 0.35, 1.0):
        with pytest.raises(ConfigurationError, match="^zeta must be in"):
            plan_sampler(box(12, half=0.25), alpha_lip=1.5, xi=1.0, zeta=zeta)
    # one cell in d = 15 too, however fine the accuracy grid (117^15
    # states at xi = 0.1)
    for zeta in (0.0, 0.1, NO_CLIP_ZETA):
        plan = plan_sampler(box(15, half=0.5), alpha_lip=0.75, xi=0.1, zeta=zeta)
        assert plan.branch == "enumerate" and plan.grid.state_count == 1


def test_plan_enumerates_small_grids():
    # the coarse grid, ceil(2 * alpha * tau) = 8 cells, at every zeta and
    # however fine the accuracy grid
    for zeta in (0.0, NO_CLIP_ZETA):
        for xi in (0.5, 1e-4):
            plan = plan_sampler(box(1), alpha_lip=4.0, xi=xi, zeta=zeta)
            assert plan.branch == "enumerate" and plan.walk_steps == 0
            assert plan.grid.cells_per_axis == 8


def test_plan_enumerates_grids_smaller_than_the_walk_budget():
    # 129^2 = 16,641 coarse states, one grid line past ENUM_STATE_CAP: the
    # accuracy grid (365^2 states) would take a walk of more steps than it
    # has states, so the planner enumerates the coarse grid, which samples
    # exactly and is smaller still
    plan = plan_sampler(box(2), alpha_lip=64.5, xi=1.0, zeta=NO_CLIP_ZETA)
    assert plan.branch == "enumerate" and plan.walk_steps == 0
    assert plan.grid.state_count == 16_641 > ENUM_STATE_CAP
    acc = build_grid(box(2), 64.5, 0.5)
    assert acc.state_count == 133_225
    assert acc.state_count < mixing_time_bound(64.5, 1.0, 2, 0.5, NO_CLIP_ZETA)


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
    # xi = 2000 puts the e^{xi/2} factor of the walk budget past float
    # range: unforced, the coarse grid is enumerated; forced, the budget is
    # a SizeCapError
    with pytest.raises(OverflowError):
        mixing_time_bound(64.5, 1.0, 2, 1000.0, NO_CLIP_ZETA)
    plan = plan_sampler(box(2), alpha_lip=64.5, xi=2000.0, zeta=NO_CLIP_ZETA)
    assert plan.branch == "enumerate" and plan.grid.cells_per_axis == 129
    with pytest.raises(SizeCapError, match=r"^walk step budget inf exceeds "):
        plan_sampler(box(2), 64.5, 2000.0, NO_CLIP_ZETA, force_walk=True)


def test_plan_walk_budget_grows_with_declared_error():
    quiet = plan_sampler(box(2), 2.0, 0.02, 0.0, force_walk=True)
    noisy = plan_sampler(box(2), 2.0, 0.02, NO_CLIP_ZETA, force_walk=True)
    assert noisy.walk_steps > quiet.walk_steps


def test_plan_walk_budget_above_the_step_cap_is_a_size_cap_error():
    # a forced walk of 40,000 states would take 5.4e14 steps
    with pytest.raises(SizeCapError, match=r"^walk step budget 5\.41e\+14 exceeds "
                       rf"{WALK_STEP_CAP} steps \(d=1, alpha\*tau=1e\+03, zeta=0\.25\)$"):
        plan_sampler(box(1), 1000.0, 0.1, NO_CLIP_ZETA, force_walk=True)
    plan = plan_sampler(box(2), 40.0, 2.0, NO_CLIP_ZETA, force_walk=True)
    assert plan.branch == "walk" and plan.walk_steps < WALK_STEP_CAP


def test_plan_coarse_fallback_keeps_enumeration_exact():
    # the accuracy-sized grid would blow past the walk cap; the coarse grid
    # needs none of it
    with pytest.raises(SizeCapError):
        build_grid(box(2), 40.0, 0.01)
    plan = plan_sampler(box(2), alpha_lip=40.0, xi=0.02, zeta=NO_CLIP_ZETA)
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
    with pytest.raises(SizeCapError, match=r"^no feasible grid: accuracy grid exceeds "):
        plan_sampler(box(3), alpha_lip=1000.0, xi=0.01, zeta=0.0)


def test_no_plan_clips_and_every_enumeration_is_the_coarse_grid():
    """At zeta = NO_CLIP_ZETA, over the survey, forced or not: the clip
    bound alpha*gamma/2 + 2*zeta - 1 is negative on every plan's grid, an
    enumerate plan's grid is the coarse one, and the accuracy grid appears
    only in walk plans."""
    zeta = NO_CLIP_ZETA
    branches = set()
    for d in SURVEY_DIMS:
        for alpha in SURVEY_ALPHAS:
            for xi in (zeta, 10 * zeta):
                for force in (False, True):
                    plan = plan_or_error(plan_sampler, box(d), alpha, xi, zeta,
                                         force_walk=force)
                    if isinstance(plan, SizeCapError):
                        continue
                    branches.add(plan.branch)
                    assert alpha * plan.grid.gamma / 2 + 2 * zeta - 1 < 0, (d, alpha)
                    if plan.branch == "enumerate":
                        coarse = 1 if alpha < 1.0 else math.ceil(2.0 * alpha)
                        assert plan.grid.cells_per_axis == coarse, (d, alpha)
                    else:
                        acc = build_grid(box(d), alpha, xi / 2)
                        assert plan.grid.cells_per_axis == acc.cells_per_axis, (d, alpha)
    assert branches == {"enumerate", "walk"}


def test_plan_outcomes_match_the_any_zeta_planner():
    """No plan changes outcome against the planner that took any zeta.

    Outcomes are a release (enumerate or walk) or the exception raised, at
    zeta up to NO_CLIP_ZETA and xi in {zeta, 10 zeta}, forced or not.  The
    only exceptions the former planner did not raise are forced budgets
    above WALK_STEP_CAP; an unforced plan keeps its branch, and an
    enumerated grid moves only from the accuracy grid to the smaller coarse
    one.
    """
    zetas = np.append(np.logspace(-4, math.log10(NO_CLIP_ZETA), 10)[:-1], NO_CLIP_ZETA)
    moved = capped = 0
    for d in SURVEY_DIMS:
        for alpha in SURVEY_ALPHAS:
            for zeta in zetas:
                for xi in (zeta, 10 * zeta):
                    for force in (False, True):
                        args = (box(d), alpha, xi, zeta)
                        ref = plan_or_error(any_zeta_plan, *args, force_walk=force)
                        new = plan_or_error(plan_sampler, *args, force_walk=force)
                        where = (d, alpha, zeta, xi, force)
                        if isinstance(ref, SamplerPlan) and isinstance(new, SizeCapError):
                            assert force and ref.walk_steps > WALK_STEP_CAP, where
                            capped += 1
                            continue
                        assert type(new) is type(ref), where
                        if isinstance(new, SizeCapError):
                            continue
                        assert new.branch == ref.branch, where
                        if new.grid.cells_per_axis != ref.grid.cells_per_axis:
                            assert new.branch == "enumerate", where
                            assert new.grid.state_count < ref.grid.state_count, where
                            moved += 1
    assert moved > 0 and capped > 0


def test_plan_argument_validation():
    with pytest.raises(ConfigurationError):
        plan_sampler(box(1), 1.0, 0.0, 0.0)
    # zeta above NO_CLIP_ZETA = 1/4 could clip: refused
    assert NO_CLIP_ZETA == 0.25
    for zeta in (-0.1, math.nextafter(NO_CLIP_ZETA, 1.0), 0.4, math.nan):
        with pytest.raises(ConfigurationError, match="^zeta must be in"):
            plan_sampler(box(1), 1.0, 0.1, zeta)


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
    # has 24 cells; zeta = NO_CLIP_ZETA with the worst perturbation
    domain = box(1)
    ext = ExtendedEvaluator(cosine_evaluator(2.0, NO_CLIP_ZETA, 1.0 / 24), domain, 2.0)
    plan = plan_sampler(domain, ext.alpha_lip, NO_CLIP_ZETA, NO_CLIP_ZETA)
    assert plan.branch == "enumerate" and plan.grid.cells_per_axis == 24
    ratio = accepted_log_ratio(ext, plan.grid)
    assert np.ptp(ratio) <= 1e-12


def test_coarse_enumeration_clipping_control_is_not_exact():
    # zeta = 0.6 > NO_CLIP_ZETA with the same perturbation, on the same
    # coarse grid (the plan is pinned: plan_sampler refuses this zeta):
    # acceptance clips near the cell edges, and the accepted density is no
    # longer proportional to exp(-f')
    domain = box(1)
    ext = ExtendedEvaluator(cosine_evaluator(2.0, 0.6, 1.0 / 24), domain, 2.0)
    with pytest.raises(ConfigurationError):
        plan_sampler(domain, ext.alpha_lip, 0.6, 0.6)
    ratio = accepted_log_ratio(ext, grid_with_cells(domain, 24))
    assert np.ptp(ratio) > 0.1


def test_coarse_enumeration_draws_follow_the_perturbed_law():
    # KS test of sampler draws against exp(-f') by quadrature
    domain = box(1)
    ev = cosine_evaluator(2.0, NO_CLIP_ZETA, 1.0 / 24)
    ext = ExtendedEvaluator(ev, domain, 2.0)
    gen = np.random.default_rng(2024)
    draws = np.sort([
        sample_logconcave_detailed(ev, domain, 2.0, NO_CLIP_ZETA, gen).theta[0]
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


def test_one_cell_draw_is_exact_in_d15_at_no_clip_zeta(monkeypatch):
    # alpha * tau = 0.75 in d = 15, where two cells per axis exceed
    # ENUM_STATE_CAP.  The score tilts axis 0 and adds +zeta at the center,
    # -zeta at the far edge: f'(c) - f'(theta) - 1 peaks at
    # alpha*tau/2 + 2*zeta - 1.  At zeta = 0.4 the planner that took any
    # zeta drew from this one cell, and the accepted log-density
    # min(0, f'(c) - f'(theta) - 1) - f'(c) is no longer -f'(theta) plus a
    # constant; at NO_CLIP_ZETA it is, and axis 0 of the draws follows
    # exp(-f'): KS against quadrature
    d, alpha, zeta = 15, 0.75, NO_CLIP_ZETA
    domain = box(d)
    assert any_zeta_plan(domain, alpha, 0.4, 0.4).grid.state_count == 1
    t = np.linspace(-0.5, 0.5, 1001)
    for z, exact in ((zeta, True), (0.4, False)):
        f = -alpha * t + z * np.cos(2.0 * np.pi * t)
        assert (np.ptp(np.minimum(0.0, z - f - 1.0) + f) <= 1e-12) == exact
    plan = plan_sampler(domain, alpha, zeta, zeta)
    assert plan.branch == "enumerate" and plan.grid.state_count == 1
    pin_plan(monkeypatch, plan)
    f1 = lambda t: -alpha * t + zeta * np.cos(2.0 * np.pi * t)
    ev = Evaluator(lambda ts: f1(ts[:, 0]), zeta_bound=zeta, alpha_lip=alpha)
    gen = np.random.default_rng(15)
    draws = [sample_logconcave_detailed(ev, domain, alpha, zeta, gen).theta[0]
             for _ in range(2_000)]
    mass = lambda b: scipy.integrate.quad(lambda t: math.exp(-f1(t)), -0.5, b)[0]
    total = mass(0.5)
    assert scipy.stats.kstest(draws, np.vectorize(lambda b: mass(b) / total)).pvalue > 0.01


def test_integer_seed_reproduces_draws():
    domain = box(1)
    ev = abs_evaluator(2.0)
    a = sample_logconcave_detailed(ev, domain, 2.0, 0.4, rng=1234).theta
    b = sample_logconcave_detailed(ev, domain, 2.0, 0.4, rng=1234).theta
    np.testing.assert_array_equal(a, b)
