"""Sampling from exp(-f) over a convex body, given only inexact scores.

The score f is known on the body through an Evaluator whose values may be
off by zeta <= NO_CLIP_ZETA pointwise.  sample_logconcave_detailed extends
f to the body's enclosing cube (ExtendedEvaluator; f' below is the
extension as the oracle scores it, a fixed function whose table rows have
the bits of its point scores).  Each attempt draws a cell c of a cube grid,
a point theta uniform on c, keeps theta with probability
exp(min(0, f'(c) - f'(theta) - 1)), f'(c) being the score of c's center,
and then only if theta lies in the body.  A rejection discards the whole
attempt, up to RESTART_CAP attempts.  plan_sampler picks how c is drawn,
once:

* enumerate -- every cell is scored once and c comes from the exact Gibbs
  law over centers, on the coarse grid: one cell where alpha*tau < 1, and
  ceil(2 alpha tau) cells per axis otherwise.
* walk -- c is where the lazy Metropolis chain on the accuracy grid
  (build_grid) stands after its closed-form step budget.  The first touch
  of a cell scores the unscored cells of its fill window (see
  engine.run_walk) in one batch.

Enumeration needs no fine grid.  With P(c) proportional to exp(-f'(c)) and
theta uniform on c, an accepted theta has density proportional to

    exp(-f'(c)) * exp(f'(c) - f'(theta) - 1) = exp(-1 - f'(theta))

wherever the min does not clip: the cell cancels on any grid, and the
in-body draw has law exactly exp(-f') on the body, within 2*zeta of
exp(-f) in sup-log-ratio (rejection from a piecewise-constant envelope,
Devroye 1986, II.3).  The clip bound: an alpha-Lipschitz f (infinity norm)
moves by at most alpha*gamma/2 between a center and its cell, so
f'(c) - f'(theta) - 1 <= alpha*gamma/2 + 2*zeta - 1.  The coarse and
accuracy grids have alpha*gamma/2 <= 1/4 and one cell at alpha*tau < 1 has
alpha*gamma/2 < 1/2, so at zeta <= NO_CLIP_ZETA = 1/4 no plan clips and
every enumerated draw is exact.  The accuracy grid's fineness serves only
the walk's mixing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..errors import ConfigurationError, SamplerFailure, SizeCapError
from ..problem import Domain
from ..rng import make_generator
from .chain import mixing_time_bound, stationary_from_scores
from .engine import run_walk
from .evaluator import Evaluator, ExtendedEvaluator
from .grid import WALK_STATE_CAP, GridSpec, build_grid, grid_with_cells

#: states up to which the coarse grid is enumerated whatever the walk budget
ENUM_STATE_CAP = 2**14
#: the largest zeta plan_sampler takes: alpha*gamma/2 + 2*zeta - 1 is then
#: at most 1/4 + 1/2 - 1 on every grid with alpha*gamma <= 1/2, and below
#: 1/2 + 1/2 - 1 on one cell at alpha*tau < 1, so no plan clips
NO_CLIP_ZETA = 1.0 / 4.0
#: the largest walk step budget plan_sampler takes: 7-12 h of the compiled
#: walk engine at the 2.5-4.1e7 steps/s it runs perfbench's release-walk
#: (2-core x86-64)
WALK_STEP_CAP = 2**40
#: attempts (cell draws, or full walks) before the sampler gives up
RESTART_CAP = 64


def seed_and_generator(
    rng: Union[int, np.random.Generator],
) -> tuple[Optional[int], np.random.Generator]:
    """Accept an explicit seed or a ready generator; the seed is None for the latter."""
    if isinstance(rng, np.random.Generator):
        return None, rng
    seed = int(rng)
    return seed, make_generator(seed)


@dataclass(frozen=True)
class SamplerPlan:
    """The strategy plan_sampler settled on, enough to replay or audit it."""

    branch: str  # "enumerate" | "walk"
    grid: GridSpec
    walk_steps: int
    alpha_lip: float
    tau: float
    xi: float
    zeta: float

    def as_dict(self) -> dict:
        return {
            "branch": self.branch,
            "states": int(self.grid.state_count),
            "cells_per_axis": int(self.grid.cells_per_axis),
            "gamma": float(self.grid.gamma),
            "walk_steps": int(self.walk_steps),
            "alpha_lip": float(self.alpha_lip),
            "tau": float(self.tau),
            "xi": float(self.xi),
            "zeta": float(self.zeta),
        }


def plan_sampler(
    domain: Domain,
    alpha_lip: float,
    xi: float,
    zeta: float,
    force_walk: bool = False,
) -> SamplerPlan:
    """Choose a strategy for accuracy budget xi under evaluation error zeta.

    zeta must be at most NO_CLIP_ZETA, so that no plan clips (see the module
    docstring) and no grid's size depends on zeta.  The coarse grid has one
    cell where alpha*tau < 1 and m = ceil(2 alpha tau) cells per axis
    (gamma <= 1/(2 alpha)) otherwise.  In order:

    1. unforced, the coarse grid is enumerated when it has at most
       ENUM_STATE_CAP states;
    2. otherwise the accuracy grid is built (build_grid at xi/2, the other
       half of xi going to walk mixing), a SizeCapError above
       WALK_STATE_CAP states;
    3. it is walked for mixing_time_bound's budget when that budget is
       below its state count, or always under force_walk;
    4. otherwise the coarse grid, never larger than the accuracy grid, is
       enumerated.

    A walk budget above WALK_STEP_CAP (or past float range) is a
    SizeCapError.  A flat score (alpha = 0) takes one cell.
    """
    if xi <= 0:
        raise ConfigurationError("xi must be positive")
    if not 0.0 <= zeta <= NO_CLIP_ZETA:
        raise ConfigurationError(f"zeta must be in [0, {NO_CLIP_ZETA}], got {zeta!r}")
    tau = domain.inf_width
    d = domain.dim

    if alpha_lip <= 0.0 and force_walk:
        # flat score: one cell is a faithful grid (unforced, it is the coarse one)
        return SamplerPlan("walk", grid_with_cells(domain, 1), 1, alpha_lip, tau, xi, zeta)

    m = 1 if alpha_lip * tau < 1.0 else math.ceil(2.0 * alpha_lip * tau)
    if force_walk or m**d > ENUM_STATE_CAP:
        acc = xi / 2.0
        try:
            grid = build_grid(domain, alpha_lip, acc)
        except SizeCapError:
            raise SizeCapError(
                f"no feasible grid: accuracy grid exceeds {WALK_STATE_CAP} states and "
                f"the coarse grid exceeds {ENUM_STATE_CAP} or force_walk bars it "
                f"(d={d}, alpha*tau={alpha_lip * tau:.3g})"
            ) from None
        try:
            steps = mixing_time_bound(alpha_lip, tau, d, acc, zeta)
        except OverflowError:  # the e^{xi/2} factor
            steps = math.inf
        # a walk of at least state_count steps is more work than scoring
        # every state once, and its law is only approximate
        if force_walk or steps < grid.state_count:
            if steps > WALK_STEP_CAP:
                raise SizeCapError(f"walk step budget {steps:.3g} exceeds {WALK_STEP_CAP} steps "
                                   f"(d={d}, alpha*tau={alpha_lip * tau:.3g}, zeta={zeta:.3g})")
            return SamplerPlan("walk", grid, steps, alpha_lip, tau, xi, zeta)
    return SamplerPlan("enumerate", grid_with_cells(domain, m), 0, alpha_lip, tau, xi, zeta)


@dataclass(frozen=True)
class SampleDetail:
    """One sample plus how it was produced."""

    theta: np.ndarray
    cell: int
    plan: SamplerPlan
    restarts: int
    walk_faults: int
    engine: Optional[str]


def grid_law(evaluator, grid: GridSpec) -> np.ndarray:
    """Exact Gibbs law over cell centers under the evaluator's scores."""
    table = evaluator.evaluate_many(grid.centers_all())
    return stationary_from_scores(table)


def sample_logconcave_detailed(
    evaluator: Evaluator,
    domain: Domain,
    L_lip2: float,
    xi: float,
    rng: Union[int, np.random.Generator],
    force_walk: bool = False,
    engine: str = "auto",
) -> SampleDetail:
    """Draw one in-body point whose law is within 2*zeta + xi of exp(-f)/Z.

    The plan comes from plan_sampler on the cube extension; force_walk is
    passed on to it.  engine picks the walk kernel (see run_walk).  Raises
    SamplerFailure after RESTART_CAP rejected attempts.
    """
    _, gen = seed_and_generator(rng)
    ext = ExtendedEvaluator(evaluator, domain, L_lip2)
    plan = plan_sampler(domain, ext.alpha_lip, xi, ext.zeta_bound,
                        force_walk=force_walk)

    d = domain.dim
    grid = plan.grid
    table = cdf = None
    faults = 0
    used_engine = None

    for attempt in range(RESTART_CAP):
        if plan.branch == "enumerate":
            if table is None:
                table = ext.evaluate_many(grid.centers_all())
                cdf = np.cumsum(stationary_from_scores(table))
            cell = int(min(np.searchsorted(cdf, gen.random(), side="right"),
                           grid.state_count - 1))
        else:
            if table is None:
                table = np.full(grid.state_count, np.nan)
            result = run_walk(
                table, grid, plan.walk_steps, gen,
                start_state=grid.cell_of(domain.center),
                engine=engine,
                score_fill=lambda idx: ext.evaluate_many(grid.centers(idx)),
            )
            cell, used_engine = result.state, result.engine
            faults += result.faults
        theta = grid.cube_low + (np.array(grid.unravel(cell), dtype=float)
                                 + gen.random(d)) * grid.gamma
        # accept with exp(-f'(theta)) / (e * exp(-f'(center))), then
        # condition on landing inside the body
        accept = math.exp(min(0.0, float(table[cell]) - ext.eval(theta) - 1.0))
        if gen.random() < accept and domain.contains(theta):
            return SampleDetail(theta, cell, plan, attempt, faults, used_engine)

    raise SamplerFailure(
        f"sampler exhausted {RESTART_CAP} attempts on branch {plan.branch!r}; "
        "parameters are likely mis-sized"
    )

