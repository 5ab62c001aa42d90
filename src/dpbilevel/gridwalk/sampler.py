"""Sampling from exp(-f) over a convex body, given only inexact scores.

The score f is known on the body through an Evaluator whose values may be
off by zeta pointwise.  sample_logconcave_detailed extends f to the body's
enclosing cube (projection + distance term + gauge penalty, see
ExtendedEvaluator), draws a point on the cube whose law tracks
exp(-extension), and keeps it only if it lies in the body — conditioning
that turns the cube law back into exp(-f) on the body, within sup-log-ratio
2*zeta + xi.

Per attempt the cube point is produced one of three ways, picked once by
plan_sampler:

* short_cube — the score varies by less than 1 across the cube, so a
  uniform proposal is accepted against the cube center at rate >= 1/e.
* enumerate — every cell is scored once and the cell comes from the exact
  Gibbs law over centers (no walk, no mixing error).  Chosen for grids of up
  to ENUM_STATE_CAP states, and for any grid no larger than the walk's step
  budget: a walk that long costs more than the enumeration it approximates.
  In d <= 3 the budget exceeds every state count up to WALK_STATE_CAP.
* walk — the lazy Metropolis chain run for its closed-form step budget,
  scoring cells lazily: the first touch of a cell scores the unscored cells
  of its fill window (see engine.run_walk) in one batch.  Chosen only when
  that budget is below the state count (large grids in d >= 4) or when
  forced.

Grid attempts finish by proposing a uniform point theta in the landed cell
and accepting with exp(-f'(theta)) / (e * exp(-f'(center))); a rejection
discards the whole attempt (the walk is restarted, matching the analyzed
procedure) up to RESTART_CAP attempts.
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

#: states up to which every cell is scored and the Gibbs law drawn exactly
#: without consulting the walk budget; larger grids are enumerated too when
#: the walk would take at least as many steps, and the coarse fallback is
#: taken only if it has at most this many states
ENUM_STATE_CAP = 2**14
#: attempts (uniform proposals, or full walks) before the sampler gives up
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

    branch: str  # "short_cube" | "enumerate" | "walk"
    grid: Optional[GridSpec]
    walk_steps: int
    alpha_lip: float
    tau: float
    xi: float
    zeta: float

    def as_dict(self) -> dict:
        return {
            "branch": self.branch,
            "states": None if self.grid is None else int(self.grid.state_count),
            "cells_per_axis": None if self.grid is None else int(self.grid.cells_per_axis),
            "gamma": None if self.grid is None else float(self.grid.gamma),
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

    The budget is split evenly: half to grid discretization, half to walk
    mixing (branches that sample their grid law exactly simply keep the
    second half).  The accuracy grid (at most WALK_STATE_CAP states) is
    enumerated when it has at most max(ENUM_STATE_CAP, walk steps) states,
    where walk steps is mixing_time_bound's budget, and walked otherwise.
    When the accuracy-sized grid exceeds WALK_STATE_CAP, the planner falls
    back to the coarsest valid grid (gamma = 1/(2 alpha)) provided it has at
    most ENUM_STATE_CAP states — exact sampling on a coarser grid rather
    than no answer; the achieved gamma is visible on the plan.  force_walk
    disables the short-cube and enumeration branches and the coarse
    fallback.
    """
    if xi <= 0:
        raise ConfigurationError("xi must be positive")
    if zeta < 0:
        raise ConfigurationError("zeta must be nonnegative")
    tau = domain.inf_width
    d = domain.dim

    if alpha_lip <= 0.0:
        # flat score: one cell is a faithful grid
        grid = grid_with_cells(domain, 1)
        branch = "walk" if force_walk else "enumerate"
        return SamplerPlan(branch, grid, 1 if force_walk else 0,
                           alpha_lip, tau, xi, zeta)

    if alpha_lip * tau < 1.0 and not force_walk:
        return SamplerPlan("short_cube", None, 0, alpha_lip, tau, xi, zeta)

    acc = xi / 2.0
    try:
        grid = build_grid(domain, alpha_lip, acc)
    except SizeCapError:
        grid = None

    if grid is not None:
        # a walk of at least state_count steps is more work than scoring
        # every state once, and its law is only approximate: walk only when
        # its budget is below the state count.  Grids within ENUM_STATE_CAP
        # skip the budget, which overflows float range at a large zeta.
        if force_walk or grid.state_count > ENUM_STATE_CAP:
            steps = mixing_time_bound(alpha_lip, tau, d, acc, zeta)
            if force_walk or steps < grid.state_count:
                return SamplerPlan("walk", grid, steps, alpha_lip, tau, xi, zeta)
        return SamplerPlan("enumerate", grid, 0, alpha_lip, tau, xi, zeta)
    if not force_walk:
        m_min = max(1, int(math.ceil(2.0 * alpha_lip * tau)))
        if m_min**d <= ENUM_STATE_CAP:
            coarse = grid_with_cells(domain, m_min, alpha_lip=alpha_lip)
            return SamplerPlan("enumerate", coarse, 0, alpha_lip, tau, xi, zeta)
    raise SizeCapError(
        f"no feasible grid: accuracy grid exceeds {WALK_STATE_CAP} states "
        f"and no enumerable fallback exists (d={d}, alpha*tau={alpha_lip * tau:.3g})"
    )


@dataclass(frozen=True)
class SampleDetail:
    """One sample plus how it was produced."""

    theta: np.ndarray
    cell: Optional[int]
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
    cube_low = np.asarray(domain.center, dtype=float) - plan.tau / 2.0
    grid = plan.grid
    table = cdf = None
    anchor = None  # score the acceptance test compares against
    faults = 0
    used_engine = None

    for attempt in range(RESTART_CAP):
        if plan.branch == "short_cube":
            if anchor is None:
                anchor = ext.eval(np.asarray(domain.center, dtype=float))
            cell = None
            theta = cube_low + plan.tau * gen.random(d)
        else:
            if plan.branch == "enumerate":
                if table is None:
                    table = ext.evaluate_many(grid.centers_all())
                    cdf = np.cumsum(stationary_from_scores(table))
                cell = int(min(np.searchsorted(cdf, gen.random(), side="right"),
                               grid.state_count - 1))
            elif plan.branch == "walk":
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
            else:
                raise ConfigurationError(f"unknown sampler branch {plan.branch!r}")
            anchor = float(table[cell])
            theta = grid.cube_low + (np.array(grid.unravel(cell), dtype=float)
                                     + gen.random(d)) * grid.gamma
        # accept with F'(theta) / (e * F'(anchor point)), then condition
        # on landing inside the body
        accept = math.exp(min(0.0, anchor - ext.eval(theta) - 1.0))
        if gen.random() < accept and domain.contains(theta):
            return SampleDetail(theta, cell, plan, attempt, faults, used_engine)

    raise SamplerFailure(
        f"sampler exhausted {RESTART_CAP} attempts on branch {plan.branch!r}; "
        "parameters are likely mis-sized"
    )

