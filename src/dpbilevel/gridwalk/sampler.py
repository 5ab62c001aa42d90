"""Sampling from exp(-f) over a convex body, given only inexact scores.

The score f is known on the body through an Evaluator whose values may be
off by zeta pointwise.  sample_logconcave_detailed extends f to the body's
enclosing cube (ExtendedEvaluator; f' below is the extension as the oracle
scores it, a fixed function whose table rows have the bits of its point
scores).  Each attempt draws a cell c of a cube grid, a point theta uniform
on c, keeps theta with probability exp(min(0, f'(c) - f'(theta) - 1)),
f'(c) being the score of c's center, and then only if theta lies in the
body.  A rejection discards the whole attempt, up to RESTART_CAP attempts.
plan_sampler picks how c is drawn, once:

* enumerate -- every cell is scored once and c comes from the exact Gibbs
  law over centers, on the coarse grid of ceil(2 alpha tau) cells per axis,
  or on one cell in some cases where that grid has two (see plan_sampler).
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
f'(c) - f'(theta) - 1 <= alpha*gamma/2 + 2*zeta - 1.  Where that is positive
the accepted density's log-ratio to exp(-f') moves by at most that much.
The coarse grid has alpha*gamma/2 <= 1/4, so it never clips for
zeta <= NO_CLIP_ZETA = 3/8; one cell (gamma = tau) never clips for
alpha*tau/2 + 2*zeta <= 1.  A grid's fineness serves only the walk's
mixing, and the finer accuracy grid shrinks the clip at larger zeta.
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

#: states up to which a grid is enumerated without consulting the walk
#: budget; larger accuracy grids are enumerated too when the walk would
#: take at least as many steps
ENUM_STATE_CAP = 2**14
#: zeta up to which the coarse grid's acceptance step never clips:
#: alpha*gamma/2 + 2*zeta - 1 <= 1/4 + 3/4 - 1
NO_CLIP_ZETA = 3.0 / 8.0
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

    Unforced, the coarse grid of m = ceil(2 alpha tau) cells per axis
    (gamma <= 1/(2 alpha)) is enumerated when it has at most ENUM_STATE_CAP
    states and one of these holds:

    * zeta <= NO_CLIP_ZETA, so the acceptance step never clips and the law
      is exact (see the module docstring);
    * m <= 2, where the whole cube is at most two cells wide;
    * the accuracy grid exceeds WALK_STATE_CAP, so it has no other answer.

    Where alpha*tau < 1 (m <= 2) the grid is one cell instead when that
    cell does not clip (alpha*tau/2 + 2*zeta <= 1) or when 2**d exceeds
    ENUM_STATE_CAP; the latter clips by at most alpha*tau/2 + 2*zeta - 1,
    as a uniform proposal on the cube against its center does.  So the
    two-cell grid, with its 2**d scores, runs only where it buys a smaller
    clip.

    Otherwise the accuracy grid (build_grid at xi/2, the other half of xi
    going to walk mixing) is enumerated when it has at most
    max(ENUM_STATE_CAP, walk steps) states, walk steps being
    mixing_time_bound's budget, and walked otherwise.  force_walk always
    walks the accuracy grid.  A flat score (alpha = 0) takes one cell.
    """
    if xi <= 0:
        raise ConfigurationError("xi must be positive")
    if zeta < 0:
        raise ConfigurationError("zeta must be nonnegative")
    tau = domain.inf_width
    d = domain.dim

    if alpha_lip <= 0.0 and force_walk:
        # flat score: one cell is a faithful grid (unforced, it is the coarse one)
        return SamplerPlan("walk", grid_with_cells(domain, 1), 1, alpha_lip, tau, xi, zeta)

    m = max(1, int(math.ceil(2.0 * alpha_lip * tau)))
    if alpha_lip * tau < 1.0 and (alpha_lip * tau / 2.0 + 2.0 * zeta <= 1.0
                                  or 2**d > ENUM_STATE_CAP):
        m = 1
    coarse = None
    if not force_walk and m**d <= ENUM_STATE_CAP:
        coarse = SamplerPlan("enumerate", grid_with_cells(domain, m),
                             0, alpha_lip, tau, xi, zeta)
        if zeta <= NO_CLIP_ZETA or m <= 2:
            return coarse

    acc = xi / 2.0
    try:
        grid = build_grid(domain, alpha_lip, acc)
    except SizeCapError:
        if coarse is not None:
            return coarse
        why = "force_walk bars the coarse grid" if force_walk else \
            f"the coarse grid exceeds {ENUM_STATE_CAP}"
        raise SizeCapError(
            f"no feasible grid: accuracy grid exceeds {WALK_STATE_CAP} states "
            f"and {why} (d={d}, alpha*tau={alpha_lip * tau:.3g})"
        ) from None
    # a walk of at least state_count steps is more work than scoring every
    # state once, and its law is only approximate: walk only when its
    # budget is below the state count.  Grids within ENUM_STATE_CAP skip
    # the budget; one past float range (e^{12 zeta} at a large zeta) is a
    # SizeCapError.
    if force_walk or grid.state_count > ENUM_STATE_CAP:
        try:
            steps = mixing_time_bound(alpha_lip, tau, d, acc, zeta)
        except OverflowError:
            raise SizeCapError(
                f"walk step budget exceeds float range "
                f"(d={d}, alpha*tau={alpha_lip * tau:.3g}, zeta={zeta:.3g})"
            ) from None
        if force_walk or steps < grid.state_count:
            return SamplerPlan("walk", grid, steps, alpha_lip, tau, xi, zeta)
    return SamplerPlan("enumerate", grid, 0, alpha_lip, tau, xi, zeta)


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

