"""Private selection of the upper-level variable.

Five mechanisms, all pure functions of (problem, dataset, constants, budget,
seed):

* exponential_mechanism — samples x with density proportional to
  exp(-(eps'/(2s)) * Phi_hat(x)) over the feasible set, eps' = eps/2,
  with the remaining eps/2 covering the sampler's evaluation error and
  mixing slack (xi at most eps'/6, zeta at most eps'/6 and NO_CLIP_ZETA,
  entering the end-to-end ratio as 4*zeta + 2*xi).  Pure eps-DP.
* regularized_exp_mechanism — Gibbs law of k * (Phi_hat(x) + mu_reg/2 * |x|^2)
  with mu_reg and k set from (eps, delta, n); (eps, delta)-DP.  The
  proportionality constant inside k is exposed as k_reg and validated by
  the exact hockey-stick audit rather than claimed from a proof.
* grad_norm_exp_mechanism — exponential mechanism whose score is the norm
  of the hypergradient at a tightly solved lower level; selects
  near-stationary points of nonconvex objectives.  Pure eps-DP.
* dp_second_order_gd — T projected gradient steps on inexact hypergradients
  with per-coordinate Gaussian noise; schedules (sigma, eta, T, alpha)
  follow closed forms in the declared constants and are recorded in the
  ledger.  (eps, delta)-DP when sigma meets its schedule.
* warm_start — exponential mechanism at half the budget to pick x0, then
  dp_second_order_gd at the other half starting there, with the start gap
  bound the first stage guarantees.

Every result carries a ledger sufficient to replay it bit-for-bit
(replay_mechanism); its ledger is plain JSON, and replaying from the parsed
ledger is bit-identical too.  INPUT_RULES, at the top, is the one place a
keyword's valid values are written: every mechanism checks its keywords
against it on entry (check_inputs), and the CLI checks each sweep cell's
keywords against it before any trial runs.  MECHANISMS, at the bottom, is
the one place a mechanism's name maps to the keywords its ledger records
(which replay and the CLI pass back in) and, for the samplers, to the score
whose exact grid law the audits check (mechanism_grid_law).  A score is one
batch function of the points (an Evaluator) whose rows keep their bits in a
batch of any size (tested); the sampler's walk scores a single point as a
batch of one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import ConfigurationError
from .gridwalk.evaluator import Evaluator, ExtendedEvaluator
from .gridwalk.grid import GridSpec
from .gridwalk.sampler import (NO_CLIP_ZETA, grid_law, sample_logconcave_detailed,
                               seed_and_generator)
from .hypergrad import approx_hypergradient
from .inner import phi_solution_pair, solve_lower_level
from .problem import AssumptionConstants, BilevelProblem, Dataset, _row_norms, derive_constants
from .rng import derive_seed

#: constant inside k = k_reg * mu_reg * n^2 eps^2 / (G^2 ln(1/delta))
K_REG = 0.125

RngLike = Union[int, np.random.Generator]


def _real(test: Callable[[float], bool]) -> Callable[[object], bool]:
    """test, on a real number that is not a bool (NumPy scalars are real)."""
    return lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and test(v)


_POSITIVE = ("positive and finite", _real(lambda v: 0 < v < math.inf))
_NONNEGATIVE = ("finite and nonnegative", _real(lambda v: 0 <= v < math.inf))
_COUNT = ("an integer >= 1", _real(lambda v: 1 <= v < math.inf and v == int(v)))
_BOOL = ("a bool", lambda v: isinstance(v, (bool, np.bool_)))

#: descent schedule overrides (dp_second_order_gd's overrides, warm_start's
#: stage_b_overrides): T, eta, alpha and sigma replace their schedules,
#: gap_upper_bound the gap the T and alpha schedules assume, and unsafe
#: allows a sigma below its schedule
_OVERRIDE_RULES = {
    "T": _COUNT,
    "eta": _POSITIVE,
    "alpha": _POSITIVE,
    "sigma": _NONNEGATIVE,
    "gap_upper_bound": _NONNEGATIVE,
    "unsafe": _BOOL,
}

#: What each mechanism keyword must be, as (rule, test); a nested table
#: lists the keys a dict-valued keyword may hold.  x0 has no rule here: its
#: shape is the problem's, checked by dp_second_order_gd.
INPUT_RULES = {
    "eps": _POSITIVE,
    "delta": ("in (0, 1)", _real(lambda v: 0 < v < 1)),
    # +inf leaves the score tolerance at its cap
    "xi": ("positive", _real(lambda v: v > 0)),
    # 0 gives the constant score
    "k_reg": _NONNEGATIVE,
    "mode": ("'erm' or 'population'",
             lambda v: isinstance(v, str) and v in ("erm", "population")),
    "force_walk": _BOOL,
    "overrides": _OVERRIDE_RULES,
    "stage_b_overrides": _OVERRIDE_RULES,
}


def check_inputs(values: dict, rules: dict = INPUT_RULES, within: str = "") -> None:
    """ConfigurationError naming the first value its rule refuses.

    The message reads "{key} must be {rule}, got {value!r}", or
    "{within}['{key}'] must be ..." for a key of a nested table.  A nested
    keyword takes None or a dict of its table's keys.
    """
    for key, value in values.items():
        name = f"{within}[{key!r}]" if within else key
        entry = rules.get(key)
        if entry is None:
            raise ConfigurationError(f"unknown key {name}; have {sorted(rules)}")
        if isinstance(entry, dict):
            if value is not None and not isinstance(value, dict):
                raise ConfigurationError(f"{name} must be a dict, got {value!r}")
            check_inputs(value or {}, entry, name)
        elif not entry[1](value):
            raise ConfigurationError(f"{name} must be {entry[0]}, got {value!r}")


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) differential-privacy budget."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        rule, test = INPUT_RULES["eps"]
        if not test(self.epsilon):
            raise ConfigurationError(f"budget epsilon must be {rule}, got {self.epsilon!r}")
        if not _real(lambda v: 0 <= v < 1)(self.delta):
            raise ConfigurationError(f"budget delta must be in [0, 1), got {self.delta!r}")

    def as_dict(self) -> dict:
        return {"epsilon": float(self.epsilon), "delta": float(self.delta)}


@dataclass(frozen=True)
class MechanismResult:
    """Output vector, spent budget, and a replayable parameter ledger.

    Only x_out (with the budget) is the private release.  The ledger is a
    private record: it holds the seed, which with the data fixes x_out, and
    restarts and walk_faults, which depend on the data and which no DP
    claim covers.
    """

    x_out: np.ndarray
    budget_spent: PrivacyBudget
    ledger: dict = field(compare=False)
    #: descent releases only: the iterates x_0..x_pick, shape (pick + 1, d_x),
    #: ending at x_out; steps after the pick are never run
    trajectory: Optional[np.ndarray] = None


def _child_seed(seed: Optional[int], gen: np.random.Generator, tag: str) -> int:
    """Derived integer seed for a sub-mechanism (always replayable on its own)."""
    if seed is not None:
        return derive_seed(seed, tag)
    return int(gen.integers(2**63))


# ---------------------------------------------------------------------------
# score evaluators shared by the mechanisms and their exact-law audits
# ---------------------------------------------------------------------------

def _constant_evaluator() -> Evaluator:
    """Flat score: the mechanism degenerates to uniform sampling."""
    return Evaluator(lambda thetas: np.zeros(len(thetas)), zeta_bound=0.0, alpha_lip=0.0)


def _phi_evaluator(
    p: BilevelProblem,
    Z: Dataset,
    a: AssumptionConstants,
    coeff: float,
    zeta: float,
    L_lip2: float,
) -> Evaluator:
    """Evaluator for coeff * Phi_hat, coeff > 0, with scaled error at most zeta.

    A batch is one lockstep lower-level solve with every row started from
    y_box.center, so a point's score does not depend on the other points
    scored with it.  Both the mechanism and the audit go through this same
    path, so the scores they see are identical.
    """
    zeta_phi = zeta / coeff

    def evaluate_many(X: np.ndarray) -> np.ndarray:
        return coeff * phi_solution_pair(p, Z, X, zeta_phi, a)[0]

    return Evaluator(evaluate_many, zeta_bound=zeta, alpha_lip=L_lip2 * math.sqrt(p.d_x))


def _alpha_fallback(a: AssumptionConstants) -> float:
    """Inner tolerance when the schedule's own formula is vacuous (C = 0)."""
    return 1e-8 * max(1.0, a.D_y)


def _exp_score(p, Z, a, eps: float, xi: float, kind: str) -> tuple[dict, Evaluator]:
    """Ledger parameters and score of a pure-DP sampler ("phi" or "grad_norm").

    Shared by a mechanism run and its exact-law audit.
    """
    der = derive_constants(a, Z.n)
    eps_prime = eps / 2.0
    # zeta and xi both default to eps'/6 (the accounting that closes the
    # eps' + 4 zeta + 2 xi <= eps budget); a tighter request only helps,
    # and zeta never exceeds NO_CLIP_ZETA, where the sampler is exact.
    err = min(float(xi), eps_prime / 6.0)
    zeta = min(err, NO_CLIP_ZETA)
    sens, slope = (der.s, der.L_bar) if kind == "phi" else (der.G, der.beta_phi)
    coeff = 0.0 if sens == 0.0 else float(eps_prime / (2.0 * sens))
    L2 = float(coeff * slope)
    if coeff == 0.0:
        evaluator = _constant_evaluator()
    elif kind == "phi":
        evaluator = _phi_evaluator(p, Z, a, coeff, zeta, L2)
    else:
        # coeff * ||hypergradient||, a batch being one lockstep solve from
        # y_box.center to C * alpha <= zeta / coeff, and one stacked
        # hypergradient: zeta / coeff is G/3 at zeta = eps'/6
        alpha_inner = (der.G / (3.0 * der.C) * (zeta / (eps_prime / 6.0))
                       if der.C > 0 else _alpha_fallback(a))

        def evaluate_many(X: np.ndarray) -> np.ndarray:
            res = solve_lower_level(p, Z, X, alpha_inner, a)
            return coeff * _row_norms(approx_hypergradient(p, Z, X, res.y))

        evaluator = Evaluator(evaluate_many, zeta_bound=zeta, alpha_lip=L2 * math.sqrt(p.d_x))
    params = {
        "eps": float(eps), "xi": float(xi), "n": Z.n, "eps_prime": eps_prime,
        "sensitivity": float(sens), "coeff": coeff, "zeta": zeta,
        "xi_used": err, "L_lip2": L2,
    }
    return params, evaluator


def _regularized_score(p, Z, a, eps, delta, mode, xi, k_reg) -> tuple[dict, Evaluator]:
    """Ledger parameters and the score k * (Phi_hat(x) + mu_reg/2 * ||x||^2)."""
    if a.D_x <= 0:
        raise ConfigurationError("regularized mechanism needs D_x > 0")
    n = Z.n
    der = derive_constants(a, n)
    G = der.G
    ln1d = math.log(1.0 / delta)
    if G == 0.0:
        mu_reg = k = 0.0
    else:
        mu_reg = G * math.sqrt(p.d_x * ln1d) / (n * a.D_x * eps)
        if mode == "population":
            mu_reg += G / (a.D_x * math.sqrt(n))
        k = k_reg * mu_reg * n**2 * eps**2 / (G**2 * ln1d)
    k, mu_reg = float(k), float(mu_reg)
    err = min(float(xi), eps / 24.0)
    zeta = min(err, NO_CLIP_ZETA)
    L2 = float(k * (der.L_bar + mu_reg * p.domain_x.max_norm()))
    params = {
        "eps": float(eps), "delta": float(delta), "mode": mode, "xi": float(xi),
        "k_reg": float(k_reg), "n": n, "G": float(G), "mu_reg": mu_reg,
        "k": k, "zeta": zeta, "xi_used": err, "L_lip2": L2,
    }
    if k == 0.0:
        return params, _constant_evaluator()
    base = _phi_evaluator(p, Z, a, k, zeta, L2)

    def evaluate_many(X: np.ndarray) -> np.ndarray:
        return base.evaluate_many(X) + 0.5 * k * mu_reg * np.einsum("ij,ij->i", X, X)

    return params, Evaluator(evaluate_many, zeta_bound=zeta, alpha_lip=base.alpha_lip)


def _sampler_release(p, Z, a, name, rng, force_walk, engine, **inputs) -> MechanismResult:
    """Build the named sampler's score, draw one point, and ledger the draw."""
    check_inputs(dict(inputs, force_walk=force_walk))
    seed, gen = seed_and_generator(rng)
    params, evaluator = MECHANISMS[name].score(p, Z, a, **inputs)
    detail = sample_logconcave_detailed(
        evaluator, p.domain_x, params["L_lip2"], params["xi_used"], gen,
        force_walk=force_walk, engine=engine,
    )
    ledger = {
        "mechanism": name,
        "seed": seed,
        "force_walk": bool(force_walk),
        **params,
        "plan": detail.plan.as_dict(),
        "cell": detail.cell,
        "restarts": detail.restarts,
        "walk_faults": detail.walk_faults,
    }
    budget = PrivacyBudget(inputs["eps"], inputs.get("delta", 0.0))
    return MechanismResult(detail.theta, budget, ledger)


def exponential_mechanism(
    p: BilevelProblem,
    Z: Dataset,
    a: AssumptionConstants,
    eps: float,
    xi: float,
    rng: RngLike,
    force_walk: bool = False,
    engine: str = "auto",
) -> MechanismResult:
    """Sample x with density ~ exp(-(eps/(4s)) * Phi_hat(x)); pure eps-DP.

    Half the budget drives the density's coefficient; the other half absorbs
    the inexact lower-level solves (evaluation error zeta) and the sampler's
    accuracy slack (xi), both at most eps/12 and zeta at most NO_CLIP_ZETA.
    """
    return _sampler_release(p, Z, a, "exponential_mechanism", rng, force_walk,
                            engine, eps=eps, xi=xi)


def grad_norm_exp_mechanism(
    p: BilevelProblem,
    Z: Dataset,
    a: AssumptionConstants,
    eps: float,
    xi: float,
    rng: RngLike,
    force_walk: bool = False,
    engine: str = "auto",
) -> MechanismResult:
    """Sample x with density ~ exp(-(eps/(4G)) * ||hypergradient(x)||).

    Targets near-stationary points of nonconvex objectives; same budget
    split and error accounting as exponential_mechanism.
    """
    return _sampler_release(p, Z, a, "grad_norm_exp_mechanism", rng, force_walk,
                            engine, eps=eps, xi=xi)


def regularized_exp_mechanism(
    p: BilevelProblem,
    Z: Dataset,
    a: AssumptionConstants,
    eps: float,
    delta: float,
    mode: str,
    xi: float,
    rng: RngLike,
    k_reg: float = K_REG,
    force_walk: bool = False,
    engine: str = "auto",
) -> MechanismResult:
    """Sample x ~ exp(-k (Phi_hat(x) + mu_reg ||x||^2 / 2)); (eps, delta)-DP.

    mode picks the regularization strength: "erm" optimizes empirical risk;
    "population" adds G/(D_x sqrt(n)) to mu_reg for the generalization bound
    (valid when records are drawn i.i.d.).
    """
    return _sampler_release(p, Z, a, "regularized_exp_mechanism", rng, force_walk,
                            engine, eps=eps, delta=delta, mode=mode, xi=xi,
                            k_reg=k_reg)


def mechanism_grid_law(
    p: BilevelProblem,
    Z: Dataset,
    a: AssumptionConstants,
    mechanism: str,
    eps: float,
    xi: float,
    delta: Optional[float] = None,
    mode: str = "erm",
    k_reg: float = K_REG,
    *,
    grid: GridSpec,
) -> np.ndarray:
    """Exact output law of a mechanism discretized onto a grid.

    Builds the same cube-extended score the named mechanism samples from and
    returns the normalized Gibbs weights over the grid's cell centers — the
    enumerable law the DP audits check ratios on.
    """
    spec = MECHANISMS.get(mechanism)
    if spec is None or spec.score is None:
        raise ConfigurationError(f"no enumerable law for mechanism {mechanism!r}")
    given = {"eps": eps, "xi": xi, "delta": delta, "mode": mode, "k_reg": k_reg}
    inputs = {k: v for k, v in given.items() if k in spec.params}
    check_inputs(inputs)
    params, evaluator = spec.score(p, Z, a, **inputs)
    return grid_law(ExtendedEvaluator(evaluator, p.domain_x, params["L_lip2"]), grid)


# ---------------------------------------------------------------------------
# Gradient-descent mechanism and the warm-start meta-algorithm
# ---------------------------------------------------------------------------

def _descent_overrides(overrides: Optional[dict]) -> dict:
    """Overrides, as check_inputs accepts them, in the types the ledger
    records: T an int, unsafe a bool, the rest floats."""
    return {k: (bool(v) if k == "unsafe" else int(v) if k == "T" else float(v))
            for k, v in (overrides or {}).items()}


def _gd_schedule(p, Z, a, eps, delta, overrides: dict) -> dict:
    """Resolve (T, eta, alpha, sigma) from the closed-form schedules."""
    n = Z.n
    der = derive_constants(a, n)
    ln1d = math.log(1.0 / delta)
    gap = float(overrides.get("gap_upper_bound", der.L_bar * a.D_x))

    if "T" in overrides:
        T = overrides["T"]
    else:
        if der.K == 0.0:
            raise ConfigurationError(
                "T schedule needs K > 0; supply overrides['T']"
            )
        T = max(1, math.ceil(
            (n * eps / math.sqrt(p.d_x * ln1d))
            * math.sqrt(der.beta_phi * gap) / der.K
        ))

    sigma_schedule = 32.0 * der.K * math.sqrt(T * ln1d) / (n * eps)
    sigma = float(overrides.get("sigma", sigma_schedule))
    unsafe = overrides.get("unsafe", False)
    certified = sigma >= sigma_schedule * (1.0 - 1e-12)
    if not certified and not unsafe:
        raise ConfigurationError(
            f"sigma {sigma:.6g} is below the schedule value "
            f"{sigma_schedule:.6g} for T = {T}; pass overrides['unsafe'] = True "
            "to run anyway (the result will not be budget-certified)"
        )

    if "eta" in overrides:
        eta = overrides["eta"]
    elif der.beta_phi > 0:
        eta = 1.0 / (2.0 * der.beta_phi)
    else:
        raise ConfigurationError(
            "objective smoothness constant is 0; supply overrides['eta']"
        )

    if "alpha" in overrides:
        alpha = overrides["alpha"]
    elif der.C > 0:
        alpha = min(
            der.K / (n * der.C),
            math.sqrt(
                der.K * math.sqrt(gap * der.beta_phi)
                * math.sqrt(p.d_x * ln1d) / (eps * n)
            ) / der.C,
        )
        if not (alpha > 0 and math.isfinite(alpha)):
            alpha = _alpha_fallback(a)
    else:
        alpha = _alpha_fallback(a)

    return {
        "T": T, "eta": eta, "alpha": alpha, "sigma": sigma,
        "sigma_schedule": sigma_schedule, "gap_upper_bound": gap,
        "privacy_certified": certified, "unsafe": unsafe,
        "K": der.K, "C": der.C, "beta_phi": der.beta_phi,
    }


def dp_second_order_gd(
    p: BilevelProblem,
    Z: Dataset,
    a: AssumptionConstants,
    eps: float,
    delta: float,
    x0: Optional[np.ndarray] = None,
    overrides: Optional[dict] = None,
    *,
    rng: RngLike,
) -> MechanismResult:
    """Noisy projected gradient descent on the implicit objective.

    Each of T steps: solve the lower level to tolerance alpha (warm-started
    from the previous step), form the hypergradient, perturb it with
    isotropic Gaussian noise of scale sigma, step with rate eta, and project
    back onto the feasible set.  The output is a uniformly chosen iterate
    x_1..x_T.  Only the `pick` steps that reach it are run, and the
    trajectory x_0..x_pick rides along.

    (eps, delta)-DP via the Gaussian mechanism (per-step query sensitivity
    4K/n) and advanced composition, provided sigma meets its schedule —
    overriding sigma below it requires overrides['unsafe'] = True and marks
    the ledger uncertified.
    """
    check_inputs({"eps": eps, "delta": delta, "overrides": overrides})
    ov = _descent_overrides(overrides)
    x0 = np.asarray(p.domain_x.center if x0 is None else x0, dtype=float)
    if x0.shape != (p.d_x,) or not np.isfinite(x0).all():
        raise ConfigurationError(
            f"x0 must be {p.d_x} finite numbers, got shape {x0.shape}: {x0.tolist()}")
    seed, gen = seed_and_generator(rng)
    schedule = _gd_schedule(p, Z, a, eps, delta, ov)
    T, eta, alpha, sigma = (schedule[k] for k in ("T", "eta", "alpha", "sigma"))

    # The noise rows come from one draw: standard_normal((T, d_x)) yields the
    # same bits as T per-step draws, so the stream, and with it the pick,
    # stays as if every step had run.  Only steps up to the pick are taken.
    noise = sigma * gen.standard_normal((T, p.d_x)) if sigma > 0.0 else None
    pick = int(gen.integers(1, T + 1))
    trajectory = np.empty((pick + 1, p.d_x))
    x = trajectory[0] = p.domain_x.project(x0)
    warm = None
    for t in range(pick):
        res = solve_lower_level(p, Z, x, alpha, a, warm_start=warm)
        warm = res.y
        query = approx_hypergradient(p, Z, x, res.y)
        if noise is not None:
            query = query + noise[t]
        x = p.domain_x.project(x - eta * query)
        trajectory[t + 1] = x
    x_out = x.copy()

    ledger = {
        "mechanism": "dp_second_order_gd",
        "eps": float(eps),
        "delta": float(delta),
        "seed": seed,
        "x0": trajectory[0].tolist(),
        "overrides": ov,
        "n": Z.n,
        "T": int(T),
        "eta": float(eta),
        "alpha": float(alpha),
        "sigma": float(sigma),
        "sigma_schedule": float(schedule["sigma_schedule"]),
        "gap_upper_bound": float(schedule["gap_upper_bound"]),
        "K": float(schedule["K"]),
        "C": float(schedule["C"]),
        "beta_phi": float(schedule["beta_phi"]),
        "picked_iterate": pick,
        "privacy_certified": bool(schedule["privacy_certified"]),
    }
    return MechanismResult(x_out, PrivacyBudget(eps, delta), ledger, trajectory)


def warm_start(
    p: BilevelProblem,
    Z: Dataset,
    a: AssumptionConstants,
    eps: float,
    delta: float,
    xi: float,
    rng: RngLike,
    stage_b_overrides: Optional[dict] = None,
) -> MechanismResult:
    """Exponential mechanism to choose x0, then noisy gradient descent from it.

    Stage A runs exponential_mechanism at eps/2 (spending no delta; the
    paper-style even delta split is recorded alongside for comparison).
    Stage B runs dp_second_order_gd at (eps/2, delta/2) from stage A's
    output, with the gap bound Psi * d_x / (eps * n) — what stage A
    guarantees in expectation-scale — substituted into the T and alpha
    schedules.  Total spent: (eps, delta/2).
    """
    check_inputs({"eps": eps, "delta": delta, "xi": xi,
                  "stage_b_overrides": stage_b_overrides})
    stage_b_ov = _descent_overrides(stage_b_overrides)
    seed, gen = seed_and_generator(rng)
    seed_a = _child_seed(seed, gen, "stage_a")
    seed_b = _child_seed(seed, gen, "stage_b")

    stage_a = exponential_mechanism(p, Z, a, eps / 2.0, xi, seed_a)

    der = derive_constants(a, Z.n)
    gap = der.Psi * p.d_x / (eps * Z.n)
    ov = dict(stage_b_ov)
    ov.setdefault("gap_upper_bound", gap)
    stage_b = dp_second_order_gd(
        p, Z, a, eps / 2.0, delta / 2.0, x0=stage_a.x_out, overrides=ov,
        rng=seed_b,
    )

    spent = PrivacyBudget(eps, delta / 2.0)
    ledger = {
        "mechanism": "warm_start",
        "eps": float(eps),
        "delta": float(delta),
        "xi": float(xi),
        "seed": seed,
        "stage_b_overrides": stage_b_ov,
        "gap_upper_bound": float(gap),
        "stage_budgets_spent": [[eps / 2.0, 0.0], [eps / 2.0, delta / 2.0]],
        "stage_budgets_paper_split": [[eps / 2.0, delta / 2.0],
                                      [eps / 2.0, delta / 2.0]],
        "total_spent": [spent.epsilon, spent.delta],
        "stage_a": stage_a.ledger,
        "stage_b": stage_b.ledger,
    }
    return MechanismResult(stage_b.x_out, spent, ledger, stage_b.trajectory)


def replay_mechanism(
    p: BilevelProblem,
    Z: Dataset,
    a: AssumptionConstants,
    result: Union[MechanismResult, dict],
) -> MechanismResult:
    """Re-run a mechanism from its ledger; bit-identical given the same seed.

    The replayed ledger must equal the recorded one.  A ledger this code
    would not produce (another version's plan, an edited field) raises
    ConfigurationError naming the first differing key path, such as
    stage_a.plan.states, instead of replaying to a different point.
    """
    ledger = result.ledger if isinstance(result, MechanismResult) else dict(result)
    seed = ledger.get("seed")
    if seed is None:
        raise ConfigurationError(
            "ledger has no integer seed (the run was fed a live generator); "
            "replay is only defined for seeded runs"
        )
    name = ledger["mechanism"]
    if name not in MECHANISMS:
        raise ConfigurationError(f"unknown mechanism {name!r}")
    recorded = {k: ledger[k] for k in MECHANISMS[name].params if k in ledger}
    replayed = globals()[name](p, Z, a, rng=seed, **recorded)
    where = _first_difference(ledger, replayed.ledger)
    if where is not None:
        raise ConfigurationError(
            f"ledger does not replay: {where} differs from what this code records")
    return replayed


_MISSING = object()


def _first_difference(recorded, replayed, path: str = "") -> Optional[str]:
    """Dotted key path of the first value that differs, or None if equal.

    Dicts are walked by key and equal-length lists by index.
    """
    if isinstance(recorded, dict) and isinstance(replayed, dict):
        keys = [*recorded, *(k for k in replayed if k not in recorded)]
        pairs = [(f"{path}.{k}" if path else str(k), recorded.get(k, _MISSING),
                  replayed.get(k, _MISSING)) for k in keys]
    elif isinstance(recorded, list) and isinstance(replayed, list) \
            and len(recorded) == len(replayed):
        pairs = [(f"{path}.{i}", r, s) for i, (r, s) in enumerate(zip(recorded, replayed))]
    else:
        return None if recorded == replayed else path
    for sub, r, s in pairs:
        where = _first_difference(r, s, sub)
        if where is not None:
            return where
    return None


class _MechanismSpec(NamedTuple):
    """How a mechanism is driven by name."""

    #: keyword parameters the ledger records under the same names
    params: tuple[str, ...]
    #: samplers only: (ledger parameters, Evaluator) from those keywords bar force_walk
    score: Optional[Callable[..., tuple[dict, Evaluator]]] = None


#: Mechanisms by name.  The functions themselves are looked up by name when
#: called (replay_mechanism, the CLI), so rebinding a module attribute reaches
#: every caller.
MECHANISMS = {
    "exponential_mechanism": _MechanismSpec(
        ("eps", "xi", "force_walk"), partial(_exp_score, kind="phi")),
    "grad_norm_exp_mechanism": _MechanismSpec(
        ("eps", "xi", "force_walk"), partial(_exp_score, kind="grad_norm")),
    "regularized_exp_mechanism": _MechanismSpec(
        ("eps", "delta", "mode", "xi", "k_reg", "force_walk"), _regularized_score),
    "dp_second_order_gd": _MechanismSpec(("eps", "delta", "x0", "overrides")),
    "warm_start": _MechanismSpec(("eps", "delta", "xi", "stage_b_overrides")),
}
