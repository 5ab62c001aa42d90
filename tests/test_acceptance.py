"""End-to-end acceptance checks for the package.

Thirteen numbered tests, one per shipped guarantee: exact privacy audits of
the two sampling mechanisms, the three finite-chain lemmas behind the
grid-walk sampler, hypergradient correctness and its bias constant,
sensitivity and stability bounds, two scaled-down utility experiments,
descent-schedule fidelity, and bit-exact ledger replay.  Each test enforces
its stated tolerance and, where one applies, its runtime budget; the
terminal summary (see conftest.py) prints one PASS/FAIL line per check.

Everything here goes through independent oracles: closed-form objectives
and optima from the instance fixtures, dense-matrix chain analysis, and
brute-force record swaps.  No quantity is compared against the code path
it is meant to certify.
"""

import math
import time

import numpy as np
import pytest

from dpbilevel.audit import empirical_sensitivity, exact_dp_audit
from dpbilevel.gridwalk.chain import (
    dist_inf,
    exact_chain,
    linf_mixing_distance,
    mixing_time_bound,
)
from dpbilevel.gridwalk.grid import grid_with_cells
from dpbilevel.hypergrad import approx_hypergradient
from dpbilevel.inner import solve_lower_level
from dpbilevel.instances import make_instance, make_packed_hard_dataset
from dpbilevel.mechanisms import (
    K_REG,
    dp_second_order_gd,
    exponential_mechanism,
    grad_norm_exp_mechanism,
    mechanism_grid_law,
    regularized_exp_mechanism,
    replay_mechanism,
    warm_start,
)
from dpbilevel.problem import Domain, derive_constants
from dpbilevel.rng import derive_seed, make_generator
from oracles import full_descent, grid_lipschitz

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

# Evaluation slack used in the law audits: far below the score range of the
# audited instance, so the enumerated laws carry real structure instead of
# collapsing to uniform (which would make the privacy checks vacuous).
AUDIT_XI = 1e-3

# All eight unit-norm sign vectors in three dimensions: the full record space
# of the hard instance family, so swap enumerations over them are exhaustive.
SIGNS3 = np.array(
    [[a, b, c] for a in (-1.0, 1.0) for b in (-1.0, 1.0) for c in (-1.0, 1.0)]
) / math.sqrt(3.0)


def _box(d, half):
    return Domain("box", np.zeros(d), half_widths=np.full(d, float(half)))


def _random_feasible_x(fixture, rng):
    dom = fixture.problem.domain_x
    return dom.project(dom.center + 0.4 * rng.standard_normal(dom.dim))


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

CORPUS_SIZES = [
    (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (8, 1), (10, 1), (12, 1),
    (15, 1), (18, 1), (2, 2), (3, 2), (4, 2),
]
PERTURBATION_LEVELS = (0.05, 0.2, 0.5)


@pytest.fixture(scope="module")
def chain_corpus():
    """108 random (score, perturbation) chain pairs of at most 18 states.

    Each perturbation vector is rescaled so its largest entry hits the
    nominal level exactly, which makes the multiplicative conductance floor
    and the stationary-distance cap sharp tests rather than loose ones.
    Both chains of every pair are analyzed exactly with dense matrices.
    """
    rng = make_generator(314159)
    corpus = []
    for count in range(108):
        cells, d = CORPUS_SIZES[count % len(CORPUS_SIZES)]
        half = float(rng.uniform(0.3, 1.5))
        grid = grid_with_cells(_box(d, half), cells)
        f = rng.normal(0.0, float(rng.uniform(0.5, 2.5)), grid.state_count)
        level = PERTURBATION_LEVELS[count % 3]
        u = rng.uniform(-1.0, 1.0, grid.state_count)
        zeta = level * u / np.max(np.abs(u))
        corpus.append({
            "grid": grid,
            "level": level,
            "ideal": exact_chain(f, grid),
            "perturbed": exact_chain(f + zeta, grid),
        })
    return corpus


@pytest.fixture(scope="module")
def hard1_audit():
    """The audit bench: hard 1-d instance, 4 records, 64-cell output grid.

    `swaps` enumerates every (index, replacement) pair over the full record
    space, so the audits below are exhaustive over one-record neighbors.
    """
    fx = make_instance("hard", d=1)
    Z = fx.sample_dataset(4, seed=7)
    grid = grid_with_cells(fx.problem.domain_x, 64)
    swaps = [(i, np.array([s])) for i in range(4) for s in (1.0, -1.0)]
    return fx, Z, grid, swaps


# ---------------------------------------------------------------------------
# 1-2: exact privacy audits of the two sampling mechanisms
# ---------------------------------------------------------------------------


def test_01_pure_dp_exact_law_audit(hard1_audit):
    """Worst log-ratio of the exponential mechanism's exact law is <= eps.

    The discretized output law is enumerated in closed form on a 64-cell
    grid for every one-record swap of a 4-record dataset; the audit takes
    exact max log-ratios over all cells and swaps.  No sampling involved.
    """
    fx, Z, grid, swaps = hard1_audit
    t0 = time.monotonic()
    for eps in (0.5, 1.0, 2.0):
        def law(Z_, eps=eps):
            return mechanism_grid_law(
                fx.problem, Z_, fx.constants, "exponential_mechanism",
                eps, AUDIT_XI, grid=grid,
            )

        report = exact_dp_audit(law, Z, swaps, eps)
        assert report.passed
        assert report.worst_case <= eps * (1.0 + 1e-9)
        # the audited laws must actually differ across swaps, otherwise the
        # log-ratio bound would hold vacuously
        assert report.worst_case > 0.0
    assert time.monotonic() - t0 < 10.0


def test_02_approx_dp_hockey_stick_audit(hard1_audit):
    """Exact hockey-stick divergence of the regularized mechanism is <= delta.

    Same exhaustive enumeration as the pure-DP audit, with the divergence
    taken in both swap directions.  A run with a 100x larger regularization
    concentration constant must fail the same audit, proving the check can
    distinguish a broken mechanism from a correct one.
    """
    fx, Z, grid, swaps = hard1_audit
    t0 = time.monotonic()
    for eps, delta in ((1.0, 1e-3), (2.0, 1e-4)):
        def law(Z_, k_reg, eps=eps, delta=delta):
            return mechanism_grid_law(
                fx.problem, Z_, fx.constants, "regularized_exp_mechanism",
                eps, AUDIT_XI, delta=delta, mode="erm", k_reg=k_reg,
                grid=grid,
            )

        good = exact_dp_audit(
            lambda Z_: law(Z_, K_REG), Z, swaps, eps, delta=delta)
        assert good.passed
        assert good.worst_case <= delta * (1.0 + 1e-9)

        hot = exact_dp_audit(
            lambda Z_: law(Z_, 100.0 * K_REG), Z, swaps, eps, delta=delta)
        assert not hot.passed
        assert hot.worst_case > delta
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 3-5: finite-chain lemmas behind the grid-walk sampler
# ---------------------------------------------------------------------------


def test_03_conductance_degradation_floor(chain_corpus):
    """Score error of size zeta shrinks conductance by at most e^{-6 zeta}.

    Exact conductance of each perturbed chain (brute-force minimum over all
    nontrivial cuts) against the floor from its unperturbed twin.
    """
    for case in chain_corpus:
        floor = math.exp(-6.0 * case["level"]) * case["ideal"].conductance_phi
        assert case["perturbed"].conductance_phi >= floor - 1e-12


def test_04_stationary_distance_bound(chain_corpus):
    """Stationary laws drift by at most 2 zeta in sup log-ratio distance.

    Checked over the whole corpus, then certified sharp on a two-state
    witness: with scores pushed apart by +/- level, the distance equals
    2 * level exactly (one state holds essentially all mass, so its
    normalization shift is invisible at machine precision).
    """
    for case in chain_corpus:
        dist = dist_inf(case["perturbed"].stationary, case["ideal"].stationary)
        assert dist <= 2.0 * case["level"] + 1e-12

    grid = grid_with_cells(_box(1, 1.0), 2)
    scores = np.array([0.0, 60.0])
    for level in PERTURBATION_LEVELS:
        ideal = exact_chain(scores, grid)
        shifted = exact_chain(scores + np.array([level, -level]), grid)
        dist = dist_inf(shifted.stationary, ideal.stationary)
        assert abs(dist - 2.0 * level) <= 1e-12


BIG_CHAINS = ((512, 1), (1024, 1), (64, 2))


def test_05_mixing_budget_validity(chain_corpus):
    """The closed-form step budget really mixes every audited chain.

    For each perturbed corpus chain and each accuracy grade, the worst-start
    sup log-ratio distance to the stationary law after the budgeted number
    of steps must be within the accuracy.  Then the same check runs on three
    large smooth-score chains, up to the exact-analysis cap of 4096 states,
    where the certified spectral bound answers.
    """
    t0 = time.monotonic()
    for case in chain_corpus:
        perturbed = case["perturbed"]
        alpha = grid_lipschitz(perturbed.f_values, case["grid"])
        for accuracy in (0.1, 0.01):
            steps = mixing_time_bound(
                alpha, case["grid"].tau, case["grid"].d, accuracy,
                case["level"])
            dist = linf_mixing_distance(
                perturbed.transition, perturbed.stationary, steps)
            assert dist <= accuracy

    for cells, d in BIG_CHAINS:
        grid = grid_with_cells(_box(d, 1.0), cells)
        centers = grid.centers_all()
        scores = (1.5 * np.sin(2.0 * centers[:, 0])
                  + 0.8 * np.einsum("ij,ij->i", centers, centers))
        rng = make_generator(99 + cells * d)
        u = rng.uniform(-1.0, 1.0, grid.state_count)
        zeta = 0.05 * u / np.max(np.abs(u))
        chain = exact_chain(scores + zeta, grid)
        alpha = grid_lipschitz(scores + zeta, grid)
        for accuracy in (0.1, 0.01):
            steps = mixing_time_bound(alpha, grid.tau, d, accuracy, 0.05)
            dist = linf_mixing_distance(
                chain.transition, chain.stationary, steps)
            assert dist <= accuracy
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 6-7: hypergradient correctness and its bias constant
# ---------------------------------------------------------------------------


def test_06_hypergradient_matches_finite_differences():
    """Implicit gradient at a tightly solved lower level matches FD of phi.

    Central differences of the value function (lower level re-solved to
    certified error 1e-10 at every probe point) against the linear-solve
    hypergradient, at 20 random feasible points per family.
    """
    cases = (
        ("quadratic", dict(d_x=2, d_y=3, seed=0), 12, 1, 1e-4),
        ("ridge", dict(feature_dim=2, seed=0), 24, 2, 1e-3),
    )
    for name, kwargs, n, data_seed, tol in cases:
        fx = make_instance(name, **kwargs)
        Z = fx.sample_dataset(n, seed=data_seed)

        def phi_solved(x, Z_=Z, fx=fx):
            y = solve_lower_level(fx.problem, Z_, x, 1e-10, fx.constants).y
            return fx.problem.f(x, y, Z_)

        rng = make_generator(606)
        for _ in range(20):
            x = _random_feasible_x(fx, rng)
            y = solve_lower_level(fx.problem, Z, x, 1e-10, fx.constants).y
            hg = approx_hypergradient(fx.problem, Z, x, y)
            h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
            fd = np.zeros_like(x)
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = h
                fd[i] = (phi_solved(x + e) - phi_solved(x - e)) / (2.0 * h)
            assert np.linalg.norm(hg - fd) <= tol * np.linalg.norm(fd)


def test_07_hypergradient_bias_constant():
    """Hypergradient error at an inexact y is at most C times the y error.

    The quadratic family has constant mixed second derivatives, so its bias
    constant C is exactly zero and the estimate must be exact to round-off
    at any y.  The ridge family has C > 0 and exercises the bound with real
    curvature; its closed-form gradient is the comparison target.
    """
    radii = (1e-1, 1e-2, 1e-3)

    quad = make_instance("quadratic", d_x=2, d_y=3, seed=0)
    Zq = quad.sample_dataset(12, seed=1)
    Cq = derive_constants(quad.constants, Zq.n).C
    assert Cq == 0.0
    rng = make_generator(707)
    for r in radii:
        for _ in range(10):
            x = _random_feasible_x(quad, rng)
            y_opt = quad.y_star(x, Zq)
            u = rng.standard_normal(y_opt.size)
            y = y_opt + r * u / np.linalg.norm(u)
            hg = approx_hypergradient(quad.problem, Zq, x, y)
            assert np.linalg.norm(hg - quad.grad_phi(x, Zq)) <= 1e-12

    ridge = make_instance("ridge", feature_dim=2, seed=0)
    Zr = ridge.sample_dataset(24, seed=2)
    Cr = derive_constants(ridge.constants, Zr.n).C
    assert Cr > 0.0
    rng = make_generator(708)
    for r in radii:
        for _ in range(10):
            x = _random_feasible_x(ridge, rng)
            y_opt = ridge.y_star(x, Zr)
            u = rng.standard_normal(y_opt.size)
            y = y_opt + r * u / np.linalg.norm(u)
            hg = approx_hypergradient(ridge.problem, Zr, x, y)
            assert np.linalg.norm(hg - ridge.grad_phi(x, Zr)) <= Cr * r


# ---------------------------------------------------------------------------
# 8-9: sensitivity and stability bounds under record swaps
# ---------------------------------------------------------------------------


def test_08_sensitivity_bounds():
    """Brute-force record swaps stay under the declared sensitivities.

    Value form: the swap-vs-reference double difference of the implicit
    objective, enumerated over every (record, replacement) pair of the hard
    3-d instance, is at most the score sensitivity s.  Gradient form: the
    per-step descent query (hypergradient at a certified lower-level solve)
    moves by at most 4K/n under any of 64 one-record swaps, on both the
    quadratic and the hard family.
    """
    hard = make_instance("hard", d=3)
    Z = hard.sample_dataset(4, seed=5)
    s = derive_constants(hard.constants, Z.n).s
    rng = make_generator(808)
    for _ in range(5):
        x = _random_feasible_x(hard, rng)
        x_ref = _random_feasible_x(hard, rng)
        report = empirical_sensitivity(
            lambda Z_: hard.phi(x, Z_) - hard.phi(x_ref, Z_),
            Z, swap_candidates=list(SIGNS3), indices=range(4), bound=s,
        )
        assert report.passed
        assert report.trials == 32

    gradient_cases = (
        ("quadratic", dict(d_x=2, d_y=3, seed=0), 16, 3),
        ("hard", dict(d=3), 8, 4),
    )
    for name, kwargs, n, data_seed in gradient_cases:
        fx = make_instance(name, **kwargs)
        Zn = fx.sample_dataset(n, seed=data_seed)
        K = derive_constants(fx.constants, n).K
        if name == "quadratic":
            candidates = list(fx.sample_dataset(8, seed=99).points)
        else:
            candidates = list(SIGNS3)
        x = _random_feasible_x(fx, make_generator(809))

        def query(Z_, fx=fx, x=x):
            y = solve_lower_level(fx.problem, Z_, x, 1e-8, fx.constants).y
            return approx_hypergradient(fx.problem, Z_, x, y)

        report = empirical_sensitivity(
            query, Zn, swap_candidates=candidates, indices=range(8),
            bound=4.0 * K / n,
        )
        assert report.passed
        assert report.trials == 64


def test_09_lower_level_stability():
    """Certified lower-level solutions move little under swaps and x shifts.

    Over 200 random draws per convex family: a one-record swap moves the
    solution by at most 2 L_gy / (mu_g n) plus twice the solve tolerance,
    and moving the query point instead is Lipschitz with constant
    beta_gxy / mu_g (again plus twice the tolerance).
    """
    alpha = 1e-8
    stability_cases = (
        ("hard", dict(d=3), 12, 6, "signs"),
        ("quadratic", dict(d_x=2, d_y=3, seed=0), 12, 7, "sample"),
    )
    for name, kwargs, n, data_seed, cand_kind in stability_cases:
        fx = make_instance(name, **kwargs)
        Z = fx.sample_dataset(n, seed=data_seed)
        a = fx.constants
        if cand_kind == "signs":
            candidates = SIGNS3
        else:
            candidates = fx.sample_dataset(8, seed=98).points
        swap_bound = 2.0 * a.L_gy / (a.mu_g * n) + 2.0 * alpha
        shift_slope = a.beta_gxy / a.mu_g

        rng = make_generator(909)
        for draw in range(200):
            x = _random_feasible_x(fx, rng)
            y_base = solve_lower_level(fx.problem, Z, x, alpha, a).y

            idx = int(rng.integers(0, n))
            record = candidates[int(rng.integers(0, len(candidates)))]
            Z_swapped = Z.replaced(idx, record)
            y_swap = solve_lower_level(fx.problem, Z_swapped, x, alpha, a).y
            assert np.linalg.norm(y_swap - y_base) <= swap_bound

            x_other = _random_feasible_x(fx, rng)
            y_other = solve_lower_level(fx.problem, Z, x_other, alpha, a).y
            cap = shift_slope * np.linalg.norm(x_other - x) + 2.0 * alpha
            assert np.linalg.norm(y_other - y_base) <= cap


# ---------------------------------------------------------------------------
# 10-11: scaled-down utility experiments
# ---------------------------------------------------------------------------


def test_10_exp_mechanism_risk_decay():
    """Mean excess risk of the exponential mechanism decays like 1/n.

    Uses packed two-dimensional sign datasets whose record mean always has
    norm exactly 2/n, so the 1/n mechanism effect is visible at desk scale
    instead of being drowned by the n^{-1/2} mean of an i.i.d. draw.
    Checks strict monotonicity across dataset sizes, a log-log slope in
    [-1.4, -0.6], and a 10x absolute risk cap per size.
    """
    fx = make_instance("hard", d=2)
    p, a = fx.problem, fx.constants
    eps, trials, root = 1.0, 50, 20260816
    sizes = (8, 16, 32, 64, 128)
    t0 = time.monotonic()
    means = []
    for n in sizes:
        der = derive_constants(a, n)
        excess = []
        for t in range(trials):
            Z = make_packed_hard_dataset(
                n, 2, m_packed=2, seed=derive_seed(root, "data", n, t))
            res = exponential_mechanism(
                p, Z, a, eps, 1.0, rng=derive_seed(root, "mech", n, t))
            excess.append(fx.phi(res.x_out, Z) - fx.phi_star(Z))
        mean = float(np.mean(excess))
        assert mean <= 10.0 * der.Psi * p.d_x / (eps * n)
        means.append(mean)
    assert all(m0 > m1 for m0, m1 in zip(means, means[1:]))
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    assert -1.4 <= slope <= -0.6
    assert time.monotonic() - t0 < 300.0


def test_11_noisy_descent_utility_trend():
    """More data at a fixed budget gives nearer-stationary private outputs.

    Thirty seeded descent runs per dataset size on the ridge family; the
    mean final gradient norm must fall strictly as n grows.  Each run passes
    its realized initial objective value as the optimality-gap bound, which
    is valid because the objective is a mean of squares and hence
    nonnegative everywhere.  A noiseless control with a lifted step budget
    must drive the same gradient below 1e-6 by its 20,000th iterate, pinning
    the trend on schedule noise rather than optimizer limits.  The release
    stops at its picked iterate, so that iterate comes from the full loop
    (the full_descent oracle), and the control's own release must equal the
    oracle's row at the control's pick.
    """
    fx = make_instance("ridge", feature_dim=2, seed=0)
    p, a = fx.problem, fx.constants
    eps, delta, root = 1.0, 1e-5, 4242
    x0 = np.array(p.domain_x.center, dtype=float)
    t0 = time.monotonic()
    means = []
    for n in (100, 1000, 10000):
        grads = []
        for t in range(30):
            Z = fx.sample_dataset(n, seed=derive_seed(root, "data", n, t))
            res = dp_second_order_gd(
                p, Z, a, eps, delta, x0=x0,
                overrides={"gap_upper_bound": float(fx.phi(x0, Z))},
                rng=derive_seed(root, "mech", n, t),
            )
            grads.append(float(np.linalg.norm(fx.grad_phi(res.x_out, Z))))
        means.append(float(np.mean(grads)))
    assert means[0] > means[1] > means[2]

    Zc = fx.sample_dataset(10000, seed=derive_seed(root, "control"))
    args = dict(
        x0=x0,
        overrides={"sigma": 0.0, "unsafe": True, "T": 20000, "eta": 100.0,
                   "alpha": 1e-10, "gap_upper_bound": float(fx.phi(x0, Zc))},
        rng=derive_seed(root, "ctrl"),
    )
    control = dp_second_order_gd(p, Zc, a, eps, delta, **args)
    assert not control.ledger["privacy_certified"]
    full = full_descent(p, Zc, a, eps, delta, **args)
    final = full.trajectory[20000]
    assert float(np.linalg.norm(fx.grad_phi(final, Zc))) <= 1e-6
    np.testing.assert_array_equal(
        control.x_out, full.trajectory[control.ledger["picked_iterate"]])
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 12-13: schedule fidelity, budget composition, and replay
# ---------------------------------------------------------------------------


def test_12_schedule_fidelity_and_budget_composition():
    """Descent-schedule ledger entries equal their closed forms bit-for-bit.

    Twenty random (n, eps, delta) draws, alternating between the quadratic
    family (bias constant zero, so the inner-accuracy floor branch fires)
    and the ridge family (C > 0, so the formula branch fires), half with a
    caller-supplied gap bound.  Every recorded sigma, eta, T, and alpha must
    equal an independent recomputation exactly, not approximately.  Then the
    two-stage meta-algorithm's recorded stage budgets must compose to at
    most the requested total.
    """
    quads = [
        make_instance("quadratic", d_x=1, d_y=2, seed=0),
        make_instance("quadratic", d_x=2, d_y=3, seed=1),
        make_instance("quadratic", d_x=3, d_y=2, seed=2),
    ]
    ridge = make_instance("ridge", feature_dim=2, seed=0)

    rng = make_generator(121212)
    for draw in range(20):
        fx = ridge if draw % 2 else quads[(draw // 2) % 3]
        p, a = fx.problem, fx.constants
        n = int(rng.integers(10, 200))
        eps = float(rng.uniform(0.3, 3.0))
        delta = float(10.0 ** rng.uniform(-6.0, -2.0))
        overrides = {}
        if draw % 4 >= 2:
            overrides["gap_upper_bound"] = float(rng.uniform(0.1, 5.0))
        Z = fx.sample_dataset(n, seed=1000 + draw)

        ledger = dp_second_order_gd(
            p, Z, a, eps, delta, overrides=overrides,
            rng=derive_seed(3030, draw),
        ).ledger

        der = derive_constants(a, n)
        ln1d = math.log(1.0 / delta)
        gap = float(overrides.get("gap_upper_bound", der.L_bar * a.D_x))
        T = max(1, math.ceil(
            (n * eps / math.sqrt(p.d_x * ln1d))
            * math.sqrt(der.beta_phi * gap) / der.K))
        assert ledger["T"] == T
        assert ledger["sigma"] == 32.0 * der.K * math.sqrt(T * ln1d) / (n * eps)
        assert ledger["eta"] == 1.0 / (2.0 * der.beta_phi)
        if der.C > 0:
            alpha = min(
                der.K / (n * der.C),
                math.sqrt(der.K * math.sqrt(gap * der.beta_phi)
                          * math.sqrt(p.d_x * ln1d) / (eps * n)) / der.C,
            )
        else:
            alpha = 1e-8 * max(1.0, a.D_y)
        assert ledger["alpha"] == alpha
        assert ledger["privacy_certified"]

    warm_budgets = ((1.0, 1e-4), (0.7, 1e-5), (2.0, 1e-3))
    fx = quads[0]
    for i, (eps, delta) in enumerate(warm_budgets):
        Z = fx.sample_dataset(30, seed=50 + i)
        res = warm_start(fx.problem, Z, fx.constants, eps, delta, xi=1e-3,
                         rng=derive_seed(4040, i))
        stages = res.ledger["stage_budgets_spent"]
        assert len(stages) == 2
        assert sum(stage[0] for stage in stages) <= eps * (1.0 + 1e-12)
        assert sum(stage[1] for stage in stages) <= delta
        assert res.budget_spent.epsilon <= eps * (1.0 + 1e-12)
        assert res.budget_spent.delta <= delta


def test_13_ledger_replay_determinism():
    """Replaying any result's ledger reproduces its output bit-for-bit.

    Fifty randomized runs across all five mechanism entry points, fixture
    dimensions 1-2, both regularized modes, forced step-count overrides,
    and a few forced walks that exercise the step-walk sampling branch;
    every replay must return identical outputs and trajectories, not merely
    close ones.
    """
    quad1 = make_instance("quadratic", d_x=1, d_y=2, seed=0)
    quad2 = make_instance("quadratic", d_x=2, d_y=2, seed=3)
    hard1 = make_instance("hard", d=1)
    ridge = make_instance("ridge", feature_dim=2, seed=0)

    rng = make_generator(131313)
    runs = []
    for i in range(50):
        kind = i % 5
        seed = derive_seed(5050, i)
        eps = float(rng.uniform(0.4, 2.5))
        if kind == 0:
            fx = quad1 if i % 2 else hard1
            Z = fx.sample_dataset(int(rng.integers(6, 20)), seed=i)
            res = exponential_mechanism(fx.problem, Z, fx.constants, eps,
                                        1.0, seed)
        elif kind == 1:
            # three draws force the walk on the 1-d grid, so replay covers
            # the sequential sampling kernel; the planner alone enumerates
            # every grid here, since each walk budget exceeds its state count
            fx = quad1
            Z = fx.sample_dataset(int(rng.integers(6, 16)), seed=i)
            res = grad_norm_exp_mechanism(fx.problem, Z, fx.constants, eps,
                                          1.0, seed,
                                          force_walk=i in (1, 21, 41))
        elif kind == 2:
            fx = quad1 if i % 2 else hard1
            Z = fx.sample_dataset(int(rng.integers(8, 24)), seed=i)
            res = regularized_exp_mechanism(
                fx.problem, Z, fx.constants, eps,
                float(10.0 ** rng.uniform(-5.0, -2.0)),
                "erm" if i % 2 else "population", 1.0, seed)
        elif kind == 3:
            fx = quad2 if i % 2 else ridge
            Z = fx.sample_dataset(int(rng.integers(8, 24)), seed=i)
            res = dp_second_order_gd(
                fx.problem, Z, fx.constants, eps, 1e-4,
                overrides={"T": int(rng.integers(1, 6))}, rng=seed)
        else:
            fx = quad1
            Z = fx.sample_dataset(int(rng.integers(8, 24)), seed=i)
            res = warm_start(fx.problem, Z, fx.constants, eps, 1e-4, 1.0,
                             seed)
        runs.append((fx, Z, res))

    assert any(res.ledger.get("plan", {}).get("branch") == "walk"
               for _, _, res in runs)
    for fx, Z, res in runs:
        replay = replay_mechanism(fx.problem, Z, fx.constants, res)
        assert np.array_equal(res.x_out, replay.x_out)
        if res.trajectory is None:
            assert replay.trajectory is None
        else:
            assert np.array_equal(res.trajectory, replay.trajectory)
