"""Grid geometry and exact finite-chain analysis."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbilevel.errors import ConfigurationError, SizeCapError
from dpbilevel.gridwalk import chain
from dpbilevel.gridwalk.chain import (
    CERTIFIED_FLOOR,
    CONDUCTANCE_STATE_CAP,
    certified_mixing_steps,
    conductance_exact,
    dist_inf,
    exact_chain,
    linf_mixing_distance,
    mixing_time_bound,
    stationary_from_scores,
    transition_matrix,
)
from dpbilevel.gridwalk.grid import build_grid, grid_with_cells
from dpbilevel.problem import Domain
from oracles import (
    certified_queries_nonzero,
    cheeger_interval,
    cut_conductance,
    dense_reducible,
    grid_lipschitz,
    lambda_star_nonzero,
    neighbors,
    symmetrized_bands_nonzero,
    symmetrized_lambda2_nonzero,
    transition_matrix_loop,
)


def box(d, half=0.5):
    return Domain("box", np.zeros(d), half_widths=np.full(d, half))


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def test_grid_spacing_d1():
    grid = build_grid(box(1), alpha_lip=1.0, eps_acc=0.5)
    assert grid.cells_per_axis == 4
    assert grid.gamma == pytest.approx(0.25)
    assert grid.state_count == 4


def test_grid_spacing_d2_resnap():
    grid = build_grid(box(2, half=1.0), alpha_lip=2.0, eps_acc=0.2)
    # requested spacing 0.2/(4*sqrt(2)) = 0.03535..., snapped up to tau/ceil
    assert grid.cells_per_axis == 57
    assert grid.gamma == pytest.approx(2.0 / 57.0)
    assert grid.state_count == 57**2


def test_grid_rejects_zero_accuracy():
    with pytest.raises(ConfigurationError):
        build_grid(box(1), alpha_lip=1.0, eps_acc=0.0)


def test_grid_size_cap():
    with pytest.raises(SizeCapError):
        build_grid(box(3, half=1.0), alpha_lip=200.0, eps_acc=1e-3)


def test_cell_center_roundtrip():
    grid = grid_with_cells(box(2), 5)
    for state in (0, 7, 24):
        center = grid.centers(state)
        assert center.shape == (2,)
        assert grid.cell_of(center) == state
    all_centers = grid.centers_all()
    assert all_centers.shape == (25, 2)
    np.testing.assert_array_equal(all_centers[7], grid.centers(7))


@pytest.mark.parametrize("d,m", [(1, 65), (2, 23), (3, 7)])
def test_centers_of_indices_equal_centers_all(d, m):
    # a walk fill scores grid.centers(cells); enumeration scores centers_all()
    domain = Domain("box", np.linspace(-0.3, 0.4, d), half_widths=np.linspace(0.7, 1.3, d))
    grid = grid_with_cells(domain, m)
    flat = np.random.default_rng(d).permutation(grid.state_count)[:40]
    assert grid.centers(flat).shape == (40, d)
    np.testing.assert_array_equal(grid.centers(flat), grid.centers_all()[flat])
    everything = np.arange(grid.state_count)
    np.testing.assert_array_equal(grid.centers(everything), grid.centers_all())


def test_neighbors_at_corner_and_interior():
    grid = grid_with_cells(box(2), 3)
    # corner cell (0,0) has exactly two in-cube neighbors
    assert sorted(neighbors(grid, 0)) == [1, 3]
    # interior cell (1,1) = state 4 has all four
    assert sorted(neighbors(grid, 4)) == [1, 3, 5, 7]


# ---------------------------------------------------------------------------
# transition kernel: frozen 2-state oracle
# ---------------------------------------------------------------------------

def test_two_state_kernel_frozen():
    # Lazy Metropolis with off-diagonal mass 1/(4d) * min{1, e^{-(f1-f0)}}:
    # f = (0, ln 2) gives the uphill move probability (1/4) * (1/2) = 1/8 and
    # the downhill move 1/4.  (The once-circulating [[0.75, 0.25], [0.5, 0.5]]
    # variant corresponds to a non-lazy kernel and is not this chain.)
    grid = grid_with_cells(box(1), 2)
    f = np.array([0.0, math.log(2.0)])
    P = transition_matrix(f, grid)
    np.testing.assert_allclose(P.toarray(), [[0.875, 0.125], [0.25, 0.75]], atol=1e-15)
    analysis = exact_chain(f, grid)
    np.testing.assert_allclose(analysis.stationary, [2.0 / 3.0, 1.0 / 3.0],
                               atol=1e-15)
    assert conductance_exact(analysis) == pytest.approx(0.25, abs=1e-15)
    low, high = cheeger_interval(analysis)
    assert low <= 0.25 <= high


def test_flat_scores_uniform_stationary():
    grid = grid_with_cells(box(2), 3)
    analysis = exact_chain(np.zeros(9), grid)
    np.testing.assert_allclose(analysis.stationary, np.full(9, 1.0 / 9.0),
                               atol=1e-15)
    assert not analysis.reducible


def test_random_scores_stationary_matches_gibbs():
    rng = np.random.default_rng(0)
    grid = grid_with_cells(box(1), 64)
    f = rng.normal(size=64) * 2.0
    analysis = exact_chain(f, grid)
    expected = np.exp(-(f - f.min()))
    expected /= expected.sum()
    np.testing.assert_allclose(analysis.stationary, expected, rtol=1e-12)
    # eigenvector-free sanity: pi P = pi
    np.testing.assert_allclose(analysis.stationary @ analysis.transition,
                               analysis.stationary, atol=1e-14)


@given(seed=st.integers(0, 2**32 - 1), cells=st.integers(2, 6),
       d=st.integers(1, 2))
@settings(max_examples=25, deadline=None)
def test_detailed_balance_and_row_sums(seed, cells, d):
    rng = np.random.default_rng(seed)
    grid = grid_with_cells(box(d), cells)
    f = rng.normal(size=grid.state_count) * 1.5
    P = transition_matrix(f, grid).toarray()
    pi = stationary_from_scores(f)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
    flows = pi[:, None] * P
    np.testing.assert_allclose(flows, flows.T, atol=1e-10)


@pytest.mark.parametrize("d, cells", [(1, 1), (1, 2), (1, 32), (1, 65), (2, 3), (2, 10), (2, 30),
                                      (3, 4), (3, 6), (3, 10)])
def test_transition_matrix_equals_the_neighbour_loop(d, cells):
    # 32, 10 and 6 cells per axis are the audit grids in d = 1, 2, 3; 65,
    # 900 and 1000 states fill more than one 64-row slab of row sums, and
    # end on a partial one
    grid = grid_with_cells(box(d), cells)
    rng = np.random.default_rng(100 * d + cells)
    f = rng.normal(scale=3.0, size=grid.state_count)
    f[rng.integers(grid.state_count)] = np.inf
    P = transition_matrix(f, grid)
    assert isinstance(P, scipy.sparse.csr_array) and P.has_canonical_format
    np.testing.assert_array_equal(P.toarray(), transition_matrix_loop(f, grid))
    # every stored off-diagonal weight is positive: the infinite score's
    # 0.0 weights are left out, not stored
    rows = np.repeat(np.arange(grid.state_count), np.diff(P.indptr))
    assert np.all(P.data[rows != P.indices] > 0.0)


def test_infinite_score_disconnects():
    grid = grid_with_cells(box(1), 5)
    f = np.array([0.0, 0.0, math.inf, 0.0, 0.0])
    analysis = exact_chain(f, grid)
    assert analysis.reducible
    assert analysis.conductance_phi == 0.0


def test_exact_chain_runs_no_eigensolve(monkeypatch):
    rng = np.random.default_rng(4)
    big_grid, small_grid = grid_with_cells(box(2), 8), grid_with_cells(box(2), 4)
    f_big, f_small = rng.normal(size=64), rng.normal(size=16)

    def refuse(*args, **kwargs):
        raise AssertionError("exact_chain ran a dense eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    big = exact_chain(f_big, big_grid)
    small = exact_chain(f_small, small_grid)
    # the Cheeger bracket's gap comes from the banded solver, not a dense one
    low, high = cheeger_interval(small)
    big_low = cheeger_interval(big)[0]
    monkeypatch.undo()

    np.testing.assert_array_equal(big.transition.toarray(),
                                  transition_matrix(f_big, big_grid).toarray())
    np.testing.assert_array_equal(big.stationary, stationary_from_scores(f_big))
    assert big.conductance_phi is None  # 64 states: above the enumeration cap
    assert small.conductance_phi == conductance_exact(small) > 0.0
    assert low <= small.conductance_phi <= high
    assert 0.0 < big_low


def test_exact_chain_state_cap():
    grid = grid_with_cells(box(2), 70)
    with pytest.raises(SizeCapError):
        exact_chain(np.zeros(4900), grid)


# ---------------------------------------------------------------------------
# conductance: brute-force cross-check
# ---------------------------------------------------------------------------

def naive_conductance(P, pi):
    n = len(pi)
    best = math.inf
    for mask in range(1, 2**n - 1):
        inside = [i for i in range(n) if (mask >> i) & 1]
        q = pi[inside].sum()
        if q <= 0.0 or q > 0.5 + 1e-15:
            continue
        outside = [j for j in range(n) if not (mask >> j) & 1]
        flow = sum(pi[i] * P[i, j] for i in inside for j in outside)
        best = min(best, flow / q)
    return best


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_conductance_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    cells = int(rng.integers(3, 9))
    grid = grid_with_cells(box(1), cells)
    f = rng.normal(size=cells) * 2.0
    analysis = exact_chain(f, grid)
    expected = naive_conductance(analysis.transition.toarray(), analysis.stationary)
    assert conductance_exact(analysis) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_conductance_cap():
    grid = grid_with_cells(box(1), 19)
    analysis = exact_chain(np.zeros(19), grid)
    assert analysis.conductance_phi is None
    with pytest.raises(SizeCapError):
        conductance_exact(analysis)


@pytest.mark.parametrize("d, cells, barrier, height", [
    (1, 18, [8], 8.0),
    (1, 16, [11], 9.0),
    (2, 4, [4, 5, 6, 7], 9.0),
], ids=["d1-18", "d1-16", "d2-4x4"])
def test_conductance_keeps_relative_accuracy_at_a_bottleneck(d, cells, barrier, height):
    # a score barrier leaves a cut whose flow is ~1e-5 of its mass; a
    # difference of two O(mass) sums loses most of that flow's digits
    grid = grid_with_cells(box(d), cells)
    f = np.random.default_rng(cells).normal(scale=0.3, size=grid.state_count)
    f[barrier] += height
    analysis = exact_chain(f, grid)
    expected = cut_conductance(analysis.transition.toarray(), analysis.stationary, grid)
    assert 1e-6 < expected < 1e-4
    assert analysis.conductance_phi == pytest.approx(expected, rel=1e-13, abs=0.0)


def _stepped_scores(grid, seed):
    """Random scores with a 800-high step: uphill weights across it are 0.0."""
    rng = np.random.default_rng(seed)
    f = rng.normal(size=grid.state_count)
    f[grid.state_count // 2:] += 800.0
    return f


@pytest.mark.parametrize("d, cells", [(1, 1), (1, 2), (1, 9), (2, 3), (2, 6), (3, 3)])
def test_reducible_matches_the_dense_pattern(d, cells):
    grid = grid_with_cells(box(d), cells)
    rng = np.random.default_rng(10 * d + cells)
    with_inf = rng.normal(size=grid.state_count)
    with_inf[-1] = np.inf
    cases = [rng.normal(size=grid.state_count), _stepped_scores(grid, cells), with_inf]
    for f in cases[:1] if grid.state_count == 1 else cases:
        analysis = exact_chain(f, grid)
        assert analysis.reducible == dense_reducible(analysis.transition.toarray())
    if grid.state_count > 1:
        # the step is one-way: nothing climbs it, so the chain is reducible
        assert exact_chain(cases[1], grid).reducible


@pytest.mark.parametrize("d, cells", [(1, 2), (1, 40), (2, 3), (2, 9), (3, 4)])
def test_counted_bandwidth_gives_the_same_lambda2(d, cells):
    grid = grid_with_cells(box(d), cells)
    rng = np.random.default_rng(d * cells)
    for f in (rng.normal(size=grid.state_count) * 2.0, _stepped_scores(grid, cells)):
        analysis = exact_chain(f, grid)
        P, pi = analysis.transition, analysis.stationary
        # past the step pi underflows to 0: restrict as cheeger_interval does
        keep = pi > 0
        P, pi = P[keep][:, keep], pi[keep]
        if len(pi) > 1:
            assert chain._symmetrized_lambda2(P, pi) == symmetrized_lambda2_nonzero(P.toarray(), pi)


def _stored_out_to(P, width):
    """P as CSR, storing every entry within width of the diagonal, zeros too."""
    rows, cols = np.nonzero(np.abs(np.subtract.outer(np.arange(len(P)), np.arange(len(P)))) <= width)
    return scipy.sparse.csr_array((P[rows, cols], (rows, cols)), shape=P.shape)


def test_counted_bandwidth_with_holes_inside_the_band():
    # zero diagonal entries and zeros inside the outermost band; stored
    # explicit zeros out to offset 5 do not widen the bands
    rng = np.random.default_rng(5)
    n = 12
    P = np.triu(np.tril(rng.uniform(size=(n, n)), 3), -3)
    P[rng.uniform(size=(n, n)) < 0.4] = 0.0
    P[0, 3] = 0.5
    pi = rng.uniform(0.5, 1.0, size=n)
    want = symmetrized_lambda2_nonzero(P, pi)
    assert chain._symmetrized_lambda2(scipy.sparse.csr_array(P), pi) == want
    assert chain._symmetrized_lambda2(_stored_out_to(P, 5), pi) == want
    P[np.arange(n), np.arange(n)] = 0.0
    P[0, 3] = P[3, 0] = 0.0
    want = symmetrized_lambda2_nonzero(P, pi)
    assert chain._symmetrized_lambda2(scipy.sparse.csr_array(P), pi) == want
    assert chain._symmetrized_lambda2(_stored_out_to(P, 5), pi) == want


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_conductance_memory_at_the_cap():
    grid = grid_with_cells(box(1), CONDUCTANCE_STATE_CAP)
    analysis = exact_chain(np.random.default_rng(0).normal(size=grid.state_count), grid)
    assert _traced_peak_mb(conductance_exact, analysis) < 16.0


def _chain_check(grid, scores):
    """exact_chain, then the L-inf distance and certified steps at two budgets."""
    analysis = exact_chain(scores, grid)
    alpha = grid_lipschitz(scores, grid)
    for accuracy in (0.1, 0.01):
        t = mixing_time_bound(alpha, grid.tau, grid.d, accuracy, 0.05)
        assert linf_mixing_distance(analysis.transition, analysis.stationary, t) <= CERTIFIED_FLOOR
        assert certified_mixing_steps(analysis.transition, analysis.stationary, accuracy) <= t


@pytest.mark.parametrize("d, cells", [(1, 2048), (1, 4096), (2, 32), (2, 64)])
def test_chain_check_memory_holds_no_dense_transition(eig_banded_calls, d, cells):
    # a dense P alone is 32, 128, 8 and 128 MB here; the bands of a 64 x 64
    # grid are 65 x 4096 doubles, 2.1 MB
    grid, scores, _ = _smooth_chain(d, cells)
    chain._lambda2_memo.clear()
    assert _traced_peak_mb(_chain_check, grid, scores) < 8.0
    assert len(eig_banded_calls) == 1


# ---------------------------------------------------------------------------
# distances and mixing
# ---------------------------------------------------------------------------

def test_dist_inf_basics():
    p = np.array([0.5, 0.5])
    assert dist_inf(p, p) == 0.0
    q = np.array([0.25, 0.75])
    assert dist_inf(p, q) == pytest.approx(math.log(2.0))
    assert dist_inf(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == math.inf


def test_mixing_distance_decreases_with_t():
    grid = grid_with_cells(box(1), 8)
    f = np.linspace(0.0, 1.5, 8)
    analysis = exact_chain(f, grid)
    d10 = linf_mixing_distance(analysis.transition, analysis.stationary, 10)
    d200 = linf_mixing_distance(analysis.transition, analysis.stationary, 200)
    assert d200 < d10


def test_mixing_budget_is_conservative():
    # the closed-form step budget must actually mix a small rough chain
    grid = grid_with_cells(box(1), 16)
    f = np.abs(np.linspace(-1.0, 1.0, 16)) * 3.0
    analysis = exact_chain(f, grid)
    alpha_lip = 3.0
    for acc in (0.1, 0.01):
        t = mixing_time_bound(alpha_lip, grid.tau, 1, acc, zeta_bound=0.0)
        worst = linf_mixing_distance(analysis.transition, analysis.stationary, t)
        assert worst <= acc


def _oracle_chain(name):
    """(P, pi) of a chain small enough to take exact powers of."""
    if name == "nonlazy":
        # uniform pi, eigenvalues 1, 0.1, 0 and -0.9: |lambda_min| > lambda_2
        # and min diag(P) = 0.05, so only the Gershgorin term covers -0.9
        h = np.array([[1, 1, -1, -1], [1, -1, 1, -1]]) / 2.0
        P = 0.25 + 0.1 * np.outer(h[0], h[0]) - 0.9 * np.outer(h[1], h[1])
        return scipy.sparse.csr_array(P), np.full(4, 0.25)
    rng = np.random.default_rng(7)
    d, cells = {"line": (1, 64), "square": (2, 8)}[name]
    grid = grid_with_cells(box(d), cells)
    analysis = exact_chain(rng.normal(size=grid.state_count), grid)
    return analysis.transition, analysis.stationary


@pytest.mark.parametrize("name", ["line", "square", "nonlazy"])
def test_certified_bound_dominates_exact_distance(name):
    # only where the exact distance is in [1e-6, 1] is it more than rounding
    P, pi = _oracle_chain(name)
    finite = 0
    for t in np.unique(np.geomspace(1, 1e6, 40).astype(int)):
        exact = chain._exact_distance(P, pi, int(t))
        if not 1e-6 <= exact <= 1.0:
            continue
        bound = chain._certified_distance(P, pi, int(t))
        assert bound >= exact
        finite += math.isfinite(bound)
    assert finite >= 2


def test_lambda_star_covers_closed_form_lambda2():
    # a flat 1-d chain of n states has lambda_2 = (1 + cos(pi/n)) / 2, and a
    # flat m x m one (3 + cos(pi/m)) / 4; LAPACK's estimate lands on either
    # side of it, so only the backward-error margin makes lambda* a bound
    pi_long = np.arccos(np.longdouble(-1.0))
    for d, sizes in ((1, range(2, 130)), (2, range(2, 16))):
        for cells in sizes:
            grid = grid_with_cells(box(d), cells)
            analysis = exact_chain(np.zeros(grid.state_count), grid)
            cos = np.cos(pi_long / cells)
            exact = (1 + cos) / 2 if d == 1 else (3 + cos) / 4
            lam = chain._lambda_star(analysis.transition, analysis.stationary)
            assert lam >= exact, (d, cells)


def test_certificate_declines_nonreversible_input():
    # the exact distance powers P, which needs no reversibility, so it stays
    # finite on a large chain far from mixed too
    for cells, t in ((32, 10**9), (600, 2000)):
        grid = grid_with_cells(box(1), cells)
        rng = np.random.default_rng(3)
        P = transition_matrix(rng.normal(size=cells), grid)
        wrong_pi = stationary_from_scores(rng.normal(size=cells))
        assert chain._lambda_star(P, wrong_pi) == math.inf
        assert certified_mixing_steps(P, wrong_pi, 0.1) is None
        got = linf_mixing_distance(P, wrong_pi, t)
        assert got == chain._exact_distance(P, wrong_pi, t)
        assert math.isfinite(got)


def test_small_t_takes_exact_path():
    # far from mixed, the certificate declines and the exact value comes
    # back bit for bit, by powering at 64 and at 600 states
    rng = np.random.default_rng(11)
    for cells, t in ((64, 1), (64, 37), (64, 400), (600, 50)):
        grid = grid_with_cells(box(1), cells)
        analysis = exact_chain(rng.normal(size=cells), grid)
        P, pi = analysis.transition, analysis.stationary
        got = linf_mixing_distance(P, pi, t)
        assert got == chain._exact_distance(P, pi, t)
        assert got > CERTIFIED_FLOOR


@pytest.mark.parametrize("d,cells", [(1, 2048), (2, 32)])
def test_audit_size_chains_certify_without_dense_eigensolve(monkeypatch, d,
                                                            cells):
    grid = grid_with_cells(box(d, 1.0), cells)
    centers = grid.centers_all()
    u = np.random.default_rng(cells).uniform(-1.0, 1.0, grid.state_count)
    scores = (1.5 * np.sin(2.0 * centers[:, 0] + 0.3)
              + 0.8 * np.einsum("ij,ij->i", centers, centers)
              + 0.05 * u / np.max(np.abs(u)))
    analysis = exact_chain(scores, grid)
    alpha = grid_lipschitz(scores, grid)

    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolve on the certified path")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for accuracy in (0.1, 0.01):
        t = mixing_time_bound(alpha, grid.tau, d, accuracy, 0.05)
        dist = linf_mixing_distance(analysis.transition, analysis.stationary, t)
        assert dist <= accuracy
        steps = certified_mixing_steps(analysis.transition,
                                       analysis.stationary, accuracy)
        assert steps is not None and steps <= t


def test_mixing_budget_monotonicity():
    base = mixing_time_bound(2.0, 1.0, 2, 0.1, 0.0)
    assert mixing_time_bound(2.0, 1.0, 2, 0.01, 0.0) > base
    assert mixing_time_bound(2.0, 1.0, 2, 0.1, 0.3) > base
    assert mixing_time_bound(4.0, 1.0, 2, 0.1, 0.0) > base
    assert mixing_time_bound(2.0, 1.0, 2, 0.1, 0.0) >= 1


# ---------------------------------------------------------------------------
# one banded eigensolve per chain
# ---------------------------------------------------------------------------

def _smooth_chain(d, cells, seed=0):
    grid = grid_with_cells(box(d, 1.0), cells)
    centers = grid.centers_all()
    u = np.random.default_rng(seed).uniform(-0.05, 0.05, grid.state_count)
    scores = (1.5 * np.sin(2.0 * centers[:, 0])
              + 0.8 * np.einsum("ij,ij->i", centers, centers) + u)
    return grid, scores, exact_chain(scores, grid)


def test_mixing_queries_at_two_budgets_solve_once(eig_banded_calls):
    grid, scores, analysis = _smooth_chain(2, 16)
    P, pi = analysis.transition, analysis.stationary
    alpha = grid_lipschitz(scores, grid)
    for accuracy in (0.1, 0.01):
        t = mixing_time_bound(alpha, grid.tau, 2, accuracy, 0.05)
        assert linf_mixing_distance(P, pi, t) <= CERTIFIED_FLOOR
    assert eig_banded_calls == [(17, 256)]
    assert certified_mixing_steps(P, pi, 0.1) is not None
    assert len(eig_banded_calls) == 1


def test_cheeger_interval_after_a_mixing_query_adds_no_solve(eig_banded_calls):
    analysis = _smooth_chain(2, 8)[2]
    linf_mixing_distance(analysis.transition, analysis.stationary, 10**6)
    assert len(eig_banded_calls) == 1
    low, high = cheeger_interval(analysis)
    assert len(eig_banded_calls) == 1
    chain._lambda2_memo.clear()
    assert cheeger_interval(analysis) == (low, high)
    assert len(eig_banded_calls) == 2


@pytest.mark.parametrize("d,cells", [(1, 2), (1, 64), (2, 8), (2, 16)])
def test_memoized_lambda2_is_bit_equal_to_a_fresh_solve(eig_banded_calls, d,
                                                         cells):
    _, _, analysis = _smooth_chain(d, cells, seed=cells)
    P, pi = analysis.transition, analysis.stationary
    fresh = symmetrized_lambda2_nonzero(P.toarray(), pi)
    eig_banded_calls.clear()
    cold = chain._symmetrized_lambda2(P, pi)
    warm = chain._symmetrized_lambda2(P, pi)
    assert cold == fresh and warm == fresh
    assert len(eig_banded_calls) == 1


@pytest.mark.parametrize("d,cells", [(1, 256), (1, 2048), (2, 4), (2, 16), (2, 30), (2, 32)])
def test_certified_path_on_the_csr_equals_the_dense_loop_matrix(d, cells):
    # chain-check and lemma-chain sizes: every certified-path query on the
    # CSR gives the bits its dense-matrix oracle gives on the loop's P, at
    # the closed-form budgets and, on the 256-state chain, at a step count
    # the certificate declines
    grid, scores, analysis = _smooth_chain(d, cells, seed=cells)
    P, pi = analysis.transition, analysis.stationary
    dense = transition_matrix_loop(scores, grid)
    assert chain._symmetrized_lambda2(P, pi) == symmetrized_lambda2_nonzero(dense, pi)
    assert chain._lambda_star(P, pi) == lambda_star_nonzero(dense, pi) < 1.0
    alpha = grid_lipschitz(scores, grid)
    for accuracy in (0.1, 0.01):
        budget = mixing_time_bound(alpha, grid.tau, d, accuracy, 0.05)
        for t in (budget, 40) if cells == 256 else (budget,):
            got = (certified_mixing_steps(P, pi, accuracy), linf_mixing_distance(P, pi, t))
            assert got == certified_queries_nonzero(dense, pi, accuracy, t)


def test_nearby_chains_get_their_own_solve(eig_banded_calls):
    grid, scores, analysis = _smooth_chain(2, 8)
    P, pi = analysis.transition, analysis.stationary
    bands = symmetrized_bands_nonzero(P.toarray(), pi)[0]
    cases = [(P, pi)]
    for flat in (20, 27):
        nudged = scores.copy()
        nudged[flat] = np.nextafter(nudged[flat], math.inf)
        other = exact_chain(nudged, grid)
        assert not np.array_equal(other.transition.toarray(), P.toarray())
        cases.append((other.transition, other.stationary))
    for factor in (1.0 + 1e-9, 1.01):
        reweighted = pi.copy()
        reweighted[5] *= factor
        cases.append((P, reweighted))
    # one ulp at state 20 moves the bands; at 27 it moves P but every
    # symmetrized entry rounds back, so the solve is shared.  Scaling one
    # pi entry moves each band entry only to second order: by 1e-9 that
    # rounds away (only skew moves), by 1% it does not
    moved = [not np.array_equal(symmetrized_bands_nonzero(P.toarray(), pi)[0], bands)
             for P, pi in cases]
    assert moved == [False, True, False, False, True]
    fresh = [symmetrized_lambda2_nonzero(P.toarray(), pi) for P, pi in cases]
    assert fresh[3][1] != fresh[0][1]
    eig_banded_calls.clear()
    for _ in range(2):
        for case, want in zip(cases, fresh):
            assert chain._symmetrized_lambda2(*case) == want
        assert len(eig_banded_calls) == 3


def test_lambda2_memo_keeps_the_newest_chains(eig_banded_calls):
    grid = grid_with_cells(box(1), 10)
    rng = np.random.default_rng(1)
    chains = [exact_chain(rng.normal(size=10), grid) for _ in range(11)]
    for analysis in chains:
        chain._lambda_star(analysis.transition, analysis.stationary)
        assert len(chain._lambda2_memo) <= 8
    assert len(eig_banded_calls) == 11 and len(chain._lambda2_memo) == 8
    newest, oldest = chains[-1], chains[0]
    chain._lambda_star(newest.transition, newest.stationary)
    assert len(eig_banded_calls) == 11
    chain._lambda_star(oldest.transition, oldest.stationary)
    assert len(eig_banded_calls) == 12 and len(chain._lambda2_memo) == 8


def test_threads_alternating_between_chains_get_their_own_lambda2(
        eig_banded_calls):
    # six threads on a few cores, each alternating between its own two
    # chains: twelve chains in all, so the memo misses and evicts while the
    # other threads read it
    grid = grid_with_cells(box(1), 10)
    rng = np.random.default_rng(2)
    pairs = [(a.transition, a.stationary) for a in
             (exact_chain(rng.normal(size=10), grid) for _ in range(12))]
    fresh = [symmetrized_lambda2_nonzero(P.toarray(), pi) for P, pi in pairs]
    start = threading.Barrier(6, timeout=10.0)

    def alternate(worker):
        start.wait()
        wrong = 0
        for i in range(200):
            k = 2 * worker + i % 2
            wrong += chain._symmetrized_lambda2(*pairs[k]) != fresh[k]
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(alternate, w) for w in range(6)]
            assert [f.result(timeout=60.0) for f in futures] == [0] * 6
    finally:
        sys.setswitchinterval(interval)
    assert len(chain._lambda2_memo) <= 8
