"""Exact finite-chain analysis of the lazy grid walk.

The walk is a lazy Metropolis chain on cell centers: hold with probability
1/2, otherwise propose one of the 2d axis neighbors uniformly and accept
with min{1, exp(-(f'(y) - f'(x)))}; proposals off the cube are rejected.
Off-diagonal transition probabilities are therefore
(1/(4d)) * min{1, exp(-(f'(y) - f'(x)))}, and the stationary law is the
Gibbs law proportional to exp(-f') by detailed balance.

These routines build the transition matrix as a scipy.sparse.csr_array,
its stationary law, exact conductance by subset enumeration, L-infinity
mixing distances, and the closed-form mixing-time budget used by the
sampler.  Everything here is for audit-scale chains; the actual sampler
never materializes a matrix.  Only the 2d-neighbour edges fill P off its
diagonal, so P holds at most 2d + 1 entries a row, and exact_chain and the
certified path form no n x n array: reducibility is read off P's pattern
and lambda_2's bands off its entries.  Math that is dense stays dense:
conductance (at most CONDUCTANCE_STATE_CAP states) and the exact mixing
distance take P.toarray() on entry.  Conductance enumerates the subsets of
each half of the states separately and sums only nonnegative cut flows.

Mixing distances come from one of two paths.  The certified path bounds the
distance by lambda*^t / pi_min (Levin, Peres & Wilmer, *Markov Chains and
Mixing Times*, ch. 12), with lambda* from one banded eigensolve of the
pi-symmetrized kernel; it answers only when that bound is at most
CERTIFIED_FLOOR, below the exact path's own rounding.  The bound holds for
the reversible chain the scores define, i.e. for P in detailed balance with
pi up to rounding; any other input is declined.  Otherwise the exact path
takes P^t by repeated squaring, which needs no reversibility, and stays the
oracle the certified path is tested against.

lambda_2 does not depend on t, and callers ask about one chain at several
step counts and accuracies, so the last few solves are memoized on a digest
of the bands, the solver's whole input: a repeat query on the same chain
returns the bits a fresh solve would, without solving.  Everything else
(the reversibility check, min diag P, pi_min) is recomputed on every call.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from ..errors import SizeCapError
from .grid import EXACT_STATE_CAP, GridSpec

#: explicit constant in the mixing-time budget
K_MIX = 64
#: states above which exhaustive conductance enumeration is refused
CONDUCTANCE_STATE_CAP = 18
#: largest mixing distance the certified path returns; the exact path's
#: rounding floor lies around 1e-14 to 1e-11
CERTIFIED_FLOOR = 1e-12
#: backward-error allowance, in units of n * machine epsilon, added to the
#: LAPACK estimate of lambda_2; it covers rounding in P, pi and the banded
#: eigensolve, which turns that estimate into a certificate
MARGIN_FACTOR = 8
#: rows whose sums transition_matrix takes at once, for its diagonal
_SLAB_ROWS = 64
#: distinct chains whose lambda_2 is remembered, oldest evicted first
_LAMBDA2_MEMO_SIZE = 8

# (bands.shape, blake2b digest of the bands) -> lambda_2, in insertion order
_lambda2_memo: dict[tuple, float] = {}
_lambda2_lock = threading.Lock()


def transition_matrix(f_values: np.ndarray, grid: GridSpec) -> scipy.sparse.csr_array:
    """Lazy-Metropolis transition matrix for scores f' at the centers, as CSR.

    Each row stores its diagonal and its positive neighbour weights, columns
    ascending; a weight that is exactly 0.0 (an infinite score uphill) is
    not stored.  Each weight is math.exp of min(0, f[x] - f[y]) (no
    overflow), the same libm call per edge as a scalar loop, because np.exp
    rounds differently on a few percent of inputs.  The diagonal is 1 minus
    the row sum, summed over dense rows of a reused _SLAB_ROWS x n slab:
    NumPy sums a row pairwise, so a plain sum over the neighbours would
    round differently on d >= 2 grids.  toarray() equals the dense matrix
    of the neighbour loop bit for bit.
    """
    f = np.asarray(f_values, dtype=float)
    n, d = grid.state_count, grid.d
    if f.shape != (n,):
        raise ValueError(f"need {n} scores, got shape {f.shape}")
    cols, is_edge = _neighbour_slots(grid)
    diff = f[np.nonzero(is_edge)[0]] - f[cols[is_edge]]
    expo = np.where(diff < 0.0, diff, 0.0).tolist()
    weights = np.zeros(cols.shape)
    weights[is_edge] = (1.0 / (4.0 * d)) * np.fromiter(map(math.exp, expo), float, len(expo))
    keep = weights > 0.0
    keep[:, d] = True
    rows = np.nonzero(keep)[0]
    indices, data = cols[keep], weights[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    sums = np.empty(n)
    slab = np.zeros((min(_SLAB_ROWS, n), n))
    for top in range(0, n, _SLAB_ROWS):
        bottom = min(top + _SLAB_ROWS, n)
        span = slice(indptr[top], indptr[bottom])
        at = rows[span] - top, indices[span]
        slab[at] = data[span]
        sums[top:bottom] = slab[:bottom - top].sum(axis=1)
        slab[at] = 0.0
    data[indptr[:-1] + keep[:, :d].sum(axis=1)] = 1.0 - sums
    return scipy.sparse.csr_array((data, indices, indptr), shape=(n, n))


def _neighbour_slots(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2d+1) column table of each state's row, and which slots are edges.

    Slot j holds the column at offset -s_0, ..., -s_{d-1}, 0, s_{d-1}, ...,
    s_0 with s_axis = m^(d-1-axis), so every row is in ascending column
    order and slot d is the state itself; a slot is an edge when that
    neighbour lies inside the cube.
    """
    m, d = grid.cells_per_axis, grid.d
    flat = np.arange(grid.state_count)
    strides = m ** np.arange(d - 1, -1, -1)
    coord = (flat[:, None] // strides) % m
    cols = flat[:, None] + np.concatenate([-strides, [0], strides[::-1]])
    is_edge = np.concatenate(
        [coord > 0, np.zeros((len(flat), 1), bool), (coord < m - 1)[:, ::-1]], axis=1)
    return cols, is_edge


def stationary_from_scores(f_values: np.ndarray) -> np.ndarray:
    """Gibbs law proportional to exp(-f'), computed stably."""
    f = np.asarray(f_values, dtype=float)
    w = np.exp(-(f - np.min(f)))
    return w / w.sum()


def dist_inf(p: np.ndarray, q: np.ndarray) -> float:
    """max |log(p/q)| over states; infinite if the supports differ."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any((p > 0) != (q > 0)):
        return math.inf
    mask = p > 0
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(np.log(p[mask]) - np.log(q[mask]))))


@dataclass(frozen=True)
class ChainAnalysis:
    """Exact description of one finite walk chain."""

    grid: GridSpec
    f_values: np.ndarray
    transition: scipy.sparse.csr_array
    stationary: np.ndarray
    conductance_phi: Optional[float]
    reducible: bool


def _symmetrized_lambda2(P: scipy.sparse.csr_array, pi: np.ndarray) -> tuple[float, float]:
    """(lambda_2, skew) of S = D^{1/2} P D^{-1/2}, D = diag(pi), pi > 0.

    lambda_2 is the second-largest eigenvalue of (S + S^T)/2, from LAPACK's
    banded solver.  Its bands reach out to P's bandwidth, the largest
    |row - column| over the stored entries whose value is nonzero: 1 on a
    1-d grid, the cells per axis on a 2-d one.  Only the diagonals that hold
    such an entry are filled from P's entries; the rest of the bands are
    zero.  skew is max |S - S^T|, which is rounding-sized exactly when P is
    reversible with respect to pi.
    """
    n = len(pi)
    rows = np.repeat(np.arange(n), np.diff(P.indptr))
    live = P.data != 0.0
    rows, cols, vals = rows[live], P.indices[live], P.data[live]
    low = np.minimum(rows, cols)
    offset = np.abs(cols - rows)
    width = int(offset.max(initial=0))
    used = np.zeros(width + 1, dtype=bool)
    used[offset] = True
    slot = (np.cumsum(used) - 1)[offset]
    root = np.sqrt(pi)
    ratio = root[low + offset] / root[low]
    below = np.zeros((int(used.sum()), n))  # S[j+k, j] on the used diagonals k
    above = np.zeros_like(below)  # S[j, j+k]
    lower, upper = rows >= cols, rows <= cols
    below[slot[lower], low[lower]] = ratio[lower] * vals[lower]
    above[slot[upper], low[upper]] = vals[upper] / ratio[upper]
    skew = float(np.max(np.abs(below - above), initial=0.0))
    bands = np.zeros((width + 1, n))
    bands[used] = 0.5 * (below + above)
    return _banded_lambda2(bands), skew


def _banded_lambda2(bands: np.ndarray) -> float:
    """Second-largest eigenvalue of the symmetric matrix with lower bands.

    Memoized on the bands' shape and a 256-bit blake2b digest of their
    bytes, which is all eig_banded reads, so a hit is bit-equal to a fresh
    solve.  The memo keeps _LAMBDA2_MEMO_SIZE chains; two threads that miss
    on one chain at once both solve it and store the same value.
    """
    key = (bands.shape, hashlib.blake2b(bands.tobytes(), digest_size=32).digest())
    with _lambda2_lock:
        lam2 = _lambda2_memo.get(key)
    if lam2 is None:
        n = bands.shape[1]
        lam2 = float(scipy.linalg.eig_banded(
            bands, lower=True, eigvals_only=True,
            select="i", select_range=(n - 2, n - 2))[0])
        with _lambda2_lock:
            _lambda2_memo[key] = lam2
            while len(_lambda2_memo) > _LAMBDA2_MEMO_SIZE:
                del _lambda2_memo[next(iter(_lambda2_memo))]
    return lam2


def _lambda_star(P: scipy.sparse.csr_array, pi: np.ndarray) -> float:
    """Certified bound on |lambda| over P's non-unit eigenvalues, else inf.

    max(lambda_2, 1 - 2 min diag(P)) bounds them all: Gershgorin puts every
    eigenvalue at or above 2 min diag(P) - 1, so the second term covers the
    negative end (it is <= 0 for a lazy chain).  The MARGIN_FACTOR * n * eps
    inflation covers the estimate's backward error.  Chains with a state of
    zero stationary mass, or not reversible with respect to pi, get inf.
    """
    n = len(pi)
    if n < 2 or not np.all(pi > 0):
        return math.inf
    lam2, skew = _symmetrized_lambda2(P, pi)
    margin = MARGIN_FACTOR * n * np.finfo(float).eps
    if skew > margin:
        return math.inf
    return max(lam2, 1.0 - 2.0 * float(np.min(P.diagonal()))) + margin


def _certified_distance(P: scipy.sparse.csr_array, pi: np.ndarray, t: int) -> float:
    """-log(1 - lambda*^t / pi_min), an upper bound on the L-inf distance.

    Every |P^t(x,y)/pi(y) - 1| is at most lambda*^t / pi_min for a
    reversible chain; inf when that ratio reaches 1 or lambda* does.
    """
    lam = _lambda_star(P, pi)
    if not 0.0 < lam < 1.0:
        return math.inf
    log_ratio = t * math.log(lam) - math.log(float(np.min(pi)))
    if log_ratio >= 0.0:
        return math.inf
    return -math.log1p(-math.exp(log_ratio))


def certified_mixing_steps(
    P: scipy.sparse.csr_array, pi: np.ndarray, accuracy: float
) -> Optional[int]:
    """Smallest t whose certified bound puts every row within accuracy of pi.

    Closed form from lambda*^t / pi_min <= 1 - e^{-accuracy}:
    t = ceil(log(pi_min * (1 - e^{-accuracy})) / log(lambda*)).  None when
    no certificate applies.
    """
    lam = _lambda_star(P, pi)
    if not 0.0 < lam < 1.0:
        return None
    target = math.log(-math.expm1(-accuracy)) + math.log(float(np.min(pi)))
    return max(1, math.ceil(target / math.log(lam)))


def exact_chain(f_values: np.ndarray, grid: GridSpec) -> ChainAnalysis:
    """Materialize the chain at audit scale (CSR transition, exact stationary law).

    f_values are the scores at the cell centers, in flat-index order.
    Conductance is filled exactly when the state count is within the
    enumeration cap, else left as None.  No eigensolve runs here, and no
    n x n array is formed: P stores only its positive off-diagonal entries,
    and self-loops do not change strong connectivity, so P's own pattern
    decides reducibility.
    """
    n = grid.state_count
    if n > EXACT_STATE_CAP:
        raise SizeCapError(f"{n} states exceed the exact-analysis cap {EXACT_STATE_CAP}")
    f = np.asarray(f_values, dtype=float)
    P = transition_matrix(f, grid)
    pi = stationary_from_scores(f)
    ncomp, _ = scipy.sparse.csgraph.connected_components(
        P, directed=True, connection="strong")
    reducible = ncomp > 1
    analysis = ChainAnalysis(
        grid=grid, f_values=f, transition=P, stationary=pi,
        conductance_phi=None, reducible=reducible,
    )
    if n <= CONDUCTANCE_STATE_CAP:
        phi = 0.0 if reducible else conductance_exact(analysis)
        analysis = replace(analysis, conductance_phi=phi)
    return analysis


def conductance_exact(analysis: ChainAnalysis) -> float:
    """Exhaustive-minimum conductance over all subsets with mass in (0, 1/2].

    The states split into halves A = [0, n//2) and B = [n//2, n); a subset S
    is a pair (a, b) of subsets of A and B, laid out on a (2^|B|, 2^|A|)
    table whose row-major flat index is S's bitmask.  Mass and outflow are
    assembled from tables over each half: outflow is the flow leaving a
    within A, leaving b within B, from a into B - b and from b into A - a,
    every term nonnegative, so a tiny bottleneck flow keeps its relative
    accuracy.  Refuses above CONDUCTANCE_STATE_CAP states; P is taken
    dense.
    """
    n = analysis.grid.state_count
    if n > CONDUCTANCE_STATE_CAP:
        raise SizeCapError(
            f"{n} states exceed the conductance enumeration cap {CONDUCTANCE_STATE_CAP}"
        )
    pi = analysis.stationary
    Q = pi[:, None] * analysis.transition.toarray()  # flow matrix, entries >= 0
    A, B = slice(0, n // 2), slice(n // 2, n)
    in_a, in_b = _subset_table(n // 2), _subset_table(n - n // 2)
    out_a, out_b = 1.0 - in_a, 1.0 - in_b
    flow_out = (in_b @ Q[B, A]) @ out_a.T
    flow_out += out_b @ (in_a @ Q[A, B]).T
    flow_out += np.einsum("ij,ij->i", in_b @ Q[B, B], out_b)[:, None]
    flow_out += np.einsum("ij,ij->i", in_a @ Q[A, A], out_a)[None, :]
    mass = (in_b @ pi[B])[:, None] + (in_a @ pi[A])[None, :]
    # drop the empty set (first entry) and the full set (last)
    flow_out, mass = flow_out.ravel()[1:-1], mass.ravel()[1:-1]
    valid = (mass > 0) & (mass <= 0.5 + 1e-15)
    if not np.any(valid):
        return 1.0
    ratios = flow_out[valid] / mass[valid]
    return float(np.min(ratios))


def _subset_table(k: int) -> np.ndarray:
    """(2^k, k) 0/1 table whose row s holds the bits of s."""
    ids = np.arange(1 << k)
    return ((ids[:, None] >> np.arange(k)) & 1).astype(float)


def mixing_time_bound(
    alpha_lip: float, tau: float, d: int, eps_acc: float, zeta_bound: float,
) -> int:
    """Step budget after which the walk is within eps_acc of stationary.

    K_MIX * e^{12 zeta} * (alpha^2 tau^2 d^2 / eps^2) * e^{eps}
          * max(d * ln(alpha tau sqrt(d) / eps), alpha tau)

    The perturbation enters only through the e^{12 zeta} factor: a zeta-sized
    evaluation error dilates the budget by at most that much.
    """
    if eps_acc <= 0:
        raise ValueError("eps_acc must be positive")
    at = alpha_lip * tau
    log_arg = at * math.sqrt(d) / eps_acc
    log_term = d * math.log(log_arg) if log_arg > 1.0 else 0.0
    core = (at * d / eps_acc) ** 2 * math.exp(eps_acc) * max(log_term, at)
    return max(1, int(math.ceil(K_MIX * math.exp(12.0 * zeta_bound) * core)))


def linf_mixing_distance(P: scipy.sparse.csr_array, pi: np.ndarray, t: int) -> float:
    """max over start states of dist_inf(row of P^t, pi).

    The certified bound -log(1 - lambda*^t / pi_min) is tried first and
    returned when it is at most CERTIFIED_FLOOR: an upper bound on the
    distance of the reversible chain P and pi describe, within the exact
    path's rounding floor; it reads only P's stored entries.
    lambda* does not depend on t, and its banded eigensolve is memoized, so
    asking the same P and pi at several t solves once.  Otherwise the result
    is exact: P^t by binary powering on P taken dense, with rows
    renormalized after every multiply to keep floating-point drift out of
    the log-ratio metric.
    """
    bound = _certified_distance(P, pi, t)
    if bound <= CERTIFIED_FLOOR:
        return bound
    return _exact_distance(P, pi, t)


def _exact_distance(P: scipy.sparse.csr_array, pi: np.ndarray, t: int) -> float:
    """linf_mixing_distance without the certified path, on P taken dense."""
    P = P.toarray()

    def _norm(M):
        return M / M.sum(axis=1, keepdims=True)

    result = None
    base = P
    k = t
    while k:
        if k & 1:
            result = base if result is None else _norm(result @ base)
        k >>= 1
        if k:
            base = _norm(base @ base)
    if result is None:
        result = np.eye(P.shape[0])
    return max(dist_inf(row, pi) for row in result)
