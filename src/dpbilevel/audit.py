"""Independent verification oracles.

Three families of checks, each a pure function returning an AuditReport:

* empirical_sensitivity — brute-force single-record swaps lower-bounding a
  query's true sensitivity, compared against the closed-form bound the
  mechanisms assume.
* exact_dp_audit — the differential-privacy inequality itself, checked
  exactly on enumerable output laws: max |log ratio| for pure DP, the
  hockey-stick divergence at level eps (sum of positive parts of
  P - e^eps * Q, both directions) for approximate DP.  No sampling, no
  Monte-Carlo slack.
* verify_sampler_lemmas — the three finite-chain facts the sampler's
  correctness rests on (conductance degradation, stationary distance, and
  the mixing-time budget), verified by exact matrix computation on small
  grids.  The mixing distance is exact unless a certified spectral upper
  bound already puts it at or below 1e-12 (see gridwalk.chain).

The sensitivity audits are lower bounds on the true sup (they enumerate a
finite swap set); the DP and chain audits are exact on their discretized
inputs, up to that certified bound.  Negative controls — deliberately
broken constants — are AuditReports with expected="fail", and the test
suite asserts that direction too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SizeCapError
from .gridwalk.chain import (
    CONDUCTANCE_STATE_CAP,
    certified_mixing_steps,
    conductance_exact,  # noqa: F401 - a perfbench/spans.py trace target
    dist_inf,
    exact_chain,
    linf_mixing_distance,
    mixing_time_bound,
)
from .gridwalk.grid import EXACT_STATE_CAP, GridSpec
from .problem import Dataset


@dataclass(frozen=True)
class AuditReport:
    """One audit entry: the worst case found and the bound it must respect.

    A positive audit expects to pass; a negative control (a deliberately
    broken setting) has expected="fail".  passed is derived from worst_case
    and bound, or None when vacuous holds the reason the entry could not be
    run (its worst_case is then None).
    """

    name: str
    worst_case: Optional[float]
    bound: float
    witness: dict
    trials: int
    expected: str = "pass"
    vacuous: Optional[str] = None

    @property
    def passed(self) -> Optional[bool]:
        if self.vacuous is not None:
            return None
        return bool(self.worst_case <= self.bound * (1.0 + 1e-9))

    @property
    def as_expected(self) -> bool:
        return self.passed is (self.expected == "pass")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "passed": self.passed,
            "worst_case": self.worst_case,
            "bound": self.bound,
            "vacuous": self.vacuous,
            "witness": self.witness,
            "trials": self.trials,
        }


def empirical_sensitivity(
    query: Callable[[Dataset], np.ndarray],
    Z: Dataset,
    swap_candidates: Sequence[np.ndarray],
    indices: Sequence[int],
    bound: float,
    name: str = "empirical_sensitivity",
) -> AuditReport:
    """Max deviation of query over all single-record swaps indices x candidates.

    Vector outputs are compared in l2, scalars in absolute value.  The result
    is a lower bound on the true replace-one sensitivity (the swap set is
    finite); the mechanisms' bound must still dominate it.
    """
    if len(swap_candidates) == 0 or len(indices) == 0:
        raise ValueError("need at least one candidate and one index")
    base = np.atleast_1d(np.asarray(query(Z), dtype=float))
    worst = 0.0
    witness: dict = {}
    trials = 0
    for idx in indices:
        for c_num, candidate in enumerate(swap_candidates):
            swapped = Z.replaced(int(idx), np.asarray(candidate, dtype=float))
            out = np.atleast_1d(np.asarray(query(swapped), dtype=float))
            dev = float(np.linalg.norm(out - base))
            trials += 1
            if dev > worst:
                worst = dev
                witness = {
                    "index": int(idx),
                    "candidate": np.asarray(candidate, dtype=float).tolist(),
                    "deviation": dev,
                }
    return AuditReport(name, worst, float(bound), witness, trials)


def _hockey_stick(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """sup_S P(S) - e^eps Q(S), computed exactly: sum of positive parts."""
    return float(np.clip(p - math.exp(eps) * q, 0.0, None).sum())


def exact_dp_audit(
    mechanism_grid_law: Callable[[Dataset], np.ndarray],
    Z: Dataset,
    swaps: Sequence[tuple[int, np.ndarray]],
    eps: float,
    delta: float = 0.0,
    name: Optional[str] = None,
) -> AuditReport:
    """Check the DP inequality exactly on an enumerable output law.

    swaps lists (index, replacement record) pairs; each defines one adjacent
    dataset.  With delta = 0 the audit bounds the max |log ratio| over swaps
    and states by eps; with delta > 0 it bounds the exact hockey-stick
    divergence at level eps (in both directions of each swap) by delta.
    """
    if len(swaps) == 0:
        raise ValueError("need at least one swap")
    p = np.asarray(mechanism_grid_law(Z), dtype=float)
    if p.size > EXACT_STATE_CAP:
        raise SizeCapError(f"law has {p.size} states, cap {EXACT_STATE_CAP}")
    pure = delta == 0.0
    worst = 0.0 if pure else -math.inf
    witness: dict = {}
    for swap_num, (idx, record) in enumerate(swaps):
        q = np.asarray(
            mechanism_grid_law(Z.replaced(int(idx), np.asarray(record, float))),
            dtype=float,
        )
        if pure:
            value = dist_inf(p, q)
            state = int(np.argmax(np.abs(np.log(
                np.where(p > 0, p, 1.0)) - np.log(np.where(q > 0, q, 1.0)))))
        else:
            forward = _hockey_stick(p, q, eps)
            backward = _hockey_stick(q, p, eps)
            value = max(forward, backward)
            state = -1
        if value > worst:
            worst = value
            witness = {
                "swap": swap_num,
                "index": int(idx),
                "record": np.asarray(record, dtype=float).tolist(),
                "value": float(value),
            }
            if pure and state >= 0:
                witness["state"] = state
    bound = eps if pure else delta
    audit_name = name or ("pure_dp_audit" if pure else "approx_dp_audit")
    return AuditReport(audit_name, float(worst), float(bound), witness,
                       len(swaps))


def verify_sampler_lemmas(
    f_values: np.ndarray,
    zeta_values: np.ndarray,
    grid: GridSpec,
    accuracy: float = 0.1,
) -> list[AuditReport]:
    """Exact finite-chain verification of the three sampler lemmas.

    Builds the ideal chain from f_values and the perturbed chain from
    f_values + zeta_values (pointwise evaluation errors, |zeta| <= zeta_max)
    and checks, all by matrix computation on the exact chains:

    1. conductance degradation — phi' >= e^{-6 zeta_max} * phi, reported as
       the ratio (e^{-6 zeta} phi) / phi' against bound 1;
    2. stationary distance — Dist_inf(pi', pi) <= 2 zeta_max;
    3. mixing budget — every row of P'^t is within `accuracy` of pi' in the
       log-ratio metric at t = mixing_time_bound(...).  The witness also
       holds t_cert, the smallest t the spectral certificate accepts at
       that accuracy (None if it accepts none), which shows the budget's
       slack.

    The budget's alpha_lip is the empirical grid Lipschitz constant of the
    perturbed scores (max neighbor difference over cell width).
    """
    f = np.asarray(f_values, dtype=float)
    zeta = np.asarray(zeta_values, dtype=float)
    if f.shape != zeta.shape or f.shape != (grid.state_count,):
        raise ValueError("f_values and zeta_values must match the grid")
    if grid.state_count > CONDUCTANCE_STATE_CAP:
        raise SizeCapError(
            f"{grid.state_count} states exceeds the exhaustive-conductance "
            f"cap {CONDUCTANCE_STATE_CAP}"
        )
    zeta_max = float(np.max(np.abs(zeta))) if zeta.size else 0.0
    f_pert = f + zeta

    ideal = exact_chain(f, grid)
    perturbed = exact_chain(f_pert, grid)
    # within CONDUCTANCE_STATE_CAP, exact_chain has filled the conductance
    phi = ideal.conductance_phi
    phi_pert = perturbed.conductance_phi

    floor = math.exp(-6.0 * zeta_max) * phi
    ratio = 0.0 if floor == 0.0 else (math.inf if phi_pert == 0.0
                                      else floor / phi_pert)
    conductance_report = AuditReport(
        "conductance_degradation", ratio, 1.0,
        {"phi": phi, "phi_perturbed": phi_pert, "zeta_max": zeta_max},
        grid.state_count,
    )

    distance = dist_inf(perturbed.stationary, ideal.stationary)
    distance_report = AuditReport(
        "stationary_distance", distance, 2.0 * zeta_max,
        {"zeta_max": zeta_max}, grid.state_count,
    )

    F = f_pert.reshape((grid.cells_per_axis,) * grid.d)
    alpha_lip = max(float(np.abs(np.diff(F, axis=k)).max(initial=0.0))
                    for k in range(grid.d)) / grid.gamma
    t = mixing_time_bound(alpha_lip, grid.tau, grid.d, accuracy, zeta_max)
    mixing = linf_mixing_distance(
        perturbed.transition, perturbed.stationary, t
    )
    t_cert = certified_mixing_steps(
        perturbed.transition, perturbed.stationary, accuracy)
    mixing_report = AuditReport(
        "mixing_time", mixing, float(accuracy),
        {"t": int(t), "t_cert": t_cert, "alpha_lip": float(alpha_lip),
         "accuracy": accuracy},
        grid.state_count,
    )
    return [conductance_report, distance_report, mixing_report]
