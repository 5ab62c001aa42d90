"""The verification oracles themselves: reports, swaps, exact DP checks."""

import json
import math

import numpy as np
import pytest

from dpbilevel import audit
from dpbilevel.audit import (
    AuditReport,
    empirical_sensitivity,
    exact_dp_audit,
    verify_sampler_lemmas,
)
from dpbilevel.errors import SizeCapError
from dpbilevel.gridwalk import chain
from dpbilevel.gridwalk.grid import EXACT_STATE_CAP, grid_with_cells
from dpbilevel.problem import Dataset, Domain
from oracles import grid_lipschitz


def box(d, half=0.5):
    return Domain("box", np.zeros(d), half_widths=np.full(d, half))


# ---------------------------------------------------------------------------
# the report type
# ---------------------------------------------------------------------------

def test_report_verdict_follows_worst_case():
    def report(worst, **kw):
        return AuditReport("x", worst, 1.0, {}, 1, **kw)

    # a relative slack of 1e-9 on the bound, and no more
    assert report(1.0 + 0.5e-9).passed is True
    assert report(1.0 + 2e-9).passed is False
    assert report(math.inf).passed is False
    assert report(0.5).as_expected and not report(2.0).as_expected
    # a control is as expected when it fails
    assert report(2.0, expected="fail").as_expected
    assert not report(0.5, expected="fail").as_expected
    # a vacuous entry has no verdict, so it is never as expected
    vacuous = report(None, expected="fail", vacuous="no finite budget")
    assert vacuous.passed is None and not vacuous.as_expected
    assert report(None, vacuous="not run").as_expected is False


def test_report_json_is_parseable():
    rep = AuditReport(name="x", worst_case=0.5, bound=1.0,
                      witness={"k": 3}, trials=7)
    blob = json.loads(json.dumps(rep.as_dict()))
    assert blob == {"name": "x", "expected": "pass", "passed": True,
                    "worst_case": 0.5, "bound": 1.0, "vacuous": None,
                    "witness": {"k": 3}, "trials": 7}


# ---------------------------------------------------------------------------
# sensitivity by brute force
# ---------------------------------------------------------------------------

def test_constant_query_has_zero_sensitivity():
    Z = Dataset(np.array([[1.0], [2.0], [3.0]]))
    rep = empirical_sensitivity(lambda Z_: 7.0, Z,
                                swap_candidates=[np.array([9.0])],
                                indices=[0, 1, 2], bound=0.0)
    assert rep.passed and rep.worst_case == 0.0
    assert rep.trials == 3


def test_mean_query_worst_swap_is_found():
    Z = Dataset(np.array([[1.0], [3.0]]))

    def mean_query(Z_):
        return Z_.points.mean(axis=0)

    rep = empirical_sensitivity(
        mean_query, Z,
        swap_candidates=[np.array([5.0]), np.array([-5.0])],
        indices=[0, 1], bound=5.0)
    # replacing the 3.0 record with -5.0 moves the mean from 2 to -2
    assert rep.worst_case == pytest.approx(4.0)
    assert rep.passed
    assert rep.witness == {"index": 1, "candidate": [-5.0], "deviation": 4.0}

    tight = empirical_sensitivity(
        mean_query, Z, swap_candidates=[np.array([-5.0])],
        indices=[0], bound=1.0)
    assert not tight.passed


def test_sensitivity_requires_nonempty_swaps():
    Z = Dataset(np.array([[1.0]]))
    with pytest.raises(ValueError):
        empirical_sensitivity(lambda Z_: 0.0, Z, [], [0], 1.0)


# ---------------------------------------------------------------------------
# exact DP inequality
# ---------------------------------------------------------------------------

def toy_law(Z):
    """A 2-state law that flips when record 0 goes nonpositive."""
    if float(Z.record(0)[0]) > 0:
        return np.array([0.7, 0.3])
    return np.array([0.5, 0.5])


def toy_dataset():
    return Dataset(np.array([[1.0], [2.0]]))


def test_pure_dp_audit_frozen_log_ratio():
    swaps = [(0, np.array([-1.0]))]
    rep = exact_dp_audit(toy_law, toy_dataset(), swaps, eps=0.6)
    assert rep.name == "pure_dp_audit"
    # max |log ratio| = log(0.5/0.3)
    assert rep.worst_case == pytest.approx(math.log(0.5 / 0.3), rel=1e-12, abs=0.0)
    assert rep.passed
    assert rep.witness["state"] == 1

    tight = exact_dp_audit(toy_law, toy_dataset(), swaps, eps=0.4)
    assert not tight.passed


def test_approx_dp_audit_frozen_hockey_stick():
    swaps = [(0, np.array([-1.0]))]
    rep = exact_dp_audit(toy_law, toy_dataset(), swaps, eps=0.1, delta=0.2)
    assert rep.name == "approx_dp_audit"
    # the reverse direction dominates: 0.5 - e^0.1 * 0.3
    expected = 0.5 - math.exp(0.1) * 0.3
    assert rep.worst_case == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert rep.passed
    fail = exact_dp_audit(toy_law, toy_dataset(), swaps, eps=0.1, delta=0.1)
    assert not fail.passed


def test_identical_laws_audit_to_zero():
    swaps = [(1, np.array([5.0]))]  # toy_law ignores record 1
    rep = exact_dp_audit(toy_law, toy_dataset(), swaps, eps=1e-9)
    assert rep.worst_case == 0.0 and rep.passed


def test_dp_audit_validation_and_cap():
    with pytest.raises(ValueError):
        exact_dp_audit(toy_law, toy_dataset(), [], eps=0.1)
    big = np.full(EXACT_STATE_CAP + 1, 1.0 / (EXACT_STATE_CAP + 1))
    with pytest.raises(SizeCapError):
        exact_dp_audit(lambda Z_: big, toy_dataset(),
                       [(0, np.array([-1.0]))], eps=0.1)


# ---------------------------------------------------------------------------
# finite-chain lemmas
# ---------------------------------------------------------------------------

def test_lemmas_with_no_perturbation_are_exact():
    grid = grid_with_cells(box(1), 8)
    f = np.abs(np.linspace(-1.0, 1.0, 8)) * 2.0
    cond, dist, mixing = verify_sampler_lemmas(f, np.zeros(8), grid,
                                               accuracy=0.2)
    assert cond.passed and cond.worst_case <= 1.0
    assert dist.passed and dist.worst_case == 0.0 and dist.bound == 0.0
    assert mixing.passed and mixing.worst_case <= 0.2
    assert mixing.witness["t"] >= 1


def test_lemmas_hold_under_alternating_perturbation():
    grid = grid_with_cells(box(1), 8)
    f = np.abs(np.linspace(-1.0, 1.0, 8)) * 2.0
    zeta = 0.05 * np.where(np.sin(np.arange(8.0)) > 0, 1.0, -1.0)
    reports = verify_sampler_lemmas(f, zeta, grid, accuracy=0.2)
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert names == ["conductance_degradation", "stationary_distance",
                     "mixing_time"]
    assert reports[1].bound == pytest.approx(0.1)


def test_lemma_check_solves_the_perturbed_chain_once(eig_banded_calls):
    # the mixing distance and t_cert both need the perturbed chain's lambda*
    grid = grid_with_cells(box(1), 12)
    f = np.linspace(0.0, 1.0, 12)
    zeta = 0.02 * np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    mixing = verify_sampler_lemmas(f, zeta, grid, accuracy=0.2)[2]
    assert mixing.passed and mixing.witness["t_cert"] is not None
    assert eig_banded_calls == [(2, 12)]


def test_stationary_distance_witness_is_tight():
    # nearly all mass on one cell: the normalizer absorbs that cell's shift
    # and the light cell pays both shifts, meeting the bound exactly
    grid = grid_with_cells(box(1), 2)
    zeta = 0.1
    reports = verify_sampler_lemmas(
        np.array([0.0, 60.0]), np.array([zeta, -zeta]), grid, accuracy=0.5)
    dist = reports[1]
    assert dist.worst_case == pytest.approx(2.0 * zeta, abs=1e-12)
    assert dist.passed


def test_lemmas_shape_and_cap_validation():
    grid = grid_with_cells(box(1), 8)
    with pytest.raises(ValueError):
        verify_sampler_lemmas(np.zeros(4), np.zeros(4), grid)
    big = grid_with_cells(box(1), 19)
    with pytest.raises(SizeCapError):
        verify_sampler_lemmas(np.zeros(19), np.zeros(19), big)


def test_lemmas_respect_supplied_lipschitz_constant():
    # the mixing budget takes the scores' own grid Lipschitz constant:
    # scaling them by 8 raises it from 1 to 8 and the budget with it
    grid = grid_with_cells(box(1), 4)
    f = np.linspace(0.0, 0.75, 4)
    slow = verify_sampler_lemmas(8.0 * f, np.zeros(4), grid, accuracy=0.3)[2]
    fast = verify_sampler_lemmas(f, np.zeros(4), grid, accuracy=0.3)[2]
    assert (slow.witness["alpha_lip"], fast.witness["alpha_lip"]) == (8.0, 1.0)
    assert slow.witness["t"] > fast.witness["t"]
    assert slow.passed and fast.passed


LEMMA_INPUTS = (  # the scores, perturbations and grids the tests above use
    (np.abs(np.linspace(-1.0, 1.0, 8)) * 2.0, np.zeros(8), (1, 8)),
    (np.abs(np.linspace(-1.0, 1.0, 8)) * 2.0,
     0.05 * np.where(np.sin(np.arange(8.0)) > 0, 1.0, -1.0), (1, 8)),
    (np.array([0.0, 60.0]), np.array([0.1, -0.1]), (1, 2)),
    (np.linspace(0.0, 0.75, 4), np.zeros(4), (1, 4)),
    (np.linspace(0.0, 1.5, 16), 0.05 * np.cos(np.arange(16.0)), (2, 4)),
)


@pytest.mark.parametrize("f,zeta,shape", LEMMA_INPUTS)
def test_lemma_lipschitz_default_matches_neighbor_loop(f, zeta, shape):
    grid = grid_with_cells(box(shape[0]), shape[1])
    mixing = verify_sampler_lemmas(f, zeta, grid, accuracy=0.3)[2]
    assert mixing.witness["alpha_lip"] == grid_lipschitz(f + zeta, grid)


def test_mixing_report_states_certified_steps():
    grid = grid_with_cells(box(2), 4)
    f = np.linspace(0.0, 1.5, 16)
    zeta = 0.05 * np.cos(np.arange(16.0))
    mixing = verify_sampler_lemmas(f, zeta, grid, accuracy=0.1)[2]
    t, t_cert = mixing.witness["t"], mixing.witness["t_cert"]
    assert isinstance(t_cert, int) and 1 <= t_cert <= t
    # the closed form is the smallest t the certified bound accepts
    perturbed = chain.exact_chain(f + zeta, grid)
    P, pi = perturbed.transition, perturbed.stationary
    assert chain._certified_distance(P, pi, t_cert) <= 0.1
    assert chain._certified_distance(P, pi, t_cert - 1) > 0.1
    assert json.loads(json.dumps(mixing.as_dict()))["witness"]["t_cert"] == t_cert


def test_lemmas_compute_each_conductance_once(monkeypatch):
    real = chain.conductance_exact
    calls = []

    def counting(analysis):
        calls.append(analysis.grid.state_count)
        return real(analysis)

    monkeypatch.setattr(chain, "conductance_exact", counting)
    monkeypatch.setattr(audit, "conductance_exact", counting)
    grid = grid_with_cells(box(2), 4)
    f = np.linspace(0.0, 1.5, 16)
    zeta = 0.05 * np.cos(np.arange(16.0))
    verify_sampler_lemmas(f, zeta, grid, accuracy=0.3)
    assert calls == [16, 16]  # the ideal chain and the perturbed one
