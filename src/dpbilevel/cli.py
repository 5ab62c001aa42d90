"""Experiment runner.

`dpbilevel run config.json` sweeps mechanism trials over a grid of
(n, d, epsilon, delta) cells and writes results.csv (one row per trial,
mechanism ledger flattened into prefixed columns) plus summary.csv
(per-cell mean/stderr).  `dpbilevel audit config.json` runs the exact
verification battery for the configured instance and writes audits.json.
`dpbilevel constants assumptions.json` prints the derived constants for a
set of declared regularity constants.

Everything is deterministic given (config, seed): each trial's seed is
derived by a keyed hash of (seed, cell index, trial index), so adding
cells or trials never disturbs existing ones, and workers only change
scheduling, not results.

Exit codes: 0 success, 1 config error, 2 audit failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import json
import math
import multiprocessing
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import mechanisms
from .audit import AuditReport, empirical_sensitivity, exact_dp_audit, verify_sampler_lemmas
from .errors import ConfigurationError, NonConvergenceError, SizeCapError
from .gridwalk.grid import grid_with_cells
from .hypergrad import approx_hypergradient
from .inner import certificate_floor, solve_lower_level
from .instances import InstanceFixture, make_instance
from .mechanisms import (K_REG, MECHANISMS, _COUNT, PrivacyBudget, _alpha_fallback, _real,
                         check_inputs, mechanism_grid_law)
from .problem import AssumptionConstants, derive_constants
from .rng import derive_seed, make_generator

SWEEP_AXES = ("n", "d", "epsilon", "delta")
MECHANISM_NAMES = tuple(MECHANISMS)
#: mechanism keywords a config cannot set: the budget comes from "budget" and
#: the sweep, and descent always starts at the domain center
_UNSETTABLE = {"eps", "delta", "x0"}
#: instance parameter that plays the role of the sweep axis "d"
_DIM_PARAM = {"hard": "d", "quadratic": "d_x", "ridge": "feature_dim"}
#: what the config's own values must be (check_inputs reads it); the budget
#: is checked by PrivacyBudget and each cell's mechanism keywords by the
#: mechanisms' own table
_RULES = {
    "n": _COUNT,
    "d": _COUNT,
    "trials_per_cell": _COUNT,
    "seed": ("an integer", _real(lambda v: abs(v) < math.inf and v == int(v))),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (strict: unknown keys are errors)."""

    instance_name: str
    instance_params: dict
    mechanism_name: str
    mechanism_params: dict
    epsilon: float
    delta: float
    sweep: dict
    trials_per_cell: int
    seed: int
    output_dir: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {"instance", "mechanism", "budget", "sweep",
                 "trials_per_cell", "seed", "output_dir"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        missing = {"instance", "mechanism", "budget", "seed", "output_dir"} - set(raw)
        if missing:
            raise ConfigurationError(f"missing config keys: {sorted(missing)}")

        def section(name, payload):
            if not isinstance(payload, dict) or set(payload) - {"name", "params"}:
                raise ConfigurationError(
                    f"{name} must be {{'name': ..., 'params': {{...}}}}"
                )
            if "name" not in payload:
                raise ConfigurationError(f"{name} needs a 'name'")
            return str(payload["name"]), dict(payload.get("params", {}))

        inst_name, inst_params = section("instance", raw["instance"])
        try:  # a sub-millisecond build: the factory checks names and values
            make_instance(inst_name, **inst_params)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"instance {inst_name!r} rejects params {inst_params}: {exc}") from None
        mech_name, mech_params = section("mechanism", raw["mechanism"])
        if mech_name not in MECHANISM_NAMES:
            raise ConfigurationError(
                f"unknown mechanism {mech_name!r}; have {list(MECHANISM_NAMES)}"
            )
        settable = set(MECHANISMS[mech_name].params) - _UNSETTABLE
        unknown_params = set(mech_params) - settable
        if unknown_params:
            raise ConfigurationError(
                f"unknown {mech_name} params: {sorted(unknown_params)}; "
                f"have {sorted(settable)}"
            )

        budget = raw["budget"]
        if not isinstance(budget, dict) or set(budget) - {"epsilon", "delta"}:
            raise ConfigurationError("budget must be {'epsilon': ..., 'delta': ...}")
        budget = PrivacyBudget(budget.get("epsilon", 1.0), budget.get("delta", 0.0))

        sweep = dict(raw.get("sweep", {}))
        bad_axes = set(sweep) - set(SWEEP_AXES)
        if bad_axes:
            raise ConfigurationError(
                f"unknown sweep axes: {sorted(bad_axes)}; have {list(SWEEP_AXES)}"
            )
        for axis, values in sweep.items():
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ConfigurationError(f"sweep axis {axis!r} needs a nonempty list")
            if axis in _RULES:  # the budget axes are checked cell by cell below
                for value in values:
                    check_inputs({axis: value}, _RULES)
        trials = raw.get("trials_per_cell", 1)
        check_inputs({"trials_per_cell": trials, "seed": raw["seed"]}, _RULES)

        config = cls(
            instance_name=inst_name,
            instance_params=inst_params,
            mechanism_name=mech_name,
            mechanism_params=mech_params,
            epsilon=float(budget.epsilon),
            delta=float(budget.delta),
            sweep=sweep,
            trials_per_cell=int(trials),
            seed=int(raw["seed"]),
            output_dir=str(raw["output_dir"]),
        )
        # every trial's mechanism keywords, refused here rather than per trial
        for cell in _cells(config):
            eps, delta = cell.get("epsilon", config.epsilon), cell.get("delta", config.delta)
            PrivacyBudget(eps, delta)
            check_inputs(_mechanism_kwargs(config, eps, delta))
        return config


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc


def load_config(path: str, seed: Optional[int] = None,
                output_dir: Optional[str] = None) -> ExperimentConfig:
    """Read a config file; seed and output_dir, when given, override its own."""
    raw = _read_json(path)
    if seed is not None:
        raw["seed"] = seed
    if output_dir is not None:
        raw["output_dir"] = output_dir
    return ExperimentConfig.from_dict(raw)


def _cells(config: ExperimentConfig) -> list[dict]:
    """Cartesian product of the sweep axes, axes in canonical order."""
    axes = [axis for axis in SWEEP_AXES if axis in config.sweep]
    cells = [{}]
    for axis in axes:
        cells = [dict(cell, **{axis: value})
                 for cell in cells for value in config.sweep[axis]]
    return cells


def _build_fixture(config: ExperimentConfig, cell: dict) -> InstanceFixture:
    params = dict(config.instance_params)
    if "d" in cell:
        key = _DIM_PARAM.get(config.instance_name, "d")
        params[key] = int(cell["d"])
    return make_instance(config.instance_name, **params)


def _mechanism_kwargs(config: ExperimentConfig, eps: float, delta: float) -> dict:
    """A trial's mechanism keywords: the cell's budget, then defaults the
    config params may override."""
    base = {"eps": eps, "delta": delta, "xi": eps, "mode": "erm"}
    kwargs = {k: v for k, v in base.items() if k in MECHANISMS[config.mechanism_name].params}
    kwargs.update(config.mechanism_params)
    return kwargs


def _run_mechanism(config: ExperimentConfig, fixture: InstanceFixture, Z,
                   eps: float, delta: float, seed: int):
    # looked up at call time, so a rebound mechanisms attribute is honored
    return getattr(mechanisms, config.mechanism_name)(
        fixture.problem, Z, fixture.constants, rng=seed,
        **_mechanism_kwargs(config, eps, delta))


def _flatten_ledger(ledger: dict, prefix: str = "mech.") -> dict:
    """Nested dicts become dotted columns; lists become JSON strings."""
    flat = {}
    for key, value in ledger.items():
        column = prefix + str(key)
        if isinstance(value, dict):
            flat.update(_flatten_ledger(value, column + "."))
        elif isinstance(value, (list, tuple)):
            flat[column] = json.dumps(value)
        else:
            flat[column] = value
    return flat


def run_trial(config: ExperimentConfig, cell_index: int, cell: dict,
              trial: int) -> dict:
    """One (cell, trial) execution; exceptions become an error-tagged row."""
    eps = float(cell.get("epsilon", config.epsilon))
    delta = float(cell.get("delta", config.delta))
    seed = derive_seed(config.seed, cell_index, trial)
    row = {
        "cell": cell_index, "trial": trial, "seed": seed,
        "epsilon": eps, "delta": delta,
        "n": cell.get("n", ""), "d": cell.get("d", ""),
        "excess_risk": "", "grad_norm": "", "error": "",
    }
    try:
        fixture = _build_fixture(config, cell)
        n = int(cell.get("n", 16))
        row["n"] = n
        Z = fixture.sample_dataset(n, derive_seed(seed, "data"))
        result = _run_mechanism(config, fixture, Z, eps, delta, seed)
        x_out = result.x_out
        if fixture.phi_star is not None:
            row["excess_risk"] = fixture.phi(x_out, Z) - fixture.phi_star(Z)
        row["grad_norm"] = float(np.linalg.norm(fixture.grad_phi(x_out, Z)))
        row.update(_flatten_ledger(result.ledger))
    except Exception as exc:  # noqa: BLE001 — trial failures must not kill the run
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _write_csv(path: Path, rows: list[dict], lead: list[str]):
    extra = sorted({k for row in rows for k in row} - set(lead))
    columns = lead + extra
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    arr = np.array(values, dtype=float)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, stderr


def run_experiment(config: ExperimentConfig, workers: int = 1) -> dict:
    """Execute every (cell, trial), write results.csv and summary.csv."""
    cells = _cells(config)
    tasks = [(cell_index, cell, trial)
             for cell_index, cell in enumerate(cells)
             for trial in range(config.trials_per_cell)]
    if workers > 1 and len(tasks) > 1:
        # spawned workers: forking a process whose BLAS may hold threads is unsafe
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            rows = list(pool.map(functools.partial(run_trial, config), *zip(*tasks)))
    else:
        rows = [run_trial(config, ci, cell, tr) for ci, cell, tr in tasks]
    rows.sort(key=lambda row: (row["cell"], row["trial"]))

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lead = ["cell", "trial", "seed", "n", "d", "epsilon", "delta",
            "excess_risk", "grad_norm", "error"]
    _write_csv(out / "results.csv", rows, lead)

    summary_rows = []
    for cell_index, cell in enumerate(cells):
        cell_rows = [r for r in rows if r["cell"] == cell_index]
        good = [r for r in cell_rows if not r["error"]]
        entry = {
            "cell": cell_index,
            "n": cell.get("n", ""), "d": cell.get("d", ""),
            "epsilon": cell.get("epsilon", config.epsilon),
            "delta": cell.get("delta", config.delta),
            "trials": len(cell_rows),
            "errors": len(cell_rows) - len(good),
        }
        for metric in ("excess_risk", "grad_norm"):
            values = [r[metric] for r in good if r[metric] != ""]
            if values:
                mean, stderr = _mean_stderr(values)
                entry[f"mean_{metric}"] = mean
                entry[f"stderr_{metric}"] = stderr
            else:
                entry[f"mean_{metric}"] = entry[f"stderr_{metric}"] = ""
        summary_rows.append(entry)
    _write_csv(out / "summary.csv", summary_rows,
               ["cell", "n", "d", "epsilon", "delta", "trials", "errors",
                "mean_excess_risk", "stderr_excess_risk",
                "mean_grad_norm", "stderr_grad_norm"])

    return {
        "cells": len(cells),
        "trials": len(tasks),
        "errors": sum(1 for r in rows if r["error"]),
        "results": str(out / "results.csv"),
        "summary": str(out / "summary.csv"),
    }


# ---------------------------------------------------------------------------
# audit battery
# ---------------------------------------------------------------------------

def _audit_cells_per_axis(d: int) -> Optional[int]:
    return {1: 32, 2: 10, 3: 6}.get(d)


def _swap_phi_range(fixture: InstanceFixture, grid, Z, swaps) -> float:
    """Largest range over swaps Z -> Z' of Phi(x; Z) - Phi(x; Z').

    x runs over the grid's cell centers inside the domain: outside it the
    audited law scores the cube extension, not Phi.
    """
    centers = grid.centers_all()
    inside = centers[fixture.problem.domain_x.distance_many(centers) == 0.0]
    if len(inside) == 0:
        return 0.0
    base = np.array([fixture.phi(x, Z) for x in inside])
    widest = 0.0
    for i, record in swaps:
        swapped = Z.replaced(i, record)
        gap = base - np.array([fixture.phi(x, swapped) for x in inside])
        widest = max(widest, float(gap.max() - gap.min()))
    return widest


def _pure_dp_over_budget_control(fixture, grid, Z, swaps, eps, xi_audit,
                                 law_factory) -> AuditReport:
    """Negative control: the exponential law at a budget sized to break eps.

    Between Z and a swap Z', log p - log q is -coeff * (Phi_hat(x; Z) -
    Phi_hat(x; Z')) plus a constant, and each score coeff * Phi_hat is
    within zeta = xi_audit of coeff * Phi.  Over the in-domain centers its
    range is then at least coeff * r - 4 * zeta, with r the swap range of
    Phi, and dist_inf is at least half the range.  coeff = 4 (eps + zeta) / r
    thus gives a worst log-ratio of at least 2 eps; the exponential
    mechanism runs at that coeff with budget 4 * s * coeff, and the witness
    records budget_factor = budget / eps.  Where it cannot be sized (r = 0,
    or a score tolerance below the solver's certificate floor), the control
    is vacuous: its reason is in "vacuous" and its verdict is None.
    """
    p, a = fixture.problem, fixture.constants
    name = "pure_dp_exponential_over_budget"

    def vacuous(reason: str) -> AuditReport:
        return AuditReport(name, None, float(eps), {}, 0, expected="fail",
                           vacuous=reason)

    r = _swap_phi_range(fixture, grid, Z, swaps)
    coeff = 4.0 * (eps + xi_audit) / r if r > 0 else 0.0
    budget = 4.0 * derive_constants(a, Z.n).s * coeff
    if not 0.0 < budget < math.inf:
        return vacuous(f"Phi's swap range on the audit grid is {r:.3g}: "
                       "no finite budget breaks eps")
    params, _ = MECHANISMS["exponential_mechanism"].score(
        p, Z, a, eps=budget, xi=xi_audit)
    if a.L_fy > 0:
        alpha = params["zeta"] / params["coeff"] / a.L_fy
        if alpha < certificate_floor(a):
            return vacuous(
                f"needs lower-level tolerance {alpha:.3g}, below the solver's "
                f"certificate floor {certificate_floor(a):.3g}")
    try:
        over = exact_dp_audit(law_factory(budget), Z, swaps, eps, 0.0, name=name)
    except NonConvergenceError as exc:
        return vacuous(f"law not certifiable: {exc}")
    return replace(over, expected="fail",
                   witness=dict(over.witness, budget_factor=budget / eps))


def run_audits(config: ExperimentConfig) -> dict:
    """Sensitivity, exact-DP, and sampler-lemma audits for the configured instance.

    Every entry is an AuditReport; negative controls have expected="fail".
    Returns {"audits": [...], "negative_controls": [...], "skipped": [...],
    "failed": bool}, the entries as dicts split by expected; "failed" is
    True iff some entry's verdict is not the expected one.  The pure-DP
    over-budget control is sized from the drawn data so that it can fail
    (its witness records the budget_factor used); one that cannot be sized
    is reported vacuous, with its reason, and fails the battery.
    """
    fixture = _build_fixture(config, {})
    p, a = fixture.problem, fixture.constants
    n = int(config.sweep.get("n", [8])[0])
    eps = float(config.sweep.get("epsilon", [config.epsilon])[0])
    delta_audit = config.delta if config.delta > 0 else 1e-3
    seed = config.seed
    der = derive_constants(a, n)
    Z = fixture.sample_dataset(n, derive_seed(seed, "audit-data"))
    candidates = list(fixture.sample_dataset(
        8, derive_seed(seed, "audit-cands")).points)
    indices = list(range(min(n, 4)))

    reports: list[AuditReport] = []
    skipped: list[dict] = []

    gen = make_generator(derive_seed(seed, "audit-x"))
    direction = gen.standard_normal(p.d_x)
    direction /= max(np.linalg.norm(direction), 1e-12)
    x_probe = p.domain_x.project(p.domain_x.center + 0.37 * a.D_x * direction)
    x0 = np.asarray(p.domain_x.center, dtype=float)

    def offset_query(ds):
        return np.array([fixture.phi(x_probe, ds) - fixture.phi(x0, ds)])

    reports.append(empirical_sensitivity(
        offset_query, Z, candidates, indices, der.s,
        name="phi_offset_sensitivity",
    ))

    alpha_step = der.K / (n * der.C) if der.C > 0 else _alpha_fallback(a)

    def step_query(ds):
        res = solve_lower_level(p, ds, x_probe, alpha_step, a)
        return approx_hypergradient(p, ds, x_probe, res.y)

    reports.append(empirical_sensitivity(
        step_query, Z, candidates, indices, 4.0 * der.K / n,
        name="gd_step_sensitivity",
    ))

    cells = _audit_cells_per_axis(p.d_x)
    # negated records are in range for the bundled instances; they need not
    # move the law (ridge's losses are even in the record, so Phi is
    # unchanged), and the over-budget control is sized over all swaps
    swaps = [(i, c) for i in indices[:2] for c in candidates[:4]]
    swaps += [(i, -Z.record(i)) for i in indices[:2]]
    if cells is None:
        skipped.append({
            "name": "exact_dp_audits",
            "reason": f"d_x = {p.d_x} exceeds the enumerable-grid cap",
        })
    else:
        grid = grid_with_cells(p.domain_x, cells)
        # Audit with a tight evaluation slack: at loose xi the permitted
        # score error can exceed the instance's whole score range, making
        # every enumerated law uniform and the audit vacuously green.
        xi_audit = min(eps, 1e-3)

        def exp_law_factory(eps_run):
            return lambda ds: mechanism_grid_law(
                p, ds, a, "exponential_mechanism", eps_run, xi=xi_audit, grid=grid)

        reports.append(exact_dp_audit(
            exp_law_factory(eps), Z, swaps, eps, 0.0,
            name="pure_dp_exponential"))
        # negative control: the exponential law at a budget sized from this
        # data so that its worst log-ratio is at least 2 eps (argued in
        # _pure_dp_over_budget_control).  A fixed 100x cannot fail on hard
        # for any n >= 12: its log-ratio is at most 50 / (2 + 4n).
        reports.append(_pure_dp_over_budget_control(
            fixture, grid, Z, swaps, eps, xi_audit, exp_law_factory))

        def reg_law_factory(k_reg):
            return lambda ds: mechanism_grid_law(
                p, ds, a, "regularized_exp_mechanism", eps, xi=xi_audit,
                delta=delta_audit, k_reg=k_reg, grid=grid)

        reports.append(exact_dp_audit(
            reg_law_factory(K_REG), Z, swaps, eps, delta_audit,
            name="approx_dp_regularized"))
        reports.append(replace(exact_dp_audit(
            reg_law_factory(K_REG * 100.0), Z, swaps, eps, delta_audit,
            name="approx_dp_regularized_kreg_x100"), expected="fail"))

    lemma_cells = {1: 16, 2: 4}.get(p.d_x)
    if lemma_cells is None:
        skipped.append({
            "name": "sampler_lemmas",
            "reason": f"d_x = {p.d_x} exceeds the exhaustive-conductance cap",
        })
    else:
        lemma_grid = grid_with_cells(p.domain_x, lemma_cells)
        law = mechanism_grid_law(
            p, Z, a, "exponential_mechanism", eps, xi=eps, grid=lemma_grid)
        f_values = -np.log(law)
        zeta = min(eps / 12.0, 0.25)
        signs = np.where(np.arange(lemma_grid.state_count) % 2 == 0, 1.0, -1.0)
        reports.extend(verify_sampler_lemmas(
            f_values, zeta * signs, lemma_grid, accuracy=0.1))

        # distance-lemma negative control: the perturbation is 3x the claim
        f2 = np.zeros(lemma_grid.state_count)
        z2 = np.full(lemma_grid.state_count, 3.0 * zeta)
        z2[::2] *= -1.0
        understated = verify_sampler_lemmas(
            f2, z2, lemma_grid, accuracy=0.5)[1]
        reports.append(replace(
            understated, name="stationary_distance_understated_zeta",
            bound=2.0 * zeta, expected="fail"))

    return {
        "audits": [r.as_dict() for r in reports if r.expected == "pass"],
        "negative_controls": [r.as_dict() for r in reports
                              if r.expected == "fail"],
        "skipped": skipped,
        "failed": not all(r.as_expected for r in reports),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    summary = run_experiment(config, workers=args.workers)
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_audit(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    outcome = run_audits(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "audits.json").write_text(json.dumps(outcome, indent=2))
    for entry in outcome["audits"] + outcome["negative_controls"]:
        if entry["vacuous"] is not None:
            verdict = f"VACUOUS  {entry['vacuous']}"
        else:
            verdict = "PASS" if entry["passed"] else "FAIL"
            if entry["expected"] == "fail":
                verdict += " (BAD)" if entry["passed"] else " (expected)"
            verdict += (f"  worst={entry['worst_case']:.6g} "
                        f"bound={entry['bound']:.6g}")
        print(f"{entry['name']:45s} {verdict}")
    for skip in outcome["skipped"]:
        print(f"{skip['name']:45s} SKIP  {skip['reason']}")
    return 2 if outcome["failed"] else 0


def _cmd_constants(args) -> int:
    raw = _read_json(args.config)
    n = int(raw.pop("n"))
    a = AssumptionConstants(**raw)
    der = derive_constants(a, n)
    print(json.dumps({k: getattr(der, k) for k in
                      ("s", "G", "C", "K", "beta_phi", "L_bar", "Psi")},
                     indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpbilevel",
        description="Private bilevel optimization experiments and audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", _cmd_run), ("audit", _cmd_audit)):
        cmd = sub.add_parser(name)
        cmd.add_argument("config")
        if name == "run":
            cmd.add_argument("--workers", type=int, default=1)
        cmd.add_argument("--out", default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.set_defaults(handler=handler)
    constants = sub.add_parser("constants")
    constants.add_argument("config")
    constants.set_defaults(handler=_cmd_constants)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigurationError, FileNotFoundError, json.JSONDecodeError,
            KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 — contract: runtime failures exit 3
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
