"""Config validation, experiment runs, audits, and exit codes."""

import csv
import json
import pickle

import numpy as np
import pytest

from dpbilevel import cli
from dpbilevel.audit import AuditReport
from dpbilevel.cli import (
    _DIM_PARAM,
    ExperimentConfig,
    _cells,
    _flatten_ledger,
    build_parser,
    main,
    run_audits,
    run_experiment,
)
from dpbilevel.errors import ConfigurationError

ALL_ONES = {k: 1.0 for k in (
    "L_fx", "L_fy", "mu_g", "L_gy", "beta_fyy", "beta_fxx", "beta_fxy",
    "beta_gxy", "beta_gyy", "M_gxy", "M_gyy", "C_gxy", "C_gyy", "D_x", "D_y",
)}


def config_dict(out_dir, **overrides):
    raw = {
        "instance": {"name": "hard", "params": {"d": 1}},
        "mechanism": {"name": "exponential_mechanism", "params": {"xi": 0.5}},
        "budget": {"epsilon": 1.0, "delta": 0.0},
        "sweep": {"n": [8, 16]},
        "trials_per_cell": 2,
        "seed": 7,
        "output_dir": str(out_dir),
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig.from_dict(config_dict(tmp_path))
    assert cfg.instance_name == "hard"
    assert cfg.mechanism_name == "exponential_mechanism"
    assert cfg.epsilon == 1.0 and cfg.delta == 0.0
    assert cfg.sweep == {"n": [8, 16]}


@pytest.mark.parametrize("mutate", [
    {"unknown_top": 1},
    {"mechanism": {"name": "median_of_means"}},
    {"mechanism": {"name": "warm_start", "extra": 1}},
    {"budget": {"epsilon": 1.0, "rho": 0.1}},
    {"sweep": {"learning_rate": [0.1]}},
    {"sweep": {"n": []}},
    {"trials_per_cell": 0},
    {"instance": "hard"},
    {"mechanism": {"name": "exponential_mechanism",
                   "params": {"force_wallk": True}}},
    {"mechanism": {"name": "dp_second_order_gd", "params": {"xi": 0.5}}},
])
def test_config_rejections(tmp_path, mutate):
    raw = config_dict(tmp_path)
    raw.update(mutate)
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict(raw)


def test_config_missing_sections(tmp_path):
    raw = config_dict(tmp_path)
    del raw["budget"]
    with pytest.raises(ConfigurationError, match="missing"):
        ExperimentConfig.from_dict(raw)


def test_cells_enumerate_in_canonical_order(tmp_path):
    raw = config_dict(tmp_path, sweep={"epsilon": [0.5, 1.0], "n": [4]})
    cells = _cells(ExperimentConfig.from_dict(raw))
    # n before epsilon regardless of dict insertion order
    assert cells == [{"n": 4, "epsilon": 0.5}, {"n": 4, "epsilon": 1.0}]


def test_flatten_ledger_dots_and_json():
    flat = _flatten_ledger({"a": {"b": 1, "c": {"d": 2}}, "e": [1, 2],
                            "f": 3.5})
    assert flat == {"mech.a.b": 1, "mech.a.c.d": 2,
                    "mech.e": "[1, 2]", "mech.f": 3.5}


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

def test_run_is_deterministic(tmp_path):
    first = ExperimentConfig.from_dict(config_dict(tmp_path / "a"))
    second = ExperimentConfig.from_dict(config_dict(tmp_path / "b"))
    run_experiment(first)
    run_experiment(second)
    assert ((tmp_path / "a" / "results.csv").read_text()
            == (tmp_path / "b" / "results.csv").read_text())


def test_run_rows_and_summary(tmp_path):
    cfg = ExperimentConfig.from_dict(config_dict(tmp_path))
    outcome = run_experiment(cfg)
    results = (tmp_path / "results.csv").read_text().splitlines()
    header = results[0].split(",")
    assert header[:10] == ["cell", "trial", "seed", "n", "d", "epsilon",
                           "delta", "excess_risk", "grad_norm", "error"]
    assert len(results) == 1 + 4  # two cells x two trials
    # closed-form optimum available: excess risk is populated and clean
    for line in results[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["error"] == ""
        assert float(row["excess_risk"]) >= -1e-12

    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 2
    assert outcome["cells"] == 2 and outcome["trials"] == 4
    assert outcome["errors"] == 0


def test_parallel_run_matches_serial(tmp_path):
    raw_a = config_dict(tmp_path / "serial")
    raw_b = config_dict(tmp_path / "parallel")
    run_experiment(ExperimentConfig.from_dict(raw_a))
    run_experiment(ExperimentConfig.from_dict(raw_b), workers=2)
    assert ((tmp_path / "serial" / "results.csv").read_text()
            == (tmp_path / "parallel" / "results.csv").read_text())


def test_parallel_run_uses_the_pool(tmp_path, monkeypatch):
    pools = []

    class RecordingPool:
        """In-process stand-in that pickles the task as a worker would."""

        def __init__(self, max_workers, mp_context=None):
            self.max_workers = max_workers
            self.tasks = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            fn = pickle.loads(pickle.dumps(fn))
            for args in zip(*iterables):
                self.tasks += 1
                yield fn(*pickle.loads(pickle.dumps(args)))

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    raw = config_dict(tmp_path / "pooled")
    outcome = run_experiment(ExperimentConfig.from_dict(raw), workers=2)
    assert [(p.max_workers, p.tasks) for p in pools] == [(2, 4)]
    assert outcome["trials"] == 4 and outcome["errors"] == 0


def test_failing_trials_are_rows_not_crashes(tmp_path):
    # a config that loads but whose release only a trial can refuse: at
    # n = 1024 the regularized sampler's grids exceed their size caps (the
    # README's SizeCapError example), and the failure lands in the error
    # column
    raw = config_dict(
        tmp_path,
        instance={"name": "quadratic", "params": {"d_x": 2}},
        mechanism={"name": "regularized_exp_mechanism"},
        budget={"epsilon": 1.0, "delta": 1e-5},
        sweep={"n": [1024]}, trials_per_cell=1)
    outcome = run_experiment(ExperimentConfig.from_dict(raw))
    assert outcome["errors"] == 1
    with open(tmp_path / "results.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["error"] == (
        "SizeCapError: no feasible grid: accuracy grid exceeds 4194304 states and "
        "the coarse grid exceeds 16384 or force_walk bars it (d=2, alpha*tau=454)")
    assert row["excess_risk"] == ""


def test_zero_width_domain_row_names_the_configuration_error(tmp_path):
    cfg = ExperimentConfig.from_dict(config_dict(
        tmp_path,
        instance={"name": "ridge", "params": {"feature_dim": 1, "x_half": 0.0}},
        sweep={"n": [8]}, trials_per_cell=1))
    row = cli.run_trial(cfg, 0, _cells(cfg)[0], 0)
    assert row["error"].startswith("ConfigurationError: ")
    assert "zero-width" in row["error"]


# ---------------------------------------------------------------------------
# the audit battery
# ---------------------------------------------------------------------------

def test_audit_battery_passes_with_failing_controls(tmp_path):
    cfg = ExperimentConfig.from_dict(config_dict(
        tmp_path, sweep={"n": [12]}, trials_per_cell=1))
    outcome = run_audits(cfg)
    assert outcome["failed"] is False
    assert len(outcome["audits"]) >= 4
    for report in outcome["audits"]:
        assert report["passed"], report
    assert len(outcome["negative_controls"]) >= 2
    for control in outcome["negative_controls"]:
        assert control["passed"] is False, control


def pure_dp_control(outcome):
    (control,) = [c for c in outcome["negative_controls"]
                  if c["name"] == "pure_dp_exponential_over_budget"]
    return control


@pytest.mark.parametrize("instance,d,n", [
    ("hard", 1, 12), ("hard", 1, 32), ("hard", 1, 256),
    ("hard", 2, 12), ("hard", 2, 32), ("hard", 2, 256),
    ("quadratic", 1, 32),
])
def test_pure_dp_over_budget_control_fails(tmp_path, instance, d, n):
    # the control's budget is sized from the drawn data, so it breaks eps by
    # a clear margin at every n, not only on one lucky draw
    cfg = ExperimentConfig.from_dict(config_dict(
        tmp_path, instance={"name": instance, "params": {_DIM_PARAM[instance]: d}},
        sweep={"n": [n]}, trials_per_cell=1))
    control = pure_dp_control(run_audits(cfg))
    assert control["passed"] is False, control
    assert control["vacuous"] is None
    assert control["worst_case"] >= 2.0 * control["bound"], control
    factor = control["witness"]["budget_factor"]
    assert np.isfinite(factor) and factor > 1.0


@pytest.mark.parametrize("patch,reason", [
    (("_swap_phi_range", lambda *args: 0.0), "swap range"),
    (("certificate_floor", lambda a: np.inf), "certificate floor"),
], ids=["zero_swap_range", "below_certificate_floor"])
def test_unsizable_control_is_vacuous_and_fails_battery(
        tmp_path, monkeypatch, capsys, patch, reason):
    monkeypatch.setattr(cli, *patch)
    raw = config_dict(tmp_path / "out", sweep={"n": [12]}, trials_per_cell=1)
    outcome = run_audits(ExperimentConfig.from_dict(raw))
    control = pure_dp_control(outcome)
    assert control["passed"] is None and control["worst_case"] is None
    assert reason in control["vacuous"]
    assert outcome["failed"] is True
    assert main(["audit", write_config(tmp_path, raw)]) == 2
    assert "VACUOUS" in capsys.readouterr().out


def test_control_that_passes_fails_the_battery(tmp_path, monkeypatch, capsys):
    real = cli.exact_dp_audit

    def broken_control_passes(law, Z, swaps, eps, delta=0.0, name=None):
        if name == "approx_dp_regularized_kreg_x100":
            return AuditReport(name, 0.0, delta, {}, len(swaps))
        return real(law, Z, swaps, eps, delta, name=name)

    monkeypatch.setattr(cli, "exact_dp_audit", broken_control_passes)
    raw = config_dict(tmp_path / "out", sweep={"n": [12]}, trials_per_cell=1)
    outcome = run_audits(ExperimentConfig.from_dict(raw))
    (control,) = [c for c in outcome["negative_controls"]
                  if c["name"] == "approx_dp_regularized_kreg_x100"]
    report = AuditReport(**{k: control[k] for k in (
        "name", "worst_case", "bound", "witness", "trials", "expected",
        "vacuous")})
    assert report.expected == "fail" and report.passed is True
    assert not report.as_expected
    assert all(r["passed"] for r in outcome["audits"])
    assert outcome["failed"] is True
    assert main(["audit", write_config(tmp_path, raw)]) == 2
    out = capsys.readouterr().out
    assert "approx_dp_regularized_kreg_x100" in out and "PASS (BAD)" in out


# ---------------------------------------------------------------------------
# command-line entry
# ---------------------------------------------------------------------------

def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_main_run_exit_zero(tmp_path, capsys):
    raw = config_dict(tmp_path / "out", sweep={"n": [8]}, trials_per_cell=1)
    code = main(["run", write_config(tmp_path, raw)])
    assert code == 0
    assert (tmp_path / "out" / "results.csv").exists()
    assert json.loads(capsys.readouterr().out)["trials"] == 1


def test_main_seed_and_out_overrides(tmp_path):
    raw = config_dict(tmp_path / "ignored", sweep={"n": [8]},
                      trials_per_cell=1)
    other = tmp_path / "elsewhere"
    code = main(["run", write_config(tmp_path, raw),
                 "--seed", "99", "--out", str(other)])
    assert code == 0
    assert (other / "results.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_main_missing_config_is_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "audit", "constants"])
def test_main_directory_config_is_config_error(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_workers_is_a_run_option_only(tmp_path, capsys):
    path = write_config(tmp_path, config_dict(tmp_path / "out"))
    assert build_parser().parse_args(["run", path, "--workers", "2"]).workers == 2
    with pytest.raises(SystemExit) as exc:
        main(["audit", path, "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_bad_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 1


def test_main_non_finite_budget_is_config_error(tmp_path, capsys):
    # Python's json reads NaN; loading the config must refuse it as a
    # config error (exit 1), not fail at run time (exit 3)
    raw = config_dict(tmp_path / "out", budget={"epsilon": float("nan"), "delta": 0.0},
                      sweep={"n": [8]}, trials_per_cell=1)
    assert main(["audit", write_config(tmp_path, raw)]) == 1
    assert "config error: budget epsilon must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("mutate", [
    {"budget": {"epsilon": float("nan")}},
    {"sweep": {"epsilon": [-1.0, 0.5]}},
    {"mechanism": {"name": "dp_second_order_gd"}, "budget": {"epsilon": 1.0, "delta": 2.0}},
    {"mechanism": {"name": "dp_second_order_gd"}, "budget": {"epsilon": 1.0}},
    {"mechanism": {"name": "warm_start"}, "sweep": {"delta": [1e-3, 0.0]}},
    {"sweep": {"n": [8, 0]}},
    {"sweep": {"d": [1.5]}},
    {"trials_per_cell": 1.7},
    {"trials_per_cell": True},
    {"seed": 2.9},
    {"seed": "7"},
    {"instance": {"name": "hard", "params": {"dd": 1}}},
    {"instance": {"name": "hard", "params": {"d": 1, "n": 8}}},
    {"instance": {"name": "lasso", "params": {}}},
    {"mechanism": {"name": "exponential_mechanism", "params": {"xi": -1}}},
    {"mechanism": {"name": "regularized_exp_mechanism", "params": {"k_reg": -1}},
     "budget": {"epsilon": 1.0, "delta": 1e-3}},
    {"mechanism": {"name": "regularized_exp_mechanism", "params": {"mode": "median"}},
     "budget": {"epsilon": 1.0, "delta": 1e-3}},
    {"mechanism": {"name": "exponential_mechanism", "params": {"force_walk": "no"}}},
    {"mechanism": {"name": "dp_second_order_gd", "params": {"overrides": {"T": 0}}},
     "budget": {"epsilon": 1.0, "delta": 1e-3}},
    {"mechanism": {"name": "dp_second_order_gd", "params": {"overrides": {"eta": -1}}},
     "budget": {"epsilon": 1.0, "delta": 1e-3}},
    {"mechanism": {"name": "warm_start", "params": {"stage_b_overrides": {"unsafe": "yes"}}},
     "budget": {"epsilon": 1.0, "delta": 1e-3}},
], ids=["nan_epsilon", "negative_sweep_epsilon", "delta_above_one", "descent_without_delta",
        "zero_sweep_delta", "zero_n", "fractional_d", "fractional_trials", "bool_trials",
        "fractional_seed", "string_seed", "unknown_instance_param", "n_as_instance_param",
        "unknown_instance", "negative_xi", "negative_k_reg", "unknown_mode",
        "string_force_walk", "zero_T_override", "negative_eta_override",
        "string_unsafe_override"])
def test_main_bad_config_value_exits_1_before_any_trial(tmp_path, mutate):
    raw = config_dict(tmp_path / "out", **mutate)
    assert main(["run", write_config(tmp_path, raw)]) == 1
    assert not (tmp_path / "out" / "results.csv").exists()


def test_main_unknown_mechanism_is_config_error(tmp_path):
    raw = config_dict(tmp_path, mechanism={"name": "laplace"})
    assert main(["run", write_config(tmp_path, raw)]) == 1


def test_main_audit_prints_verdicts(tmp_path, capsys):
    raw = config_dict(tmp_path / "out", sweep={"n": [12]}, trials_per_cell=1)
    code = main(["audit", write_config(tmp_path, raw)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL (expected)" in out
    assert (tmp_path / "out" / "audits.json").exists()


def test_main_constants_frozen_values(tmp_path, capsys):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(dict(ALL_ONES, n=10)))
    assert main(["constants", str(path)]) == 0
    derived = json.loads(capsys.readouterr().out)
    assert derived["s"] == pytest.approx(4.4)
    assert derived["K"] == pytest.approx(18.0)
    assert derived["beta_phi"] == pytest.approx(8.0)
    assert derived["G"] == pytest.approx(3.0)
    assert derived["Psi"] == pytest.approx(3.0)
