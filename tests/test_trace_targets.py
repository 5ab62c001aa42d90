"""The attributes perfbench's tracer rebinds must exist in the program.

`python3 perfbench/run.py --trace 1` records per-layer spans by rebinding
the (owner, attribute) pairs listed in `perfbench/spans.py` `TARGETS`.  A
refactor that renames or removes one of them breaks traced runs; this test
catches that without running the benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np

from dpbilevel import mechanisms
from dpbilevel.gridwalk import engine, evaluator, sampler
from dpbilevel.gridwalk.evaluator import Evaluator, ExtendedEvaluator
from dpbilevel.gridwalk.grid import grid_with_cells
from dpbilevel.instances import make_instance
from dpbilevel.problem import Domain

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_tracer_reads_restart_cap_and_engines():
    assert isinstance(sampler.RESTART_CAP, int) and sampler.RESTART_CAP > 0
    assert "python" in engine.available_engines()


def test_point_score_does_not_build_a_table(monkeypatch):
    # the tracer counts every ExtendedEvaluator.evaluate_many call as table
    # rows and every eval call as one point score; eval must not route
    # through evaluate_many or a point would count as both
    def no_table(self, thetas):
        raise AssertionError("ExtendedEvaluator.eval called evaluate_many")

    monkeypatch.setattr(ExtendedEvaluator, "evaluate_many", no_table)
    base = Evaluator(lambda ts: np.abs(ts).sum(axis=1), zeta_bound=0.0, alpha_lip=1.0)
    ext = ExtendedEvaluator(base, Domain("ball", np.zeros(2), radius=0.5), 1.0)
    assert ext.eval(np.array([0.1, -0.2])) == 0.1 + 0.2
    assert ext.eval(np.array([1.0, 1.0])) > ext.eval(np.zeros(2))


def test_grad_norm_table_solves_once_per_chunk(monkeypatch):
    # the tracer counts solves and hypergradients where mechanisms looks them
    # up; a table build makes one of each per chunk of rows, and the solver's
    # iteration count stays an int the tracer can add up
    calls = {"solve": [], "hypergrad": 0}
    solve, hypergrad = mechanisms.solve_lower_level, mechanisms.approx_hypergradient

    def counted_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        calls["solve"].append(result.iterations)
        return result

    def counted_hypergrad(*args, **kwargs):
        calls["hypergrad"] += 1
        return hypergrad(*args, **kwargs)

    monkeypatch.setattr(mechanisms, "solve_lower_level", counted_solve)
    monkeypatch.setattr(mechanisms, "approx_hypergradient", counted_hypergrad)
    monkeypatch.setattr(evaluator, "CHUNK_ROWS", 64)
    fx = make_instance("ridge", feature_dim=2)
    Z = fx.sample_dataset(16, seed=0)
    params, score = mechanisms.MECHANISMS["grad_norm_exp_mechanism"].score(
        fx.problem, Z, fx.constants, eps=1.0, xi=1.0)
    grid = grid_with_cells(fx.problem.domain_x, 15)
    table = ExtendedEvaluator(score, fx.problem.domain_x, params["L_lip2"]).evaluate_many(
        grid.centers_all())
    assert table.shape == (225,) and np.isfinite(table).all()
    assert calls["hypergrad"] == len(calls["solve"]) == 4  # ceil(225 / 64)
    assert all(type(steps) is int for steps in calls["solve"])
