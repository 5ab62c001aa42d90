"""Build, run and check the benchmark's ops.

An op is one mechanism call on its own freshly generated dataset, one
`cli.run_audits` battery, or one exact chain check.  Inputs are made before
the op's timer starts; the op runs under a SIGALRM deadline; its output is
then checked and digested outside the timed region.

Seeds: each op's data (dataset, battery seed, chain scores) comes from the
run's --seed.  Each mechanism call's own seed comes from the cell and round
alone, so every run draws the same sampler streams (common random numbers).
The sampler's restart count is a function of that stream, so a run's walk
work does not depend on which --seed it was given, while its data does.
"""

from __future__ import annotations

import hashlib
import json
import math
import signal
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from dpbilevel import cli, mechanisms
from dpbilevel.gridwalk import chain, engine
from dpbilevel.gridwalk.grid import grid_with_cells
from dpbilevel.instances import make_instance
from dpbilevel.problem import Domain
from dpbilevel.rng import derive_seed, make_generator

from cells import DIM_PARAM, Cell, Workload

#: accuracies a chain check verifies the closed-form mixing budget at
CHAIN_ACCURACIES = (0.1, 0.01)
#: pointwise score perturbation of a chain check (the zeta of the budget)
CHAIN_ZETA = 0.05
#: one op in this many is replayed from its ledger
REPLAY_EVERY = 8


class OpDeadline(BaseException):
    """Raised by SIGALRM when an op outlives its deadline."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def run_with_deadline(fn, seconds: float):
    """fn() under a wall-clock deadline; raises OpDeadline when it expires."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Op:
    index: int
    round: int
    cell: Cell
    data_seed: int
    mech_seed: int
    replay: bool


@dataclass
class Outcome:
    index: int
    label: str
    latency_s: float
    returned: bool
    error: str = ""  # "", "deadline", or the exception type
    failures: list = field(default_factory=list)  # why the op failed
    wrong: bool = False  # a returned output failed a correctness check
    digest: str = ""

    @property
    def passed(self) -> bool:
        return self.returned and not self.failures


def plan_ops(workload: Workload, seed: int, rounds: int) -> list[Op]:
    ops = []
    for r in range(rounds):
        for cell in workload.cells:
            if cell.once and r > 0:
                continue
            index = len(ops)
            ops.append(Op(
                index=index, round=r, cell=cell,
                data_seed=derive_seed(seed, workload.name, cell.label, r),
                mech_seed=derive_seed(0, workload.name, cell.label, r),
                replay=derive_seed(seed, "replay", index) % REPLAY_EVERY == 0,
            ))
    return ops


def build_fixtures(workload: Workload) -> dict:
    """One instance fixture per (instance, d) the workload's mechanisms use."""
    fixtures = {}
    for cell in workload.cells:
        key = (cell.instance, cell.d)
        if cell.kind == "mechanism" and key not in fixtures:
            fixtures[key] = make_instance(cell.instance, **{DIM_PARAM[cell.instance]: cell.d})
    return fixtures


def _chain_scores(grid, seed: int) -> np.ndarray:
    """A smooth seeded score with a bounded perturbation of size CHAIN_ZETA."""
    rng = make_generator(seed)
    amp, phase, curve = rng.uniform(1.0, 2.0), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.5, 1.0)
    c = grid.centers_all()
    f = amp * np.sin(2.0 * c[:, 0] + phase) + curve * np.einsum("ij,ij->i", c, c)
    u = rng.uniform(-1.0, 1.0, grid.state_count)
    return f + CHAIN_ZETA * u / np.max(np.abs(u))


def prepare(op: Op, fixtures: dict):
    """The op's inputs, generated outside its timed region."""
    cell = op.cell
    if cell.kind == "mechanism":
        fixture = fixtures[(cell.instance, cell.d)]
        return fixture, fixture.sample_dataset(cell.n, op.data_seed)
    if cell.kind == "battery":
        return cli.ExperimentConfig.from_dict({
            "instance": {"name": cell.instance,
                         "params": {DIM_PARAM[cell.instance]: cell.d}},
            "mechanism": {"name": "exponential_mechanism"},
            "budget": {"epsilon": cell.eps, "delta": 0.0},
            "sweep": {"n": [cell.n]},
            "seed": op.data_seed,
            "output_dir": "unused",
        })
    box = Domain("box", np.zeros(cell.d), half_widths=np.ones(cell.d))
    grid = grid_with_cells(box, cell.n)
    return grid, _chain_scores(grid, op.data_seed)


def call_mechanism(cell: Cell, fixture, Z, seed: int, engine_name=None):
    """One mechanism call, looked up on the module so tracing can rebind it."""
    p, a = fixture.problem, fixture.constants
    fn = getattr(mechanisms, cell.mechanism)
    kw = {} if engine_name is None else {"engine": engine_name}
    if cell.mechanism in ("exponential_mechanism", "grad_norm_exp_mechanism"):
        return fn(p, Z, a, cell.eps, cell.eps, seed, force_walk=cell.force_walk, **kw)
    if cell.mechanism == "regularized_exp_mechanism":
        return fn(p, Z, a, cell.eps, cell.delta, "erm", cell.eps, seed,
                  force_walk=cell.force_walk, **kw)
    if cell.mechanism == "dp_second_order_gd":
        return fn(p, Z, a, cell.eps, cell.delta, rng=seed)
    return fn(p, Z, a, cell.eps, cell.delta, cell.eps, seed)


def _grid_lipschitz(f: np.ndarray, grid) -> float:
    F = f.reshape((grid.cells_per_axis,) * grid.d)
    return max(float(np.abs(np.diff(F, axis=k)).max()) for k in range(grid.d)) / grid.gamma


def chain_check(grid, scores) -> list:
    """exact_chain, then the L-inf distance at the closed-form mixing budget."""
    analysis = chain.exact_chain(scores, grid)
    alpha = _grid_lipschitz(scores, grid)
    out = []
    for accuracy in CHAIN_ACCURACIES:
        t = chain.mixing_time_bound(alpha, grid.tau, grid.d, accuracy, CHAIN_ZETA)
        out.append((accuracy, t, chain.linf_mixing_distance(
            analysis.transition, analysis.stationary, t)))
    return out


def execute(op: Op, inputs):
    if op.cell.kind == "mechanism":
        fixture, Z = inputs
        return call_mechanism(op.cell, fixture, Z, op.mech_seed)
    if op.cell.kind == "battery":
        return cli.run_audits(inputs)
    return chain_check(*inputs)


def _canonical(result) -> bytes:
    # ledgers can hold NumPy scalars (a walk's "cell" is an np.int64), which
    # plain json rejects; their repr keeps the type in the digest
    if isinstance(result, mechanisms.MechanismResult):
        x = np.ascontiguousarray(result.x_out, dtype=np.float64)
        ledger = json.dumps(result.ledger, sort_keys=True, default=repr)
        spent = (result.budget_spent.epsilon, result.budget_spent.delta)
        return x.tobytes() + repr(spent).encode() + ledger.encode()
    return json.dumps(result, sort_keys=True).encode()


def digest(result) -> str:
    return hashlib.sha256(_canonical(result)).hexdigest()


def expected_budget(cell: Cell) -> tuple:
    if cell.mechanism in ("exponential_mechanism", "grad_norm_exp_mechanism"):
        return cell.eps, 0.0
    if cell.mechanism == "warm_start":
        return cell.eps, cell.delta / 2.0
    return cell.eps, cell.delta


def _check_mechanism(op: Op, inputs, result, deadline_s: float) -> list:
    cell = op.cell
    fixture, Z = inputs
    p, a = fixture.problem, fixture.constants
    wrong = []
    x = np.asarray(result.x_out, dtype=float)
    if x.shape != (p.d_x,) or not np.all(np.isfinite(x)) or not p.domain_x.contains(x):
        wrong.append("x_out outside domain_x")
    spent = (result.budget_spent.epsilon, result.budget_spent.delta)
    if spent != expected_budget(cell):
        wrong.append(f"budget_spent {spent} != requested {expected_budget(cell)}")
    ledger = result.ledger
    if cell.mechanism == "warm_start":
        ledger = ledger["stage_b"]
    if cell.mechanism in ("dp_second_order_gd", "warm_start") and not ledger["privacy_certified"]:
        wrong.append("descent ledger not privacy_certified")
    reruns = []
    if op.replay:
        reruns.append(("replay", lambda: mechanisms.replay_mechanism(p, Z, a, result)))
        engines = engine.available_engines()
        if cell.force_walk and len(engines) > 1:
            for name in engines:
                reruns.append((f"engine {name}", lambda name=name: call_mechanism(
                    cell, fixture, Z, op.mech_seed, engine_name=name)))
    for what, rerun in reruns:
        try:
            again = run_with_deadline(rerun, 2 * deadline_s)
        except (Exception, OpDeadline) as exc:
            wrong.append(f"{what} raised {type(exc).__name__}")
            continue
        if _canonical(again) != _canonical(result):
            wrong.append(f"{what} is not bit-identical")
    return wrong


def check(op: Op, inputs, result, deadline_s: float) -> tuple[list, bool]:
    """(failures, wrong): why the op failed, and whether an output was wrong.

    A battery whose own verdict is failed=True is a failed op, not a wrong
    output: the program reported the failure itself.
    """
    if op.cell.kind == "battery":
        if not result["failed"]:
            return [], False
        bad = [r["name"] for r in result["audits"] if not r["passed"]]
        bad += [c["name"] for c in result["negative_controls"] if c["passed"]]
        return [f"run_audits failed=True ({', '.join(bad)})"], False
    if op.cell.kind == "chain":
        wrong = [f"distance {dist:.3g} > accuracy {acc} at t={t}"
                 for acc, t, dist in result if not dist <= acc]
        return wrong, bool(wrong)
    wrong = _check_mechanism(op, inputs, result, deadline_s)
    return wrong, bool(wrong)


def engine_endpoints_agree(seed: int, steps: int = 100_000) -> list:
    """Every engine lands on the same cell from the same uniform stream."""
    engines = engine.available_engines()
    if len(engines) < 2:
        return []
    grid = grid_with_cells(Domain("box", np.zeros(1), half_widths=np.ones(1)), 1024)
    c = grid.centers_all()
    table = 1.5 * np.sin(2.0 * c[:, 0]) + 0.8 * c[:, 0] ** 2
    ends = {name: engine.run_walk(table, grid, steps, make_generator(seed),
                                  grid.state_count // 2, engine=name).state
            for name in engines}
    return [] if len(set(ends.values())) == 1 else [f"engine endpoints differ: {ends}"]


def run_op(op: Op, inputs, deadline_s: float, wrap=None) -> tuple:
    """Time one op; returns (result or None, Outcome)."""
    def fn():
        if wrap is None:
            return execute(op, inputs)
        return wrap(op.index, lambda: execute(op, inputs))
    result, error = None, ""
    t0 = perf_counter()
    try:
        result = run_with_deadline(fn, deadline_s)
    except OpDeadline:
        error = "deadline"
    except Exception as exc:  # noqa: BLE001 - typed limits and crashes alike fail the op
        error = type(exc).__name__
    latency = perf_counter() - t0
    outcome = Outcome(op.index, op.cell.label, latency, returned=not error, error=error)
    if error:
        outcome.failures.append(error if error == "deadline" else f"raised {error}")
    return result, outcome
