"""perfbench's own op code runs against the program.

`perfbench/ops.py` reads program names such as `cli.ExperimentConfig`,
`chain.exact_chain` and `Domain.contains`; a change that renames or removes
one would otherwise surface only when the benchmark runs.  One cheap cell
of each op kind goes through prepare -> execute -> check here, and a walk
and a descent op also through check's replay and engine reruns.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's (cells, ops) modules, imported as run.py imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import cells
        import ops
    finally:
        sys.path.remove(str(PERFBENCH))
    return cells, ops


@pytest.mark.parametrize("workload,label", [
    ("release-grid", "exponential_mechanism/hard/d1/n16/eps1"),  # one coarse cell
    ("audit", "run_audits/hard/d1/n32"),
    ("audit", "chain/d1/256cells"),
    # replayed: check re-runs the op from its ledger and, for a walk, on every engine
    ("release-walk", "exponential_mechanism/quadratic/d1/n4/eps1/force_walk"),
    ("descent", "warm_start/ridge/d1/n1024/eps4"),
])
def test_one_op_of_each_kind_is_not_wrong(perfbench, workload, label):
    cells, ops = perfbench
    wl = cells.WORKLOADS[workload]
    cell = next(c for c in wl.cells if c.label == label)
    replay = workload in ("release-walk", "descent")
    op = ops.Op(index=0, round=0, cell=cell, data_seed=0, mech_seed=0, replay=replay)
    inputs = ops.prepare(op, ops.build_fixtures(wl))
    result = ops.execute(op, inputs)
    failures, wrong = ops.check(op, inputs, result, wl.deadline_s)
    assert not wrong, failures
    if workload == "release-grid":
        assert result.ledger["plan"]["branch"] == "enumerate"
        assert result.ledger["plan"]["states"] == 1
    if workload == "release-walk":
        assert result.ledger["plan"]["branch"] == "walk"
    assert len(ops.digest(result)) == 64
