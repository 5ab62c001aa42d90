"""The cells each benchmark workload runs, and why each one is there.

A cell is one fixed configuration: a mechanism call on an instance family at
(d, n, eps), one `cli.run_audits` battery, or one exact chain check.  A run
repeats every cell of its workload once per round; the seed decides each
op's data and mechanism seed, never which cells run.

Cells that fail today stay in the list on purpose and carry `known_failure`,
the reason they fail.  `NOT_RUN` lists cells left out of the repeated runs
and why.
"""

from __future__ import annotations

from dataclasses import dataclass

#: instance parameter that sets the upper-level dimension
DIM_PARAM = {"hard": "d", "quadratic": "d_x", "ridge": "feature_dim"}

@dataclass(frozen=True)
class Cell:
    kind: str  # "mechanism" | "battery" | "chain"
    instance: str  # instance family; "box" for chain checks
    d: int
    n: int = 0  # records (mechanisms, batteries) or cells per axis (chains)
    mechanism: str = ""
    eps: float = 1.0
    delta: float = 1e-3
    force_walk: bool = False
    known_failure: str = ""
    once: bool = False  # run in the first round only

    @property
    def label(self) -> str:
        if self.kind == "chain":
            return f"chain/d{self.d}/{self.n}cells"
        if self.kind == "battery":
            return f"run_audits/{self.instance}/d{self.d}/n{self.n}"
        walk = "/force_walk" if self.force_walk else ""
        return f"{self.mechanism}/{self.instance}/d{self.d}/n{self.n}/eps{self.eps:g}{walk}"


@dataclass(frozen=True)
class Workload:
    """A named list of cells; BENCHMARK.json records why each workload exists."""

    name: str
    cells: tuple
    #: seconds of --seconds one round accounts for on the reference machine
    #: (2-core x86-64, Python 3.11.7, NumPy 2.4.6, SciPy 1.17.1, pure-Python
    #: walk engine), first-round-only cells spread over the rounds; sets how
    #: many rounds a run plans
    round_s: float
    #: per-op deadline; an op still running then counts as failed
    deadline_s: float


def _mech(mechanism, instance, d, n, eps=1.0, **kw) -> Cell:
    return Cell("mechanism", instance, d, n, mechanism, eps, **kw)


_SIZE_CAP = ("the accuracy grid exceeds the 4,194,304-state walk cap and no "
             "enumerable fallback exists: a typed SizeCapError today")
_NEVER_FINISHES = ("the planner picks a 21,765-state walk of 2.9e12 steps; it "
                   "ends at the per-op deadline today")
_BATTERY = ("run_audits returns failed=True: the pure_dp_exponential_eps_x100 "
            "negative control passes (ROADMAP item 1)")

RELEASE_GRID = Workload(
    name="release-grid",
    # the regularized cells sweep n = 16..256, so op costs cover 10-200 ms
    # without gaps and the median op does not jump between cost clusters
    cells=(
        _mech("exponential_mechanism", "quadratic", 2, 16),
        _mech("exponential_mechanism", "quadratic", 2, 64),
        _mech("exponential_mechanism", "quadratic", 2, 256),
        _mech("exponential_mechanism", "hard", 1, 16),  # short cube
        _mech("exponential_mechanism", "ridge", 1, 8),  # short cube
        _mech("grad_norm_exp_mechanism", "ridge", 1, 16),
        _mech("grad_norm_exp_mechanism", "ridge", 2, 16),
        _mech("grad_norm_exp_mechanism", "quadratic", 1, 64),
        _mech("grad_norm_exp_mechanism", "quadratic", 3, 64),
        _mech("regularized_exp_mechanism", "hard", 1, 16),
        _mech("regularized_exp_mechanism", "hard", 1, 64),
        _mech("regularized_exp_mechanism", "hard", 1, 128),
        _mech("regularized_exp_mechanism", "hard", 1, 256),
        _mech("regularized_exp_mechanism", "quadratic", 1, 16),
        _mech("regularized_exp_mechanism", "quadratic", 1, 64),
        _mech("regularized_exp_mechanism", "quadratic", 1, 128),
        _mech("regularized_exp_mechanism", "quadratic", 1, 256),
        _mech("regularized_exp_mechanism", "ridge", 1, 16),
        _mech("regularized_exp_mechanism", "ridge", 1, 64),
        _mech("regularized_exp_mechanism", "ridge", 1, 128),
        _mech("regularized_exp_mechanism", "ridge", 1, 256),
        _mech("regularized_exp_mechanism", "quadratic", 2, 64),
        _mech("regularized_exp_mechanism", "quadratic", 2, 256,
              known_failure=_SIZE_CAP),
        _mech("grad_norm_exp_mechanism", "ridge", 3, 64,
              known_failure=_SIZE_CAP),
    ),
    round_s=2.9,
    deadline_s=10.0,
)

RELEASE_WALK = Workload(
    name="release-walk",
    # the repeated ops are walks of 0.1-0.3 s per attempt: long enough to
    # average over the machine's second-scale speed changes, which ops of a
    # few tens of ms do not, so their median stays put from run to run
    cells=(
        _mech("exponential_mechanism", "quadratic", 1, 4, force_walk=True),
        _mech("exponential_mechanism", "quadratic", 1, 8, force_walk=True),
        _mech("exponential_mechanism", "ridge", 2, 8, force_walk=True),
        _mech("exponential_mechanism", "hard", 2, 4, force_walk=True),
        _mech("exponential_mechanism", "hard", 1, 16, force_walk=True, once=True),
        _mech("exponential_mechanism", "ridge", 1, 16, force_walk=True, once=True),
        _mech("exponential_mechanism", "quadratic", 1, 16, force_walk=True, once=True),
        _mech("exponential_mechanism", "ridge", 2, 16, force_walk=True, once=True),
        _mech("grad_norm_exp_mechanism", "quadratic", 1, 64, force_walk=True, once=True),
        _mech("regularized_exp_mechanism", "quadratic", 1, 1024,
              known_failure=_NEVER_FINISHES, once=True),
    ),
    round_s=4.0,
    deadline_s=6.0,
)

DESCENT = Workload(
    name="descent",
    cells=tuple(
        _mech(m, inst, d, n, eps)
        for m in ("dp_second_order_gd", "warm_start")
        for inst in ("quadratic", "ridge")
        for d in (1, 2, 3)
        for n, eps in ((1024, 4.0), (16384, 1.0))
        if not (m == "warm_start" and inst == "quadratic" and d == 3 and eps == 4.0)
    ),
    round_s=1.0,
    deadline_s=10.0,
)

AUDIT = Workload(
    name="audit",
    # the 30x30 chain (~0.5 s) sits beside the 512-state one, so op costs run
    # from the batteries up to the 1024-state chains without a gap for the
    # median or tail op to jump across
    cells=tuple(
        Cell("battery", inst, d, 32, known_failure=_BATTERY)
        for inst in ("hard", "quadratic", "ridge") for d in (1, 2)
    ) + tuple(
        Cell("chain", "box", d, cells)
        for d, cells in ((1, 256), (1, 512), (1, 1024), (1, 2048),
                         (2, 16), (2, 30), (2, 32))
    ),
    round_s=6.7,
    deadline_s=30.0,
)

WORKLOADS = {w.name: w for w in (RELEASE_GRID, RELEASE_WALK, DESCENT, AUDIT)}

#: cells measured once and kept out of the repeated runs, with the reason
NOT_RUN = (
    ("release-walk", "grad_norm_exp_mechanism/quadratic/d2/n64/eps1",
     "run length: the planner's own walk has 16,641 states and takes 12.4M "
     "steps x 4 attempts, 57 s per call on the pure-Python engine"),
    ("descent", "warm_start/quadratic/d3/n1024/eps4",
     "stage A plans the same unfinishable walk as release-walk's deadline "
     "cell; that defect is measured there, and a deadline op would swamp "
     "descent's 5-500 ms ops"),
)
