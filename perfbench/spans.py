"""Per-layer spans recorded from outside the program.

`Tracer.installed()` rebinds the attributes through which each layer is
called (module functions at their call sites, and the two evaluator methods
on their class) to wrappers that record a span per call: name, parent span,
start, end, op index and whether it returned.  Counts are read from values
the layers already return (`InnerSolveResult.iterations`, `WalkResult.steps`
and `.faults`, `SampleDetail.restarts` and `.plan.branch`).  The wrappers
draw no randomness and pass arguments and results through untouched, so a
traced op returns bit-identical outputs.

`problem.dataset_mean` is deliberately left unwrapped: it runs ~50k times per
grid op, and its time stays inside its callers' self time.

Spans live in flat arrays until the run ends; `layer_metrics` reduces them.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from dpbilevel import audit, cli, inner, mechanisms
from dpbilevel.errors import NonConvergenceError, SamplerFailure
from dpbilevel.gridwalk import chain, evaluator, sampler

ENTRY_POINTS = ("exponential_mechanism", "grad_norm_exp_mechanism",
                "regularized_exp_mechanism", "dp_second_order_gd", "warm_start")


def _count_inner(counts, result):
    counts["inner.solves"] += 1
    counts["inner.iterations"] += result.iterations
    counts["inner.warm_hits"] += result.iterations == 0


def _inner_raised(counts, exc):
    if isinstance(exc, NonConvergenceError):
        counts["inner.solves"] += 1
        counts["inner.nonconvergence"] += 1


def _count_sample(counts, detail):
    counts["sampler.attempts"] += detail.restarts + 1
    counts["sampler.samples"] += 1
    counts["sampler.branch." + detail.plan.branch] += 1


def _sampler_raised(counts, exc):
    if isinstance(exc, SamplerFailure):
        counts["sampler.attempts"] += sampler.RESTART_CAP


def _count_walk(counts, result):
    counts["engine.steps"] += result.steps
    counts["engine.faults"] += result.faults


def _count_rows(counts, table):
    counts["evaluator.table_rows"] += len(table)


def _count_states(counts, analysis):
    counts["chain.states"] += analysis.grid.state_count


# (owner, attribute, span name, hook on return, hook on raise)
TARGETS = tuple(
    (mechanisms, name, "mechanisms." + name, None, None) for name in ENTRY_POINTS
) + (
    (cli, "mechanism_grid_law", "mechanisms.mechanism_grid_law", None, None),
    (mechanisms, "sample_logconcave_detailed", "gridwalk.sampler",
     _count_sample, _sampler_raised),
    (evaluator.ExtendedEvaluator, "evaluate_many", "gridwalk.evaluator.table",
     _count_rows, None),
    (evaluator.ExtendedEvaluator, "eval", "gridwalk.evaluator.point", None, None),
    (sampler, "run_walk", "gridwalk.engine", _count_walk, None),
    (inner, "solve_lower_level", "inner", _count_inner, _inner_raised),
    (mechanisms, "solve_lower_level", "inner", _count_inner, _inner_raised),
    (cli, "solve_lower_level", "inner", _count_inner, _inner_raised),
    (mechanisms, "approx_hypergradient", "hypergrad", None, None),
    (cli, "approx_hypergradient", "hypergrad", None, None),
    (chain, "exact_chain", "gridwalk.chain.exact_chain", _count_states, None),
    (audit, "exact_chain", "gridwalk.chain.exact_chain", _count_states, None),
    (chain, "transition_matrix", "gridwalk.chain.transition_matrix", None, None),
    (chain, "linf_mixing_distance", "gridwalk.chain.mixing", None, None),
    (audit, "linf_mixing_distance", "gridwalk.chain.mixing", None, None),
    (chain, "conductance_exact", "gridwalk.chain.conductance", None, None),
    (audit, "conductance_exact", "gridwalk.chain.conductance", None, None),
    (cli, "exact_dp_audit", "audit.exact_dp_audit", None, None),
    (cli, "verify_sampler_lemmas", "audit.verify_sampler_lemmas", None, None),
    (cli, "empirical_sensitivity", "audit.empirical_sensitivity", None, None),
    (cli, "run_audits", "cli.run_audits", None, None),
)


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.returned = array("b")
        self.counts: defaultdict = defaultdict(int)
        self._stack = [-1]
        self._op_index = -1

    def _code_of(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _open(self, code: int) -> int:
        sid = len(self.t0)
        self.code.append(code)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_index)
        self.t0.append(perf_counter())
        self.t1.append(math.nan)
        self.returned.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, returned: bool) -> None:
        self.t1[sid] = perf_counter()
        self.returned[sid] = returned
        # an op cut by its deadline can leave inner spans unclosed; pop to ours
        while self._stack[-1] != sid and len(self._stack) > 1:
            self._stack.pop()
        if len(self._stack) > 1:
            self._stack.pop()

    def wrap(self, name, fn, on_return=None, on_raise=None):
        code = self._code_of(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(code)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, False)
                if on_raise is not None:
                    on_raise(counts, exc)
                raise
            self._close(sid, True)
            if on_return is not None:
                on_return(counts, result)
            return result

        return traced

    def run_op(self, index: int, fn):
        """Run one op under a root span named "op"."""
        self._op_index = index
        self._stack = [-1]
        return self.wrap("op", fn)()

    @contextmanager
    def installed(self):
        """Rebind every target to its traced wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name, on_return, on_raise in TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, on_return, on_raise))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        t0 = np.frombuffer(self.t0, dtype=np.float64).copy()
        t1 = np.frombuffer(self.t1, dtype=np.float64).copy()
        t1 = np.where(np.isnan(t1), t0, t1)  # never closed: zero length
        return {
            "names": np.array(self.names),
            "code": np.frombuffer(self.code, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "t0": t0,
            "t1": t1,
            "returned": np.frombuffer(self.returned, dtype=np.int8).copy(),
        }


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    s = tracer.arrays()
    dur = s["t1"] - s["t0"]
    has_parent = s["parent"] >= 0
    child = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_time = dur - child
    codes = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return s["code"] == codes.get(name, -1)

    def total(name):
        return float(dur[mask(name)].sum())

    def self_s(name):
        return float(self_time[mask(name)].sum())

    def calls(name):
        return int(mask(name).sum())

    c = tracer.counts
    out = {}
    for entry in ENTRY_POINTS:
        d = dur[mask("mechanisms." + entry)]
        out[f"mechanisms.{entry}.ms_p50"] = (
            float(np.median(d)) * 1e3 if d.size else 0.0, "ms")
    out["mechanisms.mechanism_grid_law.calls"] = (
        calls("mechanisms.mechanism_grid_law"), "count")
    out["mechanisms.mechanism_grid_law.s"] = (
        total("mechanisms.mechanism_grid_law"), "s")

    attempts = c["sampler.attempts"]
    out["gridwalk.sampler.attempts"] = (int(attempts), "count")
    out["gridwalk.sampler.accept_ratio"] = (
        c["sampler.samples"] / attempts if attempts else 0.0, "1")
    for branch in ("short_cube", "enumerate", "walk"):
        out[f"gridwalk.sampler.branch.{branch}"] = (
            int(c["sampler.branch." + branch]), "count")

    out["gridwalk.evaluator.table_rows"] = (int(c["evaluator.table_rows"]), "count")
    out["gridwalk.evaluator.table_s"] = (total("gridwalk.evaluator.table"), "s")
    out["gridwalk.evaluator.point_evals"] = (calls("gridwalk.evaluator.point"), "count")
    out["gridwalk.evaluator.point_s"] = (total("gridwalk.evaluator.point"), "s")

    walks = mask("gridwalk.engine")
    done = walks & (s["returned"] == 1)
    done_self = float(self_time[done].sum())
    out["gridwalk.engine.steps"] = (int(c["engine.steps"]), "count")
    out["gridwalk.engine.faults"] = (int(c["engine.faults"]), "count")
    out["gridwalk.engine.self_s"] = (float(self_time[walks].sum()), "s")
    # steps are only known for walks that returned, so the rate uses their time
    out["gridwalk.engine.steps_per_s"] = (
        c["engine.steps"] / done_self if done_self > 0 else 0.0, "steps/s")

    solves = c["inner.solves"]
    out["inner.solves"] = (int(solves), "count")
    out["inner.iterations"] = (int(c["inner.iterations"]), "count")
    out["inner.warm_hit_share"] = (
        c["inner.warm_hits"] / solves if solves else 0.0, "1")
    out["inner.self_s"] = (self_s("inner"), "s")
    out["inner.nonconvergence"] = (int(c["inner.nonconvergence"]), "count")

    out["hypergrad.calls"] = (calls("hypergrad"), "count")
    out["hypergrad.self_s"] = (self_s("hypergrad"), "s")

    out["gridwalk.chain.states"] = (int(c["chain.states"]), "count")
    for part in ("exact_chain", "transition_matrix", "mixing", "conductance"):
        out[f"gridwalk.chain.{part}_s"] = (total("gridwalk.chain." + part), "s")

    for name in ("exact_dp_audit", "verify_sampler_lemmas", "empirical_sensitivity"):
        out[f"audit.{name}_s"] = (total("audit." + name), "s")
    out["cli.run_audits_s"] = (total("cli.run_audits"), "s")
    return out
