#!/usr/bin/env python3
"""dpbilevel benchmark: private releases and audits through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and their cells are in perfbench/cells.py.  A run plans whole
rounds of ops (every cell once per round) to fill about S seconds on the
reference machine, then runs them in this one process, checking every
output.  With --trace 0 it prints the end-to-end metrics.  With --trace 1 it
runs the same ops untraced and then traced, requires bit-identical outputs,
and prints the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A fuller report
goes to .perfbench/<workload>-seed<N>-trace<T>.json.

Exit status is 0 when the run completed, even if ops failed: failures are
counted in the result.  It is non-zero, with no result printed, when the
program's sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
#: fresh interpreters timed from launch to "first op ready"; the median is setup_s
SETUP_SAMPLES = 5
#: an untraced run plans at least this many rounds, so the traced run's half
#: still holds one
MIN_ROUNDS = 2


def _import_program():
    src = ROOT / "src"
    if not (src / "dpbilevel" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dpbilevel sources under {src}")
    sys.path.insert(0, str(src))


def _rounds(workload, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / workload.round_s))


def _setup(workload, seed: int, rounds: int):
    """Everything before the first op: fixtures, plan, first op's inputs."""
    import ops
    fixtures = ops.build_fixtures(workload)
    plan = ops.plan_ops(workload, seed, rounds)
    first = ops.prepare(plan[0], fixtures)
    return fixtures, plan, first


def _setup_seconds(args) -> list[float]:
    """Wall time of fresh interpreters from launch until the first op is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line != "ready":
                raise SystemExit("perfbench: setup probe failed")
        samples.append(elapsed)
    return samples


def _environment() -> dict:
    import numpy
    import scipy
    from dpbilevel.gridwalk.engine import available_engines
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "engines": list(available_engines()),
        "machine": platform.machine(),
        "nproc": nproc,
        "blas_threads": min(_blas_threads(nproc), nproc),
        "caches": _cache_sizes(),
    }


def _blas_threads(default: int) -> int:
    """OpenBLAS's own thread count when it can be asked, else the env or nproc."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var])
    return default


def _cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = (
                (index / "size").read_text().strip())
        except OSError:
            continue
    return caches


def _run_pass(plan, fixtures, first, workload, tracer=None, check=True):
    """Run every op of the plan, checking outputs unless told not to."""
    import ops
    outcomes = []
    for op in plan:
        inputs = first if op.index == 0 and first is not None else ops.prepare(op, fixtures)
        result, outcome = ops.run_op(op, inputs, workload.deadline_s,
                                     None if tracer is None else tracer.run_op)
        if outcome.returned:
            outcome.digest = ops.digest(result)
            if check:
                failures, wrong = ops.check(op, inputs, result, workload.deadline_s)
                outcome.failures += failures
                outcome.wrong = wrong
        outcomes.append(outcome)
        del inputs, result
    return outcomes


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 values above it."""
    xs = sorted(latencies)
    if len(xs) < 11:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def _end_to_end(outcomes, setup_samples) -> tuple[dict, dict]:
    wall = sum(o.latency_s for o in outcomes)
    passed = sum(o.passed for o in outcomes)
    returned = [o.latency_s for o in outcomes if o.returned]
    tail, pct = _tail(returned) if returned else (0.0, 0.0)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (passed / wall, "op/s"),
        "op_ms_p50": (statistics.median(returned) * 1e3 if returned else 0.0, "ms"),
        "op_ms_tail": (tail * 1e3, "ms"),
        "ok_share": (passed / len(outcomes), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "op_ms_tail_percentile": pct,
        "returned_ops": len(returned),
        "failed_share": 1.0 - passed / len(outcomes),
        "wall_s": wall,
        "setup_s_samples": setup_samples,
    }
    return metrics, extra


def _failures_by_cell(outcomes) -> dict:
    cells = {}
    for o in outcomes:
        if o.failures:
            entry = cells.setdefault(o.label, {"count": 0, "reasons": set()})
            entry["count"] += 1
            entry["reasons"].update(o.failures)
    return {k: {"count": v["count"], "reasons": sorted(v["reasons"])} for k, v in cells.items()}


def _outputs_digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(f"{o.index}:{o.error}:{o.digest};".encode())
    return h.hexdigest()


def _predictions(workload_name: str, layers: dict) -> dict:
    """The bypass predictions: no walk steps outside release-walk, no chain
    time outside audit."""
    out = {}
    if workload_name != "release-walk":
        out["gridwalk.engine.steps == 0"] = layers["gridwalk.engine.steps"][0] == 0
    if workload_name != "audit":
        out["gridwalk.chain.* time == 0"] = all(
            v == 0 for k, (v, _) in layers.items() if k.startswith("gridwalk.chain."))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import cells
    import ops

    if args.workload not in cells.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(cells.WORKLOADS)}")
    workload = cells.WORKLOADS[args.workload]
    rounds = _rounds(workload, args.seconds)

    if args.setup_probe:
        _setup(workload, args.seed, rounds)
        print("ready", flush=True)
        return 0

    # the traced run compares an untraced and a traced pass of the same ops,
    # each half as long, so it takes about as long as an untraced run
    if args.trace:
        rounds = max(1, rounds // 2)
    setup_samples = [] if args.trace else _setup_seconds(args)
    fixtures, plan, first = _setup(workload, args.seed, rounds)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    wrong = []
    if workload.name == "release-walk":
        wrong += ops.engine_endpoints_agree(args.seed)
    outcomes = _run_pass(plan, fixtures, first, workload)
    report = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
        "deadline_s": workload.deadline_s, "env": _environment(),
        "known_failures": {c.label: c.known_failure for c in workload.cells if c.known_failure},
        "not_run": [list(x) for x in cells.NOT_RUN if x[0] == workload.name],
    }

    if args.trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        with tracer.installed():
            traced = _run_pass(plan, fixtures, None, workload, tracer=tracer, check=False)
        mismatched = [o.label for o, t in zip(outcomes, traced)
                      if (o.error, o.digest) != (t.error, t.digest) and "deadline" not in (o.error, t.error)]
        if mismatched:
            wrong.append(f"traced outputs differ from untraced: {mismatched}")
        metrics = layer_metrics(tracer)
        untraced_wall = sum(o.latency_s for o in outcomes)
        traced_wall = sum(o.latency_s for o in traced)
        metrics["trace.overhead_share"] = (traced_wall / untraced_wall - 1.0, "1")
        report["predictions"] = _predictions(workload.name, metrics)
        report["traced_outputs_digest"] = _outputs_digest(traced)
        import numpy as np
        np.savez_compressed(out_dir / f"{workload.name}-seed{args.seed}-spans.npz",
                            **tracer.arrays())
    else:
        metrics, extra = _end_to_end(outcomes, setup_samples)
        report.update(extra)

    wrong += [f"{o.label}: {', '.join(o.failures)}" for o in outcomes if o.wrong]
    failed = sum(not o.passed for o in outcomes)
    report.update({
        "outputs_digest": _outputs_digest(outcomes),
        "failures_by_cell": _failures_by_cell(outcomes),
        "wrong_outputs": wrong,
        "ops": [vars(o) for o in outcomes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=list))

    print(f"# perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"rounds={rounds} ops={len(outcomes)} failed={failed}")
    print("# env " + json.dumps(report["env"]))
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<44} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"#   op_ms_tail is at p{report['op_ms_tail_percentile']:.1f} of "
              f"{report['returned_ops']} returned ops; failed_share "
              f"{report['failed_share']:.4f}")
    else:
        print("# predictions " + json.dumps(report["predictions"]))
    for label, info in report["failures_by_cell"].items():
        print(f"# failed {info['count']:>3} x {label}: {'; '.join(info['reasons'])}")
    for line in wrong:
        print(f"# WRONG {line}")
    print(f"# outputs digest {report['outputs_digest']}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
