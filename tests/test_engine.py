"""Step-level oracle checks and engine interchangeability for the walk."""

import itertools
import math
import shutil
import signal
import sys
from contextlib import contextmanager
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from dpbilevel.errors import SamplerFailure
from dpbilevel.gridwalk import engine as engine_module
from dpbilevel.gridwalk.engine import available_engines, run_walk
from dpbilevel.gridwalk.grid import grid_with_cells
from dpbilevel.problem import Domain
from oracles import neighbors

HAS_COMPILED = "compiled" in available_engines()


def box(d, half=0.5):
    return Domain("box", np.zeros(d), half_widths=np.full(d, half))


class ScriptedRng:
    """Generator stand-in whose one-step block is a scripted (lazy, direction, accept) row."""

    def __init__(self, row):
        self._row = np.asarray(row, dtype=float).reshape(1, 3)

    def random(self, size):
        assert size == (1, 3)
        return self._row


def one_step(engine, table, grid, state, row):
    return run_walk(np.asarray(table, dtype=float), grid, 1, ScriptedRng(row),
                    state, engine=engine).state


# ---------------------------------------------------------------------------
# single-step oracle values, on the kernels that run
# ---------------------------------------------------------------------------

ENGINES = pytest.mark.parametrize("engine", available_engines())


@ENGINES
def test_step_lazy_hold(engine):
    grid = grid_with_cells(box(1), 4)
    assert one_step(engine, np.zeros(4), grid, 1, [0.49, 0.0, 0.0]) == 1


@ENGINES
def test_step_flat_scores_always_accept(engine):
    grid = grid_with_cells(box(1), 4)
    # move, propose axis-0 "+" (j=0), acceptance uniform at its worst
    assert one_step(engine, np.zeros(4), grid, 1, [0.9, 0.1, 1.0 - 1e-12]) == 2


@ENGINES
def test_step_uphill_log2_accepts_below_half(engine):
    grid = grid_with_cells(box(1), 4)
    table = [0.0, 0.0, math.log(2.0), 0.0]
    up = [0.9, 0.1, 0.499]  # state 1 -> 2 climbs by ln 2
    down = [0.9, 0.1, 0.501]
    assert one_step(engine, table, grid, 1, up) == 2
    assert one_step(engine, table, grid, 1, down) == 1


@ENGINES
def test_step_corner_rejects_off_cube_proposals(engine):
    grid = grid_with_cells(box(2), 3)
    # state 0 is the (0, 0) corner; j in {0,1,2,3} via the direction uniform
    outcomes = [
        one_step(engine, np.zeros(9), grid, 0, [0.9, u1, 0.0])
        for u1 in (0.1, 0.3, 0.6, 0.9)
    ]
    moved = [s for s in outcomes if s != 0]
    assert len(moved) == 2  # two of four proposals leave the cube
    assert sorted(moved) == sorted(neighbors(grid, 0))


# ---------------------------------------------------------------------------
# batch kernel
# ---------------------------------------------------------------------------

@pytest.fixture
def small_blocks(monkeypatch):
    """Draw uniforms in 512-row blocks, so a 4000-step walk spans several."""
    monkeypatch.setattr(engine_module, "DEFAULT_BLOCK_SIZE", 512)


#: cells per axis of run_pair's grid in each dimension
CELLS = {1: 81, 2: 9, 3: 5}


def run_pair(engine, seed=7, steps=4000, fill_nan=False, d=2):
    grid = grid_with_cells(box(d), CELLS[d])
    start = grid.state_count // 2
    rng = np.random.default_rng(123)
    scores = rng.normal(size=grid.state_count)
    table = scores.copy()
    score_fill = None
    if fill_nan:
        table[::3] = np.nan
        table[start] = scores[start]  # keep the start cell evaluated

        def score_fill(idx):
            return scores[idx]

    return run_walk(table, grid, steps, np.random.default_rng(seed), start,
                    engine=engine, score_fill=score_fill)


def test_python_engine_runs(small_blocks):
    result = run_pair("python")
    assert result.engine == "python"
    assert result.steps == 4000
    assert 0 <= result.state < 81


@pytest.mark.skipif(not HAS_COMPILED, reason="compiled engine not built")
@pytest.mark.parametrize("fill_nan", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_engines_bit_identical(small_blocks, d, fill_nan):
    a = run_pair("python", d=d, fill_nan=fill_nan)
    b = run_pair("compiled", d=d, fill_nan=fill_nan)
    assert a.state == b.state
    assert a.faults == b.faults
    assert (a.faults > 0) == fill_nan


class Interrupt(BaseException):
    """Stands in for what a signal handler raises, e.g. a deadline."""


def interrupt_kernel_call(i):
    """Profile hook raising Interrupt(i) at the i-th Python call made inside a kernel call.

    The kernel call itself is call 1; any Python code ctypes runs to convert
    its arguments follows.
    """
    seen = {"depth": 0, "calls": 0}

    def is_kernel(frame):
        code = frame.f_code
        return code.co_name == "kernel" and code.co_filename == engine_module.__file__

    def hook(frame, event, arg):
        if event == "call":
            seen["depth"] += is_kernel(frame)
            if seen["depth"]:
                seen["calls"] += 1
                if seen["calls"] == i:
                    raise Interrupt(i)
        elif event == "return" and is_kernel(frame):
            seen["depth"] -= 1

    return hook


@pytest.mark.skipif(not HAS_COMPILED, reason="compiled engine not built")
def test_exception_inside_compiled_call_leaves_as_itself(small_blocks):
    # a handler that fires while ctypes runs Python argument conversion is
    # re-raised as ctypes.ArgumentError; the kernel must give it no such chance
    interrupted = 0
    for i in itertools.count(1):
        sys.setprofile(interrupt_kernel_call(i))
        try:
            run_pair("compiled", d=2, fill_nan=True, steps=1500)
        except Interrupt as exc:
            assert exc.args == (i,)
            interrupted += 1
            continue
        finally:
            sys.setprofile(None)
        break  # the walk ran out of kernel calls before the i-th Python call
    assert interrupted > 1  # one per kernel call: every block and every fault


def test_compiled_engine_loads_wherever_cc_exists():
    # a loader that broke silently would turn the compiled tests into skips
    assert HAS_COMPILED == (shutil.which("cc") is not None)


@pytest.fixture
def no_compiler(monkeypatch):
    monkeypatch.setattr(engine_module.shutil, "which", lambda name: None)
    engine_module._compiled_kernel.cache_clear()
    yield
    engine_module._compiled_kernel.cache_clear()


def test_without_cc_only_python_runs(no_compiler):
    assert available_engines() == ("python",)
    grid = grid_with_cells(box(1), 4)
    with pytest.raises(SamplerFailure, match="no C compiler"):
        run_walk(np.zeros(4), grid, 10, np.random.default_rng(0), 0,
                 engine="compiled")
    assert run_walk(np.zeros(4), grid, 10, np.random.default_rng(0), 0).engine == "python"


@ENGINES
def test_short_table_is_rejected(engine):
    grid = grid_with_cells(box(2), 4)
    with pytest.raises(ValueError, match="table"):
        run_walk(np.zeros(15), grid, 1000, np.random.default_rng(0), 14,
                 engine=engine)


def test_kernel_source_ships_and_cython_is_not_required():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    patterns = config["tool"]["setuptools"]["package-data"]["dpbilevel.gridwalk"]
    assert any(fnmatch("_walkcore.c", pattern) for pattern in patterns)
    kernel = Path(engine_module.__file__).with_name("_walkcore.c")
    assert kernel.is_file()
    requires = config["build-system"]["requires"]
    assert not [r for r in requires if r.lower().startswith("cython")]


@ENGINES
def test_faults_do_not_shift_the_stream(engine, small_blocks):
    for d in (1, 2, 3):
        clean = run_pair(engine, d=d)
        lazy = run_pair(engine, d=d, fill_nan=True)
        assert lazy.faults > 0
        assert lazy.state == clean.state


@ENGINES
@pytest.mark.parametrize("window", [None, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_each_fill_scores_the_nan_cells_of_one_window(engine, monkeypatch, d, window):
    if window is not None:  # 4 cuts run_pair's rows of 81, 9 and 5 cells unevenly
        monkeypatch.setattr(engine_module, "_FILL_WINDOW", window)
    width = engine_module._FILL_WINDOW
    grid = grid_with_cells(box(d), CELLS[d])
    m = grid.cells_per_axis
    scores = np.random.default_rng(3).normal(size=grid.state_count)
    table = np.full(grid.state_count, np.nan)
    table[::2] = scores[::2]
    calls = []

    def score_fill(idx):
        assert idx.dtype == np.int64 and idx.size > 0
        windows = {(i // m, i % m // width) for i in idx.tolist()}
        assert len(windows) == 1
        (row, k), = windows
        low = row * m + k * width
        high = min(low + width, (row + 1) * m)
        # exactly the cells of the window that are still unscored
        np.testing.assert_array_equal(idx, low + np.flatnonzero(np.isnan(table[low:high])))
        calls.append(idx)
        return scores[idx]

    start = 63  # unscored, and in d = 1 the last cell of its 64-cell window
    result = run_walk(table, grid, 3000, np.random.default_rng(9), start,
                      engine=engine, score_fill=score_fill)
    scored = np.concatenate(calls)
    assert len(np.unique(scored)) == len(scored)  # no cell is scored twice
    assert start in calls[0]
    assert result.faults == len(calls) > 1
    np.testing.assert_array_equal(table[scored], scores[scored])


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the main thread after seconds, like a deadline."""
    def expire(signum, frame):
        raise TimeoutError(f"walk still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@ENGINES
@pytest.mark.parametrize("start_scored", [True, False])
def test_nan_fill_fails_after_one_fill(engine, start_scored):
    grid = grid_with_cells(box(1), 8)
    table = np.full(8, np.nan)
    if start_scored:
        table[4] = 0.0
    calls = []

    def nan_fill(idx):
        calls.append(idx)
        return np.full(idx.shape, np.nan)

    faulting = "[35]" if start_scored else "4"
    with time_limit(5.0), pytest.raises(SamplerFailure, match=rf"cell {faulting} unevaluated"):
        run_walk(table, grid, 10_000, np.random.default_rng(0), 4,
                 engine=engine, score_fill=nan_fill)
    assert len(calls) == 1


def test_fault_without_fill_raises():
    grid = grid_with_cells(box(1), 8)
    for engine, start_scored in itertools.product(available_engines(), (True, False)):
        table = np.full(8, np.nan)
        if start_scored:
            table[4] = 0.0
        with pytest.raises(SamplerFailure, match="unevaluated cell"):
            run_walk(table, grid, 200, np.random.default_rng(0), 4,
                     engine=engine)


def test_nan_start_is_filled():
    grid = grid_with_cells(box(1), 8)
    for engine in available_engines():
        table = np.full(8, np.nan)
        result = run_walk(table, grid, 50, np.random.default_rng(1), 3,
                          engine=engine, score_fill=lambda idx: np.zeros(idx.shape))
        # the start cell's window is its whole 8-cell row: one fill scores it
        assert result.faults == 1
        assert not np.isnan(table).any()
        assert 0 <= result.state < 8


def test_fill_must_return_one_score_per_cell():
    grid = grid_with_cells(box(1), 8)
    with pytest.raises(ValueError, match="score_fill returned shape"):
        run_walk(np.full(8, np.nan), grid, 50, np.random.default_rng(1), 3,
                 engine="python", score_fill=lambda idx: 0.0)


def test_engine_argument_validation():
    grid = grid_with_cells(box(1), 4)
    table = np.zeros(4)
    with pytest.raises(ValueError):
        run_walk(table, grid, 10, np.random.default_rng(0), 0,
                 engine="turbo")
    with pytest.raises(ValueError):
        run_walk(table, grid, 10, np.random.default_rng(0), 99)


def test_block_size_invisible(monkeypatch):
    grid = grid_with_cells(box(1), 16)
    table = np.abs(np.linspace(-1, 1, 16))
    outs = set()
    for bs in (7, 64, 4096):
        monkeypatch.setattr(engine_module, "DEFAULT_BLOCK_SIZE", bs)
        outs.add(run_walk(table, grid, 1000, np.random.default_rng(5), 8,
                          engine="python").state)
    assert len(outs) == 1
