"""Step-level oracle checks and engine interchangeability for the walk."""

import math

import numpy as np
import pytest

from dpbilevel.errors import SamplerFailure
from dpbilevel.gridwalk import engine as engine_module
from dpbilevel.gridwalk.engine import available_engines, run_walk
from dpbilevel.gridwalk.grid import grid_with_cells
from dpbilevel.problem import Domain

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
    assert sorted(moved) == sorted(grid.neighbors(0))


# ---------------------------------------------------------------------------
# batch kernel
# ---------------------------------------------------------------------------

@pytest.fixture
def small_blocks(monkeypatch):
    """Draw uniforms in 512-row blocks, so a 4000-step walk spans several."""
    monkeypatch.setattr(engine_module, "DEFAULT_BLOCK_SIZE", 512)


def run_pair(engine, seed=7, steps=4000, fill_nan=False):
    grid = grid_with_cells(box(2), 9)
    rng = np.random.default_rng(123)
    scores = rng.normal(size=81)
    table = scores.copy()
    score_fill = None
    if fill_nan:
        table[::3] = np.nan
        table[40] = scores[40]  # keep the start cell evaluated

        def score_fill(idx):
            return float(scores[idx])

    return run_walk(table, grid, steps, np.random.default_rng(seed), 40,
                    engine=engine, score_fill=score_fill)


def test_python_engine_runs(small_blocks):
    result = run_pair("python")
    assert result.engine == "python"
    assert result.steps == 4000
    assert 0 <= result.state < 81


@pytest.mark.skipif(not HAS_COMPILED, reason="compiled engine not built")
def test_engines_bit_identical(small_blocks):
    a = run_pair("python")
    b = run_pair("compiled")
    assert a.state == b.state
    assert a.faults == b.faults == 0


@pytest.mark.parametrize("engine",
                         ["python"] + (["compiled"] if HAS_COMPILED else []))
def test_faults_do_not_shift_the_stream(engine, small_blocks):
    clean = run_pair(engine)
    lazy = run_pair(engine, fill_nan=True)
    assert lazy.faults > 0
    assert lazy.state == clean.state


def test_fault_without_fill_raises():
    grid = grid_with_cells(box(1), 8)
    table = np.full(8, np.nan)
    table[4] = 0.0
    with pytest.raises(SamplerFailure):
        run_walk(table, grid, 200, np.random.default_rng(0), 4,
                 engine="python")


def test_nan_start_is_filled():
    grid = grid_with_cells(box(1), 8)
    table = np.full(8, np.nan)
    result = run_walk(table, grid, 50, np.random.default_rng(1), 3,
                      engine="python", score_fill=lambda i: 0.0)
    assert result.faults >= 0
    assert 0 <= result.state < 8


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
