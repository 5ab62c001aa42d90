"""Step engines for the lazy Metropolis walk on cell centers.

Two interchangeable kernels run the same chain: a pure-Python loop and the
plain-C walk_block in _walkcore.c, compiled with the system `cc` on first
use and loaded through ctypes (only Python where that fails).  Both
consume an identical pre-drawn uniform stream — three uniforms per step
(laziness, direction, acceptance) — so their trajectories are bit-identical
and a run can be replayed on either engine.

Scores live in a flat table indexed by cell.  A NaN entry means "not yet
evaluated": when the walk proposes such a cell (a fault) the kernel returns
early, *without* consuming that step's uniforms, so run_walk can fill the
entry and resume mid-block.  A fill scores a window of cells in one call:
the faulting cell's row along the last axis, cut into aligned windows of at
most _FILL_WINDOW cells, and of its window only the cells still NaN.  Runs
are insensitive to which cells happen to be evaluated lazily, and to how
many a fill scores, because a cell's score does not depend on the batch it
is scored in (a tested property of every sampler score).
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..errors import SamplerFailure
from .grid import GridSpec

DEFAULT_BLOCK_SIZE = 8192
#: cells per fill window: a fault scores the NaN cells of the aligned
#: window of this many cells along the last axis that holds the faulting cell
_FILL_WINDOW = 64


@functools.cache
def _compiled_kernel() -> tuple[Optional[Callable], str]:
    """Build and load _walkcore.c: (walk_block, "") or (None, why it is unavailable).

    No -ffast-math and no -march=native: bit-identity with the Python kernel
    rests on IEEE comparisons and the same libm exp.  The library file is
    removed with its directory once loaded; nothing persists between runs.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None, "no C compiler: cc is not on PATH"
    source = Path(__file__).with_name("_walkcore.c")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            lib_path = os.path.join(tmp, "_walkcore.so")
            subprocess.run(
                [cc, "-std=c99", "-O2", "-shared", "-fPIC", str(source), "-o", lib_path, "-lm"],
                check=True, capture_output=True, text=True,
            )
            walk_block = ctypes.CDLL(lib_path).walk_block
    except subprocess.CalledProcessError as exc:
        return None, f"cc could not compile {source.name}: {exc.stderr.strip()}"
    except OSError as exc:
        return None, f"cannot build or load {source.name}: {exc}"

    # Arrays go in as bare addresses (see _compiled_binding): no argument
    # conversion runs Python code, which a signal handler could interrupt.
    address, i64 = ctypes.c_void_p, ctypes.c_int64
    walk_block.argtypes = [address, i64, i64, address, address, address, address, i64, address]
    walk_block.restype = i64
    return walk_block, ""


def _address(a: np.ndarray, dtype, ndim: int, writeable: bool = False) -> int:
    """Data address of a, after the checks the kernel's pointer arguments need."""
    if a.dtype != dtype or a.ndim != ndim or not a.flags.c_contiguous:
        raise TypeError(f"walk kernel needs a C-contiguous {ndim}-d {np.dtype(dtype)} array, "
                        f"got a {a.ndim}-d {a.dtype} array")
    if writeable and not a.flags.writeable:
        raise TypeError("walk kernel writes to a read-only array")
    return a.__array_interface__["data"][0]


def _compiled_binding(walk_block, table, m, d, strides, coords) -> Callable:
    """walk_block over one run's arrays, as kernel(state, U, offset).

    The arrays are checked and their addresses taken once per run; U's rows
    from offset on are passed by address arithmetic, not by slicing.  A call
    therefore runs no Python code inside ctypes, so an exception raised by a
    signal handler (a deadline, say) leaves the call as itself rather than as
    ctypes.ArgumentError.  The caller keeps every array alive for the run.
    """
    table_at = _address(table, np.float64, 1)
    strides_at = _address(strides, np.int64, 1)
    coords_at = _address(coords, np.int64, 1, writeable=True)
    state_io, fault = ctypes.c_int64(), ctypes.c_int64()
    state_at, fault_at = ctypes.addressof(state_io), ctypes.addressof(fault)

    def kernel(state, U, offset):
        state_io.value = state
        consumed = walk_block(table_at, m, d, strides_at, state_at, coords_at,
                              U.__array_interface__["data"][0] + offset * U.strides[0],
                              U.shape[0] - offset, fault_at)
        return state_io.value, consumed, fault.value

    return kernel


def available_engines() -> tuple[str, ...]:
    """Names accepted by run_walk's engine argument, fastest last."""
    return ("python", "compiled") if _compiled_kernel()[0] is not None else ("python",)


def _walk_block_python(table, m, d, strides, state, coords, U):
    """Advance the chain through rows of U; mirrors the compiled kernel.

    Returns (state, consumed, fault_index) where fault_index is -1 unless
    the block stopped at an unevaluated (NaN) cell.
    """
    two_d = 2 * d
    rows = U.shape[0]
    for i in range(rows):
        if U[i, 0] < 0.5:  # lazy hold
            continue
        j = int(U[i, 1] * two_d)
        if j >= two_d:  # guard the u -> index rounding edge
            j = two_d - 1
        axis = j >> 1
        delta = 1 if (j & 1) == 0 else -1
        c = coords[axis] + delta
        if c < 0 or c >= m:  # proposal off the cube: reject
            continue
        nb = state + delta * strides[axis]
        fy = table[nb]
        if math.isnan(fy):
            return state, i, nb
        fx = table[state]
        if fy <= fx or U[i, 2] < math.exp(fx - fy):
            state = nb
            coords[axis] = c
    return state, rows, -1


@dataclass(frozen=True)
class WalkResult:
    """Where a walk ended and what it cost."""

    state: int
    steps: int
    faults: int
    engine: str


def _fill(table, index, m, score_fill) -> None:
    """Score the NaN cells of index's fill window into table with one score_fill call."""
    row = index - index % m
    low = row + (index - row) // _FILL_WINDOW * _FILL_WINDOW
    high = min(low + _FILL_WINDOW, row + m)
    cells = low + np.flatnonzero(np.isnan(table[low:high]))
    values = np.asarray(score_fill(cells), dtype=np.float64)
    if values.shape != cells.shape:
        raise ValueError(f"score_fill returned shape {values.shape} for {cells.size} cells")
    table[cells] = values
    if math.isnan(table[index]):
        raise SamplerFailure(f"score_fill left cell {index} unevaluated (NaN)")


def run_walk(
    table: np.ndarray,
    grid: GridSpec,
    steps: int,
    rng: np.random.Generator,
    start_state: int,
    engine: str = "auto",
    score_fill: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> WalkResult:
    """Run the lazy walk for a fixed step budget and return the final cell.

    Uniforms are drawn from rng in blocks of DEFAULT_BLOCK_SIZE rows, so the
    stream consumed is a function of steps alone — faults, engine choice,
    and score_fill behavior never shift it.  NaN table entries are filled on
    demand, in place: when the start cell is NaN or the walk proposes a NaN
    cell, score_fill(cells) gets the int64 flat indices of the NaN cells in
    that cell's fill window (see the module docstring) and returns their
    scores, which run_walk writes into table.  faults counts these fills.
    A fault without score_fill, or a fill that leaves the cell NaN, raises
    SamplerFailure.
    """
    if engine not in ("auto", "python", "compiled"):
        raise ValueError(f"unknown engine {engine!r}")
    table = np.ascontiguousarray(table, dtype=np.float64)
    if table.shape != (grid.state_count,):
        raise ValueError(f"score table of shape {table.shape} for a {grid.state_count}-state grid")
    if not (0 <= start_state < grid.state_count):
        raise ValueError(f"start_state {start_state} outside a {grid.state_count}-state grid")
    compiled = None
    if engine != "python":
        compiled, reason = _compiled_kernel()
        if compiled is not None:
            engine = "compiled"
        elif engine == "compiled":
            raise SamplerFailure(f"compiled walk engine unavailable: {reason}")
        else:
            engine = "python"
    m, d = grid.cells_per_axis, grid.d
    faults = 0
    if math.isnan(table[start_state]):
        if score_fill is None:
            raise SamplerFailure("walk started on an unevaluated cell with no score_fill")
        _fill(table, start_state, m, score_fill)
        faults += 1

    state = int(start_state)
    coords = np.array(grid.unravel(state), dtype=np.int64)
    strides = grid._strides
    if compiled is not None:
        kernel = _compiled_binding(compiled, table, m, d, strides, coords)
    else:
        def kernel(state, U, offset):
            return _walk_block_python(table, m, d, strides, state, coords, U[offset:])
    remaining = int(steps)
    while remaining > 0:
        rows = min(remaining, DEFAULT_BLOCK_SIZE)
        U = rng.random((rows, 3))
        _address(U, np.float64, 2)  # the compiled kernel reads U by address
        offset = 0
        while offset < rows:
            state, consumed, fault = kernel(state, U, offset)
            offset += consumed
            if fault >= 0:
                if score_fill is None:
                    raise SamplerFailure(
                        "walk reached an unevaluated cell and no score_fill was provided"
                    )
                _fill(table, fault, m, score_fill)
                faults += 1
        remaining -= rows
    return WalkResult(state=int(state), steps=int(steps), faults=faults, engine=engine)
