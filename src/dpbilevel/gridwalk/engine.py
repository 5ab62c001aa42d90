"""Step engines for the lazy Metropolis walk on cell centers.

Two interchangeable kernels run the same chain: a pure-Python loop and an
optional compiled one (built from _walkcore.pyx at install time).  Both
consume an identical pre-drawn uniform stream — three uniforms per step
(laziness, direction, acceptance) — so their trajectories are bit-identical
and a run can be replayed on either engine.

Scores live in a flat table indexed by cell.  A NaN entry means "not yet
evaluated": when the walk proposes such a cell the kernel returns early,
*without* consuming that step's uniforms, so the caller can fill the entry
and resume mid-block.  Runs are therefore insensitive to which cells happen
to be evaluated lazily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import SamplerFailure
from .grid import GridSpec

try:
    from . import _walkcore
except ImportError:  # pragma: no cover - depends on the build environment
    _walkcore = None

DEFAULT_BLOCK_SIZE = 8192


def available_engines() -> tuple[str, ...]:
    """Names accepted by run_walk's engine argument, fastest last."""
    return ("python", "compiled") if _walkcore is not None else ("python",)


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


def run_walk(
    table: np.ndarray,
    grid: GridSpec,
    steps: int,
    rng: np.random.Generator,
    start_state: int,
    engine: str = "auto",
    score_fill: Optional[Callable[[int], float]] = None,
) -> WalkResult:
    """Run the lazy walk for a fixed step budget and return the final cell.

    Uniforms are drawn from rng in blocks of DEFAULT_BLOCK_SIZE rows, so the
    stream consumed is a function of steps alone — faults, engine choice,
    and score_fill behavior never shift it.  score_fill(index) is invoked to
    replace NaN table entries on demand; a fault without one is an error.
    """
    if engine == "auto":
        engine = "compiled" if _walkcore is not None else "python"
    if engine == "compiled" and _walkcore is None:
        raise SamplerFailure("compiled walk engine requested but not built")
    if engine not in ("python", "compiled"):
        raise ValueError(f"unknown engine {engine!r}")
    if not (0 <= start_state < grid.state_count):
        raise ValueError(f"start_state {start_state} outside a {grid.state_count}-state grid")
    kernel = _walk_block_python if engine == "python" else _walkcore.walk_block
    table = np.ascontiguousarray(table, dtype=np.float64)
    if math.isnan(table[start_state]):
        if score_fill is None:
            raise SamplerFailure("walk started on an unevaluated cell with no score_fill")
        table[start_state] = score_fill(start_state)

    state = int(start_state)
    coords = np.array(grid.unravel(state), dtype=np.int64)
    strides = grid._strides
    m, d = grid.cells_per_axis, grid.d
    faults = 0
    remaining = int(steps)
    while remaining > 0:
        rows = min(remaining, DEFAULT_BLOCK_SIZE)
        U = rng.random((rows, 3))
        offset = 0
        while offset < rows:
            state, consumed, fault = kernel(
                table, m, d, strides, state, coords, U[offset:]
            )
            offset += consumed
            if fault >= 0:
                if score_fill is None:
                    raise SamplerFailure(
                        "walk reached an unevaluated cell and no score_fill was provided"
                    )
                table[fault] = score_fill(fault)
                faults += 1
        remaining -= rows
    return WalkResult(state=int(state), steps=int(steps), faults=faults, engine=engine)
