"""Cube grids over the enclosing cube of a convex body.

The sampling cube is the smallest axis-aligned cube containing the body; it
is split into cells_per_axis^d congruent cells addressed by flat indices in
row-major order.  The cell width gamma is tied to the score's infinity-norm
Lipschitz constant: gamma <= 1/(2 * alpha_lip) keeps within-cell variation
below 1/2, which the walk's acceptance analysis needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError, SizeCapError
from ..problem import Domain

#: hard cap on states for chains that are walked step by step
WALK_STATE_CAP = 2**22
#: hard cap on states for exact (dense-matrix) chain analysis
EXACT_STATE_CAP = 4096


@dataclass(frozen=True)
class GridSpec:
    """Geometry of one cube grid."""

    cube_low: np.ndarray
    tau: float
    gamma: float
    cells_per_axis: int
    d: int
    state_count: int
    _strides: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cube_low", np.asarray(self.cube_low, dtype=float))
        m, d = self.cells_per_axis, self.d
        if self.state_count != m**d:
            raise ConfigurationError("state_count must equal cells_per_axis ** d")
        strides = np.array([m ** (d - 1 - i) for i in range(d)], dtype=np.int64)
        object.__setattr__(self, "_strides", strides)

    # -- index arithmetic ---------------------------------------------------

    def unravel(self, flat: int) -> Tuple[int, ...]:
        return tuple(int(c) for c in np.unravel_index(flat, (self.cells_per_axis,) * self.d))

    def ravel(self, coords) -> int:
        return int(np.dot(np.asarray(coords, dtype=np.int64), self._strides))

    def centers(self, flat) -> np.ndarray:
        """Centers of the cells at flat indices, shape flat.shape + (d,)."""
        coords = np.stack(np.unravel_index(flat, (self.cells_per_axis,) * self.d), axis=-1)
        return self.cube_low + (coords + 0.5) * self.gamma

    def centers_all(self) -> np.ndarray:
        """All cell centers, shape (state_count, d), in flat-index order."""
        m = self.cells_per_axis
        axes = [self.cube_low[i] + (np.arange(m) + 0.5) * self.gamma for i in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)

    def cell_of(self, theta: np.ndarray) -> int:
        """Flat index of the cell containing theta (clipped to the cube)."""
        coords = np.floor((np.asarray(theta, dtype=float) - self.cube_low) / self.gamma)
        coords = np.clip(coords, 0, self.cells_per_axis - 1).astype(np.int64)
        return self.ravel(coords)


def _make(domain: Domain, cells_per_axis: int) -> GridSpec:
    tau = domain.inf_width
    gamma = tau / cells_per_axis
    low = domain.center - tau / 2.0
    return GridSpec(
        cube_low=low, tau=tau, gamma=gamma, cells_per_axis=cells_per_axis,
        d=domain.dim, state_count=cells_per_axis**domain.dim,
    )


def build_grid(domain: Domain, alpha_lip: float, eps_acc: float) -> GridSpec:
    """Grid sized for target accuracy eps_acc against an alpha_lip-Lipschitz score.

    gamma = min(eps_acc / (2 * alpha_lip * sqrt(d)), 1 / (2 * alpha_lip)),
    then snapped so an integer number of cells tiles the cube exactly.
    Raises SizeCapError above WALK_STATE_CAP states.
    """
    if eps_acc <= 0:
        raise ConfigurationError("eps_acc must be positive")
    if alpha_lip <= 0:
        raise ConfigurationError("alpha_lip must be positive")
    d = domain.dim
    tau = domain.inf_width
    if tau <= 0:
        raise ConfigurationError("domain has zero width")
    gamma = min(eps_acc / (2.0 * alpha_lip * math.sqrt(d)), 1.0 / (2.0 * alpha_lip))
    cells = int(math.ceil(tau / gamma))
    if cells**d > WALK_STATE_CAP:
        raise SizeCapError(
            f"grid would need {cells}^{d} states, above the cap {WALK_STATE_CAP}"
        )
    return _make(domain, cells)


def grid_with_cells(domain: Domain, cells_per_axis: int) -> GridSpec:
    """Explicitly sized grid."""
    if cells_per_axis < 1:
        raise ConfigurationError("cells_per_axis must be >= 1")
    return _make(domain, cells_per_axis)
