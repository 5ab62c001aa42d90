"""Score evaluators: possibly perturbed oracles for the walk's energy.

An Evaluator wraps one batch oracle for f'(theta) = f(theta) + perturbation
with |perturbation| <= zeta_bound, plus the declared infinity-norm Lipschitz
constant of the exact f; a single point is a batch of one, and a row's
value does not depend on its batch (tested for every sampler score).
ExtendedEvaluator turns a score on a convex body into one on its enclosing
cube: project onto the body, add the projection distance times the
l2-Lipschitz constant, and add a gauge penalty pushing mass back into the
body.  Inside the body the extension equals the original score exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..problem import Domain, _row_norms

#: rows ExtendedEvaluator.evaluate_many scores per base call; bounds the
#: memory a batch's intermediate arrays take on large grids
CHUNK_ROWS = 2**14


@dataclass(frozen=True)
class Evaluator:
    """Inexact score oracle.

    evaluate_many maps an (m, d) matrix of points to their m values
    f'(theta); the exact f must be alpha_lip-Lipschitz in the infinity norm
    and the perturbation bounded by zeta_bound pointwise.
    """

    evaluate_many: Callable[[np.ndarray], np.ndarray]
    zeta_bound: float
    alpha_lip: float


class ExtendedEvaluator:
    """Lipschitz extension of a body-supported score to the enclosing cube.

    ext(theta) = base(proj(theta)) + L2 * dist(theta, body)
                 + alpha_gauge * max(0, gauge(theta) - 1)

    with alpha_gauge = 2 * L2 * diameter, heavy enough that the mass the
    extension leaves outside the body stays negligible.  The extension is
    exact on the body, and its infinity-norm Lipschitz constant is tracked
    so grids can be sized from declared quantities only.
    """

    def __init__(self, base: Evaluator, domain: Domain, L_lip2: float):
        self.base = base
        self.domain = domain
        self.L_lip2 = float(L_lip2)
        self.alpha_gauge = 2.0 * self.L_lip2 * domain.diameter
        self.zeta_bound = base.zeta_bound
        rd = math.sqrt(domain.dim)
        base_term = min(base.alpha_lip, rd * L_lip2) if base.alpha_lip > 0 else rd * L_lip2
        self.alpha_lip = base_term + rd * (L_lip2 + self.alpha_gauge * domain.gauge_lip2())

    def eval(self, theta: np.ndarray) -> float:
        """ext at one point, through the Domain point methods."""
        p = self.domain.project(theta)
        val = float(self.base.evaluate_many(p[None])[0])
        val += self.L_lip2 * float(np.linalg.norm(np.asarray(theta, float) - p))
        g = self.domain.gauge(theta)
        if g > 1.0:
            val += self.alpha_gauge * (g - 1.0)
        return val

    def evaluate_many(self, thetas: np.ndarray) -> np.ndarray:
        """ext on every row, CHUNK_ROWS rows per base call; each row equals eval."""
        thetas = np.asarray(thetas, dtype=float)
        out = np.empty(len(thetas))
        for start in range(0, len(thetas), CHUNK_ROWS):
            chunk = thetas[start:start + CHUNK_ROWS]
            proj = self.domain.project_many(chunk)
            vals = self.base.evaluate_many(proj)
            vals = vals + self.L_lip2 * _row_norms(chunk - proj)
            out[start:start + len(chunk)] = (
                vals + self.alpha_gauge * np.maximum(self.domain.gauge_many(chunk) - 1.0, 0.0))
        return out
