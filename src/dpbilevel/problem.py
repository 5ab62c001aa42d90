"""Problem containers and constant bookkeeping for private bilevel ERM.

The upper-level objective averages a per-record loss f(x, y, z) evaluated at
the minimizer y of a strongly convex lower-level average g(x, y, z).  All
regularity constants (Lipschitz, smoothness, curvature) are declared by the
caller; the library never estimates them from data, because an estimated
constant would itself leak information about the dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional

import numpy as np

from .errors import ConfigurationError
from .rng import make_generator

Vector = np.ndarray
Matrix = np.ndarray

#: additive slack used by probe_assumptions when comparing observed quantities
#: against declared bounds
PROBE_SLACK = 1e-6
#: relative difference allowed between a stacked callback call and the
#: per-point calls it replaces (different BLAS kernels round differently)
BATCH_RTOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """A dataset of n records stored as rows of a fixed-width array.

    Adjacency throughout the package means "one record replaced", which is
    what :meth:`replaced` produces.
    """

    points: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ConfigurationError("dataset must be a nonempty 2-d array of records")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def record(self, i: int) -> np.ndarray:
        return self.points[i]

    def replaced(self, i: int, record: np.ndarray) -> "Dataset":
        """Return the adjacent dataset with record ``i`` replaced."""
        pts = self.points.copy()
        pts[i] = np.asarray(record, dtype=float)
        return Dataset(pts)

    def cached(self, key: str, build: Callable[[np.ndarray], object]):
        """Memoize a derived statistic of the record array (e.g. its mean)."""
        if key not in self._cache:
            self._cache[key] = build(self.points)
        return self._cache[key]


def _row_norms(V: np.ndarray) -> np.ndarray:
    """Row l2 norms through the dot the point methods use, so they agree bit
    for bit; np.linalg.norm(V, axis=1) sums squares and can differ in the last bit."""
    return np.sqrt(np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class Domain:
    """A closed convex constraint set: a Euclidean ball or an axis-aligned box.

    The box bounds, the diameter and whether every half-width is positive
    (so the gauge needs no zero-width guard) are fixed at construction, so
    ``center`` and ``half_widths`` must not be mutated afterwards.
    """

    kind: str
    center: np.ndarray
    radius: Optional[float] = None
    half_widths: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.kind == "ball":
            if self.radius is None or self.radius < 0:
                raise ConfigurationError("ball domain needs a nonnegative radius")
            diameter = 2.0 * float(self.radius)
        elif self.kind == "box":
            if self.half_widths is None:
                raise ConfigurationError("box domain needs half_widths")
            hw = np.asarray(self.half_widths, dtype=float)
            if hw.shape != self.center.shape or np.any(hw < 0):
                raise ConfigurationError("half_widths must be nonnegative, same shape as center")
            object.__setattr__(self, "half_widths", hw)
            object.__setattr__(self, "_low", self.center - hw)
            object.__setattr__(self, "_high", self.center + hw)
            object.__setattr__(self, "_widths_positive", bool(np.all(hw > 0)))
            diameter = 2.0 * float(np.linalg.norm(hw))
        else:
            raise ConfigurationError(f"unknown domain kind {self.kind!r}")
        object.__setattr__(self, "_diameter", diameter)

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def diameter(self) -> float:
        """l2-diameter of the set."""
        return self._diameter

    @property
    def inf_width(self) -> float:
        """Side length of the smallest axis-aligned enclosing cube."""
        if self.kind == "ball":
            return 2.0 * float(self.radius)
        return 2.0 * float(np.max(self.half_widths))

    def max_norm(self) -> float:
        """Upper bound on ||x||_2 over the set."""
        if self.kind == "ball":
            return float(np.linalg.norm(self.center)) + float(self.radius)
        return float(np.linalg.norm(np.abs(self.center) + self.half_widths))

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "ball":
            v = x - self.center
            r = math.sqrt(v.dot(v))
            if r <= self.radius:
                return x.copy()
            return self.center + v * (self.radius / r)
        return np.clip(x, self._low, self._high)

    def project_many(self, X: np.ndarray) -> np.ndarray:
        """project on every row; rows already in the set come back unchanged."""
        X = np.asarray(X, dtype=float)
        if self.kind == "ball":
            V = X - self.center
            r = _row_norms(V)
            out = X.copy()
            outside = r > self.radius
            out[outside] = self.center + V[outside] * (self.radius / r[outside])[:, None]
            return out
        return np.clip(X, self._low, self._high)

    def contains(self, x: np.ndarray, tol: float = 1e-12) -> bool:
        return self.distance(x) <= tol

    def distance(self, x: np.ndarray) -> float:
        """l2 distance from x to the set (0 inside)."""
        x = np.asarray(x, dtype=float)
        v = x - self.project(x)
        return math.sqrt(v.dot(v))

    def distance_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return _row_norms(X - self.project_many(X))

    def _box_ratios(self, V: np.ndarray) -> np.ndarray:
        """|v| / half_widths along the last axis; a zero width gives 0 or inf."""
        if self._widths_positive:
            return np.abs(V) / self.half_widths
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.half_widths > 0, np.abs(V) / self.half_widths,
                            np.where(V == 0, 0.0, math.inf))

    def gauge(self, x: np.ndarray) -> float:
        """Minkowski gauge of x - center w.r.t. the centered set (<= 1 inside)."""
        v = np.asarray(x, dtype=float) - self.center
        if self.kind == "ball":
            if self.radius == 0:
                return 0.0 if not np.any(v) else math.inf
            return math.sqrt(v.dot(v)) / self.radius
        ratios = self._box_ratios(v)
        return float(ratios.max()) if ratios.size else 0.0

    def gauge_many(self, X: np.ndarray) -> np.ndarray:
        V = np.asarray(X, dtype=float) - self.center
        if self.kind == "ball":
            if self.radius == 0:
                return np.where(np.any(V, axis=1), math.inf, 0.0)
            return _row_norms(V) / self.radius
        return self._box_ratios(V).max(axis=1)

    def gauge_lip2(self) -> float:
        """l2-Lipschitz constant of the gauge function."""
        width = float(self.radius) if self.kind == "ball" else float(np.min(self.half_widths))
        if width == 0.0:
            raise ConfigurationError(
                "the gauge of a zero-width domain is not Lipschitz: the samplers "
                "need a positive radius and every half-width positive")
        return 1.0 / width

    def sample_uniform(self, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "ball":
            g = rng.standard_normal(self.dim)
            nrm = np.linalg.norm(g)
            if nrm == 0.0:
                return self.center.copy()
            u = rng.random() ** (1.0 / self.dim)
            return self.center + g * (self.radius * u / nrm)
        offs = rng.uniform(-1.0, 1.0, size=self.dim) * self.half_widths
        return self.center + offs


@dataclass(frozen=True)
class BilevelProblem:
    """Callbacks defining one bilevel ERM problem.

    Each callback is ``(x, y, Z) -> record average`` over the dataset ``Z``:
    ``f`` is the upper-level loss, ``grad_f_x``/``grad_f_y`` its gradients,
    and ``grad_g_y``, ``hess_g_xy``, ``hess_g_yy`` the gradient and Hessian
    blocks of the lower-level loss g.  A per-record value is the same
    callback on a one-record dataset, which is how
    :func:`probe_assumptions` checks the declared per-record constants
    against the code the mechanisms run.

    Callbacks broadcast over leading axes: with x of shape (..., d_x) and y
    of shape (..., d_y), ``f`` returns (...), the gradients (..., d) and the
    Hessian blocks (..., d_x, d_y) and (..., d_y, d_y), or one constant
    (d_x, d_y) / (d_y, d_y) matrix that broadcasts.  Score tables call them
    on whole batches of points (:meth:`batch_call`); the descent mechanisms
    call them on single points.
    """

    d_x: int
    d_y: int
    f: Callable[[Vector, Vector, Dataset], float]
    grad_f_x: Callable[[Vector, Vector, Dataset], Vector]
    grad_f_y: Callable[[Vector, Vector, Dataset], Vector]
    grad_g_y: Callable[[Vector, Vector, Dataset], Vector]
    hess_g_xy: Callable[[Vector, Vector, Dataset], Matrix]
    hess_g_yy: Callable[[Vector, Vector, Dataset], Matrix]
    domain_x: Domain
    y_box: Domain

    def __post_init__(self):
        dx, dy = self.d_x, self.d_y
        # each callback's value at one point, in the order probes report them
        object.__setattr__(self, "_point_shapes", {
            "f": (), "grad_f_x": (dx,), "grad_f_y": (dy,), "grad_g_y": (dy,),
            "hess_g_xy": (dx, dy), "hess_g_yy": (dy, dy)})

    def batch_call(self, name: str, x: np.ndarray, y: np.ndarray, Z: Dataset) -> np.ndarray:
        """Callback ``name`` on a batch x (B, d_x), y (B, d_y), shape-checked.

        The value must have shape (B, *s) for the callback's shape s at one
        point, or s alone for a Hessian block that does not depend on the
        point; anything else raises ConfigurationError naming the callback.
        """
        out = np.asarray(getattr(self, name)(x, y, Z), dtype=float)
        shape = self._point_shapes[name]
        if out.shape == (len(x),) + shape or (name.startswith("hess") and out.shape == shape):
            return out
        raise ConfigurationError(
            f"callback {name} returned shape {out.shape} for a batch of {len(x)} "
            f"points; expected {(len(x),) + shape}: callbacks must broadcast over "
            "leading axes of x and y")


@dataclass(frozen=True)
class AssumptionConstants:
    """Declared regularity constants of one problem instance.

    First-order bounds: L_fx, L_fy bound the per-record upper-level gradients,
    L_gy the lower-level gradient, mu_g the lower-level strong convexity.
    Second-order bounds: beta_* are smoothness constants of the gradients,
    M_* / C_* Lipschitz constants of the lower-level Hessian blocks in x / y.
    D_x and D_y are the l2-diameters of the feasible sets.
    """

    L_fx: float
    L_fy: float
    mu_g: float
    L_gy: float
    beta_fyy: float
    beta_fxx: float
    beta_fxy: float
    beta_gxy: float
    beta_gyy: float
    M_gxy: float
    M_gyy: float
    C_gxy: float
    C_gyy: float
    D_x: float
    D_y: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v) or v < 0:
                raise ConfigurationError(f"constant {f.name} must be finite and >= 0, got {v}")
        if self.mu_g <= 0:
            raise ConfigurationError("mu_g must be > 0")
        if self.D_y > self.L_gy / self.mu_g * (1 + 1e-12):
            raise ConfigurationError(
                "D_y must not exceed L_gy/mu_g "
                f"({self.D_y} > {self.L_gy / self.mu_g})"
            )


@dataclass(frozen=True)
class DerivedConstants:
    """Constants computed from AssumptionConstants (and n where applicable).

    s: replace-one-record sensitivity of Phi-hat used by the exponential
    mechanism; G: Lipschitz constant of Phi-hat in x; C: hypergradient bias
    constant; K: sensitivity constant of one hypergradient query; beta_phi:
    smoothness of Phi-hat; L_bar: hypergradient norm bound; Psi: excess-risk
    scale used by the warm-start stage.
    """

    s: float
    G: float
    C: float
    K: float
    beta_phi: float
    L_bar: float
    Psi: float


def derive_constants(a: AssumptionConstants, n: int) -> DerivedConstants:
    """Evaluate the closed-form derived constants for a dataset of size n."""
    if n < 1:
        raise ConfigurationError("n must be a positive integer")
    mu = a.mu_g
    L_bar = a.L_fx + a.beta_gxy * a.L_fy / mu
    s = (2.0 / n) * (a.L_fx * a.D_x + a.L_fy * a.D_y) + 4.0 * a.L_fy * a.L_gy / mu
    G = a.L_fx + a.L_fy * a.beta_gxy / mu + a.L_gy * a.beta_fxy / mu
    C = (
        a.beta_fxy
        + a.beta_fyy * a.beta_gxy / mu
        + a.L_fy * (a.C_gxy / mu + a.C_gyy * a.beta_gxy / mu**2)
    )
    K = 2.0 * (
        a.beta_fxy * a.L_gy / mu
        + 2.0 * L_bar
        + a.beta_gxy * a.beta_fyy * a.L_gy / mu**2
        + a.L_fy * a.C_gxy * a.L_gy / mu**2
        + a.L_fy * a.beta_gxy * a.L_gy * a.C_gyy / mu**3
        + a.L_fy * a.beta_gyy * a.beta_gxy / mu**2
    )
    beta_phi = (
        a.beta_fxx
        + 2.0 * a.beta_fxy * a.beta_gxy / mu
        + a.beta_gxy**2 * a.beta_fyy / mu**2
        + (a.L_fy * a.beta_gxy / mu**2) * (a.M_gyy + a.C_gyy * a.beta_gxy / mu)
        + a.L_fy * a.C_gxy * a.beta_gxy / mu**2
        + a.L_fy * a.M_gxy / mu
    )
    Psi = a.L_fx * a.D_x + a.L_fy * a.D_y + a.L_fy * a.L_gy / mu
    return DerivedConstants(s=s, G=G, C=C, K=K, beta_phi=beta_phi, L_bar=L_bar, Psi=Psi)


@dataclass
class ProbeReport:
    """Spot-check result: worst observed/declared ratio per constant.

    A probe can only falsify declared constants, never certify them.
    """

    trials: int
    ratios: Dict[str, float] = field(default_factory=dict)
    violations: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def _record(self, name: str, observed: float, bound: float, witness,
                slack: float = PROBE_SLACK) -> None:
        if bound > 0:
            ratio = observed / bound
        else:
            ratio = 0.0 if observed <= slack else math.inf
        if name not in self.ratios or ratio > self.ratios[name]:
            self.ratios[name] = ratio
        if observed > bound + slack:
            self.violations.append(
                {"name": name, "observed": observed, "bound": bound, "witness": witness}
            )


#: difference-quotient probes, in the order they run: (probe name, declared
#: constant, callback, norm order (None: vector 2-norm, 2: spectral), the
#: argument that moves)
_QUOTIENTS = (
    ("beta_fxx", "beta_fxx", "grad_f_x", None, "x"),
    ("beta_fxy", "beta_fxy", "grad_f_y", None, "x"),
    ("M_gxy", "M_gxy", "hess_g_xy", 2, "x"),
    ("M_gyy", "M_gyy", "hess_g_yy", 2, "x"),
    ("beta_fyy", "beta_fyy", "grad_f_y", None, "y"),
    ("beta_fxy_yside", "beta_fxy", "grad_f_x", None, "y"),
    ("C_gxy", "C_gxy", "hess_g_xy", 2, "y"),
    ("C_gyy", "C_gyy", "hess_g_yy", 2, "y"),
)


def probe_assumptions(
    p: BilevelProblem,
    a: AssumptionConstants,
    dataset: Dataset,
    trials: int = 100,
    rng_seed: int = 0,
) -> ProbeReport:
    """Sample (x, x', y, y', z) in the declared domains and test each bound.

    Per-record bounds are checked on the problem's own callbacks evaluated on
    a one-record dataset holding z, so they probe the code the mechanisms
    run.  Gradient-norm bounds are checked directly; smoothness and
    Hessian-Lipschitz bounds via difference quotients between paired points;
    strong convexity via the minimum eigenvalue of hess_g_yy averaged over
    the whole dataset.  ``batch_consistency`` compares one stacked call of
    each callback over the trial points (x, y) with the per-point calls, on
    the whole dataset, to relative error BATCH_RTOL: a callback that does
    not broadcast over leading axes fails it even where its result happens
    to have the right shape.
    """
    rng = make_generator(rng_seed)
    report = ProbeReport(trials=trials)
    xs, ys = [], []
    for _ in range(trials):
        x = p.domain_x.sample_uniform(rng)
        x2 = p.domain_x.sample_uniform(rng)
        y = p.y_box.sample_uniform(rng)
        y2 = p.y_box.sample_uniform(rng)
        xs.append(x)
        ys.append(y)
        i = int(rng.integers(dataset.n))
        z = Dataset(dataset.points[i:i + 1])
        witness = {"x": x.tolist(), "x2": x2.tolist(), "y": y.tolist(), "y2": y2.tolist(),
                   "z": dataset.record(i).tolist()}

        gfx, gfy = p.grad_f_x(x, y, z), p.grad_f_y(x, y, z)
        ggy = p.grad_g_y(x, y, z)
        report._record("L_fx", float(np.linalg.norm(gfx)), a.L_fx, witness)
        report._record("L_fy", float(np.linalg.norm(gfy)), a.L_fy, witness)
        report._record("L_gy", float(np.linalg.norm(ggy)), a.L_gy, witness)

        Hxy, Hyy = p.hess_g_xy(x, y, z), p.hess_g_yy(x, y, z)
        report._record("beta_gxy", float(np.linalg.norm(Hxy, 2)), a.beta_gxy, witness)
        report._record("beta_gyy", float(np.linalg.norm(Hyy, 2)), a.beta_gyy, witness)
        asym = float(np.max(np.abs(Hyy - Hyy.T))) / (1.0 + float(np.max(np.abs(Hyy))))
        report._record("hess_g_yy_symmetry", asym, 1e-8, witness)

        Hyy_avg = np.asarray(p.hess_g_yy(x, y, dataset), dtype=float)
        lam_min = float(np.linalg.eigvalsh(0.5 * (Hyy_avg + Hyy_avg.T))[0])
        # strong convexity: mu_g - lam_min must not exceed the slack
        report._record("mu_g", max(0.0, a.mu_g - lam_min), 0.0, witness)

        # difference quotients: each callback's change over |x - x2| with y
        # fixed, or over |y - y2| with x fixed
        moved = {"x": (x2, y, float(np.linalg.norm(x - x2))),
                 "y": (x, y2, float(np.linalg.norm(y - y2)))}
        for name, constant, callback, order, side in _QUOTIENTS:
            x_to, y_to, dist = moved[side]
            if dist > 1e-12:
                fn = getattr(p, callback)
                change = np.linalg.norm(fn(x, y, z) - fn(x_to, y_to, z), order)
                report._record(name, float(change) / dist, getattr(a, constant), witness)
    if trials:
        _probe_batch_consistency(p, dataset, np.array(xs), np.array(ys), report)
    return report


def _probe_batch_consistency(p, dataset, X, Y, report) -> None:
    for name in p._point_shapes:
        callback = getattr(p, name)
        per_point = np.array([np.asarray(callback(x, y, dataset), dtype=float)
                              for x, y in zip(X, Y)])
        try:
            stacked = np.broadcast_to(p.batch_call(name, X, Y, dataset), per_point.shape)
        except (ValueError, TypeError, IndexError) as exc:  # ConfigurationError included
            report._record("batch_consistency", math.inf, BATCH_RTOL,
                           {"callback": name, "error": str(exc)}, slack=0.0)
            continue
        dev = float(np.max(np.abs(stacked - per_point)))
        scale = float(np.max(np.abs(per_point)))
        rel = dev / scale if scale > 0 else (0.0 if dev == 0 else math.inf)
        if math.isnan(rel):
            rel = math.inf
        report._record("batch_consistency", rel, BATCH_RTOL, {"callback": name}, slack=0.0)
