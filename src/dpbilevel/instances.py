"""Closed-form test instances.

Three fixtures with analytically known lower-level solutions:

* ``hard``      -- linear upper level over a ball, quadratic tracking lower
                   level; the empirical objective is -L * zeta * <x, mean(Z)>,
                   minimized on the sphere along mean(Z).
* ``quadratic`` -- strongly convex quadratic in both levels; the implicit
                   objective is an explicit convex quadratic.
* ``ridge``     -- per-coordinate ridge-weight tuning: x parametrizes penalty
                   weights softplus(x) + floor, the lower level fits ridge
                   regression on train pairs, the upper level is validation
                   loss.  Nonconvex in x.

Each fixture bundles the problem callbacks, valid declared constants, the
closed forms, and a seeded dataset sampler, so mechanisms can be checked
against ground truth.  The callbacks broadcast over leading axes of x and y
(see BilevelProblem), reducing each row alone ((u * v).sum(axis=-1), _matvec)
so that a point rounds like a row of any batch; closed forms take points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .problem import AssumptionConstants, BilevelProblem, Dataset, Domain
from .rng import make_generator


@dataclass(frozen=True)
class InstanceFixture:
    """A problem plus its ground truth."""

    name: str
    problem: BilevelProblem
    constants: AssumptionConstants
    y_star: Callable[[np.ndarray, Dataset], np.ndarray]
    phi: Callable[[np.ndarray, Dataset], float]
    x_star: Optional[Callable[[Dataset], np.ndarray]]
    phi_star: Optional[Callable[[Dataset], float]]
    sample_dataset: Callable[[int, int], Dataset]
    grad_phi: Callable[[np.ndarray, Dataset], np.ndarray]


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v over the leading axes of v, one matrix-vector product per row
    (a batch v @ A.T would take a matrix-matrix kernel that rounds differently)."""
    return np.matmul(A, v[..., None])[..., 0]


def _uniform_ball(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((n, d))
    nrm = np.linalg.norm(g, axis=1, keepdims=True)
    nrm[nrm == 0] = 1.0
    r = radius * rng.random((n, 1)) ** (1.0 / d)
    return g / nrm * r


# ---------------------------------------------------------------------------
# hard instance
# ---------------------------------------------------------------------------

def sample_hard_dataset(n: int, d: int, seed: int = 0) -> Dataset:
    """n i.i.d. uniform sign vectors scaled to unit norm (entries +-1/sqrt(d))."""
    rng = make_generator(seed)
    signs = rng.integers(0, 2, size=(n, d)) * 2 - 1
    return Dataset(signs / math.sqrt(d))

def make_packed_hard_dataset(n: int, d: int, m_packed: int, seed: int = 0) -> Dataset:
    """A worst-case-style dataset whose mean has norm exactly m_packed / n.

    (n + m)/2 copies of one sign vector z0 and (n - m)/2 copies of -z0,
    shuffled.  Used by rate experiments, where an i.i.d. draw would have
    ||mean(Z)|| ~ n^{-1/2} and wash out the 1/n utility behaviour.
    """
    if not (0 <= m_packed <= n) or (n - m_packed) % 2 != 0:
        raise ConfigurationError("need 0 <= m_packed <= n with n - m_packed even")
    rng = make_generator(seed)
    z0 = (rng.integers(0, 2, size=d) * 2 - 1) / math.sqrt(d)
    k_plus = (n + m_packed) // 2
    pts = np.vstack([np.tile(z0, (k_plus, 1)), np.tile(-z0, (n - k_plus, 1))])
    rng.shuffle(pts, axis=0)
    return Dataset(pts)

def _zbar(Z: Dataset) -> np.ndarray:
    return Z.cached("mean", lambda pts: pts.mean(axis=0))


def make_hard_instance(
    L_fy: float = 1.0,
    mu_g: float = 1.0,
    D_x: float = 1.0,
    D_y: float = 1.0,
    d: int = 1,
) -> InstanceFixture:
    """Worst-case-style instance: f = -L_fy <y, z>, g tracks y = zeta * x."""
    zeta = D_y / D_x
    domain_x = Domain("ball", np.zeros(d), radius=D_x / 2.0)
    y_box = Domain("box", np.zeros(d), half_widths=np.full(d, D_y / 2.0))
    eye = np.eye(d)

    problem = BilevelProblem(
        d_x=d, d_y=d,
        f=lambda x, y, Z: -L_fy * (y * _zbar(Z)).sum(axis=-1),
        grad_f_x=lambda x, y, Z: np.zeros(np.shape(x)),
        grad_f_y=lambda x, y, Z: np.zeros(np.shape(y)) - L_fy * _zbar(Z),
        grad_g_y=lambda x, y, Z: mu_g * (y - zeta * x),
        hess_g_xy=lambda x, y, Z: -mu_g * zeta * eye,
        hess_g_yy=lambda x, y, Z: mu_g * eye,
        domain_x=domain_x, y_box=y_box,
    )

    # L_gy must cover y ranging over the corners of y_box, not just the
    # reachable ball, because probes sample the whole box.
    L_gy = mu_g * D_y * (1.0 + math.sqrt(d)) / 2.0
    constants = AssumptionConstants(
        L_fx=0.0, L_fy=L_fy, mu_g=mu_g, L_gy=L_gy,
        beta_fyy=0.0, beta_fxx=0.0, beta_fxy=0.0,
        beta_gxy=mu_g * zeta, beta_gyy=mu_g,
        M_gxy=0.0, M_gyy=0.0, C_gxy=0.0, C_gyy=0.0,
        D_x=D_x, D_y=D_y,
    )

    def y_star(x, Z):
        return zeta * np.asarray(x, dtype=float)

    def phi(x, Z):
        return -L_fy * zeta * float(np.dot(x, _zbar(Z)))

    def x_star(Z):
        zb = _zbar(Z)
        nrm = np.linalg.norm(zb)
        if nrm == 0:
            return domain_x.center.copy()
        return (D_x / 2.0) * zb / nrm

    def phi_star(Z):
        return -L_fy * zeta * (D_x / 2.0) * float(np.linalg.norm(_zbar(Z)))

    def grad_phi(x, Z):
        return -L_fy * zeta * _zbar(Z)

    return InstanceFixture(
        name="hard", problem=problem, constants=constants,
        y_star=y_star, phi=phi, x_star=x_star, phi_star=phi_star,
        sample_dataset=lambda n, seed=0: sample_hard_dataset(n, d, seed),
        grad_phi=grad_phi,
    )


# ---------------------------------------------------------------------------
# quadratic instance
# ---------------------------------------------------------------------------

def make_quadratic_instance(d_x: int = 2, d_y: int = 2, seed: int = 0) -> InstanceFixture:
    """f = 0.5||x - a_z||^2 + <b_z, y>,  g = 0.5||y - M x - c_z||^2.

    The lower-level solution is y = M x + mean(c); the implicit objective is a
    convex quadratic with an explicit constrained argmin.
    """
    rng = make_generator(seed)
    B = rng.standard_normal((d_y, d_x))
    M = 0.9 * B / np.linalg.norm(B, 2)
    sigma_M = float(np.linalg.norm(M, 2))
    r_a, r_b, r_c = 0.8, 0.5, 0.6
    R_x = 1.0
    domain_x = Domain("ball", np.zeros(d_x), radius=R_x)
    y_half = 1.6
    y_box = Domain("box", np.zeros(d_y), half_widths=np.full(d_y, y_half))
    eye_y = np.eye(d_y)

    def means(Z: Dataset):
        def build(pts):
            return {
                "a": pts[:, :d_x].mean(axis=0),
                "b": pts[:, d_x:d_x + d_y].mean(axis=0),
                "c": pts[:, d_x + d_y:].mean(axis=0),
                "a_sq": float((pts[:, :d_x] ** 2).sum(axis=1).mean()),
            }
        return Z.cached("quad_means", build)

    def f(x, y, Z):
        m = means(Z)
        return (0.5 * ((x * x).sum(axis=-1) - 2 * (x * m["a"]).sum(axis=-1) + m["a_sq"])
                + (y * m["b"]).sum(axis=-1))

    problem = BilevelProblem(
        d_x=d_x, d_y=d_y,
        f=f,
        grad_f_x=lambda x, y, Z: x - means(Z)["a"],
        grad_f_y=lambda x, y, Z: np.zeros(np.shape(y)) + means(Z)["b"],
        grad_g_y=lambda x, y, Z: y - _matvec(M, x) - means(Z)["c"],
        hess_g_xy=lambda x, y, Z: -M.T,
        hess_g_yy=lambda x, y, Z: eye_y,
        domain_x=domain_x, y_box=y_box,
    )

    constants = AssumptionConstants(
        L_fx=R_x + r_a, L_fy=r_b, mu_g=1.0,
        L_gy=y_half * math.sqrt(d_y) + sigma_M * R_x + r_c,
        beta_fyy=0.0, beta_fxx=1.0, beta_fxy=0.0,
        beta_gxy=sigma_M, beta_gyy=1.0,
        M_gxy=0.0, M_gyy=0.0, C_gxy=0.0, C_gyy=0.0,
        D_x=2 * R_x, D_y=2 * (sigma_M * R_x + r_c),
    )

    def y_star(x, Z):
        return M @ x + means(Z)["c"]

    def phi(x, Z):
        m = means(Z)
        return (0.5 * (float(np.dot(x, x)) - 2 * float(np.dot(x, m["a"])) + m["a_sq"])
                + float(np.dot(m["b"], M @ x + m["c"])))

    def grad_phi(x, Z):
        m = means(Z)
        return x - m["a"] + M.T @ m["b"]

    def x_star(Z):
        m = means(Z)
        return domain_x.project(m["a"] - M.T @ m["b"])

    def phi_star(Z):
        return phi(x_star(Z), Z)

    def sample_dataset(n, seed=0):
        r = make_generator(seed)
        pts = np.hstack([
            _uniform_ball(r, n, d_x, r_a),
            _uniform_ball(r, n, d_y, r_b),
            _uniform_ball(r, n, d_y, r_c),
        ])
        return Dataset(pts)

    return InstanceFixture(
        name="quadratic", problem=problem, constants=constants,
        y_star=y_star, phi=phi, x_star=x_star, phi_star=phi_star,
        sample_dataset=sample_dataset, grad_phi=grad_phi,
    )


# ---------------------------------------------------------------------------
# ridge hyperparameter instance
# ---------------------------------------------------------------------------

def make_ridge_hyperparam_instance(
    feature_dim: int = 2,
    seed: int = 0,
    x_half: float = 1.0,
    u_max: float = 0.7,
    v_max: float = 0.7,
    weight_floor: float = 1e-2,
    val_shrink: float = 0.1677,
    noise_scale: float = 0.01,
) -> InstanceFixture:
    """Per-coordinate ridge-weight tuning with softplus-parametrized weights.

    Record z = (u_tr, v_tr, u_val, v_val).  Lower level: ridge regression on
    the train pairs with weights w(x) = softplus(x) + weight_floor; upper
    level: squared validation residual.  Phi-hat is nonconvex in x.

    Validation targets are generated from an attenuated copy of the hidden
    regressor (factor ``val_shrink``), so the best penalty weight sits
    strictly inside the box rather than at a face: train-side fits want the
    penalty as small as possible, while attenuated validation targets reward
    shrinking the fit toward zero by a matching amount.  The additive floor
    keeps every penalty weight strictly positive, so the declared strong
    convexity never degenerates however wide the box is made.
    """
    k = feature_dim
    rng0 = make_generator(seed)
    w_hidden = rng0.standard_normal(k)
    w_hidden *= 0.8 / max(np.linalg.norm(w_hidden), 1e-12)

    domain_x = Domain("box", np.zeros(k), half_widths=np.full(k, x_half))
    mu_g = math.log1p(math.exp(-x_half)) + weight_floor
    w_max = math.log1p(math.exp(x_half)) + weight_floor
    sig_max = 1.0 / (1.0 + math.exp(-x_half))
    y_half = 1.1 * v_max / math.sqrt(mu_g)
    y_box = Domain("box", np.zeros(k), half_widths=np.full(k, y_half))
    y_norm_max = y_half * math.sqrt(k)

    def weights(x):
        return np.logaddexp(0.0, x) + weight_floor

    def sig(x):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))

    def stats(Z: Dataset):
        def build(pts):
            ut, vt = pts[:, :k], pts[:, k]
            uv, vv = pts[:, k + 1:2 * k + 1], pts[:, 2 * k + 1]
            return {
                "Ut": ut.T @ ut / len(pts),
                "mt": ut.T @ vt / len(pts),
                "Uv": uv.T @ uv / len(pts),
                "mv": uv.T @ vv / len(pts),
                "vv_sq": float(np.dot(vv, vv)) / len(pts),
            }
        return Z.cached("ridge_stats", build)

    eye = np.eye(k)

    def f(x, y, Z):
        st = stats(Z)
        return 0.5 * ((y * _matvec(st["Uv"], y)).sum(axis=-1)
                      - 2 * (y * st["mv"]).sum(axis=-1) + st["vv_sq"])

    def grad_f_y(x, y, Z):
        st = stats(Z)
        return _matvec(st["Uv"], y) - st["mv"]

    def grad_g_y(x, y, Z):
        st = stats(Z)
        return _matvec(st["Ut"], y) - st["mt"] + weights(x) * y

    problem = BilevelProblem(
        d_x=k, d_y=k,
        f=f,
        grad_f_x=lambda x, y, Z: np.zeros(np.shape(x)),
        grad_f_y=grad_f_y,
        grad_g_y=grad_g_y,
        hess_g_xy=lambda x, y, Z: (sig(x) * y)[..., None] * eye,
        hess_g_yy=lambda x, y, Z: stats(Z)["Ut"] + weights(x)[..., None] * eye,
        domain_x=domain_x, y_box=y_box,
    )

    L_fy = u_max * (u_max * y_norm_max + v_max)
    constants = AssumptionConstants(
        L_fx=0.0, L_fy=L_fy, mu_g=mu_g,
        L_gy=u_max * (u_max * y_norm_max + v_max) + w_max * y_norm_max,
        beta_fyy=u_max ** 2, beta_fxx=0.0, beta_fxy=0.0,
        beta_gxy=sig_max * y_half, beta_gyy=u_max ** 2 + w_max,
        M_gxy=0.25 * y_half, M_gyy=sig_max, C_gxy=sig_max, C_gyy=0.0,
        D_x=2 * x_half * math.sqrt(k), D_y=2 * v_max / math.sqrt(mu_g),
    )

    def y_star(x, Z):
        st = stats(Z)
        H = st["Ut"] + np.diag(weights(x))
        return np.linalg.solve(H, st["mt"])

    def phi(x, Z):
        st = stats(Z)
        ys = y_star(x, Z)
        return 0.5 * (float(ys @ st["Uv"] @ ys) - 2 * float(np.dot(st["mv"], ys))
                      + st["vv_sq"])

    def grad_phi(x, Z):
        st = stats(Z)
        H = st["Ut"] + np.diag(weights(x))
        ys = np.linalg.solve(H, st["mt"])
        gf = st["Uv"] @ ys - st["mv"]
        return -sig(x) * ys * np.linalg.solve(H, gf)

    def sample_dataset(n, seed=0):
        r = make_generator(seed)
        def pairs(shrink):
            u = _uniform_ball(r, n, k, u_max)
            v = shrink * (u @ w_hidden) + noise_scale * v_max * r.standard_normal(n)
            return u, np.clip(v, -v_max, v_max)
        ut, vt = pairs(1.0)
        uv, vv = pairs(val_shrink)
        return Dataset(np.hstack([ut, vt[:, None], uv, vv[:, None]]))

    return InstanceFixture(
        name="ridge", problem=problem, constants=constants,
        y_star=y_star, phi=phi, x_star=None, phi_star=None,
        sample_dataset=sample_dataset, grad_phi=grad_phi,
    )


_FACTORIES = {
    "hard": make_hard_instance,
    "quadratic": make_quadratic_instance,
    "ridge": make_ridge_hyperparam_instance,
}


def make_instance(name: str, **params) -> InstanceFixture:
    """Build a fixture by name ("hard", "quadratic", "ridge")."""
    if name not in _FACTORIES:
        raise ConfigurationError(f"unknown instance {name!r}; have {sorted(_FACTORIES)}")
    return _FACTORIES[name](**params)
