"""Latent-space geometry: pairwise boundaries, reflections, and trajectories.

The decision boundary between a source and a target class is a hyperplane
("mirror") given by the difference of their head weights. A step factor
k in [0, 1] travels a latent point from itself (k=0) through its projection
onto the boundary (k=0.5) to its reflection (k=1). In the multi-class case
the reflection is estimated with L-BFGS so that the source and target logits
swap while the remaining logits stay put.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classifier import head

FIRST_CFE_MIN_STEPS = 21  # the first-flip scan needs a grid at least this fine


class DegenerateMirrorError(ValueError):
    """The two classes have (numerically) identical weight columns."""


class NoFlipError(RuntimeError):
    """The multi-class prediction never flips to the target by k=1."""


class LbfgsStalledError(RuntimeError):
    """Line search failed; carries the best iterate found so far."""

    def __init__(self, message, x_best, f_best):
        super().__init__(message)
        self.x_best = x_best
        self.f_best = f_best


class ReflectionUnreachableError(RuntimeError):
    """Target logits could not be reached; carries the residual and iterate."""

    def __init__(self, message, residual, z_best):
        super().__init__(message)
        self.residual = residual
        self.z_best = z_best


@dataclass(frozen=True)
class Mirror:
    source: int
    target: int
    w: np.ndarray  # W_t - W_s, length N
    b: float  # b_t - b_s

    @property
    def unit(self) -> np.ndarray:
        return self.w / np.linalg.norm(self.w)


def make_mirror(W: np.ndarray, b: np.ndarray, s: int, t: int) -> Mirror:
    n = W.shape[1]
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"class indices must lie in [0, {n}), got source {s} and target {t}")
    if s == t:
        raise ValueError("source and target classes must differ")
    w_m = W[:, t] - W[:, s]
    if np.linalg.norm(w_m) < 1e-12:
        raise DegenerateMirrorError(f"classes {s} and {t} have identical weight columns")
    return Mirror(source=s, target=t, w=w_m, b=float(b[t] - b[s]))


def signed_distance(z: np.ndarray, mirror: Mirror) -> float:
    """Signed distance of z to the boundary hyperplane along the unit normal."""
    return float((mirror.w @ z + mirror.b) / np.linalg.norm(mirror.w))


def _travel(z_s: np.ndarray, mirror: Mirror, z_r_prime: np.ndarray | None) -> tuple[float, np.ndarray]:
    """The k-step as (scale, direction): step k displaces z_s by (scale * k) * direction.

    Toward the binary reflection the scale is -2 d(z_s), d the signed
    distance, and the direction is w_hat; toward a given multiclass reflection
    they are 1 and z_r_prime - z_s.
    """
    if z_r_prime is None:
        return -2.0 * signed_distance(z_s, mirror), mirror.unit
    return 1.0, z_r_prime - z_s


def _step(z_s: np.ndarray, k: float, scale: float, direction: np.ndarray) -> np.ndarray:
    if not (0.0 <= k <= 1.0):
        raise ValueError(f"step factor k={k} outside [0, 1]")
    if k == 0.0:
        return z_s.copy()
    return z_s + (scale * k) * direction


def position(z_s: np.ndarray, mirror: Mirror, k: float, z_r_prime: np.ndarray | None = None) -> np.ndarray:
    """Travel z_s k of the way to its reflection: z_k = z_s + (scale * k) * direction, see `_travel`.

    On the binary path k=0.5 lands exactly on the hyperplane (the projection)
    and k=1 gives the geometric reflection.
    """
    return _step(z_s, k, *_travel(z_s, mirror, z_r_prime))


def pair_confidence(z: np.ndarray, mirror: Mirror) -> float:
    """Pairwise two-class confidence sigmoid(w . z + b) for the target class."""
    return float(1.0 / (1.0 + np.exp(-(mirror.w @ z + mirror.b))))


def _kind(k: float) -> str:
    if k == 1.0:
        return "reflection"
    if k > 0.5:
        return "cfe"
    if k == 0.5:
        return "projection"
    return "sfe"


@dataclass(frozen=True)
class KfePoint:
    k: float
    z: np.ndarray
    q_pair: float
    p_multi: np.ndarray

    @property
    def kind(self) -> str:
        return _kind(self.k)


@dataclass(frozen=True)
class Trajectory:
    """KfePoints on a uniform k-grid of `steps` points from z_s (k=0) to k=1.

    The step's scale and direction are computed once; the grid's latents are
    one array, each row bit-equal to `position` at its k.
    """

    z_s: np.ndarray
    mirror: Mirror
    W: np.ndarray
    b: np.ndarray
    z_r_prime: np.ndarray | None = None
    steps: int = 21
    points: tuple[KfePoint, ...] = field(init=False)
    _scale_direction: tuple[float, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scale, direction = _travel(self.z_s, self.mirror, self.z_r_prime)
        object.__setattr__(self, "_scale_direction", (scale, direction))
        ks = np.linspace(0.0, 1.0, self.steps)
        grid = self.z_s + (scale * ks)[:, None] * direction
        grid[0] = self.z_s  # k=0 is a copy of z_s, as in `position`: a zero step would turn -0.0 into 0.0
        object.__setattr__(self, "points", tuple(self._point(float(k), z) for k, z in zip(ks, grid)))

    def latent_at(self, k: float) -> np.ndarray:
        return _step(self.z_s, k, *self._scale_direction)

    def point_at(self, k: float) -> KfePoint:
        return self._point(k, self.latent_at(k))

    def _point(self, k: float, z: np.ndarray) -> KfePoint:
        return KfePoint(k=k, z=z, q_pair=pair_confidence(z, self.mirror), p_multi=head(self.W, self.b, z)[1])


def sample_trajectory(z_s: np.ndarray, mirror: Mirror, W: np.ndarray, b: np.ndarray,
                      steps: int = 21, z_r_prime: np.ndarray | None = None) -> Trajectory:
    """Uniform k-grid of KfePoints from z_s (k=0) to the reflection (k=1), z_r_prime if given."""
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    return Trajectory(z_s=z_s, mirror=mirror, W=W, b=b, z_r_prime=z_r_prime, steps=steps)


def first_cfe(trajectory: Trajectory, tol: float = 1e-3) -> KfePoint:
    """Smallest-k point whose multi-class argmax is the target, via bisection.

    Scans the trajectory grid for the first flip, then bisects between the
    last unflipped and first flipped grid points until |delta k| <= tol.
    """
    if len(trajectory.points) < FIRST_CFE_MIN_STEPS:
        raise ValueError(f"first_cfe needs a trajectory of at least {FIRST_CFE_MIN_STEPS} steps")
    t = trajectory.mirror.target
    flip_idx = None
    for i, pt in enumerate(trajectory.points):
        if int(np.argmax(pt.p_multi)) == t:
            flip_idx = i
            break
    if flip_idx is None:
        raise NoFlipError(
            f"prediction never flips to class {t} by k=1 "
            f"(final argmax {int(np.argmax(trajectory.points[-1].p_multi))})")
    if flip_idx == 0:
        return trajectory.points[0]
    lo = trajectory.points[flip_idx - 1].k
    hi = trajectory.points[flip_idx].k
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if int(np.argmax(trajectory.point_at(mid).p_multi)) == t:
            hi = mid
        else:
            lo = mid
    return trajectory.point_at(hi)


# -- L-BFGS -------------------------------------------------------------------


@dataclass(frozen=True)
class LbfgsResult:
    x: np.ndarray
    value: float
    iterations: int
    grad_norm: float
    converged: bool


def lbfgs_minimize(fun, x0: np.ndarray, memory: int = 10, grad_tol: float = 1e-8,
                   max_iter: int = 500, max_halvings: int = 40) -> LbfgsResult:
    """Limited-memory BFGS with two-loop recursion and Armijo backtracking.

    fun(x) returns (value, gradient). Deterministic. Raises LbfgsStalledError
    if the line search fails after max_halvings step halvings.
    """
    armijo_c = 1e-4
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise ValueError("objective not finite at x0")
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    for it in range(max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= grad_tol:
            return LbfgsResult(x, float(f), it, gnorm, True)
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y in zip(reversed(s_hist), reversed(y_hist)):
            rho = 1.0 / (y @ s)
            a = rho * (s @ q)
            alphas.append((a, rho))
            q -= a * y
        if s_hist:
            s, y = s_hist[-1], y_hist[-1]
            q *= (s @ y) / (y @ y)
        for (a, rho), s, y in zip(reversed(alphas), s_hist, y_hist):
            q += (a - rho * (y @ q)) * s
        d = -q
        slope = g @ d
        if slope >= 0.0:  # not a descent direction; fall back to steepest descent
            d = -g
            slope = -(gnorm**2)
        step = 1.0
        for _ in range(max_halvings):
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            if np.isfinite(f_new) and f_new <= f + armijo_c * step * slope:
                break
            step *= 0.5
        else:
            raise LbfgsStalledError(f"line search stalled at iteration {it}", x, float(f))
        s_vec = x_new - x
        y_vec = g_new - g
        if s_vec @ y_vec > 1e-16:
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            if len(s_hist) > memory:
                s_hist.pop(0)
                y_hist.pop(0)
        x, f, g = x_new, f_new, g_new
    return LbfgsResult(x, float(f), max_iter, float(np.linalg.norm(g)), False)


def reflection_target_logits(W: np.ndarray, b: np.ndarray, z_s: np.ndarray, s: int, t: int) -> np.ndarray:
    """Source logits with the s and t entries swapped; all others unchanged."""
    l_s = W.T @ z_s + b
    target = l_s.copy()
    target[s], target[t] = l_s[t], l_s[s]
    return target


def multiclass_reflection(z_s: np.ndarray, mirror: Mirror, W: np.ndarray, b: np.ndarray,
                          residual_tol: float = 1e-3, max_iter: int = 500) -> tuple[np.ndarray, LbfgsResult]:
    """Estimate the reflection point z_r' whose logits swap source and target.

    Minimizes ||(W^T z + b) - l_target||^2 with L-BFGS, initialized from the
    closed-form binary reflection. Raises ReflectionUnreachableError if the
    residual stays above residual_tol (e.g. rank-deficient heads).
    """
    target = reflection_target_logits(W, b, z_s, mirror.source, mirror.target)

    def fun(z):
        r = W.T @ z + b - target
        return float(r @ r), 2.0 * (W @ r)

    z0 = position(z_s, mirror, 1.0)
    try:
        result = lbfgs_minimize(fun, z0, grad_tol=1e-12, max_iter=max_iter)
    except LbfgsStalledError as err:
        result = LbfgsResult(err.x_best, err.f_best, max_iter, np.nan, False)
    residual = float(np.linalg.norm(W.T @ result.x + b - target))
    if residual > residual_tol:
        raise ReflectionUnreachableError(
            f"reflection target logits unreachable (residual {residual:.3e} > {residual_tol:.1e})",
            residual, result.x)
    return result.x, result


def kfe_feature(f_s_last: np.ndarray, z_s: np.ndarray, k: float, mirror: Mirror,
                z_r_prime: np.ndarray | None = None) -> np.ndarray:
    """Shift the last-layer feature map so its GAP lands on the k-step latent.

    Every spatial cell takes the same travel: f_k = f_s + z_delta broadcast
    over the spatial grid, which keeps GAP(f_k) == z_k by linearity.
    """
    gap = f_s_last.mean(axis=(1, 2))
    if np.max(np.abs(gap - z_s)) > 1e-9:
        raise ValueError("GAP(f_s_last) does not match z_s (max deviation "
                         f"{np.max(np.abs(gap - z_s)):.3e})")
    scale, direction = _travel(z_s, mirror, z_r_prime)
    return f_s_last + ((scale * k) * direction)[:, None, None]
