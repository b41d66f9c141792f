"""Latent-space geometry: pairwise boundaries, reflections, and trajectories.

The decision boundary between a source and a target class is a hyperplane
("mirror") given by the difference of their head weights. A step factor
k in [0, 1] travels a latent point from itself (k=0) through its projection
onto the boundary (k=0.5) to its reflection (k=1). In the multi-class case
the reflection z_r' is the least-squares point whose source and target logits
swap while the remaining logits stay put, computed in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import head

FIRST_CFE_MIN_STEPS = 21  # the first-flip scan needs a grid at least this fine
# A target logit that leads every other by no more than this is a tie, not a flip: on the binary
# path k = 0.5 lands on the boundary, where the s/t logit gap is rounding noise of either sign.
FLIP_MARGIN = 1e-9
CFE_TOL = 1e-3  # first_cfe_batch bisects until the flip is bracketed this tightly in k
REFLECTION_RESIDUAL_TOL = 1e-3  # largest logit residual multiclass_reflection accepts


class DegenerateMirrorError(ValueError):
    """The two classes have (numerically) identical weight columns."""


class ReflectionUnreachableError(RuntimeError):
    """Target logits could not be reached; carries the residual and the least-squares point z_best."""

    def __init__(self, message, residual=None, z_best=None):  # pickle rebuilds from the message, then the dict
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


def _travel(z_s: np.ndarray, mirror: Mirror, z_r_prime: np.ndarray | None) -> tuple[float | np.ndarray, np.ndarray]:
    """The k-step as (scale, direction): step k displaces z_s by (scale * k) * direction.

    Toward the binary reflection the scale is -2 d(z_s), d the signed
    distance, and the direction is w_hat; toward a given multiclass reflection
    they are 1 and z_r_prime - z_s. For a stack of latents (R, N) the scale
    holds one entry per row, each from that row's own `signed_distance` (one
    product over the stack would differ from the per-row dots in the last bits).
    """
    if z_r_prime is None:
        d = signed_distance(z_s, mirror) if z_s.ndim == 1 else np.array([signed_distance(z, mirror) for z in z_s])
        return -2.0 * d, mirror.unit
    return 1.0, z_r_prime - z_s


def _displace(z_s: np.ndarray, amount, direction: np.ndarray) -> np.ndarray:
    """z_s + amount * direction, with one amount per latent of z_s (a float for one latent)."""
    return z_s + np.asarray(amount)[..., None] * direction


def _step(z_s: np.ndarray, k: float, scale, direction: np.ndarray) -> np.ndarray:
    if not (0.0 <= k <= 1.0):
        raise ValueError(f"step factor k={k} outside [0, 1]")
    if k == 0.0:
        return z_s.copy()
    return _displace(z_s, scale * k, direction)


def position(z_s: np.ndarray, mirror: Mirror, k: float, z_r_prime: np.ndarray | None = None) -> np.ndarray:
    """Travel z_s k of the way to its reflection: z_k = z_s + (scale * k) * direction, see `_travel`.

    On the binary path k=0.5 lands exactly on the hyperplane (the projection)
    and k=1 gives the geometric reflection.
    """
    return _step(z_s, k, *_travel(z_s, mirror, z_r_prime))


def pair_confidence(z: np.ndarray, mirror: Mirror) -> float | np.ndarray:
    """Pairwise two-class confidence sigmoid(w . z + b) for the target class: a float for one
    latent (N,), an (M,) array for a stack of them (M, N)."""
    with np.errstate(over="ignore"):  # a margin below about -709 overflows exp to inf, giving q = 0
        q = 1.0 / (1.0 + np.exp(-(z @ mirror.w + mirror.b)))
    return q if z.ndim == 2 else float(q)


@dataclass(frozen=True)
class Trajectory:
    """A uniform k-grid from z_s (k=0) to k=1, kept as arrays; `sample_trajectory` builds it.

    Step k displaces z_s by (scale * k) * direction, see `_travel`. `grid`
    holds the latents, one row per k in `ks`, each bit-equal to `position` at
    its k, and `logits` and `probs` are the head on the whole grid in one
    product. `latent_at` takes the same step at any k.

    z_s is one latent (N,) or a stack of them (R, N). For a stack, `scale`,
    `grid`, `logits`, `probs` and `latent_at` gain a leading axis of R, and
    row i is bit-equal to the trajectory of z_s[i] alone.
    """

    z_s: np.ndarray
    mirror: Mirror
    W: np.ndarray
    b: np.ndarray
    scale: float | np.ndarray
    direction: np.ndarray
    ks: np.ndarray
    grid: np.ndarray  # ([R,] steps, N)
    logits: np.ndarray  # ([R,] steps, |classes|)
    probs: np.ndarray

    def latent_at(self, k: float) -> np.ndarray:
        return _step(self.z_s, k, self.scale, self.direction)


def sample_trajectory(z_s: np.ndarray, mirror: Mirror, W: np.ndarray, b: np.ndarray,
                      steps: int = 21, z_r_prime: np.ndarray | None = None) -> Trajectory:
    """Uniform k-grid from z_s (k=0) to the reflection (k=1), z_r_prime if given; row-wise for a stack z_s."""
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    scale, direction = _travel(z_s, mirror, z_r_prime)
    ks = np.linspace(0.0, 1.0, steps)
    grid = _displace(z_s[..., None, :], np.multiply.outer(scale, ks), direction[..., None, :])
    grid[..., 0, :] = z_s  # k=0 is a copy of z_s, as in `position`: a zero step would turn -0.0 into 0.0
    logits, probs = head(W, b, grid)  # a stack's (R, steps, N) grid is one gemm per trajectory
    return Trajectory(z_s, mirror, W, b, scale, direction, ks, grid, logits, probs)


def _leads(logits: np.ndarray, target: int) -> np.ndarray:
    """Where the target logit leads every other one by more than FLIP_MARGIN, for logits (..., C)."""
    rivals = logits.copy()
    rivals[..., target] = -np.inf
    return logits[..., target] - rivals.max(axis=-1) > FLIP_MARGIN


def first_cfe_batch(trajectory: Trajectory) -> np.ndarray:
    """Smallest k whose multi-class prediction is the target, for each trajectory; NaN where it never flips.

    Scans each trajectory grid's logits for the first flip, then bisects
    between the last unflipped and first flipped grid points until
    |delta k| <= CFE_TOL, on the head's logits at each midpoint, all trajectories
    at once. A point counts as flipped only when the target leads by more
    than FLIP_MARGIN, so a flip at the binary projection k = 0.5 is reported
    as the first bisection point past it, whatever the last bits of the tie.

    A stack's midpoint logits are one product (gemm), which can differ from
    one trajectory's one-row product (gemv) in the last bits: a decision can
    only differ where the target's lead lies within rounding of FLIP_MARGIN.
    """
    if len(trajectory.ks) < FIRST_CFE_MIN_STEPS:
        raise ValueError(f"first_cfe_batch needs a trajectory of at least {FIRST_CFE_MIN_STEPS} steps")
    t = trajectory.mirror.target
    flips = _leads(trajectory.logits, t)
    flip_idx = np.argmax(flips, axis=-1)
    hi = trajectory.ks[flip_idx]
    lo = np.where(flip_idx > 0, trajectory.ks[flip_idx - 1], hi)  # a flip at k=0, or none: nothing to bisect
    scale, direction = trajectory.scale, trajectory.direction
    while True:
        bisecting = hi - lo > CFE_TOL
        if not bisecting.any():
            break
        mid = 0.5 * (lo + hi)
        # `head`'s logits at the midpoints, no softmax
        leads = _leads(_displace(trajectory.z_s, scale * mid, direction) @ trajectory.W + trajectory.b, t)
        hi = np.where(bisecting & leads, mid, hi)
        lo = np.where(bisecting & ~leads, mid, lo)
    return np.where(flips.any(axis=-1), hi, np.nan)


def reflection_target_logits(W: np.ndarray, b: np.ndarray, z_s: np.ndarray, s: int, t: int) -> np.ndarray:
    """Source logits with the s and t entries swapped; all others unchanged."""
    l_s = W.T @ z_s + b
    target = l_s.copy()
    target[s], target[t] = l_s[t], l_s[s]
    return target


@dataclass(frozen=True)
class ReflectionSolve:
    """How `multiclass_reflection` reached z_r': one Gauss-Newton step, exact for its linear residual."""

    iterations: int = 1


def multiclass_reflection(z_s: np.ndarray, mirror: Mirror, W: np.ndarray,
                          b: np.ndarray) -> tuple[np.ndarray, ReflectionSolve]:
    """The reflection point z_r' whose logits swap source and target and leave the others put.

    Minimizes ||(W^T z + b) - l_target||^2, which is linear least squares:
    z_r' is the binary reflection z0 = position(z_s, mirror, 1.0) minus the
    minimum-norm least-squares correction, the minimizer nearest z0. Raises
    ReflectionUnreachableError if the residual exceeds REFLECTION_RESIDUAL_TOL,
    which a head of rank below its class count (fewer latent dimensions than
    classes, say) can leave.
    """
    target = reflection_target_logits(W, b, z_s, mirror.source, mirror.target)
    z0 = position(z_s, mirror, 1.0)
    z_r = z0 - np.linalg.lstsq(W.T, W.T @ z0 + b - target, rcond=None)[0]
    residual = float(np.linalg.norm(W.T @ z_r + b - target))
    if residual > REFLECTION_RESIDUAL_TOL:
        raise ReflectionUnreachableError(
            f"reflection target logits unreachable (residual {residual:.3e} > {REFLECTION_RESIDUAL_TOL:.1e})",
            residual, z_r)
    return z_r, ReflectionSolve()


def kfe_feature(f_s_last: np.ndarray, z_s: np.ndarray, k: float, mirror: Mirror,
                z_r_prime: np.ndarray | None = None) -> np.ndarray:
    """Shift the last-layer feature map so its GAP lands on the k-step latent.

    Every spatial cell takes the same travel: f_k = f_s + z_delta broadcast
    over the spatial grid, which keeps GAP(f_k) == z_k by linearity. A stack
    of maps (R, C_l, H_l, W_l) with its latents (R, N) shifts row-wise,
    each row bit-equal to its own shift.
    """
    deviation = np.max(np.abs(f_s_last.mean(axis=(-2, -1)) - z_s))
    if deviation > 1e-9:
        raise ValueError(f"GAP(f_s_last) does not match z_s (max deviation {deviation:.3e})")
    scale, direction = _travel(z_s, mirror, z_r_prime)
    return f_s_last + (np.asarray(scale * k)[..., None] * direction)[..., None, None]
