"""The generator's loss suite.

All losses accept autodiff Tensors (or plain arrays, lifted to constants) and
return scalar Tensors, so the same code backs training and standalone metric
evaluation. Pixel distances are per-pixel means so band arithmetic in the
triangulation loss is resolution-independent; latent distances are Euclidean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

RATIO_FLOOR = 1e-6  # least latent distance and least ratio in the triangulation loss


class RatioDegenerateError(ValueError):
    """SFE triangulation with z_k == z_s and a reference different from x_s."""


@dataclass(frozen=True)
class TriConfig:
    alpha: float = 0.2

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")


def loss_cls(p_intended, p_predicted) -> ad.Tensor:
    """KL divergence from the intended distribution to the predicted one."""
    p = ad._lift(p_intended)
    p_hat = ad._lift(p_predicted)
    for name, t in (("p_intended", p), ("p_predicted", p_hat)):
        sums = t.data.sum(axis=-1)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            raise ValueError(f"loss_cls: {name} is not normalized (sum {sums})")
    out = ad.kld(p, p_hat)
    if p.data.ndim == 2:  # mean over the batch
        out = ad.scale(out, 1.0 / p.data.shape[0])
    return out


def loss_adv(d_real, d_fake) -> tuple[ad.Tensor, ad.Tensor, bool]:
    """Non-saturating generator term and the standard discriminator term.

    Discriminator outputs are clamped into [1e-12, 1 - 1e-12]; the returned
    flag reports whether clamping fired.
    """
    d_real = ad._lift(d_real)
    d_fake = ad._lift(d_fake)
    eps = 1e-12
    clamped = bool(np.any(d_real.data <= eps) or np.any(d_real.data >= 1 - eps)
                   or np.any(d_fake.data <= eps) or np.any(d_fake.data >= 1 - eps))
    g_term = ad.scale(ad.mean(ad.log(d_fake)), -1.0)
    one_minus_fake = ad.sub(ad.constant(np.ones_like(d_fake.data)), d_fake)
    d_term = ad.scale(ad.add(ad.mean(ad.log(d_real)), ad.mean(ad.log(one_minus_fake))), -1.0)
    return g_term, d_term, clamped


def loss_rec(x, x_regenerated) -> ad.Tensor:
    """Mean absolute difference between an image and its regeneration."""
    return ad.l1_distance(ad._lift(x), ad._lift(x_regenerated))


def loss_fea(z_k, z_roundtrip) -> ad.Tensor:
    """Euclidean distance between the intended latent and its roundtrip."""
    a, b = ad._lift(z_k), ad._lift(z_roundtrip)
    if a.shape != b.shape:
        raise ad.ShapeError("loss_fea", a.shape, b.shape)
    return ad.l2_norm(ad.sub(a, b))


def tri_ratio(z_s: np.ndarray, z_k: np.ndarray, z_ref: np.ndarray) -> float:
    """Latent distance ratio ||z_k - z_ref|| / ||z_s - z_k||, its denominator floored at RATIO_FLOOR."""
    return float(np.linalg.norm(z_k - z_ref) / max(np.linalg.norm(z_s - z_k), RATIO_FLOOR))


def loss_tri(x_s, x_k, x_ref, z_s: np.ndarray, z_k: np.ndarray, z_ref: np.ndarray,
             k: float, cfg: TriConfig = TriConfig()) -> ad.Tensor:
    """Hinge on the pixel distance |x_s - x_k| against the latent-ratio band.

    With r = ||z_k - z_ref|| / ||z_s - z_k|| and d_ref = |x_k - x_ref|, the
    admissible band is [(1-alpha)/r * d_ref, (1+alpha)/r * d_ref]; the loss is
    the distance of |x_s - x_k| to that band, zero inside it. For k >= 0.5 the
    reference is a target-class image, for k < 0.5 a source-class image.
    """
    x_s, x_k, x_ref = ad._lift(x_s), ad._lift(x_k), ad._lift(x_ref)
    if np.array_equal(z_k, z_s):
        if k < 0.5 and not np.array_equal(x_ref.data, x_s.data):
            raise RatioDegenerateError("z_k == z_s with a reference different from x_s")
        return ad.constant(0.0)
    r = max(tri_ratio(z_s, z_k, z_ref), RATIO_FLOOR)
    d_ref = ad.l1_distance(x_k, x_ref)
    d_sk = ad.l1_distance(x_s, x_k)
    lower = ad.scale(d_ref, (1.0 - cfg.alpha) / r)
    upper = ad.scale(d_ref, (1.0 + cfg.alpha) / r)
    return ad.add(ad.relu(ad.sub(lower, d_sk)), ad.relu(ad.sub(d_sk, upper)))
