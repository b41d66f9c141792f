"""Class activation maps and the CAM-guided spatial prior.

CAMs come straight from the head weights applied to the last feature map
before pooling. Source and target CAMs are thresholded and unioned into a
binary mask whose size grows with the step factor k; the mask gates where
the feature editor may change the skip-connection features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass(frozen=True)
class Cam:
    unnormalized: np.ndarray  # (|classes|, H_l, W_l)
    normalized: np.ndarray  # same shape, each channel in [0, 1]


def cam(W: np.ndarray, f_last: np.ndarray) -> Cam:
    """U_c[h,w] = sum_n W[n,c] f[n,h,w]; N^c = max(U^c,0)/max(U^c).

    A channel with no positive entry normalizes to all zeros.
    """
    if W.shape[0] != f_last.shape[0]:
        raise ad.ShapeError("cam", W.shape, f_last.shape)
    u = np.einsum("nc,nhw->chw", W, f_last)
    peak = u.max(axis=(1, 2), keepdims=True)
    normalized = np.where(peak > 0.0, np.maximum(u, 0.0) / np.where(peak > 0.0, peak, 1.0), 0.0)
    return Cam(unnormalized=u, normalized=normalized)


def rho(k: float, rho_lower: float, rho_upper: float) -> float:
    """Binarization threshold min(max(1-k, rho_lower), rho_upper)."""
    if not (0.0 <= rho_lower <= rho_upper <= 1.0):
        raise ValueError(f"need 0 <= rho_lower <= rho_upper <= 1, got {rho_lower}, {rho_upper}")
    if not (0.0 <= k <= 1.0):
        raise ValueError(f"step factor k={k} outside [0, 1]")
    return min(max(1.0 - k, rho_lower), rho_upper)


def nearest_upsample(mask: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    h, w = mask.shape
    th, tw = shape
    rows = (np.arange(th) * h) // th
    cols = (np.arange(tw) * w) // tw
    return mask[np.ix_(rows, cols)]


@dataclass(frozen=True)
class PriorMask:
    mask: np.ndarray  # binary (H_l, W_l)
    threshold: float
    k: float
    per_layer: dict[int, np.ndarray]  # layer index -> binary (H_i, W_i)


def prior_mask(cam_source: np.ndarray, cam_target: np.ndarray, threshold: float,
               k: float, layer_shapes: dict[int, tuple[int, int]]) -> PriorMask:
    """Union of the binarized source/target CAMs, upsampled per tapped layer."""
    if cam_source.shape != cam_target.shape:
        raise ad.ShapeError("prior_mask", cam_source.shape, cam_target.shape)
    mask = ((cam_source > threshold) | (cam_target > threshold)).astype(np.float64)
    per_layer = {i: nearest_upsample(mask, shape) for i, shape in layer_shapes.items()}
    return PriorMask(mask=mask, threshold=threshold, k=k, per_layer=per_layer)


def spe_transform(f_s_i, f_k_last, params: dict):
    """u = decoder(concat(bottleneck(f_s_i) pooled to f_k_last's size, f_k_last)).

    The bottleneck output is average-pooled until it has f_k_last's spatial
    size, and the decoder output upsampled back by nearest neighbour as many
    times; a size that is not a power-of-two multiple of f_k_last's raises a
    ShapeError. Differentiable end-to-end on Tensors; on ndarrays it runs
    tape-free (`ad.ops`).
    """
    size, steps = f_s_i.shape[2], 0
    while size > f_k_last.shape[2] and size % 2 == 0:
        size, steps = size // 2, steps + 1
    if size != f_k_last.shape[2]:
        raise ad.ShapeError("spe_transform", f_s_i.shape, f_k_last.shape)
    op = ad.ops(f_s_i)
    h = op.conv2d(f_s_i, params["spe0_bottleneck_w"], params["spe0_bottleneck_b"])
    for _ in range(steps):
        h = op.avgpool2(h)
    h = op.concat_channels(h, f_k_last)
    h = op.conv2d(h, params["spe0_decoder_w"], params["spe0_decoder_b"])
    for _ in range(steps):
        h = op.upsample2(h)
    return h


def csp_mix(f_s_i, u_k_i, mask: np.ndarray):
    """f' = (1 - M) * f_s + M * u on (B, C, H, W) features, M broadcast over channels.

    `mask` is one (H, W) mask for the whole batch or a (B, H, W) stack with
    one mask per batch element. Tensors build the tape, ndarrays run tape-free.
    """
    if f_s_i.shape != u_k_i.shape:
        raise ad.ShapeError("csp_mix", f_s_i.shape, u_k_i.shape)
    b, _, h, w = f_s_i.shape
    if mask.shape not in ((h, w), (b, h, w)):
        raise ad.ShapeError("csp_mix.mask", mask.shape, f_s_i.shape)
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ValueError("csp_mix requires a binary mask")
    m = np.broadcast_to(mask if mask.ndim == 2 else mask[:, None], f_s_i.shape).copy()
    op = ad.ops(f_s_i)
    return op.add(op.mul(f_s_i, op.constant(1.0 - m)), op.mul(u_k_i, op.constant(m)))
