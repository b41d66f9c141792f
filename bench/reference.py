"""Reference computations the benchmark checks mirrorcfe's outputs against.

Everything here is written from the file formats and the method's
definitions, and nothing here imports mirrorcfe. Convolutions are explicit
sums of nine shifted copies of the padded input, so they share no code with
the program's im2col kernels and its autodiff tape.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# -- file formats ----------------------------------------------------------------

# magic, width, height and maxval, separated by whitespace or '#' comment lines,
# then exactly one whitespace byte before the pixels
_P5_HEADER = re.compile(rb"P5(?:\s|#[^\n]*\n)+(\d+)(?:\s|#[^\n]*\n)+(\d+)(?:\s|#[^\n]*\n)+(\d+)\s")


def read_p5(path) -> np.ndarray:
    """Read an 8-bit binary PGM as a (1, H, W) float array of value/255."""
    raw = Path(path).read_bytes()
    m = _P5_HEADER.match(raw)
    if m is None:
        raise ValueError(f"{path}: not a binary PGM header")
    width, height, maxval = (int(g) for g in m.groups())
    if maxval != 255:
        raise ValueError(f"{path}: maxval {maxval}, expected 255")
    pixels = raw[m.end():]
    if len(pixels) != width * height:
        raise ValueError(f"{path}: {len(pixels)} pixel bytes for a {width}x{height} image")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(1, height, width) / 255.0


def read_mcfe1(path) -> tuple[str, dict[str, np.ndarray]]:
    """Read an MCFE1 checkpoint: magic, u32 manifest length, JSON manifest, float64 payloads."""
    raw = Path(path).read_bytes()
    if raw[:5] != b"MCFE1":
        raise ValueError(f"{path}: bad magic")
    (length,) = struct.unpack_from("<I", raw, 5)
    manifest = json.loads(raw[9 : 9 + length])
    base = 9 + length
    tensors = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        start = base + entry["offset"]
        count = int(np.prod(shape, dtype=np.int64))
        tensors[entry["name"]] = np.frombuffer(raw[start : start + 8 * count], dtype="<f8").reshape(shape)
    return manifest["role"], tensors


# -- networks ---------------------------------------------------------------------


def conv3x3(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero-padded 'same' 3x3 convolution of (B, C, H, W) by (K, C, 3, 3)."""
    _, _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    y = np.broadcast_to(bias[None, :, None, None], (x.shape[0], w.shape[0], h, wd)).copy()
    for di in range(3):
        for dj in range(3):
            y += np.einsum("kc,bchw->bkhw", w[:, :, di, dj], xp[:, :, di : di + h, dj : dj + wd])
    return y


def relu(x):
    return np.maximum(x, 0.0)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def avgpool2(x: np.ndarray) -> np.ndarray:
    b, c, h, w = x.shape
    return x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def upsample2(x: np.ndarray) -> np.ndarray:
    return x.repeat(2, axis=2).repeat(2, axis=3)


@dataclass
class Forward:
    f_last: np.ndarray  # (B, C_l, H_l, W_l)
    z: np.ndarray  # (B, C_l)
    logits: np.ndarray  # (B, classes)
    probs: np.ndarray


def classifier_forward(t: dict[str, np.ndarray], x: np.ndarray) -> Forward:
    """Conv-ReLU-avgpool stages, global average pooling, affine head, softmax."""
    h = x
    stage = 0
    while f"conv{stage}_w" in t:
        h = avgpool2(relu(conv3x3(h, t[f"conv{stage}_w"], t[f"conv{stage}_b"])))
        stage += 1
    z = h.mean(axis=(2, 3))
    logits = z @ t["head_w"] + t["head_b"]
    return Forward(f_last=h, z=z, logits=logits, probs=softmax(logits))


def decode(g: dict[str, np.ndarray], f: np.ndarray) -> np.ndarray:
    """Plain (non-SSC) generator: upsample, conv-ReLU, upsample, conv-ReLU, conv-sigmoid."""
    if "g_fuse_w" in g:
        raise ValueError("the reference decoder covers the plain generator only, not SSC")
    h = relu(conv3x3(upsample2(f), g["g_conv1_w"], g["g_conv1_b"]))
    h = relu(conv3x3(upsample2(h), g["g_conv2_w"], g["g_conv2_b"]))
    return sigmoid(conv3x3(h, g["g_out_w"], g["g_out_b"]))


# -- mirror geometry ---------------------------------------------------------------


@dataclass(frozen=True)
class MirrorPath:
    """The reflection path of one latent z from source s toward target t.

    With w = W_t - W_s and a = w.z + b_t - b_s, the k-step latent is
    z(k) = z - 2k a w / |w|^2, so w.z(k) + b_t - b_s = (1 - 2k) a and the pair
    confidence is q(k) = sigmoid((1 - 2k) a). The logits are affine in k:
    l(k) = l(0) + k * delta.
    """

    z: np.ndarray
    step: np.ndarray  # z(1) - z
    margin: float  # a
    logits0: np.ndarray
    delta: np.ndarray
    target: int

    def latent(self, k: float) -> np.ndarray:
        return self.z + k * self.step

    def q(self, k: float) -> float:
        return float(sigmoid((1.0 - 2.0 * k) * self.margin))

    def logits(self, k: float) -> np.ndarray:
        return self.logits0 + k * self.delta


def mirror_path(W: np.ndarray, b: np.ndarray, z: np.ndarray, s: int, t: int) -> MirrorPath:
    w = W[:, t] - W[:, s]
    margin = float(w @ z + b[t] - b[s])
    step = -2.0 * margin * w / float(w @ w)
    return MirrorPath(z=z, step=step, margin=margin, logits0=z @ W + b, delta=step @ W, target=t)


def first_flip_k(path: MirrorPath) -> float | None:
    """Smallest k in [0, 1] from which the target wins every logit, or None.

    Each gap l_t(k) - l_j(k) = c_j + k e_j is affine, so the set of k where the
    target leads is an interval: its lower end is the largest root of a rising
    gap, its upper end the smallest root of a falling one.
    """
    t = path.target
    lo, hi = 0.0, 1.0
    for j in range(len(path.logits0)):
        if j == t:
            continue
        c = path.logits0[t] - path.logits0[j]
        e = path.delta[t] - path.delta[j]
        if e > 0.0:
            lo = max(lo, -c / e)
        elif e < 0.0:
            hi = min(hi, -c / e)
        elif c <= 0.0:
            return None
    return lo if lo < hi else None
