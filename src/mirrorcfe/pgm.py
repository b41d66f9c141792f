"""Binary PGM (P5) reading and writing, 8-bit, single channel."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _to_bytes(image: np.ndarray) -> np.ndarray:
    """A (H, W) or (1, H, W) float image in [0, 1] as (H, W) 8-bit levels."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3:
        if img.shape[0] != 1:
            raise ValueError(f"write_pgm expects a single channel, got shape {img.shape}")
        img = img[0]
    if img.ndim != 2:
        raise ValueError(f"write_pgm expects 2-D data, got shape {img.shape}")
    return np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)


def _from_bytes(levels: np.ndarray) -> np.ndarray:
    return levels[None].astype(np.float64) / 255.0


def quantize(image: np.ndarray) -> np.ndarray:
    """The (1, H, W) image that read_pgm returns for a file write_pgm wrote from `image`."""
    return _from_bytes(_to_bytes(image))


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a (H, W) or (1, H, W) float image in [0, 1] as 8-bit P5."""
    quantized = _to_bytes(image)
    h, w = quantized.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(quantized.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    """Read an 8-bit P5 file back to a (1, H, W) float image in [0, 1]."""
    with open(path, "rb") as f:
        raw = f.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        if pos == len(raw):
            break
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    magic = fields[0] if fields else b""
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {magic!r})")
    if len(fields) < 4 or not all(f.isdigit() for f in fields[1:]):
        raise ValueError(f"{path}: PGM header needs width, height and maxval as integers, got {fields[1:]!r}")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if w == 0 or h == 0:
        raise ValueError(f"{path}: PGM width and height must be positive, got {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace after maxval
    if len(raw) - pos < w * h:
        raise ValueError(f"{path}: {w}x{h} image needs {w * h} payload bytes, file has {max(len(raw) - pos, 0)}")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=pos)
    return _from_bytes(pixels.reshape(h, w))
