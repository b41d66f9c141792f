"""MCFE1 checkpoint files.

Layout: magic bytes `MCFE1`, a 4-byte little-endian unsigned manifest length,
a UTF-8 JSON manifest, then the concatenated little-endian float64 tensor
payloads. The manifest lists tensor names, shapes, and byte offsets (relative
to the start of the payload block), plus the model role and a config echo.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"MCFE1"
ROLES = ("classifier", "generator", "discriminator")


def save_checkpoint(path: str | Path, role: str, tensors: dict[str, np.ndarray],
                    config: dict | None = None) -> None:
    if role not in ROLES:
        raise ValueError(f"unknown role {role!r}; expected one of {ROLES}")
    entries = []
    offset = 0
    payloads = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        payloads.append(arr.tobytes())
        offset += arr.nbytes
    manifest = json.dumps(
        {"role": role, "tensors": entries, "config": config or {}},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(manifest)))
        f.write(manifest)
        for p in payloads:
            f.write(p)


def load_checkpoint(path: str | Path) -> tuple[str, dict[str, np.ndarray], dict]:
    """Role, tensors and config of an MCFE1 file; a malformed file raises a ValueError naming it."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:len(MAGIC)]!r}")
    mstart = len(MAGIC) + 4
    if len(raw) < mstart:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes)")
    (mlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    base = mstart + mlen
    if base > len(raw):
        raise ValueError(f"{path}: manifest length {mlen} runs past the end of the {len(raw)}-byte file")
    try:
        manifest = json.loads(raw[mstart:base].decode("utf-8"))
        role, entries, config = manifest["role"], manifest["tensors"], manifest.get("config", {})
        layout = [(e["name"], tuple(int(d) for d in e["shape"]), int(e["offset"])) for e in entries]
    except (ValueError, KeyError, TypeError, AttributeError) as err:  # ValueError covers bad UTF-8 and JSON
        raise ValueError(f"{path}: malformed manifest ({type(err).__name__}: {err})") from None
    tensors = {}
    for name, shape, offset in layout:
        count = math.prod(shape)
        if min(shape, default=0) < 0 or offset < 0 or base + offset + 8 * count > len(raw):
            raise ValueError(f"{path}: tensor {name!r} of shape {shape} at offset {offset} "
                             f"runs past the {len(raw) - base}-byte payload")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=base + offset)
        tensors[name] = arr.reshape(shape).astype(np.float64)
    return role, tensors, config


def check_tensors(path: str | Path, tensors: dict[str, np.ndarray], expected: dict[str, tuple[int, ...]]) -> None:
    """Raise a ValueError naming `path` and the first tensor, by name, that is missing, that
    `expected` lacks, or whose shape differs."""
    for name in sorted(tensors.keys() | expected.keys()):
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name!r}")
        if name not in expected:
            raise ValueError(f"{path}: unexpected tensor {name!r}")
        if tensors[name].shape != expected[name]:
            raise ValueError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                             f"the config needs {expected[name]}")
