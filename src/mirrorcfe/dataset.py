"""Seeded synthetic image dataset of simple geometric shapes.

Four shape classes (horizontal bar, vertical bar, cross, disk) rendered at
low resolution with position/thickness/intensity jitter and additive Gaussian
noise. Identical config (including seed) yields a bit-identical dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SHAPE_KINDS = ("horizontal-bar", "vertical-bar", "cross", "disk")


@dataclass(frozen=True)
class DatasetConfig:
    image_size: int = 16
    classes: tuple[str, ...] = SHAPE_KINDS
    per_class: int = 250
    position_jitter: int = 2
    thickness_range: tuple[int, int] = (1, 3)
    intensity_range: tuple[float, float] = (0.6, 1.0)
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.image_size < 1:
            raise ValueError(f"image_size must be at least 1, got {self.image_size}")
        if self.per_class <= 0:
            raise ValueError("per_class must be positive")
        if self.position_jitter < 0:
            raise ValueError(f"position_jitter must be >= 0, got {self.position_jitter}")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        t = self.thickness_range
        if not (len(t) == 2 and all(type(v) is int for v in t) and 1 <= t[0] <= t[1]):
            raise ValueError(f"thickness_range must be two integers 1 <= lo <= hi, got {self.thickness_range}")
        if len(self.intensity_range) != 2:
            raise ValueError(f"intensity_range must be two values, got {self.intensity_range}")
        lo, hi = self.intensity_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError("intensity_range must lie within [0, 1]")
        if not self.classes:
            raise ValueError("classes must name at least one shape kind")
        for kind in self.classes:
            if kind not in SHAPE_KINDS:
                raise ValueError(f"unsupported shape kind {kind!r}; known: {SHAPE_KINDS}")


@dataclass
class LabeledDataset:
    images: list[np.ndarray] = field(default_factory=list)  # each (C, H, W) in [0, 1]
    labels: list[int] = field(default_factory=list)
    split: str = "all"

    def __len__(self):
        return len(self.images)


def _render(kind: str, size: int, cy: int, cx: int, thickness: int, intensity: float) -> np.ndarray:
    img = np.zeros((size, size))
    margin = 2
    half = thickness // 2
    rows = slice(max(0, cy - half), min(size, cy - half + thickness))
    cols = slice(max(0, cx - half), min(size, cx - half + thickness))
    if kind == "horizontal-bar":
        img[rows, margin : size - margin] = intensity
    if kind == "vertical-bar":
        img[margin : size - margin, cols] = intensity
    if kind == "cross":
        # diagonal X so the class is not a superset of the two bar classes
        yy, xx = np.mgrid[0:size, 0:size]
        band = (thickness - 1) / 2.0
        on_diag = (np.abs((yy - cy) - (xx - cx)) <= band) | (np.abs((yy - cy) + (xx - cx)) <= band)
        inside = (yy >= margin) & (yy < size - margin) & (xx >= margin) & (xx < size - margin)
        img[on_diag & inside] = intensity
    if kind == "disk":
        radius = 3 + thickness
        yy, xx = np.mgrid[0:size, 0:size]
        img[(yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2] = intensity
    return img


def generate_dataset(config: DatasetConfig) -> LabeledDataset:
    rng = np.random.default_rng(config.seed)
    size = config.image_size
    center = size // 2
    ds = LabeledDataset(split="all")
    for label, kind in enumerate(config.classes):
        for _ in range(config.per_class):
            j = config.position_jitter
            cy = center + (int(rng.integers(-j, j + 1)) if j else 0)
            cx = center + (int(rng.integers(-j, j + 1)) if j else 0)
            t_lo, t_hi = config.thickness_range
            thickness = int(rng.integers(t_lo, t_hi + 1))
            i_lo, i_hi = config.intensity_range
            intensity = i_lo if i_hi == i_lo else float(rng.uniform(i_lo, i_hi))
            img = _render(kind, size, cy, cx, thickness, intensity)
            if config.noise_sigma > 0:
                img = img + rng.normal(0.0, config.noise_sigma, img.shape)
            img = np.clip(img, 0.0, 1.0)
            ds.images.append(img[None])
            ds.labels.append(label)
    return ds


def split(dataset: LabeledDataset, train_fraction: float, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Class-stratified split: exactly round(fraction * count) per class in train."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError(f"train_fraction {train_fraction} outside (0, 1)")
    rng = np.random.default_rng(seed)
    labels = np.asarray(dataset.labels)
    train = LabeledDataset(split="train")
    test = LabeledDataset(split="test")
    for cls in sorted(set(dataset.labels)):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        n_train = round(train_fraction * len(idx))
        for i in idx[:n_train]:
            train.images.append(dataset.images[i])
            train.labels.append(cls)
        for i in idx[n_train:]:
            test.images.append(dataset.images[i])
            test.labels.append(cls)
    return train, test
