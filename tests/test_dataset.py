"""Synthetic shape dataset: determinism, stratification, separability."""

import numpy as np
import pytest

from mirrorcfe.dataset import SHAPE_KINDS, DatasetConfig, generate_dataset, split


def test_deterministic_generation():
    a = generate_dataset(DatasetConfig(per_class=5, seed=7))
    b = generate_dataset(DatasetConfig(per_class=5, seed=7))
    assert a.labels == b.labels
    for x, y in zip(a.images, b.images):
        assert np.array_equal(x, y)


def test_seed_changes_images():
    a = generate_dataset(DatasetConfig(per_class=3, seed=0))
    b = generate_dataset(DatasetConfig(per_class=3, seed=1))
    assert not all(np.array_equal(x, y) for x, y in zip(a.images, b.images))


def test_shapes_and_range():
    ds = generate_dataset(DatasetConfig(per_class=4))
    assert len(ds) == 4 * len(SHAPE_KINDS)
    for img in ds.images:
        assert img.shape == (1, 16, 16)
        assert img.dtype == np.float64
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_stratified_split_counts():
    ds = generate_dataset(DatasetConfig(per_class=250))
    train, test = split(ds, 0.6, seed=0)
    for cls in range(len(SHAPE_KINDS)):
        assert sum(1 for l in train.labels if l == cls) == 150
        assert sum(1 for l in test.labels if l == cls) == 100
    assert train.split == "train" and test.split == "test"


def test_split_deterministic():
    ds = generate_dataset(DatasetConfig(per_class=10))
    a_train, _ = split(ds, 0.5, seed=3)
    b_train, _ = split(ds, 0.5, seed=3)
    assert all(np.array_equal(x, y) for x, y in zip(a_train.images, b_train.images))


def test_config_validation():
    with pytest.raises(ValueError):
        DatasetConfig(per_class=0)
    with pytest.raises(ValueError):
        DatasetConfig(intensity_range=(0.5, 1.5))
    with pytest.raises(ValueError):
        DatasetConfig(classes=("square",))
    # these used to fail with "too many/not enough values to unpack" or numpy's "low >= high", or to build
    # degenerate data without complaint
    for field, value in [("thickness_range", (1, 2, 3)), ("thickness_range", (3, 1)), ("thickness_range", (0, 2)),
                         ("thickness_range", (1.0, 3.0)), ("intensity_range", (0.5,)), ("position_jitter", -1),
                         ("noise_sigma", -0.1), ("noise_sigma", float("nan")), ("image_size", 0)]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            DatasetConfig(**{field: value})
    with pytest.raises(ValueError):
        split(generate_dataset(DatasetConfig(per_class=2)), 1.0, seed=0)


def test_nearest_centroid_baseline():
    # classes must be linearly separable enough for a trivial pixel-space
    # baseline to clear 90% test accuracy on the default config
    full = generate_dataset(DatasetConfig())
    train, test = split(full, 0.6, seed=0)
    labels = np.asarray(train.labels)
    X = np.stack(train.images).reshape(len(train), -1)
    centroids = np.stack([X[labels == c].mean(axis=0) for c in range(len(SHAPE_KINDS))])
    Xt = np.stack(test.images).reshape(len(test), -1)
    pred = np.argmin(((Xt[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1)
    acc = float(np.mean(pred == np.asarray(test.labels)))
    assert acc >= 0.90, f"nearest-centroid baseline accuracy {acc:.3f}"
