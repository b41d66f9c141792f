"""Shared small-scale fixtures: tiny dataset, classifier, and generator.

These are deliberately undersized (fast, low accuracy) — they exercise the
plumbing. The acceptance suite trains the real desk-scale artifacts itself.
"""

import numpy as np
import pytest

import mirrorcfe.autodiff as ad
from mirrorcfe.classifier import ClassifierConfig, TrainHyper, train_classifier
from mirrorcfe.dataset import DatasetConfig, generate_dataset, split
from mirrorcfe.training import TrainConfig, train_generator


@pytest.fixture(scope="session")
def tiny_sets():
    cfg = DatasetConfig(per_class=12, seed=0)
    full = generate_dataset(cfg)
    return split(full, 0.5, seed=0)


@pytest.fixture(scope="session")
def tiny_classifier(tiny_sets):
    train_ds, test_ds = tiny_sets
    params, history = train_classifier(train_ds, test_ds, TrainHyper(epochs=300, batch_size=4, seed=0))
    return params, history


@pytest.fixture(scope="session")
def tiny_generator(tiny_sets, tiny_classifier):
    train_ds, _ = tiny_sets
    clf, _ = tiny_classifier
    cfg = TrainConfig(epochs=2, batch_size=4, seed=0)
    gen, dis, history = train_generator(clf, train_ds, cfg)
    return gen, dis, history


@pytest.fixture
def count_tensors(monkeypatch):
    """Call to start counting Tensor constructions; returns the list each one's op name is appended to."""

    def start() -> list[str]:
        built = []
        init = ad.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("op", "leaf"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        return built

    return start
