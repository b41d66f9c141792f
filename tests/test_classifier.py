"""Frozen CNN classifier: forward consistency, persistence, training."""

import numpy as np
import pytest

import mirrorcfe.autodiff as ad
from mirrorcfe.classifier import (FEATURIZE_CHUNK, ClassifierConfig, accuracy, checkpoint_checksum,
                                  classify, featurize, featurize_batch, init_params, load_classifier,
                                  save_classifier)


@pytest.fixture(scope="module")
def random_params():
    return init_params(ClassifierConfig(), seed=5)


def test_latent_is_gap_of_last_features(random_params):
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (1, 16, 16))
    stack = featurize(random_params, img)
    assert stack.f_last.shape == (16, 4, 4)
    assert np.allclose(stack.z, stack.f_last.mean(axis=(1, 2)), atol=1e-12)


def test_classify_matches_featurize(random_params):
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, (1, 16, 16))
    stack = featurize(random_params, img)
    logits, probs = classify(random_params, stack.z)
    assert np.allclose(logits, stack.logits, atol=1e-12)
    assert np.allclose(probs, stack.probs, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_featurize_shape_check(random_params):
    with pytest.raises(ad.ShapeError):
        featurize(random_params, np.zeros((1, 8, 8)))


def _bits(stack):
    return [a.tobytes() for a in (*stack.features, stack.z, stack.logits, stack.probs)]


@pytest.mark.parametrize("n", [1, FEATURIZE_CHUNK - 1, FEATURIZE_CHUNK, FEATURIZE_CHUNK + 1])
def test_featurize_batch_is_bit_equal_to_featurize(random_params, n):
    # every field, chunk boundaries included; a batched head would differ in the last bits
    rng = np.random.default_rng(n)
    images = list(rng.uniform(0, 1, (n, 1, 16, 16)))
    batch = featurize_batch(random_params, images)
    assert len(batch) == n
    for image, stack in zip(images, batch):
        assert _bits(stack) == _bits(featurize(random_params, image))


def test_featurize_batch_shape_check(random_params):
    with pytest.raises(ad.ShapeError):
        featurize_batch(random_params, [np.zeros((1, 16, 16)), np.zeros((1, 8, 8))])


def test_init_deterministic():
    a = init_params(ClassifierConfig(), seed=3)
    b = init_params(ClassifierConfig(), seed=3)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_checkpoint_roundtrip_and_checksum(tmp_path, random_params):
    path = tmp_path / "clf.ckpt"
    save_classifier(path, random_params)
    back = load_classifier(path)
    assert back.config == random_params.config
    for name in random_params.tensors:
        assert np.array_equal(back.tensors[name], random_params.tensors[name])
    assert checkpoint_checksum(back) == checkpoint_checksum(random_params)
    mutated = load_classifier(path)
    mutated.tensors["head_b"] = mutated.tensors["head_b"] + 1e-9
    assert checkpoint_checksum(mutated) != checkpoint_checksum(random_params)


def test_training_learns_and_freezes(tiny_classifier, tiny_sets):
    params, history = tiny_classifier
    _, test_ds = tiny_sets
    assert history[-1]["loss"] < history[0]["loss"]
    assert history[-1]["train_acc"] > 0.5
    assert accuracy(params, test_ds) == history[-1]["test_acc"]
    # trained tensors come back frozen
    for arr in params.tensors.values():
        assert not arr.flags.writeable


def test_training_deterministic(tiny_sets):
    from mirrorcfe.classifier import TrainHyper, train_classifier

    train_ds, _ = tiny_sets
    hyper = TrainHyper(epochs=2, batch_size=8, seed=1)
    a, _ = train_classifier(train_ds, None, hyper)
    b, _ = train_classifier(train_ds, None, hyper)
    assert checkpoint_checksum(a) == checkpoint_checksum(b)
