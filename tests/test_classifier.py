"""Frozen CNN classifier: forward consistency, persistence, training."""

import multiprocessing
import os

import numpy as np
import pytest

import mirrorcfe.autodiff as ad
from mirrorcfe.classifier import (FEATURIZE_CHUNK, ClassifierConfig, ClassifierParams, accuracy,
                                  checkpoint_checksum, classify, featurize, featurize_batch, forward_graph,
                                  head, init_params, load_classifier, save_classifier)
from mirrorcfe.dataset import LabeledDataset


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


def test_tape_free_inference_is_bit_equal_to_the_tape(random_params, count_tensors):
    # featurize_batch and accuracy run on plain arrays; every value matches forward_graph on Tensor constants
    rng = np.random.default_rng(12)
    n = FEATURIZE_CHUNK + 6
    x = rng.uniform(0, 1, (n, 1, 16, 16))
    labels = [int(c) for c in rng.integers(4, size=n)]
    tape = forward_graph({k: ad.constant(v) for k, v in random_params.tensors.items()}, random_params.config,
                         ad.constant(x))
    tape_acc = int(np.sum(np.argmax(tape["probs"].data, axis=1) == labels)) / n

    built = count_tensors()
    free = forward_graph(random_params.tensors, random_params.config, x)
    stacks = featurize_batch(random_params, list(x))
    acc = accuracy(random_params, LabeledDataset(images=list(x), labels=labels))
    assert built == []
    ad.relu(ad.constant(x))
    assert built == ["leaf", "relu"]  # the count sees the tape

    assert set(free) == set(tape)
    for key, node in tape.items():
        assert type(free[key]) is np.ndarray and free[key].tobytes() == node.data.tobytes(), key
    for row, stack in enumerate(stacks):
        assert [f.tobytes() for f in stack.features] == [tape[f"f{i}"].data[row].tobytes() for i in range(2)]
        assert stack.z.tobytes() == tape["z"].data[row].tobytes()
        logits, probs = head(random_params.head_w, random_params.head_b, tape["z"].data[row])
        assert (stack.logits.tobytes(), stack.probs.tobytes()) == (logits.tobytes(), probs.tobytes())
    assert acc == tape_acc


@pytest.mark.parametrize("name, op", [("conv0_w", "conv2d"), ("head_w", "linear")])
def test_tape_free_non_finite_intermediate_names_its_op(random_params, name, op):
    # finite weights whose products overflow: the first op with an infinite output is named
    huge = ClassifierParams(random_params.config, {k: v.copy() for k, v in random_params.tensors.items()})
    huge.tensors[name] = np.full_like(huge.tensors[name], 1e308)
    ds = LabeledDataset(images=[np.full((1, 16, 16), 0.5)], labels=[0])
    with np.errstate(over="ignore"), pytest.raises(ad.NumericOverflowError, match=f"^{op} produced non-finite"):
        accuracy(huge, ds)


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



@pytest.fixture
def accuracy_workers(monkeypatch):
    """Call with a CPU count to train on; returns the list of splits whose accuracy pass ran in this
    process. A pass run in a forked worker appends to the worker's copy, which this process never sees."""
    from mirrorcfe import classifier, workers

    caller, real = os.getpid(), classifier.accuracy
    in_caller = []

    def recording(params, ds):
        if os.getpid() == caller:
            in_caller.append(ds.split)
        else:  # the worker takes only CPU time that the training leaves idle
            assert os.sched_getscheduler(0) == os.SCHED_IDLE
        return real(params, ds)

    def use(cpus: int) -> list:
        monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(classifier, "accuracy", recording)
        in_caller.clear()
        return in_caller

    return use


@pytest.mark.parametrize("epochs", [1, 4])
def test_overlapped_accuracy_pass_matches_in_process(tiny_sets, accuracy_workers, epochs):
    from mirrorcfe.classifier import TrainHyper, train_classifier

    train_ds, test_ds = tiny_sets
    runs = {}
    for cpus in (1, 2):
        in_caller = accuracy_workers(cpus)
        logged = []
        params, history = train_classifier(train_ds, test_ds, TrainHyper(epochs=epochs, batch_size=8, seed=1),
                                           log=lambda row: logged.append(dict(row)))
        assert multiprocessing.active_children() == []
        # two epochs or more overlap the pass in one worker; a single epoch stays in this process
        assert in_caller == ([] if cpus == 2 and epochs > 1 else ["train", "test"] * epochs)
        runs[cpus] = ({k: v.tobytes() for k, v in params.tensors.items()}, history, logged)
    assert runs[2] == runs[1]
    assert [row["epoch"] for row in runs[2][2]] == list(range(epochs))
    assert all({"train_acc", "test_acc"} <= row.keys() for row in runs[2][2])  # each row logged complete


def test_worker_accuracy_error_reraises_and_leaves_no_process(tiny_sets, monkeypatch):
    from mirrorcfe import classifier, workers
    from mirrorcfe.classifier import TrainHyper, train_classifier

    train_ds, test_ds = tiny_sets
    caller, error = os.getpid(), ad.ShapeError("featurize", (1, 8, 8), (1, 16, 16))

    def fail(params, ds):
        assert os.getpid() != caller, "an accuracy pass ran in the calling process"
        raise error

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(classifier, "accuracy", fail)
    with pytest.raises(ad.ShapeError) as info:
        train_classifier(train_ds, test_ds, TrainHyper(epochs=3, batch_size=8, seed=1))
    assert str(info.value) == str(error)
    assert multiprocessing.active_children() == []


def test_caller_error_joins_the_accuracy_worker(tiny_sets, accuracy_workers):
    from mirrorcfe.classifier import TrainHyper, train_classifier

    train_ds, test_ds = tiny_sets
    accuracy_workers(2)

    def stop(row):
        raise RuntimeError(f"stop at epoch {row['epoch']}")

    with pytest.raises(RuntimeError, match="^stop at epoch 0$"):
        train_classifier(train_ds, test_ds, TrainHyper(epochs=6, batch_size=8, seed=1), log=stop)
    assert multiprocessing.active_children() == []
