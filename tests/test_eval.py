"""Evaluation metrics: blur, denoised validity, faithfulness, suite report."""

import csv

import numpy as np
import pytest

from mirrorcfe.classifier import featurize
from mirrorcfe.evaluation import (denoised_validity, evaluate_suite, faithfulness,
                                  gaussian_blur, gaussian_kernel)
from mirrorcfe.training import generate_image


def test_kernel_normalized():
    for size, sigma in [(3, 1.0), (5, 0.7), (7, 2.5)]:
        k = gaussian_kernel(size, sigma)
        assert k.shape == (size, size)
        assert abs(k.sum() - 1.0) <= 1e-12
        assert np.all(k > 0)


def test_kernel_even_size_rejected():
    with pytest.raises(ValueError):
        gaussian_kernel(4, 1.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
def test_kernel_bad_sigma_rejected(sigma):
    with pytest.raises(ValueError, match="sigma"):
        gaussian_kernel(3, sigma)


def test_blur_keeps_constants():
    img = np.full((1, 8, 8), 0.37)
    out = gaussian_blur(img)
    assert np.allclose(out, img, atol=1e-12)


def test_blur_smooths_impulse():
    img = np.zeros((1, 9, 9))
    img[0, 4, 4] = 1.0
    out = gaussian_blur(img)
    assert out[0, 4, 4] < 1.0
    assert out[0, 4, 3] > 0.0
    assert abs(out.sum() - 1.0) < 1e-12  # interior impulse keeps total mass


def test_denoised_validity_smoke(tiny_classifier, tiny_sets):
    clf, _ = tiny_classifier
    _, test_ds = tiny_sets
    img = test_ds.images[0]
    pred = int(np.argmax(featurize(clf, img).probs))
    assert denoised_validity(clf, [img], pred)[0] in (True, False)


def test_faithfulness_finite(tiny_classifier, tiny_sets, tiny_generator):
    clf, _ = tiny_classifier
    _, test_ds = tiny_sets
    gen, _, _ = tiny_generator
    stack = featurize(clf, test_ds.images[0])
    x = generate_image(gen, clf, stack.f_last, stack, 0, 1, 0.0)
    fea, conf_l1 = faithfulness(clf, stack.z, featurize(clf, x))
    assert np.isfinite(fea) and fea >= 0.0
    assert 0.0 <= conf_l1 <= 1.0


def test_evaluate_suite_report(tiny_classifier, tiny_sets, tiny_generator, tmp_path):
    clf, _ = tiny_classifier
    _, test_ds = tiny_sets
    gen, _, _ = tiny_generator
    report = evaluate_suite(clf, gen, test_ds, [(0, 1)], max_per_pair=5)
    assert report.rows
    assert report.aggregates["n"] == len(report.rows) <= 5
    assert 0.0 <= report.aggregates["validity"] <= 1.0
    assert 0.0 <= report.aggregates["first_cfe_rate"] <= 1.0
    path = tmp_path / "report.csv"
    report.write_csv(path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(report.rows)
    assert set(rows[0]) == set(report.CSV_HEADER)
    for row in rows:
        assert row["validity"] in ("0", "1")
        float(row["l1"])  # parseable numerics


def test_evaluate_suite_decodes_once_per_row(tiny_classifier, tiny_sets, tiny_generator, monkeypatch):
    from mirrorcfe import evaluation

    clf, _ = tiny_classifier
    _, test_ds = tiny_sets
    gen, _, _ = tiny_generator
    counts = {"featurize_batch": 0, "generate_images": 0}

    def counted(name, fn, batch_arg):
        def wrapper(*args):
            counts[name] += len(args[batch_arg])
            return fn(*args)
        return wrapper

    monkeypatch.setattr(evaluation, "featurize_batch", counted("featurize_batch", evaluation.featurize_batch, 1))
    monkeypatch.setattr(evaluation, "generate_images", counted("generate_images", evaluation.generate_images, 2))
    pairs = [(s, t) for s in range(4) for t in range(4) if s != t]
    rows = evaluate_suite(clf, gen, test_ds, pairs).rows
    assert rows
    assert counts["generate_images"] == len(rows)  # rows decoded, not calls
    assert counts["featurize_batch"] <= len(test_ds) + 2 * len(rows)  # images featurized


def test_capped_evaluate_featurizes_at_most_one_chunk_past_its_last_row(tiny_classifier, tiny_sets,
                                                                        tiny_generator, monkeypatch):
    from mirrorcfe import classifier, evaluation

    clf, _ = tiny_classifier
    _, test_ds = tiny_sets
    gen, _, _ = tiny_generator
    chunk = 4
    monkeypatch.setattr(classifier, "FEATURIZE_CHUNK", chunk)
    monkeypatch.setattr(evaluation, "FEATURIZE_CHUNK", chunk)
    position = {id(img): i for i, img in enumerate(test_ds.images)}
    read = []  # test-split indices featurized, in call order
    real = evaluation.featurize_batch

    def recording(params, images):
        read.extend(position[id(img)] for img in images if id(img) in position)
        return real(params, images)

    monkeypatch.setattr(evaluation, "featurize_batch", recording)
    source = int(np.argmax(featurize(clf, test_ds.images[0]).probs))
    rows = evaluate_suite(clf, gen, test_ds, [(source, (source + 1) % 4)], max_per_pair=3).rows
    assert len(rows) == 3
    last = rows[-1]["sample"]
    assert read == list(range(len(read)))  # each image once, in order
    assert len(read) <= (last // chunk + 1) * chunk  # up to the end of the last row's chunk
    assert len(read) < len(test_ds)  # so the cap had something to save


def test_blur_of_a_stack_is_the_per_channel_loop():
    # the loop this vectorized blur replaced, as the reference: same taps, same order, same bits
    def reference(image, size, sigma):
        kern, pad = gaussian_kernel(size, sigma), size // 2
        out = np.empty_like(image)
        for c in range(image.shape[0]):
            xp = np.pad(image[c], pad, mode="edge")
            acc = np.zeros_like(image[c])
            for i in range(size):
                for j in range(size):
                    acc += kern[i, j] * xp[i : i + image.shape[1], j : j + image.shape[2]]
            out[c] = acc
        return out

    images = np.random.default_rng(3).uniform(size=(5, 2, 9, 7))
    for size, sigma in [(3, 1.0), (5, 0.7)]:
        batch = gaussian_blur(images, size, sigma)
        for image, blurred in zip(images, batch):
            assert blurred.tobytes() == reference(image, size, sigma).tobytes()
            assert gaussian_blur(image, size, sigma).tobytes() == blurred.tobytes()
