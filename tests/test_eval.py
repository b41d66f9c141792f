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
    assert denoised_validity(clf, img, pred) in (True, False)


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
    counts = {"featurize": 0, "generate_image": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(evaluation, "featurize", counted("featurize", evaluation.featurize))
    monkeypatch.setattr(evaluation, "generate_image", counted("generate_image", evaluation.generate_image))
    pairs = [(s, t) for s in range(4) for t in range(4) if s != t]
    rows = evaluate_suite(clf, gen, test_ds, pairs).rows
    assert rows
    assert counts["generate_image"] == len(rows)
    assert counts["featurize"] <= len(test_ds) + 2 * len(rows)
