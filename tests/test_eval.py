"""Evaluation metrics: blur, denoised validity, faithfulness, suite report."""

import csv
import importlib
import multiprocessing
import os
import pickle
import pkgutil

import numpy as np
import pytest

import mirrorcfe
from mirrorcfe import autodiff, geometry, losses, training, workers
from mirrorcfe.classifier import featurize
from mirrorcfe.evaluation import (denoised_validity, evaluate_suite, faithfulness,
                                  gaussian_blur, gaussian_kernel)
from mirrorcfe.training import generate_image, init_generator


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

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)  # the counters live in this process
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


ALL_PAIRS = [(s, t) for s in range(4) for t in range(4) if s != t]


@pytest.fixture
def forked(monkeypatch):
    """Call with a worker count to run evaluate_suite's pair passes on that many workers, whatever the
    row count; with more than one, each pass must run outside this process."""
    from mirrorcfe import evaluation

    caller, real = os.getpid(), evaluation._pair_rows

    def outside(*args):
        assert os.getpid() != caller, "a pair pass ran in the calling process"
        return real(*args)

    def use(count: int) -> None:
        monkeypatch.setattr(evaluation, "FORK_MIN_ROWS", 1)
        monkeypatch.setattr(workers, "_usable_cpus", lambda: count)
        monkeypatch.setattr(evaluation, "_pair_rows", outside if count > 1 else real)

    return use


@pytest.mark.parametrize("ssc", [False, True], ids=["plain", "ssc"])
@pytest.mark.parametrize("cap", [None, 2], ids=["uncapped", "capped"])
def test_forked_report_is_byte_identical_to_one_worker(tiny_classifier, tiny_sets, tiny_generator, forked,
                                                      tmp_path, ssc, cap):
    clf, _ = tiny_classifier
    _, test_ds = tiny_sets
    if ssc:
        gen = init_generator(clf.config, seed=0, ssc=True)
        gen.config.update(rho_lower=0.2, rho_upper=0.8)
    else:
        gen = tiny_generator[0]
    reports = {}
    for count in (1, 2, 3):
        forked(count)
        report = evaluate_suite(clf, gen, test_ds, ALL_PAIRS, max_per_pair=cap)
        assert multiprocessing.active_children() == []
        report.write_csv(tmp_path / f"{count}.csv")
        reports[count] = ((tmp_path / f"{count}.csv").read_bytes(), repr(report.aggregates))
    assert len({row["source"] for row in report.rows}) >= 2  # more than one pair had rows to fan out
    assert reports[2] == reports[1] and reports[3] == reports[1]


def test_worker_error_reraises_and_leaves_no_process(tiny_classifier, tiny_sets, forked):
    from mirrorcfe.autodiff import NumericOverflowError

    clf, _ = tiny_classifier
    _, test_ds = tiny_sets
    gen = init_generator(clf.config, seed=0, ssc=False)
    gen.tensors["g_conv2_w"] = np.full_like(gen.tensors["g_conv2_w"], 1e308)
    forked(2)
    with np.errstate(over="ignore"), pytest.raises(NumericOverflowError, match="^conv2d produced non-finite values$"):
        evaluate_suite(clf, gen, test_ds, ALL_PAIRS)
    assert multiprocessing.active_children() == []


# Each exception class a mirrorcfe module defines, with the args it is raised with.
RAISED = {
    autodiff.ShapeError: ("featurize", (1, 2), (1, 16, 16)),
    autodiff.NumericOverflowError: ("conv2d produced non-finite values",),
    autodiff.NonScalarLossError: ("backward() needs a scalar loss, got shape (2,)",),
    geometry.DegenerateMirrorError: ("classes 0 and 1 have identical weight columns",),
    geometry.ReflectionUnreachableError: ("reflection target logits unreachable", 0.25, np.arange(4.0)),
    losses.RatioDegenerateError: ("z_k == z_s with a reference different from x_s",),
    training.ClassifierMutatedError: ("classifier weights changed during generator training",),
}


def _package_exceptions() -> set[type]:
    found = set()
    for info in pkgutil.iter_modules(mirrorcfe.__path__):
        module = importlib.import_module(f"mirrorcfe.{info.name}")
        found |= {obj for obj in vars(module).values() if isinstance(obj, type)
                  and issubclass(obj, BaseException) and obj.__module__ == module.__name__}
    return found


def test_every_exception_survives_pickle():
    # a forked worker (evaluate, train-classifier) re-raises its exception in the caller by pickling it
    assert set(RAISED) == _package_exceptions()
    for cls, args in RAISED.items():
        err = cls(*args)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls and str(back) == str(err)
        assert back.__dict__.keys() == err.__dict__.keys()
        assert pickle.dumps(back.__dict__) == pickle.dumps(err.__dict__)
    assert str(autodiff.ShapeError("featurize", (1, 2), (1, 16, 16))) == \
        "featurize: incompatible shapes [(1, 2), (1, 16, 16)]"


@pytest.mark.parametrize("error", [autodiff.ShapeError("featurize", (1, 8, 8), (1, 16, 16)),
                                   geometry.ReflectionUnreachableError("reflection target logits unreachable",
                                                                       0.25, np.arange(16.0))],
                         ids=["shape", "unreachable"])
def test_pair_pass_exception_reraises_with_type_and_message(tiny_classifier, tiny_sets, tiny_generator, forked,
                                                           monkeypatch, error):
    clf, _ = tiny_classifier
    _, test_ds = tiny_sets

    def fail(trajectory):
        raise error

    monkeypatch.setattr(geometry, "first_cfe_batch", fail)
    forked(2)
    with pytest.raises(type(error)) as info:
        evaluate_suite(clf, tiny_generator[0], test_ds, ALL_PAIRS)
    assert str(info.value) == str(error)
    assert pickle.dumps(info.value.__dict__) == pickle.dumps(error.__dict__)
    assert multiprocessing.active_children() == []
