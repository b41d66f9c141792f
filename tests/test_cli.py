"""End-to-end CLI pipeline on a miniature configuration."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mirrorcfe.classifier import featurize, load_classifier
from mirrorcfe.cli import _SCHEMA, load_config, main, read_dataset_dir
from mirrorcfe.pgm import read_pgm, write_pgm

SRC = Path(__file__).resolve().parents[1] / "src"

TINY = {
    "dataset": {"per_class": 10, "seed": 0, "train_fraction": 0.5},
    "classifier": {"epochs": 40, "batch_size": 4, "seed": 0},
    "generator": {"epochs": 1, "batch_size": 4, "seed": 0},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One miniature pipeline run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(TINY))
    data, clf, gen = root / "data", root / "clf.ckpt", root / "gen.ckpt"
    assert main(["make-dataset", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train-classifier", "--data", str(data), "--config", str(cfg),
                 "--out", str(clf)]) == 0
    assert main(["train-generator", "--data", str(data), "--classifier", str(clf),
                 "--config", str(cfg), "--out", str(gen)]) == 0
    return root


def test_dataset_roundtrip(workdir):
    data = workdir / "data"
    with open(data / "labels.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 40
    assert {r["split"] for r in rows} == {"train", "test"}
    train, test = read_dataset_dir(data)
    assert len(train) == 20 and len(test) == 20
    # PGM files reproduce their quantized pixel values exactly
    img = read_pgm(data / rows[0]["filename"])
    assert np.array_equal(img, np.round(img * 255) / 255)


def test_classifier_artifacts(workdir):
    assert (workdir / "clf.ckpt").exists()
    with open(workdir / "clf.ckpt.accuracy.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == TINY["classifier"]["epochs"]
    assert set(rows[0]) == {"epoch", "loss", "train_acc", "test_acc"}
    losses = [float(r["loss"]) for r in rows]
    assert losses[-1] < losses[0]


def test_generator_artifacts(workdir):
    assert (workdir / "gen.ckpt").exists()
    assert (workdir / "gen.ckpt.disc").exists()
    with open(workdir / "gen.ckpt.loss.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows
    assert list(rows[0]) == ["epoch", "step", "cls", "adv_g", "adv_d", "rec", "fea", "tri", "total"]


def test_explain_frames_and_confidence(workdir):
    data = workdir / "data"
    train, test = read_dataset_dir(data)
    with open(data / "labels.csv", newline="") as f:
        first_test = next(r for r in csv.DictReader(f) if r["split"] == "test")
    image = data / first_test["filename"]
    out = workdir / "explain"
    # target 0 may collide with the predicted class; pick the other one then
    code = main(["explain", "--classifier", str(workdir / "clf.ckpt"),
                 "--generator", str(workdir / "gen.ckpt"), "--image", str(image),
                 "--target", "0", "--steps", "5", "--out", str(out)])
    if code != 0:
        code = main(["explain", "--classifier", str(workdir / "clf.ckpt"),
                     "--generator", str(workdir / "gen.ckpt"), "--image", str(image),
                     "--target", "1", "--steps", "5", "--out", str(out)])
    assert code == 0
    frames = sorted(out.glob("frame_*.pgm"))
    assert len(frames) == 5
    with open(out / "confidence.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5
    qs = [float(r["intended_q_target"]) for r in rows]
    assert qs == sorted(qs)  # intended target confidence rises monotonically
    assert qs[2] == pytest.approx(0.5, abs=1e-6)  # projection at k=0.5
    for r in rows:
        assert 0.0 <= float(r["pred_p_target"]) <= 1.0
        assert float(r["l1_to_source"]) >= 0.0


def test_explain_csv_describes_written_frames(workdir):
    # every printed prediction and distance is the one the 8-bit frame on disk gives
    data = workdir / "data"
    with open(data / "labels.csv", newline="") as f:
        first_test = next(r for r in csv.DictReader(f) if r["split"] == "test")
    image = read_pgm(data / first_test["filename"])
    clf = load_classifier(workdir / "clf.ckpt")
    source = int(np.argmax(featurize(clf, image).probs))
    target = (source + 1) % 4
    out = workdir / "explain_disk"
    assert main(["explain", "--classifier", str(workdir / "clf.ckpt"),
                 "--generator", str(workdir / "gen.ckpt"), "--image", str(data / first_test["filename"]),
                 "--target", str(target), "--steps", "21", "--out", str(out)]) == 0
    with open(out / "confidence.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 21
    for i, row in enumerate(rows):
        frame = read_pgm(out / f"frame_{i:03}.pgm")
        probs = featurize(clf, frame).probs
        assert row["pred_p_source"] == f"{probs[source]:.9f}"
        assert row["pred_p_target"] == f"{probs[target]:.9f}"
        assert row["l1_to_source"] == f"{float(np.mean(np.abs(frame - image))):.9f}"


def test_explain_two_steps(workdir):
    data = workdir / "data"
    with open(data / "labels.csv", newline="") as f:
        row = next(iter(csv.DictReader(f)))
    out = workdir / "explain2"
    code = main(["explain", "--classifier", str(workdir / "clf.ckpt"),
                 "--generator", str(workdir / "gen.ckpt"),
                 "--image", str(data / row["filename"]),
                 "--target", "3", "--steps", "2", "--out", str(out)])
    if code != 0:  # predicted class happened to be 3
        code = main(["explain", "--classifier", str(workdir / "clf.ckpt"),
                     "--generator", str(workdir / "gen.ckpt"),
                     "--image", str(data / row["filename"]),
                     "--target", "2", "--steps", "2", "--out", str(out)])
    assert code == 0
    assert len(sorted(out.glob("frame_*.pgm"))) == 2
    with open(out / "confidence.csv", newline="") as f:
        assert len(list(csv.DictReader(f))) == 2


def test_evaluate_csv(workdir):
    # pick a pair whose source class the tiny classifier actually predicts
    from collections import Counter

    from mirrorcfe.classifier import featurize, load_classifier

    clf = load_classifier(workdir / "clf.ckpt")
    _, test_ds = read_dataset_dir(workdir / "data")
    preds = [int(np.argmax(featurize(clf, img).probs)) for img in test_ds.images]
    source = Counter(preds).most_common(1)[0][0]
    target = (source + 1) % 4
    out = workdir / "report.csv"
    assert main(["evaluate", "--data", str(workdir / "data"),
                 "--classifier", str(workdir / "clf.ckpt"),
                 "--generator", str(workdir / "gen.ckpt"),
                 "--pairs", f"{source}:{target}", "--out", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows
    assert {"sample", "source", "target", "validity"} <= set(rows[0])


def test_error_exit_codes(workdir, tmp_path, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"dataset": {"bogus_key": 1}}))
    assert main(["make-dataset", "--config", str(bad_cfg), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bogus_key" in err

    assert main(["evaluate", "--data", str(tmp_path / "missing"),
                 "--classifier", str(workdir / "clf.ckpt"),
                 "--generator", str(workdir / "gen.ckpt"),
                 "--out", str(tmp_path / "r.csv")]) == 1


@pytest.mark.parametrize("command, flags, word", [
    ("evaluate", ["--steps", "0"], "steps"),
    ("evaluate", ["--blur-size", "0"], "size"),
    ("evaluate", ["--blur-sigma", "0"], "sigma"),
    ("explain", ["--steps", "0"], "steps"),
    pytest.param("evaluate", ["--blur-size", "-1"], "size must be positive and odd, got -1", id="evaluate-negative-blur-size"),
])
def test_zero_flag_rejected(workdir, tmp_path, capsys, command, flags, word):
    # a 0 is a value, not "unset": it must be rejected, not replaced by the default; a blur size of -1
    # passed the odd check and failed only after every decode, in numpy's "negative values" index error
    models = ["--classifier", str(workdir / "clf.ckpt"), "--generator", str(workdir / "gen.ckpt")]
    out = tmp_path / "out"
    if command == "evaluate":
        argv = ["evaluate", "--data", str(workdir / "data"), *models, "--out", str(out), *flags]
    else:
        argv = ["explain", *models, "--image", str(workdir / "data" / "img_00000.pgm"), "--target", "0",
                "--out", str(out), *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and word in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("explain", ["--target", "-1"]),
    ("explain", ["--target", "7"]),
    ("evaluate", ["--pairs", "0:-1"]),
    ("evaluate", ["--pairs", "0:9"]),
])
def test_class_index_out_of_range(workdir, tmp_path, capsys, command, flags):
    # -1 used to explain toward the last class, 7 to leak an IndexError
    models = ["--classifier", str(workdir / "clf.ckpt"), "--generator", str(workdir / "gen.ckpt")]
    out = tmp_path / "out"
    if command == "evaluate":
        argv = ["evaluate", "--data", str(workdir / "data"), *models, "--out", str(out), *flags]
    else:
        argv = ["explain", *models, "--image", str(workdir / "data" / "img_00000.pgm"), "--out", str(out), *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:") and "[0, 4)" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("header, row, word", [
    ("filename,label", "img_00000.pgm,0", "missing column(s) ['split']"),
    ("filename,split", "img_00000.pgm,train", "missing column(s) ['label']"),
    ("filename,label,split", "img_00000.pgm,zero,train", "line 2: label 'zero' is not an integer"),
    ("filename,label,split", "img_00000.pgm,,train", "line 2: label '' is not an integer"),
    ("filename,label,split", "img_00000.pgm,0", "line 2: no split"),
    ("label,split,filename", "0,train", "line 2: no filename"),
    ("filename,label,split", ",0,train", "line 2: no filename"),
], ids=["no-split", "no-label", "word-label", "empty-label", "missing-split", "missing-filename", "empty-filename"])
def test_malformed_labels_csv_one_error_line(tmp_path, capsys, header, row, word):
    # these used to print "KeyError: 'split'" and "invalid literal for int() with base 10: 'zero'"; a row
    # without a split was dropped, and one without a filename leaked a TypeError or an IsADirectoryError
    data = tmp_path / "data"
    data.mkdir()
    (data / "labels.csv").write_text(f"{header}\n{row}\n")
    assert main(["train-classifier", "--data", str(data), "--out", str(tmp_path / "clf.ckpt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:")
    assert str(data / "labels.csv") in err[0] and word in err[0]


def _relabel_class_3(label: str):
    return lambda rows: [row.update(label=label) for row in rows if row["label"] == "3"]


@pytest.mark.parametrize("edit, word", [
    (_relabel_class_3("7"), "ValueError: train label 7 outside [0, 4)"),
    (_relabel_class_3("-1"), "ValueError: train label -1 outside [0, 4)"),
    (lambda rows: rows[1].update(filename="small.pgm"),
     "ShapeError: featurize: incompatible shapes [(1, 8, 8), (1, 16, 16)]"),
], ids=["label-7", "label-minus-1", "mixed-size"])
def test_bad_training_data_one_error_line(workdir, tmp_path, capsys, edit, word):
    # 7 used to leak numpy's IndexError, -1 to train with those images counted as class 3, and an 8x8
    # image among 16x16 ones to end in "all input arrays must have the same shape"
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    write_pgm(data / "small.pgm", np.zeros((1, 8, 8)))
    with open(data / "labels.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    edit(rows)
    with open(data / "labels.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["filename", "label", "split"])
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "clf.ckpt"
    assert main(["train-classifier", "--data", str(data), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {word}")
    assert "epoch" not in captured.out and not out.exists()  # rejected before the first step


@pytest.mark.parametrize("command, section", [("train-classifier", "classifier"), ("train-generator", "generator")])
def test_overflowing_training_one_error_line(workdir, tmp_path, capsys, command, section):
    # the weights after one Adam step at lr 1e300 overflow the next forward pass, which names its op
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({section: {"lr": 1e300}}))
    argv = [command, "--data", str(workdir / "data"), "--config", str(cfg), "--out", str(tmp_path / "out.ckpt")]
    if command == "train-generator":
        argv += ["--classifier", str(workdir / "clf.ckpt")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: NumericOverflowError: conv2d produced non-finite values"]
    assert list(tmp_path.iterdir()) == [cfg]  # no checkpoint and no CSV


@pytest.mark.parametrize("failure", ["overflow", "worker"])
def test_forked_training_failure_one_error_line(workdir, tmp_path, capsys, monkeypatch, failure):
    # with the accuracy pass in a forked worker, a failure in either process is the command's one error line
    import multiprocessing

    from mirrorcfe import autodiff, classifier, workers

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"classifier": {"lr": 1e300 if failure == "overflow" else 2e-4}}))
    if failure == "worker":
        real = classifier.accuracy

        def overflow_after_epoch_0(params, ds):  # runs in the worker, which counts its own calls
            overflow_after_epoch_0.calls += 1
            if overflow_after_epoch_0.calls > 2:
                raise autodiff.NumericOverflowError("conv2d produced non-finite values")
            return real(params, ds)

        overflow_after_epoch_0.calls = 0
        monkeypatch.setattr(classifier, "accuracy", overflow_after_epoch_0)
    out = tmp_path / "out.ckpt"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train-classifier", "--data", str(workdir / "data"), "--config", str(cfg),
                     "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: NumericOverflowError: conv2d produced non-finite values"]
    assert ("epoch 0:" in captured.out) == (failure == "worker")  # the worker failed on epoch 1's pass
    assert "epoch 1:" not in captured.out
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == [cfg]  # no checkpoint and no CSV


def test_pipeline_takes_the_image_size_from_the_data(tmp_path):
    # an image_size other than 16 used to train a classifier for 16x16 inputs on 8x8 images
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"dataset": {"image_size": 8, "per_class": 4, "seed": 0, "train_fraction": 0.5},
                               "classifier": {"epochs": 2, "batch_size": 4, "seed": 0},
                               "generator": {"epochs": 1, "batch_size": 4, "seed": 0}}))
    data, clf, gen = tmp_path / "data", tmp_path / "clf.ckpt", tmp_path / "gen.ckpt"
    assert main(["make-dataset", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train-classifier", "--data", str(data), "--config", str(cfg), "--out", str(clf)]) == 0
    assert load_classifier(clf).config.image_size == 8
    assert main(["train-generator", "--data", str(data), "--classifier", str(clf), "--config", str(cfg),
                 "--out", str(gen)]) == 0
    image = data / "img_00000.pgm"
    target = (int(np.argmax(featurize(load_classifier(clf), read_pgm(image)).probs)) + 1) % 4
    assert main(["explain", "--classifier", str(clf), "--generator", str(gen), "--image", str(image),
                 "--target", str(target), "--steps", "3", "--out", str(tmp_path / "frames")]) == 0
    assert read_pgm(tmp_path / "frames" / "frame_002.pgm").shape == (1, 8, 8)
    pairs = ",".join(f"{s}:{t}" for s in range(4) for t in range(4) if s != t)
    assert main(["evaluate", "--data", str(data), "--classifier", str(clf), "--generator", str(gen),
                 "--pairs", pairs, "--out", str(tmp_path / "r.csv")]) == 0
    with open(tmp_path / "r.csv", newline="") as f:
        assert len(list(csv.DictReader(f))) > 0


@pytest.mark.parametrize("pairs", ["0-1", "0:1,2", "0:1:2", "a:b", ""])
def test_malformed_pairs_one_error_line(workdir, tmp_path, capsys, pairs):
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--data", str(workdir / "data"), "--classifier", str(workdir / "clf.ckpt"),
                 "--generator", str(workdir / "gen.ckpt"), "--pairs", pairs, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:") and "s:t class pairs" in err[0]
    assert not out.exists()


def test_truncated_checkpoint_one_error_line(workdir, tmp_path, capsys):
    bad = tmp_path / "gen.ckpt"
    bad.write_bytes((workdir / "gen.ckpt").read_bytes()[:-8])
    assert main(["explain", "--classifier", str(workdir / "clf.ckpt"), "--generator", str(bad),
                 "--image", str(workdir / "data" / "img_00000.pgm"), "--target", "0",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:") and str(bad) in err[0]


def test_generator_missing_tensor_one_error_line(workdir, tmp_path, capsys):
    # it used to load, and explain then made its output directory and failed with KeyError: 'g_out_w'
    from mirrorcfe.checkpoint import load_checkpoint, save_checkpoint

    role, tensors, config = load_checkpoint(workdir / "gen.ckpt")
    del tensors["g_out_w"]
    bad = tmp_path / "gen.ckpt"
    save_checkpoint(bad, role, tensors, config)
    out = tmp_path / "out"
    assert main(["explain", "--classifier", str(workdir / "clf.ckpt"), "--generator", str(bad),
                 "--image", str(workdir / "data" / "img_00000.pgm"), "--target", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:") and "'g_out_w'" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["explain", "evaluate"])
@pytest.mark.parametrize("other, ssc, word", [
    (dict(stage_channels=(8, 12)), False, "'g_conv1_w' has shape (32, 12, 3, 3)"),
    (dict(stage_channels=(4, 16)), True, "'g_fuse_w' has shape (32, 36, 3, 3)"),
    (dict(in_channels=3), False, "'g_out_b' has shape (3,)"),
], ids=["plain-latent", "ssc-first-stage", "output-channels"])
def test_generator_for_another_classifier_one_error_line(workdir, tmp_path, capsys, command, other, ssc, word):
    # such a generator is rejected on load; explain used to make its output directory and fail in the decode,
    # or, with other output channels, in write_pgm
    from mirrorcfe.classifier import ClassifierConfig
    from mirrorcfe.training import init_generator, save_generator

    gen = tmp_path / "gen.ckpt"
    built = init_generator(ClassifierConfig(**other), 0, ssc=ssc)
    built.config.update(rho_lower=0.2, rho_upper=0.8)
    save_generator(gen, built)
    out = tmp_path / "out"
    flags = {"explain": ["--image", str(workdir / "data" / "img_00000.pgm"), "--target", "0"],
             "evaluate": ["--data", str(workdir / "data"), "--pairs", "0:1"]}[command]
    assert main([command, "--classifier", str(workdir / "clf.ckpt"), "--generator", str(gen), *flags,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:") and word in err[0]
    assert not out.exists()


@pytest.mark.parametrize("text, word", [
    ('{"dataset": 5}', "section 'dataset': expected a JSON object, got int"),
    ("[1]", "expected a JSON object of sections, got list"),
    ("[" * 100_000, "nested too deeply"),
], ids=["section-int", "top-level-list", "deep-nesting"])
def test_config_must_be_objects(tmp_path, capsys, text, word):
    # TypeError, AttributeError and RecursionError leaked from these before
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=word):
        load_config(str(path))
    assert main(["make-dataset", "--config", str(path), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:")
    assert not (tmp_path / "d").exists()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from([*_SCHEMA, "bogus", *sorted({k for keys in _SCHEMA.values() for k in keys})]),
                      inner, max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.one_of(st.binary(max_size=48), _JSON.map(lambda v: json.dumps(v).encode())))
def test_config_fuzz_ends_in_one_value_error_line(tmp_path, raw):
    path = tmp_path / "fuzz.json"
    path.write_bytes(raw)
    try:
        cfg = load_config(str(path))
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError are ValueErrors too
        assert "\n" not in str(err)
        return
    for section, keys in cfg.items():
        assert isinstance(keys, dict) and set(keys) <= set(_SCHEMA[section])
        for key, value in keys.items():  # each accepted value has its default's type
            default = _SCHEMA[section][key]
            if isinstance(default, tuple):
                assert type(value) is tuple and {type(v) for v in value} <= _accepted_types(default[0])
            else:
                assert type(value) in _accepted_types(default)


def _accepted_types(default) -> set:
    if default is None:  # max_per_pair: no cap, or a cap
        return {type(None), int}
    return {int, float} if type(default) is float else {type(default)}


def test_config_keys_come_from_the_dataclasses():
    import dataclasses

    from mirrorcfe.classifier import TrainHyper
    from mirrorcfe.dataset import DatasetConfig
    from mirrorcfe.training import TrainConfig

    for section, cls in (("dataset", DatasetConfig), ("classifier", TrainHyper), ("generator", TrainConfig)):
        fields = {f.name: f.default for f in dataclasses.fields(cls)}
        assert {k: v for k, v in _SCHEMA[section].items() if k != "train_fraction"} == fields
    assert set(_SCHEMA["eval"]) == {"steps", "blur_size", "blur_sigma", "pairs", "max_per_pair"}
    assert sum(len(keys) for keys in _SCHEMA.values()) == 33


def test_config_values_of_the_default_type_are_accepted(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dataset": {"noise_sigma": 0, "thickness_range": [1, 2], "intensity_range": [0, 1]},
                                "generator": {"lr": 1, "ssc": True}, "eval": {"max_per_pair": None, "pairs": "1:0"}}))
    cfg = load_config(str(path))
    assert cfg["dataset"] == {"noise_sigma": 0, "thickness_range": (1, 2), "intensity_range": (0, 1)}
    assert cfg["generator"] == {"lr": 1, "ssc": True} and cfg["eval"]["max_per_pair"] is None


_SECTION_COMMAND = {"dataset": "make-dataset", "classifier": "train-classifier", "generator": "train-generator",
                    "eval": "evaluate"}


@pytest.mark.parametrize("section, key, value", [
    ("generator", "ssc", "false"),  # a non-empty string used to train an SSC generator
    ("generator", "epochs", "2"),
    ("generator", "lr", "0.1"),
    ("generator", "epochs", 2.0),
    ("classifier", "batch_size", True),
    ("dataset", "per_class", False),
    ("dataset", "thickness_range", [1.5, 3]),
    ("dataset", "classes", "disk"),
    ("eval", "steps", "21"),
    ("eval", "blur_size", 3.0),
    ("eval", "blur_sigma", True),
    ("eval", "max_per_pair", "5"),
    ("eval", "pairs", [[0, 1]]),
    ("eval", "pairs", [["a", 1]]),
])
def test_mistyped_config_value_one_error_line(workdir, tmp_path, capsys, section, key, value):
    # the string and float values used to leak a TypeError or UFuncTypeError from deep in the command
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    command = _SECTION_COMMAND[section]
    flags = {"make-dataset": [],
             "train-classifier": ["--data", str(workdir / "data")],
             "train-generator": ["--data", str(workdir / "data"), "--classifier", str(workdir / "clf.ckpt")],
             "evaluate": ["--data", str(workdir / "data"), "--classifier", str(workdir / "clf.ckpt"),
                          "--generator", str(workdir / "gen.ckpt")]}[command]
    out = tmp_path / "out"
    assert main([command, *flags, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:") and f"{section}.{key}" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, word", [
    ("classifier", "epochs", 0, "epochs and batch_size must be positive"),  # wrote an untrained checkpoint
    ("classifier", "epochs", -1, "epochs and batch_size must be positive"),
    ("classifier", "batch_size", 0, "epochs and batch_size must be positive"),  # range() arg 3 must not be zero
    ("classifier", "batch_size", -4, "epochs and batch_size must be positive"),  # ran no step, logged loss nan
    ("dataset", "classes", [], "classes must name at least one shape kind"),  # wrote a header-only labels.csv
    ("classifier", "lr", -0.01, "lr must be finite and positive, got -0.01"),  # trained a diverged checkpoint
    ("classifier", "lr", 0, "lr must be finite and positive, got 0"),  # wrote an untrained checkpoint
    ("classifier", "lr", float("nan"), "lr must be finite and positive, got nan"),  # blamed adam_step
    ("generator", "lr", -0.01, "lr must be finite and positive, got -0.01"),
    ("generator", "lr", float("inf"), "lr must be finite and positive, got inf"),
    ("generator", "recon_prob", 1.5, "recon_prob must lie in [0, 1], got 1.5"),  # made every element a recon
    ("generator", "recon_prob", -0.5, "recon_prob must lie in [0, 1], got -0.5"),
])
def test_config_value_out_of_range_one_error_line(workdir, tmp_path, capsys, section, key, value, word):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    flags = {"classifier": ["train-classifier", "--data", str(workdir / "data")],
             "generator": ["train-generator", "--data", str(workdir / "data"),
                           "--classifier", str(workdir / "clf.ckpt")],
             "dataset": ["make-dataset"]}[section]
    out = tmp_path / "out"
    assert main([*flags, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: ValueError: {word}"]
    assert not out.exists()


def test_evaluate_worker_error_one_error_line(workdir, tmp_path, capsys, monkeypatch):
    # a decode that overflows in a forked worker fails the command as it would in-process
    import multiprocessing

    from mirrorcfe import evaluation, workers
    from mirrorcfe.training import load_generator, save_generator

    gen = load_generator(workdir / "gen.ckpt", load_classifier(workdir / "clf.ckpt").config)
    gen.tensors["g_conv2_w"] = np.full_like(gen.tensors["g_conv2_w"], 1e308)
    save_generator(tmp_path / "gen.ckpt", gen)
    monkeypatch.setattr(evaluation, "FORK_MIN_ROWS", 1)  # the miniature split has too few rows to fan out
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    out = tmp_path / "r.csv"
    pairs = ",".join(f"{s}:{t}" for s in range(4) for t in range(4) if s != t)
    assert main(["evaluate", "--data", str(workdir / "data"), "--classifier", str(workdir / "clf.ckpt"),
                 "--generator", str(tmp_path / "gen.ckpt"), "--pairs", pairs, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [
        "error: NumericOverflowError: conv2d produced non-finite values"]
    assert multiprocessing.active_children() == []
    assert not out.exists()


@pytest.mark.parametrize("cap, code", [(0, 1), (-1, 1), (None, 0)])
def test_evaluate_max_per_pair(workdir, tmp_path, capsys, cap, code):
    # a cap of 0 used to write a report holding only its header; null means no cap
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"eval": {"max_per_pair": cap}}))
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--data", str(workdir / "data"), "--classifier", str(workdir / "clf.ckpt"),
                 "--generator", str(workdir / "gen.ckpt"), "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    if code:
        assert len(err) == 1 and err[0].startswith("error: ValueError:") and "max_per_pair" in err[0]
        assert not out.exists()
    else:
        assert err == [] and out.exists()


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": {"per_class": 3, "seed": 0, "train_fraction": 0.5}}))
    main(["make-dataset", "--config", str(cfg), "--out", str(tmp_path / "a")])
    monkeypatch.setenv("MCFE_SEED", "123")
    main(["make-dataset", "--config", str(cfg), "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "img_00000.pgm").read_bytes()
    b = (tmp_path / "b" / "img_00000.pgm").read_bytes()
    assert a != b


def test_malformed_seed_env_one_error_line(tmp_path, monkeypatch, capsys):
    # used to print "invalid literal for int() with base 10: 'abc'", naming no variable
    monkeypatch.setenv("MCFE_SEED", "abc")
    assert main(["make-dataset", "--out", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: ValueError: MCFE_SEED must be an integer, got 'abc'"]
    assert not (tmp_path / "a").exists()


def _cli_pipeline(root: Path, env: dict) -> dict[str, bytes]:
    """The five commands, each in a fresh interpreter; returns every file written."""
    root.mkdir()
    config = {**TINY, "generator": {**TINY["generator"], "ssc": True}}
    (root / "config.json").write_text(json.dumps(config))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "mirrorcfe.cli", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)

    for argv in (["make-dataset", "--config", "config.json", "--out", "data"],
                 ["train-classifier", "--data", "data", "--config", "config.json", "--out", "clf.ckpt"],
                 ["train-generator", "--data", "data", "--classifier", "clf.ckpt", "--config", "config.json",
                  "--out", "gen.ckpt"],
                 ["evaluate", "--data", "data", "--classifier", "clf.ckpt", "--generator", "gen.ckpt",
                  "--pairs", "0:1,1:0,2:3,3:2", "--out", "report.csv"]):
        proc = cli(*argv)
        assert proc.returncode == 0, proc.stderr
    explain = ["explain", "--classifier", "clf.ckpt", "--generator", "gen.ckpt",
               "--image", "data/img_00020.pgm", "--steps", "5", "--out", "frames"]
    # the target must differ from the predicted class, which is either 0 or not
    if cli(*explain, "--target", "0").returncode != 0:
        proc = cli(*explain, "--target", "1")
        assert proc.returncode == 0, proc.stderr
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_pipeline_byte_identical_across_processes(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "MCFE_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    a = _cli_pipeline(tmp_path / "a", env)
    b = _cli_pipeline(tmp_path / "b", env)
    assert "frames/confidence.csv" in a and "report.csv" in a and "gen.ckpt" in a
    assert sorted(a) == sorted(b)
    assert [name for name in a if a[name] != b[name]] == []
